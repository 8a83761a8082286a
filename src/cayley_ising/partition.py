"""Dynamics-free partition-function oracle for finite trees.

The cleared-denominator partition function is stored as the polynomial
z^{|V|/2} t^{|E|/2} Z, so the z-exponent counts down spins and the
t-exponent counts unsatisfied edges.  Conditioning on the root spin gives
the pair recursion A' = (A + tB)^k, B' = z(tA + B)^k with A_0 = 1,
B_0 = z; the full tree composes one final step with exponent k+1.  The
brute-force path sums Gibbs weights over all 2^|V| spin configurations,
streamed in chunks of _CHUNK configurations, so its memory is
O(_CHUNK |V|) whatever |V| is.  Both are exact: with t = p/q the
recursion runs on integers, each step one integer power of a polynomial
packed into a single Python int, and the brute force applies the t-powers
in rational arithmetic.  A float t is converted exactly, since every
double is a dyadic rational.

The circle roots are found without rounding.  Lee-Yang puts every root
on the unit circle, so for the palindromic integer polynomial of degree
2m (odd degree: z + 1 deflated first) e^{-im theta} P(e^{i theta}) is an
integer polynomial Q(cos theta) of degree m with m simple roots in
(-1, 1).  Descartes bisection isolates them on dyadic intervals, and
bisection on the exact sign of Q refines each to the float angle; the
half-width of the final angle bracket, in radians, is returned with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ResolutionError, write_csv
from .zeros import TreeSpec

MAX_BRUTEFORCE_VERTICES = 22
MAX_RECURSION_VERTICES = 10_000
MAX_ROOT_DEGREE = 4096
# configurations per brute-force chunk: the chunk's per-vertex bit planes
# stay in cache (2^16 measured fastest of 2^12..2^18 at |V| = 22)
_CHUNK = 1 << 16


def _exact_t(t) -> Fraction:
    try:
        exact = Fraction(t)
    except (OverflowError, ValueError):  # +-inf and NaN have no integer ratio
        exact = None
    if exact is None or not (0 <= exact <= 1):
        raise ValueError(f"temperature variable t must lie in [0, 1], got {t}")
    return exact


@dataclass(frozen=True)
class PartitionPolynomial:
    """Coefficients c_0..c_|V| of the cleared-denominator partition function."""

    tree: TreeSpec
    t: Fraction
    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _pair_sum(steps, p: int, q: int, z: int) -> int:
    """q-cleared A + B of the pair recursion at the integer z, for t = p/q."""
    a, b = 1, z
    for k in steps:
        a, b = (q * a + p * b) ** k, z * (p * a + q * b) ** k
    return a + b


def partition_poly_recursive(tree: TreeSpec, t) -> PartitionPolynomial:
    """Exact conditional-pair recursion for rational (or float) t in [0, 1].

    Writing t = p/q and clearing denominators gives a' = (qa + pb)^k and
    b' = z(pa + qb)^k, with non-negative integer coefficients.  Evaluating
    it at z = 2^w (Kronecker substitution) turns each step into integer
    arithmetic and yields P(2^w) exactly; every coefficient of P lies in
    [0, P(1)], so w = bit length of P(1), rounded up to whole bytes, keeps
    the coefficients in separate slots.  The constant coefficient is the
    common denominator, since c_0 = 1 (the all-up configuration).
    """
    if tree.vertex_count > MAX_RECURSION_VERTICES:
        raise ValueError(
            f"tree has {tree.vertex_count} vertices; the coefficient recursion is "
            f"capped at {MAX_RECURSION_VERTICES} (its integers and memory grow "
            "beyond desk scale past this point)"
        )
    t = _exact_t(t)
    p, q = t.numerator, t.denominator
    width = (_pair_sum(tree.steps, p, q, 1).bit_length() + 7) // 8
    packed = _pair_sum(tree.steps, p, q, 1 << (8 * width))
    raw = packed.to_bytes((tree.vertex_count + 1) * width, "little")
    ints = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    return PartitionPolynomial(tree, t, tuple(Fraction(c, ints[0]) for c in ints))


def partition_poly_bruteforce(tree: TreeSpec, t) -> PartitionPolynomial:
    """Sum over all 2^|V| spin configurations (guarded at |V| <= 22).

    Every configuration contributes t^{unsatisfied edges} to the
    coefficient of z^{down spins}.  The double histogram over
    (down spins, unsatisfied edges) is accumulated in one vectorized pass
    over chunks of _CHUNK configurations, each read from its own bits, so
    memory stays O(_CHUNK |V|) whatever |V| is; the t-powers are applied
    exactly afterwards.
    """
    if tree.vertex_count > MAX_BRUTEFORCE_VERTICES:
        raise ValueError(
            f"brute force is capped at {MAX_BRUTEFORCE_VERTICES} vertices, tree has {tree.vertex_count}"
        )
    t = _exact_t(t)
    # the sum reads only its own edge list, never the step schedule, so a
    # wrong schedule shows as a mismatch with the recursion
    edges = tree.edges()
    n_e = len(edges)
    n_v = n_e + 1
    base = np.arange(min(_CHUNK, 1 << n_v), dtype=np.uint32)
    hist = np.zeros((n_v + 1) * (n_e + 1), dtype=np.int64)
    for start in range(0, 1 << n_v, base.size):
        configs = base + np.uint32(start)
        bits = [(configs >> np.uint32(v)).astype(np.uint8) & 1 for v in range(n_v)]
        unsat = np.zeros(base.size, dtype=np.uint8)  # |E| <= 21 under the guard
        for a, b in edges:
            unsat += bits[a] ^ bits[b]
        key = np.bitwise_count(configs).astype(np.int64) * (n_e + 1) + unsat
        hist += np.bincount(key, minlength=hist.size)
    hist = hist.reshape(n_v + 1, n_e + 1)

    powers = [t**u for u in range(n_e + 1)]
    coeffs = tuple(
        sum((int(h) * powers[u] for u, h in enumerate(row) if h), Fraction(0)) for row in hist
    )
    return PartitionPolynomial(tree, t, coeffs)


# ---------------------------------------------------------------------------
# exact root isolation on the unit circle


def _taylor_shift(a):
    """Coefficients of a(y + 1)."""
    a = list(a)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _descartes(f) -> int:
    """Sign variations of (1+y)^m f(1/(1+y)), capped at 2: an upper bound on
    the number of roots of f in (0, 1), exact when it reads 0 or 1."""
    count, last = 0, 0
    for c in _taylor_shift(f[::-1]):
        if c:
            if last and (c > 0) != (last > 0):
                count += 1
                if count == 2:
                    return 2
            last = c
    return count


def _halve(f):
    """2^m f(y/2), with the common power of two divided out."""
    m = len(f) - 1
    g = [c << (m - i) for i, c in enumerate(f)]
    shift = min(((c & -c).bit_length() - 1 for c in g if c), default=0)
    return [c >> shift for c in g]


def _circle_polynomial(coeffs) -> list[int]:
    """Integer R(y) = Q(2y - 1), where Q(cos theta) = e^{-im theta} P(e^{i theta})
    for the degree-2m palindrome P (z + 1 deflated first at odd degree)."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    a = [int(Fraction(c) * den) for c in coeffs]
    if len(a) % 2 == 0:
        # odd degree: a palindrome has P(-1) = 0 exactly, so z + 1 divides it
        s = [0] * (len(a) - 1)
        s[-1] = a[-1]
        for j in range(len(a) - 2, 0, -1):
            s[j - 1] = a[j] - s[j]
        a = s
    m = (len(a) - 1) // 2
    # Q = a_m + 2 sum_j a_{m+j} T_j(x), with T_{j+1} = 2x T_j - T_{j-1}
    q = [a[m]] + [0] * m
    t_prev, t_cur = [1], [0, 1]
    for j in range(1, m + 1):
        for i, c in enumerate(t_cur):
            q[i] += 2 * a[m + j] * c
        t_next = [0] + [2 * c for c in t_cur]
        for i, c in enumerate(t_prev):
            t_next[i] -= c
        t_prev, t_cur = t_cur, t_next
    # x = 2y - 1: shift by -1 (mirror, shift by +1, mirror back), then scale
    r = _taylor_shift([c if i % 2 == 0 else -c for i, c in enumerate(q)])
    r = [(c if i % 2 == 0 else -c) << i for i, c in enumerate(r)]
    g = math.gcd(*r)
    return [c // g for c in r]


def _depth_cap(r) -> int:
    """Bisection depth past which Descartes' test can only keep reading >= 2
    on a multiple root.

    A reading >= 2 on a width-w interval puts two roots within sqrt(3) w of
    each other (two-circle theorem), and Mahler's bound keeps distinct roots
    of a squarefree integer polynomial of degree m more than
    sqrt(3) m^{-(m+2)/2} ||r||_2^{1-m} apart.  ||r||_2 is bounded through
    bit lengths, so no float ever holds the coefficients.
    """
    m = len(r) - 1
    if m < 2:
        return 0
    log2_norm = max(abs(c).bit_length() for c in r) + 0.5 * math.log2(m + 1)
    return math.ceil(0.5 * (m + 2) * math.log2(m) + (m - 1) * log2_norm) + 1


def _isolate(r):
    """Exact roots and isolating intervals of r in (0, 1), as dyadic
    (numerator, exponent) pairs: y = c/2^e, or (c/2^e, (c+1)/2^e)."""
    cap = _depth_cap(r)
    exact, intervals = [], []
    stack = [(0, 0, r)]
    while stack:
        c, e, f = stack.pop()
        v = _descartes(f)
        if v == 1:
            intervals.append((c, e))
        elif v == 2:
            if e >= cap:
                raise ValueError(
                    f"root isolation passed the separation bound of {cap} bisections; "
                    "the circle polynomial has a multiple root"
                )
            left = _halve(f)
            right = _taylor_shift(left)
            if right[0] == 0:
                exact.append((2 * c + 1, e + 1))
            stack.append((2 * c, e + 1, left))
            stack.append((2 * c + 1, e + 1, right))
    return exact, intervals


def _sign(r, c: int, e: int) -> int:
    """Sign of r(c/2^e), exactly."""
    acc = r[-1]
    m = len(r) - 1
    for i in range(m - 1, -1, -1):
        acc = acc * c + (r[i] << (e * (m - i)))
    return (acc > 0) - (acc < 0)


def _angle(c: int, e: int) -> float:
    """theta with cos^2(theta/2) = y = c/2^e; y and 1 - y are exact before
    rounding, which keeps full relative precision near 0 and pi."""
    den = 1 << e
    return 2.0 * math.atan2(math.sqrt((den - c) / den), math.sqrt(c / den))


def _refine(r, c: int, e: int) -> tuple[float, float]:
    """Bisect the isolating interval (c/2^e, (c+1)/2^e) on the exact sign of
    r until the angles at its ends are within 2 ulp; return their mean and
    the bracket's half-width (0.0 when a midpoint is the root exactly)."""
    s_lo = _sign(r, c, e)
    if s_lo == 0:
        # the left end is another (simple) root: take the sign of r' there
        s_lo = _sign([i * x for i, x in enumerate(r)][1:], c, e)
    lo, hi = c, c + 1
    while True:
        a_lo, a_hi = _angle(lo, e), _angle(hi, e)
        if a_lo - a_hi <= 2.0 * math.ulp(a_lo):
            return 0.5 * (a_lo + a_hi), 0.5 * (a_lo - a_hi)
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        mid = lo + 1
        s_mid = _sign(r, mid, e)
        if s_mid == 0:
            return _angle(mid, e), 0.0
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid


def poly_roots_on_circle(p: PartitionPolynomial):
    """All roots of the partition polynomial, certified on the unit circle.

    The polynomial must be palindromic with positive coefficients, else
    ValueError: the certificate below holds only for such P.  The
    m = degree//2 root angles in (0, pi) are isolated and refined in exact
    integer arithmetic (module docstring); the rest are their mirror images
    and, at odd degree, exactly pi.  m roots of Q in (-1, 1) are all the
    roots of P, so each is on the circle; finding fewer (some off the
    circle, or one at z = -1 in even degree) or a multiple root raises
    ValueError, since a tree's polynomial has neither, and two roots closer
    than float64 resolves raise ResolutionError: missed or duplicated roots
    never pass silently.  Each root comes as (angle, half-width): the
    half-width in radians of its final bracket between the rounded end
    angles (0.0 for roots hit exactly), not an error bound by itself, since
    it leaves out the rounding of those end angles.
    """
    if p.degree > MAX_ROOT_DEGREE:
        raise ValueError(f"root finding capped at degree {MAX_ROOT_DEGREE}, got {p.degree}")
    if p.t >= 1:
        raise ValueError("t >= 1 degenerates to a multiple root at z = -1; use the analytic limit")
    if any(c <= 0 for c in p.coeffs):
        raise ValueError("partition coefficients must be strictly positive")
    if p.coeffs != p.coeffs[::-1]:
        raise ValueError("partition coefficients must be palindromic (c_j = c_{degree-j})")

    r = _circle_polynomial(p.coeffs)
    m = len(r) - 1
    exact, intervals = _isolate(r)
    if len(exact) + len(intervals) != m:
        raise ValueError(
            f"found {len(exact) + len(intervals)} of {m} roots of the circle polynomial "
            "in (-1, 1); the rest are off the unit circle or at z = -1"
        )
    upper = sorted([(_angle(c, e), 0.0) for c, e in exact] + [_refine(r, c, e) for c, e in intervals])
    if any(a == b for (a, _), (b, _) in zip(upper, upper[1:])):
        raise ResolutionError("two circle roots are closer than float64 resolves; refusing duplicates")
    pi_part = [(math.pi, 0.0)] if p.degree % 2 else []
    return [(-a, w) for a, w in upper[::-1]] + upper + pi_part


def write_roots_csv(path, pairs) -> None:
    write_csv(path, ("index", "angle_radians", "residual"), ((i, a, r) for i, (a, r) in enumerate(pairs)))
