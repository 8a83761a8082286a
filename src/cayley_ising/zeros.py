"""Enumeration of Lee-Yang zeros for finite Cayley trees.

A field angle phi is a zero of the level-n tree iff the n-fold composed
lift G of phi lands on pi mod 2pi.  G is odd and strictly increasing in
phi with dG/dphi >= 1, and winds exactly |V| times around the circle as
phi sweeps one period.  So G(pi) = pi|V|, z = 1 is never a zero, and the
zeros are z = -1 (when |V| is odd) plus the mirror pairs +-phi_m, where
phi_m in (0, pi) is the unique solution of G(phi) = pi + 2pi*m for
m = 0 .. |V|//2 - 1.

One pass of the lift over a uniform grid on [0, pi] counts the branches
below each node, which brackets every phi_m in one grid cell; a
bracket-safeguarded Newton iteration (rtsafe) then shrinks each bracket
to one ulp of pi.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import TAU, _lift, _lift_derivative, _validate_t

# zeros whose lift lands within this angle below pi are counted as being at
# the branch seam (the set lives on (-pi, pi], so seam hits belong to +pi)
SEAM_GUARD = 1e-9

_CHUNK = 1 << 17
# smallest slice handed to a thread when workers > 1
_MIN_CHUNK = 1 << 12

# int64 winding is exact while |V| stays below this
MAX_VERTICES = 1 << 62
# enumerate_zeros refuses trees with more zeros than this: a solve holds
# about 100 bytes per zero at its peak, 1.7 GB at the cap
MAX_ZEROS = 1 << 24
# a branch solve stops once its bracket is this wide (absolute: near phi = 0
# a width of one ulp of phi may never be reached)
_WIDTH = float(np.spacing(math.pi))
_MAX_NEWTON = 200


@dataclass(frozen=True)
class TreeSpec:
    """Rooted or full Cayley tree of a given level and branching number."""

    variant: str
    level: int
    k: int

    def __post_init__(self):
        if self.variant not in ("rooted", "full"):
            raise ValueError(f"variant must be 'rooted' or 'full', got {self.variant!r}")
        if int(self.k) != self.k or self.k < 2:
            raise ValueError(f"branching number k must be an integer >= 2, got {self.k}")
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if self.variant == "full" and self.level < 1:
            raise ValueError("the full tree requires level >= 1")

    @property
    def vertex_count(self) -> int:
        k, n = self.k, self.level
        rooted = (k ** (n + 1) - 1) // (k - 1)
        if self.variant == "rooted":
            return rooted
        # center joined to k+1 rooted subtrees of level n-1
        return 1 + (k + 1) * ((k**n - 1) // (k - 1))

    @property
    def steps(self) -> tuple[int, ...]:
        """Branching exponent of each renormalization step, leaves first: k at
        every level, and k+1 for the last step of the full tree (its centre)."""
        if self.variant == "rooted":
            return (self.k,) * self.level
        return (self.k,) * (self.level - 1) + (self.k + 1,)

    @property
    def edge_count(self) -> int:
        return self.vertex_count - 1

    def edges(self):
        """Edge list (parent, child) with vertices numbered 0..|V|-1, BFS order."""
        out = []
        next_id = 1
        if self.variant == "rooted":
            queue = [(0, self.level)]
        else:
            queue = []
            for _ in range(self.k + 1):
                out.append((0, next_id))
                queue.append((next_id, self.level - 1))
                next_id += 1
        while queue:
            node, depth = queue.pop(0)
            if depth == 0:
                continue
            for _ in range(self.k):
                out.append((node, next_id))
                queue.append((next_id, depth - 1))
                next_id += 1
        return out


def zero_count(tree: TreeSpec) -> int:
    """Number of Lee-Yang zeros = number of vertices."""
    return tree.vertex_count


def _wrap_angle(theta):
    """Reduce into (-pi, pi]."""
    psi = np.remainder(theta + math.pi, TAU) - math.pi
    return np.where(psi == -math.pi, math.pi, psi)


def iterated_lift(phi, tree: TreeSpec, t: float, derivative: bool = False):
    """Composed lift G(phi) in split form (psi, winding[, dG/dphi]).

    G(phi) = psi + 2pi*winding with psi in (-pi, pi].  The winding number is
    an exact int64 (|winding| <= |V| for phi in [-pi, pi], and trees beyond
    2^62 vertices are refused), so the reduced angle psi keeps full
    precision even when G is of order 2pi*|V|; sin/cos are only ever
    evaluated on reduced angles.
    """
    _validate_t(t)
    if tree.vertex_count > MAX_VERTICES:
        raise ValueError(
            f"{tree.vertex_count} vertices exceed 2^62; the int64 winding would overflow"
        )
    phi = np.asarray(phi, dtype=float)
    psi = _wrap_angle(phi)
    wind = np.round((phi - psi) / TAU).astype(np.int64)
    deriv = np.ones_like(psi)

    for k_step in tree.steps:
        if derivative:
            deriv = _lift_derivative(psi, t, k_step) * deriv + 1.0
        raw = _lift(psi, phi, t, k_step)
        new_psi = _wrap_angle(raw)
        wind = k_step * wind + np.round((raw - new_psi) / TAU).astype(np.int64)
        psi = new_psi
    if derivative:
        return psi, wind, deriv
    return psi, wind


def branch_count(phi, tree: TreeSpec, t: float):
    """Integer C(phi) counting lift branches at or below phi; the exact zero
    count on (a, b] is C(b) - C(a)."""
    psi, wind = iterated_lift(phi, tree, t)
    return wind + (psi >= math.pi - SEAM_GUARD)


@dataclass(frozen=True)
class ZeroSet:
    """Sorted zero angles in (-pi, pi] for one (tree, t), with solver residuals."""

    tree: TreeSpec
    t: float
    angles: np.ndarray
    residuals: np.ndarray

    def __len__(self) -> int:
        return len(self.angles)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,angle_radians,residual\n")
            for i, (a, r) in enumerate(zip(self.angles, self.residuals)):
                fh.write(f"{i},{a:.17g},{r:.17g}\n")


def _map_chunks(fn, arrays, workers):
    """fn over slices of the arrays, concatenated per output.

    One worker slices at _CHUNK; several slice at ceil(n / workers), at least
    _MIN_CHUNK and at most _CHUNK, so every thread gets a share of a small
    tree.  fn is elementwise, so the result does not depend on the slicing."""
    n = len(arrays[0])
    size = _CHUNK
    if workers and workers > 1:
        size = min(_CHUNK, max(-(-n // workers), _MIN_CHUNK))
    chunks = [[a[i : i + size] for a in arrays] for i in range(0, max(n, 1), size)]
    if workers and workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda c: fn(*c), chunks))
    else:
        parts = [fn(*c) for c in chunks]
    return [np.concatenate(out) for out in zip(*parts)]


def _solve_branches(m, lo, hi, res_lo, res_hi, d_lo, d_hi, phi, tree: TreeSpec, t: float):
    """Solve G(phi) = pi + 2pi*m by safeguarded Newton (rtsafe) from phi.

    The bracket keeps lo < root <= hi: res_* = G - pi - 2pi*m is negative at
    lo and non-negative at hi, and d_* = G' there.  A Newton step is taken
    only when it lands inside the bracket and at most halves the previous
    step (a few ulp always pass); otherwise the bracket is bisected.  A
    branch stops once hi - lo <= ulp(pi), an absolute width, so one ulp here
    is max(ulp(phi), ulp(pi)/2); a Newton step under one ulp becomes a step
    of one ulp towards the root, which crosses it and closes the bracket.
    The solve returns whichever end has the smaller |res|, as
    (phi, res, G'(phi)) in the order of m.
    """
    out_phi, out_res, out_d = (np.empty(len(m)) for _ in range(3))
    active = np.arange(len(m))
    prev = hi - lo
    for _ in range(_MAX_NEWTON):
        if not active.size:
            return out_phi, out_res, out_d
        psi, wind, deriv = iterated_lift(phi, tree, t, derivative=True)
        res = (psi - math.pi) + TAU * (wind - m)
        below = res < 0.0
        lo, res_lo, d_lo = (np.where(below, a, b) for a, b in ((phi, lo), (res, res_lo), (deriv, d_lo)))
        hi, res_hi, d_hi = (np.where(below, b, a) for a, b in ((phi, hi), (res, res_hi), (deriv, d_hi)))

        done = hi - lo <= _WIDTH
        if done.any():
            take_hi = np.abs(res_hi) < np.abs(res_lo)
            at = active[done]
            out_phi[at] = np.where(take_hi, hi, lo)[done]
            out_res[at] = np.where(take_hi, res_hi, res_lo)[done]
            out_d[at] = np.where(take_hi, d_hi, d_lo)[done]
            keep = ~done
            active, m, lo, hi, res_lo, res_hi, d_lo, d_hi, phi, prev, res, deriv = (
                a[keep] for a in (active, m, lo, hi, res_lo, res_hi, d_lo, d_hi, phi, prev, res, deriv)
            )

        newton = res / deriv
        ulp = np.maximum(np.spacing(phi), 0.5 * _WIDTH)
        trial = phi - newton
        accept = (trial > lo) & (trial < hi) & (np.abs(newton) <= np.maximum(0.5 * np.abs(prev), 4.0 * ulp))
        step = np.where(accept, newton, phi - 0.5 * (lo + hi))
        step = np.where(np.abs(newton) < ulp, np.where(res < 0.0, -ulp, ulp), step)
        phi = phi - step
        prev = step
    raise RuntimeError(
        f"{len(active)} branch solves did not close their bracket in {_MAX_NEWTON} iterations"
    )


def _brackets(tree: TreeSpec, t: float, workers):
    """Grid pass: for each branch m < |V|//2, the grid cell (lo, hi] that
    holds phi_m, with res and G' at its ends and a secant start inside it.

    C0 = wind + (psi >= pi) counts the branches m >= 0 with G >= pi + 2pi*m,
    so C0 <= m exactly where res < 0.  G(0) = 0 and G(pi) = pi|V| are exact;
    z = -1 is a repelling fixed point, so the lift is never evaluated at pi.
    """
    n_zeros = zero_count(tree)
    half, odd = divmod(n_zeros, 2)
    nodes = np.linspace(0.0, math.pi, n_zeros + 1)
    psi, wind, deriv = _map_chunks(
        lambda x: iterated_lift(x, tree, t, derivative=True), [nodes[1:-1]], workers
    )
    psi = np.concatenate([[0.0], psi, [math.pi if odd else 0.0]])
    wind = np.concatenate([[0], wind, [half]])
    deriv = np.concatenate([[math.nan], deriv, [math.nan]])
    # the running maximum keeps the search monotone should rounding make C0 dip
    count = np.maximum.accumulate(wind + (psi >= math.pi))

    m = np.arange(half, dtype=np.int64)
    j_hi = np.searchsorted(count, m, side="right")
    j_lo = j_hi - 1
    res_lo = (psi[j_lo] - math.pi) + TAU * (wind[j_lo] - m)
    res_hi = (psi[j_hi] - math.pi) + TAU * (wind[j_hi] - m)
    lo, hi = nodes[j_lo], nodes[j_hi]
    phi0 = lo + (hi - lo) * (res_lo / (res_lo - res_hi))
    phi0 = np.where((phi0 > lo) & (phi0 < hi), phi0, 0.5 * (lo + hi))
    # the exact ends 0 and pi are never returned as zeros
    res_lo = np.where(j_lo == 0, -math.inf, res_lo)
    res_hi = np.where(j_hi == n_zeros, math.inf, res_hi)
    return [m, lo, hi, res_lo, res_hi, deriv[j_lo], deriv[j_hi], phi0]


def enumerate_zeros(
    tree: TreeSpec, t: float, tol: float = 1e-10, workers: int | None = None
) -> ZeroSet:
    """All Lee-Yang zeros of the tree at temperature t, by branch solves.

    Parameters
    ----------
    tree, t : tree specification and temperature variable in [0, 1).
    tol : angular residual tolerance; each returned angle satisfies
        |G(phi) - pi - 2pi m| <= tol * G'(phi).
    workers : number of threads for the chunked lift passes (chunks are
        independent and elementwise; the output does not depend on it).

    Only the |V|//2 zeros in (0, pi) are solved; the rest are their mirror
    images and, for odd |V|, exactly pi.
    """
    _validate_t(t)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_zeros = zero_count(tree)
    if n_zeros > MAX_ZEROS:
        raise ValueError(f"{n_zeros} zeros exceed the enumeration cap of {MAX_ZEROS}")
    phi, res, deriv = _map_chunks(
        lambda *a: _solve_branches(*a, tree, t), _brackets(tree, t, workers), workers
    )
    res = np.abs(res)
    bad = ~(res <= tol * deriv)
    if np.any(bad):
        raise RuntimeError(f"{int(bad.sum())} branch solves exceeded the residual tolerance")

    odd = n_zeros % 2
    order = np.argsort(phi, kind="stable")
    phi, res = phi[order], res[order]
    angles = np.concatenate([-phi[::-1], phi, [math.pi] * odd])
    residuals = np.concatenate([res[::-1], res, [0.0] * odd])
    return ZeroSet(tree, t, angles, residuals)


def min_positive_zero(zs: ZeroSet) -> float:
    """Smallest strictly positive zero angle."""
    positive = zs.angles[zs.angles > 0.0]
    if positive.size == 0:
        raise ValueError("zero set has no strictly positive angle")
    return float(positive.min())
