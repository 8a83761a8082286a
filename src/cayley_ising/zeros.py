"""Enumeration of Lee-Yang zeros for finite Cayley trees.

A field angle phi is a zero of the level-n tree iff the n-fold composed
lift G of phi lands on pi mod 2pi.  G is odd and strictly increasing in
phi with dG/dphi >= 1, and winds exactly |V| times around the circle as
phi sweeps one period.  So G(pi) = pi|V|, z = 1 is never a zero, and the
zeros are z = -1 (when |V| is odd) plus the mirror pairs +-phi_m, where
phi_m in (0, pi) is the unique solution of G(phi) = pi + 2pi*m for
m = 0 .. |V|//2 - 1.

Enumeration reads that condition backwards: each level's lift is an
increasing bijection of R with a closed-form inverse, so at a trial phi the
target pi + 2pi*m pulls back through the levels to a start x(phi), the
winding kept in the integer digits of m.  F_m(phi) = phi - x(phi) has
F_m' >= 1 and its one root in (0, pi) is phi_m, solved per branch by
safeguarded Newton; |F_m| is the angular residual.

Counting (measure.EmpiricalMeasure.counts) runs the lift forwards through
iterated_lift, carried as the circle point w = e^{i psi} next to an int64
winding: each level applies the Blaschke product w -> z((w+t)/(1+tw))^k in
complex arithmetic and takes two arctan2, one for the lifted Moebius angle
and one for the new psi, with no sin, cos or remainder.  The seam rule: psi
lives on (-pi, pi], so where arctan2 returns -pi the angle is set to pi and
Im w to +0.0, and the starting point is e^{i psi} of the reduced angle,
never e^{i phi}; otherwise a point at the seam is read from the wrong side
and its winding is off by k^level.  SEAM_ULPS bounds the lift's rounding,
the band below pi inside which a count reads the lift as on the seam.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import TAU, ResolutionError, _validate_k, _validate_t, inverse_moebius_lift, write_csv

# bound on the rounding error of the composed lift, in ulp(pi) per unit of
# G'(phi) (see iterated_lift): a lift that lands within it below pi is
# counted as being at the seam (measure.EmpiricalMeasure.counts)
SEAM_ULPS = 16

_CHUNK = 1 << 17
# smallest slice handed to a thread when workers > 1
_MIN_CHUNK = 1 << 12

# int64 winding is exact while |V| stays below this
MAX_VERTICES = 1 << 62
# deepest tree accepted: a deeper one has |V| >= 2^(level+1) - 1 vertices,
# more than a float holds (the free energy divides by |V|) and far past the
# other caps, so refusing it keeps the step schedule and its fold small
MAX_LEVEL = 1022
# enumerate_zeros refuses trees with more zeros than this: the solve holds
# about 35 bytes per zero at its peak on large trees, 0.6 GB at the cap
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
        _validate_k(self.k)
        if not 0 <= self.level <= MAX_LEVEL:
            raise ValueError(f"level must lie in [0, {MAX_LEVEL}], got {self.level}")
        if self.variant == "full" and self.level < 1:
            raise ValueError("the full tree requires level >= 1")

    @property
    def vertex_count(self) -> int:
        """Number of vertices, which is the number of Lee-Yang zeros: folded
        from the step schedule, leaves first, as 1 + s * (count below)."""
        count = 1
        for s in self.steps:
            count = 1 + s * count
        return count

    @property
    def steps(self) -> tuple[int, ...]:
        """Branching exponent of each renormalization step, leaves first: k at
        every level, and k+1 for the last step of the full tree (its centre)."""
        if self.variant == "rooted":
            return (self.k,) * self.level
        return (self.k,) * (self.level - 1) + (self.k + 1,)

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


def _wrap_angle(theta):
    """Reduce into (-pi, pi]; angles already there come back unchanged."""
    theta = np.asarray(theta, dtype=float)
    inside = (theta > -math.pi) & (theta <= math.pi)
    psi = np.remainder(theta + math.pi, TAU) - math.pi
    return np.where(inside, theta, np.where(psi == -math.pi, math.pi, psi))


def iterated_lift(phi, tree: TreeSpec, t: float):
    """Composed lift G(phi) in split form (psi, winding, dG/dphi).

    G(phi) = psi + 2pi*winding with psi in (-pi, pi].  The winding number is
    an exact int64 (|winding| <= |V| for phi in [-pi, pi], and trees beyond
    2^62 vertices are refused), so the reduced angle psi keeps full
    precision even when G is of order 2pi*|V|.  The outputs have the shape
    of phi; a non-finite phi raises ValueError.

    Each level steps the point w = e^{i psi} of the circle through the
    Blaschke product w -> z((w+t)/(1+tw))^k with z = e^{i phi}, in complex
    arithmetic (see _lift_steps); the reduced angle is psi = arg w, and the
    winding gains the integer that takes arg w to the lifted angle
    k*arg((w+t)/(1+tw)) + phi.  Seam rule: the start is w = e^{i psi} of the
    reduced angle, and where arctan2 returns -pi, psi becomes pi and Im w
    +0.0, so every level reads a point on the seam from the side psi says.

    The rounding error of G is a few ulp(pi) per unit of dG/dphi: up to
    about 9 for t <= 0.95 against an extended-precision angle form.  It
    grows like 1/(1-t^2) as t -> 1, because near w = -1 the rounding of
    Re w turns the Moebius angle.
    """
    _validate_t(t)
    if tree.vertex_count > MAX_VERTICES:
        raise ValueError(
            f"{tree.vertex_count} vertices exceed 2^62; the int64 winding would overflow"
        )
    phi = np.asarray(phi, dtype=float)
    finite = np.isfinite(phi)
    if not finite.all():
        raise ValueError(f"the lift needs finite angles, got phi = {phi[~finite].flat[0]}")
    flat = phi.reshape(-1)
    psi = _wrap_angle(flat)
    wind = np.rint((flat - psi) / TAU).astype(np.int64)
    deriv = np.ones_like(psi)
    _lift_steps(flat, psi, wind, deriv, tree.steps, t)
    return psi.reshape(phi.shape), wind.reshape(phi.shape), deriv.reshape(phi.shape)


def _lift_steps(phi, psi, wind, deriv, steps, t):
    """Run the composed lift, updating psi, wind and deriv in place.

    With w = e^{i psi}, m = (w + t)(1 + t conj(w)) has m/|m| = (w+t)/(1+tw)
    and |m| = |1+tw|^2, so the lift's derivative is k(1-t^2)/|m|.  Written
    out, m = ((1+t^2) Re w + 2t) + i(1-t^2) Im w: the sign of Im m is
    exactly that of Im w, so arctan2 gives the lifted Moebius angle on
    (-pi, pi].  The step is w <- z(m/|m|)^k; every factor has modulus one to
    rounding, so |w| stays within a few ulp of one without renormalising w.
    """
    n = len(phi)
    w, v, z, u = (np.empty(n, complex) for _ in range(4))
    raw, mod, m_re, m_im = (np.empty(n) for _ in range(4))
    turns, seam = np.empty(n, np.int64), np.empty(n, bool)
    np.multiply(psi, 1j, out=u)
    np.exp(u, out=w)
    np.multiply(phi, 1j, out=u)
    np.exp(u, out=z)
    for k in steps:
        np.multiply(w.real, 1.0 + t * t, out=m_re)
        m_re += 2.0 * t
        np.multiply(w.imag, 1.0 - t * t, out=m_im)
        np.arctan2(m_im, m_re, out=raw)
        raw *= k
        raw += phi
        # mod <- 1/|m|; psi is free until the new angle is taken
        np.multiply(m_re, m_re, out=mod)
        np.multiply(m_im, m_im, out=psi)
        mod += psi
        np.sqrt(mod, out=mod)
        np.divide(1.0, mod, out=mod)
        deriv *= mod
        deriv *= k * (1.0 - t * t)
        deriv += 1.0
        np.multiply(m_re, mod, out=u.real)
        np.multiply(m_im, mod, out=u.imag)
        # the products alternate between two buffers: numpy rounds a
        # one-element complex product written over its own input apart from
        # its vector loop, which would tie the result to the slicing
        np.multiply(z, u, out=w)
        for _ in range(k - 1):
            np.multiply(w, u, out=v)
            w, v = v, w
        np.arctan2(w.imag, w.real, out=psi)
        np.equal(psi, -math.pi, out=seam)
        np.copyto(psi, math.pi, where=seam)
        np.copyto(w.imag, 0.0, where=seam)
        raw -= psi
        raw *= 1.0 / TAU
        np.rint(raw, out=raw)
        np.copyto(turns, raw, casting="unsafe")
        wind *= k
        wind += turns


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
        write_csv(path, ("index", "angle_radians", "residual"), zip(range(len(self)), self.angles, self.residuals))


def _map_chunks(fn, x, workers):
    """fn over slices of x, concatenated per output.

    One worker slices at _CHUNK; several slice at ceil(n / workers), at least
    _MIN_CHUNK and at most _CHUNK, so every thread gets a share of a small
    tree.  fn is elementwise, so the result does not depend on the slicing."""
    size = _CHUNK
    if workers and workers > 1:
        size = min(_CHUNK, max(-(-len(x) // workers), _MIN_CHUNK))
    chunks = [x[i : i + size] for i in range(0, max(len(x), 1), size)]
    if workers and workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(fn, chunks))
    else:
        parts = [fn(c) for c in chunks]
    return [np.concatenate(out) for out in zip(*parts)]


def _pullback(phi, m, steps, t):
    """(F_m(phi), F_m'(phi)): the target x + 2pi*n = pi + 2pi*m pulled back
    through the levels top to bottom, F_m = phi - x - 2pi*n at the bottom.

    A level y -> k*psi_t(y) + phi pulls x + 2pi*n back to psi_{-t}(u) + 2pi*q,
    with (q, r) = divmod(n, k) and u = (x - phi + 2pi*r)/k, so x stays of
    order pi.  dx/dphi starts at 0 and stays negative, so F_m' >= 1.
    """
    x = np.full(len(phi), math.pi)
    dx = np.zeros(len(phi))
    n = m
    for k in reversed(steps):
        n, r = np.divmod(n, k)
        u = (x - phi + TAU * r) / k
        x = inverse_moebius_lift(u, t)
        dx = (dx - 1.0) * ((1.0 - t * t) / k) / (1.0 + t * t - 2.0 * t * np.cos(u))
    return phi - x - TAU * n, 1.0 - dx


def _solve_branches(m, tree: TreeSpec, t: float):
    """Solve F_m(phi) = 0 on (0, pi) by safeguarded Newton from the t = 0
    zero (2m+1)pi/|V|, returning (phi, F_m(phi)) in the order of m.

    The bracket keeps lo < root <= hi (F < 0 at lo, F >= 0 at hi); a Newton
    step that leaves it becomes a bisection.  A branch stops once
    hi - lo <= ulp(pi), an absolute width, so one ulp here is
    max(ulp(phi), ulp(pi)/2); a Newton step under one ulp becomes a step of
    one ulp towards the root, which crosses it and closes the bracket.  The
    solve returns whichever end has the smaller |F|.
    """
    out_phi, out_res = np.empty(len(m)), np.empty(len(m))
    active = np.arange(len(m))
    lo, hi = np.zeros(len(m)), np.full(len(m), math.pi)
    # the ends 0 and pi are never returned as zeros
    res_lo, res_hi = np.full(len(m), -math.inf), np.full(len(m), math.inf)
    phi = (2 * m + 1) * (math.pi / tree.vertex_count)
    for _ in range(_MAX_NEWTON):
        if not active.size:
            return out_phi, out_res
        res, deriv = _pullback(phi, m, tree.steps, t)
        below = res < 0.0
        lo, res_lo = np.where(below, phi, lo), np.where(below, res, res_lo)
        hi, res_hi = np.where(below, hi, phi), np.where(below, res_hi, res)

        done = hi - lo <= _WIDTH
        if done.any():
            take_hi = np.abs(res_hi) < np.abs(res_lo)
            at = active[done]
            out_phi[at] = np.where(take_hi, hi, lo)[done]
            out_res[at] = np.where(take_hi, res_hi, res_lo)[done]
            keep = ~done
            active, m, lo, hi, res_lo, res_hi, phi, res, deriv = (
                a[keep] for a in (active, m, lo, hi, res_lo, res_hi, phi, res, deriv)
            )

        newton = res / deriv
        ulp = np.maximum(np.spacing(phi), 0.5 * _WIDTH)
        trial = phi - newton
        step = np.where((trial > lo) & (trial < hi), newton, phi - 0.5 * (lo + hi))
        step = np.where(np.abs(newton) < ulp, np.where(res < 0.0, -ulp, ulp), step)
        phi = phi - step
    raise ResolutionError(
        f"{len(active)} branch solves did not close their bracket in {_MAX_NEWTON} float64 "
        f"Newton-bisection iterations at t={t}"
    )


def enumerate_zeros(
    tree: TreeSpec, t: float, tol: float = 1e-10, workers: int | None = None
) -> ZeroSet:
    """All Lee-Yang zeros of the tree at temperature t, by branch solves.

    Parameters
    ----------
    tree, t : tree specification and temperature variable in [0, 1).
    tol : angular residual tolerance; each returned angle satisfies
        |F_m(phi)| <= tol, and since F_m' >= 1 this bounds |phi - phi_m|
        up to the rounding of F_m.
    workers : number of threads (>= 1, None for one) for the chunked branch
        solves; each branch is solved on its own, so the output does not
        depend on it.

    Only the |V|//2 zeros in (0, pi) are solved; the rest are their mirror
    images and, for odd |V|, exactly pi.  A branch float64 cannot solve to
    tol raises ResolutionError.
    """
    _validate_t(t)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n_zeros = tree.vertex_count
    if n_zeros > MAX_ZEROS:
        raise ValueError(f"{n_zeros} zeros exceed the enumeration cap of {MAX_ZEROS}")
    m = np.arange(n_zeros // 2, dtype=np.int64)
    phi, res = _map_chunks(lambda c: _solve_branches(c, tree, t), m, workers)
    res = np.abs(res)
    bad = ~(res <= tol)
    if np.any(bad):
        raise ResolutionError(f"{int(bad.sum())} branch solves exceeded tol={tol}; float64 cannot resolve them")

    odd = n_zeros % 2
    order = np.argsort(phi, kind="stable")
    phi, res = phi[order], res[order]
    angles = np.concatenate([-phi[::-1], phi, [math.pi] * odd])
    residuals = np.concatenate([res[::-1], res, [0.0] * odd])
    return ZeroSet(tree, t, angles, residuals)
