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
winding kept in the integer digits of m, which are all of m: every branch
m < |V|/2 lies below the product of the steps.  F_m(phi) = phi - x(phi) has
F_m' >= 1 and its one root in (0, pi) is phi_m, solved per branch by
safeguarded Newton on the bracket (0, pi): a step that would leave the
bracket, or that is longer than half the step before last, bisects.  The
Newton starts come from one forward pass of the lift over a grid of one
node per branch, interpolated at G = pi + 2pi*m; their median distance to
the root is 1e-5 to 1e-4, so a branch takes about 4 pullbacks.  The zeros
and |F_m|, the angular residual, rest on the pullback alone.

Counting (measure.EmpiricalMeasure.counts) and the Newton starts run the
lift forwards through iterated_lift, on the reduced angle psi in (-pi, pi]
next to an int64 winding, under the seam rule its docstring states.
SEAM_ULPS bounds the lift's rounding, the band below pi inside which a
count reads the lift as on the seam.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import TAU, ResolutionError, _validate_k, _validate_t, moebius_lift, write_csv

# bound on the rounding error of the composed lift, in ulp(pi) per unit of
# G'(phi) (see iterated_lift), held against a long-double lift by
# tests/test_zeros.py::test_lift_rounds_inside_seam_band: a lift that lands
# within it below pi is counted as being at the seam
# (measure.EmpiricalMeasure.counts)
SEAM_ULPS = 16

_CHUNK = 1 << 17
# smallest slice: a tree with fewer branches runs as one slice, on no thread
_MIN_CHUNK = 1 << 14

# int64 winding is exact while |V| stays below this
MAX_VERTICES = 1 << 62
# deepest tree accepted: a deeper one has |V| >= 2^(level+1) - 1 vertices,
# more than a float holds (the free energy divides by |V|) and far past the
# other caps, so refusing it keeps the step schedule and its fold small
MAX_LEVEL = 1022
# enumerate_zeros refuses trees with more zeros than this: it holds about 33
# bytes per zero at its peak on large trees (273 MB traced at level 22, 8.4 M
# zeros), 0.55 GB at the cap
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
        # an integral float such as 2.0 is refused too: the step schedule
        # repeats k level times, which needs a true int
        if not isinstance(self.level, numbers.Integral) or not 0 <= self.level <= MAX_LEVEL:
            raise ValueError(f"level must lie in [0, {MAX_LEVEL}] and be an integer, got {self.level!r}")
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
        """Edge list (parent, child) with vertices numbered 0..|V|-1, BFS order;
        the full tree's centre has k+1 children, every other inner vertex k."""
        out = []
        next_id = 1
        queue = [(0, self.level, self.k + (self.variant == "full"))]
        while queue:
            node, depth, children = queue.pop(0)
            if depth == 0:
                continue
            for _ in range(children):
                out.append((node, next_id))
                queue.append((next_id, depth - 1, self.k))
                next_id += 1
        return out


def _reduce(x):
    """Reduce x in place into (-pi, pi] by iterated_lift's seam rule and
    return the turns taken off, as floats."""
    turns = np.rint(x / TAU)
    x -= TAU * turns
    up, down = x > math.pi, x <= -math.pi
    np.subtract(x, TAU, out=x, where=up)
    np.add(x, TAU, out=x, where=down)
    turns += up
    turns -= down
    return turns


def iterated_lift(phi, tree: TreeSpec, t: float):
    """Composed lift G(phi) in split form (psi, winding, dG/dphi).

    G(phi) = psi + 2pi*winding with psi in (-pi, pi].  The winding number is
    an exact int64 (|winding| <= |V| for phi in [-pi, pi], and trees beyond
    2^62 vertices are refused), so the reduced angle psi keeps full
    precision even when G is of order 2pi*|V|.  The outputs have the shape
    of phi; a non-finite phi raises ValueError.

    Each level takes x = k*psi_t(psi) + phi through moebius_lift, and
    dG/dphi <- 1 + k*psi_t'(psi)*dG/dphi.  Seam rule: the start phi and every
    level's x are reduced by one step, whose turns the winding gains: x minus
    2pi*rint(x/2pi), then one more turn where that lands at or below -pi or
    above pi, as x at an odd multiple of pi can.  So every level reads a
    point on the seam from the side psi says; read from the other side, its
    winding would be off by k^level.

    The rounding error of G is a few ulp(pi) per unit of dG/dphi against a
    long-double lift, inside SEAM_ULPS: at most 4 on rooted k=2 and 4 and
    full k=3 trees and 7.3 on rooted k=8 up to t = 0.99 (9.6 at t = 0.999),
    over 24000 angles each.
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
    psi = flat.copy()
    wind = _reduce(psi).astype(np.int64)
    deriv = np.ones_like(psi)
    for k in tree.steps:
        psi, slope = moebius_lift(psi, t)
        slope *= k
        deriv *= slope
        deriv += 1.0
        psi *= k
        psi += flat
        wind *= k
        wind += _reduce(psi).astype(np.int64)
    return psi.reshape(phi.shape), wind.reshape(phi.shape), deriv.reshape(phi.shape)


@dataclass(frozen=True)
class ZeroSet:
    """Zero angles in (-pi, pi] for one (tree, t), non-decreasing, with solver
    residuals; two zeros closer than float64 resolves come back equal."""

    tree: TreeSpec
    t: float
    angles: np.ndarray
    residuals: np.ndarray

    def __len__(self) -> int:
        return len(self.angles)

    def write_csv(self, path) -> None:
        write_csv(path, ("index", "angle_radians", "residual"), zip(range(len(self)), self.angles, self.residuals))


def _map_chunks(fn, xs, workers):
    """fn over matching slices of the arrays xs, concatenated per output.

    Slices are ceil(n / workers) long, at least _MIN_CHUNK and at most
    _CHUNK, so every thread gets a share of a small tree, and the pool holds
    at most one thread per CPU.  fn is elementwise, so the result does not
    depend on the slicing."""
    n = len(xs[0])
    size = min(_CHUNK, max(-(-n // (workers or 1)), _MIN_CHUNK))
    chunks = [[x[i : i + size] for x in xs] for i in range(0, max(n, 1), size)]
    if workers and workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(lambda c: fn(*c), chunks))
    else:
        parts = [fn(*c) for c in chunks]
    return [np.concatenate(out) for out in zip(*parts)]


def _digits(m, steps):
    """The base-k digits of each branch m, top level first, which are all of
    m (m < |V|/2 < prod(steps), as every step is >= 2): (q, r) = divmod(n, k)
    from n = m, one row of r per level, in the smallest unsigned dtype that
    holds max(steps) - 1.  A solve takes them once, not at every pullback."""
    digits = np.empty((len(steps), len(m)), np.min_scalar_type(max(steps, default=1) - 1))
    n = m
    for row, k in zip(digits, reversed(steps)):
        n, row[:] = np.divmod(n, k)
    return digits


def _pullback(phi, digits, steps, t):
    """(F_m(phi), F_m'(phi)): the target x + 2pi*n = pi + 2pi*m pulled back
    through the levels top to bottom, F_m = phi - x at the bottom.

    A level y -> k*psi_t(y) + phi pulls x + 2pi*n back to psi_{-t}(u) + 2pi*q,
    with (q, r) = divmod(n, k) and u = (x - phi + 2pi*r)/k, so x stays of
    order pi; the digits r, all of m, come from _digits, so n is 0 at the
    bottom.  dx/dphi starts at 0 and stays negative, so F_m' >= 1.
    """
    x = np.full(len(phi), math.pi)
    dx = np.zeros(len(phi))
    for r, k in zip(digits, reversed(steps)):
        u = x - phi
        u += TAU * r
        u /= k
        x, slope = moebius_lift(u, -t)
        dx -= 1.0
        dx *= slope
        dx /= k
    return phi - x, 1.0 - dx


def _solve_branches(m, start, tree: TreeSpec, t: float):
    """Solve F_m(phi) = 0 on (0, pi) by safeguarded Newton from start,
    returning (phi, F_m(phi)) in the order of m.

    The bracket keeps lo < root <= hi (F < 0 at lo, F >= 0 at hi).  A Newton
    step becomes a bisection when it would leave the bracket, or when it is
    longer than half the step before last (rtsafe's rule, Numerical Recipes
    9.4), which breaks a cycle of steps that stay inside the bracket.  A
    branch stops once hi - lo <= ulp(pi), an absolute width, so one ulp here
    is max(ulp(phi), ulp(pi)/2); a Newton step under one ulp becomes a step
    of one ulp towards the root, which crosses it and closes the bracket.
    The solve returns whichever end has the smaller |F|.
    """
    out_phi, out_res = np.empty(len(m)), np.empty(len(m))
    active = np.arange(len(m))
    lo, hi = np.zeros(len(m)), np.full(len(m), math.pi)
    # the ends 0 and pi are never returned as zeros
    res_lo, res_hi = np.full(len(m), -math.inf), np.full(len(m), math.inf)
    # the last step and the one before it, both the bracket width at first
    last, before = np.full(len(m), math.pi), np.full(len(m), math.pi)
    digits = _digits(m, tree.steps)
    phi = start
    for _ in range(_MAX_NEWTON):
        if not active.size:
            return out_phi, out_res
        res, deriv = _pullback(phi, digits, tree.steps, t)
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
            # a few arrays at a time, so the copies never double the solve's memory
            digits, active = digits[:, keep], active[keep]
            lo, hi, res_lo, res_hi = lo[keep], hi[keep], res_lo[keep], res_hi[keep]
            phi, res, deriv = phi[keep], res[keep], deriv[keep]
            last, before = last[keep], before[keep]

        newton = res / deriv
        ulp = np.maximum(np.spacing(phi), 0.5 * _WIDTH)
        trial = phi - newton
        newton_ok = (trial > lo) & (trial < hi) & (np.abs(newton) <= 0.5 * before)
        step = np.where(newton_ok, newton, phi - 0.5 * (lo + hi))
        step = np.where(np.abs(newton) < ulp, np.where(res < 0.0, -ulp, ulp), step)
        before, last = last, np.abs(step)
        phi = phi - step
    raise ResolutionError(
        f"{len(active)} branch solves did not close their bracket in {_MAX_NEWTON} float64 "
        f"Newton-bisection iterations at t={t}"
    )


def _newton_starts(m, tree: TreeSpec, t: float, workers):
    """A start for each branch m, read off one forward pass of the lift:
    G = psi + 2pi*winding on a grid of one node per branch across [0, pi],
    interpolated linearly at G = pi + 2pi*m.  The grid is lifted in chunks,
    so it never holds more than _CHUNK nodes of lift scratch.  A start is
    kept strictly inside (0, pi): the ends are never returned as zeros."""

    def lifted(phi):
        psi, wind, _ = iterated_lift(phi, tree, t)
        return (psi + TAU * wind,)

    grid = np.linspace(0.0, math.pi, len(m) + 1)
    (g,) = _map_chunks(lifted, [grid], workers)
    start = np.interp(math.pi + TAU * m, g, grid)
    return np.clip(start, np.nextafter(0.0, 1.0), np.nextafter(math.pi, 0.0), out=start)


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
    workers : number of threads (>= 1, None for one) for the chunked grid
        lift and branch solves; both are elementwise, so the output does not
        depend on it.

    Only the |V|//2 zeros in (0, pi) are solved; the rest are their mirror
    images and, for odd |V|, exactly pi.  The angles are non-decreasing:
    two zeros closer than float64 resolves, anywhere on the circle, come
    back equal.  A branch float64 cannot solve to tol raises
    ResolutionError.
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
    # the starts are freed once solved, before the output arrays are built
    phi, res = _map_chunks(
        lambda mc, sc: _solve_branches(mc, sc, tree, t), [m, _newton_starts(m, tree, t, workers)], workers
    )
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
