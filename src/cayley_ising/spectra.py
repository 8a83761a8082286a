"""Lyapunov exponents and dimension estimators for the circle map.

Three dynamical quantities are measured: the Lyapunov exponent of the
absolutely continuous invariant measure (closed form through the disk
fixed point, cross-checked by long Birkhoff averages), the exponent of
the measure of maximal entropy (uniform-weight preimage pullback), and
the pointwise dimension of the empirical zero measure (log-log slope of
symmetric interval masses).

Both estimators work through the Moebius factor of the map.  The Birkhoff
orbits step w = e^{i theta} by w <- z((w+t)/(1+tw))^k, with no angle
reduction or arctan2 per step, and put w back on |w| = 1 once per stride
of steps, short enough that an off-circle error grows by at most 2^20
(_renorm_stride).  The pullback inverts the lift
k*psi_t + phi branch by branch through psi_{-t}, the lifted argument of
the inverse Moebius map (core.moebius_lift), with no root-finding, and
reads each preimage's lift' = k/psi_{-t}' off the same call; it never
calls the fixed-point solver, so it stays independent of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    CIRCLE_BAND,
    TAU,
    ModelParams,
    ResolutionError,
    _validate_count,
    _validate_positive,
    critical_temperature,
    disk_root,
    fixed_points,
    interior_support,
    moebius_lift,
    phi_e,
    write_csv,
)
from .measure import EmpiricalMeasure, symmetric_mass
from .zeros import TreeSpec

MAX_PULLBACK_LEAVES = 1 << 22
# fewest zeros a mass window may hold before its scale counts as unresolved,
# in the pointwise-dimension fit and in the singular-exponent y window
MIN_ATOMS = 50
# Birkhoff steps per log of the running product of 1+tw
_LOG_BLOCK = 16
# most an off-circle error of w may grow between two renormalisations
_DRIFT_GROWTH = 2.0**20


class OutsideSupportError(ValueError):
    """Raised when a spectral quantity is requested at parameters without a
    disk fixed point (on or above the gap-edge curve)."""


def _require_interior(phi: float, t: float, k: int) -> None:
    if not interior_support(phi, t, k):
        raise OutsideSupportError(
            f"(phi={phi}, t={t}) lies in the zero-free arc; the ACIM/MME "
            "machinery needs parameters strictly inside the zero support"
        )


def lyapunov_acim_closed(p: ModelParams) -> float:
    """ACIM Lyapunov exponent log(k(1-t^2)/|1+w_D t|^2).

    Derived by transporting the map to a disk automorphism fixing 0 (whose
    boundary invariant density is uniform) and applying Jensen's formula to
    log|B'| with the single disk critical point at -t of multiplicity k-1:
    chi = log|B'(w_D)| + (k-1) log|(1+t w_D)/(w_D+t)|, which telescopes to
    the stated expression.  Normalized so chi = log k at t = 0.

    Parameters outside the zero support raise OutsideSupportError.  An angle
    inside the support but so close to the gap edge that no fixed point lies
    more than CIRCLE_BAND inside the circle raises ResolutionError: the input
    is valid, but float64 cannot separate the disk root from the circle.
    """
    _require_interior(p.phi, p.t, p.k)
    (point,) = kappa_curve(p.t, p.k, [p.phi])
    if point.w_disk is None:
        raise ResolutionError(
            f"no disk fixed point found more than CIRCLE_BAND = {CIRCLE_BAND:g} inside "
            f"the unit circle at (phi={p.phi}, t={p.t}); the angle is too close to "
            "the gap-edge curve for float64 to resolve"
        )
    return point.chi


def _renorm_stride(k: int, t_max: float) -> int:
    """Birkhoff steps between renormalisations of w onto |w| = 1: the largest
    power of two r up to _LOG_BLOCK with L^r <= _DRIFT_GROWTH, or 1 when
    L itself exceeds it, where L = k(1+t_max)/(1-t_max) is the largest
    lift' at the largest t.

    A Blaschke product stretches a radial error by |B'| = lift' on the
    circle, so an error of w off |w| = 1 grows by at most L a step, and by
    at most _DRIFT_GROWTH = 2^20 over a stride.
    """
    growth = k * (1.0 + t_max) / (1.0 - t_max)
    r = 1
    # growth^(2r) is taken only when growth^r <= 2^20, so it cannot overflow
    while 2 * r <= _LOG_BLOCK and growth ** (2 * r) <= _DRIFT_GROWTH:
        r *= 2
    return r


def birkhoff_exponents(
    phis,
    ts,
    k: int,
    n_steps: int = 1_000_000,
    burn_in: int = 1_000,
    n_seeds: int = 32,
    seed: int = 0,
):
    """Batched Birkhoff averages of log lift' from uniform random starts.

    phis is a scalar or 1-D, and ts broadcasts to its shape; one orbit per
    (parameter, seed) pair.  Each orbit runs on w = e^{i theta} by
    w <- z((w+t)/(1+tw))^k and is put back on |w| = 1 once every r steps,
    r = _renorm_stride(k, max(ts)), because the circle repels radially: over
    r steps an off-circle error grows by at most _DRIFT_GROWTH = 2^20, so
    the few ulp of one step's rounding stay below about 1e-9.  The stride
    counter runs across burn-in and blocks, so no r + 1 steps in a row go
    unnormalised.  Since log lift' = log k(1-t^2) - 2 log|1+tw|, each step
    writes its 1+tw into one row of a (_LOG_BLOCK, chains) buffer, and the
    log of the modulus of the buffer's product (one left-to-right
    multiply.reduce) is taken once per block; each factor has modulus in
    [1-t, 1+t] up to the drift, so a block cannot underflow.  All chains sit
    in flat arrays and every operand is complex, ones and the modulus
    included, so no ufunc call casts.  Returns (means, stderrs) with the
    standard error taken across seeds.

    Bad input raises ValueError before any stepping: a step count, burn-in,
    seed count or seed that is not an integer in range (a stderr needs two
    seeds), phis with more than one dimension, ts that does not broadcast to
    phis, no parameters at all, or an angle that is not finite.
    """
    _validate_count("n_steps", n_steps, 1)
    _validate_count("burn_in", burn_in, 0)
    _validate_count("n_seeds", n_seeds, 2)
    _validate_count("seed", seed, 0)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    ts = np.asarray(ts, dtype=float)
    if phis.ndim > 1:
        raise ValueError(f"phis must be a scalar or 1-D, got shape {phis.shape}")
    try:
        ts = np.broadcast_to(ts, phis.shape).astype(float)
    except ValueError:
        raise ValueError(
            f"ts of shape {ts.shape} does not broadcast to phis of shape {phis.shape}"
        ) from None
    if phis.size == 0:
        raise ValueError("no parameters: phis is empty")
    for ph, tv in zip(phis, ts):
        _require_interior(ph, tv, k)
    rng = np.random.default_rng(seed)
    shape = (len(phis), n_seeds)
    w = np.exp(1j * rng.uniform(-math.pi, math.pi, size=shape)).ravel()
    t_full = np.repeat(ts, n_seeds).astype(complex)
    z = np.repeat(np.exp(1j * phis), n_seeds)
    one = np.ones_like(w)
    mob = np.empty_like(w)
    mod = np.zeros_like(w)
    mod_re = mod.real
    dens = np.empty((_LOG_BLOCK, w.size), dtype=complex)
    # the row views made once: slicing a list is cheaper than viewing rows
    den_rows = list(dens)
    log_sum = np.zeros(w.size)
    # a ufunc call costs about 1 us against tens of ns of arithmetic on a few
    # hundred chains: bound names and positional outputs trim that cost
    mul, add, div, absolute = np.multiply, np.add, np.divide, np.abs
    powers = range(k - 1)
    r = _renorm_stride(k, float(ts.max()))
    total = burn_in + n_steps
    done = 0
    while done < total:
        # the steps up to the next renormalisation or end of block; rows count
        # from the end of burn-in, so burn-in ends a chunk and its steps write
        # their 1+tw into rows that go unread
        row = (done - burn_in) % _LOG_BLOCK
        n = min(r - done % r, _LOG_BLOCK - row, total - done)
        for den in den_rows[row : row + n]:
            mul(w, t_full, den)
            add(den, one, den)
            add(w, t_full, mob)
            div(mob, den, mob)
            mul(mob, z, w)
            for _ in powers:
                mul(w, mob, w)
        done += n
        if done % r == 0:
            absolute(w, mod_re)
            div(w, mod, w)
        if done > burn_in and (row + n == _LOG_BLOCK or done == total):
            log_sum += np.log(np.abs(np.multiply.reduce(dens[: row + n], axis=0)))
    per_seed = np.log(k * (1.0 - ts * ts))[:, None] - 2.0 * log_sum.reshape(shape) / n_steps
    means = per_seed.mean(axis=1)
    stderrs = per_seed.std(axis=1, ddof=1) / math.sqrt(n_seeds)
    return means, stderrs


# ---------------------------------------------------------------------------
# measure of maximal entropy via preimage pullback


@dataclass(frozen=True)
class MmeEstimate:
    value: float
    stderr: float
    level_means: tuple[float, ...]


def _preimages(targets: np.ndarray, phi: float, t: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All k preimages in [-pi, pi] of each target angle under the lift, with
    the lift's slope at each: each goal angle of the branch window
    [lift(-pi), lift(pi)) inverts in closed form through psi_{-t}
    (core.moebius_lift), and lift' = k / psi_{-t}' there."""
    base = float(k * moebius_lift(-math.pi, t)[0] + phi)
    j0 = np.ceil((base - targets) / TAU)
    goals = targets[None, :] + TAU * (j0[None, :] + np.arange(k)[:, None])
    theta, slope = moebius_lift((goals.ravel() - phi) / k, -t)
    return np.clip(theta, -math.pi, math.pi), k / slope


def lyapunov_mme(p: ModelParams, depth: int = 16) -> MmeEstimate:
    """MME Lyapunov exponent from the uniform pullback of theta = pi.

    All k^depth depth-n preimages of pi are found level by level, each
    preimage in closed form through the inverse Moebius map (see
    _preimages); the estimator is the equal-weight average of (1/n) * sum of
    log lift' along each preimage orbit, which equals the mean of the
    per-level means m_l.  The reported stderr is std(m_l)/sqrt(depth):
    leaves share ancestors, so a per-leaf standard error would be
    dishonestly small, while the level-mean dispersion tracks the actual
    shallow-level transient.
    """
    # one level mean has no spread, so the stderr would be undefined
    _validate_count("depth", depth, 2)
    _require_interior(p.phi, p.t, p.k)
    # in Python ints: a numpy k or depth would wrap k^depth past the guard
    leaves = int(p.k) ** int(depth)
    if leaves > MAX_PULLBACK_LEAVES:
        raise ValueError(f"k^depth = {leaves} preimages exceeds the memory guard {MAX_PULLBACK_LEAVES}")
    level = np.array([math.pi])
    level_means = []
    for _ in range(depth):
        level, deriv = _preimages(level, p.phi, p.t, p.k)
        level_means.append(float(np.mean(np.log(deriv))))
    means = np.array(level_means)
    value = float(means.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(len(means)))
    return MmeEstimate(value, stderr, tuple(level_means))


# ---------------------------------------------------------------------------
# pointwise dimension of the empirical zero measure


def log_log_fit(x, y):
    """Least-squares line through (log x, log y).

    Returns (slope, R^2, fitted y values); R^2 reads 1 when log y is constant.
    """
    lx = np.log(x)
    ly = np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2, np.exp(fitted)


@dataclass(frozen=True)
class DimensionFit:
    value: float
    r_squared: float
    scales: tuple[float, ...]  # the diameters 2*delta
    masses: tuple[float, ...]
    level: int


def pointwise_dimension(
    phi: float,
    t: float,
    k: int,
    level: int = 20,
    octaves: int = 5,
    coarsest: float | None = None,
) -> DimensionFit:
    """Least-squares slope of log mass([phi-d, phi+d]) against log 2d.

    Scales are dyadic, d_j = coarsest * 2^-j, with coarsest at most the room
    before the seam and the zero-free arc (default min(pi/8, room/2)); scales
    holding fewer than MIN_ATOMS zeros are dropped from `scales`.  An
    explicit coarsest must be finite, positive and within the room, octaves
    an integer at least 2 (three scales), and |phi| < pi, else ValueError;
    phi outside the zero support raises OutsideSupportError.
    """
    if coarsest is not None:
        _validate_positive("coarsest scale", coarsest)
    _validate_count("octaves", octaves, 2)
    if abs(phi) >= math.pi:
        raise ValueError(
            f"phi={phi} is on or past the seam at +-pi: the window [phi - d, phi + d] "
            "must stay inside the principal branch (-pi, pi)"
        )
    _require_interior(phi, t, k)
    em = EmpiricalMeasure(TreeSpec("rooted", level, k), t)
    room = math.pi - abs(phi)
    if t > critical_temperature(k):
        room = min(room, abs(phi) - phi_e(t, k))
    if coarsest is None:
        coarsest = min(math.pi / 8.0, room / 2.0)
    elif coarsest > room:
        raise ValueError(f"coarsest scale {coarsest} exceeds the room {room:.6g} left at phi={phi}")
    deltas = coarsest * 0.5 ** np.arange(octaves + 1)
    masses = symmetric_mass(phi, deltas, em)
    enough = masses * em.total >= MIN_ATOMS
    deltas, masses = deltas[enough], masses[enough]
    if len(deltas) < 3:
        raise ValueError(
            "fewer than three usable scales; raise the tree level or the coarsest scale"
        )
    slope, r2, _ = log_log_fit(2.0 * deltas, masses)
    return DimensionFit(slope, r2, tuple(2.0 * deltas), tuple(masses), level)


# ---------------------------------------------------------------------------
# reports and the kappa curve


@dataclass(frozen=True)
class SpectralReport:
    phi: float
    t: float
    k: int
    chi_acim_closed: float
    chi_acim_birkhoff: float
    chi_acim_birkhoff_stderr: float
    chi_mme: float
    chi_mme_stderr: float
    kappa: float
    dim_pointwise: DimensionFit
    diagnostics: dict

    def to_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}


def spectral_report(
    p: ModelParams,
    mme_depth: int = 16,
    dim_level: int = 20,
    birkhoff_steps: int = 1_000_000,
    n_seeds: int = 32,
    seed: int = 0,
) -> SpectralReport:
    """Assemble every spectral estimate at one parameter point."""
    chi_closed = lyapunov_acim_closed(p)
    # the pullback and the fit first: they refuse a bad depth or level
    # before the long Birkhoff run
    mme = lyapunov_mme(p, depth=mme_depth)
    dim = pointwise_dimension(p.phi, p.t, p.k, level=dim_level)
    means, errs = birkhoff_exponents(
        [p.phi], [p.t], p.k, n_steps=birkhoff_steps, n_seeds=n_seeds, seed=seed
    )
    return SpectralReport(
        phi=p.phi,
        t=p.t,
        k=p.k,
        chi_acim_closed=chi_closed,
        chi_acim_birkhoff=float(means[0]),
        chi_acim_birkhoff_stderr=float(errs[0]),
        chi_mme=mme.value,
        chi_mme_stderr=mme.stderr,
        kappa=math.log(p.k) / chi_closed,
        dim_pointwise=dim,
        diagnostics={
            "mme_level_means": list(mme.level_means),
            "hd_mme_upper": math.log(p.k) / mme.value,
        },
    )


@dataclass(frozen=True)
class KappaPoint:
    phi: float
    w_disk: complex | None
    chi: float
    kappa: float
    in_support: bool


def kappa_curve(t: float, k: int, phis) -> list[KappaPoint]:
    """Per-angle disk fixed point w_D, closed-form chi (see
    lyapunov_acim_closed), and kappa = log k / chi.

    The disk fixed points of all in-support angles come from one batched
    root solve (core.fixed_points), bit for bit what a one-angle solve
    gives.  Angles inside the zero-free arc are emitted with a no-support
    marker instead of being dropped, so grids stay aligned for plotting.
    An in-support angle so close to the gap edge that the solve finds no
    disk root is emitted with w_disk=None and NaN chi and kappa, its
    in_support still True, instead of aborting the curve;
    lyapunov_acim_closed raises ResolutionError there.
    """
    phis = [float(phi) for phi in np.atleast_1d(np.asarray(phis, dtype=float))]
    support = [interior_support(phi, t, k) for phi in phis]
    solved = iter(fixed_points(t, k, [phi for phi, s in zip(phis, support) if s]))
    out = []
    for phi, inside in zip(phis, support):
        root = disk_root(next(solved)) if inside else None
        if root is None:
            out.append(KappaPoint(phi, None, math.nan, math.nan, inside))
            continue
        chi = math.log(k * (1.0 - t * t) / abs(1.0 + root * t) ** 2)
        out.append(KappaPoint(phi, root, chi, math.log(k) / chi, True))
    return out


def write_kappa_csv(path, points: list[KappaPoint]) -> None:
    rows = []
    for pt in points:
        w = pt.w_disk if pt.w_disk is not None else complex(math.nan, math.nan)
        rows.append((pt.phi, w.real, w.imag, pt.chi, pt.kappa, int(pt.in_support)))
    write_csv(path, ("phi", "w_disk_re", "w_disk_im", "chi", "kappa", "in_support"), rows)
