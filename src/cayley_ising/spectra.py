"""Lyapunov exponents and dimension estimators for the circle map.

Three dynamical quantities are measured: the Lyapunov exponent of the
absolutely continuous invariant measure (closed form through the disk
fixed point, cross-checked by long Birkhoff averages), the exponent of
the measure of maximal entropy (uniform-weight preimage pullback), and
the pointwise dimension of the empirical zero measure (log-log slope of
symmetric interval masses).

Both estimators work through the Moebius factor of the map.  The Birkhoff
orbits step w = e^{i theta} by w <- z((w+t)/(1+tw))^k, with no angle
reduction or arctan2 per step.  The pullback inverts the lift
k*psi_t + phi branch by branch through psi_{-t}, the lifted argument of
the inverse Moebius map, with no root-finding; it never calls the
fixed-point solver, so it stays independent of the closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    TAU,
    ModelParams,
    _lift,
    _lift_derivative,
    critical_temperature,
    fixed_points,
    interior_support,
    phi_e,
)
from .measure import EmpiricalMeasure, symmetric_mass
from .zeros import TreeSpec

MAX_PULLBACK_LEAVES = 1 << 22
# Birkhoff steps per log of the running product of 1+tw
_LOG_BLOCK = 16


class OutsideSupportError(ValueError):
    """Raised when a spectral quantity is requested at parameters without a
    disk fixed point (on or above the gap-edge curve)."""


def _require_interior(phi: float, t: float, k: int) -> None:
    if not interior_support(phi, t, k):
        raise OutsideSupportError(
            f"(phi={phi}, t={t}) lies in the zero-free arc; the ACIM/MME "
            "machinery needs parameters strictly inside the zero support"
        )


def disk_fixed_point(p: ModelParams) -> complex:
    """The attracting fixed point in the open unit disk."""
    _require_interior(p.phi, p.t, p.k)
    root = fixed_points(p).disk_root()
    if root is None:
        raise OutsideSupportError(
            f"no disk fixed point found at (phi={p.phi}, t={p.t}); parameters "
            "are too close to the gap-edge curve"
        )
    return root.value


def lyapunov_acim_closed(p: ModelParams) -> float:
    """ACIM Lyapunov exponent log(k(1-t^2)/|1+w_D t|^2).

    Derived by transporting the map to a disk automorphism fixing 0 (whose
    boundary invariant density is uniform) and applying Jensen's formula to
    log|B'| with the single disk critical point at -t of multiplicity k-1:
    chi = log|B'(w_D)| + (k-1) log|(1+t w_D)/(w_D+t)|, which telescopes to
    the stated expression.  Normalized so chi = log k at t = 0.
    """
    return _chi_acim(disk_fixed_point(p), p.t, p.k)


def _chi_acim(w: complex, t: float, k: int) -> float:
    """log(k(1-t^2)/|1+w t|^2) at the disk fixed point w."""
    return math.log(k * (1.0 - t * t) / abs(1.0 + w * t) ** 2)


def lyapunov_acim_alt(p: ModelParams) -> float:
    """Alternative closed form 2*pi*log|k(1-t^2) w (1-wt) / ((w+t)(1+wt)(t-w))|.

    Retained for comparison only: it fails both chi(t=0) = log k and
    chi < log k, so the Jensen-derived form above is the one used
    everywhere; the Birkhoff estimator adjudicates between them.
    """
    w = disk_fixed_point(p)
    t, k = p.t, p.k
    num = k * (1.0 - t * t) * w * (1.0 - w * t)
    den = (w + t) * (1.0 + w * t) * (t - w)
    return TAU * math.log(abs(num / den))


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

    phis and ts broadcast together; one orbit per (parameter, seed) pair.
    Each orbit runs on w = e^{i theta} by w <- z((w+t)/(1+tw))^k and is put
    back on |w| = 1 after every step, because the circle repels radially.
    Since log lift' = log k(1-t^2) - 2 log|1+tw|, the orbit keeps the running
    product of 1+tw and takes the log of its modulus once per _LOG_BLOCK
    steps; each factor has modulus in [1-t, 1+t], so a block cannot
    underflow.  Returns (means, stderrs) with the standard error taken
    across seeds.
    """
    if n_steps < 1 or burn_in < 0 or n_seeds < 2:
        raise ValueError(
            f"need n_steps >= 1, burn_in >= 0 and n_seeds >= 2 (a stderr needs two "
            f"seeds), got {n_steps}, {burn_in} and {n_seeds}"
        )
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    ts = np.broadcast_to(np.asarray(ts, dtype=float), phis.shape).astype(float)
    for ph, tv in zip(phis, ts):
        _require_interior(ph, tv, k)
    rng = np.random.default_rng(seed)
    w = np.exp(1j * rng.uniform(-math.pi, math.pi, size=(len(phis), n_seeds)))
    # full-shape complex operands keep every ufunc on its unbuffered loop
    t_full = np.broadcast_to(ts[:, None], w.shape).astype(complex)
    z = np.broadcast_to(np.exp(1j * phis)[:, None], w.shape).copy()
    den = np.empty_like(w)
    mob = np.empty_like(w)
    mod = np.empty(w.shape)
    prod = np.ones_like(w)
    log_sum = np.zeros(w.shape)
    for step in range(burn_in + n_steps):
        np.multiply(w, t_full, out=den)
        den += 1.0
        if step >= burn_in:
            prod *= den
            if (step - burn_in) % _LOG_BLOCK == _LOG_BLOCK - 1:
                log_sum += np.log(np.abs(prod))
                prod.fill(1.0)
        np.add(w, t_full, out=mob)
        mob /= den
        np.multiply(mob, z, out=w)
        for _ in range(k - 1):
            w *= mob
        np.abs(w, out=mod)
        w /= mod
    log_sum += np.log(np.abs(prod))
    per_seed = np.log(k * (1.0 - ts * ts))[:, None] - 2.0 * log_sum / n_steps
    means = per_seed.mean(axis=1)
    stderrs = per_seed.std(axis=1, ddof=1) / math.sqrt(n_seeds)
    return means, stderrs


# ---------------------------------------------------------------------------
# measure of maximal entropy via preimage pullback


@dataclass(frozen=True)
class MmeEstimate:
    value: float
    stderr: float
    depth: int
    level_means: tuple[float, ...]


def _preimages(targets: np.ndarray, phi: float, t: float, k: int) -> np.ndarray:
    """All k preimages in [-pi, pi] of each target angle under the lift.

    The lift is k*psi_t(theta) + phi, where psi_t(theta) = theta -
    2 atan2(t sin theta, 1 + t cos theta) is the lifted argument of the
    Moebius map (w+t)/(1+tw).  Its inverse is psi_{-t}, so each goal angle
    of the branch window [lift(-pi), lift(pi)) inverts in closed form.
    """
    base = float(_lift(-math.pi, phi, t, k))
    j0 = np.ceil((base - targets) / TAU)
    goals = targets[None, :] + TAU * (j0[None, :] + np.arange(k)[:, None])
    u = (goals.ravel() - phi) / k
    theta = u + 2.0 * np.arctan2(t * np.sin(u), 1.0 - t * np.cos(u))
    return np.clip(theta, -math.pi, math.pi)


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
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    _require_interior(p.phi, p.t, p.k)
    if p.k**depth > MAX_PULLBACK_LEAVES:
        raise ValueError(
            f"k^depth = {p.k**depth} preimages exceeds the memory guard {MAX_PULLBACK_LEAVES}"
        )
    level = np.array([math.pi])
    level_means = []
    for _ in range(depth):
        level = _preimages(level, p.phi, p.t, p.k)
        level_means.append(float(np.mean(np.log(_lift_derivative(level, p.t, p.k)))))
    means = np.array(level_means)
    value = float(means.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(len(means))) if depth > 1 else math.inf
    return MmeEstimate(value, stderr, depth, tuple(level_means))


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
    min_atoms: int = 50,
    variant: str = "rooted",
) -> DimensionFit:
    """Least-squares slope of log mass([phi-d, phi+d]) against log 2d.

    Scales are dyadic, d_j = coarsest * 2^-j.  The coarsest scale is capped
    so the window stays inside the zero support (and inside the principal
    branch); the finest is raised until it still holds at least min_atoms
    zeros, warning if that truncates the requested range.
    """
    em = EmpiricalMeasure(TreeSpec(variant, level, k), t)
    room = math.pi - abs(phi)
    if t > critical_temperature(k):
        room = min(room, abs(phi) - phi_e(t, k))
    if room <= 0:
        raise OutsideSupportError(f"phi={phi} is not interior to the zero support at t={t}")
    if coarsest is None:
        coarsest = min(math.pi / 8.0, room / 2.0)
    deltas = coarsest * 0.5 ** np.arange(octaves + 1)
    masses = symmetric_mass(phi, deltas, em)
    enough = masses * em.total >= min_atoms
    if not np.all(enough):
        warnings.warn(
            f"finest scales hold fewer than {min_atoms} zeros at level {level}; "
            "shrinking the scale range",
            stacklevel=2,
        )
        deltas = deltas[enough]
        masses = masses[enough]
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
    dim_pointwise: DimensionFit | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {
            "schema_version": 1,
            "phi": self.phi,
            "t": self.t,
            "k": self.k,
            "chi_acim_closed": self.chi_acim_closed,
            "chi_acim_birkhoff": self.chi_acim_birkhoff,
            "chi_acim_birkhoff_stderr": self.chi_acim_birkhoff_stderr,
            "chi_mme": self.chi_mme,
            "chi_mme_stderr": self.chi_mme_stderr,
            "kappa": self.kappa,
            "diagnostics": self.diagnostics,
        }
        if self.dim_pointwise is not None:
            doc["dim_pointwise"] = {
                "value": self.dim_pointwise.value,
                "r_squared": self.dim_pointwise.r_squared,
                "scales": list(self.dim_pointwise.scales),
                "masses": list(self.dim_pointwise.masses),
                "level": self.dim_pointwise.level,
            }
        return doc


def spectral_report(
    p: ModelParams,
    mme_depth: int = 16,
    dim_level: int | None = 20,
    birkhoff_steps: int = 1_000_000,
    n_seeds: int = 32,
    seed: int = 0,
) -> SpectralReport:
    """Assemble every spectral estimate at one parameter point."""
    chi_closed = lyapunov_acim_closed(p)
    means, errs = birkhoff_exponents(
        [p.phi], [p.t], p.k, n_steps=birkhoff_steps, n_seeds=n_seeds, seed=seed
    )
    mme = lyapunov_mme(p, depth=mme_depth)
    dim = pointwise_dimension(p.phi, p.t, p.k, level=dim_level) if dim_level else None
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
            "chi_acim_alt_form": lyapunov_acim_alt(p),
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
    """Per-angle disk fixed point, closed-form chi, and kappa = log k / chi.

    Angles inside the zero-free arc are emitted with a no-support marker
    instead of being dropped, so grids stay aligned for plotting.
    """
    out = []
    for phi in np.atleast_1d(np.asarray(phis, dtype=float)):
        phi = float(phi)
        if not interior_support(phi, t, k):
            out.append(KappaPoint(phi, None, math.nan, math.nan, False))
            continue
        w = disk_fixed_point(ModelParams(k, t, phi))
        chi = _chi_acim(w, t, k)
        out.append(KappaPoint(phi, w, chi, math.log(k) / chi, True))
    return out


def write_kappa_csv(path, points: list[KappaPoint]) -> None:
    with open(path, "w") as fh:
        fh.write("phi,w_disk_re,w_disk_im,chi,kappa,in_support\n")
        for pt in points:
            wre = f"{pt.w_disk.real:.17g}" if pt.w_disk is not None else "nan"
            wim = f"{pt.w_disk.imag:.17g}" if pt.w_disk is not None else "nan"
            fh.write(
                f"{pt.phi:.17g},{wre},{wim},{pt.chi:.17g},{pt.kappa:.17g},"
                f"{int(pt.in_support)}\n"
            )
