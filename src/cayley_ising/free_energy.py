"""Free energy, magnetization, and the radial critical exponent.

Two routes to the per-site free energy are kept deliberately independent:
the electrostatic form (logarithmic potential of the zero measure plus
explicit log|z| and log t terms) and the conditional-pair recursion in
log-magnitude form.  The radial critical exponent is extracted from the
singular-part integral transform of the symmetric mass function, whose
log-log slope in the crossing parameter y recovers the exponent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .core import _validate_finite, _validate_positive, write_csv
from .measure import EmpiricalMeasure, symmetric_mass
from .spectra import MIN_ATOMS, log_log_fit, pointwise_dimension
from .zeros import TreeSpec, enumerate_zeros


class AtomEvaluationError(ValueError):
    """Raised when the free energy is requested exactly at a Lee-Yang zero
    (the logarithmic potential diverges to -inf there)."""


class OnSupportError(ValueError):
    """Raised when the magnetization is requested on the zero support."""


def temperature_of(t: float) -> float:
    """T = -2/ln t with J = 1."""
    if not (0.0 < t < 1.0):
        raise ValueError(f"need t in (0, 1) to define the temperature, got {t}")
    return -2.0 / math.log(t)


# one zero set at a time: every caller reads one (level, k, t) for all its
# points before the next, and a set is 16 bytes per zero, 134 MB at level 22
# and 268 MB at the MAX_ZEROS cap, which a deeper cache would multiply
@lru_cache(maxsize=1)
def _cached_angles(level: int, k: int, t: float):
    zs = enumerate_zeros(TreeSpec("rooted", level, k), t)
    return np.exp(1j * zs.angles)


def free_energy_electrostatic(z: complex, t: float, k: int, n: int) -> float:
    """-2T * mean(log|z - zeta_i|) + T(log|z| + log t), edge/vertex ratio 1."""
    _validate_finite("z", z)
    temp = temperature_of(t)
    if z == 0:
        raise ValueError("z = 0 is a pole of the log|z| term")
    atoms = _cached_angles(n, k, t)
    dist = np.abs(z - atoms)
    if np.min(dist) < 1e-300:
        raise AtomEvaluationError(f"z={z} coincides with a Lee-Yang zero; F = -inf there")
    potential = float(np.mean(np.log(dist)))
    return -2.0 * temp * potential + temp * (math.log(abs(z)) + math.log(t))


def free_energy_recursive(z: complex, t: float, k: int, n: int) -> float:
    """Per-site free energy from the conditional-pair recursion.

    Tracks log|Z_n^+| and the ratio w = Z^-/Z^+ instead of the partition
    function itself, so nothing overflows at any level.  Matches the
    electrostatic route up to the finite-size T*log(t)/|V| edge-count
    correction (the electrostatic form fixes the edge/vertex ratio to 1).
    """
    _validate_finite("z", z)
    temp = temperature_of(t)
    if z == 0:
        raise ValueError("z = 0 is a pole of the field term")
    tree = TreeSpec("rooted", n, k)
    w = complex(z)
    log_zplus = -0.5 * math.log(abs(z))
    for k_step in tree.steps:
        log_zplus = (
            -0.5 * math.log(abs(z))
            - 0.5 * k_step * math.log(t)
            + k_step * (log_zplus + math.log(abs(1.0 + t * w)))
        )
        w = z * ((w + t) / (1.0 + w * t)) ** k_step
    if abs(1.0 + w) < 1e-12:
        raise AtomEvaluationError(
            f"1 + w_n = {1.0 + w:.3e}: z={z} is numerically at a Lee-Yang zero"
        )
    log_partition = log_zplus + math.log(abs(1.0 + w))
    return -2.0 * temp * log_partition / tree.vertex_count


def magnetization(z: complex, t: float, k: int, n: int) -> complex:
    """M(z) = -4z * mean(1/(z - zeta_i)) + 2; defined off the zero support.
    M(0) = 2 exactly, from the same formula and its validation."""
    _validate_finite("z", z)
    atoms = _cached_angles(n, k, t)
    dist = np.abs(z - atoms)
    if np.min(dist) < 1e-9:
        raise OnSupportError(f"z={z} is within 1e-9 of a Lee-Yang zero; M undefined there")
    return complex(-4.0 * z * np.mean(1.0 / (z - atoms)) + 2.0)


def radial_scan(phi: float, t: float, k: int, n: int, radii) -> list[tuple[float, float]]:
    """(r, F(r e^{i phi})) rows for the diagnostic radial regression.  Every
    radius must be positive (r <= 0 is not on the ray at angle phi), else
    ValueError before anything is evaluated."""
    _validate_positive("radius", radii)
    return [
        (float(r), free_energy_electrostatic(r * complex(math.cos(phi), math.sin(phi)), t, k, n))
        for r in radii
    ]


# ---------------------------------------------------------------------------
# singular part of the logarithmic potential and the critical exponent


@dataclass(frozen=True)
class SingularFit:
    kappa: float
    r_squared: float
    m_order: int
    ys: tuple[float, ...]
    h_values: tuple[float, ...]
    fitted: tuple[float, ...]
    stable: bool


def order_from_kappa(kappa_hat: float) -> int:
    """Largest integer m with 2m < kappa (so 2m < kappa <= 2m+2)."""
    _validate_positive("kappa", kappa_hat)
    return max(math.ceil(kappa_hat / 2.0) - 1, 0)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# a singular-exponent fit below this R^2 is flagged unstable (SingularFit.stable)
_R2_STABLE = 0.98


def _panels(y: float, delta0: float):
    """Gauss-Legendre nodes and weights on (y*2^-14, delta0] for one y: log-spaced
    panels, two per octave, with an exact break at zeta = y."""
    a = y * 2.0**-14
    if a >= delta0:
        raise ValueError(f"y={y} is too large for the cutoff delta0={delta0}")
    n_panels = max(int(math.ceil(2.0 * math.log2(delta0 / a))), 4)
    edges = np.exp(np.linspace(math.log(a), math.log(delta0), n_panels + 1))
    if a < y < delta0:
        edges = np.unique(np.concatenate([edges, [y]]))
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    zetas = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return zetas, weights


def singular_part(y, phi: float, m: int, em: EmpiricalMeasure, delta0: float):
    """|h_sing(y)| = int_0^delta0 Phi(zeta)/(zeta^{2m+1}(zeta^2+y^2)) y^{2m+2} dzeta,
    with Phi the symmetric mass of [phi-zeta, phi+zeta], for scalar or array y
    (a float for scalar y, an array otherwise).

    Composite Gauss-Legendre on log-spaced panels split at the zeta = y
    crossover; the mass queries of all y share one vectorized pass.  Below
    zeta = y*2^-14 the integrand contributes O((2^-14)^(kappa-2m))
    relatively and is dropped.  Every y and delta0 must be finite and
    positive, else ValueError.
    """
    _validate_positive("delta0", delta0)
    _validate_positive("y", y)
    y_list = np.asarray(y, dtype=float).ravel().tolist()
    panels = [_panels(yj, delta0) for yj in y_list]
    masses = np.split(
        symmetric_mass(phi, np.concatenate([zetas for zetas, _ in panels]), em),
        np.cumsum([len(zetas) for zetas, _ in panels])[:-1],
    )
    h = np.array([
        np.dot(weights, mass * yj ** (2 * m + 2) / (zetas ** (2 * m + 1) * (zetas * zetas + yj * yj)))
        for yj, (zetas, weights), mass in zip(y_list, panels, masses)
    ])
    return float(h[0]) if np.ndim(y) == 0 else h.reshape(np.shape(y))


def singular_exponent(
    phi: float,
    t: float,
    k: int,
    n: int = 20,
    delta0: float = 0.5,
    ys=None,
    kappa_prior: float | None = None,
) -> SingularFit:
    """Critical exponent from the log-log slope of |h_sing(y)| on a dyadic grid.

    Parameters
    ----------
    n : tree level backing the empirical measure.
    delta0 : outer cutoff of the potential integral.
    ys : crossing distances; defaults to delta0 * 2^-j over the window that
        the level-n resolution supports.  An explicit grid needs at least
        three distinct values, all finite and positive.
    kappa_prior : fixes the subtraction order m (2m < kappa_prior <= 2m+2);
        defaults to the pointwise-dimension estimate at the same parameters
        with coarsest = delta0/4, which must fit that estimate's room.

    All |h_sing(y)| of the grid come from one `singular_part` call, so a fit
    makes at most three `counts` calls: the prior, the resolution probe and
    the quadrature panels.
    """
    _validate_positive("delta0", delta0)
    if ys is not None:
        ys = np.asarray(ys, dtype=float).ravel()
        _validate_positive("y", ys)
        distinct = len(np.unique(ys))
        if distinct < 3:
            raise ValueError(f"fewer than three usable scales: the y grid has {distinct} distinct values")
    em = EmpiricalMeasure(TreeSpec("rooted", n, k), t)
    if kappa_prior is None:
        kappa_prior = pointwise_dimension(phi, t, k, level=n, coarsest=delta0 / 4.0).value
    m = order_from_kappa(kappa_prior)
    if ys is None:
        # resolution-aware default: y must stay above the scale holding
        # MIN_ATOMS zeros (the mass function is unresolved below it) and
        # well under delta0, where the finite-cutoff correction
        # (y/delta0)^(2m+2-kappa) pollutes the slope
        probe = delta0 * 2.0 ** -np.arange(1.0, 16.0, 0.25)
        resolved = symmetric_mass(phi, probe, em) * em.total >= MIN_ATOMS
        zeta50 = float(probe[resolved][-1]) if resolved.any() else math.inf
        y_fine = max(2.0 * zeta50, delta0 * 2.0**-10)
        y_coarse = delta0 / 64.0
        if y_fine * 2.0 > y_coarse:
            raise ValueError(
                f"level {n} resolves the mass function only down to ~{zeta50:.3g}, "
                f"leaving no usable y window below delta0/64 = {y_coarse:.3g}; "
                "raise the level, enlarge delta0, or pass an explicit y grid"
            )
        n_points = int(math.floor(2.0 * math.log2(y_coarse / y_fine))) + 1
        ys = y_coarse * 0.5 ** (0.5 * np.arange(n_points))
    ys = np.sort(ys)
    h_vals = singular_part(ys, phi, m, em, delta0)
    if np.any(h_vals <= 0.0):
        raise ValueError("singular part vanished on the y grid; enlarge delta0 or the level")
    slope, r2, fitted = log_log_fit(ys, h_vals)
    return SingularFit(
        slope, r2, m, tuple(map(float, ys)), tuple(map(float, h_vals)),
        tuple(map(float, fitted)), bool(r2 >= _R2_STABLE),
    )


@dataclass(frozen=True)
class FreeEnergyReport:
    """Both free-energy routes and the magnetization at one evaluation point."""

    z: complex
    t: float
    k: int
    level: int
    f_electrostatic: float
    f_recursive: float
    magnetization: complex

    def to_dict(self) -> dict:
        """The fields, a complex field f as f_re and f_im, and schema_version 1."""
        doc = {"schema_version": 1}
        for name, value in asdict(self).items():
            if isinstance(value, complex):
                doc[f"{name}_re"], doc[f"{name}_im"] = value.real, value.imag
            else:
                doc[name] = value
        return doc


def free_energy_report(z: complex, t: float, k: int, n: int) -> FreeEnergyReport:
    """Evaluate both free-energy routes and the magnetization at z."""
    return FreeEnergyReport(
        z=complex(z),
        t=t,
        k=k,
        level=n,
        f_electrostatic=free_energy_electrostatic(z, t, k, n),
        f_recursive=free_energy_recursive(z, t, k, n),
        magnetization=magnetization(z, t, k, n),
    )


def write_singular_csv(path, fit: SingularFit) -> None:
    write_csv(path, ("y", "h_sing", "fit"), zip(fit.ys, fit.h_values, fit.fitted))


def write_radial_csv(path, rows) -> None:
    write_csv(path, ("r", "free_energy"), rows)
