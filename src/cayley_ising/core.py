"""Circle-map dynamics of the tree renormalization.

The degree-k Blaschke-type map w -> z((w+t)/(1+wt))^k preserves the unit
circle; everything downstream (zero enumeration, empirical measures,
Lyapunov exponents) is driven by its angular lift, its derivative, its
fixed points, and the tangency locus where a circle fixed point becomes
multiple.  The module also holds the one CSV writer and the one JSON writer
that every artifact goes through.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi

# |w|-1 band inside which a fixed point is classified as "on the circle"
CIRCLE_BAND = 1e-8


def write_csv(path, header, rows) -> None:
    """CSV artifact: the header line, then every cell of every row to 17
    significant digits (floats round-trip; integers below 10^17 print as
    themselves, NaN as "nan")."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def json_text(doc) -> str:
    """Canonical JSON: sorted keys, indent 1, trailing newline.  A NaN or an
    infinity raises ValueError instead of producing invalid JSON."""
    return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"


def write_json(path, doc) -> None:
    """JSON artifact; the text is built before the file is opened, so a
    document that cannot be written leaves no file behind."""
    text = json_text(doc)
    with open(path, "w") as fh:
        fh.write(text)


class NoGapError(ValueError):
    """Raised when the zero-free arc is requested below the critical temperature."""


class ResolutionError(RuntimeError):
    """Raised when the input is valid but float64 cannot resolve the answer."""


def _validate_t(t: float) -> None:
    if not (0.0 <= t < 1.0):
        raise ValueError(f"temperature variable t must lie in [0, 1), got {t}")


def _validate_k(k) -> None:
    """A branching number is an integer >= 2; an integral float such as 2.0
    is refused too, since the tree sizes and lift powers need a true int."""
    if not isinstance(k, numbers.Integral) or k < 2:
        raise ValueError(f"branching number k must be an integer >= 2, got {k!r}")


@dataclass(frozen=True)
class ModelParams:
    """Branching number k, temperature variable t in [0,1), field angle phi in (-pi, pi]."""

    k: int
    t: float
    phi: float = 0.0

    def __post_init__(self):
        _validate_k(self.k)
        _validate_t(self.t)
        if not (-math.pi < self.phi <= math.pi):
            raise ValueError(f"field angle phi must lie in (-pi, pi], got {self.phi}")

    @property
    def z(self) -> complex:
        return cmath.exp(1j * self.phi)


def lift_eval(theta, p: ModelParams):
    """Angular lift k*theta - 2k*arctan(t sin(theta)/(1+t cos(theta))) + phi.

    Accepts scalar or ndarray theta.  The denominator 1 + t cos(theta) is
    bounded below by 1-t > 0, so the lift is smooth on all of R and
    satisfies lift(theta + 2pi) = lift(theta) + 2pi k.
    """
    k, t = p.k, p.t
    return k * theta - 2.0 * k * np.arctan2(t * np.sin(theta), 1.0 + t * np.cos(theta)) + p.phi


def lift_derivative(theta, p: ModelParams):
    """d(lift)/d(theta) = k(1-t^2)/(1+2t cos(theta)+t^2) > 0."""
    k, t = p.k, p.t
    return k * (1.0 - t * t) / (1.0 + 2.0 * t * np.cos(theta) + t * t)


def inverse_moebius_lift(u, t: float):
    """psi_{-t}(u) = u + 2 atan2(t sin u, 1 - t cos u), the lifted argument of
    the inverse Moebius map w -> (w-t)/(1-tw).

    It inverts psi_t(theta) = theta - 2 atan2(t sin theta, 1 + t cos theta) on
    all of R, so lift(y) = x iff y = psi_{-t}((x - phi)/k); its derivative is
    (1-t^2)/(1 - 2t cos u + t^2).
    """
    return u + 2.0 * np.arctan2(t * np.sin(u), 1.0 - t * np.cos(u))


# ---------------------------------------------------------------------------
# fixed points of w -> z((w+t)/(1+wt))^k


@dataclass(frozen=True)
class FixedPoint:
    value: complex
    location: str  # "disk" | "circle" | "exterior"
    multiplier: complex


def _fixed_point_poly(z, t: float, k: int) -> np.ndarray:
    """Ascending coefficients of P(w) = z(w+t)^k - w(1+wt)^k, one row per field z."""
    z = np.asarray(z, dtype=complex)
    c = np.zeros((z.size, k + 2), dtype=complex)
    for j in range(k + 1):
        c[:, j] += z * math.comb(k, j) * t ** (k - j)
        c[:, j + 1] -= math.comb(k, j) * t**j
    return c


def _horner(desc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise np.polyval: row i of desc (descending) at every x[i, :]."""
    y = np.zeros_like(x)
    for j in range(desc.shape[1]):
        y = y * x + desc[:, j : j + 1]
    return y


def map_derivative(w: complex, p: ModelParams) -> complex:
    """Complex derivative z*k*(w+t)^(k-1)*(1-t^2)/(1+wt)^(k+1)."""
    k, t = p.k, p.t
    return p.z * k * (w + t) ** (k - 1) * (1.0 - t * t) / (1.0 + w * t) ** (k + 1)


def _location(w: complex) -> str:
    r = abs(w)
    if abs(r - 1.0) < CIRCLE_BAND:
        return "circle"
    return "disk" if r < 1.0 else "exterior"


def _sorted_roots(t: float, k: int, zs) -> list[list[complex]]:
    """Roots of P(w) for every field z of a list, sorted by (|w|, arg) per row.

    One companion matrix per field, all stacked into one np.linalg.eigvals
    call, then four Newton steps by row-wise Horner: each row is what
    np.roots and np.polyval give for that field alone.  At t=0 the degree
    drops from k+1 to k and the constant term vanishes with the leading one,
    so w = 0 is appended after the companion roots, as np.roots does.
    """
    coeffs = _fixed_point_poly(zs, t, k)
    # the leading coefficient -t^k and the constant z t^k vanish together,
    # in every row at once
    dropped = bool(t**k == 0.0)
    trimmed = coeffs[:, : k + 1] if dropped else coeffs
    desc = (trimmed[:, 1:] if dropped else trimmed)[:, ::-1]
    n, m = desc.shape[0], desc.shape[1] - 1
    companion = np.zeros((n, m, m), dtype=complex)
    companion[:, 1:, :-1] = np.eye(m - 1)
    companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
    roots = np.linalg.eigvals(companion)
    if dropped:
        roots = np.hstack((roots, np.zeros((n, 1), dtype=complex)))

    dcoeffs = trimmed[:, 1:] * np.arange(1, trimmed.shape[1])
    for _ in range(4):  # Newton polish; companion eigenvalues are close already
        pv = _horner(trimmed[:, ::-1], roots)
        dv = _horner(dcoeffs[:, ::-1], roots)
        safe = np.abs(dv) > 1e-30
        roots = np.where(safe, roots - pv / np.where(safe, dv, 1.0), roots)

    rows = roots.tolist()
    for row in rows:
        row.sort(key=lambda r: (abs(r), math.atan2(r.imag, r.real)))
    return rows


def fixed_points(t: float, k: int, phis) -> list[tuple[FixedPoint, ...]]:
    """All fixed points of the map at every field angle of phis, one tuple
    per angle sorted by (|w|, arg), from one batched root solve: row i is
    what the one-angle call fixed_points(t, k, [phis[i]]) gives, bit for bit.

    At t=0 the polynomial degree drops from k+1 to k (the exterior fixed
    point is at infinity), so each tuple holds k roots instead of k+1.
    """
    params = [ModelParams(k, t, float(phi)) for phi in phis]
    rows = _sorted_roots(t, k, [p.z for p in params])
    return [
        tuple(FixedPoint(w, _location(w), complex(map_derivative(w, p))) for w in row)
        for p, row in zip(params, rows)
    ]


def disk_root(points: tuple[FixedPoint, ...]) -> FixedPoint | None:
    """The unique attracting fixed point inside the unit disk, or None."""
    return next((r for r in points if r.location == "disk"), None)


def critical_temperature(k: int) -> float:
    """t_c = (k-1)/(k+1)."""
    _validate_k(k)
    return (k - 1) / (k + 1)


# ---------------------------------------------------------------------------
# tangency locus and the gap-edge curve


@dataclass(frozen=True)
class TangencyData:
    """Circle point where the map becomes tangent to the diagonal, and the
    field angle phi_e at which that happens (the edge of the zero-free arc)."""

    point: complex
    angle: float
    phi_e: float


def tangency(t: float, k: int) -> TangencyData:
    """Solve the multiple-fixed-point condition for t in (t_c, 1).

    The condition k*w*(1-t^2)/((w+t)(1+wt)) = 1 reduces to the quadratic
    t w^2 + ((k+1)t^2 - (k-1)) w + t = 0, whose discriminant is negative
    exactly on (t_c, 1), giving a reciprocal-conjugate pair on the circle;
    near t_c it cancels, and a rounded value >= 0 is the double root -a/(2t).
    """
    tc = critical_temperature(k)
    if not (tc < t < 1.0):
        raise ValueError(f"tangency requires t in (t_c, 1) = ({tc}, 1), got {t}")
    a = (k + 1) * t * t - (k - 1)
    disc = a * a - 4.0 * t * t
    w = complex(-a, math.sqrt(max(-disc, 0.0))) / (2.0 * t)
    theta = math.atan2(w.imag, w.real)
    raw = theta - k * theta + 2.0 * k * math.atan2(t * math.sin(theta), 1.0 + t * math.cos(theta))
    return TangencyData(w, theta, abs(math.remainder(raw, TAU)))


def phi_e(t: float, k: int) -> float:
    """Half-width of the zero-free arc around phi=0; 0 at t_c, pi at t=1."""
    tc = critical_temperature(k)
    if t < tc:
        raise NoGapError(f"t={t} < t_c={tc}: the support is the full circle, no gap exists")
    if t > 1.0:
        raise ValueError(f"t must lie in [t_c, 1], got {t}")
    if t == tc:
        return 0.0
    if t == 1.0:
        return math.pi
    return tangency(t, k).phi_e


def interior_support(phi: float, t: float, k: int) -> bool:
    """True when e^{i phi} lies in the interior of the zero support (the map
    is then expanding on the circle and has a fixed point in the disk)."""
    _validate_t(t)
    if t < critical_temperature(k):
        return True
    return abs(math.remainder(phi, TAU)) > phi_e(t, k)

