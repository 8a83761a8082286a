"""Circle-map dynamics of the tree renormalization.

The degree-k Blaschke-type map w -> z((w+t)/(1+wt))^k preserves the unit
circle; everything downstream (zero enumeration, empirical measures,
Lyapunov exponents) is driven by its angular lift, its derivative, its
fixed points, and the tangency locus where a circle fixed point becomes
multiple.  The lift is k*psi_t + phi, with psi_s the lifted argument of the
Moebius map w -> (w+s)/(1+sw); moebius_lift is the one statement of psi_s
and its slope, in half-angle form from one tan and one arctan, at s = t for
the lift and the gap edge and at s = -t for the inverse branches of the
zero pullback and the MME.  The module also holds the one CSV writer and
the one JSON writer that every artifact goes through.
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


def moebius_lift(u, s: float):
    """(psi_s(u), dpsi_s/du) from one tan and one arctan, where
    psi_s(u) = u - 2 atan2(s sin u, 1 + s cos u) is the lifted argument of
    the Moebius map w -> (w+s)/(1+sw), |s| < 1.

    psi_t is the Moebius factor of the lift, k*psi_t + phi, and psi_{-t}
    inverts it on all of R, so lift(y) = x iff y = psi_{-t}((x - phi)/k).

    Half-angle form: the map sends (w-1)/(w+1) to c(w-1)/(w+1) with
    c = (1-s)/(1+s), so tan(psi/2) = c tan(u/2).  With tau = tan(u/2) the
    step delta = psi - u has tan(delta/2) = -(2s/(1+s)) tau/(1 + c tau^2),
    and |delta| < pi since 1 + s cos u > 0, so the principal arctan is the
    lift with no branch fix:
        psi_s(u) = u - 2 arctan((2s/(1+s)) tau / (1 + c tau^2)),
        psi_s'(u) = c (1 + tau^2)/(1 + c^2 tau^2).
    At s = 0 the arctan is of 0 and psi = u exactly.  Nothing cancels as
    |s| -> 1: psi stays within 3 ulp(pi) of the exact angle, and psi'
    within 6e-16 relative, up to |s| = 1 - 1e-12.  numpy's tan and arctan
    are SIMD loops, 3 ns a point against about 20 for cos or sin, so the
    whole call costs 12-20 ns a point on large arrays.  c and 2s/(1+s) are
    taken in the precision of u.  The updates are augmented assignments: in
    place on an array, so at most three arrays of u's size are live at
    once, and cheap on a scalar, which stays a numpy scalar throughout.
    """
    psi = np.tan(u * 0.5)
    s = psi.dtype.type(s)
    c, g = (1 - s) / (1 + s), 2 * s / (1 + s)
    sq = psi * psi
    den = c * sq
    den += 1.0
    psi *= g
    psi /= den
    # freed before arctan allocates, so no more than three arrays are live
    del den
    psi = np.arctan(psi)
    psi *= -2.0
    psi += u
    den = (c * c) * sq
    den += 1.0
    sq += 1.0
    sq *= c
    sq /= den
    return psi, sq


def lift_eval(theta, p: ModelParams):
    """Angular lift k*psi_t(theta) + phi (see moebius_lift).

    Accepts scalar or ndarray theta.  The lift is smooth on all of R and
    satisfies lift(theta + 2pi) = lift(theta) + 2pi k.
    """
    return p.k * moebius_lift(theta, p.t)[0] + p.phi


# ---------------------------------------------------------------------------
# fixed points of w -> z((w+t)/(1+wt))^k


def _fixed_point_poly(z, t: float, k: int) -> np.ndarray:
    """Ascending coefficients of P(w) = z(w+t)^k - w(1+wt)^k, one row per field z."""
    z = np.asarray(z, dtype=complex)
    c = np.zeros((z.size, k + 2), dtype=complex)
    for j in range(k + 1):
        c[:, j] += z * math.comb(k, j) * t ** (k - j)
        c[:, j + 1] -= math.comb(k, j) * t**j
    return c


def map_derivative(w: complex, p: ModelParams) -> complex:
    """Complex derivative z*k*(w+t)^(k-1)*(1-t^2)/(1+wt)^(k+1)."""
    k, t = p.k, p.t
    return p.z * k * (w + t) ** (k - 1) * (1.0 - t * t) / (1.0 + w * t) ** (k + 1)


def fixed_points(t: float, k: int, phis) -> list[list[complex]]:
    """All fixed points of the map at every field angle of phis, one row per
    angle sorted by (|w|, arg), from one batched root solve: row i is what
    the one-angle call fixed_points(t, k, [phis[i]]) gives, bit for bit.

    One companion matrix per angle, all stacked into one np.linalg.eigvals
    call, then four Newton steps against the full polynomial P, polyval
    taking each row's polynomial at that row's roots: each row is what
    np.roots and np.polyval give for that field alone.

    When t^k is below eps, zero included, the companion matrix is that of
    the degree-k head of P, so the exterior root, near z/t^k, is left out.
    The leading coefficient -t^k is then below the rounding of the others
    (the largest has modulus 1 + O(k t^(k-1))), and its exterior root
    unbalances the full companion matrix past what the eigensolver and
    Newton recover: at k = 8, t = 1e-6 every finite root came out near
    1e-48, and the exterior root overflowed to NaN.  At t = 0 the exterior
    root lies at infinity, so each row holds k roots instead of k+1; for
    t > 0 the map commutes with w -> 1/conj(w), so the row ends with the
    disk root's reflection 1/conj(row[0]).  A t > 0 with t^k below the
    smallest normal double raises ResolutionError: the disk root, about
    t^k in modulus, loses digits there, and its reflection overflows.
    """
    _validate_t(t)
    _validate_k(k)
    tk = t**k
    if 0.0 < t and tk < np.finfo(float).tiny:
        raise ResolutionError(
            f"t^k = {tk:g} at t = {t:g}, k = {k} is below the smallest normal "
            "double; float64 cannot hold the disk fixed point and its reflection"
        )
    deflated = tk < np.finfo(float).eps
    coeffs = _fixed_point_poly([ModelParams(k, t, float(phi)).z for phi in phis], t, k)
    desc = (coeffs[:, : k + 1] if deflated else coeffs)[:, ::-1]
    n, m = desc.shape[0], desc.shape[1] - 1
    companion = np.zeros((n, m, m), dtype=complex)
    companion[:, 1:, :-1] = np.eye(m - 1)
    companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
    roots = np.linalg.eigvals(companion)

    dcoeffs = coeffs[:, 1:] * np.arange(1, k + 2)
    for _ in range(4):  # Newton polish; companion eigenvalues are close already
        pv = np.polynomial.polynomial.polyval(roots, coeffs.T[:, :, None], tensor=False)
        dv = np.polynomial.polynomial.polyval(roots, dcoeffs.T[:, :, None], tensor=False)
        safe = np.abs(dv) > 1e-30
        roots = np.where(safe, roots - pv / np.where(safe, dv, 1.0), roots)

    rows = roots.tolist()
    for row in rows:
        row.sort(key=lambda r: (abs(r), math.atan2(r.imag, r.real)))
        if deflated and t > 0.0:
            row.append(1.0 / row[0].conjugate())
    return rows


def disk_root(row: list[complex]) -> complex | None:
    """The unique attracting fixed point inside the unit disk, or None: the
    row's first root, the smallest in modulus, if it lies at least
    CIRCLE_BAND inside the unit circle."""
    return row[0] if 1.0 - abs(row[0]) >= CIRCLE_BAND else None


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
    raw = theta - k * moebius_lift(theta, t)[0]
    return TangencyData(w, abs(math.remainder(raw, TAU)))


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
    is then expanding on the circle and has a fixed point in the disk).  A
    phi that is not finite raises ValueError."""
    _validate_t(t)
    if not math.isfinite(phi):
        raise ValueError(f"field angle phi must be finite, got {phi}")
    if t < critical_temperature(k):
        return True
    return abs(math.remainder(phi, TAU)) > phi_e(t, k)

