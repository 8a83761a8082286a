"""Reference computations the benchmark checks the library against.

Everything here is written from the paper's formulas and from exact
identities, in plain numpy/cmath/Fraction arithmetic, and imports nothing
from cayley_ising, so a fault in the library cannot hide in its own check.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

TAU = 2.0 * math.pi


class CheckError(AssertionError):
    """An output of the library disagrees with its reference."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# trees


def vertex_count(variant: str, level: int, k: int) -> int:
    """|V| of the rooted tree (root + k subtrees of level n-1) or the full
    tree (centre + k+1 rooted subtrees of level n-1)."""
    rooted = sum(k**j for j in range(level + 1))
    if variant == "rooted":
        return rooted
    return 1 + (k + 1) * sum(k**j for j in range(level))


def step_degrees(variant: str, level: int, k: int) -> list[int]:
    """Number of children merged at each renormalisation step, leaves first."""
    if variant == "rooted":
        return [k] * level
    return [k] * (level - 1) + [k + 1]


def circular_distance(a, b):
    return np.abs(np.remainder(np.asarray(a) - np.asarray(b) + math.pi, TAU) - math.pi)


# ---------------------------------------------------------------------------
# zeros


def blaschke_defect(phi, variant: str, level: int, k: int, t: float):
    """(|arg(-w_n)|, d arg(w_n)/d phi) for w <- z((w+t)/(1+wt))^e from w_0 = z.

    e^{i phi} is a Lee-Yang zero iff w_n = -1; the derivative is the
    conditioning that turns an angle error into a defect of arg(-w_n).
    """
    phi = np.asarray(phi, dtype=float)
    z = np.exp(1j * phi)
    w = z.copy()
    cond = np.ones_like(phi)
    for e in step_degrees(variant, level, k):
        cond = 1.0 + e * (1.0 - t * t) / np.abs(1.0 + t * w) ** 2 * cond
        w = z * ((w + t) / (1.0 + t * w)) ** e
    return np.abs(np.angle(-w)), cond


def check_zero_angles(angles, variant: str, level: int, k: int, t: float, tol: float) -> None:
    """Count, order, range, conjugate symmetry and the zero condition."""
    angles = np.asarray(angles, dtype=float)
    n_v = vertex_count(variant, level, k)
    require(angles.shape == (n_v,), f"{angles.shape[0]} angles, expected |V| = {n_v}")
    require(np.all(np.isfinite(angles)), "non-finite angle")
    inner = angles
    if n_v % 2:
        # odd |V|: spin-flip symmetry puts one zero at z = -1.  The library
        # returns it within a few ulp of pi, sometimes just above; that known
        # representation fault is bounded here, and every other angle is
        # held to (-pi, pi) strictly
        require(abs(angles[-1] - math.pi) <= 4 * math.ulp(math.pi), f"zero at z = -1 reads {angles[-1]!r}")
        inner = angles[:-1]
    require(inner[0] > -math.pi and inner[-1] < math.pi, "angle outside (-pi, pi]")
    require(np.all(np.diff(angles) > 0), "angles not strictly increasing")
    # conjugate symmetry: every angle has a mirror image in the set
    mirror = np.sort(-angles)
    idx = np.searchsorted(mirror, angles)
    near = np.minimum(
        circular_distance(angles, mirror[idx % n_v]),
        circular_distance(angles, mirror[(idx - 1) % n_v]),
    )
    require(float(near.max()) <= 1e-9, f"conjugate symmetry broken by {near.max():.3g}")
    defect, cond = blaschke_defect(angles, variant, level, k, t)
    # the library promises |G(phi) - pi - 2 pi m| <= tol G'(phi); 1e-14 G'
    # covers the rounding of this iteration and of the library's own
    ratio = defect / ((tol + 1e-14) * cond)
    require(float(ratio.max()) <= 1.0, f"zero condition off by {ratio.max():.3g} x tolerance")


# ---------------------------------------------------------------------------
# exact polynomial identities


def check_partition_coeffs(coeffs, variant: str, level: int, k: int, t: Fraction) -> None:
    """Degree |V|, positive palindromic coefficients, and
    P(1) = 2 (1+t)^|E| (root spin free, each edge satisfied or not)."""
    n_v = vertex_count(variant, level, k)
    coeffs = [Fraction(c) for c in coeffs]
    require(len(coeffs) == n_v + 1, f"degree {len(coeffs) - 1}, expected {n_v}")
    require(all(c > 0 for c in coeffs), "non-positive coefficient")
    require(coeffs == coeffs[::-1], "coefficients not palindromic")
    require(sum(coeffs) == 2 * (1 + Fraction(t)) ** (n_v - 1), "P(1) != 2(1+t)^|E|")


# ---------------------------------------------------------------------------
# dynamics


def disk_fixed_point(phi: float, t: float, k: int) -> complex:
    """Attracting fixed point of w -> z((w+t)/(1+wt))^k in the open disk,
    found by iterating the map from 0 and polishing with Newton."""
    z = cmath.exp(1j * phi)
    w = 0j
    for _ in range(400):
        w = z * ((w + t) / (1.0 + t * w)) ** k
    for _ in range(30):
        q = (w + t) / (1.0 + t * w)
        f = z * q**k - w
        df = z * k * q ** (k - 1) * (1.0 - t * t) / (1.0 + t * w) ** 2 - 1.0
        w -= f / df
    residual = abs(z * ((w + t) / (1.0 + t * w)) ** k - w)
    require(abs(w) < 1.0 and residual < 1e-13, f"no disk fixed point at phi={phi}, t={t}")
    return w


def chi_acim(phi: float, t: float, k: int) -> float:
    """Lyapunov exponent of the absolutely continuous invariant measure,
    log(k (1-t^2) / |1 + w t|^2) at the disk fixed point w (paper)."""
    w = disk_fixed_point(phi, t, k)
    return math.log(k * (1.0 - t * t) / abs(1.0 + w * t) ** 2)


def gap_edge(t: float, k: int) -> float:
    """phi_e: half-width of the zero-free arc, where a circle fixed point
    has multiplier 1, i.e. k(1-t^2) w = (w+t)(1+tw) with |w| = 1."""
    t_c = (k - 1) / (k + 1)
    if t <= t_c:
        return 0.0
    # t w^2 + ((k+1) t^2 - (k-1)) w + t = 0 has a conjugate pair on the circle
    b = (k + 1) * t * t - (k - 1)
    w = complex(-b, math.sqrt(4.0 * t * t - b * b)) / (2.0 * t)
    return abs(cmath.phase(w * ((1.0 + t * w) / (w + t)) ** k))


# ---------------------------------------------------------------------------
# free energy


def log_partition(z: complex, t: float, k: int, level: int, variant: str) -> complex:
    """log Z of the Ising model with couplings e^{bJ} = t^{-1/2} and fields
    e^{bh} = z^{-1/2}, by conditioning subtrees on their root spin.

    Tracks log Z^+ and r = Z^-/Z^+ of a rooted subtree in complex form.
    """
    a = t**-0.5
    log_b = -0.5 * cmath.log(z)
    b2inv = z  # e^{-2bh}
    log_plus, r = log_b, b2inv  # a single vertex
    n_sub = level if variant == "rooted" else level - 1
    for _ in range(n_sub):
        log_plus = log_b + k * (log_plus + cmath.log(a + r / a))
        r = b2inv * ((1.0 / a + a * r) / (a + r / a)) ** k
    if variant == "rooted":
        return log_plus + cmath.log(1.0 + r)
    e = k + 1
    head = log_b + e * (log_plus + cmath.log(a + r / a))
    return head + cmath.log(1.0 + b2inv * ((1.0 / a + a * r) / (a + r / a)) ** e)


def free_energy(z: complex, t: float, k: int, level: int, variant: str = "rooted") -> float:
    """-2T log|Z| / |V| with T = -2/ln t."""
    temp = -2.0 / math.log(t)
    n_v = vertex_count(variant, level, k)
    return -2.0 * temp * log_partition(z, t, k, level, variant).real / n_v


def electrostatic_offset(t: float, k: int, level: int, variant: str = "rooted") -> float:
    """Electrostatic minus exact free energy: the electrostatic form counts
    |E| = |V| edges, one more than the tree has, giving T log t / |V|."""
    temp = -2.0 / math.log(t)
    return temp * math.log(t) / vertex_count(variant, level, k)


def magnetization(z: complex, t: float, k: int, level: int, variant: str = "rooted") -> complex:
    """-(4z/|V|) d log Z/dz, by a central difference of the ratio Z(z+h)/Z(z-h)."""
    h = 1e-5 * abs(z)
    ratio = log_partition(z + h, t, k, level, variant) - log_partition(z - h, t, k, level, variant)
    dlog = cmath.log(cmath.exp(ratio)) / (2.0 * h)
    return -4.0 * z * dlog / vertex_count(variant, level, k)
