"""Empirical zero-counting measure of a finite tree.

The CDF is computed by integer counting of lift branches, read straight
off the composed lift zeros.iterated_lift (O(level) per query, no
enumeration), so N*M(phi) is the exact number of zeros in (-pi, phi],
except for a query whose lift G(phi) lands within its own rounding,
zeros.SEAM_ULPS * ulp(pi) * G'(phi), of a zero's branch value: that count
can be off by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import zeros
from .core import _validate_count, _validate_finite, write_csv
from .zeros import TreeSpec, enumerate_zeros


@dataclass
class EmpiricalMeasure:
    """Uniform atomic measure on the zero angles of one (tree, t)."""

    tree: TreeSpec
    t: float

    @property
    def total(self) -> int:
        return self.tree.vertex_count

    def counts(self, phi):
        """Number of zeros in (-pi, phi] for scalar or array phi: exact,
        except where G(phi) lands within SEAM_ULPS * ulp(pi) * G'(phi) of a
        zero's branch value pi + 2pi*m, where the lift's rounding can move
        the count by one.

        G is odd with G(pi) = pi|V|, so (-pi, 0] holds |V|//2 zeros and the
        lift branches at or below phi add the rest: the winding, plus one
        where psi lands in that rounding band below the seam (the zero set
        lives on (-pi, pi], so seam hits belong to +pi).  phi <= -pi reads 0
        and phi >= pi reads |V| without evaluating the lift at the seam
        z = -1 (so +-inf read 0 and |V|).  A NaN raises ValueError.
        """
        phi = np.asarray(phi, dtype=float)
        if np.isnan(phi).any():
            raise ValueError("counts got phi = nan; angles must not be NaN")
        inside = (phi > -math.pi) & (phi < math.pi)
        psi, wind, deriv = zeros.iterated_lift(np.where(inside, phi, 0.0), self.tree, self.t)
        branches = wind + (psi >= math.pi - zeros.SEAM_ULPS * math.ulp(math.pi) * deriv)
        return np.where(inside, branches + self.total // 2, np.where(phi >= math.pi, self.total, 0))


def empirical_cdf(phi, em: EmpiricalMeasure):
    """Exact-count CDF M(phi) = #{zeros <= phi}/N, with M(-pi)=0, M(pi)=1."""
    counts = em.counts(phi)
    out = counts / em.total
    return float(out) if np.isscalar(phi) or np.asarray(phi).ndim == 0 else out


def symmetric_mass(phi: float, zeta, em: EmpiricalMeasure):
    """Mass of [phi-zeta, phi+zeta] clipped to the period, vectorized in zeta
    (any shape): one counts call, which lifts each distinct end angle once.

    phi must be finite and every zeta non-negative, NaN refused (zeta = inf
    is the whole period); otherwise ValueError."""
    _validate_finite("centre phi", phi)
    zeta = np.asarray(zeta, dtype=float)
    bad = zeta[~(zeta >= 0.0)]
    if bad.size:
        raise ValueError(f"symmetric_mass got zeta = {bad[0]}; radii must be non-negative")
    lo = np.clip(phi - zeta, -math.pi, math.pi)
    hi = np.clip(phi + zeta, -math.pi, math.pi)
    # nested radii (a quadrature's panels for several y, radii past the
    # seam) repeat angles once rounded: count each distinct angle once
    angles, where = np.unique(np.concatenate([hi.ravel(), lo.ravel()]), return_inverse=True)
    counts_hi, counts_lo = em.counts(angles)[where].reshape((2,) + zeta.shape)
    out = (counts_hi - counts_lo) / em.total
    return float(out) if out.ndim == 0 else out


def max_gap(em: EmpiricalMeasure) -> float:
    """Largest angular gap between circularly consecutive zeros; above t_c
    that is the zero-free arc around phi = 0."""
    angles = enumerate_zeros(em.tree, em.t).angles
    gaps = np.append(np.diff(angles), angles[0] + 2.0 * math.pi - angles[-1])
    return float(gaps.max())


def histogram(em: EmpiricalMeasure, bins: int = 360):
    """(bin center, mass) pairs over (-pi, pi], exact counts per bin."""
    _validate_count("bins", bins, 1)
    edges = np.linspace(-math.pi, math.pi, bins + 1)
    counts = em.counts(edges)
    masses = np.diff(counts) / em.total
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, masses


def write_cdf_csv(path, em: EmpiricalMeasure, grid: int = 2048) -> None:
    _validate_count("grid", grid, 1)
    phis = np.linspace(-math.pi, math.pi, grid)
    write_csv(path, ("phi", "cdf"), zip(phis, empirical_cdf(phis, em)))


def write_histogram_csv(path, em: EmpiricalMeasure, bins: int = 360) -> None:
    write_csv(path, ("bin_center", "mass"), zip(*histogram(em, bins)))
