import math

import numpy as np
import pytest

from cayley_ising import verify
from cayley_ising.measure import (
    EmpiricalMeasure,
    empirical_cdf,
    histogram,
    max_gap,
    symmetric_mass,
)
from cayley_ising.zeros import TreeSpec, enumerate_zeros, iterated_lift


def em(variant="rooted", n=6, k=2, t=0.5):
    return EmpiricalMeasure(TreeSpec(variant, n, k), t)


def test_cdf_boundaries():
    m = em()
    assert empirical_cdf(math.pi, m) == 1.0
    assert empirical_cdf(-math.pi, m) == 0.0


def test_cdf_known_small_case():
    # zeros at {-acos(-1/8), +acos(-1/8), pi}: exactly one is <= 0
    m = em(n=1, t=0.5)
    assert empirical_cdf(0.0, m) == pytest.approx(1.0 / 3.0)


def test_cdf_is_exact_staircase():
    rng = np.random.default_rng(8)
    for n in (4, 7, 10):
        m = em(n=n, t=0.37)
        zs = enumerate_zeros(m.tree, m.t)
        probes = rng.uniform(-math.pi, math.pi, 500)
        counts = m.counts(probes)
        stair = np.searchsorted(zs.angles, probes, side="right")
        assert np.array_equal(counts, stair)


def test_cdf_t0_uniform_staircase():
    m = em(n=4, t=0.0)
    total = m.total
    # atoms at odd multiples of pi/N: the CDF steps uniformly
    for j in range(1, 6):
        phi = (2 * j) * math.pi / total  # midpoint between atoms j and j+1
        assert empirical_cdf(phi, m) == pytest.approx((total // 2 + j) / total)


def _empirical_cdf_smooth(phi, em: EmpiricalMeasure):
    """Continuum approximation (G(phi)-G(-pi))/(2pi N), a cross-check of
    the counting path."""
    psi, wind, _ = iterated_lift(phi, em.tree, em.t)
    psi0, wind0, _ = iterated_lift(np.array(-math.pi), em.tree, em.t)
    g = (psi - psi0) + 2.0 * math.pi * (wind - wind0)
    return g / (2.0 * math.pi * em.total)


def test_smooth_cdf_close_to_exact():
    m = em(n=9, t=0.45)
    phis = np.linspace(-math.pi, math.pi, 200)
    exact = empirical_cdf(phis, m)
    smooth = _empirical_cdf_smooth(phis, m)
    assert np.max(np.abs(exact - smooth)) <= 2.0 / m.total


def test_counts_additive_over_arcs():
    m = em(n=8, t=0.3)
    lo, hi = m.counts(np.array([-math.pi, math.pi]))
    assert hi - lo == m.total
    rng = np.random.default_rng(1)
    edges = np.concatenate([[-math.pi], np.sort(rng.uniform(-math.pi, math.pi, 30)), [math.pi]])
    counts = np.diff(m.counts(edges))
    assert counts.sum() == m.total


def test_gap_arc_has_zero_mass():
    from cayley_ising.core import phi_e

    m = em(n=10, t=0.5)
    edge = phi_e(0.5, 2)
    lo, hi = m.counts(np.array([-edge + 1e-9, edge - 1e-9]))
    assert hi == lo


def test_conjugate_symmetry_of_masses():
    m = em(n=8, t=0.4)
    for a, b in ((0.3, 1.1), (0.01, 2.9), (1.5, 1.6)):
        ca, cb, cmb, cma = m.counts(np.array([a, b, -b, -a]))
        # (-b, -a] mirrors (a, b] up to its two ends
        assert abs(int(cb - ca) - int(cma - cmb)) <= 1


def test_symmetric_mass_vectorized():
    m = em(n=8, t=0.4)
    zetas = np.array([0.1, 0.5, 1.0])
    masses = symmetric_mass(1.0, zetas, m)
    assert masses.shape == (3,)
    assert np.all(np.diff(masses) >= 0)
    assert symmetric_mass(1.0, 0.5, m) == pytest.approx(masses[1])


def test_symmetric_mass_counts_each_angle_once(monkeypatch):
    # repeated radii, radii clipped at the seam and a 2-D shape: one counts
    # call on distinct angles, same masses as the elementwise definition
    m = em(n=12, t=0.3)
    zetas = np.array([[0.2, 0.4, 0.2], [3.0, 4.0, 0.4]])
    expected = (m.counts(np.clip(2.0 + zetas, -math.pi, math.pi))
                - m.counts(np.clip(2.0 - zetas, -math.pi, math.pi))) / m.total
    queried = []
    counts = EmpiricalMeasure.counts

    def recorded(self, phi):
        queried.append(np.asarray(phi))
        return counts(self, phi)

    monkeypatch.setattr(EmpiricalMeasure, "counts", recorded)
    masses = symmetric_mass(2.0, zetas, m)
    assert len(queried) == 1
    assert len(np.unique(queried[0])) == queried[0].size == 7  # 12 queries, 7 angles
    assert masses.shape == zetas.shape
    assert np.array_equal(masses, expected)


def test_max_gap_uniform():
    m = em(n=3, t=0.0)
    assert max_gap(m) == pytest.approx(2.0 * math.pi / m.total, abs=1e-12)


def test_density_trend_below_tc():
    gaps = [max_gap(em(n=n, t=0.2)) for n in (4, 7, 10)]
    assert gaps[2] < gaps[1] < gaps[0]


def test_rooted_full_distance():
    assert verify.rooted_full_distance(6, (0.0,), 500) <= 2.0 / 127.0
    assert verify.rooted_full_distance(10, (0.5,), 2000) <= 0.01
    for grid in (0, -1):
        with pytest.raises(ValueError, match="grid"):
            verify.rooted_full_distance(6, (0.5,), grid)


def test_histogram_sums_to_one():
    m = em(n=8, t=0.45)
    centers, masses = histogram(m, bins=64)
    assert len(centers) == 64
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    for bins in (0, -1):
        with pytest.raises(ValueError):
            histogram(m, bins=bins)


def test_counts_match_enumeration_above_half():
    # (-pi, 0] holds |V|//2 zeros at every t; reading the count base off the
    # lift at the seam z = -1 overcounted by one from t ~ 0.48 here
    for t in (0.5, 0.6, 0.7):
        m = em(n=12, t=t)
        zs = enumerate_zeros(m.tree, m.t)
        probes = np.linspace(-math.pi, math.pi, 4097)
        assert m.counts(0.0) == m.total // 2
        assert np.array_equal(m.counts(probes), np.searchsorted(zs.angles, probes, side="right"))


def test_counts_exact_beyond_float_integers():
    # |V| = 225141952945498681 > 2^57 at level 36: float64 would hold only
    # multiples of 32 there, the int64 winding resolves single zeros
    m = em(n=36, k=3, t=0.5)
    assert m.counts(math.pi) == m.total == 225141952945498681
    assert m.counts(-math.pi) == 0
    phis = np.linspace(1.0, 1.0 + 1e-15, 8)
    counts = m.counts(phis)
    assert counts.dtype == np.int64
    assert np.all(np.diff(counts) >= 0) and np.any(counts % 2 == 1)


@pytest.mark.parametrize("level", [0, 3])
def test_counts_exact_just_around_every_zero(level):
    # 2e-10 in lift units is far above the lift's rounding error, so the
    # count must step exactly at each zero
    m = em(n=level, t=0.4)
    angles = enumerate_zeros(m.tree, m.t).angles
    _, _, deriv = iterated_lift(angles, m.tree, m.t)
    for sign in (-1.0, 1.0):
        probes = angles + sign * 2e-10 / deriv
        assert np.array_equal(m.counts(probes), np.searchsorted(angles, probes, side="right"))


@pytest.mark.parametrize(
    "n, k, t", [(5, 4, 0.99), (4, 8, 0.95), (4, 8, 0.99), (2, 16, 0.9), (11, 2, 0.99)]
)
def test_counts_step_at_isolated_zeros_at_high_t(n, k, t):
    # 40 ulp(pi) off an isolated zero, the count must already have stepped:
    # G' >= 1, so the probe clears the seam band SEAM_ULPS * G' as long as
    # the lift rounds inside that band (test_lift_rounds_inside_seam_band);
    # a lift that rounded past it miscounted up to 411 of these by one
    m = em(n=n, k=k, t=t)
    angles = enumerate_zeros(m.tree, m.t).angles
    ulp = math.ulp(math.pi)
    gaps = np.diff(np.concatenate([[-math.pi], angles, [math.pi]]))
    index = np.flatnonzero((gaps[:-1] > 160 * ulp) & (gaps[1:] > 160 * ulp))
    assert index.size > len(angles) // 2
    a = angles[index]
    assert np.array_equal(m.counts(a - 40 * ulp), index)
    assert np.array_equal(m.counts(a + 40 * ulp), index + 1)


def test_counts_reject_nan_and_keep_infinities():
    m = em(n=4, t=0.4)
    with pytest.raises(ValueError, match="nan"):
        m.counts(math.nan)
    with pytest.raises(ValueError, match="nan"):
        m.counts(np.array([0.0, math.nan]))
    assert m.counts(-math.inf) == 0 and m.counts(math.inf) == m.total


def test_symmetric_mass_rejects_nan_centre():
    with pytest.raises(ValueError, match="centre phi must be finite, got nan"):
        symmetric_mass(math.nan, 0.1, em(n=4, t=0.4))


def test_symmetric_mass_rejects_nan_radius():
    with pytest.raises(ValueError, match="zeta = nan"):
        symmetric_mass(0.1, [math.nan], em(n=4, t=0.4))
    # a negative radius gave minus the mass at the positive one
    with pytest.raises(ValueError, match="zeta = -0.1"):
        symmetric_mass(1.0, -0.1, em(n=4, t=0.4))
