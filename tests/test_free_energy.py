import math

import numpy as np
import pytest

from cayley_ising import free_energy
from cayley_ising.free_energy import (
    AtomEvaluationError,
    OnSupportError,
    free_energy_electrostatic,
    free_energy_recursive,
    free_energy_report,
    magnetization,
    order_from_kappa,
    radial_scan,
    singular_exponent,
    singular_part,
    temperature_of,
)
from cayley_ising.measure import EmpiricalMeasure
from cayley_ising.zeros import TreeSpec, enumerate_zeros


@pytest.fixture
def counts_calls(monkeypatch):
    """Sizes of the EmpiricalMeasure.counts calls made while the test runs."""
    sizes = []
    counts = EmpiricalMeasure.counts

    def counted(self, phi):
        sizes.append(np.size(phi))
        return counts(self, phi)

    monkeypatch.setattr(EmpiricalMeasure, "counts", counted)
    return sizes


def test_temperature_convention():
    assert temperature_of(math.exp(-2.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        temperature_of(0.0)
    with pytest.raises(ValueError):
        temperature_of(1.0)


def test_cross_method_agreement():
    rng = np.random.default_rng(12)
    for t in (0.2, 0.5):
        for _ in range(10):
            radius = float(rng.uniform(0.1, 10.0))
            if abs(radius - 1.0) < 0.05:
                radius += 0.1
            z = radius * np.exp(1j * rng.uniform(-math.pi, math.pi))
            fe = free_energy_electrostatic(complex(z), t, 2, 12)
            fr = free_energy_recursive(complex(z), t, 2, 12)
            assert abs(fe - fr) <= 1e-3 * (1.0 + abs(fe))


def test_recursive_real_and_analytic_on_positive_axis():
    # above t_c the free energy is real-analytic across |z|=1 on (0, inf)
    values = [free_energy_recursive(r, 0.5, 2, 14) for r in np.linspace(0.6, 1.6, 21)]
    assert all(math.isfinite(v) for v in values)
    second = np.diff(values, 2)
    assert np.max(np.abs(second)) < 0.05  # smooth through z = 1


def test_conjugate_symmetry():
    fe_up = free_energy_electrostatic(2.0 + 1.0j, 0.2, 2, 10)
    fe_dn = free_energy_electrostatic(2.0 - 1.0j, 0.2, 2, 10)
    # equal up to summation order of the mirrored atom list
    assert fe_up == pytest.approx(fe_dn, rel=1e-14)


def test_zero_set_cache_holds_one_level():
    # a sweep keeps only the zero set it is reading, not one per level
    free_energy_electrostatic(2.0 + 1.0j, 0.2, 2, 9)
    free_energy_electrostatic(2.0 + 1.0j, 0.2, 2, 10)
    assert free_energy._cached_angles.cache_info().currsize == 1


def test_atom_guard():
    zs = enumerate_zeros(TreeSpec("rooted", 6, 2), 0.5)
    atom = np.exp(1j * zs.angles)[3]
    with pytest.raises(AtomEvaluationError):
        free_energy_recursive(complex(atom), 0.5, 2, 6)
    with pytest.raises(AtomEvaluationError):
        free_energy_electrostatic(complex(atom), 0.5, 2, 6)


@pytest.mark.parametrize("route", [free_energy_electrostatic, free_energy_recursive])
def test_free_energy_refuses_the_pole_at_zero(route):
    with pytest.raises(ValueError, match="pole"):
        route(0, 0.3, 2, 6)


def test_magnetization_limits_and_symmetry():
    assert magnetization(0.0, 0.5, 2, 8) == 2.0
    assert abs(magnetization(1e-9, 0.5, 2, 8) - 2.0) <= 1e-6
    assert abs(magnetization(1e9, 0.5, 2, 8) + 2.0) <= 1e-6
    # real z in the zero-free arc: conjugate pairs cancel, M is real
    m = magnetization(complex(np.exp(0.05j)) * 0 + 1.0, 0.5, 2, 8)  # z=1 in the gap
    assert abs(m.imag) <= 1e-12
    with pytest.raises(OnSupportError):
        magnetization(complex(np.exp(1j * enumerate_zeros(TreeSpec("rooted", 8, 2), 0.5).angles[0])), 0.5, 2, 8)


def test_radial_scan_rows():
    rows = radial_scan(0.0, 0.5, 2, 10, [0.5, 2.0])
    assert len(rows) == 2 and all(math.isfinite(f) for _, f in rows)


def test_free_energy_report_bundle():
    rep = free_energy_report(2.0 + 0.5j, 0.5, 2, 12)
    assert abs(rep.f_electrostatic - rep.f_recursive) <= 1e-3 * (1 + abs(rep.f_electrostatic))
    doc = rep.to_dict()
    assert doc["level"] == 12 and doc["k"] == 2


def test_order_from_kappa():
    assert order_from_kappa(1.0) == 0
    assert order_from_kappa(2.0) == 0
    assert order_from_kappa(2.409) == 1
    assert order_from_kappa(4.0) == 1
    assert order_from_kappa(4.1) == 2
    with pytest.raises(ValueError):
        order_from_kappa(0.0)


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_order_from_kappa_refuses_non_finite(kappa):
    with pytest.raises(ValueError, match="finite and positive"):
        order_from_kappa(kappa)


@pytest.mark.parametrize("z", [0.0, 2.0])
@pytest.mark.parametrize("t, k, n", [(7.0, 2, 6), (math.nan, 2, 6), (0.5, 1, 6), (0.5, 2, -5), (7.0, 1, -5)])
def test_magnetization_validates_at_every_z(z, t, k, n):
    # z = 0 once returned 2 without looking at t, k or n
    with pytest.raises(ValueError):
        magnetization(z, t, k, n)


@pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(0.5, math.nan), math.inf])
def test_free_energy_refuses_non_finite_z(z):
    for route in (free_energy_electrostatic, free_energy_recursive, magnetization):
        with pytest.raises(ValueError, match="z must be finite"):
            route(z, 0.5, 2, 6)


def test_singular_part_matches_lebesgue_closed_form():
    # at t=0 the measure is uniform, Phi(z) ~ z/pi, and for m=0 the integral
    # is (y/pi) arctan(delta0/y) exactly
    em = EmpiricalMeasure(TreeSpec("rooted", 18, 2), 0.0)
    delta0 = 0.5
    for y in (0.01, 0.05, 0.2):
        got = singular_part(y, 0.9, 0, em, delta0)
        expected = (y / math.pi) * math.atan(delta0 / y)
        # the staircase of ~5e5 atoms deviates from the continuum at ~1/(N Phi)
        assert got == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("phi, t, m, delta0, ys", [
    (0.9, 0.0, 0, 0.5, 0.5 * 2.0 ** -np.arange(7.0, 10.5, 0.5)),
    (0.0, 0.2, 1, 1.2, 1.2 * 2.0 ** -np.arange(3.3, 5.8, 0.4)),
])
def test_singular_part_array_equals_scalar_calls(phi, t, m, delta0, ys, counts_calls):
    # the criterion-10 grids: one batched call gives the scalar calls' bits
    em = EmpiricalMeasure(TreeSpec("rooted", 20, 2), t)
    batched = singular_part(ys, phi, m, em, delta0)
    assert len(counts_calls) == 1
    single = [singular_part(float(y), phi, m, em, delta0) for y in ys]
    assert all(isinstance(h, float) for h in single)
    assert np.array_equal(batched, single)


def test_singular_exponent_counts_calls(counts_calls):
    ys = 0.5 * 2.0 ** -np.arange(7.0, 10.5, 0.5)
    singular_exponent(0.9, 0.0, 2, n=18, kappa_prior=1.0, delta0=0.5, ys=ys)
    assert len(counts_calls) == 1
    counts_calls.clear()
    fit = singular_exponent(0.9, 0.01, 2, n=18)
    assert len(counts_calls) <= 3
    # near t=0 the measure is near-uniform, so the fitted exponent is near 1;
    # the order m comes from the pointwise-dimension prior
    assert fit.kappa == pytest.approx(1.0, abs=0.03)
    assert fit.m_order == 0


@pytest.mark.parametrize("y", [0.0, -0.01, math.nan, math.inf])
def test_singular_part_refuses_bad_y(y, counts_calls):
    em = EmpiricalMeasure(TreeSpec("rooted", 10, 2), 0.2)
    with pytest.raises(ValueError, match="y must be finite and positive"):
        singular_part(y, 0.0, 0, em, 0.5)
    with pytest.raises(ValueError, match="y must be finite and positive"):
        singular_part(np.array([0.01, y]), 0.0, 0, em, 0.5)
    with pytest.raises(ValueError, match="y must be finite and positive"):
        singular_exponent(0.0, 0.2, 2, n=10, ys=[0.01, 0.02, y])
    assert counts_calls == []


def test_singular_part_refuses_a_y_past_the_cutoff(counts_calls):
    # the quadrature starts at y * 2^-14, which for y = 1e5 lies past delta0
    em = EmpiricalMeasure(TreeSpec("rooted", 10, 2), 0.2)
    with pytest.raises(ValueError, match="too large for the cutoff"):
        singular_part(1e5, 0.5, 0, em, 0.5)
    assert counts_calls == []


@pytest.mark.parametrize("delta0", [0.0, -1.0, math.nan, math.inf])
def test_singular_fit_refuses_bad_delta0(delta0, counts_calls):
    em = EmpiricalMeasure(TreeSpec("rooted", 10, 2), 0.2)
    with pytest.raises(ValueError, match="delta0 must be finite and positive"):
        singular_part(0.01, 0.0, 0, em, delta0)
    with pytest.raises(ValueError, match="delta0 must be finite and positive"):
        singular_exponent(0.0, 0.2, 2, n=10, delta0=delta0)
    assert counts_calls == []


@pytest.mark.parametrize("ys", [[], [0.01], [0.01, 0.02], [0.01, 0.02, 0.02, 0.01]])
def test_singular_exponent_needs_three_distinct_ys(ys, counts_calls):
    with pytest.raises(ValueError, match="fewer than three usable scales"):
        singular_exponent(0.9, 0.0, 2, n=10, kappa_prior=1.0, ys=ys)
    assert counts_calls == []


def test_singular_exponent_lebesgue_slope():
    fit = singular_exponent(
        0.9, 0.0, 2, n=18, kappa_prior=1.0, delta0=0.5,
        ys=0.5 * 2.0 ** -np.arange(7.0, 10.5, 0.5),
    )
    assert fit.kappa == pytest.approx(1.0, abs=0.02)
    assert fit.r_squared >= 0.98
    assert fit.m_order == 0
    assert fit.stable


def test_singular_exponent_resolution_guard():
    with pytest.raises(ValueError):
        singular_exponent(0.0, 0.2, 2, n=14, kappa_prior=2.2, delta0=0.5)


def test_singular_exponent_refuses_a_vanished_singular_part():
    # phi = 0 lies inside the zero-free arc at t = 0.9 (phi_e = 1.87), so no
    # window of the grid holds a zero
    with pytest.raises(ValueError, match="singular part vanished"):
        singular_exponent(0.0, 0.9, 2, n=12, delta0=0.5, ys=[0.01, 0.02, 0.04], kappa_prior=1.0)


def test_regular_part_is_even_polynomial():
    # h(y) - h_sing(y) = sum_{j<=m} (-1)^j a_j y^{2j} with
    # a_j = int Phi(z) z^{-2j-1} dz: the subtraction removes exactly the
    # non-polynomial piece, for any cutoff delta0
    phi, t, k, n, m = 0.0, 0.2, 2, 16, 1
    em = EmpiricalMeasure(TreeSpec("rooted", n, k), t)

    def moment(j, delta0):
        edges = np.exp(np.linspace(math.log(1e-6), math.log(delta0), 400))
        mids = 0.5 * (edges[1:] + edges[:-1])
        widths = np.diff(edges)
        from cayley_ising.measure import symmetric_mass

        mass = symmetric_mass(phi, mids, em)
        return float(np.sum(mass * mids ** (-2 * j - 1) * widths))

    for delta0 in (0.8, 1.0):
        a0 = moment(0, delta0)
        a1 = moment(1, delta0)
        for y in (0.05, 0.1, 0.2):
            h_full = singular_part(y, phi, -1, em, delta0)  # m=-1 gives the raw kernel
            h_sing = singular_part(y, phi, m, em, delta0)
            h_reg = h_full - h_sing
            poly = a0 - a1 * y * y
            # three independent staircase quadratures stack to ~1% here; a
            # wrong subtraction order or sign would be off by 10x or more
            assert h_reg == pytest.approx(poly, rel=2e-2)


def test_integration_by_parts_identity():
    # int f dmu over (0, delta0] = f(delta0) Phi(delta0) - int f' Phi dz, with
    # Phi(z) = mu((0, z]); both sides computed from the same atom list but
    # through different algebra
    t = 0.35
    tree = TreeSpec("rooted", 8, 2)
    zs = enumerate_zeros(tree, t)
    em = EmpiricalMeasure(tree, t)
    n_atoms = tree.vertex_count
    delta0 = 1.2
    y = 0.3

    def f(x):
        return math.log(x * x + y * y)

    atoms = zs.angles[(zs.angles > 0) & (zs.angles <= delta0)]
    lhs = sum(f(a) for a in atoms) / n_atoms

    phi_at = lambda x: float(em.counts(x) - em.counts(0.0)) / em.total
    # exact integral of f' * staircase: sum of Phi over constancy intervals
    cuts = np.concatenate([[0.0], atoms, [delta0]])
    rhs = f(delta0) * phi_at(delta0)
    for a, b in zip(cuts[:-1], cuts[1:]):
        rhs -= phi_at(0.5 * (a + b)) * (f(b) - f(a))
    assert lhs == pytest.approx(rhs, abs=1e-12)
