import cmath
import math

import numpy as np
import pytest

from cayley_ising.core import (
    ModelParams,
    NoGapError,
    ResolutionError,
    critical_temperature,
    disk_root,
    fixed_points,
    interior_support,
    lift_derivative,
    lift_eval,
    phi_e,
    tangency,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 0.5, 0.0)
    with pytest.raises(ValueError):
        ModelParams(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        ModelParams(2, -0.1, 0.0)
    with pytest.raises(ValueError):
        ModelParams(2, 0.5, 4.0)


def test_lift_known_values():
    # theta=0: arctan(0) = 0, so the lift is phi
    assert lift_eval(0.0, ModelParams(2, 0.5, 0.3)) == pytest.approx(0.3, abs=1e-15)
    # theta=pi: sin(pi)=0, lift = k*pi + phi
    assert lift_eval(math.pi, ModelParams(2, 0.7, 0.0)) == pytest.approx(2.0 * math.pi, abs=1e-12)
    # frozen direct evaluation, cross-checked against Arg of the complex map below
    assert lift_eval(1.0, ModelParams(2, 0.5, 0.3)) == pytest.approx(1.0205083582609278, abs=1e-14)


def test_lift_matches_complex_map_argument():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        t = float(rng.uniform(0.0, 0.95))
        ph = float(rng.uniform(-math.pi, math.pi))
        th = float(rng.uniform(-math.pi, math.pi))
        w = cmath.exp(1j * th)
        image = cmath.exp(1j * ph) * ((w + t) / (1.0 + w * t)) ** k
        lifted = lift_eval(th, ModelParams(k, t, ph))
        assert math.remainder(lifted - cmath.phase(image), 2.0 * math.pi) == pytest.approx(
            0.0, abs=1e-10
        )


def test_lift_periodicity_randomized():
    rng = np.random.default_rng(11)
    thetas = rng.uniform(-20, 20, 2000)
    for k in (2, 3, 5):
        p = ModelParams(k, 0.6, 0.4)
        gap = lift_eval(thetas + 2 * math.pi, p) - lift_eval(thetas, p) - 2 * math.pi * k
        assert np.max(np.abs(gap)) <= 1e-12


def test_lift_derivative_values_and_fd():
    # t=0 reduces to the constant k
    assert lift_derivative(0.77, ModelParams(3, 0.0, 0.0)) == pytest.approx(3.0, abs=1e-15)
    # endpoints of the derivative range
    assert lift_derivative(0.0, ModelParams(2, 0.2, 0.0)) == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert lift_derivative(math.pi, ModelParams(2, 0.5, 0.0)) == pytest.approx(6.0, abs=1e-12)
    rng = np.random.default_rng(5)
    p = ModelParams(2, 0.8, -1.0)
    for th in rng.uniform(-4, 4, 50):
        fd = (lift_eval(th + 1e-5, p) - lift_eval(th - 1e-5, p)) / 2e-5
        assert abs(fd - lift_derivative(th, p)) <= 1e-6


def test_fixed_points_known_case():
    (fps,) = fixed_points(0.2, 2, [0.0])
    values = sorted(r.value.real for r in fps)
    assert values[0] == pytest.approx(7.0 - 4.0 * math.sqrt(3.0), abs=1e-12)
    assert values[1] == pytest.approx(1.0, abs=1e-12)
    assert values[2] == pytest.approx(7.0 + 4.0 * math.sqrt(3.0), abs=1e-10)
    disk = disk_root(fps)
    assert disk is not None and abs(disk.multiplier) == pytest.approx(0.5, abs=1e-12)
    circle = next(r for r in fps if r.location == "circle")
    assert circle.multiplier.real == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_fixed_points_triple_root_at_tc():
    (fps,) = fixed_points(1.0 / 3.0, 2, [0.0])
    for r in fps:
        assert abs(r.value - 1.0) < 2e-5  # cube-root-of-eps smearing of the triple root


def test_fixed_points_degenerate_t0():
    (fps,) = fixed_points(0.0, 3, [0.4])
    assert len(fps) == 3  # degree k, not k+1: the exterior root is at infinity
    assert abs(disk_root(fps).value) < 1e-12  # B(w) = z w^k fixes 0


def test_fixed_point_residual_polynomial():
    rng = np.random.default_rng(9)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        t = float(rng.uniform(0.01, 0.95))
        ph = float(rng.uniform(-math.pi, math.pi))
        p = ModelParams(k, t, ph)
        (fps,) = fixed_points(t, k, [ph])
        for r in fps:
            w = r.value
            res = abs(p.z * (w + t) ** k - w * (1.0 + w * t) ** k)
            assert res <= 1e-9 * (1.0 + abs(w)) ** (k + 1)


def test_conjugation_symmetry():
    plus, minus = fixed_points(0.4, 2, [1.1, -1.1])
    got = sorted(np.conj([r.value for r in minus]), key=lambda z: (z.real, z.imag))
    want = sorted([r.value for r in plus], key=lambda z: (z.real, z.imag))
    assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("t", [0.0, 0.2, 1.0 / 3.0, 0.9])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_fixed_points_batch_rows_equal_single_angles(k, t):
    phis = [-math.pi + 1e-9, -2.0, -0.3, 0.0, 1e-7, 0.7, 2.5, math.pi]
    batch = fixed_points(t, k, phis)
    assert len(batch) == len(phis)
    for phi, row in zip(phis, batch):
        (single,) = fixed_points(t, k, [phi])
        # at t = 0 the exterior root is at infinity: k roots, not k+1
        assert len(row) == len(single) == (k if t == 0.0 else k + 1)
        for a, b in zip(row, single):
            assert a.location == b.location
            assert np.array([a.value, a.multiplier]).tobytes() == np.array([b.value, b.multiplier]).tobytes()


def test_critical_temperature():
    assert critical_temperature(2) == pytest.approx(1.0 / 3.0)
    assert critical_temperature(3) == pytest.approx(0.5)
    assert critical_temperature(10) == pytest.approx(9.0 / 11.0)
    with pytest.raises(ValueError):
        critical_temperature(1)


def test_non_integral_k_is_refused():
    # an integral float used to pass validation and fail later with TypeError
    from cayley_ising.spectra import birkhoff_exponents, kappa_curve
    from cayley_ising.zeros import TreeSpec

    calls = [
        lambda: ModelParams(2.0, 0.2, 0.5),
        lambda: ModelParams(np.float64(3.0), 0.2, 0.5),
        lambda: TreeSpec("rooted", 3, 2.0),
        lambda: critical_temperature(2.0),
        lambda: kappa_curve(0.2, 2.0, [0.5]),
        lambda: birkhoff_exponents([0.5], [0.2], 2.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="integer >= 2"):
            call()
    assert ModelParams(np.int64(3), 0.2, 0.5).k == 3


def test_tangency_values():
    td = tangency(0.5, 2)
    assert td.point == pytest.approx(0.25 + 0.9682458365518543j, abs=1e-12)
    assert td.angle == pytest.approx(1.318116071652818, abs=1e-12)
    assert td.phi_e == pytest.approx(0.3073950510845034, abs=1e-12)
    assert tangency(0.9, 2).phi_e == pytest.approx(1.871807547155416, abs=1e-12)
    assert tangency(0.4, 2).phi_e == pytest.approx(0.08369042447459141, abs=1e-12)


def test_tangency_residual_and_reciprocal_pair():
    for t in np.linspace(0.34, 0.99, 80):
        td = tangency(float(t), 2)
        w = td.point
        assert abs(abs(w) - 1.0) <= 1e-12
        # the defining multiple-fixed-point condition
        assert abs(2 * w * (1 - t * t) / ((w + t) * (1 + w * t)) - 1.0) <= 1e-10


def test_tangency_limits_and_domain():
    # w -> 1 and phi_e -> 0 at the critical temperature
    td = tangency(1.0 / 3.0 + 1e-8, 2)
    assert abs(td.point - 1.0) < 1e-3
    assert td.phi_e < 1e-3
    with pytest.raises(ValueError):
        tangency(0.2, 2)
    with pytest.raises(ValueError):
        tangency(1.0, 2)


def test_phi_e_curve():
    assert phi_e(critical_temperature(2), 2) == 0.0
    assert phi_e(1.0, 2) == math.pi
    assert phi_e(0.4, 2) == pytest.approx(0.08369042447459141, abs=1e-12)
    with pytest.raises(NoGapError):
        phi_e(0.2, 2)
    values = [phi_e(float(t), 2) for t in np.linspace(0.34, 1.0, 60)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("k", range(2, 41))
def test_phi_e_just_above_tc(k):
    # a^2 - 4t^2 cancels at t_c; a discriminant rounded to >= 0 is the double root
    t = critical_temperature(k)
    for _ in range(6):
        t = math.nextafter(t, 1.0)
        value = phi_e(t, k)
        assert math.isfinite(value) and value >= 0.0


def test_resolution_error_is_a_runtime_error():
    # callers catching RuntimeError, and the CLI's exit 2, keep working
    assert issubclass(ResolutionError, RuntimeError)
    assert not issubclass(ResolutionError, ValueError)


def test_interior_support():
    assert interior_support(0.0, 0.2, 2)  # below t_c everything is support
    assert not interior_support(0.0, 0.5, 2)
    assert interior_support(1.0, 0.5, 2)  # phi_e(0.5) ~ 0.307 < 1
    assert not interior_support(0.3, 0.5, 2)
