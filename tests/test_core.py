import cmath
import math
import warnings

import numpy as np
import pytest

from cayley_ising.core import (
    CIRCLE_BAND,
    ModelParams,
    NoGapError,
    ResolutionError,
    critical_temperature,
    disk_root,
    fixed_points,
    interior_support,
    lift_eval,
    map_derivative,
    moebius_lift,
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
    # the lift's slope is k*psi_t'(theta); t=0 reduces it to the constant k
    assert 3 * moebius_lift(0.77, 0.0)[1] == pytest.approx(3.0, abs=1e-15)
    # endpoints of the derivative range
    assert 2 * moebius_lift(0.0, 0.2)[1] == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert 2 * moebius_lift(math.pi, 0.5)[1] == pytest.approx(6.0, abs=1e-12)
    rng = np.random.default_rng(5)
    p = ModelParams(2, 0.8, -1.0)
    for th in rng.uniform(-4, 4, 50):
        fd = (lift_eval(th + 1e-5, p) - lift_eval(th - 1e-5, p)) / 2e-5
        assert abs(fd - p.k * moebius_lift(th, p.t)[1]) <= 1e-6


def _on_circle(w: complex) -> bool:
    return abs(abs(w) - 1.0) < CIRCLE_BAND


def test_fixed_points_known_case():
    (row,) = fixed_points(0.2, 2, [0.0])
    values = sorted(w.real for w in row)
    assert values[0] == pytest.approx(7.0 - 4.0 * math.sqrt(3.0), abs=1e-12)
    assert values[1] == pytest.approx(1.0, abs=1e-12)
    assert values[2] == pytest.approx(7.0 + 4.0 * math.sqrt(3.0), abs=1e-10)
    p = ModelParams(2, 0.2, 0.0)
    disk = disk_root(row)
    assert disk is not None and abs(map_derivative(disk, p)) == pytest.approx(0.5, abs=1e-12)
    circle = next(w for w in row if _on_circle(w))
    assert map_derivative(circle, p).real == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_fixed_points_triple_root_at_tc():
    (row,) = fixed_points(1.0 / 3.0, 2, [0.0])
    for w in row:
        assert abs(w - 1.0) < 2e-5  # cube-root-of-eps smearing of the triple root


def test_fixed_points_degenerate_t0():
    # B(w) = z w^k: the roots of z w^k = w are 0 and the k - 1 solutions of
    # z w^(k-1) = 1; degree k, not k+1, as the exterior root is at infinity
    phis = [-math.pi + 1e-9, -2.0, -0.3, 0.0, 0.4, 1.7, math.pi]
    for k in range(2, 9):
        for phi, row in zip(phis, fixed_points(0.0, k, phis)):
            assert len(row) == k and disk_root(row) == row[0]
            assert all(_on_circle(w) for w in row[1:])
            assert abs(row[0]) <= 2e-15
            exact = np.exp(1j * (2.0 * math.pi * np.arange(k - 1) - phi) / (k - 1))
            dist = np.abs(np.array(row[1:])[:, None] - exact[None, :])
            # one computed root next to each exact one
            assert sorted(dist.argmin(axis=0)) == list(range(k - 1))
            assert dist.min(axis=0).max() <= 2e-15


def test_fixed_point_residual_polynomial():
    rng = np.random.default_rng(9)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        t = float(rng.uniform(0.01, 0.95))
        ph = float(rng.uniform(-math.pi, math.pi))
        p = ModelParams(k, t, ph)
        (row,) = fixed_points(t, k, [ph])
        for w in row:
            res = abs(p.z * (w + t) ** k - w * (1.0 + w * t) ** k)
            assert res <= 1e-9 * (1.0 + abs(w)) ** (k + 1)


def test_conjugation_symmetry():
    plus, minus = fixed_points(0.4, 2, [1.1, -1.1])
    got = sorted(np.conj(minus), key=lambda z: (z.real, z.imag))
    want = sorted(plus, key=lambda z: (z.real, z.imag))
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
        assert disk_root(row) == disk_root(single)
        p = ModelParams(k, t, phi)
        for a, b in zip(row, single):
            assert np.array([a, map_derivative(a, p)]).tobytes() == np.array([b, map_derivative(b, p)]).tobytes()


def _full_solve_row(t, k, phi):
    """One field alone: np.roots of P, four Newton steps by np.polyval, then
    sorted by (|w|, arg).  This is the solve for rows with t^k >= eps."""
    z = cmath.exp(1j * phi)
    desc = np.zeros(k + 2, dtype=complex)
    for j in range(k + 1):
        desc[k + 1 - j] += z * math.comb(k, j) * t ** (k - j)
        desc[k - j] -= math.comb(k, j) * t**j
    roots, slope = np.roots(desc), np.polyder(desc)
    for _ in range(4):
        pv, dv = np.polyval(desc, roots), np.polyval(slope, roots)
        safe = np.abs(dv) > 1e-30
        roots = np.where(safe, roots - pv / np.where(safe, dv, 1.0), roots)
    return sorted(roots.tolist(), key=lambda r: (abs(r), math.atan2(r.imag, r.real)))


@pytest.mark.parametrize("t, k", [(1e-4, 2), (0.012, 8), (0.3, 3)])
def test_fixed_points_keep_the_full_solve_above_eps(t, k):
    # t^k >= eps: the criterion-7 row and the benchmark's small-t point at
    # k = 2, and k = 8 just above eps (t = 1e-3 gives t^8 = 1e-24, below it)
    assert t**k >= np.finfo(float).eps
    phis = [-2.0, 0.5, 1.0, math.pi]
    for phi, row in zip(phis, fixed_points(t, k, phis)):
        assert np.array(row).tobytes() == np.array(_full_solve_row(t, k, phi)).tobytes()


@pytest.mark.parametrize("t, k", [
    (1e-6, 8), (1e-3, 8), (1e-6, 3), (1e-12, 3), (1e-5, 4), (1e-6, 5), (1e-4, 12), (0.05, 16),
])
def test_fixed_points_when_t_power_k_is_below_eps(t, k):
    # the full companion solve gave k = 8, t = 1e-6 eight "disk" roots near
    # 1e-48 and a NaN exterior root, with overflow warnings; the truth is one
    # disk root, k - 1 circle roots and the disk root's reflection
    assert 0.0 < t**k < np.finfo(float).eps
    phis = [0.5, -2.0, math.pi]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = fixed_points(t, k, phis)
    for phi, row in zip(phis, rows):
        assert len(row) == k + 1
        disk, ext = row[0], row[-1]
        assert disk_root(row) == disk
        assert all(_on_circle(w) for w in row[1:-1]) and abs(ext) - 1.0 >= CIRCLE_BAND
        z = cmath.exp(1j * phi)
        # w = t^k u with u = z / (1 - z k t^(k-1)) up to O(k^2 t^(2k-2) + k t^(k+1))
        assert abs(disk - z * t**k / (1.0 - z * k * t ** (k - 1))) <= 1e-10 * t**k
        assert ext == 1.0 / disk.conjugate()
        p = ModelParams(k, t, phi)
        multiplier = map_derivative(disk, p)
        assert abs(multiplier) < 1.0
        for w in row[1:-1]:
            assert abs(p.z * (w + t) ** k - w * (1.0 + w * t) ** k) <= 1e-13
        # the reflection has the conjugate multiplier
        if (k + 1) * math.log(abs(ext) * t) < 690.0:  # no overflow in map_derivative
            assert map_derivative(ext, p) == pytest.approx(multiplier.conjugate(), rel=1e-12)


@pytest.mark.parametrize("t, k", [(1e-40, 8), (1e-155, 2), (1e-200, 2)])
def test_fixed_points_refuse_subnormal_t_power_k(t, k):
    # these came back with an inf+infj exterior root and a disk root good to
    # about 4 digits, or, once t^k underflows to 0, without the exterior root
    assert t**k < np.finfo(float).tiny
    with pytest.raises(ResolutionError, match="smallest normal"):
        fixed_points(t, k, [0.5])


def test_fixed_points_keep_the_smallest_normal_t_power_k():
    t, k = 1.5e-154, 2  # t^k = 2.25e-308, just above the smallest normal double
    for row in fixed_points(t, k, [0.5, -2.0, math.pi]):
        assert len(row) == 3
        assert row[-1] == 1.0 / row[0].conjugate() and cmath.isfinite(row[-1])


@pytest.mark.parametrize("t, k", [(5.0, 2), (-0.1, 2), (0.5, 1), (0.5, 2.0)])
def test_fixed_points_validate_t_and_k_without_angles(t, k):
    with pytest.raises(ValueError):
        fixed_points(t, k, [])


def test_disk_root_at_the_circle_band():
    # the first root is the disk root when it lies CIRCLE_BAND or more inside
    # the circle, the rule "not within CIRCLE_BAND of |w| = 1, and |w| < 1"
    # read off the row's smallest root; checked on the doubles next to the edge
    edge = 1.0 - CIRCLE_BAND
    radii = [edge]
    for direction in (0.0, 2.0):
        r = edge
        for _ in range(2000):
            r = math.nextafter(r, direction)
            radii.append(r)
    picked = 0
    for r in radii:
        for w in (r, -r, 1j * r):
            inside = not abs(abs(w) - 1.0) < CIRCLE_BAND and abs(w) < 1.0
            assert disk_root([w, 1.0, 3.0]) == (w if inside else None)
            picked += inside
    assert 0 < picked < 3 * len(radii)
    assert disk_root([1.0 + 0j, -1.0 + 0j]) is None
    assert disk_root([0j, 1.0 + 0j]) == 0j


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
    assert cmath.phase(td.point) == pytest.approx(1.318116071652818, abs=1e-12)
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
    with pytest.raises(ValueError, match=r"must lie in \[t_c, 1\]"):
        phi_e(1.5, 2)
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


@pytest.mark.parametrize("t", [0.2, 0.6])
@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_interior_support_refuses_non_finite_phi(phi, t):
    # NaN used to read as support below t_c and as the gap above it, and inf
    # above t_c failed with a bare math domain error
    with pytest.raises(ValueError, match="must be finite"):
        interior_support(phi, t, 2)


def _lift_grid():
    """Angles from 1e-9 to 3 on both sides of 0, and the positive ones a turn on."""
    u = np.concatenate([[0.0], np.geomspace(1e-9, 3.0, 200)])
    return np.concatenate([-u[::-1], u, u + 2.0 * math.pi])


def _half_angle_lift(u, s):
    """psi_s(u) = u - 2 arctan((2s/(1+s)) tau/(1 + c tau^2)), tau = tan(u/2),
    c = (1-s)/(1+s), written out as moebius_lift computes it."""
    c, g = (1.0 - s) / (1.0 + s), 2.0 * s / (1.0 + s)
    tau = np.tan(0.5 * u)
    return u - 2.0 * np.arctan(g * tau / (1.0 + c * tau**2))


@pytest.mark.parametrize("t, rtol", [(0.0, 1e-15), (0.3, 1e-13), (0.9, 1e-13), (1.0 - 1e-12, 1e-13)])
def test_moebius_lift_slope(t, rtol):
    u = _lift_grid()
    psi, slope = moebius_lift(u, -t)
    # psi_{-t} keeps its expression, bit for bit (the pullbacks use it)
    assert np.array_equal(psi, _half_angle_lift(u, -t))
    # psi_0 is the identity, exactly
    assert np.array_equal(moebius_lift(u, 0.0)[0], u)
    # against 1 - 2t cos u + t^2 = (1-t)^2 + 4t sin^2(u/2), where nothing
    # cancels, so the reference is good to a few eps at every t
    reference = (1.0 - t) * (1.0 + t) / ((1.0 - t) ** 2 + 4.0 * t * np.sin(0.5 * u) ** 2)
    np.testing.assert_allclose(slope, reference, rtol=rtol)
    # s = +t is the forward form psi_t(theta) = theta - 2 atan2(t sin theta, 1 + t cos theta)
    fwd, fwd_slope = moebius_lift(u, t)
    assert np.array_equal(fwd, _half_angle_lift(u, t))
    reference = (1.0 - t) * (1.0 + t) / ((1.0 - t) ** 2 + 4.0 * t * np.cos(0.5 * u) ** 2)
    np.testing.assert_allclose(fwd_slope, reference, rtol=rtol)
    # psi_{-t} inverts psi_t, and the slopes multiply to 1, checked where the
    # forward form still resolves it
    back, back_slope = moebius_lift(psi, t)
    if t < 0.95:
        np.testing.assert_allclose(back, u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back_slope * slope, 1.0, rtol=1e-12)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="long double is float64 here"
)
@pytest.mark.parametrize("s", [0.3, -0.3, 0.9, -0.9, 0.99, -0.99])
def test_moebius_lift_matches_extended_precision(s):
    """psi_s lies within 4 ulp(pi) of u - 2 atan2(s sin u, 1 + s cos u) taken
    in long double, whose own rounding is a few long-double ulp at |s| <= 0.99."""
    u = _lift_grid()
    ul, sl = u.astype(np.longdouble), np.longdouble(s)
    reference = ul - 2 * np.arctan2(sl * np.sin(ul), 1 + sl * np.cos(ul))
    psi = moebius_lift(u, s)[0]
    assert float(np.max(np.abs(psi - reference))) <= 4 * math.ulp(math.pi)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("t", [1.0 - 1e-8, 1.0 - 1e-10, 1.0 - 1e-12])
def test_lift_derivative_at_pi_near_t1(k, t):
    # 1 + 2t cos(pi) + t^2 cancels to (1-t)^2 plus rounding; the half-angle
    # slope c(1 + tau^2)/(1 + c^2 tau^2) does not.  The reference is
    # k(1+t)/(1-t) at the double nearest pi, 1.2e-16 below pi, which at
    # t = 1 - 1e-12 lowers it by 1.5e-8 relative
    slope = k * moebius_lift(math.pi, t)[1]
    reference = k * (1.0 - t) * (1.0 + t) / ((1.0 - t) ** 2 + 4.0 * t * math.cos(0.5 * math.pi) ** 2)
    assert slope == pytest.approx(reference, rel=1e-9)
    if t <= 1.0 - 1e-10:
        assert slope == pytest.approx(k * (1.0 + t) / (1.0 - t), rel=1e-9)
