import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_ising.core import ModelParams, TAU, _lift, _lift_derivative, lift_eval
from cayley_ising.spectra import (
    MmeEstimate,
    OutsideSupportError,
    _preimages,
    birkhoff_exponents,
    disk_fixed_point,
    kappa_curve,
    lyapunov_acim_alt,
    lyapunov_acim_closed,
    lyapunov_mme,
    pointwise_dimension,
    spectral_report,
)

LOG2 = math.log(2.0)


def test_chi_closed_known_value():
    chi = lyapunov_acim_closed(ModelParams(2, 0.2, 0.0))
    assert chi == pytest.approx(0.6238107163648711, abs=1e-13)
    assert LOG2 / chi == pytest.approx(1.1111498446181212, abs=1e-12)


def test_chi_closed_t0_normalization():
    for k in (2, 3, 4):
        assert lyapunov_acim_closed(ModelParams(k, 0.0, 0.9)) == pytest.approx(math.log(k))


def test_chi_closed_from_jensen_pieces():
    # chi = log|B'(w_D)| + (k-1) log|(1+t w_D)/(w_D+t)| must telescope to the
    # closed form for complex disk fixed points too
    p = ModelParams(3, 0.35, 1.3)
    w = disk_fixed_point(p)
    k, t = p.k, p.t
    mult = p.z * k * (w + t) ** (k - 1) * (1 - t * t) / (1 + w * t) ** (k + 1)
    pieces = math.log(abs(mult)) + (k - 1) * math.log(abs((1 + t * w) / (w + t)))
    assert lyapunov_acim_closed(p) == pytest.approx(pieces, abs=1e-12)


def test_chi_alt_form_is_rejected_normalization():
    # the alternative closed form fails chi < log k, which is why the
    # Jensen-derived one is used; keep its value pinned as documentation
    alt = lyapunov_acim_alt(ModelParams(2, 0.2, 0.0))
    assert alt == pytest.approx(8.460484379522588, rel=1e-10)
    assert alt > LOG2  # violates the strict ACIM bound


def test_chi_continuity_in_phi():
    # smoothness of the closed form: 1e-3 nudges move chi by far less than 1e-2
    for t in (0.2, 0.45):
        for phi in np.linspace(0.5, 3.0, 9):
            a = lyapunov_acim_closed(ModelParams(2, t, float(phi)))
            b = lyapunov_acim_closed(ModelParams(2, t, float(phi) + 1e-3))
            assert abs(a - b) < 1e-2


def test_chi_outside_support_rejected():
    with pytest.raises(OutsideSupportError):
        lyapunov_acim_closed(ModelParams(2, 0.5, 0.1))


def test_birkhoff_agrees_with_closed():
    p = ModelParams(2, 0.2, 0.0)
    means, errs = birkhoff_exponents([p.phi], [p.t], p.k, n_steps=100_000, n_seeds=16, seed=0)
    closed = lyapunov_acim_closed(p)
    assert abs(means[0] - closed) <= 2e-3 + 3.0 * errs[0]
    assert errs[0] < 2e-3


def test_birkhoff_batch_shapes_and_determinism():
    means1, errs1 = birkhoff_exponents([0.0, 1.0], [0.2, 0.3], 2, n_steps=20_000, n_seeds=8, seed=5)
    means2, errs2 = birkhoff_exponents([0.0, 1.0], [0.2, 0.3], 2, n_steps=20_000, n_seeds=8, seed=5)
    assert means1.shape == (2,)
    assert np.array_equal(means1, means2) and np.array_equal(errs1, errs2)


@pytest.mark.parametrize("k, phis, ts", [
    (3, [0.5, 2.0, 2.8], [0.2, 0.4, 0.6]),
    (4, [0.0, 1.5, 3.0], [0.1, 0.3, 0.7]),
])
def test_birkhoff_agrees_with_closed_above_k2(k, phis, ts):
    means, errs = birkhoff_exponents(phis, ts, k, n_steps=50_000, n_seeds=16, seed=3)
    for phi, t, mean, err in zip(phis, ts, means, errs):
        closed = lyapunov_acim_closed(ModelParams(k, t, phi))
        assert abs(mean - closed) <= 2e-3 + 3.0 * err


@pytest.mark.parametrize("k", [2, 3, 4])
def test_birkhoff_t0_is_exactly_log_k(k):
    means, errs = birkhoff_exponents([0.4], [0.0], k, n_steps=1_000, n_seeds=4)
    assert abs(means[0] - math.log(k)) <= 1e-12
    assert errs[0] <= 1e-12


@pytest.mark.parametrize("call", [
    lambda: birkhoff_exponents([0.0], [0.2], 2, n_steps=0),
    lambda: birkhoff_exponents([0.0], [0.2], 2, n_steps=10, burn_in=-1),
    lambda: birkhoff_exponents([0.0], [0.2], 2, n_steps=10, n_seeds=1),
    lambda: lyapunov_mme(ModelParams(2, 0.2, 0.0), depth=0),
], ids=["n_steps", "burn_in", "n_seeds", "depth"])
def test_spectra_estimators_refuse_empty_samples(call):
    # no estimate exists: no steps, a negative burn-in, one seed (no spread) or no level
    with pytest.raises(ValueError):
        call()


def test_preimages_invert_the_lift():
    p = ModelParams(2, 0.45, 0.8)
    targets = np.array([math.pi, 0.3, -2.0])
    pre = _preimages(targets, p.phi, p.t, p.k)
    assert pre.shape == (targets.size * p.k,)
    images = lift_eval(pre, p)
    goal = np.tile(targets, p.k)
    assert np.max(np.abs(np.remainder(images - goal + math.pi, TAU) - math.pi)) <= 1e-9


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    k=st.sampled_from([2, 3, 4]),
    t=st.floats(0.0, 0.99),
    phi=st.floats(-math.pi, math.pi, exclude_min=True),
    extra=st.lists(st.floats(-math.pi, math.pi), max_size=6),
)
def test_preimages_property(k, t, phi, extra):
    targets = np.array([math.pi, -math.pi, *extra])
    pre = _preimages(targets, phi, t, k)
    assert pre.shape == (k * targets.size,)
    assert np.all((pre >= -math.pi) & (pre <= math.pi))
    images = _lift(pre, phi, t, k)
    off = np.abs(np.remainder(images - np.tile(targets, k) + math.pi, TAU) - math.pi)
    # 64 ulp of the goal angle, plus one ulp of the preimage carried through
    # the lift's slope: near theta = pi that slope is k(1+t)/(1-t), so even a
    # correctly rounded preimage misses by half an ulp times it
    tol = 64.0 * np.spacing(k * math.pi + abs(phi) + math.pi)
    tol = tol + _lift_derivative(pre, t, k) * np.spacing(np.abs(pre))
    assert np.all(off <= tol)
    branches = np.sort(pre.reshape(k, targets.size), axis=0)
    assert np.all(np.diff(branches, axis=0) > 0.0)


def test_mme_t0_is_exactly_log_k():
    est = lyapunov_mme(ModelParams(2, 0.0, 0.7), depth=8)
    assert est.value == pytest.approx(LOG2, abs=1e-12)
    assert est.stderr <= 1e-12


def test_mme_exceeds_log_k():
    est = lyapunov_mme(ModelParams(2, 0.2, 0.0), depth=12)
    assert isinstance(est, MmeEstimate)
    assert est.value - LOG2 > 5.0 * est.stderr
    assert LOG2 / est.value < 1.0  # dimension proxy of the MME


def test_mme_exceeds_log_k_at_k3():
    est = lyapunov_mme(ModelParams(3, 0.3, 1.0), depth=8)
    assert est.value > math.log(3.0)


def test_mme_guards():
    with pytest.raises(ValueError):
        lyapunov_mme(ModelParams(2, 0.2, 0.0), depth=40)
    with pytest.raises(OutsideSupportError):
        lyapunov_mme(ModelParams(2, 0.6, 0.0), depth=6)


def test_pointwise_dimension_lebesgue():
    fit = pointwise_dimension(0.9, 0.0, 2, level=18)
    assert fit.value == pytest.approx(1.0, abs=5e-3)
    assert fit.r_squared > 0.9999


def test_pointwise_dimension_insufficient_scales():
    with pytest.raises(ValueError):
        pointwise_dimension(0.9, 0.0, 2, level=4, min_atoms=50, octaves=5)


def test_pointwise_dimension_gap_rejection():
    with pytest.raises(OutsideSupportError):
        pointwise_dimension(0.05, 0.5, 2, level=12)


def test_kappa_curve_markers():
    pts = kappa_curve(2.0 / 3.0, 2, np.linspace(-3.0, 3.0, 25))
    gap_edge = 0.83  # phi_e(2/3) is about 0.838
    for pt in pts:
        if abs(pt.phi) < gap_edge:
            assert not pt.in_support and math.isnan(pt.kappa)
        else:
            assert pt.in_support and pt.kappa > 1.0


def test_kappa_diverges_at_gap_edge():
    t = 2.0 / 3.0
    from cayley_ising.core import phi_e

    edge = phi_e(t, 2)
    inner = kappa_curve(t, 2, [edge + 0.01])[0].kappa
    outer = kappa_curve(t, 2, [edge + 0.8])[0].kappa
    assert inner > 3.0 * outer  # blows up approaching the zero-free arc


def test_spectral_report_fields():
    rep = spectral_report(
        ModelParams(2, 0.2, 0.0), mme_depth=10, dim_level=16, birkhoff_steps=20_000, n_seeds=8
    )
    doc = rep.to_dict()
    assert doc["chi_acim_closed"] == pytest.approx(0.6238107163648711, abs=1e-12)
    assert doc["chi_mme"] > LOG2 > doc["chi_acim_closed"]
    assert doc["kappa"] == pytest.approx(LOG2 / doc["chi_acim_closed"])
    assert "chi_acim_alt_form" in doc["diagnostics"]
