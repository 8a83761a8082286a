import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_ising.core import (
    TAU,
    ModelParams,
    ResolutionError,
    critical_temperature,
    disk_root,
    fixed_points,
    interior_support,
    lift_eval,
    moebius_lift,
    phi_e,
)
from cayley_ising.measure import EmpiricalMeasure
from cayley_ising.spectra import (
    _DRIFT_GROWTH,
    _LOG_BLOCK,
    MmeEstimate,
    OutsideSupportError,
    _preimages,
    _renorm_stride,
    birkhoff_exponents,
    kappa_curve,
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
    w = disk_root(fixed_points(p.t, p.k, [p.phi])[0])
    k, t = p.k, p.t
    mult = p.z * k * (w + t) ** (k - 1) * (1 - t * t) / (1 + w * t) ** (k + 1)
    pieces = math.log(abs(mult)) + (k - 1) * math.log(abs((1 + t * w) / (w + t)))
    assert lyapunov_acim_closed(p) == pytest.approx(pieces, abs=1e-12)


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
    lambda: lyapunov_mme(ModelParams(2, 0.2, 0.0), depth=1),
], ids=["n_steps", "burn_in", "n_seeds", "depth", "depth1"])
def test_spectra_estimators_refuse_empty_samples(call):
    # no estimate exists: no steps, a negative burn-in, one seed (no spread),
    # no level or one level (no spread)
    with pytest.raises(ValueError):
        call()


# ||w| - 1| allowed just before a renormalisation: the largest growth of an
# off-circle error over a stride times 16 ulp of one step's rounding; the
# largest seen at k in {2, 3, 4, 8}, t up to 0.999, was 2.0e-10 (768 chains
# by 20 000 steps)
DRIFT_BOUND = _DRIFT_GROWTH * 16 * np.finfo(float).eps


def _reference_birkhoff(phis, ts, k, n_steps, burn_in, n_seeds, seed, stride=None):
    """The plain per-step loop: a running product of 1+tw, logged and reset
    every 16 steps, and w put back on |w| = 1 after every stride-th step,
    counted from the first burn-in step; the stride defaults to the
    kernel's rule.  The blocked kernel must reproduce it bit for bit.
    Before each renormalisation the drift ||w| - 1| must be within
    DRIFT_BOUND."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    ts = np.broadcast_to(np.asarray(ts, dtype=float), phis.shape).astype(float)
    if stride is None:
        stride = _renorm_stride(k, float(ts.max()))
    rng = np.random.default_rng(seed)
    w = np.exp(1j * rng.uniform(-math.pi, math.pi, size=(len(phis), n_seeds)))
    t_full = np.broadcast_to(ts[:, None], w.shape).astype(complex)
    z = np.broadcast_to(np.exp(1j * phis)[:, None], w.shape).copy()
    den, mob, mod = np.empty_like(w), np.empty_like(w), np.empty(w.shape)
    prod, log_sum = np.ones_like(w), np.zeros(w.shape)
    for step in range(burn_in + n_steps):
        np.multiply(w, t_full, out=den)
        den += 1.0
        if step >= burn_in:
            prod *= den
            if (step - burn_in) % 16 == 15:
                log_sum += np.log(np.abs(prod))
                prod.fill(1.0)
        np.add(w, t_full, out=mob)
        mob /= den
        np.multiply(mob, z, out=w)
        for _ in range(k - 1):
            w *= mob
        if (step + 1) % stride == 0:
            np.abs(w, out=mod)
            assert np.max(np.abs(mod - 1.0)) <= DRIFT_BOUND
            w /= mod
    log_sum += np.log(np.abs(prod))
    per_seed = np.log(k * (1.0 - ts * ts))[:, None] - 2.0 * log_sum / n_steps
    return per_seed.mean(axis=1), per_seed.std(axis=1, ddof=1) / math.sqrt(n_seeds)


@st.composite
def _birkhoff_cases(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 3))
    tc = critical_temperature(k)
    # below t_c every angle is in the support; above it, up to t = 0.999,
    # the angle is drawn inside the support.  Strides 16 to 2 come from the
    # ranges and stride 1 (t above 0.992 at k <= 4) from t = 0.999 itself
    ts = draw(st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 0.95 * tc),
            st.floats(tc, 0.999, exclude_min=True),
            st.just(0.999),
        ),
        min_size=n, max_size=n,
    ))
    phis = []
    for t in ts:
        edge = phi_e(t, k) if t > tc else 0.0
        phi = draw(st.floats(edge, math.pi, exclude_min=t > tc))
        phis.append(phi if draw(st.booleans()) else -phi)
    return dict(
        phis=phis,
        ts=ts,
        k=k,
        n_steps=draw(st.sampled_from([1, 15, 16, 17, 33, 500])),
        burn_in=draw(st.sampled_from([0, 1, 7, 21])),
        n_seeds=draw(st.integers(2, 8)),
        seed=draw(st.integers(0, 2**31)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_birkhoff_cases())
def test_birkhoff_kernel_is_bit_exact(case):
    means, errs = birkhoff_exponents(**case)
    ref_means, ref_errs = _reference_birkhoff(**case)
    assert np.array_equal(means, ref_means)
    assert np.array_equal(errs, ref_errs)


def test_renorm_stride_rule():
    # the benchmark's ranges: k = 2 up to t = 0.3 and k = 3 up to t = 0.4
    assert _renorm_stride(2, 0.3) == 8 and _renorm_stride(3, 0.4) == 4
    assert _renorm_stride(2, 0.0) == _LOG_BLOCK
    for k in (2, 3, 4, 8, 64):
        for t in np.linspace(0.0, 0.999, 200):
            r = _renorm_stride(k, t)
            growth = k * (1.0 + t) / (1.0 - t)
            assert r in (1, 2, 4, 8, 16)
            assert r == 1 or growth**r <= _DRIFT_GROWTH
            assert r == _LOG_BLOCK or growth ** (2 * r) > _DRIFT_GROWTH


@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("t", [0.9, 0.99, 0.999])
def test_birkhoff_at_the_small_strides(k, t):
    # the closed form within the criterion-7 allowance at strides 2 and 1;
    # at stride 1 the kernel is the loop that renormalises every step
    case = dict(phis=[math.pi], ts=[t], k=k, n_steps=20_000, burn_in=1000, n_seeds=16, seed=7)
    means, errs = birkhoff_exponents(**case)
    closed = lyapunov_acim_closed(ModelParams(k, t, math.pi))
    assert abs(means[0] - closed) <= 2e-3 + 3.0 * errs[0]
    if _renorm_stride(k, t) == 1:
        ref_means, ref_errs = _reference_birkhoff(**case, stride=1)
        assert np.array_equal(means, ref_means) and np.array_equal(errs, ref_errs)


@pytest.mark.parametrize("phis, ts, match", [
    ([math.nan], [0.2], "finite"),
    ([0.3, math.inf], [0.2, 0.2], "finite"),
    ([-math.inf], 0.1, "finite"),
    ([], [0.2], "empty"),
    ([], [], "empty"),
    ([[0.1, 0.2]], [0.2], r"phis must be a scalar or 1-D, got shape \(1, 2\)"),
    ([0.1, 0.2], [0.2, 0.3, 0.1], r"ts of shape \(3,\) does not broadcast to phis of shape \(2,\)"),
    ([0.1], [0.2, 0.3], r"ts of shape \(2,\) does not broadcast to phis of shape \(1,\)"),
], ids=["nan", "inf", "-inf", "empty", "empty-both", "2-D", "ts-longer", "phis-shorter"])
def test_birkhoff_refuses_bad_parameters_before_stepping(phis, ts, match, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_orbits)
    with pytest.raises(ValueError, match=match):
        birkhoff_exponents(phis, ts, 2, n_steps=20_000)


def _no_orbits(*args, **kwargs):
    raise AssertionError("orbits seeded before the parameters were checked")


def test_seed_is_a_count(monkeypatch):
    # a non-integer seed reached numpy's SeedSequence, which raised TypeError
    from cayley_ising import verify

    case = dict(phis=[0.9], ts=[0.2], k=2, n_steps=200, n_seeds=4)
    assert np.array_equal(birkhoff_exponents(**case, seed=np.int64(3))[0], birkhoff_exponents(**case, seed=3)[0])
    monkeypatch.setattr(np.random, "default_rng", _no_orbits)
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got 1.5"):
        birkhoff_exponents(**case, seed=1.5)
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got 2.5"):
        verify.run_verification(seed=2.5)


def test_preimages_invert_the_lift():
    p = ModelParams(2, 0.45, 0.8)
    targets = np.array([math.pi, 0.3, -2.0])
    pre, deriv = _preimages(targets, p.phi, p.t, p.k)
    assert pre.shape == (targets.size * p.k,)
    images = lift_eval(pre, p)
    goal = np.tile(targets, p.k)
    assert np.max(np.abs(np.remainder(images - goal + math.pi, TAU) - math.pi)) <= 1e-9
    t = p.t
    reference = p.k * (1.0 - t * t) / ((1.0 - t) ** 2 + 4.0 * t * np.cos(0.5 * pre) ** 2)
    np.testing.assert_allclose(deriv, reference, rtol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    k=st.sampled_from([2, 3, 4]),
    t=st.floats(0.0, 0.99),
    phi=st.floats(-math.pi, math.pi, exclude_min=True),
    extra=st.lists(st.floats(-math.pi, math.pi), max_size=6),
)
def test_preimages_property(k, t, phi, extra):
    targets = np.array([math.pi, -math.pi, *extra])
    pre, deriv = _preimages(targets, phi, t, k)
    assert pre.shape == (k * targets.size,)
    assert np.all((pre >= -math.pi) & (pre <= math.pi))
    p = ModelParams(k, t, phi)
    images = lift_eval(pre, p)
    off = np.abs(np.remainder(images - np.tile(targets, k) + math.pi, TAU) - math.pi)
    # 64 ulp of the goal angle, plus one ulp of the preimage carried through
    # the lift's slope: near theta = pi that slope is k(1+t)/(1-t), so even a
    # correctly rounded preimage misses by half an ulp times it
    tol = 64.0 * np.spacing(k * math.pi + abs(phi) + math.pi)
    tol = tol + k * moebius_lift(pre, t)[1] * np.spacing(np.abs(pre))
    assert np.all(off <= tol)
    branches = np.sort(pre.reshape(k, targets.size), axis=0)
    assert np.all(np.diff(branches, axis=0) > 0.0)
    reference = k * (1.0 - t * t) / ((1.0 - t) ** 2 + 4.0 * t * np.cos(0.5 * pre) ** 2)
    np.testing.assert_allclose(deriv, reference, rtol=1e-12)


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


@pytest.mark.parametrize("k, depth", [(2, np.int64(64)), (np.int64(2), 64), (np.int64(8), np.int64(22))])
def test_mme_memory_guard_holds_for_numpy_counts(k, depth, monkeypatch):
    # 2 ** np.int64(64) wraps to 0 in int64, which once passed the guard and
    # went on to allocate level after level of preimages
    def no_pullback(*args):
        raise AssertionError("pullback started past the memory guard")

    monkeypatch.setattr("cayley_ising.spectra._preimages", no_pullback)
    with pytest.raises(ValueError, match="memory guard"):
        lyapunov_mme(ModelParams(k, 0.2, 0.9), depth=depth)


def test_pointwise_dimension_lebesgue():
    fit = pointwise_dimension(0.9, 0.0, 2, level=18)
    assert fit.value == pytest.approx(1.0, abs=5e-3)
    assert fit.r_squared > 0.9999


def test_pointwise_dimension_insufficient_scales():
    with pytest.raises(ValueError):
        pointwise_dimension(0.9, 0.0, 2, level=4, octaves=5)
    # scales under MIN_ATOMS zeros are dropped, and the fit shows it
    assert len(pointwise_dimension(0.9, 0.0, 2, level=10, octaves=5).scales) == 3


@pytest.mark.parametrize("coarsest", [1.0, 2.0])
def test_pointwise_dimension_refuses_a_coarsest_past_the_room(coarsest):
    # room 0.1416 before the seam: the clipped windows used to read 0.83 and 0.73
    with pytest.raises(ValueError, match="room") as exc:
        pointwise_dimension(3.0, 0.2, 2, level=24, coarsest=coarsest)
    assert not isinstance(exc.value, OutsideSupportError)


def test_pointwise_dimension_room_ends_at_the_gap_edge():
    # above t_c the room at phi = 0.5 is 0.5 - phi_e = 0.1926, not pi - 0.5;
    # the default coarsest half-width is room/2, so the widest scale is room
    room = 0.5 - phi_e(0.5, 2)
    assert pointwise_dimension(0.5, 0.5, 2).scales[0] == room
    with pytest.raises(ValueError, match="exceeds the room 0.192605"):
        pointwise_dimension(0.5, 0.5, 2, coarsest=0.2)


def test_pointwise_dimension_explicit_coarsest_within_the_room():
    assert pointwise_dimension(3.0, 0.2, 2, level=24, coarsest=0.1).value == pytest.approx(1.1015, abs=1e-4)


@pytest.mark.parametrize("kwargs", [
    {"coarsest": 0.0}, {"coarsest": -0.1}, {"coarsest": math.nan}, {"coarsest": math.inf},
    {"octaves": 1}, {"octaves": 0},
    {"coarsest": 3.0},  # past the room pi - 0.9 before the seam
])
def test_pointwise_dimension_checks_inputs_first(kwargs, monkeypatch):
    # refused up front: no counts query
    def no_counts(self, phi):
        raise AssertionError("counts queried before the inputs were checked")

    monkeypatch.setattr(EmpiricalMeasure, "counts", no_counts)
    with pytest.raises(ValueError, match="coarsest|octaves"):
        pointwise_dimension(0.9, 0.0, 2, level=18, **kwargs)


def test_pointwise_dimension_gap_rejection():
    with pytest.raises(OutsideSupportError):
        pointwise_dimension(0.05, 0.5, 2, level=12)
    with pytest.raises(OutsideSupportError):
        pointwise_dimension(0.2, 0.6, 2, level=12)  # phi_e(0.6) = 0.593


@pytest.mark.parametrize("phi", [math.pi, -math.pi, 4.0])
def test_pointwise_dimension_refuses_the_seam(phi):
    # e^{i pi} is interior to the support below t_c: the refusal is the window's
    # missing room before the seam, not the support
    assert interior_support(math.pi, 0.2, 2)
    with pytest.raises(ValueError, match="seam") as exc:
        pointwise_dimension(phi, 0.2, 2, level=12)
    assert not isinstance(exc.value, OutsideSupportError)


@pytest.mark.parametrize("t", [0.2, 0.6])
def test_non_finite_angle_is_refused(t):
    # a NaN angle used to come back as a point outside the support above t_c,
    # and the dimension fit called it part of the zero-free arc
    with pytest.raises(ValueError, match="must be finite"):
        kappa_curve(t, 2, [math.nan, 1.0])
    with pytest.raises(ValueError, match="must be finite") as exc:
        pointwise_dimension(math.nan, t, 2, level=12)
    assert not isinstance(exc.value, OutsideSupportError)


@pytest.mark.parametrize("t", [0.2, 0.7])
@pytest.mark.parametrize("k", [2, 3])
def test_kappa_curve_reads_the_seam_from_both_sides(k, t):
    # -pi is z = -1, as interior_support reads it; the curve once refused it
    # as a field angle outside (-pi, pi]
    lo, hi = kappa_curve(t, k, [-math.pi, math.pi])
    assert (lo.chi, lo.kappa, lo.in_support) == (hi.chi, hi.kappa, hi.in_support)
    assert lo.in_support and lo.w_disk == hi.w_disk.conjugate()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="field angle phi must be finite"):
            fixed_points(t, k, [bad])


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


def _bits(*values) -> bytes:
    out = b""
    for v in values:
        if isinstance(v, complex):
            out += struct.pack("<dd", v.real, v.imag)
        elif v is None:
            out += b"none"
        else:
            out += struct.pack("<d", v)
    return out


def _kappa_one_by_one(t, k, phis):
    """Each angle on its own, past kappa_curve: a one-angle root solve, its
    disk root, then chi = log(k(1-t^2)/|1+w t|^2) and log k / chi."""
    out = []
    for phi in phis:
        if not interior_support(phi, t, k):
            out.append((phi, None, math.nan, math.nan, False))
            continue
        w = disk_root(fixed_points(t, k, [phi])[0])
        if w is None:
            raise ResolutionError(f"no disk fixed point at phi={phi}")
        chi = math.log(k * (1.0 - t * t) / abs(1.0 + w * t) ** 2)
        out.append((phi, w, chi, math.log(k) / chi, True))
    return out


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("which", ["zero", "critical", "0.6", "0.9"])
def test_kappa_curve_batch_matches_single_angles(k, which):
    tc = critical_temperature(k)
    t = {"zero": 0.0, "critical": tc, "0.6": max(0.6, tc + 0.05), "0.9": 0.9}[which]
    phis = list(np.linspace(-math.pi, math.pi, 61)[1:]) + [0.0, 1e-7, -1e-7, math.pi]
    if t > tc:
        edge = phi_e(t, k)
        for d in (1e-6, 5e-7, 1e-7):
            phis += [edge + d, edge - d, -edge - d, -edge + d]
    got = kappa_curve(t, k, phis)
    want = _kappa_one_by_one(t, k, phis)
    assert len(got) == len(want)
    for pt, ref in zip(got, want):
        assert pt.in_support == ref[4]
        assert _bits(pt.phi, pt.w_disk, pt.chi, pt.kappa) == _bits(*ref[:4])


def test_kappa_curve_marks_missing_disk_root():
    # one ulp inside the support the disk and circle fixed points have not
    # separated by CIRCLE_BAND yet: the single-angle path finds no disk root
    # for some of these, and the batch marks the same angles with NaN instead
    # of refusing the whole curve
    marked = 0
    for k in (2, 3, 4):
        for t in (2.0 / 3.0, 0.75, 0.9):
            phi = math.nextafter(phi_e(t, k), 4.0)
            good, pt = kappa_curve(t, k, [1.0, phi])
            assert pt.in_support
            try:
                want = _kappa_one_by_one(t, k, [phi])[0]
            except ResolutionError as err:
                assert "no disk fixed point" in str(err)
                marked += 1
                assert pt.w_disk is None and math.isnan(pt.chi) and math.isnan(pt.kappa)
                assert _bits(good.w_disk, good.chi) == _bits(*_kappa_one_by_one(t, k, [1.0])[0][1:3])
                continue
            assert _bits(pt.phi, pt.w_disk, pt.chi, pt.kappa) == _bits(*want[:4])
    assert marked > 0


def test_kappa_curve_edge_angle_keeps_the_curve():
    t = 0.5078407506772366
    edge_phi = 0.3278182082463264  # in the support, one ulp past phi_e
    assert interior_support(edge_phi, t, 2)
    with pytest.raises(ResolutionError, match="no disk fixed point"):
        lyapunov_acim_closed(ModelParams(2, t, edge_phi))
    got = kappa_curve(t, 2, [1.0, 2.0, edge_phi])
    want = kappa_curve(t, 2, [1.0, 2.0])
    for pt, ref in zip(got[:2], want):
        assert _bits(pt.phi, pt.w_disk, pt.chi, pt.kappa) == _bits(ref.phi, ref.w_disk, ref.chi, ref.kappa)
        assert pt.in_support == ref.in_support
    edge = got[2]
    assert edge.phi == edge_phi and edge.in_support and edge.w_disk is None
    assert math.isnan(edge.chi) and math.isnan(edge.kappa)


def test_chi_closed_is_the_kappa_curve_chi():
    # one path per closed form: the single-angle chi is kappa_curve's, bit for
    # bit, and refuses exactly where the curve marks an angle
    refused = {OutsideSupportError: 0, ResolutionError: 0}
    for k in (2, 3, 4):
        tc = critical_temperature(k)
        for t in (0.0, tc, tc + 0.05, 0.9):
            phis = [float(phi) for phi in np.linspace(-math.pi, math.pi, 41)[1:]]
            if t >= tc:
                edge = phi_e(t, k)
                phis += [edge + 1e-6, edge - 1e-6, edge + 1e-7, edge - 1e-7, math.nextafter(edge, 4.0)]
            for phi in phis:
                (pt,) = kappa_curve(t, k, [phi])
                p = ModelParams(k, t, phi)
                if not pt.in_support:
                    with pytest.raises(OutsideSupportError):
                        lyapunov_acim_closed(p)
                    refused[OutsideSupportError] += 1
                elif pt.w_disk is None:
                    with pytest.raises(ResolutionError, match="no disk fixed point"):
                        lyapunov_acim_closed(p)
                    refused[ResolutionError] += 1
                else:
                    assert _bits(lyapunov_acim_closed(p)) == _bits(pt.chi)
    # k = 2, t = 0.9 one ulp past the edge has no disk root
    assert refused[OutsideSupportError] > 0 and refused[ResolutionError] > 0


def test_chi_and_kappa_curve_refuse_subnormal_t_power_k():
    # core.fixed_points refuses t > 0 with t^k below the smallest normal double
    with pytest.raises(ResolutionError, match="smallest normal"):
        lyapunov_acim_closed(ModelParams(2, 1e-155, 0.5))
    with pytest.raises(ResolutionError, match="smallest normal"):
        kappa_curve(1e-200, 2, [0.5, -2.0])


def test_spectral_report_fields():
    rep = spectral_report(
        ModelParams(2, 0.2, 0.0), mme_depth=10, dim_level=16, birkhoff_steps=20_000, n_seeds=8
    )
    doc = rep.to_dict()
    assert doc["chi_acim_closed"] == pytest.approx(0.6238107163648711, abs=1e-12)
    assert doc["chi_mme"] > LOG2 > doc["chi_acim_closed"]
    assert doc["kappa"] == pytest.approx(LOG2 / doc["chi_acim_closed"])
