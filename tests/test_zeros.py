import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayley_ising.zeros as zeros_module
from cayley_ising import verify
from cayley_ising.core import TAU, ModelParams, ResolutionError, lift_eval, moebius_lift, phi_e
from cayley_ising.measure import EmpiricalMeasure
from cayley_ising.zeros import (
    MAX_LEVEL,
    MAX_ZEROS,
    SEAM_ULPS,
    TreeSpec,
    enumerate_zeros,
    iterated_lift,
)


def circular_set_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff-style distance between equal-size angle multisets on the circle."""
    assert len(a) == len(b)
    za = np.exp(1j * np.asarray(a))
    zb = np.exp(1j * np.asarray(b))
    chord = np.abs(za[:, None] - zb[None, :])
    worst = max(chord.min(axis=0).max(), chord.min(axis=1).max())
    return 2.0 * math.asin(min(worst / 2.0, 1.0))


def test_tree_spec_validation():
    with pytest.raises(ValueError):
        TreeSpec("ring", 2, 2)
    with pytest.raises(ValueError):
        TreeSpec("full", 0, 2)
    with pytest.raises(ValueError):
        TreeSpec("rooted", -1, 2)
    with pytest.raises(ValueError):
        TreeSpec("rooted", 2, 1)
    for variant in ("rooted", "full"):
        with pytest.raises(ValueError, match="level must lie in"):
            TreeSpec(variant, MAX_LEVEL + 1, 2)
        # a non-integral level is refused when built, not at its first use
        for level in (2.0, 2.5):
            with pytest.raises(ValueError, match="integer"):
                TreeSpec(variant, level, 2)


def test_vertex_counts():
    assert TreeSpec("rooted", 2, 2).vertex_count == 7
    assert TreeSpec("rooted", 1, 3).vertex_count == 4
    assert TreeSpec("rooted", 2, 3).vertex_count == 13  # 9 + 3 + 1
    assert TreeSpec("full", 1, 2).vertex_count == 4
    # center + (k+1) rooted subtrees of level n-1
    assert TreeSpec("full", 2, 2).vertex_count == 1 + 3 * 3
    assert TreeSpec("full", 3, 2).vertex_count == 1 + 3 * 7
    for k in (2, 3, 4):
        for n in range(1, 6):
            rooted = TreeSpec("rooted", n - 1, k).vertex_count
            assert TreeSpec("full", n, k).vertex_count == 1 + (k + 1) * rooted
    # the deepest accepted tree still has a count a float holds
    deepest = TreeSpec("rooted", MAX_LEVEL, 2).vertex_count
    assert deepest == 2 ** (MAX_LEVEL + 1) - 1 and float(deepest) > 0


_STEPS = TreeSpec.steps.fget


@pytest.mark.parametrize("mutant", [
    lambda tree: _STEPS(tree)[1:] if tree.variant == "rooted" else _STEPS(tree),
    lambda tree: _STEPS(tree)[:-1] + (tree.k,) if tree.variant == "full" else _STEPS(tree),
], ids=["rooted-one-level-short", "full-centre-k-children"])
def test_a_wrong_schedule_fails_criteria_2_and_3(monkeypatch, mutant):
    # every count but the edges reads the schedule, so a wrong one must show
    # on exactly the trees whose schedule it changes; the brute force sums
    # over its own edge list, so it reports a mismatch instead of failing
    trees = [TreeSpec(variant, n, k) for k in (2, 3) for n in range(5) for variant in ("rooted", "full")
             if variant == "rooted" or n >= 1]
    affected = [tree for tree in trees if mutant(tree) != _STEPS(tree)]
    assert affected
    monkeypatch.setattr(TreeSpec, "steps", property(mutant))
    assert verify.zero_counts(range(5)) == affected
    _, mismatches, _ = verify.recursion_vs_bruteforce(16)
    assert mismatches and all(mutant(tree) != _STEPS(tree) for tree in mismatches)


def test_a_nan_winding_fails_criterion_3(monkeypatch):
    # NaN compares false with any bound, so it must count as a wrong tree
    def nan_lift(phi, tree, t):
        return np.full(2, math.nan), np.zeros(2, dtype=np.int64), np.ones(2)

    monkeypatch.setattr(zeros_module, "iterated_lift", nan_lift)
    assert len(verify.zero_counts(range(2))) == 3 * 2


def test_edges_match_counts():
    for spec in (TreeSpec("rooted", 3, 2), TreeSpec("full", 2, 3), TreeSpec("rooted", 1, 5)):
        edges = spec.edges()
        assert len(edges) == spec.vertex_count - 1
        vertices = {v for e in edges for v in e}
        assert vertices == set(range(spec.vertex_count))


def test_iterated_lift_winding_is_integer():
    tree = TreeSpec("full", 4, 2)
    phis = np.linspace(-math.pi, math.pi, 50)
    psi, wind, _ = iterated_lift(phis, tree, 0.55)
    assert np.all(wind == np.round(wind))
    assert np.all((psi > -math.pi) & (psi <= math.pi))
    # total winding over one period equals the vertex count
    assert wind[-1] - wind[0] + (psi[-1] - psi[0]) / (2 * math.pi) == pytest.approx(
        tree.vertex_count, abs=1e-9
    )


def test_degree_identity_randomized():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(0, 6))
        t = float(rng.uniform(0.0, 0.9))
        tree = TreeSpec("rooted", n, k)
        phis = rng.uniform(-math.pi, math.pi, 32)
        p1, w1, _ = iterated_lift(phis, tree, t)
        p2, w2, _ = iterated_lift(phis + 2 * math.pi, tree, t)
        gap = (p2 - p1) + 2 * math.pi * (w2 - w1)
        assert np.max(np.abs(gap / (2 * math.pi * tree.vertex_count) - 1.0)) <= 1e-9


def test_monotonicity_in_phi():
    rng = np.random.default_rng(23)
    tree = TreeSpec("rooted", 6, 2)
    phis = rng.uniform(-math.pi, math.pi, 500)
    _, _, deriv = iterated_lift(phis, tree, 0.7)
    assert np.min(deriv) >= 1.0


def test_enumerate_small_known():
    zs = enumerate_zeros(TreeSpec("rooted", 1, 2), 0.5)
    expected = [-math.acos(-0.125), math.acos(-0.125), math.pi]
    assert np.allclose(zs.angles, expected, atol=1e-12)
    assert np.all(zs.residuals <= 1e-10)


def test_enumerate_t0_roots_of_minus_one():
    for variant, n, k in (("rooted", 1, 2), ("rooted", 3, 2), ("full", 2, 2), ("rooted", 2, 3)):
        tree = TreeSpec(variant, n, k)
        zs = enumerate_zeros(tree, 0.0)
        count = tree.vertex_count
        # (2m+1) pi/|V| in (-pi, pi], built exactly: a float test of angle > pi
        # would move 13 pi/13 at rooted k = 3, level 2
        odd = 2 * np.arange(count) + 1
        expected = np.sort(np.where(odd > count, odd - 2 * count, odd) * math.pi / count)
        assert np.allclose(zs.angles, expected, atol=1e-10)


def test_enumerate_counts_and_symmetry():
    for variant in ("rooted", "full"):
        for t in (0.3, 0.62):
            tree = TreeSpec(variant, 7, 2)
            zs = enumerate_zeros(tree, t)
            assert len(zs) == tree.vertex_count
            assert np.all(np.diff(zs.angles) > 0)
            # the negated multiset equals the original as circle points
            assert circular_set_distance(-zs.angles, zs.angles) <= 1e-10
            if tree.vertex_count % 2 == 1:
                assert zs.angles[-1] == math.pi


def test_enumerate_rejects_bad_t():
    with pytest.raises(ValueError):
        enumerate_zeros(TreeSpec("rooted", 2, 2), 1.0)
    with pytest.raises(ValueError):
        enumerate_zeros(TreeSpec("rooted", 2, 2), 0.5, tol=0.0)


def test_zero_free_arc():
    for t in (0.4, 0.7):
        edge = phi_e(t, 2)
        for variant in ("rooted", "full"):
            zs = enumerate_zeros(TreeSpec(variant, 9, 2), t)
            assert zs.angles[zs.angles > 0.0].min() >= edge - 1e-6


def test_conjugate_symmetry_gap_matches_dense_chords():
    for tree, t in (
        (TreeSpec("rooted", 5, 2), 0.45),
        (TreeSpec("full", 4, 2), 0.9),
        (TreeSpec("rooted", 3, 3), 0.0),
        (TreeSpec("full", 3, 3), 0.99),
        (TreeSpec("rooted", 0, 2), 0.3),
    ):
        zs = enumerate_zeros(tree, t)
        za = np.exp(1j * zs.angles)
        chord = np.abs(np.conj(za)[:, None] - za[None, :])
        dense = float(max(chord.min(axis=0).max(), chord.min(axis=1).max()))
        assert verify.conjugate_symmetry_gap([zs]) == dense


def test_workers_deterministic():
    tree = TreeSpec("rooted", 10, 2)
    a = enumerate_zeros(tree, 0.35, workers=1)
    b = enumerate_zeros(tree, 0.35, workers=4)
    assert np.array_equal(a.angles, b.angles)


def test_workers_deterministic_across_chunks(monkeypatch):
    # small chunks, so the branch solves run on several threads
    monkeypatch.setattr(zeros_module, "_CHUNK", 256)
    tree = TreeSpec("rooted", 10, 2)
    a = enumerate_zeros(tree, 0.35, workers=1)
    b = enumerate_zeros(tree, 0.35, workers=3)
    assert np.array_equal(a.angles, b.angles)
    assert np.array_equal(a.residuals, b.residuals)


def test_workers_split_small_trees(monkeypatch):
    # level 15 has 32767 branches to solve: one _CHUNK slice for one worker,
    # two slices of at least _MIN_CHUNK for two
    sizes = []
    solve = zeros_module._solve_branches

    def spy(m, *args, **kwargs):
        sizes.append(np.size(m))
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(zeros_module, "_solve_branches", spy)
    tree = TreeSpec("rooted", 15, 2)
    half = tree.vertex_count // 2
    a = enumerate_zeros(tree, 0.35, workers=1)
    assert max(sizes) == half
    sizes.clear()
    b = enumerate_zeros(tree, 0.35, workers=2)
    assert max(sizes) == -(-half // 2)
    assert a.angles.tobytes() == b.angles.tobytes()
    assert a.residuals.tobytes() == b.residuals.tobytes()


def test_thread_pool_bounded_by_cpu_count(monkeypatch):
    # a chunk can be as small as _MIN_CHUNK, so a huge workers value would
    # otherwise ask for one OS thread per chunk; this fake pool starts none
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(zeros_module, "ThreadPoolExecutor", SerialPool)
    tree = TreeSpec("rooted", 15, 2)
    many = enumerate_zeros(tree, 0.35, workers=10**6)
    assert requested and max(requested) <= (os.cpu_count() or 1)
    one = enumerate_zeros(tree, 0.35, workers=1)
    assert many.angles.tobytes() == one.angles.tobytes()
    assert many.residuals.tobytes() == one.residuals.tobytes()


def test_branch_count_matches_staircase():
    # EmpiricalMeasure.counts reads the lift branches at or below phi off
    # iterated_lift; above t_c they must still give the enumerated staircase
    tree = TreeSpec("rooted", 6, 2)
    t = 0.5
    zs = enumerate_zeros(tree, t)
    rng = np.random.default_rng(4)
    probes = rng.uniform(-math.pi, math.pi, 400)
    counts = EmpiricalMeasure(tree, t).counts(probes)
    stair = np.searchsorted(zs.angles, probes, side="right")
    assert np.array_equal(counts, stair)


def assert_mirror_exact(angles: np.ndarray, count: int) -> None:
    """angles = [-pos[::-1], pos] plus pi for odd counts, bit for bit."""
    half = count // 2
    assert len(angles) == count
    assert np.array_equal(-angles[:half][::-1], angles[half : 2 * half])
    if count % 2:
        assert angles[-1] == math.pi
    assert np.all(angles[: 2 * half] > -math.pi) and np.all(angles[: 2 * half] < math.pi)


_LEVELS = {2: 9, 3: 6, 4: 5}


@st.composite
def trees(draw):
    k = draw(st.sampled_from(sorted(_LEVELS)))
    variant = draw(st.sampled_from(["rooted", "full"]))
    level = draw(st.integers(1 if variant == "full" else 0, _LEVELS[k]))
    return TreeSpec(variant, level, k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tree=trees())
def test_digits_are_all_of_the_branch(tree):
    # the pullback drops the quotient left above the top digit, which is 0:
    # the digits, read as a mixed-radix number top level first, give back m
    m = np.arange(tree.vertex_count // 2, dtype=np.int64)
    rows = list(zip(zeros_module._digits(m, tree.steps), reversed(tree.steps)))
    value = np.zeros_like(m)
    for row, k in reversed(rows):
        value = value * k + row
    assert np.array_equal(value, m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tree=trees(), t=st.floats(0.0, 0.95), seed=st.integers(0, 2**32 - 1))
def test_enumeration_properties(tree, t, seed):
    """Count identity, exact mirror symmetry, and counts equal to the
    staircase of the enumerated zeros, at any t; strict order where float64
    resolves neighbouring zeros."""
    zs = enumerate_zeros(tree, t)
    count = tree.vertex_count
    assert_mirror_exact(zs.angles, count)
    assert np.all(np.diff(zs.angles) >= 0)
    if t <= 0.8:
        assert np.all(np.diff(zs.angles) > 0)

    em = EmpiricalMeasure(tree, t)
    assert em.counts(-math.pi) == 0 and em.counts(0.0) == count // 2 and em.counts(math.pi) == count
    # probes: uniform ones, and midpoints of every gap float64 resolves
    rng = np.random.default_rng(seed)
    gaps = np.diff(zs.angles)
    wide = gaps > 1e-9 * np.maximum(1.0, np.abs(zs.angles[1:]))
    mids = zs.angles[:-1][wide] + 0.5 * gaps[wide]
    probes = np.concatenate([rng.uniform(-math.pi, math.pi, 256), mids])
    assert np.array_equal(em.counts(probes), np.searchsorted(zs.angles, probes, side="right"))


@pytest.mark.parametrize(
    "variant, level, k, t",
    [("rooted", 14, 2, 0.9), ("rooted", 15, 2, 0.9), ("rooted", 16, 2, 0.9), ("rooted", 10, 3, 0.95)],
)
def test_high_t_solves_close(variant, level, k, t):
    """Trees where Newton steps used to cross into a neighbouring branch and
    the solve raised: all |V| angles come back, mirror-exact."""
    tree = TreeSpec(variant, level, k)
    zs = enumerate_zeros(tree, t)
    assert_mirror_exact(zs.angles, tree.vertex_count)
    assert np.all(np.diff(zs.angles) >= 0)


def test_unresolvable_zeros_raise_resolution_error(monkeypatch):
    tree = TreeSpec("rooted", 12, 2)
    # no float64 residual reaches 1e-300
    with pytest.raises(ResolutionError, match="float64"):
        enumerate_zeros(tree, 0.95, tol=1e-300)
    # two Newton steps close no bracket
    monkeypatch.setattr(zeros_module, "_MAX_NEWTON", 2)
    with pytest.raises(ResolutionError, match="float64"):
        enumerate_zeros(tree, 0.95)


@pytest.mark.parametrize("level", [12, 13])
def test_newton_safeguard_breaks_cycles_inside_the_bracket(level):
    # from the t = 0 zero (2m+1)pi/|V|, the Newton iterates of these branches
    # settle into a two-cycle, about 0.79 <-> 2.96, whose steps both stay
    # inside the bracket; only the step-length rule bisects out of it
    tree = TreeSpec("rooted", level, 2)
    m = np.array([809, 1619], dtype=np.int64)
    start = (2 * m + 1) * (math.pi / tree.vertex_count)
    phi, res = zeros_module._solve_branches(m, start, tree, 0.95)
    assert np.all(np.abs(res) <= 1e-10)
    assert np.all((phi > 0.0) & (phi < math.pi))


@pytest.mark.parametrize("level", [3, 6, 10])
@pytest.mark.parametrize("eps", [1e-10, 1e-12, 1e-15])
def test_enumeration_near_t_one(level, eps):
    # 1 + t^2 - 2t cos u rounds to 0 here, so a pullback slope divided by it
    # fails (any numpy warning fails the suite); and psi_{-t} must keep a few
    # ulp(pi) as t -> 1, or level 10 at 1 - 1e-15 leaves branches past tol
    tree = TreeSpec("rooted", level, 2)
    zs = enumerate_zeros(tree, 1.0 - eps)
    assert_mirror_exact(zs.angles, tree.vertex_count)
    assert np.all(zs.residuals <= 1e-13)


@pytest.mark.parametrize("level, t, bound", [(13, 0.2, 4.5), (14, 0.9, 5.0)])
def test_pullbacks_per_zero(monkeypatch, level, t, bound):
    # Newton starts read off the forward-lift grid take about 4 pullbacks per
    # branch; from the t = 0 zeros it took 5.8 at t = 0.2 and 8.8 at t = 0.9
    points = []
    pullback = zeros_module._pullback

    def spy(phi, *args):
        points.append(len(phi))
        return pullback(phi, *args)

    monkeypatch.setattr(zeros_module, "_pullback", spy)
    tree = TreeSpec("rooted", level, 2)
    enumerate_zeros(tree, t)
    assert sum(points) / (tree.vertex_count // 2) <= bound


@pytest.mark.parametrize("level, k, t", [(8, 3, 0.7602548930412794), (15, 2, 0.2), (1, 2, 0.5)])
def test_zero_at_minus_one_is_pi(level, k, t):
    zs = enumerate_zeros(TreeSpec("rooted", level, k), t)
    assert zs.angles[-1] == math.pi
    assert zs.residuals[-1] == 0.0


def test_winding_is_int64_and_guarded():
    _, wind, _ = iterated_lift(np.linspace(-3.0, 3.0, 7), TreeSpec("rooted", 36, 3), 0.5)
    assert wind.dtype == np.int64
    iterated_lift(0.5, TreeSpec("rooted", 61, 2), 0.5)  # 2^62 - 1 vertices
    with pytest.raises(ValueError, match="2\\^62"):
        iterated_lift(0.5, TreeSpec("rooted", 62, 2), 0.5)
    with pytest.raises(ValueError, match="2\\^62"):
        EmpiricalMeasure(TreeSpec("rooted", 40, 3), 0.5).counts(0.5)


def test_enumeration_cap_refuses_before_allocating():
    tree = TreeSpec("rooted", 30, 2)
    assert tree.vertex_count > MAX_ZEROS
    with pytest.raises(ValueError, match="cap"):
        enumerate_zeros(tree, 0.5)


def test_iterated_lift_rejects_non_finite_angles():
    with pytest.raises(ValueError, match="phi = nan"):
        iterated_lift([math.nan, math.inf], TreeSpec("rooted", 3, 2), 0.4)


def test_enumerate_rejects_nan_tol():
    with pytest.raises(ValueError, match="got nan"):
        enumerate_zeros(TreeSpec("rooted", 4, 2), 0.5, tol=math.nan)


@pytest.mark.parametrize("workers", [0, -4])
def test_enumerate_rejects_workers_below_one(workers):
    # these once ran silently on one thread
    with pytest.raises(ValueError, match=f"got {workers}"):
        enumerate_zeros(TreeSpec("rooted", 4, 2), 0.5, workers=workers)


def test_iterated_lift_keeps_input_shape():
    tree = TreeSpec("full", 3, 3)
    expected = iterated_lift(np.array([0.7]), tree, 0.5)
    for phi in (0.7, np.float64(0.7), np.array(0.7), np.full((2, 3), 0.7)):
        out = iterated_lift(phi, tree, 0.5)
        for got, want in zip(out, expected):
            assert np.shape(got) == np.shape(phi)
            assert np.all(got == want[0])
    # each angle's lift is the same bits in any slice or view, so neither
    # workers nor the chunking of _map_chunks can move a count
    phi = np.random.default_rng(3).uniform(-math.pi, math.pi, 66)
    whole = iterated_lift(phi, tree, 0.95)
    for size in range(1, 34):
        for got, want in zip(iterated_lift(phi[5 : 5 + size], tree, 0.95), whole):
            assert got.tobytes() == want[5 : 5 + size].tobytes()
    for got, want in zip(iterated_lift(phi[1::2], tree, 0.95), whole):
        assert got.tobytes() == want[1::2].tobytes()


def theta_form_lift(phi, tree: TreeSpec, t: float):
    """Reference composed lift stepped on the angle itself: lift_eval at each
    level, the result reduced into [-pi, pi) by np.remainder.  The start is
    reduced into (-pi, pi], as iterated_lift's is, and kept as it is there:
    reduced to -pi, phi = pi lies an ulp across the repelling fixed point
    w = -1 of z = -1, which the lift expands by k(1+t)/(1-t) a level, and
    at rooted k=4, level 9, t = 0.9453125 that start landed 75 rad from
    iterated_lift's G(pi), where 64 eps G' is 35 rad."""
    inside = (phi > -math.pi) & (phi <= math.pi)
    psi = np.where(inside, phi, math.pi - np.remainder(math.pi - phi, TAU))
    wind = np.rint((phi - psi) / TAU)
    for k in tree.steps:
        raw = lift_eval(psi, ModelParams(k, t)) + phi
        psi = np.remainder(raw + math.pi, TAU) - math.pi
        wind = k * wind + np.rint((raw - psi) / TAU)
    return psi, wind


_PI_LD = 4 * np.arctan(np.longdouble(1))


def long_double_lift(phi, tree: TreeSpec, t: float):
    """theta_form_lift in extended precision, with dG/dphi: phi is a
    np.longdouble array, and the reduction uses pi to long-double precision."""
    psi, wind, deriv = phi, np.zeros_like(phi), np.ones_like(phi)
    for k in tree.steps:
        p = ModelParams(k, t)
        deriv = 1 + k * moebius_lift(psi, t)[1] * deriv
        raw = lift_eval(psi, p) + phi
        turns = np.rint(raw / (2 * _PI_LD))
        psi, wind = raw - 2 * _PI_LD * turns, k * wind + turns
    return psi, wind, deriv


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="long double is float64 here"
)
@pytest.mark.parametrize(
    "variant, level, k, t",
    [("rooted", 7, 3, 0.95), ("full", 6, 3, 0.9), ("full", 5, 4, 0.8), ("rooted", 12, 2, 0.3)],
)
def test_angles_match_extended_precision(variant, level, k, t):
    """Each positive angle lies within 4 ulp(pi) of the root of
    G(phi) = pi + 2pi m found by Newton on the long-double forward lift."""
    tree = TreeSpec(variant, level, k)
    half = tree.vertex_count // 2
    pos = enumerate_zeros(tree, t).angles[half : 2 * half]
    m = np.arange(half)
    ref = pos.astype(np.longdouble)
    for _ in range(3):
        psi, wind, deriv = long_double_lift(ref, tree, t)
        ref = ref - ((psi - _PI_LD) + 2 * _PI_LD * (wind - m)) / deriv
    assert float(np.max(np.abs(ref - pos))) <= 4 * math.ulp(math.pi)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="long double is float64 here"
)
@pytest.mark.parametrize("t", [0.5, 0.9, 0.99])
@pytest.mark.parametrize(
    "variant, level, k", [("rooted", 30, 2), ("full", 8, 3), ("rooted", 8, 4), ("rooted", 5, 8)]
)
def test_lift_rounds_inside_seam_band(variant, level, k, t):
    """|G - G_ld| <= SEAM_ULPS * ulp(pi) * G' against the long-double lift,
    so a count outside the seam band is exact (measure.EmpiricalMeasure.counts)."""
    tree = TreeSpec(variant, level, k)
    phi = np.random.default_rng(level * k).uniform(-math.pi, math.pi, 4096)
    psi, wind, deriv = iterated_lift(phi, tree, t)
    ref_psi, ref_wind, _ = long_double_lift(phi.astype(np.longdouble), tree, t)
    gap = (psi - ref_psi) + 2 * _PI_LD * (wind - ref_wind)
    assert np.all(np.abs(gap) <= SEAM_ULPS * math.ulp(math.pi) * deriv)


def test_residuals_are_radians():
    """The residual |F_m(phi)| bounds the angle error; at high t it stays at
    the rounding of the pullback."""
    zs = enumerate_zeros(TreeSpec("rooted", 12, 2), 0.9)
    assert zs.residuals.max() <= 1e-12


@st.composite
def lift_trees(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    variant = draw(st.sampled_from(["rooted", "full"]))
    return TreeSpec(variant, draw(st.integers(1 if variant == "full" else 0, 10)), k)


# angles every example includes: the seam, its images one turn away, 0 and
# the double just below pi
_SEAM_PHIS = [math.pi, -math.pi, math.pi + TAU, math.pi - TAU, -math.pi + TAU, -math.pi - TAU]
_SEAM_PHIS += [0.0, float(np.nextafter(math.pi, 0.0))]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    tree=lift_trees(),
    t=st.floats(0.0, 0.95),
    phis=st.lists(st.floats(-3.0 * math.pi, 3.0 * math.pi), max_size=24),
)
def test_iterated_lift_matches_theta_form(tree, t, phis):
    """Both sides step moebius_lift, so this holds the seam rule and the
    winding: iterated_lift agrees with the angle form reduced by
    np.remainder to c * eps * G'(phi), keeps psi in (-pi, pi] at the seam
    and its images, and has the same winding wherever the angle form does
    not land within that distance of the seam; enumeration on two threads
    is byte-identical to one.  The lift's own rounding is held against long
    double by test_lift_rounds_inside_seam_band and
    test_angles_match_extended_precision."""
    phi = np.array(_SEAM_PHIS + phis)
    psi, wind, deriv = iterated_lift(phi, tree, t)
    assert np.all((psi > -math.pi) & (psi <= math.pi))
    ref_psi, ref_wind = theta_form_lift(phi, tree, t)
    tol = 64.0 * np.finfo(float).eps * deriv
    gap = (psi - ref_psi) + TAU * (wind - ref_wind)
    assert np.all(np.abs(gap) <= tol)
    off_seam = np.abs(ref_psi) < math.pi - tol
    assert np.array_equal(wind[off_seam], ref_wind[off_seam])

    if tree.vertex_count <= 1 << 12:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeros_module, "_MIN_CHUNK", 16)
            one = enumerate_zeros(tree, t, workers=1)
            two = enumerate_zeros(tree, t, workers=2)
        assert one.angles.tobytes() == two.angles.tobytes()
        assert one.residuals.tobytes() == two.residuals.tobytes()
