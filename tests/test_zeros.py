import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayley_ising.zeros as zeros_module
from cayley_ising.core import phi_e
from cayley_ising.measure import EmpiricalMeasure
from cayley_ising.zeros import (
    MAX_ZEROS,
    TreeSpec,
    _wrap_angle,
    branch_count,
    enumerate_zeros,
    iterated_lift,
    min_positive_zero,
    zero_count,
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


def test_vertex_counts():
    assert zero_count(TreeSpec("rooted", 2, 2)) == 7
    assert zero_count(TreeSpec("rooted", 1, 3)) == 4
    assert zero_count(TreeSpec("rooted", 2, 3)) == 13  # 9 + 3 + 1
    assert zero_count(TreeSpec("full", 1, 2)) == 4
    # center + (k+1) rooted subtrees of level n-1
    assert zero_count(TreeSpec("full", 2, 2)) == 1 + 3 * 3
    assert zero_count(TreeSpec("full", 3, 2)) == 1 + 3 * 7
    for k in (2, 3, 4):
        for n in range(1, 6):
            assert zero_count(TreeSpec("full", n, k)) == 1 + (k + 1) * zero_count(
                TreeSpec("rooted", n - 1, k)
            )


def test_edges_match_counts():
    for spec in (TreeSpec("rooted", 3, 2), TreeSpec("full", 2, 3), TreeSpec("rooted", 1, 5)):
        edges = spec.edges()
        assert len(edges) == spec.edge_count
        vertices = {v for e in edges for v in e}
        assert vertices == set(range(spec.vertex_count))


def test_iterated_lift_winding_is_integer():
    tree = TreeSpec("full", 4, 2)
    phis = np.linspace(-math.pi, math.pi, 50)
    psi, wind = iterated_lift(phis, tree, 0.55)
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
        p1, w1 = iterated_lift(phis, tree, t)
        p2, w2 = iterated_lift(phis + 2 * math.pi, tree, t)
        gap = (p2 - p1) + 2 * math.pi * (w2 - w1)
        assert np.max(np.abs(gap / (2 * math.pi * tree.vertex_count) - 1.0)) <= 1e-9


def test_monotonicity_in_phi():
    rng = np.random.default_rng(23)
    tree = TreeSpec("rooted", 6, 2)
    phis = rng.uniform(-math.pi, math.pi, 500)
    _, _, deriv = iterated_lift(phis, tree, 0.7, derivative=True)
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
        expected = np.sort(_wrap_angle((2 * np.arange(count) + 1) * math.pi / count))
        assert np.allclose(zs.angles, expected, atol=1e-10)


def test_enumerate_counts_and_symmetry():
    for variant in ("rooted", "full"):
        for t in (0.3, 0.62):
            tree = TreeSpec(variant, 7, 2)
            zs = enumerate_zeros(tree, t)
            assert len(zs) == zero_count(tree)
            assert np.all(np.diff(zs.angles) > 0)
            # the negated multiset equals the original as circle points
            assert circular_set_distance(-zs.angles, zs.angles) <= 1e-10
            if zero_count(tree) % 2 == 1:
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
            assert min_positive_zero(zs) >= edge - 1e-6


def test_workers_deterministic():
    tree = TreeSpec("rooted", 10, 2)
    a = enumerate_zeros(tree, 0.35, workers=1)
    b = enumerate_zeros(tree, 0.35, workers=4)
    assert np.array_equal(a.angles, b.angles)


def test_workers_deterministic_across_chunks(monkeypatch):
    # small chunks, so the grid pass and the branch solves both run on
    # several threads
    monkeypatch.setattr(zeros_module, "_CHUNK", 256)
    tree = TreeSpec("rooted", 10, 2)
    a = enumerate_zeros(tree, 0.35, workers=1)
    b = enumerate_zeros(tree, 0.35, workers=3)
    assert np.array_equal(a.angles, b.angles)
    assert np.array_equal(a.residuals, b.residuals)


def test_workers_split_small_trees(monkeypatch):
    # level 14 has 32766 interior grid nodes, one _CHUNK slice for one worker
    sizes = []
    lift = zeros_module.iterated_lift

    def spy(phi, *args, **kwargs):
        sizes.append(np.size(phi))
        return lift(phi, *args, **kwargs)

    monkeypatch.setattr(zeros_module, "iterated_lift", spy)
    tree = TreeSpec("rooted", 14, 2)
    a = enumerate_zeros(tree, 0.35, workers=1)
    assert max(sizes) == tree.vertex_count - 1
    sizes.clear()
    b = enumerate_zeros(tree, 0.35, workers=2)
    assert max(sizes) == (tree.vertex_count - 1) // 2
    assert a.angles.tobytes() == b.angles.tobytes()
    assert a.residuals.tobytes() == b.residuals.tobytes()


def test_branch_count_matches_staircase():
    tree = TreeSpec("rooted", 6, 2)
    t = 0.5
    zs = enumerate_zeros(tree, t)
    rng = np.random.default_rng(4)
    probes = rng.uniform(-math.pi, math.pi, 400)
    base = branch_count(np.array(-math.pi), tree, t)
    counts = branch_count(probes, tree, t) - base
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
@given(tree=trees(), t=st.floats(0.0, 0.95), seed=st.integers(0, 2**32 - 1))
def test_enumeration_properties(tree, t, seed):
    """Count identity, exact mirror symmetry, and counts equal to the
    staircase of the enumerated zeros, at any t; strict order where float64
    resolves neighbouring zeros."""
    zs = enumerate_zeros(tree, t)
    count = zero_count(tree)
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
    assert_mirror_exact(zs.angles, zero_count(tree))
    assert np.all(np.diff(zs.angles) >= 0)


@pytest.mark.parametrize("level, k, t", [(8, 3, 0.7602548930412794), (15, 2, 0.2), (1, 2, 0.5)])
def test_zero_at_minus_one_is_pi(level, k, t):
    zs = enumerate_zeros(TreeSpec("rooted", level, k), t)
    assert zs.angles[-1] == math.pi
    assert zs.residuals[-1] == 0.0


def test_winding_is_int64_and_guarded():
    _, wind = iterated_lift(np.linspace(-3.0, 3.0, 7), TreeSpec("rooted", 36, 3), 0.5)
    assert wind.dtype == np.int64
    iterated_lift(0.5, TreeSpec("rooted", 61, 2), 0.5)  # 2^62 - 1 vertices
    with pytest.raises(ValueError, match="2\\^62"):
        iterated_lift(0.5, TreeSpec("rooted", 62, 2), 0.5)
    with pytest.raises(ValueError, match="2\\^62"):
        branch_count(0.5, TreeSpec("rooted", 40, 3), 0.5)


def test_enumeration_cap_refuses_before_allocating():
    tree = TreeSpec("rooted", 30, 2)
    assert zero_count(tree) > MAX_ZEROS
    with pytest.raises(ValueError, match="cap"):
        enumerate_zeros(tree, 0.5)
