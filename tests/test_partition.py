import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cayley_ising.core import ResolutionError
from cayley_ising.partition import (
    PartitionPolynomial,
    partition_poly_bruteforce,
    partition_poly_recursive,
    poly_roots_on_circle,
)
from cayley_ising.zeros import TreeSpec, enumerate_zeros


def test_recursive_known_coefficients():
    p = partition_poly_recursive(TreeSpec("rooted", 1, 2), Fraction(1, 2))
    assert p.coeffs == (Fraction(1), Fraction(5, 4), Fraction(5, 4), Fraction(1))
    p0 = partition_poly_recursive(TreeSpec("rooted", 0, 2), Fraction(1, 3))
    assert p0.coeffs == (Fraction(1), Fraction(1))
    # t = 0 admits only the two aligned configurations: 1 + z^|V|
    for tree in (TreeSpec("rooted", 4, 3), TreeSpec("full", 3, 2)):
        n_v = tree.vertex_count
        assert partition_poly_recursive(tree, 0).coeffs == (1,) + (0,) * (n_v - 1) + (1,)


def test_t_equals_one_is_binomial():
    p = partition_poly_recursive(TreeSpec("rooted", 2, 2), 1)
    assert p.coeffs == tuple(Fraction(math.comb(7, j)) for j in range(8))


def test_recursive_equals_bruteforce_exactly():
    cases = [
        (TreeSpec("rooted", 2, 2), Fraction(1, 5)),
        (TreeSpec("rooted", 1, 3), Fraction(2, 7)),
        (TreeSpec("full", 1, 2), Fraction(1, 3)),
        (TreeSpec("full", 2, 2), Fraction(1, 5)),
        (TreeSpec("rooted", 1, 4), Fraction(9, 10)),
        # float 0.1 is the dyadic 3602879701896397 / 2^55
        (TreeSpec("rooted", 2, 3), 0.1),
    ]
    for tree, t in cases:
        rec = partition_poly_recursive(tree, t)
        bf = partition_poly_bruteforce(tree, t)
        assert rec.coeffs == bf.coeffs
        assert rec.degree == tree.vertex_count


def test_palindrome_and_positivity():
    for tree, t in (
        (TreeSpec("rooted", 3, 2), Fraction(1, 7)),
        (TreeSpec("full", 2, 3), Fraction(1, 7)),
        (TreeSpec("rooted", 8, 2), Fraction(213, 1000)),  # degree 511
    ):
        p = partition_poly_recursive(tree, t)
        assert p.degree == tree.vertex_count
        assert p.coeffs == p.coeffs[::-1]
        assert all(c > 0 for c in p.coeffs)
        assert p.coeffs[0] == 1 and p.coeffs[-1] == 1


def test_gibbs_sum_at_z_one():
    # P(1) = sum over configurations of t^{unsatisfied edges}
    tree = TreeSpec("rooted", 1, 2)
    t = Fraction(1, 3)
    p = partition_poly_recursive(tree, t)
    direct = Fraction(0)
    for sigma in range(2**3):
        spins = [1 if sigma >> v & 1 else -1 for v in range(3)]
        unsat = sum(1 for a, b in tree.edges() if spins[a] != spins[b])
        direct += t**unsat
    assert sum(p.coeffs) == direct
    assert direct > 0


def test_float_path_matches_exact():
    # every double is a dyadic rational, so float t is converted exactly
    tree = TreeSpec("rooted", 2, 2)
    for route in (partition_poly_recursive, partition_poly_bruteforce):
        exact = route(tree, Fraction(1, 2))
        from_float = route(tree, 0.5)
        assert from_float.t == Fraction(1, 2)
        assert from_float.coeffs == exact.coeffs
        assert all(type(c) is Fraction for c in from_float.coeffs)


def test_t_outside_unit_interval_rejected():
    tree = TreeSpec("rooted", 1, 2)
    for t in (Fraction(-1, 5), Fraction(6, 5), -0.1, 1.5, 2, float("inf"), float("-inf"), float("nan")):
        for route in (partition_poly_recursive, partition_poly_bruteforce):
            with pytest.raises(ValueError):
                route(tree, t)


def test_bruteforce_memory_is_bounded():
    # |V| = 22, the guard's largest tree: 2^22 configurations in 64 chunks;
    # one full-length int64 array of them alone would take 32 MB
    tree = TreeSpec("rooted", 1, 21)
    tracemalloc.start()
    try:
        bf = partition_poly_bruteforce(tree, Fraction(1, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert bf.coeffs == partition_poly_recursive(tree, Fraction(1, 5)).coeffs


def test_size_guards():
    with pytest.raises(ValueError):
        partition_poly_bruteforce(TreeSpec("rooted", 4, 2), Fraction(1, 5))  # 31 vertices
    with pytest.raises(ValueError):
        partition_poly_bruteforce(TreeSpec("rooted", 1, 22), Fraction(1, 5))  # 23: first refused
    with pytest.raises(ValueError):
        partition_poly_recursive(TreeSpec("rooted", 14, 2), Fraction(1, 5))


def test_roots_match_dynamics_enumeration():
    for tree, tf in (
        (TreeSpec("rooted", 2, 2), Fraction(1, 2)),
        (TreeSpec("full", 2, 2), Fraction(1, 5)),
        (TreeSpec("rooted", 1, 3), Fraction(1, 2)),
    ):
        poly = partition_poly_recursive(tree, tf)
        pairs = poly_roots_on_circle(poly)
        assert len(pairs) == tree.vertex_count
        zs = enumerate_zeros(tree, float(tf))
        assert np.allclose([a for a, _ in pairs], zs.angles, atol=1e-10)
        coeffs = np.array([float(c) for c in poly.coeffs])
        for a, w in pairs:
            # a-posteriori backward error, independent of the exact certificate
            assert abs(np.polyval(coeffs[::-1], np.exp(1j * a))) / coeffs.sum() <= 1e-12
            assert w <= math.ulp(abs(a) + w)


def test_roots_known_factorization():
    # 1 + 1.25 z + 1.25 z^2 + z^3 = (z+1)(z^2 + z/4 + 1)
    poly = partition_poly_recursive(TreeSpec("rooted", 1, 2), Fraction(1, 2))
    pairs = poly_roots_on_circle(poly)
    expected = [-math.acos(-0.125), math.acos(-0.125), math.pi]
    assert np.allclose([a for a, _ in pairs], expected, atol=1e-14)
    assert pairs[-1] == (math.pi, 0.0)  # z = -1 is a root exactly


def test_roots_huge_coefficients():
    # 2^1100 (z^2 + z + 1) overflows a double; the certificate never converts
    # a coefficient to float (rooted k = 2 level 10 at t = 1/2 reaches 2^1191)
    c = Fraction(2**1100)
    poly = PartitionPolynomial(TreeSpec("rooted", 1, 2), Fraction(1, 2), (c, c, c))
    assert poly_roots_on_circle(poly) == [(-2 * math.pi / 3, 0.0), (2 * math.pi / 3, 0.0)]


@pytest.mark.parametrize("coeffs", [(1, 1, 5), (5, 1, 1), (1, 3, 3, 2)])
def test_roots_refuse_non_palindrome(coeffs):
    # the exact root count proves the roots on the circle only for a palindrome:
    # (1, 1, 5) has roots of modulus 0.447, once returned as certified at +-1.671
    poly = PartitionPolynomial(TreeSpec("rooted", 1, 2), Fraction(1, 2), tuple(map(Fraction, coeffs)))
    with pytest.raises(ValueError, match="palindromic"):
        poly_roots_on_circle(poly)


@pytest.mark.parametrize(
    "coeffs, upper",
    [
        # (z^2 + 1)(z^2 + z + 1): Q = 4x^2 + 2x has roots cos(theta) = 0, the
        # first bisection midpoint, and -1/2
        ((1, 1, 2, 1, 1), [math.pi / 2, 2 * math.pi / 3]),
        # (z^2 + 1)(z^4 + z^3 + z^2 + z + 1): the interval right of the
        # midpoint root starts on that root
        ((1, 1, 2, 2, 2, 1, 1), [2 * math.pi / 5, math.pi / 2, 4 * math.pi / 5]),
    ],
)
def test_roots_at_dyadic_points(coeffs, upper):
    poly = PartitionPolynomial(TreeSpec("rooted", 1, 2), Fraction(1, 2), tuple(map(Fraction, coeffs)))
    pairs = poly_roots_on_circle(poly)
    expected = [-a for a in upper[::-1]] + upper
    assert np.allclose([a for a, _ in pairs], expected, rtol=0, atol=1e-15)
    # cos(theta) = 0 and -1/2 are dyadic: the isolation hits them exactly
    for a, w in pairs:
        if min(abs(abs(a) - math.pi / 2), abs(abs(a) - 2 * math.pi / 3)) <= 1e-15:
            assert w == 0.0
        else:
            assert w <= math.ulp(abs(a) + w)


def test_roots_on_circle_exactly():
    poly = partition_poly_recursive(TreeSpec("rooted", 3, 2), Fraction(1, 5))
    coeffs = np.array([float(c) for c in poly.coeffs])
    for angle, _ in poly_roots_on_circle(poly):
        assert abs(abs(np.exp(1j * angle)) - 1.0) <= 1e-9
        # a-posteriori backward error, independent of the exact certificate
        assert abs(np.polyval(coeffs[::-1], np.exp(1j * angle))) / coeffs.sum() <= 1e-12


@pytest.mark.parametrize(
    "tree, t",
    [(TreeSpec("rooted", 6, 2), Fraction(9, 10)), (TreeSpec("rooted", 7, 2), Fraction(213, 1000))],
)
def test_roots_match_dynamics_at_degree_127_and_255(tree, t):
    pairs = poly_roots_on_circle(partition_poly_recursive(tree, t))
    angles = np.array([a for a, _ in pairs])
    assert len(angles) == tree.vertex_count
    assert np.all(np.diff(angles) > 0)
    # each half-width is at most one ulp of its bracket's upper end |angle| + width
    assert all(w <= math.ulp(abs(a) + w) for a, w in pairs)
    zs = enumerate_zeros(tree, float(t))
    assert np.max(np.abs(angles - zs.angles)) <= 1e-8


@pytest.mark.parametrize(
    "coeffs",
    [
        (9, 12, 22, 12, 9),  # Q = 4(3x + 1)^2: double root at x = -1/3
        (1, 2, 3, 2, 1),  # Q = (2x + 1)^2: double root at the dyadic x = -1/2
        (1, 2, 1),  # (z + 1)^2: Q = 2(x + 1), root at x = -1
        (1, 3, 1),  # roots off the circle
    ],
)
def test_roots_degenerate_inputs_raise(coeffs):
    # no tree's polynomial has a multiple root or a root off the circle
    poly = PartitionPolynomial(TreeSpec("rooted", 1, 2), Fraction(1, 2), tuple(map(Fraction, coeffs)))
    start = time.perf_counter()
    with pytest.raises(ValueError):
        poly_roots_on_circle(poly)
    assert time.perf_counter() - start < 1.0


def test_roots_closer_than_float64_raise_resolution_error():
    poly = partition_poly_recursive(TreeSpec("rooted", 3, 3), Fraction(99999, 100000))
    with pytest.raises(ResolutionError, match="float64"):
        poly_roots_on_circle(poly)


def test_roots_reject_degenerate_t1():
    poly = partition_poly_recursive(TreeSpec("rooted", 2, 2), 1)
    with pytest.raises(ValueError):
        poly_roots_on_circle(poly)

