"""The benchmark's tracer patches library attributes by name; a renamed or
deleted name breaks the traced runs, so install and remove it here."""

import sys
from pathlib import Path

import numpy as np

from cayley_ising.measure import EmpiricalMeasure
from cayley_ising import spectra, zeros
from cayley_ising.zeros import TreeSpec

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import Tracer  # noqa: E402


def test_tracer_installs_and_restores_every_hook():
    tracer = Tracer()
    tracer.install()
    try:
        patched = list(tracer._undo)
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.remove()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_traced_enumeration_and_counts_reach_the_lift():
    # the per-layer metrics are read off the wrapped names, looked up at call
    # time: enumeration lifts a grid of |V|//2 + 1 nodes for its Newton
    # starts, and the 16 counted angles add the rest
    tree = TreeSpec("rooted", 6, 2)
    tracer = Tracer()
    tracer.install()
    try:
        zeros.enumerate_zeros(tree, 0.5)
        EmpiricalMeasure(tree, 0.5).counts(np.linspace(-3.0, 3.0, 16))
    finally:
        tracer.remove()
    assert tracer.counts["zeros.zeros_requested"] == tree.vertex_count
    grid_nodes = tree.vertex_count // 2 + 1
    assert tracer.counts["zeros.lift_point_levels"] == (grid_nodes + 16) * tree.level


def test_traced_birkhoff_and_kappa_curve_keep_their_layer_figures():
    # spectra.birkhoff_ns_per_chain_step divides the Birkhoff span by this
    # chain-step count, and spectra.kappa_curve_s reads the kappa_curve span
    tracer = Tracer()
    tracer.install()
    try:
        spectra.birkhoff_exponents([0.5, 1.0, -2.0], [0.2, 0.1, 0.3], 2, n_steps=20, burn_in=3, n_seeds=4)
        spectra.kappa_curve(0.5, 2, [0.0, 1.0, 2.5])
    finally:
        tracer.remove()
    assert tracer.counts["spectra.chain_steps"] == 3 * 4 * (3 + 20)
    names = [span[0] for span in tracer.spans]
    assert "spectra.birkhoff" in names and "spectra.kappa_curve" in names
    metrics = tracer.metrics(1.0, 1.0)
    assert metrics["spectra.kappa_curve_s"] > 0.0
    assert metrics["spectra.birkhoff_ns_per_chain_step"] > 0.0


def test_traced_kappa_curve_counts_its_one_batched_solve():
    # the curve's disk fixed points come from one core.fixed_points call,
    # looked up as spectra.fixed_points, so core.fixed_points_calls sees it
    tracer = Tracer()
    tracer.install()
    try:
        spectra.kappa_curve(0.5, 2, [0.0, 1.0, 2.5, -2.0])
    finally:
        tracer.remove()
    assert tracer.counts["core.fixed_points_calls"] == 1
    assert [span[0] for span in tracer.spans].count("core.fixed_points") == 1
    assert tracer.metrics(1.0, 1.0)["core.fixed_points_calls"] == 1
