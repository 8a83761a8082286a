"""The benchmark's tracer patches library attributes by name; a renamed or
deleted name breaks the traced runs, so install and remove it here."""

import sys
from pathlib import Path

import numpy as np

from cayley_ising.measure import EmpiricalMeasure
from cayley_ising import zeros
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
    # time: enumeration solves by pullback and makes no lift pass, so every
    # lift point-level comes from the 16 counted angles
    tree = TreeSpec("rooted", 6, 2)
    tracer = Tracer()
    tracer.install()
    try:
        zeros.enumerate_zeros(tree, 0.5)
        EmpiricalMeasure(tree, 0.5).counts(np.linspace(-3.0, 3.0, 16))
    finally:
        tracer.remove()
    assert tracer.counts["zeros.zeros_requested"] == tree.vertex_count
    assert tracer.counts["zeros.lift_point_levels"] == 16 * tree.level
