"""The benchmark's tracer patches library attributes by name; a renamed or
deleted name breaks the traced runs, so install and remove it here."""

import sys
from pathlib import Path

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
