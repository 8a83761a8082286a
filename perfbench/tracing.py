"""Spans and counters around the library's public functions.

The wrappers are installed from here on the module and class attributes
that callers look up at call time (zeros.iterated_lift, free_energy.
enumerate_zeros, spectra.fixed_points, ...), so the library itself is not
changed.  Spans (name, start, end, parent) are kept in memory and written
out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter

from cayley_ising import cli, core, free_energy, measure, partition, spectra, zeros

try:  # the root oracle's sign fallback; absent once the oracle no longer needs it
    import mpmath
except ImportError:
    mpmath = None

# metric name -> unit; every traced run reports all of them, and a layer
# that a workload does not reach reads 0
PER_LAYER = {
    "zeros.enumerate_s": "s",
    "zeros.enumerate_us_per_zero": "us",
    "zeros.lift_passes": "count",
    "zeros.lift_point_levels": "count",
    "zeros.lift_ns_per_point_level": "ns",
    "partition.recursion_s": "s",
    "partition.bruteforce_s": "s",
    "partition.roots_s": "s",
    "partition.roots_ms_per_root": "ms",
    "partition.mp_precision_attempts": "count",
    "measure.counts_s": "s",
    "measure.query_point_levels": "count",
    "measure.ns_per_query_point_level": "ns",
    "spectra.birkhoff_s": "s",
    "spectra.birkhoff_ns_per_chain_step": "ns",
    "spectra.mme_s": "s",
    "spectra.mme_ns_per_leaf": "ns",
    "spectra.kappa_curve_s": "s",
    "core.fixed_points_calls": "count",
    "core.fixed_points_s": "s",
    "spectra.pointwise_dimension_s": "s",
    "free_energy.electrostatic_s": "s",
    "free_energy.singular_exponent_s": "s",
    "free_energy.recursive_s": "s",
    "free_energy.enumerations": "count",
    "cli.zeros_s": "s",
    "cli.measure_s": "s",
    "cli.free-energy_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "count",
    "trace.overhead_s": "s",
}

# span name -> per-layer time metric
_TIME_METRICS = {
    "zeros.enumerate": "zeros.enumerate_s",
    "partition.recursion": "partition.recursion_s",
    "partition.bruteforce": "partition.bruteforce_s",
    "partition.roots": "partition.roots_s",
    "measure.counts": "measure.counts_s",
    "spectra.birkhoff": "spectra.birkhoff_s",
    "spectra.mme": "spectra.mme_s",
    "spectra.kappa_curve": "spectra.kappa_curve_s",
    "core.fixed_points": "core.fixed_points_s",
    "spectra.pointwise_dimension": "spectra.pointwise_dimension_s",
    "free_energy.electrostatic": "free_energy.electrostatic_s",
    "free_energy.singular_exponent": "free_energy.singular_exponent_s",
    "free_energy.recursive": "free_energy.recursive_s",
    "cli.zeros": "cli.zeros_s",
    "cli.measure": "cli.measure_s",
    "cli.free-energy": "cli.free-energy_s",
    "cli.write": "cli.write_s",
}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, name, count=None):
        """Span every call of fn; count(args, result) returns (counter, n) pairs."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            rec = [span_name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if count is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, n in count(bound.arguments, result):
                        self.counts[key] += n
                        rec[4] = {**(rec[4] or {}), key: n}

        return wrapper

    def _patch(self, owner, attr, wrapper_of):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def install(self):
        def enumerate_count(a, _):
            return [("zeros.zeros_requested", a["tree"].vertex_count)]

        def lift_count(a, _):
            return [("zeros.lift_passes", 1), ("zeros.lift_point_levels", _size(a["phi"]) * a["tree"].level)]

        def roots_count(a, _):
            return [("partition.roots", a["p"].degree)]

        def counts_count(a, _):
            return [("measure.query_point_levels", _size(a["phi"]) * a["self"].tree.level)]

        def birkhoff_count(a, _):
            params = _size(a["phis"]) if hasattr(a["phis"], "size") else len(a["phis"])
            return [("spectra.chain_steps", params * a["n_seeds"] * (a["burn_in"] + a["n_steps"]))]

        def mme_count(a, _):
            return [("spectra.mme_leaves", a["p"].k ** a["depth"])]

        def fixed_points_count(a, _):
            return [("core.fixed_points_calls", 1)]

        def fe_enumerate_count(a, _):
            return [("free_energy.enumerations", 1)] + enumerate_count(a, _)

        def write_count(a, _):
            path = a["path"]
            return [("cli.bytes_written", os.path.getsize(path) if os.path.exists(path) else 0)]

        spans = [
            (zeros, "enumerate_zeros", "zeros.enumerate", enumerate_count),
            (measure, "enumerate_zeros", "zeros.enumerate", enumerate_count),
            (free_energy, "enumerate_zeros", "zeros.enumerate", fe_enumerate_count),
            (zeros, "iterated_lift", "zeros.lift", lift_count),
            (partition, "partition_poly_recursive", "partition.recursion", None),
            (partition, "partition_poly_bruteforce", "partition.bruteforce", None),
            (partition, "poly_roots_on_circle", "partition.roots", roots_count),
            (measure.EmpiricalMeasure, "counts", "measure.counts", counts_count),
            (spectra, "birkhoff_exponents", "spectra.birkhoff", birkhoff_count),
            (spectra, "lyapunov_mme", "spectra.mme", mme_count),
            (spectra, "kappa_curve", "spectra.kappa_curve", None),
            (spectra, "fixed_points", "core.fixed_points", fixed_points_count),
            (core, "fixed_points", "core.fixed_points", fixed_points_count),
            (spectra, "pointwise_dimension", "spectra.pointwise_dimension", None),
            (free_energy, "pointwise_dimension", "spectra.pointwise_dimension", None),
            (free_energy, "free_energy_electrostatic", "free_energy.electrostatic", None),
            (free_energy, "singular_exponent", "free_energy.singular_exponent", None),
            (free_energy, "free_energy_recursive", "free_energy.recursive", None),
            (cli, "main", lambda args: f"cli.{args[0][0]}", None),
            (zeros.ZeroSet, "write_csv", "cli.write", write_count),
            (measure, "write_cdf_csv", "cli.write", write_count),
            (measure, "write_histogram_csv", "cli.write", write_count),
            (free_energy, "write_radial_csv", "cli.write", write_count),
            (free_energy, "write_singular_csv", "cli.write", write_count),
            (spectra, "write_kappa_csv", "cli.write", write_count),
            (partition, "write_roots_csv", "cli.write", write_count),
        ]
        for owner, attr, name, count in spans:
            self._patch(owner, attr, lambda fn, n=name, c=count: self._wrap(fn, n, c))
        if mpmath is not None:
            self._patch(mpmath, "workdps", self._counter("partition.mp_precision_attempts"))

    def _counter(self, key):
        def wrapper_of(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return wrapper_of

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def clear(self):
        self.spans.clear()
        self.counts.clear()

    # -- summaries ------------------------------------------------------

    def layer_times(self):
        """(inclusive, self) seconds per span name.

        Inclusive time counts only the outermost span of a name, so a layer
        that calls itself is not counted twice; self time subtracts the
        direct child spans.
        """
        inclusive, own = Counter(), Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own[name] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        return inclusive, own

    def metrics(self, pass_wall: float, untraced_wall: float) -> dict:
        inclusive, _ = self.layer_times()
        c = self.counts
        out = {metric: inclusive.get(span, 0.0) for span, metric in _TIME_METRICS.items()}

        def ratio(num, den, scale):
            return num * scale / den if den else 0.0

        lift_time = inclusive.get("zeros.lift", 0.0)
        out.update({
            "zeros.enumerate_us_per_zero": ratio(out["zeros.enumerate_s"], c["zeros.zeros_requested"], 1e6),
            "zeros.lift_passes": c["zeros.lift_passes"],
            "zeros.lift_point_levels": c["zeros.lift_point_levels"],
            "zeros.lift_ns_per_point_level": ratio(lift_time, c["zeros.lift_point_levels"], 1e9),
            "partition.roots_ms_per_root": ratio(out["partition.roots_s"], c["partition.roots"], 1e3),
            "partition.mp_precision_attempts": c["partition.mp_precision_attempts"],
            "measure.query_point_levels": c["measure.query_point_levels"],
            "measure.ns_per_query_point_level": ratio(out["measure.counts_s"], c["measure.query_point_levels"], 1e9),
            "spectra.birkhoff_ns_per_chain_step": ratio(out["spectra.birkhoff_s"], c["spectra.chain_steps"], 1e9),
            "spectra.mme_ns_per_leaf": ratio(out["spectra.mme_s"], c["spectra.mme_leaves"], 1e9),
            "core.fixed_points_calls": c["core.fixed_points_calls"],
            "free_energy.enumerations": c["free_energy.enumerations"],
            "cli.bytes_written": c["cli.bytes_written"],
            "trace.overhead_s": pass_wall - untraced_wall,
        })
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans and per-layer inclusive/self times as JSON."""
        inclusive, own = self.layer_times()
        doc = {
            **meta,
            "layers": {n: {"inclusive_s": inclusive[n], "self_s": own[n]} for n in sorted(own)},
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, **({"attrs": a} if a else {})}
                for n, s, e, p, a in self.spans
            ],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=0, allow_nan=False, default=float)

