"""Benchmark runner for the cayley_ising library.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --repeat 10 --seconds 20

A run imports the library from ../src, times set-up in fresh interpreters,
then repeats whole passes over the workload's operations on one thread for
about --seconds seconds, checks every output, and prints one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
With --repeat N it runs N seeds of each workload in child processes and
prints each metric's median and quartiles instead.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAMES = ("enumerate", "oracle", "spectra", "measure")
SETUP_PROBES = 7

# one compute thread: BLAS/OpenMP pools must be sized before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def _import_library():
    """Import cayley_ising from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "cayley_ising", "__init__.py")):
        sys.exit(f"perfbench: no library at {SRC}/cayley_ising; run from a full checkout")
    sys.path.insert(0, SRC)
    import cayley_ising

    if os.path.dirname(os.path.dirname(os.path.abspath(cayley_ising.__file__))) != SRC:
        sys.exit(f"perfbench: cayley_ising imported from {cayley_ising.__file__}, not {SRC}")


def _setup_probe(name: str) -> None:
    """Child process: time the library import plus one tiny call of each kind."""
    start = time.perf_counter()
    _import_library()
    import workloads

    out_dir = os.path.join(OUT, name)
    os.makedirs(out_dir, exist_ok=True)
    workloads.WORKLOADS[name].warm_up(out_dir)
    print(time.perf_counter() - start)


def _child(args: list, timeout: float) -> str:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench: child {' '.join(args)} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def _setup_seconds(name: str) -> float:
    return statistics.median(float(_child(["--setup-probe", name], 120)) for _ in range(SETUP_PROBES))


class Pass:
    """Wall and CPU seconds, peak RSS so far and the failure count of one pass."""

    def __init__(self, wall: float, cpu: float, peak_mb: float, failed: int):
        self.wall, self.cpu, self.peak_mb, self.failed = wall, cpu, peak_mb, failed


class _Raised:
    def __init__(self, message: str):
        self.message = message


def _judge(op, out) -> str | None:
    """None if the output passes its check, "failed" for a known fault,
    otherwise the reason the output is wrong."""
    try:
        op.check(out)
        return None
    except Exception as exc:  # noqa: BLE001 - any error in checking is a wrong output
        if op.known_fault:
            return "failed"
        sys.stderr.write(f"perfbench: check failed: {op.name}: {exc!r}\n")
        return f"{op.name}: {exc!r}"


def _run_pass(workload, ops, verdicts, fingerprints) -> Pass:
    """Run every operation once, then judge the outputs.

    An operation that raises has failed.  An output is checked when it
    differs from the last checked output of the same operation; otherwise
    it keeps that verdict (outputs are deterministic, so in practice only
    the first pass is checked).
    """
    workload.reset()
    outputs = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        try:
            outputs.append(op.run())
        except Exception as exc:  # noqa: BLE001 - an operation that raises has failed
            # keep the message only: the traceback would hold the failed
            # call's arrays alive and let peak RSS grow with the pass count
            outputs.append(_Raised(repr(exc)))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = 0
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, _Raised):
            if not op.known_fault and fingerprints[i] != "raised":
                sys.stderr.write(f"perfbench: {op.name} raised {out.message}\n")
            fingerprints[i], verdicts[i] = "raised", "failed"
        else:
            key = pickle.dumps(out, protocol=4)
            if fingerprints[i] != key:
                fingerprints[i], verdicts[i] = key, _judge(op, out)
        failed += verdicts[i] == "failed"
    return Pass(wall, cpu, peak_mb, failed)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = _setup_seconds(name)
    _import_library()
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[name]
    out_dir = os.path.join(OUT, name)
    os.makedirs(out_dir, exist_ok=True)
    workload.warm_up(out_dir)
    ops = workload.build(np.random.default_rng([seed, NAMES.index(name)]), out_dir)
    verdicts = [None] * len(ops)
    fingerprints = [None] * len(ops)

    # whole passes until the next one would end past the deadline; with
    # tracing, the first half of the time is untraced, the second traced
    passes, traced, layer = [], [], []
    tracer = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = passes + traced
        typical = statistics.median(p.wall for p in done) if done else 0.0
        if trace and tracer is None and passes and elapsed + typical > seconds / 2:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        if done and elapsed + typical > seconds and (traced or not trace):
            break
        if tracer is not None:
            tracer.clear()
        p = _run_pass(workload, ops, verdicts, fingerprints)
        if tracer is None:
            passes.append(p)
        else:
            traced.append(p)
            layer.append(tracer.metrics(p.wall, statistics.median(q.wall for q in passes)))
    if tracer is not None:
        tracer.remove()
        tracer.dump(os.path.join(OUT, f"spans-{name}-{seed}.json"),
                    {"workload": name, "seed": seed, "pass_wall_s": traced[-1].wall})

    all_passes = passes + traced
    sys.stderr.write(f"perfbench: {name} seed {seed}: pass wall s untraced "
                     f"{[round(p.wall, 3) for p in passes]} traced {[round(p.wall, 3) for p in traced]}\n")
    bad = [v for v in verdicts if v not in (None, "failed")]
    report = {
        "correct": not bad,
        "attempted": len(ops) * len(all_passes),
        "failed": sum(p.failed for p in all_passes),
    }
    if trace:
        import tracing

        metrics = {m: {"value": statistics.median(d[m] for d in layer), "unit": unit}
                   for m, unit in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(p.wall for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p.cpu for p in passes), "unit": "s"},
            # after set-up and the first pass, before any check: later passes
            # only add allocator fragmentation, which grows with their number
            "peak_rss_mb": {"value": passes[0].peak_mb, "unit": "MB"},
        }
    report["metrics"] = metrics
    return report


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def repeat(names, count: int, first_seed: int, seconds: int, trace: int) -> None:
    """Run count seeds of each workload in child processes; print spreads."""
    for name in names:
        results = []
        for seed in range(first_seed, first_seed + count):
            line = _child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], 600)
            results.append(json.loads(line))
            print(f"{name} seed {seed}: {line}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: correct {all(r['correct'] for r in results)}, "
              f"failed shares {sorted(shares)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {metric:38s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {100 * spread:.2f}%", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=False)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds, from --seed on, and print median and quartiles")
    parser.add_argument("--setup-probe", choices=NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.repeat:
        names = NAMES if args.workload == "all" else (args.workload,)
        repeat(names, args.repeat, args.seed, args.seconds, args.trace)
        return 0
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
