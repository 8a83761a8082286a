"""Batch command-line front end.

Subcommands map one-to-one onto the library modules and write CSV/JSON
artifacts.  All validation happens before any computation; identical
arguments and seed produce byte-identical output files.  Exit codes:
0 success, 1 invalid configuration, 2 computation failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, core, free_energy, measure, spectra, verify, zeros


# _parse_grid and measure --grid/--bins refuse grids longer than this
# before allocating them
MAX_GRID_POINTS = 1 << 20


def _parse_t(text: str) -> float:
    """Temperature variable as a float; 'p/q' input is rounded once to the nearest double."""
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"t has a zero denominator: {text}") from exc
    except OverflowError as exc:
        raise ValueError(f"t must lie in [0, 1), got {text}") from exc
    if not (0 <= value < 1):
        raise ValueError(f"t must lie in [0, 1), got {text}")
    return value


def _parse_grid(text: str) -> np.ndarray:
    """start:stop:step inclusive grid of finite parts."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"grid must be start:stop:step, got {text!r}") from exc
    for part, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"grid {text!r} has a non-finite {part}: {value}")
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid {text!r}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    count = int(math.floor(span)) + 1
    return start + step * np.arange(count)


def _check_out(path: str) -> None:
    """Refuse an output path that cannot be written: empty, or in a missing directory."""
    if not path:
        raise ValueError("--out must not be empty")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ValueError(f"output directory {parent} does not exist")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-ising",
        description="Lee-Yang zeros, spectra and free energy for Ising models on Cayley trees",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pz = sub.add_parser("zeros", help="enumerate Lee-Yang zeros of a finite tree")
    pz.add_argument("--k", type=int, required=True)
    pz.add_argument("--n", type=int, required=True)
    pz.add_argument("--t", type=str, required=True)
    pz.add_argument("--tree", choices=("rooted", "full"), default="rooted")
    pz.add_argument("--tol", type=float, default=1e-10)
    pz.add_argument("--workers", type=int, default=os.cpu_count())
    pz.add_argument("--out", type=str, required=True)
    pz.add_argument("--format", choices=("csv", "json"), default="csv")

    pm = sub.add_parser("measure", help="empirical CDF / histogram of the zero measure")
    pm.add_argument("--k", type=int, required=True)
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--t", type=str, required=True)
    pm.add_argument("--tree", choices=("rooted", "full"), default="rooted")
    pm.add_argument("--kind", choices=("cdf", "hist"), default="cdf")
    pm.add_argument("--grid", type=int, default=2048, help="CDF sample points")
    pm.add_argument("--bins", type=int, default=360, help="histogram bins")
    pm.add_argument("--out", type=str, required=True)

    pe = sub.add_parser("phi-e", help="gap-edge curve over a temperature grid")
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--t-grid", type=str, required=True, help="start:stop:step")
    pe.add_argument("--out", type=str, required=True)

    ps = sub.add_parser("spectra", help="Lyapunov exponents / dimension report")
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--t", type=str, required=True)
    group = ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--phi", type=float)
    group.add_argument("--phi-grid", type=str, help="start:stop:step -> kappa curve CSV")
    ps.add_argument("--mme-depth", type=int, default=16)
    ps.add_argument("--dim-level", type=int, default=20)
    ps.add_argument("--birkhoff-steps", type=int, default=1_000_000)
    ps.add_argument("--seeds", type=int, default=32)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", type=str, required=True)

    pf = sub.add_parser("free-energy", help="radial free-energy scans and kappa fits")
    pf.add_argument("--k", type=int, required=True)
    pf.add_argument("--t", type=str, required=True)
    pf.add_argument("--n", type=int, default=16)
    pf.add_argument("--phi", type=float, default=0.0)
    pf.add_argument("--mode", choices=("radial", "singular", "report"), default="radial")
    pf.add_argument("--r-grid", type=str, default="0.5:2.0:0.01")
    pf.add_argument("--radius", type=float, default=2.0, help="|z| for --mode report")
    pf.add_argument("--delta0", type=float, default=0.5)
    pf.add_argument("--kappa-prior", type=float, default=None)
    pf.add_argument("--out", type=str, required=True)

    pv = sub.add_parser("verify", help="run the oracle/property suite")
    pv.add_argument("--quick", action="store_true")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", type=str, default=None)

    return parser


def _cmd_zeros(args) -> int:
    t = _parse_t(args.t)
    tree = zeros.TreeSpec(args.tree, args.n, args.k)
    zs = zeros.enumerate_zeros(tree, t, tol=args.tol, workers=args.workers)
    if args.format == "csv":
        zs.write_csv(args.out)
    else:
        doc = {
            "schema_version": 1,
            "variant": tree.variant,
            "level": tree.level,
            "k": tree.k,
            "t": str(args.t),
            "angles": [float(a) for a in zs.angles],
            "residuals": [float(r) for r in zs.residuals],
        }
        core.write_json(args.out, doc)
    print(f"wrote {len(zs)} zeros to {args.out}")
    return 0


def _cmd_measure(args) -> int:
    flag, points = ("grid", args.grid) if args.kind == "cdf" else ("bins", args.bins)
    if points > MAX_GRID_POINTS:
        raise ValueError(f"--{flag} {points} asks for more than {MAX_GRID_POINTS} points")
    t = _parse_t(args.t)
    em = measure.EmpiricalMeasure(zeros.TreeSpec(args.tree, args.n, args.k), t)
    if args.kind == "cdf":
        measure.write_cdf_csv(args.out, em, grid=args.grid)
    else:
        measure.write_histogram_csv(args.out, em, bins=args.bins)
    print(f"wrote {args.kind} for N={em.total} zeros to {args.out}")
    return 0


def _cmd_phi_e(args) -> int:
    grid = _parse_grid(args.t_grid)
    tc = core.critical_temperature(args.k)
    outside = grid[(grid < tc) | (grid > 1.0)]
    if outside.size:
        raise ValueError(f"phi-e needs t in [t_c, 1] = [{tc}, 1], got {outside[0]}")
    core.write_csv(args.out, ("t", "phi_e"), ((t, core.phi_e(float(t), args.k)) for t in grid))
    print(f"wrote {len(grid)} curve points to {args.out}")
    return 0


def _cmd_spectra(args) -> int:
    t = _parse_t(args.t)
    if args.phi_grid is not None:
        phis = _parse_grid(args.phi_grid)
        points = spectra.kappa_curve(t, args.k, phis)
        spectra.write_kappa_csv(args.out, points)
        print(f"wrote kappa curve ({len(points)} points) to {args.out}")
        return 0
    p = core.ModelParams(args.k, t, args.phi)
    report = spectra.spectral_report(
        p,
        mme_depth=args.mme_depth,
        dim_level=args.dim_level,
        birkhoff_steps=args.birkhoff_steps,
        n_seeds=args.seeds,
        seed=args.seed,
    )
    core.write_json(args.out, report.to_dict())
    print(f"wrote spectral report to {args.out}")
    return 0


def _cmd_free_energy(args) -> int:
    t = _parse_t(args.t)
    # k, t and phi in (-pi, pi] are checked as for spectra --phi, before any mode runs
    core.ModelParams(args.k, t, args.phi)
    if args.mode == "radial":
        radii = _parse_grid(args.r_grid)
        radii = radii[np.abs(radii - 1.0) > 1e-6]
        rows = free_energy.radial_scan(args.phi, t, args.k, args.n, radii)
        free_energy.write_radial_csv(args.out, rows)
        print(f"wrote radial scan ({len(rows)} points) to {args.out}")
        return 0
    if args.mode == "report":
        if not args.radius > 0:
            raise ValueError(f"--radius must be positive, got {args.radius}")
        z = args.radius * complex(math.cos(args.phi), math.sin(args.phi))
        rep = free_energy.free_energy_report(z, t, args.k, args.n)
        core.write_json(args.out, rep.to_dict())
        print(f"wrote free-energy report to {args.out}")
        return 0
    fit = free_energy.singular_exponent(
        args.phi, t, args.k, n=args.n, delta0=args.delta0, kappa_prior=args.kappa_prior
    )
    free_energy.write_singular_csv(args.out, fit)
    print(
        f"kappa = {fit.kappa:.6f} (m = {fit.m_order}, R^2 = {fit.r_squared:.5f}, "
        f"stable = {fit.stable}); wrote fit to {args.out}"
    )
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_verification(seed=args.seed, quick=args.quick)
    text = core.json_text(report)
    if args.out is not None:
        core.write_json(args.out, report)
    digest = hashlib.sha256(text.encode()).hexdigest()
    for name, entry in report["checks"].items():
        print(f"{'PASS' if entry['passed'] else 'FAIL'} {name}")
    print(f"report sha256: {digest}")
    if not report["all_passed"]:
        print("verification FAILED")
        return 3
    print("verification passed")
    return 0


_COMMANDS = {
    "zeros": _cmd_zeros,
    "measure": _cmd_measure,
    "phi-e": _cmd_phi_e,
    "spectra": _cmd_spectra,
    "free-energy": _cmd_free_energy,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; the contract says 1 for bad config
        return 0 if exc.code == 0 else 1
    try:
        if args.out is not None:
            _check_out(args.out)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
