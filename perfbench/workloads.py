"""The four benchmark workloads: their inputs, operations and checks.

A workload builds, from the seed alone, a list of operations.  One pass runs
every operation once; each operation calls the library and returns its
output, and a separate check compares that output with a reference from
checks.py.  The seed moves temperatures, angles and query points inside
fixed windows; it never changes the sizes of the work, so the time of a
pass does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from cayley_ising import cli, core, free_energy, measure, partition, spectra, zeros

import checks
from checks import require

# the estimators warn when they shrink a fit range; the checks judge the fits
warnings.simplefilter("ignore")

ZERO_TOL = 1e-10  # the tolerance enumerate_zeros is called with


@dataclass
class Op:
    """One call into the library and the check of its output.

    known_fault names a fault of the library that makes this operation fail
    on every run; such an operation is counted as failed, not as incorrect.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: str = ""


@dataclass
class Workload:
    build: Callable[[np.random.Generator, str], list]
    warm_up: Callable[[str], None]
    reset: Callable[[], None] = field(default=lambda: None)


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _cli(args: list, path: str):
    """Run the CLI in-process; the output is the exit code and the artifact."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in args] + ["--out", path])
    with open(path, "rb") as fh:
        return code, fh.read()


def _csv_rows(data: bytes, header: str) -> np.ndarray:
    lines = data.decode().strip().splitlines()
    require(lines[0] == header, f"CSV header {lines[0]!r}, expected {header!r}")
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


# ---------------------------------------------------------------------------
# enumerate: the explicit zero formula, zeros.enumerate_zeros


# (variant, level, k, t window): both sides of t_c = (k-1)/(k+1) for each k
_ENUM_CASES = [
    ("rooted", 13, 2, (0.15, 0.30)),
    ("full", 12, 2, (0.45, 0.70)),
    ("rooted", 8, 3, (0.60, 0.80)),
    ("full", 7, 3, (0.20, 0.40)),
    ("rooted", 6, 4, (0.20, 0.50)),
    ("full", 6, 4, (0.65, 0.80)),
]


def _enum_op(variant, level, k, t) -> Op:
    tree = zeros.TreeSpec(variant, level, k)
    return Op(
        f"enumerate {variant} k={k} n={level} t={t:.4f}",
        lambda: zeros.enumerate_zeros(tree, t, tol=ZERO_TOL, workers=1),
        lambda zs: checks.check_zero_angles(zs.angles, variant, level, k, t, ZERO_TOL),
    )


def _check_zeros_cli(out, level, k, t) -> None:
    code, data = out
    require(code == 0, f"cayley-ising zeros exited {code}")
    rows = _csv_rows(data, "index,angle_radians,residual")
    require(np.array_equal(rows[:, 0], np.arange(len(rows))), "CSV index column is not 0..N-1")
    checks.check_zero_angles(rows[:, 1], "rooted", level, k, t, ZERO_TOL)


def build_enumerate(rng, out_dir):
    ops = [_enum_op(v, n, k, _uniform(rng, *win)) for v, n, k, win in _ENUM_CASES]
    t_cli = _uniform(rng, 0.40, 0.60)
    path = os.path.join(out_dir, "zeros.csv")
    args = ["zeros", "--k", 2, "--n", 12, "--t", repr(t_cli), "--workers", 1, "--tol", ZERO_TOL]
    ops.append(Op(f"cli zeros k=2 n=12 t={t_cli:.4f}", lambda: _cli(args, path),
                  lambda out: _check_zeros_cli(out, 12, 2, t_cli)))
    fault = _enum_op("rooted", 14, 2, 0.9)
    fault.known_fault = (
        "zeros._solve_branches clips Newton steps to [lo-1e-9, hi+1e-9], so a "
        "step can land on a neighbouring branch: 'branch solves exceeded the residual tolerance'"
    )
    ops.append(fault)
    return ops


def warm_enumerate(out_dir):
    zeros.enumerate_zeros(zeros.TreeSpec("rooted", 3, 2), 0.3, workers=1)
    _cli(["zeros", "--k", 2, "--n", 2, "--t", "0.3", "--workers", 1], os.path.join(out_dir, "warm.csv"))


# ---------------------------------------------------------------------------
# oracle: exact partition polynomials and certified circle roots


# (variant, level, k, t in thousandths): degrees 40..63, k = 2 and 3, rooted
# and full, t below and above t_c.  The root finder's cost grows with t, so
# the seed moves t by at most 0.003 and its denominator stays 1000.
_ROOT_CASES = [
    ("rooted", 3, 3, 700),
    ("full", 4, 2, 600),
    ("full", 3, 3, 300),
    ("rooted", 5, 2, 200),
]
# trees of at most 21 vertices, where all 2^|V| spin states can be summed
_BRUTE_CASES = [("rooted", 2, 4), ("full", 2, 3), ("rooted", 3, 2), ("rooted", 2, 3), ("full", 2, 2)]


def _thousandths(rng, base: int) -> Fraction:
    # odd and not a multiple of 5, so the denominator is exactly 1000
    return Fraction(base + int(rng.choice([-3, -1, 1, 3])), 1000)


def _roots_op(variant, level, k, t) -> Op:
    tree = zeros.TreeSpec(variant, level, k)

    def run():
        poly = partition.partition_poly_recursive(tree, t)
        return poly.coeffs, partition.poly_roots_on_circle(poly)

    def check(out):
        coeffs, roots = out
        checks.check_partition_coeffs(coeffs, variant, level, k, t)
        angles = np.array([a for a, _ in roots])
        require(len(angles) == len(coeffs) - 1, f"{len(angles)} roots of a degree-{len(coeffs) - 1} polynomial")
        require(np.all(np.diff(angles) > 0), "root angles not strictly increasing")
        dynamics = zeros.enumerate_zeros(tree, float(t), workers=1).angles
        gap = float(np.max(checks.circular_distance(angles, dynamics)))
        require(gap <= 1e-8, f"oracle roots differ from enumerate_zeros by {gap:.3g}")

    return Op(f"roots {variant} k={k} n={level} t={t}", run, check)


def _brute_op(variant, level, k, t) -> Op:
    tree = zeros.TreeSpec(variant, level, k)

    def run():
        return (partition.partition_poly_bruteforce(tree, t).coeffs,
                partition.partition_poly_recursive(tree, t).coeffs)

    def check(out):
        brute, recursive = out
        require(brute == recursive, "brute-force and recursive coefficients differ")
        checks.check_partition_coeffs(brute, variant, level, k, t)

    return Op(f"bruteforce {variant} k={k} n={level} t={t}", run, check)


def _recursion_op(variant, level, k, t) -> Op:
    tree = zeros.TreeSpec(variant, level, k)
    return Op(
        f"recursion {variant} k={k} n={level} t={t}",
        lambda: partition.partition_poly_recursive(tree, t).coeffs,
        lambda coeffs: checks.check_partition_coeffs(coeffs, variant, level, k, t),
    )


def build_oracle(rng, out_dir):
    ops = [_roots_op(v, n, k, _thousandths(rng, base)) for v, n, k, base in _ROOT_CASES]
    ops.append(_recursion_op("rooted", 6, 2, _thousandths(rng, 10 * int(rng.integers(10, 90)))))
    ops += [_brute_op(v, n, k, _thousandths(rng, 10 * int(rng.integers(10, 90)))) for v, n, k in _BRUTE_CASES]
    return ops


def warm_oracle(out_dir):
    tree = zeros.TreeSpec("rooted", 2, 2)
    partition.poly_roots_on_circle(partition.partition_poly_recursive(tree, Fraction(1, 3)))
    partition.partition_poly_bruteforce(tree, Fraction(1, 3))


# ---------------------------------------------------------------------------
# spectra: Lyapunov exponents, MME pullback, kappa curve, gap edge


_BIRKHOFF_STEPS = 20_000
_LONG_STEPS = 50_000


def _check_birkhoff(out, phis, ts, k) -> None:
    means, errs = out
    for phi, t, m, e in zip(phis, ts, means, errs):
        chi = checks.chi_acim(phi, t, k)
        require(abs(m - chi) <= 2e-3 + 3.0 * e,
                f"Birkhoff mean {m:.6f} +- {e:.2g} vs closed form {chi:.6f} at phi={phi:.4f}, t={t:.4f}")


def _birkhoff_op(phis, ts, k, n_steps, seed) -> Op:
    return Op(
        f"birkhoff {len(phis)}x32 k={k} steps={n_steps}",
        lambda: spectra.birkhoff_exponents(phis, ts, k, n_steps=n_steps, burn_in=1000, n_seeds=32, seed=seed),
        lambda out: _check_birkhoff(out, phis, ts, k),
    )


def _mme_op(phi, t, k, depth) -> Op:
    def check(est):
        chi = checks.chi_acim(phi, t, k)
        require(chi < math.log(k) < est.value,
                f"expected chi_ACIM {chi:.5f} < log k < chi_MME {est.value:.5f}")

    return Op(f"mme k={k} depth={depth} t={t:.4f}",
              lambda: spectra.lyapunov_mme(core.ModelParams(k, t, phi), depth=depth), check)


def _kappa_op(t, k, phis) -> Op:
    def check(points):
        edge = checks.gap_edge(t, k)
        require(len(points) == len(phis), "kappa curve lost grid points")
        for pt in points:
            margin = abs(pt.phi) - edge
            if abs(margin) < 1e-6:
                continue
            require(pt.in_support == (margin > 0 or edge == 0.0),
                    f"in_support wrong at phi={pt.phi:.5f} (gap edge {edge:.5f})")
            if pt.in_support and (edge == 0.0 or margin > 0.05):
                chi = checks.chi_acim(pt.phi, t, k)
                require(abs(pt.chi - chi) <= 1e-9 * abs(chi), f"chi {pt.chi} vs {chi} at phi={pt.phi}")
                require(abs(pt.kappa - math.log(k) / chi) <= 1e-9, f"kappa wrong at phi={pt.phi}")

    return Op(f"kappa_curve k={k} t={t:.4f} x{len(phis)}", lambda: spectra.kappa_curve(t, k, phis), check)


def _phi_e_op(k, ts) -> Op:
    def run():
        return [core.phi_e(float(t), k) for t in ts], core.phi_e(0.5, 2)

    def check(out):
        values, at_half = out
        require(abs(at_half - 0.308) <= 0.01, f"phi_e(0.5, 2) = {at_half:.5f}, expected 0.308 +- 0.01")
        for t, v in zip(ts, values):
            require(abs(v - checks.gap_edge(float(t), k)) <= 1e-9, f"phi_e({t}) = {v} off the tangency")
        require(all(b > a for a, b in zip(values, values[1:])), "phi_e not increasing in t")

    return Op(f"phi_e k={k} x{len(ts)}", run, check)


def _small_t_op(k, phi) -> Op:
    def check(chi):
        require(abs(chi - math.log(k)) <= 1e-3, f"chi(t=1e-4) = {chi}, expected -> log k = {math.log(k)}")

    return Op(f"chi small t k={k}", lambda: spectra.lyapunov_acim_closed(core.ModelParams(k, 1e-4, phi)), check)


def build_spectra(rng, out_dir):
    # below t_c = 1/3 the support is the whole circle, so every angle is interior
    phis = rng.uniform(-3.0, 3.0, 8)
    ts = rng.uniform(0.10, 0.30, 8)
    long_phi, long_t = [_uniform(rng, -3.0, 3.0)], [_uniform(rng, 0.20, 0.40)]
    seed = int(rng.integers(0, 2**31))
    grid = np.linspace(-math.pi, math.pi, 201)[:-1] + _uniform(rng, 0.0, 2.0 * math.pi / 200)
    grid = np.remainder(grid + math.pi, 2.0 * math.pi) - math.pi
    t_c2 = core.critical_temperature(2)
    return [
        _birkhoff_op(phis, ts, 2, _BIRKHOFF_STEPS, seed),
        _birkhoff_op(long_phi, long_t, 3, _LONG_STEPS, seed + 1),
        _mme_op(_uniform(rng, -3.0, 3.0), _uniform(rng, 0.15, 0.30), 2, 17),
        _mme_op(_uniform(rng, -3.0, 3.0), _uniform(rng, 0.20, 0.45), 3, 10),
        _kappa_op(_uniform(rng, 0.50, 0.70), 2, grid),
        _kappa_op(_uniform(rng, 0.10, 0.30), 2, grid),
        _phi_e_op(2, np.sort(rng.uniform(t_c2 + 1e-3, 0.98, 200))),
        _small_t_op(2, _uniform(rng, -3.0, 3.0)),
    ]


def warm_spectra(out_dir):
    spectra.birkhoff_exponents([0.5], [0.2], 2, n_steps=10, burn_in=1, n_seeds=2)
    spectra.lyapunov_mme(core.ModelParams(2, 0.2, 0.5), depth=2)
    spectra.kappa_curve(0.5, 2, [0.0, 1.0])
    core.phi_e(0.5, 2)


# ---------------------------------------------------------------------------
# measure: exact-count queries, dimension fits and the free energy


# (variant, level, k, t window); |V| < 2^53 on each, where float winding is exact
_COUNT_CASES = [
    ("rooted", 44, 2, (0.10, 0.30)),
    ("full", 40, 2, (0.40, 0.60)),
    ("rooted", 30, 3, (0.20, 0.40)),
    ("full", 32, 3, (0.60, 0.80)),
]
_QUERY_POINTS = 16384
_FE_LEVEL = 13


def _counts_op(variant, level, k, t, phis) -> Op:
    em = measure.EmpiricalMeasure(zeros.TreeSpec(variant, level, k), t)
    n_v = checks.vertex_count(variant, level, k)

    def run():
        return em.counts(phis), measure.histogram(em, bins=1024)[1]

    def check(out):
        counts, masses = out
        require(int(counts[-1]) == n_v, f"M(pi) = {int(counts[-1])}/{n_v}, expected 1")
        require(np.all(np.diff(counts) >= 0), "CDF not monotone")
        require(np.all(masses >= 0) and abs(float(masses.sum()) - 1.0) <= 1e-12, "histogram masses do not sum to 1")

    return Op(f"counts {variant} k={k} n={level} t={t:.4f}", run, check)


def _moderate_counts_op(t, phis) -> Op:
    tree = zeros.TreeSpec("rooted", 12, 2)
    em = measure.EmpiricalMeasure(tree, t)

    def check(out):
        counts, (_, masses) = out
        angles = zeros.enumerate_zeros(tree, t, workers=1).angles
        require(np.array_equal(counts, np.searchsorted(angles, phis, side="right")),
                "counts differ from the enumerated zeros")
        edges = np.linspace(-math.pi, math.pi, len(masses) + 1)
        expected = np.diff(np.searchsorted(angles, edges, side="right")) / len(angles)
        require(np.array_equal(masses, expected), "histogram differs from the enumerated zeros")

    return Op(f"counts rooted k=2 n=12 t={t:.4f}", lambda: (em.counts(phis), measure.histogram(em, bins=256)), check)


def _dimension_op(t, phis) -> Op:
    def run():
        return [spectra.pointwise_dimension(float(p), t, 2, level=44, coarsest=1e-5, octaves=12).value for p in phis]

    def check(values):
        rel = [v * checks.chi_acim(float(p), t, 2) / math.log(2) - 1.0 for p, v in zip(phis, values)]
        require(abs(float(np.median(rel))) <= 0.10,
                f"pointwise dimension median {np.median(rel):+.3f} off log k/chi")

    return Op(f"pointwise_dimension n=44 t={t:.4f} x{len(phis)}", run, check)


def _singular_op(t, phis) -> Op:
    def run():
        return [free_energy.singular_exponent(float(p), t, 2, n=40, delta0=0.5).kappa for p in phis]

    def check(values):
        rel = [v * checks.chi_acim(float(p), t, 2) / math.log(2) - 1.0 for p, v in zip(phis, values)]
        require(abs(float(np.median(rel))) <= 0.10,
                f"singular exponent median {np.median(rel):+.3f} off log k/chi")

    return Op(f"singular_exponent n=40 t={t:.4f} x{len(phis)}", run, check)


def _check_free_energy(r, f, phi, t, level) -> None:
    z = r * complex(math.cos(phi), math.sin(phi))
    expected = checks.free_energy(z, t, 2, level) + checks.electrostatic_offset(t, 2, level)
    require(abs(f - expected) <= 1e-7 * (1.0 + abs(expected)), f"F({z:.4f}) = {f}, expected {expected}")


def _free_energy_op(t, phi, radii, z_report) -> Op:
    def run():
        rows = free_energy.radial_scan(phi, t, 2, _FE_LEVEL, radii)
        return rows, free_energy.free_energy_report(z_report, t, 2, _FE_LEVEL)

    def check(out):
        rows, rep = out
        for r, f in rows:
            _check_free_energy(r, f, phi, t, _FE_LEVEL)
        exact = checks.free_energy(z_report, t, 2, _FE_LEVEL)
        require(abs(rep.f_recursive - exact) <= 1e-9 * (1.0 + abs(exact)), "recursive free energy off")
        require(abs(rep.f_electrostatic - exact - checks.electrostatic_offset(t, 2, _FE_LEVEL)) <= 1e-7,
                "electrostatic free energy off")
        mag = checks.magnetization(z_report, t, 2, _FE_LEVEL)
        require(abs(rep.magnetization - mag) <= 1e-6 * (1.0 + abs(mag)), "magnetization off")

    return Op(f"free_energy radial+report k=2 n={_FE_LEVEL} t={t:.4f}", run, check)


def _recursive_op(t, zs) -> Op:
    def check(values):
        for z, f in zip(zs, values):
            exact = checks.free_energy(complex(z), t, 2, 40)
            require(abs(f - exact) <= 1e-9 * (1.0 + abs(exact)), f"recursive F({z:.4f}) = {f}, expected {exact}")

    return Op(f"free_energy_recursive n=40 x{len(zs)}",
              lambda: [free_energy.free_energy_recursive(complex(z), t, 2, 40) for z in zs], check)


def _check_measure_cli(out, kind) -> None:
    code, data = out
    require(code == 0, f"cayley-ising measure exited {code}")
    if kind == "hist":
        rows = _csv_rows(data, "bin_center,mass")
        require(np.all(rows[:, 1] >= 0) and abs(rows[:, 1].sum() - 1.0) <= 1e-12, "histogram masses do not sum to 1")
    else:
        rows = _csv_rows(data, "phi,cdf")
        require(np.all(np.diff(rows[:, 1]) >= 0) and rows[-1, 1] == 1.0, "CDF not monotone with M(pi) = 1")


def _check_radial_cli(out, phi, t) -> None:
    code, data = out
    require(code == 0, f"cayley-ising free-energy exited {code}")
    for r, f in _csv_rows(data, "r,free_energy"):
        _check_free_energy(r, f, phi, t, _FE_LEVEL)


def build_measure(rng, out_dir):
    ops = []
    for variant, level, k, win in _COUNT_CASES:
        phis = np.append(np.sort(rng.uniform(-math.pi, math.pi, _QUERY_POINTS)), math.pi)
        ops.append(_counts_op(variant, level, k, _uniform(rng, *win), phis))
    # above t ~ 0.48 counts overcount by one near z = -1 at this level, a
    # fault kept out of the workload (see CHANGES.md)
    ops.append(_moderate_counts_op(_uniform(rng, 0.15, 0.40), np.sort(rng.uniform(-math.pi, math.pi, 4096))))
    fault = _counts_op("rooted", 36, 3, 0.5, np.array([math.pi]))
    fault.name = "counts(pi) rooted k=3 n=36 t=0.5"
    fault.known_fault = (
        "zeros.iterated_lift carries the winding as a float, so counts beyond 2^53 "
        "are rounded: M(pi) reads 225141952945498672/225141952945498681"
    )
    ops.append(fault)
    ops.append(_dimension_op(_uniform(rng, 0.08, 0.12), rng.uniform(-3.0, 3.0, 24)))
    ops.append(_singular_op(_uniform(rng, 0.08, 0.11), rng.uniform(-3.0, 3.0, 12)))

    t_fe, phi_fe = _uniform(rng, 0.40, 0.60), _uniform(rng, -3.0, 3.0)
    radii = np.concatenate([np.linspace(0.5, 0.95, 30), np.linspace(1.05, 2.0, 30)])
    z_report = 2.0 * complex(math.cos(phi_fe), math.sin(phi_fe))
    ops.append(_free_energy_op(t_fe, phi_fe, radii, z_report))
    r_rec = rng.uniform(0.5, 2.0, 200)
    zs_rec = r_rec * np.exp(1j * rng.uniform(-math.pi, math.pi, 200))
    ops.append(_recursive_op(_uniform(rng, 0.2, 0.6), zs_rec[np.abs(r_rec - 1.0) > 0.05]))

    # the CLI runs read back their artifacts; the radial scan reuses the
    # zero set the API scan above cached
    for kind, size in (("hist", "--bins"), ("cdf", "--grid")):
        t_cli = _uniform(rng, 0.2, 0.6)
        args = ["measure", "--k", 2, "--n", 40, "--t", repr(t_cli), "--kind", kind, size, 4096]
        path = os.path.join(out_dir, f"{kind}.csv")
        ops.append(Op(f"cli measure {kind} n=40", lambda a=args, p=path: _cli(a, p),
                      lambda out, kd=kind: _check_measure_cli(out, kd)))
    args = ["free-energy", "--k", 2, "--t", repr(t_fe), "--n", _FE_LEVEL, "--phi", repr(phi_fe), "--mode", "radial"]
    path = os.path.join(out_dir, "radial.csv")
    ops.append(Op(f"cli free-energy radial n={_FE_LEVEL}", lambda: _cli(args, path),
                  lambda out: _check_radial_cli(out, phi_fe, t_fe)))
    return ops


def warm_measure(out_dir):
    em = measure.EmpiricalMeasure(zeros.TreeSpec("rooted", 30, 2), 0.3)
    em.counts(np.array([0.0, 1.0]))
    measure.histogram(em, bins=4)
    spectra.pointwise_dimension(1.0, 0.1, 2, level=30, coarsest=1e-3, octaves=3)
    free_energy.radial_scan(0.5, 0.3, 2, 3, [2.0])
    free_energy.free_energy_recursive(2.0, 0.3, 2, 3)
    _cli(["measure", "--k", 2, "--n", 3, "--t", "0.3", "--kind", "cdf", "--grid", 4], os.path.join(out_dir, "warm.csv"))
    reset_measure()


def reset_measure():
    """Start every pass with an empty zero-set cache, so each pass does the
    same work: one enumeration, then many reads of its zeros."""
    cache = getattr(free_energy, "_cached_angles", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()


WORKLOADS = {
    "enumerate": Workload(build_enumerate, warm_enumerate),
    "oracle": Workload(build_oracle, warm_oracle),
    "spectra": Workload(build_spectra, warm_spectra),
    "measure": Workload(build_measure, warm_measure, reset_measure),
}
