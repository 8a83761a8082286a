"""Self-contained verification battery behind the `verify` CLI subcommand.

The first half of the module holds the one implementation of each measured
acceptance criterion: a function that takes its cases as arguments and
returns the measured quantities.  `tests/test_acceptance.py` calls them with
the release cases and asserts the release bounds; `run_verification` calls
them with the battery's own cases.

Every check is deterministic given the seed; the report is canonical JSON
(sorted keys, full-precision floats) so byte-identical reruns certify
reproducibility.  Quick mode shrinks orbit lengths and tree levels but
never loosens a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import core, free_energy, measure, partition, spectra, zeros

LOG2 = math.log(2.0)
# pointwise dimension of the k = 2 zero measure at phi = 0 below t_c
DIM_PHI0 = LOG2 / math.log(4.0 / 3.0)


# ---------------------------------------------------------------------------
# acceptance criteria, one measurement each


def oracle_equivalence(levels, ts):
    """Criterion 1: zeros from the dynamics against the exact partition roots,
    k = 2 rooted and full trees at each level and exact t.

    Returns (worst angle difference, whether every tree has as many roots
    as zeros).  That the exact roots lie on the circle is not measured: the
    oracle raises unless its exact root count certifies all of them there.
    """
    worst = 0.0
    counts_match = True
    for variant in ("rooted", "full"):
        for n in levels:
            for tf in ts:
                tree = zeros.TreeSpec(variant, n, 2)
                pairs = partition.poly_roots_on_circle(partition.partition_poly_recursive(tree, tf))
                roots = np.array([a for a, _ in pairs])
                zz = zeros.enumerate_zeros(tree, float(tf))
                if len(roots) != len(zz):
                    counts_match = False
                    continue
                worst = max(worst, float(np.max(np.abs(roots - zz.angles))))
    return worst, counts_match


def recursion_vs_bruteforce(max_vertices):
    """Criterion 2: the recursive and brute-force partition polynomials at
    t = 1/5 for every tree with 2 <= k < 22 and at most max_vertices vertices,
    counted from the brute force's own edge list.

    Returns (trees checked, trees where the two differ, whether every
    polynomial is palindromic with positive coefficients).
    """
    checked, mismatches, palindromic = 0, [], True
    for k in range(2, 22):
        for variant in ("rooted", "full"):
            n = 0 if variant == "rooted" else 1
            while len((tree := zeros.TreeSpec(variant, n, k)).edges()) + 1 <= max_vertices:
                rec = partition.partition_poly_recursive(tree, Fraction(1, 5))
                if rec.coeffs != partition.partition_poly_bruteforce(tree, Fraction(1, 5)).coeffs:
                    mismatches.append(tree)
                if rec.coeffs != rec.coeffs[::-1] or any(c <= 0 for c in rec.coeffs):
                    palindromic = False
                checked += 1
                n += 1
    return checked, mismatches, palindromic


def zero_counts(levels):
    """Criterion 3: every rooted and full tree, for k = 2, 3 at each level,
    where the vertex count, the edge count plus one, the winding of the
    composed lift over one period (within 1e-9; NaN counts as wrong) or the
    number of zeros enumerated at t = 0.3 differs from the closed form.  An
    empty list means all agree.

    The closed forms count the trees as built: the rooted tree has
    (k^(n+1) - 1)/(k - 1) vertices, and the full tree, a centre joined to
    k+1 rooted subtrees of level n-1, has 1 + (k+1)(k^n - 1)/(k - 1).  Every
    count but the edges reads TreeSpec.steps, so a wrong schedule shows here.
    """
    t = 0.3
    wrong = []
    for k in (2, 3):
        for n in levels:
            trees = [(zeros.TreeSpec("rooted", n, k), (k ** (n + 1) - 1) // (k - 1))]
            if n >= 1:
                trees.append((zeros.TreeSpec("full", n, k), 1 + (k + 1) * ((k**n - 1) // (k - 1))))
            for tree, count in trees:
                psi, wind, _ = zeros.iterated_lift(np.array([-math.pi, math.pi]), tree, t)
                winding = (psi[1] - psi[0]) / core.TAU + (wind[1] - wind[0])
                if (
                    tree.vertex_count != count
                    or len(tree.edges()) + 1 != count
                    or not abs(winding - count) <= 1e-9
                    or len(zeros.enumerate_zeros(tree, t)) != count
                ):
                    wrong.append(tree)
    return wrong


def gap_margin(ts, levels):
    """Criterion 4: least clearance of the smallest positive zero over the
    gap edge, min positive angle - (phi_e - 1e-6), across k = 2 rooted and
    full trees at each t > t_c and level; negative means a zero inside the
    arc.  Every zero set holds a positive angle: pi or a mirror pair's."""
    zero_sets = (
        (t, zeros.enumerate_zeros(zeros.TreeSpec(variant, n, 2), t).angles)
        for t in ts
        for variant in ("rooted", "full")
        for n in levels
    )
    return min(float(a[a > 0.0].min()) - (core.phi_e(t, 2) - 1e-6) for t, a in zero_sets)


def density_gaps(levels):
    """Criterion 5: largest gap between consecutive zeros of the k = 2 rooted
    tree at t = 0.2, per level."""
    return [measure.max_gap(measure.EmpiricalMeasure(zeros.TreeSpec("rooted", n, 2), 0.2)) for n in levels]


def rooted_full_distance(n, ts, grid):
    """Criterion 6: sup-norm distance between the k = 2 rooted and full
    level-n CDFs on a uniform grid of `grid` angles, worst over ts."""
    if grid < 1:
        raise ValueError(f"CDF grid needs at least one point, got {grid}")
    phis = np.linspace(-math.pi, math.pi, grid)
    worst = 0.0
    for t in ts:
        rooted, full = (
            measure.empirical_cdf(phis, measure.EmpiricalMeasure(zeros.TreeSpec(variant, n, 2), t))
            for variant in ("rooted", "full")
        )
        worst = max(worst, float(np.max(np.abs(rooted - full))))
    return worst


def lyapunov_excess(params, n_steps, n_seeds, seed):
    """Criterion 7: Birkhoff ACIM exponents at each k = 2 (t, phi) against the
    closed form.

    Returns (Birkhoff means, their stderrs, worst excess of |mean - closed|
    over the allowance 2e-3 + 3 stderr); the excess is <= 0 when all agree.
    """
    ts = [t for t, _ in params]
    phis = [phi for _, phi in params]
    means, errs = spectra.birkhoff_exponents(phis, ts, 2, n_steps=n_steps, n_seeds=n_seeds, seed=seed)
    excess = max(
        abs(mean - spectra.lyapunov_acim_closed(core.ModelParams(2, t, phi))) - (2e-3 + 3.0 * err)
        for (t, phi), mean, err in zip(params, means, errs)
    )
    return means, errs, float(excess)


def ordering_margins(params, means, errs, depth):
    """Criterion 8: chi_ACIM < log 2 < chi_MME at each k = 2 (t, phi), given
    the Birkhoff means and stderrs there and the MME pullback depth.

    Returns the [(log 2 - chi_ACIM) / stderr, (chi_MME - log 2) / stderr_MME]
    sigma margins and the dimension proxy log 2 / chi_MME, per point.
    """
    margins, hd = [], []
    for (t, phi), mean, err in zip(params, means, errs):
        mme = spectra.lyapunov_mme(core.ModelParams(2, t, phi), depth=depth)
        margins.append([float((LOG2 - mean) / err), (mme.value - LOG2) / mme.stderr])
        hd.append(LOG2 / mme.value)
    return margins, hd


def dimension_phi0():
    """Criterion 9: the pointwise-dimension fit at phi = 0, t = 0.2, k = 2 and
    its relative error against DIM_PHI0."""
    fit = spectra.pointwise_dimension(0.0, 0.2, 2, level=20, coarsest=0.098, octaves=3)
    return fit, abs(fit.value - DIM_PHI0) / DIM_PHI0


def singular_exponent_fits():
    """Criterion 10: radial singular-exponent fits at level 20, k = 2.

    Returns the fit at phi = 0.9, t = 0 (Lebesgue measure, slope 1), the fit
    at phi = 0, t = 0.2, and the latter's relative error against DIM_PHI0.
    """
    fit_leb = free_energy.singular_exponent(
        0.9, 0.0, 2, n=20, kappa_prior=1.0, delta0=0.5,
        ys=0.5 * 2.0 ** -np.arange(7.0, 10.5, 0.5),
    )
    fit0 = free_energy.singular_exponent(
        0.0, 0.2, 2, n=20, kappa_prior=2.2, delta0=1.2,
        ys=1.2 * 2.0 ** -np.arange(3.3, 5.8, 0.4),
    )
    return fit_leb, fit0, abs(fit0.kappa - DIM_PHI0) / DIM_PHI0


def lift_period_gap(cases):
    """Criterion 11: worst |lift(theta + 2pi) - lift(theta) - 2pi k| over
    (theta, ModelParams) cases; theta may be an array."""
    return max(
        float(np.max(np.abs(core.lift_eval(th + core.TAU, p) - core.lift_eval(th, p) - core.TAU * p.k)))
        for th, p in cases
    )


def degree_identity_gap(cases):
    """Criterion 11: worst |G(phi + 2pi) - G(phi) - 2pi|V|| / (2pi|V|) of the
    composed lift G over (tree, t, phis) cases."""
    worst = 0.0
    for tree, t, phis in cases:
        psi1, w1, _ = zeros.iterated_lift(phis, tree, t)
        psi2, w2, _ = zeros.iterated_lift(phis + core.TAU, tree, t)
        gap = (psi2 - psi1) + core.TAU * (w2 - w1) - core.TAU * tree.vertex_count
        worst = max(worst, float(np.max(np.abs(gap))) / (core.TAU * tree.vertex_count))
    return worst


def conjugate_symmetry_gap(zero_sets):
    """Criterion 11: worst chord from a zero's conjugate to its nearest zero.

    The nearest zero to conj(z) = e^{-ia} sits next to -a in the sorted
    angles, so each chord is taken over a few circular neighbours of that
    position instead of all N zeros (the chord matrix is symmetric, so one
    axis covers both directions)."""
    worst = 0.0
    for zs in zero_sets:
        angles = np.sort(zs.angles)
        za = np.exp(1j * angles)
        idx = np.searchsorted(angles, -angles)
        near = (idx[:, None] + np.arange(-2, 2)) % len(angles)
        chord = np.abs(np.conj(za)[:, None] - za[near])
        worst = max(worst, float(chord.min(axis=1).max()))
    return worst


# ---------------------------------------------------------------------------
# the battery


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: dict

    def to_dict(self):
        return {"passed": bool(self.passed), "observed": self.observed}


def check_lift_structure(rng, quick: bool) -> list[CheckResult]:
    cases = 300 if quick else 1000
    thetas = rng.uniform(-10.0, 10.0, cases)
    phis = rng.uniform(-math.pi, math.pi, cases)
    ts = rng.uniform(0.0, 0.95, cases)
    ks = rng.integers(2, 6, cases)
    lifts = [(th, core.ModelParams(int(k), float(t), float(ph))) for th, ph, t, k in zip(thetas, phis, ts, ks)]
    worst_period = lift_period_gap(lifts)
    h = 1e-5
    # against k*psi_t', the slope that the lift, the pullback and the MME use
    worst_fd = max(
        abs(float((core.lift_eval(th + h, p) - core.lift_eval(th - h, p)) / (2.0 * h)
                  - p.k * core.moebius_lift(th, p.t)[1]))
        for th, p in lifts
    )

    # monotone dependence of the composed lift on phi, and the degree identity
    tree = zeros.TreeSpec("rooted", 5, 2)
    phis = np.sort(rng.uniform(-math.pi, math.pi, 64))
    _, _, deriv = zeros.iterated_lift(phis, tree, 0.6)
    min_deriv = float(np.min(deriv))
    worst_degree = degree_identity_gap([(tree, 0.6, phis)])
    return [
        CheckResult("lift_periodicity", worst_period <= 1e-12, {"worst": worst_period, "bound": 1e-12}),
        CheckResult("lift_derivative_fd", worst_fd <= 1e-6, {"worst": worst_fd, "bound": 1e-6}),
        CheckResult("lift_monotone_in_phi", min_deriv >= 1.0, {"min_dG_dphi": min_deriv}),
        CheckResult("lift_degree_identity", worst_degree <= 1e-9, {"worst_rel": worst_degree, "bound": 1e-9}),
    ]


def check_fixed_points(rng, quick: bool) -> list[CheckResult]:
    cases = 40 if quick else 150
    worst_pair = 0.0
    multiplier_ok = True
    for _ in range(cases):
        k = int(rng.integers(2, 5))
        t = float(rng.uniform(0.02, 0.95))
        phi = float(rng.uniform(-math.pi, math.pi))
        if not core.interior_support(phi, t, k):
            continue
        (row,) = core.fixed_points(t, k, [phi])
        off = [w for w in row if not abs(abs(w) - 1.0) < core.CIRCLE_BAND]
        for w in off:
            mirror = min(abs(w - 1.0 / np.conj(o)) for o in off)
            worst_pair = max(worst_pair, float(mirror))
        disk = core.disk_root(row)
        if disk is not None and abs(core.map_derivative(disk, core.ModelParams(k, t, phi))) >= 1.0:
            multiplier_ok = False
    return [
        CheckResult("fixed_point_reflection", worst_pair <= 1e-7, {"worst": worst_pair, "bound": 1e-7}),
        CheckResult("disk_fixed_point_attracting", multiplier_ok, {}),
    ]


def check_tangency(quick: bool) -> list[CheckResult]:
    k = 2
    tc = core.critical_temperature(k)
    ts = np.linspace(tc + 1e-4, 0.999, 40 if quick else 200)
    worst_res = 0.0
    values = []
    for t in ts:
        td = core.tangency(float(t), k)
        w = td.point
        res = abs(k * w * (1.0 - t * t) / ((w + t) * (1.0 + w * t)) - 1.0)
        worst_res = max(worst_res, float(res))
        values.append(td.phi_e)
    monotone = bool(np.all(np.diff(values) > 0))
    anchors = (
        abs(core.phi_e(0.5, 2) - 0.3073950510845034) < 1e-12
        and abs(core.phi_e(tc, 2)) == 0.0
        and core.phi_e(1.0, 2) == math.pi
    )
    return [
        CheckResult("tangency_residual", worst_res <= 1e-10, {"worst": worst_res, "bound": 1e-10}),
        CheckResult("phi_e_monotone", monotone, {"t_range": [float(ts[0]), float(ts[-1])]}),
        CheckResult("phi_e_anchors", anchors, {"phi_e_half": float(core.phi_e(0.5, 2))}),
    ]


def check_zero_sets(rng, quick: bool) -> list[CheckResult]:
    n = 8 if quick else 10
    tree = zeros.TreeSpec("rooted", n, 2)
    t = 0.45
    zs = zeros.enumerate_zeros(tree, t)
    sym = conjugate_symmetry_gap([zs])

    em = measure.EmpiricalMeasure(tree, t)
    probes = rng.uniform(-math.pi, math.pi, 200 if quick else 1000)
    counts = em.counts(probes)
    stair = np.searchsorted(zs.angles, probes, side="right")
    exact = bool(np.all(counts == stair))

    # additivity is exact at the integer-count level; the /N division is the
    # only floating step, so the fsum of masses is within one ulp of 1
    edges = np.concatenate([[-math.pi], np.sort(rng.uniform(-math.pi, math.pi, 64)), [math.pi]])
    count_parts = np.diff(em.counts(edges))
    additive = bool(count_parts.sum() == em.total)
    return [
        CheckResult("zero_set_symmetry", sym <= 1e-10, {"worst": sym, "bound": 1e-10}),
        # |V| is odd, so enumerate_zeros returns exactly pi as the last angle
        CheckResult("zero_at_pi_odd_count", bool(zs.angles[-1] == math.pi), {}),
        CheckResult("cdf_exact_counts", exact, {"probes": len(probes)}),
        CheckResult("interval_mass_additive", additive, {}),
    ]


def check_gap_and_density(quick: bool) -> list[CheckResult]:
    worst_margin = gap_margin((0.4, 0.9), (8,) if quick else (10,))
    gaps = density_gaps((4, 6, 8) if quick else (6, 10, 14))
    return [
        CheckResult("zero_free_arc", worst_margin >= 0, {"worst_margin": worst_margin}),
        CheckResult("density_gap_decreases", gaps[2] < gaps[1] < gaps[0], {"gaps": gaps}),
    ]


def check_spectra(seed: int, quick: bool) -> list[CheckResult]:
    params = [(0.2, 0.0), (0.5, math.pi), (1e-4, 1.0)]
    means, errs, excess = lyapunov_excess(
        params, 100_000 if quick else 1_000_000, 16 if quick else 32, seed
    )
    margins, _ = ordering_margins(params[:2], means[:2], errs[:2], 12 if quick else 16)
    fit, rel = dimension_phi0()
    return [
        # the report clips the excess at 0: only a failing excess is shown
        CheckResult("lyapunov_closed_vs_birkhoff", excess <= 0.0, {"worst_excess": max(0.0, excess)}),
        CheckResult(
            "lyapunov_t0_limit",
            abs(means[2] - LOG2) <= 1e-3,
            {"observed": float(means[2]), "target": LOG2},
        ),
        CheckResult(
            "lyapunov_ordering_5sigma",
            all(low > 5.0 and high > 5.0 for low, high in margins),
            {"sigma_margins": margins},
        ),
        CheckResult(
            "pointwise_dimension_phi0",
            rel <= 0.10,
            {"observed": fit.value, "target": DIM_PHI0, "rel_err": rel},
        ),
    ]


def check_free_energy(rng, quick: bool) -> list[CheckResult]:
    n = 12 if quick else 16
    worst = 0.0
    for t in (0.2, 0.5):
        for _ in range(5 if quick else 20):
            while True:
                radius = float(rng.uniform(0.1, 10.0))
                if abs(radius - 1.0) >= 0.05:
                    break
            angle = float(rng.uniform(-math.pi, math.pi))
            z = radius * complex(math.cos(angle), math.sin(angle))
            fe = free_energy.free_energy_electrostatic(z, t, 2, n)
            fr = free_energy.free_energy_recursive(z, t, 2, n)
            worst = max(worst, abs(fe - fr) / (1.0 + abs(fe)))
    m_low = free_energy.magnetization(1e-9, 0.5, 2, 10)
    m_high = free_energy.magnetization(1e9, 0.5, 2, 10)
    # level 20 in quick mode too: the CDF-backed quadrature costs well under
    # a second and coarser levels sit right on the 2% Lebesgue tolerance
    fit_leb, fit0, rel0 = singular_exponent_fits()
    return [
        CheckResult("free_energy_cross_method", worst <= 1e-3, {"worst_rel": float(worst), "bound": 1e-3}),
        CheckResult(
            "magnetization_limits",
            abs(m_low - 2.0) <= 1e-6 and abs(m_high + 2.0) <= 1e-6,
            {"at_zero": float(abs(m_low - 2.0)), "at_infinity": float(abs(m_high + 2.0))},
        ),
        CheckResult(
            "singular_exponent_lebesgue",
            abs(fit_leb.kappa - 1.0) <= 0.02 and fit_leb.stable,
            {"kappa": fit_leb.kappa, "r2": fit_leb.r_squared},
        ),
        CheckResult(
            "singular_exponent_phi0",
            rel0 <= 0.15 and fit0.stable,
            {"kappa": fit0.kappa, "target": DIM_PHI0, "r2": fit0.r_squared},
        ),
    ]


def run_verification(seed: int = 0, quick: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []
    checks += check_lift_structure(rng, quick)
    checks += check_fixed_points(rng, quick)
    checks += check_tangency(quick)
    checks.append(CheckResult("zero_counts", not zero_counts(range(5 if quick else 7)), {}))
    worst, counts_match = oracle_equivalence((1, 2) if quick else (1, 2, 3), (Fraction(1, 5), Fraction(1, 2)))
    checks.append(CheckResult("oracle_equivalence", worst <= 1e-8 and counts_match, {"worst": worst, "bound": 1e-8}))
    checked, mismatches, palindromic = recursion_vs_bruteforce(16 if quick else 22)
    checks.append(
        CheckResult(
            "recursion_vs_bruteforce",
            not mismatches and palindromic,
            {"trees_checked": checked, "palindromic_and_positive": palindromic},
        )
    )
    checks += check_zero_sets(rng, quick)
    checks += check_gap_and_density(quick)
    worst = rooted_full_distance(8 if quick else 12, (0.2, 0.5), 2000 if quick else 10_000)
    checks.append(CheckResult("rooted_full_cdf_distance", worst <= 0.01, {"worst": worst, "bound": 0.01}))
    checks += check_spectra(seed, quick)
    checks += check_free_energy(rng, quick)
    return {
        "schema_version": 1,
        "quick": bool(quick),
        "seed": int(seed),
        "checks": {c.name: c.to_dict() for c in checks},
        "all_passed": bool(all(c.passed for c in checks)),
    }
