import hashlib
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cayley_ising
from cayley_ising import cli, core, free_energy, verify, zeros
from cayley_ising.cli import main


def run(args):
    return main([str(a) for a in args])


def _refuse_constant(name):
    raise ValueError(f"artifact holds the non-JSON constant {name}")


def report_schema():
    return json.loads((Path(cayley_ising.__file__).parent / "schemas" / "report.schema.json").read_text())


def load_report(path):
    """Parse a JSON artifact strictly (NaN or Infinity fail) and validate it
    against the package's report schema."""
    doc = json.loads(path.read_text(), parse_constant=_refuse_constant)
    jsonschema.validate(doc, report_schema())
    return doc


def test_zeros_csv(tmp_path):
    out = tmp_path / "z.csv"
    assert run(["zeros", "--k", 2, "--n", 1, "--t", "0.5", "--tree", "rooted", "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,angle_radians,residual"
    angles = [float(line.split(",")[1]) for line in lines[1:]]
    expected = [-math.acos(-0.125), math.acos(-0.125), math.pi]
    assert np.allclose(angles, expected, atol=1e-10)


def test_zeros_json_schema(tmp_path):
    out = tmp_path / "z.json"
    assert run(["zeros", "--k", 2, "--n", 2, "--t", "1/5", "--format", "json", "--out", out]) == 0
    doc = load_report(out)
    assert doc["t"] == "1/5"


def test_exit_codes(tmp_path):
    assert run(["zeros", "--k", 1, "--n", 1, "--t", "0.5", "--out", tmp_path / "x.csv"]) == 1
    assert run(["zeros", "--k", 2, "--n", 1, "--t", "1.5", "--out", tmp_path / "x.csv"]) == 1
    assert run(["zeros", "--k", 2, "--n", 1, "--t", "0.5", "--out", tmp_path / "no" / "x.csv"]) == 1
    assert run(["nonsense"]) == 1
    assert run(["zeros", "--k", 2, "--n", 3, "--t", "1/0", "--out", tmp_path / "x.csv"]) == 1
    # a p/q beyond the double range is out of [0, 1), not a failed computation
    assert run(["zeros", "--k", 2, "--n", 3, "--t", "1" + "0" * 400 + "/1", "--out", tmp_path / "x.csv"]) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("t", ["1.5", "-0.5", "nan", "inf"])
@pytest.mark.parametrize("args", [
    ["zeros", "--n", 4],
    ["measure", "--n", 4, "--kind", "cdf"],
    ["measure", "--n", 4, "--kind", "hist"],
    ["spectra", "--phi", 0.5],
    ["spectra", "--phi-grid=-3:3:0.5"],
    ["free-energy", "--n", 8, "--mode", "radial"],
    ["free-energy", "--n", 8, "--mode", "singular"],
    ["free-energy", "--n", 8, "--mode", "report"],
], ids=["zeros", "measure-cdf", "measure-hist", "spectra-phi", "spectra-phi-grid",
        "free-energy-radial", "free-energy-singular", "free-energy-report"])
def test_t_outside_the_unit_interval_is_refused(tmp_path, capsys, args, t):
    # t's range is core's rule, reached by every subcommand before it writes
    out = tmp_path / "x.out"
    assert run([args[0], "--k", 2, "--t", t, *args[1:], "--out", out]) == 1
    assert "t must lie in [0, 1)" in capsys.readouterr().err
    assert not out.exists()


def _unreachable(*args, **kwargs):
    raise AssertionError("the computation ran before the output path was checked")


@pytest.mark.parametrize("target, args", [
    ((cli.zeros, "enumerate_zeros"), ["zeros", "--k", 2, "--n", 18, "--t", "0.5"]),
    ((cli.verify, "run_verification"), ["verify", "--quick"]),
], ids=["zeros", "verify"])
@pytest.mark.parametrize("out, reason", [
    ("", "--out must not be empty"),
    ("missing/r.out", "does not exist"),
], ids=["empty", "missing-dir"])
def test_out_path_refused_before_work(tmp_path, monkeypatch, capsys, target, args, out, reason):
    # zeros once enumerated 524287 zeros before refusing the path, and
    # verify --out "" passed while writing nothing
    monkeypatch.setattr(*target, _unreachable)
    path = str(tmp_path / out) if out else out
    assert run(args + ["--out", path]) == 1
    assert reason in capsys.readouterr().err


def _no_schedule(tree):
    raise AssertionError("the step schedule was built for a tree too deep to use")


@pytest.mark.parametrize("args", [
    ["zeros", "--k", 2, "--t", "0.5"],
    ["measure", "--k", 2, "--t", "0.5"],
], ids=["zeros", "measure"])
def test_deep_level_refused_before_the_schedule(tmp_path, monkeypatch, capsys, args):
    # a level of 10^7 once built a 10^7-step schedule and folded it with a
    # growing big integer before any size cap could refuse the tree
    monkeypatch.setattr(zeros.TreeSpec, "steps", property(_no_schedule))
    assert run(args + ["--n", 10**7, "--out", tmp_path / "z.csv"]) == 1
    assert "level must lie in" in capsys.readouterr().err
    assert not (tmp_path / "z.csv").exists()


def test_verify_quick_report(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(["verify", "--quick", "--seed", 0, "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = lines[:-2]
    assert checks and all(line.startswith("PASS ") for line in checks)
    assert lines[-1] == "verification passed"
    digest = lines[-2].removeprefix("report sha256: ")
    assert digest == hashlib.sha256(out.read_bytes()).hexdigest()
    text = core.json_text(verify.run_verification(seed=0, quick=True))
    assert digest == hashlib.sha256(text.encode()).hexdigest()


def test_verify_failure_exits_3(monkeypatch, capsys):
    report = {"checks": {"zero_counts": {"passed": False, "observed": {}}}, "all_passed": False}
    monkeypatch.setattr(verify, "run_verification", lambda seed, quick: report)
    assert run(["verify", "--quick"]) == 3
    out = capsys.readouterr().out
    assert "FAIL zero_counts" in out
    assert out.splitlines()[-1] == "verification FAILED"


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["zeros", "--k", 2, "--n", 6, "--t", "0.45", "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_phi_e_curve(tmp_path):
    out = tmp_path / "pe.csv"
    assert run(["phi-e", "--k", 2, "--t-grid", "0.35:0.95:0.05", "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    values = [float(b) for _, b in rows]
    assert all(y > x for x, y in zip(values, values[1:]))
    assert values[0] < 0.02 and values[-1] > 2.2


def test_grid_cap_refuses_before_allocating(tmp_path, capsys):
    # 6.5e11 points would need 4.7 TiB; one point past the cap is refused too
    too_many = cli.MAX_GRID_POINTS + 1
    cases = [
        ["phi-e", "--k", 2, "--t-grid", "0.34:0.99:1e-12"],
        ["measure", "--k", 2, "--n", 6, "--t", "0.5", "--kind", "cdf", "--grid", too_many],
        ["measure", "--k", 2, "--n", 6, "--t", "0.5", "--kind", "hist", "--bins", too_many],
    ]
    for i, args in enumerate(cases):
        out = tmp_path / f"grid{i}.csv"
        assert run(args + ["--out", out]) == 1
        assert "more than" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("args, part", [
    (["phi-e", "--k", 2, "--t-grid", "nan:0.9:0.1"], "start"),
    (["spectra", "--k", 2, "--t", "0.2", "--phi-grid", "0:inf:0.1"], "stop"),
    (["free-energy", "--k", 2, "--t", "0.5", "--mode", "radial", "--r-grid", "0.5:2.0:inf"], "step"),
    (["free-energy", "--k", 2, "--t", "0.5", "--mode", "radial", "--r-grid", "0.5:2.0:nan"], "step"),
], ids=["t-grid", "phi-grid", "r-grid-inf", "r-grid-nan"])
def test_grid_refuses_non_finite_parts(tmp_path, capsys, args, part):
    # an infinite step once gave a one-point NaN grid and an empty CSV
    out = tmp_path / "grid.csv"
    assert run(args + ["--out", out]) == 1
    assert f"non-finite {part}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, reason", [("0.5-0.6", "must be start:stop:step"), ("0.5:0.4:0.1", "bad grid")])
def test_parse_grid_refuses_a_malformed_grid(text, reason):
    with pytest.raises(ValueError, match=reason):
        cli._parse_grid(text)


def test_phi_e_refuses_a_grid_below_tc(tmp_path, capsys):
    out = tmp_path / "pe.csv"
    assert run(["phi-e", "--k", 2, "--t-grid", "0.1:0.5:0.1", "--out", out]) == 1
    assert "phi-e needs t in [t_c, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_measure_outputs(tmp_path):
    cdf = tmp_path / "cdf.csv"
    assert run(["measure", "--k", 2, "--n", 6, "--t", "0.5", "--kind", "cdf", "--grid", 101, "--out", cdf]) == 0
    rows = [line.split(",") for line in cdf.read_text().strip().splitlines()[1:]]
    m = np.array([float(b) for _, b in rows])
    assert m[0] == 0.0 and m[-1] == 1.0 and np.all(np.diff(m) >= 0)

    hist = tmp_path / "h.csv"
    assert run(["measure", "--k", 2, "--n", 6, "--t", "0.5", "--kind", "hist", "--bins", 16, "--out", hist]) == 0
    masses = [float(line.split(",")[1]) for line in hist.read_text().strip().splitlines()[1:]]
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)

    # an empty grid or histogram is refused before the file is opened
    for kind, flag, value in (("hist", "--bins", 0), ("hist", "--bins", -1), ("cdf", "--grid", 0)):
        out = tmp_path / f"empty-{kind}{value}.csv"
        assert run(["measure", "--k", 2, "--n", 6, "--t", "0.5", "--kind", kind, flag, value, "--out", out]) == 1
        assert not out.exists()


def test_spectra_json(tmp_path):
    out = tmp_path / "rep.json"
    code = run([
        "spectra", "--k", 2, "--t", "0.2", "--phi", "0.0",
        "--birkhoff-steps", 20000, "--seeds", 8, "--mme-depth", 10,
        "--dim-level", 16, "--out", out,
    ])
    assert code == 0
    doc = load_report(out)
    # the schema lists exactly the fields the report writes
    assert set(report_schema()["$defs"]["spectral_report"]["properties"]) == set(doc)
    assert doc["chi_acim_closed"] == pytest.approx(0.6238107163648711)


@pytest.mark.parametrize("flag, value, reason", [
    # zero steps would average to NaN, which json.dump writes as invalid JSON
    ("--birkhoff-steps", 0, "n_steps must be an integer >= 1"),
    # one level mean has no spread: its stderr was written as Infinity
    ("--mme-depth", 1, "depth must be an integer >= 2"),
    # level 0 leaves no scale for the dimension fit, which was once skipped
    ("--dim-level", 0, "fewer than three usable scales"),
], ids=["birkhoff-steps-0", "mme-depth-1", "dim-level-0"])
def test_spectra_refuses(tmp_path, capsys, flag, value, reason):
    out = tmp_path / "r.json"
    assert run(["spectra", "--k", 2, "--t", "0.2", "--phi", 0, flag, value, "--out", out]) == 1
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_spectra_seam_refused_for_its_reason(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["spectra", "--k", 2, "--t", "0.2", "--phi", math.pi, "--mme-depth", 4, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "seam" in err and "zero support" not in err
    assert not out.exists()


def test_spectra_gap_refused(tmp_path):
    assert run(["spectra", "--k", 2, "--t", "0.5", "--phi", "0.1", "--out", tmp_path / "r.json"]) == 1


def test_kappa_grid_csv(tmp_path):
    out = tmp_path / "kap.csv"
    assert run(["spectra", "--k", 2, "--t", "0.6666666666666666", "--phi-grid=-3.1:3.1:0.62", "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "phi,w_disk_re,w_disk_im,chi,kappa,in_support"
    flags = [int(line.split(",")[-1]) for line in lines[1:]]
    assert 0 in flags and 1 in flags  # the grid crosses the zero-free arc


def test_kappa_grid_reads_the_seam(tmp_path):
    # -pi is z = -1; the grid was once refused as a field angle outside (-pi, pi]
    out = tmp_path / "kap.csv"
    assert run(["spectra", "--k", 2, "--t", "0.7", "--phi-grid=-3.141592653589793:3.14:0.5", "--out", out]) == 0
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[0]) == -math.pi and first[-1] == "1"


def test_free_energy_radial(tmp_path):
    out = tmp_path / "rad.csv"
    assert run(["free-energy", "--k", 2, "--t", "0.5", "--n", 10, "--phi", "0.0",
                "--mode", "radial", "--r-grid", "0.5:2.0:0.25", "--out", out]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) >= 5
    assert all(math.isfinite(float(r.split(",")[1])) for r in rows)


def test_free_energy_report_json(tmp_path):
    out = tmp_path / "fe.json"
    assert run(["free-energy", "--k", 2, "--t", "0.5", "--n", 10, "--phi", "0.3",
                "--radius", "2.0", "--mode", "report", "--out", out]) == 0
    doc = load_report(out)
    # the schema lists exactly the fields the report writes
    assert set(report_schema()["$defs"]["free_energy_report"]["properties"]) == set(doc)
    assert doc["level"] == 10 and doc["k"] == 2
    assert doc["z_re"] == pytest.approx(2.0 * math.cos(0.3))
    assert doc["f_electrostatic"] == pytest.approx(doc["f_recursive"], rel=1e-3)


def test_free_energy_singular_refuses_zero_delta0(tmp_path, capsys):
    out = tmp_path / "hsing.csv"
    assert run(["free-energy", "--k", 2, "--t", "0.2", "--n", 12, "--phi", "0.0",
                "--mode", "singular", "--delta0", 0, "--out", out]) == 1
    assert "delta0 must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_free_energy_singular_refuses_a_prior_window_past_the_room(tmp_path, capsys):
    # the prior's coarsest = delta0/4 = 0.3 exceeds the room 0.2416 before the seam
    out = tmp_path / "hsing.csv"
    assert run(["free-energy", "--k", 2, "--t", "0.2", "--n", 30, "--phi", 2.9,
                "--mode", "singular", "--delta0", 1.2, "--out", out]) == 1
    assert "room" in capsys.readouterr().err
    assert not out.exists()


def test_zeros_unresolved_is_a_computation_failure(tmp_path, capsys):
    # no float64 residual reaches 1e-300, so the solve refuses
    out = tmp_path / "z.csv"
    assert run(["zeros", "--k", 2, "--n", 4, "--t", "0.5", "--tol", "1e-300", "--out", out]) == 2
    assert "float64" in capsys.readouterr().err
    assert not out.exists()


def test_spectra_gap_edge_angle_is_a_computation_failure(tmp_path, capsys):
    # inside the support, one ulp past phi_e: valid input whose disk root
    # float64 cannot separate from the circle
    out = tmp_path / "x.json"
    assert run(["spectra", "--k", 2, "--t", "0.5078407506772366",
                "--phi", "0.3278182082463264", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "computation failed" in err and "CIRCLE_BAND" in err
    assert not out.exists()


def test_readme_singular_example(tmp_path, capsys):
    out = tmp_path / "hsing.csv"
    assert run(["free-energy", "--k", 2, "--t", "0.2", "--n", 36, "--phi", "0.0",
                "--mode", "singular", "--delta0", 1.2, "--out", out]) == 0
    kappa = float(capsys.readouterr().out.split("kappa = ")[1].split()[0])
    paper = math.log(2.0) / math.log(4.0 / 3.0)
    assert abs(kappa - paper) <= 0.15 * paper


def test_free_energy_kappa_prior(tmp_path, capsys):
    # the README singular example with a prior of 1.0, which sets the order
    # m = 0 where the default's own estimate gives m = 1
    out, lib = tmp_path / "hsing.csv", tmp_path / "lib.csv"
    assert run(["free-energy", "--k", 2, "--t", "0.2", "--n", 36, "--phi", "0.0",
                "--mode", "singular", "--delta0", 1.2, "--kappa-prior", 1.0, "--out", out]) == 0
    assert "(m = 0," in capsys.readouterr().out
    free_energy.write_singular_csv(
        lib, free_energy.singular_exponent(0.0, 0.2, 2, n=36, delta0=1.2, kappa_prior=1.0)
    )
    assert out.read_bytes() == lib.read_bytes()


@pytest.mark.parametrize("args, reason", [
    # r <= 0 is F on the opposite ray, not on the ray at angle phi
    (["--t", 0.5, "--phi", 0.3, "--mode", "radial", "--r-grid=-1:-0.5:0.25"], "radius must be finite and positive"),
    (["--t", 0.5, "--phi", 0.3, "--mode", "radial", "--r-grid=0:1.5:0.5"], "radius must be finite and positive"),
    (["--t", 0.5, "--phi", 0.3, "--mode", "report", "--radius", -2], "--radius must be finite and positive"),
    (["--t", 0.5, "--phi", 0.3, "--mode", "report", "--radius", 0], "--radius must be finite and positive"),
    # a field angle outside (-pi, pi] is refused by every mode alike
    (["--t", 0.2, "--n", 20, "--phi", 4.0, "--mode", "singular", "--kappa-prior", 1.0], "field angle phi"),
    (["--t", 0.5, "--phi", 7.0, "--mode", "report"], "field angle phi"),
    (["--t", 0.5, "--phi", -math.pi, "--mode", "radial"], "field angle phi"),
], ids=["radial-negative", "radial-zero", "report-negative", "report-zero",
        "singular-phi", "report-phi", "radial-phi"])
def test_free_energy_refuses_off_ray_input(tmp_path, capsys, args, reason):
    out = tmp_path / "fe.out"
    assert run(["free-energy", "--k", 2, "--n", 8, *args, "--out", out]) == 1
    assert reason in capsys.readouterr().err
    assert not out.exists()
