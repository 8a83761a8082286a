import json
import math

import jsonschema
import numpy as np
import pytest

from cayley_ising.cli import main


def run(args):
    return main([str(a) for a in args])


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
    doc = json.loads(out.read_text())
    schema = json.loads(
        (__import__("pathlib").Path(__import__("cayley_ising").__file__).parent / "schemas" / "report.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    assert doc["t"] == "1/5"


def test_exit_codes(tmp_path):
    assert run(["zeros", "--k", 1, "--n", 1, "--t", "0.5", "--out", tmp_path / "x.csv"]) == 1
    assert run(["zeros", "--k", 2, "--n", 1, "--t", "1.5", "--out", tmp_path / "x.csv"]) == 1
    assert run(["zeros", "--k", 2, "--n", 1, "--t", "0.5", "--out", tmp_path / "no" / "x.csv"]) == 1
    assert run(["nonsense"]) == 1


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
    # 6.5e11 points would need 4.7 TiB
    assert run(["phi-e", "--k", 2, "--t-grid", "0.34:0.99:1e-12", "--out", tmp_path / "pe.csv"]) == 1
    assert "more than" in capsys.readouterr().err
    assert not (tmp_path / "pe.csv").exists()


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


def test_spectra_json(tmp_path):
    out = tmp_path / "rep.json"
    code = run([
        "spectra", "--k", 2, "--t", "0.2", "--phi", "0.0",
        "--birkhoff-steps", 20000, "--seeds", 8, "--mme-depth", 10,
        "--dim-level", 16, "--out", out,
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    schema = json.loads(
        (__import__("pathlib").Path(__import__("cayley_ising").__file__).parent / "schemas" / "report.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    assert doc["chi_acim_closed"] == pytest.approx(0.6238107163648711)


def test_spectra_refuses_zero_birkhoff_steps(tmp_path):
    # zero steps would average to NaN, which json.dump writes as invalid JSON
    out = tmp_path / "r.json"
    assert run(["spectra", "--k", 2, "--t", "0.2", "--phi", 0, "--birkhoff-steps", 0, "--out", out]) == 1
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


def test_free_energy_radial(tmp_path):
    out = tmp_path / "rad.csv"
    assert run(["free-energy", "--k", 2, "--t", "0.5", "--n", 10, "--phi", "0.0",
                "--mode", "radial", "--r-grid", "0.5:2.0:0.25", "--out", out]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) >= 5
    assert all(math.isfinite(float(r.split(",")[1])) for r in rows)


def test_readme_singular_example(tmp_path, capsys):
    out = tmp_path / "hsing.csv"
    assert run(["free-energy", "--k", 2, "--t", "0.2", "--n", 36, "--phi", "0.0",
                "--mode", "singular", "--delta0", 1.2, "--out", out]) == 0
    kappa = float(capsys.readouterr().out.split("kappa = ")[1].split()[0])
    paper = math.log(2.0) / math.log(4.0 / 3.0)
    assert abs(kappa - paper) <= 0.15 * paper
