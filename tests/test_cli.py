"""CLI behavior: golden outputs, determinism, structured errors."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

ZBAR1 = {
    "n": 2,
    "terms": [{"alpha": [0, 0], "beta": [1, 0], "re": "1/1", "im": "0/1"}],
}


def run_cli(*args, env=None, check=True):
    cmd = [sys.executable, "-m", "kohn_spectra.cli", *args]
    cp = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if check and cp.returncode != 0:
        raise AssertionError(f"cli failed: {cp.returncode}\n{cp.stderr}")
    return cp


def test_spectrum_csv_golden():
    cp = run_cli("spectrum", "--n", "2", "--cutoff", "4", "--format", "csv")
    assert cp.stdout == (GOLDEN / "spectrum_n2_cutoff4.csv").read_text()
    lines = cp.stdout.strip().splitlines()
    assert len(lines) == 3  # header plus two aggregated rows
    assert lines[1] == '2,1,2,"(0,1)"'
    assert lines[2] == '4,1,6,"(0,2);(1,1)"'


def test_spectrum_per_bidegree_golden():
    cp = run_cli(
        "spectrum", "--n", "2", "--cutoff", "4", "--format", "csv", "--per-bidegree"
    )
    assert cp.stdout == (GOLDEN / "spectrum_n2_cutoff4_per_bidegree.csv").read_text()
    assert cp.stdout.splitlines()[0] == "p,q,eigenvalue_num,eigenvalue_den,multiplicity"


def test_spectrum_json():
    cp = run_cli("spectrum", "--n", "3", "--cutoff", "4")
    obj = json.loads(cp.stdout)
    assert obj["entries"] == [
        {
            "eigenvalue": "4/1",
            "multiplicity": 3,
            "contributors": [{"p": 0, "q": 1}],
        }
    ]


def test_green_solve_golden(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(ZBAR1))
    cp = run_cli("green-solve", "--n", "2", "--input", str(f))
    assert cp.stdout == (GOLDEN / "green_solve_zbar1.json").read_text()
    obj = json.loads(cp.stdout)
    assert obj["residual"] == "0/1"
    assert obj["solution"]["terms"][0]["re"] == "1/2"


def test_sobolev_constant_golden():
    cp = run_cli("sobolev-constant", "--n", "3")
    assert cp.stdout == (GOLDEN / "sobolev_constant_n3.json").read_text()
    obj = json.loads(cp.stdout)
    assert obj["c_squared"] == "3/8"
    assert obj["argmax_k"] == 1
    assert obj["matches_theorem_display"] is False


def test_ratio_csv_golden():
    cp = run_cli("ratio", "--n", "2", "--s", "1", "--k-max", "5")
    assert cp.stdout == (GOLDEN / "ratio_n2_s1.csv").read_text()
    assert cp.stdout.splitlines()[1] == "1,1/1"


def test_ratio_float_path():
    cp = run_cli("ratio", "--n", "2", "--s", "1/2", "--k-max", "3")
    header, first, *_ = cp.stdout.splitlines()
    assert header == "k,value_float"
    assert first.startswith("1,0.5")


def test_schatten_report_fields():
    cp = run_cli("schatten", "--n", "2", "--r", "3", "--cutoff-p", "1", "--cutoff-q", "1")
    obj = json.loads(cp.stdout)
    assert obj["partial_sum"] == "19/64"
    assert obj["verdict"] == "Converges"
    assert obj["approx_value_float"] == pytest.approx(67 / 256)


def test_schatten_divergent_inf_tail():
    cp = run_cli("schatten", "--n", "2", "--r", "2", "--cutoff-p", "5", "--cutoff-q", "5")
    obj = json.loads(cp.stdout)
    assert obj["verdict"] == "Diverges"
    assert obj["tail_upper_float"] == "inf"
    assert obj["approx_value_float"] is None


def test_schatten_plot_emission(tmp_path):
    plot = tmp_path / "series.csv"
    run_cli(
        "schatten", "--n", "2", "--r", "3",
        "--cutoff-p", "8", "--cutoff-q", "8", "--emit-plot", str(plot),
        "--output", str(tmp_path / "report.json"),
    )
    lines = plot.read_text().splitlines()
    assert lines[0] == "cutoff,partial_sum_float"
    assert len(lines) == 9
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)


def test_schatten_approx():
    cp = run_cli("schatten-approx", "--n", "2", "--r", "3")
    obj = json.loads(cp.stdout)
    assert obj["approx_value_float"] == pytest.approx(67 / 256)


def test_apply_sobolev_half_power(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(ZBAR1))
    cp = run_cli("apply", "--n", "2", "--input", str(f), "--operator", "sobolev", "--t", "1/2")
    obj = json.loads(cp.stdout)
    assert obj["result"]["components"][0]["factor_float"] == pytest.approx(2.0)


def test_apply_boxb(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(ZBAR1))
    cp = run_cli("apply", "--n", "2", "--input", str(f), "--operator", "boxb")
    obj = json.loads(cp.stdout)
    (comp,) = obj["result"]["components"]
    assert comp["polynomial"]["terms"][0]["re"] == "2/1"


def test_verify_passes():
    cp = run_cli("verify", "--n", "2", "--max-degree", "3", "--samples", "10")
    obj = json.loads(cp.stdout)
    assert obj["passed"] is True
    assert {c["name"] for c in obj["checks"]} == {
        "dimension_oracle",
        "eigen_identities",
        "orthogonality",
        "green_roundtrip",
        "schatten_sandwich",
        "sobolev_gain",
    }
    assert all(c["passed"] for c in obj["checks"])


def test_malformed_polynomial_names_term(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({
        "n": 2,
        "terms": [{"alpha": [1, 0, 0], "beta": [0, 0], "re": "1/1", "im": "0/1"}],
    }))
    cp = run_cli("green-solve", "--n", "2", "--input", str(f), check=False)
    assert cp.returncode == 1
    err = json.loads(cp.stderr)
    assert "term 0" in err["error"]


def test_dimension_flag_mismatch(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(ZBAR1))
    cp = run_cli("green-solve", "--n", "3", "--input", str(f), check=False)
    assert cp.returncode == 1
    assert "C^2" in json.loads(cp.stderr)["error"]


def cli_error(*args):
    """Run a command that must fail with a JSON error on stderr and status 1."""
    cp = run_cli(*args, check=False)
    assert cp.returncode == 1
    return json.loads(cp.stderr)["error"]


def test_zero_denominator_rejected(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"n": 2, "terms": [dict(ZBAR1["terms"][0], re="1/0")]}))
    assert "zero denominator" in cli_error("green-solve", "--n", "2", "--input", str(f))


@pytest.mark.parametrize("alpha", [[1.7, 0], ["1", 0], [True, 0]], ids=["float", "str", "bool"])
def test_non_integer_multiindex_rejected(tmp_path, alpha):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"n": 2, "terms": [dict(ZBAR1["terms"][0], alpha=alpha)]}))
    assert "term 0" in cli_error("green-solve", "--n", "2", "--input", str(f))


@pytest.mark.parametrize(
    "command",
    [
        ("spectrum", "--n", "2", "--cutoff", "4", "--output"),
        ("schatten", "--n", "2", "--r", "3", "--cutoff-p", "4", "--cutoff-q", "4", "--emit-plot"),
    ],
    ids=["output", "emit-plot"],
)
def test_unwritable_path_rejected(tmp_path, command):
    path = tmp_path / "missing_dir" / "x.csv"
    assert "cannot write" in cli_error(*command, str(path))


def test_invalid_parameters_rejected():
    cp = run_cli("spectrum", "--n", "1", "--cutoff", "4", check=False)
    assert cp.returncode == 1
    cp = run_cli("spectrum", "--n", "2", "--cutoff", "0", check=False)
    assert cp.returncode == 1
    cp = run_cli("schatten", "--n", "2", "--r", "1/2", check=False)
    assert cp.returncode == 1


def test_byte_identical_reruns():
    first = run_cli("spectrum", "--n", "2", "--cutoff", "12")
    second = run_cli("spectrum", "--n", "2", "--cutoff", "12")
    assert first.stdout == second.stdout
    third = run_cli("verify", "--n", "2", "--max-degree", "2")
    fourth = run_cli("verify", "--n", "2", "--max-degree", "2")
    assert third.stdout == fourth.stdout
