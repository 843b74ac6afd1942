"""CLI behavior: golden outputs, determinism, structured errors."""

import argparse
import contextlib
import dataclasses
import enum
import io
import json
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import child_env
from kohn_spectra import cli, harmonic_spaces, operators, schatten, sobolev, spectrum
from kohn_spectra.polynomials import ExactScalar, fraction_to_string
from kohn_spectra.schatten import partial_sum

GOLDEN = Path(__file__).parent / "golden"
# the subcommands as a usage error lists them
CHOICES = "'spectrum', 'apply', 'green-solve', 'schatten', 'schatten-approx', 'sobolev-constant', 'ratio', 'verify'"

ZBAR1 = {
    "n": 2,
    "terms": [{"alpha": [0, 0], "beta": [1, 0], "re": "1/1", "im": "0/1"}],
}

# one term in each of the bidegrees (0,0), (1,0), (1,1), (0,2) and (2,1)
MIXED = {
    "n": 2,
    "terms": [
        {"alpha": [0, 0], "beta": [0, 0], "re": "1/1", "im": "0/1"},
        {"alpha": [0, 1], "beta": [0, 0], "re": "-1/3", "im": "0/1"},
        {"alpha": [1, 0], "beta": [1, 0], "re": "3/2", "im": "1/2"},
        {"alpha": [0, 0], "beta": [1, 1], "re": "2/1", "im": "-1/1"},
        {"alpha": [1, 1], "beta": [0, 1], "re": "5/4", "im": "0/1"},
    ],
}


def _checked(cp, check):
    if check and cp.returncode != 0:
        raise AssertionError(f"cli failed: {cp.returncode}\n{cp.stderr}")
    return cp


def run_cli(*args, check=True):
    """Run ``cli.main`` in this process; stdout, stderr and the exit status
    (a ``SystemExit`` code for ``--help``) come back as a CompletedProcess."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(args))
        except SystemExit as exc:
            status = exc.code
    cmd = [sys.executable, "-m", "kohn_spectra.cli", *args]
    return _checked(subprocess.CompletedProcess(cmd, status, out.getvalue(), err.getvalue()), check)


def run_cli_subprocess(*args, check=True):
    """Run ``python -m kohn_spectra.cli`` in a fresh interpreter."""
    cmd = [sys.executable, "-m", "kohn_spectra.cli", *args]
    return _checked(subprocess.run(cmd, capture_output=True, text=True, env=child_env()), check)


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


# a non-integer order: every Schatten field is a float from the rank-2 split
SCHATTEN_FLOAT = ("schatten", "--n", "3", "--r", "7/2", "--cutoff-p", "50", "--cutoff-q", "40")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("spectrum", "--n", "2", "--cutoff", "4"), "spectrum_n2_cutoff4.json"),
        (
            ("spectrum", "--n", "2", "--cutoff", "4", "--per-bidegree"),
            "spectrum_n2_cutoff4_per_bidegree.json",
        ),
        (("ratio", "--n", "2", "--s", "1", "--k-max", "5", "--format", "json"), "ratio_n2_s1.json"),
        (("verify", "--n", "2", "--max-degree", "2", "--samples", "3"), "verify_n2_degree2.json"),
        (SCHATTEN_FLOAT, "schatten_n3_r7half.json"),
        (("schatten", "--n", "2", "--r", "3", "--cutoff-p", "20", "--cutoff-q", "20"), "schatten_n2_r3.json"),
    ],
    ids=["spectrum", "spectrum-per-bidegree", "ratio", "verify", "schatten-float", "schatten-exact"],
)
def test_json_golden(argv, golden):
    assert run_cli(*argv).stdout == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("operator", ["boxb", "green", "hardy"])
def test_apply_golden(tmp_path, operator):
    f = tmp_path / "mixed.json"
    f.write_text(json.dumps(MIXED))
    cp = run_cli("apply", "--n", "2", "--input", str(f), "--operator", operator)
    assert cp.stdout == (GOLDEN / f"apply_{operator}_mixed.json").read_text()


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


def test_sobolev_constant_at_n_1000_prints_the_proof_display():
    # the best constant is read off its certificate, so huge n answers at once
    cmd = [sys.executable, "-m", "kohn_spectra.cli", "sobolev-constant", "--n", "1000"]
    cp = subprocess.run(cmd, capture_output=True, text=True, timeout=10, env=child_env())
    assert cp.returncode == 0, cp.stderr
    obj = json.loads(cp.stdout)
    assert obj["c_squared"] == fraction_to_string(sobolev.proof_display_c_squared(1000))
    assert obj["argmax_k"] == 1000**2 - 3 * 1000 + 1
    assert obj["matches_proof_display"] is True


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


def test_schatten_plot_golden(tmp_path):
    plot = tmp_path / "series.csv"
    cp = run_cli(*SCHATTEN_FLOAT, "--emit-plot", str(plot))
    assert cp.stdout == (GOLDEN / "schatten_n3_r7half.json").read_text()
    assert plot.read_text() == (GOLDEN / "schatten_n3_r7half_plot.csv").read_text()


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


def _drop_last_element(harmonic_basis):
    def patched(n, d):
        basis = harmonic_basis(n, d)
        return dataclasses.replace(basis, elements=basis.elements[:-1])

    return patched


def _halve_c_squared(best_constant):
    def patched(n):
        report = best_constant(n)
        return dataclasses.replace(report, c_squared=report.c_squared / 2)

    return patched


# check name (with a suffix where one check has two faults), then (module,
# attribute, the attribute's broken replacement built from the original);
# each breaks exactly one of verify's checks
VERIFY_FAULTS = {
    "dimension_oracle": (harmonic_spaces, "harmonic_basis", _drop_last_element),
    "eigen_identities": (harmonic_spaces, "euler_z", lambda euler_z: lambda f: euler_z(f) + f),
    "orthogonality": (
        harmonic_spaces,
        "_cross_cell_gram",
        lambda gram: lambda n, bases: {(0, 1, 0, 0): ExactScalar(Fraction(1))},
    ),
    "green_roundtrip": (operators, "residual_check", lambda check: lambda f: Fraction(1)),
    "schatten_sandwich-upper": (
        schatten,
        "upper_bound_term",
        lambda upper: lambda n, r, p, q: upper(n, r, p, q) if p >= n else 0,
    ),
    "schatten_sandwich-lower": (
        schatten,
        "lower_bound_term",
        lambda lower: lambda n, r, p, q: schatten.schatten_term(n, r, p, q) + 1,
    ),
    "sobolev_gain": (sobolev, "best_constant", _halve_c_squared),
    "sobolev_gain-equality": (
        sobolev,
        "sobolev_gain_certificate",
        lambda certificate: lambda n, f, s: dataclasses.replace(certificate(n, f, s), equality=True),
    ),
}


@pytest.mark.parametrize("case", VERIFY_FAULTS)
def test_verify_reports_a_failed_check(monkeypatch, case):
    module, name, breaking = VERIFY_FAULTS[case]
    monkeypatch.setattr(module, name, breaking(getattr(module, name)))
    cp = run_cli("verify", "--n", "2", "--max-degree", "2", "--samples", "3", check=False)
    assert cp.returncode == 1
    assert cp.stderr == ""
    obj = json.loads(cp.stdout)  # exactly one JSON object
    assert obj["passed"] is False
    failed = [c["name"] for c in obj["checks"] if not c["passed"]]
    assert failed == [case.split("-")[0]]


@pytest.mark.parametrize(
    "content, fragment",
    [
        (
            {"n": 2, "terms": [{"alpha": [1, 0, 0], "beta": [0, 0], "re": "1/1", "im": "0/1"}]},
            "term 0: multiindex",
        ),
        (None, "cannot read"),
        ("{not json", "is not valid JSON"),
        ({"n": 1, "terms": []}, '"n" must be an integer >= 2'),
        ({"n": 2, "terms": {}}, '"terms" must be a list'),
        ({"n": 2, "terms": [ZBAR1["terms"][0], 7]}, "term 1: not an object"),
        (
            {"n": 2, "terms": [dict(ZBAR1["terms"][0], beta="10")]},
            'term 0: "alpha" and "beta" must be lists',
        ),
    ],
    ids=["multiindex", "unreadable", "invalid-json", "bad-n", "terms-not-list",
         "term-not-object", "beta-not-list"],
)
def test_malformed_polynomial_names_term(tmp_path, content, fragment):
    f = tmp_path / "bad.json"
    if content is not None:
        f.write_text(content if isinstance(content, str) else json.dumps(content))
    cp = run_cli("green-solve", "--n", "2", "--input", str(f), check=False)
    assert cp.returncode == 1
    assert cp.stdout == ""
    err = json.loads(cp.stderr)
    assert list(err) == ["error"]
    assert str(f) in err["error"]
    assert fragment in err["error"]


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


def test_apply_reads_back_coefficients_past_the_int_string_limit(tmp_path):
    """fraction_to_string prints an int of any length; the parser reads it back."""
    big = Fraction(10**4341 + 1, 3)
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"n": 2, "terms": [dict(ZBAR1["terms"][0], re=fraction_to_string(big))]}))
    obj = json.loads(run_cli("apply", "--n", "2", "--input", str(f), "--operator", "green").stdout)
    (comp,) = obj["result"]["components"]
    assert comp["polynomial"]["terms"][0]["re"] == fraction_to_string(big / 2)
    out = tmp_path / "out.json"
    out.write_text(json.dumps(comp["polynomial"]))
    again = json.loads(run_cli("apply", "--n", "2", "--input", str(out), "--operator", "boxb").stdout)
    assert again["result"]["components"][0]["polynomial"]["terms"][0]["re"] == fraction_to_string(big)


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


@pytest.mark.parametrize(
    "command",
    [
        ("ratio", "--n", "2", "--s", "1001/2", "--k-max", "100"),
        ("apply", "--n", "2", "--operator", "sobolev", "--t", "2001/2", "--input"),
    ],
    ids=["ratio", "apply-sobolev"],
)
def test_float_overflow_rejected(tmp_path, command):
    if command[-1] == "--input":
        f = tmp_path / "f.json"
        f.write_text(json.dumps(ZBAR1))
        command = (*command, str(f))
    cp = run_cli_subprocess(*command, check=False)
    assert cp.returncode == 1
    assert "Traceback" not in cp.stderr
    assert "overflow" in json.loads(cp.stderr)["error"]


@pytest.mark.parametrize(
    "command",
    [
        ("schatten", "--n", "2", "--r", "2001/2", "--cutoff-p", "3", "--cutoff-q", "3"),
        ("schatten-approx", "--n", "2", "--r", "2001/2"),
        ("schatten", "--n", "2", "--r", "100000", "--cutoff-p", "3", "--cutoff-q", "3"),
        ("schatten", "--n", "2", "--r", "512", "--cutoff-p", "3", "--cutoff-q", "3"),
        ("schatten", "--n", "3", "--r", "700", "--cutoff-p", "3", "--cutoff-q", "3"),
    ],
    ids=["schatten-float", "schatten-approx", "schatten-tail", "schatten-512", "schatten-n3"],
)
def test_huge_orders_underflow(command):
    obj = json.loads(run_cli(*command).stdout)
    if command[0] == "schatten":
        assert 0 <= obj["tail_lower_float"] <= obj["tail_upper_float"] < 1e-300
    assert obj["approx_value_float"] >= 0


@pytest.mark.parametrize(
    "command",
    [
        ("schatten-approx", "--n", "2", "--r", "1e155"),
        ("schatten", "--n", "2", "--r", f"{2 * 10**200 + 1}/2", "--cutoff-p", "3", "--cutoff-q", "3"),
    ],
    ids=["schatten-approx-1e155", "schatten-2e200"],
)
def test_approximation_past_the_pole_factors_double_range(command):
    # (r-n)(r-n+1) overflows a double here, but the numerator r 4^-r n^(n-r) is already 0.0
    obj = json.loads(run_cli(*command).stdout)
    assert obj["approx_value_float"] == 0.0


def test_positive_tail_keeps_positive_upper_bound():
    # the true tail is below the smallest double; the outward-rounded bound is not 0
    cp = run_cli("schatten", "--n", "2", "--r", "1100", "--cutoff-p", "3", "--cutoff-q", "3")
    obj = json.loads(cp.stdout)
    assert obj["tail_lower_float"] == 0.0
    assert 0.0 < obj["tail_upper_float"] < 1e-300


@pytest.mark.parametrize(
    "command",
    [
        ("schatten", "--n", "200", "--r", "201", "--cutoff-p", "2", "--cutoff-q", "2"),
        ("schatten", "--n", "130", "--r", "131", "--cutoff-p", "2", "--cutoff-q", "2"),
        ("schatten-approx", "--n", "200", "--r", "201"),
    ],
    ids=["schatten-n200", "schatten-n130", "schatten-approx-n200"],
)
def test_huge_dimensions_stay_in_float_range(command):
    obj = json.loads(run_cli(*command).stdout)
    floats = [v for k, v in obj.items() if k.endswith("_float") and k != "r_float"]
    assert floats and all(0 <= v < 1 for v in floats)
    if command[0] == "schatten":
        assert obj["tail_lower_float"] <= obj["tail_upper_float"]


def test_schatten_plot_with_empty_cutoff(tmp_path):
    plot = tmp_path / "series.csv"
    run_cli(
        "schatten", "--n", "2", "--r", "3", "--cutoff-p", "0", "--cutoff-q", "5",
        "--emit-plot", str(plot), "--output", str(tmp_path / "report.json"),
    )
    assert plot.read_text().splitlines() == ["cutoff,partial_sum_float"]


def test_long_exact_rationals_print():
    obj = json.loads(run_cli("schatten", "--n", "2", "--r", "26").stdout)
    assert obj["partial_sum"] == fraction_to_string(partial_sum(2, 26, 200, 200))


def test_invalid_parameters_rejected():
    cp = run_cli("spectrum", "--n", "1", "--cutoff", "4", check=False)
    assert cp.returncode == 1
    cp = run_cli("spectrum", "--n", "2", "--cutoff", "0", check=False)
    assert cp.returncode == 1
    cp = run_cli("schatten", "--n", "2", "--r", "1/2", check=False)
    assert cp.returncode == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--n", "2", "--cutoff", "1" * 5000),
        ("schatten", "--n", "2", "--r", "3/" + "7" * 4301),
        ("ratio", "--n", "2", "--s", "1." + "5" * 5000, "--k-max", "3"),
    ],
    ids=["cutoff", "r-denominator", "s-decimals"],
)
def test_oversized_rational_flag_names_the_digit_limit(argv):
    """A flag value with more digits than int(str) reads is refused by its
    size, the limit named, and only a prefix of the value echoed back."""
    error = cli_error(*argv)
    flag = argv[3]
    assert f"argument {flag}: too many digits for a flag" in error
    assert str(sys.get_int_max_str_digits()) in error
    assert "not a rational number" not in error
    assert len(error) < 200


def test_deeply_nested_input_is_a_structured_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    status = cli.main(["apply", "--n", "2", "--operator", "green", "--input", str(path)])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": f"{path} is nested too deeply to decode as JSON"}


def test_negative_samples_rejected():
    assert "--samples" in cli_error("verify", "--n", "2", "--max-degree", "1", "--samples", "-1")
    cp = run_cli("verify", "--n", "2", "--max-degree", "1", "--samples", "0")
    assert json.loads(cp.stdout)["passed"] is True


def test_byte_identical_reruns():
    first = run_cli_subprocess("spectrum", "--n", "2", "--cutoff", "12")
    second = run_cli_subprocess("spectrum", "--n", "2", "--cutoff", "12")
    assert first.stdout == second.stdout
    third = run_cli_subprocess("verify", "--n", "2", "--max-degree", "2")
    fourth = run_cli_subprocess("verify", "--n", "2", "--max-degree", "2")
    assert third.stdout == fourth.stdout


class TestInProcessParserReuse:
    """``main`` builds each subcommand's parser once per process; no call may
    see another's arguments or defaults."""

    def call(self, capsys, *argv):
        status = cli.main(list(argv))
        return status, capsys.readouterr().out

    def test_apply_t_defaults_to_one_after_an_explicit_t(self, capsys, tmp_path):
        path = tmp_path / "zbar1.json"
        path.write_text(json.dumps(ZBAR1))
        argv = ("apply", "--n", "2", "--input", str(path), "--operator", "sobolev")
        status, out = self.call(capsys, *argv, "--t", "3")
        assert status == 0 and json.loads(out)["t"] == "3/1"
        status, out = self.call(capsys, *argv)
        assert status == 0 and json.loads(out)["t"] == "1/1"

    def test_ratio_format_defaults_to_csv_after_json(self, capsys):
        argv = ("ratio", "--n", "2", "--s", "1", "--k-max", "5")
        status, out = self.call(capsys, *argv, "--format", "json")
        assert status == 0 and json.loads(out)["n"] == 2
        status, out = self.call(capsys, *argv)
        assert status == 0 and out == (GOLDEN / "ratio_n2_s1.csv").read_text()

    def test_valid_call_after_a_usage_error(self, capsys):
        assert cli.main(["ratio", "--n", "2", "--k-max", "3"]) == 1
        capsys.readouterr()
        status, out = self.call(capsys, "ratio", "--n", "2", "--s", "1", "--k-max", "3")
        assert status == 0 and out.startswith("k,value\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("apply", "--n", "2", "--input", "f.json", "--operator", "sobolev", "--t", "nan"), "--t"),
        (("apply", "--n", "2", "--input", "f.json", "--operator", "sobolev", "--t", "1/0"), "--t"),
        (("schatten", "--n", "2", "--r", "abc"), "--r"),
        (("schatten", "--n", "two", "--r", "3"), "--n"),
        (("bogus",), "bogus"),
        ((), "command"),
        (("ratio", "--n", "2", "--k-max", "3"), "--s"),
        (("spectrum", "--n", "2", "--cutoff", "4", "--bogus"), "--bogus"),
    ],
    ids=["t-nan", "t-zero-den", "r-abc", "n-word", "unknown-subcommand", "no-subcommand",
         "missing-flag", "unknown-flag"],
)
def test_usage_error_is_a_json_error(argv, message):
    cp = run_cli(*argv, check=False)
    assert cp.returncode == 1
    assert cp.stdout == ""
    error = json.loads(cp.stderr)
    assert list(error) == ["error"] and message in error["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("apply", "--n", "2", "--input", "f.json", "--operator", "sobolev", "--t", "nan"),
         "kohn-spectra apply: argument --t: not a rational number: 'nan'"),
        (("apply", "--n", "2", "--input", "f.json", "--operator", "sobolev", "--t", "1/0"),
         "kohn-spectra apply: argument --t: not a rational number: '1/0'"),
        (("schatten", "--n", "2", "--r", "abc"), "kohn-spectra schatten: argument --r: not a rational number: 'abc'"),
        (("schatten", "--n", "two", "--r", "3"), "kohn-spectra schatten: argument --n: invalid int value: 'two'"),
        (("bogus",), "kohn-spectra: argument command: invalid choice: 'bogus' (choose from " + CHOICES + ")"),
        ((), "kohn-spectra: the following arguments are required: command"),
        (("ratio", "--n", "2", "--k-max", "3"), "kohn-spectra ratio: the following arguments are required: --s"),
        (("spectrum", "--n", "2", "--cutoff", "4", "--bogus"), "kohn-spectra spectrum: unrecognized arguments: --bogus"),
        (("apply", "--n", "2", "--input", "f.json", "--operator", "laplace"),
         "kohn-spectra apply: argument --operator: invalid choice: 'laplace' (choose from 'boxb', 'green', 'hardy', 'sobolev')"),
        (("schatten", "--n", "2", "--r", "x"), "kohn-spectra schatten: argument --r: not a rational number: 'x'"),
        (("spectrum", "--n", "2"), "kohn-spectra spectrum: the following arguments are required: --cutoff"),
        (("spectrum", "--n", "2", "--cutoff", "4", "--format", "xml"),
         "kohn-spectra spectrum: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"),
        (("solve", "--n", "2"), "kohn-spectra: argument command: invalid choice: 'solve' (choose from " + CHOICES + ")"),
        # the top-level parser reads no subcommand's arguments, so it lists them with the token before
        (("--bogus", "spectrum", "--n", "2", "--cutoff", "4"), "kohn-spectra: unrecognized arguments: --bogus --n 2 --cutoff 4"),
        (("--n", "2", "spectrum", "--cutoff", "4"), "kohn-spectra: argument command: invalid choice: '2' (choose from " + CHOICES + ")"),
        (("--", "spectrum", "--help"), "kohn-spectra: a command line must begin with its subcommand's name"),
    ],
    ids=["t-nan", "t-zero-den", "r-abc", "n-word", "unknown-subcommand", "no-subcommand", "missing-flag",
         "unknown-flag", "unknown-operator", "r-x", "missing-cutoff", "unknown-format", "solve", "flag-first",
         "n-first", "dashes-first-help"],
)
def test_usage_error_messages(argv, message):
    # the usage errors of the cases above and of the corpus, word for word
    cp = run_cli(*argv, check=False)
    assert (cp.returncode, cp.stdout) == (1, "")
    assert json.loads(cp.stderr)["error"] == message


def test_floating_point_overflow_is_a_json_error():
    # the float power (1 + k(k+2))^s is 4^1000.5 at k = 1, past a double's
    # range; the rest of the message is the C library's text
    cp = run_cli("ratio", "--n", "2", "--s", "1000.5", "--k-max", "3", check=False)
    assert (cp.returncode, cp.stdout) == (1, "")
    error = json.loads(cp.stderr)
    assert list(error) == ["error"] and error["error"].startswith("floating-point overflow: ")


@pytest.mark.parametrize(
    "argv, budget",
    [
        (("apply", "--n", "2", "--input", "<zbar1>", "--operator", "sobolev", "--t", "1e400"), spectrum._POWER_BITS),
        (("ratio", "--n", "2", "--s", "10000000", "--k-max", "3"), spectrum._POWER_BITS),
        (("schatten", "--n", "2", "--r", "1000000", "--cutoff-p", "3", "--cutoff-q", "3"), spectrum._POWER_BITS),
        (("ratio", "--n", "2", "--s", "4000", "--k-max", "5000"), sobolev._SERIES_BITS),
    ],
    ids=["apply-t-1e400", "ratio-s-1e7", "schatten-lcm-r-1e6", "ratio-series-s4000"],
)
def test_exact_power_past_the_size_budget_is_a_json_error(argv, budget, tmp_path):
    # the exact power (1 + k(k+2n-2))^e, the exact Schatten sum's lcm powers
    # 12^r and a ratio series of 5000 points, each under the power budget,
    # are refused before they start; without the budgets these runs take
    # more than 6 s, or their memory, under a 1.5 GB address-space cap
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))

    path = tmp_path / "zbar1.json"
    path.write_text(json.dumps(ZBAR1))
    cmd = [sys.executable, "-m", "kohn_spectra", *(str(path) if a == "<zbar1>" else a for a in argv)]
    cp = subprocess.run(cmd, capture_output=True, text=True, timeout=6, env=child_env(), preexec_fn=cap_memory)
    assert (cp.returncode, cp.stdout) == (1, "")
    error = json.loads(cp.stderr)["error"]
    assert f"size budget of {budget} bits" in error


@pytest.mark.parametrize("s, k_max", [("1", "20000"), ("2", "10000"), ("20", "5000")])
def test_long_exact_series_of_small_powers_runs(s, k_max):
    # over the exact-power budget in total, under the series budget: each
    # run takes well under a second
    rows = run_cli("ratio", "--n", "2", "--s", s, "--k-max", k_max).stdout.splitlines()
    assert len(rows) == 1 + int(k_max) and rows[-1].startswith(f"{k_max},")


@pytest.mark.parametrize("argv", [("--help",), ("schatten", "--help")])
def test_help_exits_zero(argv):
    cp = run_cli(*argv)
    assert cp.returncode == 0 and "usage:" in cp.stdout and cp.stderr == ""


USAGE = {
    None: "usage: kohn-spectra [-h] {spectrum,apply,green-solve,schatten,schatten-approx,sobolev-constant,ratio,verify} ...",
    "spectrum": "usage: kohn-spectra spectrum [-h] --n N [--output OUTPUT] [--format {json,csv}] --cutoff CUTOFF"
                " [--per-bidegree]",
    "apply": "usage: kohn-spectra apply [-h] --n N [--output OUTPUT] --input INPUT"
             " --operator {boxb,green,hardy,sobolev} [--t T]",
    "green-solve": "usage: kohn-spectra green-solve [-h] --n N [--output OUTPUT] --input INPUT",
    "schatten": "usage: kohn-spectra schatten [-h] --n N [--output OUTPUT] --r R [--cutoff-p CUTOFF_P]"
                " [--cutoff-q CUTOFF_Q] [--emit-plot EMIT_PLOT]",
    "schatten-approx": "usage: kohn-spectra schatten-approx [-h] --n N [--output OUTPUT] --r R",
    "sobolev-constant": "usage: kohn-spectra sobolev-constant [-h] --n N [--output OUTPUT]",
    "ratio": "usage: kohn-spectra ratio [-h] --n N [--output OUTPUT] [--format {json,csv}] --s S --k-max K_MAX",
    "verify": "usage: kohn-spectra verify [-h] --n N [--output OUTPUT] [--max-degree MAX_DEGREE] [--seed SEED]"
              " [--samples SAMPLES]",
}


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_prints_the_usage_line(command):
    # --help begins with the usage line, whitespace normalised; the top-level
    # help lists every subcommand with its help text
    argv = ("--help",) if command is None else (command, "--help")
    cli._parser.cache_clear()
    cp = run_cli(*argv)
    assert " ".join(cp.stdout.split("\n\n")[0].split()) == USAGE[command]
    if command is None:
        assert all(" ".join([name, help_text]) in " ".join(cp.stdout.split()) for name, (help_text, *_) in cli._COMMANDS.items())


@pytest.mark.parametrize(
    "argv",
    [
        ("--bogus", "spectrum", "--n", "2", "--cutoff", "4"),
        ("--", "spectrum", "--n", "2", "--cutoff", "4"),
        ("--", "spectrum"),
        ("--", "spectrum", "--help"),
        ("-x", "--", "spectrum", "--help"),
        ("--n", "2", "spectrum", "--cutoff", "4"),
        ("-x",),
        ("solve", "--n", "2"),
        (),
    ],
    ids=["flag-first", "dashes-first", "dashes-first-alone", "dashes-first-help", "flag-dashes-help", "n-first",
         "unknown-flag", "unknown-subcommand", "empty"],
)
def test_command_line_not_beginning_with_a_subcommand_is_a_json_error(argv):
    # the top-level parser sets no handler, so whatever it accepts or refuses
    # ends in one JSON error, never in a traceback
    cp = run_cli(*argv, check=False)
    assert (cp.returncode, cp.stdout) == (1, "")
    assert list(json.loads(cp.stderr)) == ["error"]


def test_top_level_parser_reads_no_subcommand_arguments():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli._COMMANDS)
    for name, subparser in sub.choices.items():
        assert [type(a) for a in subparser._actions] == [argparse._HelpAction], name


def test_main_builds_only_the_named_subcommand():
    cli._parser.cache_clear()
    run_cli("schatten", "--n", "2", "--r", "3", "--cutoff-p", "2", "--cutoff-q", "2")
    assert cli._parser.cache_info().currsize == 1
    assert " ".join(cli._parser("schatten").format_usage().split()) == (
        "usage: kohn-spectra schatten [-h] --n N [--output OUTPUT] --r R"
        " [--cutoff-p CUTOFF_P] [--cutoff-q CUTOFF_Q] [--emit-plot EMIT_PLOT]"
    )
    assert cli._parser.cache_info().hits == 1
    assert "{spectrum,apply,green-solve,schatten," in cli._parser().format_usage()


def test_module_entry_point_reads_sys_argv():
    argv = ("schatten", "--n", "2", "--r", "5/2", "--cutoff-p", "6", "--cutoff-q", "4")
    cp = subprocess.run([sys.executable, "-m", "kohn_spectra", *argv], capture_output=True, text=True, env=child_env())
    assert cp.returncode == 0 and cp.stderr == ""
    assert cp.stdout == run_cli(*argv).stdout
    assert json.loads(cp.stdout)["cutoff_q"] == 4


class TestJsonText:
    """``cli._json_text`` writes ``json.dumps(obj, indent=2)`` and a newline
    without the json module's encoder."""

    STRINGS = ["", "plain", "café", "中文", "\U0001F600", '"\\/', "\n\r\t\b\f", "\x00\x07\x1f\x7f"]
    FLOATS = [0.0, -0.0, 1e-300, 5e-324, 1e308, -2.5, float("inf"), float("-inf"), float("nan")]

    @staticmethod
    def dumps(obj):
        return json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("name", ["green_solve_zbar1.json", "sobolev_constant_n3.json"])
    def test_golden_objects(self, name):
        text = (GOLDEN / name).read_text()
        obj = json.loads(text)
        assert cli._json_text(obj) == self.dumps(obj) == text

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--n", "3", "--cutoff", "6"),
            ("schatten", "--n", "2", "--r", "2", "--cutoff-p", "5", "--cutoff-q", "5"),
            ("schatten", "--n", "3", "--r", "7/2", "--cutoff-p", "4", "--cutoff-q", "4"),
            ("ratio", "--n", "2", "--s", "1/2", "--k-max", "4", "--format", "json"),
            ("verify", "--n", "2", "--max-degree", "2", "--samples", "2"),
        ],
    )
    def test_command_outputs(self, argv):
        out = run_cli(*argv).stdout
        assert out == self.dumps(json.loads(out))

    def test_error_objects(self):
        messages = ["", 'bad "quote" \\ path/ü.json', "line\nbreak\ttab \x00\x1f", "  \U0001F600"]
        for message in messages:
            obj = {"error": message}
            assert cli._json_text(obj) == self.dumps(obj)

    INTS = [0, -1, 7, 2**70, -(3**50)]

    class Level(enum.IntEnum):
        LOW = 1
        HIGH = 12

    def random_tree(self, rng, depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(
                [
                    rng.choice(self.STRINGS),
                    rng.choice(self.FLOATS),
                    rng.uniform(-1e6, 1e6),
                    rng.choice(self.INTS),
                    rng.choice([True, False, None]),
                    rng.choice(list(self.Level)),
                ]
            )
        size = rng.randrange(4)
        shape = rng.random()
        if shape < 0.1:  # a list of plain ints
            return [rng.choice(self.INTS) for _ in range(size + 1)]
        if shape < 0.2:  # ints with a bool or an IntEnum, each written by its own type's rule
            items = [rng.choice(self.INTS) for _ in range(size + 1)]
            items[rng.randrange(len(items))] = rng.choice([True, False, self.Level.HIGH])
            return items
        if shape < 0.6:
            items = [self.random_tree(rng, depth - 1) for _ in range(size)]
            return tuple(items) if rng.random() < 0.2 else items
        keys = [rng.choice(self.STRINGS) if rng.random() < 0.3 else f"key{i}" for i in range(size)]
        return {key: self.random_tree(rng, depth - 1) for key in keys}

    def test_random_trees(self):
        rng = random.Random(2026)
        for _ in range(400):
            obj = self.random_tree(rng, 5)
            assert cli._json_text(obj) == self.dumps(obj)

    def test_unserializable_value(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json_text({"x": [object()]})
