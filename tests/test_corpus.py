"""Byte identity of every subcommand on one seeded corpus, run warm and cold.

A memo that answered differently warm and cold would change bytes only in
some call orders, so the corpus runs warm in order, warm in a seeded
shuffled order, and cold (every library memo cleared before each case), and
each pass must give the SHA-256 per group in ``golden/corpus.json``.  A
group is a subcommand, "errors" (exit 1 with one JSON error) or "witness"
(``repr(lower_bound_sum(n, n, c, c))`` along criterion 5's doubling).  A
CLI case is hashed as its argument list (the temporary directory written
``<tmp>``), exit status, stdout, stderr and written files.  After a change
meant to move these bytes, ``PYTHONPATH=src python tests/test_corpus.py``
rewrites the golden and prints each group that moved, or "no group moved".
With ``--check`` it runs one warm pass, prints the same, writes nothing and
exits 1 when a group moved: ``test_every_interpreter_prints_the_same_bytes``
runs it under each listed interpreter.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

from helpers import child_env, clear_library_memos
from kohn_spectra import cli, schatten
from kohn_spectra.polynomials import polynomial_to_dict, random_polynomial
from kohn_spectra.schatten import lower_bound_sum

GOLDEN = Path(__file__).parent / "golden" / "corpus.json"
SUBCOMMANDS = {"spectrum", "apply", "green-solve", "schatten", "schatten-approx", "sobolev-constant", "ratio", "verify"}
# the flags whose value is a path the run writes
WRITTEN = ("--output", "--emit-plot")

WITNESS_DIMENSIONS = (2, 3, 4, 12, 13, 16, 70, 80)


def corpus(tmp_path: Path) -> list[tuple[str, tuple]]:
    """(group, case) in corpus order, a case a CLI argument list or a witness
    (n, c): seeded lists over every subcommand and output flag, the seeded
    inputs written to tmp_path under fixed names; float schatten reports at
    non-integer orders from 2x1 cells to (2000, 1500), where the split t of
    the 1-d terms exceeds 0 at the largest orders; the witness at c = 100 *
    2^i, i <= 60; and the error paths."""
    rng = random.Random(2026)
    runs = []
    for i in range(6):
        n = 2 + i % 3
        path = tmp_path / f"f{i}.json"
        f = random_polynomial(rng, n, max_degree=4, max_terms=3)
        path.write_text(json.dumps(polynomial_to_dict(f)))
        common = ["--n", str(n), "--input", str(path)]
        runs.append(["green-solve", *common])
        for operator in ("boxb", "green", "hardy"):
            runs.append(["apply", *common, "--operator", operator])
        runs.append(["apply", *common, "--operator", "sobolev", "--t", rng.choice(("1", "2", "1/2"))])
    runs.append(["green-solve", "--n", "2", "--input", str(tmp_path / "f0.json"),
                 "--output", str(tmp_path / "o0.json")])
    runs.append(["apply", "--n", "3", "--input", str(tmp_path / "f1.json"), "--operator", "sobolev", "--t", "3/2",
                 "--output", str(tmp_path / "o1.json")])
    schatten_orders = (
        (2, "3", (40, 30)), (3, "4", (20, 25)), (2, "2", (30, 30)),  # integer, r = n included
        (2, "5/2", (60, 50)), (3, "7/2", (30, 40)), (4, "13/3", (25, 10)),  # rational
        (2, "2.75", (300, 200)), (3, "4.1", (1200, 900)), (4, "6.25", (2500, 2100)),  # float, past the witness head
    )
    for n, r, cutoffs in schatten_orders:
        for p, q in (cutoffs, cutoffs[::-1]):
            runs.append(["schatten", "--n", str(n), "--r", r, "--cutoff-p", str(p), "--cutoff-q", str(q)])
    for i, (n, r, p, q) in enumerate(((2, "3", 30, 20), (3, "7/2", 40, 60), (2, "2.75", 1500, 1200))):
        runs.append(["schatten", "--n", str(n), "--r", r, "--cutoff-p", str(p), "--cutoff-q", str(q),
                     "--emit-plot", str(tmp_path / f"plot{i}.csv"), "--output", str(tmp_path / f"report{i}.json")])
    for n, r in ((2, "3"), (3, "7/2"), (4, "4.1"), (7, "15/2")):
        runs.append(["schatten-approx", "--n", str(n), "--r", r])
    runs.append(["schatten-approx", "--n", "3", "--r", "4", "--output", str(tmp_path / "approx.json")])
    # orders above n whose double is n
    for n, r in ((2, "2.0000000000000000001"), (3, "3.00000000000000000001")):
        runs.append(["schatten", "--n", str(n), "--r", r, "--cutoff-p", "3", "--cutoff-q", "3"])
    runs.append(["schatten-approx", "--n", "2", "--r", "2.0000000000000000001"])
    runs += [["sobolev-constant", "--n", str(n)] for n in (2, 3, 5, 10)]
    runs.append(["sobolev-constant", "--n", "4", "--output", str(tmp_path / "constant.json")])
    for n, s, k_max in ((2, "1", 6), (3, "1/2", 8), (4, "2", 5)):
        for fmt in ("csv", "json"):
            runs.append(["ratio", "--n", str(n), "--s", s, "--k-max", str(k_max), "--format", fmt])
    runs.append(["ratio", "--n", "2", "--s", "0.25", "--k-max", "4", "--output", str(tmp_path / "ratio.csv")])
    for n, cutoff in ((2, "12"), (3, "30"), (4, "25/2")):
        for fmt in ("json", "csv"):
            runs.append(["spectrum", "--n", str(n), "--cutoff", cutoff, "--format", fmt])
            runs.append(["spectrum", "--n", str(n), "--cutoff", cutoff, "--format", fmt, "--per-bidegree"])
    runs.append(["spectrum", "--n", "2", "--cutoff", "9", "--output", str(tmp_path / "spectrum.json")])
    runs.append(["verify", "--n", "2", "--max-degree", "2"])
    runs.append(["verify", "--n", "3", "--max-degree", "2", "--samples", "3",
                 "--output", str(tmp_path / "verify.json")])
    runs += [
        ["schatten", "--n", str(n), "--r", str(r), "--cutoff-p", str(P), "--cutoff-q", str(Q)]
        for n in (2, 3, 4, 7, 25, 60)
        for r in (n + Fraction(1, 2), n + Fraction(1, 3), n + Fraction(29, 4), Fraction(2201, 2))
        for P, Q in ((0, 1), (3, 3), (50, 70), (400, 400), (2000, 1500))
    ]
    for i, (n, r, P, Q) in enumerate(((2, Fraction(5, 2), 3000, 3200), (7, Fraction(97, 12), 600, 400))):
        runs.append(["schatten", "--n", str(n), "--r", str(r), "--cutoff-p", str(P), "--cutoff-q", str(Q),
                     "--emit-plot", str(tmp_path / f"float-plot{i}.csv")])
    (tmp_path / "bad.json").write_text("{")
    errors = [
        ["green-solve", "--n", "3", "--input", str(tmp_path / "f0.json")],  # f0 is on C^2
        ["apply", "--n", "2", "--input", str(tmp_path / "missing.json"), "--operator", "green"],
        ["apply", "--n", "2", "--input", str(tmp_path / "bad.json"), "--operator", "boxb"],
        ["apply", "--n", "2", "--input", str(tmp_path / "f0.json"), "--operator", "laplace"],
        ["schatten", "--n", "2", "--r", "1/2"],
        ["schatten", "--n", "1", "--r", "3"],
        ["schatten", "--n", "2", "--r", "x"],
        ["schatten", "--n", "2", "--r", "3", "--cutoff-q", "0"],
        ["schatten", "--n", "2", "--r", "3", "--output", str(tmp_path / "absent" / "report.json")],
        ["schatten-approx", "--n", "3", "--r", "3"],
        ["spectrum", "--n", "2"],
        ["spectrum", "--n", "2", "--cutoff", "4", "--format", "xml"],
        ["ratio", "--n", "2", "--s", "1", "--k-max", "-1"],
        ["sobolev-constant", "--n", "0"],
        ["verify", "--n", "2", "--samples", "-1"],
        ["solve", "--n", "2"],
        [],
    ]
    witnesses = [("witness", (n, 100 * 2**i)) for n in WITNESS_DIMENSIONS for i in range(61)]
    return [(argv[0], tuple(argv)) for argv in runs] + witnesses + [("errors", tuple(argv)) for argv in errors]


def record(group: str, case: tuple, tmp_path: Path) -> str:
    """The line a case adds to its group's hash: a witness's repr line, or a
    CLI run's argument list, exit status, stdout, stderr and written files,
    each file a WRITTEN flag names read (None if absent), then removed."""
    if group == "witness":
        n, c = case
        return f"{n} {c} {lower_bound_sum(n, n, c, c)!r}\n"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(case))
    if group == "errors":
        assert status == 1 and json.loads(err.getvalue())["error"], case
    else:
        assert status == 0 and not err.getvalue(), case
    written = []
    for flag, path in zip(case, map(Path, case[1:])):
        if flag in WRITTEN:
            written.append(path.read_text() if path.exists() else None)
            path.unlink(missing_ok=True)
    text = json.dumps([list(case), status, out.getvalue(), err.getvalue(), written])
    return text.replace(str(tmp_path), "<tmp>") + "\n"


def corpus_hashes(tmp_path: Path, order: str = "warm") -> dict[str, str]:
    """One SHA-256 per group over the records of its cases in corpus order,
    the cases run in order "warm" (corpus order), "shuffled" (a seeded
    shuffled order, memos kept) or "cold" (every library memo cleared before
    each case)."""
    cases = corpus(tmp_path)
    indices = list(range(len(cases)))
    if order == "shuffled":
        random.Random(27).shuffle(indices)
    records = [""] * len(cases)
    for i in indices:
        if order == "cold":
            clear_library_memos()
        records[i] = record(*cases[i], tmp_path)
    hashes = {}
    for (group, _), text in zip(cases, records):
        hashes.setdefault(group, hashlib.sha256()).update(text.encode())
    return {group: h.hexdigest() for group, h in hashes.items()}


def test_warm_and_cold_runs_print_the_same_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == SUBCOMMANDS | {"errors", "witness"}
    clear_library_memos()
    assert corpus_hashes(tmp_path, "warm") == golden
    sums = schatten._direct_sum.cache_info()
    assert sums.currsize and sums.hits
    assert corpus_hashes(tmp_path, "shuffled") == golden
    assert corpus_hashes(tmp_path, "cold") == golden


def test_corpus_covers_both_divisions_and_the_split(tmp_path):
    # the witness constant (n-1)!(n-2)! is below 2^53 up to n = 12, a double
    # up to n = 15 and not at n = 16; at r = 2201/2 and n = 60 the q side's
    # terms at Q = 1500 split with t > 0
    constants = {n: math.factorial(n - 1) * math.factorial(n - 2) for n in WITNESS_DIMENSIONS}
    assert constants[12] < 2**53 < constants[13] == float(constants[13])
    assert float(constants[16]) != constants[16]
    assert schatten._split(58, 1100.5, 1500, 2) > 0
    # at c = 100 the p sides of n = 70 and 80 end inside the witness's head and
    # are summed directly; every other witness sum passes it to Euler-Maclaurin
    assert {n for n in WITNESS_DIMENSIONS if n + schatten._WITNESS_HEAD > 100} == {70, 80}
    # 105 lists of the CLI slice (17 errors), 122 float schatten lists (2 plots) and 8 * 61 witness lines
    groups = [group for group, _ in corpus(tmp_path)]
    assert (len(groups), groups.count("errors"), groups.count("witness")) == (105 + 122 + 488, 17, 488)


# the Pythons besides pytest's own that the CLI's bytes are checked under, at
# pyenv's and miniconda's install paths in the home directory
OTHER_PYTHONS = [
    *(Path.home() / ".pyenv" / "versions" / version / "bin" / "python3" for version in ("3.10.13", "3.12.1", "3.13.0")),
    Path.home() / "miniconda" / "bin" / "python3.13",
]
# command lines whose errors argparse releases word differently, besides the
# invalid choices of the corpus's errors group: an invalid subcommand after a
# flag, and a "--" before the subcommand's name
RELEASE_SENSITIVE = [
    ["--n", "2", "spectrum", "--cutoff", "4"],
    ["--", "spectrum", "--help"],
    ["-x", "--", "spectrum", "--help"],
    ["--", "spectrum", "--n", "2", "--cutoff", "4"],
]
RECORD_LINES = (
    "import json, sys; from pathlib import Path; from test_corpus import record\n"
    "sys.stdout.write(''.join(record('errors', tuple(argv), Path(sys.argv[2])) for argv in json.loads(sys.argv[1])))"
)


def test_every_interpreter_prints_the_same_bytes(tmp_path):
    """Under each of OTHER_PYTHONS the check-only corpus moves no group, and
    each RELEASE_SENSITIVE line ends in one JSON error with the bytes it has
    under pytest's Python.  --help is left out: its text differs by argparse
    release."""
    missing = [str(python) for python in OTHER_PYTHONS if not python.exists()]
    if missing:
        warnings.warn(f"not found, so not checked: {', '.join(missing)}")
    found = [str(python) for python in OTHER_PYTHONS if python.exists()]
    if not found:
        import pytest  # here alone: the check-only run imports this module where pytest is absent

        pytest.skip("none of the listed Pythons is installed")
    expected = "".join(record("errors", tuple(argv), tmp_path) for argv in RELEASE_SENSITIVE)
    here = Path(__file__).parent

    def run(cmd):
        return subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=here, env=child_env())

    with ThreadPoolExecutor(len(found)) as pool:
        checks = pool.map(run, [[python, "test_corpus.py", "--check"] for python in found])
        lines = pool.map(run, [[python, "-c", RECORD_LINES, json.dumps(RELEASE_SENSITIVE), str(tmp_path)]
                               for python in found])
        for python, check, line in zip(found, checks, lines):
            assert (check.returncode, check.stdout, check.stderr) == (0, "no group moved\n", ""), python
            assert (line.returncode, line.stdout, line.stderr) == (0, expected, ""), python


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Rewrite golden/corpus.json and print the groups that moved.")
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 when a group moved")
    check = parser.parse_args().check
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as directory:
        new = corpus_hashes(Path(directory))
    if not check:
        GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
    moved = sorted(group for group in old.keys() | new.keys() if old.get(group) != new.get(group))
    sys.stdout.write("".join(f"moved: {group}\n" for group in moved) or "no group moved\n")
    sys.exit(1 if check and moved else 0)
