"""Byte identity of the float Schatten path on a seeded corpus.

The exact goldens pin one float ``schatten`` report; this module pins about
150 float outputs by one SHA-256 per group in ``golden/float_corpus.json``:

- ``schatten``: CLI stdout at non-integer orders r in {n+1/2, n+1/3,
  n+29/4, 2201/2} for n in {2, 3, 4, 7, 25, 60} and five cutoff pairs,
  from 2x1 cells to (2000, 1500), where the split t of the 1-d terms
  exceeds 0 at the largest orders;
- ``plot``: two ``--emit-plot`` CSVs;
- ``witness``: ``repr(lower_bound_sum(n, n, c, c))`` along criterion 5's
  doubling c = 100 * 2^i, i <= 60, for n in {2, 3, 4, 12, 13, 16}: the
  constant (n-1)!(n-2)! passes 2^53 at n = 13 and stops being a double at
  n = 16.

The cases run in a seeded shuffled order, so each group's bytes are also
those of a process whose memos were warmed in another order.  After a
change that is meant to move these bytes, regenerate the file with
``PYTHONPATH=src python tests/test_float_corpus.py``.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from kohn_spectra import cli, schatten
from kohn_spectra.schatten import lower_bound_sum

GOLDEN = Path(__file__).parent / "golden" / "float_corpus.json"

CUTOFFS = ((0, 1), (3, 3), (50, 70), (400, 400), (2000, 1500))
PLOTS = ((2, Fraction(5, 2), 3000, 3200), (7, Fraction(97, 12), 600, 400))
WITNESS_DIMENSIONS = (2, 3, 4, 12, 13, 16)
DOUBLINGS = 60


def cases(plot_dir: Path) -> list[tuple[str, tuple]]:
    """(group, case) in grid order; a case is a CLI argument list or a witness (n, c)."""
    grid = []
    for n in (2, 3, 4, 7, 25, 60):
        for r in (n + Fraction(1, 2), n + Fraction(1, 3), n + Fraction(29, 4), Fraction(2201, 2)):
            for P, Q in CUTOFFS:
                grid.append(("schatten", ("schatten", "--n", str(n), "--r", str(r),
                                          "--cutoff-p", str(P), "--cutoff-q", str(Q))))
    for i, (n, r, P, Q) in enumerate(PLOTS):
        grid.append(("plot", ("schatten", "--n", str(n), "--r", str(r), "--cutoff-p", str(P),
                              "--cutoff-q", str(Q), "--emit-plot", str(plot_dir / f"plot{i}.csv"))))
    for n in WITNESS_DIMENSIONS:
        grid += [("witness", (n, 100 * 2**i)) for i in range(DOUBLINGS + 1)]
    return grid


def run(group: str, case: tuple) -> str:
    if group == "witness":
        n, c = case
        return f"{n} {c} {lower_bound_sum(n, n, c, c)!r}\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(case)) == 0, case
    if group == "plot":
        return Path(case[-1]).read_text() + out.getvalue()
    return out.getvalue()


def corpus_hashes(plot_dir: Path, seed: int = 27) -> dict[str, str]:
    """One SHA-256 per group over its outputs, concatenated in grid order,
    the cases evaluated in a seeded shuffled order."""
    grid = cases(plot_dir)
    order = list(range(len(grid)))
    random.Random(seed).shuffle(order)
    outputs = [""] * len(grid)
    for i in order:
        outputs[i] = run(*grid[i])
    hashes = {}
    for (group, _), text in zip(grid, outputs):
        hashes.setdefault(group, hashlib.sha256())
        hashes[group].update(text.encode())
    return {group: h.hexdigest() for group, h in hashes.items()}


def test_float_outputs_match_the_corpus(tmp_path):
    assert corpus_hashes(tmp_path) == json.loads(GOLDEN.read_text())


def test_corpus_covers_both_divisions_and_the_split():
    # the witness constant (n-1)!(n-2)! is below 2^53 up to n = 12, a double
    # up to n = 15 and not at n = 16; at r = 2201/2 and n = 60 the q side's
    # terms at Q = 1500 split with t > 0
    constants = {n: math.factorial(n - 1) * math.factorial(n - 2) for n in WITNESS_DIMENSIONS}
    assert constants[12] < 2**53 < constants[13] == float(constants[13])
    assert float(constants[16]) != constants[16]
    assert schatten._split(58, 1100.5, 1500, 2) > 0
    assert sum(group == "schatten" for group, _ in cases(Path("."))) == 120


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        GOLDEN.write_text(json.dumps(corpus_hashes(Path(directory)), indent=2) + "\n")
    sys.stdout.write(GOLDEN.read_text())
