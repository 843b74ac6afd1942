"""The library's memos: each is bounded or parameterless, none outlives the
objects the polynomial layer computed it for, and none changes an output.

A memo that answered differently warm and cold would change bytes only in
some call orders, so a seeded corpus of CLI runs over every subcommand and
output flag runs warm (one process, in order) and cold (every memo cleared
before each run), and both must give the SHA-256 per subcommand committed in
``golden/cli_corpus.json``.  After a change that is meant to move these
bytes, regenerate the file with ``PYTHONPATH=src python tests/test_memos.py``.
"""

import ast
import contextlib
import gc
import hashlib
import io
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

import kohn_spectra
from helpers import clear_library_memos, library_memos
from kohn_spectra import Polynomial, cli, decompose, residual_check, schatten
from kohn_spectra.polynomials import polynomial_to_dict, random_polynomial

SRC = Path(kohn_spectra.__file__).parent


def _has_parameters(function: ast.FunctionDef) -> bool:
    a = function.args
    return bool(a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)


# a module-level name bound to one of these, or to a display or comprehension of
# a dict, list or set, is a hand-written store if a function mutates it
CONTAINERS = ("dict", "list", "set", "array")
MUTATORS = ("pop", "popitem", "setdefault", "update", "clear", "append", "extend", "fromlist")


def _is_container(value: ast.expr | None) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    func = value.func if isinstance(value, ast.Call) else None
    return getattr(func, "id", None) in CONTAINERS or getattr(func, "attr", None) in CONTAINERS


def _mutated_stores(tree: ast.Module) -> dict[str, int]:
    """{name: line of its first mutation} for every module-level container
    that a function body mutates: a subscript store or del, or a call of one
    of MUTATORS on the name."""
    stores = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(node.value)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    mutated = {}
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in stores:
                mutated.setdefault(target.id, node.lineno)
    return mutated


def memo_faults(source: str) -> tuple[list[str], int]:
    """(faults, memos) for a module's source: every ``lru_cache`` must be
    called with an integer ``maxsize``, ``functools.cache`` may wrap only
    a function with no parameters, as a decorator or as ``cache(name)``, and
    no function may mutate a module-level dict, list, set or array: such a
    hand-written store counts as a memo and a fault."""
    tree = ast.parse(source)
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name: a.name for a in node.names}
    functions = {
        node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    faults, memos = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            kind = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            kind = names.get(node.id)
        else:
            continue
        if kind not in ("lru_cache", "cache"):
            continue
        memos += 1
        parent = parents.get(node)
        called = isinstance(parent, ast.Call) and parent.func is node
        where = f"line {node.lineno}"
        if kind == "lru_cache":
            size = None
            if called:
                given = [k.value for k in parent.keywords if k.arg == "maxsize"] + parent.args[:1]
                size = given[0] if given else None
            if not (isinstance(size, ast.Constant) and type(size.value) is int):
                faults.append(f"{where}: lru_cache without an integer maxsize")
            continue
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)) and node in parent.decorator_list:
            wrapped = parent
        elif called and len(parent.args) == 1 and isinstance(parent.args[0], ast.Name):
            wrapped = functions.get(parent.args[0].id)
        else:
            wrapped = None
        if wrapped is None or _has_parameters(wrapped):
            faults.append(f"{where}: functools.cache on a function with parameters")
    for name, line in _mutated_stores(tree).items():
        memos += 1
        faults.append(f"line {line}: module-level {name} mutated by a function; use a bounded functools cache")
    return faults, memos


def test_every_library_memo_is_bounded_or_parameterless():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        faults, memos = memo_faults(path.read_text())
        assert not faults, (path.name, faults)
        total += memos
    # schatten._direct_sum, _prefix, _bracket_head and _expansion, and cli._parser
    assert total == 5


@pytest.mark.parametrize(
    "source, faulty",
    [
        ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): pass", True),
        ("from functools import lru_cache\n@lru_cache\ndef f(x): pass", True),
        ("from functools import lru_cache as memo\n@memo()\ndef f(x): pass", True),
        ("import functools as ft\ng = ft.lru_cache(maxsize=True)(len)", True),
        ("import functools\n@functools.cache\ndef f(x): pass", True),
        ("from functools import cache\ndef f(*args): pass\ng = cache(f)", True),
        ("import functools\ng = functools.cache(len)", True),
        ("import functools\n@functools.lru_cache(maxsize=64)\ndef f(x): pass", False),
        ("from functools import lru_cache\n@lru_cache(8)\ndef f(x): pass", False),
        ("import functools\ndef f(): pass\ng = functools.cache(f)", False),
        ("from functools import cache\n@cache\ndef f(): pass", False),
    ],
)
def test_memo_guard_reads_every_form(source, faulty):
    faults, memos = memo_faults(source)
    assert memos == 1
    assert bool(faults) == faulty, faults


@pytest.mark.parametrize(
    "source, faulty",
    [
        ("_s: dict[tuple, int] = {}\ndef f(k): _s[k] = 1", True),
        ("_s = dict()\ndef f(k): del _s[k]", True),
        ("_s = {}\ndef f(k):\n    _s[k] += 1", True),
        ("_s = {}\ndef f(k): return _s.pop(k, None)", True),
        ("_s = {}\ndef f(): _s.popitem()", True),
        ("_s = {}\nf = lambda k: _s.setdefault(k, [])", True),
        ("_s = {}\ndef f(d): _s.update(d)", True),
        ("_s = set()\ndef f(): _s.clear()", True),
        ("_s = []\ndef f(x): _s.append(x)", True),
        ("_s = [x for x in ()]\nclass C:\n    def f(self, xs): _s.extend(xs)", True),
        ("from array import array\n_s = array('d')\ndef f(xs): _s.fromlist(xs)", True),
        ("import array\n_s = array.array('d')\ndef f(x): _s[0] = x", True),
        # read-only tables, local containers and module-level set-up are not stores
        ("_s = {int: str}\ndef f(x): return _s.get(type(x))", False),
        ("_s = {}\n_s[1] = 2\ndef f(): return _s[1]", False),
        ("_s = ()\ndef f(): return _s", False),
        ("def f(x):\n    s = []\n    s.append(x)\n    return s", False),
    ],
)
def test_memo_guard_sees_hand_written_stores(source, faulty):
    """A module-level container that a function mutates is a memo and a fault."""
    faults, memos = memo_faults(source)
    assert memos == faulty
    assert bool(faults) == faulty, faults


def test_the_polynomial_layer_retains_nothing():
    # n = 13 is a dimension no other test peels or pairs in, so a memo keyed
    # by it would be filled here; with none, freeing f frees everything
    n = 13

    def retained(operation, e: int) -> int:
        f = Polynomial.monomial(n, (e,) + (0,) * (n - 1), (e,) + (0,) * (n - 1))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = operation(f)
            del f, result
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    assert retained(decompose, 3) < 16 * 1024
    assert retained(residual_check, 2) < 16 * 1024


GOLDEN = Path(__file__).parent / "golden" / "cli_corpus.json"
SUBCOMMANDS = {"spectrum", "apply", "green-solve", "schatten", "schatten-approx", "sobolev-constant", "ratio", "verify"}
# the flags whose value is a path the run writes
WRITTEN = ("--output", "--emit-plot")


def corpus(tmp_path: Path) -> list[tuple[str, list[str]]]:
    """Seeded (group, argument list) pairs over every subcommand and output
    flag, the seeded inputs written to tmp_path under fixed names.  The
    group is the subcommand, or "errors" for the lists that must exit 1 with
    one JSON error on stderr."""
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
    return [(argv[0], argv) for argv in runs] + [("errors", argv) for argv in errors]


def run(argv: list[str]) -> tuple[int, str, str, list]:
    """(exit status, stdout, stderr, written files) of one in-process CLI run;
    each file a WRITTEN flag names is read, or None if absent, then removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    written = []
    for flag, value in zip(argv, argv[1:]):
        if flag in WRITTEN:
            path = Path(value)
            written.append(path.read_text() if path.exists() else None)
            path.unlink(missing_ok=True)
    return status, out.getvalue(), err.getvalue(), written


def corpus_hashes(tmp_path: Path, cold: bool = False) -> dict[str, str]:
    """One SHA-256 per group over the argument list (tmp_path replaced by a
    placeholder), exit status, stdout, stderr and written files of each run,
    in corpus order; cold clears every library memo before each run."""
    hashes = {}
    for group, argv in corpus(tmp_path):
        if cold:
            clear_library_memos()
        status, out, err, written = record = run(argv)
        if group == "errors":
            assert status == 1 and json.loads(err)["error"], argv
        else:
            assert status == 0 and not err, argv
        text = json.dumps([argv, *record]).replace(str(tmp_path), "<tmp>")
        hashes.setdefault(group, hashlib.sha256()).update(text.encode() + b"\n")
    return {group: h.hexdigest() for group, h in hashes.items()}


def test_warm_and_cold_runs_print_the_same_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == SUBCOMMANDS | {"errors"}
    clear_library_memos()
    assert corpus_hashes(tmp_path) == golden
    prefixes = schatten._prefix.cache_info()
    assert schatten._direct_sum.cache_info().currsize and prefixes.currsize and prefixes.hits
    assert corpus_hashes(tmp_path, cold=True) == golden


def test_clearing_empties_every_memo():
    memos = library_memos()
    names = {"_direct_sum", "_prefix", "_bracket_head", "_expansion", "build_parser"}
    assert {memo.__name__ for memo in memos} == names
    schatten.schatten_report(3, 3.5, 30, 20)
    cli._parser()
    assert all(memo.cache_info().currsize for memo in memos)
    clear_library_memos()
    assert all(memo.cache_info().currsize == 0 for memo in memos)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        GOLDEN.write_text(json.dumps(corpus_hashes(Path(directory)), indent=2) + "\n")
    sys.stdout.write(GOLDEN.read_text())
