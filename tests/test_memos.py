"""The library's memos: each is bounded or parameterless, none outlives the
objects the polynomial layer computed it for, and none changes an output.

A memo that answered differently warm and cold would change bytes only in
some call orders, so a seeded corpus of CLI runs is compared warm (one
process, in order) against cold (every memo cleared before each run).
"""

import ast
import gc
import json
import random
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


def memo_faults(source: str) -> tuple[list[str], int]:
    """(faults, memos) for a module's source: every ``lru_cache`` must be
    called with an integer ``maxsize``, and ``functools.cache`` may wrap only
    a function with no parameters, as a decorator or as ``cache(name)``."""
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
    return faults, memos


def test_every_library_memo_is_bounded_or_parameterless():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        faults, memos = memo_faults(path.read_text())
        assert not faults, (path.name, faults)
        total += memos
    # schatten._direct_sum, schatten._expansion and cli._parser
    assert total == 3


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


def corpus(tmp_path: Path) -> list[list[str]]:
    """About 40 seeded argument lists over green-solve, apply with every
    operator, schatten at integer and half-integer orders, spectrum and verify."""
    rng = random.Random(2026)
    argvs = []
    for i in range(6):
        n = 2 + i % 3
        path = tmp_path / f"f{i}.json"
        f = random_polynomial(rng, n, max_degree=4, max_terms=3)
        path.write_text(json.dumps(polynomial_to_dict(f)))
        common = ["--n", str(n), "--input", str(path)]
        argvs.append(["green-solve", *common])
        for operator in ("boxb", "green", "hardy"):
            argvs.append(["apply", *common, "--operator", operator])
        argvs.append(["apply", *common, "--operator", "sobolev", "--t", rng.choice(("1", "2", "1/2"))])
    for n, r, cutoffs in ((2, "3", (40, 30)), (3, "4", (20, 25)), (2, "5/2", (60, 50)), (3, "7/2", (30, 40))):
        for p, q in (cutoffs, cutoffs[::-1]):
            argvs.append(["schatten", "--n", str(n), "--r", r, "--cutoff-p", str(p), "--cutoff-q", str(q)])
    argvs += [
        ["spectrum", "--n", "2", "--cutoff", "12"],
        ["spectrum", "--n", "3", "--cutoff", "30", "--format", "csv", "--per-bidegree"],
        ["verify", "--n", "2", "--max-degree", "2"],
        ["green-solve", "--n", "3", "--input", str(tmp_path / "f0.json")],  # an error: f0 is on C^2
    ]
    return argvs


def test_warm_and_cold_runs_print_the_same_bytes(tmp_path, capsys):
    argvs = corpus(tmp_path)

    def run(argv):
        status = cli.main(argv)
        return status, *capsys.readouterr()

    capsys.readouterr()
    warm = [run(argv) for argv in argvs]
    assert schatten._direct_sum.cache_info().currsize and schatten._prefixes
    cold = []
    for argv in argvs:
        clear_library_memos()
        cold.append(run(argv))
    for argv, w, c in zip(argvs, warm, cold):
        assert w == c, argv
    assert [status for status, _, _ in warm].count(0) == len(argvs) - 1
    assert json.loads(warm[-1][2])["error"]


def test_clearing_empties_every_memo():
    memos = library_memos()
    assert {memo.__name__ for memo in memos} == {"_direct_sum", "_expansion", "build_parser"}
    schatten.schatten_report(3, 3.5, 30, 20)
    cli._parser()
    assert all(memo.cache_info().currsize for memo in memos) and schatten._prefixes
    clear_library_memos()
    assert all(memo.cache_info().currsize == 0 for memo in memos)
    assert not schatten._prefixes
