"""The library's memos: each is bounded or parameterless, none outlives the
objects the polynomial layer computed it for, and clearing empties them all.
That none changes an output is checked by the corpus of test_corpus.py,
run warm and cold.
"""

import ast
import gc
import tracemalloc
from pathlib import Path

import pytest

import kohn_spectra
from helpers import clear_library_memos, library_memos
from kohn_spectra import Polynomial, cli, decompose, residual_check, schatten

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
    # schatten._direct_sum and _expansion, and cli._parser
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


def test_clearing_empties_every_memo():
    memos = library_memos()
    names = {"_direct_sum", "_expansion", "build_parser"}
    assert {memo.__name__ for memo in memos} == names
    schatten.schatten_report(3, 3.5, 30, 20)
    cli._parser("schatten")
    assert all(memo.cache_info().currsize for memo in memos)
    clear_library_memos()
    assert all(memo.cache_info().currsize == 0 for memo in memos)

