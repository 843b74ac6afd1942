"""Helpers shared by the test modules."""

import importlib
import json
import os
import pkgutil
from pathlib import Path

import kohn_spectra
from kohn_spectra import Bidegree, Polynomial, cli

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """os.environ with this checkout's src/ first on PYTHONPATH, so that a
    child interpreter imports the library under test."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def bidegree_of(f: Polynomial) -> Bidegree | None:
    """The bidegree of a bihomogeneous nonzero polynomial, else None."""
    degrees = {(sum(a), sum(b)) for a, b in f.terms}
    if len(degrees) != 1:
        return None
    return Bidegree(*degrees.pop())


def cli_json(capsys, *argv):
    """The JSON object that ``cli.main(argv)`` prints, run in this process."""
    capsys.readouterr()
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def library_memos() -> list:
    """Every functools cache bound at module level in a library module."""
    modules = (
        importlib.import_module(f"kohn_spectra.{info.name}")
        for info in pkgutil.iter_modules(kohn_spectra.__path__)
        if info.name != "__main__"  # importing it would run the CLI
    )
    return [value for module in modules for value in vars(module).values() if hasattr(value, "cache_clear")]


def clear_library_memos() -> None:
    """Empty every library memo, as in a fresh process: each is a functools
    cache.  Polynomial._components lives on each instance and is freed with it."""
    for memo in library_memos():
        memo.cache_clear()
