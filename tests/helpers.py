"""Helpers shared by the test modules."""

import json

from kohn_spectra import Bidegree, Polynomial, cli


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
