"""Helpers shared by the test modules."""

from kohn_spectra import Bidegree, Polynomial


def bidegree_of(f: Polynomial) -> Bidegree | None:
    """The bidegree of a bihomogeneous nonzero polynomial, else None."""
    degrees = {(sum(a), sum(b)) for a, b in f.terms}
    if len(degrees) != 1:
        return None
    return Bidegree(*degrees.pop())
