"""Closed-form spectral data on the unit sphere S^{2n-1}.

The Kohn Laplacian acts on the bidegree-(p, q) harmonic space with eigenvalue
2q(p+n-1); the (positive) Laplace-Beltrami operator acts on degree-k spherical
harmonics with eigenvalue k(k+2n-2).  Multiplicities are the dimensions of the
harmonic spaces, computed here in the factorial-free product form

    m_{p,q} = (n+p+q-1) * (p+1)...(p+n-2) * (q+1)...(q+n-2) / ((n-1)!(n-2)!)

with arbitrary-precision integers (the division is exact).  The binomial
forms are kept alongside as cross-checks, and the brute-force kernel oracle
in :mod:`kohn_spectra.harmonic_spaces` validates both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Bidegree


def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"ambient complex dimension must be an integer >= 2, got {n}")


def _check_bidegree(d: Bidegree) -> Bidegree:
    d = Bidegree(*d)
    if d.p < 0 or d.q < 0:
        raise ValueError(f"bidegree entries must be nonnegative, got {d}")
    return d


def _integral_exponent(value) -> int | None:
    """The int value of an exactly integral exponent (an int or an integral
    Fraction, never a bool or a float), else None: the caller's float path."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return None


def power(base, exponent) -> Fraction | float:
    """base ** exponent: an exact Fraction when the exponent is integral (see
    :func:`_integral_exponent`), a double otherwise."""
    e = _integral_exponent(exponent)
    if e is not None:
        return Fraction(base) ** e
    return float(base) ** float(exponent)


def boxb_eigenvalue(n: int, d: Bidegree) -> Fraction:
    """Kohn Laplacian eigenvalue 2q(p+n-1) on the (p, q) harmonic space.

    Zero exactly when q = 0 (the Hardy-space kernel).
    """
    _check_dimension(n)
    d = _check_bidegree(d)
    return Fraction(2 * d.q * (d.p + n - 1))


def multiplicity(n: int, d: Bidegree) -> int:
    """dim of the bidegree-(p, q) harmonic space on S^{2n-1}, exact."""
    _check_dimension(n)
    d = _check_bidegree(d)
    if d.p == 0 and d.q == 0:
        return 1
    num = n + d.p + d.q - 1
    for j in range(1, n - 1):
        num *= d.p + j
    for j in range(1, n - 1):
        num *= d.q + j
    den = math.factorial(n - 1) * math.factorial(n - 2)
    quotient, remainder = divmod(num, den)
    if remainder:
        raise RuntimeError(f"multiplicity product form not divisible at n={n}, {d}")
    return quotient


def multiplicity_binomial(n: int, d: Bidegree) -> int:
    """The binomial forms of the dimension; cross-check for :func:`multiplicity`."""
    _check_dimension(n)
    d = _check_bidegree(d)
    p, q = d
    if p == 0 and q == 0:
        return 1
    if p == 0:
        return math.comb(n + q - 1, q)
    if q == 0:
        return math.comb(n + p - 1, p)
    value = Fraction(
        (n - 1) * (n + p + q - 1) * math.comb(n + p - 2, p - 1) * math.comb(n + q - 2, q - 1),
        p * q,
    )
    if value.denominator != 1:
        raise RuntimeError(f"binomial multiplicity not integral at n={n}, {d}")
    return value.numerator


def laplace_beltrami_eigenvalue(n: int, k: int) -> Fraction:
    """Laplace-Beltrami eigenvalue k(k+2n-2) on degree-k spherical harmonics."""
    _check_dimension(n)
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {k}")
    return Fraction(k * (k + 2 * n - 2))


def lambda_min(n: int, k: int) -> Fraction:
    """Smallest nonzero Kohn-Laplacian eigenvalue among bidegrees with p+q = k.

    The minimum of 2q(p+n-1) over q >= 1, p+q = k is attained at q = 1,
    p = k-1 and equals 2(k+n-2).
    """
    _check_dimension(n)
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"total degree must be a positive integer, got {k}")
    return Fraction(2 * (k + n - 2))


def sphere_harmonic_dim(n: int, k: int) -> int:
    """Classical dimension of degree-k spherical harmonics on S^{2n-1}."""
    _check_dimension(n)
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return 1
    return math.comb(k + 2 * n - 2, k) + math.comb(k + 2 * n - 3, k - 1)


@dataclass(frozen=True)
class SpectrumEntry:
    bidegree: Bidegree
    eigenvalue: Fraction
    multiplicity: int


@dataclass(frozen=True)
class AggregatedEntry:
    eigenvalue: Fraction
    multiplicity: int
    contributors: tuple[Bidegree, ...]


@dataclass(frozen=True)
class AggregatedSpectrum:
    """Distinct nonzero eigenvalues up to a cutoff, with total multiplicities."""

    n: int
    cutoff: Fraction
    entries: tuple[AggregatedEntry, ...]

    def to_json_dict(self) -> dict:
        from .polynomials import fraction_to_string

        return {
            "n": self.n,
            "cutoff": fraction_to_string(self.cutoff),
            "entries": [
                {
                    "eigenvalue": fraction_to_string(e.eigenvalue),
                    "multiplicity": e.multiplicity,
                    "contributors": [{"p": d.p, "q": d.q} for d in e.contributors],
                }
                for e in self.entries
            ],
        }


def spectrum_table(n: int, cutoff: Fraction | int) -> list[SpectrumEntry]:
    """All bidegrees with nonzero eigenvalue <= cutoff, sorted by (eigenvalue, p, q).

    The search is provably complete: q >= 1 forces 2(p+n-1) <= cutoff, and
    p >= 0 forces 2q <= cutoff.
    """
    _check_dimension(n)
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    entries = []
    q_max = int(cutoff / 2)
    for q in range(1, q_max + 1):
        p = 0
        while True:
            ev = Fraction(2 * q * (p + n - 1))
            if ev > cutoff:
                break
            entries.append(SpectrumEntry(Bidegree(p, q), ev, multiplicity(n, Bidegree(p, q))))
            p += 1
    entries.sort(key=lambda e: (e.eigenvalue, e.bidegree))
    return entries


def aggregate_spectrum(n: int, cutoff: Fraction | int) -> AggregatedSpectrum:
    """Combine coinciding eigenvalues <= cutoff into an ascending spectrum table.

    Collisions are real (n=2 already has 2q(p+1) equal for (1,1) and (0,2));
    grouping is by exact rational equality.
    """
    table = spectrum_table(n, cutoff)
    grouped: dict[Fraction, list[SpectrumEntry]] = {}
    for entry in table:
        grouped.setdefault(entry.eigenvalue, []).append(entry)
    entries = tuple(
        AggregatedEntry(
            eigenvalue=ev,
            multiplicity=sum(e.multiplicity for e in group),
            contributors=tuple(sorted(e.bidegree for e in group)),
        )
        for ev, group in sorted(grouped.items())
    )
    return AggregatedSpectrum(n=n, cutoff=Fraction(cutoff), entries=entries)
