"""Closed-form spectral data on the unit sphere S^{2n-1}.

The Kohn Laplacian acts on the bidegree-(p, q) harmonic space with eigenvalue
2q(p+n-1); the (positive) Laplace-Beltrami operator acts on degree-k spherical
harmonics with eigenvalue k(k+2n-2).  Multiplicities are the dimensions of the
harmonic spaces, computed here in the form

    m_{p,q} = (n+p+q-1) * C(p+n-2, n-2) * C(q+n-2, n-2) / (n-1)

with arbitrary-precision integers (the division is exact).  The case-wise
binomial forms of :func:`multiplicity_binomial` are a cross-check, and the
brute-force kernel oracle in :mod:`kohn_spectra.harmonic_spaces` checks both.

A bidegree argument is any pair of ints (a :class:`Bidegree` or a plain
tuple): :func:`_check_bidegree` checks it once, unpacks it and builds no
Bidegree, so a per-cell caller such as the exact Schatten sum pays for the
closed form alone.

The library's real orders (the Schatten r, the Sobolev s and t, spectral
cutoffs) all pass :func:`_check_order`, as its integers pass
:func:`kohn_spectra.polynomials._check_int`: an integral order comes back
as an int, so ``type(x) is int`` on it marks every exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Bidegree, _check_dimension, _check_int


def _check_bidegree(n: int, d) -> tuple[int, int]:
    """(p, q) as two ints once n and the pair d are checked.

    Every multiplicity call runs this, so the success path builds nothing:
    n's test is _check_dimension's and the entries' _check_int's, inline,
    and a Bidegree is built only to name a bad pair in its message.
    """
    if type(n) is not int or n < 2:
        _check_dimension(n)
    try:
        p, q = d
    except (TypeError, ValueError):
        raise ValueError(f"bidegree must be a pair of integers, got {d!r}") from None
    if type(p) is not int or type(q) is not int:
        raise ValueError(f"bidegree entries must be integers, got {Bidegree(p, q)!r}")
    if p < 0 or q < 0:
        raise ValueError(f"bidegree entries must be nonnegative, got {Bidegree(p, q)}")
    return p, q


def _check_order(name: str, value) -> int | Fraction | float:
    """The library's one exactness rule for orders: an int or an integral
    Fraction is returned as an int (the exact path), any other Fraction or a
    finite float (4.0 included) unchanged (the float path), and anything
    else (a bool, nan, inf, a str) is a ValueError naming it."""
    if type(value) is int or (isinstance(value, float) and math.isfinite(value)):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise ValueError(f"{name} must be an int, Fraction or finite float, got {value!r}")


# The size budget of an exact power, in bits, chosen by measurement (2-core
# Intel Xeon, CLI runs): the least power of two under which the exact Schatten
# report at n = 2, r = 10^5, P = Q = 3 (lcm powers 12^r, estimated at 4*10^5
# bits, 1.1 s) still runs.  With powers at the budget that report (r = 131072)
# takes 1.75 s and `apply --operator sobolev` on z1 + z1^2 + ... + z1^6 0.65 s;
# at 2^20 bits 6.4 s and 1.6 s, at 2^17 bits 0.2 s for the apply.
_POWER_BITS = 2**19


def _check_power_size(base: Fraction, e: int) -> None:
    """Refuse the exact power base^e when its size estimate, |e| times the
    bit length of the base's larger part, exceeds _POWER_BITS: a ValueError
    naming the budget.  A base of 0 or +-1 has no size to grow."""
    bits = max(abs(base.numerator), base.denominator).bit_length()
    if bits > 1 and abs(e) * bits > _POWER_BITS:
        raise ValueError(
            f"exact power of {base} too large: |exponent| times the base's {bits} bits "
            f"exceeds the size budget of {_POWER_BITS} bits"
        )


def power(base, exponent) -> Fraction | float:
    """base ** exponent: an exact Fraction when the exponent is integral (an
    int once :func:`_check_order` validates it), a double otherwise, a float
    exponent included.  An exact power over the size budget
    (:func:`_check_power_size`) is a ValueError naming it."""
    e = _check_order("exponent", exponent)
    if type(e) is int:
        base = Fraction(base)
        _check_power_size(base, e)
        return base**e
    return float(base) ** float(e)


def boxb_eigenvalue(n: int, d: Bidegree) -> Fraction:
    """Kohn Laplacian eigenvalue 2q(p+n-1) on the (p, q) harmonic space.

    Zero exactly when q = 0 (the Hardy-space kernel).
    """
    p, q = _check_bidegree(n, d)
    return Fraction(2 * q * (p + n - 1))


def multiplicity(n: int, d: Bidegree) -> int:
    """dim of the bidegree-(p, q) harmonic space on S^{2n-1}, exact."""
    p, q = _check_bidegree(n, d)
    num = (n + p + q - 1) * math.comb(p + n - 2, n - 2) * math.comb(q + n - 2, n - 2)
    quotient, remainder = divmod(num, n - 1)
    if remainder:
        raise RuntimeError(f"multiplicity not divisible by n-1 at n={n}, {Bidegree(p, q)}")
    return quotient


def multiplicity_binomial(n: int, d: Bidegree) -> int:
    """The binomial forms of the dimension; cross-check for :func:`multiplicity`."""
    p, q = _check_bidegree(n, d)
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
        raise RuntimeError(f"binomial multiplicity not integral at n={n}, {Bidegree(p, q)}")
    return value.numerator


def laplace_beltrami_eigenvalue(n: int, k: int) -> Fraction:
    """Laplace-Beltrami eigenvalue k(k+2n-2) on degree-k spherical harmonics."""
    _check_dimension(n)
    _check_int("degree k", k)
    return Fraction(k * (k + 2 * n - 2))


def lambda_min(n: int, k: int) -> Fraction:
    """Smallest nonzero Kohn-Laplacian eigenvalue among bidegrees with p+q = k.

    The minimum of 2q(p+n-1) over q >= 1, p+q = k is attained at q = 1,
    p = k-1 and equals 2(k+n-2).
    """
    _check_dimension(n)
    _check_int("total degree k", k, 1)
    return Fraction(2 * (k + n - 2))


def sphere_harmonic_dim(n: int, k: int) -> int:
    """Classical dimension of degree-k spherical harmonics on S^{2n-1}."""
    _check_dimension(n)
    if _check_int("degree k", k) == 0:
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


def spectrum_table(n: int, cutoff: Fraction | int) -> list[SpectrumEntry]:
    """All bidegrees with nonzero eigenvalue <= cutoff, sorted by (eigenvalue, p, q).

    The search is complete: 2q(p+n-1) <= cutoff exactly when q <= cutoff/2
    and p <= cutoff/(2q) - (n-1), the bounds of the two loops.  Each
    eigenvalue is an integer, so the sort compares numerators, ints rather
    than Fractions.
    """
    _check_dimension(n)
    cutoff = Fraction(_check_order("cutoff", cutoff))
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    entries = []
    for q in range(1, int(cutoff / 2) + 1):
        for p in range(int(cutoff / (2 * q)) - n + 2):
            d = Bidegree(p, q)
            entries.append(SpectrumEntry(d, boxb_eigenvalue(n, d), multiplicity(n, d)))
    entries.sort(key=lambda e: (e.eigenvalue.numerator, e.bidegree))
    return entries


def aggregate_spectrum(n: int, cutoff: Fraction | int) -> AggregatedSpectrum:
    """Combine coinciding eigenvalues <= cutoff into an ascending spectrum table.

    Collisions are real (n=2 already has 2q(p+1) equal for (1,1) and (0,2));
    grouping is by exact equality of the integer eigenvalues.  The table is
    sorted, so its groups come out ascending and each group's bidegrees too.
    """
    table = spectrum_table(n, cutoff)
    grouped: dict[int, list[SpectrumEntry]] = {}
    for entry in table:
        grouped.setdefault(entry.eigenvalue.numerator, []).append(entry)
    entries = tuple(
        AggregatedEntry(
            eigenvalue=group[0].eigenvalue,
            multiplicity=sum(e.multiplicity for e in group),
            contributors=tuple(e.bidegree for e in group),
        )
        for group in grouped.values()
    )
    return AggregatedSpectrum(n=n, cutoff=Fraction(cutoff), entries=entries)
