"""Exact polynomial algebra on C^n in the variables z_1..z_n, zbar_1..zbar_n.

Coefficients are Gaussian rationals (:class:`ExactScalar`): complex numbers
whose real and imaginary parts are arbitrary-precision rationals.  A
polynomial is a sparse map from exponent pairs ``(alpha, beta)`` to
coefficients, where ``alpha`` and ``beta`` are length-``n`` tuples of
nonnegative integers and a term reads ``c * z^alpha * zbar^beta``.

Storage is Gaussian integers over one denominator: ``_num`` maps each
``(alpha, beta)`` to a pair ``(re, im)`` of ints and ``_den`` is one positive
int, so a term's coefficient is ``(re + im*i) / _den``.  Every operation
drops zero pairs and divides out gcd(all parts, ``_den``) once, so the form
is canonical and equality of polynomials is a structural comparison.  Only
this module reads that storage; other modules use five primitives:
:func:`_from_terms` builds from integer terms ((alpha, beta), re, im, den),
:func:`_combine` is every linear combination of polynomials,
:class:`_PairingIndex` is every sphere pairing, and :func:`_fischer` is the
spherical decomposition; :meth:`Polynomial.scale` takes a real rational
multiple in one pass over the numerators, canonical without a gcd pass over
the result (a complex factor goes through :func:`_combine`).  :func:`_parts`
converts an outside coefficient to integers where it enters, in
``Polynomial(n, terms)`` and scaling.  An :class:`ExactScalar` is built only
at the boundary: by :attr:`Polynomial.terms`, :func:`sphere_inner_product`,
:func:`as_scalar` and its own arithmetic, and for a finished pairing value.
Keys are checked once, where they enter:
``Polynomial(n, terms)`` and :func:`polynomial_from_dict` validate each
multi-index (:func:`random_polynomial` makes valid ones) and then build
through :func:`_from_terms`; :func:`polynomial_to_dict` writes each part in
lowest terms straight from the integers.

Splitting by bidegree ``(|alpha|, |beta|)`` and the ambient Laplacian

    lap f = 4 * sum_j d^2 f / (dz_j dzbar_j)

are the two structural operations everything else builds on.  The Laplacian
(:func:`_laplacian`) and the product (:func:`_product`) each have one copy,
on numerator maps over an unchanged denominator: ``ambient_laplacian`` and
``*`` wrap them in one :func:`_make`, and :func:`_fischer_peel` chains them
without a gcd pass between steps.  The layer keeps no module-level memo: a
polynomial keeps its own decomposition, freed with it.

The L^2 pairing on the unit sphere S^{2n-1} uses the normalized surface
measure (total mass 1, so <1, 1> = 1) and the closed-form monomial integral

    integral of z^alpha * zbar^beta  =  0                              if alpha != beta
                                     =  (n-1)! alpha! / (n-1+|alpha|)! if alpha == beta

which makes every inner product of polynomials an exact Gaussian rational.
Its one copy is in :class:`_PairingIndex`, which :func:`monomial_sphere_integral`
reads, and the test suite checks it against the recursion forced by |z|^2 = 1.

Every integer argument of the library (a dimension, degree, index or
cutoff) passes :func:`_check_int`, here in the bottom layer.
"""

from __future__ import annotations

import math
import re as _re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from itertools import chain
from operator import add, sub
from typing import NamedTuple, Union

Multiindex = tuple[int, ...]

ScalarLike = Union["ExactScalar", Fraction, int]


class DimensionMismatchError(ValueError):
    """Raised when combining polynomials over different ambient dimensions."""


class FormatError(ValueError):
    """Raised when parsing a malformed serialized polynomial or rational."""


def _as_fraction(value: Fraction | int) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"coefficient must be an int or a Fraction, got {value!r}")


@dataclass(frozen=True)
class ExactScalar:
    """A Gaussian rational a + b*i with exact rational parts.

    ``Fraction`` keeps every part in lowest terms with a positive
    denominator, so equality is exact and hash-compatible.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: ScalarLike) -> "ExactScalar":
        other = as_scalar(other)
        return ExactScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "ExactScalar":
        other = as_scalar(other)
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "ExactScalar":
        return as_scalar(other) - self

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "ExactScalar":
        other = as_scalar(other)
        return ExactScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "ExactScalar":
        other = as_scalar(other)
        if not other:
            raise ZeroDivisionError("division by zero ExactScalar")
        den = other.norm_squared()
        return ExactScalar(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        """|a + b*i|^2 = a^2 + b^2, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"

    __repr__ = __str__


def as_scalar(value: ScalarLike) -> ExactScalar:
    """Coerce an int, Fraction, or ExactScalar to an ExactScalar."""
    if isinstance(value, ExactScalar):
        return value
    return ExactScalar(_as_fraction(value))


class Bidegree(NamedTuple):
    """Homogeneity degrees in z and zbar separately."""

    p: int
    q: int


def _check_int(name: str, value, least: int = 0) -> int:
    """The library's integer-argument rule: value itself when it is an int,
    not a bool, and at least ``least``; otherwise a ValueError naming it."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _check_dimension(n: int) -> int:
    return _check_int("ambient complex dimension", n, 2)


def _check_multiindex(entries: Iterable[int], n: int) -> Multiindex:
    idx = tuple(entries)
    if len(idx) != n:
        raise ValueError(f"multiindex {idx!r} has length {len(idx)}, expected {n}")
    if any(type(e) is not int or e < 0 for e in idx):
        raise ValueError(f"multiindex {idx!r} must hold nonnegative integers")
    return idx


class Polynomial:
    """Sparse polynomial in z_1..z_n, zbar_1..zbar_n over Gaussian rationals.

    Stored canonically as Gaussian integers over one denominator (see the
    module docstring).  Instances are treated as immutable; all arithmetic
    returns new objects.  :func:`_fischer` relies on it to cache the spherical
    decomposition in ``_components``, which every new object starts without.
    """

    __slots__ = ("n", "_num", "_den", "_components")

    def __init__(
        self,
        n: int,
        terms: Mapping[tuple[Multiindex, Multiindex], ScalarLike]
        | Iterable[tuple[tuple[Multiindex, Multiindex], ScalarLike]] = (),
    ) -> None:
        _check_dimension(n)
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = (
            ((_check_multiindex(a, n), _check_multiindex(b, n)), *_parts(c)) for (a, b), c in items
        )
        _from_terms(n, checked, self)

    @property
    def terms(self) -> dict[tuple[Multiindex, Multiindex], ExactScalar]:
        """The term map ``{(alpha, beta): ExactScalar}``, built on each read."""
        den = self._den
        return {
            key: ExactScalar(Fraction(re, den), Fraction(im, den))
            for key, (re, im) in self._num.items()
        }

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: ScalarLike) -> "Polynomial":
        zero_idx = (0,) * _check_dimension(n)
        return cls(n, {(zero_idx, zero_idx): value})

    @classmethod
    def z(cls, n: int, j: int) -> "Polynomial":
        """The coordinate z_j (1-based)."""
        return cls.monomial(n, _unit_index(n, j), (0,) * n)

    @classmethod
    def z_bar(cls, n: int, j: int) -> "Polynomial":
        """The conjugate coordinate zbar_j (1-based)."""
        return cls.z(n, j).conjugate()

    @classmethod
    def monomial(
        cls, n: int, alpha: Iterable[int], beta: Iterable[int], coeff: ScalarLike = 1
    ) -> "Polynomial":
        return cls(n, {(tuple(alpha), tuple(beta)): coeff})

    # -- ring operations ----------------------------------------------

    def _require_same_dimension(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"cannot combine polynomials on C^{self.n} and C^{other.n}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dimension(other)
        return _combine(self.n, ((self, 1, 0, 1), (other, 1, 0, 1)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dimension(other)
        return _combine(self.n, ((self, 1, 0, 1), (other, -1, 0, 1)))

    def __neg__(self) -> "Polynomial":
        return _combine(self.n, ((self, -1, 0, 1),))

    def __mul__(self, other: "Polynomial | ScalarLike") -> "Polynomial":
        if isinstance(other, (ExactScalar, Fraction, int)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dimension(other)
        return _make(self.n, _gather(_product(self._num, other._num)), self._den * other._den)

    def __rmul__(self, other: ScalarLike) -> "Polynomial":
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        e = _check_int("polynomial power", exponent)
        result = Polynomial.constant(self.n, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def scale(self, factor: ScalarLike) -> "Polynomial":
        """factor * self, always a new polynomial.  A real factor a / b takes
        one pass: with C the gcd of the numerators and D the denominator,
        gcd(a C, b D) = gcd(a, D) gcd(b, C), so the product is canonical
        without a gcd pass over it; a complex factor goes through _combine."""
        a, im, b = _parts(factor)
        if im:
            return _combine(self.n, ((self, a, im, b),))
        num, den = self._num, self._den
        if not a:
            num, den = {}, 1
        else:
            ga = math.gcd(a, den)
            gb = math.gcd(b, *chain.from_iterable(num.values())) if b > 1 else 1
            a, b = a // ga, b // gb
            if a != 1 or gb != 1:  # else the numerators are unchanged and shared
                num = {key: (re // gb * a, im // gb * a) for key, (re, im) in num.items()}
            den = den // ga * b
        poly = Polynomial.__new__(Polynomial)
        poly.n, poly._num, poly._den, poly._components = self.n, num, den, None
        return poly

    def conjugate(self) -> "Polynomial":
        """Complex conjugate: swaps alpha with beta and conjugates coefficients."""
        return _make(self.n, {(b, a): (re, -im) for (a, b), (re, im) in self._num.items()}, self._den)

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._num == other._num

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for (alpha, beta), coeff in sorted(self.terms.items()):
            factors = [f"z{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(alpha) if e]
            factors += [f"zb{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(beta) if e]
            body = "*".join(factors) if factors else "1"
            parts.append(f"{coeff}*{body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}: {self})"


def _gather(triples: Iterable[tuple]) -> dict:
    """Sum the Gaussian integers (re, im) of equal keys; the zero sums are
    dropped by :func:`_make`."""
    out = {}
    for key, re, im in triples:
        if key in out:
            r0, i0 = out[key]
            out[key] = (r0 + re, i0 + im)
        else:
            out[key] = (re, im)
    return out


def _make(n: int, num: dict, den: int, poly: Polynomial | None = None) -> Polynomial:
    """The canonical polynomial num / den (zero pairs dropped, gcd divided out) of a
    validated dimension and key set, filled into ``poly`` when given."""
    num = {key: parts for key, parts in num.items() if parts[0] or parts[1]}
    g = math.gcd(den, *chain.from_iterable(num.values()))
    if g > 1:
        num = {key: (re // g, im // g) for key, (re, im) in num.items()}
    if poly is None:
        poly = Polynomial.__new__(Polynomial)
    poly.n, poly._num, poly._den, poly._components = n, num, den // g, None
    return poly


def _parts(coeff: ScalarLike) -> tuple[int, int, int]:
    """(re, im, den) with coeff = (re + im*i) / den, for an int, Fraction or
    ExactScalar; it builds no ExactScalar and no Fraction."""
    if isinstance(coeff, ExactScalar):
        re, im = coeff.re, coeff.im
        den = math.lcm(re.denominator, im.denominator)
        return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den
    value = coeff if isinstance(coeff, int) and not isinstance(coeff, bool) else _as_fraction(coeff)
    return value.numerator, 0, value.denominator


def _from_terms(n: int, items: Iterable[tuple], poly: Polynomial | None = None) -> Polynomial:
    """sum (re + im*i) / den * z^alpha * zbar^beta over the integer items ((alpha,
    beta), re, im, den) with valid keys and den > 0, summed over the dens' lcm."""
    items = tuple(items)
    den = math.lcm(*(d for _, _, _, d in items))
    terms = ((key, re * (den // d), im * (den // d)) for key, re, im, d in items)
    return _make(n, _gather(terms), den, poly)


def _combine(n: int, parts: Iterable[tuple]) -> Polynomial:
    """sum_k f_k * (re_k + im_k*i) / den_k over parts (f_k, re_k, im_k, den_k):
    the one Gaussian-rational linear combination of polynomials on C^n,
    summed in integers over the lcm of every den_k * f_k's denominator."""
    parts = tuple(parts)
    den = math.lcm(*(d * f._den for f, _, _, d in parts))
    num: dict = {}
    for f, fr, fi, d in parts:
        s = den // (d * f._den)
        fr, fi = fr * s, fi * s
        for key, (re, im) in f._num.items():
            re, im = re * fr - im * fi, re * fi + im * fr
            if key in num:
                r0, i0 = num[key]
                num[key] = (r0 + re, i0 + im)
            else:
                num[key] = (re, im)
    return _make(n, num, den)


def _unit_index(n: int, j: int) -> Multiindex:
    if _check_int("coordinate index", j, 1) > _check_dimension(n):
        raise ValueError(f"coordinate index {j} out of range 1..{n}")
    return tuple(1 if i == j - 1 else 0 for i in range(n))


def radius_squared(n: int) -> Polynomial:
    """|z|^2 = sum_j z_j * zbar_j, which is identically 1 on the unit sphere."""
    return _make(n, _radius_squared(_check_dimension(n)), 1)


def _radius_squared(n: int) -> dict:
    """The numerators of |z|^2 on C^n over denominator 1."""
    units = ((0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n))
    return {(u, u): (1, 0) for u in units}


# -- differential operators -------------------------------------------


def ambient_laplacian(f: Polynomial) -> Polynomial:
    """4 * sum_j d^2 f / (dz_j dzbar_j), computed termwise.

    Each monomial of bidegree (p, q) maps to bidegree (p-1, q-1) terms;
    anything with no mixed dependence (q = 0 or p = 0 in a variable) drops out.
    """
    return _make(f.n, _laplacian(f._num), f._den)


def _laplacian(num: dict) -> dict:
    """The ambient Laplacian of the Gaussian-integer numerators ``num`` over an
    unchanged denominator, gathered; zero sums are kept."""
    out: dict = {}
    for (alpha, beta), (re, im) in num.items():
        for j, a in enumerate(alpha):
            b = beta[j]
            if a and b:
                w = 4 * a * b
                key = (alpha[:j] + (a - 1,) + alpha[j + 1 :], beta[:j] + (b - 1,) + beta[j + 1 :])
                if key in out:
                    r0, i0 = out[key]
                    out[key] = (r0 + w * re, i0 + w * im)
                else:
                    out[key] = (w * re, w * im)
    return out


def _product(num1: dict, num2: dict) -> Iterator[tuple]:
    """The product of two Gaussian-integer numerator maps, as ungathered
    (key, re, im) triples over the product of their denominators."""
    return (
        ((tuple(map(add, a1, a2)), tuple(map(add, b1, b2))), r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
        for (a1, b1), (r1, i1) in num1.items()
        for (a2, b2), (r2, i2) in num2.items()
    )


def euler_z(f: Polynomial) -> Polynomial:
    """The z-degree Euler operator sum_j z_j d/dz_j (scales a bidegree-(p,q) term by p)."""
    return _degree_scaled(f, 0)


def euler_z_bar(f: Polynomial) -> Polynomial:
    """The zbar-degree Euler operator sum_j zbar_j d/dzbar_j."""
    return _degree_scaled(f, 1)


def _degree_scaled(f: Polynomial, side: int) -> Polynomial:
    num = {key: (re * sum(key[side]), im * sum(key[side])) for key, (re, im) in f._num.items()}
    return _make(f.n, num, f._den)


# -- bidegree bookkeeping ---------------------------------------------


def bidegree_split(f: Polynomial) -> dict[Bidegree, Polynomial]:
    """Partition the terms of ``f`` by bidegree (|alpha|, |beta|).

    Each part is bihomogeneous of its key and the parts sum back to ``f``.
    The zero polynomial yields an empty map.
    """
    return {Bidegree(*d): _make(f.n, num, f._den) for d, num in _buckets(f._num)}


def _buckets(num: dict) -> list[tuple[tuple[int, int], dict]]:
    """The numerators ``num`` split by bidegree: ((p, q), part) by ascending (p, q)."""
    buckets: dict = {}
    for key, parts in num.items():
        buckets.setdefault((sum(key[0]), sum(key[1])), {})[key] = parts
    return sorted(buckets.items())


def _peel_constant(n: int, deg_h: int, m: int) -> int:
    """lap^m(|z|^{2m} h) / h for a harmonic h of degree deg_h on C^n:
    prod_{t=1..m} 4t(n + deg_h + t - 1), positive for n >= 2."""
    c = 1
    for t in range(1, m + 1):
        c *= 4 * t * (n + deg_h + t - 1)
    return c


def _fischer(f: Polynomial) -> tuple[tuple[Bidegree, Polynomial], ...]:
    """The nonzero harmonic components (d, h_d) of f's spherical decomposition
    by ascending bidegree, peeled once per instance: kept on f, freed with f."""
    if f._components is None:
        f._components = _fischer_peel(f)
    return f._components


def _fischer_peel(f: Polynomial) -> tuple[tuple[Bidegree, Polynomial], ...]:
    """The Fischer peel of :mod:`kohn_spectra.operators`, in Gaussian integers.

    Each bidegree-(p, q) bucket of f is a residual R / D.  Its Laplacian
    chain R, lap R, lap^2 R, ... (numerators only, D unchanged) is built
    once, up to the first zero power and at most to lap^top R, top = min(p, q).
    If lap R is zero the residual is the (p, q) component.  Otherwise the
    last entry G = lap^m R, the highest nonzero power, gives the component
    h_m = G / (c_m D); the residual becomes (c_m R - |z|^{2m} G) / (c_m D)
    and top becomes m.  Each component with p, q >= 1 is checked harmonic
    by the chain itself: the zero that ends it is lap G.  A component at m =
    min(p, q) has p = 0 or q = 0, so no mixed term and a zero Laplacian by
    structure.  A new residual whose chain reaches top means the previous
    step's component is not harmonic: a RuntimeError.  |z|^{2m} G is formed
    as m products with the n-term numerator map of |z|^2, gathered between
    steps, so no power of |z|^2 is built or kept.  Components of equal
    bidegree are summed over one lcm, and a zero sum is dropped.
    """
    n = f.n
    radius = _radius_squared(n)
    found: dict = {}  # {bidegree: [(num, den)]}
    for (p, q), residual in _buckets(f._num):
        den, top, first = f._den, min(p, q), True
        while residual:
            laps = [residual]  # lap^j R for j = 0..m, each nonzero
            while len(laps) <= top:
                g = _laplacian(laps[-1])
                g = {key: parts for key, parts in g.items() if parts[0] or parts[1]}
                if not g:
                    break
                laps.append(g)
            m = len(laps) - 1
            if m == top and not first:
                raise RuntimeError(
                    f"Fischer component {Bidegree(p - m + 1, q - m + 1)} of a bidegree-"
                    f"{Bidegree(p, q)} piece is not harmonic; exact arithmetic is broken"
                )
            if not m:
                found.setdefault((p, q), []).append((residual, den))
                break
            g, c = laps[m], _peel_constant(n, p + q - 2 * m, m)
            found.setdefault((p - m, q - m), []).append((g, c * den))
            residual = {key: (c * re, c * im) for key, (re, im) in residual.items()}
            for _ in range(m - 1):  # |z|^{2(m-1)} G
                g = _gather(_product(radius, g))
            for key, re, im in _product(radius, g):
                r0, i0 = residual.get(key, (0, 0))
                residual[key] = (r0 - re, i0 - im)
            residual = {key: parts for key, parts in residual.items() if parts[0] or parts[1]}
            den, top, first = den * c, m, False
    out = []
    for d, parts in sorted(found.items()):
        if len(parts) == 1:
            h = _make(n, *parts[0])
        else:
            h = _from_terms(
                n, ((key, re, im, den) for num, den in parts for key, (re, im) in num.items())
            )
        if h:
            out.append((Bidegree(*d), h))
    return tuple(out)


# -- integration over the sphere --------------------------------------


def monomial_sphere_integral(n: int, alpha: Iterable[int], beta: Iterable[int] | None = None) -> Fraction:
    """Integral of z^alpha * zbar^beta (beta defaults to alpha) over S^{2n-1},
    normalized measure: the sphere pairing <z^alpha zbar^beta, 1>."""
    alpha = tuple(alpha)
    f = Polynomial.monomial(n, alpha, alpha if beta is None else beta)
    return sphere_inner_product(f, Polynomial.constant(n, 1)).re


class _PairingIndex:
    """Exact sphere pairings <f, g> of any polynomial f with every polynomial
    g filed under a tag, in Gaussian integers.

    Each term (gamma, delta) of g is filed under gamma - delta.  A term pair
    ((alpha, beta), (gamma, delta)) contributes only when alpha + delta ==
    beta + gamma, i.e. alpha - beta == gamma - delta, so f's terms look up
    their own bucket only.  The pair adds the integer c * conj(d) * mu!
    (mu = alpha + delta) to the sum for (tag, |mu|); each sum is then lifted
    by (n-1)! / (n-1+|mu|)! over (n-1+top)! / (n-1)!, top the largest |mu|.
    """

    def __init__(self) -> None:
        # {gamma - delta: [(tag, delta, re, im)]}, {tag: den}
        self._buckets, self._dens = {}, {}

    def add(self, tag, g: Polynomial) -> None:
        """File ``g`` under ``tag`` (a new tag for each g)."""
        self._dens[tag] = g._den
        for (gamma, delta), (re, im) in g._num.items():
            self._buckets.setdefault(tuple(map(sub, gamma, delta)), []).append((tag, delta, re, im))

    def pair(self, f: Polynomial) -> dict:
        """``{tag: (re, im, den)}`` with <f, g_tag> = (re + im*i) / den, for
        the nonzero pairings only; den includes both polynomials' denominators."""
        acc: dict = {}
        for (alpha, beta), (cr, ci) in f._num.items():
            for tag, delta, dr, di in self._buckets.get(tuple(map(sub, alpha, beta)), ()):
                mu = tuple(map(add, alpha, delta))
                w = math.prod(map(math.factorial, mu))
                sums = acc.setdefault((tag, sum(mu)), [0, 0])
                sums[0] += w * (cr * dr + ci * di)
                sums[1] += w * (ci * dr - cr * di)
        n = f.n
        top = math.factorial(n - 1 + max((s for _, s in acc), default=0))
        out = _gather(
            (tag, re * lift, im * lift)
            for (tag, s), (re, im) in acc.items()
            for lift in (top // math.factorial(n - 1 + s),)
        )
        d = top // math.factorial(n - 1) * f._den
        dens = self._dens
        return {tag: (re, im, d * dens[tag]) for tag, (re, im) in out.items() if re or im}


def sphere_inner_product(f: Polynomial, g: Polynomial) -> ExactScalar:
    """<f, g> = integral over S^{2n-1} of f * conj(g), exactly: one
    :class:`_PairingIndex` pairing, one Fraction per part."""
    if f.n != g.n:
        raise DimensionMismatchError(f"cannot pair polynomials on C^{f.n} and C^{g.n}")
    index = _PairingIndex()
    index.add(None, g)
    re, im, den = index.pair(f).get(None, (0, 0, 1))
    return ExactScalar(Fraction(re, den), Fraction(im, den))


def l2_norm_squared(f: Polynomial) -> Fraction:
    """<f, f> as an exact nonnegative rational."""
    value = sphere_inner_product(f, f)
    if value.im:
        raise RuntimeError(f"<f, f> came out non-real ({value}); this is a bug")
    return value.re


# -- enumeration and sampling ------------------------------------------


def multiindices(n: int, degree: int) -> list[Multiindex]:
    """All length-n multiindices of total degree ``degree``, ascending lex."""
    _check_int("n", n, 1)
    _check_int("degree", degree)

    def rec(slots: int, total: int) -> Iterator[Multiindex]:
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in rec(slots - 1, total - first):
                yield (first,) + rest

    return list(rec(n, degree))


def random_polynomial(rng, n: int, max_degree: int, max_terms: int = 6) -> Polynomial:
    """A small random polynomial with |alpha|+|beta| <= max_degree and
    coefficient parts a/b with |a| <= 3 and 1 <= b <= 4.

    Deterministic for a given ``random.Random`` state; used by the seeded
    property checks and the CLI verification bundle.
    """
    _check_dimension(n)
    _check_int("max_degree", max_degree)
    _check_int("max_terms", max_terms)
    terms = []
    for _ in range(max_terms):
        k = rng.randint(0, max_degree)
        p = rng.randint(0, k)
        q = k - p
        alpha = _random_composition(rng, n, p)
        beta = _random_composition(rng, n, q)
        re, re_den = rng.randint(-3, 3), rng.randint(1, 4)
        im, im_den = rng.randint(-3, 3), rng.randint(1, 4)
        terms += [((alpha, beta), re, 0, re_den), ((alpha, beta), 0, im, im_den)]
    return _from_terms(n, terms)


def _random_composition(rng, n: int, total: int) -> Multiindex:
    out = [0] * n
    for _ in range(total):
        out[rng.randrange(n)] += 1
    return tuple(out)


# -- serialization ------------------------------------------------------

_FRACTION_RE = _re.compile(r"^-?\d+(/\d+)?$")


def fraction_to_string(value: Fraction) -> str:
    """Serialize as "numerator/denominator", always with the slash.

    The digits come from Decimal, which prints an int of any length; str(int)
    refuses more than sys.get_int_max_str_digits() digits.  fraction_from_string
    reads them back in pieces short enough for int() under any limit.
    """
    return _ratio_text(value.numerator, value.denominator)


def _ratio_text(num: int, den: int) -> str:
    if num.bit_length() <= _DECIMAL_DIRECT_BITS and den.bit_length() <= _DECIMAL_DIRECT_BITS:
        return f"{Decimal(num)!s}/{Decimal(den)!s}"
    return f"{_decimal(num)!s}/{_decimal(den)!s}"


# Decimal(int) takes time quadratic in the length; past this many bits
# _decimal splits the int in binary halves instead.
_DECIMAL_DIRECT_BITS = 2**13


def _decimal(num: int) -> Decimal:
    """num as a Decimal: Decimal(num) up to _DECIMAL_DIRECT_BITS bits, else
    hi 2^h + lo with both halves converted the same way and the product and
    sum taken exactly in Decimal arithmetic, which libmpdec multiplies in
    subquadratic time.  No str(int), so no digit limit applies."""
    powers: dict[int, Decimal] = {}

    def convert(x: int, bits: int) -> Decimal:
        if bits <= _DECIMAL_DIRECT_BITS:
            return Decimal(x)
        h = bits // 2
        hi = x >> h
        if h not in powers:
            powers[h] = Decimal(2) ** h
        return convert(hi, bits - h) * powers[h] + convert(x - (hi << h), h)

    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])):
        value = convert(abs(num), num.bit_length())
        return -value if num < 0 else value


def fraction_from_string(text: str) -> Fraction:
    return Fraction(*_ratio_parts(text))


def _ratio_parts(text: str) -> tuple[int, int]:
    """(num, den) with den > 0, not reduced, of the text "num/den" or "num"."""
    if not isinstance(text, str) or not _FRACTION_RE.match(text.strip()):
        raise FormatError(f"malformed rational {text!r}; expected \"numerator/denominator\"")
    num, _, den = text.strip().partition("/")
    den = _digits(den) if den else 1
    if not den:
        raise FormatError(f"rational {text!r} has a zero denominator")
    return (-_digits(num[1:]) if num[0] == "-" else _digits(num)), den


# The lowest limit sys.set_int_max_str_digits accepts: int() reads a run
# this long under any setting.
_INT_DIRECT_DIGITS = 640


def _digits(run: str) -> int:
    """The int of a digit run: int(run) up to _INT_DIRECT_DIGITS digits, else
    hi 10^k + lo with both halves read the same way, so the time is that of
    the big-int products (subquadratic) rather than int(str)'s quadratic
    conversion, and no digit limit applies."""
    powers: dict[int, int] = {}

    def read(part: str) -> int:
        if len(part) <= _INT_DIRECT_DIGITS:
            return int(part)
        k = len(part) // 2
        if k not in powers:
            powers[k] = 10**k
        return read(part[:-k]) * powers[k] + read(part[-k:])

    return read(run)


def polynomial_to_dict(f: Polynomial) -> dict:
    """JSON-ready form: {"n": ..., "terms": [{"alpha", "beta", "re", "im"}, ...]}.

    Each part is written in lowest terms straight from the integer storage."""
    den = f._den

    def text(part: int) -> str:
        g = math.gcd(part, den)
        return _ratio_text(part // g, den // g)

    return {
        "n": f.n,
        "terms": [
            {"alpha": list(alpha), "beta": list(beta), "re": text(re), "im": text(im)}
            for (alpha, beta), (re, im) in sorted(f._num.items())
        ],
    }


def polynomial_from_dict(obj: object) -> Polynomial:
    """Parse the JSON form, naming the offending term on any malformed entry."""
    if not isinstance(obj, dict) or "n" not in obj or "terms" not in obj:
        raise FormatError("polynomial JSON must be an object with \"n\" and \"terms\"")
    try:
        n = _check_int('"n"', obj["n"], 2)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if not isinstance(obj["terms"], list):
        raise FormatError("\"terms\" must be a list")
    terms = []
    for i, entry in enumerate(obj["terms"]):
        try:
            if not isinstance(entry, dict):
                raise FormatError("not an object")
            alpha = entry["alpha"]
            beta = entry["beta"]
            if not isinstance(alpha, list) or not isinstance(beta, list):
                raise FormatError("\"alpha\" and \"beta\" must be lists")
            re, re_den = _ratio_parts(entry["re"])
            im, im_den = _ratio_parts(entry["im"])
            key = (_check_multiindex(alpha, n), _check_multiindex(beta, n))
        except (KeyError, ValueError, TypeError) as exc:
            raise FormatError(f"term {i}: {exc}") from exc
        terms += [(key, re, 0, re_den), (key, 0, im, im_den)]
    return _from_terms(n, terms)
