"""Exact polynomial algebra on C^n in the variables z_1..z_n, zbar_1..zbar_n.

Coefficients are Gaussian rationals (:class:`ExactScalar`): complex numbers
whose real and imaginary parts are arbitrary-precision rationals.  A
polynomial is a sparse map from exponent pairs ``(alpha, beta)`` to
coefficients, where ``alpha`` and ``beta`` are length-``n`` tuples of
nonnegative integers and a term reads ``c * z^alpha * zbar^beta``.  Zero
coefficients are never stored, so equality of polynomials is a structural
comparison of term maps.

Splitting by bidegree ``(|alpha|, |beta|)`` and the ambient Laplacian

    lap f = 4 * sum_j d^2 f / (dz_j dzbar_j)

are the two structural operations everything else builds on.

The L^2 pairing on the unit sphere S^{2n-1} uses the normalized surface
measure (total mass 1, so <1, 1> = 1) and the closed-form monomial integral

    integral of z^alpha * zbar^beta  =  0                              if alpha != beta
                                     =  (n-1)! alpha! / (n-1+|alpha|)! if alpha == beta

which makes every inner product of polynomials an exact Gaussian rational.
The closed form is validated in the test suite against the recursion forced
by |z|^2 = 1 on the sphere before anything downstream relies on it.
"""

from __future__ import annotations

import math
import re as _re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
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
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


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
        den = other.re * other.re + other.im * other.im
        if not den:
            raise ZeroDivisionError("division by zero ExactScalar")
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


ZERO = ExactScalar()
ONE = ExactScalar(Fraction(1))


def as_scalar(value: ScalarLike) -> ExactScalar:
    """Coerce an int, Fraction, or ExactScalar to an ExactScalar."""
    if isinstance(value, ExactScalar):
        return value
    return ExactScalar(_as_fraction(value))


class Bidegree(NamedTuple):
    """Homogeneity degrees in z and zbar separately."""

    p: int
    q: int

    @property
    def total(self) -> int:
        return self.p + self.q


def _check_multiindex(entries: Iterable[int], n: int) -> Multiindex:
    idx = tuple(entries)
    if not all(isinstance(e, int) and not isinstance(e, bool) for e in idx):
        raise TypeError(f"multiindex {idx!r} must hold integers")
    if len(idx) != n:
        raise ValueError(f"multiindex {idx} has length {len(idx)}, expected {n}")
    if any(e < 0 for e in idx):
        raise ValueError(f"multiindex {idx} has a negative entry")
    return idx


class Polynomial:
    """Sparse polynomial in z_1..z_n, zbar_1..zbar_n over Gaussian rationals.

    Terms are stored canonically: zero coefficients pruned, every multiindex
    of length ``n``.  Instances are treated as immutable; all arithmetic
    returns new objects.
    """

    __slots__ = ("n", "_terms")

    def __init__(
        self,
        n: int,
        terms: Mapping[tuple[Multiindex, Multiindex], ScalarLike]
        | Iterable[tuple[tuple[Multiindex, Multiindex], ScalarLike]] = (),
    ) -> None:
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"ambient complex dimension must be an integer >= 2, got {n}")
        object.__setattr__(self, "n", n)
        items = terms.items() if isinstance(terms, Mapping) else terms
        canonical = _collect(
            ((_check_multiindex(alpha, n), _check_multiindex(beta, n)), as_scalar(coeff))
            for (alpha, beta), coeff in items
        )
        object.__setattr__(self, "_terms", canonical)

    @property
    def terms(self) -> dict[tuple[Multiindex, Multiindex], ExactScalar]:
        """The canonical term map.  Do not mutate."""
        return self._terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: ScalarLike) -> "Polynomial":
        zero_idx = (0,) * n
        return cls(n, {(zero_idx, zero_idx): value})

    @classmethod
    def z(cls, n: int, j: int) -> "Polynomial":
        """The coordinate z_j (1-based)."""
        return cls.monomial(n, _unit_index(n, j), (0,) * n)

    @classmethod
    def z_bar(cls, n: int, j: int) -> "Polynomial":
        """The conjugate coordinate zbar_j (1-based)."""
        return cls.monomial(n, (0,) * n, _unit_index(n, j))

    @classmethod
    def monomial(
        cls, n: int, alpha: Iterable[int], beta: Iterable[int], coeff: ScalarLike = 1
    ) -> "Polynomial":
        return cls(n, {(tuple(alpha), tuple(beta)): coeff})

    # -- ring operations ----------------------------------------------

    def _require_same_dimension(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"cannot combine polynomials on C^{self.n} and C^{other.n}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dimension(other)
        return _raw(self.n, _collect(chain(self._terms.items(), other._terms.items())))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return _raw(self.n, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other: "Polynomial | ScalarLike") -> "Polynomial":
        if isinstance(other, (ExactScalar, Fraction, int)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dimension(other)
        return _raw(
            self.n,
            _collect(
                (
                    (tuple(x + y for x, y in zip(a1, a2)), tuple(x + y for x, y in zip(b1, b2))),
                    c1 * c2,
                )
                for (a1, b1), c1 in self._terms.items()
                for (a2, b2), c2 in other._terms.items()
            ),
        )

    def __rmul__(self, other: ScalarLike) -> "Polynomial":
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self.n, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def scale(self, factor: ScalarLike) -> "Polynomial":
        factor = as_scalar(factor)
        if not factor:
            return Polynomial.zero(self.n)
        return _raw(self.n, {k: c * factor for k, c in self._terms.items()})

    def conjugate(self) -> "Polynomial":
        """Complex conjugate: swaps alpha with beta and conjugates coefficients."""
        return _raw(self.n, {(b, a): c.conjugate() for (a, b), c in self._terms.items()})

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        raise TypeError("Polynomial is not hashable")

    def total_degree(self) -> int:
        """Max of |alpha| + |beta| over stored terms (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(sum(a) + sum(b) for a, b in self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (alpha, beta), coeff in sorted(self._terms.items()):
            factors = [f"z{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(alpha) if e]
            factors += [f"zb{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(beta) if e]
            body = "*".join(factors) if factors else "1"
            parts.append(f"{coeff}*{body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}: {self})"


def _collect(pairs: Iterable[tuple]) -> dict:
    """Sum the values of equal keys (coefficients of equal exponent pairs,
    or polynomials of equal bidegree), then drop the zero sums."""
    out = {}
    for key, value in pairs:
        out[key] = out[key] + value if key in out else value
    return {key: value for key, value in out.items() if value}


def _raw(n: int, terms: dict[tuple[Multiindex, Multiindex], ExactScalar]) -> Polynomial:
    """Build a polynomial from an already-canonical term dict (no re-validation)."""
    poly = Polynomial.__new__(Polynomial)
    object.__setattr__(poly, "n", n)
    object.__setattr__(poly, "_terms", terms)
    return poly


def _unit_index(n: int, j: int) -> Multiindex:
    if not 1 <= j <= n:
        raise ValueError(f"coordinate index {j} out of range 1..{n}")
    return tuple(1 if i == j - 1 else 0 for i in range(n))


def radius_squared(n: int) -> Polynomial:
    """|z|^2 = sum_j z_j * zbar_j, which is identically 1 on the unit sphere."""
    return Polynomial(
        n, {(_unit_index(n, j), _unit_index(n, j)): 1 for j in range(1, n + 1)}
    )


# -- differential operators -------------------------------------------


def ambient_laplacian(f: Polynomial) -> Polynomial:
    """4 * sum_j d^2 f / (dz_j dzbar_j), computed termwise.

    Each monomial of bidegree (p, q) maps to bidegree (p-1, q-1) terms;
    anything with no mixed dependence (q = 0 or p = 0 in a variable) drops out.
    """
    return _raw(
        f.n,
        _collect(
            (
                (alpha[:j] + (a - 1,) + alpha[j + 1 :], beta[:j] + (b - 1,) + beta[j + 1 :]),
                coeff * (4 * a * b),
            )
            for (alpha, beta), coeff in f.terms.items()
            for j, (a, b) in enumerate(zip(alpha, beta))
            if a and b
        ),
    )


def euler_z(f: Polynomial) -> Polynomial:
    """The z-degree Euler operator sum_j z_j d/dz_j (scales a bidegree-(p,q) term by p)."""
    return _raw(f.n, {key: c * sum(key[0]) for key, c in f.terms.items() if sum(key[0])})


def euler_z_bar(f: Polynomial) -> Polynomial:
    """The zbar-degree Euler operator sum_j zbar_j d/dzbar_j."""
    return _raw(f.n, {key: c * sum(key[1]) for key, c in f.terms.items() if sum(key[1])})


# -- bidegree bookkeeping ---------------------------------------------


def bidegree_split(f: Polynomial) -> dict[Bidegree, Polynomial]:
    """Partition the terms of ``f`` by bidegree (|alpha|, |beta|).

    Each part is bihomogeneous of its key and the parts sum back to ``f``.
    The zero polynomial yields an empty map.
    """
    buckets: dict[Bidegree, dict[tuple[Multiindex, Multiindex], ExactScalar]] = {}
    for key, coeff in f.terms.items():
        d = Bidegree(sum(key[0]), sum(key[1]))
        buckets.setdefault(d, {})[key] = coeff
    return {d: _raw(f.n, terms) for d, terms in sorted(buckets.items())}


def bidegree_of(f: Polynomial) -> Bidegree | None:
    """The bidegree of a bihomogeneous nonzero polynomial, else None."""
    degrees = {(sum(a), sum(b)) for a, b in f.terms}
    if len(degrees) != 1:
        return None
    return Bidegree(*degrees.pop())


# -- integration over the sphere --------------------------------------


@lru_cache(maxsize=None)
def _diagonal_integral(n: int, alpha: Multiindex) -> Fraction:
    num = math.factorial(n - 1)
    for a in alpha:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(n - 1 + sum(alpha)))


def monomial_sphere_integral(n: int, alpha: Iterable[int], beta: Iterable[int] | None = None) -> Fraction:
    """Integral of z^alpha * zbar^beta over S^{2n-1}, normalized measure.

    Vanishes unless alpha == beta; on the diagonal it equals
    (n-1)! * alpha! / (n-1+|alpha|)!.
    """
    a = _check_multiindex(alpha, n)
    if beta is not None:
        b = _check_multiindex(beta, n)
        if a != b:
            return Fraction(0)
    return _diagonal_integral(n, a)


def sphere_inner_product(f: Polynomial, g: Polynomial) -> ExactScalar:
    """<f, g> = integral over S^{2n-1} of f * conj(g), exactly.

    A term pair ((alpha,beta), (gamma,delta)) contributes only when
    alpha + delta == beta + gamma, i.e. alpha - beta == gamma - delta, so
    terms are bucketed by that difference before pairing.
    """
    if f.n != g.n:
        raise DimensionMismatchError(
            f"cannot pair polynomials on C^{f.n} and C^{g.n}"
        )
    by_diff: dict[Multiindex, list[tuple[Multiindex, Multiindex, ExactScalar]]] = {}
    for (gamma, delta), d in g.terms.items():
        key = tuple(x - y for x, y in zip(gamma, delta))
        by_diff.setdefault(key, []).append((gamma, delta, d))
    total = ZERO
    for (alpha, beta), c in f.terms.items():
        key = tuple(x - y for x, y in zip(alpha, beta))
        for gamma, delta, d in by_diff.get(key, ()):
            mu = tuple(x + y for x, y in zip(alpha, delta))
            total = total + (c * d.conjugate()) * _diagonal_integral(f.n, mu)
    return total


def l2_norm_squared(f: Polynomial) -> Fraction:
    """<f, f> as an exact nonnegative rational."""
    value = sphere_inner_product(f, f)
    if value.im:
        raise RuntimeError(f"<f, f> came out non-real ({value}); this is a bug")
    return value.re


# -- enumeration and sampling ------------------------------------------


def multiindices(n: int, degree: int) -> list[Multiindex]:
    """All length-n multiindices of total degree ``degree``, ascending lex."""
    if degree < 0:
        return []

    def rec(slots: int, total: int) -> Iterator[Multiindex]:
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in rec(slots - 1, total - first):
                yield (first,) + rest

    return list(rec(n, degree))


def random_polynomial(
    rng,
    n: int,
    max_degree: int,
    max_terms: int = 6,
    coeff_bound: int = 3,
    complex_coeffs: bool = True,
) -> Polynomial:
    """A small random polynomial with |alpha|+|beta| <= max_degree.

    Deterministic for a given ``random.Random`` state; used by the seeded
    property checks and the CLI verification bundle.
    """
    terms = []
    for _ in range(max_terms):
        k = rng.randint(0, max_degree)
        p = rng.randint(0, k)
        q = k - p
        alpha = _random_composition(rng, n, p)
        beta = _random_composition(rng, n, q)
        re = Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 4))
        im = Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 4)) if complex_coeffs else Fraction(0)
        terms.append(((alpha, beta), ExactScalar(re, im)))
    return Polynomial(n, terms)


def _random_composition(rng, n: int, total: int) -> Multiindex:
    out = [0] * n
    for _ in range(total):
        out[rng.randrange(n)] += 1
    return tuple(out)


# -- serialization ------------------------------------------------------

_FRACTION_RE = _re.compile(r"^-?\d+(/\d+)?$")


def fraction_to_string(value: Fraction) -> str:
    """Serialize as "numerator/denominator", always with the slash."""
    return f"{value.numerator}/{value.denominator}"


def fraction_from_string(text: str) -> Fraction:
    if not isinstance(text, str) or not _FRACTION_RE.match(text.strip()):
        raise FormatError(f"malformed rational {text!r}; expected \"numerator/denominator\"")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise FormatError(f"rational {text!r} has a zero denominator") from exc


def polynomial_to_dict(f: Polynomial) -> dict:
    """JSON-ready form: {"n": ..., "terms": [{"alpha", "beta", "re", "im"}, ...]}."""
    return {
        "n": f.n,
        "terms": [
            {
                "alpha": list(alpha),
                "beta": list(beta),
                "re": fraction_to_string(coeff.re),
                "im": fraction_to_string(coeff.im),
            }
            for (alpha, beta), coeff in sorted(f.terms.items())
        ],
    }


def polynomial_from_dict(obj: object) -> Polynomial:
    """Parse the JSON form, naming the offending term on any malformed entry."""
    if not isinstance(obj, dict) or "n" not in obj or "terms" not in obj:
        raise FormatError("polynomial JSON must be an object with \"n\" and \"terms\"")
    n = obj["n"]
    if not isinstance(n, int) or n < 2:
        raise FormatError(f"\"n\" must be an integer >= 2, got {n!r}")
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
            coeff = ExactScalar(
                fraction_from_string(entry["re"]), fraction_from_string(entry["im"])
            )
            key = (_check_multiindex(alpha, n), _check_multiindex(beta, n))
        except (KeyError, ValueError, TypeError) as exc:
            raise FormatError(f"term {i}: {exc}") from exc
        terms.append((key, coeff))
    return Polynomial(n, terms)
