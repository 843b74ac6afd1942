"""Schatten r-norm estimation for the complex Green operator on S^{2n-1}.

The Green operator is compact and positive with eigenvalue 1/(2q(p+n-1)) of
multiplicity m_{p,q} on each bidegree-(p, q) harmonic space (q >= 1), so

    ||G||_r^r = sum_{q>=1} sum_{p>=0} m_{p,q} / (2q(p+n-1))^r,

finite exactly when r > n.  This module computes truncated sums (exactly for
integer r), brackets the discarded tail from both sides, and certifies
divergence with a rigorous separable lower bound that remains evaluable at
astronomically large cutoffs.

Exact partial sums.  At integer r every summand is an integer over the common
denominator L M, with L = lcm(n-1, ..., P+n-1)^r (the p side) and
M = (2 lcm(1, ..., Q))^r (the q side).  The double sum is accumulated as the
integer sum_q (M / (2q)^r) sum_p m_{p,q} (L / (p+n-1)^r) and normalised into
a Fraction once, at the end, instead of reducing a Fraction at every cell.

The rank-2 split.  With x = p+n-1, splitting p+q+n-1 = x + q in
m_{p,q} = (p+q+n-1)/(n-1) C(p+n-2, n-2) C(q+n-2, n-2) gives

    m_{p,q} / (2q x)^r = [a_{r-1}(p) b_r(q) + a_r(p) b_{r-1}(q) / 2] / (n-1),
    a_s(p) = C(p+n-2, n-2) x^{-s},    b_s(q) = C(q+n-2, n-2) (2q)^{-s}.

This is the module's one scaling convention: the 2 of the eigenvalue sits
inside the q-side power.  No float power in this module grows with r, so
huge orders underflow towards 0 instead of overflowing.  At
non-integer r the partial sum is (A1 B1 + A2 B2 / 2) / (n-1) over four 1-d
math.fsum sums of a_{r-1}, a_r, b_r and b_{r-1}: O(P+Q) terms, not (P+1)Q.

Huge cutoffs.  The power sums behind the divergence witness switch to
Euler-Maclaurin above _DIRECT_LIMIT summands, after a direct head of about
1e5 terms.  The head depends only on the exponent and the start, which stay
fixed while the witness doubles its cutoff, so it is memoised.

The tail bracket.  For each rank term the discarded region
{q > Q} union {p > P, q <= Q} carries A B_tail + A_tail B_head, where the
heads are the direct sums over p <= P and q <= Q and A = A_head + A_tail sums
over all p >= 0.  Each 1-d tail is bracketed by the integral test, valid for
f decreasing on [X, inf):

    integral_X^inf f  <=  sum_{x>=X} f(x)  <=  f(X) + integral_X^inf f.

The p-side factor C(x-1, n-2) x^{-s} has log derivative at most
(n-2)/(x-n+2) - s/x, so it decreases for x >= (n-1)(n-2) when s >= n-1, and
tail terms below that point are summed directly.  The q-side factor
decreases for every q >= 1 once s > n-2.  Both are a polynomial times a
power, so the identity

    integral_X^inf x^j (c x)^{-s} dx = c^{-s} X^(j+1-s) / (s-j-1)      (s > j+1)

gives every integral; it is validated against independent numeric
quadrature in the test suite.  All factors are nonnegative, so the 1-d lower
and upper bounds combine directly into the two-sided bracket.

Termwise bounds from the paper, checked by the acceptance criteria and by
``verify`` (valid for every p, q >= 0 resp. p >= n):

    m_{p,q} <= (n+p+q-1) (p+n-2)^{n-2} (q+n-2)^{n-2} / ((n-1)!(n-2)!)
    m_{0,q} <= (q+n-1)^{n-1} / (n-1)!
    1/(2q(p+n-1)) <  1/(2pq)   for p >= 1
    m_{p,q} >= (p+q) p^{n-2} q^{n-2} / ((n-1)!(n-2)!)
    1/(2q(p+n-1)) >= 1/(4pq)   for p >= n
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from . import spectrum
from .polynomials import Bidegree, fraction_to_string

__all__ = [
    "CONVERGES",
    "DIVERGES",
    "SchattenReport",
    "schatten_term",
    "upper_bound_term",
    "lower_bound_term",
    "partial_sum",
    "partial_sum_series",
    "tail_upper_bound",
    "tail_lower_bound",
    "lower_bound_sum",
    "verdict",
    "approx_formula",
    "approx_pole_constant",
    "schatten_report",
]

CONVERGES = "Converges"
DIVERGES = "Diverges"

# Above this many summands a 1-d power sum switches from direct summation to
# the certified Euler-Maclaurin evaluation (see _power_sum).
_DIRECT_LIMIT = 200_000


def _as_exponent(r) -> Fraction | float:
    if isinstance(r, bool):
        raise ValueError("r must be a number")
    if isinstance(r, int):
        return Fraction(r)
    if isinstance(r, float) and not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    if isinstance(r, (Fraction, float)):
        return r
    raise ValueError(f"r must be an int, Fraction, or float, got {type(r).__name__}")


def _validate_order(r) -> Fraction | float:
    r = _as_exponent(r)
    if r < 1:
        raise ValueError(f"Schatten order must satisfy r >= 1, got {r}")
    return r


def _bound_constant(n: int) -> int:
    return math.factorial(n - 1) * math.factorial(n - 2)


def _check_cutoff(name: str, value, least: int) -> None:
    if type(value) is not int or value < least:
        raise ValueError(f"cutoff {name} must be an integer >= {least}, got {value!r}")


def schatten_term(n: int, r, p: int, q: int) -> Fraction | float:
    """Exact summand m_{p,q} / (2q(p+n-1))^r; Fraction for integer r."""
    spectrum._check_dimension(n)
    r = _validate_order(r)
    if q < 1 or p < 0:
        raise ValueError("requires q >= 1 and p >= 0")
    m = spectrum.multiplicity(n, Bidegree(p, q))
    return m * spectrum.power(2 * q * (p + n - 1), -r)


def upper_bound_term(n: int, r, p: int, q: int) -> Fraction | float:
    """The proof-side upper integrand at (p, q); dominates schatten_term.

    Uses the single-sum bound for the p = 0 column and the 1/(2pq) eigenvalue
    bound for p >= 1.
    """
    spectrum._check_dimension(n)
    r = _validate_order(r)
    if q < 1 or p < 0:
        raise ValueError("requires q >= 1 and p >= 0")
    if p == 0:
        num = (q + n - 1) ** (n - 1)
        den_base = 2 * q * (n - 1)
        den_const = math.factorial(n - 1)
    else:
        num = (n + p + q - 1) * (p + n - 2) ** (n - 2) * (q + n - 2) ** (n - 2)
        den_base = 2 * p * q
        den_const = _bound_constant(n)
    return num * spectrum.power(den_base, -r) / den_const


def lower_bound_term(n: int, r, p: int, q: int) -> Fraction | float:
    """The proof-side lower integrand at (p, q); valid below schatten_term for p >= n."""
    spectrum._check_dimension(n)
    r = _validate_order(r)
    if q < 1 or p < n:
        raise ValueError("requires q >= 1 and p >= n")
    num = (p + q) * p ** (n - 2) * q ** (n - 2)
    return num * spectrum.power(4 * p * q, -r) / _bound_constant(n)


def _side_terms(
    n: int, shift: int, s: float, first: int, last: int, scale: int = 1
) -> list[float]:
    """The 1-d terms C(x+shift, n-2) (scale x)^{-s} for first <= x <= last."""
    return [math.comb(x + shift, n - 2) * float(scale * x) ** -s for x in range(first, last + 1)]


def partial_sum(n: int, r, P: int, Q: int) -> Fraction | float:
    """sum_{q=1}^{Q} sum_{p=0}^{P} m_{p,q} / (2q(p+n-1))^r.

    Exact rational for positive integer r, accumulated as one integer over
    the shared denominator of the module docstring and normalised once.
    Otherwise a double: the rank-2 split over four 1-d sums, each
    accumulated with math.fsum (see the module docstring).
    """
    spectrum._check_dimension(n)
    r = _validate_order(r)
    _check_cutoff("P", P, 0)
    _check_cutoff("Q", Q, 1)
    r_int = spectrum._integral_exponent(r)
    if r_int is not None:
        L = math.lcm(*range(n - 1, P + n)) ** r_int
        M = (2 * math.lcm(*range(1, Q + 1))) ** r_int
        weights = [L // (p + n - 1) ** r_int for p in range(P + 1)]
        total = 0
        for q in range(1, Q + 1):
            row = 0
            for p, w in enumerate(weights):
                row += spectrum.multiplicity(n, Bidegree(p, q)) * w
            total += row * (M // (2 * q) ** r_int)
        return Fraction(total, L * M)
    rf = float(r)
    a1, a2 = (math.fsum(_side_terms(n, -1, s, n - 1, P + n - 1)) for s in (rf - 1, rf))
    b1, b2 = (math.fsum(_side_terms(n, n - 2, s, 1, Q, 2)) for s in (rf, rf - 1))
    return (a1 * b1 + a2 * b2 / 2) / (n - 1)


def partial_sum_series(n: int, r, cutoff: int) -> list[tuple[int, float]]:
    """Running square-cutoff partial sums for plotting: entry c is
    partial_sum(n, float(r), c, c) up to rounding, (A1 B1 + A2 B2 / 2) / (n-1)
    over running prefix sums of the four 1-d factors of the module docstring,
    so the whole series costs O(cutoff) terms."""
    spectrum._check_dimension(n)
    r = _validate_order(r)
    _check_cutoff("cutoff", cutoff, 1)
    rf = float(r)
    a1, a2 = (accumulate(_side_terms(n, -1, s, n - 1, cutoff + n - 1)) for s in (rf - 1, rf))
    # B(0) = 0 puts the sums over p <= c and q <= c at index c of every prefix list
    b1, b2 = (accumulate(_side_terms(n, n - 2, s, 1, cutoff, 2), initial=0.0) for s in (rf, rf - 1))
    sums = enumerate(zip(a1, a2, b1, b2))
    return [(c, (x1 * y1 + x2 * y2 / 2) / (n - 1)) for c, (x1, x2, y1, y2) in sums][1:]


def verdict(n: int, r) -> str:
    """Converges iff r > n (the boundary r = n diverges)."""
    spectrum._check_dimension(n)
    r = _validate_order(r)
    return CONVERGES if r > n else DIVERGES


def approx_formula(n: int, r) -> float:
    """The closed-form approximation of ||G||_r^r obtained by replacing the
    double sum with its comparison integrals:

        r 4^{-r} n^{n-r} / ((r-n)(r-n+1) (n-1) (n-1)! (n-2)!)  +  n (2n-2)^{-r}.

    Captures the blow-up like 1/(r-n) as r -> n+ and the exact leading decay
    n/(2n-2)^r as r -> infinity, but carries no quantified error: certified
    statements must use partial_sum plus tail bounds instead.
    """
    spectrum._check_dimension(n)
    r = _as_exponent(r)
    if r <= n:
        raise ValueError(f"approximation requires r > n, got r={r}, n={n}")
    rf = float(r)
    first = rf * 0.25**rf * float(n) ** (n - rf) / (
        (rf - n) * (rf - n + 1) * (n - 1) * _bound_constant(n)
    )
    second = n * float(2 * n - 2) ** -rf
    return first + second


def approx_pole_constant(n: int) -> float:
    """lim_{r->n+} (r-n) * approx_formula(n, r) = n / (4^n (n-1) (n-1)!(n-2)!)."""
    spectrum._check_dimension(n)
    return n / (4.0**n * (n - 1) * _bound_constant(n))


# -- 1-d power sums with certified evaluation ---------------------------


@functools.lru_cache(maxsize=64)
def _em_head(s: float, a: int, m: int) -> float:
    """sum_{k=a}^{m-1} k^(-s) in descending order: the direct head of the
    Euler-Maclaurin branch of _power_sum, memoised because the cutoff
    doubling of the divergence witness asks for the same (s, a) every time."""
    head = 0.0
    for k in range(m - 1, a - 1, -1):
        head += float(k) ** (-s)
    return head


def _power_sum(s: float, a: int, b: int) -> float:
    """sum_{k=a}^{b} k^(-s), as a rigorous lower bound on long ranges.

    Short ranges are summed directly (ascending magnitude).  Long ranges use
    the trapezoid form of Euler-Maclaurin on [m, b],

        sum_{k=m}^{b} f(k) = integral_m^b f + (f(m)+f(b))/2 + R,
        |R| <= (s/12) (m^{-s-1} - b^{-s-1}),

    after summing [a, m) directly with m ~ 1e5 (memoised, see _em_head).  The
    bound on |R|, below 1e-10 absolute, is subtracted, making the result a
    rigorous lower bound for the true sum.
    """
    if a < 1:
        raise ValueError("power sums start at a >= 1")
    if b - a <= _DIRECT_LIMIT:
        total = 0.0
        for k in range(b, a - 1, -1) if s > 0 else range(a, b + 1):
            total += float(k) ** (-s)
        return total
    if s <= 0:
        raise ValueError("huge-cutoff evaluation needs decaying terms (s > 0)")
    m = max(a, 100_000)
    head = _em_head(s, a, m)
    if s == 1:
        integral = math.log(b / m)
    else:
        integral = (float(m) ** (1 - s) - float(b) ** (1 - s)) / (s - 1)
    trapezoid = integral + (float(m) ** (-s) + float(b) ** (-s)) / 2.0
    error = (s / 12.0) * float(m) ** (-s - 1)
    return head + (trapezoid - error)


def lower_bound_sum(n: int, r, P: int, Q: int) -> float:
    """sum_{q=1}^{Q} sum_{p=n}^{P} (p+q) p^{n-2} q^{n-2} / ((4pq)^r (n-1)!(n-2)!).

    A rigorous lower bound for ||G||_r^r over that index range.  The summand
    separates as p^{n-1-r} q^{n-2-r} + p^{n-2-r} q^{n-1-r}, so the double sum
    is a combination of four 1-d power sums; those are evaluated with
    certified lower rounding (see _power_sum), which keeps the result a true
    lower bound even at cutoffs far beyond direct summation (the r = n
    divergence witness needs ~60 cutoff doublings).
    """
    spectrum._check_dimension(n)
    r = _validate_order(r)
    _check_cutoff("P", P, n)
    _check_cutoff("Q", Q, 1)
    rf = float(r)
    sp1 = _power_sum(rf - n + 1, n, P)  # sum p^{n-1-r}
    sp2 = _power_sum(rf - n + 2, n, P)  # sum p^{n-2-r}
    sq1 = _power_sum(rf - n + 1, 1, Q)
    sq2 = _power_sum(rf - n + 2, 1, Q)
    return (sp1 * sq2 + sp2 * sq1) * 0.25**rf / _bound_constant(n)


# -- tail bracket -------------------------------------------------------


def _integral_to_infinity(coeffs: list[float], r: float, x: float) -> float:
    """integral_x^inf (sum_j c_j v^j) / v^r dv, requiring r > deg+1."""
    total = 0.0
    for j, c in enumerate(coeffs):
        if c == 0.0:
            continue
        if r <= j + 1:
            raise ValueError(f"integral diverges: power {j} needs r > {j + 1}")
        total += c * x ** (j + 1 - r) / (r - j - 1)
    return total


def _side_sums(
    n: int, shift: int, s: float, first: int, last: int, decreasing_from: int, scale: int = 1
) -> tuple[float, float, float]:
    """For f(x) = C(x+shift, n-2) (scale x)^{-s}: the head sum over
    first <= x <= last and a (lower, upper) bracket of the tail sum over x > last.

    f must be decreasing on [decreasing_from, inf); tail terms below that
    point are summed directly and the rest is bracketed by the integral test.
    """
    head = math.fsum(_side_terms(n, shift, s, first, last, scale))
    start = max(last + 1, decreasing_from)
    direct = math.fsum(_side_terms(n, shift, s, last + 1, start - 1, scale))
    # C(x+shift, n-2) = prod_{j<n-2} (x+shift-j) / (n-2)!, lowest power first
    coeffs = [1.0 / math.factorial(n - 2)]
    for j in range(n - 2):
        coeffs = [(shift - j) * c + prev for c, prev in zip(coeffs + [0.0], [0.0] + coeffs)]
    integral = _integral_to_infinity(coeffs, s, float(start)) * float(scale) ** -s
    (f_start,) = _side_terms(n, shift, s, start, start, scale)
    return head, direct + integral, direct + integral + f_start


def _tail_bracket(n: int, r, P: int, Q: int) -> tuple[float, float]:
    """(lower, upper) for the discarded mass {q > Q} union {q <= Q, p > P},
    from the rank-2 split of the module docstring; both +inf when r <= n."""
    spectrum._check_dimension(n)
    r = _validate_order(r)
    _check_cutoff("P", P, 0)
    _check_cutoff("Q", Q, 1)
    if r <= n:
        return math.inf, math.inf
    rf = float(r)
    bounds = [0.0, 0.0]
    for sa, sb, weight in ((rf - 1, rf, 1.0), (rf, rf - 1, 0.5)):
        a_head, *a_tail = _side_sums(n, -1, sa, n - 1, P + n - 1, (n - 1) * (n - 2))
        b_head, *b_tail = _side_sums(n, n - 2, sb, 1, Q, 1, 2)
        for i in (0, 1):
            bounds[i] += weight * ((a_head + a_tail[i]) * b_tail[i] + a_tail[i] * b_head)
    return bounds[0] / (n - 1), bounds[1] / (n - 1)


def tail_upper_bound(n: int, r, P: int, Q: int) -> float:
    """Rigorous upper bound for all discarded terms {q > Q} union {q <= Q, p > P};
    +inf whenever r <= n (the series diverges there)."""
    return _tail_bracket(n, r, P, Q)[1]


def tail_lower_bound(n: int, r, P: int, Q: int) -> float:
    """Rigorous lower bound for the same discarded mass; +inf when r <= n
    (the tail alone already diverges)."""
    return _tail_bracket(n, r, P, Q)[0]


# -- report --------------------------------------------------------------


@dataclass(frozen=True)
class SchattenReport:
    """Partial sum plus certified tail bracket and the convergence verdict."""

    n: int
    r: Fraction | float
    cutoff_p: int
    cutoff_q: int
    partial_sum: Fraction | float
    tail_upper: float
    tail_lower: float
    verdict: str
    approx_value: float | None

    def to_json_dict(self) -> dict:
        exact = isinstance(self.partial_sum, Fraction)
        out: dict = {
            "n": self.n,
            "r": fraction_to_string(self.r) if isinstance(self.r, Fraction) else self.r,
            "cutoff_p": self.cutoff_p,
            "cutoff_q": self.cutoff_q,
        }
        if exact:
            out["partial_sum"] = fraction_to_string(self.partial_sum)
        out["partial_sum_float"] = float(self.partial_sum)
        out["tail_upper_float"] = "inf" if math.isinf(self.tail_upper) else self.tail_upper
        out["tail_lower_float"] = "inf" if math.isinf(self.tail_lower) else self.tail_lower
        out["verdict"] = self.verdict
        out["approx_value_float"] = self.approx_value
        return out


def schatten_report(n: int, r, P: int, Q: int) -> SchattenReport:
    """Assemble the full report at cutoffs (P, Q)."""
    r = _validate_order(r)
    v = verdict(n, r)
    tail_lower, tail_upper = _tail_bracket(n, r, P, Q)
    return SchattenReport(
        n=n,
        r=r,
        cutoff_p=P,
        cutoff_q=Q,
        partial_sum=partial_sum(n, r, P, Q),
        tail_upper=tail_upper,
        tail_lower=tail_lower,
        verdict=v,
        approx_value=approx_formula(n, r) if v == CONVERGES else None,
    )
