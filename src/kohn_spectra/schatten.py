"""Schatten r-norm estimation for the complex Green operator on S^{2n-1}.

The Green operator is compact and positive with eigenvalue 1/(2q(p+n-1)) of
multiplicity m_{p,q} on each bidegree-(p, q) harmonic space (q >= 1), so

    ||G||_r^r = sum_{q>=1} sum_{p>=0} m_{p,q} / (2q(p+n-1))^r,

finite exactly when r > n.  This module computes truncated sums (exactly for
integer r), brackets the discarded tail from both sides, and certifies
divergence with a rigorous separable lower bound that remains evaluable at
astronomically large cutoffs.

The tail bracket.  Splitting p+q+n-1 = (p+n-1) + q in
m_{p,q} = (p+q+n-1)/(n-1) C(p+n-2, n-2) C(q+n-2, n-2) makes the summand
rank 2:

    m_{p,q} / (2q(p+n-1))^r = [a_{r-1}(p) b_r(q) + a_r(p) b_{r-1}(q)] / ((n-1) 2^r),
    a_s(p) = C(p+n-2, n-2) (p+n-1)^{-s},    b_s(q) = C(q+n-2, n-2) q^{-s}.

For each rank term the discarded region {q > Q} union {p > P, q <= Q}
carries A B_tail + A_tail B_head, where the heads are the direct sums over
p <= P and q <= Q and A = A_head + A_tail sums over all p >= 0.  Each 1-d
tail is bracketed by the integral test, valid for f decreasing on [X, inf):

    integral_X^inf f  <=  sum_{x>=X} f(x)  <=  f(X) + integral_X^inf f.

In x = p+n-1 the p-side factor is C(x-1, n-2) x^{-s}; its log derivative is
at most (n-2)/(x-n+2) - s/x, so it decreases for x >= (n-1)(n-2) when
s >= n-1, and tail terms below that point are summed directly.  The q-side
factor decreases for every q >= 1 once s > n-2.  Both are a polynomial times
a power, so the identity

    integral_X^inf x^(j-s) dx = X^(j+1-s) / (s-j-1)      (s > j+1)

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

import math
from dataclasses import dataclass
from fractions import Fraction

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


def partial_sum(n: int, r, P: int, Q: int) -> Fraction | float:
    """sum_{q=1}^{Q} sum_{p=0}^{P} m_{p,q} / (2q(p+n-1))^r.

    Exact rational for positive integer r.  Otherwise every term is computed
    in double precision and accumulated in ascending order of magnitude to
    limit rounding error.
    """
    spectrum._check_dimension(n)
    r = _validate_order(r)
    if P < 0 or Q < 1:
        raise ValueError("requires P >= 0 and Q >= 1")
    r_int = spectrum._integral_exponent(r)
    if r_int is not None:
        total = Fraction(0)
        for q in range(1, Q + 1):
            row = Fraction(0)
            for p in range(0, P + 1):
                m = spectrum.multiplicity(n, Bidegree(p, q))
                row += Fraction(m, (2 * q * (p + n - 1)) ** r_int)
            total += row
        return total
    rf = float(r)
    terms = []
    for q in range(1, Q + 1):
        for p in range(0, P + 1):
            m = spectrum.multiplicity(n, Bidegree(p, q))
            terms.append(m * float(2 * q * (p + n - 1)) ** (-rf))
    terms.sort()
    total_f = 0.0
    for t in terms:
        total_f += t
    return total_f


def partial_sum_series(n: int, r, cutoff: int) -> list[tuple[int, float]]:
    """Running square-cutoff partial sums for plotting: entry c holds the
    float value of partial_sum(n, r, c, c), built incrementally by adding
    the L-shaped increment at each step."""
    spectrum._check_dimension(n)
    r = _validate_order(r)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    rf = float(r)

    def term(p: int, q: int) -> float:
        return spectrum.multiplicity(n, Bidegree(p, q)) * float(
            2 * q * (p + n - 1)
        ) ** (-rf)

    series = []
    total = sum(term(p, 1) for p in range(0, 2))
    series.append((1, total))
    for c in range(2, cutoff + 1):
        for p in range(0, c + 1):
            total += term(p, c)
        for q in range(1, c):
            total += term(c, q)
        series.append((c, total))
    return series


def verdict(n: int, r) -> str:
    """Converges iff r > n (the boundary r = n diverges)."""
    spectrum._check_dimension(n)
    r = _validate_order(r)
    return CONVERGES if r > n else DIVERGES


def approx_formula(n: int, r) -> float:
    """The closed-form approximation of ||G||_r^r obtained by replacing the
    double sum with its comparison integrals:

        r / (4^r (r-n)(r-n+1) n^{r-n} (n-1) (n-1)! (n-2)!)  +  n / (2n-2)^r.

    Captures the blow-up like 1/(r-n) as r -> n+ and the exact leading decay
    n/(2n-2)^r as r -> infinity, but carries no quantified error: certified
    statements must use partial_sum plus tail bounds instead.
    """
    spectrum._check_dimension(n)
    r = _as_exponent(r)
    if r <= n:
        raise ValueError(f"approximation requires r > n, got r={r}, n={n}")
    rf = float(r)
    first = rf / (
        4.0**rf
        * (rf - n)
        * (rf - n + 1)
        * float(n) ** (rf - n)
        * (n - 1)
        * _bound_constant(n)
    )
    second = n / float(2 * n - 2) ** rf
    return first + second


def approx_pole_constant(n: int) -> float:
    """lim_{r->n+} (r-n) * approx_formula(n, r) = n / (4^n (n-1) (n-1)!(n-2)!)."""
    spectrum._check_dimension(n)
    return n / (4.0**n * (n - 1) * _bound_constant(n))


# -- 1-d power sums with certified evaluation ---------------------------


def _power_sum(s: float, a: int, b: int | None, lower: bool = True) -> float:
    """sum_{k=a}^{b} k^(-s), with b = None meaning infinity.

    Short ranges are summed directly (ascending magnitude).  Long or infinite
    ranges use the trapezoid form of Euler-Maclaurin on [m, b],

        sum_{k=m}^{b} f(k) = integral_m^b f + (f(m)+f(b))/2 + R,
        |R| <= (s/12) (m^{-s-1} - b^{-s-1}),

    after summing [a, m) directly with m ~ 1e5, so the certified error bound
    is below 1e-10 absolute.  With ``lower`` the bound is subtracted, making
    the result a rigorous lower bound for the true sum; otherwise the
    midpoint estimate is returned.
    """
    if a < 1:
        raise ValueError("power sums start at a >= 1")
    if b is not None and b < a:
        return 0.0
    if b is None and s <= 1:
        return math.inf
    if b is not None and b - a <= _DIRECT_LIMIT:
        total = 0.0
        for k in range(b, a - 1, -1) if s > 0 else range(a, b + 1):
            total += float(k) ** (-s)
        return total
    if s <= 0:
        raise ValueError("huge-cutoff evaluation needs decaying terms (s > 0)")
    m = max(a, 100_000)
    head = 0.0
    for k in range(m - 1, a - 1, -1):
        head += float(k) ** (-s)
    if s == 1:
        integral = math.log(b / m) if b is not None else math.inf
    else:
        upper = float(b) ** (1 - s) if b is not None else 0.0
        integral = (float(m) ** (1 - s) - upper) / (s - 1)
    if integral == math.inf:
        return math.inf
    end_term = float(b) ** (-s) if b is not None else 0.0
    trapezoid = integral + (float(m) ** (-s) + end_term) / 2.0
    error = (s / 12.0) * float(m) ** (-s - 1)
    return head + (trapezoid - error if lower else trapezoid)


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
    if P < n or Q < 1:
        raise ValueError(f"requires P >= n={n} and Q >= 1")
    rf = float(r)
    sp1 = _power_sum(rf - n + 1, n, P)  # sum p^{n-1-r}
    sp2 = _power_sum(rf - n + 2, n, P)  # sum p^{n-2-r}
    sq1 = _power_sum(rf - n + 1, 1, Q)
    sq2 = _power_sum(rf - n + 2, 1, Q)
    return (sp1 * sq2 + sp2 * sq1) / (4.0**rf * _bound_constant(n))


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
    n: int, shift: int, s: float, first: int, last: int, decreasing_from: int
) -> tuple[float, float, float]:
    """For f(x) = C(x+shift, n-2) x^{-s}: the head sum over first <= x <= last
    and a (lower, upper) bracket of the tail sum over x > last.

    f must be decreasing on [decreasing_from, inf); tail terms below that
    point are summed directly and the rest is bracketed by the integral test.
    """

    def f(x: int) -> float:
        return math.comb(x + shift, n - 2) * float(x) ** -s

    head = math.fsum(f(x) for x in range(first, last + 1))
    start = max(last + 1, decreasing_from)
    direct = math.fsum(f(x) for x in range(last + 1, start))
    # C(x+shift, n-2) = prod_{j<n-2} (x+shift-j) / (n-2)!, lowest power first
    coeffs = [1.0 / math.factorial(n - 2)]
    for j in range(n - 2):
        coeffs = [(shift - j) * c + prev for c, prev in zip(coeffs + [0.0], [0.0] + coeffs)]
    integral = _integral_to_infinity(coeffs, s, float(start))
    return head, direct + integral, direct + integral + f(start)


def _tail_bracket(n: int, r, P: int, Q: int) -> tuple[float, float]:
    """(lower, upper) for the discarded mass {q > Q} union {q <= Q, p > P},
    from the rank-2 split of the module docstring; both +inf when r <= n."""
    spectrum._check_dimension(n)
    r = _validate_order(r)
    if P < 0 or Q < 1:
        raise ValueError("requires P >= 0 and Q >= 1")
    if r <= n:
        return math.inf, math.inf
    rf = float(r)
    bounds = [0.0, 0.0]
    for sa, sb in ((rf - 1, rf), (rf, rf - 1)):
        a_head, *a_tail = _side_sums(n, -1, sa, n - 1, P + n - 1, (n - 1) * (n - 2))
        b_head, *b_tail = _side_sums(n, n - 2, sb, 1, Q, 1)
        for i in (0, 1):
            bounds[i] += (a_head + a_tail[i]) * b_tail[i] + a_tail[i] * b_head
    scale = (n - 1) * 2.0**rf
    return bounds[0] / scale, bounds[1] / scale


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
    return SchattenReport(
        n=n,
        r=r,
        cutoff_p=P,
        cutoff_q=Q,
        partial_sum=partial_sum(n, r, P, Q),
        tail_upper=tail_upper_bound(n, r, P, Q),
        tail_lower=tail_lower_bound(n, r, P, Q),
        verdict=v,
        approx_value=approx_formula(n, r) if v == CONVERGES else None,
    )
