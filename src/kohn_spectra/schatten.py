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
Each cell's m_{p,q} is one call of the public closed form
spectrum.multiplicity on a plain (p, q) pair, which its check unpacks without
building a Bidegree; the exact branch does not use the rank-2 split below, so
it still visits all (P+1)Q cells.

The rank-2 split.  With x = p+n-1, splitting p+q+n-1 = x + q in
m_{p,q} = (p+q+n-1)/(n-1) C(p+n-2, n-2) C(q+n-2, n-2) gives

    m_{p,q} / (2q x)^r = [a_{r-1}(p) b_r(q) + a_r(p) b_{r-1}(q) / 2] / (n-1),
    a_s(p) = C(p+n-2, n-2) x^{-s},    b_s(q) = C(q+n-2, n-2) (2q)^{-s}.

This is the module's one scaling convention: the 2 of the eigenvalue sits
inside the q-side power.  No float power in this module grows with r, so
huge orders underflow towards 0 instead of overflowing; factorials and
binomials meet floats only as exact integer quotients rounded once, so huge
n does the same.  _rank_terms states the split once, _combine its float
evaluation order; the plotting series, the tail bracket and the float partial
sum read both, the last over four 1-d math.fsum sums: O(P+Q) terms, not (P+1)Q.

Certified 1-d sums.  The tail bracket rests on one bracket (_sum_bracket)
of a sum of f(x) = C(x+shift, k) (scale x)^{-s}: a direct head, then the
integral test on the rest, where f is monotone,

    integral_m^b f + min(f(m), f(b))  <=  sum_{x=m}^{b} f(x)
                                      <=  integral_m^b f + max(f(m), f(b)),

with f(inf) = 0, both ends rounded outward.  Expanding the binomial, once
per (k, shift) (_expansion), gives the integral from powers of x; it is
validated against numeric quadrature in the test suite.  For each rank term
the discarded region {q > Q} union {p > P, q <= Q} carries
A B_tail + A_tail B_head, where the heads sum over p <= P and q <= Q and
A = A_head + A_tail sums over all p >= 0.  A side's terms have log derivative at most k/(x+shift-k+1) - s/x,
so once s > k they decrease for x >= s(k-shift-1)/(s-k), and tail terms
below that point are summed directly: on the p side (C(x-1, n-2) x^{-s})
that point is at most (n-1)(n-2) when s >= n-1, and the q side
(shift = k) decreases for every q >= 1.  All factors are nonnegative, so
the 1-d brackets combine directly into the two-sided tail bracket.

The divergence witness brackets four power sums, f(x) = x^{-s}
(_power_bracket).  At s > 0 every derivative of f keeps one sign on x > 0,
so Euler-Maclaurin (NIST DLMF 2.10(i)) through the B_2 term leaves a
remainder between 0 and the B_4 term, b = inf included:

    sum_{x=m}^{b} f = integral_m^b f + (f(m) + f(b))/2 + (s/12)(m^{-s-1} - b^{-s-1})
                      - theta s(s+1)(s+2)/720 (m^{-s-3} - b^{-s-3}),    0 <= theta <= 1.

After a direct head of _WITNESS_HEAD terms this bracket is about 5e-10 wide
at s = 1, where the integral test's is as wide as f(m), and one evaluation
costs the same at any cutoff.  Its integral is evaluated in closed form,
log1p((b-m)/m) at s = 1 and (b^{1-s} - m^{1-s})/(1-s) otherwise, with the
size |m^{1-s} + b^{1-s}|/|1-s|: _integral's k = 0 value and size, bit for
bit (up to the sign of a zero integral at m = b, which no sum sees), without
its expansion loop.  At s <= 0 (orders r <= n-1) the terms increase, and the
integral test brackets them after a head of 1000 terms.

Every directly summed 1-d sum -- a bracket's head and the four factors of
the float partial sum -- is one call of the memoised _direct_sum, so a float
report's partial sum and the heads of its tail bracket share their four
sums, and the witness sums its four heads once per process, at every
cutoff.  math.fsum rounds the exact sum of its terms once, so a memoised sum
is bit-identical to one summed afresh.  Every 1-d term, the endpoint terms
f(m) and f(b) of _sum_bracket included, comes from one kernel (_terms),
which evaluates the formula inline for a whole range; at k = 0 (the
witness's power sums, and both sides at n = 2) it is the power x^{-s} alone,
which _power_bracket evaluates at its two ends, bit for bit.

The order rule.  Every base of a term (2q(p+n-1), its two factors, and the
witness's p, q and 4pq) is at least 1, so every term is nonincreasing in the
order r.  So a certified end is evaluated at a double next to r (_doubles):
a lower end at the least double >= r, an upper end at the greatest double
<= r, both float(r) when r is a double.  The plotting series and
approx_formula claim no bound and take float(r).

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
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain

from . import spectrum
from .polynomials import _check_int

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

# Terms each power sum of the divergence witness adds up directly before its
# Euler-Maclaurin bracket (_power_bracket): measured, 64 cost what 32 do and
# keep the bracket's lower end within 2e-14 of the sum at r = n.
_WITNESS_HEAD = 64


def _validate_order(n: int, r) -> int | Fraction | float:
    """Check the dimension n and the Schatten order r >= 1; return r, an int when integral."""
    spectrum._check_dimension(n)
    r = spectrum._check_order("r", r)
    if r < 1:
        raise ValueError(f"Schatten order must satisfy r >= 1, got {r}")
    return r


def _bound_constant(n: int) -> int:
    return math.factorial(n - 1) * math.factorial(n - 2)


def _times_power(num: int, base: int, r, den: int = 1) -> Fraction | float:
    """num * base^{-r} / den for a validated order r: exact when r is an int
    (:func:`spectrum._check_order`), base^r under spectrum.power's size
    budget.  Otherwise only base^(floor(r)-r), in (1/base, 1], is a float
    power; it meets the exact num / (den base^floor(r)) once, so neither huge
    ints nor an underflowing power spoil a representable result, and that
    quotient is not formed when bit lengths put it below 2^-1075, where the
    result rounds to 0.0."""
    if type(r) is int:
        spectrum._check_power_size(base, r)
        return Fraction(num, den * base**r)
    whole = math.floor(r)
    if num.bit_length() - den.bit_length() + 1 - (base.bit_length() - 1) * whole <= -1075:
        return 0.0
    return float(Fraction(num, den * base**whole) * Fraction(spectrum.power(base, whole - r)))


def schatten_term(n: int, r, p: int, q: int) -> Fraction | float:
    """Exact summand m_{p,q} / (2q(p+n-1))^r; Fraction for integer r."""
    r = _validate_order(n, r)
    _check_int("p", p)
    _check_int("q", q, 1)
    return _times_power(spectrum.multiplicity(n, (p, q)), 2 * q * (p + n - 1), r)


def upper_bound_term(n: int, r, p: int, q: int) -> Fraction | float:
    """The proof-side upper integrand at (p, q); dominates schatten_term.

    Uses the single-sum bound for the p = 0 column and the 1/(2pq) eigenvalue
    bound for p >= 1.
    """
    r = _validate_order(n, r)
    _check_int("q", q, 1)
    if _check_int("p", p) == 0:
        num = (q + n - 1) ** (n - 1)
        den_base = 2 * q * (n - 1)
        den_const = math.factorial(n - 1)
    else:
        num = (n + p + q - 1) * (p + n - 2) ** (n - 2) * (q + n - 2) ** (n - 2)
        den_base = 2 * p * q
        den_const = _bound_constant(n)
    return _times_power(num, den_base, r, den_const)


def lower_bound_term(n: int, r, p: int, q: int) -> Fraction | float:
    """The proof-side lower integrand at (p, q); valid below schatten_term for p >= n."""
    r = _validate_order(n, r)
    _check_int("p", p, n)
    _check_int("q", q, 1)
    num = (p + q) * p ** (n - 2) * q ** (n - 2)
    return _times_power(num, 4 * p * q, r, _bound_constant(n))


def _split(k: int, s: float, last, scale: int) -> int:
    """The t of the term kernel (_terms) for the terms up to x = last: 0
    unless b^{-s} would fall below 2^-1000 on the range, and at most k."""
    return k and max(0, min(k, math.ceil(s - 1000 / math.log2(max(2, scale * last)))))


def _terms(
    k: int, shift: int, s: float, first: int, last: int, scale: int = 1, t: int | None = None
) -> list[float]:
    """The 1-d terms C(x+shift, k) (scale x)^{-s} at first <= x <= last, the
    module's one copy of the term: C(x+shift, k) / b^t (an exact quotient
    rounded once) times b^e, b = scale x and e = t-s, with t split at last
    (_split) unless given.  So a binomial past the float range or a power
    below it never spoils a representable term.  At k = 0 = t the quotient is
    1/1, so the term is b^e alone, bit for bit.  The term at x alone is
    _terms(k, shift, s, x, x, scale)[0]."""
    if t is None:
        t = _split(k, s, last, scale)
    e = t - s
    xs = range(first, last + 1)
    if k == t == 0:
        return [(scale * x) ** e for x in xs]
    if t == 0:  # the binomial rounded once by the product, as by the quotient over b^0 = 1
        return [math.comb(x + shift, k) * (scale * x) ** e for x in xs]
    return [math.comb(x + shift, k) / (b := scale * x) ** t * b**e for x in xs]


@functools.lru_cache(maxsize=256)
def _direct_sum(k: int, shift: int, s: float, first: int, last: int, scale: int) -> float:
    """math.fsum of _terms(k, shift, s, first, last, scale), memoised (see
    the module docstring).  Callers pass all six arguments positionally, so
    that equal sums share one key, and validate them before reaching the cache.
    The terms are evaluated 4096 at a time, t split at last for all of them,
    so one call holds no more than that many at any cutoff; fsum rounds their
    exact sum once, so the sum is bit-identical to one over a single list."""
    t = _split(k, s, last, scale)
    chunks = (_terms(k, shift, s, x, min(last, x + 4095), scale, t) for x in range(first, last + 1, 4096))
    return math.fsum(chain.from_iterable(chunks))


def _doubles(r) -> tuple[float, float]:
    """(the greatest double <= r, the least double >= r): the order rule.
    The sign of x - r comes from integer ratios: comparing a float with a
    Fraction builds a Fraction, and costs several times more."""
    c, d = r.as_integer_ratio()
    x = c / d  # float(r): the true quotient of two ints is correctly rounded
    a, b = x.as_integer_ratio()
    gap = a * d - c * b
    return (x if gap <= 0 else math.nextafter(x, -math.inf)), (x if gap >= 0 else math.nextafter(x, math.inf))


def _rank_terms(n: int, r: float, P: int, Q: int) -> list[tuple]:
    """The rank-2 split at cutoffs (P, Q), stated once: (weight, p side, q side)
    per term, a side being the _direct_sum arguments of its 1-d factor."""
    return [
        (weight, (n - 2, -1, sa, n - 1, P + n - 1, 1), (n - 2, n - 2, sb, 1, Q, 2))
        for weight, sa, sb in ((1.0, r - 1, r), (0.5, r, r - 1))
    ]


def _combine(n: int, terms, product) -> float:
    """sum(weight * product(p side, q side)) / (n-1) over the rank terms, in this one order."""
    return sum(weight * product(a, b) for weight, a, b in terms) / (n - 1)


def partial_sum(n: int, r, P: int, Q: int) -> Fraction | float:
    """sum_{q=1}^{Q} sum_{p=0}^{P} m_{p,q} / (2q(p+n-1))^r.

    Exact rational for positive integer r, accumulated as one integer over
    the shared denominator of the module docstring and normalised once; its
    two lcm powers pass spectrum.power's size budget.
    Otherwise a double: the rank-2 split over its four 1-d sums, memoised
    heads that a report shares with its tail bracket (module docstring).
    """
    r = _validate_order(n, r)
    _check_int("P", P)
    _check_int("Q", Q, 1)
    if type(r) is int:
        # the sum's largest numbers, under spectrum.power's size budget
        L = spectrum.power(math.lcm(*range(n - 1, P + n)), r).numerator
        M = spectrum.power(2 * math.lcm(*range(1, Q + 1)), r).numerator
        weights = [L // (p + n - 1) ** r for p in range(P + 1)]
        # looked up per call, not at import, so a wrapper set on spectrum still sees every cell
        multiplicity = spectrum.multiplicity
        total = 0
        for q in range(1, Q + 1):
            row = 0
            for p, w in enumerate(weights):
                row += multiplicity(n, (p, q)) * w
            total += row * (M // (2 * q) ** r)
        return Fraction(total, L * M)
    return _combine(n, _rank_terms(n, float(r), P, Q), lambda a, b: _direct_sum(*a) * _direct_sum(*b))


def partial_sum_series(n: int, r, cutoff: int) -> list[tuple[int, float]]:
    """Running square-cutoff partial sums for plotting: entry c is
    partial_sum(n, float(r), c, c) up to rounding, the rank-2 split over
    running prefix sums of its four 1-d factors: O(cutoff) terms in all."""
    r = _validate_order(n, r)
    _check_int("cutoff", cutoff)
    # after a leading 0, the last cutoff + 1 prefix sums of a side put its sum up to cutoff c at index c
    prefix = [
        (w, *(list(accumulate(_terms(*side), initial=0.0))[-cutoff - 1 :] for side in sides))
        for w, *sides in _rank_terms(n, float(r), cutoff, cutoff)
    ]
    return [(c, _combine(n, prefix, lambda a, b: a[c] * b[c])) for c in range(1, cutoff + 1)]


def verdict(n: int, r) -> str:
    """Converges iff r > n (the boundary r = n diverges)."""
    r = _validate_order(n, r)
    return CONVERGES if r > n else DIVERGES


def approx_formula(n: int, r) -> float:
    """The closed-form approximation of ||G||_r^r obtained by replacing the
    double sum with its comparison integrals:

        r 4^{-r} n^{n-r} / ((r-n)(r-n+1) (n-1) (n-1)! (n-2)!)  +  n (2n-2)^{-r}.

    Captures the blow-up like 1/(r-n) as r -> n+ and the exact leading decay
    n/(2n-2)^r as r -> infinity, but carries no quantified error: certified
    statements must use partial_sum plus tail bounds instead.  The pole
    factor takes r - n from the double of r, or exactly from r when that
    double is n itself (r within double resolution above n).
    """
    r = _validate_order(n, r)
    if r <= n:
        raise ValueError(f"approximation requires r > n, got r={r}, n={n}")
    rf = float(r)
    first = rf * 0.25**rf * float(n) ** (n - rf)  # the numerator: 0.0 before the pole's double overflows
    if first:
        pole = Fraction((rf - n) * (rf - n + 1)) if rf > n else (r - n) * (r - n + 1)
        first = float(Fraction(first) / (pole * (n - 1) * _bound_constant(n)))
    second = n * float(2 * n - 2) ** -rf
    return first + second


def approx_pole_constant(n: int) -> float:
    """lim_{r->n+} (r-n) * approx_formula(n, r) = n / (4^n (n-1) (n-1)!(n-2)!)."""
    spectrum._check_dimension(n)
    return n / (4**n * (n - 1) * _bound_constant(n))


# -- certified 1-d sums ---------------------------------------------------


def _outward(lower: float, upper: float, size: float) -> tuple[float, float]:
    """Round a (lower, upper) bracket of a nonnegative quantity outward.

    size is the sum of the absolute values of the pieces behind both ends.
    Each piece takes a few roundings and one libm pow or log1p, assumed
    within 1 ulp as glibc documents, before math.fsum and a few additions,
    so 8 ulps of size bound the error; the smallest normal double covers
    pieces that underflowed, and one math.nextafter the margin's own rounding.
    """
    margin = 8 * sys.float_info.epsilon * size + sys.float_info.min
    return (
        max(0.0, math.nextafter(lower - margin, -math.inf)),
        math.nextafter(upper + margin, math.inf),
    )


@functools.lru_cache(maxsize=64)
def _expansion(k: int, shift: int) -> tuple[float, ...]:
    """The coefficients of C(x+shift, k) in powers of x, lowest first, each an
    exact integer coefficient of prod_{j<k} (x+shift-j) over k!, rounded once."""
    coeffs = [1]
    for j in range(k):
        coeffs = [(shift - j) * c + prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
    return tuple(c / math.factorial(k) for c in coeffs)


def _integral(k: int, shift: int, s: float, m: int, last) -> tuple[float, float]:
    """(value, size) of the integral from m to last of C(x+shift, k) x^{-s},
    last possibly math.inf.  With e = j+1-s, the term c_j x^j of the expanded
    binomial adds c_j (last^e - m^e) / e, or c_j log(last/m) when e = 0;
    counting |m^e| and |last^e| apart in the size covers their cancellation
    and that of alternating c_j."""
    pieces, sizes = [], []
    for j, c in enumerate(_expansion(k, shift)):
        e = j + 1 - s
        if e == 0:
            pieces.append(c * math.log1p((last - m) / m))
            sizes.append(abs(pieces[-1]))
        else:
            m_e, last_e = float(m) ** e, float(last) ** e
            pieces.append(c * (last_e - m_e) / e)
            sizes.append(abs(c * (m_e + last_e) / e))
    return math.fsum(pieces), math.fsum(sizes)


def _sum_bracket(
    k: int, shift: int, s: float, first: int, last, direct_to: int, scale: int = 1
) -> tuple[float, float]:
    """Outward-rounded (lower, upper) for sum_{x=first}^{last} C(x+shift, k) (scale x)^{-s},
    last possibly math.inf: terms through direct_to are summed directly, the
    rest, on which the terms must be monotone, by the integral test of the
    module docstring, its integral (_integral) scaled by scale^{-s}.
    """
    m = max(first, direct_to + 1)
    direct = _direct_sum(k, shift, s, first, min(last, m - 1), scale)
    if m > last:
        return _outward(direct, direct, direct)
    scale_s = float(scale) ** -s
    integral, size = (v * scale_s for v in _integral(k, shift, s, m, last))
    f_m, f_last = (0.0 if x == math.inf else _terms(k, shift, s, x, x, scale)[0] for x in (m, last))
    return _outward(
        direct + integral + min(f_m, f_last),
        direct + integral + max(f_m, f_last),
        direct + size + f_m + f_last,
    )


def _power_bracket(s: float, first: int, last) -> tuple[float, float]:
    """Outward-rounded (lower, upper) for sum_{x=first}^{last} x^{-s}, last
    possibly math.inf: _WITNESS_HEAD terms summed directly, then, when s > 0,
    Euler-Maclaurin through B_2 with the B_4 term bounding the remainder
    (module docstring); at s <= 0, 1000 terms and the integral test of
    _sum_bracket, whose bracket is as wide as f(b) - f(m).  The end terms
    f(x) = x^{-s} are the kernel's k = 0 terms, bit for bit, and x^{-s-1},
    x^{-s-3} are f(x)/x and f(x)/x^3, so no exponent is rounded."""
    m = first + (_WITNESS_HEAD if s > 0 else 1000)
    if s <= 0 or m > last:
        return _sum_bracket(0, 0, s, first, last, m - 1)
    direct = _direct_sum(0, 0, s, first, m - 1, 1)
    e = 1 - s  # the integral of x^{-s} from m to last: _integral's k = 0 value, in closed form
    if e == 0:
        integral = size = math.log1p((last - m) / m)
    else:
        m_e, b_e = float(m) ** e, float(last) ** e
        integral, size = (b_e - m_e) / e, abs((m_e + b_e) / e)
    f_m, f_b = m**-s, float(last) ** -s
    d1_m, d1_b = f_m / m, f_b / last
    d3_m, d3_b = d1_m / m / m, d1_b / last / last
    c2, c4 = s / 12, s * (s + 1) * (s + 2) / 720
    upper = math.fsum((direct, integral, f_m / 2, f_b / 2, c2 * (d1_m - d1_b)))
    size += direct + f_m + f_b + c2 * (d1_m + d1_b) + c4 * (d3_m + d3_b)
    return _outward(upper - c4 * (d3_m - d3_b), upper, size)


def lower_bound_sum(n: int, r, P: int, Q: int) -> float:
    """sum_{q=1}^{Q} sum_{p=n}^{P} (p+q) p^{n-2} q^{n-2} / ((4pq)^r (n-1)!(n-2)!).

    A rigorous lower bound for ||G||_r^r over that index range.  The summand
    separates as p^{n-1-r} q^{n-2-r} + p^{n-2-r} q^{n-1-r}, so the double sum
    combines four 1-d power sums, each the lower end of _power_bracket; the
    cost does not grow with the cutoffs, which the r = n divergence witness
    doubles about 60 times.  It is a lower end under the order rule.  The
    quotient by (n-1)!(n-2)! is one float division while that constant is a
    double (n <= 15), an exact Fraction rounded once beyond: the same float.
    """
    r = _validate_order(n, r)
    _check_int("P", P, n)
    _check_int("Q", Q, 1)
    rf = _doubles(r)[1]
    # sp1 = sum_p p^{n-1-r}, sp2 = sum_p p^{n-2-r}, and the same over q
    s1, s2 = rf - n + 1, rf - n + 2
    sp1, sp2 = _power_bracket(s1, n, P)[0], _power_bracket(s2, n, P)[0]
    sq1, sq2 = _power_bracket(s1, 1, Q)[0], _power_bracket(s2, 1, Q)[0]
    x, c = (sp1 * sq2 + sp2 * sq1) * 0.25**rf, _bound_constant(n)
    value = x / c if c.bit_length() <= 1023 and float(c) == c else float(Fraction(x) / c)
    return _outward(value, value, value)[0]


# -- tail bracket -------------------------------------------------------


def _tail_bracket(n: int, r, P: int, Q: int) -> tuple[float, float]:
    """(lower, upper) for the discarded mass {q > Q} union {q <= Q, p > P},
    from the rank-2 split under the order rule of the module docstring; both
    +inf when r <= n."""
    r = _validate_order(n, r)
    _check_int("P", P)
    _check_int("Q", Q, 1)
    if r <= n:
        return math.inf, math.inf
    below, above = _doubles(r)
    if below != above:
        return _tail_bracket(n, above, P, Q)[0], _tail_bracket(n, below, P, Q)[1]

    def ends(k, shift, s, first, last, scale):
        # (head, tail) brackets of one side; the tail is summed directly up to the first x
        # where its terms decrease, ceil(s(k-shift-1)/(s-k)), exact in s = num/den
        num, den = s.as_integer_ratio()
        decreasing = -(-num * (k - shift - 1) // (num - k * den))
        head = _sum_bracket(k, shift, s, first, last, last, scale)
        return head, _sum_bracket(k, shift, s, last + 1, math.inf, decreasing - 1, scale)

    brackets = [(w, ends(*a), ends(*b)) for w, a, b in _rank_terms(n, below, P, Q)]
    # A B_tail + A_tail B_head of the module docstring, at each end i of the brackets
    lower, upper = (
        _combine(n, brackets, lambda a, b: (a[0][i] + a[1][i]) * b[1][i] + a[1][i] * b[0][i])
        for i in (0, 1)
    )
    return _outward(lower, upper, upper)


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
    r: int | Fraction | float
    cutoff_p: int
    cutoff_q: int
    partial_sum: Fraction | float
    tail_upper: float
    tail_lower: float
    verdict: str
    approx_value: float | None


def schatten_report(n: int, r, P: int, Q: int) -> SchattenReport:
    """Assemble the full report at cutoffs (P, Q), certified as
    partial_sum + tail_lower <= ||G||_r^r <= partial_sum + tail_upper.

    A float partial sum (non-integer r) is rounded down by the margin of
    _outward, and tail_upper widened by the width of that bracket, its ends
    at the doubles of the module docstring's order rule.  With
    u = eps/2, each 1-d term is within 4u (a rounded quotient, a 1-ulp pow,
    a product), each fsum of them within 5u, each product of two within
    11u, and their sum over n-1 within 13u < 8 eps of the exact value.
    """
    r = _validate_order(n, r)
    v = verdict(n, r)
    tail_lower, tail_upper = _tail_bracket(n, r, P, Q)
    total = partial_sum(n, r, P, Q)
    if isinstance(total, float):
        below, above = _doubles(r)
        low, high = (total, total) if below == above else (partial_sum(n, s, P, Q) for s in (above, below))
        total, high = _outward(low, high, high)
        tail_upper = math.nextafter(tail_upper + (high - total), math.inf)
    return SchattenReport(
        n=n,
        r=r,
        cutoff_p=P,
        cutoff_q=Q,
        partial_sum=total,
        tail_upper=tail_upper,
        tail_lower=tail_lower,
        verdict=v,
        approx_value=approx_formula(n, r) if v == CONVERGES else None,
    )
