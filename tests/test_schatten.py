"""Schatten norms: exact partial sums, certified tail bounds, verdicts.

The tail bracket rests on an integral-test bracket of 1-d sums, the
divergence witness on an Euler-Maclaurin bracket of power sums; their
integrals are validated here against independent numeric quadrature
(scipy), their ends against brute-force, exact Fraction and mpmath sums,
and the whole tail bracket against the zeta closed forms of ||G||_r^r for
n = 2 and 3, before the acceptance suite leans on it.
"""

import collections
import contextlib
import math
import random
import sys
from fractions import Fraction

import pytest
from scipy import integrate, special

from helpers import clear_library_memos, cli_json
from kohn_spectra import schatten, spectrum
from kohn_spectra.polynomials import Bidegree
from kohn_spectra.schatten import (
    _WITNESS_HEAD,
    CONVERGES,
    DIVERGES,
    _power_bracket,
    _sum_bracket,
    approx_formula,
    approx_pole_constant,
    lower_bound_sum,
    lower_bound_term,
    partial_sum,
    partial_sum_series,
    schatten_report,
    schatten_term,
    tail_lower_bound,
    tail_upper_bound,
    upper_bound_term,
    verdict,
)


def brute_square_sum(n, r, cutoff):
    """Independent float evaluation of the square partial sum for n = 2,
    via the separable split (p+q+1) = (p+1) + q of the multiplicity."""
    assert n == 2
    a2 = sum((p + 1.0) ** (-(r - 1)) for p in range(cutoff + 1))
    a3 = sum((p + 1.0) ** (-r) for p in range(cutoff + 1))
    b2 = sum(float(q) ** (-(r - 1)) for q in range(1, cutoff + 1))
    b3 = sum(float(q) ** (-r) for q in range(1, cutoff + 1))
    return (a2 * b3 + a3 * b2) / 2.0**r


def sorted_cell_loop(n, r, P, Q):
    """The float partial sum as one term per cell, summed in ascending order:
    the reference for the separable float branch of partial_sum."""
    terms = []
    for q in range(1, Q + 1):
        for p in range(0, P + 1):
            m = spectrum.multiplicity(n, Bidegree(p, q))
            terms.append(m * float(2 * q * (p + n - 1)) ** (-r))
    terms.sort()
    total = 0.0
    for t in terms:
        total += t
    return total


def mp_partial_sum(mpmath, n, r, P, Q):
    """The partial sum at mpmath's working precision, through the rank-2 split
    m_{p,q} / (2q x)^r = C_p C_q [x^{1-r} (2q)^{-r} + x^{-r} (2q)^{1-r} / 2] / (n-1)."""
    r = mpmath.mpf(r)
    c = [math.comb(k + n - 2, n - 2) for k in range(max(P, Q) + 1)]
    a1, a2 = (
        mpmath.fsum(c[p] * mpmath.mpf(p + n - 1) ** (s - r) for p in range(P + 1)) for s in (1, 0)
    )
    b1, b2 = (mpmath.fsum(c[q] * mpmath.mpf(2 * q) ** (s - r) for q in range(1, Q + 1)) for s in (0, 1))
    return (a1 * b1 + a2 * b2 / 2) / (n - 1)


def mp_norm(mpmath, n, r):
    """||G||_r^r at mpmath's working precision: each factor of the rank-2
    split is a sum of C(x+shift, n-2) x^{-s}, a polynomial in x times a
    power, so it is a combination of Hurwitz zeta values."""

    def zeta_sum(shift, s, first, scale):
        # C(x+shift, k) = prod_{i<k} (x+shift-i) / k!, expanded lowest power first
        coeffs = [1]
        for i in range(n - 2):
            coeffs = [(shift - i) * c + prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
        terms = (c * mpmath.zeta(s - j, first) for j, c in enumerate(coeffs) if c)
        return mpmath.fsum(terms) / math.factorial(n - 2) / mpmath.mpf(scale) ** s

    r = mpmath.mpf(r)
    a1, a2 = (zeta_sum(-1, r - j, n - 1, 1) for j in (1, 0))
    b1, b2 = (zeta_sum(n - 2, r - j, 1, 2) for j in (0, 1))
    return (a1 * b1 + a2 * b2 / 2) / (n - 1)


def mp_fraction(x):
    man, exp = x.man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def mp_norm_at(mpmath, n, r):
    """||G||_r^r at the exact rational order r, to 300 bits, as a Fraction:
    2^{1-r} zeta(r) zeta(r-1) at n = 2, mp_norm beyond."""
    with mpmath.workprec(300):
        s = mpmath.mpf(r.numerator) / r.denominator
        return mp_fraction(2 ** (1 - s) * mpmath.zeta(s) * mpmath.zeta(s - 1) if n == 2 else mp_norm(mpmath, n, s))


def float_orders(n):
    return (1.0, 2.5, float(n), n + 0.5, n + 1.0, 37.25)


def zeta_closed_form(n, r):
    """||G||_r^r from scipy's zeta: the rank-2 split summed in closed form."""
    z = special.zeta
    if n == 2:
        return 2.0 ** (1 - r) * z(r) * z(r - 1)
    assert n == 3
    return (
        (z(r - 2) - z(r - 1)) * (z(r - 1) + z(r)) + (z(r - 1) - z(r)) * (z(r - 2) + z(r - 1))
    ) / (2 * 2.0**r)


class TestPartialSum:
    def test_first_cell(self):
        assert partial_sum(2, 3, 0, 1) == Fraction(1, 4)

    def test_two_cells(self):
        assert partial_sum(2, 3, 1, 1) == Fraction(19, 64)

    def test_exact_type_for_integer_order(self):
        assert isinstance(partial_sum(3, 4, 5, 5), Fraction)

    def test_monotone_in_cutoffs(self):
        base = partial_sum(2, 3, 10, 10)
        assert partial_sum(2, 3, 11, 10) > base
        assert partial_sum(2, 3, 10, 11) > base

    def test_divergence_probe_keeps_growing(self):
        small = partial_sum(2, 2, 100, 100)
        large = partial_sum(2, 2, 200, 200)
        assert large > small

    def test_float_path_close_to_exact(self):
        exact = float(partial_sum(2, 3, 40, 40))
        floaty = partial_sum(2, 3.0, 40, 40)
        assert floaty == pytest.approx(exact, rel=1e-12)

    def test_matches_independent_separable_sum(self):
        assert partial_sum(2, 3.0, 30, 30) == pytest.approx(
            brute_square_sum(2, 3, 30), rel=1e-12
        )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            partial_sum(2, Fraction(1, 2), 5, 5)
        with pytest.raises(ValueError):
            partial_sum(2, 3, -1, 5)
        with pytest.raises(ValueError):
            partial_sum(2, 3, 5, 0)

    @pytest.mark.parametrize("P, Q", [(True, 4), (4, True), (4.0, 4), (4, 4.5), (2.5, 3)])
    @pytest.mark.parametrize(
        "function",
        [
            lambda P, Q: partial_sum(2, 3, P, Q),
            lambda P, Q: partial_sum(2, Fraction(7, 2), P, Q),
            lambda P, Q: tail_upper_bound(2, 3, P, Q),
            lambda P, Q: lower_bound_sum(2, 3, P, Q),
            lambda P, Q: schatten_report(2, 3, P, Q),
        ],
        ids=["exact", "float", "tail", "witness", "report"],
    )
    def test_non_integer_cutoffs_rejected(self, function, P, Q):
        with pytest.raises(ValueError, match="must be an integer"):
            function(P, Q)

    @pytest.mark.parametrize("cutoff", [True, 4.0])
    def test_non_integer_series_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="must be an integer"):
            partial_sum_series(2, 3, cutoff)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_non_finite_order_rejected(self, r):
        with pytest.raises(ValueError):
            schatten_report(2, r, 10, 10)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("P, Q", [(0, 1), (1, 1), (7, 3), (3, 7), (25, 25)])
    def test_matches_naive_fraction_sum(self, n, P, Q):
        """The shared-denominator sum equals a per-cell Fraction sum that uses
        the binomial form of the multiplicity, also at the divergent r <= n."""
        for r in sorted({1, 2, n, n + 1, n + 3, 12}):
            naive = Fraction(0)
            for q in range(1, Q + 1):
                for p in range(P + 1):
                    m = spectrum.multiplicity_binomial(n, Bidegree(p, q))
                    naive += Fraction(m, (2 * q * (p + n - 1)) ** r)
            exact = partial_sum(n, r, P, Q)
            assert type(exact) is Fraction
            assert exact == naive
            assert str(exact) == str(naive)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("P, Q", [(0, 1), (7, 3), (3, 7), (50, 50)])
    def test_float_branch_matches_sorted_cell_loop(self, n, P, Q):
        for r in float_orders(n):
            assert partial_sum(n, r, P, Q) == pytest.approx(sorted_cell_loop(n, r, P, Q), rel=1e-14)

    @pytest.mark.parametrize(
        "n, P, Q",
        [(n, P, Q) for n in range(2, 7) for P, Q in [(0, 1), (7, 3), (3, 7), (50, 50)]]
        + [(n, 400, 400) for n in (2, 3, 4)],
    )
    def test_float_branch_against_mpmath(self, n, P, Q):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for r in float_orders(n):
                reference = mp_partial_sum(mpmath, n, r, P, Q)
                value = partial_sum(n, r, P, Q)
                assert abs(value - reference) <= 2e-15 * reference

    def test_mpmath_reference_matches_cell_sum(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for n, r, P, Q in [(2, 2.5, 7, 3), (3, 3.5, 3, 7), (5, 37.25, 6, 6)]:
                cells = mpmath.fsum(
                    spectrum.multiplicity(n, Bidegree(p, q)) * mpmath.mpf(2 * q * (p + n - 1)) ** -r
                    for q in range(1, Q + 1)
                    for p in range(P + 1)
                )
                assert abs(mp_partial_sum(mpmath, n, r, P, Q) - cells) <= mpmath.mpf(10) ** -36 * cells

    @pytest.mark.parametrize("r", [1100.5, 100000.5])
    def test_huge_order_float_sum_underflows_to_zero(self, r):
        value = partial_sum(2, r, 3, 3)
        assert type(value) is float
        assert value == 0.0

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("dr", [0.5, 1])
    def test_series_matches_partial_sum_at_every_cutoff(self, n, dr):
        r = n + dr
        series = partial_sum_series(n, r, 30)
        assert [c for c, _ in series] == list(range(1, 31))
        for c, value in series:
            assert value == pytest.approx(partial_sum(n, float(r), c, c), rel=1e-13)
        assert all(a[1] < b[1] for a, b in zip(series, series[1:]))

    def test_series_increments(self):
        series = partial_sum_series(2, 3, 12)
        assert series[-1][1] == pytest.approx(float(partial_sum(2, 3, 12, 12)), rel=1e-12)
        assert all(a[1] < b[1] for a, b in zip(series, series[1:]))

    def test_lcm_powers_have_the_power_size_budget(self):
        # the one cell m_{0,1} / 2^r = 2^{1-r}: M = 2^r reaches the budget at r = 2^18
        assert partial_sum(2, 2**18, 0, 1) == Fraction(2, 2 ** 2**18)
        for r in (2**18 + 1, Fraction(10**6)):
            with pytest.raises(ValueError, match=f"size budget of {spectrum._POWER_BITS} bits"):
                partial_sum(2, r, 0, 1)
        with pytest.raises(ValueError, match="exact power of 12 too large"):
            partial_sum(2, 10**6, 3, 3)  # L = M = 12^r


class TestVerdict:
    def test_examples(self):
        assert verdict(2, 3) == CONVERGES
        assert verdict(2, 2) == DIVERGES
        assert verdict(5, 5) == DIVERGES

    def test_fractional_order(self):
        assert verdict(2, Fraction(5, 2)) == CONVERGES
        assert verdict(2, 2.0001) == CONVERGES


class TestApproxFormula:
    def test_closed_value_n2_r3(self):
        assert approx_formula(2, 3) == pytest.approx(3 / 256 + 1 / 4, rel=1e-15)

    def test_large_r_dominated_by_lowest_eigenvalue(self):
        r = 40
        assert approx_formula(2, r) / (2 * 2.0**-r) == pytest.approx(1.0, abs=1e-12)

    def test_pole_at_r_equals_n(self):
        constant = approx_pole_constant(3)
        for r in (3.01, 3.001):
            assert approx_formula(3, r) * (r - 3) == pytest.approx(constant, rel=0.05)

    def test_requires_r_above_n(self):
        with pytest.raises(ValueError):
            approx_formula(2, 2)

    def test_order_whose_double_is_n(self):
        # r > n but float(r) == n: the pole factor takes the exact gap r - n
        for n, gap in ((2, Fraction(1, 10**19)), (3, Fraction(1, 10**20))):
            assert float(n + gap) == n
            assert approx_formula(n, n + gap) == pytest.approx(approx_pole_constant(n) / gap, rel=1e-15)


def brute_side_sum(k, shift, s, first, last, scale=1):
    """sum_{x=first}^{last} C(x+shift, k) (scale x)^{-s} in plain floats, term by term."""
    return math.fsum(math.comb(x + shift, k) * float(scale * x) ** -s for x in range(first, last + 1))


def test_libm_pow_is_within_one_ulp():
    # _outward counts one 1-ulp pow per term.  The terms take b^e, b = scale x
    # an int and e = t - s for a non-integer s; _split keeps b^-s above
    # 2^-1000, so the samples stay in that range.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(1910)
    worst = 0.0
    with mpmath.workprec(200):
        for _ in range(2000):
            b = int(2 ** rng.uniform(1, math.log2(2 * 10**7)))
            s = rng.uniform(0.5, min(400, 1000 / math.log2(b)))
            value = float(b) ** -s
            exact = mpmath.mpf(b) ** mpmath.mpf(-s)
            worst = max(worst, float(abs(mpmath.mpf(value) - exact)) / math.ulp(float(exact)))
    assert worst <= 1


class TestSumBracket:
    def test_direct_range_contains_exact_sum(self):
        mpmath = pytest.importorskip("mpmath")
        lower, upper = _sum_bracket(0, 0, 1.5, 3, 999, 999)
        with mpmath.workdps(40):
            exact = mpmath.fsum(mpmath.mpf(x) ** mpmath.mpf(-1.5) for x in range(3, 1000))
        assert lower < exact < upper
        assert upper - lower <= 1e-14 * exact

    def test_old_euler_maclaurin_range_lies_inside(self):
        # the range just past the former 200 000-term direct-summation limit,
        # the integral test after a head of 1000 terms
        a, b, s = 5, 300_007, 1.25
        direct = brute_side_sum(0, 0, s, a, b)
        lower, upper = _sum_bracket(0, 0, s, a, b, a + 999)
        assert lower <= direct <= upper
        assert upper - lower <= 1e-3 * direct

    @pytest.mark.parametrize(
        "k, shift, s, first, last, direct_to, scale",
        [
            (0, 0, 1.25, 5, 5000, 104, 1),  # decreasing power sum
            (0, 0, 1.0, 1, 5000, 10, 1),  # the logarithmic integral
            (0, 0, -1.5, 1, 5000, 50, 1),  # increasing terms
            (0, 0, -2.0, 4, 3000, 4, 1),  # increasing, no direct head
            (2, -1, 4.5, 3, 20000, 9, 1),  # p side across the switch, n = 4
            (1, 1, 2.5, 1, 20000, 30, 2),  # q side, n = 3
            (1, 1, 2.5, 1, 7, 30, 2),  # range ends inside the direct head
        ],
    )
    def test_finite_ranges_contain_brute_force(self, k, shift, s, first, last, direct_to, scale):
        lower, upper = _sum_bracket(k, shift, s, first, last, direct_to, scale)
        brute = brute_side_sum(k, shift, s, first, last, scale)
        assert 0 < lower <= brute <= upper
        if direct_to >= last:
            assert upper - lower <= 1e-14 * brute

    @pytest.mark.parametrize(
        "n, shift, s, first, direct_to",
        [
            (2, -1, 2.5, 10, -1),  # p side, n = 2
            (4, -1, 4.5, 4, 5),  # p side, tail starts below the threshold
            (4, -1, 4.0, 41, 5),
            (3, 1, 3.5, 8, 0),  # q side
            (4, 2, 5.0, 13, 0),
        ],
    )
    def test_sum_bracket_against_quadrature(self, n, shift, s, first, direct_to):
        def f(x):
            return special.binom(x + shift, n - 2) * x**-s

        lower, upper = _sum_bracket(n - 2, shift, s, first, math.inf, direct_to)
        start = max(first, direct_to + 1)
        direct = sum(f(x) for x in range(first, start))
        integral, err = integrate.quad(f, start, math.inf, epsabs=0, epsrel=1e-12, limit=200)
        assert err < 1e-9 * integral
        assert lower == pytest.approx(direct + integral, rel=1e-9)
        assert upper - lower == pytest.approx(f(start), rel=1e-9)
        # truncated at 10^5, where the rest of every tail here is far smaller
        # than the gap f(start)/2 between the lower bound and the true tail
        brute = sum(f(x) for x in range(first, 10**5))
        assert lower <= brute <= upper


class TestTermBounds:
    def test_sandwich_small_grid_exact(self):
        for n in (2, 3):
            r = n + 1
            for p in range(n, 12):
                for q in range(1, 12):
                    exact = schatten_term(n, r, p, q)
                    assert lower_bound_term(n, r, p, q) <= exact
                    assert exact <= upper_bound_term(n, r, p, q)

    def test_upper_bound_covers_low_p_columns(self):
        for n in (2, 3):
            for p in range(0, n):
                for q in range(1, 12):
                    assert schatten_term(n, n + 1, p, q) <= upper_bound_term(n, n + 1, p, q)

    def test_float_order_at_huge_n(self):
        # (n-1)!(n-2)! and the numerator both lie far beyond the float range
        value = upper_bound_term(120, 121.5, 3, 3)
        assert type(value) is float
        assert 0 < value < 1
        # the float power 1800^-121.5 underflows; the bound itself is about 3e-273
        assert upper_bound_term(120, 121.5, 30, 30) == pytest.approx(10**-272.4978697, rel=1e-6)
        assert type(lower_bound_term(120, 121.5, 120, 3)) is float

    def test_integral_float_order_stays_float(self):
        # exactness follows the type of the order, not its value: 4.0 is a float
        for term, p in ((schatten_term, 5), (upper_bound_term, 0), (upper_bound_term, 5),
                        (lower_bound_term, 5)):
            value = term(3, 4.0, p, 2)
            assert type(value) is float
            assert value == pytest.approx(float(term(3, 4, p, 2)), rel=1e-15)
            assert type(term(3, Fraction(4), p, 2)) is Fraction

    def test_lower_term_requires_p_at_least_n(self):
        with pytest.raises(ValueError):
            lower_bound_term(3, 4, 2, 1)


class TestLowerBoundSum:
    def test_matches_direct_termwise_sum(self):
        n, r, P, Q = 2, 2, 60, 60
        direct = sum(
            float(lower_bound_term(n, r, p, q))
            for p in range(n, P + 1)
            for q in range(1, Q + 1)
        )
        assert lower_bound_sum(n, r, P, Q) == pytest.approx(direct, rel=1e-9)

    def test_below_partial_sum(self):
        assert lower_bound_sum(2, 3, 100, 100) <= float(partial_sum(2, 3, 100, 100))

    def test_growth_never_stalls(self):
        values = [lower_bound_sum(2, 2, 100 * 2**i, 100 * 2**i) for i in range(8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_increasing_terms_on_long_ranges(self):
        # at n = 4, r = 1 the summand is (p+q) p q / 48: every 1-d sum grows
        P, Q = 300_000, 10
        p1, p2 = sum(range(4, P + 1)), sum(p * p for p in range(4, P + 1))
        q1, q2 = sum(range(1, Q + 1)), sum(q * q for q in range(1, Q + 1))
        exact = Fraction(p2 * q1 + p1 * q2, 48)
        value = lower_bound_sum(4, 1, P, Q)
        assert math.isfinite(value)
        assert (1 - 1e-3) * exact <= value <= exact

    def test_huge_cutoffs_evaluable(self):
        value = lower_bound_sum(2, 2, 100 * 2**60, 100 * 2**60)
        assert math.isfinite(value)
        assert value > lower_bound_sum(2, 2, 100, 100)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lower_bound_sum(3, 3, 2, 10)

    @pytest.mark.parametrize("growth, counts", [(10, (58, 52)), (2, (7, 6))])
    def test_doublings_of_the_divergence_witness(self, growth, counts):
        # criterion 5 (growth 10) and the benchmark's small scale (growth 2)
        for n, expected in zip((2, 3), counts):
            base = lower_bound_sum(n, n, 100, 100)
            cutoff, doublings, value = 100, 0, base
            while value <= growth * base and doublings < 80:
                cutoff *= 2
                doublings += 1
                value = lower_bound_sum(n, n, cutoff, cutoff)
            assert doublings == expected

    def test_non_dyadic_orders_stay_below_the_exact_sum(self):
        # every term falls as the order grows, so the bound is taken at the
        # least double above r; at the double nearest r, which may lie below
        # it, a bracket tight to a few ulps would miss the sum at r itself
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(53)
        checked = 0
        with mpmath.workprec(120):
            for n in range(2, 7):
                for _ in range(6):
                    den = rng.choice((3, 5, 7, 10))
                    r = Fraction(rng.randint(den, 160 * den), den)
                    if r.denominator == 1:
                        continue
                    for P, Q in ((n, 1), (n + 20, 30), (400, 250), (10**6, 10**5)):
                        exact = mp_witness(mpmath, n, r, P, Q)
                        value = lower_bound_sum(n, r, P, Q)
                        assert value <= exact, (n, r, P, Q)
                        checked += float(r) < r
        assert checked >= 20

    def test_tighter_than_the_integral_test(self):
        # past the integral test's head of 1000 terms the Euler-Maclaurin
        # bracket is the narrower one, so its lower end lies higher
        for n in (2, 3, 12, 40):
            for c in (1100 + n, 5000, 10**6, 100 * 2**60):
                integral_test = witness_reference(n, n, c, c, integral_test_bracket)
                assert lower_bound_sum(n, n, c, c) >= integral_test, (n, c)

    def test_close_to_the_mpmath_sum(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(120):
            cases = ((40, 40, 150, 1200), (2, 2, 150, 1200), (3, 3, 5000, 3000), (2, Fraction(5, 2), 10**9, 10**7))
            for n, r, P, Q in cases:
                exact = mp_witness(mpmath, n, r, P, Q)
                value = lower_bound_sum(n, r, P, Q)
                assert exact * (1 - 2e-14) <= value <= exact, (n, r, P, Q)


def hurwitz_sum(mpmath, s, first, last):
    """sum_{x=first}^{last} x^{-s} to mpmath's working precision, last
    possibly math.inf: a difference of Hurwitz zeta values, or of harmonic
    numbers at s = 1.  mpmath's Hurwitz zeta is accurate to about 10^-dps
    absolutely, so the digits of first^s are added for the evaluation."""
    s = mpmath.mpf(s)
    with mpmath.extradps(max(0, int(s * math.log10(first))) + 10):
        if s == 1:
            return mpmath.harmonic(last) - mpmath.harmonic(first - 1)
        return mpmath.zeta(s, first) - (0 if last == math.inf else mpmath.zeta(s, last + 1))


def mp_witness(mpmath, n, r, P, Q):
    """lower_bound_sum's double sum at the exact order r, at mpmath's working
    precision, through its four power sums."""
    r = mpmath.mpf(r.numerator) / r.denominator if isinstance(r, Fraction) else mpmath.mpf(r)
    sp1, sp2, sq1, sq2 = (
        hurwitz_sum(mpmath, r - n + j, first, last)
        for j, first, last in ((1, n, P), (2, n, P), (1, 1, Q), (2, 1, Q))
    )
    c = math.factorial(n - 1) * math.factorial(n - 2)
    return (sp1 * sq2 + sp2 * sq1) / (mpmath.mpf(4) ** r * c)


class TestPowerBracket:
    """The witness's Euler-Maclaurin bracket of sum_{x=first}^{last} x^{-s}."""

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_contains_exact_fraction_sums(self, s):
        rng = random.Random(59 + s)
        for _ in range(8):
            first = rng.randint(1, 40)
            length = rng.choice((1, rng.randint(2, _WITNESS_HEAD), _WITNESS_HEAD + 1, rng.randint(100, 1500)))
            last = first + length - 1
            den = math.lcm(*range(first, last + 1)) ** s
            exact = Fraction(sum(den // x**s for x in range(first, last + 1)), den)
            lower, upper = _power_bracket(float(s), first, last)
            assert Fraction(lower) <= exact <= Fraction(upper), (s, first, last)
            assert upper - lower <= 1e-9 * exact

    def test_contains_mpmath_sums_at_real_orders(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(61)
        with mpmath.workdps(40):
            for _ in range(80):
                s = rng.choice((rng.uniform(0.05, 1), 1.0, rng.uniform(1, 4), rng.uniform(4, 80)))
                first = rng.randint(1, 100)
                last = rng.choice((
                    first + rng.randint(0, _WITNESS_HEAD),  # inside the head
                    first + rng.randint(_WITNESS_HEAD, 10**5),
                    10 ** rng.randint(6, 20),
                    math.inf if s > 1 else 10**9,
                ))
                lower, upper = _power_bracket(s, first, last)
                exact = hurwitz_sum(mpmath, s, first, last)
                assert lower <= exact <= upper, (s, first, last)
                assert upper - lower <= 1e-9 * upper

    @pytest.mark.parametrize("s", [0.0, -1.0, -2.5])
    def test_increasing_terms_take_the_integral_test(self, s):
        for first, last in ((1, 10), (4, 500), (4, 5000), (2, 10**9)):
            assert _power_bracket(s, first, last) == integral_test_bracket(s, first, last)

    def test_end_powers_are_the_kernel_terms(self):
        # the bracket evaluates x^{-s} at its ends in place: the kernel's k = 0
        # term at x, bit for bit, for an int x of any size
        rng = random.Random(67)
        for _ in range(500):
            s = rng.uniform(0.01, 80)
            x = rng.choice((rng.randint(1, 200), rng.randint(1, 2**80)))
            assert repr(x**-s) == repr(float(x) ** -s) == repr(schatten._terms(0, 0, s, x, x)[0])


    def test_closed_form_integral_matches_the_expansion(self):
        # the bracket takes the integral of x^{-s} in closed form; built with
        # _integral's k = 0 expansion instead, it is the same bracket bit for
        # bit: s = 1 (log1p) and not, last finite and infinite, heads inside
        # and past _WITNESS_HEAD, m == last included
        rng = random.Random(71)
        for _ in range(1500):
            s = rng.choice((1.0, rng.uniform(0.01, 1), rng.uniform(1, 4), rng.uniform(4, 80)))
            first = rng.choice((1, rng.randint(1, 100), rng.randint(1, 2**40)))
            last = rng.choice((
                first + rng.randint(0, _WITNESS_HEAD - 1),  # inside the head
                first + _WITNESS_HEAD,
                first + rng.randint(_WITNESS_HEAD, 10**6),
                rng.randint(first + _WITNESS_HEAD, 2**70),
                math.inf,
            ))
            got, want = _power_bracket(s, first, last), expansion_power_bracket(s, first, last)
            assert [x.hex() for x in got] == [x.hex() for x in want], (s, first, last)
        for n, r, P, Q in ((2, 2, 10**9, 10**9), (3, 3, 3 + _WITNESS_HEAD, 1), (4, 4.5, 500, 2**50)):
            assert lower_bound_sum(n, r, P, Q) == witness_reference(n, r, P, Q, expansion_power_bracket)


def expansion_power_bracket(s, first, last):
    """_power_bracket with the integral of x^{-s} from _integral(0, 0, s, m, last):
    the module's general expansion integral at k = 0."""
    m = first + (_WITNESS_HEAD if s > 0 else 1000)
    if s <= 0 or m > last:
        return _sum_bracket(0, 0, s, first, last, m - 1)
    direct = schatten._direct_sum(0, 0, s, first, m - 1, 1)
    integral, size = schatten._integral(0, 0, s, m, last)
    f_m, f_b = m**-s, float(last) ** -s
    d1_m, d1_b = f_m / m, f_b / last
    d3_m, d3_b = d1_m / m / m, d1_b / last / last
    c2, c4 = s / 12, s * (s + 1) * (s + 2) / 720
    upper = math.fsum((direct, integral, f_m / 2, f_b / 2, c2 * (d1_m - d1_b)))
    size += direct + f_m + f_b + c2 * (d1_m + d1_b) + c4 * (d3_m + d3_b)
    return schatten._outward(upper - c4 * (d3_m - d3_b), upper, size)


def memo_grid(seed):
    """Seeded (function, arguments) cases over n, r and cutoffs: the witness
    up to 2^40, and the float partial sum and tail bracket, which sum their
    heads term by term, at cutoffs up to 2000."""
    rng = random.Random(seed)
    cases = []
    for _ in range(16):
        n = rng.randint(2, 6)
        r = n + Fraction(rng.choice((1, 3, 5, 7)), 4)
        P, Q = rng.randint(0, 2000), rng.randint(1, 2000)
        big_p, big_q = rng.randint(n, 2**40), rng.randint(1, 2**40)
        cases += [
            (lower_bound_sum, (n, n, big_p, big_q)),
            (lower_bound_sum, (n, r, max(n, P), Q)),
            (schatten._tail_bracket, (n, r, P, Q)),
            (partial_sum, (n, r, P, Q)),
        ]
    return cases


def count_kernel_terms(monkeypatch) -> collections.Counter:
    """Patch the kernel _terms to count the terms it evaluates per calling
    function, a generator counted with the function that runs it: _direct_sum
    evaluates head terms, _sum_bracket the endpoint terms f(m) and f(last)."""
    evaluated = collections.Counter()
    kernel = schatten._terms

    def counting(*args):
        terms = kernel(*args)
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        evaluated[frame.f_code.co_name] += len(terms)
        return terms

    monkeypatch.setattr(schatten, "_terms", counting)
    return evaluated


class TestDirectSumMemo:
    """Every directly summed 1-d sum goes through the memoised _direct_sum."""

    def test_cold_and_warm_match_unmemoised_sums(self, monkeypatch):
        cases = memo_grid(19)

        def evaluate():
            return [repr(function(*args)) for function, args in cases]

        monkeypatch.setattr(schatten, "_direct_sum", lambda *key: math.fsum(schatten._terms(*key)))
        reference = evaluate()
        monkeypatch.undo()
        clear_library_memos()
        cold = evaluate()
        warm = evaluate()
        assert cold == reference
        assert warm == reference
        assert schatten._direct_sum.cache_info().hits > 0

    @pytest.mark.parametrize("n, doublings", [(2, 58), (3, 52), (4, 47)])
    def test_witness_sums_its_heads_once(self, n, doublings, monkeypatch):
        # criterion 5's doubling from cutoff 100: every cutoff lies past the
        # head of _WITNESS_HEAD terms, so each of the four power sums reads
        # one memoised head at every doubling, and the kernel evaluates those
        # heads alone: the end powers of the brackets are evaluated in place
        clear_library_memos()
        evaluated = count_kernel_terms(monkeypatch)
        base = lower_bound_sum(n, n, 100, 100)
        cutoff, count, value = 100, 0, base
        while value <= 10 * base:
            assert count < 80
            cutoff *= 2
            count += 1
            value = lower_bound_sum(n, n, cutoff, cutoff)
        assert count == doublings
        sums = schatten._direct_sum.cache_info()
        assert (sums.misses, sums.hits) == (4, 4 * doublings)
        assert evaluated == {"_direct_sum": 4 * _WITNESS_HEAD}

    def test_witnesses_share_their_q_side_heads(self, monkeypatch):
        # at r = n the q sides of every dimension sum x^-1 and x^-2 from
        # x = 1: the n = 2 and n = 3 witnesses evaluate six heads, not eight
        clear_library_memos()
        evaluated = count_kernel_terms(monkeypatch)
        for n, doublings in ((2, 58), (3, 52)):
            for i in range(doublings + 1):
                lower_bound_sum(n, n, 100 * 2**i, 100 * 2**i)
        assert evaluated == {"_direct_sum": 6 * _WITNESS_HEAD}

    def test_float_report_shares_its_partial_sum_factors(self):
        schatten._direct_sum.cache_clear()
        schatten_report(3, Fraction(7, 2), 50, 40)
        assert schatten._direct_sum.cache_info().hits >= 4

    def test_memo_is_bounded(self):
        assert schatten._direct_sum.cache_info().maxsize is not None

    @pytest.mark.parametrize(
        "k, shift, s, first, scale, lasts",
        [
            # a power sum across the 4096-term chunks of _direct_sum and back
            (0, 0, 1.25, 2, 1, (100, 4096, 4097, 4098, 9000, 8194, 4097, 800, 2, 1)),
            # the q side of n = 4 at a fractional order
            (2, 2, 3.75, 1, 2, (50, 400, 5000, 1000, 399, 1)),
            # the p side of n = 5 at a huge order: t grows with last through 0..3
            (3, -1, 100.5, 900, 1, (950, 1000, 1050, 1100, 1150, 1200, 1300, 1250, 1100, 1000, 930)),
        ],
    )
    def test_memoised_sums_are_bit_identical(self, k, shift, s, first, scale, lasts):
        """A side queried with a growing, then a shrinking last sums exactly
        the terms _terms gives for that last, t split there."""
        clear_library_memos()
        for last in lasts:
            expected = math.fsum(schatten._terms(k, shift, s, first, last, scale))
            assert repr(schatten._direct_sum(k, shift, s, first, last, scale)) == repr(expected)
        if k == 3:
            assert {schatten._split(k, s, last, scale) for last in lasts} == {0, 1, 2, 3}
            # the split changes the rounding of a term near the bottom of the float range
            assert schatten._terms(k, shift, s, 1300, 1300, scale, 0) != schatten._terms(k, shift, s, 1300, 1300, scale)

    def test_memory_is_bounded(self, monkeypatch):
        # a side of the float partial sum at P = 10^7 holds one chunk of its
        # terms at a time, and still sums to the Hurwitz zeta difference
        mpmath = pytest.importorskip("mpmath")
        clear_library_memos()
        lengths = []
        kernel = schatten._terms

        def recording(*args):
            terms = kernel(*args)
            lengths.append(len(terms))
            return terms

        monkeypatch.setattr(schatten, "_terms", recording)
        P = 10**7
        value = schatten._direct_sum(0, 0, 2.5, 1, P, 1)
        assert len(lengths) == -(-P // 4096) and max(lengths) == 4096
        with mpmath.workdps(30):
            exact = mpmath.zeta(2.5) - mpmath.zeta(2.5, P + 1)
        assert value == pytest.approx(float(exact), rel=1e-15)

    def test_sums_are_bit_identical_in_any_order(self):
        """Power sums of one series from first = 1 .. 5 across a head's end and
        a chunk's: every sum, cold, warm or in shuffled order, equals
        math.fsum of its terms."""
        edge = _WITNESS_HEAD - 1
        keys = [
            (0, 0, s, first, last, 1)
            for s in (1.0, 2.0, 1.25, 3.5)
            for first in range(1, 6)
            for last in (first, 7, 500, first + edge - 1, first + edge, first + edge + 1, 4096, 4097, 9000)
            if last >= first
        ]
        expected = {key: repr(math.fsum(schatten._terms(*key))) for key in keys}
        shuffled = random.Random(29).sample(keys, len(keys))
        for order, cold in ((keys, True), (keys, False), (shuffled, True), (shuffled[::-1], False)):
            if cold:
                clear_library_memos()
            for key in order:
                # the memoised sum, and the sum afresh past that memo
                assert repr(schatten._direct_sum(*key)) == expected[key], key
                assert repr(schatten._direct_sum.__wrapped__(*key)) == expected[key], key


class TestRankSplit:
    def test_one_description_feeds_every_float_path(self, monkeypatch):
        """Doubling the weights of the split's one description doubles the
        float partial sum and the plotting series exactly, and the tail
        bracket up to its outward rounding: none of them keeps a copy."""
        n, r, P, Q = 3, Fraction(7, 2), 50, 40
        total, series = partial_sum(n, r, P, Q), partial_sum_series(n, r, 30)
        lower, upper = schatten._tail_bracket(n, r, P, Q)
        rank_terms = schatten._rank_terms
        monkeypatch.setattr(schatten, "_rank_terms", lambda *args: [(2 * w, a, b) for w, a, b in rank_terms(*args)])
        assert partial_sum(n, r, P, Q) == 2 * total
        assert partial_sum_series(n, r, 30) == [(c, 2 * v) for c, v in series]
        assert schatten._tail_bracket(n, r, P, Q) == pytest.approx((2 * lower, 2 * upper), rel=1e-14)


def kernel_grid(seed):
    """Seeded (k, shift, s, first, last, scale, t) cases: t None (split at
    last) or given, ranges of up to 400 terms from x = 1 on; at s = 100.5 they
    start where scale x is near 1000, so the t of single terms changes
    inside them."""
    rng = random.Random(seed)
    cases = []
    for k in (0, 1, 2, 3, 5):
        for shift in (-1, k):
            for scale in (1, 2):
                for s in (0.5, 3.75, 100.5, 1100.5):
                    if s == 100.5:
                        first = rng.randint(800, 1100) // scale
                    else:
                        first = rng.choice((1, 2, rng.randint(3, 1500)))
                    last = first + rng.randint(0, 400)
                    cases.append((k, shift, s, first, last, scale, None))
                    cases.append((k, shift, s, first, last, scale, rng.randint(0, k + 1)))
    return cases


@contextlib.contextmanager
def doubled_kernel():
    """Every term of the kernel _terms doubled inside the block; the library
    memos filled meanwhile are emptied on the way out."""
    kernel = schatten._terms
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schatten, "_terms", lambda *args: [2 * v for v in kernel(*args)])
        try:
            yield
        finally:
            clear_library_memos()


class TestTermKernel:
    def test_terms_match_the_reference_formula(self):
        crossed = 0
        for k, shift, s, first, last, scale, t in kernel_grid(27):

            def reference(x, split):
                return repr(math.comb(x + shift, k) / (scale * x) ** split * (scale * x) ** (split - s))

            split = schatten._split(k, s, last, scale) if t is None else t
            got = list(map(repr, schatten._terms(k, shift, s, first, last, scale, t)))
            assert got == [reference(x, split) for x in range(first, last + 1)], (k, shift, s, first, last, scale, t)
            crossed += schatten._split(k, s, first, scale) != schatten._split(k, s, last, scale)
            for x in (first, last):  # a single term splits t at its own x
                assert list(map(repr, schatten._terms(k, shift, s, x, x, scale))) == [
                    reference(x, schatten._split(k, s, x, scale))
                ]
        assert crossed >= 3

    def test_one_kernel_feeds_every_term(self):
        """Doubling the kernel's terms doubles ranges and single terms of
        _terms, the direct sums and the float partial sum (two factors)
        exactly: none of them keeps a copy of the term formula."""
        sides = [(0, 0, 1.25, 2, 1500, 1), (1, 1, 2.5, 1, 300, 2), (3, -1, 100.5, 900, 1300, 1)]
        n, r, P, Q = 3, Fraction(7, 2), 50, 40

        def evaluate():
            clear_library_memos()
            return (
                [schatten._terms(*side) for side in sides],
                [schatten._terms(k, shift, s, x, x, scale)[0] for k, shift, s, _, x, scale in sides],
                [schatten._direct_sum(*side) for side in sides],
                partial_sum(n, r, P, Q),
            )

        terms, single, sums, total = evaluate()
        with doubled_kernel():
            doubled = evaluate()
        assert doubled[0] == [[2 * v for v in side] for side in terms]
        assert doubled[1] == [2 * v for v in single]
        assert doubled[2] == [2 * v for v in sums]
        assert doubled[3] == 4 * total

    def test_fast_path_matches_the_quotient(self):
        # at t = 0 the binomial meets the power in one product; the general
        # formula divides it by b^0 = 1 first: both round the binomial once
        rng = random.Random(71)
        for _ in range(3000):
            k = rng.randint(1, 60)
            shift, scale, s = rng.choice((-1, k, rng.randint(-1, k))), rng.choice((1, 2)), rng.uniform(0.01, 60)
            first = rng.randint(1, 5000)
            last = first + rng.randint(0, 5)
            got = schatten._terms(k, shift, s, first, last, scale, 0)
            want = [math.comb(x + shift, k) / (scale * x) ** 0 * (scale * x) ** (0 - s) for x in range(first, last + 1)]
            assert list(map(repr, got)) == list(map(repr, want)), (k, shift, s, first, last, scale)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_fast_path_overflows_like_the_quotient(self, k):
        # C(x, k) on either side of 2^1024 - 2^970, the least integer that
        # rounds to 2^1024: both forms return the largest double below it and
        # raise OverflowError from it on
        threshold = 2**1024 - 2**970
        low, high = k, 2**1100
        while high - low > 1:  # the last x with C(x, k) below the threshold
            mid = (low + high) // 2
            low, high = (mid, high) if math.comb(mid, k) < threshold else (low, mid)
        s = 1e-300  # x^-s rounds to 1
        outcomes = []
        for x in range(low - 2, low + 3):
            pair = []
            for form in (
                lambda: schatten._terms(k, 0, s, x, x, 1, 0)[0],
                lambda: math.comb(x, k) / x**0 * x ** (0 - s),
            ):
                try:
                    pair.append(repr(form()))
                except OverflowError:
                    pair.append("OverflowError")
            assert pair[0] == pair[1], (k, x)
            outcomes.append(pair[0])
        assert outcomes == [repr(sys.float_info.max)] * 3 + ["OverflowError"] * 2

    def test_doubled_kernel_leaves_no_doubled_memo(self):
        # the memos filled under the doubled kernel must not outlive it: a
        # later float partial sum reads the true terms, as in a fresh process
        with doubled_kernel():
            partial_sum(3, Fraction(7, 2), 0, 5)
        assert repr(partial_sum(3, Fraction(7, 2), 0, 5)) == "0.030753772679430462"


def integral_test_bracket(s, first, last):
    """The integral test after a head of 1000 terms on the power sum
    sum_{x=first}^{last} x^{-s}: the witness's bracket where s <= 0."""
    return _sum_bracket(0, 0, s, first, last, first + 999)


def witness_reference(n, r, P, Q, bracket=_power_bracket):
    """lower_bound_sum from four brackets of its power sums (by default the
    same ones) at the least double >= r, its quotient by (n-1)!(n-2)! always
    through an exact Fraction, rounded once."""
    rf = float(r)
    if rf < r:
        rf = math.nextafter(rf, math.inf)
    sp1, sp2, sq1, sq2 = (
        bracket(rf - n + j, first, last)[0]
        for j, first, last in ((1, n, P), (2, n, P), (1, 1, Q), (2, 1, Q))
    )
    c = math.factorial(n - 1) * math.factorial(n - 2)
    value = float(Fraction((sp1 * sq2 + sp2 * sq1) * 0.25**rf) / c)
    return schatten._outward(value, value, value)[0]


class TestWitnessDivision:
    @pytest.mark.parametrize("n", [2, 12, 13, 40, 120])
    def test_matches_the_fraction_quotient(self, n):
        # (n-1)!(n-2)! is a double for n <= 15, so x / c runs for n = 2, 12
        # and 13 and the Fraction for n = 40 and 120; the power 0.25^r is
        # subnormal above r = 511 and 0 above r = 537.5
        c = math.factorial(n - 1) * math.factorial(n - 2)
        assert (c.bit_length() <= 1023 and float(c) == c) == (n <= 13)
        for r in (n, n + Fraction(1, 2), Fraction(1025, 2), Fraction(1100, 2) + Fraction(1, 3)):
            for P, Q in ((n, 1), (150, 1200), (5000, 3000), (10**12, 10**9)):
                assert repr(lower_bound_sum(n, r, P, Q)) == repr(witness_reference(n, r, P, Q)), (r, P, Q)


class TestTailBounds:
    def test_infinite_at_and_below_n(self):
        assert tail_upper_bound(2, 2, 10, 10) == math.inf
        assert tail_upper_bound(3, 3, 10, 10) == math.inf
        assert tail_lower_bound(2, 2, 10, 10) == math.inf

    def test_shrinks_with_cutoffs(self):
        values = [tail_upper_bound(2, 3, c, c) for c in (25, 50, 100, 200)]
        assert all(a > b > 0 for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_dominates_bruteforce_tail(self):
        # kept region 50, brute tail out to the 5000 box (n=2, r=3)
        brute_tail = brute_square_sum(2, 3, 5000) - brute_square_sum(2, 3, 50)
        bound = tail_upper_bound(2, 3, 50, 50)
        assert bound >= brute_tail
        assert bound <= 3 * brute_tail  # sanity: not wildly loose

    def test_tail_lower_below_true_tail(self):
        true_tail = zeta_closed_form(2, 3) - float(partial_sum(2, 3, 50, 50))
        lower = tail_lower_bound(2, 3, 50, 50)
        assert 0 < lower <= true_tail <= tail_upper_bound(2, 3, 50, 50)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("dr", [Fraction(1, 2), 1, 2])
    @pytest.mark.parametrize("P, Q", [(0, 5), (3, 200), (40, 5), (50, 50)])
    def test_bracket_contains_zeta_closed_form(self, n, dr, P, Q):
        r = n + dr
        partial = float(partial_sum(n, r, P, Q))
        closed = zeta_closed_form(n, float(r))
        assert partial + tail_lower_bound(n, r, P, Q) <= closed
        assert closed <= partial + tail_upper_bound(n, r, P, Q)

    def test_closed_form_n3_r4(self):
        assert zeta_closed_form(3, 4) == pytest.approx(0.04226813973530, rel=1e-12)

    def test_mpmath_norm_matches_zeta_closed_form(self):
        mpmath = pytest.importorskip("mpmath")
        for n in (2, 3):
            for r in (n + 0.5, n + 1.0, 7.25):
                assert float(mp_norm(mpmath, n, r)) == pytest.approx(zeta_closed_form(n, r), rel=1e-13)

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("P", [0, 3, 7])
    def test_bracket_contains_mpmath_tail_below_decreasing_point(self, n, P):
        """P + n <= (n-1)(n-2) in every case, so the p-side tail starts no later
        than where its direct head used to end: the point where its terms
        start to decrease decides how much of it is summed directly."""
        mpmath = pytest.importorskip("mpmath")
        Q = 3
        with mpmath.workdps(50):
            for r in (n + 0.1, n + Fraction(1, 2), n + 1):
                exact_r = mpmath.mpf(Fraction(r).numerator) / Fraction(r).denominator
                true_tail = mp_norm(mpmath, n, exact_r) - mp_partial_sum(mpmath, n, exact_r, P, Q)
                assert tail_lower_bound(n, r, P, Q) <= true_tail <= tail_upper_bound(n, r, P, Q)

    def test_bracket_width(self):
        # partial_sum only grows with the cutoffs, so dividing by the cheap
        # P = Q = 50 sum bounds the relative width at P = Q = 400 from above
        for n in (2, 3, 4):
            for r in (n + 0.5, n + 1):
                width = tail_upper_bound(n, r, 400, 400) - tail_lower_bound(n, r, 400, 400)
                assert 0 < width <= 1e-3 * partial_sum(n, float(r), 50, 50)

    def test_asymmetric_cutoffs(self):
        assert tail_upper_bound(2, 3, 0, 5) > tail_upper_bound(2, 3, 40, 5) > 0


class TestReport:
    def test_convergent_bracket(self, capsys):
        report = schatten_report(2, 3, 100, 100)
        assert report.verdict == CONVERGES
        assert isinstance(report.partial_sum, Fraction)
        assert math.isfinite(report.tail_upper)
        assert 0 < report.tail_lower <= report.tail_upper
        assert report.approx_value == pytest.approx(approx_formula(2, 3))
        argv = ("schatten", "--n", "2", "--r", "3", "--cutoff-p", "100", "--cutoff-q", "100")
        obj = cli_json(capsys, *argv)
        assert obj["partial_sum"] == f"{report.partial_sum.numerator}/{report.partial_sum.denominator}"
        assert obj["verdict"] == CONVERGES

    def test_divergent_report(self, capsys):
        report = schatten_report(2, 2, 20, 20)
        assert report.verdict == DIVERGES
        assert report.tail_upper == math.inf
        assert report.approx_value is None
        argv = ("schatten", "--n", "2", "--r", "2", "--cutoff-p", "20", "--cutoff-q", "20")
        obj = cli_json(capsys, *argv)
        assert obj["tail_upper_float"] == "inf"

    def test_bracket_contains_larger_partial_sums(self):
        report = schatten_report(2, 3, 50, 50)
        upper = float(report.partial_sum) + report.tail_upper
        assert float(partial_sum(2, 3, 400, 400)) <= upper

    def test_upper_envelope_nonincreasing_in_cutoffs(self):
        envelopes = [
            float(partial_sum(2, 3, c, c)) + tail_upper_bound(2, 3, c, c)
            for c in (25, 50, 100, 200)
        ]
        assert all(a >= b for a, b in zip(envelopes, envelopes[1:]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("r", [512, 1024, Fraction(2001, 2), 100000.5])
    def test_huge_orders_underflow_without_overflow(self, n, r):
        report = schatten_report(n, r, 3, 3)
        assert 0.0 <= report.tail_lower <= report.tail_upper
        assert 0.0 < report.tail_upper < 1e-150
        assert float(report.partial_sum) < 1e-150
        assert 0.0 <= report.approx_value < 1e-150

    def test_huge_order_witness_underflows(self):
        # 4^-600 is below the smallest double
        assert lower_bound_sum(2, 600, 5, 5) == 0.0

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("r", [20.5, 37.25, 40.5, 60.5])
    def test_float_report_brackets_mpmath_norm(self, n, r):
        """partial_sum + tail_lower <= ||G||_r^r <= partial_sum + tail_upper,
        summed exactly: at these orders the tail bracket is so narrow that the
        float partial sum's own rounding decides containment."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            exact = mp_fraction(mp_norm(mpmath, n, r))
        for P, Q in [(7, 3), (3, 7), (20, 20), (50, 50), (400, 400)]:
            report = schatten_report(n, r, P, Q)
            partial = Fraction(report.partial_sum)
            assert partial + Fraction(report.tail_lower) <= exact
            assert exact <= partial + Fraction(report.tail_upper)
            assert 0 < report.partial_sum <= partial_sum(n, r, P, Q)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_non_dyadic_orders_bracket_the_norm_at_r(self, n):
        """The bracket holds at the exact rational r, not only at float(r):
        moving the order by half an ulp moves each term by about ln(base)
        |r - float(r)| relative, more than the outward margin at large r."""
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(15 + n)
        for _ in range(30 if n == 2 else 6):
            den = rng.choice((3, 5, 7, 10, 11))
            r = Fraction(rng.randint(n * den + 1, 1500 * den), den)
            if r.denominator == 1:  # an exact partial sum, closer to the norm than 300 bits tell
                continue
            exact = mp_norm_at(mpmath, n, r)
            for P, Q in ((0, 1), (3, 3), (50, 50)):
                report = schatten_report(n, r, P, Q)
                partial = Fraction(report.partial_sum)
                assert partial + Fraction(report.tail_lower) <= exact, (r, P, Q)
                assert exact <= partial + Fraction(report.tail_upper), (r, P, Q)

    @pytest.mark.parametrize(
        "r, P, Q", [("100.1", 3, 3), ("150.3", 3, 3), ("301/3", 0, 1), ("301/3", 3, 3), ("301/3", 50, 50)]
    )
    def test_cli_brackets_the_norm_at_non_dyadic_orders(self, capsys, r, P, Q):
        # each bracket missed the norm when both ends were taken at float(r)
        mpmath = pytest.importorskip("mpmath")
        obj = cli_json(capsys, "schatten", "--n", "2", "--r", r, "--cutoff-p", str(P), "--cutoff-q", str(Q))
        exact = mp_norm_at(mpmath, 2, Fraction(r))
        partial = Fraction(obj["partial_sum_float"])
        assert partial + Fraction(obj["tail_lower_float"]) <= exact <= partial + Fraction(obj["tail_upper_float"])

    def test_order_whose_double_is_n_has_a_finite_lower_end(self):
        # the double below r is n, where the tail diverges, so the upper end is
        # inf; the lower end is taken at the double above n, finite and large
        mpmath = pytest.importorskip("mpmath")
        for n, gap in ((2, Fraction(1, 10**19)), (3, Fraction(1, 10**20))):
            report = schatten_report(n, n + gap, 3, 3)
            assert report.verdict == CONVERGES
            assert report.tail_upper == math.inf
            assert 1e12 < report.tail_lower < math.inf
            assert Fraction(report.partial_sum) + Fraction(report.tail_lower) <= mp_norm_at(mpmath, n, n + gap)

    def test_float_order_report(self, capsys):
        report = schatten_report(2, 3.5, 30, 30)
        assert report.verdict == CONVERGES
        assert isinstance(report.partial_sum, float)
        argv = ("schatten", "--n", "2", "--r", "7/2", "--cutoff-p", "30", "--cutoff-q", "30")
        obj = cli_json(capsys, *argv)
        assert "partial_sum" not in obj
        assert obj["partial_sum_float"] == pytest.approx(report.partial_sum)
