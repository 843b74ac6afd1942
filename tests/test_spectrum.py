"""Closed-form spectra: eigenvalues, multiplicities, aggregation."""

import math
from fractions import Fraction

import pytest

from kohn_spectra import (
    Bidegree,
    aggregate_spectrum,
    boxb_eigenvalue,
    lambda_min,
    laplace_beltrami_eigenvalue,
    multiplicity,
)
from kohn_spectra.spectrum import (
    _POWER_BITS,
    multiplicity_binomial,
    power,
    spectrum_table,
    sphere_harmonic_dim,
)


class TestBoxbEigenvalue:
    def test_first_nonzero_eigenvalue(self):
        assert boxb_eigenvalue(2, Bidegree(0, 1)) == 2

    def test_kernel_at_q_zero(self):
        assert boxb_eigenvalue(2, Bidegree(3, 0)) == 0

    def test_general_value(self):
        assert boxb_eigenvalue(3, Bidegree(2, 2)) == 16

    def test_zero_iff_q_zero(self):
        for n in (2, 3, 4):
            for p in range(5):
                for q in range(5):
                    value = boxb_eigenvalue(n, Bidegree(p, q))
                    assert (value == 0) == (q == 0)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            boxb_eigenvalue(1, Bidegree(0, 1))
        with pytest.raises(ValueError):
            multiplicity(1, Bidegree(0, 1))


class TestMultiplicity:
    def test_values(self):
        assert multiplicity(2, Bidegree(1, 1)) == 3
        assert multiplicity(2, Bidegree(0, 1)) == 2
        assert multiplicity(2, Bidegree(0, 0)) == 1
        # kernel-rank oracle value (see test_acceptance criterion 1):
        # (n-1)(n+p+q-1)/(pq) * C(3,1) * C(2,0) = (2*5/2)*3*1
        assert multiplicity(3, Bidegree(2, 1)) == 15
        assert multiplicity(3, Bidegree(3, 1)) == 24
        assert multiplicity(3, Bidegree(1, 1)) == 8

    def test_product_form_agrees_with_binomial_forms(self):
        for n in (2, 3, 4, 5):
            for p in range(9):
                for q in range(9):
                    d = Bidegree(p, q)
                    assert multiplicity(n, d) == multiplicity_binomial(n, d)

    def test_matches_rising_factorial_product(self):
        # the factorial-free reference (n+p+q-1) (p+1)...(p+n-2) (q+1)...(q+n-2) / ((n-1)!(n-2)!)
        for n in (2, 3, 4, 10):
            for p in range(30):
                for q in range(30):
                    num = (n + p + q - 1) * math.prod(range(p + 1, p + n - 1)) * math.prod(
                        range(q + 1, q + n - 1)
                    )
                    expected = Fraction(num, math.factorial(n - 1) * math.factorial(n - 2))
                    assert multiplicity(n, Bidegree(p, q)) == expected

    def test_conjugation_symmetry(self):
        for n in (2, 3, 4):
            for p in range(7):
                for q in range(7):
                    assert multiplicity(n, Bidegree(p, q)) == multiplicity(n, Bidegree(q, p))

    def test_degree_slices_fill_spherical_harmonics(self):
        for n in (2, 3, 4):
            for k in range(9):
                total = sum(multiplicity(n, Bidegree(p, k - p)) for p in range(k + 1))
                assert total == sphere_harmonic_dim(n, k)

    def test_negative_bidegree_rejected(self):
        with pytest.raises(ValueError):
            multiplicity(2, Bidegree(-1, 0))


class TestLaplaceBeltrami:
    def test_values(self):
        assert laplace_beltrami_eigenvalue(2, 1) == 3
        assert laplace_beltrami_eigenvalue(2, 0) == 0
        assert laplace_beltrami_eigenvalue(4, 3) == 27

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            laplace_beltrami_eigenvalue(2, -1)


class TestPower:
    def test_size_budget(self):
        # |e| times the bit length of the base's larger part, at most the budget
        assert power(2, _POWER_BITS // 2) == 2 ** (_POWER_BITS // 2)
        assert power(Fraction(1, 2), -(_POWER_BITS // 2)) == 2 ** (_POWER_BITS // 2)
        for base, e in ((2, _POWER_BITS // 2 + 1), (Fraction(1, 2), _POWER_BITS), (4, -(10**400)), (-3, 10**7)):
            with pytest.raises(ValueError, match=f"size budget of {_POWER_BITS} bits"):
                power(base, e)

    def test_bases_without_size_pass_any_exponent(self):
        assert power(1, 10**400) == 1 and power(-1, 10**400 + 1) == -1 and power(0, 10**400) == 0


class TestLambdaMin:
    def test_values(self):
        assert lambda_min(2, 1) == 2
        assert lambda_min(3, 1) == 4
        assert lambda_min(2, 5) == 10

    def test_matches_brute_force_minimum(self):
        for n in (2, 3, 4):
            for k in range(1, 12):
                brute = min(
                    boxb_eigenvalue(n, Bidegree(k - q, q)) for q in range(1, k + 1)
                )
                assert lambda_min(n, k) == brute

    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError):
            lambda_min(2, 0)


class TestAggregation:
    def test_n2_cutoff4(self):
        agg = aggregate_spectrum(2, 4)
        assert len(agg.entries) == 2
        first, second = agg.entries
        assert first.eigenvalue == 2
        assert first.multiplicity == 2
        assert first.contributors == (Bidegree(0, 1),)
        assert second.eigenvalue == 4
        assert second.multiplicity == 6
        assert second.contributors == (Bidegree(0, 2), Bidegree(1, 1))

    def test_below_smallest_eigenvalue_empty(self):
        assert aggregate_spectrum(2, 1).entries == ()

    def test_n3_cutoff4(self):
        agg = aggregate_spectrum(3, 4)
        assert len(agg.entries) == 1
        (entry,) = agg.entries
        assert entry.eigenvalue == 4
        assert entry.contributors == (Bidegree(0, 1),)
        assert entry.multiplicity == 3

    def test_rational_cutoff(self):
        assert aggregate_spectrum(2, Fraction(7, 2)).entries[-1].eigenvalue == 2

    def test_nonpositive_cutoff_rejected(self):
        with pytest.raises(ValueError):
            aggregate_spectrum(2, 0)
        with pytest.raises(ValueError):
            aggregate_spectrum(2, Fraction(-1, 2))

    def test_eigenvalues_strictly_increasing(self):
        agg = aggregate_spectrum(3, 40)
        values = [e.eigenvalue for e in agg.entries]
        assert values == sorted(set(values))

    def test_refinement_keeps_prefixes(self):
        small = aggregate_spectrum(2, 10).entries
        large = aggregate_spectrum(2, 20).entries
        assert large[: len(small)] == small

    def test_totals_match_table(self):
        agg = aggregate_spectrum(2, 12)
        table = spectrum_table(2, 12)
        assert sum(e.multiplicity for e in agg.entries) == sum(
            e.multiplicity for e in table
        )

    @pytest.mark.parametrize("cutoff", ["1/2", "7/2", "12", "41/3"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_table_sorted_and_complete(self, n, cutoff):
        cutoff = Fraction(cutoff)
        table = spectrum_table(n, cutoff)
        assert all(e.eigenvalue == boxb_eigenvalue(n, e.bidegree) for e in table)
        assert all(e.eigenvalue <= cutoff for e in table)
        keys = [(e.eigenvalue, e.bidegree) for e in table]
        assert keys == sorted(keys)
        # completeness: every (p, q) with eigenvalue under the cutoff appears
        expected = {
            (p, q)
            for p in range(int(cutoff) + 1)
            for q in range(1, int(cutoff) + 1)
            if 2 * q * (p + n - 1) <= cutoff
        }
        assert {tuple(e.bidegree) for e in table} == expected
