"""Sobolev ratio sequence, best constants, and gain certificates."""

import dataclasses
import random
from fractions import Fraction

import pytest

from helpers import cli_json
from kohn_spectra import (
    Bidegree,
    Polynomial,
    best_constant,
    harmonic_basis,
    operators,
    random_polynomial,
    sobolev,
    sobolev_gain_certificate,
    spectrum,
)
from kohn_spectra.sobolev import (
    argmax_degree,
    critical_degree,
    decreasing_tail_certificate,
    equality_bidegree,
    is_bounded,
    proof_display_c_squared,
    ratio,
    ratio_series,
    theorem_display_c_squared,
)


class TestRatio:
    def test_n2_base_value(self):
        assert ratio(2, 1, 1) == 1

    def test_n3_base_value(self):
        assert ratio(3, 1, 1) == Fraction(3, 8)

    def test_limit_one_quarter(self):
        assert abs(ratio(2, 1, 10**6) - Fraction(1, 4)) < Fraction(1, 10**5)

    def test_exact_for_integer_exponent(self):
        assert isinstance(ratio(3, 2, 5), Fraction)
        assert isinstance(ratio(3, Fraction(2), 5), Fraction)

    def test_float_for_fractional_exponent(self):
        value = ratio(2, Fraction(1, 2), 1)
        assert isinstance(value, float)
        assert value == pytest.approx(0.5)  # sqrt(4)/4

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError):
            ratio(2, 1, 0)

    def test_series(self):
        points = ratio_series(2, 1, 4)
        assert [pt.k for pt in points] == [1, 2, 3, 4]
        assert points[0].value == 1

    def test_series_size_is_checked_before_its_first_point(self, monkeypatch):
        # 5000 points of up to 4000 * 25 bits: every point is under the power budget, the series is not
        calls = []
        monkeypatch.setattr(sobolev, "ratio", lambda *args: calls.append(args))
        series = f"exact series of 5000 powers .* series size budget of {sobolev._SERIES_BITS} bits"
        for s in (4000, Fraction(4000)):
            with pytest.raises(ValueError, match=series):
                ratio_series(2, s, 5000)
        # a last point past the power budget is refused as that power
        with pytest.raises(ValueError, match=f"exact power of 16 .* size budget of {spectrum._POWER_BITS} bits"):
            ratio_series(2, 10**7, 3)
        assert calls == []

    def test_series_at_the_budget_and_at_a_float_order(self, monkeypatch):
        # 1 + 4*6 = 25 has 5 bits: 4 points of |s| = 100 fill a budget of 2000 bits
        monkeypatch.setattr(sobolev, "_SERIES_BITS", 2000)
        assert len(ratio_series(2, -100, 4)) == 4
        with pytest.raises(ValueError, match="series size budget of 2000 bits"):
            ratio_series(2, 101, 4)
        # a float order takes the float path, which the budget does not bound
        assert all(isinstance(pt.value, float) for pt in ratio_series(2, 101.0, 4))


class TestIsBounded:
    def test_boundary(self):
        assert is_bounded(2, 1)
        assert is_bounded(3, Fraction(1))

    def test_above_boundary(self):
        assert not is_bounded(4, 1.01)
        assert not is_bounded(2, Fraction(101, 100))

    def test_below_boundary(self):
        assert is_bounded(3, 0)
        assert is_bounded(3, -2)

    def test_unbounded_growth_above_one(self):
        # growth exponent 2s-2 = 1 at s = 3/2
        s = Fraction(3, 2)
        assert ratio(2, s, 10**4) > 100 * ratio(2, s, 10)


def scan_best_constant(n):
    """Reference: the exact scan of the t = 1 ratio over 1 <= k <= argmax_degree(n) + n^2
    that best_constant used to run, with no tie and the maximum inside the window."""
    window = argmax_degree(n) + n * n
    best_k, best_value = 1, ratio(n, 1, 1)
    for k in range(2, window + 1):
        value = ratio(n, 1, k)
        assert value != best_value
        if value > best_value:
            best_k, best_value = k, value
    assert best_k < window
    return best_value, best_k


class TestBestConstant:
    def test_matches_the_exact_scan(self):
        for n in range(2, 41):
            report = best_constant(n)
            assert (report.c_squared, report.argmax_k) == scan_best_constant(n), n

    @pytest.mark.parametrize("n", [10**6, 10**12])
    def test_huge_n_reads_the_proof_display(self, n):
        report = best_constant(n)
        assert report.c_squared == proof_display_c_squared(n)
        assert report.argmax_k == critical_degree(n)
        assert report.matches_proof_display and not report.matches_theorem_display

    @pytest.mark.parametrize("n", [2, 3, 4, 10, 10**6])
    def test_evaluates_the_ratio_at_the_argmax_and_its_neighbours(self, monkeypatch, n):
        exact, degrees = sobolev.ratio, []

        def counting(n, s, k):
            degrees.append(k)
            return exact(n, s, k)

        monkeypatch.setattr(sobolev, "ratio", counting)
        best_constant(n)
        k = argmax_degree(n)
        assert sorted(degrees) == [d for d in (k - 1, k, k + 1) if d >= 1]

    @pytest.mark.parametrize("n, shift", [(2, 1), (4, 1), (4, -1), (10, 1), (10, -1)])
    def test_a_maximum_off_the_certified_degree_raises(self, monkeypatch, n, shift):
        exact = sobolev.ratio
        # the sequence moved by `shift` degrees, so its maximum (or a tie) leaves k*
        monkeypatch.setattr(sobolev, "ratio", lambda n, s, k: exact(n, s, max(k - shift, 1)))
        with pytest.raises(RuntimeError, match="certified degree"):
            best_constant(n)

    def test_n2(self):
        report = best_constant(2)
        assert report.c_squared == 1
        assert report.argmax_k == 1
        assert report.equality_bidegrees == (Bidegree(0, 1),)
        assert report.matches_theorem_display
        assert report.matches_proof_display

    def test_n3(self):
        report = best_constant(3)
        assert report.c_squared == Fraction(3, 8)
        assert report.argmax_k == 1 == critical_degree(3)
        assert report.matches_proof_display
        assert not report.matches_theorem_display  # 3/8 != 3/16

    def test_n4(self):
        report = best_constant(4)
        assert report.c_squared == Fraction(2, 7)
        assert report.argmax_k == 5
        assert report.equality_bidegrees == (Bidegree(4, 1),)

    def test_displays_disagree_for_n_at_least_3(self):
        for n in range(3, 12):
            assert theorem_display_c_squared(n) != proof_display_c_squared(n)

    def test_critical_point_identity(self):
        # (n^2-3n+1)(n^2-n-1) + 1 == n(n-2)(n^2-2n-1) for all n
        for n in range(2, 51):
            k = n * n - 3 * n + 1
            assert k * (n * n - n - 1) + 1 == n * (n - 2) * (n * n - 2 * n - 1)

    def test_scan_value_matches_closed_form(self):
        for n in range(3, 11):
            assert ratio(n, 1, critical_degree(n)) == proof_display_c_squared(n)

    def test_tail_certificate(self):
        for n in range(2, 12):
            k_star = decreasing_tail_certificate(n)
            assert k_star == critical_degree(n)
            start = max(k_star, 1)
            for k in range(start, start + 5):
                assert ratio(n, 1, k + 1) < ratio(n, 1, k)

    def test_json_shape(self, capsys):
        obj = cli_json(capsys, "sobolev-constant", "--n", "3")
        assert obj["c_squared"] == "3/8"
        assert obj["argmax_k"] == 1
        assert obj["equality_bidegrees"] == [{"p": 0, "q": 1}]
        assert obj["matches_theorem_display"] is False
        assert obj["matches_proof_display"] is True


class TestGainCertificate:
    def test_equality_on_locus_n2(self):
        cert = sobolev_gain_certificate(2, Polynomial.z_bar(2, 1), 0)
        assert cert.green_norm_squared == Fraction(1, 2)
        assert cert.bound == Fraction(1, 2)
        assert cert.equality
        assert cert.in_equality_locus
        assert cert.ratio == 1

    def test_kernel_input_trivially_strict(self):
        cert = sobolev_gain_certificate(2, Polynomial.z(2, 1), 0)
        assert cert.green_norm_squared == 0
        assert cert.bound == Fraction(1, 2)
        assert not cert.equality

    def test_strict_for_low_degree_cell_n4(self):
        element = harmonic_basis(4, Bidegree(0, 1)).elements[0]
        cert = sobolev_gain_certificate(4, element, 0)
        # per-component ratio (1+mu(1))/lambda(0,1)^2 = 8/36 = 2/9 < 2/7
        assert cert.ratio == Fraction(2, 9) / Fraction(2, 7)
        assert not cert.equality

    def test_equality_on_locus_n4(self):
        element = harmonic_basis(4, equality_bidegree(4)).elements[0]
        cert = sobolev_gain_certificate(4, element, 0)
        assert cert.equality
        assert cert.in_equality_locus

    def test_higher_order_equality_still_holds_on_locus(self):
        cert = sobolev_gain_certificate(2, Polynomial.z_bar(2, 2), 2)
        assert cert.equality

    def test_random_inputs_bounded_strictly_off_locus(self):
        rng = random.Random(107)
        for n in (2, 3):
            for _ in range(10):
                f = random_polynomial(rng, n, max_degree=4)
                cert = sobolev_gain_certificate(n, f, 0)
                assert cert.holds
                if not cert.in_equality_locus and cert.bound:
                    assert cert.green_norm_squared < cert.bound

    def test_violation_is_reported_not_raised(self, monkeypatch):
        best = sobolev.best_constant

        def too_small(n):
            report = best(n)
            return dataclasses.replace(report, c_squared=report.c_squared / 2)

        monkeypatch.setattr(sobolev, "best_constant", too_small)
        cert = sobolev_gain_certificate(2, Polynomial.z_bar(2, 1), 0)
        assert cert.holds is False
        assert cert.green_norm_squared == Fraction(1, 2)
        assert cert.bound == Fraction(1, 4)
        assert not cert.equality

    def test_requires_integer_order(self):
        with pytest.raises(ValueError):
            sobolev_gain_certificate(2, Polynomial.z_bar(2, 1), Fraction(1, 2))

    def test_polynomial_on_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="polynomial lives on C\\^2, expected C\\^3"):
            sobolev_gain_certificate(3, Polynomial.z_bar(2, 1), 0)

    def test_decomposes_f_once(self, monkeypatch):
        calls = []
        decompose = operators.decompose

        def counting(f):
            calls.append(f)
            return decompose(f)

        monkeypatch.setattr(operators, "decompose", counting)
        monkeypatch.setattr(sobolev, "decompose", counting)
        f = Polynomial.z(2, 1) * Polynomial.z_bar(2, 2) + Polynomial.z_bar(2, 1)
        sobolev_gain_certificate(2, f, 1)
        assert calls == [f]

    def test_argmax_degree_helper(self):
        assert argmax_degree(2) == 1
        assert argmax_degree(3) == 1
        assert argmax_degree(4) == 5
