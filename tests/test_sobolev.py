"""Sobolev ratio sequence, best constants, and gain certificates."""

import random
from fractions import Fraction

import pytest

from kohn_spectra import (
    Bidegree,
    Polynomial,
    best_constant,
    harmonic_basis,
    operators,
    random_polynomial,
    sobolev,
    sobolev_gain_certificate,
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


class TestBestConstant:
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

    def test_insufficient_scan_rejected(self):
        with pytest.raises(ValueError):
            best_constant(5, scan_max=10)

    def test_tail_certificate(self):
        for n in range(2, 12):
            k_star = decreasing_tail_certificate(n)
            assert k_star == critical_degree(n)
            start = max(k_star, 1)
            for k in range(start, start + 5):
                assert ratio(n, 1, k + 1) < ratio(n, 1, k)

    def test_json_shape(self):
        obj = best_constant(3).to_json_dict()
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

    def test_requires_integer_order(self):
        with pytest.raises(ValueError):
            sobolev_gain_certificate(2, Polynomial.z_bar(2, 1), Fraction(1, 2))

    def test_decomposes_f_once_and_green_f_once(self, monkeypatch):
        calls = []
        decompose = operators.decompose

        def counting(f):
            calls.append(f)
            return decompose(f)

        monkeypatch.setattr(operators, "decompose", counting)
        monkeypatch.setattr(sobolev, "decompose", counting)
        f = Polynomial.z(2, 1) * Polynomial.z_bar(2, 2) + Polynomial.z_bar(2, 1)
        sobolev_gain_certificate(2, f, 1)
        assert len(calls) == 2

    def test_argmax_degree_helper(self):
        assert argmax_degree(2) == 1
        assert argmax_degree(3) == 1
        assert argmax_degree(4) == 5
