"""Spectral operator calculus: decomposition, boxb, Green, Hardy, Sobolev."""

import random
from fractions import Fraction

import pytest

from kohn_spectra import (
    Bidegree,
    Polynomial,
    ambient_laplacian,
    apply_boxb,
    apply_green,
    apply_sobolev_power,
    decompose,
    hardy_projection,
    l2_norm_squared,
    radius_squared,
    random_polynomial,
    residual_check,
    sobolev_norm_squared,
    sphere_inner_product,
)
from kohn_spectra.operators import FloatScaledDecomposition, SphericalDecomposition
from kohn_spectra.polynomials import bidegree_of, multiindices


def z(j, n=2):
    return Polynomial.z(n, j)


def zb(j, n=2):
    return Polynomial.z_bar(n, j)


class TestDecompose:
    def test_mixed_monomial(self):
        dec = decompose(z(1) * zb(1))
        assert dec.bidegrees() == (Bidegree(0, 0), Bidegree(1, 1))
        assert dec.component(Bidegree(0, 0)) == Polynomial.constant(2, Fraction(1, 2))
        expected = (z(1) * zb(1) - z(2) * zb(2)) * Fraction(1, 2)
        assert dec.component(Bidegree(1, 1)) == expected

    def test_already_harmonic(self):
        dec = decompose(zb(1))
        assert dec.bidegrees() == (Bidegree(0, 1),)
        assert dec.component(Bidegree(0, 1)) == zb(1)

    def test_radius_squared_collapses_to_constant(self):
        dec = decompose(radius_squared(2))
        assert dec.bidegrees() == (Bidegree(0, 0),)
        assert dec.component(Bidegree(0, 0)) == Polynomial.constant(2, 1)

    def test_merging_across_pieces(self):
        dec = decompose(z(1) * zb(1) + Polynomial.constant(2, 1))
        assert dec.component(Bidegree(0, 0)) == Polynomial.constant(2, Fraction(3, 2))

    def test_components_harmonic_and_bihomogeneous(self):
        rng = random.Random(71)
        for n in (2, 3):
            for _ in range(15):
                f = random_polynomial(rng, n, max_degree=6)
                for comp in decompose(f).components:
                    assert not ambient_laplacian(comp.part)
                    assert bidegree_of(comp.part) == comp.bidegree

    def test_sum_agrees_with_input_on_sphere(self):
        rng = random.Random(73)
        for n in (2, 3):
            for _ in range(15):
                f = random_polynomial(rng, n, max_degree=6)
                assert l2_norm_squared(f - decompose(f).as_polynomial()) == 0

    def test_at_most_one_component_per_bidegree(self):
        rng = random.Random(79)
        f = random_polynomial(rng, 2, max_degree=8, max_terms=12)
        degrees = decompose(f).bidegrees()
        assert len(degrees) == len(set(degrees))

    def test_agrees_with_orthogonal_projection_oracle(self):
        # independent route: project f onto each harmonic cell through the
        # exact orthogonal bases; must reproduce the Fischer components
        from kohn_spectra import harmonic_basis, orthonormalize
        from kohn_spectra.polynomials import ExactScalar

        rng = random.Random(113)
        for _ in range(5):
            f = random_polynomial(rng, 2, max_degree=4)
            dec = decompose(f)
            for k in range(5):
                for p in range(k + 1):
                    d = Bidegree(p, k - p)
                    basis = orthonormalize(harmonic_basis(2, d))
                    projection = Polynomial.zero(2)
                    for u, nsq in zip(basis.elements, basis.squared_norms):
                        coeff = sphere_inner_product(f, u) / ExactScalar(nsq)
                        projection = projection + u * coeff
                    assert projection == dec.component(d), (d, f)


def test_decompose_exact_at_degree_limit():
    # warranted exact up to p+q = 12, n = 6
    f = radius_squared(3) ** 6
    dec = decompose(f)
    assert dec.bidegrees() == (Bidegree(0, 0),)
    assert dec.component(Bidegree(0, 0)) == Polynomial.constant(3, 1)

    rng = random.Random(5)
    g = random_polynomial(rng, 6, max_degree=12, max_terms=5)
    split = decompose(g)
    assert l2_norm_squared(g - split.as_polynomial()) == 0
    assert residual_check(g) == 0


class TestApplyBoxb:
    def test_eigenfunction(self):
        result = apply_boxb(zb(1))
        assert result.as_polynomial() == zb(1) * 2

    def test_hardy_kernel(self):
        assert apply_boxb(z(1)).components == ()

    def test_constants_killed(self):
        assert apply_boxb(Polynomial.constant(2, 5)).components == ()


class TestApplyGreen:
    def test_eigenfunction_scaled_by_reciprocal(self):
        assert apply_green(zb(1)).as_polynomial() == zb(1) * Fraction(1, 2)

    def test_kernel_annihilated(self):
        assert apply_green(z(1) ** 3).components == ()

    def test_mixed_monomial(self):
        result = apply_green(z(1) * zb(1))
        expected = (z(1) * zb(1) - z(2) * zb(2)) * Fraction(1, 8)
        assert result.as_polynomial() == expected

    def test_output_orthogonal_to_hardy_space(self):
        rng = random.Random(83)
        for _ in range(10):
            f = random_polynomial(rng, 2, max_degree=5)
            g = apply_green(f).as_polynomial()
            for alpha in multiindices(2, 2) + multiindices(2, 0):
                holomorphic = Polynomial.monomial(2, alpha, (0, 0))
                assert not sphere_inner_product(g, holomorphic)


class TestHardyProjection:
    def test_keeps_holomorphic_part(self):
        assert hardy_projection(z(1) + zb(1)).as_polynomial() == z(1)

    def test_mixed_monomial_gives_constant(self):
        result = hardy_projection(z(1) * zb(1))
        assert result.as_polynomial() == Polynomial.constant(2, Fraction(1, 2))

    def test_antiholomorphic_killed(self):
        assert hardy_projection(zb(2)).components == ()


class TestGreenBoxbIdentity:
    def test_green_after_boxb_is_identity_minus_hardy(self):
        rng = random.Random(89)
        for n in (2, 3):
            for _ in range(10):
                f = random_polynomial(rng, n, max_degree=5)
                lhs = apply_green(apply_boxb(f).as_polynomial()).as_polynomial()
                rhs = f - hardy_projection(f).as_polynomial()
                assert l2_norm_squared(lhs - rhs) == 0

    def test_residual_eigenfunction(self):
        assert residual_check(zb(1)) == 0

    def test_residual_mixed_monomial(self):
        assert residual_check(z(1) * zb(1)) == 0

    def test_residual_random(self):
        rng = random.Random(97)
        for _ in range(20):
            f = random_polynomial(rng, 2, max_degree=5)
            assert residual_check(f) == 0


class TestSobolevPower:
    def test_power_zero_is_identity(self):
        f = z(1) * zb(1) + zb(2)
        assert apply_sobolev_power(f, 0).components == decompose(f).components

    def test_integer_power_exact(self):
        result = apply_sobolev_power(zb(1), 1)
        assert isinstance(result, SphericalDecomposition)
        assert result.as_polynomial() == zb(1) * 4

    def test_half_power_uses_floats(self):
        result = apply_sobolev_power(zb(1), Fraction(1, 2))
        assert isinstance(result, FloatScaledDecomposition)
        (comp,) = result.components
        assert comp.part == zb(1)
        assert comp.factor == pytest.approx(2.0)

    def test_negative_integer_power_exact(self):
        result = apply_sobolev_power(zb(1), -1)
        assert result.as_polynomial() == zb(1) * Fraction(1, 4)

    def test_underflowed_float_factor_keeps_its_component(self):
        (comp,) = apply_sobolev_power(zb(1), Fraction(-2001, 2)).components
        assert comp.factor == 0.0 and comp.part == zb(1)

    def test_zero_input_keeps_the_result_type_of_its_order(self):
        assert isinstance(apply_sobolev_power(Polynomial.zero(3), 2), SphericalDecomposition)
        result = apply_sobolev_power(Polynomial.zero(3), Fraction(1, 2))
        assert isinstance(result, FloatScaledDecomposition)
        assert result.components == ()


class TestSobolevNorm:
    def test_constant_has_unit_norm_at_every_order(self):
        one = Polynomial.constant(2, 1)
        for s in (0, 1, 5, Fraction(1, 2), 0.75):
            assert sobolev_norm_squared(one, s) == 1

    def test_zero_input_keeps_the_scalar_type_of_its_order(self):
        for s, zero in ((0.5, 0.0), (2, Fraction(0)), (Fraction(3), Fraction(0))):
            value = sobolev_norm_squared(Polynomial.zero(2), s)
            assert type(value) is type(zero) and value == zero

    def test_l2_anchor(self):
        assert sobolev_norm_squared(zb(1), 0) == Fraction(1, 2)

    def test_order_one(self):
        assert sobolev_norm_squared(zb(1), 1) == 2

    def test_float_path_matches_exact_on_integers(self):
        f = z(1) * zb(1) + zb(2)
        assert sobolev_norm_squared(f, 2.0) == pytest.approx(
            float(sobolev_norm_squared(f, 2))
        )

    def test_monotone_in_order(self):
        rng = random.Random(101)
        for _ in range(10):
            f = random_polynomial(rng, 2, max_degree=4)
            values = [sobolev_norm_squared(f, s) for s in range(4)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_anchor_is_inner_product(self):
        rng = random.Random(103)
        for _ in range(10):
            f = random_polynomial(rng, 3, max_degree=4)
            assert sobolev_norm_squared(f, 0) == l2_norm_squared(f)
