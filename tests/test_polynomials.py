"""Exact polynomial algebra: arithmetic, Laplacian, bidegree bookkeeping,
and the sphere inner product."""

import random
from fractions import Fraction

import pytest

from kohn_spectra import (
    Bidegree,
    DimensionMismatchError,
    ExactScalar,
    FormatError,
    Polynomial,
    ambient_laplacian,
    bidegree_split,
    fraction_from_string,
    fraction_to_string,
    l2_norm_squared,
    monomial_sphere_integral,
    polynomial_from_dict,
    polynomial_to_dict,
    radius_squared,
    random_polynomial,
    sphere_inner_product,
)
from kohn_spectra.polynomials import euler_z, euler_z_bar, multiindices


def z(j, n=2):
    return Polynomial.z(n, j)


def zb(j, n=2):
    return Polynomial.z_bar(n, j)


def one(n=2):
    return Polynomial.constant(n, 1)


class TestExactScalar:
    def test_lowest_terms_after_arithmetic(self):
        a = ExactScalar(Fraction(1, 2), Fraction(1, 3))
        b = ExactScalar(Fraction(1, 2), Fraction(-1, 3))
        total = a + b
        assert total == ExactScalar(1)
        assert total.re.denominator == 1

    def test_product_and_division_roundtrip(self):
        a = ExactScalar(Fraction(2, 3), Fraction(-5, 7))
        b = ExactScalar(Fraction(-1, 4), Fraction(9, 2))
        assert (a * b) / b == a

    def test_conjugate_and_norm(self):
        a = ExactScalar(Fraction(3, 5), Fraction(4, 5))
        assert (a * a.conjugate()).re == a.norm_squared() == Fraction(1)

    def test_exact_equality_no_tolerance(self):
        assert ExactScalar(Fraction(1, 3)) != ExactScalar(Fraction(33333, 100000))

    def test_zero_is_falsy(self):
        assert not ExactScalar(0, 0)
        assert ExactScalar(0, Fraction(1, 9))


class TestRingOperations:
    def test_additive_inverse_gives_zero(self):
        assert z(1) + (-z(1)) == Polynomial.zero(2)

    def test_sum_of_distinct_monomials_has_two_terms(self):
        assert len((z(1) + zb(1)).terms) == 2

    def test_coefficient_merge(self):
        half = z(1) * zb(2) * Fraction(1, 2)
        assert half + half == z(1) * zb(2)

    def test_product_of_coordinates(self):
        assert z(1) * zb(1) == Polynomial.monomial(2, (1, 0), (1, 0))

    def test_multiplication_by_one(self):
        assert radius_squared(2) * one() == radius_squared(2)

    def test_distributive_expansion(self):
        product = (z(1) + z(2)) * (zb(1) - zb(2))
        expected = z(1) * zb(1) - z(1) * zb(2) + z(2) * zb(1) - z(2) * zb(2)
        assert product == expected

    def test_power(self):
        assert z(1) ** 3 == z(1) * z(1) * z(1)
        assert z(1) ** 0 == one()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            z(1, n=2) + z(1, n=3)
        with pytest.raises(DimensionMismatchError):
            z(1, n=2) * z(1, n=3)
        with pytest.raises(DimensionMismatchError):
            sphere_inner_product(z(1, n=2), z(1, n=3))

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(1)
        with pytest.raises(ValueError):
            Polynomial.monomial(2, (1,), (0, 0))


class TestAmbientLaplacian:
    def test_harmonic_by_cancellation(self):
        f = z(1) * zb(1) - z(2) * zb(2)
        assert not ambient_laplacian(f)

    def test_mixed_monomial_gives_constant_four(self):
        assert ambient_laplacian(z(1) * zb(1)) == Polynomial.constant(2, 4)

    def test_holomorphic_is_harmonic(self):
        assert not ambient_laplacian(z(1) ** 2)

    def test_lowers_both_degrees_by_one(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_polynomial(rng, 3, max_degree=6)
            input_degrees = {(sum(a), sum(b)) for a, b in f.terms}
            for (alpha, beta), _ in ambient_laplacian(f).terms.items():
                assert (sum(alpha) + 1, sum(beta) + 1) in input_degrees

    def test_constants_map_to_zero(self):
        assert not ambient_laplacian(Polynomial.constant(3, Fraction(5)))


class TestBidegreeSplit:
    def test_two_bidegrees(self):
        split = bidegree_split(z(1) + z(1) * zb(2))
        assert split == {
            Bidegree(1, 0): z(1),
            Bidegree(1, 1): z(1) * zb(2),
        }

    def test_zero_polynomial_gives_empty_map(self):
        assert bidegree_split(Polynomial.zero(2)) == {}

    def test_radius_squared_is_bihomogeneous(self):
        assert bidegree_split(radius_squared(2)) == {Bidegree(1, 1): radius_squared(2)}

    def test_parts_sum_back(self):
        rng = random.Random(11)
        for _ in range(25):
            f = random_polynomial(rng, 2, max_degree=7, max_terms=9)
            total = Polynomial.zero(2)
            for part in bidegree_split(f).values():
                total = total + part
            assert total == f

    def test_euler_operators_read_bidegree(self):
        f = z(1) ** 2 * zb(2)
        assert euler_z(f) == f * 2
        assert euler_z_bar(f) == f


class TestSphereInnerProduct:
    def test_coordinate_norm(self):
        assert sphere_inner_product(z(1), z(1)) == ExactScalar(Fraction(1, 2))

    def test_distinct_coordinates_orthogonal(self):
        assert not sphere_inner_product(z(1), z(2))

    def test_unit_constant(self):
        assert sphere_inner_product(one(), one()) == ExactScalar(1)

    def test_coordinate_norms_sum_to_one(self):
        total = sum(
            (sphere_inner_product(z(j), z(j)) for j in (1, 2)), ExactScalar(0)
        )
        assert total == ExactScalar(1)

    def test_conjugate_symmetry(self):
        rng = random.Random(23)
        for _ in range(20):
            f = random_polynomial(rng, 2, max_degree=4)
            g = random_polynomial(rng, 2, max_degree=4)
            assert sphere_inner_product(f, g) == sphere_inner_product(g, f).conjugate()

    def test_multiplication_by_radius_preserves_pairing(self):
        # |z|^2 = 1 on the sphere: sum_j <z_j f, z_j f> = <f, f>
        rng = random.Random(31)
        for n in (2, 3):
            for _ in range(10):
                f = random_polynomial(rng, n, max_degree=4)
                total = Fraction(0)
                for j in range(1, n + 1):
                    total += l2_norm_squared(Polynomial.z(n, j) * f)
                assert total == l2_norm_squared(f)

    def test_norm_squared_nonnegative(self):
        rng = random.Random(37)
        for _ in range(20):
            f = random_polynomial(rng, 2, max_degree=5)
            assert l2_norm_squared(f) >= 0


class TestMonomialIntegral:
    def test_total_mass_one(self):
        for n in (2, 3, 4):
            assert monomial_sphere_integral(n, (0,) * n) == 1

    def test_offdiagonal_vanishes(self):
        assert monomial_sphere_integral(2, (1, 0), (0, 1)) == 0

    def test_partition_recursion_small(self):
        # adding |z|^2 = sum z_j zbar_j inside the integral changes nothing
        for n in (2, 3):
            for degree in range(4):
                for alpha in multiindices(n, degree):
                    children = Fraction(0)
                    for j in range(n):
                        bumped = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :]
                        children += monomial_sphere_integral(n, bumped)
                    assert children == monomial_sphere_integral(n, alpha)

    def test_worked_value(self):
        # n=2, alpha=(1,0): 1! * 1 / 2! = 1/2
        assert monomial_sphere_integral(2, (1, 0)) == Fraction(1, 2)


def test_exactness_warranty_at_degree_limit():
    # the exact path is warranted up to p+q = 12, n = 6
    n = 6
    alpha = (2, 2, 2, 0, 0, 0)
    beta = (0, 0, 0, 2, 2, 2)
    f = Polynomial.monomial(n, alpha, beta, Fraction(1, 3))
    assert bidegree_split(f) == {Bidegree(6, 6): f}
    lap = ambient_laplacian(f)
    assert not lap  # no variable carries both z and zbar powers here
    g = f * radius_squared(n)
    assert sum(len(k[0]) for k in g.terms) == n * len(g.terms)
    assert l2_norm_squared(f) > 0


class TestSerialization:
    def test_fraction_strings(self):
        assert fraction_to_string(Fraction(-3, 6)) == "-1/2"
        assert fraction_from_string("7/2") == Fraction(7, 2)
        assert fraction_from_string("5") == Fraction(5)
        with pytest.raises(FormatError):
            fraction_from_string("0.5")

    def test_roundtrip(self):
        rng = random.Random(41)
        for _ in range(10):
            f = random_polynomial(rng, 3, max_degree=5)
            assert polynomial_from_dict(polynomial_to_dict(f)) == f

    def test_documented_shape(self):
        obj = polynomial_to_dict(z(1))
        assert obj == {
            "n": 2,
            "terms": [{"alpha": [1, 0], "beta": [0, 0], "re": "1/1", "im": "0/1"}],
        }

    def test_parse_error_names_offending_term(self):
        bad = {
            "n": 2,
            "terms": [
                {"alpha": [1, 0], "beta": [0, 0], "re": "1/1", "im": "0/1"},
                {"alpha": [1], "beta": [0, 0], "re": "1/1", "im": "0/1"},
            ],
        }
        with pytest.raises(FormatError, match="term 1"):
            polynomial_from_dict(bad)

    def test_missing_fields_rejected(self):
        with pytest.raises(FormatError):
            polynomial_from_dict({"n": 2})
        with pytest.raises(FormatError, match="term 0"):
            polynomial_from_dict({"n": 2, "terms": [{"alpha": [0, 0]}]})
