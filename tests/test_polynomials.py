"""Exact polynomial algebra: arithmetic, Laplacian, bidegree bookkeeping,
and the sphere inner product."""

import ast
import math
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

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
from kohn_spectra import polynomials
from kohn_spectra.polynomials import (
    _combine,
    _from_terms,
    _PairingIndex,
    _parts,
    euler_z,
    euler_z_bar,
    multiindices,
)


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


class TestOperandEdges:
    def test_scalar_on_the_left_scales(self):
        f = z(1) + zb(2)
        assert 3 * f == f.scale(3) == f * 3
        assert Fraction(1, 2) * f == f.scale(Fraction(1, 2))

    def test_non_polynomial_operand_is_not_implemented(self):
        f = z(1)
        for op in ("__add__", "__sub__", "__mul__", "__eq__"):
            assert getattr(f, op)(0.5) is NotImplemented
        for combine in (lambda: f + 0.5, lambda: f - 0.5, lambda: f * 0.5):
            with pytest.raises(TypeError):
                combine()
        assert f != 0.5

    def test_zero_polynomial_prints_as_zero(self):
        zero = Polynomial.zero(2)
        assert str(zero) == "0"
        assert repr(zero) == "Polynomial(n=2: 0)"

    def test_coordinate_index_past_the_dimension(self):
        with pytest.raises(ValueError, match="coordinate index 3 out of range 1..2"):
            Polynomial.z(2, 3)


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

    def test_reads_the_pairing_closed_form(self, monkeypatch):
        # the recursion tests above check the copy every inner product uses
        calls = []
        pair = _PairingIndex.pair

        def counting(self, f):
            calls.append(f)
            return pair(self, f)

        monkeypatch.setattr(_PairingIndex, "pair", counting)
        # n=3, alpha=(1,2,0): 2! * 1! 2! / 5! = 1/30
        assert monomial_sphere_integral(3, (1, 2, 0)) == Fraction(1, 30)
        assert monomial_sphere_integral(3, (1, 2, 0), (2, 1, 0)) == 0
        assert len(calls) >= 1


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
        # longer than the 4300 digits str(int) prints by default
        assert fraction_to_string(Fraction(-(10**5000), 3)) == "-1" + "0" * 5000 + "/3"
        assert fraction_from_string("7/2") == Fraction(7, 2)
        assert fraction_from_string("5") == Fraction(5)
        with pytest.raises(FormatError):
            fraction_from_string("0.5")

    def test_input_in_any_terms_reads_to_lowest_terms(self):
        # output is in lowest terms, input may be in any: reading reduces
        assert fraction_from_string("2/4") == Fraction(1, 2)

        def form(re, im):
            return {"n": 2, "terms": [{"alpha": [1, 0], "beta": [0, 1], "re": re, "im": im}]}

        f = polynomial_from_dict(form("2/4", "-3/6"))
        assert f == polynomial_from_dict(form("1/2", "-1/2"))
        assert polynomial_to_dict(f) == form("1/2", "-1/2")

    def test_decimal_conversion_matches_decimal(self):
        # Decimal(x) itself is the reference up to 20 000 digits, where it
        # is still quick; both sides of the _DECIMAL_DIRECT_BITS switch included
        rng = random.Random(24)
        edge = 2**polynomials._DECIMAL_DIRECT_BITS
        values = [0, 1, -1, 10**4300, -(10**4301), edge - 1, edge, -edge, edge + 1, 3 * edge]
        for digits in (1, 2, 17, 300, 2466, 2467, 4301, 9000, 20000):
            x = rng.randrange(10 ** (digits - 1), 10**digits)
            values += [x, -x, 10**digits, 10**digits - 1]
        for x in values:
            assert str(polynomials._decimal(x)) == str(Decimal(x))

    def test_decimal_conversion_past_half_a_million_digits(self):
        # the expected digits are built alongside the integer, 128 chunks of
        # 3907 digits joined pairwise, since Decimal(x) is quadratic and str(x)
        # refused at this length
        rng = random.Random(25)
        chunks = [rng.randrange(10**3907) for _ in range(128)]
        chunks[0] = rng.randrange(10**3906, 10**3907)
        text = "".join(str(chunk).zfill(3907) for chunk in chunks)
        parts, width = chunks, 10**3907
        while len(parts) > 1:
            parts = [hi * width + lo for hi, lo in zip(parts[::2], parts[1::2])]
            width *= width
        assert len(text) == 500_096
        assert str(polynomials._decimal(-parts[0])) == "-" + text

    def test_rational_of_200000_digits_reads_back_quickly(self):
        # int(str) and Decimal read a digit run in quadratic time (1.5 s here);
        # the reader splits it into halves of at most 640 digits
        num = random.Random(26).randrange(10**199_999, 10**200_000)
        value = Fraction(-num, 3**50)
        text = fraction_to_string(value)
        assert len(text.partition("/")[0]) == 200_001
        start = time.perf_counter()
        assert fraction_from_string(text) == value
        assert time.perf_counter() - start < 1.0

    def test_reading_needs_no_int_string_limit(self):
        digits = "".join(str(k % 10) for k in range(1, 5001))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            value = fraction_from_string(f"-{digits}/7{digits}")
            obj = {"n": 2, "terms": [{"alpha": [1, 0], "beta": [0, 0], "re": digits, "im": "0/1"}]}
            f = polynomial_from_dict(obj)
        finally:
            sys.set_int_max_str_digits(limit)
        big = int(Decimal(digits))  # Decimal reads past the limit, slowly
        assert value == Fraction(-big, 7 * 10**5000 + big)
        assert f == Polynomial.z(2, 1) * big

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5", "malformed rational '0.5'; expected \"numerator/denominator\""),
            ("1/-2", "malformed rational '1/-2'; expected \"numerator/denominator\""),
            (None, "malformed rational None; expected \"numerator/denominator\""),
            ("1/0", "rational '1/0' has a zero denominator"),
            (" -3/000 ", "rational ' -3/000 ' has a zero denominator"),
        ],
    )
    def test_reading_error_messages(self, text, message):
        with pytest.raises(FormatError) as info:
            fraction_from_string(text)
        assert str(info.value) == message
        obj = {"n": 2, "terms": [{"alpha": [0, 0], "beta": [0, 0], "re": "1/2", "im": text}]}
        with pytest.raises(FormatError) as info:
            polynomial_from_dict(obj)
        assert str(info.value) == f"term 0: {message}"

    def test_roundtrip(self):
        rng = random.Random(41)
        for _ in range(10):
            f = random_polynomial(rng, 3, max_degree=5)
            assert polynomial_from_dict(polynomial_to_dict(f)) == f

    def test_roundtrip_past_the_int_string_limit(self):
        # both parts longer than the 4300 digits int(str) reads by default
        big = Fraction(-(10**5000) + 7, 3**9100)
        assert fraction_from_string(fraction_to_string(big)) == big
        f = Polynomial.monomial(2, (1, 0), (0, 1), ExactScalar(big, 1 / big)) + Polynomial.z(2, 2)
        assert polynomial_from_dict(polynomial_to_dict(f)) == f

    @staticmethod
    def _terms_based_dict(f):
        """polynomial_to_dict written over the ExactScalar term map."""
        return {
            "n": f.n,
            "terms": [
                {
                    "alpha": list(alpha),
                    "beta": list(beta),
                    "re": fraction_to_string(c.re),
                    "im": fraction_to_string(c.im),
                }
                for (alpha, beta), c in sorted(f.terms.items())
            ],
        }

    def test_matches_the_terms_based_form(self):
        rng = random.Random(43)
        for n in (2, 3, 4):
            for _ in range(10):
                f = random_polynomial(rng, n, max_degree=6) * random_polynomial(rng, n, max_degree=2)
                for g in (f, f * Fraction(7, 30), Polynomial.zero(n)):
                    assert polynomial_to_dict(g) == self._terms_based_dict(g)
        coeff = ExactScalar(Fraction(10**5000 + 1, 6), Fraction(-5, 9))
        big = Polynomial.monomial(2, (1, 0), (0, 2), coeff) + z(2) * Fraction(1, 4)
        obj = polynomial_to_dict(big)
        assert obj == self._terms_based_dict(big)
        assert len(obj["terms"][1]["re"].split("/")[0]) == 5001

    def test_parsing_checks_each_multiindex_once(self, monkeypatch):
        calls = []
        check = polynomials._check_multiindex

        def counted(entries, n):
            calls.append(entries)
            return check(entries, n)

        monkeypatch.setattr(polynomials, "_check_multiindex", counted)
        f = random_polynomial(random.Random(47), 3, max_degree=4, max_terms=5)
        obj = polynomial_to_dict(f)
        calls.clear()
        assert polynomial_from_dict(obj) == f
        assert len(calls) == 2 * len(obj["terms"])

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


# -- differential checks against a naive reference ---------------------------
#
# The reference keeps one Fraction pair (re, im) per term and applies the
# textbook formulas directly, with no shared denominator and no caching.


def ref(f):
    return {key: (c.re, c.im) for key, c in f.terms.items()}


def ref_sum(*maps):
    out = {}
    for terms in maps:
        for key, (re, im) in terms.items():
            r0, i0 = out.get(key, (0, 0))
            out[key] = (r0 + re, i0 + im)
    return {key: c for key, c in out.items() if c[0] or c[1]}


def ref_product(f, g):
    return ref_sum(
        *(
            {(tuple(x + y for x, y in zip(a1, a2)), tuple(x + y for x, y in zip(b1, b2))):
             (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)}
            for (a1, b1), (r1, i1) in f.items()
            for (a2, b2), (r2, i2) in g.items()
        )
    )


def ref_scale(f, re, im):
    return ref_sum({key: (r * re - i * im, r * im + i * re) for key, (r, i) in f.items()})


def ref_laplacian(f):
    return ref_sum(
        *(
            {(tuple(x - (i == j) for i, x in enumerate(alpha)),
              tuple(x - (i == j) for i, x in enumerate(beta))): (4 * a * b * re, 4 * a * b * im)}
            for (alpha, beta), (re, im) in f.items()
            for j, (a, b) in enumerate(zip(alpha, beta))
            if a and b
        )
    )


def ref_inner(n, f, g):
    """Every pair of terms, integrated with the closed form written out."""
    re = im = Fraction(0)
    for (alpha, beta), (cr, ci) in f.items():
        for (gamma, delta), (dr, di) in g.items():
            mu = tuple(x + y for x, y in zip(alpha, delta))
            if mu != tuple(x + y for x, y in zip(beta, gamma)):
                continue
            weight = Fraction(math.factorial(n - 1) * math.prod(map(math.factorial, mu)),
                              math.factorial(n - 1 + sum(mu)))
            re += (cr * dr + ci * di) * weight
            im += (ci * dr - cr * di) * weight
    return re, im


def ref_decompose(n, f):
    """The Fischer peel of the operators module docstring, bidegree by bidegree."""
    r2 = {(u, u): (Fraction(1), Fraction(0)) for u in (tuple(int(i == j) for i in range(n)) for j in range(n))}
    pieces = {}
    for key, c in f.items():
        pieces.setdefault((sum(key[0]), sum(key[1])), {})[key] = c
    out = {}
    for (p, q), residual in pieces.items():
        for m in range(min(p, q), 0, -1):
            g = residual
            for _ in range(m):
                g = ref_laplacian(g)
            constant = math.prod(4 * t * (n + p + q - 2 * m + t - 1) for t in range(1, m + 1))
            h = ref_scale(g, Fraction(1, constant), Fraction(0))
            radius = {((0,) * n, (0,) * n): (Fraction(1), Fraction(0))}
            for _ in range(m):
                radius = ref_product(radius, r2)
            out[p - m, q - m] = ref_sum(out.get((p - m, q - m), {}), h)
            residual = ref_sum(residual, ref_scale(ref_product(radius, h), Fraction(-1), Fraction(0)))
        out[p, q] = ref_sum(out.get((p, q), {}), residual)
    return {d: terms for d, terms in sorted(out.items()) if terms}


def random_pairs(count=12):
    rng = random.Random(20261018)
    for n in (2, 3, 4):
        for _ in range(count):
            yield n, random_polynomial(rng, n, max_degree=5), random_polynomial(rng, n, max_degree=4)


class TestAgainstNaiveReference:
    def test_ring_operations(self):
        for n, f, g in random_pairs():
            assert ref(f + g) == ref_sum(ref(f), ref(g))
            assert ref(f - g) == ref_sum(ref(f), ref_scale(ref(g), Fraction(-1), Fraction(0)))
            assert ref(f * g) == ref_product(ref(f), ref(g))
            c = ExactScalar(Fraction(-2, 3), Fraction(5, 7))
            assert ref(f * c) == ref_scale(ref(f), c.re, c.im)
            assert ref(f * Fraction(3, 4)) == ref_scale(ref(f), Fraction(3, 4), Fraction(0))

    def test_laplacian_and_pairing(self):
        for n, f, g in random_pairs():
            assert ref(ambient_laplacian(f)) == ref_laplacian(ref(f))
            value = sphere_inner_product(f, g)
            assert (value.re, value.im) == ref_inner(n, ref(f), ref(g))

    def test_decompose(self):
        from kohn_spectra.operators import decompose

        for n, f, _ in random_pairs(count=6):
            dec = decompose(f)
            assert {tuple(c.bidegree): ref(c.part) for c in dec.components} == ref_decompose(n, ref(f))


class TestCanonicalForm:
    def test_difference_with_itself_is_the_zero_polynomial(self):
        for n, f, _ in random_pairs(count=4):
            diff = f - f
            assert diff == Polynomial.zero(n)
            assert diff.terms == {} and not diff

    def test_scaling_round_trip(self):
        for n, f, _ in random_pairs(count=4):
            for c in (ExactScalar(Fraction(6, 35), Fraction(-4, 9)), ExactScalar(Fraction(12))):
                back = (f * c) * (ExactScalar(1) / c)
                assert back == f
                assert back.terms == f.terms

    def test_sums_in_any_order_match_direct_construction(self):
        for n, f, g in random_pairs(count=4):
            h = f * g
            direct = Polynomial(n, [*f.terms.items(), *g.terms.items(), *h.terms.items()])
            for total in ((f + g) + h, f + (g + h), (h + f) + g, h + (g + f)):
                assert total == direct
                assert total.terms == direct.terms
            assert Polynomial(n, direct.terms) == direct

    def test_unhashable(self):
        # Polynomial defines __eq__ and no __hash__, so Python leaves it unhashable
        with pytest.raises(TypeError):
            hash(Polynomial.constant(2, 1))


# -- the storage primitives ---------------------------------------------------


class TestStoragePrimitives:
    def test_linear_combinations_match_reference(self):
        c = ExactScalar(Fraction(-2, 3), Fraction(5, 7))
        for n, f, g in random_pairs():
            assert ref(-f) == ref_scale(ref(f), Fraction(-1), Fraction(0))
            assert ref(f - g) == ref_sum(ref(f), ref_scale(ref(g), Fraction(-1), Fraction(0)))
            assert ref(f.scale(c)) == ref_scale(ref(f), c.re, c.im)
            h = f * g
            combined = _combine(n, ((f, 3, -1, 5), (g, 0, 2, 9), (h, -7, 0, 4)))
            assert ref(combined) == ref_sum(
                ref_scale(ref(f), Fraction(3, 5), Fraction(-1, 5)),
                ref_scale(ref(g), Fraction(0), Fraction(2, 9)),
                ref_scale(ref(h), Fraction(-7, 4), Fraction(0)),
            )

    def test_from_terms_matches_reference(self):
        """_from_terms against one Fraction pair per term: mixed and negative
        numerators, repeated keys, dens that differ, and sums that cancel."""
        rng = random.Random(20261019)
        for n in (2, 3, 4):
            keys = [(a, b) for a in multiindices(n, 1) for b in multiindices(n, 2)][:5]
            for _ in range(20):
                items = [
                    (rng.choice(keys), rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 12))
                    for _ in range(rng.randint(0, 12))
                ]
                expected = ref_sum(
                    *({key: (Fraction(re, den), Fraction(im, den))} for key, re, im, den in items)
                )
                assert ref(_from_terms(n, iter(items))) == expected
                cancelled = items + [(key, -re, -im, den) for key, re, im, den in items[1:]]
                assert ref(_from_terms(n, cancelled)) == ref_sum(*[
                    {key: (Fraction(re, den), Fraction(im, den))} for key, re, im, den in items[:1]
                ])
            key, other = keys[0], keys[1]
            zero = _from_terms(
                n, [(key, 1, -2, 3), (key, -2, 4, 6), (other, 5, 0, 4), (other, -15, 0, 12)]
            )
            assert zero == Polynomial.zero(n) and ref(zero) == {}
            assert _from_terms(n, []) == Polynomial.zero(n)
            one = _from_terms(
                n, [(key, 1, 1, 2), (key, 1, -1, 2), (other, 0, 3, 7), (other, 0, -3, 7)]
            )
            assert one == Polynomial(n, {key: 1})

    def test_random_polynomial_replays_its_draws(self):
        """random_polynomial equals the same draws built one ExactScalar per term."""

        def composition(rng, n, total):
            out = [0] * n
            for _ in range(total):
                out[rng.randrange(n)] += 1
            return tuple(out)

        def reference(rng, n, max_degree, max_terms=6):
            terms = []
            for _ in range(max_terms):
                k = rng.randint(0, max_degree)
                p = rng.randint(0, k)
                alpha, beta = composition(rng, n, p), composition(rng, n, k - p)
                re = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                im = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                terms.append(((alpha, beta), ExactScalar(re, im)))
            return Polynomial(n, terms)

        for seed in range(50):
            for n in (2, 3, 4):
                degree = seed % 6
                rng, replay = random.Random(seed), random.Random(seed)
                assert random_polynomial(rng, n, degree) == reference(replay, n, degree)
                assert rng.getstate() == replay.getstate()

    def test_decomposition_sum_matches_pairwise_sum(self):
        from kohn_spectra.operators import decompose

        for n, f, g in random_pairs(count=4):
            dec = decompose(f * g)
            pairwise = sum((c.part for c in dec.components), Polynomial.zero(n))
            assert dec.as_polynomial() == pairwise
            assert dec.as_polynomial().terms == pairwise.terms

    def test_real_multiple_is_canonical_in_one_pass(self):
        factors = [0, 1, -1, 7, -12, Fraction(-9, 4), Fraction(6, 35), ExactScalar(Fraction(-10, 21))]
        rng = random.Random(2025)
        for n in (2, 3, 4):
            for _ in range(5):
                f = random_polynomial(rng, n, max_degree=5)
                # numerators sharing 2, 3 with the factors' denominators, and a
                # denominator sharing 5, 7 and 3 with their numerators
                bases = [f, _combine(n, ((f, 36, 0, 1),)), _combine(n, ((f, 1, 0, 105),))]
                for base in bases + [Polynomial.zero(n)]:
                    for x in factors:
                        got = base.scale(x)
                        assert got == _combine(n, ((base, *_parts(x)),))
                        assert got._den > 0 and all(re or im for re, im in got._num.values())
                        parts = [p for pair in got._num.values() for p in pair]
                        assert math.gcd(got._den, *parts) == 1

    def test_multiple_by_one_is_a_new_polynomial(self):
        from kohn_spectra.operators import decompose

        f = random_polynomial(random.Random(3), 3, max_degree=5)
        decompose(f)
        for unit in (1, Fraction(1), ExactScalar(1)):
            g = f * unit
            assert g is not f and g == f
            assert g._components is None and f._components is not None

    def test_pairing_index_matches_sphere_inner_product(self):
        for n, f, g in random_pairs(count=4):
            others = [g, f * g, ambient_laplacian(f), Polynomial.zero(n), z(1, n) * z(2, n)]
            index = _PairingIndex()
            for tag, other in enumerate(others):
                index.add(tag, other)
            pairs = index.pair(f)
            for tag, other in enumerate(others):
                value = sphere_inner_product(f, other)
                if value:
                    re, im, den = pairs[tag]
                    assert ExactScalar(Fraction(re, den), Fraction(im, den)) == value
                else:
                    assert tag not in pairs
            assert 3 not in pairs

    def test_scalar_arithmetic_builds_no_exact_scalar(self, monkeypatch):
        f, g = z(1) * zb(2) + zb(1) * Fraction(2, 3), z(2) - one() * 5
        calls = []
        original = ExactScalar.__post_init__

        def counted(self):
            calls.append(self)
            original(self)

        obj = polynomial_to_dict(f * g * Fraction(-3, 4))
        monkeypatch.setattr(ExactScalar, "__post_init__", counted)
        f * 3, f * Fraction(1, 7), f + g, f - g
        polynomial_from_dict(obj), random_polynomial(random.Random(5), 3, 5)
        assert calls == []

    def test_only_polynomials_reads_the_storage(self):
        src = Path(polynomials.__file__).parent
        for path in sorted(src.glob("*.py")):
            if path.name == "polynomials.py":
                continue
            text = path.read_text()
            for token in ("._num", "._den", "_make("):
                assert token not in text, f"{path.name} uses {token}"

    def test_only_the_boundary_builds_an_exact_scalar(self):
        """ExactScalar(...) is called only inside the class itself, as_scalar,
        Polynomial.terms, sphere_inner_product and the oracle's Gram pass;
        every other construction works on the integer parts."""
        allowed = {
            "polynomials.py": (
                "ExactScalar", "as_scalar", "Polynomial.terms", "sphere_inner_product"
            ),
            "harmonic_spaces.py": ("_cross_cell_gram",),
        }
        src = Path(polynomials.__file__).parent
        sites = []

        def visit(node, scope, name):
            if isinstance(node, ast.Call):
                func = node.func
                if "ExactScalar" in (getattr(func, "id", None), getattr(func, "attr", None)):
                    sites.append((name, scope))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            for child in ast.iter_child_nodes(node):
                visit(child, scope, name)

        for path in sorted(src.glob("*.py")):
            visit(ast.parse(path.read_text()), "", path.name)
        assert ("polynomials.py", "Polynomial.terms") in sites
        outside = [
            f"{name}: {scope or '<module>'}"
            for name, scope in sites
            if not any(scope == a or scope.startswith(a + ".") for a in allowed.get(name, ()))
        ]
        assert not outside, f"ExactScalar built outside the boundary: {outside}"

    def test_only_cli_writes_the_report_format(self):
        """No module defines a ``to_json_dict``, and outside the CLI only
        polynomials.py (which defines them) and the package's re-export
        touch the two text-form writers."""
        src = Path(polynomials.__file__).parent
        writers = {"fraction_to_string", "polynomial_to_dict"}
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef):
                    assert node.name != "to_json_dict", f"{path.name} defines to_json_dict"
                if path.name in ("cli.py", "polynomials.py", "__init__.py"):
                    continue
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.Name):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                else:
                    continue
                assert not names & writers, f"{path.name} uses {names & writers}"

    def test_every_private_module_name_has_a_caller(self):
        """A module-level private name that nothing in the library reads (a
        load of the name, or an attribute of that name) is dead code."""
        src = Path(polynomials.__file__).parent
        trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
        used = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        unused = []
        for name, tree in trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined = [t.id for t in targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.Import):
                    defined = [alias.asname or alias.name for alias in node.names]
                else:
                    continue
                unused += [
                    f"{name}: {d}"
                    for d in defined
                    if d.startswith("_") and not d.startswith("__") and d not in used
                ]
        assert not unused, f"private names without a caller: {unused}"
