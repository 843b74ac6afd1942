"""Spectral operator calculus: decomposition, boxb, Green, Hardy, Sobolev."""

import json
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
    bidegree_split,
    decompose,
    hardy_projection,
    l2_norm_squared,
    radius_squared,
    random_polynomial,
    residual_check,
    sobolev_norm_squared,
    sphere_inner_product,
)
from kohn_spectra.operators import (
    FloatScaledDecomposition,
    SphericalDecomposition,
    apply,
    sobolev_symbol,
    weighted_norm_squared,
)
from helpers import bidegree_of
from kohn_spectra.polynomials import multiindices


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

    def test_cancelling_merge_drops_the_bidegree(self):
        # z1 zb1 has the (0, 0) component 1/2, which the constant -1/2 cancels
        dec = decompose(z(1) * zb(1) - Polynomial.constant(2, Fraction(1, 2)))
        assert dec.bidegrees() == (Bidegree(1, 1),)
        assert dec.component(Bidegree(1, 1)) == (z(1) * zb(1) - z(2) * zb(2)) * Fraction(1, 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_radius_squared_minus_one_has_no_components(self, n):
        dec = decompose(radius_squared(n) - Polynomial.constant(n, 1))
        assert dec.components == ()
        assert not dec.as_polynomial()

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


def _object_level_decompose(f):
    """The Fischer peel on Polynomial objects: lap^m of each bihomogeneous
    residual from scratch, pieces merged with + (the pre-integer-kernel loop)."""
    n = f.n
    merged = {}
    for (p, q), piece in bidegree_split(f).items():
        residual = piece
        for m in range(min(p, q), 0, -1):
            g = residual
            for _ in range(m):
                g = ambient_laplacian(g)
            constant = 1
            for t in range(1, m + 1):
                constant *= 4 * t * (n + (p + q - 2 * m) + t - 1)
            h = g * Fraction(1, constant)
            if h:
                d = Bidegree(p - m, q - m)
                merged[d] = merged[d] + h if d in merged else h
                residual = residual - radius_squared(n) ** m * h
        if residual:
            d = Bidegree(p, q)
            merged[d] = merged[d] + residual if d in merged else residual
    return [(d, merged[d]) for d in sorted(merged) if merged[d]]


class TestIntegerFischerKernel:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_object_level_peel(self, n):
        rng = random.Random(1000 + n)
        for max_degree in range(10):
            for _ in range(3 if n < 5 else 1):
                f = random_polynomial(rng, n, max_degree, max_terms=4 if n == 5 else 6)
                got = [(c.bidegree, c.part) for c in decompose(f).components]
                expected = _object_level_decompose(f)
                assert [d for d, _ in got] == [d for d, _ in expected]
                for (_, h), (_, e) in zip(got, expected):
                    assert h == e
                    assert h.terms == e.terms

    def test_reaches_four_peel_steps(self):
        # bidegree (4, 5): min(p, q) = 4, so lap^4 is applied to the numerators
        f = (z(1, 3) * zb(2, 3)) ** 2 * (z(2, 3) * zb(1, 3)) ** 2 * zb(3, 3) + z(3, 3) ** 2
        got = [(c.bidegree, c.part) for c in decompose(f).components]
        assert got == _object_level_decompose(f)
        assert Bidegree(0, 1) in [d for d, _ in got]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cancelling_merges(self, n):
        # |z|^{2m} h lands on h's bidegree, where -h cancels it on the sphere
        rng = random.Random(50 + n)
        for _ in range(4):
            h = random_polynomial(rng, n, max_degree=4)
            g = random_polynomial(rng, n, max_degree=3)
            f = radius_squared(n) ** 2 * h - h + g
            got = [(c.bidegree, c.part) for c in decompose(f).components]
            assert got == _object_level_decompose(f) == _object_level_decompose(g)

    def test_wrong_peel_constant_fails_the_harmonicity_check(self, monkeypatch):
        from kohn_spectra import polynomials

        right = polynomials._peel_constant
        monkeypatch.setattr(polynomials, "_peel_constant", lambda n, k, m: right(n, k, m) + 1)
        with pytest.raises(RuntimeError, match="not harmonic; exact arithmetic is broken"):
            decompose(z(1) * zb(1))

    def test_wrong_peel_constant_fails_on_the_laplacian_chain(self, monkeypatch):
        # bidegree (2, 2): lap R and lap^2 R are nonzero, so the bucket is peeled
        # at m = 2, and with a wrong constant the new residual's chain reaches
        # lap^2 again: its (1, 1) component would not be harmonic
        from kohn_spectra import polynomials

        right = polynomials._peel_constant
        monkeypatch.setattr(polynomials, "_peel_constant", lambda n, k, m: right(n, k, m) + 1)
        message = (
            r"Fischer component Bidegree\(p=1, q=1\) of a bidegree-Bidegree\(p=2, q=2\) piece "
            "is not harmonic; exact arithmetic is broken"
        )
        with pytest.raises(RuntimeError, match=message):
            decompose(z(1) ** 2 * zb(1) ** 2)


def _counted_laplacian(monkeypatch) -> list:
    """The numerator maps polynomials._laplacian is called on from now on."""
    from kohn_spectra import polynomials

    calls, lap = [], polynomials._laplacian
    monkeypatch.setattr(polynomials, "_laplacian", lambda num: calls.append(num) or lap(num))
    return calls


class TestLaplacianChain:
    """The peel builds each residual's chain lap^j R once, up to its first zero."""

    def test_a_harmonic_bucket_takes_one_laplacian(self, monkeypatch):
        from kohn_spectra import polynomials
        from kohn_spectra.harmonic_spaces import harmonic_basis

        basis = harmonic_basis(3, Bidegree(2, 2)).elements
        calls = _counted_laplacian(monkeypatch)
        for h in basis:
            calls.clear()
            assert polynomials._fischer_peel(h) == ((Bidegree(2, 2), h),)
            assert len(calls) == 1

    def test_laplacian_calls_on_a_seeded_input_set(self, monkeypatch):
        # a regression guard: 72 calls when lap^m R was rebuilt for every m
        from kohn_spectra import polynomials

        inputs = _cache_inputs()
        calls = _counted_laplacian(monkeypatch)
        for f in inputs:
            polynomials._fischer_peel(f)
        assert len(calls) == 50
        # |z|^4 h, h harmonic of bidegree (1, 1): lap R, lap^2 R and the zero
        # lap^3 R, then the residual is zero (7 calls before)
        calls.clear()
        h = Polynomial.z(3, 1) * Polynomial.z_bar(3, 2)
        assert polynomials._fischer_peel(radius_squared(3) ** 2 * h) == ((Bidegree(1, 1), h),)
        assert len(calls) == 3


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


def _cache_inputs():
    rng = random.Random(2022)
    inputs = [Polynomial.zero(3), Polynomial.constant(2, Fraction(-5, 3))]
    for n in (2, 3, 4):
        for max_degree in range(8):
            inputs.append(random_polynomial(rng, n, max_degree, max_terms=5))
    return inputs


class TestPeelOnce:
    """Each polynomial instance is Fischer-peeled once; its components are
    kept on it and never shared with another object."""

    def test_green_solve_peels_f_and_green_f_once_each(self, monkeypatch, tmp_path, capsys):
        from kohn_spectra import cli, operators, polynomials

        f = random_polynomial(random.Random(7), 3, max_degree=5)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(polynomials.polynomial_to_dict(f)))
        peeled, decomposed = [], []
        peel, dec = polynomials._fischer_peel, operators.decompose
        monkeypatch.setattr(polynomials, "_fischer_peel", lambda g: peeled.append(g) or peel(g))
        monkeypatch.setattr(operators, "decompose", lambda g: decomposed.append(g) or dec(g))
        assert cli.main(["green-solve", "--n", "3", "--input", str(path)]) == 0
        capsys.readouterr()
        assert len(decomposed) == 5
        assert len(peeled) == 2
        # the second peel is G f read back as a new polynomial: the residual
        # identity is re-derived, not read off f's cached components
        assert peeled[0] == f and peeled[1] == apply_green(f).as_polynomial()

    @pytest.mark.parametrize("f", _cache_inputs())
    def test_cached_decomposition_equals_a_fresh_peel(self, f):
        first = decompose(f).components
        assert type(first) is tuple
        assert decompose(f).components == first
        assert decompose(Polynomial(f.n, f.terms)).components == first

    def test_results_start_without_components(self):
        from kohn_spectra import polynomials

        rng = random.Random(31)
        f, g = (random_polynomial(rng, 3, max_degree=4) for _ in range(2))
        decompose(f), decompose(g)
        assert f._components is not None and g._components is not None
        results = [
            f + g, f - g, -f, f * g, f * 3, f.scale(Fraction(2, 7)), f.conjugate(),
            polynomials.polynomial_from_dict(polynomials.polynomial_to_dict(f)),
            polynomials._make(f.n, dict(f._num), f._den),
        ]
        for h in results:
            assert h._components is None


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


def test_apply_keeps_a_part_its_factor_is_one_on():
    f = z(1) * zb(1) * zb(2) + zb(2) * Fraction(3, 4) + z(2) * 3 + Polynomial.constant(2, 5)
    dec = decompose(f)
    ones = apply(dec, lambda d: Fraction(1))
    assert [c.part for c in ones.components] == [c.part for c in dec.components]
    assert all(a.part is b.part for a, b in zip(ones.components, dec.components))
    hardy = hardy_projection(f)
    assert [c.bidegree for c in hardy.components] == [Bidegree(0, 0), Bidegree(1, 0)]
    assert all(c.part is dec.component(c.bidegree) for c in hardy.components)


def _counting(symbol):
    """symbol, recording the bidegree of every call."""
    calls = []

    def counted(d):
        calls.append(d)
        return symbol(d)

    return counted, calls


class TestSymbolCalls:
    @pytest.mark.parametrize("t", [2, Fraction(1, 2)])
    def test_one_call_per_component(self, t):
        f = z(1) * zb(1) * zb(2) + zb(2) + z(2) * 3 + Polynomial.constant(2, 5)
        dec = decompose(f)
        assert len(dec.components) > 1
        for multiplier in (apply, weighted_norm_squared):
            symbol, calls = _counting(lambda d: sobolev_symbol(2, t, d))
            multiplier(dec, symbol)
            assert calls == list(dec.bidegrees())

    @pytest.mark.parametrize("t, kind, zero", [
        (2, SphericalDecomposition, Fraction(0)),
        (Fraction(1, 2), FloatScaledDecomposition, 0.0),
    ])
    def test_zero_polynomial_asks_the_symbol_its_kind_once(self, t, kind, zero):
        dec = decompose(Polynomial.zero(3))
        symbol, calls = _counting(lambda d: sobolev_symbol(3, t, d))
        result = apply(dec, symbol)
        assert type(result) is kind and result.components == ()
        value = weighted_norm_squared(dec, symbol)
        assert type(value) is type(zero) and value == zero
        assert calls == [Bidegree(0, 0)] * 2


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
