"""The brute-force oracle: exact kernels, Gram-Schmidt, identity checks."""

import math
import random
from fractions import Fraction

import pytest

from kohn_spectra import (
    Bidegree,
    ExactScalar,
    HarmonicBasis,
    Polynomial,
    ambient_laplacian,
    harmonic_basis,
    l2_norm_squared,
    multiplicity,
    orthonormalize,
    sphere_inner_product,
    verify_eigen_identities,
)
from kohn_spectra import harmonic_spaces
from kohn_spectra.harmonic_spaces import bidegree_monomials
from helpers import bidegree_of, cli_json
from kohn_spectra.polynomials import random_polynomial


def test_antiholomorphic_cell_is_monomial_basis():
    basis = harmonic_basis(2, Bidegree(0, 1))
    assert set(map(str, basis.elements)) == {"1*zb1", "1*zb2"}


def test_mixed_cell_n2():
    basis = harmonic_basis(2, Bidegree(1, 1))
    assert len(basis.elements) == 3
    # the advertised spanning set is indeed harmonic and lives in the kernel
    z1, z2 = Polynomial.z(2, 1), Polynomial.z(2, 2)
    zb1, zb2 = Polynomial.z_bar(2, 1), Polynomial.z_bar(2, 2)
    for f in (z1 * zb2, z2 * zb1, z1 * zb1 - z2 * zb2):
        assert not ambient_laplacian(f)
    for element in basis.elements:
        assert not ambient_laplacian(element)
        assert bidegree_of(element) == Bidegree(1, 1)


def test_cell_21_n2_has_four_elements():
    basis = harmonic_basis(2, Bidegree(2, 1))
    assert len(basis.elements) == 4


def test_cell_11_n3_dimension():
    assert len(harmonic_basis(3, Bidegree(1, 1)).elements) == 8


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_rank_matches_formula_small(n):
    for k in range(5):
        for p in range(k + 1):
            d = Bidegree(p, k - p)
            assert len(harmonic_basis(n, d).elements) == multiplicity(n, d)


@pytest.mark.parametrize("make", [harmonic_basis, bidegree_monomials])
@pytest.mark.parametrize("d", [(-1, 2), (2, -1)])
def test_negative_bidegree_rejected(make, d):
    with pytest.raises(ValueError, match="nonnegative"):
        make(3, d)


@pytest.mark.parametrize("make", [multiplicity, harmonic_basis, bidegree_monomials])
@pytest.mark.parametrize("d", [(1.5, 1), (1, 1.5), (True, 1), (1, False)])
def test_non_integer_bidegree_rejected(make, d):
    with pytest.raises(ValueError, match="integers"):
        make(3, d)


def _dense_rref(matrix):
    """Dense reduced row echelon form: the reference for the sparse kernel."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if matrix[i][c]), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        pivot = matrix[r][c]
        if pivot != 1:
            matrix[r] = [x / pivot for x in matrix[r]]
        for i in range(rows):
            if i != r and matrix[i][c]:
                factor = matrix[i][c]
                row_r = matrix[r]
                matrix[i] = [a - factor * b if b else a for a, b in zip(matrix[i], row_r)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return matrix, pivots


def _dense_nullspace(matrix, cols):
    reduced, pivots = _dense_rref(matrix)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            if row[free]:
                vec[pc] = -row[free]
        basis.append(vec)
    return basis


def _dense_harmonic_elements(n, d):
    """The harmonic basis by dense elimination of the full Laplacian matrix."""
    source = bidegree_monomials(n, d)
    if d.p == 0 or d.q == 0:
        return [Polynomial.monomial(n, a, b) for a, b in source]
    target = bidegree_monomials(n, Bidegree(d.p - 1, d.q - 1))
    target_index = {key: i for i, key in enumerate(target)}
    matrix = [[Fraction(0)] * len(source) for _ in target]
    for col, (alpha, beta) in enumerate(source):
        for j in range(n):
            a, b = alpha[j], beta[j]
            if a and b:
                key = (
                    alpha[:j] + (a - 1,) + alpha[j + 1 :],
                    beta[:j] + (b - 1,) + beta[j + 1 :],
                )
                matrix[target_index[key]][col] += 4 * a * b
    return [
        Polynomial(n, {source[i]: vec[i] for i in range(len(source)) if vec[i]})
        for vec in _dense_nullspace(matrix, len(source))
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sparse_kernel_matches_dense_rref(n):
    # n = 5 has the most torus-weight blocks per cell; p + q <= 4 keeps the
    # dense reference small
    cells = [Bidegree(p, k - p) for k in range(6 if n < 5 else 5) for p in range(k + 1)]
    if 2 < n < 5:
        cells.append(Bidegree(4, 4))
    for d in cells:
        sparse = harmonic_basis(n, d).elements
        dense = _dense_harmonic_elements(n, d)
        assert list(sparse) == dense, d
        assert [str(e) for e in sparse] == [str(e) for e in dense], d


def test_integer_kernel_matches_dense_nullspace():
    """_kernel on its own, on random sparse integer matrices with no block
    structure: negative entries, and for every other seed a zero row, a
    duplicate row and a combination of two rows, shuffled in.  Each entry is
    an int pair (numerator, denominator > 0), read as one Fraction."""
    ranks = set()
    for seed in range(60):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 9)
        matrix = [
            [rng.randint(-9, 9) if rng.random() < 0.4 else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        if seed % 2:
            first, second = matrix[0], matrix[-1]
            matrix += [[0] * cols, list(first), [3 * a - 2 * b for a, b in zip(first, second)]]
            rng.shuffle(matrix)
        sparse = [{j: x for j, x in enumerate(row) if x} for row in matrix]
        kernel = harmonic_spaces._kernel(sparse, list(range(cols)))
        dense = _dense_nullspace([[Fraction(x) for x in row] for row in matrix], cols)
        for entry in (entry for vec in kernel for entry in vec.values()):
            assert type(entry) is tuple and len(entry) == 2, seed
            assert type(entry[0]) is int and type(entry[1]) is int and entry[1] > 0, seed
        values = [{j: Fraction(*entry) for j, entry in vec.items()} for vec in kernel]
        assert values == [{j: x for j, x in enumerate(vec) if x} for vec in dense], seed
        rank = cols - len(dense)
        ranks.add("full" if rank == min(rows, cols) else "deficient")
    assert ranks == {"full", "deficient"}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_element_lies_in_one_torus_weight(n):
    for k in range(7):
        for p in range(k + 1):
            for element in harmonic_basis(n, Bidegree(p, k - p)).elements:
                weights = {tuple(a - b for a, b in zip(alpha, beta)) for alpha, beta in element.terms}
                assert len(weights) == 1, element


def test_bases_are_reproducible():
    first = harmonic_basis(3, Bidegree(2, 1))
    second = harmonic_basis(3, Bidegree(2, 1))
    assert first.elements == second.elements


class TestOrthonormalize:
    def test_already_orthogonal_directions_unchanged(self):
        basis = orthonormalize(harmonic_basis(2, Bidegree(0, 1)))
        assert set(map(str, basis.elements)) == {"1*zb1", "1*zb2"}
        assert basis.squared_norms == (Fraction(1, 2), Fraction(1, 2))

    def test_single_element(self):
        basis = orthonormalize(harmonic_basis(2, Bidegree(0, 0)))
        assert basis.elements == (Polynomial.constant(2, 1),)
        assert basis.squared_norms == (Fraction(1),)

    def test_mixed_cell_pairwise_orthogonal(self):
        basis = orthonormalize(harmonic_basis(2, Bidegree(1, 1)))
        for i, f in enumerate(basis.elements):
            for g in basis.elements[i + 1 :]:
                assert not sphere_inner_product(f, g)
        for element, norm in zip(basis.elements, basis.squared_norms):
            assert l2_norm_squared(element) == norm
            assert norm > 0

    def test_parseval(self):
        basis = orthonormalize(harmonic_basis(2, Bidegree(1, 1)))
        coeffs = [
            ExactScalar(Fraction(1, 2), Fraction(-1, 3)),
            ExactScalar(Fraction(2), Fraction(1, 5)),
            ExactScalar(Fraction(0), Fraction(-3, 4)),
        ]
        f = Polynomial.zero(2)
        for c, e in zip(coeffs, basis.elements):
            f = f + e * c
        expected = sum(
            (c.norm_squared() * nsq for c, nsq in zip(coeffs, basis.squared_norms)),
            Fraction(0),
        )
        assert l2_norm_squared(f) == expected


class TestVerifyEigenIdentities:
    def test_n2_degree3_all_pass(self):
        report = verify_eigen_identities(2, 3)
        assert report.passed
        assert len(report.cells) == 10
        assert report.failures == ()

    def test_degree_one_orthogonality(self):
        report = verify_eigen_identities(2, 1)
        assert report.orthogonality_ok
        # directly: <z_j, zbar_k> = 0 for all j, k
        for j in (1, 2):
            for k in (1, 2):
                assert not sphere_inner_product(
                    Polynomial.z(2, j), Polynomial.z_bar(2, k)
                )

    def test_n3_degree2_dimensions(self):
        report = verify_eigen_identities(3, 2)
        assert report.passed
        by_bidegree = {cell.bidegree: cell for cell in report.cells}
        assert by_bidegree[Bidegree(1, 1)].dimension == 8

    def test_eigenvalues_recorded(self):
        report = verify_eigen_identities(2, 2)
        by_bidegree = {cell.bidegree: cell for cell in report.cells}
        assert by_bidegree[Bidegree(1, 1)].boxb_eigenvalue == 4
        assert by_bidegree[Bidegree(1, 1)].laplace_beltrami_eigenvalue == 8

    def test_json_shape(self, capsys):
        argv = ("verify", "--n", "2", "--max-degree", "1", "--samples", "0")
        obj = cli_json(capsys, *argv)["oracle_report"]
        assert obj["passed"] is True
        assert obj["n"] == 2
        assert {c["p"] for c in obj["cells"]} == {0, 1}

    def test_invalid_max_degree_rejected(self):
        with pytest.raises(ValueError):
            verify_eigen_identities(2, 0)


def test_random_harmonic_combinations_stay_harmonic():
    rng = random.Random(59)
    basis = harmonic_basis(3, Bidegree(2, 1))
    for _ in range(5):
        f = Polynomial.zero(3)
        for element in basis.elements:
            c = ExactScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            f = f + element * c
        assert not ambient_laplacian(f)


# Non-harmonic elements planted in three cells of the n = 2 oracle, chosen so
# that the failures' (cell pair, element pair) order differs from the
# (cell, element, cell, element) order.
PLANTED = {
    (1, 1): ((1, 0), (1, 0)),
    (1, 2): ((0, 1), (0, 2)),
    (2, 3): ((2, 0), (3, 0)),
}

# The cross-cell failures of verify_eigen_identities(2, 5) with PLANTED,
# as the pairwise sphere_inner_product loop reported them.
PLANTED_FAILURES = [
    "cells Bidegree(p=0, q=0) vs Bidegree(p=1, q=1): <1*1, 1*z1*zb1> = 1/2 != 0",
    "cells Bidegree(p=0, q=1) vs Bidegree(p=1, q=2): <1*zb2, 1*z2*zb2^2> = 1/3 != 0",
    "cells Bidegree(p=0, q=1) vs Bidegree(p=2, q=3): <1*zb1, 1*z1^2*zb1^3> = 1/4 != 0",
    "cells Bidegree(p=1, q=2) vs Bidegree(p=2, q=3): "
    "<-2*z2*zb1*zb2 + 1*z1*zb1^2, 1*z1^2*zb1^3> = 1/10 != 0",
]


def _planted_basis(n, d):
    basis = harmonic_basis(n, d)
    if tuple(d) not in PLANTED:
        return basis
    extra = Polynomial.monomial(n, *PLANTED[tuple(d)])
    return HarmonicBasis(n, basis.bidegree, basis.elements + (extra,))


def test_planted_non_orthogonal_pairs_are_reported(monkeypatch):
    monkeypatch.setattr(harmonic_spaces, "harmonic_basis", _planted_basis)
    report = verify_eigen_identities(2, 5)
    assert report.orthogonality_ok is False
    cross = [f for f in report.failures if f.startswith("cells ")]
    assert cross == PLANTED_FAILURES
    assert report.failures[-len(cross) :] == tuple(PLANTED_FAILURES)


def _planted_cells():
    return [_planted_basis(2, Bidegree(p, k - p)) for k in range(6) for p in range(k + 1)]


def _random_cells():
    """Cells of random polynomials: almost every bucket pairs terms of
    several cells with nonzero products, unlike a harmonic basis."""
    rng = random.Random(61)
    return [
        HarmonicBasis(3, Bidegree(0, 0), tuple(random_polynomial(rng, 3, 4) for _ in range(3)))
        for _ in range(6)
    ]


@pytest.mark.parametrize("make_cells", [_planted_cells, _random_cells])
def test_cross_cell_gram_equals_sphere_pairing(make_cells):
    bases = make_cells()
    gram = harmonic_spaces._cross_cell_gram(bases[0].n, bases)
    expected = {}
    for i, cell_i in enumerate(bases):
        for j in range(i + 1, len(bases)):
            for a, f in enumerate(cell_i.elements):
                for b, g in enumerate(bases[j].elements):
                    value = sphere_inner_product(f, g)
                    if value:
                        expected[i, j, a, b] = value
    assert expected
    assert gram == expected


# -- Gram-Schmidt against a naive reference ------------------------------------
#
# The reference keeps one Fraction pair (re, im) per term and runs textbook
# modified Gram-Schmidt: u <- u - (<u, v> / <v, v>) v for each earlier v in
# turn, with the pairing integral c * conj(d) * (n-1)! mu! / (n-1+|mu|)!
# written out term by term.


def _ref_terms(f):
    return {key: (c.re, c.im) for key, c in f.terms.items()}


def _ref_inner(n, f, g):
    by_diff = {}
    for (gamma, delta), d in g.items():
        by_diff.setdefault(tuple(x - y for x, y in zip(gamma, delta)), []).append((delta, d))
    re = im = Fraction(0)
    for (alpha, beta), (cr, ci) in f.items():
        for delta, (dr, di) in by_diff.get(tuple(x - y for x, y in zip(alpha, beta)), ()):
            mu = tuple(x + y for x, y in zip(alpha, delta))
            weight = Fraction(math.factorial(n - 1) * math.prod(map(math.factorial, mu)),
                              math.factorial(n - 1 + sum(mu)))
            # c * conj(d) = (cr + i ci)(dr - i di)
            re += (cr * dr + ci * di) * weight
            im += (ci * dr - cr * di) * weight
    return re, im


def _ref_gram_schmidt(n, elements):
    orthogonal, norms = [], []
    for element in elements:
        u = _ref_terms(element)
        for v, nsq in zip(orthogonal, norms):
            re, im = _ref_inner(n, u, v)
            cr, ci = re / nsq, im / nsq
            for key, (vr, vi) in v.items():
                ur, ui = u.get(key, (Fraction(0), Fraction(0)))
                u[key] = (ur - (cr * vr - ci * vi), ui - (cr * vi + ci * vr))
            u = {key: c for key, c in u.items() if c[0] or c[1]}
        if not u:
            raise RuntimeError("linearly dependent")
        re, im = _ref_inner(n, u, u)
        assert im == 0 and re > 0
        orthogonal.append(u)
        norms.append(re)
    return orthogonal, norms


def _assert_matches_reference(basis):
    result = orthonormalize(basis)
    expected, norms = _ref_gram_schmidt(basis.n, basis.elements)
    assert len(result.elements) == len(expected)
    for element, terms in zip(result.elements, expected):
        assert _ref_terms(element) == terms
        assert str(element) == str(Polynomial(basis.n, {k: ExactScalar(*c) for k, c in terms.items()}))
    assert result.squared_norms == tuple(norms)


@pytest.mark.parametrize(
    "n, d",
    [(2, (1, 1)), (2, (3, 2)), (2, (4, 4)), (3, (2, 1)), (3, (2, 2)), (3, (4, 4)), (4, (1, 2)), (4, (2, 2))],
)
def test_orthonormalize_matches_reference_on_harmonic_bases(n, d):
    _assert_matches_reference(harmonic_basis(n, Bidegree(*d)))


def _random_basis(seed, n, size):
    rng = random.Random(seed)
    elements = tuple(random_polynomial(rng, n, 4) for _ in range(size))
    assert any(c.im for f in elements for c in f.terms.values())
    assert len({c.re.denominator for f in elements for c in f.terms.values()}) > 1
    return HarmonicBasis(n, Bidegree(0, 0), elements)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orthonormalize_matches_reference_on_complex_polynomials(n):
    _assert_matches_reference(_random_basis(67 + n, n, 6))


def test_orthonormalize_rejects_a_dependent_basis():
    f, g, h = _random_basis(71, 3, 3).elements
    c = ExactScalar(Fraction(2, 3), Fraction(-5, 7))
    basis = HarmonicBasis(3, Bidegree(0, 0), (f, g, h, f * c - g * Fraction(1, 4)))
    with pytest.raises(RuntimeError, match="linearly dependent"):
        orthonormalize(basis)
    with pytest.raises(RuntimeError, match="linearly dependent"):
        _ref_gram_schmidt(3, basis.elements)


def test_cross_cell_gram_matches_reference():
    # the Gram pass and sphere_inner_product share one pairing primitive, so
    # the mixed-degree cells are also checked against the written-out pairing
    bases = _random_cells()
    gram = harmonic_spaces._cross_cell_gram(3, bases)
    for i, cell_i in enumerate(bases):
        for j in range(i + 1, len(bases)):
            for a, f in enumerate(cell_i.elements):
                for b, g in enumerate(bases[j].elements):
                    re, im = _ref_inner(3, _ref_terms(f), _ref_terms(g))
                    value = gram.get((i, j, a, b), ExactScalar())
                    assert (value.re, value.im) == (re, im)
    assert gram
