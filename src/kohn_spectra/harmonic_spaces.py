"""Brute-force construction of harmonic polynomial bases by exact linear algebra.

This module is the independent oracle for the closed-form spectral data: it
computes kernels of the ambient Laplacian on bidegree monomial spaces by
exact fraction-free elimination, one torus-weight block at a time, so
dimensions, orthogonality, and the eigenvalue bookkeeping can all be checked
without trusting any formula.  Cross-cell orthogonality is one bucketed Gram
pass: terms pair only when they share alpha - beta, as in the sphere pairing.
Kernel entries go to :func:`polynomials._from_terms` as integers.  The Gram
pass and Gram-Schmidt pair terms in Gaussian integers through
:class:`polynomials._PairingIndex`, the primitive behind
:func:`sphere_inner_product`, and build a Fraction only for a finished value.

Determinism: monomials of a fixed bidegree are ordered lexicographically on
the concatenated exponent pair (alpha, beta) (all candidates share the same
grade, so graded-lex reduces to lex), and the basis is one kernel vector per
free column of the unique reduced row echelon form, in column order, as dense
rational elimination gives it.  The Laplacian keeps the torus weight
alpha - beta, so its matrix is block diagonal after a permutation and its
form is the union of the blocks'; scaling a row by an integer keeps its
zeros, so every pivot is the dense one.  Bases are reproducible bit for bit.

The Kohn-Laplacian eigenvalue itself is not re-derived (that would need the
tangential Cauchy-Riemann operators on forms); the oracle verifies the two
ingredients the spectral assignment rests on -- harmonicity and bidegree,
via the Euler degree operators -- and records 2q(p+n-1) from the verified
bidegree.  This trust boundary is deliberate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from . import spectrum
from .polynomials import (
    Bidegree,
    ExactScalar,
    Multiindex,
    Polynomial,
    _check_int,
    _combine,
    _from_terms,
    _PairingIndex,
    ambient_laplacian,
    euler_z,
    euler_z_bar,
    l2_norm_squared,
    multiindices,
)

__all__ = [
    "HarmonicBasis",
    "CellVerification",
    "VerificationReport",
    "bidegree_monomials",
    "harmonic_basis",
    "orthonormalize",
    "verify_eigen_identities",
]


@dataclass(frozen=True)
class HarmonicBasis:
    """A basis of the bidegree-(p, q) harmonic polynomials on C^n.

    ``squared_norms`` is populated by :func:`orthonormalize`; elements are
    kept rational (orthogonal, not unit) because square roots leave the
    coefficient field.
    """

    n: int
    bidegree: Bidegree
    elements: tuple[Polynomial, ...]
    squared_norms: tuple[Fraction, ...] | None = None


def bidegree_monomials(n: int, d: Bidegree) -> list[tuple[Multiindex, Multiindex]]:
    """All monomial exponent pairs of bidegree (p, q), lex-sorted."""
    d = Bidegree(*spectrum._check_bidegree(n, d))
    return [(a, b) for a in multiindices(n, d.p) for b in multiindices(n, d.q)]


def _kernel(rows: list[dict[int, int]], cols: list[int]) -> list[dict[int, tuple[int, int]]]:
    """Standard kernel basis of the sparse integer ``rows``, one vector per
    free column of ``cols`` (ascending, every column a row stores), in order.

    Rows store only nonzero entries and are reduced in place with the dense
    pivot rule, in integers: a row with entry f at the pivot column becomes
    (pv/g) row - (f/g) pivot_row, pv the pivot and g = gcd(pv, f), then has its
    gcd divided out, so it stays a multiple of its RREF row.  Each entry is an
    int pair (numerator, denominator > 0); the free entry is (1, 1).
    """
    pivots: list[int] = []
    for c in cols:
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        row_r = rows[r]
        pv = row_r[c]
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            g = math.gcd(pv, row[c])
            a, b = pv // g, row[c] // g
            row = {k: a * x for k, x in row.items()}
            for k, x in row_r.items():
                value = row.get(k, 0) - b * x
                if value:
                    row[k] = value
                else:
                    del row[k]
            g = math.gcd(*row.values())
            rows[i] = {k: x // g for k, x in row.items()} if g > 1 else row
        pivots.append(c)
    pivot_set = set(pivots)
    basis = []
    for free in cols:
        if free in pivot_set:
            continue
        vec = {free: (1, 1)}
        for row, pc in zip(rows, pivots):
            if free in row:
                vec[pc] = (-row[free], row[pc]) if row[pc] > 0 else (row[free], -row[pc])
        basis.append(vec)
    return basis


def harmonic_basis(n: int, d: Bidegree) -> HarmonicBasis:
    """Basis of ker(ambient Laplacian) on the bidegree-(p, q) monomial space.

    The Laplacian's integer matrix (entries 4ab, at most n per column) to the
    (p-1, q-1) monomial space is built as one block of sparse rows per torus
    weight alpha - beta of the columns; :func:`_kernel` reduces each block,
    and its vectors, merged by free column (see the module docstring), become
    the elements.
    """
    d = Bidegree(*spectrum._check_bidegree(n, d))
    source = bidegree_monomials(n, d)
    blocks: dict = {}  # {alpha - beta: (source columns, {target key: row})}
    for col, (alpha, beta) in enumerate(source):
        cols, rows = blocks.setdefault(tuple(map(sub, alpha, beta)), ([], {}))
        cols.append(col)
        for j in range(n):
            a, b = alpha[j], beta[j]
            if a and b:
                key = (
                    alpha[:j] + (a - 1,) + alpha[j + 1 :],
                    beta[:j] + (b - 1,) + beta[j + 1 :],
                )
                rows.setdefault(key, {})[col] = 4 * a * b

    kernel = [vec for cols, rows in blocks.values() for vec in _kernel(list(rows.values()), cols)]
    kernel.sort(key=max)  # a vector's free column is its largest index
    terms = (((source[i], re, 0, den) for i, (re, den) in vec.items()) for vec in kernel)
    return HarmonicBasis(n, d, tuple(_from_terms(n, items) for items in terms))


def orthonormalize(basis: HarmonicBasis) -> HarmonicBasis:
    """Gram-Schmidt with the exact sphere pairing.

    Returns mutually orthogonal elements with their exact squared norms;
    normalization is deferred since square roots are generally irrational.
    The finished u_j are filed once each in a :class:`_PairingIndex`; an
    input element e is paired with all of them in integers, and
    u = e - sum_j (<e, u_j> / N_j) u_j is one :func:`_combine` over the
    nonzero pairings.  This is classical Gram-Schmidt,
    which in exact arithmetic equals modified Gram-Schmidt (<u_k, u_j> = 0
    for k != j), so the elements and norms are those of the modified form.
    """
    orthogonal: list[Polynomial] = []
    norms: list[Fraction] = []
    index = _PairingIndex()
    for element in basis.elements:
        parts = [(element, 1, 0, 1)]
        for j, (re, im, d) in index.pair(element).items():
            w = norms[j]
            parts.append((orthogonal[j], -re * w.denominator, -im * w.denominator, d * w.numerator))
        u = _combine(basis.n, parts)
        if not u:
            raise RuntimeError(
                f"basis for {basis.bidegree} on C^{basis.n} is linearly dependent"
            )
        norm = l2_norm_squared(u)
        if norm <= 0:
            raise RuntimeError(f"non-positive squared norm {norm}; this is a bug")
        index.add(len(orthogonal), u)
        orthogonal.append(u)
        norms.append(norm)
    return HarmonicBasis(basis.n, basis.bidegree, tuple(orthogonal), tuple(norms))


@dataclass(frozen=True)
class CellVerification:
    bidegree: Bidegree
    dimension: int
    formula_dimension: int
    harmonic_ok: bool
    bidegree_ok: bool
    boxb_eigenvalue: int
    laplace_beltrami_eigenvalue: int

    @property
    def ok(self) -> bool:
        return (
            self.dimension == self.formula_dimension
            and self.harmonic_ok
            and self.bidegree_ok
        )


@dataclass(frozen=True)
class VerificationReport:
    n: int
    max_degree: int
    cells: tuple[CellVerification, ...]
    orthogonality_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.orthogonality_ok and all(cell.ok for cell in self.cells)


def _cross_cell_gram(
    n: int, bases: list[HarmonicBasis]
) -> dict[tuple[int, int, int, int], ExactScalar]:
    """Every nonzero <f, g> with f = bases[i].elements[a], g = bases[j].elements[b]
    and i < j, keyed (i, j, a, b), in one pass over all terms.

    Each element is filed once in a :class:`_PairingIndex` and paired in
    integers with the elements of the later cells.  A pair sharing no
    bucket is exactly 0 and never touched; an ExactScalar is built only for
    a nonzero pair.
    """
    index = _PairingIndex()
    gram: dict[tuple[int, int, int, int], ExactScalar] = {}
    # cells are filed last to first, so a cell pairs only with later ones
    for i in reversed(range(len(bases))):
        elements = bases[i].elements
        for a, f in enumerate(elements):
            for (j, b), (re, im, den) in index.pair(f).items():
                gram[i, j, a, b] = ExactScalar(Fraction(re, den), Fraction(im, den))
        for a, f in enumerate(elements):
            index.add((i, a), f)
    return gram


def verify_eigen_identities(n: int, max_degree: int) -> VerificationReport:
    """Run the full oracle over every bidegree cell with p+q <= max_degree.

    Per cell and basis element h this checks, all exactly:

    * ambient Laplacian of h is 0 (so h restricted to the sphere is a
      spherical harmonic of degree k = p+q, hence a Laplace-Beltrami
      eigenfunction with eigenvalue k(k+2n-2) by homogeneity);
    * h is bihomogeneous of the stated bidegree under the Euler operators
      sum z_j d/dz_j and sum zbar_j d/dzbar_j, which pins the Kohn-Laplacian
      eigenvalue 2q(p+n-1);
    * the kernel dimension matches the closed-form multiplicity;
    * elements of distinct cells are pairwise orthogonal on the sphere,
      checked for all pairs at once by one bucketed Gram pass
      (:func:`_cross_cell_gram`); a nonzero pair is reported as
      ``<f, g> = value != 0``, ordered by cell pair, then by element pair.
    """
    _check_int("max_degree", max_degree, 1)

    cells: list[CellVerification] = []
    failures: list[str] = []
    bases: list[HarmonicBasis] = []
    for k in range(max_degree + 1):
        for p in range(k + 1):
            d = Bidegree(p, k - p)
            basis = harmonic_basis(n, d)
            bases.append(basis)
            harmonic_ok = True
            bidegree_ok = True
            for h in basis.elements:
                if ambient_laplacian(h):
                    harmonic_ok = False
                    failures.append(f"cell {d}: not harmonic: {h}")
                if euler_z(h) != h * d.p or euler_z_bar(h) != h * d.q:
                    bidegree_ok = False
                    failures.append(f"cell {d}: wrong bidegree: {h}")
            cells.append(
                CellVerification(
                    bidegree=d,
                    dimension=len(basis.elements),
                    formula_dimension=spectrum.multiplicity(n, d),
                    harmonic_ok=harmonic_ok,
                    bidegree_ok=bidegree_ok,
                    boxb_eigenvalue=spectrum.boxb_eigenvalue(n, d),
                    laplace_beltrami_eigenvalue=spectrum.laplace_beltrami_eigenvalue(n, k),
                )
            )
            if len(basis.elements) != cells[-1].formula_dimension:
                failures.append(
                    f"cell {d}: kernel rank {len(basis.elements)} != formula "
                    f"{cells[-1].formula_dimension}"
                )

    gram = _cross_cell_gram(n, bases)
    for (i, j, a, b), value in sorted(gram.items()):
        failures.append(
            f"cells {bases[i].bidegree} vs {bases[j].bidegree}: "
            f"<{bases[i].elements[a]}, {bases[j].elements[b]}> = {value} != 0"
        )

    return VerificationReport(
        n=n,
        max_degree=max_degree,
        cells=tuple(cells),
        orthogonality_ok=not gram,
        failures=tuple(failures),
    )
