"""Acceptance gate: every advertised guarantee of the library, exercised at
its stated tolerance, one test per criterion.  Run with ``pytest -v
tests/test_acceptance.py`` to get one pass/fail line per criterion.

All equality assertions on the exact path are zero-tolerance (Fraction
comparisons); floats appear only where a criterion is explicitly about the
float path.

Criterion 9b (the s = 1.05 growth factor) witnesses the 10x growth at
the degree where it actually occurs: the ratio sequence grows like
k^(2s-2) = k^0.1, so from k = 10^3 it gains a factor of 10 only near
k = 10^14 (10^13 still falls short, at 9.98, because of lower-order
terms).  Reaching 10x already at k = 10^6 would need s > 7/6.
"""

import math
import random
from fractions import Fraction

import pytest

from kohn_spectra import (
    Bidegree,
    best_constant,
    harmonic_basis,
    multiplicity,
    random_polynomial,
    residual_check,
    sobolev_gain_certificate,
    sphere_inner_product,
)
from kohn_spectra.polynomials import monomial_sphere_integral, multiindices
from kohn_spectra.schatten import (
    CONVERGES,
    DIVERGES,
    approx_formula,
    approx_pole_constant,
    lower_bound_sum,
    lower_bound_term,
    partial_sum,
    schatten_term,
    tail_upper_bound,
    upper_bound_term,
    verdict,
)
from kohn_spectra.sobolev import (
    argmax_degree,
    decreasing_tail_certificate,
    equality_bidegree,
    is_bounded,
    proof_display_c_squared,
    ratio,
)
from kohn_spectra.spectrum import multiplicity_binomial


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_01_dimension_oracle_equivalence():
    """Exact kernel rank of the ambient Laplacian equals the closed-form
    multiplicity for n in {2,3,4}, p+q <= 6 (zero tolerance)."""
    checked = 0
    for n in (2, 3, 4):
        for k in range(7):
            for p in range(k + 1):
                d = Bidegree(p, k - p)
                rank = len(harmonic_basis(n, d).elements)
                assert rank == multiplicity(n, d) == multiplicity_binomial(n, d), (n, d)
                checked += 1
    report(f"criterion 1: PASS - kernel rank == closed form on {checked} cells")


def test_criterion_02_cross_bidegree_orthogonality():
    """All cross-bidegree inner products vanish exactly for n in {2,3}, p+q <= 4."""
    pairs = 0
    for n in (2, 3):
        bases = [
            harmonic_basis(n, Bidegree(p, k - p))
            for k in range(5)
            for p in range(k + 1)
        ]
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                for f in bases[i].elements:
                    for g in bases[j].elements:
                        assert not sphere_inner_product(f, g), (
                            n,
                            bases[i].bidegree,
                            bases[j].bidegree,
                        )
                        pairs += 1
    report(f"criterion 2: PASS - {pairs} cross-cell pairings all exactly zero")


def test_criterion_03_monomial_integral_backend():
    """The closed-form monomial integral satisfies the |z|^2 partition
    recursion sum_j I(alpha+e_j) = I(alpha) with I(0) = 1, for n in {2,3,4},
    |alpha| <= 6, exactly; off-diagonal integrals vanish."""
    checked = 0
    for n in (2, 3, 4):
        assert monomial_sphere_integral(n, (0,) * n) == 1
        for degree in range(7):
            for alpha in multiindices(n, degree):
                children = Fraction(0)
                for j in range(n):
                    bumped = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :]
                    children += monomial_sphere_integral(n, bumped)
                assert children == monomial_sphere_integral(n, alpha), (n, alpha)
                checked += 1
    assert monomial_sphere_integral(3, (1, 0, 0), (0, 1, 0)) == 0
    report(f"criterion 3: PASS - partition recursion exact on {checked} multiindices")


def test_criterion_04_canonical_solution_identity():
    """boxb(G f) = f - hardy(f) with exact residual 0 on 100 seeded random
    polynomials per n in {2,3} with p+q <= 5."""
    for n in (2, 3):
        rng = random.Random(5150 + n)
        for i in range(100):
            f = random_polynomial(rng, n, max_degree=5)
            assert residual_check(f) == 0, (n, i)
    report("criterion 4: PASS - exact residual 0 on 200 seeded random polynomials")


def test_criterion_05_schatten_verdicts():
    """r = n certified divergent by cutoff doubling of the rigorous lower
    bound (10x its P=Q=100 value); r = n+1 certified convergent with a
    bracket of relative width <= 5% at P = Q = 400 <= 2000."""
    for n in (2, 3):
        assert verdict(n, n) == DIVERGES
        base = lower_bound_sum(n, n, 100, 100)
        target = 10 * base
        cutoff, doublings, value = 100, 0, base
        while value <= target:
            assert doublings < 80, f"stalled at {value} after {doublings} doublings"
            cutoff *= 2
            doublings += 1
            value = lower_bound_sum(n, n, cutoff, cutoff)
        assert value > target
        assert doublings == {2: 58, 3: 52}[n]

        r = n + 1
        assert verdict(n, r) == CONVERGES
        exact = partial_sum(n, r, 400, 400)
        assert isinstance(exact, Fraction)
        tail = tail_upper_bound(n, r, 400, 400)
        assert math.isfinite(tail)
        assert tail / float(exact) <= 0.05
    report(
        "criterion 5: PASS - divergence witnessed by doubling at r = n; "
        "bracket width <= 5% at r = n+1, P = Q = 400"
    )


def test_criterion_06_termwise_sandwich():
    """lower term <= exact term <= upper integrand, exactly, on the grid
    p, q <= 50 for n in {2,3,4} and integer r in {n+1, n+2}."""
    cells = 0
    for n in (2, 3, 4):
        for r in (n + 1, n + 2):
            for q in range(1, 51):
                for p in range(0, 51):
                    exact = schatten_term(n, r, p, q)
                    assert exact <= upper_bound_term(n, r, p, q), (n, r, p, q)
                    if p >= n:
                        assert lower_bound_term(n, r, p, q) <= exact, (n, r, p, q)
                    cells += 1
    report(f"criterion 6: PASS - exact sandwich on {cells} grid cells")


def test_criterion_07_approximation_behavior():
    """The closed-form approximation captures both asymptotic regimes for
    n = 2: ratio to 2*2^-r within 1% at r = 40, and (r-2)-scaled values
    within [0.9, 1.1] of the pole constant toward r -> 2+."""
    r = 40
    ratio_large = approx_formula(2, r) / (2 * 2.0**-r)
    assert abs(ratio_large - 1.0) <= 0.01
    pole = approx_pole_constant(2)
    assert pole == pytest.approx(1 / 8)
    for r in (2.05, 2.02, 2.01):
        scaled = approx_formula(2, r) * (r - 2)
        assert 0.9 * pole <= scaled <= 1.1 * pole, r
    report("criterion 7: PASS - large-r ratio within 1%, pole window within 10%")


def test_criterion_08_best_sobolev_constants():
    """Exact C_2^2 = 1 at k = 1; for 3 <= n <= 10 the exact scan gives
    c^2 = n(n-2)/(4(n^2-2n-1)) at k = n^2-3n+1, and the report flags the
    mismatch with the display n(n-2)/(4(n-1)^2)."""
    r2 = best_constant(2)
    assert r2.c_squared == 1 and r2.argmax_k == 1
    assert r2.equality_bidegrees == (Bidegree(0, 1),)
    for n in range(3, 11):
        rep = best_constant(n)
        assert rep.c_squared == Fraction(n * (n - 2), 4 * (n * n - 2 * n - 1)), n
        assert rep.c_squared == proof_display_c_squared(n)
        assert rep.argmax_k == n * n - 3 * n + 1, n
        assert rep.matches_proof_display is True
        assert rep.matches_theorem_display is False, n
    report("criterion 8: PASS - exact best constants for n = 2..10, mismatch flagged")


def test_criterion_09a_bounded_at_s_equal_one():
    """At s = 1 the exact ratio sequence max over k <= 10^4 sits at
    k = n^2-3n+1 (k = 1 for n = 2) with a certified decreasing tail."""
    for n in (2, 3, 4):
        k_star = decreasing_tail_certificate(n)
        expected_argmax = argmax_degree(n)
        best_k, best_value = 1, ratio(n, 1, 1)
        for k in range(2, 10**4 + 1):
            value = ratio(n, 1, k)
            if value > best_value:
                best_k, best_value = k, value
        assert best_k == expected_argmax, n
        assert best_value == ratio(n, 1, expected_argmax)
        # certified tail: strictly decreasing beyond the critical degree,
        # checked exactly at the scan boundary as well
        assert ratio(n, 1, 10**4 + 1) < ratio(n, 1, 10**4)
        assert max(k_star, 1) <= 10**4
    report("criterion 9a: PASS - s = 1 maxima certified over k <= 10^4 plus tail")


def test_criterion_09b_unbounded_growth_factor():
    """At s = 1.05 the ratio sequence is unbounded and grows 10x beyond its
    value at k = 10^3.  The growth exponent is 2s-2 = 0.1, so the 10x
    witness sits at k = 10^14 (factor ~ 12.56; at 10^13 it is only ~ 9.98).
    The float comparison is cross-checked in exact arithmetic, and the
    exponent measured between k = 10^3 and 10^6 must be 2s-2."""
    s = 1.05
    k_lo, k_hi = 10**3, 10**14
    for n in (2, 3):
        assert is_bounded(n, s) is False, n
        lo = ratio(n, s, k_lo)
        hi = ratio(n, s, k_hi)
        assert hi > 10 * lo, (
            f"n={n}: factor {hi / lo:.4f} from k = 10^3 to 10^14 at s = 1.05 "
            "(growth exponent 2s-2 = 0.1)"
        )

        # exact cross-check with s = 21/20, b(k) = 1 + k(k+2n-2) and
        # d(k) = 4(k+n-2)^2: (b_hi/b_lo)^s > 10 d_hi/d_lo, raised to the 20th
        def b(k):
            return 1 + k * (k + 2 * n - 2)

        def d(k):
            return 4 * (k + n - 2) ** 2

        assert Fraction(b(k_hi), b(k_lo)) ** 21 > (
            10 * Fraction(d(k_hi), d(k_lo))
        ) ** 20, n

        k_mid = 10**6
        exponent = math.log(ratio(n, s, k_mid) / lo) / math.log(k_mid / k_lo)
        assert abs(exponent - (2 * s - 2)) < 1e-3, (n, exponent)
    report("criterion 9b: PASS - s = 1.05 unbounded, 10x from k = 10^3 at k = 10^14")


def test_criterion_10_equality_loci():
    """Gain certificates report exact equality exactly on the advertised
    eigenspaces ((0,1) for n in {2,3}, (n^2-3n, 1) for n = 4) and strict
    inequality on 20 seeded random inputs per n outside them."""
    for n in (2, 3, 4):
        locus = equality_bidegree(n)
        element = harmonic_basis(n, locus).elements[0]
        cert = sobolev_gain_certificate(n, element, 0)
        assert cert.equality and cert.in_equality_locus, n

        rng = random.Random(9090 + n)
        strict = 0
        while strict < 20:
            f = random_polynomial(rng, n, max_degree=4)
            cert = sobolev_gain_certificate(n, f, 0)
            if not cert.bound:
                continue  # vanishes on the sphere; certificate is vacuous
            assert cert.holds
            if cert.in_equality_locus:
                continue
            assert cert.green_norm_squared < cert.bound, (n, strict)
            assert not cert.equality
            strict += 1
    report("criterion 10: PASS - equality loci exact, 60 random strict cases")
