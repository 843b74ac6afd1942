"""Spectral operator calculus on sphere-restricted polynomials.

Every polynomial on C^n agrees on the unit sphere with a unique sum of
harmonic bihomogeneous polynomials (its spherical decomposition).  On that
decomposition the operators of interest act diagonally:

* Kohn Laplacian: the (p, q) component is scaled by 2q(p+n-1);
* complex Green operator: q = 0 components are annihilated, the rest scaled
  by 1/(2q(p+n-1));
* Hardy projection: keeps exactly the q = 0 components;
* Sobolev powers (I + Laplace-Beltrami)^t: the component of total degree k
  is scaled by (1 + k(k+2n-2))^t.

The decomposition itself is computed exactly.  A bihomogeneous piece f of
bidegree (p, q) splits uniquely as f = sum_m |z|^{2m} h_m with h_m harmonic
of bidegree (p-m, q-m) (Fischer decomposition).  Writing lap for the ambient
Laplacian, the commutation identity

    lap(|z|^{2m} h) = 4m(n + deg h + m - 1) |z|^{2(m-1)} h      (h harmonic)

makes the system triangular: lap^m kills every |z|^{2j} h_j with j < m and
sends |z|^{2m} h_m to a known positive multiple of h_m, so the components
peel off top-down by exact rational division.  The constants are strictly
positive for n >= 2, so the solve cannot be singular; every component is
nevertheless re-checked for harmonicity and a failure aborts loudly, since
it would mean the arithmetic itself is broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import spectrum
from .polynomials import (
    Bidegree,
    _collect,
    Polynomial,
    ambient_laplacian,
    bidegree_split,
    fraction_to_string,
    l2_norm_squared,
    polynomial_to_dict,
    radius_squared,
)

__all__ = [
    "HarmonicComponent",
    "SphericalDecomposition",
    "FloatScaledComponent",
    "FloatScaledDecomposition",
    "decompose",
    "apply",
    "weighted_norm_squared",
    "green_symbol",
    "sobolev_symbol",
    "apply_boxb",
    "apply_green",
    "hardy_projection",
    "apply_sobolev_power",
    "sobolev_norm_squared",
    "residual_check",
]


@dataclass(frozen=True)
class HarmonicComponent:
    """One summand of a spherical decomposition: harmonic, bihomogeneous."""

    bidegree: Bidegree
    part: Polynomial


@dataclass(frozen=True)
class SphericalDecomposition:
    """At most one harmonic component per bidegree; the sum equals the input
    on the unit sphere (exactly testable through the sphere pairing)."""

    n: int
    components: tuple[HarmonicComponent, ...]

    def as_polynomial(self) -> Polynomial:
        return sum((comp.part for comp in self.components), Polynomial.zero(self.n))

    def component(self, d: Bidegree) -> Polynomial:
        d = Bidegree(*d)
        for comp in self.components:
            if comp.bidegree == d:
                return comp.part
        return Polynomial.zero(self.n)

    def bidegrees(self) -> tuple[Bidegree, ...]:
        return tuple(comp.bidegree for comp in self.components)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "components": [_component_json(c) for c in self.components]}


@dataclass(frozen=True)
class FloatScaledComponent:
    """Exact harmonic part plus the float scaling it acquires."""

    bidegree: Bidegree
    part: Polynomial
    factor: float


@dataclass(frozen=True)
class FloatScaledDecomposition:
    """Result of a spectral multiplier whose factors are irrational: the
    components stay exact, the factors are double precision."""

    n: int
    components: tuple[FloatScaledComponent, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "components": [
                {**_component_json(c), "factor_float": c.factor} for c in self.components
            ],
        }


def _component_json(comp: HarmonicComponent | FloatScaledComponent) -> dict:
    return {
        "p": comp.bidegree.p,
        "q": comp.bidegree.q,
        "polynomial": polynomial_to_dict(comp.part),
        "norm_squared": fraction_to_string(l2_norm_squared(comp.part)),
    }


def _fischer_components(piece: Polynomial, d: Bidegree) -> dict[Bidegree, Polynomial]:
    """Exact Fischer decomposition of one bihomogeneous piece (see module docstring)."""
    n = piece.n
    p, q = d
    k = p + q
    out: dict[Bidegree, Polynomial] = {}
    residual = piece
    r2 = radius_squared(n)
    for m in range(min(p, q), 0, -1):
        g = residual
        for _ in range(m):
            g = ambient_laplacian(g)
        constant = 1
        for t in range(1, m + 1):
            constant *= 4 * t * (n + (k - 2 * m) + t - 1)
        h = g * Fraction(1, constant)
        if h:
            out[Bidegree(p - m, q - m)] = h
            residual = residual - r2**m * h
    if residual:
        out[Bidegree(p, q)] = residual
    for dd, h in out.items():
        if ambient_laplacian(h):
            raise RuntimeError(
                f"Fischer component {dd} of a bidegree-{Bidegree(p, q)} piece is not "
                "harmonic; exact arithmetic is broken"
            )
    return out


def decompose(f: Polynomial) -> SphericalDecomposition:
    """Spherical decomposition of f: harmonic components merged by bidegree.

    Each bihomogeneous piece of f is Fischer-decomposed and the harmonic
    parts (which is all that survives restriction to the sphere, where
    |z|^2 = 1) are merged across pieces.
    """
    merged = _collect(
        pair
        for d, piece in bidegree_split(f).items()
        for pair in _fischer_components(piece, d).items()
    )
    components = tuple(HarmonicComponent(d, merged[d]) for d in sorted(merged))
    return SphericalDecomposition(f.n, components)


def apply(
    dec: SphericalDecomposition, symbol
) -> SphericalDecomposition | FloatScaledDecomposition:
    """The spectral multiplier whose symbol maps each Bidegree d to a scalar:
    component d is scaled by symbol(d).

    A rational symbol scales the parts exactly and drops those it sends to
    zero.  A float symbol keeps every part exact and unscaled beside its
    factor.  The kind is read off symbol at (0, 0), so the zero polynomial
    gets the same result type as any other input.
    """
    factors = [(comp, symbol(comp.bidegree)) for comp in dec.components]
    if _is_float(symbol):
        return FloatScaledDecomposition(
            dec.n, tuple(FloatScaledComponent(c.bidegree, c.part, x) for c, x in factors)
        )
    return SphericalDecomposition(
        dec.n, tuple(HarmonicComponent(c.bidegree, c.part * x) for c, x in factors if x)
    )


def weighted_norm_squared(dec: SphericalDecomposition, symbol) -> Fraction | float:
    """sum over the components of symbol(bidegree) <h, h>; a float for a
    float symbol (see :func:`apply`), else an exact rational."""
    total = 0.0 if _is_float(symbol) else Fraction(0)
    for comp in dec.components:
        total += symbol(comp.bidegree) * l2_norm_squared(comp.part)
    return total


def _is_float(symbol) -> bool:
    return isinstance(symbol(Bidegree(0, 0)), float)


def green_symbol(n: int, d: Bidegree) -> Fraction:
    """1/(2q(p+n-1)), the reciprocal Kohn eigenvalue; 0 on the Hardy part q = 0."""
    ev = spectrum.boxb_eigenvalue(n, d)
    return 1 / ev if ev else Fraction(0)


def sobolev_symbol(n: int, t, d: Bidegree) -> Fraction | float:
    """(1 + k(k+2n-2))^t at total degree k = p + q; exact for integral t."""
    return spectrum.power(1 + spectrum.laplace_beltrami_eigenvalue(n, d.total), t)


def apply_boxb(f: Polynomial) -> SphericalDecomposition:
    """Kohn Laplacian applied spectrally: (p, q) component scaled by 2q(p+n-1).

    q = 0 components (the Hardy part, including constants) map to zero and
    are dropped.
    """
    return apply(decompose(f), lambda d: spectrum.boxb_eigenvalue(f.n, d))


def apply_green(f: Polynomial) -> SphericalDecomposition:
    """Complex Green operator: annihilates q = 0 components, scales the rest
    by the exact reciprocal eigenvalue 1/(2q(p+n-1))."""
    return apply(decompose(f), lambda d: green_symbol(f.n, d))


def hardy_projection(f: Polynomial) -> SphericalDecomposition:
    """The q = 0 part of the decomposition: exactly the Kohn-Laplacian kernel
    at the function level (holomorphic boundary values plus constants)."""
    return apply(decompose(f), lambda d: Fraction(1) if d.q == 0 else Fraction(0))


def apply_sobolev_power(
    f: Polynomial, t
) -> SphericalDecomposition | FloatScaledDecomposition:
    """(I + Laplace-Beltrami)^t as a spectral multiplier.

    Integer t (or an integral Fraction) keeps everything exact: the degree-k
    component is scaled by the rational (1 + k(k+2n-2))^t.  Otherwise the
    components are returned exact and unscaled alongside float factors.
    """
    return apply(decompose(f), lambda d: sobolev_symbol(f.n, t, d))


def sobolev_norm_squared(f: Polynomial, s) -> Fraction | float:
    """Squared Sobolev norm sum over components of (1 + k(k+2n-2))^s <h, h>.

    Exact rational for integral s (all factors rational); double precision
    otherwise.  s = 0 recovers the L^2 pairing.
    """
    return weighted_norm_squared(decompose(f), lambda d: sobolev_symbol(f.n, s, d))


def residual_check(f: Polynomial) -> Fraction:
    """Exact squared L^2 residual of the canonical-solution identity.

    Computes || boxb(G f) - (f - hardy(f)) ||^2 on the sphere, going back
    through polynomial form between the two operator applications so the
    identity is genuinely re-derived rather than holding by construction.
    Must be exactly 0.
    """
    green_poly = apply_green(f).as_polynomial()
    roundtrip = apply_boxb(green_poly).as_polynomial()
    target = f - hardy_projection(f).as_polynomial()
    return l2_norm_squared(roundtrip - target)
