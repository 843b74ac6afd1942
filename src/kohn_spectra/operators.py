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

import math
from dataclasses import dataclass
from fractions import Fraction

from . import spectrum
from .polynomials import (
    Bidegree,
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
        total = Polynomial.zero(self.n)
        for comp in self.components:
            total = total + comp.part
        return total

    def component(self, d: Bidegree) -> Polynomial:
        d = Bidegree(*d)
        for comp in self.components:
            if comp.bidegree == d:
                return comp.part
        return Polynomial.zero(self.n)

    def bidegrees(self) -> tuple[Bidegree, ...]:
        return tuple(comp.bidegree for comp in self.components)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "components": [
                {
                    "p": comp.bidegree.p,
                    "q": comp.bidegree.q,
                    "polynomial": polynomial_to_dict(comp.part),
                    "norm_squared": fraction_to_string(l2_norm_squared(comp.part)),
                }
                for comp in self.components
            ],
        }


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
                {
                    "p": comp.bidegree.p,
                    "q": comp.bidegree.q,
                    "polynomial": polynomial_to_dict(comp.part),
                    "norm_squared": fraction_to_string(l2_norm_squared(comp.part)),
                    "factor_float": comp.factor,
                }
                for comp in self.components
            ],
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
    merged: dict[Bidegree, Polynomial] = {}
    for d, piece in bidegree_split(f).items():
        for dd, h in _fischer_components(piece, d).items():
            if dd in merged:
                merged[dd] = merged[dd] + h
            else:
                merged[dd] = h
    components = tuple(
        HarmonicComponent(d, merged[d]) for d in sorted(merged) if merged[d]
    )
    return SphericalDecomposition(f.n, components)


def _scaled(dec: SphericalDecomposition, factor_of) -> SphericalDecomposition:
    components = []
    for comp in dec.components:
        factor = factor_of(comp.bidegree)
        if factor:
            components.append(HarmonicComponent(comp.bidegree, comp.part * factor))
    return SphericalDecomposition(dec.n, tuple(components))


def apply_boxb(f: Polynomial) -> SphericalDecomposition:
    """Kohn Laplacian applied spectrally: (p, q) component scaled by 2q(p+n-1).

    q = 0 components (the Hardy part, including constants) map to zero and
    are dropped.
    """
    n = f.n
    return _scaled(decompose(f), lambda d: spectrum.boxb_eigenvalue(n, d))


def apply_green(f: Polynomial) -> SphericalDecomposition:
    """Complex Green operator: annihilates q = 0 components, scales the rest
    by the exact reciprocal eigenvalue 1/(2q(p+n-1))."""
    n = f.n

    def factor(d: Bidegree) -> Fraction:
        ev = spectrum.boxb_eigenvalue(n, d)
        return 1 / ev if ev else Fraction(0)

    return _scaled(decompose(f), factor)


def hardy_projection(f: Polynomial) -> SphericalDecomposition:
    """The q = 0 part of the decomposition: exactly the Kohn-Laplacian kernel
    at the function level (holomorphic boundary values plus constants)."""
    return _scaled(decompose(f), lambda d: Fraction(1) if d.q == 0 else Fraction(0))


def apply_sobolev_power(
    f: Polynomial, t
) -> SphericalDecomposition | FloatScaledDecomposition:
    """(I + Laplace-Beltrami)^t as a spectral multiplier.

    Integer t (or an integral Fraction) keeps everything exact: the degree-k
    component is scaled by the rational (1 + k(k+2n-2))^t.  Otherwise the
    components are returned exact and unscaled alongside float factors.
    """
    n = f.n
    t_int = spectrum._integral_exponent(t)
    dec = decompose(f)
    if t_int is not None:
        return _scaled(
            dec,
            lambda d: (1 + spectrum.laplace_beltrami_eigenvalue(n, d.total)) ** t_int,
        )
    t_float = float(t)
    components = tuple(
        FloatScaledComponent(
            comp.bidegree,
            comp.part,
            (1.0 + float(spectrum.laplace_beltrami_eigenvalue(n, comp.bidegree.total)))
            ** t_float,
        )
        for comp in dec.components
    )
    return FloatScaledDecomposition(n, components)


def sobolev_norm_squared(f: Polynomial, s) -> Fraction | float:
    """Squared Sobolev norm sum over components of (1 + k(k+2n-2))^s <h, h>.

    Exact rational for integral s (all factors rational); double precision
    otherwise.  s = 0 recovers the L^2 pairing.
    """
    n = f.n
    dec = decompose(f)
    s_int = spectrum._integral_exponent(s)
    if s_int is not None:
        total = Fraction(0)
        for comp in dec.components:
            weight = (1 + spectrum.laplace_beltrami_eigenvalue(n, comp.bidegree.total)) ** s_int
            total += weight * l2_norm_squared(comp.part)
        return total
    s_float = float(s)
    total_f = 0.0
    for comp in dec.components:
        base = 1.0 + float(spectrum.laplace_beltrami_eigenvalue(n, comp.bidegree.total))
        total_f += math.pow(base, s_float) * float(l2_norm_squared(comp.part))
    return total_f


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
