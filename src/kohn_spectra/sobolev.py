"""Sobolev gain estimates for the complex Green operator: the exact ratio
sequence, boundedness verdicts, and best constants with equality loci.

With mu(k) = k(k+2n-2) the Laplace-Beltrami eigenvalue and lambda_min(k) =
2(k+n-2) the smallest nonzero Kohn-Laplacian eigenvalue at total degree k,
the operator norm of G from H^s to H^{s+t} is governed by the sequence

    ratio(n, t, k) = (1 + mu(k))^t / lambda_min(k)^2,

which is bounded iff t <= 1.  At t = 1 the sequence is the square of the
best constant's candidate values; writing f(k) for it,

    f'(k) = -2 (k - (n^2-3n+1)) / (4 (k+n-2)^3)   (up to the positive 1/4),

so f increases up to the integer critical degree k* = n^2-3n+1 and strictly
decreases afterwards (for n = 2, k* = -1 and the sequence is decreasing from
k = 1 on).  This certificate places the global maximum over k >= 1 at
max(k*, 1), where the exact ratio and its neighbours cross-check it, and
the closed form of the maximum follows from the integer identity
(n^2-3n+1)(n^2-n-1) + 1 = n(n-2)(n^2-2n-1):

    c^2 = 1                        (n = 2, at k = 1)
    c^2 = n(n-2) / (4(n^2-2n-1))   (n >= 3, at k = k*).

Two closed-form candidates for the best constant circulate: the value above
and n(n-2)/(4(n-1)^2) (the square of sqrt(n(n-2))/(2(n-1))).  They disagree
for every n >= 3 (e.g. 3/8 vs 3/16 at n = 3).  Rather than choosing, the
report carries a boolean flag per candidate with the certified maximum as
the source of truth; it confirms the first display.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import spectrum
from .operators import (
    apply,
    decompose,
    green_symbol,
    sobolev_symbol,
    weighted_norm_squared,
)
from .polynomials import Bidegree, Polynomial, _check_int

__all__ = [
    "RatioPoint",
    "BestConstantReport",
    "GainCertificate",
    "ratio",
    "ratio_series",
    "is_bounded",
    "critical_degree",
    "argmax_degree",
    "equality_bidegree",
    "decreasing_tail_certificate",
    "theorem_display_c_squared",
    "proof_display_c_squared",
    "best_constant",
    "sobolev_gain_certificate",
]


def critical_degree(n: int) -> int:
    """The critical point n^2 - 3n + 1 of the t = 1 ratio sequence."""
    spectrum._check_dimension(n)
    return n * n - 3 * n + 1


def argmax_degree(n: int) -> int:
    """Where the t = 1 ratio sequence attains its maximum over k >= 1."""
    return 1 if spectrum._check_dimension(n) == 2 else critical_degree(n)


def equality_bidegree(n: int) -> Bidegree:
    """The unique bidegree whose eigenspace realizes the best constant:
    (k - 1, 1) at the argmax degree k, the one with eigenvalue lambda_min(k)."""
    return Bidegree(argmax_degree(n) - 1, 1)


def ratio(n: int, s, k: int) -> Fraction | float:
    """(1 + mu(k))^s / lambda_min(k)^2 = (1 + k(k+2n-2))^s / (4(k+n-2)^2);
    exact for integral s."""
    lam = spectrum.lambda_min(n, k)
    return spectrum.power(1 + spectrum.laplace_beltrami_eigenvalue(n, k), s) / lam**2


@dataclass(frozen=True)
class RatioPoint:
    k: int
    value: Fraction | float


# The size budget of an exact ratio series, in bits: k_max times its last
# point's estimate.  Chosen by measurement (2-core Intel Xeon, `ratio` on the
# CLI, where writing the digits costs most): at the budget the slowest shape,
# 32 points at the exact-power budget, takes 1.1 s, and 64 points at 2^25 bits
# 2.9 s.  Small points cost their count: s = 1 at k_max = 440000 takes 5.6 s,
# as the float path does at s = 1.0.
_SERIES_BITS = 2**24


def ratio_series(n: int, s, k_max: int) -> list[RatioPoint]:
    """ratio(n, s, k) for k = 1..k_max.  At an integral s the series is sized
    before its first point: its last, largest power against the exact-power
    budget (:func:`spectrum._check_power_size`), and k_max times that power's
    estimate against _SERIES_BITS."""
    _check_int("k_max", k_max, 1)
    last = 1 + spectrum.laplace_beltrami_eigenvalue(n, k_max)
    s = spectrum._check_order("s", s)
    if type(s) is int:
        spectrum._check_power_size(last, s)
        size = k_max * abs(s) * last.numerator.bit_length()
        if size > _SERIES_BITS:
            raise ValueError(
                f"exact series of {k_max} powers of up to {last} too large: its estimated "
                f"{size} bits exceed the series size budget of {_SERIES_BITS} bits"
            )
    return [RatioPoint(k, ratio(n, s, k)) for k in range(1, k_max + 1)]


def is_bounded(n: int, s) -> bool:
    """The ratio sequence is bounded in k iff s <= 1 (exact comparison)."""
    spectrum._check_dimension(n)
    return spectrum._check_order("s", s) <= 1


def decreasing_tail_certificate(n: int) -> int:
    """Certify that the t = 1 ratio sequence strictly decreases beyond the
    critical degree, by verifying the derivative-numerator identity

        (2k + b)(k + c) - 2(k^2 + bk + 1) = -2(k - (n^2-3n+1)),
        b = 2n-2, c = n-2,

    coefficient by coefficient in exact integers.  Returns the critical
    degree.  Since the numerator is linear with slope -2, over the positive
    (k + c)^3, the ratio strictly increases on [1, k*] and strictly
    decreases on [max(k*, 1), infinity), so its maximum over k >= 1 sits at
    max(k*, 1) = argmax_degree(n).
    """
    k_star = critical_degree(n)
    b = 2 * n - 2
    c = n - 2
    # (2k + b)(k + c) - 2(k^2 + bk + 1), expanded: quadratic, linear, constant
    quad = 2 - 2
    lin = 2 * c + b - 2 * b
    const = b * c - 2
    if quad != 0 or lin != -2 or const != 2 * k_star:
        raise RuntimeError(f"derivative identity failed at n={n}; this is a bug")
    return k_star


def theorem_display_c_squared(n: int) -> Fraction:
    """The candidate n(n-2)/(4(n-1)^2) for n >= 3; 1 for n = 2."""
    spectrum._check_dimension(n)
    if n == 2:
        return Fraction(1)
    return Fraction(n * (n - 2), 4 * (n - 1) ** 2)


def proof_display_c_squared(n: int) -> Fraction:
    """The candidate n(n-2)/(4(n^2-2n-1)) for n >= 3; 1 for n = 2."""
    spectrum._check_dimension(n)
    if n == 2:
        return Fraction(1)
    return Fraction(n * (n - 2), 4 * (n * n - 2 * n - 1))


@dataclass(frozen=True)
class BestConstantReport:
    n: int
    c_squared: Fraction
    argmax_k: int
    equality_bidegrees: tuple[Bidegree, ...]
    matches_theorem_display: bool
    matches_proof_display: bool


def best_constant(n: int) -> BestConstantReport:
    """Exact maximum of the t = 1 ratio sequence, with equality locus and
    comparison flags for the two circulating closed-form displays.

    decreasing_tail_certificate places the maximum at k* = argmax_degree(n);
    the exact ratio at k* - 1, k* and k* + 1 (those >= 1) must show a strict
    local maximum there, a numeric cross-check of the certificate.
    """
    decreasing_tail_certificate(n)
    k_max = argmax_degree(n)
    c_squared = ratio(n, 1, k_max)
    if any(ratio(n, 1, k) >= c_squared for k in (k_max - 1, k_max + 1) if k >= 1):
        raise RuntimeError(f"no strict local maximum at the certified degree {k_max}, n={n}")
    return BestConstantReport(
        n=n,
        c_squared=c_squared,
        argmax_k=k_max,
        equality_bidegrees=(equality_bidegree(n),),
        matches_theorem_display=c_squared == theorem_display_c_squared(n),
        matches_proof_display=c_squared == proof_display_c_squared(n),
    )


@dataclass(frozen=True)
class GainCertificate:
    """Exact record of || G f ||_{s+1}^2 <= c^2 || f ||_s^2 for one input, and its verdict."""

    n: int
    s: int
    green_norm_squared: Fraction
    bound: Fraction
    ratio: Fraction | None
    holds: bool
    equality: bool
    in_equality_locus: bool


def sobolev_gain_certificate(n: int, f: Polynomial, s: int = 0) -> GainCertificate:
    """Compare || G f ||_{s+1}^2 against c^2 || f ||_s^2, both exact rationals.

    ``holds`` is lhs <= rhs: False means a wrong constant or norm.  Equality
    holds exactly when every surviving component of f sits in the equality
    eigenspace (single bidegree (n^2-3n, 1), or (0, 1) for n = 2);
    membership is decided through the exact decomposition.
    """
    spectrum._check_dimension(n)
    if f.n != n:
        raise ValueError(f"polynomial lives on C^{f.n}, expected C^{n}")
    s = spectrum._check_order("s", s)
    if type(s) is not int or s < 0:
        raise ValueError(f"gain certificates require a nonnegative integer s, got {s}")

    c_squared = best_constant(n).c_squared
    dec = decompose(f)
    green_f = apply(dec, lambda d: green_symbol(n, d))
    lhs = weighted_norm_squared(green_f, lambda d: sobolev_symbol(n, s + 1, d))
    rhs = c_squared * weighted_norm_squared(dec, lambda d: sobolev_symbol(n, s, d))
    locus = equality_bidegree(n)
    return GainCertificate(
        n=n,
        s=s,
        green_norm_squared=lhs,
        bound=rhs,
        ratio=lhs / rhs if rhs else None,
        holds=lhs <= rhs,
        equality=lhs == rhs,
        in_equality_locus=dec.bidegrees() == (locus,),
    )
