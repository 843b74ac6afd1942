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
k = 1 on).  The exact scan over k therefore certifiably brackets the global
maximum, and the closed form of the maximum follows from the integer
identity (n^2-3n+1)(n^2-n-1) + 1 = n(n-2)(n^2-2n-1):

    c^2 = 1                        (n = 2, at k = 1)
    c^2 = n(n-2) / (4(n^2-2n-1))   (n >= 3, at k = k*).

Two closed-form candidates for the best constant circulate: the value above
and n(n-2)/(4(n-1)^2) (the square of sqrt(n(n-2))/(2(n-1))).  They disagree
for every n >= 3 (e.g. 3/8 vs 3/16 at n = 3).  Rather than choosing, the
report carries a boolean flag per candidate with the exact scan as the
source of truth; the scan confirms the first display.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import spectrum
from .operators import (
    apply,
    decompose,
    green_symbol,
    sobolev_norm_squared,
    sobolev_symbol,
    weighted_norm_squared,
)
from .polynomials import Bidegree, Polynomial, fraction_to_string

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
    return n * n - 3 * n + 1


def argmax_degree(n: int) -> int:
    """Where the t = 1 ratio sequence attains its maximum over k >= 1."""
    spectrum._check_dimension(n)
    return 1 if n == 2 else critical_degree(n)


def equality_bidegree(n: int) -> Bidegree:
    """The unique bidegree whose eigenspace realizes the best constant."""
    spectrum._check_dimension(n)
    return Bidegree(0, 1) if n == 2 else Bidegree(n * n - 3 * n, 1)


def ratio(n: int, s, k: int) -> Fraction | float:
    """(1 + k(k+2n-2))^s / (4(k+n-2)^2); exact for integral s."""
    spectrum._check_dimension(n)
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"degree must be a positive integer, got {k}")
    return spectrum.power(k * (k + 2 * n - 2) + 1, s) / (4 * (k + n - 2) ** 2)


@dataclass(frozen=True)
class RatioPoint:
    k: int
    value: Fraction | float


def ratio_series(n: int, s, k_max: int) -> list[RatioPoint]:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return [RatioPoint(k, ratio(n, s, k)) for k in range(1, k_max + 1)]


def is_bounded(n: int, s) -> bool:
    """The ratio sequence is bounded in k iff s <= 1 (exact comparison)."""
    spectrum._check_dimension(n)
    if isinstance(s, float):
        return s <= 1.0
    return Fraction(s) <= 1


def decreasing_tail_certificate(n: int) -> int:
    """Certify that the t = 1 ratio sequence strictly decreases beyond the
    critical degree, by verifying the derivative-numerator identity

        (2k + b)(k + c) - 2(k^2 + bk + 1) = -2(k - (n^2-3n+1)),
        b = 2n-2, c = n-2,

    coefficient by coefficient in exact integers.  Returns the critical
    degree.  Since the numerator is linear with slope -2, the ratio is
    strictly decreasing on [max(k*, 1), infinity); combined with an exact
    scan up to any point past k*, the global maximum is certified.
    """
    spectrum._check_dimension(n)
    b = 2 * n - 2
    c = n - 2
    # (2k + b)(k + c) - 2(k^2 + bk + 1), expanded: quadratic, linear, constant
    quad = 2 - 2
    lin = 2 * c + b - 2 * b
    const = b * c - 2
    k_star = critical_degree(n)
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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "c_squared": fraction_to_string(self.c_squared),
            "argmax_k": self.argmax_k,
            "equality_bidegrees": [{"p": d.p, "q": d.q} for d in self.equality_bidegrees],
            "matches_theorem_display": self.matches_theorem_display,
            "matches_proof_display": self.matches_proof_display,
        }


def best_constant(n: int, scan_max: int | None = None) -> BestConstantReport:
    """Exact maximum of the t = 1 ratio sequence, with equality locus and
    comparison flags for the two circulating closed-form displays.

    The scan window must extend at least n^2 past the critical degree so the
    certified decreasing tail provably brackets the maximum.
    """
    spectrum._check_dimension(n)
    required = max(1, critical_degree(n)) + n * n
    if scan_max is None:
        scan_max = required
    if scan_max < required:
        raise ValueError(
            f"scan_max={scan_max} cannot bracket the maximum; need at least {required}"
        )
    k_star = decreasing_tail_certificate(n)

    best_k = 1
    best_value = ratio(n, 1, 1)
    for k in range(2, scan_max + 1):
        value = ratio(n, 1, k)
        if value == best_value:
            raise RuntimeError(f"unexpected tie in ratio sequence at k={k}, n={n}")
        if value > best_value:
            best_k, best_value = k, value
    if best_k >= scan_max:
        raise RuntimeError("maximum at the scan boundary; scan_max margin violated")
    # the certified tail decreases beyond k_star, so the windowed scan is global
    if best_k != max(k_star, 1):
        raise RuntimeError(
            f"scan argmax {best_k} disagrees with the certified critical degree "
            f"{max(k_star, 1)} at n={n}"
        )

    c_squared = best_value
    return BestConstantReport(
        n=n,
        c_squared=c_squared,
        argmax_k=best_k,
        equality_bidegrees=(equality_bidegree(n),),
        matches_theorem_display=c_squared == theorem_display_c_squared(n),
        matches_proof_display=c_squared == proof_display_c_squared(n),
    )


@dataclass(frozen=True)
class GainCertificate:
    """Exact record of || G f ||_{s+1}^2 <= c^2 || f ||_s^2 for one input."""

    n: int
    s: int
    green_norm_squared: Fraction
    bound: Fraction
    ratio: Fraction | None
    holds: bool
    equality: bool
    in_equality_locus: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "green_norm_squared": fraction_to_string(self.green_norm_squared),
            "bound": fraction_to_string(self.bound),
            "ratio": fraction_to_string(self.ratio) if self.ratio is not None else None,
            "holds": self.holds,
            "equality": self.equality,
            "in_equality_locus": self.in_equality_locus,
        }


def sobolev_gain_certificate(n: int, f: Polynomial, s: int = 0) -> GainCertificate:
    """Compare || G f ||_{s+1}^2 against c^2 || f ||_s^2, both exact rationals.

    The inequality is a theorem, so a violation raises rather than being
    reported.  Equality holds exactly when every surviving component of f
    sits in the equality eigenspace (single bidegree (n^2-3n, 1), or (0, 1)
    for n = 2); membership is decided through the exact decomposition.
    """
    spectrum._check_dimension(n)
    if f.n != n:
        raise ValueError(f"polynomial lives on C^{f.n}, expected C^{n}")
    s_int = spectrum._integral_exponent(s)
    if s_int is None or s_int < 0:
        raise ValueError(f"gain certificates require a nonnegative integer s, got {s}")

    c_squared = best_constant(n).c_squared
    dec = decompose(f)
    green_f = apply(dec, lambda d: green_symbol(n, d)).as_polynomial()
    lhs = sobolev_norm_squared(green_f, s_int + 1)
    rhs = c_squared * weighted_norm_squared(dec, lambda d: sobolev_symbol(n, s_int, d))
    if lhs > rhs:
        raise RuntimeError(
            f"gain inequality violated ({lhs} > {rhs}); exact arithmetic is broken"
        )
    locus = equality_bidegree(n)
    return GainCertificate(
        n=n,
        s=s_int,
        green_norm_squared=lhs,
        bound=rhs,
        ratio=lhs / rhs if rhs else None,
        holds=True,
        equality=lhs == rhs,
        in_equality_locus=dec.bidegrees() == (locus,),
    )
