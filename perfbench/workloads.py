"""The four benchmark workloads: their inputs, their ops and their output checks.

Every workload is a fixed, ordered list of ops built from the seed.  An op
calls the library the way a user would -- ``cli.main`` in-process for the
CLI subcommands, the public functions otherwise -- through the attributes
of ``lib`` at call time (the runner re-imports the library between passes),
and returns the raw output; ``check`` then decides whether that output is correct and returns
the exact part of it that feeds the per-workload SHA-256.  Float fields are
never hashed: they are checked by containment only.

The checks use references owned by the benchmark (closed-form
multiplicities, a separable evaluation of the Schatten partial sum, the
zeta closed form on S^3), so a library change cannot also change what
counts as correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable


@dataclass
class Op:
    """One request of the closed loop."""

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    counters: Callable[[Any], dict[str, int]] = field(default=lambda out: {})


class CheckFailed(Exception):
    """An op's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_cli(lib, argv: list[str]) -> tuple[int, str, str]:
    """``kohn-spectra <argv>`` in-process: (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = lib.cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def _cli_json(output: tuple[int, str, str]) -> dict:
    status, text, error = output
    _require(status == 0, f"exit status {status}: {error.strip()}")
    return json.loads(text)


def _frac_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def multiplicity(n: int, p: int, q: int) -> int:
    """dim of the bidegree-(p, q) harmonic space on S^{2n-1} (binomial form)."""
    num = (p + q + n - 1) * math.comb(p + n - 2, n - 2) * math.comb(q + n - 2, n - 2)
    return num // (n - 1)


def _polynomial_text(poly) -> str:
    return ";".join(
        f"{list(alpha)}{list(beta)}{_frac_text(c.re)},{_frac_text(c.im)}"
        for (alpha, beta), c in sorted(poly.terms.items())
    )


# -- green_solve ------------------------------------------------------------


def _composition(rng: random.Random, n: int, total: int) -> list[int]:
    out = [0] * n
    for _ in range(total):
        out[rng.randrange(n)] += 1
    return out


def _gaussian_rational(rng: random.Random) -> tuple[Fraction, Fraction]:
    return (
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    )


def random_input(shapes: random.Random, coefficients: random.Random, index: int) -> dict:
    """One green-solve input in the CLI's JSON form.

    The support comes from ``shapes``: the ambient dimension cycles through
    2, 3, 4, every fourth input has total degree 7 instead of 5, the term
    count cycles through 1..6, and term t has total degree ``degree - t``
    with random exponents.  The nonzero coefficients, small Gaussian
    rationals, come from ``coefficients``.
    """
    n = (2, 3, 4)[index % 3]
    degree = 7 if index % 4 == 3 else 5
    terms = []
    for t in range(1 + (index // 12) % 6):
        k = degree - t
        p = shapes.randint(0, k)
        alpha, beta = _composition(shapes, n, p), _composition(shapes, n, k - p)
        re, im = _gaussian_rational(coefficients)
        if not (re or im):
            re = Fraction(1)
        terms.append({"alpha": alpha, "beta": beta, "re": _frac_text(re), "im": _frac_text(im)})
    return {"n": n, "terms": terms}


def _check_green(output) -> str:
    obj = _cli_json(output)
    _require(obj["residual"] == "0/1", f"residual {obj['residual']} != 0/1")
    return output[1]


# The supports of the green_solve inputs are the same for every seed, so
# that every run does comparable work; the seed draws the coefficients and
# the order in which the inputs are sent.
SHAPE_SEED = 20191021


def green_solve(lib, seed: int, scale: str, workdir: str) -> list[Op]:
    count = {"full": 432, "tiny": 24}[scale]
    shapes, rng = random.Random(SHAPE_SEED), random.Random(seed)
    inputs = [random_input(shapes, rng, i) for i in range(count)]
    rng.shuffle(inputs)
    ops = []
    for i, obj in enumerate(inputs):
        path = os.path.join(workdir, f"input-{i:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        argv = ["green-solve", "--n", str(obj["n"]), "--input", path]
        ops.append(Op(f"green-solve {i}", lambda argv=argv: run_cli(lib, argv), _check_green))
    return ops


# -- oracle_verify ------------------------------------------------------------


def _check_verify(output) -> str:
    obj = _cli_json(output)
    _require(obj["passed"] is True, "verify did not pass")
    return output[1]


def _check_basis(n: int, p: int, q: int, orthogonal: bool):
    def check(basis) -> str:
        expected = multiplicity(n, p, q)
        _require(len(basis.elements) == expected, f"dimension {len(basis.elements)} != {expected}")
        text = "\n".join(_polynomial_text(h) for h in basis.elements)
        if orthogonal:
            _require(all(v > 0 for v in basis.squared_norms), "non-positive squared norm")
            text += "\n" + ",".join(_frac_text(v) for v in basis.squared_norms)
        return text

    return check


def oracle_verify(lib, seed: int, scale: str, workdir: str) -> list[Op]:
    """The kernel oracle: two ``verify`` runs, one large RREF, one Gram-Schmidt."""
    if scale == "full":
        verify = [(3, 5), (4, 5)]
        basis, ortho = (4, (4, 4)), (3, (4, 4))
    else:
        verify = [(2, 3), (3, 2)]
        basis, ortho = (3, (2, 2)), (2, (2, 2))
    ops = []
    for n, degree in verify:
        argv = ["verify", "--n", str(n), "--max-degree", str(degree)]
        ops.append(Op(f"verify n={n} max_degree={degree}", lambda argv=argv: run_cli(lib, argv), _check_verify))
    n, d = basis
    ops.append(
        Op(f"harmonic_basis n={n} {d}", lambda: lib.harmonic_spaces.harmonic_basis(n, d),
           _check_basis(n, *d, False))
    )
    m, e = ortho
    ops.append(
        Op(f"orthonormalize n={m} {e}",
           lambda: lib.harmonic_spaces.orthonormalize(lib.harmonic_spaces.harmonic_basis(m, e)),
           _check_basis(m, *e, True))
    )
    return ops


# -- schatten_exact and schatten_float -----------------------------------------


def separable_partial_sum(n: int, r: int, P: int, Q: int) -> Fraction:
    """The exact partial sum through its rank-2 separable form.

    m_{p,q} / (2q(p+n-1))^r with p+q+n-1 = (p+n-1) + q splits into
    (A1 B1 + A2 B2) / ((n-1) 2^r) over 1-D sums of C(x+n-2, n-2).
    """
    c = [math.comb(x + n - 2, n - 2) for x in range(max(P, Q) + 1)]
    a1 = sum(Fraction(c[p], (p + n - 1) ** (r - 1)) for p in range(P + 1))
    a2 = sum(Fraction(c[p], (p + n - 1) ** r) for p in range(P + 1))
    b1 = sum(Fraction(c[q], q**r) for q in range(1, Q + 1))
    b2 = sum(Fraction(c[q], q ** (r - 1)) for q in range(1, Q + 1))
    return (a1 * b1 + a2 * b2) / ((n - 1) * 2**r)


_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
    Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
)


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin from N = 20 (error < 1e-15)."""
    big_n = 20
    total = math.fsum(k**-s for k in range(1, big_n))
    total += big_n ** (1 - s) / (s - 1) + big_n**-s / 2
    rising = s
    for j, b in enumerate(_BERNOULLI, 1):
        total += float(b) / math.factorial(2 * j) * rising * big_n ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def s3_closed_form(r: float) -> float:
    """||G||_r^r on S^3 (n = 2): 2^{1-r} zeta(r) zeta(r-1)."""
    return 2.0 ** (1 - r) * zeta(r) * zeta(r - 1)


def _check_schatten(n: int, r: Fraction, P: int, Q: int):
    def check(output) -> str:
        obj = _cli_json(output)
        _require(obj["verdict"] == "Converges", f"verdict {obj['verdict']}")
        if r.denominator == 1:
            expected = separable_partial_sum(n, r.numerator, P, Q)
            _require(Fraction(obj["partial_sum"]) == expected, "partial_sum != separable form")
        if n == 2:
            value = s3_closed_form(float(r))
            low = obj["partial_sum_float"] + obj["tail_lower_float"]
            high = obj["partial_sum_float"] + obj["tail_upper_float"]
            _require(low <= value <= high, f"closed form {value} outside [{low}, {high}]")
        return json.dumps({k: v for k, v in obj.items() if not k.endswith("_float")}, sort_keys=True)

    return check


def _schatten_ops(lib, orders: list[tuple[int, Fraction]], cutoff: int) -> list[Op]:
    ops = []
    for n, r in orders:
        argv = ["schatten", "--n", str(n), "--r", str(r), "--cutoff-p", str(cutoff), "--cutoff-q", str(cutoff)]
        ops.append(
            Op(f"schatten n={n} r={r} P=Q={cutoff}", lambda argv=argv: run_cli(lib, argv),
               _check_schatten(n, r, cutoff, cutoff))
        )
    return ops


def schatten_exact(lib, seed: int, scale: str, workdir: str) -> list[Op]:
    """Exact reports at integer r = n+1."""
    cutoff = {"full": 400, "tiny": 20}[scale]
    return _schatten_ops(lib, [(n, Fraction(n + 1)) for n in (2, 3, 4)], cutoff)


def _divergence_witness(lib, n: int, growth: int) -> tuple[int, float, float]:
    """Double the cutoff of the r = n lower bound until it grows ``growth``-fold."""
    base = lib.schatten.lower_bound_sum(n, n, 100, 100)
    cutoff, doublings, value = 100, 0, base
    while value <= growth * base and doublings < 80:
        cutoff *= 2
        doublings += 1
        value = lib.schatten.lower_bound_sum(n, n, cutoff, cutoff)
    return doublings, base, value


def _check_witness(growth: int):
    def check(output) -> str:
        doublings, base, value = output
        _require(value > growth * base and doublings < 80, f"no {growth}x growth in {doublings} doublings")
        return f"doublings {doublings}"

    return check


def schatten_float(lib, seed: int, scale: str, workdir: str) -> list[Op]:
    """Float reports at r = n+1/2, and the r = n divergence witness of criterion 5."""
    cutoff, growth = {"full": (400, 10), "tiny": (20, 2)}[scale]
    ops = _schatten_ops(lib, [(n, Fraction(2 * n + 1, 2)) for n in (2, 3, 4)], cutoff)
    for n in (2, 3):
        ops.append(
            Op(f"divergence n={n} growth={growth}", lambda n=n: _divergence_witness(lib, n, growth),
               _check_witness(growth), lambda out: {"schatten.doublings": out[0]})
        )
    return ops


# Only green_solve draws its inputs from the seed.  The other workloads are
# fixed problems (verify runs with its default seed), so their exact outputs
# are pinned for every seed.
SEEDED = {"green_solve"}

WORKLOADS = {
    "green_solve": green_solve,
    "oracle_verify": oracle_verify,
    "schatten_exact": schatten_exact,
    "schatten_float": schatten_float,
}
