"""Command-line front end: spectrum tables, operator application, Schatten
and Sobolev reports, and the bundled verification suite.

All exact rationals serialize as "numerator/denominator" strings; float
fields carry an explicit ``_float`` suffix.  Outputs are byte-identical for
identical inputs (stable orderings everywhere).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from . import harmonic_spaces, operators, schatten, sobolev, spectrum
from .polynomials import (
    Bidegree,
    FormatError,
    fraction_to_string,
    polynomial_from_dict,
    polynomial_to_dict,
    random_polynomial,
)


class CliError(Exception):
    """Structured CLI failure: message plus exit status."""

    def __init__(self, message: str, status: int = 1) -> None:
        super().__init__(message)
        self.status = status


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {output}: {exc}")
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _load_polynomial(path: str, n: int):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}")
    try:
        poly = polynomial_from_dict(obj)
    except FormatError as exc:
        raise CliError(f"{path}: {exc}")
    if poly.n != n:
        raise CliError(f"{path} is a polynomial on C^{poly.n}, but --n {n} was given")
    return poly


def _bidegree_str(d: Bidegree) -> str:
    return f"({d.p},{d.q})"


# -- subcommands ---------------------------------------------------------


def cmd_spectrum(args) -> int:
    aggregated = spectrum.aggregate_spectrum(args.n, args.cutoff)
    if args.format == "csv":
        if args.per_bidegree:
            rows = [
                [
                    str(e.bidegree.p),
                    str(e.bidegree.q),
                    str(e.eigenvalue.numerator),
                    str(e.eigenvalue.denominator),
                    str(e.multiplicity),
                ]
                for e in spectrum.spectrum_table(args.n, args.cutoff)
            ]
            text = _csv_text(
                ["p", "q", "eigenvalue_num", "eigenvalue_den", "multiplicity"], rows
            )
        else:
            rows = [
                [
                    str(e.eigenvalue.numerator),
                    str(e.eigenvalue.denominator),
                    str(e.multiplicity),
                    ";".join(_bidegree_str(d) for d in e.contributors),
                ]
                for e in aggregated.entries
            ]
            text = _csv_text(
                ["eigenvalue_num", "eigenvalue_den", "multiplicity", "contributors"], rows
            )
    else:
        obj = aggregated.to_json_dict()
        if args.per_bidegree:
            obj = {
                "n": args.n,
                "cutoff": fraction_to_string(Fraction(args.cutoff)),
                "entries": [
                    {
                        "p": e.bidegree.p,
                        "q": e.bidegree.q,
                        "eigenvalue": fraction_to_string(e.eigenvalue),
                        "multiplicity": e.multiplicity,
                    }
                    for e in spectrum.spectrum_table(args.n, args.cutoff)
                ],
            }
        text = _json_text(obj)
    _emit(text, args.output)
    return 0


def cmd_apply(args) -> int:
    poly = _load_polynomial(args.input, args.n)
    if args.operator == "boxb":
        result = operators.apply_boxb(poly)
    elif args.operator == "green":
        result = operators.apply_green(poly)
    elif args.operator == "hardy":
        result = operators.hardy_projection(poly)
    else:
        result = operators.apply_sobolev_power(poly, args.t)
    obj = {"operator": args.operator}
    if args.operator == "sobolev":
        obj["t"] = (
            fraction_to_string(args.t) if isinstance(args.t, Fraction) else args.t
        )
    obj["result"] = result.to_json_dict()
    _emit(_json_text(obj), args.output)
    return 0


def cmd_green_solve(args) -> int:
    poly = _load_polynomial(args.input, args.n)
    solution = operators.apply_green(poly).as_polynomial()
    hardy = operators.hardy_projection(poly).as_polynomial()
    residual = operators.residual_check(poly)
    obj = {
        "n": args.n,
        "solution": polynomial_to_dict(solution),
        "hardy_part": polynomial_to_dict(hardy),
        "residual": fraction_to_string(residual),
    }
    _emit(_json_text(obj), args.output)
    return 0


def cmd_schatten(args) -> int:
    report = schatten.schatten_report(args.n, args.r, args.cutoff_p, args.cutoff_q)
    if args.emit_plot:
        series = schatten.partial_sum_series(
            args.n, args.r, min(args.cutoff_p, args.cutoff_q)
        )
        rows = [[str(c), repr(v)] for c, v in series]
        _emit(_csv_text(["cutoff", "partial_sum_float"], rows), args.emit_plot)
    _emit(_json_text(report.to_json_dict()), args.output)
    return 0


def cmd_schatten_approx(args) -> int:
    value = schatten.approx_formula(args.n, args.r)
    obj = {"n": args.n, "r_float": float(args.r), "approx_value_float": value}
    _emit(_json_text(obj), args.output)
    return 0


def cmd_sobolev_constant(args) -> int:
    report = sobolev.best_constant(args.n, args.scan_max)
    _emit(_json_text(report.to_json_dict()), args.output)
    return 0


def cmd_ratio(args) -> int:
    points = sobolev.ratio_series(args.n, args.s, args.k_max)
    exact = isinstance(points[0].value, Fraction)
    if args.format == "csv":
        if exact:
            rows = [[str(pt.k), fraction_to_string(pt.value)] for pt in points]
            text = _csv_text(["k", "value"], rows)
        else:
            rows = [[str(pt.k), repr(pt.value)] for pt in points]
            text = _csv_text(["k", "value_float"], rows)
    else:
        entries = [
            {"k": pt.k, "value": fraction_to_string(pt.value)}
            if exact
            else {"k": pt.k, "value_float": pt.value}
            for pt in points
        ]
        text = _json_text(
            {
                "n": args.n,
                "s": fraction_to_string(args.s) if isinstance(args.s, Fraction) else args.s,
                "points": entries,
            }
        )
    _emit(text, args.output)
    return 0


def cmd_verify(args) -> int:
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # dimension, orthogonality, and eigen-identity oracle
    report = harmonic_spaces.verify_eigen_identities(args.n, args.max_degree)
    dims_ok = all(c.dimension == c.formula_dimension for c in report.cells)
    record(
        "dimension_oracle",
        dims_ok,
        f"{len(report.cells)} bidegree cells, kernel rank vs closed form",
    )
    record(
        "eigen_identities",
        all(c.harmonic_ok and c.bidegree_ok for c in report.cells),
        "harmonicity and Euler bidegree checks",
    )
    record(
        "orthogonality",
        report.orthogonality_ok,
        "cross-bidegree inner products vanish exactly",
    )

    # canonical-solution identity on seeded random polynomials
    rng = random.Random(args.seed)
    residual_ok = True
    for _ in range(args.samples):
        f = random_polynomial(rng, args.n, max_degree=min(args.max_degree, 5))
        if operators.residual_check(f) != 0:
            residual_ok = False
            break
    record(
        "green_roundtrip",
        residual_ok,
        f"{args.samples} seeded random polynomials, exact residual 0",
    )

    # termwise Schatten sandwich on a grid, integer orders n+1 and n+2
    sandwich_ok = True
    for r in (args.n + 1, args.n + 2):
        for p in range(args.n, 21):
            for q in range(1, 21):
                exact = schatten.schatten_term(args.n, r, p, q)
                if not (
                    schatten.lower_bound_term(args.n, r, p, q)
                    <= exact
                    <= schatten.upper_bound_term(args.n, r, p, q)
                ):
                    sandwich_ok = False
        for q in range(1, 21):
            for p in range(0, args.n):
                if schatten.schatten_term(args.n, r, p, q) > schatten.upper_bound_term(
                    args.n, r, p, q
                ):
                    sandwich_ok = False
    record("schatten_sandwich", sandwich_ok, "termwise bounds on the grid p,q <= 20")

    # Sobolev gain certificates: equality locus plus random strict cases
    gain_ok = True
    locus = sobolev.equality_bidegree(args.n)
    element = harmonic_spaces.harmonic_basis(args.n, locus).elements[0]
    cert = sobolev.sobolev_gain_certificate(args.n, element, 0)
    gain_ok &= cert.equality and cert.in_equality_locus
    for _ in range(max(args.samples // 4, 5)):
        f = random_polynomial(rng, args.n, max_degree=4)
        cert = sobolev.sobolev_gain_certificate(args.n, f, 0)
        gain_ok &= cert.holds
        if cert.equality and not cert.in_equality_locus and cert.bound:
            gain_ok = False
    record("sobolev_gain", gain_ok, "equality locus exact, random inputs bounded")

    passed = all(c["passed"] for c in checks)
    obj = {
        "n": args.n,
        "max_degree": args.max_degree,
        "seed": args.seed,
        "passed": passed,
        "checks": checks,
        "oracle_report": report.to_json_dict(),
    }
    _emit(_json_text(obj), args.output)
    return 0 if passed else 1


# -- parser ----------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, with_format: bool = False,
                default_format: str = "json") -> None:
    parser.add_argument("--n", type=int, required=True, help="ambient complex dimension (>= 2)")
    parser.add_argument("--output", help="write to this path instead of stdout")
    if with_format:
        parser.add_argument(
            "--format", choices=("json", "csv"), default=default_format,
            help=f"output format (default {default_format})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kohn-spectra",
        description="Exact spectral calculus for the Kohn Laplacian and complex "
        "Green operator on the unit sphere in C^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalue/multiplicity tables up to a cutoff")
    _add_common(p, with_format=True)
    p.add_argument("--cutoff", type=_fraction_arg, required=True, help="largest eigenvalue kept")
    p.add_argument(
        "--per-bidegree", action="store_true",
        help="one row per (p, q) instead of aggregating equal eigenvalues",
    )
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("apply", help="apply a spectral operator to a polynomial")
    _add_common(p)
    p.add_argument("--input", required=True, help="polynomial JSON file")
    p.add_argument(
        "--operator", choices=("boxb", "green", "hardy", "sobolev"), required=True
    )
    p.add_argument(
        "--t", type=_fraction_arg, default=Fraction(1),
        help="power for the sobolev operator (exact when an integer)",
    )
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("green-solve", help="canonical solution of boxb u = f with residual")
    _add_common(p)
    p.add_argument("--input", required=True, help="polynomial JSON file")
    p.set_defaults(func=cmd_green_solve)

    p = sub.add_parser("schatten", help="Schatten r-norm report with certified tail bracket")
    _add_common(p)
    p.add_argument("--r", type=_fraction_arg, required=True, help="Schatten order (>= 1)")
    p.add_argument("--cutoff-p", type=int, default=200)
    p.add_argument("--cutoff-q", type=int, default=200)
    p.add_argument("--emit-plot", help="write (cutoff, partial_sum) CSV to this path")
    p.set_defaults(func=cmd_schatten)

    p = sub.add_parser("schatten-approx", help="closed-form approximation of ||G||_r^r")
    _add_common(p)
    p.add_argument("--r", type=_fraction_arg, required=True, help="order (> n)")
    p.set_defaults(func=cmd_schatten_approx)

    p = sub.add_parser("sobolev-constant", help="best constant report with equality locus")
    _add_common(p)
    p.add_argument("--scan-max", type=int, default=None, help="exact scan window (defaulted safely)")
    p.set_defaults(func=cmd_sobolev_constant)

    p = sub.add_parser("ratio", help="the Sobolev ratio sequence (k, value)")
    _add_common(p, with_format=True, default_format="csv")
    p.add_argument("--s", type=_fraction_arg, required=True, help="Sobolev gain exponent")
    p.add_argument("--k-max", type=int, required=True)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("verify", help="run the full oracle bundle; nonzero exit on failure")
    _add_common(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--samples", type=int, default=25)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(_json_text({"error": str(exc)}))
        return exc.status
    except (ValueError, FormatError) as exc:
        sys.stderr.write(_json_text({"error": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
