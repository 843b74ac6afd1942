"""Command-line front end: spectrum tables, operator application, Schatten
and Sobolev reports, and the bundled verification suite.

The wire format is decided here alone; the library's reports are plain
dataclasses.  JSON is indented by 2, keys in a fixed order, with a final
newline.  An exact rational is "numerator/denominator", always with the
slash (``fraction_to_string``), and a polynomial is the ``--input`` form
``{"n", "terms": [{"alpha", "beta", "re", "im"}]}`` (``polynomial_to_dict``).
A bidegree is ``{"p", "q"}``.  A float field's key ends in ``_float``; an
infinite Schatten tail is "inf" and a missing approximation null.  CSV has
a header row and Unix line ends; a spectrum eigenvalue fills
``eigenvalue_num`` and ``eigenvalue_den``, its contributors "(p,q);(p,q)".
A failure, a usage error included, is one ``{"error": message}`` object on
stderr, exit status 1; only ``--help`` exits 0 without running a subcommand.
Outputs are byte-identical for identical inputs (stable orderings
everywhere).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import harmonic_spaces, operators, schatten, sobolev, spectrum
from .polynomials import (
    Bidegree,
    FormatError,
    _check_int,
    fraction_to_string,
    l2_norm_squared,
    polynomial_from_dict,
    polynomial_to_dict,
    random_polynomial,
)


class CliError(Exception):
    """Structured CLI failure, reported as a JSON error with exit status 1."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (a bad value, a missing flag, an
    unknown subcommand) raise CliError instead of printing usage and exiting 2;
    its subparsers are of the same class."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")


def _fraction_arg(text: str) -> Fraction:
    limit = sys.get_int_max_str_digits()  # int(str) refuses a longer digit run
    if limit and any(len(run) > limit for run in re.findall(r"\d+", text)):
        raise argparse.ArgumentTypeError(
            f"too many digits for a flag (a run of more than {limit}, the interpreter's "
            f"limit, sys.get_int_max_str_digits()): {text[:20]!r}..."
        )
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
    """``json.dumps(obj, indent=2)`` and a newline, byte for byte, for objects
    with str keys, without the pure-Python encoder that json.dumps runs
    whenever ``indent`` is set."""
    chunks: list[str] = []
    _write_json(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write_json(obj, newline: str, write) -> None:
    """Write obj at the indent ``newline`` ends with, dispatching on type(obj);
    a subclass is written as the first type in its MRO with a writer, so an
    IntEnum as an int and True as true."""
    kind = type(obj)
    writer = _WRITERS.get(kind) or next((_WRITERS[t] for t in kind.__mro__ if t in _WRITERS), None)
    if writer is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    writer(obj, newline, write)


def _write_array(obj, newline: str, write) -> None:
    if not obj:
        write("[]")
        return
    inner = newline + "  "
    sep = "[" + inner
    for value in obj:
        write(sep)
        _write_json(value, inner, write)
        sep = "," + inner
    write(newline + "]")


def _write_object(obj, newline: str, write) -> None:
    if not obj:
        write("{}")
        return
    inner = newline + "  "
    sep = "{" + inner
    for key, value in obj.items():
        write(sep + encode_basestring_ascii(key) + ": ")
        _write_json(value, inner, write)
        sep = "," + inner
    write(newline + "}")


def _write_float(obj, newline: str, write) -> None:
    if obj != obj:
        write("NaN")
    elif obj in (math.inf, -math.inf):
        write("Infinity" if obj > 0 else "-Infinity")
    else:
        write(float.__repr__(obj))


_WRITERS = {
    dict: _write_object,
    list: _write_array,
    tuple: _write_array,
    str: lambda obj, newline, write: write(encode_basestring_ascii(obj)),
    int: lambda obj, newline, write: write(int.__repr__(obj)),
    bool: lambda obj, newline, write: write("true" if obj else "false"),
    type(None): lambda obj, newline, write: write("null"),
    float: _write_float,
}


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
    except RecursionError:
        raise CliError(f"{path} is nested too deeply to decode as JSON")
    try:
        poly = polynomial_from_dict(obj)
    except FormatError as exc:
        raise CliError(f"{path}: {exc}")
    if poly.n != n:
        raise CliError(f"{path} is a polynomial on C^{poly.n}, but --n {n} was given")
    return poly


# -- report shapes ---------------------------------------------------------


def _bidegree(d: Bidegree) -> dict:
    return {"p": d.p, "q": d.q}


def _spectrum_csv_row(entry: dict) -> list[str]:
    """A spectrum entry's CSV cells in its key order: the eigenvalue as
    numerator and denominator, the contributors as "(p,q);(p,q)"."""
    cells = []
    for key, value in entry.items():
        if key == "eigenvalue":
            cells += value.split("/")
        elif key == "contributors":
            cells.append(";".join(f"({d['p']},{d['q']})" for d in value))
        else:
            cells.append(str(value))
    return cells


def _decomposition(dec) -> dict:
    """A spherical decomposition, with each component's float factor when
    the multiplier was irrational."""
    components = []
    for c in dec.components:
        component = {
            **_bidegree(c.bidegree),
            "polynomial": polynomial_to_dict(c.part),
            "norm_squared": fraction_to_string(l2_norm_squared(c.part)),
        }
        if isinstance(c, operators.FloatScaledComponent):
            component["factor_float"] = c.factor
        components.append(component)
    return {"n": dec.n, "components": components}


def _schatten_report(report: schatten.SchattenReport) -> dict:
    exact = isinstance(report.partial_sum, Fraction)
    return {
        "n": report.n,
        "r": fraction_to_string(report.r),
        "cutoff_p": report.cutoff_p,
        "cutoff_q": report.cutoff_q,
        **({"partial_sum": fraction_to_string(report.partial_sum)} if exact else {}),
        "partial_sum_float": float(report.partial_sum),
        "tail_upper_float": "inf" if math.isinf(report.tail_upper) else report.tail_upper,
        "tail_lower_float": "inf" if math.isinf(report.tail_lower) else report.tail_lower,
        "verdict": report.verdict,
        "approx_value_float": report.approx_value,
    }


def _oracle_report(report: harmonic_spaces.VerificationReport) -> dict:
    return {
        "n": report.n,
        "max_degree": report.max_degree,
        "passed": report.passed,
        "orthogonality_ok": report.orthogonality_ok,
        "cells": [
            {
                **_bidegree(c.bidegree),
                "dimension": c.dimension,
                "formula_dimension": c.formula_dimension,
                "harmonic_ok": c.harmonic_ok,
                "bidegree_ok": c.bidegree_ok,
                "boxb_eigenvalue": fraction_to_string(c.boxb_eigenvalue),
                "laplace_beltrami_eigenvalue": fraction_to_string(c.laplace_beltrami_eigenvalue),
                "ok": c.ok,
            }
            for c in report.cells
        ],
        "failures": list(report.failures),
    }


# -- subcommands ---------------------------------------------------------


def cmd_spectrum(args) -> int:
    if args.per_bidegree:
        header = ["p", "q", "eigenvalue_num", "eigenvalue_den", "multiplicity"]
        entries = [
            {
                **_bidegree(e.bidegree),
                "eigenvalue": fraction_to_string(e.eigenvalue),
                "multiplicity": e.multiplicity,
            }
            for e in spectrum.spectrum_table(args.n, args.cutoff)
        ]
    else:
        header = ["eigenvalue_num", "eigenvalue_den", "multiplicity", "contributors"]
        entries = [
            {
                "eigenvalue": fraction_to_string(e.eigenvalue),
                "multiplicity": e.multiplicity,
                "contributors": [_bidegree(d) for d in e.contributors],
            }
            for e in spectrum.aggregate_spectrum(args.n, args.cutoff).entries
        ]
    if args.format == "csv":
        text = _csv_text(header, [_spectrum_csv_row(e) for e in entries])
    else:
        obj = {"n": args.n, "cutoff": fraction_to_string(args.cutoff), "entries": entries}
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
        obj["t"] = fraction_to_string(args.t)
    obj["result"] = _decomposition(result)
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
    _emit(_json_text(_schatten_report(report)), args.output)
    return 0


def cmd_schatten_approx(args) -> int:
    value = schatten.approx_formula(args.n, args.r)
    obj = {"n": args.n, "r_float": float(args.r), "approx_value_float": value}
    _emit(_json_text(obj), args.output)
    return 0


def cmd_sobolev_constant(args) -> int:
    report = sobolev.best_constant(args.n)
    obj = {
        "n": report.n,
        "c_squared": fraction_to_string(report.c_squared),
        "argmax_k": report.argmax_k,
        "equality_bidegrees": [_bidegree(d) for d in report.equality_bidegrees],
        "matches_theorem_display": report.matches_theorem_display,
        "matches_proof_display": report.matches_proof_display,
    }
    _emit(_json_text(obj), args.output)
    return 0


def cmd_ratio(args) -> int:
    points = sobolev.ratio_series(args.n, args.s, args.k_max)
    if isinstance(points[0].value, Fraction):
        key, json_value, csv_value = "value", fraction_to_string, fraction_to_string
    else:
        key, json_value, csv_value = "value_float", float, repr
    if args.format == "csv":
        text = _csv_text(["k", key], [[str(pt.k), csv_value(pt.value)] for pt in points])
    else:
        entries = [{"k": pt.k, key: json_value(pt.value)} for pt in points]
        text = _json_text({"n": args.n, "s": fraction_to_string(args.s), "points": entries})
    _emit(text, args.output)
    return 0


def cmd_verify(args) -> int:
    _check_int("--samples", args.samples)
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
        for p in range(21):
            for q in range(1, 21):
                exact = schatten.schatten_term(args.n, r, p, q)
                if exact > schatten.upper_bound_term(args.n, r, p, q) or (
                    p >= args.n and schatten.lower_bound_term(args.n, r, p, q) > exact
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
        "oracle_report": _oracle_report(report),
    }
    _emit(_json_text(obj), args.output)
    return 0 if passed else 1


# -- parser ----------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, default_format: str | None = None) -> None:
    """--n and --output, and --format when the subcommand has a default format."""
    parser.add_argument("--n", type=int, required=True, help="ambient complex dimension (>= 2)")
    parser.add_argument("--output", help="write to this path instead of stdout")
    if default_format:
        parser.add_argument("--format", choices=("json", "csv"), default=default_format,
                            help=f"output format (default {default_format})")


def _spectrum_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, "json")
    p.add_argument("--cutoff", type=_fraction_arg, required=True, help="largest eigenvalue kept")
    p.add_argument("--per-bidegree", action="store_true",
                   help="one row per (p, q) instead of aggregating equal eigenvalues")


def _apply_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--input", required=True, help="polynomial JSON file")
    p.add_argument("--operator", choices=("boxb", "green", "hardy", "sobolev"), required=True)
    p.add_argument("--t", type=_fraction_arg, default=Fraction(1),
                   help="power for the sobolev operator (exact when an integer)")


def _green_solve_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--input", required=True, help="polynomial JSON file")


def _schatten_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--r", type=_fraction_arg, required=True, help="Schatten order (>= 1)")
    p.add_argument("--cutoff-p", type=int, default=200)
    p.add_argument("--cutoff-q", type=int, default=200)
    p.add_argument("--emit-plot", help="write (cutoff, partial_sum) CSV to this path")


def _schatten_approx_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--r", type=_fraction_arg, required=True, help="order (> n)")


def _ratio_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, "csv")
    p.add_argument("--s", type=_fraction_arg, required=True, help="Sobolev gain exponent")
    p.add_argument("--k-max", type=int, required=True)


def _verify_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--samples", type=int, default=25)


# name: (help, handler, the subparser's arguments), in the order --help lists them
_COMMANDS = {
    "spectrum": ("eigenvalue/multiplicity tables up to a cutoff", cmd_spectrum, _spectrum_args),
    "apply": ("apply a spectral operator to a polynomial", cmd_apply, _apply_args),
    "green-solve": ("canonical solution of boxb u = f with residual", cmd_green_solve, _green_solve_args),
    "schatten": ("Schatten r-norm report with certified tail bracket", cmd_schatten, _schatten_args),
    "schatten-approx": ("closed-form approximation of ||G||_r^r", cmd_schatten_approx, _schatten_approx_args),
    "sobolev-constant": ("best constant report with equality locus", cmd_sobolev_constant, _add_common),
    "ratio": ("the Sobolev ratio sequence (k, value)", cmd_ratio, _ratio_args),
    "verify": ("run the full oracle bundle; nonzero exit on failure", cmd_verify, _verify_args),
}


def _command_parser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give parser the arguments and handler of the subcommand ``name``."""
    _, handler, add_args = _COMMANDS[name]
    add_args(parser)
    parser.set_defaults(func=handler)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or ``command``'s own parser alone,
    which parses the arguments after the command's name.  The two are built
    alike, prog ``kohn-spectra <command>`` included, so the arguments after
    a subcommand's name parse, fail and print --help the same through either.
    One message differs: an unrecognized argument is reported by the parser
    that parsed it, ``kohn-spectra <command>: unrecognized arguments: ...``
    from the named parser, ``kohn-spectra: ...`` from the full one."""
    if command is not None:
        return _command_parser(_Parser(prog=f"kohn-spectra {command}"), command)
    parser = _Parser(
        prog="kohn-spectra",
        description="Exact spectral calculus for the Kohn Laplacian and complex "
        "Green operator on the unit sphere in C^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_text), name)
    return parser


# One parser per subcommand per process (and one with all of them); parse_args
# fills a fresh Namespace on every call.
_parser = functools.lru_cache(maxsize=9)(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run the command line argv (default sys.argv[1:]) and return its exit
    status.  When argv's first word names a subcommand, that subcommand's own
    parser reads the rest, so no other subcommand's parser is built; --help,
    an unknown command and no command go to the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = _parser(command).parse_args(argv if command is None else argv[1:])
        return args.func(args)
    except (CliError, ValueError) as exc:
        sys.stderr.write(_json_text({"error": str(exc)}))
        return 1
    except OverflowError as exc:
        sys.stderr.write(_json_text({"error": f"floating-point overflow: {exc}"}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
