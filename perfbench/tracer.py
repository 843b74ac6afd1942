"""Spans and counters recorded around the library's public functions.

The traced run installs a wrapper around every public function of each
layer module, in every namespace of the package that bound the function
(``from .polynomials import ambient_laplacian`` binds it in ``operators``
and ``harmonic_spaces`` too), and restores the originals afterwards.  The
library itself is not modified.

A span is (name, start, end, parent, op id), stored in flat arrays so that
the ~10^6 spans of one pass stay small in memory; they are written out when
the run ends.  ``ExactScalar`` arithmetic runs millions of times per pass,
so it is counted (``polynomials.ExactScalar.calls``) but gets no span, and
neither does its coercion helper ``as_scalar``: their time lands in the self
time of the enclosing span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
from array import array
from time import perf_counter

LAYERS = ("polynomials", "spectrum", "harmonic_spaces", "operators", "schatten", "sobolev", "cli")

# The CLI's public interface is its entry point; the cmd_* handlers are
# dispatched from it, so their parsing and emission count as main's self time.
_ONLY = {"cli": ("main",)}
_COUNTED_ONLY = {"polynomials": ("as_scalar",)}
_SCALAR_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "conjugate", "norm_squared",
)

# Which end-to-end metric each per-layer metric should move, and on which
# workload.  The names are also the exact set the traced run reports.
TARGETS = {
    "cli.main.self_s": "op_p50_ms on green_solve",
    "polynomials.polynomial_from_dict.self_s": "op_p50_ms on green_solve",
    "polynomials.polynomial_to_dict.self_s": "op_p50_ms on green_solve",
    "operators.decompose.calls": "ops_per_s on green_solve",
    "operators.decompose.self_s": "ops_per_s on green_solve",
    "operators.decompose.per_op": "ops_per_s on green_solve",
    "polynomials.mul.calls": "ops_per_s on green_solve and oracle_verify",
    "polynomials.mul.self_s": "ops_per_s on green_solve and oracle_verify",
    "polynomials.ambient_laplacian.calls": "ops_per_s on green_solve and oracle_verify",
    "polynomials.ambient_laplacian.self_s": "ops_per_s on green_solve and oracle_verify",
    "polynomials.bidegree_split.calls": "ops_per_s on green_solve and oracle_verify",
    "polynomials.bidegree_split.self_s": "ops_per_s on green_solve and oracle_verify",
    "polynomials.ExactScalar.calls": "ops_per_s on green_solve and oracle_verify",
    "polynomials.sphere_inner_product.calls": "ops_per_s on oracle_verify",
    "polynomials.sphere_inner_product.self_s": "ops_per_s on oracle_verify",
    "harmonic_spaces.verify_eigen_identities.self_s": "ops_per_s on oracle_verify",
    "harmonic_spaces.verify_eigen_identities.pairs": "ops_per_s on oracle_verify",
    "harmonic_spaces.orthonormalize.self_s": "ops_per_s on oracle_verify",
    "harmonic_spaces.harmonic_basis.calls": "op_p50_ms on oracle_verify",
    "harmonic_spaces.harmonic_basis.self_s": "op_p50_ms on oracle_verify",
    "harmonic_spaces.harmonic_basis.matrix_entries": "op_p50_ms on oracle_verify",
    "sobolev.sobolev_gain_certificate.calls": "ops_per_s on oracle_verify",
    "sobolev.sobolev_gain_certificate.self_s": "ops_per_s on oracle_verify",
    "sobolev.best_constant.calls": "ops_per_s on oracle_verify",
    "spectrum.multiplicity.calls": "ops_per_s on schatten_exact and schatten_float",
    "spectrum.multiplicity.self_s": "ops_per_s on schatten_exact and schatten_float",
    "schatten.partial_sum.calls": "ops_per_s on schatten_exact and schatten_float",
    "schatten.partial_sum.self_s": "ops_per_s on schatten_exact and schatten_float",
    "schatten.partial_sum.terms": "ops_per_s on schatten_exact and schatten_float",
    "schatten.tail_upper_bound.self_s": "ops_per_s on schatten_float",
    "schatten.tail_lower_bound.self_s": "ops_per_s on schatten_float",
    "schatten.schatten_report.self_s": "ops_per_s on schatten_float",
    "schatten.lower_bound_sum.calls": "ops_per_s on schatten_float",
    "schatten.lower_bound_sum.self_s": "ops_per_s on schatten_float",
    "schatten.doublings": "ops_per_s on schatten_float",
    **{f"{layer}.errors": "ops_per_s on every workload" for layer in LAYERS},
    "trace.overhead_frac": "none (cost of tracing itself)",
}


def _harmonic_matrix_entries(arguments, result) -> int:
    """Size of the Laplacian matrix whose kernel harmonic_basis extracts."""
    n, (p, q) = arguments["n"], arguments["d"]
    if p == 0 or q == 0:
        return 0
    cols = math.comb(p + n - 1, n - 1) * math.comb(q + n - 1, n - 1)
    rows = math.comb(p + n - 2, n - 1) * math.comb(q + n - 2, n - 1)
    return rows * cols


def _orthogonality_pairs(arguments, result) -> int:
    """Cross-cell inner products in verify_eigen_identities' orthogonality sweep."""
    dims = [cell.dimension for cell in result.cells]
    return (sum(dims) ** 2 - sum(d * d for d in dims)) // 2


def _partial_sum_terms(arguments, result) -> int:
    return (arguments["P"] + 1) * arguments["Q"]


# Work counters derived from a call's arguments and result.
_WORK = {
    "harmonic_spaces.harmonic_basis": ("matrix_entries", _harmonic_matrix_entries),
    "harmonic_spaces.verify_eigen_identities": ("pairs", _orthogonality_pairs),
    "schatten.partial_sum": ("terms", _partial_sum_terms),
}


def public_functions(layer: str, module) -> list[str]:
    """The names the traced run wraps in one layer module."""
    if layer in _ONLY:
        return list(_ONLY[layer])
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    skip = _COUNTED_ONLY.get(layer, ())
    return [
        name
        for name in names
        if name not in skip
        and inspect.isfunction(getattr(module, name))
        and getattr(module, name).__module__ == module.__name__
    ]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_error: BaseException | None = None

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installation ---------------------------------------------------

    def install(self, package, layers: dict[str, object]) -> None:
        """Wrap every public function of ``layers`` wherever the package bound it."""
        wrappers: dict[int, object] = {}
        for layer, module in layers.items():
            for fname in public_functions(layer, module):
                fn = getattr(module, fname)
                wrappers[id(fn)] = self._span_wrapper(f"{layer}.{fname}", layer, fn)
        for namespace in (package, *layers.values()):
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(namespace, attr, wrapper)

        polynomials = layers["polynomials"]
        self._patch(
            polynomials.Polynomial, "__mul__",
            self._span_wrapper("polynomials.mul", "polynomials", polynomials.Polynomial.__mul__),
        )
        scalar = polynomials.ExactScalar
        for method in _SCALAR_METHODS:
            self._patch(scalar, method, self._counting_wrapper(getattr(scalar, method)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counting_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["polynomials.ExactScalar.calls"] = counts.get("polynomials.ExactScalar.calls", 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, span: str, layer: str, fn):
        nid = len(self.span_names)
        self.span_names.append(span)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack = self._stack
        work = _WORK.get(span)
        signature = inspect.signature(fn) if work else None
        error_key = f"{layer}.errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    self.count(error_key)
                raise
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if work:
                key, measure = work
                arguments = signature.bind(*args, **kwargs).arguments
                self.count(f"{span}.{key}", measure(arguments, result))
            if span == "cli.main" and result != 0:
                self.count(error_key)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def span_stats(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time in seconds)."""
        n = len(self.start)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.span_names)
        self_s = [0.0] * len(self.span_names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.span_names)}

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line of a gzip file:
        index, name, start and end (perf_counter seconds), parent index, op."""
        names = self.span_names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )
