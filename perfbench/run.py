"""Benchmark of the kohn-spectra library: one closed-loop client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload green_solve --seed 0 --seconds 25 --trace 0

The run imports the library from ``src/`` and builds the workload's inputs
from the seed, writing them under ``perfbench/out/`` (the set-up, done
SETUP_REPEATS times; the median is ``setup_s``).  It then sends the
workload's fixed op list through the library one op at a time, in whole
passes, until the next pass would end after ``--seconds``.  Every output is
checked (see workloads.py); an op that raises, exits nonzero or fails its
check counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
traced pass and one untraced pass, prints the per-layer metrics of the
traced pass (see tracer.py) and writes its spans to
``perfbench/out/<workload>/spans.tsv.gz``.  In either mode the exact outputs
of all passes must be byte-identical.

Times are in reference seconds.  The shared machine this benchmark was
built on changes speed by 20-30 % from one second to the next, and the
slowdown hits all interpreter work alike, so a signal handler times a small
fixed kernel owned by the benchmark every SAMPLE_EVERY_S, and each op's
duration (net of the handler's own time) is rescaled to a machine on which
that kernel takes REFERENCE_KERNEL_S, using the kernel's mean speed over the op
and the WINDOW_S before it.  The library never runs the kernel, so a
change to the library moves the rescaled times as it moves the wall-clock
ones; the raw wall-clock figures are printed too.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, TARGETS, Tracer  # noqa: E402
from workloads import SEEDED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
DEFAULT_SEED = 0
# op_p90_ms is printed only when one run has enough ops for ten samples to
# lie above the 90th percentile.
P90_MIN_OPS = 100
REFERENCE_KERNEL_S = 0.35e-3
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.25


# -- machine speed ----------------------------------------------------------


def _kernel() -> None:
    """Exact rational and float arithmetic in plain Python, like the library's loops."""
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(k % 7 - 3, k)
    x = 0.0
    for k in range(1, 1000):
        x += k**-1.5


class SpeedSampler:
    """Times the reference kernel every SAMPLE_EVERY_S, from a SIGALRM handler.

    The handler runs in the main thread between two bytecodes of whatever
    is being measured; ``stolen`` accumulates the time it took, which the
    op timings subtract.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.stolen = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.at.append(t1)
        self.kernel_s.append(t1 - t0)
        self.stolen += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        for _ in range(3):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start - WINDOW_S, end].

        The mean of the kernel's speed, not of its time: a sample that was
        preempted counts as a moment of near-zero speed, not as an outlier
        that dominates the window.
        """
        window = self.kernel_s[bisect_left(self.at, start - WINDOW_S): bisect_right(self.at, end)]
        window = window or self.kernel_s[-3:]
        return REFERENCE_KERNEL_S * statistics.fmean(1 / k for k in window)


class Timeline:
    """Durations of one kind of work, in wall seconds and in reference seconds."""

    def __init__(self, sampler: SpeedSampler) -> None:
        self.sampler = sampler
        self.raw: list[float] = []
        self.ref: list[float] = []

    def time(self, fn):
        """Call ``fn`` and record how long it took, net of the sampler's time."""
        stolen, t0 = self.sampler.stolen, perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self.raw.append(t1 - t0 - (self.sampler.stolen - stolen))
            self.ref.append(self.raw[-1] * self.sampler.scale(t0, t1))


# -- set-up -------------------------------------------------------------------


class Library:
    """The kohn_spectra package and its layer modules, as attributes."""

    def __init__(self) -> None:
        self.reload()

    def reload(self) -> None:
        """Import the library afresh, dropping the earlier import and its caches."""
        for name in [m for m in sys.modules if m == "kohn_spectra" or m.startswith("kohn_spectra.")]:
            del sys.modules[name]
        self.package = importlib.import_module("kohn_spectra")
        self.layers = {layer: importlib.import_module(f"kohn_spectra.{layer}") for layer in LAYERS}
        for layer, module in self.layers.items():
            setattr(self, layer, module)


def setup(workload: str, seed: int, scale: str, workdir: Path, sampler: SpeedSampler):
    """Import the library and build the inputs SETUP_REPEATS times; keep the last."""
    timeline = Timeline(sampler)
    workdir.mkdir(parents=True, exist_ok=True)

    def once():
        lib = Library()
        return lib, WORKLOADS[workload](lib, seed, scale, str(workdir))

    for _ in range(SETUP_REPEATS):
        gc.collect()
        lib, ops = timeline.time(once)
    return lib, ops, timeline


# -- passes -------------------------------------------------------------------


class Pass:
    """One pass over the op list: timings, then the checks of its outputs.

    Every pass starts from a freshly imported library and a collected heap,
    so that each pass pays the same cold caches however many passes a run
    fits in.  The outputs are dropped once checked, so that the number of
    passes does not change the peak memory either.
    """

    def __init__(self, ops, lib: Library, sampler: SpeedSampler, tracer: Tracer | None = None) -> None:
        lib.reload()
        gc.collect()
        self.timeline = Timeline(sampler)
        outputs = []
        if tracer is not None:
            tracer.install(lib.package, lib.layers)
        try:
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op_id = i
                outputs.append(self.timeline.time(lambda: _attempt(op)))
        finally:
            if tracer is not None:
                tracer.uninstall()

        digest = hashlib.sha256()
        self.failed, self.messages, self.counts = 0, [], {}
        for op, out in zip(ops, outputs):
            try:
                if isinstance(out, Exception):
                    raise out
                exact = op.check(out)
                for key, value in op.counters(out).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            except Exception as exc:
                self.failed += 1
                self.messages.append(f"{op.key}: {type(exc).__name__}: {exc}")
                exact = f"FAILED {type(exc).__name__}"
            digest.update(f"{op.key}\n{exact}\n".encode())
        self.digest = digest.hexdigest()


def _attempt(op):
    try:
        return op.run()
    except Exception as exc:  # a failed op is counted, not fatal
        return exc


def measure(ops, lib: Library, seconds: float, sampler: SpeedSampler) -> list[Pass]:
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(Pass(ops, lib, sampler))
        now = perf_counter()
        if now - begin + (now - t0) > seconds:
            return passes


# -- metrics ------------------------------------------------------------------


def end_to_end(passes: list[Pass], setup_timeline: Timeline, human: list[str]) -> dict:
    raw = sorted(t for p in passes for t in p.timeline.raw)
    ref = sorted(t for p in passes for t in p.timeline.ref)
    human.append(f"passes {len(passes)}, ops {len(ref)}, busy {sum(raw):.3f} s wall")
    human.append(f"machine_speed {sum(ref) / sum(raw)} reference s per wall s")
    human.append(f"wall_setup_s {statistics.median(setup_timeline.raw)} s")
    human.append(f"wall_ops_per_s {len(raw) / sum(raw)} 1/s")
    human.append(f"wall_op_p50_ms {statistics.median(raw) * 1e3} ms")
    human.append(f"failed_frac {sum(p.failed for p in passes) / len(ref)} ratio")
    if len(ref) >= P90_MIN_OPS:
        human.append(f"op_p90_ms {statistics.quantiles(ref, n=10)[8] * 1e3} ms")
    return {
        "setup_s": (statistics.median(setup_timeline.ref), "s"),
        "ops_per_s": (len(ref) / sum(ref), "1/s"),
        "op_p50_ms": (statistics.median(ref) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(ops, traced: Pass, plain: Pass, tracer: Tracer) -> dict:
    # span times are rescaled like the op latencies they are part of
    scale = sum(traced.timeline.ref) / sum(traced.timeline.raw)
    stats = tracer.span_stats()
    counts = {**tracer.counts, **traced.counts}
    metrics = {}
    for name in TARGETS:
        head, _, stat = name.rpartition(".")
        calls, self_s = stats.get(head, (0, 0.0))
        if name == "trace.overhead_frac":
            metrics[name] = (sum(traced.timeline.ref) / sum(plain.timeline.ref) - 1, "ratio")
        elif stat == "self_s":
            metrics[name] = (self_s * scale, "s")
        elif stat == "per_op":
            metrics[name] = (calls / len(ops), "count/op")
        elif stat == "calls" and head in stats:
            metrics[name] = (calls, "count")
        else:
            metrics[name] = (counts.get(name, 0), "count")
    return metrics


# -- command line ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op, for the smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "kohn_spectra" / "__init__.py").is_file():
        sys.stderr.write(f"kohn_spectra sources not found under {src}\n")
        return 2
    sys.path.insert(0, str(src))
    workdir = HERE / "out" / args.workload

    human = [f"workload {args.workload}, seed {args.seed}, scale {args.scale}"]
    with SpeedSampler() as sampler:
        lib, ops, setup_timeline = setup(args.workload, args.seed, args.scale, workdir, sampler)
        if args.trace:
            tracer = Tracer()
            passes = [Pass(ops, lib, sampler, tracer), Pass(ops, lib, sampler)]
        else:
            passes = measure(ops, lib, args.seconds, sampler)
    human.append(f"{len(ops)} ops per pass")
    if args.trace:
        metrics = per_layer(ops, *passes, tracer)
        tracer.write_spans(workdir / "spans.tsv.gz")
        human.append(f"spans {len(tracer.start)} written to {(workdir / 'spans.tsv.gz').relative_to(ROOT)}")
    else:
        metrics = end_to_end(passes, setup_timeline, human)

    failed = sum(p.failed for p in passes)
    messages = [m for p in passes for m in p.messages]
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        messages.append("exact outputs differ between passes")
    digest = passes[0].digest
    human.append(f"exact_output_sha256 {digest}")
    expected = expected_digest(args.workload, args.scale, args.seed)
    if expected is not None and digest != expected:
        messages.append(f"exact outputs changed: sha256 {digest} != expected {expected}")
    for line in human:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for message in messages:
        print(f"FAILED {message}")
    result = {
        "correct": failed == 0 and not messages,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def expected_digest(workload: str, scale: str, seed: int) -> str | None:
    if workload in SEEDED and seed != DEFAULT_SEED:
        return None
    with open(HERE / "expected_sha256.json", encoding="utf-8") as fh:
        return json.load(fh)[scale].get(workload)


if __name__ == "__main__":
    sys.exit(main())
