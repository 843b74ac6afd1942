"""Smoke test of the benchmark at tiny size: python -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def runs():
    """(final JSON object, human-readable lines) per (workload, trace)."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            *lines, last = proc.stdout.splitlines()
            human = dict(line.split(" ", 1) for line in lines)
            out[workload, trace] = json.loads(last), human
    return out


def test_benchmark_json_lists_the_reported_metrics():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(TARGETS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_every_output_correct(runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, human = runs[workload, trace]
        assert result["correct"] is True, human
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
        for m in BENCHMARK[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert float(runs[workload, 0][1]["failed_frac"].split()[0]) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_are_byte_identical(runs, workload):
    untraced = runs[workload, 0][1]["exact_output_sha256"]
    traced = runs[workload, 1][1]["exact_output_sha256"]
    assert traced == untraced


def test_counters_match_hand_counts(runs):
    green = runs["green_solve", 1][0]["metrics"]
    # apply_green and hardy_projection once each, residual_check three more
    assert green["operators.decompose.per_op"]["value"] == 5
    exact = runs["schatten_exact", 1][0]["metrics"]
    partial_sums = exact["schatten.partial_sum.calls"]["value"]
    assert partial_sums == 3
    assert exact["spectrum.multiplicity.calls"]["value"] == partial_sums * (20 + 1) * 20
    assert exact["schatten.partial_sum.terms"]["value"] == partial_sums * (20 + 1) * 20
    assert runs["schatten_float", 1][0]["metrics"]["schatten.doublings"]["value"] > 0


def _tiny_ops(workload, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    lib = run.Library()
    return workloads.WORKLOADS[workload](lib, 0, "tiny", str(tmp_path)), lib


def _failures(ops, lib):
    with run.SpeedSampler() as sampler:
        return [p.failed for p in run.measure(ops, lib, 0, sampler)]


def _tamper(op, edit):
    run_op = op.run
    op.run = lambda: edit(run_op())


def test_wrong_outputs_are_counted_as_failed(tmp_path):
    ops, lib = _tiny_ops("green_solve", tmp_path)
    _tamper(ops[3], lambda out: (out[0], out[1].replace('"residual": "0/1"', '"residual": "1/1"'), out[2]))
    _tamper(ops[5], lambda out: (1, *out[1:]))
    assert _failures(ops, lib) == [2]

    ops, lib = _tiny_ops("schatten_exact", tmp_path)
    _tamper(ops[1], lambda out: (out[0], out[1].replace('"partial_sum": "', '"partial_sum": "1'), out[2]))
    assert _failures(ops, lib) == [1]


def test_zeta_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for s in (1.5, 2.0, 2.5, 3.0, 5.5):
        assert workloads.zeta(s) == pytest.approx(float(special.zeta(s)), rel=1e-14)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("green_solve", 0, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
