"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They cover the percentile rule, metric names, the agreement between
BENCHMARK.json and perfbench/design.json, a tiny-size run of every
workload (untraced and traced), the lying-oracle self-test, and the
benchmark's refusal to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH)]

import run as bench  # noqa: E402

assert bench._import_program()

from common import (  # noqa: E402
    METRIC_NAME, Metrics, TooFewSamples, min_samples, percentile, steady_spans, within)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((BENCH / "design.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == 989
    assert min_samples(99) == 1000


def test_p50_needs_twenty_samples():
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile([3.0] * 10 + [1.0] * 10, 50) == 1.0
    assert min_samples(50) == 20


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile(list(range(2000)), 100)


def test_end_to_end_pools_every_op_of_the_phase():
    from served import Phase

    phase = Phase(reads=[0.001] * 1000 + [0.003] * 980 + [0.5] * 20,
                  writes=[0.002] * 30, elapsed=4.0, cpu_s=2.03, hwm_mb=64.0)
    metrics = Metrics()
    bench.end_to_end(phase, 0.25, metrics)
    values = {name: value for name, (value, _unit) in metrics.values.items()}
    assert list(values) == END_TO_END
    assert values["throughput_ops_s"] == 500.0
    assert values["latency_p50_ms"] == 1.0
    assert values["latency_p99_ms"] == 3.0
    assert values["write_p50_ms"] == 2.0
    assert abs(values["cpu_ms_per_op"] - 1.0) < 1e-12


def test_steady_spans_drop_stretches_where_the_worker_was_held_back():
    # One CPU second per second, except the third second at half speed.
    busy, cpu = [], 0.0
    for tenth in range(51):
        busy.append((tenth / 10, cpu))
        cpu += 0.05 if 20 <= tenth < 30 else 0.1
    spans = steady_spans(busy)
    assert [round(a, 6) for a, _b in spans] == [0.0, 1.0, 3.0, 4.0]
    assert within([0.5, 2.5, 3.5, 5.5], [1, 2, 3, 4], spans) == [1, 3]


def test_steady_spans_keep_every_stretch_of_a_uniformly_slow_run():
    busy = [(tenth / 10, tenth / 40) for tenth in range(51)]
    assert len(steady_spans(busy)) == 5
    assert steady_spans([]) == []


# ----------------------------------------------------------------------
# Metric names and the two documents
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", END_TO_END + PER_LAYER + list(bench.WORKLOADS))
def test_every_name_matches_the_metric_regex(name):
    assert METRIC_NAME.fullmatch(name)


@pytest.mark.parametrize("bad", ["", "p99 ms", "_lead", "a/b", "x" * 65, "ü"])
def test_bad_metric_names_are_refused(bad):
    with pytest.raises(ValueError):
        Metrics().set(bad, 1.0, "ms")


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = END_TO_END + PER_LAYER + WORKLOADS
    assert len(names) == len(set(names))


def test_design_covers_every_workload_and_metric():
    assert set(DESIGN["workloads"]) == set(bench.WORKLOADS) >= set(WORKLOADS)
    assert set(DESIGN["per_layer"]) == set(PER_LAYER)
    assert set(END_TO_END) <= set(DESIGN["end_to_end"])
    for record in DESIGN["per_layer"].values():
        assert {"how", "moves", "workload"} <= set(record)


# ----------------------------------------------------------------------
# Tiny runs of every workload
# ----------------------------------------------------------------------


@pytest.fixture
def workdir(tmp_path):
    path = tmp_path / "work"
    path.mkdir()
    return path


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name, workdir):
    correct, attempted, failed, metrics, problems = bench.run(
        name, 3, 0.5, False, workdir, tiny=True)
    assert correct, problems
    assert failed == 0, problems
    assert attempted >= 1000
    assert list(metrics.values) == END_TO_END
    assert all(value > 0 for value, _unit in metrics.values.values())


@pytest.mark.parametrize("name", ["served-churn", "navigate-facts"])
def test_tiny_traced_run_reports_every_per_layer_metric(name, workdir):
    correct, _attempted, failed, metrics, problems = bench.run(
        name, 4, 1.0, True, workdir, tiny=True)
    assert correct, problems
    assert failed == 0, problems
    assert set(metrics.values) == set(PER_LAYER)
    hit_frac = metrics.values["cache.hit_frac"][0]
    # navigate-facts probes served-warm; served-churn is the miss path.
    assert hit_frac >= 0.99 if name == "navigate-facts" else hit_frac <= 0.2


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_lying_oracle_fails_the_run(name, workdir):
    correct, _attempted, _failed, _metrics, problems = bench.run(
        name, 5, 0.5, False, workdir, tiny=True, lie=True)
    assert not correct
    assert problems


# ----------------------------------------------------------------------
# Without the program
# ----------------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "served-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert result.stdout.strip() == ""
