"""Tiny-size runs of every workload, timed and traced, with all checks on."""

import json
import math
from pathlib import Path

import pytest

from hibench import bench
from hibench.jobs import MIN_REPS, SimSpec
from hibench.layers import PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_run_matches_untraced_and_covers_its_layers(name, tmp_path):
    spec = bench.WORKLOADS[name].tiny()
    result = bench.trace_layers(spec, seed=3, seconds=0.1, out_dir=tmp_path)
    assert result.errors == []
    assert set(result.metrics) == {m for m, _ in PER_LAYER}
    assert all(math.isfinite(v) for v in result.metrics.values())
    assert result.attempted > 0 and result.failed == 0


@pytest.mark.parametrize(
    "name", sorted(n for n, s in bench.WORKLOADS.items() if isinstance(s, SimSpec))
)
def test_timed_sim_run_repeats_identical_work(name):
    spec = bench.WORKLOADS[name].tiny()
    result = bench.measure(spec, seed=3, seconds=0.1)
    assert result.errors == []
    assert result.info["reps"] == MIN_REPS
    assert set(result.metrics) == {m for m, _ in bench.END_TO_END}
    assert all(v > 0 for v in result.metrics.values())


def test_benchmark_json_lists_what_the_code_reports():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(PER_LAYER)
