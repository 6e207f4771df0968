"""Self-tests of the benchmark: tiny runs of every workload, seed
determinism, metric names, and the tracer's derived run statistics on a
machine small enough to follow by hand."""
from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.append(str(ROOT / "src"))

from bench_tracer import LAYERS, Tracer  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, seed: int, trace: int, attempt: int = 0) -> tuple[dict, dict]:
    """(record, result) of one tiny run; ``attempt`` forces a fresh run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.splitlines()
    assert record_line.startswith("record ")
    return json.loads(record_line[len("record "):]), json.loads(result_line)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_is_correct(workload, trace):
    record, result = tiny_run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END_UNITS)
    assert record["error_rate"] == 0 and record["outputs_sha256"] == record["expected_sha256"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_fixes_inputs_and_outputs(workload):
    first, _ = tiny_run(workload, 1, 0)
    again, _ = tiny_run(workload, 1, 0, attempt=1)
    other, _ = tiny_run(workload, 2, 0)
    assert again["inputs_sha256"] == first["inputs_sha256"]
    assert again["outputs_sha256"] == first["outputs_sha256"]
    assert other["inputs_sha256"] != first["inputs_sha256"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "word-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# Blind probabilistic toy: on 'a' the start state either counts up or
# moves to t (probability 1/2 each); t counts down on 'a'; 'b' has no row,
# so it drops into the sink.
TOY = """\
machine toy
class p1bca
alphabet a b
states s t
initial s
accept t
maxstep 1

trans s , LEND , * -> s , 0
trans s , a , * -> s , 1 @ 1/2
trans s , a , * -> t , 0 @ 1/2
trans t , a , * -> t , -1
trans s , REND , * -> s , 0
trans t , REND , * -> t , 0
"""


def test_traced_stats_match_hand_computation():
    import ocalab
    import ocalab.adversary  # noqa: F401  (the package does not import these two)
    import ocalab.cli  # noqa: F401

    modules = {layer: sys.modules[f"ocalab.{layer}"] for layer in LAYERS}
    original_run = ocalab.classical.run
    machine = ocalab.parse(TOY)
    tracer = Tracer()
    tracer.install(ocalab, modules)
    try:
        # "aa": tape LEND a a REND, 4 steps.  Supports 1, 2, 3, 3; after the
        # second 'a' the masses are 1/4, 1/4, 1/2, so the largest
        # denominator is 4 (3 bits).  Entries lookups: 1 + 1 + 2 + 3.
        # "b": tape LEND b REND, 3 steps; the last one starts wholly in the
        # sink.  Entries lookups: 1 + 1 + 1.
        for word in ("aa", "b"):
            ocalab.classical.run(machine, word)
        assert ocalab.classical.run is not original_run
    finally:
        tracer.uninstall()
    assert ocalab.classical.run is original_run
    assert ocalab.adversary.run is original_run

    stats = tracer.engines["classical"]
    assert (stats.steps, stats.sink_steps, stats.support_peak, stats.denom_bits_max) == (7, 1, 3, 3)
    layer = tracer.layer_metrics({"classical": 7})
    assert layer["classical.step_calls"] == 7
    assert layer["classical.steps_per_symbol"] == 1.0
    assert layer["classical.sink_step_frac"] == 1 / 7
    assert layer["core.entries_calls"] == 10
    assert layer["amplitudes.mul_calls"] == 0
    assert tracer.aggregates["classical.run"].calls == 2
    assert tracer.aggregates["core.tape_of"].calls == 2
    run_agg = tracer.aggregates["classical.run"]
    assert 0 <= run_agg.self_s <= run_agg.total_s
