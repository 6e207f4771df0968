"""Run one workload of the ocalab benchmark and print its figures.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: word-batch, long-words, cma-validate (see
``README.md`` here).  The benchmark imports ``ocalab`` from ``src/`` of
the checkout and nowhere else; without it, it exits with code 2.

Set-up (import ocalab, build the zoo entries, generate or sample the
inputs, emit the ``.cma`` texts) runs the workload's fixed number of
times, and ``setup_s`` is the median.  With ``--trace 0`` the timed phase
then runs whole rounds of the workload until the next round would end
after ``--seconds``, and the end-to-end metrics are printed.  With
``--trace 1`` a fixed number of rounds runs untraced, then again on a
fresh import under the outside-in tracer, and the per-layer metrics are
printed; the trace itself is written to ``bench/_out/``.

Every exact output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it is the run record (Python version, nproc, git sha,
seed, op counts, digests, tail percentile and sample count).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))

from bench_tracer import LAYERS, Tracer  # noqa: E402
from bench_workloads import WORKLOADS, Workload, load_pins, sha256_text  # noqa: E402

# The same for every workload and fixed, so that a faster program, which
# fits more samples into a run, is read at the same percentile.  A sample
# is one call of tens of milliseconds or more (see bench_workloads), so a
# 40-second run holds 100-400 of them and 10-40 lie beyond p90.
TAIL_PERCENTILE = 90.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "amplitudes.mul_calls": "count",
    "amplitudes.add_calls": "count",
    "core.entries_calls": "count",
    "core.tape_of_self_s": "s",
    "core.validate_machine_self_s": "s",
    "classical.step_calls": "count",
    "classical.step_self_s": "s",
    "classical.verdict_of_self_s": "s",
    "classical.steps_per_symbol": "steps/symbol",
    "classical.sink_step_frac": "fraction",
    "classical.support_peak": "configs",
    "classical.denom_bits_max": "bits",
    "quantum.evolve_calls": "count",
    "quantum.evolve_self_s": "s",
    "quantum.steps_per_symbol": "steps/symbol",
    "quantum.sink_step_frac": "fraction",
    "quantum.measure_self_s": "s",
    "quantum.support_peak": "configs",
    "quantum.check_unitarity_self_s": "s",
    "dsl.parse_self_s": "s",
    "dsl.bytes_parsed": "bytes",
    "dsl.emit_self_s": "s",
    "problems.generate_s": "s",
    "problems.instances": "count",
    "zoo.get_entry_s": "s",
    "adversary.brute_refute_self_s": "s",
    "adversary.words_scanned": "count",
    "cli.batch_self_s": "s",
    "trace.overhead_frac": "fraction",
}


def import_ocalab() -> SimpleNamespace:
    """Import ocalab afresh from ``src/``; the modules, one per layer."""
    for name in [n for n in sys.modules if n == "ocalab" or n.startswith("ocalab.")]:
        del sys.modules[name]
    package = importlib.import_module("ocalab")
    if Path(package.__file__).resolve().parent != SRC / "ocalab":
        raise ImportError(f"ocalab was imported from {package.__file__}, not from {SRC}")
    modules = {layer: importlib.import_module(f"ocalab.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, modules=modules, **modules)


@dataclass
class Tally:
    """Everything the timed phase saw, in the order it happened."""

    rounds: int = 0
    ops: int = 0
    failed: int = 0
    busy_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    inputs: Any = field(default_factory=hashlib.sha256)
    outputs: Any = field(default_factory=hashlib.sha256)
    expected: Any = field(default_factory=hashlib.sha256)
    failures: list[str] = field(default_factory=list)


def run_rounds(rounds, seconds: float | None = None, count: int | None = None) -> Tally:
    """Run whole rounds: ``count`` of them, or as many as fit in ``seconds``."""
    tally = Tally()
    start = perf_counter()
    while True:
        for unit in rounds(tally.rounds):
            outcome = unit.call()
            tally.ops += unit.ops
            tally.failed += outcome.failed
            tally.busy_s += outcome.busy_s
            tally.latencies.append(outcome.sample_s)
            for engine, symbols in unit.symbols.items():
                tally.symbols[engine] = tally.symbols.get(engine, 0) + symbols
            tally.inputs.update((unit.key + "\n").encode("utf-8"))
            tally.outputs.update((outcome.output + "\n").encode("utf-8"))
            tally.expected.update((outcome.expected + "\n").encode("utf-8"))
            if outcome.failed and len(tally.failures) < 5:
                tally.failures.append(f"{unit.key}: got {outcome.output!r}")
        tally.rounds += 1
        if count is not None:
            if tally.rounds >= count:
                return tally
        else:
            elapsed = perf_counter() - start
            if elapsed + elapsed / tally.rounds > seconds:
                return tally


def nearest_rank(count: int, percentile: float) -> int:
    """1-based rank of the nearest-rank percentile among ``count`` samples."""
    return max(1, math.ceil(percentile / 100 * count))


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ocalab").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool):
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        setups = []
        for _ in range(1 if tiny else workload.setups):
            # The last set-up's modules and inputs are garbage now; freeing
            # them here keeps them out of this set-up's time and the peak RSS.
            lab = rounds = None
            gc.collect()
            start = perf_counter()
            lab = import_ocalab()
            rounds = workload.setup(lab, seed, tiny, None, Path(scratch))
            setups.append(perf_counter() - start)
        gc.collect()

        if not trace:
            tally = run_rounds(rounds, seconds=seconds)
            ordered = sorted(tally.latencies)
            tail = nearest_rank(len(ordered), TAIL_PERCENTILE)
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": tally.ops / tally.busy_s,
                "op_p50_ms": 1000 * statistics.median(ordered),
                "op_tail_ms": 1000 * ordered[tail - 1],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            extra = {
                "latency_samples": len(ordered),
                "tail_percentile": TAIL_PERCENTILE,
                "samples_beyond_tail": len(ordered) - tail,
            }
        else:
            trace_rounds = 1 if tiny else workload.trace_rounds
            untraced = run_rounds(rounds, count=trace_rounds)
            lab = import_ocalab()
            tracer = Tracer()
            tracer.install(lab.package, lab.modules)
            try:
                rounds = workload.setup(lab, seed, tiny, tracer, Path(scratch))
                tally = run_rounds(rounds, count=trace_rounds)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics(tally.symbols)
            metrics["trace.overhead_frac"] = tally.busy_s / untraced.busy_s - 1
            units = PER_LAYER_UNITS
            tally.ops += untraced.ops
            tally.failed += untraced.failed
            tally.failures += untraced.failures
            extra = {"untraced_busy_s": untraced.busy_s, "traced_busy_s": tally.busy_s}

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": "tiny" if tiny else "full",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "pins_sha256": sha256_text(json.dumps(load_pins()[workload.name], sort_keys=True)),
        "setup_runs_s": setups,
        "rounds": tally.rounds,
        "ops": tally.ops,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.ops,
        "busy_s": tally.busy_s,
        "inputs_sha256": tally.inputs.hexdigest(),
        "outputs_sha256": tally.outputs.hexdigest(),
        "expected_sha256": tally.expected.hexdigest(),
        "failures": tally.failures,
        **extra,
    }
    if trace:
        tracer.write(OUT / f"trace-{workload.name}-{seed}.json", {"record": record, "metrics": metrics})
    result = {
        "correct": tally.failed == 0 and record["outputs_sha256"] == record["expected_sha256"],
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs one small round; the benchmark's self-tests use it",
    )
    args = parser.parse_args(argv)
    if not (SRC / "ocalab" / "__init__.py").is_file():
        print(f"no ocalab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record, result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.size == "tiny"
    )
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
