"""Recompute ``pins.json``, the exact outputs the benchmark checks against.

Usage, from the root of a checkout:

    python3 bench/make_pins.py

The pins are the outputs of the program as it was when the benchmark was
defined; every later change must reproduce them bit for bit.  Rerun this
only when an output is meant to change, and say so in the change.
Before writing, it checks every pinned verdict against the problem's
label and the machine's claimed bounds, and every perturbed file
against the expectation that it is rejected.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_workloads as bw  # noqa: E402
from run import import_ocalab  # noqa: E402


def sweep_pins(lab, scratch: Path) -> dict:
    pins = {}
    for tiny in (False, True):
        for name, bound, _batched in bw.word_batch_sweeps(tiny):
            entry = lab.zoo.get_entry(name)
            instances = lab.problems.generate(entry.problem, bound)
            rule = lab.adversary.bounds_rule(
                entry.claimed_bounds, las_vegas=entry.machine.mclass.las_vegas
            )
            run = lab.quantum.run_quantum if entry.machine.mclass.quantum else lab.classical.run
            lines = []
            for word, label in instances:
                verdict = run(entry.machine, word)
                if rule(label, verdict) is not None:
                    raise SystemExit(f"{name}@{bound}: {word!r} breaks the claimed bounds")
                lines.append(bw.sweep_line(word, label, bw.verdict_text(verdict)))
            out = scratch / "report.json"
            code = lab.cli.main(["batch", "--zoo", name, "--max-n", str(bound), "--out", str(out)])
            report = json.loads(out.read_text(encoding="utf-8"))
            digest = bw.sha256_text("".join(lines))
            if code != 0 or bw.batch_report_digest(report) != digest:
                raise SystemExit(f"{name}@{bound}: batch and per-word verdicts differ")
            pins[f"{name}@{bound}"] = {
                "words": len(instances),
                "digest": digest,
                "summary": report["summary"],
            }
    return pins


def long_word_pins(lab) -> dict:
    pool = bw.long_word_pool(lab)
    verdicts = {}
    for kind, name in bw.LONG_MACHINES.items():
        entry = lab.zoo.get_entry(name)
        rule = lab.adversary.bounds_rule(entry.claimed_bounds)
        run = lab.quantum.run_quantum if entry.machine.mclass.quantum else lab.classical.run
        verdicts[kind] = []
        for word, label in pool[kind]:
            verdict = run(entry.machine, word)
            if label not in ("yes", "no") or rule(label, verdict) is not None:
                raise SystemExit(f"{name}: long word {word[:20]!r}... breaks its claim")
            verdicts[kind].append(bw.verdict_text(verdict))
    return {"pool": bw.pool_digest(pool), "verdicts": verdicts}


def cma_pins(lab) -> dict:
    names = list(lab.zoo.zoo_names())
    for family in bw.CMA_EXTRA_FAMILIES:
        names += [family.format(k) for k in bw.CMA_EXTRA_K]
    texts = {name: bw.sha256_text(lab.dsl.emit(lab.zoo.get_entry(name).machine)) for name in names}
    perturbed = {}
    for tiny in (False, True):
        for label, machine in bw.perturbations(lab, bw.cma_base(lab, tiny)):
            parsed, diagnostics = lab.dsl.parse_with_diagnostics(lab.dsl.emit(machine))
            if parsed is not None or not diagnostics:
                raise SystemExit(f"{label}: the perturbed machine was accepted")
            perturbed[label] = bw.sha256_text(bw.diagnostics_text(diagnostics))
    return {"texts": texts, "perturbed": perturbed}


def main() -> None:
    lab = import_ocalab()
    with tempfile.TemporaryDirectory() as scratch:
        pins = {
            "word-batch": sweep_pins(lab, Path(scratch)),
            "long-words": long_word_pins(lab),
            "cma-validate": cma_pins(lab),
        }
    bw.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
