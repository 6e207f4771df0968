"""The workloads of the ocalab benchmark.

A workload's ``setup`` imports nothing itself: it gets the freshly
imported ocalab modules, builds the zoo entries, generates or samples its
inputs from the seed and emits the ``.cma`` texts it needs.  It returns a
function from a round number to that round's units.  A unit is one or
more calls into ocalab; it times only those calls and compares every
exact output with the value pinned in ``pins.json`` (or, for xor-eq
instances, with the exact 1/0 verdict the label implies).  Any output
that differs, and any exception, fails the ops it belongs to.

Why each workload exists is written down in ``README.md`` next to this
file.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

PINS_PATH = Path(__file__).with_name("pins.json")


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def verdict_text(verdict) -> str:
    """A verdict as exact ``accept reject dontknow`` rationals."""
    return " ".join(
        fraction_text(part) for part in (verdict.accept, verdict.reject, verdict.neutral)
    )


@dataclass
class Outcome:
    """What one unit did: busy time, failed ops, exact output, and one
    latency sample, the unit's mean time per op."""

    busy_s: float
    failed: int
    output: str
    expected: str
    sample_s: float


@dataclass
class Unit:
    """A call (or a sweep of calls) into ocalab, with its checks."""

    key: str
    ops: int
    symbols: dict[str, int]
    call: Callable[[], Outcome]


Rounds = Callable[[int], list[Unit]]


class InputMismatch(Exception):
    """Generated inputs differ from the pinned ones, so no check is valid."""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[..., Rounds]
    # A traced run measures a fixed number of rounds, so its counts repeat
    # exactly for a seed.
    trace_rounds: int
    # Set-ups per run, about two seconds' worth; setup_s is their median.
    # Fixed, not timed: every set-up's fresh import leaves ~0.1 MB behind,
    # so a count that followed the host's speed would move peak_rss_mb.
    setups: int


def _call_unit(
    key: str,
    fn: Callable[[], object],
    render: Callable[[object], str],
    expected: str,
    symbols: Optional[dict[str, int]] = None,
    repeats: int = 1,
) -> Unit:
    """``repeats`` back-to-back public calls; their mean time is one sample."""

    def call() -> Outcome:
        busy = 0.0
        failed = 0
        output = expected
        for _ in range(repeats):
            start = perf_counter()
            try:
                result = fn()
            except Exception as exc:  # a raising op is a failed op, not a crash
                busy += perf_counter() - start
                got = f"error: {type(exc).__name__}: {exc}"
            else:
                busy += perf_counter() - start
                got = render(result)
            if got != expected:
                failed += 1
                output = got
        return Outcome(busy, failed, output, expected, busy / repeats)

    return Unit(key, repeats, symbols or {}, call)


# ---------------------------------------------------------------------------
# word-batch: exhaustive short-word sweeps over the classical zoo.
# ---------------------------------------------------------------------------

# Every sweep runs through ``brute_refute`` and, when marked, also through
# an in-process ``ocalab batch``.  (zoo name, bound, bound at the
# self-tests' tiny size or None, also batched)
WORD_BATCH_SWEEPS = (
    ("m1", 4, 2, True),
    ("m2", 4, None, True),
    ("eq-star-complement-d1ca", 10, 4, True),
    ("lang-L-p1ca-k3", 7, 3, True),
    ("eq-star-p1bca-k2", 9, 4, True),
    ("eq-star-p1bca-k3", 9, 4, True),
    ("eq-star-p1bca-k4", 9, None, True),
    ("eq3-p1bca-k2", 6, 3, True),
    ("eq3-p1bca-k3", 6, 3, True),
    ("eq3-p1bca-k4", 6, None, True),
    ("eq3-p1bca-k5", 6, None, True),
    ("onenone-lv-t1", 12, 8, True),
    # 16 is the smallest bound with t=2 instances (5,832 words, about a
    # quarter of a round), so this one sweep is not batched as well.
    ("onenone-lv-t2", 16, None, False),
)


def word_batch_sweeps(tiny: bool) -> list[tuple[str, int, bool]]:
    """(zoo name, bound, also batched) of every sweep a round makes."""
    out = []
    for name, full, small, batched in WORD_BATCH_SWEEPS:
        bound = small if tiny else full
        if bound is not None:
            out.append((name, bound, batched))
    return out


def sweep_line(word: str, label: str, verdict: str) -> str:
    return f"{word} {label} {verdict}\n"


def _brute_unit(lab, entry, bound: int, instances: list, pin: dict, tracer) -> Unit:
    rule = lab.adversary.bounds_rule(
        entry.claimed_bounds, las_vegas=entry.machine.mclass.las_vegas
    )
    brute_refute = lab.adversary.brute_refute

    def call() -> Outcome:
        digest = hashlib.sha256()
        seen = 0

        def record(label, verdict):
            nonlocal seen
            word = instances[seen][0] if seen < len(instances) else "<extra>"
            digest.update(sweep_line(word, label, verdict_text(verdict)).encode("utf-8"))
            seen += 1
            if tracer is not None:
                tracer.count("adversary.words_scanned")

        if tracer is not None:
            # A span of its own keeps this bookkeeping out of brute_refute's
            # self time; the claimed-bounds rule below still counts there.
            record = tracer.span("bench.record", record)

        def check(label, verdict):
            record(label, verdict)
            return rule(label, verdict)

        start = perf_counter()
        try:
            found = brute_refute(entry.machine, entry.problem, bound, check)
        except Exception as exc:  # a raising sweep fails all of its words
            found = exc
        busy = perf_counter() - start
        output = digest.hexdigest()
        ok = found is None and seen == pin["words"] and output == pin["digest"]
        failed = 0 if ok else pin["words"]
        return Outcome(busy, failed, output, pin["digest"], busy / pin["words"])

    symbols = {"classical": sum(len(word) + 2 for word, _ in instances)}
    return Unit(f"brute {entry.name}@{bound}", pin["words"], symbols, call)


def batch_report_digest(report: dict) -> str:
    digest = hashlib.sha256()
    for record in report["instances"]:
        verdict = f"{record['accept']} {record['reject']} {record['dontknow']}"
        digest.update(sweep_line(record["input"], record["label"], verdict).encode("utf-8"))
    return digest.hexdigest()


def _batch_unit(lab, name: str, bound: int, instances: list, pin: dict, scratch: Path) -> Unit:
    main = lab.cli.main
    out = scratch / f"batch-{name}-{bound}.json"
    argv = ["batch", "--zoo", name, "--max-n", str(bound), "--out", str(out)]

    def call() -> Outcome:
        start = perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a raising batch fails all of its words
            code = exc
        busy = perf_counter() - start
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
            out.unlink()
        except (OSError, ValueError):
            report = None
        output = "no report" if report is None else batch_report_digest(report)
        ok = (
            report is not None
            and code == 0
            and output == pin["digest"]
            and report["summary"] == pin["summary"]
        )
        failed = 0 if ok else pin["words"]
        return Outcome(busy, failed, output, pin["digest"], busy / pin["words"])

    symbols = {"classical": sum(len(word) + 2 for word, _ in instances)}
    return Unit(f"batch {name}@{bound}", pin["words"], symbols, call)


def setup_word_batch(lab, seed: int, tiny: bool, tracer, scratch: Path) -> Rounds:
    pins = load_pins()["word-batch"]
    units = []
    for name, bound, batched in word_batch_sweeps(tiny):
        entry = lab.zoo.get_entry(name)
        instances = lab.problems.generate(entry.problem, bound)
        pin = pins[f"{name}@{bound}"]
        units.append(_brute_unit(lab, entry, bound, instances, pin, tracer))
        if batched:
            units.append(_batch_unit(lab, name, bound, instances, pin, scratch))

    def rounds(index: int) -> list[Unit]:
        order = list(units)
        random.Random(f"word-batch/{seed}/{index}").shuffle(order)
        return order

    return rounds


# ---------------------------------------------------------------------------
# long-words: one call per long word, no shared prefixes.
# ---------------------------------------------------------------------------

LONG_POOL_SEED = "long-words/pool"
LONG_POOL_SIZE = 96
LONG_MACHINES = {
    "eq-star": "eq-star-p1bca-k3",
    "eq3": "eq3-p1bca-k4",
    "xor-eq": "xoreq-q1ca",
}
# Ops per round of each kind.  The eq3 runs take 4-10 ms, the xor-eq runs
# 50-160 ms and the eq-star runs 190-330 ms.  With as many eq3 as eq-star
# runs the median falls in the middle of the xor-eq runs, where samples
# are densest and the words a seed draws move it least, and p90 falls
# among the eq-star runs.
LONG_PER_ROUND = {"eq-star": 2, "eq3": 2, "xor-eq": 3}


def _long_xoreq(rng: random.Random, lab) -> tuple[str, str]:
    """A promise instance with the four compared blocks in [2, 100].

    ``xoreq-q1ca`` compares blocks modulo 5, so unequal compared blocks
    differ by a non-multiple of 10: the machine's exact regime.
    """
    evens = range(2, 101, 2)

    def partner(x: int, equal: bool) -> int:
        return x if equal else rng.choice([y for y in evens if (y - x) % 10])

    want_yes = rng.random() < 0.5
    first_equal = rng.random() < 0.5
    a, b = rng.choice(evens), rng.choice(evens)
    c = partner(a, first_equal)
    d = partner(b, first_equal != want_yes)
    k1, k2 = rng.randrange(0, 9), rng.randrange(0, 9)
    left = a - c + (-1 if a == c else 1) * (k1 - k2)
    sign = -1 if b == d else 1
    diff = sign * (left - (b - d))  # required l1 - l2
    extra = rng.randrange(0, 9)
    l1, l2 = extra + max(diff, 0), extra + max(-diff, 0)
    word = lab.problems.xoreq_word(a, b, c, d, k1, k2, l1, l2)
    return word, lab.problems.classify_xoreq(word)


def long_word_pool(lab) -> dict[str, list[tuple[str, str]]]:
    """The fixed pool every seed draws from; its verdicts are pinned."""
    rng = random.Random(LONG_POOL_SEED)
    pool: dict[str, list[tuple[str, str]]] = {kind: [] for kind in LONG_MACHINES}
    for _ in range(LONG_POOL_SIZE):
        length = rng.randint(190, 210)
        word = "a" + "".join(rng.choice("ab") for _ in range(length - 1))
        pool["eq-star"].append((word, "yes" if lab.problems.classify_eqstar(word) else "no"))
        n = rng.randint(100, 200)
        counts = [n, n, n]
        if rng.random() < 0.5:
            counts[rng.randrange(3)] += rng.choice((-1, 1, 2))
        word = "c" * counts[0] + "d" * counts[1] + "e" * counts[2]
        pool["eq3"].append((word, "yes" if lab.problems.classify_eq3(word) else "no"))
        pool["xor-eq"].append(_long_xoreq(rng, lab))
    return pool


def pool_digest(pool: dict[str, list[tuple[str, str]]]) -> str:
    return sha256_text(json.dumps(pool, sort_keys=True))


def setup_long_words(lab, seed: int, tiny: bool, tracer, scratch: Path) -> Rounds:
    pins = load_pins()["long-words"]
    pool = long_word_pool(lab)
    if pool_digest(pool) != pins["pool"]:
        raise InputMismatch("the long-word pool no longer matches its pin")
    rng = random.Random(f"long-words/{seed}")
    per_round = {kind: 1 for kind in LONG_PER_ROUND} if tiny else LONG_PER_ROUND
    units: dict[str, list[Unit]] = {}
    for kind, name in LONG_MACHINES.items():
        machine = lab.zoo.get_entry(name).machine
        engine = "quantum" if machine.mclass.quantum else "classical"
        run = lab.quantum.run_quantum if engine == "quantum" else lab.classical.run
        order = list(range(LONG_POOL_SIZE))
        rng.shuffle(order)
        units[kind] = [
            _call_unit(
                f"{kind}:{index}",
                lambda word=pool[kind][index][0], machine=machine, run=run: run(machine, word),
                verdict_text,
                pins["verdicts"][kind][index],
                {engine: len(pool[kind][index][0]) + 2},
            )
            for index in order
        ]

    def rounds(index: int) -> list[Unit]:
        out = []
        for kind, count in per_round.items():
            start = index * count
            out.extend(units[kind][(start + i) % LONG_POOL_SIZE] for i in range(count))
        random.Random(f"long-words/{seed}/{index}").shuffle(out)
        return out

    return rounds


# ---------------------------------------------------------------------------
# cma-validate: parse + validate emitted .cma texts, one seeded perturbation.
# ---------------------------------------------------------------------------

CMA_EXTRA_FAMILIES = ("eq-star-p1bca-k{}", "eq3-p1bca-k{}", "lang-L-p1ca-k{}")
CMA_EXTRA_K = range(2, 10)
CMA_SCALES = (Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))
CMA_KEY_COUNT = 4
# Each round parses every clean text but xoreq-q1ca's this many times back
# to back, and the mean is one sample.  A single parse takes 1-12 ms, short
# enough that the host's millisecond-scale speed swings decide which side
# of the median it falls on; twenty of them average those swings out.
CMA_LIGHT_REPEATS = 20


def cma_names(lab, tiny: bool) -> list[str]:
    """Zoo representatives whose text every round parses.

    The parametric members of ``CMA_EXTRA_FAMILIES`` are parsed too, so
    the clean small texts far outnumber the two xoreq texts.
    """
    if tiny:
        return ["m1", "eq-star-p1bca-k3"]
    return list(lab.zoo.zoo_names())


def cma_base(lab, tiny: bool):
    """The quantum machine that gets perturbed."""
    if tiny:
        return lab.zoo.as_quantum(lab.zoo.get_entry("m1").machine)
    return lab.zoo.get_entry("xoreq-q1ca").machine


def perturbations(lab, machine):
    """Candidate machines with one amplitude scaled, as in criterion 02.

    The keys are the initial left-endmarker row that criterion 02 uses
    plus rows spread evenly over the sorted table.
    """
    keys = sorted(machine.transitions)
    chosen = [(machine.initial, lab.core.LEFT_END, lab.core.Z)]
    step = len(keys) // CMA_KEY_COUNT
    chosen += [keys[i * step + step // 2] for i in range(1, CMA_KEY_COUNT)]
    for key in chosen:
        row = machine.transitions[key]
        target, delta, amp = row[0]
        for scale in CMA_SCALES:
            transitions = dict(machine.transitions)
            transitions[key] = ((target, delta, amp * scale),) + row[1:]
            label = f"{machine.name}|{'/'.join(map(str, key))}|x{scale}"
            yield label, dataclasses.replace(machine, transitions=transitions)


def diagnostics_text(diagnostics) -> str:
    return "\n".join(str(d) for d in diagnostics)


def setup_cma_validate(lab, seed: int, tiny: bool, tracer, scratch: Path) -> Rounds:
    pins = load_pins()["cma-validate"]
    rng = random.Random(f"cma-validate/{seed}")
    parse = lab.dsl.parse_with_diagnostics
    emit = lab.dsl.emit
    names = cma_names(lab, tiny)
    repeats = 2 if tiny else CMA_LIGHT_REPEATS
    for family in CMA_EXTRA_FAMILIES:
        names += [family.format(k) for k in (CMA_EXTRA_K[:1] if tiny else CMA_EXTRA_K)]

    def clean_unit(name: str, machine, repeats: int) -> Unit:
        text = emit(machine)
        if sha256_text(text) != pins["texts"][name]:
            raise InputMismatch(f"emit({name}) no longer matches its pin")

        def render(result) -> str:
            parsed, diagnostics = result
            ok = parsed is not None and parsed == machine
            return "round trip" if ok else "differs: " + diagnostics_text(diagnostics)

        return _call_unit(name, lambda: parse(text), render, "round trip", repeats=repeats)

    def perturbed_unit(label: str, machine) -> Unit:
        text = emit(machine)

        def render(result) -> str:
            parsed, diagnostics = result
            if parsed is not None:
                return "accepted"
            return sha256_text(diagnostics_text(diagnostics))

        return _call_unit(label, lambda: parse(text), render, pins["perturbed"][label])

    light: list[Unit] = []
    heavy: list[Unit] = []
    for name in names:
        machine = lab.zoo.get_entry(name).machine
        if name == "xoreq-q1ca":
            heavy.append(clean_unit(name, machine, 1))
        else:
            light.append(clean_unit(name, machine, repeats))
    # Only the emitted texts are kept, so the perturbed tables do not sit
    # on the heap that the parses' garbage collections walk.
    candidates = perturbations(lab, cma_base(lab, tiny))
    perturbed = [perturbed_unit(label, machine) for label, machine in candidates]
    rng.shuffle(perturbed)

    def rounds(index: int) -> list[Unit]:
        # One xoreq-sized parse per round, the clean text in odd rounds and
        # the next perturbation in even ones: a round takes about 7 s, so a
        # run holds five of them and drops at most one at its end.
        if heavy and index % 2:
            out = light + heavy
        else:
            out = light + [perturbed[index // 2 % len(perturbed)]]
        random.Random(f"cma-validate/{seed}/{index}").shuffle(out)
        return out

    return rounds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("word-batch", setup_word_batch, trace_rounds=1, setups=5),
        Workload("long-words", setup_long_words, trace_rounds=4, setups=20),
        Workload("cma-validate", setup_cma_validate, trace_rounds=1, setups=8),
    )
}
