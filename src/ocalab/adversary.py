"""Adversary procedures that refute over-claimed machines.

Three constructive attacks plus an empirical scanner:

- ``analyze_cycle`` / ``sigma_partition``: the single-symbol cycle
  structure of a deterministic machine (entry, period, counter drift).
- ``fool_xoreq_d1ca``: for any deterministic counter machine over
  {0, #}, finds two block-count prefixes the machine cannot tell apart
  and completes them into a yes- and a no-instance of the XOR-EQ promise
  problem on which the machine necessarily answers identically.
- ``pump_u1bca``: for a universal blind machine claimed to accept the
  complement of (a^n b^n)*, either catches it accepting a member of
  (a^n b^n)* outright or pumps a rejecting path's first-block cycle into
  a rejected member of the complement.
- ``brute_refute``: streams a problem's instances in generator order and
  reports the first one where the machine's decision contradicts the
  label under a supplied (or class-default) decision rule.
"""
from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import tee
from typing import Optional

from .classical import decide_mode, run
from .core import (
    LEFT_END,
    CounterMachine,
    EngineError,
    MachineClass,
    SimulationError,
    Verdict,
    format_exact,
    tape_of,
)
from .kernel import ACCEPT, compiled, run_many
from .problems import NO, YES, classify_eqstar, classify_xoreq, get_problem, xoreq_word
from .zoo import ClaimedBounds

Config = tuple[str, int]

__all__ = [
    "BruteResult",
    "CycleProfile",
    "FoolingPair",
    "PumpRefutation",
    "SigmaClass",
    "analyze_cycle",
    "bounds_rule",
    "brute_refute",
    "default_rule",
    "exact_rule",
    "exists_rule",
    "fool_xoreq_d1ca",
    "forall_rule",
    "lv_rule",
    "pump_u1bca",
    "sigma_partition",
    "threshold_rule",
]


def _require_deterministic(machine: CounterMachine) -> None:
    if not machine.mclass.deterministic:
        raise EngineError(
            f"machine {machine.name!r} is {machine.mclass.tag}; "
            "this procedure needs a deterministic machine"
        )


def _require_sigma_run(machine: CounterMachine, symbol: str) -> None:
    _require_deterministic(machine)
    if symbol not in machine.tape_symbols:
        raise SimulationError(f"symbol {symbol!r} is not on this machine's tape")


def _first_repeat(items: Iterable[Hashable]) -> Optional[tuple[int, int]]:
    """Indices (i, j) of the first item (state or configuration) met twice, or None."""
    first: dict[Hashable, int] = {}
    for j, item in enumerate(items):
        if item in first:
            return first[item], j
        first[item] = j
    return None


# ---------------------------------------------------------------------------
# Cycle analysis on a single repeated symbol.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleProfile:
    """Eventual cycle of a deterministic machine reading one symbol forever.

    After ``entry_steps`` symbols the machine enters a state cycle of
    length ``period``; each full turn of the cycle shifts the counter by
    exactly ``difference``.  Valid while the counter stays away from zero,
    which ``analyze_cycle`` checks from the start over a 2|Q|-step horizon.
    """

    symbol: str
    start: Config
    entry_steps: int
    period: int
    difference: int
    cycle_states: tuple[str, ...]


def analyze_cycle(machine: CounterMachine, start: Config, symbol: str) -> CycleProfile:
    """Entry point, period and counter drift of the sigma-run from ``start``.

    Reads the compiled ``SymbolTable.walk`` of its state.  Raises if the counter is zero at the
    start or within 2|Q| steps (no status-stable cycle), at an unknown state or a branching row.
    """
    _require_sigma_run(machine, symbol)
    kernel, (state, counter) = compiled(machine), start
    if state not in kernel.ids:
        raise SimulationError(f"state {state!r} is not in machine {machine.name!r}")
    size, names, horizon = kernel.size, kernel.names, 2 * len(machine.states)
    table, config = kernel.tables[symbol], counter * size + kernel.ids[state]
    offsets, entry = table.walks.get(config % size) or table.walk(config % size)
    if entry is None:
        raise SimulationError(
            f"state {names[(config + offsets[-1]) % size]!r} has a branching row on {symbol!r}"
        )
    period, drift = len(offsets) - 1 - entry, offsets[-1] - offsets[entry]
    for step in range(horizon + 1):  # past the walk, whole turns of its cycle as in kernel._walk
        cycles, left = (0, step - entry) if step < len(offsets) else divmod(step - entry, period)
        if (config + cycles * drift + offsets[entry + left]) // size == 0:
            raise SimulationError(
                f"counter reached zero at step {step} of the {symbol!r}-run; "
                "cycle profile undefined"
            )
    if entry + period > horizon:  # only where rows walk through undeclared states
        raise SimulationError("no state repetition found; horizon too short")
    return CycleProfile(
        symbol=symbol, start=start, entry_steps=entry, period=period, difference=drift // size,
        cycle_states=tuple(names[(config + offset) % size] for offset in offsets[entry:-1]),
    )


@dataclass(frozen=True)
class SigmaClass:
    """States that fall into the same sigma-cycle, with its period and drift."""

    cycle: tuple[str, ...]
    period: int
    difference: int
    members: tuple[str, ...]


def sigma_partition(machine: CounterMachine, symbol: str) -> tuple[SigmaClass, ...]:
    """Partition the states by which sigma-cycle they eventually reach.

    Each state's class is its :func:`analyze_cycle` reading from a counter
    too far from zero to reach it within the horizon, so every step sees a
    nonzero counter; missing rows fall into the sink's self-loop like
    everywhere else.  A cycle is named from its least state.
    """
    _require_sigma_run(machine, symbol)
    widest = max((abs(d) for row in machine.transitions.values() for _, d, _ in row), default=0)
    far = 1 + 2 * len(machine.states) * widest
    classes: dict[tuple[str, ...], tuple[int, list[str]]] = {}
    for state in machine.states:
        profile = analyze_cycle(machine, (state, far), symbol)
        cycle = profile.cycle_states
        pivot = cycle.index(min(cycle))
        classes.setdefault(cycle[pivot:] + cycle[:pivot], (profile.difference, []))[1].append(state)
    return tuple(
        SigmaClass(cycle=cycle, period=len(cycle), difference=difference, members=tuple(members))
        for cycle, (difference, members) in sorted(classes.items())
    )


# ---------------------------------------------------------------------------
# Fooling-pair construction against deterministic machines on XOR-EQ.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoolingPair:
    """Two XOR-EQ instances with opposite labels the machine cannot separate."""

    word_yes: str
    word_no: str
    prefix_yes: tuple[int, int]
    prefix_no: tuple[int, int]
    collision: Config
    case: str
    suffix: tuple[int, int, int, int, int, int]
    machine_accepts: bool


def _prefix_configs(machine: CounterMachine, bound: int) -> list[tuple[tuple[int, int], int]]:
    """Compiled configurations after cent 0^a # 0^b #, enumerated by (b, a), even a, b."""
    kernel = compiled(machine)

    def step(config: int, symbol: str) -> int:
        return config + kernel.branches_at(config, symbol)[0][0]

    config = step(kernel.initial, LEFT_END)
    starts: list[tuple[int, int]] = []
    for a in range(1, bound + 1):
        config = step(config, "0")
        if a % 2 == 0:
            starts.append((a, step(config, "#")))

    # Every even-a configuration reads block b together, one 0 at a time.
    out: list[tuple[tuple[int, int], int]] = []
    for b in range(1, bound + 1):
        starts = [(a, step(config, "0")) for a, config in starts]
        if b % 2 == 0:
            out.extend(((a, b), step(config, "#")) for a, config in starts)
    return out


def _complete_case_a_differs(
    prefix_1: tuple[int, int], prefix_2: tuple[int, int], search: int
) -> tuple[int, int, int, int, int, int]:
    (a, b), (a2, b2) = prefix_1, prefix_2
    c = a
    for l1 in range(search + 1):
        for l2 in range(search + 1):
            d = (b + b2 + a - a2) // 2 + (l1 - l2)
            if d < 2 or d % 2 or d == b or d == b2:
                continue
            kdiff = -(b - d + (l1 - l2))
            k1, k2 = (kdiff, 0) if kdiff >= 0 else (0, -kdiff)
            return (c, d, k1, k2, l1, l2)
    # unreachable: the search window always contains a fit
    raise SimulationError("no valid suffix found in the search window")


def fool_xoreq_d1ca(machine: CounterMachine, n: int = 64) -> FoolingPair:
    """Build two oppositely-labelled XOR-EQ instances the machine conflates.

    Distinct even prefixes 0^a # 0^b # outnumber the machine's reachable
    configurations quadratically, so two of them collide; the shared
    suffix is then chosen so that one completion satisfies exactly one
    block equality (a yes-instance) and the other none (a no-instance).
    The prefix bound grows automatically up to the ceiling ``n``, which
    must be at least 4 for there to be two even prefixes.
    """
    if n < 4:
        raise SimulationError(f"prefix bound {n} is below 4, the least with two even prefixes")
    _require_deterministic(machine)
    for symbol in ("0", "#"):
        if symbol not in machine.alphabet:
            raise EngineError(f"machine alphabet lacks {symbol!r}")

    bound = min(8, n)
    while True:
        prefixes = _prefix_configs(machine, bound)
        repeat = _first_repeat(config for _, config in prefixes)
        if repeat is not None:
            break
        if bound >= n:
            raise SimulationError(
                f"no configuration collision among even prefixes up to {n}; raise the bound"
            )
        bound = min(2 * bound, n)

    (prefix_1, _), (prefix_2, config) = (prefixes[i] for i in repeat)
    if prefix_1[0] != prefix_2[0]:
        case = "a differs"
        c, d, k1, k2, l1, l2 = _complete_case_a_differs(prefix_1, prefix_2, 2 * bound)
    else:
        # The mirror image: complete the prefixes read as (b, a), which
        # swaps the roles of (a, c, k) and (b, d, l), and swap back.
        case = "a equal"
        d, c, l1, l2, k1, k2 = _complete_case_a_differs(
            prefix_1[::-1], prefix_2[::-1], 2 * bound
        )
    suffix = (c, d, k1, k2, l1, l2)
    word_yes = xoreq_word(prefix_1[0], prefix_1[1], c, d, k1, k2, l1, l2)
    word_no = xoreq_word(prefix_2[0], prefix_2[1], c, d, k1, k2, l1, l2)

    if classify_xoreq(word_yes) != YES or classify_xoreq(word_no) != NO:
        raise SimulationError("constructed pair failed oracle self-verification")
    verdict_yes = run(machine, word_yes)
    verdict_no = run(machine, word_no)
    if verdict_yes != verdict_no:
        raise SimulationError("constructed pair failed verdict self-verification")

    return FoolingPair(
        word_yes=word_yes,
        word_no=word_no,
        prefix_yes=prefix_1,
        prefix_no=prefix_2,
        collision=compiled(machine).config(config),
        case=case,
        suffix=suffix,
        machine_accepts=verdict_yes.accept == 1,
    )


# ---------------------------------------------------------------------------
# Pumping attack against universal blind machines on the complement of EQ*.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PumpRefutation:
    """Evidence that a universal blind machine fails the complement of EQ*.

    ``kind`` is "accepts-member" when the machine accepts the base word
    (a member of (a^n b^n)*, hence outside the claimed language) and
    "pumped-reject" when pumping a rejecting path's first-block cycle
    yields ``witness_word`` outside (a^n b^n)* that the machine rejects.
    """

    kind: str
    base_word: str
    witness_word: str
    repeated_state: str
    pump_gap: int
    final_config: Config
    detail: str


def _find_rejecting_path(
    machine: CounterMachine, tape: tuple[str, ...], node_budget: int
) -> Optional[tuple[tuple[int, ...], list[int]]]:
    """Depth-first search for one path ending outside accept-with-zero: its
    branch indices into the compiled rows and its compiled configurations."""
    kernel = compiled(machine)
    stack: list[tuple[int, int, tuple[int, ...]]] = [(kernel.initial, 0, ())]
    visited = 0
    while stack:
        config, pos, choices = stack.pop()
        visited += 1
        if visited > node_budget:
            raise SimulationError(f"path search exceeded the node budget {node_budget}")
        if pos == len(tape):
            if kernel.kind(config) != ACCEPT:
                return choices, _replay(machine, tape, choices)
            continue
        row = kernel.branches_at(config, tape[pos])
        for index in range(len(row) - 1, -1, -1):
            stack.append((config + row[index][0], pos + 1, choices + (index,)))
    return None


def _replay(machine: CounterMachine, tape: tuple[str, ...], choices: tuple[int, ...]) -> list[int]:
    kernel = compiled(machine)
    trail = [kernel.initial]
    for symbol, choice in zip(tape, choices):
        row = kernel.branches_at(trail[-1], symbol)
        if choice >= len(row):
            raise SimulationError("replayed path left the transition table")
        trail.append(trail[-1] + row[choice][0])
    return trail


def pump_u1bca(
    machine: CounterMachine, word: Optional[str] = None, node_budget: int = 10**6
) -> PumpRefutation:
    """Refute a universal blind machine claimed to accept the complement of EQ*.

    On a member word a^n1 b^n1 ... with n1 > |Q|: if the machine accepts
    it, that acceptance is already a misclassification.  Otherwise some
    path rejects; its first a-block revisits a state, and inserting that
    state cycle once and twice yields two longer first blocks (both words
    now members of the complement) whose replayed final counters differ
    by the cycle's drift — at least one still rejects, so the machine
    rejects a word it claims to accept.
    """
    if machine.mclass is not MachineClass.U1BCA:
        raise EngineError(f"machine {machine.name!r} is {machine.mclass.tag}; expected u1bca")
    n_states = len(machine.states)
    if word is None:
        n1 = n_states + 1
        word = "a" * n1 + "b" * n1
    else:
        if not classify_eqstar(word):
            raise EngineError("base word must be a member of (a^n b^n)*")
        n1 = len(word) - len(word.lstrip("a"))
        if n1 <= n_states:
            raise EngineError("base word's first a-block must exceed the state count")

    if decide_mode(machine, word):
        return PumpRefutation(
            kind="accepts-member",
            base_word=word,
            witness_word=word,
            repeated_state=machine.initial,
            pump_gap=0,
            final_config=(machine.initial, 0),
            detail="machine accepts a member of (a^n b^n)*, which lies outside "
            "the complement it claims to accept",
        )

    tape = tape_of(word, machine.alphabet)
    found = _find_rejecting_path(machine, tape, node_budget)
    if found is None:  # unreachable: accept < 1 means some path rejects
        raise SimulationError("verdict says reject but no rejecting path was found")
    choices, trail = found

    # trail[1 + j] is the configuration after the left endmarker and j a's.
    kernel = compiled(machine)
    repeat = _first_repeat(config % kernel.size for config in trail[1 : n1 + 2])
    if repeat is None:  # unreachable: n1 exceeds the state count
        raise SimulationError("no repeated state in the first block")
    i, j = repeat
    gap = j - i
    segment = choices[1 + i : 1 + j]

    rest_choices = choices[1 + j :]
    for copies in (1, 2):
        pumped_word = "a" * (n1 + copies * gap) + word[n1:]
        pumped_choices = choices[: 1 + j] + segment * copies + rest_choices
        final = _replay(machine, tape_of(pumped_word, machine.alphabet), pumped_choices)[-1]
        if kernel.kind(final) != ACCEPT:
            break
    else:  # unreachable: the two pumped counters cannot both be 0
        raise SimulationError("both pumped paths accept; drift analysis violated")

    if classify_eqstar(pumped_word):
        raise SimulationError("pumped word failed oracle self-verification")
    if decide_mode(machine, pumped_word):
        raise SimulationError("pumped word failed engine self-verification")

    return PumpRefutation(
        kind="pumped-reject",
        base_word=word,
        witness_word=pumped_word,
        repeated_state=kernel.names[trail[1 + i] % kernel.size],
        pump_gap=gap,
        final_config=kernel.config(final),
        detail="a rejecting path pumped through the first-block cycle rejects "
        "a member of the complement of (a^n b^n)*",
    )


# ---------------------------------------------------------------------------
# Brute-force empirical refuter.
# ---------------------------------------------------------------------------

Rule = Callable[[str, Verdict], Optional[str]]


def exact_rule() -> Rule:
    """Zero-error rule: accept probability must be exactly 1 on yes, 0 on no."""

    def rule(label: str, verdict: Verdict) -> Optional[str]:
        if label == YES and verdict.accept != 1:
            return format_exact("expected accept=1 on a yes-instance, got {}", verdict.accept)
        if label == NO and verdict.accept != 0:
            return format_exact("expected accept=0 on a no-instance, got {}", verdict.accept)
        return None

    return rule


def threshold_rule(theta: Fraction = Fraction(1, 2)) -> Rule:
    """Cut rule: decide yes exactly when accept probability exceeds theta."""

    def rule(label: str, verdict: Verdict) -> Optional[str]:
        decided_yes = verdict.accept > theta
        if label == YES and not decided_yes:
            return format_exact("accept {} <= {} on a yes-instance", verdict.accept, theta)
        if label == NO and decided_yes:
            return format_exact("accept {} > {} on a no-instance", verdict.accept, theta)
        return None

    return rule


def exists_rule() -> Rule:
    """Nondeterministic mode: yes iff any accepting path exists."""

    def rule(label: str, verdict: Verdict) -> Optional[str]:
        decided_yes = MachineClass.N1BCA.decides_yes(verdict.accept)
        if label == YES and not decided_yes:
            return "no accepting path on a yes-instance"
        if label == NO and decided_yes:
            return format_exact("accepting path (mass {}) on a no-instance", verdict.accept)
        return None

    return rule


def forall_rule() -> Rule:
    """Universal mode: yes iff every path accepts."""

    def rule(label: str, verdict: Verdict) -> Optional[str]:
        decided_yes = MachineClass.U1BCA.decides_yes(verdict.accept)
        if label == YES and not decided_yes:
            return format_exact("rejecting path (accept mass {}) on a yes-instance", verdict.accept)
        if label == NO and decided_yes:
            return "all paths accept on a no-instance"
        return None

    return rule


def lv_rule() -> Rule:
    """Las Vegas soundness alone: ``ClaimedBounds.violation`` on bounds all verdicts meet."""
    soundness = ClaimedBounds(Fraction(0), Fraction(1), Fraction(1))

    def rule(label: str, verdict: Verdict) -> Optional[str]:
        return soundness.violation(label, verdict, las_vegas=True)

    return rule


def bounds_rule(bounds: ClaimedBounds, las_vegas: bool = False) -> Rule:
    """Hold a machine to its claimed exact bounds (plus LV soundness).

    The rule is :meth:`ClaimedBounds.violation`, the check ``ocalab batch``
    makes too.  ``run_many`` shares one ``Verdict`` per outcome, so the
    reason is kept per (label, verdict), with the verdict held so that its
    id is not reused, and the cache is cleared once it holds 256.
    """
    seen: dict[tuple[str, int], tuple[Verdict, Optional[str]]] = {}

    def rule(label: str, verdict: Verdict) -> Optional[str]:
        hit = seen.get((label, id(verdict)))
        if hit is None or hit[0] is not verdict:
            if len(seen) >= 256:
                seen.clear()
            hit = seen[(label, id(verdict))] = (verdict, bounds.violation(label, verdict, las_vegas))
        return hit[1]

    return rule


def default_rule(machine: CounterMachine) -> Rule:
    """The natural decision rule for the machine's class."""
    mclass = machine.mclass
    if mclass.deterministic or mclass.quantum:
        return exact_rule()
    if mclass.las_vegas:
        return lv_rule()
    if mclass is MachineClass.N1BCA:
        return exists_rule()
    if mclass is MachineClass.U1BCA:
        return forall_rule()
    return threshold_rule()


@dataclass(frozen=True)
class BruteResult:
    """First instance on which the machine's decision contradicts the label."""

    word: str
    label: str
    verdict: Verdict
    reason: str


def brute_refute(
    machine: CounterMachine,
    problem: str,
    n: int,
    rule: Optional[Rule] = None,
) -> Optional[BruteResult]:
    """Scan the problem's instances up to ``n`` in generator order; the
    first contradiction, or None.

    The instances are streamed through ``run_many``, and nothing past the
    first contradiction is generated or run.
    """
    if rule is None:
        rule = default_rule(machine)
    instances, words = tee(get_problem(problem).instances(n))
    for (word, label), verdict in zip(instances, run_many(machine, (w for w, _ in words))):
        reason = rule(label, verdict)
        if reason is not None:
            return BruteResult(word=word, label=label, verdict=verdict, reason=reason)
    return None
