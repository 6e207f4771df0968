"""Exact forward simulation of the classical machine classes.

The engine pushes a finite rational distribution over configurations
(state, counter) through the framed input one symbol at a time.  Paths
that meet are merged additively, so the final accept/reject/neutral
masses are exact — no path enumeration and no floating point.  The same
propagation serves the deterministic, probabilistic, Las Vegas and modal
(existential / universal) classes; only the reading of the final
distribution differs.  Runs go through the compiled integer kernel
(:mod:`ocalab.kernel`); the functions here that take or return a
distribution use exact ``Fraction`` masses.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import kernel as _kernel
from .core import (
    CounterMachine,
    SimulationError,
    Verdict,
    tape_of,
)

__all__ = [
    "RunTrace",
    "decide_mode",
    "initial_distribution",
    "run",
    "run_trace",
    "sample_run",
    "step",
    "verdict_of",
]

Config = tuple[str, int]
ConfigDistribution = dict[Config, Fraction]


def initial_distribution(machine: CounterMachine) -> ConfigDistribution:
    """Point mass on (initial state, counter 0)."""
    return {(machine.initial, 0): Fraction(1)}


def _require_classical(machine: CounterMachine) -> None:
    if machine.mclass.quantum:
        raise SimulationError(
            f"machine {machine.name!r} is quantum; use the quantum engine"
        )


def step(
    machine: CounterMachine, dist: ConfigDistribution, symbol: str
) -> ConfigDistribution:
    """One exact evolution step of the distribution on one tape symbol."""
    _require_classical(machine)
    return _kernel.step_exact(machine, dist, symbol)


# The code of this module's own ``step``: a wrapper or a replacement bound
# to the name (even to every name of the function) has other code.
_OWN_STEP = step.__code__


def verdict_of(machine: CounterMachine, dist: ConfigDistribution) -> Verdict:
    """Read the final distribution under the machine class's acceptance rule.

    Non-blind classes accept on the final state alone; blind classes
    additionally require counter zero (for both the accepting and the
    neutral outcome), with everything else rejecting.
    """
    return _kernel.read_exact(machine, dist)


@dataclass(frozen=True)
class RunTrace:
    """Outcome of a run, optionally keeping every intermediate distribution."""

    verdict: Verdict
    steps: int
    final: ConfigDistribution
    distributions: tuple[ConfigDistribution, ...] | None = None


def run_trace(
    machine: CounterMachine, word: str, keep_distributions: bool = False
) -> RunTrace:
    """Run on the framed input and keep the evolution details."""
    _require_classical(machine)
    kernel = _kernel.compiled(machine)
    tape = tape_of(word, machine.alphabet)
    kept: list | None = [] if keep_distributions else None
    dist, den = _kernel.advance_runs(kernel, tape) if kept is None else _kernel.advance(kernel, tape, keep=kept)
    return RunTrace(
        verdict=_kernel.read(kernel, dist.items(), den),
        steps=len(tape),
        final=_kernel.to_exact(kernel, _kernel.flat(kernel, dist), den),
        distributions=None
        if kept is None
        else tuple(_kernel.to_exact(kernel, _kernel.flat(kernel, d), n) for d, n in kept),
    )


def run(machine: CounterMachine, word: str) -> Verdict:
    """Exact accept/reject/neutral masses of a run over the framed input.

    A run is :func:`step` folded over the framed tape.  While ``step`` is
    this module's own function the compiled kernel runs the whole tape in
    one go; once the name is rebound (a wrapper that observes or alters
    single steps), every symbol goes through it.
    """
    _require_classical(machine)
    if getattr(step, "__code__", None) is _OWN_STEP:
        return _kernel.run_word(machine, word)
    dist = initial_distribution(machine)
    for symbol in tape_of(word, machine.alphabet):
        dist = step(machine, dist, symbol)
    return verdict_of(machine, dist)


def decide_mode(machine: CounterMachine, word: str) -> bool:
    """Yes/no reading of a run for the modal classes: ``MachineClass.decides_yes``."""
    if not machine.mclass.modal:
        raise SimulationError(
            f"decide_mode needs an existential or universal machine, got {machine.mclass.tag}"
        )
    return machine.mclass.decides_yes(run(machine, word).accept)


_OUTCOMES = {_kernel.ACCEPT: "accept", _kernel.NEUTRAL: "dontknow", _kernel.REJECT: "reject"}


def sample_run(machine: CounterMachine, word: str, seed: int) -> str:
    """Draw one random path; returns "accept", "reject" or "dontknow".

    Sampling is exact: every branch point draws an integer below the common
    denominator of the branch weights, so the sampled path distribution
    matches the exact engine for any fixed-seed reproducible run.
    Deterministic machines are allowed (there is one path); quantum
    machines are not, since a single path has no outcome probability.
    """
    _require_classical(machine)
    kernel = _kernel.compiled(machine)
    rng = random.Random(seed)
    config = kernel.initial
    for symbol in tape_of(word, machine.alphabet):
        row = kernel.branches_at(config, symbol)
        if len(row) == 1:
            config += row[0][0]
            continue
        den = kernel.tables[symbol].den
        # The row's own least denominator, so a seed draws as it always has.
        common = gcd(den, *(weight for _, weight in row))
        draw = rng.randrange(den // common)
        acc = 0
        off = row[-1][0]
        for branch_off, weight in row:
            acc += weight // common
            if draw < acc:
                off = branch_off
                break
        config += off
    return _OUTCOMES[kernel.kind(config)]
