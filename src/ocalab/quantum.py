"""Exact simulation of quantum counter machines.

A state vector is a finite map from configurations (state, counter) to
nonzero amplitudes in Q(sqrt2)+i*Q(sqrt2).  Evolution applies the
per-symbol operator U_sigma defined by the transition table, pruning
exact zeros so destructive interference truly removes configurations.
Measurement happens once, after the right endmarker: the accept
probability is the squared norm of the projection onto the accepting
states.  All arithmetic is exact; a square-root component surviving into
a final probability is reported as a hard error, never rounded away.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from . import kernel as _kernel
from .amplitudes import AMP_ONE, QZERO, Amplitude, Quad
from .core import (
    SINK,
    CounterMachine,
    MachineClass,
    SimulationError,
    Verdict,
    Violation,
    format_exact,
    status_of,
    tape_of,
)
from .kernel import MeasurementError

__all__ = [
    "MeasurementError",
    "UnitarityReport",
    "check_unitarity",
    "evolve",
    "initial_vector",
    "measure",
    "norm_squared",
    "run_quantum",
]

Config = tuple[str, int]
StateVector = dict[Config, Amplitude]

# Most source columns check_unitarity builds (states x (6·max_step + 1)):
# about 30 times xoreq-q1ca's.  The 157,514 of build_xoreq_q1ca(25) took
# 12 s and 140 MB on a 2-vCPU Xeon.
_MAX_WINDOW = 200_000


def _require_quantum(machine: CounterMachine) -> None:
    if machine.mclass is not MachineClass.Q1CA:
        raise SimulationError(
            f"machine {machine.name!r} is classical; use the classical engine"
        )


def initial_vector(machine: CounterMachine) -> StateVector:
    return {(machine.initial, 0): AMP_ONE}


def evolve(machine: CounterMachine, psi: StateVector, symbol: str) -> StateVector:
    """Apply the per-symbol evolution operator; exact zeros are pruned."""
    _require_quantum(machine)
    return _kernel.step_exact(machine, psi, symbol)


# The code of this module's own ``evolve``: a wrapper or a replacement bound
# to the name (even to every name of the function) has other code.
_OWN_EVOLVE = evolve.__code__


def norm_squared(psi: StateVector) -> tuple[Fraction, Fraction]:
    """Squared norm as (rational, sqrt2-coefficient) in Q(sqrt2)."""
    rat = Fraction(0)
    s2 = Fraction(0)
    for amp in psi.values():
        part_rat, part_s2 = amp.abs2()
        rat += part_rat
        s2 += part_s2
    return rat, s2


def measure(machine: CounterMachine, psi: StateVector) -> Verdict:
    """Project the final vector onto accepting states; exact Born rule.

    The machine class observes only the final state, so every counter
    value contributes.  Both the total norm and the accepting mass must
    come out as plain rationals (sqrt2 components cancel for any machine
    whose operators are unitary); a residue is raised, not rounded.
    """
    _require_quantum(machine)
    return _kernel.read_exact(machine, psi)


def run_quantum(machine: CounterMachine, word: str) -> Verdict:
    """Evolve through the framed input, then measure once.

    While ``evolve`` is this module's own function the compiled kernel
    runs the whole tape in one go; once the name is rebound, every symbol
    goes through it.
    """
    _require_quantum(machine)
    if getattr(evolve, "__code__", None) is _OWN_EVOLVE:
        return _kernel.run_word(machine, word)
    psi = initial_vector(machine)
    for symbol in tape_of(word, machine.alphabet):
        psi = evolve(machine, psi, symbol)
    return measure(machine, psi)


PairEntry = tuple[str, Config, Config, Amplitude]


@dataclass(frozen=True)
class UnitarityReport:
    """Orthonormality failures of the per-symbol operators.

    ``isometry_violations`` holds column pairs (source configurations)
    whose images fail orthonormality; ``coisometry_violations`` holds the
    same for rows (target configurations).  Each entry records the symbol,
    the two configurations and the offending inner product (for a pair of
    equal configurations the product should be 1, otherwise 0).
    """

    isometry_violations: tuple[PairEntry, ...] = field(default_factory=tuple)
    coisometry_violations: tuple[PairEntry, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.isometry_violations and not self.coisometry_violations

    def as_violations(self) -> list[Violation]:
        out: list[Violation] = []
        for kind, entries in (
            ("unitary-isometry", self.isometry_violations),
            ("unitary-coisometry", self.coisometry_violations),
        ):
            for symbol, config_a, config_b, product in entries:
                state_a, counter_a = config_a
                key = None
                if kind == "unitary-isometry" and state_a != SINK:
                    key = (state_a, symbol, status_of(counter_a))
                out.append(
                    Violation(
                        kind,
                        format_exact(
                            "on {!r}, configurations {} and {} give inner product {!r}",
                            symbol, config_a, config_b, product,
                        ),
                        key,
                    )
                )
        return out


def _gram_violations(
    vectors: dict[int, dict[int, Quad]],
    keys: list[int],
    unit: Quad,
) -> list[tuple[int, int, Quad]]:
    """Orthonormality failures among ``vectors[key]`` for ``key`` in ``keys``.

    Two vectors have a nonzero inner product only if they share a support
    configuration, so the Gram matrix is accumulated through shared-support
    buckets instead of all-pairs products; the result is identical.  A
    vector of one entry on a configuration no other vector reaches is
    orthogonal to all of them, so it needs no bucket, only its norm.  A
    vector has norm ``unit`` when it is normalised.
    """
    index = {key: i for i, key in enumerate(keys)}
    reach = Counter(chain.from_iterable(vectors.get(key, ()) for key in keys))
    norms: dict[Quad, Quad] = {}  # one product per distinct entry
    gram: dict[tuple[int, int], Quad] = {}
    buckets: dict[int, list[tuple[int, Quad]]] = {}
    for key in keys:
        vector = vectors.get(key, {})
        if len(vector) == 1:
            ((support, amp),) = vector.items()
            if reach[support] == 1:
                gram[key, key] = norms.get(amp) or norms.setdefault(amp, amp.conjugate() * amp)
                continue
        for support, amp in vector.items():
            buckets.setdefault(support, []).append((key, amp))

    for entries in buckets.values():
        # Entries follow ``keys``, so each pair is stored lower index first,
        # with the conjugate on that first vector.
        for i, (key_a, amp_a) in enumerate(entries):
            conj_a = amp_a.conjugate()
            for key_b, amp_b in entries[i:]:
                pair = (key_a, key_b)
                term = conj_a * amp_b
                prev = gram.get(pair)
                gram[pair] = term if prev is None else prev + term

    violations = []
    for key in keys:
        product = gram.pop((key, key), QZERO)
        if product != unit:
            violations.append((key, key, product))
    for (key_a, key_b), product in gram.items():
        if product != QZERO:
            violations.append((key_a, key_b, product))
    violations.sort(key=lambda entry: (index[entry[0]], index[entry[1]]))
    return violations


def check_unitarity(machine: CounterMachine) -> UnitarityReport:
    """Check every per-symbol operator on a conclusive finite window.

    Transitions see the counter only through its zero/nonzero status, so
    the operator acts identically on all counter values of the same sign
    away from zero.  Checking column pairs with both counters in
    {-2m..2m} therefore covers every distinct (status, status, offset)
    combination — columns further apart than 2m cannot overlap — and
    likewise for rows.  Columns are built from sources in {-3m..3m} so
    that rows over the window see all of their mass.  The implicit sink
    state takes part like any other state.  Columns come from the
    compiled rows, weights over the symbol's denominator ``den``, so a
    normalised column has integer norm ``den**2``.  A window of more than
    ``_MAX_WINDOW`` columns raises :class:`SimulationError`.
    """
    _require_quantum(machine)
    m = machine.max_step
    states = list(machine.states)
    if SINK not in states:
        states.append(SINK)
    if len(states) * (6 * m + 1) > _MAX_WINDOW:
        raise SimulationError(
            f"unitarity window of {len(states)} states x {6 * m + 1} counter values "
            f"exceeds {_MAX_WINDOW} configurations; lower maxstep"
        )
    kernel = _kernel.compiled(machine)
    size = kernel.size
    ids = [kernel.ids[state] for state in states]
    window = [counter * size + s for s in ids for counter in range(-2 * m, 2 * m + 1)]
    low, high = -2 * m * size, (2 * m + 1) * size

    isometry: list[PairEntry] = []
    coisometry: list[PairEntry] = []
    for symbol in machine.tape_symbols:
        table = kernel.tables[symbol]
        unit = Quad(table.den)
        columns: dict[int, dict[int, Quad]] = {}
        for s in ids:
            for counter in range(-3 * m, 3 * m + 1):
                source = counter * size + s
                branches = table.branches(s, counter == 0, unit)
                column: dict[int, Quad] = {}
                for off, weight in branches:
                    prev = column.get(source + off)
                    column[source + off] = weight if prev is None else prev + weight
                if len(column) < len(branches):  # only a sum can cancel to zero
                    column = {key: amp for key, amp in column.items() if amp != QZERO}
                columns[source] = column

        rows: dict[int, dict[int, Quad]] = {}
        for source, column in columns.items():
            for target, amp in column.items():
                if low <= target < high:
                    rows.setdefault(target, {})[source] = amp

        den2 = table.den * table.den
        for out, vectors in ((isometry, columns), (coisometry, rows)):
            for key_a, key_b, product in _gram_violations(vectors, window, Quad(den2)):
                out.append(
                    (
                        symbol,
                        kernel.config(key_a),
                        kernel.config(key_b),
                        Amplitude.over(product, den2),
                    )
                )

    return UnitarityReport(tuple(isometry), tuple(coisometry))
