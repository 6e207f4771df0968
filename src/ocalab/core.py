"""Shared model types for one-way one-counter machines.

A machine reads its input once, left to right, framed by endmarkers: the
tape for input ``w`` is ``LEFT_END + w + RIGHT_END``.  A configuration is a
pair (state, counter) with the counter ranging over all integers.  The only
thing a machine may observe about the counter is its *status*: ``Z`` when
the counter is exactly zero, ``NZ`` otherwise.  Blind machine classes may
not even observe that much: their transition tables are required to be
identical on both statuses.

Transition tables are total by convention rather than by storage: any
(state, symbol, status) triple without an explicit row falls into an
implicit absorbing sink state that loops forever without moving the
counter and never accepts.
"""
from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .amplitudes import AMP_ONE, Amplitude

__all__ = [
    "CounterMachine",
    "ENDMARKERS",
    "EngineError",
    "LEFT_END",
    "MachineClass",
    "NZ",
    "RIGHT_END",
    "SINK",
    "STATUSES",
    "SimulationError",
    "Verdict",
    "Violation",
    "Z",
    "mass_of",
    "require_valid",
    "status_of",
    "tape_of",
    "validate_machine",
]

LEFT_END = "¢"
RIGHT_END = "$"
ENDMARKERS = (LEFT_END, RIGHT_END)

Z = "Z"
NZ = "NZ"
STATUSES = (Z, NZ)

SINK = "<sink>"

State = str
Symbol = str
Status = str
Weight = Fraction | Amplitude
TransKey = tuple[State, Symbol, Status]
TransEntry = tuple[State, int, Weight]
TransTable = dict[TransKey, tuple[TransEntry, ...]]


class FrozenTable(dict):
    """A read-only ``dict``: every mutator raises ``TypeError``.

    Being a real ``dict``, it copies at ``dict`` speed: ``dict(table)`` and
    ``table.copy()`` return a plain, writable ``dict``.
    """

    __slots__ = ()

    def _read_only(self, *args: object, **kwargs: object) -> None:
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only  # type: ignore[assignment]
    clear = pop = popitem = setdefault = update = _read_only  # type: ignore[assignment]

    def __reduce__(self) -> tuple:  # copy and pickle rebuild it whole, not item by item
        return FrozenTable, (dict(self),)


def status_of(counter: int) -> Status:
    """Status of a counter value: ``Z`` iff it is exactly zero."""
    return Z if counter == 0 else NZ


def format_exact(template: str, *values: object) -> str:
    """``template.format(*values)`` with every digit of an exact value written out.

    Python refuses to write an int of more than 4,300 digits; the limit is
    lifted for this one conversion and then restored, so parsing keeps it.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return template.format(*values)
    finally:
        sys.set_int_max_str_digits(limit)


class EngineError(Exception):
    """Base class for everything this package raises on purpose."""


class SimulationError(EngineError):
    """A run could not be carried out (wrong machine class, bad input...)."""


class MachineClass(enum.Enum):
    """The machine classes the laboratory knows how to simulate."""

    D1CA = "d1ca"
    D1BCA = "d1bca"
    P1CA = "p1ca"
    P1BCA = "p1bca"
    N1BCA = "n1bca"
    U1BCA = "u1bca"
    Q1CA = "q1ca"
    LV_P1CA = "lv-p1ca"
    LV_P1BCA = "lv-p1bca"

    @property
    def tag(self) -> str:
        return self.value

    @property
    def blind(self) -> bool:
        """Blind machines accept only with counter zero and cannot branch on status."""
        return self in (
            MachineClass.D1BCA,
            MachineClass.P1BCA,
            MachineClass.N1BCA,
            MachineClass.U1BCA,
            MachineClass.LV_P1BCA,
        )

    @property
    def deterministic(self) -> bool:
        return self in (MachineClass.D1CA, MachineClass.D1BCA)

    @property
    def quantum(self) -> bool:
        return self is MachineClass.Q1CA

    @property
    def las_vegas(self) -> bool:
        return self in (MachineClass.LV_P1CA, MachineClass.LV_P1BCA)

    @property
    def modal(self) -> bool:
        """Classes whose verdict is a yes/no over branch existence, not a probability."""
        return self in (MachineClass.N1BCA, MachineClass.U1BCA)

    def decides_yes(self, accept: Fraction) -> bool:
        """The yes/no reading of a modal class's accept mass.

        Existential machines say yes when any branch accepts (mass > 0),
        universal ones only when every branch does (mass exactly 1).
        """
        if self is MachineClass.N1BCA:
            return accept > 0
        if self is MachineClass.U1BCA:
            return accept == 1
        raise ValueError(f"class {self.tag} has no modal reading")

    @property
    def probabilistic(self) -> bool:
        """Classes whose branch weights are probabilities (summing to one)."""
        return not (self.deterministic or self.quantum)

    @classmethod
    def from_tag(cls, tag: str) -> "MachineClass":
        for mc in cls:
            if mc.value == tag:
                return mc
        raise ValueError(f"unknown machine class tag: {tag!r}")


def _one_for(mclass: MachineClass) -> Weight:
    return AMP_ONE if mclass.quantum else Fraction(1)


@dataclass(frozen=True)
class Verdict:
    """Exact outcome distribution of a run: accept / reject / neutral mass.

    Non-Las-Vegas machines always report zero neutral mass.  For the modal
    classes the fields still sum to one but carry branch mass rather than
    probability; their yes/no reading is :meth:`MachineClass.decides_yes`.
    """

    accept: Fraction
    reject: Fraction
    neutral: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # Integer forms of the Fraction checks: denominators are positive.
        for part in (self.accept, self.reject, self.neutral):
            if not isinstance(part, Fraction):
                raise TypeError("Verdict fields must be exact Fractions")
            if part.numerator < 0 or part.numerator > part.denominator:
                raise ValueError(f"verdict mass out of range: {part}")
        (p, q), (r, s), (t, u) = (
            part.as_integer_ratio() for part in (self.accept, self.reject, self.neutral)
        )
        if (p * s + r * q) * u + t * q * s != q * s * u:
            raise ValueError(
                "verdict masses must sum to 1, got "
                f"{self.accept} + {self.reject} + {self.neutral}"
            )


@dataclass(frozen=True)
class CounterMachine:
    """A one-way one-counter machine of any supported class.

    ``transitions`` maps (state, symbol, status) to a tuple of
    (next_state, counter_delta, weight) branches.  Weights are exact
    ``Fraction`` probabilities for classical machines and exact
    ``Amplitude`` ring elements for quantum ones.  Missing keys mean the
    implicit sink; use :meth:`entries` to read the table totally.

    The table is frozen on construction (a read-only copy), so a machine
    never changes after it is built and the engines may cache its
    compiled form; build a changed machine with ``dataclasses.replace``.
    """

    name: str
    mclass: MachineClass
    alphabet: tuple[Symbol, ...]
    states: tuple[State, ...]
    initial: State
    accepting: frozenset[State]
    transitions: Mapping[TransKey, tuple[TransEntry, ...]]
    neutral: frozenset[State] = field(default_factory=frozenset)
    max_step: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.transitions, FrozenTable):  # a frozen one is shared
            object.__setattr__(self, "transitions", FrozenTable(self.transitions))

    def entries(self, state: State, symbol: Symbol, status: Status) -> tuple[TransEntry, ...]:
        """Total transition lookup; unlisted triples drop into the sink."""
        if state == SINK:
            return ((SINK, 0, _one_for(self.mclass)),)
        row = self.transitions.get((state, symbol, status))
        if row is None:
            return ((SINK, 0, _one_for(self.mclass)),)
        return row

    @property
    def tape_symbols(self) -> tuple[Symbol, ...]:
        return self.alphabet + ENDMARKERS

    def __hash__(self) -> int:
        return hash((self.name, self.mclass, self.alphabet, self.states))


@dataclass(frozen=True)
class Violation:
    """One well-formedness problem found by :func:`validate_machine`."""

    code: str
    message: str
    key: TransKey | None = None

    def __str__(self) -> str:
        if self.key is None:
            return f"[{self.code}] {self.message}"
        state, symbol, status = self.key
        return f"[{self.code}] ({state}, {symbol}, {status}): {self.message}"


def _weight_problem(quantum: bool, weight: object) -> str:
    """What is wrong with one branch weight, or "" when nothing is."""
    if quantum:
        if not isinstance(weight, Amplitude):
            return "quantum transitions need Amplitude weights"
    elif not isinstance(weight, Fraction):
        return "classical transitions need Fraction weights"
    elif weight.numerator <= 0 or weight.numerator > weight.denominator:
        return f"classical weight must lie in (0, 1], got {weight}"
    return ""


def validate_machine(machine: CounterMachine) -> list[Violation]:
    """Check well-formedness; returns a list of violations (empty == valid).

    Structural checks cover state/symbol membership, counter step bounds,
    per-key weight discipline (single weight-1 branch for deterministic
    classes, exact sum 1 for probabilistic ones), blindness (identical rows
    on both statuses) and the accepting/neutral state sets.  For quantum
    machines, if the table is otherwise sound, the per-symbol evolution
    operators are additionally checked to be unitary on a window of counter
    values wide enough to be conclusive; a window too large to build is one
    violation.
    """
    out: list[Violation] = []
    states = set(machine.states)
    symbols = set(machine.alphabet)

    if not machine.states:
        out.append(Violation("states-empty", "machine has no states"))
    if len(states) != len(machine.states):
        out.append(Violation("states-dup", "duplicate state names"))
    if len(symbols) != len(machine.alphabet):
        out.append(Violation("alphabet-dup", "duplicate alphabet symbols"))
    for sym in machine.alphabet:
        if sym in ENDMARKERS:
            out.append(Violation("alphabet-endmarker", f"alphabet may not contain {sym!r}"))
        if not sym:
            out.append(Violation("alphabet-empty-symbol", "empty string is not a symbol"))
    if SINK in states:
        out.append(Violation("states-sink", f"state name {SINK!r} is reserved"))
    if machine.initial not in states:
        out.append(Violation("initial-unknown", f"initial state {machine.initial!r} not in states"))
    for kind, chosen in (("accepting", machine.accepting), ("neutral", machine.neutral)):
        for q in chosen:
            if q not in states:
                out.append(Violation(f"{kind}-unknown", f"{kind} state {q!r} not in states"))
    if machine.neutral and not machine.mclass.las_vegas:
        out.append(
            Violation(
                "neutral-class",
                f"class {machine.mclass.tag} does not use neutral states",
            )
        )
    if machine.mclass.las_vegas and machine.neutral & machine.accepting:
        out.append(
            Violation("neutral-overlap", "neutral and accepting state sets must be disjoint")
        )
    if machine.max_step < 1:
        out.append(Violation("max-step", f"max_step must be >= 1, got {machine.max_step}"))

    tape = symbols | set(ENDMARKERS)
    mclass, max_step = machine.mclass, machine.max_step
    quantum, deterministic, probabilistic = mclass.quantum, mclass.deterministic, mclass.probabilistic
    # Tables share weight objects and weight tuples: each distinct one is
    # checked once, keyed by identity (the table keeps them alive).
    weight_problems: dict[int, str] = {}
    sum_problems: dict[tuple[int, ...], str] = {}

    for key in sorted(machine.transitions):
        state, symbol, status = key
        row = machine.transitions[key]
        if state not in states:
            out.append(Violation("key-state", f"unknown source state {state!r}", key))
        if symbol not in tape:
            out.append(Violation("key-symbol", f"unknown symbol {symbol!r}", key))
        if status not in STATUSES:
            out.append(Violation("key-status", f"status must be Z or NZ, got {status!r}", key))
        if not row:
            out.append(Violation("row-empty", "transition row has no branches", key))
            continue
        seen_targets: set[tuple[State, int]] = set()
        for target, delta, weight in row:
            if target not in states:
                out.append(Violation("target-state", f"unknown target state {target!r}", key))
            if abs(delta) > max_step:
                out.append(
                    Violation(
                        "delta-range",
                        f"counter step {delta} exceeds max_step {max_step}",
                        key,
                    )
                )
            problem = weight_problems.get(id(weight))
            if problem is None:
                problem = weight_problems[id(weight)] = _weight_problem(quantum, weight)
            if problem:
                out.append(Violation("weight", problem, key))
            if (target, delta) in seen_targets:
                out.append(
                    Violation(
                        "branch-dup",
                        f"duplicate branch to ({target!r}, {delta:+d})",
                        key,
                    )
                )
            seen_targets.add((target, delta))
        if deterministic:
            weight = row[0][2]
            if len(row) != 1:
                out.append(
                    Violation("det-branching", "deterministic machines need exactly one branch", key)
                )
            elif isinstance(weight, Fraction) and weight.numerator != weight.denominator:
                out.append(
                    Violation("det-weight", f"deterministic branch weight must be 1, got {weight}", key)
                )
        elif probabilistic:
            ids = tuple([id(w) for _, _, w in row])
            problem = sum_problems.get(ids)
            if problem is None:
                weights = [w for _, _, w in row if isinstance(w, Fraction)]
                total = sum(weights)
                wrong = len(weights) == len(row) and total != 1
                problem = format_exact("branch probabilities must sum to 1, got {}", total) if wrong else ""
                sum_problems[ids] = problem
            if problem:
                out.append(Violation("prob-sum", problem, key))

    if machine.mclass.blind:
        keys = {(state, symbol) for state, symbol, _ in machine.transitions}
        for state, symbol in sorted(keys):
            z_row = machine.transitions.get((state, symbol, Z))
            nz_row = machine.transitions.get((state, symbol, NZ))
            if z_row != nz_row:
                out.append(
                    Violation(
                        "blind-status",
                        "blind machine must have identical rows for Z and NZ",
                        (state, symbol, Z),
                    )
                )

    if machine.mclass.quantum and not out:
        from .quantum import check_unitarity

        try:
            out.extend(check_unitarity(machine).as_violations())
        except SimulationError as exc:
            out.append(Violation("unitarity-window", str(exc)))

    return out


def require_valid(machine: CounterMachine) -> None:
    """Raise :class:`SimulationError` if the machine is not well formed."""
    violations = validate_machine(machine)
    if violations:
        summary = "; ".join(str(v) for v in violations[:5])
        if len(violations) > 5:
            summary += f" (and {len(violations) - 5} more)"
        raise SimulationError(f"machine {machine.name!r} is not well formed: {summary}")


def tape_of(word: Iterable[Symbol] | str, alphabet: Iterable[Symbol]) -> list[Symbol]:
    """Build the framed tape ``[LEFT_END, *word, RIGHT_END]`` for a word.

    Accepts either a plain string (split into characters) or an iterable of
    symbols, and checks every symbol against the alphabet.
    """
    symbols = list(word)
    allowed = set(alphabet)
    if not allowed.difference(ENDMARKERS).issuperset(symbols):
        for sym in symbols:  # the first bad symbol names the error
            if sym in ENDMARKERS:
                raise SimulationError(f"input may not contain the endmarker {sym!r}")
            if sym not in allowed:
                raise SimulationError(f"input symbol {sym!r} is not in the machine alphabet")
    return [LEFT_END, *symbols, RIGHT_END]


def mass_of(weights: Mapping[State, Fraction], chosen: frozenset[State]) -> Fraction:
    """Total weight carried by a set of states in a state-indexed mapping."""
    return sum((weights[q] for q in weights.keys() & chosen), Fraction(0))
