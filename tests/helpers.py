"""Shared machine builders and reference checkers for the test suite."""
from __future__ import annotations

import dataclasses
from fractions import Fraction

from ocalab import (
    AMP_INV_SQRT2,
    AMP_ONE,
    LEFT_END,
    RIGHT_END,
    SINK,
    Amplitude,
    CounterMachine,
    MachineClass,
    status_of,
)

F = Fraction
H = Fraction(1, 2)
L = LEFT_END
R = RIGHT_END


def table(rows):
    """Build a transition table from (state, symbol, status-or-*, branches) rows."""
    out = {}
    for state, symbol, status, branches in rows:
        statuses = ("Z", "NZ") if status == "*" else (status,)
        for st in statuses:
            out[(state, symbol, st)] = tuple(branches)
    return out


def mk(name, tag, alphabet, states, initial, accepting, rows, neutral=(), max_step=1):
    return CounterMachine(
        name=name,
        mclass=MachineClass.from_tag(tag),
        alphabet=tuple(alphabet),
        states=tuple(states),
        initial=initial,
        accepting=frozenset(accepting),
        transitions=table(rows),
        neutral=frozenset(neutral),
        max_step=max_step,
    )


# ---------------------------------------------------------------------------
# Quantum toys.
# ---------------------------------------------------------------------------


def hadamard2():
    """Two states, one letter; reading 'a' twice interferes back to the start."""
    s = AMP_INV_SQRT2
    return mk(
        "hadamard2",
        "q1ca",
        "a",
        ("q", "r"),
        "q",
        ("q",),
        [
            ("q", L, "*", [("q", 0, AMP_ONE)]),
            ("r", L, "*", [("r", 0, AMP_ONE)]),
            ("q", "a", "*", [("q", 0, s), ("r", 0, s)]),
            ("r", "a", "*", [("q", 0, s), ("r", 0, -s)]),
            ("q", R, "*", [("q", 0, AMP_ONE)]),
            ("r", R, "*", [("r", 0, AMP_ONE)]),
        ],
    )


def hadamard2_broken():
    """Same as hadamard2 but with one amplitude detuned; not unitary."""
    good = hadamard2()
    transitions = dict(good.transitions)
    row = ((("q", 0, Amplitude(F(1, 2)))), ("r", 0, AMP_INV_SQRT2))
    transitions[("q", "a", "Z")] = row
    transitions[("q", "a", "NZ")] = row
    return dataclasses.replace(good, name="hadamard2-broken", transitions=transitions)


def quantum_sink_collide():
    """Two states with no 'a' rows: both fall into the same sink column."""
    return mk(
        "sink-collide",
        "q1ca",
        "a",
        ("q", "r"),
        "q",
        ("q",),
        [
            ("q", L, "*", [("q", 0, AMP_ONE)]),
            ("r", L, "*", [("r", 0, AMP_ONE)]),
            ("q", R, "*", [("q", 0, AMP_ONE)]),
            ("r", R, "*", [("r", 0, AMP_ONE)]),
        ],
    )


def quantum_sink_single():
    """One state with no 'a' row: mass falls into the sink and collides
    with the sink's own stay-put column, so the machine is not unitary."""
    return mk(
        "sink-single",
        "q1ca",
        "a",
        ("q",),
        "q",
        ("q",),
        [
            ("q", L, "*", [("q", 0, AMP_ONE)]),
            ("q", R, "*", [("q", 0, AMP_ONE)]),
        ],
    )


# ---------------------------------------------------------------------------
# Deterministic machines over the XOR-EQ tape alphabet {0, #}.
# ---------------------------------------------------------------------------


def det_const():
    """Ignores the input and accepts everything."""
    return mk(
        "det-const",
        "d1ca",
        "0#",
        ("s",),
        "s",
        ("s",),
        [
            ("s", L, "*", [("s", 0, F(1))]),
            ("s", "0", "*", [("s", 0, F(1))]),
            ("s", "#", "*", [("s", 0, F(1))]),
            ("s", R, "*", [("s", 0, F(1))]),
        ],
    )


def det_count0():
    """Counts every 0 on the tape."""
    return mk(
        "det-count0",
        "d1ca",
        "0#",
        ("s",),
        "s",
        ("s",),
        [
            ("s", L, "*", [("s", 0, F(1))]),
            ("s", "0", "*", [("s", 1, F(1))]),
            ("s", "#", "*", [("s", 0, F(1))]),
            ("s", R, "*", [("s", 0, F(1))]),
        ],
    )


def det_parity():
    """Tracks the parity of the # count and nothing else."""
    return mk(
        "det-parity",
        "d1ca",
        "0#",
        ("p0", "p1"),
        "p0",
        ("p0",),
        [
            ("p0", L, "*", [("p0", 0, F(1))]),
            ("p1", L, "*", [("p1", 0, F(1))]),
            ("p0", "0", "*", [("p0", 0, F(1))]),
            ("p1", "0", "*", [("p1", 0, F(1))]),
            ("p0", "#", "*", [("p1", 0, F(1))]),
            ("p1", "#", "*", [("p0", 0, F(1))]),
            ("p0", R, "*", [("p0", 0, F(1))]),
            ("p1", R, "*", [("p1", 0, F(1))]),
        ],
    )


def det_blockb():
    """Counts the 0s of every second block (the b positions)."""
    return mk(
        "det-blockb",
        "d1ca",
        "0#",
        ("e", "o"),
        "e",
        ("e",),
        [
            ("e", L, "*", [("e", 0, F(1))]),
            ("o", L, "*", [("o", 0, F(1))]),
            ("e", "0", "*", [("e", 0, F(1))]),
            ("o", "0", "*", [("o", 1, F(1))]),
            ("e", "#", "*", [("o", 0, F(1))]),
            ("o", "#", "*", [("e", 0, F(1))]),
            ("e", R, "*", [("e", 0, F(1))]),
            ("o", R, "*", [("o", 0, F(1))]),
        ],
    )


def det_a5b():
    """Counter a + 5b after cent 0^a # 0^b #: no collision among prefixes up to 8."""
    return mk(
        "det-a5b",
        "d1ca",
        "0#",
        ("e", "o"),
        "e",
        ("e",),
        [
            ("e", L, "*", [("e", 0, F(1))]),
            ("o", L, "*", [("o", 0, F(1))]),
            ("e", "0", "*", [("e", 1, F(1))]),
            ("o", "0", "*", [("o", 5, F(1))]),
            ("e", "#", "*", [("o", 0, F(1))]),
            ("o", "#", "*", [("e", 0, F(1))]),
            ("e", R, "*", [("e", 0, F(1))]),
            ("o", R, "*", [("o", 0, F(1))]),
        ],
        max_step=5,
    )


# ---------------------------------------------------------------------------
# Universal blind machines over {a, b} with over-claimed languages.
# ---------------------------------------------------------------------------


def u_accept_all():
    return mk(
        "u-accept-all",
        "u1bca",
        "ab",
        ("s",),
        "s",
        ("s",),
        [
            ("s", L, "*", [("s", 0, F(1))]),
            ("s", "a", "*", [("s", 0, F(1))]),
            ("s", "b", "*", [("s", 0, F(1))]),
            ("s", R, "*", [("s", 0, F(1))]),
        ],
    )


def u_updown():
    """Accepts exactly the words with equally many a's and b's."""
    return mk(
        "u-updown",
        "u1bca",
        "ab",
        ("s",),
        "s",
        ("s",),
        [
            ("s", L, "*", [("s", 0, F(1))]),
            ("s", "a", "*", [("s", 1, F(1))]),
            ("s", "b", "*", [("s", -1, F(1))]),
            ("s", R, "*", [("s", 0, F(1))]),
        ],
    )


def u_branchy():
    """Splits on every 'a'; the branch parked in t can never accept."""
    return mk(
        "u-branchy",
        "u1bca",
        "ab",
        ("s", "t"),
        "s",
        ("s",),
        [
            ("s", L, "*", [("s", 0, F(1))]),
            ("t", L, "*", [("t", 0, F(1))]),
            ("s", "a", "*", [("s", 1, H), ("t", 0, H)]),
            ("t", "a", "*", [("t", 0, F(1))]),
            ("s", "b", "*", [("s", -1, F(1))]),
            ("t", "b", "*", [("t", 0, F(1))]),
            ("s", R, "*", [("s", 0, F(1))]),
            ("t", R, "*", [("t", 0, F(1))]),
        ],
    )


def u_reject_all():
    return dataclasses.replace(
        u_accept_all(), name="u-reject-all", accepting=frozenset()
    )


# ---------------------------------------------------------------------------
# Small deterministic machines for cycle analysis.
# ---------------------------------------------------------------------------


def det_swap():
    """Two states trading the counter up and down: period 2, drift 0."""
    return mk(
        "det-swap",
        "d1ca",
        "a",
        ("s", "t"),
        "s",
        ("s",),
        [
            ("s", L, "*", [("s", 0, F(1))]),
            ("t", L, "*", [("t", 0, F(1))]),
            ("s", "a", "*", [("t", 1, F(1))]),
            ("t", "a", "*", [("s", -1, F(1))]),
            ("s", R, "*", [("s", 0, F(1))]),
            ("t", R, "*", [("t", 0, F(1))]),
        ],
    )


def det_decrement():
    """Counts down forever; hits zero from any positive start."""
    return mk(
        "det-decrement",
        "d1ca",
        "a",
        ("q",),
        "q",
        ("q",),
        [
            ("q", L, "*", [("q", 0, F(1))]),
            ("q", "a", "*", [("q", -1, F(1))]),
            ("q", R, "*", [("q", 0, F(1))]),
        ],
    )


# ---------------------------------------------------------------------------
# All-pairs reference for the per-symbol orthonormality check.
# ---------------------------------------------------------------------------


def naive_unitarity(machine):
    """Quadratic Gram check with the same window conventions as the engine.

    Returns (isometry, coisometry) sets of (symbol, config_a, config_b)
    with config_a at the lower declaration index, mirroring the report.
    """
    m = machine.max_step
    window = range(-2 * m, 2 * m + 1)
    source_window = range(-3 * m, 3 * m + 1)
    states = list(machine.states)
    if SINK not in states:
        states.append(SINK)

    def dot(vec_a, vec_b):
        total = Amplitude()
        for key, amp_a in vec_a.items():
            amp_b = vec_b.get(key)
            if amp_b is not None:
                total = total + amp_a.conjugate() * amp_b
        return total

    iso = set()
    coiso = set()
    for symbol in machine.tape_symbols:
        columns = {}
        for state in states:
            for counter in source_window:
                col = {}
                for target, delta, weight in machine.entries(
                    state, symbol, status_of(counter)
                ):
                    key = (target, counter + delta)
                    prev = col.get(key)
                    col[key] = weight if prev is None else prev + weight
                columns[(state, counter)] = {
                    key: amp for key, amp in col.items() if not amp.is_zero()
                }
        window_keys = [(state, counter) for state in states for counter in window]

        rows = {}
        for source, column in columns.items():
            for target, amp in column.items():
                if -2 * m <= target[1] <= 2 * m:
                    rows.setdefault(target, {})[source] = amp

        for kind, vectors, out in (
            ("iso", columns, iso),
            ("coiso", rows, coiso),
        ):
            for i, key_a in enumerate(window_keys):
                vec_a = vectors.get(key_a, {})
                for key_b in window_keys[i:]:
                    product = dot(vec_a, vectors.get(key_b, {}))
                    if key_a == key_b:
                        if product != AMP_ONE:
                            out.add((symbol, key_a, key_b))
                    elif not product.is_zero():
                        out.add((symbol, key_a, key_b))
    return iso, coiso
