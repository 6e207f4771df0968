"""Factory zoo of concrete counter machines with claimed bounds.

Each factory builds one machine family from scratch as an explicit
transition table; ``get_entry`` resolves stable (possibly parametrized)
names to a machine bundled with the promise problem it targets and the
exact probability bounds it claims there.  The acceptance suite holds
every entry to its claimed bounds.
"""
from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from fractions import Fraction

from .amplitudes import AMP_HALF, AMP_INV_SQRT2, AMP_ONE
from .core import (
    LEFT_END,
    NZ,
    RIGHT_END,
    Z,
    CounterMachine,
    EngineError,
    MachineClass,
    TransEntry,
    TransTable,
    Verdict,
    format_exact,
)
from .problems import NO, ONENONE_T_MAX, YES

__all__ = [
    "ClaimedBounds",
    "ZooEntry",
    "as_quantum",
    "build_eq3_p1bca",
    "build_eqstar_complement_d1ca",
    "build_eqstar_p1bca",
    "build_l_p1ca",
    "build_m1",
    "build_m2",
    "build_onenone_lv",
    "build_onenone_lv_t",
    "build_xoreq_q1ca",
    "get_entry",
    "list_entries",
    "zoo_names",
]


@dataclass(frozen=True)
class ClaimedBounds:
    """Exact probability bounds a machine claims on its problem.

    ``accept_on_yes_min`` lower-bounds the accept probability on every
    yes-instance, ``accept_on_no_max`` upper-bounds it on every
    no-instance, and ``dontknow_max`` upper-bounds the neutral mass on
    both sides.  ``max_n`` is the largest instance length the claim
    covers, None for every length.
    """

    accept_on_yes_min: Fraction
    accept_on_no_max: Fraction
    dontknow_max: Fraction
    max_n: int | None = None

    def violation(self, label: str, verdict: Verdict, las_vegas: bool = False) -> str | None:
        """Why ``verdict`` on an instance labelled ``label`` breaks these bounds, or None.

        With ``las_vegas`` set, a verdict that both accepts and rejects,
        rejects a yes-instance or accepts a no-instance breaks them too.
        """
        if verdict.neutral > self.dontknow_max:
            return format_exact("dontknow {} exceeds bound {}", verdict.neutral, self.dontknow_max)
        if las_vegas and verdict.accept > 0 and verdict.reject > 0:
            return "both accept and reject have positive probability"
        if label == YES:
            if verdict.accept < self.accept_on_yes_min:
                return format_exact(
                    "accept {} below claimed yes-bound {}", verdict.accept, self.accept_on_yes_min
                )
            if las_vegas and verdict.reject > 0:
                return format_exact("reject probability {} on a yes-instance", verdict.reject)
        if label == NO:
            if verdict.accept > self.accept_on_no_max:
                return format_exact(
                    "accept {} above claimed no-bound {}", verdict.accept, self.accept_on_no_max
                )
            if las_vegas and verdict.accept > 0:
                return format_exact("accept probability {} on a no-instance", verdict.accept)
        return None


@dataclass(frozen=True)
class ZooEntry:
    """A named machine, the problem it targets, and its claimed bounds."""

    name: str
    machine: CounterMachine
    problem: str
    claimed_bounds: ClaimedBounds
    note: str


def _both(
    table: TransTable, state: str, symbol: str, entries: tuple[TransEntry, ...]
) -> None:
    # Identical rows under both counter statuses.
    table[(state, symbol, Z)] = entries
    table[(state, symbol, NZ)] = entries


# ---------------------------------------------------------------------------
# M1 / M2: deterministic single-comparison machines over {0, #}.
#
# Inputs of interest have eight 0-blocks separated by seven #:
# blocks 1..8 are read in phases 1..8.  M1 compares blocks 1 and 3 by
# counting +1 per 0 in phase 1 and -1 in phase 3; at the third # it reads
# the counter status (zero iff the blocks matched) into its track bit,
# then adds the phase-5 block and subtracts the phase-6 block with a sign
# keyed to that bit.  M2 does the same for blocks 2 and 4 with the
# phase-7/8 blocks.  Both start on track "q"; the primed builders start
# on track "p", which inverts the final answer.
# ---------------------------------------------------------------------------

# Per comparison: its two compared phases, then its two bias phases.
_LAYOUTS = ((1, 3, 5, 6), (2, 4, 7, 8))


def _counter_move(layout: tuple[int, ...], phase: int, matched: bool) -> int:
    """The counter move per 0 read in ``phase``: +1 then -1 on the compared
    blocks, and -1 then +1 on the bias blocks if ``matched`` (+1 then -1 if not)."""
    if phase not in layout:
        return 0
    sign = -1 if matched else 1
    return (1, -1, sign, -sign)[layout.index(phase)]


def _build_comparator(name: str, layout: tuple[int, ...], primed: bool) -> CounterMachine:
    states = tuple(f"q{i}" for i in range(1, 9)) + tuple(f"p{i}" for i in range(1, 9))
    table: TransTable = {}
    for track in ("q", "p"):
        for phase in range(1, 9):
            state = f"{track}{phase}"
            delta = _counter_move(layout, phase, track == "q")
            _both(table, state, "0", ((state, delta, Fraction(1)),))
            _both(table, state, LEFT_END, ((state, 0, Fraction(1)),))
            _both(table, state, RIGHT_END, ((state, 0, Fraction(1)),))
            nxt = 1 if phase == 8 else phase + 1
            if phase == layout[1]:
                flipped = "p" if track == "q" else "q"
                table[(state, "#", Z)] = ((f"{track}{nxt}", 0, Fraction(1)),)
                table[(state, "#", NZ)] = ((f"{flipped}{nxt}", 0, Fraction(1)),)
            else:
                _both(table, state, "#", ((f"{track}{nxt}", 0, Fraction(1)),))

    return CounterMachine(
        name=f"{name}-primed" if primed else name,
        mclass=MachineClass.D1CA,
        alphabet=("0", "#"),
        states=states,
        initial="p1" if primed else "q1",
        accepting=frozenset({"q8"}),
        transitions=table,
        max_step=1,
    )


def build_m1(*, primed: bool = False) -> CounterMachine:
    """Deterministic comparator of 0-blocks 1 and 3 (counter bias: blocks 5-6).

    Accepts exactly the well-formed eight-block inputs whose first and
    third blocks have equal length; starting primed inverts the answer.
    On promise instances its final counter equals the shared promise
    value, matching :func:`build_m2`.
    """
    return _build_comparator("m1", _LAYOUTS[0], primed)


def build_m2(*, primed: bool = False) -> CounterMachine:
    """Deterministic comparator of 0-blocks 2 and 4 (counter bias: blocks 7-8)."""
    return _build_comparator("m2", _LAYOUTS[1], primed)


def as_quantum(machine: CounterMachine) -> CounterMachine:
    """Reinterpret a deterministic machine as a quantum one, weight 1 per edge.

    Only meaningful when the table is a reversible permutation of
    configurations (validate/check_unitarity will flag anything else).
    """
    if not machine.mclass.deterministic:
        raise EngineError(
            f"machine {machine.name!r} is not deterministic; cannot lift weights"
        )
    table: TransTable = {}
    for key, row in machine.transitions.items():
        table[key] = tuple((target, delta, AMP_ONE) for target, delta, _ in row)
    return dataclasses.replace(
        machine,
        name=machine.name + "-q",
        mclass=MachineClass.Q1CA,
        transitions=table,
    )


# ---------------------------------------------------------------------------
# xoreq-q1ca: exact quantum machine for the XOR-EQ promise problem.
#
# Architecture: the left endmarker seeds an equal superposition of two
# branches (amplitudes ±1/2 over branch × track).  Branch 1's counter
# runs M1's counter program and branch 2's runs M2's, so on promise
# instances both branches reach the right endmarker at the same counter
# value.  Both branches carry the same two mod-M registers (r for blocks
# 1/3, l for blocks 2/4); identical bookkeeping on both branches keeps
# the branches interferable.  Where M1 and M2 read their counter, each
# branch reads its own register instead, and flips its track qubit at its
# decision # iff that register reads zero, i.e. iff its block pair
# matched (exactly, whenever unequal compared blocks differ by a
# non-multiple of M; with even block lengths the first aliased
# difference is 2M).  The right endmarker interferes the branches: the
# accept amplitude is proportional to the difference of the two flip
# signs, so exactly the XOR of the two equalities is accepted, with
# probability exactly 1 or 0.
# ---------------------------------------------------------------------------


def _xoreq_run_state(branch: int, track: str, phase: int, r: int, l: int) -> str:
    return f"b{branch}{track}{phase}_r{r}_l{l}"


def _xoreq_final_state(kind: str, track: str, r: int, l: int) -> str:
    return f"{kind}{track}_r{r}_l{l}"


def build_xoreq_q1ca(modulus: int = 5) -> CounterMachine:
    """Exact quantum machine for XOR-EQ on blocks that differ by < 2·modulus.

    ``modulus`` must be odd and at least 3: compared blocks are even, so
    an odd modulus first aliases an unequal pair at difference 2·modulus,
    giving exact verdicts on every promise instance whose compared blocks
    differ by less than that.  With the default 5 the zoo's 1/0/0 claim
    on ``xor-eq`` holds for n ≤ 11; at n = 12 the no-instance
    ``00#00#0000#000000000000##0000#0000#`` compares blocks 2 and 12 and
    is accepted with probability 1/2.
    """
    if modulus < 3 or modulus % 2 == 0:
        raise ValueError("modulus must be odd and >= 3")
    mod = modulus
    residues = range(mod)

    run_states = [
        _xoreq_run_state(branch, track, phase, r, l)
        for branch in (1, 2)
        for track in ("u", "p")
        for phase in range(1, 9)
        for r in residues
        for l in residues
    ]
    final_states = [
        _xoreq_final_state(kind, track, r, l)
        for kind in ("acc", "rej")
        for track in ("u", "p")
        for r in residues
        for l in residues
    ]
    states = ("q0", *run_states, *final_states)
    accepting = frozenset(
        _xoreq_final_state("acc", track, r, l)
        for track in ("u", "p")
        for r in residues
        for l in residues
    )

    table: TransTable = {}
    half, minus_half = AMP_HALF, -AMP_HALF
    isq, minus_isq = AMP_INV_SQRT2, -AMP_INV_SQRT2

    # Left endmarker: orthonormal 5x5 block seeding branch x track from q0;
    # the remaining columns complete the block unitarily and are never
    # reached on well-formed runs.
    seed_a = _xoreq_run_state(1, "u", 1, 0, 0)
    seed_b = _xoreq_run_state(1, "p", 1, 0, 0)
    seed_c = _xoreq_run_state(2, "u", 1, 0, 0)
    seed_d = _xoreq_run_state(2, "p", 1, 0, 0)
    seed_block = {
        "q0": ((seed_a, half), (seed_b, minus_half), (seed_c, half), (seed_d, minus_half)),
        seed_a: ((seed_a, half), (seed_b, half), (seed_c, half), (seed_d, half)),
        seed_b: ((seed_a, half), (seed_b, minus_half), (seed_c, minus_half), (seed_d, half)),
        seed_c: ((seed_a, half), (seed_b, half), (seed_c, minus_half), (seed_d, minus_half)),
        seed_d: (("q0", AMP_ONE),),
    }
    for state in states:
        row = seed_block.get(state)
        if row is None:
            _both(table, state, LEFT_END, ((state, 0, AMP_ONE),))
        else:
            _both(table, state, LEFT_END, tuple((t, 0, a) for t, a in row))

    for branch, layout in enumerate(_LAYOUTS, start=1):
        for track in ("u", "p"):
            for phase in range(1, 9):
                for r in residues:
                    for l in residues:
                        state = _xoreq_run_state(branch, track, phase, r, l)
                        matched = (r, l)[branch - 1] == 0

                        # '0': registers advance identically on both
                        # branches; the counter runs this branch's
                        # comparator program.
                        r2, l2 = (
                            (reg + (phase == plus) - (phase == minus)) % mod
                            for reg, (plus, minus, _, _) in zip((r, l), _LAYOUTS)
                        )
                        delta = _counter_move(layout, phase, matched)
                        target = _xoreq_run_state(branch, track, phase, r2, l2)
                        _both(table, state, "0", ((target, delta, AMP_ONE),))

                        # '#': advance the phase; at this branch's decision
                        # boundary, flip the track iff the compared blocks
                        # matched.
                        nxt = 1 if phase == 8 else phase + 1
                        flip = phase == layout[1] and matched
                        track2 = ("p" if track == "u" else "u") if flip else track
                        target = _xoreq_run_state(branch, track2, nxt, r, l)
                        _both(table, state, "#", ((target, 0, AMP_ONE),))

                        # '$': phases 1..7 idle; phase 8 interferes the two
                        # branches into accept/reject states.
                        if phase != 8:
                            _both(table, state, RIGHT_END, ((state, 0, AMP_ONE),))

    for track in ("u", "p"):
        for r in residues:
            for l in residues:
                out1 = _xoreq_run_state(1, track, 8, r, l)
                out2 = _xoreq_run_state(2, track, 8, r, l)
                acc = _xoreq_final_state("acc", track, r, l)
                rej = _xoreq_final_state("rej", track, r, l)
                _both(table, out1, RIGHT_END, ((rej, 0, isq), (acc, 0, isq)))
                _both(table, out2, RIGHT_END, ((rej, 0, isq), (acc, 0, minus_isq)))
                _both(table, acc, RIGHT_END, ((out1, 0, isq), (out2, 0, minus_isq)))
                _both(table, rej, RIGHT_END, ((out1, 0, isq), (out2, 0, isq)))

    for state in ("q0", *final_states):
        _both(table, state, "0", ((state, 0, AMP_ONE),))
        _both(table, state, "#", ((state, 0, AMP_ONE),))
    _both(table, "q0", RIGHT_END, (("q0", 0, AMP_ONE),))

    name = "xoreq-q1ca" if mod == 5 else f"xoreq-q1ca-mod{mod}"
    return CounterMachine(
        name=name,
        mclass=MachineClass.Q1CA,
        alphabet=("0", "#"),
        states=states,
        initial="q0",
        accepting=accepting,
        transitions=table,
        max_step=1,
    )


# ---------------------------------------------------------------------------
# onenone-lv: Las Vegas machine for the ONE/NONE block-pattern problem.
#
# At each block it samples one of the three letter pairs uniformly and
# compares their counts with the counter; a zero counter at the block's
# first d means the sampled pair matched.  In an odd block a match proves
# the yes-pattern (the promise makes any matched pair in an odd block a
# witness), in an even block the no-pattern; a non-match drains the
# counter during the d-run and passes to the next block undecided.  Each
# block decides with probability exactly 1/3, independently, and never
# wrongly, so over t pairs the machine answers with probability
# 1-(2/3)^t and otherwise says dontknow (neutral state ``edone``).
# ---------------------------------------------------------------------------

_PAIRS = (("a", "b"), ("b", "c"), ("c", "a"))


def _pair_name(pair: tuple[str, str]) -> str:
    return pair[0] + pair[1]


def build_onenone_lv() -> CounterMachine:
    third = Fraction(1, 3)
    one = Fraction(1)
    states = ["start"]
    for parity in ("o", "e"):
        for pair in _PAIRS:
            for sign in ("p", "m"):
                states.append(f"{parity}cmp_{_pair_name(pair)}_{sign}")
        for sign in ("p", "m"):
            states.append(f"{parity}drain_{sign}")
        states.append(f"{parity}done")
    states += ["acc", "rej"]

    table: TransTable = {}

    def split_row(parity: str, symbol: str) -> tuple[TransEntry, ...]:
        # Uniform choice of comparison pair entering a block whose first
        # letter is `symbol`; the letter's counter effect is applied here.
        out = []
        for pair in _PAIRS:
            delta = (symbol == pair[0]) - (symbol == pair[1])
            sign = "p" if delta >= 0 else "m"
            out.append((f"{parity}cmp_{_pair_name(pair)}_{sign}", delta, third))
        return tuple(out)

    _both(table, "start", LEFT_END, (("start", 0, one),))
    for symbol in "abc":
        table[("start", symbol, Z)] = split_row("o", symbol)

    for parity in ("o", "e"):
        decided, drained = ("acc", "odrain") if parity == "o" else ("rej", "edrain")
        for pair in _PAIRS:
            for sign in ("p", "m"):
                state = f"{parity}cmp_{_pair_name(pair)}_{sign}"
                for symbol in "abc":
                    delta = (symbol == pair[0]) - (symbol == pair[1])
                    if delta == 0:
                        table[(state, symbol, Z)] = ((state, 0, one),)
                        table[(state, symbol, NZ)] = ((state, 0, one),)
                    else:
                        # The counter cannot change sign without passing
                        # through zero, so the sign tag only updates at Z.
                        sign_z = "p" if delta > 0 else "m"
                        table[(state, symbol, Z)] = (
                            (f"{parity}cmp_{_pair_name(pair)}_{sign_z}", delta, one),
                        )
                        table[(state, symbol, NZ)] = ((state, delta, one),)
                table[(state, "d", Z)] = ((decided, 0, one),)
                away = -1 if sign == "p" else +1
                table[(state, "d", NZ)] = ((f"{drained}_{sign}", away, one),)

        for sign in ("p", "m"):
            state = f"{drained}_{sign}"
            away = -1 if sign == "p" else +1
            table[(state, "d", NZ)] = ((state, away, one),)
            table[(state, "d", Z)] = ((f"{parity}done", 0, one),)
            table[(state, RIGHT_END, Z)] = ((f"{parity}done", 0, one),)

        done = f"{parity}done"
        _both(table, done, "d", ((done, 0, one),))
        _both(table, done, RIGHT_END, ((done, 0, one),))
        _both(table, done, LEFT_END, ((done, 0, one),))
        # A block entered from the done state, or from a drain that ends
        # exactly at the block boundary, starts the next parity's split.
        next_parity = "e" if parity == "o" else "o"
        for state in (f"{drained}_p", f"{drained}_m", done):
            for symbol in "abc":
                table[(state, symbol, Z)] = split_row(next_parity, symbol)

    for state in ("acc", "rej"):
        for symbol in ("a", "b", "c", "d", LEFT_END, RIGHT_END):
            _both(table, state, symbol, ((state, 0, one),))

    return CounterMachine(
        name="onenone-lv",
        mclass=MachineClass.LV_P1CA,
        alphabet=("a", "b", "c", "d"),
        states=tuple(states),
        initial="start",
        accepting=frozenset({"acc"}),
        transitions=table,
        neutral=frozenset({"edone"}),
        max_step=1,
    )


def build_onenone_lv_t(t: int) -> CounterMachine:
    """The same machine, named for the t-pair slice of the problem.

    ``t`` must lie in 1..25: no ``one-none-t<t>`` with a larger t has an
    instance within the problem's ceiling.
    """
    if not 1 <= t <= ONENONE_T_MAX:
        raise ValueError(f"t must be in 1..{ONENONE_T_MAX}")
    machine = build_onenone_lv()
    if t == 1:
        return machine
    return dataclasses.replace(machine, name=f"onenone-lv-t{t}")


# ---------------------------------------------------------------------------
# eq-star-p1bca: blind probabilistic machine for EQ* = { a^n b^n }*.
# ---------------------------------------------------------------------------


def build_eqstar_p1bca(k: int) -> CounterMachine:
    """Blind k-branch verifier: members accept with 1, others with <= 1/k.

    Each branch scales the current block comparison by its own secret
    coefficient; a member zeroes every branch's counter, while a length
    mismatch survives as a nonzero counter in all but at most one branch.
    The bound is attained (exactly 1/k) on the family a^1 b^2 a^2 b^1.
    """
    if not 2 <= k <= 9:
        raise ValueError("k must be in 2..9")
    kth = Fraction(1, k)
    one = Fraction(1)
    a_states = tuple(f"a{i}" for i in range(1, k + 1))
    b_states = tuple(f"b{i}" for i in range(1, k + 1))
    split = tuple((f"a{i}", i, kth) for i in range(1, k + 1))

    table: TransTable = {}
    _both(table, "start", LEFT_END, (("start", 0, one),))
    _both(table, "start", "a", split)
    _both(table, "start", RIGHT_END, (("start", 0, one),))
    for i in range(1, k + 1):
        _both(table, f"a{i}", "a", ((f"a{i}", i, one),))
        _both(table, f"a{i}", "b", ((f"b{i}", -i, one),))
        _both(table, f"b{i}", "b", ((f"b{i}", -i, one),))
        _both(table, f"b{i}", "a", split)
        _both(table, f"b{i}", RIGHT_END, ((f"b{i}", 0, one),))

    return CounterMachine(
        name=f"eq-star-p1bca-k{k}",
        mclass=MachineClass.P1BCA,
        alphabet=("a", "b"),
        states=("start",) + a_states + b_states,
        initial="start",
        accepting=frozenset({"start", *b_states}),
        transitions=table,
        max_step=k,
    )


# ---------------------------------------------------------------------------
# eq3-p1bca: blind probabilistic machine for { c^n d^n e^n }.
# ---------------------------------------------------------------------------


def build_eq3_p1bca(k: int) -> CounterMachine:
    """Blind k-branch verifier for c^x d^y e^z with x = y = z.

    Branch i drives the counter to i(x-y) + (y-z); the branches agree on
    zero exactly on members, and at most one branch can cancel otherwise,
    so non-members accept with probability at most 1/k.
    """
    if not 2 <= k <= 9:
        raise ValueError("k must be in 2..9")
    kth = Fraction(1, k)
    one = Fraction(1)
    states = ["start"]
    for letter in "cde":
        states += [f"{letter}{i}" for i in range(1, k + 1)]

    table: TransTable = {}
    _both(table, "start", LEFT_END, tuple((f"c{i}", 0, kth) for i in range(1, k + 1)))
    _both(table, "start", RIGHT_END, (("start", 0, one),))
    for i in range(1, k + 1):
        _both(table, f"c{i}", "c", ((f"c{i}", i, one),))
        _both(table, f"c{i}", "d", ((f"d{i}", 1 - i, one),))
        _both(table, f"c{i}", "e", ((f"e{i}", -1, one),))
        _both(table, f"d{i}", "d", ((f"d{i}", 1 - i, one),))
        _both(table, f"d{i}", "e", ((f"e{i}", -1, one),))
        _both(table, f"e{i}", "e", ((f"e{i}", -1, one),))
        for letter in "cde":
            _both(table, f"{letter}{i}", RIGHT_END, ((f"{letter}{i}", 0, one),))

    return CounterMachine(
        name=f"eq3-p1bca-k{k}",
        mclass=MachineClass.P1BCA,
        alphabet=("c", "d", "e"),
        states=tuple(states),
        initial="start",
        accepting=frozenset(states),
        transitions=table,
        max_step=k,
    )


# ---------------------------------------------------------------------------
# eq-star-complement-d1ca: deterministic machine for the complement of EQ*.
# ---------------------------------------------------------------------------


def build_eqstar_complement_d1ca() -> CounterMachine:
    """Deterministic acceptor of the strings over {a,b} NOT of the form (a^n b^n)*.

    Tracks the current block with the counter and jumps to the accepting
    trap ``bad`` at the first structural violation; well-formed inputs
    end in ``done`` (or ``start`` for the empty word) and are rejected.
    """
    one = Fraction(1)
    table: TransTable = {}
    _both(table, "start", LEFT_END, (("start", 0, one),))
    _both(table, "start", "a", (("inA", +1, one),))
    _both(table, "start", "b", (("bad", 0, one),))
    _both(table, "start", RIGHT_END, (("start", 0, one),))
    _both(table, "inA", "a", (("inA", +1, one),))
    _both(table, "inA", "b", (("inB", -1, one),))
    _both(table, "inA", RIGHT_END, (("bad", 0, one),))
    table[("inB", "b", NZ)] = (("inB", -1, one),)
    table[("inB", "b", Z)] = (("bad", 0, one),)
    table[("inB", "a", Z)] = (("inA", +1, one),)
    table[("inB", "a", NZ)] = (("bad", 0, one),)
    table[("inB", RIGHT_END, Z)] = (("done", 0, one),)
    table[("inB", RIGHT_END, NZ)] = (("bad", 0, one),)
    for symbol in ("a", "b", RIGHT_END):
        _both(table, "bad", symbol, (("bad", 0, one),))

    return CounterMachine(
        name="eq-star-complement-d1ca",
        mclass=MachineClass.D1CA,
        alphabet=("a", "b"),
        states=("start", "inA", "inB", "bad", "done"),
        initial="start",
        accepting=frozenset({"bad"}),
        transitions=table,
        max_step=1,
    )


# ---------------------------------------------------------------------------
# lang-L-p1ca: one machine for the union language
#   L = (complement of EQ* over {a,b})  ∪  { c^n d^n e^n }  (so also ε).
# ---------------------------------------------------------------------------


def _renamed(machine: CounterMachine, names: dict[str, str]) -> TransTable:
    """The machine's table with every state renamed through ``names``."""
    return {
        (names[state], symbol, status): tuple((names[t], delta, w) for t, delta, w in row)
        for (state, symbol, status), row in machine.transitions.items()
    }


def build_l_p1ca(k: int) -> CounterMachine:
    """Probabilistic machine for the two-fragment union language.

    The first input letter routes to a deterministic complement-of-EQ*
    component (over {a,b}) or to a k-branch equality component (over
    {c,d,e}); the empty word is accepted outright.  Members accept with
    probability 1, non-members with at most 1/k.  The components are the
    tables of :func:`build_eqstar_complement_d1ca` and
    :func:`build_eq3_p1bca`, renamed.
    """
    eq3 = build_eq3_p1bca(k)
    complement = {"start": "Lstart", "inA": "Ca", "inB": "Cb", "bad": "Cbad", "done": "Cdone"}
    equality = {state: "E" + state for state in eq3.states[1:]}
    kth = Fraction(1, k)
    one = Fraction(1)
    # The complement's start rows replace eq3's: L splits on its first c,
    # not at the left endmarker.
    table = {
        **_renamed(eq3, {"start": "Lstart", **equality}),
        **_renamed(build_eqstar_complement_d1ca(), complement),
    }
    _both(table, "Lstart", RIGHT_END, (("Lacc", 0, one),))
    _both(table, "Lstart", "c", tuple((f"Ec{i}", i, kth) for i in range(1, k + 1)))
    _both(table, "Lstart", "d", (("eqBad", 0, one),))
    _both(table, "Lstart", "e", (("eqBad", 0, one),))
    # At $ the equality component reads its counter: only an e-state at zero accepts.
    for state in equality.values():
        table[(state, RIGHT_END, Z)] = (("eqOK" if state[1] == "e" else "eqBad", 0, one),)
        table[(state, RIGHT_END, NZ)] = (("eqBad", 0, one),)

    return CounterMachine(
        name=f"lang-L-p1ca-k{k}",
        mclass=MachineClass.P1CA,
        alphabet=("a", "b", "c", "d", "e"),
        states=(*complement.values(), *equality.values(), "eqOK", "eqBad", "Lacc"),
        initial="Lstart",
        accepting=frozenset({"Lacc", "Cbad", "eqOK"}),
        transitions=table,
        max_step=k,
    )


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)
_NUM = r"(0|[1-9]\d*)"  # a family parameter, without leading zeros


def _cap(k: int) -> ClaimedBounds:
    return ClaimedBounds(_ONE, Fraction(1, k), _ZERO)


def _xoreq_mod(modulus: int) -> CounterMachine:
    # 13 is the first odd modulus whose domain 2M + 1 reaches the xor-eq
    # ceiling, and the machine grows as 16·M² run states.
    if modulus > 13:
        raise ValueError("modulus must be at most 13")
    return build_xoreq_q1ca(modulus)


# (name pattern, builder, problem, claimed bounds, note) per family.  The
# pattern's group, if any, is the family parameter (an omitted one is 1):
# it is passed to the builder and the bounds and formatted into the
# problem and the note.  The builder runs first, so it rejects a
# parameter out of range before anything else is computed from it.
_FAMILIES = (
    ("m1", build_m1, "xor-eq", lambda: ClaimedBounds(_ZERO, _ONE, _ZERO),
     "deterministic comparator of the first and third 0-blocks; "
     "solves only half of XOR-EQ (vacuous bounds)"),
    ("m2", build_m2, "xor-eq", lambda: ClaimedBounds(_ZERO, _ONE, _ZERO),
     "deterministic comparator of the second and fourth 0-blocks; "
     "solves only half of XOR-EQ (vacuous bounds)"),
    ("xoreq-q1ca", build_xoreq_q1ca, "xor-eq", lambda: ClaimedBounds(_ONE, _ZERO, _ZERO, max_n=11),
     "exact quantum XOR of two block equalities"),
    (rf"xoreq-q1ca-mod{_NUM}", _xoreq_mod, "xor-eq",
     lambda m: ClaimedBounds(_ONE, _ZERO, _ZERO, max_n=2 * m + 1),
     "exact quantum XOR of two block equalities, blocks compared mod {}"),
    (rf"onenone-lv(?:-t{_NUM})?", build_onenone_lv_t, "one-none-t{}",
     lambda t: ClaimedBounds(1 - Fraction(2, 3) ** t, _ZERO, Fraction(2, 3) ** t),
     "Las Vegas block-pattern decider, {} pair(s): answers with probability 1-(2/3)^t, never wrongly"),
    (rf"eq-star-p1bca-k{_NUM}", build_eqstar_p1bca, "eq-star", _cap,
     "blind one-sided verifier of (a^n b^n)*"),
    (rf"eq3-p1bca-k{_NUM}", build_eq3_p1bca, "eq3", _cap, "blind one-sided verifier of c^n d^n e^n"),
    ("eq-star-complement-d1ca", build_eqstar_complement_d1ca, "eq-star-complement",
     lambda: ClaimedBounds(_ONE, _ZERO, _ZERO), "deterministic acceptor of the complement of (a^n b^n)*"),
    (rf"lang-L-p1ca-k{_NUM}", build_l_p1ca, "lang-L", _cap,
     "one-sided verifier of the two-fragment union language"),
)


def _entry(name: str) -> ZooEntry:
    for pattern, builder, problem, bounds, note in _FAMILIES:
        match = re.fullmatch(pattern, name)
        if match:
            params = [int(group or 1) for group in match.groups()]
            return ZooEntry(
                name=name,
                machine=builder(*params),
                problem=problem.format(*params),
                claimed_bounds=bounds(*params),
                note=note.format(*params),
            )
    raise KeyError(f"unknown zoo name {name!r}")


_REPRESENTATIVES = (
    "m1",
    "m2",
    "xoreq-q1ca",
    "onenone-lv",
    "onenone-lv-t2",
    "eq-star-p1bca-k3",
    "eq3-p1bca-k4",
    "eq-star-complement-d1ca",
    "lang-L-p1ca-k3",
)

_CACHE: dict[str, ZooEntry] = {}


def get_entry(name: str) -> ZooEntry:
    """Resolve a stable zoo name (parametrized names like ...-k3, ...-t2 allowed)."""
    entry = _CACHE.get(name)
    if entry is None:
        entry = _entry(name)
        _CACHE[name] = entry
    return entry


def zoo_names() -> tuple[str, ...]:
    """The registry's nine representative names, one per family."""
    return _REPRESENTATIVES


def list_entries() -> list[ZooEntry]:
    return [get_entry(name) for name in _REPRESENTATIVES]
