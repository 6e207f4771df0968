"""Test-only reference engine: the direct ``Fraction`` / ``Amplitude`` one.

These are the engines the package ran before its compiled integer
kernel: every configuration of every step looks its row up with
``machine.entries`` and multiplies exact rationals or ring elements.
They are slow and obviously right, which is what a reference for the
kernel must be.  The old instance generators are kept here too, so the
faster ones can be checked for identical lists, and so is the hand-written
``lang-L`` table that the zoo now builds from two other machines' tables.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from ocalab import (
    AMP_ONE,
    LEFT_END,
    NZ,
    RIGHT_END,
    SINK,
    Z,
    Amplitude,
    CounterMachine,
    MachineClass,
    MeasurementError,
    SimulationError,
    UnitarityReport,
    Verdict,
    status_of,
    tape_of,
)
from ocalab.adversary import CycleProfile
from ocalab.problems import (
    NO,
    OUTSIDE,
    YES,
    _onenone_vocab,
    classify_L,
    classify_xoreq,
    xoreq_word,
)


# ---------------------------------------------------------------------------
# Classical.
# ---------------------------------------------------------------------------


def ref_step(machine, dist, symbol):
    out = {}
    for (state, counter), mass in dist.items():
        for target, delta, weight in machine.entries(state, symbol, status_of(counter)):
            key = (target, counter + delta)
            prev = out.get(key)
            out[key] = mass * weight if prev is None else prev + mass * weight
    return out


def ref_verdict_of(machine, dist):
    blind = machine.mclass.blind
    las_vegas = machine.mclass.las_vegas
    accept = Fraction(0)
    neutral = Fraction(0)
    total = Fraction(0)
    for (state, counter), mass in dist.items():
        total += mass
        if state in machine.accepting and (not blind or counter == 0):
            accept += mass
        elif las_vegas and state in machine.neutral and (not blind or counter == 0):
            neutral += mass
    return Verdict(accept=accept, reject=total - accept - neutral, neutral=neutral)


def ref_distributions(machine, word):
    """Every distribution of a classical run, one per tape symbol."""
    dist = {(machine.initial, 0): Fraction(1)}
    out = []
    for symbol in tape_of(word, machine.alphabet):
        dist = ref_step(machine, dist, symbol)
        out.append(dist)
    return out


def ref_run(machine, word):
    return ref_verdict_of(machine, ref_distributions(machine, word)[-1])


def ref_sample_run(machine, word, seed):
    rng = random.Random(seed)
    state, counter = machine.initial, 0
    for symbol in tape_of(word, machine.alphabet):
        row = machine.entries(state, symbol, status_of(counter))
        if len(row) == 1:
            target, delta, _ = row[0]
        else:
            weights = [w for _, _, w in row]
            denom = math.lcm(*(w.denominator for w in weights))
            draw = rng.randrange(denom)
            acc = 0
            target, delta = row[-1][0], row[-1][1]
            for branch_target, branch_delta, weight in row:
                acc += weight.numerator * (denom // weight.denominator)
                if draw < acc:
                    target, delta = branch_target, branch_delta
                    break
        state, counter = target, counter + delta
    blind = machine.mclass.blind
    if state in machine.accepting and (not blind or counter == 0):
        return "accept"
    if machine.mclass.las_vegas and state in machine.neutral and (not blind or counter == 0):
        return "dontknow"
    return "reject"


def ref_analyze_cycle(machine, start, symbol):
    """``adversary.analyze_cycle`` as a walk on state names: each step looks
    its row up by the counter's status, and the first repeated state of the
    2|Q|-step trail marks the cycle.  Agrees with the compiled walk from a
    nonzero start counter on a valid deterministic machine."""
    trail = [start]
    state, counter = start
    for step in range(1, 2 * len(machine.states) + 1):
        state, delta, _ = machine.entries(state, symbol, status_of(counter))[0]
        counter += delta
        if counter == 0:
            raise SimulationError(
                f"counter reached zero at step {step} of the {symbol!r}-run; "
                "cycle profile undefined"
            )
        trail.append((state, counter))
    states = [state for state, _ in trail]
    repeat = next((j for j, state in enumerate(states) if state in states[:j]), None)
    if repeat is None:
        raise SimulationError("no state repetition found; horizon too short")
    entry = states.index(states[repeat])
    return CycleProfile(
        symbol=symbol,
        start=start,
        entry_steps=entry,
        period=repeat - entry,
        difference=trail[repeat][1] - trail[entry][1],
        cycle_states=tuple(states[entry:repeat]),
    )


def _ref_row(machine, config, symbol):
    state, counter = config
    return machine.entries(state, symbol, status_of(counter))


def _ref_step_deterministic(machine, config, symbol):
    target, delta, _ = _ref_row(machine, config, symbol)[0]
    return (target, config[1] + delta)


def ref_prefix_configs(machine, bound):
    """``adversary._prefix_configs`` as a walk on state names: the
    (state, counter) after cent 0^a # 0^b #, by (b, a), even a, b."""
    config = _ref_step_deterministic(machine, (machine.initial, 0), LEFT_END)
    starts = []
    for a in range(1, bound + 1):
        config = _ref_step_deterministic(machine, config, "0")
        if a % 2 == 0:
            starts.append((a, _ref_step_deterministic(machine, config, "#")))
    out = []
    for b in range(1, bound + 1):
        starts = [(a, _ref_step_deterministic(machine, config, "0")) for a, config in starts]
        if b % 2 == 0:
            out.extend(((a, b), _ref_step_deterministic(machine, config, "#")) for a, config in starts)
    return out


def ref_find_rejecting_path(machine, tape, node_budget):
    """``adversary._find_rejecting_path`` as a walk on state names: branch
    indices into ``machine.entries`` rows and the (state, counter) trail.
    For blind machines, which accept only at counter 0."""
    stack = [((machine.initial, 0), 0, ())]
    visited = 0
    while stack:
        config, pos, choices = stack.pop()
        visited += 1
        if visited > node_budget:
            raise SimulationError(f"path search exceeded the node budget {node_budget}")
        if pos == len(tape):
            state, counter = config
            if not (state in machine.accepting and counter == 0):
                return choices, ref_replay(machine, tape, choices)
            continue
        entries = _ref_row(machine, config, tape[pos])
        for index in range(len(entries) - 1, -1, -1):
            target, delta, _ = entries[index]
            stack.append(((target, config[1] + delta), pos + 1, choices + (index,)))
    return None


def ref_replay(machine, tape, choices):
    trail = [(machine.initial, 0)]
    for symbol, choice in zip(tape, choices):
        entries = _ref_row(machine, trail[-1], symbol)
        if choice >= len(entries):
            raise SimulationError("replayed path left the transition table")
        target, delta, _ = entries[choice]
        trail.append((target, trail[-1][1] + delta))
    return trail


# ---------------------------------------------------------------------------
# The amplitude ring, on (re_rat, re_sqrt2, im_rat, im_sqrt2) Fraction tuples.
#
# The package writes the ring's product once, in ``Quad``, and the kernel,
# ``Amplitude`` and the quantum reference below all go through it.  These
# are the four-Fraction formulas it used before, written apart from it.
# ---------------------------------------------------------------------------


def ref_parts(amp):
    return amp.re_rat, amp.re_sqrt2, amp.im_rat, amp.im_sqrt2


def _mul2(p, q, r, s):
    # (p + q*sqrt2) * (r + s*sqrt2) in Q(sqrt2) coordinates.
    return p * r + 2 * q * s, p * s + q * r


def ref_ring_add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def ref_ring_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    # (A + iC)(E + iG) with A, C, E, G in Q(sqrt2).
    re1 = _mul2(a, b, e, f)
    re2 = _mul2(c, d, g, h)
    im1 = _mul2(a, b, g, h)
    im2 = _mul2(c, d, e, f)
    return re1[0] - re2[0], re1[1] - re2[1], im1[0] + im2[0], im1[1] + im2[1]


def ref_ring_conjugate(x):
    a, b, c, d = x
    return a, b, -c, -d


def ref_ring_abs2(x):
    a, b, c, d = x
    return a * a + 2 * b * b + c * c + 2 * d * d, 2 * (a * b + c * d)


# ---------------------------------------------------------------------------
# Quantum.
# ---------------------------------------------------------------------------


def ref_evolve(machine, psi, symbol):
    out = {}
    for (state, counter), amp in psi.items():
        for target, delta, weight in machine.entries(state, symbol, status_of(counter)):
            key = (target, counter + delta)
            prev = out.get(key)
            out[key] = amp * weight if prev is None else prev + amp * weight
    return {key: amp for key, amp in out.items() if not amp.is_zero()}


def ref_measure(machine, psi):
    accept_rat = Fraction(0)
    accept_s2 = Fraction(0)
    total_rat = Fraction(0)
    total_s2 = Fraction(0)
    for (state, _counter), amp in psi.items():
        part_rat, part_s2 = amp.abs2()
        total_rat += part_rat
        total_s2 += part_s2
        if state in machine.accepting:
            accept_rat += part_rat
            accept_s2 += part_s2
    if total_s2 != 0 or total_rat != 1:
        raise MeasurementError(
            f"state vector norm^2 is {total_rat} + {total_s2}*sqrt2, expected exactly 1"
        )
    if accept_s2 != 0:
        raise MeasurementError(
            f"accept probability has sqrt2 residue {accept_s2}; machine is malformed"
        )
    return Verdict(accept=accept_rat, reject=1 - accept_rat)


def ref_vectors(machine, word):
    """Every state vector of a quantum run, one per tape symbol."""
    psi = {(machine.initial, 0): AMP_ONE}
    out = []
    for symbol in tape_of(word, machine.alphabet):
        psi = ref_evolve(machine, psi, symbol)
        out.append(psi)
    return out


def ref_run_quantum(machine, word):
    return ref_measure(machine, ref_vectors(machine, word)[-1])


def _ref_gram_violations(symbol, vectors, keys):
    index = {key: i for i, key in enumerate(keys)}
    buckets = {}
    for key in keys:
        for support, amp in vectors.get(key, {}).items():
            buckets.setdefault(support, []).append((key, amp))
    gram = {}
    for entries in buckets.values():
        for i, (key_a, amp_a) in enumerate(entries):
            conj_a = amp_a.conjugate()
            for key_b, amp_b in entries[i:]:
                if index[key_a] <= index[key_b]:
                    pair, term = (key_a, key_b), conj_a * amp_b
                else:
                    pair, term = (key_b, key_a), amp_b.conjugate() * amp_a
                prev = gram.get(pair)
                gram[pair] = term if prev is None else prev + term
    violations = []
    for key in keys:
        if gram.pop((key, key), Amplitude()) != AMP_ONE:
            vec = vectors.get(key, {})
            product_ = Amplitude()
            for support, amp in vec.items():
                product_ = product_ + amp.conjugate() * amp
            violations.append((symbol, key, key, product_))
    for (key_a, key_b), product_ in gram.items():
        if not product_.is_zero():
            violations.append((symbol, key_a, key_b, product_))
    violations.sort(key=lambda entry: (index[entry[1]], index[entry[2]]))
    return violations


def ref_check_unitarity(machine, reach=2):
    """The Amplitude column builder and Gram check, windows as documented:
    counters within ``reach * max_step`` of 0, columns from one step
    further out.  Only tests of the window itself pass another ``reach``."""
    if not machine.mclass.quantum:
        raise SimulationError("quantum machines only")
    m = machine.max_step
    window = range(-reach * m, reach * m + 1)
    source_window = range(-(reach + 1) * m, (reach + 1) * m + 1)
    states = list(machine.states)
    if SINK not in states:
        states.append(SINK)
    isometry, coisometry = [], []
    for symbol in machine.tape_symbols:
        columns = {}
        for state in states:
            for counter in source_window:
                column = {}
                for target, delta, weight in machine.entries(state, symbol, status_of(counter)):
                    key = (target, counter + delta)
                    prev = column.get(key)
                    column[key] = weight if prev is None else prev + weight
                columns[(state, counter)] = {
                    key: amp for key, amp in column.items() if not amp.is_zero()
                }
        window_keys = [(state, counter) for state in states for counter in window]
        isometry.extend(_ref_gram_violations(symbol, columns, window_keys))
        rows = {}
        for source, column in columns.items():
            for target, amp in column.items():
                if -reach * m <= target[1] <= reach * m:
                    rows.setdefault(target, {})[source] = amp
        coisometry.extend(_ref_gram_violations(symbol, rows, window_keys))
    return UnitarityReport(tuple(isometry), tuple(coisometry))


# ---------------------------------------------------------------------------
# Instance generators as they were: build every candidate, then classify.
# ---------------------------------------------------------------------------


def ref_gen_xoreq(n):
    sizes = range(2, n + 1, 2)
    offsets = range(0, 5)
    out = []
    for a, b, c, d in product(sizes, repeat=4):
        for k1, k2, l1, l2 in product(offsets, repeat=4):
            word = xoreq_word(a, b, c, d, k1, k2, l1, l2)
            label = classify_xoreq(word)
            if label != OUTSIDE:
                out.append((word, label))
    return out


def ref_gen_onenone(t, n):
    ones, nones = _onenone_vocab(t)
    out = []
    for label, first, second in (("yes", ones, nones), ("no", nones, ones)):
        for blocks in product(*([first, second] * t)):
            word = "".join(u + "d" * len(u) for u in blocks)
            if len(word) <= n:
                out.append((word, label))
    return out


def ref_gen_over(symbols, classify, n):
    words = ("".join(tup) for length in range(n + 1) for tup in product(symbols, repeat=length))
    return [(w, YES if classify(w) else NO) for w in words]


def ref_gen_L(n):
    out = [("", YES)]
    for symbols in ("ab", "cde"):
        out += [(w, label) for w, label in ref_gen_over(symbols, classify_L, n) if w]
    return out


# ---------------------------------------------------------------------------
# The lang-L machine as it was written out by hand.
# ---------------------------------------------------------------------------


def ref_build_l_p1ca(k):
    kth = Fraction(1, k)
    one = Fraction(1)
    states = ["Lstart", "Ca", "Cb", "Cbad", "Cdone"]
    for letter in "cde":
        states += [f"E{letter}{i}" for i in range(1, k + 1)]
    states += ["eqOK", "eqBad", "Lacc"]

    table = {}

    def both(state, symbol, entries):
        table[(state, symbol, Z)] = entries
        table[(state, symbol, NZ)] = entries

    both("Lstart", LEFT_END, (("Lstart", 0, one),))
    both("Lstart", RIGHT_END, (("Lacc", 0, one),))
    both("Lstart", "a", (("Ca", +1, one),))
    both("Lstart", "b", (("Cbad", 0, one),))
    both("Lstart", "c", tuple((f"Ec{i}", i, kth) for i in range(1, k + 1)))
    both("Lstart", "d", (("eqBad", 0, one),))
    both("Lstart", "e", (("eqBad", 0, one),))

    both("Ca", "a", (("Ca", +1, one),))
    both("Ca", "b", (("Cb", -1, one),))
    both("Ca", RIGHT_END, (("Cbad", 0, one),))
    table[("Cb", "b", NZ)] = (("Cb", -1, one),)
    table[("Cb", "b", Z)] = (("Cbad", 0, one),)
    table[("Cb", "a", Z)] = (("Ca", +1, one),)
    table[("Cb", "a", NZ)] = (("Cbad", 0, one),)
    table[("Cb", RIGHT_END, Z)] = (("Cdone", 0, one),)
    table[("Cb", RIGHT_END, NZ)] = (("Cbad", 0, one),)
    for symbol in ("a", "b", RIGHT_END):
        both("Cbad", symbol, (("Cbad", 0, one),))

    for i in range(1, k + 1):
        both(f"Ec{i}", "c", ((f"Ec{i}", i, one),))
        both(f"Ec{i}", "d", ((f"Ed{i}", 1 - i, one),))
        both(f"Ec{i}", "e", ((f"Ee{i}", -1, one),))
        both(f"Ed{i}", "d", ((f"Ed{i}", 1 - i, one),))
        both(f"Ed{i}", "e", ((f"Ee{i}", -1, one),))
        both(f"Ee{i}", "e", ((f"Ee{i}", -1, one),))
        both(f"Ec{i}", RIGHT_END, (("eqBad", 0, one),))
        both(f"Ed{i}", RIGHT_END, (("eqBad", 0, one),))
        table[(f"Ee{i}", RIGHT_END, Z)] = (("eqOK", 0, one),)
        table[(f"Ee{i}", RIGHT_END, NZ)] = (("eqBad", 0, one),)

    return CounterMachine(
        name=f"lang-L-p1ca-k{k}",
        mclass=MachineClass.P1CA,
        alphabet=("a", "b", "c", "d", "e"),
        states=tuple(states),
        initial="Lstart",
        accepting=frozenset({"Lacc", "Cbad", "eqOK"}),
        transitions=table,
        max_step=k,
    )
