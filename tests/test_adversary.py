"""Adversary procedures: cycle analysis, fooling pairs, pumping, brute search."""
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    F,
    L,
    R,
    det_a5b,
    det_blockb,
    det_const,
    det_count0,
    det_decrement,
    det_parity,
    det_swap,
    u_accept_all,
    u_branchy,
    u_reject_all,
    u_updown,
    mk,
)
from ocalab import (
    SINK,
    EngineError,
    MachineClass,
    SimulationError,
    Verdict,
    classify_eqstar,
    classify_xoreq,
    get_problem,
    run,
    tape_of,
    validate_machine,
)
from ocalab import adversary
from ocalab.adversary import (
    BruteResult,
    CycleProfile,
    FoolingPair,
    PumpRefutation,
    SigmaClass,
    analyze_cycle,
    bounds_rule,
    brute_refute,
    default_rule,
    exact_rule,
    exists_rule,
    fool_xoreq_d1ca,
    forall_rule,
    lv_rule,
    pump_u1bca,
    sigma_partition,
    threshold_rule,
)
from ocalab.kernel import compiled
from ocalab.zoo import build_m1, build_m2
from reference import ref_analyze_cycle, ref_find_rejecting_path, ref_prefix_configs, ref_replay
from test_kernel import small_machines


# ---------------------------------------------------------------------------
# Counter-cycle analysis of deterministic machines.
# ---------------------------------------------------------------------------


def test_analyze_cycle_frozen_profiles(complement):
    assert analyze_cycle(complement, ("inA", 1), "a") == CycleProfile(
        symbol="a",
        start=("inA", 1),
        entry_steps=0,
        period=1,
        difference=1,
        cycle_states=("inA",),
    )
    swap = analyze_cycle(det_swap(), ("s", 5), "a")
    assert (swap.entry_steps, swap.period, swap.difference) == (0, 2, 0)
    assert swap.cycle_states == ("s", "t")
    count = analyze_cycle(det_count0(), ("s", 1), "0")
    assert (count.period, count.difference, count.cycle_states) == (1, 1, ("s",))


def test_analyze_cycle_rejects_zero_crossings():
    with pytest.raises(SimulationError, match="counter reached zero at step 2"):
        analyze_cycle(det_decrement(), ("q", 2), "a")


def test_analyze_cycle_counts_the_start_counter():
    # From s at zero the run reads the Z row into t, and from t back to s,
    # now at a nonzero counter, so it leaves for u; the s/t cycle that the
    # repeated state s suggests is never entered.
    machine = mk(
        "zero-start", "d1ca", "a", ("s", "t", "u"), "s", (),
        [
            ("s", "a", "Z", [("t", 1, F(1))]),
            ("s", "a", "NZ", [("u", 1, F(1))]),
            ("t", "a", "*", [("s", 1, F(1))]),
            ("u", "a", "*", [("u", 1, F(1))]),
        ],
    )
    assert validate_machine(machine) == []
    with pytest.raises(SimulationError, match="counter reached zero at step 0 of the 'a'-run"):
        analyze_cycle(machine, ("s", 0), "a")
    assert analyze_cycle(machine, ("s", 1), "a") == CycleProfile(
        symbol="a", start=("s", 1), entry_steps=1, period=1, difference=1, cycle_states=("u",)
    )


def test_analyze_cycle_refuses_a_state_the_table_does_not_name(complement):
    with pytest.raises(SimulationError, match="state 'nowhere' is not in machine"):
        analyze_cycle(complement, ("nowhere", 1), "a")


def test_analyze_cycle_refuses_a_branching_row_on_the_run():
    # A hand-built d1ca that validation refuses: t's row on 'a' branches.
    machine = mk(
        "branchy", "d1ca", "a", ("s", "t", "u"), "s", (),
        [
            ("s", "a", "*", [("t", 1, F(1))]),
            ("t", "a", "*", [("s", 1, F(1, 2)), ("u", 1, F(1, 2))]),
        ],
    )
    assert validate_machine(machine) != []
    with pytest.raises(SimulationError, match="state 't' has a branching row on 'a'"):
        analyze_cycle(machine, ("s", 1), "a")


def test_analyze_cycle_past_the_declared_states_finds_no_repeat():
    # The rows walk s -> u -> v -> w through states the machine never
    # declares, so its 2|Q|-step horizon ends before any state repeats.
    walk = mk(
        "walk", "d1ca", "a", ("s",), "s", (),
        [(p, "a", "*", [(q, 0, F(1))]) for p, q in ("su", "uv", "vw")],
    )
    with pytest.raises(SimulationError, match="no state repetition found; horizon too short"):
        analyze_cycle(walk, ("s", 1), "a")


def test_analyze_cycle_rejects_bad_symbols(complement):
    with pytest.raises(SimulationError, match="not on this machine's tape"):
        analyze_cycle(complement, ("inA", 1), "z")


def test_analyze_cycle_needs_determinism(onenone):
    with pytest.raises(EngineError):
        analyze_cycle(onenone, ("start", 1), "a")


def test_sigma_partition_frozen(complement):
    assert sigma_partition(complement, "a") == (
        SigmaClass(cycle=("<sink>",), period=1, difference=0, members=("done",)),
        SigmaClass(cycle=("bad",), period=1, difference=0, members=("inB", "bad")),
        SigmaClass(cycle=("inA",), period=1, difference=1, members=("start", "inA")),
    )
    assert sigma_partition(complement, "b") == (
        SigmaClass(cycle=("<sink>",), period=1, difference=0, members=("done",)),
        SigmaClass(cycle=("bad",), period=1, difference=0, members=("start", "bad")),
        SigmaClass(cycle=("inB",), period=1, difference=-1, members=("inA", "inB")),
    )
    assert sigma_partition(det_swap(), "a") == (
        SigmaClass(cycle=("s", "t"), period=2, difference=0, members=("s", "t")),
    )


@st.composite
def deterministic_machines(draw, alphabet="ab"):
    """A valid d1ca or d1bca over ``alphabet`` with 1..5 states, some rows dropped."""
    tag = draw(st.sampled_from(("d1ca", "d1bca")))
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 5))))
    max_step = draw(st.integers(1, 3))
    branch = st.tuples(st.sampled_from(states), st.integers(-max_step, max_step))
    rows = []
    for state in states:
        for symbol in (L, *alphabet, R):
            for status in ("*",) if tag == "d1bca" else ("Z", "NZ"):
                if draw(st.integers(0, 5)):  # one row in six falls into the sink
                    target, delta = draw(branch)
                    rows.append((state, symbol, status, [(target, delta, F(1))]))
    return mk("rand", tag, alphabet, states, states[0], states[:1], rows, max_step=max_step)


def nonzero_cycle(machine, state, symbol):
    """The sigma-cycle from ``state`` on the nonzero-status functional graph."""
    order = []
    while state not in order:
        order.append(state)
        state = machine.entries(state, symbol, "NZ")[0][0]
    return order[order.index(state) :]


@settings(max_examples=150, deadline=None)
@given(deterministic_machines(), st.sampled_from((L, "a", "b", R)))
def test_sigma_partition_groups_the_analyze_cycle_profiles(machine, symbol):
    far = 1 + 2 * len(machine.states) * machine.max_step
    classes = {}
    for state in machine.states:
        profile = analyze_cycle(machine, (state, far), symbol)
        # Independent of analyze_cycle: walk the nonzero-status graph by hand.
        cycle = nonzero_cycle(machine, state, symbol)
        assert set(profile.cycle_states) == set(cycle)
        drift = sum(machine.entries(q, symbol, "NZ")[0][1] for q in cycle)
        assert profile.difference == drift
        key = min(cycle[i:] + cycle[:i] for i in range(len(cycle)))
        classes.setdefault(tuple(key), (profile.difference, []))[1].append(state)
    assert sigma_partition(machine, symbol) == tuple(
        SigmaClass(cycle=cycle, period=len(cycle), difference=drift, members=tuple(members))
        for cycle, (drift, members) in sorted(classes.items())
    )


@settings(max_examples=200, deadline=None)
@given(deterministic_machines(), st.integers(-8, 8).filter(bool), st.data())
def test_analyze_cycle_matches_the_name_walk(machine, counter, data):
    # The compiled walk against the reference's walk on state names, from
    # every state the table names and on every tape symbol: profiles, zero
    # crossings and horizon errors alike.  Declaring fewer states shortens
    # the 2|Q| horizon below the walk's length.
    declared = data.draw(st.integers(1, len(machine.states)))
    machine = dataclasses.replace(machine, states=machine.states[:declared])

    def outcome(analyze, state, symbol):
        try:
            return analyze(machine, (state, counter), symbol)
        except SimulationError as exc:
            return str(exc)

    for state in compiled(machine).names:
        for symbol in machine.tape_symbols:
            assert outcome(analyze_cycle, state, symbol) == outcome(ref_analyze_cycle, state, symbol)


def test_sigma_partition_reads_steps_wider_than_max_step():
    # A hand-built table need not honour max_step: -5 from s, +3 from t.
    wide = mk(
        "wide",
        "d1ca",
        "a",
        ("s", "t", "u"),
        "s",
        ("s",),
        [
            ("s", "a", "*", [("t", -5, F(1))]),
            ("t", "a", "*", [("s", 3, F(1))]),
            ("u", "a", "*", [("s", -4, F(1))]),
            ("u", R, "*", [("u", 0, F(1))]),
        ],
    )
    assert sigma_partition(wide, "a") == (
        SigmaClass(cycle=("s", "t"), period=2, difference=-2, members=("s", "t", "u")),
    )
    assert sigma_partition(wide, R) == (
        SigmaClass(cycle=(SINK,), period=1, difference=0, members=("s", "t")),
        SigmaClass(cycle=("u",), period=1, difference=0, members=("u",)),
    )


def test_sigma_partition_guards_hold_without_states():
    empty = mk("empty", "d1ca", "a", (), "s", (), [])
    assert sigma_partition(empty, "a") == ()
    with pytest.raises(SimulationError, match="not on this machine's tape"):
        sigma_partition(empty, "z")
    with pytest.raises(EngineError, match="needs a deterministic machine"):
        sigma_partition(dataclasses.replace(empty, mclass=u_accept_all().mclass), "a")


# ---------------------------------------------------------------------------
# Fooling pairs against deterministic machines on the XOR problem.
# ---------------------------------------------------------------------------

EXPECTED_FOOLING = {
    "det-const": ((2, 2), (4, 2), ("s", 0), "a differs", True),
    "det-count0": ((4, 2), (2, 4), ("s", 6), "a differs", True),
    "det-parity": ((2, 2), (4, 2), ("p0", 0), "a differs", False),
    "det-blockb": ((2, 2), (4, 2), ("e", 2), "a differs", False),
    "m1": ((2, 2), (2, 4), ("q3", 2), "a equal", False),
}


def fooling_machines(m1):
    return [det_const(), det_count0(), det_parity(), det_blockb(), m1]


def test_fooling_pairs_frozen(m1):
    for machine in fooling_machines(m1):
        pair = fool_xoreq_d1ca(machine)
        py, pn, coll, case, acc = EXPECTED_FOOLING[machine.name]
        assert pair.prefix_yes == py, machine.name
        assert pair.prefix_no == pn, machine.name
        assert pair.collision == coll, machine.name
        assert pair.case == case, machine.name
        assert pair.machine_accepts is acc, machine.name


def test_fooling_pairs_self_verify(m1):
    for machine in fooling_machines(m1):
        pair = fool_xoreq_d1ca(machine)
        # the pair straddles the promise boundary ...
        assert classify_xoreq(pair.word_yes) == "yes"
        assert classify_xoreq(pair.word_no) == "no"
        # ... yet the machine cannot tell the two words apart
        v_yes = run(machine, pair.word_yes)
        v_no = run(machine, pair.word_no)
        assert v_yes == v_no
        assert (v_yes.accept == 1) is pair.machine_accepts


def test_fooling_pair_word_for_m1_frozen(m1):
    pair = fool_xoreq_d1ca(m1)
    assert pair.word_yes == "00#00#0000#00#000###0"
    assert pair.word_no == "00#0000#0000#00#000###0"


SHORT_PAIR = ("00#00#00#0000##0#000#", "0000#00#00#0000##0#000#")
M1_PAIR = ("00#00#0000#00#000###0", "00#0000#0000#00#000###0")


def _pair(words, prefixes, collision, case, suffix, accepts):
    return FoolingPair(
        word_yes=words[0],
        word_no=words[1],
        prefix_yes=prefixes[0],
        prefix_no=prefixes[1],
        collision=collision,
        case=case,
        suffix=suffix,
        machine_accepts=accepts,
    )


def test_whole_fooling_pairs_frozen(m1, m2):
    a_equal = ((2, 2), (2, 4))
    a_differs = ((2, 2), (4, 2))
    expected = [
        (m1, _pair(M1_PAIR, a_equal, ("q3", 2), "a equal", (4, 2, 3, 0, 0, 1), False)),
        (m2, _pair(SHORT_PAIR, a_differs, ("q3", 2), "a differs", (2, 4, 0, 1, 3, 0), False)),
        (
            build_m1(primed=True),
            _pair(M1_PAIR, a_equal, ("p3", 2), "a equal", (4, 2, 3, 0, 0, 1), True),
        ),
        (
            build_m2(primed=True),
            _pair(SHORT_PAIR, a_differs, ("p3", 2), "a differs", (2, 4, 0, 1, 3, 0), True),
        ),
        (det_const(), _pair(SHORT_PAIR, a_differs, ("s", 0), "a differs", (2, 4, 0, 1, 3, 0), True)),
        (
            det_count0(),
            _pair(
                ("0000#00#0000#000000#00##00#", "00#0000#0000#000000#00##00#"),
                ((4, 2), (2, 4)),
                ("s", 6),
                "a differs",
                (4, 6, 2, 0, 2, 0),
                True,
            ),
        ),
        (det_parity(), _pair(SHORT_PAIR, a_differs, ("p0", 0), "a differs", (2, 4, 0, 1, 3, 0), False)),
        (det_blockb(), _pair(SHORT_PAIR, a_differs, ("e", 2), "a differs", (2, 4, 0, 1, 3, 0), False)),
    ]
    for machine, pair in expected:
        assert fool_xoreq_d1ca(machine) == pair, machine.name


def test_fooling_doubles_the_prefix_bound_past_eight():
    # The counter after cent 0^a # 0^b # is a + 5b: no two even prefixes
    # up to 8 collide, so the bound must double to 16.
    machine = det_a5b()
    assert fool_xoreq_d1ca(machine) == FoolingPair(
        word_yes="000000000000#00#000000000000#00000000#000000###",
        word_no="00#0000#000000000000#00000000#000000###",
        prefix_yes=(12, 2),
        prefix_no=(2, 4),
        collision=("e", 22),
        case="a differs",
        suffix=(12, 8, 6, 0, 0, 0),
        machine_accepts=False,
    )
    with pytest.raises(SimulationError, match="up to 8"):
        fool_xoreq_d1ca(machine, n=8)


def test_fooling_needs_deterministic_machine(onenone):
    with pytest.raises(EngineError, match="deterministic"):
        fool_xoreq_d1ca(onenone)


def test_fooling_needs_the_right_alphabet():
    with pytest.raises(EngineError, match="alphabet"):
        fool_xoreq_d1ca(det_swap())


def test_fooling_collision_budget(m1):
    with pytest.raises(SimulationError):
        fool_xoreq_d1ca(m1, n=2)


@settings(max_examples=150, deadline=None)
@given(deterministic_machines(alphabet="0#"), st.integers(1, 12))
def test_prefix_configs_match_the_name_walk(machine, bound):
    config = compiled(machine).config
    prefixes = adversary._prefix_configs(machine, bound)
    assert [(prefix, config(c)) for prefix, c in prefixes] == ref_prefix_configs(machine, bound)


def test_fooling_refuses_a_row_whose_only_branch_weighs_nothing():
    # validate_machine refuses this hand-built row; it compiles to no branch at all.
    machine = mk(
        "zero-row", "d1ca", "0#", ("s",), "s", ("s",),
        [("s", L, "*", [("s", 0, F(1))]), ("s", "0", "*", [("s", 1, F(0))])],
    )
    assert validate_machine(machine)
    with pytest.raises(SimulationError, match=r"^state 's' has no branch of nonzero weight on '0'$"):
        fool_xoreq_d1ca(machine)


# ---------------------------------------------------------------------------
# Pumping refutations against universal machines.
# ---------------------------------------------------------------------------


def test_pump_accepts_member_cases():
    for machine in (u_accept_all(), u_updown()):
        ref = pump_u1bca(machine)
        assert ref.kind == "accepts-member"
        assert ref.base_word == "aabb"
        assert ref.witness_word == "aabb"
        assert classify_eqstar(ref.witness_word)  # accepted member of the language
        assert run(machine, ref.witness_word).accept == 1


def test_pump_refuses_a_base_word_outside_the_language():
    with pytest.raises(EngineError, match=r"^base word must be a member of \(a\^n b\^n\)\*$"):
        pump_u1bca(u_updown(), word="aab")


def test_pump_pumped_reject_cases():
    ref = pump_u1bca(u_branchy())
    assert ref.kind == "pumped-reject"
    assert ref.base_word == "aaabbb"
    assert ref.witness_word == "aaaabbb"
    assert ref.repeated_state == "s"
    assert ref.pump_gap == 1
    assert ref.final_config == ("t", 3)

    ref2 = pump_u1bca(u_reject_all())
    assert ref2.kind == "pumped-reject"
    assert (ref2.base_word, ref2.witness_word) == ("aabb", "aaabb")
    assert ref2.pump_gap == 1
    assert ref2.final_config == ("s", 0)


PUMP_DETAIL = (
    "a rejecting path pumped through the first-block cycle rejects "
    "a member of the complement of (a^n b^n)*"
)


def test_whole_pump_refutations_frozen():
    expected = [
        (u_branchy(), None, "aaabbb", ("t", 3)),
        (u_branchy(), "aaaabbbb", "aaaabbbb", ("t", 4)),
        (u_reject_all(), None, "aabb", ("s", 0)),
        (u_reject_all(), "aaaabbbb", "aaaabbbb", ("s", 0)),
    ]
    for machine, word, base, final in expected:
        ref = pump_u1bca(machine) if word is None else pump_u1bca(machine, word)
        assert ref == PumpRefutation(
            kind="pumped-reject",
            base_word=base,
            witness_word="a" + base,
            repeated_state="s",
            pump_gap=1,
            final_config=final,
            detail=PUMP_DETAIL,
        ), (machine.name, word)


def test_pump_path_ending_accepting_at_a_nonzero_counter_rejects():
    # One accepting state that counts the a's: on aabb its one path ends in
    # s at counter 2, and a blind machine accepts only at counter 0.
    machine = mk(
        "u-count-a",
        "u1bca",
        "ab",
        ("s",),
        "s",
        ("s",),
        [
            ("s", L, "*", [("s", 0, F(1))]),
            ("s", "a", "*", [("s", 1, F(1))]),
            ("s", "b", "*", [("s", 0, F(1))]),
            ("s", R, "*", [("s", 0, F(1))]),
        ],
    )
    ref = pump_u1bca(machine)
    assert (ref.kind, ref.base_word, ref.witness_word) == ("pumped-reject", "aabb", "aaabb")
    assert (ref.repeated_state, ref.pump_gap, ref.final_config) == ("s", 1, ("s", 3))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SimulationError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(small_machines((MachineClass.U1BCA,)), st.data())
def test_rejecting_paths_and_replays_match_the_name_walk(machine, data):
    # The compiled search and replay against the reference's walks on state
    # names: the same branch indices and trails, budget errors included.
    config = compiled(machine).config
    word = data.draw(st.text(alphabet=machine.alphabet, max_size=6))
    tape = tuple(tape_of(word, machine.alphabet))
    budget = data.draw(st.integers(1, 300))
    found = _outcome(adversary._find_rejecting_path, machine, tape, budget)
    if found is not None and not isinstance(found, str):
        found = (found[0], [config(c) for c in found[1]])
    assert found == _outcome(ref_find_rejecting_path, machine, tape, budget)

    choices = tuple(data.draw(st.lists(st.integers(0, 3), max_size=len(tape))))
    trail = _outcome(adversary._replay, machine, tape, choices)
    if not isinstance(trail, str):
        trail = [config(c) for c in trail]
    assert trail == _outcome(ref_replay, machine, tape, choices)


def test_pump_witnesses_refute_universal_acceptance():
    for machine in (u_branchy(), u_reject_all()):
        ref = pump_u1bca(machine)
        # witness lies in the complement, yet some path rejects it
        assert not classify_eqstar(ref.witness_word)
        assert run(machine, ref.witness_word).accept < 1


def test_pump_input_validation(m1):
    with pytest.raises(EngineError, match="u1bca"):
        pump_u1bca(m1)
    with pytest.raises(EngineError, match="first a-block"):
        pump_u1bca(u_branchy(), word="abab")
    with pytest.raises(EngineError, match="first a-block"):
        pump_u1bca(u_branchy(), word="")
    with pytest.raises(SimulationError, match="node budget"):
        pump_u1bca(u_branchy(), node_budget=2)


# ---------------------------------------------------------------------------
# Decision rules.
# ---------------------------------------------------------------------------


def v(a, r, n=0):
    return Verdict(F(a), F(r), F(n))


def test_exact_rule():
    rule = exact_rule()
    assert rule("yes", v(1, 0)) is None
    assert rule("no", v(0, 1)) is None
    assert rule("yes", v(F(1, 2), F(1, 2))) == (
        "expected accept=1 on a yes-instance, got 1/2"
    )
    assert rule("no", v(F(1, 3), F(2, 3))) == (
        "expected accept=0 on a no-instance, got 1/3"
    )


def test_threshold_rule_boundary_is_strict():
    rule = threshold_rule()
    assert rule("yes", v(F(2, 3), F(1, 3))) is None
    assert rule("no", v(F(1, 2), F(1, 2))) is None  # exactly theta is fine on a no
    assert rule("yes", v(F(1, 2), F(1, 2))) == "accept 1/2 <= 1/2 on a yes-instance"
    assert rule("no", v(F(2, 3), F(1, 3))) == "accept 2/3 > 1/2 on a no-instance"
    strict = threshold_rule(theta=F(3, 4))
    assert strict("yes", v(F(4, 5), F(1, 5))) is None
    assert strict("yes", v(F(3, 4), F(1, 4))) is not None


def test_exists_and_forall_rules():
    rule = exists_rule()
    assert rule("yes", v(F(1, 8), F(7, 8))) is None
    assert rule("yes", v(0, 1)) == "no accepting path on a yes-instance"
    assert rule("no", v(F(1, 8), F(7, 8))) == (
        "accepting path (mass 1/8) on a no-instance"
    )
    assert rule("no", v(0, 1)) is None

    rule = forall_rule()
    assert rule("yes", v(1, 0)) is None
    assert rule("yes", v(F(7, 8), F(1, 8))) == (
        "rejecting path (accept mass 7/8) on a yes-instance"
    )
    assert rule("no", v(F(7, 8), F(1, 8))) is None
    assert rule("no", v(1, 0)) is not None


def test_lv_rule():
    rule = lv_rule()
    assert rule("yes", v(F(1, 3), 0, F(2, 3))) is None
    assert rule("no", v(0, F(1, 3), F(2, 3))) is None
    assert rule("yes", v(F(1, 3), F(1, 3), F(1, 3))) == (
        "both accept and reject have positive probability"
    )
    assert rule("no", v(F(1, 3), 0, F(2, 3))) == (
        "accept probability 1/3 on a no-instance"
    )


def test_lv_and_bounds_rules_word_a_yes_instance_rejection_apart():
    from ocalab import get_entry

    verdict = v(0, F(1, 3), F(2, 3))
    assert lv_rule()("yes", verdict) == "reject probability 1/3 on a yes-instance"
    rule = bounds_rule(get_entry("onenone-lv").claimed_bounds, las_vegas=True)
    assert rule("yes", verdict) == "accept 0 below claimed yes-bound 1/3"


def test_bounds_rule(onenone, eqstar_k3):
    from ocalab import get_entry

    lv_bounds = get_entry("onenone-lv").claimed_bounds
    rule = bounds_rule(lv_bounds, las_vegas=True)
    assert rule("yes", v(F(1, 3), 0, F(2, 3))) is None
    assert rule("yes", v(F(1, 4), 0, F(3, 4))) == "dontknow 3/4 exceeds bound 2/3"
    assert rule("yes", v(F(1, 4), F(1, 12), F(2, 3))) == (
        "both accept and reject have positive probability"
    )

    cut_bounds = get_entry("eq-star-p1bca-k3").claimed_bounds
    rule = bounds_rule(cut_bounds)
    assert rule("no", v(F(1, 3), F(2, 3))) is None
    assert rule("no", v(F(1, 2), F(1, 2))) == "accept 1/2 above claimed no-bound 1/3"


def _bounds_cases():
    from ocalab import get_entry

    bounds = get_entry("onenone-lv").claimed_bounds
    verdicts = [v(F(1, 3), 0, F(2, 3)), v(F(1, 4), 0, F(3, 4)), v(0, F(1, 3), F(2, 3)), v(0, 1)]
    return bounds, [(label, verdict) for verdict in verdicts for label in ("yes", "no")]


@pytest.mark.parametrize("las_vegas", [False, True])
def test_bounds_rule_caches_the_reason_per_label_and_verdict(monkeypatch, las_vegas):
    bounds, cases = _bounds_cases()
    rule = bounds_rule(bounds, las_vegas=las_vegas)
    want = [bounds.violation(label, verdict, las_vegas) for label, verdict in cases]
    # The same verdict objects again, and fresh equal ones.
    for _ in range(2):
        assert [rule(label, verdict) for label, verdict in cases] == want
    fresh = [(label, Verdict(*dataclasses.astuple(verdict))) for label, verdict in cases]
    assert [rule(label, verdict) for label, verdict in fresh] == want
    # A recycled id: every verdict seen under one id is still judged afresh.
    monkeypatch.setattr(adversary, "id", lambda obj: 0, raising=False)
    rule = bounds_rule(bounds, las_vegas=las_vegas)
    for _ in range(2):
        assert [rule(label, verdict) for label, verdict in cases] == want
    # The cache is bounded: far more distinct verdicts than it holds.
    monkeypatch.undo()
    many = [v(F(1, k), 1 - F(1, k)) for k in range(1, 600)]
    assert [rule("no", verdict) for verdict in many] == [
        bounds.violation("no", verdict, las_vegas) for verdict in many
    ]
    (cache,) = [cell.cell_contents for cell in rule.__closure__ if type(cell.cell_contents) is dict]
    assert 0 < len(cache) <= 256


def test_brute_calls_a_user_rule_on_every_instance_in_order():
    from ocalab import get_entry

    entry = get_entry("eq3-p1bca-k4")
    instances = get_problem("eq3").generate(6)
    seen = []
    claim = bounds_rule(entry.claimed_bounds)

    def rule(label, verdict):
        seen.append((label, verdict))
        return claim(label, verdict)

    assert brute_refute(entry.machine, "eq3", 6, rule) is None
    assert [label for label, _ in seen] == [label for _, label in instances]
    assert [verdict for _, verdict in seen] == [run(entry.machine, word) for word, _ in instances]


def test_default_rule_dispatch(m1, m2, onenone, xoreq, eqstar_k3):
    def kind(machine):
        return default_rule(machine).__qualname__.split(".")[0]

    assert kind(m1) == "exact_rule"
    assert kind(m2) == "exact_rule"
    assert kind(xoreq) == "exact_rule"
    assert kind(onenone) == "lv_rule"
    assert kind(eqstar_k3) == "threshold_rule"

    n_machine = mk(
        "n", "n1bca", "a", ("s",), "s", ("s",), [("s", "a", "*", [("s", 0, F(1))])]
    )
    assert kind(n_machine) == "exists_rule"
    assert kind(u_accept_all()) == "forall_rule"


# ---------------------------------------------------------------------------
# Brute-force refutation search.
# ---------------------------------------------------------------------------


def test_brute_refutes_m1_on_the_xor_problem(m1):
    result = brute_refute(m1, "xor-eq", 4, rule=exact_rule())
    assert isinstance(result, BruteResult)
    assert result.word == "00#00#00#00####"
    assert result.label == "no"
    assert result.verdict.accept == 1
    assert result.reason == "expected accept=0 on a no-instance, got 1"
    # default rule for a deterministic machine is the exact rule
    assert brute_refute(m1, "xor-eq", 4) == result


def test_brute_finds_nothing_against_sound_machines(complement, xoreq):
    assert brute_refute(complement, "eq-star-complement", 8) is None
    assert brute_refute(xoreq, "xor-eq", 4) is None


def test_brute_unknown_problem(m1):
    with pytest.raises(EngineError, match="unknown problem"):
        brute_refute(m1, "nope", 3)


def test_brute_reads_nothing_past_the_first_violation(m1, monkeypatch):
    xoreq = get_problem("xor-eq")
    listed = xoreq.generate(4)
    last = [word for word, _ in listed].index("00#00#00#00####")

    def stream(n):
        yield from listed[: last + 1]
        raise AssertionError("the instance stream was read past the first violation")

    monkeypatch.setattr(
        adversary, "get_problem", lambda name: dataclasses.replace(xoreq, stream=stream)
    )
    judged = []
    exact = exact_rule()

    def rule(label, verdict):
        judged.append(label)
        return exact(label, verdict)

    result = brute_refute(m1, "xor-eq", 4, rule)
    assert result == brute_refute(m1, "xor-eq", 4)
    assert result.word == "00#00#00#00####"
    assert len(judged) == last + 1
