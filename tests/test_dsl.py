"""Text format: canonical emission, parsing, diagnostics, round trips."""
import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import F, hadamard2, mk
from ocalab import (
    AMP_INV_SQRT2,
    AMP_ONE,
    Amplitude,
    CounterMachine,
    EngineError,
    MachineClass,
    ParseError,
    emit,
    parse,
    parse_file,
    parse_with_diagnostics,
    zoo_names,
    get_entry,
)
from ocalab.dsl import SourceSpan, emit_amplitude, parse_amplitude

TINY = """
# a tiny probabilistic machine
machine tiny
class p1ca
alphabet a b
states s t
initial s
accept t
maxstep 2

trans s , LEND , * -> s , 0
trans s , a , Z -> t , 2 @ 1/2
trans s , a , Z -> s , 0 @ 1/2
trans t , REND , NZ -> t , 0
"""


def test_parse_tiny_machine():
    m = parse(TINY)
    assert m.name == "tiny"
    assert m.mclass is MachineClass.P1CA
    assert m.alphabet == ("a", "b")
    assert m.states == ("s", "t")
    assert m.initial == "s"
    assert m.accepting == frozenset({"t"})
    assert m.max_step == 2
    assert m.transitions[("s", "a", "Z")] == (("t", 2, F(1, 2)), ("s", 0, F(1, 2)))
    # '*' expanded to both statuses
    assert m.transitions[("s", "¢", "Z")] == m.transitions[("s", "¢", "NZ")]


def test_emit_is_canonical_fixed_point():
    m = parse(TINY)
    text = emit(m)
    again = parse(text)
    assert again == m
    assert emit(again) == text


def test_round_trip_every_zoo_machine():
    for name in zoo_names():
        machine = get_entry(name).machine
        assert parse(emit(machine)) == machine, name


def test_hash_symbol_uses_alias_token():
    m = get_entry("m1").machine
    text = emit(m)
    assert "HASH" in text
    assert "alphabet 0 HASH" in text
    assert parse(text) == m


def test_uniform_fill_for_unweighted_rows():
    text = """
machine fill
class p1ca
alphabet a
states s t u
initial s
accept t

trans s , a , Z -> t , 1
trans s , a , Z -> u , 0
trans s , a , Z -> s , -1
"""
    m = parse(text)
    row = m.transitions[("s", "a", "Z")]
    assert [w for _, _, w in row] == [F(1, 3)] * 3


def test_deterministic_weight_one_is_implicit():
    m = get_entry("eq-star-complement-d1ca").machine
    text = emit(m)
    assert "@" not in text
    assert parse(text) == m


def test_parse_file_round_trip(tmp_path):
    m = get_entry("m2").machine
    path = tmp_path / "m2.cma"
    path.write_text(emit(m), encoding="utf-8")
    assert parse_file(path) == m


AMPLITUDE_SAMPLES = [
    AMP_ONE,
    Amplitude(),
    AMP_INV_SQRT2,
    Amplitude(F(1, 2)),
    Amplitude(-1, F(1, 3), F(2, 7), F(-5, 4)),
    Amplitude(0, 0, 1, 0),
    Amplitude(0, 0, 0, F(-1, 2)),
    Amplitude(F(3, 4), F(-1, 2)),
]


@pytest.mark.parametrize("amp", AMPLITUDE_SAMPLES)
def test_amplitude_text_round_trip(amp):
    assert parse_amplitude(emit_amplitude(amp)) == amp


def test_amplitude_text_forms():
    assert emit_amplitude(AMP_INV_SQRT2) == "1/2 r2"
    assert parse_amplitude("1/2 r2") == AMP_INV_SQRT2
    assert parse_amplitude("1") == AMP_ONE
    assert parse_amplitude("0 + 1 i") == Amplitude(0, 0, 1, 0)
    with pytest.raises(ParseError):
        parse_amplitude("bogus !!")


def test_quantum_round_trip_with_amplitudes(xoreq):
    text = emit(xoreq)
    assert "r2" in text
    assert parse(text) == xoreq


def errors_of(text):
    machine, diags = parse_with_diagnostics(text)
    return machine, [d for d in diags if d.severity == "error"]


def test_diagnostics_missing_directives():
    machine, errors = errors_of("states s\n")
    assert machine is None
    messages = {e.message for e in errors}
    assert "missing 'machine' directive" in messages
    assert "missing 'class' directive" in messages
    assert "missing 'initial' directive" in messages


def test_diagnostics_duplicate_directive_has_position():
    text = "machine a\nmachine b\nclass d1ca\nstates s\ninitial s\n"
    machine, errors = errors_of(text)
    assert machine is None
    dup = next(e for e in errors if "duplicate 'machine'" in e.message)
    assert dup.span.line == 2
    assert str(dup).startswith("2:1: error:")


def test_diagnostics_unknown_pieces():
    text = """
machine bad
class mealy
alphabet a $
states s s Z
initial ghost
accept other

widget on
"""
    machine, errors = errors_of(text)
    assert machine is None
    messages = " | ".join(e.message for e in errors)
    assert "unknown machine class 'mealy'" in messages
    assert "endmarkers are implicit" in messages
    assert "duplicate state 's'" in messages
    assert "state name 'Z' is reserved" in messages
    assert "undeclared state 'ghost'" in messages
    assert "undeclared state 'other'" in messages
    assert "unknown directive 'widget'" in messages


def test_diagnostics_bad_transition_lines():
    text = """
machine bad
class p1ca
alphabet a
states s
initial s
accept s

trans s , a , MAYBE -> s , 0
trans s , q , Z -> s , 0
trans s , a , Z -> ghost , zero
"""
    machine, errors = errors_of(text)
    assert machine is None
    messages = " | ".join(e.message for e in errors)
    assert "status must be Z, NZ or *" in messages
    assert "undeclared symbol 'q'" in messages
    assert "undeclared state 'ghost'" in messages
    assert "malformed counter delta 'zero'" in messages


def test_diagnostics_weight_problems():
    base = "machine w\nclass p1ca\nalphabet a\nstates s\ninitial s\naccept s\n"
    _, errors = errors_of(base + "trans s , a , Z -> s , 0 @ 3/2\n")
    assert any("outside [0,1]" in e.message for e in errors)
    _, errors = errors_of(
        base + "trans s , a , Z -> s , 0 @ 1/2\ntrans s , a , Z -> s , 1\n"
    )
    assert any("mixes weighted and unweighted" in e.message for e in errors)
    _, errors = errors_of(base + "trans s , a , Z -> s , 0 @ 1/0\n")
    assert any("malformed rational" in e.message for e in errors)


@pytest.mark.parametrize(
    "mclass, weight, diagnostic",
    [
        ("p1ca", "1/2 1/2", "7:32: error: classical weight must be a single rational"),
        ("p1ca", "1/0", "7:28: error: malformed rational '1/0'"),
        ("p1ca", "x", "7:28: error: malformed rational 'x'"),
        ("p1ca", "3/2", "7:28: error: weight 3/2 outside [0,1]"),
        ("q1ca", "1/2 r2 r2", "7:35: error: stray r2 token"),
    ],
)
def test_diagnostics_weight_texts(mclass, weight, diagnostic):
    text = (
        f"machine w\nclass {mclass}\nalphabet a\nstates s\ninitial s\naccept s\n"
        f"trans s , a , Z -> s , 0 @ {weight}\n"
    )
    _, errors = errors_of(text)
    assert [str(e) for e in errors] == [diagnostic]


def test_weights_with_an_exponent_are_refused():
    # Fraction reads an exponent by building its power of ten, so one short
    # token such as 1e-999999999 would take minutes and hundreds of MB.
    header = "machine w\nclass {}\nalphabet a\nstates s t\ninitial s\naccept s\n"
    classical = header.format("p1ca") + (
        "trans s , a , Z -> s , 0 @ 1e-1\ntrans s , a , Z -> t , 0 @ 9E-1\n"
    )
    assert [str(e) for e in errors_of(classical)[1]] == [
        "7:28: error: malformed rational '1e-1'",
        "8:28: error: malformed rational '9E-1'",
    ]
    quantum = header.format("q1ca") + "trans s , a , Z -> s , 0 @ 1/2 + 1e0 r2\n"
    assert [str(e) for e in errors_of(quantum)[1]] == ["7:34: error: malformed rational '1e0'"]


def test_diagnostics_duplicate_branch_line():
    base = "machine w\nclass n1bca\nalphabet a\nstates s\ninitial s\naccept s\n"
    _, errors = errors_of(
        base + "trans s , a , * -> s , 0\ntrans s , a , * -> s , 0\n"
    )
    assert any("duplicate transition" in e.message for e in errors)


def test_diagnostics_blind_machines_must_use_star():
    text = """
machine b
class p1bca
alphabet a
states s
initial s
accept s

trans s , a , Z -> s , 1
"""
    machine, errors = errors_of(text)
    assert machine is None
    assert any("use '*'" in e.message for e in errors)


def test_diagnostics_include_validation_codes():
    text = """
machine v
class p1ca
alphabet a
states s
initial s
accept s

trans s , a , Z -> s , 0 @ 1/2
"""
    machine, errors = errors_of(text)
    assert machine is None
    assert any("[prob-sum]" in e.message for e in errors)


def test_parse_error_carries_diagnostics():
    with pytest.raises(ParseError) as exc_info:
        parse("machine a\nclass d1ca\nstates s\ninitial ghost\n")
    diags = exc_info.value.diagnostics
    assert diags and any(d.severity == "error" for d in diags)
    assert ":" in str(exc_info.value)


# The same machine as TINY with no space around ',', '@' and '*'.
TINY_COMPACT = """machine tiny
class p1ca
alphabet a b
states s t
initial s
accept t
maxstep 2
trans s,LEND,*->s,0
trans s,a,Z ->t,2@1/2
trans s,a,Z ->s,0@1/2
trans t,REND,NZ ->t,0
"""


def _with_comments(text):
    return "\n".join(line + "\t# note, -> @ *" if line else line for line in text.split("\n"))


@pytest.mark.parametrize(
    "variant",
    [
        lambda text: text.replace(" ", "\t"),
        lambda text: text.replace(" ", "   "),
        lambda text: text.replace("\n", "\r\n"),
        _with_comments,
    ],
    ids=["tabs", "space-runs", "crlf", "trailing-comment"],
)
def test_token_separators_do_not_change_the_machine(variant):
    quantum = emit(hadamard2())
    assert parse(variant(TINY)) == parse(TINY)
    assert parse(variant(quantum)) == parse(quantum)


def test_separators_need_no_spaces():
    assert parse(TINY_COMPACT) == parse(TINY)
    quantum = emit(hadamard2())  # every row is '*', and amplitudes have r2 terms
    compact = re.sub(r" ?(,|->|@|\*) ", r"\1", quantum)
    assert "trans q,a,*->q,0@1/2 r2" in compact
    assert parse(compact) == parse(quantum)


def test_an_arrow_right_after_a_word_is_its_own_token():
    text = TINY_COMPACT.replace(" ->", "->")
    assert "trans s,a,Z->t,2@1/2" in text
    assert parse(text) == parse(TINY)


def test_a_name_with_an_arrow_is_refused():
    machine, errors = errors_of(TINY.replace("states s t", "states s t a->b"))
    assert machine is None
    assert [str(e) for e in errors] == ["6:13: error: state name '->' is reserved"]
    tiny = parse(TINY)
    with pytest.raises(EngineError, match=r"^state 'a->b' cannot be written in the text format$"):
        emit(dataclasses.replace(tiny, states=(*tiny.states, "a->b")))
    with pytest.raises(EngineError, match=r"^symbol 'a->b' cannot be written in the text format$"):
        emit(dataclasses.replace(tiny, alphabet=(*tiny.alphabet, "a->b")))


def test_source_spans_are_one_based():
    with pytest.raises(ValueError, match="^SourceSpan positions are 1-based$"):
        SourceSpan(0, 1, 1)


def test_each_bad_literal_is_reported_at_its_own_position():
    # One literal text that fails on two lines: the failure is not shared,
    # so each line gets its own diagnostic and span.
    text = TINY.replace("Z -> t , 2 @ 1/2", "Z -> t , 2 @ 1/0").replace(
        "Z -> s , 0 @ 1/2", "Z -> s , 0 @   1/0"
    )
    machine, errors = errors_of(text)
    assert machine is None
    assert [str(e) for e in errors] == [
        "12:28: error: malformed rational '1/0'",
        "13:30: error: malformed rational '1/0'",
    ]
    assert [e.span for e in errors] == [SourceSpan(12, 28, 3), SourceSpan(13, 30, 3)]


def test_misshaped_transition_line_points_at_its_head():
    text = TINY.replace("trans t , REND , NZ -> t , 0", "\t  trans t REND NZ -> t , 0")
    _, errors = errors_of(text)
    assert [(str(e), e.span.length) for e in errors] == [
        (
            "14:4: error: malformed transition line; expected "
            "'trans <state> , <sym> , <Z|NZ|*> -> <state> , <delta> [@ <weight>]'",
            5,
        )
    ]


def test_emit_rejects_unwritable_names():
    reserved_state = mk(
        "bad", "d1ca", "a", ("Z",), "Z", ("Z",), [("Z", "a", "Z", [("Z", 0, F(1))])]
    )
    with pytest.raises(EngineError):
        emit(reserved_state)
    comma_symbol = mk(
        "bad2", "d1ca", (","), ("s",), "s", ("s",), [("s", ",", "Z", [("s", 0, F(1))])]
    )
    with pytest.raises(EngineError):
        emit(comma_symbol)


states_st = st.integers(min_value=1, max_value=4).map(
    lambda n: tuple(f"q{i}" for i in range(n))
)


@st.composite
def det_machines(draw):
    states = draw(states_st)
    alphabet = tuple(
        sorted(draw(st.sets(st.sampled_from("abc"), min_size=1, max_size=2)))
    )
    max_step = draw(st.integers(min_value=1, max_value=3))
    transitions = {}
    for state in states:
        for symbol in alphabet + ("¢", "$"):
            for status in ("Z", "NZ"):
                if draw(st.booleans()):
                    target = draw(st.sampled_from(states))
                    delta = draw(st.integers(-max_step, max_step))
                    transitions[(state, symbol, status)] = ((target, delta, F(1)),)
    return CounterMachine(
        name="gen",
        mclass=MachineClass.D1CA,
        alphabet=alphabet,
        states=states,
        initial=draw(st.sampled_from(states)),
        accepting=frozenset(draw(st.sets(st.sampled_from(states)))),
        transitions=transitions,
        max_step=max_step,
    )


@settings(max_examples=80, deadline=None)
@given(det_machines())
def test_random_deterministic_machines_round_trip(machine):
    assert parse(emit(machine)) == machine
