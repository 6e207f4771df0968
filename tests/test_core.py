"""Machine model basics: statuses, classes, verdicts, validation, framing."""
import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ocalab
from helpers import F, L, R, mk, table
from ocalab import (
    AMP_ONE,
    SINK,
    Amplitude,
    CounterMachine,
    MachineClass,
    SimulationError,
    Verdict,
    Violation,
    mass_of,
    require_valid,
    status_of,
    tape_of,
    validate_machine,
)


def test_status_of_examples():
    assert status_of(0) == "Z"
    assert status_of(1) == "NZ"
    assert status_of(-7) == "NZ"


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_status_of_zero_iff(v):
    assert (status_of(v) == "Z") == (v == 0)


CLASS_TABLE = {
    "d1ca": (False, True, False, False, False),
    "d1bca": (True, True, False, False, False),
    "p1ca": (False, False, False, False, False),
    "p1bca": (True, False, False, False, False),
    "n1bca": (True, False, False, False, True),
    "u1bca": (True, False, False, False, True),
    "q1ca": (False, False, True, False, False),
    "lv-p1ca": (False, False, False, True, False),
    "lv-p1bca": (True, False, False, True, False),
}


def test_machine_class_properties():
    assert {mc.value for mc in MachineClass} == set(CLASS_TABLE)
    for tag, (blind, det, quantum, lv, modal) in CLASS_TABLE.items():
        mc = MachineClass.from_tag(tag)
        assert mc.tag == tag
        assert mc.blind is blind
        assert mc.deterministic is det
        assert mc.quantum is quantum
        assert mc.las_vegas is lv
        assert mc.modal is modal
        assert mc.probabilistic is (not det and not quantum)


def test_machine_class_unknown_tag():
    with pytest.raises(ValueError):
        MachineClass.from_tag("pushdown")


def test_verdict_accepts_exact_partitions():
    v = Verdict(F(1, 3), F(0), F(2, 3))
    assert v.accept + v.reject + v.neutral == 1
    assert Verdict(F(1), F(0)).neutral == 0


def test_verdict_rejects_bad_mass():
    with pytest.raises(TypeError):
        Verdict(0.5, 0.5)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        Verdict(F(-1, 3), F(4, 3))
    with pytest.raises(ValueError):
        Verdict(F(1, 2), F(1, 3))
    with pytest.raises(ValueError):
        Verdict(F(1), F(1))


def small_classical():
    return mk(
        "tiny",
        "p1ca",
        "a",
        ("s", "t"),
        "s",
        ("t",),
        [
            ("s", L, "*", [("s", 0, F(1))]),
            ("s", "a", "Z", [("s", 1, F(1, 2)), ("t", 0, F(1, 2))]),
            ("t", R, "*", [("t", 0, F(1))]),
        ],
    )


def test_entries_total_lookup():
    m = small_classical()
    assert m.entries("s", "a", "Z") == (("s", 1, F(1, 2)), ("t", 0, F(1, 2)))
    # missing keys and the sink both resolve to the weight-1 sink row
    assert m.entries("s", "a", "NZ") == ((SINK, 0, F(1)),)
    assert m.entries(SINK, "a", "Z") == ((SINK, 0, F(1)),)


def test_entries_sink_weight_is_quantum_for_quantum_machines():
    from helpers import quantum_sink_single

    m = quantum_sink_single()
    row = m.entries("q", "a", "Z")
    assert row == ((SINK, 0, AMP_ONE),)
    assert isinstance(row[0][2], Amplitude)


def test_tape_symbols_property():
    m = small_classical()
    assert m.tape_symbols == ("a", L, R)


def test_machine_equality_and_hash():
    a, b = small_classical(), small_classical()
    assert a == b
    assert hash(a) == hash(b)
    assert a != dataclasses.replace(b, name="other")
    assert a != dataclasses.replace(b, accepting=frozenset({"s"}))


def test_tape_of_frames_and_checks():
    assert tape_of("ab", "ab") == [L, "a", "b", R]
    assert tape_of([], "ab") == [L, R]
    assert tape_of(["a", "b"], ("a", "b")) == [L, "a", "b", R]
    with pytest.raises(SimulationError):
        tape_of("ax", "ab")
    with pytest.raises(SimulationError):
        tape_of(f"a{R}", "ab")


def test_mass_of_ignores_unknown_states():
    weights = {"q": F(1, 2), "r": F(1, 4), "s": F(1, 4)}
    assert mass_of(weights, frozenset({"q", "s"})) == F(3, 4)
    assert mass_of(weights, frozenset({"nope"})) == 0
    assert mass_of({}, frozenset({"q"})) == 0


def test_validate_clean_machine():
    assert validate_machine(small_classical()) == []


def codes(machine):
    return {v.code for v in validate_machine(machine)}


def test_validate_structural_violations():
    m = small_classical()
    assert "initial-unknown" in codes(dataclasses.replace(m, initial="ghost"))
    assert "accepting-unknown" in codes(
        dataclasses.replace(m, accepting=frozenset({"ghost"}))
    )
    assert "neutral-unknown" in codes(
        dataclasses.replace(
            m, mclass=MachineClass.LV_P1CA, neutral=frozenset({"ghost"})
        )
    )
    assert "neutral-class" in codes(dataclasses.replace(m, neutral=frozenset({"t"})))
    assert "neutral-overlap" in codes(
        dataclasses.replace(
            m, mclass=MachineClass.LV_P1CA, neutral=frozenset({"t"})
        )
    )
    assert "states-dup" in codes(dataclasses.replace(m, states=("s", "t", "s")))
    assert "states-sink" in codes(
        dataclasses.replace(m, states=("s", "t", SINK))
    )
    assert "alphabet-dup" in codes(dataclasses.replace(m, alphabet=("a", "a")))
    assert "alphabet-endmarker" in codes(dataclasses.replace(m, alphabet=("a", L)))
    assert "max-step" in codes(dataclasses.replace(m, max_step=0))
    assert "states-empty" in codes(
        dataclasses.replace(m, states=(), initial="s", transitions={})
    )


def test_validate_transition_violations():
    m = small_classical()

    def with_row(key, row):
        transitions = dict(m.transitions)
        transitions[key] = row
        return dataclasses.replace(m, transitions=transitions)

    assert "key-state" in codes(with_row(("ghost", "a", "Z"), (("s", 0, F(1)),)))
    assert "key-symbol" in codes(with_row(("s", "x", "Z"), (("s", 0, F(1)),)))
    assert "key-status" in codes(with_row(("s", "a", "??"), (("s", 0, F(1)),)))
    assert "row-empty" in codes(with_row(("t", "a", "Z"), ()))
    assert "target-state" in codes(with_row(("t", "a", "Z"), (("ghost", 0, F(1)),)))
    assert "delta-range" in codes(with_row(("t", "a", "Z"), (("t", 2, F(1)),)))
    assert "branch-dup" in codes(
        with_row(("t", "a", "Z"), (("t", 0, F(1, 2)), ("t", 0, F(1, 2))))
    )
    assert "prob-sum" in codes(
        with_row(("t", "a", "Z"), (("t", 0, F(1, 2)), ("s", 0, F(1, 3))))
    )
    assert "weight" in codes(with_row(("t", "a", "Z"), (("t", 0, AMP_ONE),)))
    assert "weight" in codes(with_row(("t", "a", "Z"), (("t", 0, F(3, 2)),)))


def test_validate_deterministic_discipline():
    branching = mk(
        "bad-det",
        "d1ca",
        "a",
        ("s",),
        "s",
        ("s",),
        [("s", "a", "Z", [("s", 0, F(1, 2)), ("s", 1, F(1, 2))])],
    )
    assert "det-branching" in codes(branching)
    weighted = mk(
        "bad-det2",
        "d1ca",
        "a",
        ("s",),
        "s",
        ("s",),
        [("s", "a", "Z", [("s", 0, F(1, 2))])],
    )
    assert "det-weight" in codes(weighted)


def test_validate_blind_status_discipline():
    transitions = table([("s", "a", "*", [("s", 1, F(1))])])
    transitions[("s", "b", "Z")] = (("s", 0, F(1)),)
    blind = CounterMachine(
        name="bad-blind",
        mclass=MachineClass.P1BCA,
        alphabet=("a", "b"),
        states=("s",),
        initial="s",
        accepting=frozenset({"s"}),
        transitions=transitions,
    )
    assert "blind-status" in codes(blind)


def test_violation_str_formats():
    bare = Violation("states-empty", "machine has no states")
    assert str(bare) == "[states-empty] machine has no states"
    keyed = Violation("weight", "bad", ("s", "a", "Z"))
    assert str(keyed) == "[weight] (s, a, Z): bad"


def test_require_valid_raises_with_name():
    broken = dataclasses.replace(small_classical(), initial="ghost")
    with pytest.raises(SimulationError, match="tiny"):
        require_valid(broken)
    require_valid(small_classical())


def test_a_fresh_import_lets_the_previous_one_go():
    # A module-level typing alias over an ocalab class (typing.Union,
    # typing.Callable) sits in typing's cache and would keep every earlier
    # import of the package alive, as the benchmark's repeated set-ups do.
    script = (
        "import gc, importlib, sys, weakref\n"
        "import ocalab.adversary\n"
        "old = [weakref.ref(ocalab.core.Verdict), weakref.ref(ocalab.amplitudes.Amplitude)]\n"
        "for name in [n for n in sys.modules if n.split('.')[0] == 'ocalab']:\n"
        "    del sys.modules[name]\n"
        "del ocalab\n"
        "importlib.import_module('ocalab.adversary')\n"
        "gc.collect()\n"
        "sys.exit(any(ref() is not None for ref in old))\n"
    )
    src = str(Path(ocalab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", script], env=env, timeout=60).returncode == 0


# The package's 78 public names, in the order of ``ocalab.__all__``.
PUBLIC_NAMES = """
    AMP_HALF AMP_INV_SQRT2 AMP_ONE AMP_ZERO Amplitude ClaimedBounds CounterMachine
    ENDMARKERS EngineError LEFT_END MachineClass MeasurementError NO NZ OUTSIDE
    ParseDiagnostic ParseError PromiseProblem RIGHT_END RunTrace SINK STATUSES
    SimulationError SourceSpan UnitarityReport Verdict Violation YES Z ZooEntry
    as_quantum build_eq3_p1bca build_eqstar_complement_d1ca build_eqstar_p1bca
    build_l_p1ca build_m1 build_m2 build_onenone_lv build_onenone_lv_t
    build_xoreq_q1ca check_unitarity classify_L classify_eq3 classify_eqstar
    classify_eqstar_complement classify_none classify_one classify_onenone_t
    classify_xoreq decide_mode emit evolve generate get_entry get_problem
    initial_distribution initial_vector list_entries list_problems mass_of measure
    norm_squared parse parse_file parse_with_diagnostics require_valid run
    run_quantum run_trace sample_run status_of step tape_of validate_machine
    verdict_of xoreq_blocks xoreq_word zoo_names
""".split()


def test_the_public_names_are_the_modules_lists():
    assert ocalab.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from ocalab import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC_NAMES
    owner = {}
    for module in (
        ocalab.amplitudes, ocalab.classical, ocalab.core, ocalab.dsl,
        ocalab.problems, ocalab.quantum, ocalab.zoo,
    ):
        for name in module.__all__:
            # A name in two lists would be bound by whichever star import came last.
            assert name not in owner, (name, owner.get(name), module.__name__)
            owner[name] = module.__name__
            assert getattr(ocalab, name) is getattr(module, name)
    assert sorted(owner) == PUBLIC_NAMES


def test_importing_the_package_leaves_the_adversary_and_cli_unloaded():
    script = "import sys, ocalab\nsys.exit('ocalab.adversary' in sys.modules or 'ocalab.cli' in sys.modules)\n"
    src = str(Path(ocalab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", script], env=env, timeout=60).returncode == 0
