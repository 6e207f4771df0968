"""Machine gallery: frozen behaviour probes and registry contracts."""
import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import F
from ocalab import (
    EngineError,
    MachineClass,
    as_quantum,
    build_l_p1ca,
    emit,
    build_m1,
    build_m2,
    build_onenone_lv_t,
    build_eqstar_p1bca,
    build_xoreq_q1ca,
    classify_xoreq,
    get_entry,
    get_problem,
    run,
    run_quantum,
    run_trace,
    validate_machine,
    xoreq_word,
    zoo_names,
)
from ocalab.adversary import bounds_rule, brute_refute
from reference import ref_build_l_p1ca

YES_WORD = xoreq_word(2, 2, 2, 4, 2, 0, 0, 0)
NO_WORD = xoreq_word(2, 2, 2, 2, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Registry contracts.
# ---------------------------------------------------------------------------


def test_zoo_names_frozen():
    assert zoo_names() == (
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


def test_every_entry_validates_cleanly():
    for name in zoo_names():
        entry = get_entry(name)
        assert validate_machine(entry.machine) == [], name
        assert entry.name == name
        assert entry.note
        assert get_problem(entry.problem).name == entry.problem


def test_entries_are_cached():
    assert get_entry("m1") is get_entry("m1")
    assert get_entry("eq-star-p1bca-k5") is get_entry("eq-star-p1bca-k5")


def test_parametric_names_resolve():
    k5 = get_entry("eq-star-p1bca-k5")
    assert k5.machine.max_step == 5
    t3 = get_entry("onenone-lv-t3")
    assert t3.machine.mclass is MachineClass.LV_P1CA
    with pytest.raises(ValueError, match="k must be in 2..9"):
        get_entry("eq-star-p1bca-k10")
    with pytest.raises(KeyError):
        get_entry("no-such-machine")


def test_claimed_bounds_frozen():
    expect = {
        "m1": (F(0), F(1), F(0)),
        "m2": (F(0), F(1), F(0)),
        "xoreq-q1ca": (F(1), F(0), F(0)),
        "onenone-lv": (F(1, 3), F(0), F(2, 3)),
        "onenone-lv-t2": (F(5, 9), F(0), F(4, 9)),
        "eq-star-p1bca-k3": (F(1), F(1, 3), F(0)),
        "eq3-p1bca-k4": (F(1), F(1, 4), F(0)),
        "eq-star-complement-d1ca": (F(1), F(0), F(0)),
        "lang-L-p1ca-k3": (F(1), F(1, 3), F(0)),
    }
    for name, (on_yes, on_no, dontknow) in expect.items():
        bounds = get_entry(name).claimed_bounds
        assert bounds.accept_on_yes_min == on_yes, name
        assert bounds.accept_on_no_max == on_no, name
        assert bounds.dontknow_max == dontknow, name


def test_state_counts_frozen():
    counts = {
        "m1": 16,
        "m2": 16,
        "xoreq-q1ca": 901,
        "onenone-lv": 21,
        "onenone-lv-t2": 21,
        "eq-star-p1bca-k3": 7,
        "eq3-p1bca-k4": 13,
        "eq-star-complement-d1ca": 5,
        "lang-L-p1ca-k3": 17,
    }
    for name, expected in counts.items():
        assert len(get_entry(name).machine.states) == expected, name


def test_readme_zoo_table_matches_the_registry():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = readme.read_text(encoding="utf-8").splitlines()
    for name in zoo_names():
        entry = get_entry(name)
        bounds = entry.claimed_bounds
        row = (
            f"| `{name}` | `{entry.machine.mclass.tag}` | `{entry.problem}` | "
            f"{bounds.accept_on_yes_min} / {bounds.accept_on_no_max} / {bounds.dontknow_max} "
        )
        [line] = [line for line in rows if line.startswith(row)]
        domain = "" if bounds.max_n is None else f"for n ≤ {bounds.max_n} "
        assert line.startswith(row + domain), line
        assert domain or not line[len(row):].startswith("for n"), line


def test_readme_class_table_lists_every_class():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = readme.read_text(encoding="utf-8").splitlines()
    for mclass in MachineClass:
        assert any(line.startswith(f"| `{mclass.tag}` ") for line in rows), mclass.tag


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: build_m1(), "5f1ef247219606dc45a4da743ca4f4cff8499a36f4ad3ca9f876d1138ea073be"),
        (lambda: build_m2(), "aa38b953e4867565d3a20184d81b5615453a06e6422222140e43926411dcb6af"),
        (lambda: build_m1(primed=True),
         "d8605e1a6865d17c93f7e88f90dc6c26ff5d420757233553c681286c8adfdcf6"),
        (lambda: build_m2(primed=True),
         "1f0ee9767dc46e4777613b74eb4d7c7558fb3a4cc61d08e1ef3bb3ed9e78db7b"),
        (lambda: build_xoreq_q1ca(3),
         "a02f40de0bbf5a65578bb77c44e416f63a786fb3c35a09ee44f47e0ee74bb32f"),
        (lambda: build_xoreq_q1ca(5),
         "17bd9f8d51318bd8d17207787c69628ed87b3bb1efa8c41c166c0fea33fd360f"),
        (lambda: build_xoreq_q1ca(7),
         "a2282229f9a6f9f17ff729de345da91c6a2e8401e674d54e3c5ad541cb375e00"),
        (lambda: get_entry("onenone-lv").machine,
         "831c37b7110bce0128c74111337f30cda197671edd90cce64e83cc207651c872"),
    ],
)
def test_emitted_tables_frozen(build, digest):
    assert hashlib.sha256(emit(build()).encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("t", [1, 2, 3, 25])
def test_shortest_onenone_instance_has_8t_letters(t):
    problem = get_problem(f"one-none-t{t}")
    assert next(problem.instances(8 * t - 1), None) is None
    word, _label = next(problem.instances(8 * t))
    assert len(word) == 8 * t


def test_family_parameters_are_bounded_and_canonical():
    assert get_entry("onenone-lv-t25").problem == "one-none-t25"
    with pytest.raises(ValueError, match=r"t must be in 1\.\.25"):
        get_entry("onenone-lv-t26")
    with pytest.raises(ValueError, match=r"t must be in 1\.\.25"):
        build_onenone_lv_t(10**9)
    for name in ("eq-star-p1bca-k03", "onenone-lv-t007", "lang-L-p1ca-k03"):
        with pytest.raises(KeyError, match="unknown zoo name"):
            get_entry(name)
    for name in ("one-none-t26", "one-none-t1000000", "one-none-t01"):
        with pytest.raises(EngineError, match="unknown problem"):
            get_problem(name)


@pytest.mark.parametrize("k", range(2, 10))
def test_lang_L_is_composed_from_its_components(k):
    machine = build_l_p1ca(k)
    reference = ref_build_l_p1ca(k)
    assert machine == reference
    assert emit(machine) == emit(reference)


# ---------------------------------------------------------------------------
# The deterministic pair m1 / m2.
# ---------------------------------------------------------------------------


def test_m1_m2_disagree_on_the_yes_word(m1, m2):
    trace1 = run_trace(m1, YES_WORD)
    assert trace1.final == {("q8", -2): F(1)}
    assert trace1.verdict.accept == 1

    trace2 = run_trace(m2, YES_WORD)
    assert trace2.final == {("p8", -2): F(1)}
    assert trace2.verdict.accept == 0


def test_m1_m2_final_counters_agree_on_promise(m1, m2):
    for word in (YES_WORD, NO_WORD):
        (_, c1), = run_trace(m1, word).final
        (_, c2), = run_trace(m2, word).final
        assert c1 == c2, word


def test_m1_and_m2_both_misclassify_the_no_word(m1, m2):
    # a deterministic counter machine cannot get every promise word right;
    # both machines wrongly accept this 'no' instance
    assert classify_xoreq(NO_WORD) == "no"
    trace = run_trace(m1, NO_WORD)
    assert trace.final == {("q8", 0): F(1)}
    assert trace.verdict.accept == 1
    assert run(m2, NO_WORD).accept == 1


def test_primed_variants(m1, m2):
    m1p = build_m1(primed=True)
    assert m1p.name == "m1-primed"
    assert m1p.initial == "p1"
    (state1, counter1), = run_trace(m1p, YES_WORD).final
    assert (state1, counter1) == ("p8", 2)

    m2p = build_m2(primed=True)
    assert m2p.name == "m2-primed"
    (state2, counter2), = run_trace(m2p, YES_WORD).final
    assert (state2, counter2) == ("q8", -2)

    assert build_m1() == m1
    assert build_m2() == m2


def test_as_quantum_wraps_deterministic_machines(m1, onenone):
    q = as_quantum(m1)
    assert q.name == "m1-q"
    assert q.mclass is MachineClass.Q1CA
    assert validate_machine(q) == []
    for word in (YES_WORD, NO_WORD, "00#"):
        assert run_quantum(q, word).accept == run(m1, word).accept
    with pytest.raises(EngineError):
        as_quantum(onenone)


# ---------------------------------------------------------------------------
# The exact quantum machine for the XOR problem.
# ---------------------------------------------------------------------------


def test_xoreq_quantum_frozen_words(xoreq):
    assert run_quantum(xoreq, YES_WORD).accept == 1
    assert run_quantum(xoreq, NO_WORD).accept == 0


def test_xoreq_modulus_variant():
    word = xoreq_word(2, 4, 8, 4, 6, 0, 0, 0)
    assert classify_xoreq(word) == "yes"
    mod5 = build_xoreq_q1ca()
    assert run_quantum(mod5, word).accept == 1

    mod3 = build_xoreq_q1ca(modulus=3)
    assert mod3.name == "xoreq-q1ca-mod3"
    assert len(mod3.states) == 325
    # counter differences 6 = 2*3 alias to zero mod 3: half the mass comes home
    assert run_quantum(mod3, word).accept == F(1, 2)


def test_xoreq_claim_ends_at_n_11(xoreq):
    # Blocks are compared mod 5, so compared blocks 2 and 12 alias: the
    # claimed 1/0/0 fails on this no-instance, the first one at n = 12.
    witness = "00#00#0000#000000000000##0000#0000#"
    assert classify_xoreq(witness) == "no"
    assert run_quantum(xoreq, witness).accept == F(1, 2)


def test_xoreq_modulus_validation():
    for bad in (0, 1, 4, -5):
        with pytest.raises(ValueError):
            build_xoreq_q1ca(modulus=bad)


@pytest.mark.parametrize("m", [3, 7])
def test_xoreq_mod_claim_holds_exactly_on_its_domain(m):
    entry = get_entry(f"xoreq-q1ca-mod{m}")
    assert (entry.problem, entry.claimed_bounds.max_n) == ("xor-eq", 2 * m + 1)
    assert validate_machine(entry.machine) == []
    rule = bounds_rule(entry.claimed_bounds)
    assert brute_refute(entry.machine, entry.problem, 2 * m + 1, rule) is None
    assert brute_refute(entry.machine, entry.problem, 2 * m + 2, rule) is not None


def test_xoreq_mod13_claim_holds_at_n_16():
    entry = get_entry("xoreq-q1ca-mod13")
    assert entry.claimed_bounds.max_n == 27
    assert brute_refute(entry.machine, entry.problem, 16, bounds_rule(entry.claimed_bounds)) is None


def test_xoreq_mod_family_is_odd_and_bounded():
    for m in (0, 1, 4, 12):
        with pytest.raises(ValueError, match="modulus must be odd and >= 3"):
            get_entry(f"xoreq-q1ca-mod{m}")
    for m in (14, 15, 10**9):
        with pytest.raises(ValueError, match="modulus must be at most 13"):
            get_entry(f"xoreq-q1ca-mod{m}")
    with pytest.raises(KeyError, match="unknown zoo name"):
        get_entry("xoreq-q1ca-mod03")
    assert "xoreq-q1ca-mod3" not in zoo_names()


# ---------------------------------------------------------------------------
# Las Vegas ONE/NONE machines.
# ---------------------------------------------------------------------------


def test_onenone_lv_frozen_verdicts(onenone):
    yes = run(onenone, "adaabddd")
    assert (yes.accept, yes.reject, yes.neutral) == (F(1, 3), F(0), F(2, 3))
    no = run(onenone, "aabdddad")
    assert (no.accept, no.reject, no.neutral) == (F(0), F(1, 3), F(2, 3))


def test_onenone_lv_t2_and_t3():
    t2 = get_entry("onenone-lv-t2").machine
    yes = run(t2, "adaabdddadaabddd")
    assert (yes.accept, yes.neutral) == (F(5, 9), F(4, 9))

    t3 = build_onenone_lv_t(3)
    yes3 = run(t3, "adaabddd" * 3)
    assert (yes3.accept, yes3.neutral) == (F(19, 27), F(8, 27))

    assert build_onenone_lv_t(1).name == "onenone-lv"
    with pytest.raises(ValueError):
        build_onenone_lv_t(0)


# ---------------------------------------------------------------------------
# Cutpoint machines for the equality languages.
# ---------------------------------------------------------------------------


def test_eqstar_p1bca_frozen_values(eqstar_k3):
    assert run(eqstar_k3, "").accept == 1
    assert run(eqstar_k3, "aabb").accept == 1
    assert run(eqstar_k3, "ab").accept == 1
    assert run(eqstar_k3, "abbaab").accept == F(1, 3)
    assert run(eqstar_k3, "ba").accept == 0
    assert run(eqstar_k3, "aab").accept == 0
    assert eqstar_k3.max_step == 3


def test_eqstar_p1bca_k_parameter():
    for k in (2, 5, 9):
        machine = build_eqstar_p1bca(k)
        assert machine.max_step == k
        assert run(machine, "abbaab").accept == F(1, k)
        assert validate_machine(machine) == []
    for bad in (1, 10, 0, -2):
        with pytest.raises(ValueError):
            build_eqstar_p1bca(bad)


def test_eq3_p1bca_frozen_values(eq3_k4):
    assert run(eq3_k4, "").accept == 1
    assert run(eq3_k4, "cde").accept == 1
    assert run(eq3_k4, "cdde").accept == F(1, 4)
    assert run(eq3_k4, "ccde").accept == 0
    assert eq3_k4.max_step == 4


def test_complement_d1ca_frozen_values(complement):
    assert run(complement, "ab").accept == 0
    assert run(complement, "ba").accept == 1
    assert run(complement, "aab").accept == 1
    assert run(complement, "").accept == 0
    assert complement.mclass is MachineClass.D1CA


def test_lang_L_frozen_values(lang_l_k3):
    assert run(lang_l_k3, "").accept == 1
    assert run(lang_l_k3, "ab").accept == 0
    assert run(lang_l_k3, "aab").accept == 1
    assert run(lang_l_k3, "ba").accept == 1
    assert run(lang_l_k3, "cde").accept == 1
    assert run(lang_l_k3, "cdde").accept == F(1, 3)
    assert run(lang_l_k3, "ccde").accept == 0
    assert run(lang_l_k3, "abb").accept == 1
