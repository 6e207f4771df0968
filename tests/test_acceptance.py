"""Acceptance suite: one test per claimed behaviour, full stated bounds.

Each test prints a ``criterion NN PASS`` line on success (visible with
``pytest -s``); the test names double as the pass/fail report under
``pytest -v``.  Exhaustive scans use a prefix-tree walk that shares work
between words with a common prefix and skips subtrees only once the whole
distribution has collapsed into the absorbing sink (the skip is justified
inside the scanner by explicit structural checks).
"""
import dataclasses
import re
import time
from fractions import Fraction

import pytest

from helpers import (
    F,
    det_blockb,
    det_const,
    det_count0,
    det_parity,
    u_accept_all,
    u_branchy,
    u_reject_all,
    u_updown,
)
from ocalab import (
    AMP_ONE,
    LEFT_END,
    RIGHT_END,
    SINK,
    Amplitude,
    as_quantum,
    build_eq3_p1bca,
    build_eqstar_p1bca,
    build_m1,
    build_m2,
    build_onenone_lv_t,
    classify_eq3,
    classify_eqstar,
    classify_xoreq,
    emit,
    generate,
    get_entry,
    get_problem,
    initial_distribution,
    parse,
    run,
    run_quantum,
    sample_run,
    step,
    verdict_of,
    zoo_names,
)
from ocalab.adversary import (
    bounds_rule,
    brute_refute,
    exact_rule,
    fool_xoreq_d1ca,
    pump_u1bca,
)
from ocalab.cli import EXIT_OK, main
from ocalab.kernel import run_many
from ocalab.quantum import check_unitarity


def report(number, message):
    print(f"criterion {number:02d} PASS: {message}")


# ---------------------------------------------------------------------------
# Exhaustive prefix-tree scanning with sink-aware subtree skipping.
# ---------------------------------------------------------------------------


def words_up_to(alpha, length):
    """Number of strings over an alpha-letter alphabet with length <= length."""
    return sum(alpha**n for n in range(length + 1))


def scan_all_words(machine, letters, bound, viable_upto, check):
    """Run ``check(word, verdict)`` for every word over ``letters`` up to ``bound``.

    Subtrees are skipped only when the machine's whole distribution sits in
    the absorbing sink: then every extension keeps verdict accept=0, and the
    ``viable_upto`` oracle must certify that no extension within the bound is
    a member (so the skipped words trivially satisfy a <=-style bound and
    cannot be members that would require acceptance).  A word count at the
    end proves full coverage.
    """
    one = AMP_ONE if machine.mclass.quantum else F(1)
    assert SINK not in machine.accepting
    assert SINK not in machine.neutral
    for symbol in machine.tape_symbols:
        for status in ("Z", "NZ"):
            assert machine.entries(SINK, symbol, status) == ((SINK, 0, one),)

    covered = 0

    def visit(prefix, dist):
        nonlocal covered
        covered += 1
        check(prefix, verdict_of(machine, step(machine, dist, RIGHT_END)))
        if len(prefix) == bound:
            return
        for letter in letters:
            child = step(machine, dist, letter)
            if all(state == SINK for state, _ in child):
                assert not viable_upto(prefix + letter, bound)
                covered += words_up_to(len(letters), bound - len(prefix) - 1)
            else:
                visit(prefix + letter, child)

    visit("", step(machine, initial_distribution(machine), LEFT_END))
    assert covered == words_up_to(len(letters), bound)


def eqstar_viable_upto(prefix, bound):
    """Is some extension of ``prefix`` within ``bound`` a member of (a^n b^n)*?"""
    pos, n = 0, len(prefix)
    while pos < n:
        a_run = 0
        while pos < n and prefix[pos] == "a":
            a_run += 1
            pos += 1
        if a_run == 0:
            return False
        b_run = 0
        while pos < n and prefix[pos] == "b":
            b_run += 1
            pos += 1
        if b_run > a_run:
            return False
        if pos == n:
            need = a_run - b_run if b_run else a_run
            return n + need <= bound
        if b_run != a_run:
            return False  # the next a-run seals this block, so it must balance
    return n <= bound


_EQ3_SHAPE = re.compile(r"(c*)(d*)(e*)")


def eq3_viable_upto(prefix, bound):
    """Is some extension of ``prefix`` within ``bound`` of the form c^n d^n e^n?"""
    match = _EQ3_SHAPE.fullmatch(prefix)
    if not match:
        return False
    i, j, l = (len(g) for g in match.groups())
    if l > 0:
        return i == j and l <= i and 3 * i <= bound
    if j > 0:
        return j <= i and 3 * i <= bound
    return 3 * i <= bound


def test_viability_oracles_match_brute_force():
    words = [w for w, _ in generate("eq-star", 8)]
    members = [w for w in words if classify_eqstar(w)]
    for prefix in words:
        truth = any(m.startswith(prefix) for m in members)
        assert eqstar_viable_upto(prefix, 8) == truth, prefix

    words3 = [w for w, _ in generate("eq3", 9)]
    members3 = [w for w, label in generate("eq3", 9) if label == "yes"]
    for prefix in words3:
        truth = any(m.startswith(prefix) for m in members3)
        assert eq3_viable_upto(prefix, 9) == truth, prefix


# ---------------------------------------------------------------------------
# Shared exhaustive batches for the Las Vegas machines.
# ---------------------------------------------------------------------------

ONENONE_BOUND = {1: 16, 2: 20, 3: 24}
ONENONE_COUNTS = {1: (6048, 3024), 2: (93312, 46656), 3: (11664, 5832)}


@pytest.fixture(scope="module")
def onenone_batches():
    batches = {}
    for t, bound in ONENONE_BOUND.items():
        machine = build_onenone_lv_t(t)
        batches[t] = [
            (word, label, run(machine, word))
            for word, label in generate(f"one-none-t{t}", bound)
        ]
    return batches


# ---------------------------------------------------------------------------
# Criteria.
# ---------------------------------------------------------------------------


def test_criterion_01_quantum_xor_exactness(xoreq):
    started = time.monotonic()
    instances = generate("xor-eq", 6)
    yes = no = 0
    for word, label in instances:
        verdict = run_quantum(xoreq, word)
        if label == "yes":
            yes += 1
            assert verdict.accept == 1, word
        else:
            no += 1
            assert verdict.accept == 0, word
        assert verdict.neutral == 0
    elapsed = time.monotonic() - started
    assert (len(instances), yes, no) == (4573, 2052, 2521)
    assert elapsed < 60.0
    report(1, f"exact 1/0 acceptance on all {yes}+{no} instances in {elapsed:.1f}s")


def test_criterion_02_unitarity_check_and_perturbation(xoreq):
    clean = check_unitarity(xoreq)
    assert clean.ok
    assert clean.isometry_violations == ()
    assert clean.coisometry_violations == ()

    key = (xoreq.initial, LEFT_END, "Z")
    target, delta, amp = xoreq.transitions[key][0]
    transitions = dict(xoreq.transitions)
    transitions[key] = ((target, delta, amp * F(1, 2)),) + xoreq.transitions[key][1:]
    perturbed = dataclasses.replace(xoreq, transitions=transitions)

    broken = check_unitarity(perturbed)
    assert not broken.ok
    symbols = {pair[0] for pair in broken.isometry_violations}
    assert symbols == {LEFT_END}
    diagonal = (LEFT_END, (xoreq.initial, 0), (xoreq.initial, 0), Amplitude(F(13, 16)))
    assert diagonal in broken.isometry_violations
    codes = {v.code for v in broken.as_violations()}
    assert codes == {"unitary-isometry", "unitary-coisometry"}
    report(2, "registry machine unitary on every symbol; perturbation flagged")


def test_criterion_03_las_vegas_exact_bounds(onenone_batches):
    for t, batch in onenone_batches.items():
        p = 1 - F(2, 3) ** t
        total, expected_yes = ONENONE_COUNTS[t]
        assert len(batch) == total
        seen_yes = 0
        for word, label, verdict in batch:
            if label == "yes":
                seen_yes += 1
                assert (verdict.accept, verdict.reject) == (p, F(0)), word
            else:
                assert (verdict.accept, verdict.reject) == (F(0), p), word
            assert verdict.neutral == 1 - p
        assert seen_yes == expected_yes
    report(3, "success probability exactly 1-(2/3)^t for t=1,2,3, zero error mass")


def test_criterion_04_las_vegas_soundness(onenone_batches):
    checked = 0
    for batch in onenone_batches.values():
        for word, label, verdict in batch:
            assert verdict.accept * verdict.reject == 0, word
            checked += 1
    assert checked == sum(total for total, _ in ONENONE_COUNTS.values())
    report(4, f"accept*reject == 0 on all {checked} instances")


def test_criterion_05_eqstar_one_sided_error():
    for k in (2, 3, 5):
        machine = build_eqstar_p1bca(k)
        bound_hits = [0]

        def check(word, verdict, k=k, bound_hits=bound_hits):
            if classify_eqstar(word):
                assert verdict.accept == 1, word
            else:
                assert verdict.accept <= F(1, k), word
                if verdict.accept == F(1, k):
                    bound_hits[0] += 1

        scan_all_words(machine, "ab", 14, eqstar_viable_upto, check)
        assert run(machine, "abbaab").accept == F(1, k)
        assert bound_hits[0] > 0
    report(5, "members accept=1, non-members <=1/k over all |w|<=14, k=2,3,5")


def test_criterion_06_eq3_one_sided_error():
    for k in (2, 4, 8):
        machine = build_eq3_p1bca(k)

        def check(word, verdict, k=k):
            if classify_eq3(word):
                assert verdict.accept == 1, word
            else:
                assert verdict.accept <= F(1, k), word

        scan_all_words(machine, "cde", 12, eq3_viable_upto, check)
        assert run(machine, "cdde").accept == F(1, k)
    report(6, "triple-equality members accept=1, others <=1/k over all |w|<=12")


def test_criterion_07_composite_language_cutpoint(lang_l_k3):
    half = F(1, 2)
    instances = generate("lang-L", 10)
    for word, label in instances:
        verdict = run(lang_l_k3, word)
        assert (verdict.accept > half) == (label == "yes"), word
    assert run(lang_l_k3, "cdde").accept == F(1, 3)
    report(7, f"cutpoint-1/2 agreement with the oracle on {len(instances)} words")


def test_criterion_08_fooling_pairs_for_deterministic_machines(m1):
    machines = [det_const(), det_count0(), det_parity(), det_blockb(), m1]
    assert len(machines) >= 5
    cases = set()
    for machine in machines:
        pair = fool_xoreq_d1ca(machine)
        cases.add(pair.case)
        assert classify_xoreq(pair.word_yes) == "yes"
        assert classify_xoreq(pair.word_no) == "no"
        verdict_yes = run(machine, pair.word_yes)
        verdict_no = run(machine, pair.word_no)
        assert verdict_yes == verdict_no
        assert (verdict_yes.accept == 1) is pair.machine_accepts
    assert cases == {"a differs", "a equal"}
    report(8, f"verified fooling pairs for {len(machines)} machines, both cases")


def test_criterion_09_pump_refutations_for_universal_machines():
    machines = [u_accept_all(), u_updown(), u_branchy(), u_reject_all()]
    assert len(machines) >= 3
    kinds = set()
    for machine in machines:
        refutation = pump_u1bca(machine)
        kinds.add(refutation.kind)
        if refutation.kind == "accepts-member":
            assert classify_eqstar(refutation.witness_word)
            assert run(machine, refutation.witness_word).accept == 1
        else:
            assert refutation.kind == "pumped-reject"
            assert not classify_eqstar(refutation.witness_word)
            assert run(machine, refutation.witness_word).accept < 1
    assert kinds == {"accepts-member", "pumped-reject"}
    report(9, f"verified refutations for {len(machines)} machines, both kinds")


def test_criterion_10_engine_cross_checks():
    machines = [build_m1(), build_m2(), build_m1(primed=True), build_m2(primed=True)]
    sample = generate("xor-eq", 4)
    for machine in machines:
        quantum = as_quantum(machine)
        for word, _ in sample:
            assert run(machine, word).accept == run_quantum(quantum, word).accept

    machine = get_entry("onenone-lv").machine
    seeds = range(100_000)
    third = 1 / 3
    yes_counts = {"accept": 0, "reject": 0, "dontknow": 0}
    for seed in seeds:
        yes_counts[sample_run(machine, "adaabddd", seed=seed)] += 1
    assert yes_counts["reject"] == 0
    assert abs(yes_counts["accept"] / len(seeds) - third) <= 0.01

    no_counts = {"accept": 0, "reject": 0, "dontknow": 0}
    for seed in seeds:
        no_counts[sample_run(machine, "aabdddad", seed=seed)] += 1
    assert no_counts["accept"] == 0
    assert abs(no_counts["reject"] / len(seeds) - third) <= 0.01
    report(
        10,
        "engines agree on {} words x4 machines; 1e5-seed frequencies within 0.01".format(
            len(sample)
        ),
    )


def test_criterion_11_round_trip_and_validate(tmp_path, capsys):
    for name in zoo_names():
        machine = get_entry(name).machine
        text = emit(machine)
        assert parse(text) == machine, name
        path = tmp_path / f"{name}.cma"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_OK, name
        assert capsys.readouterr().out == "OK\n"
    report(11, f"parse(emit(m)) == m and validate exit 0 for all {len(zoo_names())}")


BRUTE_BOUNDS = {
    "m1": 6,
    "m2": 6,
    "xoreq-q1ca": 6,
    "onenone-lv": 16,
    "onenone-lv-t2": 20,
    "eq-star-p1bca-k3": 14,
    "eq3-p1bca-k4": 12,
    "eq-star-complement-d1ca": 14,
    "lang-L-p1ca-k3": 10,
}


def test_criterion_12_brute_refutation_sweep(m1):
    for name in zoo_names():
        entry = get_entry(name)
        rule = bounds_rule(
            entry.claimed_bounds, las_vegas=entry.machine.mclass.las_vegas
        )
        result = brute_refute(entry.machine, entry.problem, BRUTE_BOUNDS[name], rule)
        assert result is None, (name, result)

    refutation = brute_refute(m1, "xor-eq", 6, rule=exact_rule())
    assert refutation is not None
    assert refutation.word == "00#00#00#00####"
    assert refutation.label == "no"
    assert refutation.reason == "expected accept=0 on a no-instance, got 1"
    report(12, "no zoo machine refuted at its claimed bounds; m1 refuted exactly")


def test_eq_star_complement_claim_at_its_ceiling_carries_over_to_lang_l(complement, lang_l_k3):
    entry = get_entry("eq-star-complement-d1ca")
    problem = get_problem(entry.problem)
    assert problem.ceiling == 16
    assert brute_refute(complement, entry.problem, problem.ceiling, bounds_rule(entry.claimed_bounds)) is None

    # lang-L's {a,b} side is the d1ca renamed: the same verdict on every
    # nonempty {a,b} word up to 16.  The empty word is in L (it is in eq3).
    words = [word for word, _ in problem.instances(problem.ceiling)]
    assert len(words) == 2**17 - 1 and words[0] == ""
    ours, theirs = list(run_many(lang_l_k3, words)), list(run_many(complement, words))
    assert (ours[0].accept, theirs[0].accept) == (1, 0)
    assert ours[1:] == theirs[1:]
