"""The compiled integer kernel against the direct Fraction/Amplitude reference."""
import copy
import dataclasses
import functools
import importlib
import inspect
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ocalab.classical
import ocalab.quantum
from helpers import F, H, L, R, hadamard2, hadamard2_broken, mk
from ocalab import (
    AMP_HALF,
    AMP_INV_SQRT2,
    AMP_ONE,
    AMP_ZERO,
    Amplitude,
    MachineClass,
    MeasurementError,
    SimulationError,
    Verdict,
    build_m1,
    build_xoreq_q1ca,
    check_unitarity,
    classify_xoreq,
    evolve,
    generate,
    get_entry,
    initial_distribution,
    initial_vector,
    measure,
    run,
    run_quantum,
    run_trace,
    sample_run,
    step,
    tape_of,
    validate_machine,
    verdict_of,
    xoreq_word,
    zoo_names,
)
from ocalab.kernel import _jump, advance, advance_runs, compiled, flat, propagate, read, run_many, run_word
from reference import (
    ref_check_unitarity,
    ref_distributions,
    ref_gen_onenone,
    ref_gen_xoreq,
    ref_measure,
    ref_run,
    ref_run_quantum,
    ref_sample_run,
    ref_vectors,
    ref_verdict_of,
)

AMPLITUDES = (
    AMP_ONE,
    -AMP_ONE,
    AMP_HALF,
    -AMP_HALF,
    AMP_INV_SQRT2,
    -AMP_INV_SQRT2,
    Amplitude(0, 0, 1),
    Amplitude(0, 0, 0, F(1, 2)),
    AMP_ZERO,
)


@st.composite
def small_machines(draw, classes=tuple(MachineClass), steps=2):
    """Random small machines of the given classes (every class by
    default) with counter steps up to ``steps``, well typed but not
    unitary."""
    mclass = draw(st.sampled_from(classes))
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    alphabet = draw(st.sampled_from(["a", "ab"]))
    max_step = draw(st.integers(1, steps))
    target = st.sampled_from(states)
    delta = st.integers(-max_step, max_step)

    def branches():
        if mclass.deterministic:
            return [(draw(target), draw(delta), F(1))]
        count = draw(st.integers(1, 3))
        if mclass.quantum:
            return [
                (draw(target), draw(delta), draw(st.sampled_from(AMPLITUDES)))
                for _ in range(count)
            ]
        weights = [draw(st.integers(1, 4)) for _ in range(count)]
        return [(draw(target), draw(delta), F(w, sum(weights))) for w in weights]

    rows = []
    for state in states:
        for symbol in [*alphabet, L, R]:
            statuses = draw(
                st.sampled_from([("*",), ()] if mclass.blind else [("*",), ("Z", "NZ"), ("Z",), ()])
            )
            for status in statuses:
                rows.append((state, symbol, status, branches()))
    accepting = draw(st.sets(st.sampled_from(states)))
    neutral = ()
    if mclass.las_vegas:
        neutral = draw(st.sets(st.sampled_from([s for s in states if s not in accepting] or states)))
        neutral = set(neutral) - accepting
    return mk(
        "random", mclass.tag, alphabet, states, states[0], accepting, rows,
        neutral=neutral, max_step=max_step,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MeasurementError as exc:
        return ("MeasurementError", str(exc))


@settings(max_examples=200, deadline=None)
@given(small_machines(), st.data())
def test_kernel_matches_reference_on_random_machines(machine, data):
    word = data.draw(st.text(alphabet=machine.alphabet, max_size=7))
    tape = tape_of(word, machine.alphabet)
    if machine.mclass.quantum:
        expected = ref_vectors(machine, word)
        psi = initial_vector(machine)
        for symbol, want in zip(tape, expected):
            psi = evolve(machine, psi, symbol)
            assert psi == want
        assert _outcome(run_quantum, machine, word) == _outcome(ref_run_quantum, machine, word)
        assert _outcome(measure, machine, psi) == _outcome(ref_measure, machine, psi)
        assert check_unitarity(machine) == ref_check_unitarity(machine)
    else:
        expected = ref_distributions(machine, word)
        trace = run_trace(machine, word, keep_distributions=True)
        assert trace.distributions == tuple(expected)
        assert trace.final == expected[-1]
        dist = initial_distribution(machine)
        for symbol, want in zip(tape, expected):
            dist = step(machine, dist, symbol)
            assert dist == want
        verdict = ref_run(machine, word)
        assert run(machine, word) == verdict == trace.verdict
        assert verdict_of(machine, dist) == ref_verdict_of(machine, dist)
        for seed in range(3):
            assert sample_run(machine, word, seed) == ref_sample_run(machine, word, seed)
    assert _outcome(run_word, machine, word) == (
        _outcome(ref_run_quantum, machine, word)
        if machine.mclass.quantum
        else ref_run(machine, word)
    )


# Every zoo machine on a slice of its own problem's grid.
ZOO_GRIDS = {
    "m1": (4, 1),
    "m2": (4, 1),
    "xoreq-q1ca": (4, 7),
    "onenone-lv": (10, 1),
    "onenone-lv-t2": (16, 5),
    "eq-star-p1bca-k3": (8, 1),
    "eq3-p1bca-k4": (6, 1),
    "eq-star-complement-d1ca": (8, 1),
    "lang-L-p1ca-k3": (6, 1),
}


@pytest.mark.parametrize("name", zoo_names())
def test_kernel_matches_reference_on_zoo_grids(name):
    entry = get_entry(name)
    bound, stride = ZOO_GRIDS[name]
    reference = ref_run_quantum if entry.machine.mclass.quantum else ref_run
    instances = generate(entry.problem, bound)[::stride]
    assert instances
    for word, _label in instances:
        assert run_word(entry.machine, word) == reference(entry.machine, word), word


def test_unitarity_reports_match_reference_on_xoreq():
    machine = get_entry("xoreq-q1ca").machine
    assert check_unitarity(machine) == ref_check_unitarity(machine)
    key = (machine.initial, L, "Z")
    row = machine.transitions[key]
    transitions = dict(machine.transitions)
    transitions[key] = ((row[0][0], row[0][1], row[0][2] * F(1, 2)),) + row[1:]
    perturbed = dataclasses.replace(machine, transitions=transitions)
    report = check_unitarity(perturbed)
    assert not report.ok
    assert report == ref_check_unitarity(perturbed)


def _two_state_q1ca(name, a_rows):
    """A q1ca on states q, r over {a}: every state stays put on the
    endmarkers, and ``a_rows`` give the rows on 'a'."""
    ends = [(q, end, "*", [(q, 0, AMP_ONE)]) for q in ("q", "r") for end in (L, R)]
    return mk(name, "q1ca", "a", ("q", "r"), "q", ("q",), ends + a_rows)


@pytest.mark.parametrize(
    "name, a_rows, violation",
    [
        # A single-branch column of modulus 1/2 on a target no other column
        # reaches: its own norm is the violation, in both directions.
        (
            "half",
            [("q", "a", "*", [("q", 1, AMP_HALF)]), ("r", "a", "*", [("r", -1, AMP_ONE)])],
            ("a", ("q", 0), ("q", 0), Amplitude(F(1, 4))),
        ),
        # Two single-branch columns on one target are not orthogonal.
        (
            "shared",
            [("q", "a", "*", [("r", 1, AMP_ONE)]), ("r", "a", "*", [("r", 1, AMP_ONE)])],
            ("a", ("q", 0), ("r", 0), AMP_ONE),
        ),
        # A single-branch column whose target a two-branch column reaches too.
        (
            "mixed",
            [
                ("q", "a", "*", [("q", 0, AMP_INV_SQRT2), ("r", 0, AMP_INV_SQRT2)]),
                ("r", "a", "*", [("r", 0, AMP_ONE)]),
            ],
            ("a", ("q", 0), ("r", 0), AMP_INV_SQRT2),
        ),
    ],
)
def test_single_branch_columns_match_reference(name, a_rows, violation):
    machine = _two_state_q1ca(name, a_rows)
    report = check_unitarity(machine)
    assert violation in report.isometry_violations
    assert report == ref_check_unitarity(machine)


def test_long_quantum_run_keeps_a_small_denominator():
    # a == c and b != d: a yes-instance with blocks far longer than the grid's.
    word = xoreq_word(60, 40, 60, 46, 0, 2, 8, 0)
    assert classify_xoreq(word) == "yes"
    machine = get_entry("xoreq-q1ca").machine
    kernel = compiled(machine)
    _, den = propagate(kernel, tape_of(word, machine.alphabet))
    assert den == 2
    assert run_quantum(machine, word) == ref_run_quantum(machine, word)
    assert run_quantum(machine, word).accept == 1


def test_gcd_rescale_undoes_sqrt2_growth():
    # Each 'a' multiplies by 1/sqrt2; without the gcd rescale D would double
    # every step and reach 2**40.
    machine = hadamard2()
    word = "a" * 40
    kernel = compiled(machine)
    dist, den = propagate(kernel, tape_of(word, machine.alphabet))
    assert den == 1 and dist == {kernel.initial: (1, 0, 0, 0)}
    assert run_quantum(machine, word + "a") == ref_run_quantum(machine, word + "a")


def test_measurement_errors_match_reference():
    machine = hadamard2()
    short = {("q", 0): AMP_HALF}
    with pytest.raises(MeasurementError, match="norm") as got:
        measure(machine, short)
    with pytest.raises(MeasurementError) as want:
        ref_measure(machine, short)
    assert str(got.value) == str(want.value)

    residue = mk("residue", "q1ca", "a", ("acc", "r1", "r2", "r3", "r4"), "acc", ("acc",), [])
    psi = {
        ("acc", 0): Amplitude(F(1, 4), F(1, 4)),
        ("r1", 0): Amplitude(F(1, 4), F(-1, 4)),
        ("r2", 0): AMP_HALF,
        ("r3", 0): AMP_HALF,
        ("r4", 0): Amplitude(0, F(1, 4)),
    }
    with pytest.raises(MeasurementError, match="residue") as got:
        measure(residue, psi)
    with pytest.raises(MeasurementError) as want:
        ref_measure(residue, psi)
    assert str(got.value) == str(want.value)

    broken = hadamard2_broken()
    assert _outcome(run_quantum, broken, "a") == _outcome(ref_run_quantum, broken, "a")
    assert _outcome(run_quantum, broken, "a")[0] == "MeasurementError"


def test_sampling_draws_as_the_reference():
    machine = get_entry("onenone-lv-t2").machine
    for word in ("adaabddd", "aabdddad", "adaabdddadaabddd"):
        for seed in range(200):
            assert sample_run(machine, word, seed) == ref_sample_run(machine, word, seed)


def _mass_losing_p1ca(*weights):
    """A p1ca whose one row on 'a' has ``weights``: validate_machine refuses
    it, and a hand-built machine still runs."""
    rows = [("s", L, "*", [("s", 0, F(1))]), ("s", "a", "*", [("s", 0, weight) for weight in weights])]
    machine = mk("lossy", "p1ca", "a", ("s",), "s", ("s",), rows)
    assert validate_machine(machine)
    return machine


def test_verdict_readers_raise_typed_errors():
    for weights, total in (((F(1, 2), F(1, 4)), "3/4"), ((F(0),), "0")):
        machine = _mass_losing_p1ca(*weights)
        for read_a in (lambda: run(machine, "a"), lambda: next(run_many(machine, ["a"]))):
            with pytest.raises(MeasurementError, match=f"^total mass is {total}, expected exactly 1$"):
                read_a()
    # After 8,000 halvings the norm's denominator is 4**8000, 4,817 digits:
    # past Python's int-to-str limit, and still written whole.
    rows = [("s", L, "*", [("s", 0, AMP_ONE)]), ("s", "a", "*", [("s", 0, AMP_HALF)])]
    machine = mk("halving", "q1ca", "a", ("s",), "s", (), rows)
    with pytest.raises(MeasurementError, match=r"^state vector norm\^2 is 1/\d{4817} \+ 0\*sqrt2, expected exactly 1$"):
        run_quantum(machine, "a" * 8000)


def test_sample_run_refuses_a_row_whose_weights_are_all_zero():
    with pytest.raises(SimulationError, match=r"^state 's' has no branch of nonzero weight on 'a'$"):
        sample_run(_mass_losing_p1ca(F(0)), "a", 0)


# ---------------------------------------------------------------------------
# Frozen tables and the compile cache.
# ---------------------------------------------------------------------------


def test_machine_tables_are_frozen():
    machine = get_entry("m1").machine
    key = next(iter(machine.transitions))
    with pytest.raises(TypeError):
        machine.transitions[key] = ()
    with pytest.raises(TypeError):
        del machine.transitions[key]
    assert machine.transitions == dict(machine.transitions)
    assert dict(machine.transitions) == machine.transitions


def test_frozen_tables_copy_to_plain_dicts():
    machine = get_entry("xoreq-q1ca").machine
    table = machine.transitions
    key = next(iter(table))
    for mutate in (
        table.clear,
        table.popitem,
        lambda: table.pop(key),
        lambda: table.setdefault(key, ()),
        lambda: table.update({key: ()}),
        lambda: table.__ior__({key: ()}),
    ):
        with pytest.raises(TypeError):
            mutate()
    for copy in (dict(table), table.copy()):
        assert type(copy) is dict and copy == table
        copy[key] = ()  # a copy is an ordinary, writable dict
    assert table[key] != ()
    # A machine built from a frozen table shares it instead of copying it.
    assert dataclasses.replace(machine, name="renamed").transitions is table


@pytest.mark.parametrize("name", ["m1", "xoreq-q1ca"])
def test_machines_survive_copy_and_pickle(name):
    entry = get_entry(name)
    machine = entry.machine
    words = [word for word, _ in generate(entry.problem, 4)]
    key = next(iter(machine.transitions))
    for other in (copy.deepcopy(machine), pickle.loads(pickle.dumps(machine))):
        assert other == machine and other.transitions == machine.transitions
        assert [run_word(other, word) for word in words] == [run_word(machine, word) for word in words]
        with pytest.raises(TypeError):
            other.transitions[key] = ()
        if other.mclass.quantum:  # its Amplitude weights refuse writes too
            with pytest.raises(AttributeError, match="^Amplitude is immutable$"):
                other.transitions[key][0][2].den = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            other.name = "renamed"


def test_builder_tables_are_copied_not_shared():
    machine = mk("copy", "d1ca", "a", ("s",), "s", ("s",), [("s", L, "*", [("s", 0, F(1))])])
    source = dict(machine.transitions)
    copy = dataclasses.replace(machine, transitions=source)
    source[("s", "a", "Z")] = (("s", 1, F(1)),)
    assert ("s", "a", "Z") not in copy.transitions
    assert copy == machine


def test_compile_is_lazy_and_cached():
    machine = build_m1()
    entry = get_entry("eq-star-p1bca-k7")
    assert "_kernel" not in machine.__dict__
    assert "_kernel" not in entry.machine.__dict__
    run(machine, "00#00")
    kernel = compiled(machine)
    assert compiled(machine) is kernel
    renamed = dataclasses.replace(machine, name="m1-copy")
    assert "_kernel" not in renamed.__dict__
    assert compiled(renamed) is not kernel


def test_replaced_transitions_compile_afresh():
    good = hadamard2()
    assert run_quantum(good, "aa").accept == 1
    broken = hadamard2_broken()
    assert compiled(broken) is not compiled(good)
    assert _outcome(run_quantum, broken, "aa")[0] == "MeasurementError"
    assert run_quantum(good, "aa").accept == 1


def test_compiled_xoreq_stays_small():
    machine = build_xoreq_q1ca()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernel = compiled(machine)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kernel is compiled(machine)
    assert size < 500_000


def test_unknown_state_names_read_as_the_one_sink_configuration():
    # Keys that compile to one configuration add up before they are read:
    # masses for a distribution, amplitudes (which interfere) for a vector,
    # as a step of either already merges them.
    classical = get_entry("eq3-p1bca-k4").machine
    assert verdict_of(classical, {("x", 0): F(1, 2), ("y", 0): F(1, 2)}) == Verdict(F(0), F(1))
    quantum = get_entry("xoreq-q1ca").machine
    with pytest.raises(MeasurementError, match=r"norm\^2 is 0 "):
        measure(quantum, {("x", 0): AMP_INV_SQRT2, ("y", 0): -AMP_INV_SQRT2})


def test_one_engine_dispatch():
    classical = get_entry("onenone-lv").machine
    quantum = get_entry("xoreq-q1ca").machine
    assert run_word(classical, "adaabddd") == run(classical, "adaabddd")
    word = generate("xor-eq", 2)[0][0]
    assert run_word(quantum, word) == run_quantum(quantum, word)


# ---------------------------------------------------------------------------
# Batches: run_many against run_word and the reference.
# ---------------------------------------------------------------------------


def _many_outcomes(machine, words):
    """run_many's verdicts, ending with the MeasurementError that stops it."""
    out = []
    try:
        for verdict in run_many(machine, words):
            out.append(verdict)
    except MeasurementError as exc:
        out.append(("MeasurementError", str(exc)))
    return out


@settings(max_examples=200, deadline=None)
@given(small_machines(), st.data())
def test_run_many_matches_run_word_and_reference(machine, data):
    stems = data.draw(st.lists(st.text(alphabet=machine.alphabet, max_size=6), max_size=4))
    prefixes = [stem[:cut] for stem in stems for cut in range(len(stem))]
    # The empty word, mutual prefixes and repeats, in any order.
    words = data.draw(st.permutations(["", *stems, *stems, *prefixes]))
    reference = ref_run_quantum if machine.mclass.quantum else ref_run
    expected = []
    for word in words:
        expected.append(_outcome(run_word, machine, word))
        assert expected[-1] == _outcome(reference, machine, word)
        if isinstance(expected[-1], tuple):  # the error ends the batch
            break
    assert _many_outcomes(machine, words) == expected


@pytest.mark.parametrize("bad", ["0x", "00#¢", "$", "00#00x"])
@pytest.mark.parametrize("position", [0, 2])
def test_run_many_raises_at_the_bad_word(bad, position):
    machine = build_m1()
    words = ["00#00", "00#0", "0"][:position] + [bad, "00"]
    verdicts = run_many(machine, words)
    for word in words[:position]:
        assert next(verdicts) == run_word(machine, word)
    with pytest.raises(SimulationError) as got:
        next(verdicts)
    with pytest.raises(SimulationError) as want:
        tape_of(bad, machine.alphabet)
    assert str(got.value) == str(want.value)
    with pytest.raises(StopIteration):
        next(verdicts)


def test_run_many_raises_measurement_errors():
    broken = hadamard2_broken()
    outcomes = _many_outcomes(broken, ["", "a", "aa"])
    assert outcomes == [run_word(broken, ""), _outcome(run_word, broken, "a")]
    assert outcomes[1][0] == "MeasurementError"


def test_run_many_shares_one_verdict_per_outcome():
    machine = get_entry("eq3-p1bca-k4").machine
    words = [word for word, _ in generate("eq3", 6)]
    verdicts = list(run_many(machine, words))
    assert verdicts == [run_word(machine, word) for word in words]
    assert len({id(verdict) for verdict in verdicts}) == len(set(verdicts)) < 10
    # The reuse is per call: nothing is kept on the cached machine.
    again = list(run_many(machine, words[:3]))
    assert again == verdicts[:3]
    assert all(mine is not theirs for mine, theirs in zip(again, verdicts))


@pytest.mark.parametrize(
    "name, module, attr, runner",
    [
        ("onenone-lv", ocalab.classical, "step", ocalab.classical.run),
        ("eq3-p1bca-k4", ocalab.classical, "step", ocalab.classical.run),
        ("xoreq-q1ca", ocalab.quantum, "evolve", ocalab.quantum.run_quantum),
    ],
)
def test_run_folds_a_rebound_step(monkeypatch, name, module, attr, runner):
    entry = get_entry(name)
    word = generate(entry.problem, ZOO_GRIDS[name][0])[-1][0]
    own = getattr(module, attr)
    seen = []

    @functools.wraps(own)
    def observed(machine, dist, symbol):
        seen.append(symbol)
        return own(machine, dist, symbol)

    monkeypatch.setattr(module, attr, observed)
    assert runner(entry.machine, word) == run_word(entry.machine, word)
    assert seen == list(tape_of(word, entry.machine.alphabet))
    monkeypatch.undo()
    seen.clear()
    assert runner(entry.machine, word) == run_word(entry.machine, word)
    assert seen == []


def test_a_step_reads_rows_through_entries(monkeypatch):
    machine = get_entry("eq3-p1bca-k4").machine
    lookups = []
    own = type(machine).entries

    def counted(self, state, symbol, status):
        lookups.append((state, symbol, status))
        return own(self, state, symbol, status)

    tape = tape_of("ccddee", machine.alphabet)
    dist = initial_distribution(machine)
    for symbol in tape[:4]:
        dist = step(machine, dist, symbol)
    monkeypatch.setattr(type(machine), "entries", counted)
    after = step(machine, dist, tape[4])
    assert len(lookups) == len(dist)
    assert after == ref_distributions(machine, "ccddee")[4]


# The functions whose spans the benchmark's per-layer metrics read.  Its
# tracer wraps only plain functions of the module that defines them, so a
# decorated function, or one moved into another module, would read 0.
TRACED = (
    "classical.step",
    "classical.verdict_of",
    "quantum.evolve",
    "quantum.measure",
    "quantum.check_unitarity",
    "core.tape_of",
    "core.validate_machine",
    "dsl.parse_with_diagnostics",
    "dsl.emit",
    "problems.generate",
    "zoo.get_entry",
    "adversary.brute_refute",
    "cli._cmd_batch",
)


def test_traced_functions_stay_plain_functions_of_their_module():
    for dotted in TRACED:
        module_name, name = dotted.split(".")
        module = importlib.import_module(f"ocalab.{module_name}")
        function = vars(module)[name]
        assert inspect.isfunction(function), dotted
        assert function.__module__ == module.__name__, dotted
        assert function.__code__.co_name == name, dotted  # not a wrapper


# ---------------------------------------------------------------------------
# Instance generators: identical lists, order and labels included.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 9))
def test_xoreq_generator_matches_reference(n):
    assert generate("xor-eq", n) == ref_gen_xoreq(n)


@pytest.mark.parametrize("t, n", [(1, n) for n in (0, 2, 5, 8, 12, 16, 20)]
                         + [(2, n) for n in (0, 8, 12, 16, 17, 20)] + [(3, 12), (3, 24)])
def test_onenone_generator_matches_reference(t, n):
    assert generate(f"one-none-t{t}", n) == ref_gen_onenone(t, n)


# ---------------------------------------------------------------------------
# The grouped loop of blind machines, and the flat loop it falls back to.
# ---------------------------------------------------------------------------


def _matches_reference(machine, words):
    for word in words:
        trace = run_trace(machine, word, keep_distributions=True)
        assert trace.distributions == tuple(ref_distributions(machine, word))
        assert trace.verdict == run_word(machine, word) == ref_run(machine, word)
    assert list(run_many(machine, words)) == [ref_run(machine, word) for word in words]


def test_counter_reading_machines_run_flat_and_exact():
    # On 'a' state s splits at counter 0 but climbs or falls elsewhere, so
    # its mass sits at counter 0 beside other counter values, and the Z and
    # NZ rows of s and t differ.
    rows = [
        ("s", L, "*", [("s", 0, F(1))]),
        ("s", "a", "Z", [("s", 1, H), ("t", 0, H)]),
        ("s", "a", "NZ", [("s", -1, F(1, 3)), ("s", 1, F(2, 3))]),
        ("t", "a", "Z", [("t", 1, F(1))]),
        ("t", "a", "NZ", [("s", -1, H), ("t", 0, H)]),
        ("s", R, "*", [("s", 0, F(1))]),
        ("t", R, "*", [("t", 0, F(1))]),
    ]
    words = ["aaaaaaa", "aaa", "aaaaa", "a", "aaaaaa"]
    for tag in ("p1ca", "lv-p1ca"):
        machine = mk("reader", tag, "a", ("s", "t"), "s", ("s",), rows, neutral=("t",))
        assert compiled(machine).rows is None
        _matches_reference(machine, words)
        counters = {counter for state, counter in run_trace(machine, "aaaa").final if state == "s"}
        assert 0 in counters and len(counters) > 1
    # A blind machine whose rows read the counter (which a blind class
    # forbids) is run flat as well, so it still steps as its table says.
    machine = mk("reader", "p1bca", "a", ("s", "t"), "s", ("s",), rows)
    assert compiled(machine).rows is None
    _matches_reference(machine, words)


def test_run_many_snapshots_survive_returning_to_a_prefix():
    # Each 'a' takes a branching row; each word leaves the stack at a
    # prefix the next word returns to, so a snapshot written after the
    # step that made it would show here.
    machine = get_entry("eq-star-p1bca-k3").machine
    assert compiled(machine).rows is not None
    words = ["aab", "aabbaab", "aa", "aabbaa", "aabb", "a", "aab", "aabbaabb", "aabba", "aab"]
    verdicts = list(run_many(machine, words))
    assert verdicts == [run_word(machine, word) for word in words]
    assert verdicts == [ref_run(machine, word) for word in words]


def _counted_advance(monkeypatch):
    """Count the calls of ``kernel.advance`` that ``run_many`` makes."""
    calls = []
    own = ocalab.kernel.advance

    def counted(*args, **kwargs):
        calls.append(args[1])
        return own(*args, **kwargs)

    monkeypatch.setattr(ocalab.kernel, "advance", counted)
    return calls


MEMO_SWEEPS = [("eq-star-p1bca-k3", 9), ("xoreq-q1ca", 6), ("lang-L-p1ca-k3", 7), ("onenone-lv-t1", 12)]


@pytest.fixture(scope="module")
def memo_sweeps():
    """(machine, words, run_word's verdicts) of every memo sweep, checked
    against the reference: every word of a classical sweep, every 20th of
    the quantum one, whose reference takes about 10 ms a word."""
    out = {}
    for name, n in MEMO_SWEEPS:
        entry = get_entry(name)
        machine = entry.machine
        words = [word for word, _ in generate(entry.problem, n)]
        expected = [run_word(machine, word) for word in words]
        stride = 20 if machine.mclass.quantum else 1
        reference = ref_run_quantum if machine.mclass.quantum else ref_run
        assert expected[::stride] == [reference(machine, word) for word in words[::stride]]
        out[name] = machine, words, expected
    return out


@pytest.mark.parametrize("limit", [0, 40])
@pytest.mark.parametrize("name", [name for name, _ in MEMO_SWEEPS])
def test_run_many_is_exact_across_memo_resets(monkeypatch, memo_sweeps, name, limit):
    machine, words, expected = memo_sweeps[name]
    steps = _counted_advance(monkeypatch)
    assert list(run_many(machine, words)) == expected
    merged = len(steps)
    steps.clear()
    monkeypatch.setattr(ocalab.kernel, "MEMO_CONFIGS", limit)
    assert list(run_many(machine, words)) == expected
    assert len(steps) > merged  # the memo was cleared and stepped again


def test_run_many_steps_each_distinct_distribution_once(monkeypatch):
    # 5,832 words of up to 16 letters: stepping each word's new suffix
    # would take tens of thousands of steps.
    machine = get_entry("onenone-lv-t2").machine
    words = [word for word, _ in generate("one-none-t2", 16)]
    assert len(words) == 5832
    expected = [run_word(machine, word) for word in words]
    steps = _counted_advance(monkeypatch)
    assert list(run_many(machine, words)) == expected
    assert len(steps) < 500


@pytest.mark.parametrize("name, n, values", [("eq-star-p1bca-k3", 9, 4), ("lang-L-p1ca-k3", 7, 3)])
def test_run_many_shares_one_verdict_per_value_across_denominators(name, n, values):
    # Equal verdicts are reached over different unreduced D here.
    entry = get_entry(name)
    words = [word for word, _ in generate(entry.problem, n)]
    verdicts = list(run_many(entry.machine, words))
    assert len({id(verdict) for verdict in verdicts}) == len(set(verdicts)) == values


@pytest.mark.parametrize(
    "name, n, calls", [("eq3-p1bca-k4", 7, 500), ("eq-star-p1bca-k3", 9, 352), ("lang-L-p1ca-k3", 6, 274)]
)
def test_run_many_steps_do_not_depend_on_word_order(monkeypatch, name, n, calls):
    entry = get_entry(name)
    words = [word for word, _ in generate(entry.problem, n)]
    steps = _counted_advance(monkeypatch)
    forward = list(run_many(entry.machine, words))
    assert len(steps) == calls
    steps.clear()
    assert list(run_many(entry.machine, words[::-1])) == forward[::-1]
    assert len(steps) == calls


@pytest.mark.parametrize(
    "name, n", [("eq3-p1bca-k4", 7), ("eq-star-p1bca-k3", 9), ("lang-L-p1ca-k3", 6), ("xoreq-q1ca", 4)]
)
def test_run_many_steps_once_per_distinct_distribution_and_symbol(monkeypatch, name, n):
    # One step for ¢, one per distinct (flat content, D) and next symbol,
    # and one $ step per distinct (flat content, D) a word ends in.
    entry = get_entry(name)
    kernel = compiled(entry.machine)
    words = [word for word, _ in generate(entry.problem, n)]
    edges, ends = set(), set()
    for word in words:
        kept = []
        advance(kernel, tape_of(word, entry.machine.alphabet)[:-1], keep=kept)
        contents = [(frozenset(flat(kernel, dist).items()), den) for dist, den in kept]
        edges.update(zip(contents, word))
        ends.add(contents[-1])
    steps = _counted_advance(monkeypatch)
    list(run_many(entry.machine, words))
    assert len(steps) == 1 + len(edges) + len(ends)


def _steps_as_flat(machine, word):
    """Every (distribution, D) of the grouped loop and of the flat loop,
    which the kernel's own tables passed as ``tables`` select."""
    kernel = compiled(machine)
    tape = tape_of(word, machine.alphabet)
    grouped, flat_steps = [], []
    advance(kernel, tape, keep=grouped)
    propagate(kernel, tape, keep=flat_steps, tables=kernel.tables)
    return [(flat(kernel, dist), den) for dist, den in grouped], flat_steps


BLIND_CLASSES = tuple(mclass for mclass in MachineClass if mclass.blind)


@settings(max_examples=150, deadline=None)
@given(small_machines(BLIND_CLASSES), st.data())
def test_grouped_loop_equals_the_flat_loop_bit_for_bit(machine, data):
    # Same configurations, same values and the same gcd-reduced D at every step.
    assert compiled(machine).rows is not None
    word = data.draw(st.text(alphabet=machine.alphabet, max_size=9))
    grouped, flat_steps = _steps_as_flat(machine, word)
    assert grouped == flat_steps


@settings(max_examples=150, deadline=None)
@given(small_machines(BLIND_CLASSES, steps=9), st.data())
def test_groups_with_holes_step_as_the_flat_loop_and_the_reference(machine, data):
    # Steps of up to 9 leave zero slots inside a group's list; they must
    # not show as configurations.
    word = data.draw(st.text(alphabet=machine.alphabet, max_size=9))
    grouped, flat_steps = _steps_as_flat(machine, word)
    assert grouped == flat_steps
    assert all(0 not in dist.values() for dist, _ in grouped)
    expected = ref_distributions(machine, word)
    assert run_trace(machine, word, keep_distributions=True).distributions == tuple(expected)


@settings(max_examples=150, deadline=None)
@given(small_machines(BLIND_CLASSES, steps=3), st.data())
def test_kept_group_lists_are_never_written_again(machine, data):
    # Every distribution that advance keeps may be stepped again, as run_many's
    # memo does: stepping each again, by advance or by a jump, leaves every
    # kept list as it was.
    kernel = compiled(machine)
    word = data.draw(st.text(alphabet=machine.alphabet, max_size=7))
    kept = []
    advance(kernel, tape_of(word, machine.alphabet), keep=kept)

    def snapshot():
        return [{state: (low, tuple(counts)) for state, (low, counts) in dist.items()} for dist, _ in kept]

    before = snapshot()
    for dist, den in kept:
        for symbol in machine.tape_symbols:
            advance(kernel, (symbol,), dist, den)
            _jump(kernel, kernel.tables[symbol], dist, data.draw(st.integers(1, 9)))
    assert snapshot() == before


def test_a_group_with_holes_reads_as_its_configurations():
    # From s at 0, 'a' goes to +3 or -2; a second 'a' reaches -4, +1 and +6.
    rows = [
        ("s", L, "*", [("s", 0, F(1))]),
        ("s", "a", "*", [("s", 3, H), ("s", -2, H)]),
        ("s", R, "*", [("s", 0, F(1))]),
    ]
    machine = mk("holes", "p1bca", "a", ("s",), "s", ("s",), rows, max_step=3)
    kernel = compiled(machine)
    kept = []
    advance(kernel, tape_of("aa", machine.alphabet), keep=kept)
    s = kernel.initial
    assert [dist[s] for dist, _ in kept[1:3]] == [(-2, [1, 0, 0, 0, 0, 1]), (-4, [1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1])]
    assert flat(kernel, kept[2][0]) == {-4 * kernel.size + s: 1, kernel.size + s: 2, 6 * kernel.size + s: 1}
    grouped, flat_steps = _steps_as_flat(machine, "aa")
    assert grouped == flat_steps
    assert run_word(machine, "aa") == ref_run(machine, "aa")


def test_a_zero_weight_branch_is_dropped_by_every_engine():
    # Validation refuses a classical weight of 0; a hand-built machine with
    # one still runs, and the grouped run and the public step must agree on
    # what it holds: no zero-mass configuration from the dropped branch.
    rows = [
        ("s", L, "*", [("s", 0, F(1))]),
        ("s", "a", "*", [("s", 1, F(1)), ("t", 1, F(0))]),
        ("t", "a", "*", [("t", 0, F(1))]),
        ("s", R, "*", [("s", 0, F(1))]),
        ("t", R, "*", [("t", 0, F(1))]),
    ]
    machine = mk("zero-weight", "p1bca", "a", ("s", "t"), "s", ("s",), rows)
    dist = initial_distribution(machine)
    for symbol in tape_of("aa", machine.alphabet):
        dist = step(machine, dist, symbol)
    assert run_trace(machine, "aa").final == dist == {("s", 2): 1}


def test_long_words_step_exactly_through_the_grouped_loop():
    # A 200-letter eq-star word that keeps up to 243 configurations alive.
    eqstar = get_entry("eq-star-p1bca-k3").machine
    eqstar_word = "a" + "".join("ab"[(7 * i * i + 3 * i) % 5 < 2] for i in range(199))
    eq3 = get_entry("eq3-p1bca-k4").machine
    for machine, word in ((eqstar, eqstar_word), (eq3, "c" * 150 + "d" * 150 + "e" * 151)):
        assert compiled(machine).rows is not None
        trace = run_trace(machine, word, keep_distributions=True)
        expected = ref_distributions(machine, word)
        assert trace.distributions == tuple(expected)
        assert trace.verdict == ref_verdict_of(machine, expected[-1])
        grouped, flat_steps = _steps_as_flat(machine, word)
        assert grouped == flat_steps


@st.composite
def permutation_q1ca(draw):
    """Small q1ca whose rows permute the states with signs and shifts: with
    both statuses alike they are unitary.  A status split, a dropped row
    or a halved weight can break that anywhere near counter 0."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    max_step = draw(st.integers(1, 2))
    rows = []
    for symbol in ["a", L, R]:
        for status in draw(st.sampled_from([("*",), ("*",), ("Z", "NZ")])):
            for state, target in zip(states, draw(st.permutations(states))):
                sign = draw(st.sampled_from([AMP_ONE, -AMP_ONE]))
                delta = draw(st.integers(-max_step, max_step))
                rows.append((state, symbol, status, [(target, delta, sign)]))
    flaw = draw(st.sampled_from([None, None, "drop", "halve"]))
    if flaw is not None:
        index = draw(st.integers(0, len(rows) - 1))
        state, symbol, status, [(target, delta, sign)] = rows.pop(index)
        if flaw == "halve":
            rows.insert(index, (state, symbol, status, [(target, delta, sign * AMP_HALF)]))
    return mk("perm", "q1ca", "a", states, states[0], (), rows, max_step=max_step)


@settings(max_examples=60, deadline=None)
@given(st.one_of(permutation_q1ca(), small_machines((MachineClass.Q1CA,))))
def test_unitarity_window_is_conclusive(machine):
    # The verdict over counters -2m..2m is the verdict over -6m..6m.
    assert check_unitarity(machine).ok == ref_check_unitarity(machine, reach=6).ok


# ---------------------------------------------------------------------------
# A run of one symbol taken in one jump.
# ---------------------------------------------------------------------------


@st.composite
def run_words(draw, alphabet):
    """Words of up to four runs of one symbol, each 1-25 long."""
    runs = draw(st.lists(st.tuples(st.sampled_from(alphabet), st.integers(1, 25)), max_size=4))
    return "".join(symbol * length for symbol, length in runs)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_machines(), permutation_q1ca()), st.data())
def test_runs_jump_to_the_per_symbol_result(machine, data):
    # The same configurations, values and gcd-reduced D as stepping every
    # symbol, and the reference's verdict.
    word = data.draw(run_words(machine.alphabet))
    kernel = compiled(machine)
    tape = tape_of(word, machine.alphabet)
    kept = []
    advance(kernel, tape, keep=kept)
    dist, den = advance_runs(kernel, tape)
    assert (flat(kernel, dist), den) == (flat(kernel, kept[-1][0]), kept[-1][1])
    if machine.mclass.quantum:
        assert _outcome(run_word, machine, word) == _outcome(ref_run_quantum, machine, word)
    else:
        assert run_word(machine, word) == ref_run(machine, word)
        trace = run_trace(machine, word, keep_distributions=True)
        assert run_trace(machine, word).final == trace.distributions[-1]


def test_a_skip_that_lands_on_counter_zero_reads_the_zero_row():
    # On 'a' the nonzero rows cycle p0 -> p1 -> p2 -> p0, losing 1 on the
    # way to p1; at counter 0, p1 goes to q and p0, p2 go to r.  After b^k
    # the run walks from p1 at counter k - 1 and skips cycles until it lands
    # on p1 at counter 0, where only the zero row leads to q.  After 'c' it
    # walks from p2 and reaches 0 in the middle of a cycle.
    rows = [
        ("p0", L, "*", [("p0", 0, F(1))]),
        ("p0", "b", "*", [("p0", 1, F(1))]),
        ("p0", "c", "*", [("p1", 0, F(1))]),
        ("p0", "a", "NZ", [("p1", -1, F(1))]),
        ("p1", "a", "NZ", [("p2", 0, F(1))]),
        ("p2", "a", "NZ", [("p0", 0, F(1))]),
        ("p0", "a", "Z", [("r", 0, F(1))]),
        ("p1", "a", "Z", [("q", 0, F(1))]),
        ("p2", "a", "Z", [("r", 0, F(1))]),
        ("q", "a", "*", [("q", 0, F(1))]),
        ("r", "a", "*", [("r", 0, F(1))]),
        *((state, R, "*", [(state, 0, F(1))]) for state in ("p0", "p1", "p2", "q", "r")),
    ]
    states = ("p0", "p1", "p2", "q", "r")
    machine = mk("landing", "d1ca", "abc", states, "p0", ("q",), rows)
    assert run_word(machine, "bbbb" + "a" * 10).accept == 0  # on p1 at counter 0
    assert run_word(machine, "bbbb" + "a" * 11).accept == 1
    for prefix in ("b" * k + c for k in range(7) for c in ("", "c")):
        for n in range(1, 31):
            word = prefix + "a" * n
            assert run_word(machine, word) == ref_run(machine, word), word


def test_a_jump_drops_paths_that_cancel_exactly():
    # t and u carry opposite amplitudes and both reach v on the second 'a',
    # inside the jump: the exact zero is dropped and the norm check fails.
    s = AMP_INV_SQRT2
    rows = [
        ("s", L, "*", [("t", 0, s), ("u", 0, -s)]),
        *((state, "a", "*", [(target, 0, AMP_ONE)])
          for state, target in (("t", "t1"), ("u", "u1"), ("t1", "v"), ("u1", "v"), ("v", "v"))),
    ]
    machine = mk("cancel", "q1ca", "a", ("s", "t", "u", "t1", "u1", "v"), "s", (), rows)
    kernel = compiled(machine)
    tape = tape_of("aaaa", machine.alphabet)
    assert advance_runs(kernel, tape) == advance(kernel, tape) == ({}, 2)
    expected = ("MeasurementError", "state vector norm^2 is 0 + 0*sqrt2, expected exactly 1")
    assert _outcome(run_word, machine, "aaaa") == _outcome(ref_run_quantum, machine, "aaaa") == expected


def test_long_words_jump_to_the_reference():
    eqstar = get_entry("eq-star-p1bca-k3").machine
    eqstar_word = "a" + "".join("ab"[(7 * i * i + 3 * i) % 5 < 2] for i in range(199))
    eq3 = get_entry("eq3-p1bca-k4").machine
    for machine, word in ((eqstar, eqstar_word), (eq3, "c" * 150 + "d" * 150 + "e" * 151)):
        assert run_word(machine, word) == ref_run(machine, word)
    xoreq = get_entry("xoreq-q1ca").machine
    for blocks, accept in (((18, 26, 46, 58, 2, 1, 13, 8), 0), ((72, 38, 72, 20, 1, 5, 1, 15), 1)):
        word = xoreq_word(*blocks)
        assert run_word(xoreq, word) == ref_run_quantum(xoreq, word)
        assert run_word(xoreq, word).accept == accept


def _walk_machine(tag, a_rows, states):
    """A machine over {a, b} whose rows on 'a' are ``a_rows``, that stays
    put on the end markers and on 'b' moves one up."""
    rows = [
        *((state, symbol, "*", [(state, 0, F(1))]) for state in states for symbol in (L, R)),
        *((state, "b", "*", [(state, 1, F(1))]) for state in states),
        *a_rows,
    ]
    return mk("walk", tag, "ab", states, states[0], (states[0],), rows, max_step=3)


# s0 -> s1 -> s2 -> s3 -> s4 -> s2: from s1 a walk enters a cycle of three
# after one move, from s0 after two.  Every row only moves, so a whole word
# is one stretch, walked from s0.
RHO = [
    ("s0", "a", "*", [("s1", 1, F(1))]),
    ("s1", "a", "*", [("s2", 0, F(1))]),
    ("s2", "a", "*", [("s3", 2, F(1))]),
    ("s3", "a", "*", [("s4", -1, F(1))]),
    ("s4", "a", "*", [("s2", 3, F(1))]),
]
RHO_STATES = ("s0", "s1", "s2", "s3", "s4")


@pytest.mark.parametrize("tag", ["d1ca", "p1ca", "p1bca"])
def test_a_rho_shaped_walk_jumps_to_the_stepped_result(tag):
    # p1bca runs in groups, the others flat.
    machine = _walk_machine(tag, RHO, RHO_STATES)
    kernel = compiled(machine)
    for word in ("b" * k + "a" * n for k in range(3) for n in range(3, 24)):
        tape = tape_of(word, machine.alphabet)
        assert advance_runs(kernel, tape) == advance(kernel, tape), word
        assert run_word(machine, word) == ref_run(machine, word)
    offsets, entry = kernel.tables["a"].walk(kernel.ids["s1"])
    assert entry == 1 and len(offsets) == 5  # s1, then s2 s3 s4 and back at s2
    assert offsets[-1] - offsets[entry] == 4 * kernel.size  # a cycle gains 2 - 1 + 3
    offsets, entry = kernel.tables["a"].walks[kernel.ids["s0"]]  # cached by the runs
    assert entry == 2 and len(offsets) == 6


@pytest.mark.parametrize("tag", ["p1ca", "p1bca"])
def test_a_jump_stops_where_a_branching_row_is_needed(tag):
    # s0 -> s1 -> s2 by moves, and s2 branches on 'a'.  A jump of one step
    # ends before s2, one of two lands on s2 without reading its row, and
    # longer ones would need it.
    rows = [
        ("s0", "a", "*", [("s1", 1, F(1))]),
        ("s1", "a", "*", [("s2", -1, F(1))]),
        ("s2", "a", "*", [("s0", 0, H), ("s1", 1, H)]),
    ]
    machine = _walk_machine(tag, rows, ("s0", "s1", "s2"))
    kernel = compiled(machine)
    table = kernel.tables["a"]
    start, _ = advance(kernel, tape_of("bb", machine.alphabet)[:-1])
    for steps, lands in ((1, True), (2, True), (3, False), (7, False)):
        jumped = _jump(kernel, table, start, steps)
        assert (jumped is not None) == lands, steps
        if lands:
            assert flat(kernel, jumped) == flat(kernel, advance(kernel, "a" * steps, start, 1)[0])
    offsets, entry = table.walks[kernel.ids["s0"]]
    assert entry is None and len(offsets) == 3
    for word in ("bb" + "a" * n + "b" + "a" * m for n in range(1, 9) for m in (0, 3, 5)):
        tape = tape_of(word, machine.alphabet)
        assert advance_runs(kernel, tape) == advance(kernel, tape), word
        assert run_word(machine, word) == ref_run(machine, word)


def test_a_replaced_machine_walks_its_own_rows():
    machine = _walk_machine("d1ca", RHO, RHO_STATES)
    word = "b" + "a" * 20
    before = run_word(machine, word)
    rows = dict(machine.transitions)
    for status in ("Z", "NZ"):  # now one cycle through every state
        rows[("s4", "a", status)] = (("s0", 3, F(1)),)
    other = dataclasses.replace(machine, transitions=rows)
    for m in (other, machine, other):
        assert run_word(m, word) == ref_run(m, word)
    assert run_word(machine, word) == before
    s0, s1 = compiled(machine).ids["s0"], compiled(machine).ids["s1"]
    assert compiled(other).tables["a"].walk(s1)[1] == 0
    assert compiled(machine).tables["a"].walk(s1)[1] == 1
    assert compiled(other).tables["a"].walks[s0][1] == 0  # cached by the runs, from s0
    assert compiled(machine).tables["a"].walks[s0][1] == 2


# ---------------------------------------------------------------------------
# A word taken a stretch of move-only runs at a time.
# ---------------------------------------------------------------------------


def _cancelling_q1ca():
    """On '¢', s splits into t and u with opposite amplitudes; every row on
    'a' and 'b' is a move, t and u meet at v after two of them, and '$'
    keeps every state: on a word of two or more letters the paths cancel
    inside the one stretch of moves after '¢'."""
    s = AMP_INV_SQRT2
    moves = (("t", "t1"), ("u", "u1"), ("t1", "v"), ("u1", "v"), ("v", "v"), ("s", "s"))
    rows = [
        ("s", L, "*", [("t", 0, s), ("u", 0, -s)]),
        *((state, symbol, "*", [(target, 0, AMP_ONE)]) for state, target in moves for symbol in "ab"),
        *((state, R, "*", [(state, 0, AMP_ONE)]) for state, _ in moves),
    ]
    return mk("cancel-ab", "q1ca", "ab", ("s", "t", "u", "t1", "u1", "v"), "s", ("v",), rows)


@st.composite
def long_run_words(draw, alphabet):
    """Words of up to six runs of one symbol, as often 1-2 long, short enough
    to be stepped, as 3-40."""
    length = st.one_of(st.integers(1, 2), st.integers(3, 40))
    runs = draw(st.lists(st.tuples(st.sampled_from(alphabet), length), max_size=6))
    return "".join(symbol * length for symbol, length in runs)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_machines(), permutation_q1ca(), st.just(_cancelling_q1ca())), st.data())
def test_a_word_runs_as_its_stretches_to_the_stepped_result(machine, data):
    # The word as a str (scanned), as its framed list and as a list of
    # symbols: the same flat content and D as stepping every symbol, and
    # the same Verdict (or MeasurementError) as the stepped result and the
    # reference.
    word = data.draw(long_run_words(machine.alphabet))
    kernel = compiled(machine)
    stepped, den = advance(kernel, tape_of(word, machine.alphabet))
    for tape in (L + word + R, tape_of(word, machine.alphabet)):
        dist, walked_den = advance_runs(kernel, tape)
        assert (flat(kernel, dist), walked_den) == (flat(kernel, stepped), den)
    verdict = _outcome(read, kernel, stepped.items(), den)
    assert _outcome(run_word, machine, word) == _outcome(run_word, machine, list(word)) == verdict
    reference = ref_run_quantum if machine.mclass.quantum else ref_run
    assert verdict == _outcome(reference, machine, word)


def test_paths_that_cancel_inside_a_stretch_leave_no_zero():
    machine = _cancelling_q1ca()
    kernel = compiled(machine)
    assert kernel.tables["a"].moves_only and kernel.tables["b"].moves_only
    assert not kernel.tables[L].moves_only
    for word in ("ab", "ba", "abba", "b" * 7 + "a" * 9):
        assert advance_runs(kernel, L + word + R) == advance(kernel, L + word + R) == ({}, 2), word
        expected = ("MeasurementError", "state vector norm^2 is 0 + 0*sqrt2, expected exactly 1")
        assert _outcome(run_word, machine, word) == _outcome(ref_run_quantum, machine, word) == expected
    assert run_word(machine, "a") == ref_run_quantum(machine, "a") == Verdict(accept=F(0), reject=F(1))


def test_a_run_that_is_stepped_ends_a_stretch():
    # 'a' only moves and 'b' branches: the scan of a str skips a 'b' run of
    # one or two, and the walk of the 'a' runs on either side stops there.
    rows = [
        *((state, symbol, "*", [(state, 0, F(1))]) for state in ("s", "t") for symbol in (L, R)),
        ("s", "a", "*", [("s", 1, F(1))]),
        ("t", "a", "*", [("t", 2, F(1))]),
        ("s", "b", "*", [("s", 0, H), ("t", 0, H)]),
        ("t", "b", "*", [("t", -1, F(1))]),
    ]
    machine = mk("gap", "p1ca", "ab", ("s", "t"), "s", ("s",), rows, max_step=2)
    kernel = compiled(machine)
    assert kernel.tables["a"].moves_only and not kernel.tables["b"].moves_only
    for word in ("aaabaaa", "abbaa", "aabbba", "ba" * 4, "aaaa"):
        tape = L + word + R
        assert advance_runs(kernel, tape) == advance(kernel, tape), word
        assert run_word(machine, word) == ref_run(machine, word), word


BAD_WORDS = [
    ("0x0", "input symbol 'x' is not in the machine alphabet"),
    (["0", "x", "0"], "input symbol 'x' is not in the machine alphabet"),
    (["0", "00"], "input symbol '00' is not in the machine alphabet"),
    ([""], "input symbol '' is not in the machine alphabet"),
    ("0" + L + "0", f"input may not contain the endmarker {L!r}"),
    (["0", R], f"input may not contain the endmarker {R!r}"),
    ("x" + R, "input symbol 'x' is not in the machine alphabet"),  # the first bad symbol names it
    (R + "x", f"input may not contain the endmarker {R!r}"),
]


@pytest.mark.parametrize("word, message", BAD_WORDS)
@pytest.mark.parametrize("runner, name", [(run, "m1"), (run_quantum, "xoreq-q1ca"), (run_word, "m1"), (run_word, "xoreq-q1ca")])
def test_a_bad_word_raises_the_tape_error(runner, name, word, message):
    machine = get_entry(name).machine
    with pytest.raises(SimulationError) as caught:
        runner(machine, word)
    assert str(caught.value) == message
    with pytest.raises(SimulationError) as caught:
        tape_of(word, machine.alphabet)
    assert str(caught.value) == message


@pytest.mark.parametrize("runner, name", [(run, "m1"), (run_quantum, "xoreq-q1ca"), (run_word, "eq-star-p1bca-k3")])
def test_the_empty_word_runs_on_the_end_markers_alone(runner, name):
    machine = get_entry(name).machine
    reference = ref_run_quantum if machine.mclass.quantum else ref_run
    assert runner(machine, "") == runner(machine, []) == reference(machine, "")
