"""Exact quantum engine: evolution, interference, measurement, unitarity."""
from fractions import Fraction

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    F,
    L,
    R,
    hadamard2,
    hadamard2_broken,
    mk,
    naive_unitarity,
    quantum_sink_collide,
    quantum_sink_single,
)
from ocalab import (
    AMP_HALF,
    AMP_INV_SQRT2,
    AMP_ONE,
    Amplitude,
    MeasurementError,
    SimulationError,
    Verdict,
    check_unitarity,
    evolve,
    initial_vector,
    measure,
    norm_squared,
    run_quantum,
    validate_machine,
)
from ocalab.zoo import as_quantum


def test_initial_vector():
    assert initial_vector(hadamard2()) == {("q", 0): AMP_ONE}


def test_evolve_splits_then_interferes():
    m = hadamard2()
    psi = initial_vector(m)
    psi = evolve(m, psi, L)
    psi = evolve(m, psi, "a")
    assert psi == {("q", 0): AMP_INV_SQRT2, ("r", 0): AMP_INV_SQRT2}
    psi = evolve(m, psi, "a")
    # the r component cancels exactly and is pruned from the support
    assert psi == {("q", 0): AMP_ONE}


def test_evolve_requires_quantum_and_tape_symbol(m1):
    with pytest.raises(SimulationError):
        evolve(m1, {(m1.initial, 0): AMP_ONE}, "0")
    with pytest.raises(SimulationError):
        evolve(hadamard2(), initial_vector(hadamard2()), "z")


def test_norm_squared_tracks_sqrt2_component():
    assert norm_squared({("q", 0): AMP_INV_SQRT2}) == (F(1, 2), F(0))
    psi = {("q", 0): Amplitude(F(1, 4), F(1, 4)), ("r", 0): AMP_HALF}
    assert norm_squared(psi) == (F(3, 16) + F(1, 4), F(1, 8))


def test_run_quantum_interference_probabilities():
    m = hadamard2()
    assert run_quantum(m, "a") == Verdict(F(1, 2), F(1, 2))
    assert run_quantum(m, "aa") == Verdict(F(1), F(0))
    assert run_quantum(m, "") == Verdict(F(1), F(0))


def test_run_quantum_rejects_classical(m1):
    with pytest.raises(SimulationError):
        run_quantum(m1, "00#")


def test_measure_requires_exact_unit_norm():
    m = hadamard2()
    with pytest.raises(MeasurementError, match="norm"):
        measure(m, {("q", 0): AMP_HALF})


def test_measure_rejects_sqrt2_residue_in_accept_mass():
    machine = mk(
        "residue",
        "q1ca",
        "a",
        ("acc", "r1", "r2", "r3", "r4"),
        "acc",
        ("acc",),
        [],
    )
    psi = {
        ("acc", 0): Amplitude(F(1, 4), F(1, 4)),  # |.|^2 = 3/16 + (1/8) sqrt2
        ("r1", 0): Amplitude(F(1, 4), F(-1, 4)),  # |.|^2 = 3/16 - (1/8) sqrt2
        ("r2", 0): AMP_HALF,
        ("r3", 0): AMP_HALF,
        ("r4", 0): Amplitude(0, F(1, 4)),
    }
    assert norm_squared(psi) == (F(1), F(0))
    with pytest.raises(MeasurementError, match="residue"):
        measure(machine, psi)


def test_measure_counts_all_counter_values():
    m = hadamard2()
    psi = {("q", 3): AMP_INV_SQRT2, ("r", 0): Amplitude(0, F(-1, 2))}
    assert measure(m, psi) == Verdict(F(1, 2), F(1, 2))


def test_check_unitarity_accepts_sound_machines(m1):
    assert check_unitarity(hadamard2()).ok
    assert check_unitarity(as_quantum(m1)).ok


def test_check_unitarity_flags_implicit_sink_overlap():
    # A declared row that routes into the sink collides with the sink's own
    # stay-put column, so the transition map is not an isometry.
    report = check_unitarity(quantum_sink_single())
    assert not report.ok
    assert report.isometry_violations


def test_check_unitarity_rejects_detuned_amplitude():
    report = check_unitarity(hadamard2_broken())
    assert not report.ok
    diagonal = [
        entry
        for entry in report.isometry_violations
        if entry[0] == "a" and entry[1] == entry[2] and entry[1][0] == "q"
    ]
    assert diagonal and diagonal[0][3] == Amplitude(F(3, 4))
    codes = {v.code for v in report.as_violations()}
    assert codes <= {"unitary-isometry", "unitary-coisometry"}
    assert "unitary-isometry" in codes


def test_check_unitarity_flags_sink_collisions():
    report = check_unitarity(quantum_sink_collide())
    assert not report.ok
    assert any(
        entry[0] == "a" and {entry[1][0], entry[2][0]} == {"q", "r"}
        for entry in report.isometry_violations
    )


def test_check_unitarity_requires_quantum(m1):
    with pytest.raises(SimulationError):
        check_unitarity(m1)


def test_unitarity_window_is_bounded():
    machine = dataclasses.replace(hadamard2(), max_step=100_000_000)
    with pytest.raises(SimulationError, match="unitarity window"):
        check_unitarity(machine)
    assert [v.code for v in validate_machine(machine)] == ["unitarity-window"]


def test_validate_machine_carries_unitarity_codes():
    codes = {v.code for v in validate_machine(hadamard2_broken())}
    assert "unitary-isometry" in codes
    assert validate_machine(hadamard2()) == []


@pytest.mark.parametrize(
    "builder",
    [hadamard2, hadamard2_broken, quantum_sink_collide, quantum_sink_single],
)
def test_sparse_check_matches_naive_reference(builder):
    machine = builder()
    report = check_unitarity(machine)
    iso = {(s, a, b) for s, a, b, _ in report.isometry_violations}
    coiso = {(s, a, b) for s, a, b, _ in report.coisometry_violations}
    naive_iso, naive_coiso = naive_unitarity(machine)
    assert iso == naive_iso
    assert coiso == naive_coiso


def test_sparse_check_matches_naive_reference_on_m1q(m1):
    machine = as_quantum(m1)
    report = check_unitarity(machine)
    assert report.ok
    naive_iso, naive_coiso = naive_unitarity(machine)
    assert naive_iso == set() and naive_coiso == set()


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="0#", max_size=16))
def test_norm_is_preserved_on_arbitrary_words(xoreq, word):
    verdict = run_quantum(xoreq, word)
    assert verdict.neutral == 0
    assert verdict.accept + verdict.reject == 1
