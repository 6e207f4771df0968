"""Command-line interface: exit codes, output formats, report files."""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path

import pytest

import ocalab
from helpers import F, L, R, mk, u_accept_all, u_branchy
from ocalab import emit, generate, get_entry, parse_file, sample_run, zoo, zoo_names
from ocalab.adversary import bounds_rule, brute_refute
from ocalab.cli import EXIT_EXHAUSTED, EXIT_INVALID, EXIT_IO, EXIT_OK, _record_parts, main
from ocalab.kernel import run_word


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == EXIT_INVALID
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "validate" in out and "adversary" in out


def test_repeated_in_process_calls_give_identical_results(tmp_path, capsys):
    # The argument parser is built once per process and reused.
    argvs = [
        ["run", "m1", "--input", "00#00#00#00####"],
        ["run", "m1", "--input", "abc"],
        ["batch", "--zoo", "m1", "--max-n", "4", "--out", str(tmp_path / "out.json")],
        ["adversary", "brute", "xoreq-q1ca", "--max-n", "3"],
        ["zoo", "list"],
        ["run", "m1"],
    ]
    results = []
    for _ in range(2):
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            report = (tmp_path / "out.json").read_bytes() if argv[0] == "batch" else None
            results.append((code, captured.out, captured.err, report))
    assert results[: len(argvs)] == results[len(argvs) :]
    assert [code for code, *_ in results[: len(argvs)]] == [EXIT_OK, EXIT_INVALID, EXIT_OK, EXIT_EXHAUSTED, EXIT_OK, EXIT_INVALID]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "m.cma"
    path.write_text(emit(get_entry("m1").machine), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "OK\n"


def test_validate_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.cma"
    path.write_text(
        "machine b\nclass p1ca\nalphabet a\nstates s\ninitial s\naccept s\n"
        "trans s , a , Z -> s , 0 @ 1/2\n",
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == EXIT_INVALID
    out = capsys.readouterr().out
    assert "[prob-sum]" in out
    assert "error" in out


HUGE_WINDOW_CMA = (
    "machine big\nclass q1ca\nalphabet a\nstates s\ninitial s\naccept s\n"
    "maxstep 100000000\ntrans s , a , * -> s , 0\n"
    "trans s , LEND , * -> s , 0\ntrans s , REND , * -> s , 0\n"
)


def test_too_wide_unitarity_window_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "big.cma"
    path.write_text(HUGE_WINDOW_CMA, encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert "error: [unitarity-window]" in capsys.readouterr().out
    assert main(["run", str(path), "--input", "a"]) == EXIT_INVALID
    assert "error: [unitarity-window]" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "no/such/file.cma"]) == EXIT_IO
    assert "no such file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_zoo_machine_by_name(capsys):
    assert main(["run", "onenone-lv", "--input", "adaabddd"]) == EXIT_OK
    assert capsys.readouterr().out == "accept=1/3 reject=0/1 dontknow=2/3\n"


def test_run_quantum_machine(capsys):
    word = "00#00#00#0000#00###"
    assert main(["run", "xoreq-q1ca", "--input", word]) == EXIT_OK
    assert capsys.readouterr().out == "accept=1/1 reject=0/1 dontknow=0/1\n"


def test_run_alien_input_fails(capsys):
    assert main(["run", "m1", "--input", "abc"]) == EXIT_INVALID
    capsys.readouterr()


def test_run_unknown_machine(capsys):
    assert main(["run", "no-such-thing", "--input", "a"]) == EXIT_IO
    assert "no such file and no such zoo machine" in capsys.readouterr().err


def test_run_sample_requires_seed(capsys):
    code = main(["run", "onenone-lv", "--input", "adaabddd", "--sample"])
    assert code == EXIT_INVALID
    assert "--seed" in capsys.readouterr().err


def test_run_sample_rejects_quantum(capsys):
    code = main(
        ["run", "xoreq-q1ca", "--input", "00#", "--sample", "--seed", "1"]
    )
    assert code == EXIT_INVALID
    assert "classical" in capsys.readouterr().err


def test_run_sample_matches_library(capsys):
    machine = get_entry("onenone-lv").machine
    expected = sample_run(machine, "adaabddd", seed=7)
    code = main(
        ["run", "onenone-lv", "--input", "adaabddd", "--sample", "--seed", "7"]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == expected + "\n"


def _all_digits(*values):
    """The text of each value, every digit written out."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [str(value) for value in values]
    finally:
        sys.set_int_max_str_digits(limit)


TWO_WEIGHTS_CMA = (
    "machine w\nclass {}\nalphabet a\nstates s r\ninitial s\naccept s\nmaxstep 1\n\n"
    "trans s , a , * -> s , 0 @ {}\ntrans s , a , * -> r , 0 @ {}\n"
    "trans s , LEND , * -> s , 0\ntrans s , REND , * -> s , 0\n"
)


def test_exact_values_past_the_int_digit_limit_are_written_whole(tmp_path, capsys):
    # Python writes no int of more than 4,300 digits by default; 2**14300 has 4,305.
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "half.cma"
    path.write_text(TWO_WEIGHTS_CMA.format("p1ca", "1/2", "1/2"), encoding="utf-8")
    assert main(["run", str(path), "--input", "a" * 14300]) == EXIT_OK
    den, rest = _all_digits(2**14300, 2**14300 - 1)
    assert capsys.readouterr().out == f"accept=1/{den} reject={rest}/{den} dontknow=0/1\n"

    # Denominators of 2,201 digits parse; their sum's 4,401-digit one is a diagnostic.
    big = 10**2200
    path.write_text(TWO_WEIGHTS_CMA.format("p1ca", f"1/{big + 1}", f"1/{big + 3}"), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_INVALID
    [total] = _all_digits(Fraction(1, big + 1) + Fraction(1, big + 3))
    assert capsys.readouterr().out == "".join(
        f"9:1: error: [prob-sum] (s, a, {status}): branch probabilities must sum to 1, got {total}\n"
        for status in ("NZ", "Z")
    )

    # A unitarity violation's inner product, 1/(10**2200 + 1)**2.
    path.write_text(TWO_WEIGHTS_CMA.format("q1ca", f"1/{big + 1}", "1"), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_INVALID
    [norm] = _all_digits(Fraction(1, (big + 1) ** 2))
    assert f"give inner product Amplitude({norm}, 0, 0, 0)\n" in capsys.readouterr().out

    # A brute refutation's reason: each symbol of the tape of the first
    # yes-instance, ¢adaabddd$, keeps 1/(10**600 + 1) of the accept mass.
    small = 10**600 + 1
    rows = "".join(
        f"trans s , {x} , * -> s , 0 @ 1/{small}\ntrans s , {x} , * -> r , 0 @ {small - 1}/{small}\n"
        for x in ("a", "b", "d", "LEND", "REND")
    )
    header = "machine w\nclass p1ca\nalphabet a b d\nstates s r\ninitial s\naccept s\n"
    path.write_text(header + rows, encoding="utf-8")
    assert main(["adversary", "brute", str(path), "--problem", "one-none-t1", "--max-n", "8"]) == EXIT_OK
    [accept] = _all_digits(Fraction(1, small**10))
    record = json.loads(capsys.readouterr().out)
    assert (record["input"], record["reason"]) == ("adaabddd", f"accept {accept} <= 1/2 on a yes-instance")
    assert sys.get_int_max_str_digits() == limit


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


def run_batch(tmp_path, capsys, *argv):
    out = tmp_path / "report.json"
    code = main(["batch", *argv, "--out", str(out)])
    captured = capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    out.unlink(missing_ok=True)
    return code, report, captured


def test_batch_zoo_report(tmp_path, capsys):
    code, report, _ = run_batch(tmp_path, capsys, "--zoo", "onenone-lv", "--max-n", "8")
    assert code == EXIT_OK
    assert report["problem"] == "one-none-t1"
    assert report["machine"] == "onenone-lv"
    assert report["max_n"] == 8
    assert len(report["instances"]) == 108
    assert report["summary"] == {
        "min_accept_on_yes": "1/3",
        "max_accept_on_no": "0/1",
        "max_dontknow": "2/3",
        "worst_case_instance": {"input": "adaabddd", "label": "yes"},
    }
    first = report["instances"][0]
    assert set(first) == {"input", "label", "accept", "reject", "dontknow"}


def test_batch_report_bytes_are_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        assert (
            main(["batch", "--zoo", "eq-star-p1bca-k3", "--max-n", "5", "--out", str(out)])
            == EXIT_OK
        )
    capsys.readouterr()
    blob1 = out1.read_bytes()
    assert blob1 == out2.read_bytes()
    assert blob1.endswith(b"}\n")
    # keys are sorted: "instances" precedes "machine" precedes "problem"
    text = blob1.decode("utf-8")
    assert text.index('"instances"') < text.index('"machine"') < text.index('"problem"')


# sha256 of reports as json.dumps(report, sort_keys=True, indent=2,
# ensure_ascii=False) wrote them whole; the xoreq-q1ca-every-n one breaks
# its claim.
REPORT_DIGESTS = {
    ("onenone-lv-t1", 12): "baf5e18cc961ac9a3358189c373b3167991e84edd3d6ded2508c1dc78f11ab9c",
    ("xoreq-q1ca", 11): "8ac3d24d357e2d49a7f5d4a1f3fe7cae415697fd0ea7a6ba6b08589c4a4b1720",
    ("xoreq-q1ca-every-n", 12): "40213c36b4c99435a5abc90579a01945c02dcd25fd8473055f5817a5a831676d",
}


@pytest.mark.parametrize(
    "name, n, violated",
    [
        ("m1", 4, False),
        ("onenone-lv-t1", 12, False),
        ("xoreq-q1ca", 11, False),
        ("xoreq-q1ca-every-n", 12, True),
    ],
)
def test_batch_report_bytes_are_json_dumps(tmp_path, capsys, monkeypatch, name, n, violated):
    if name == "xoreq-q1ca-every-n":
        # xoreq-q1ca claiming 1 / 0 / 0 at every n, false from n = 12.
        real = zoo.get_entry
        entry = zoo.ZooEntry(
            name, real("xoreq-q1ca").machine, "xor-eq", zoo.ClaimedBounds(F(1), F(0), F(0)), ""
        )
        monkeypatch.setattr(zoo, "get_entry", lambda key: entry if key == name else real(key))
    out = tmp_path / "report.json"
    code = main(["batch", "--zoo", name, "--max-n", str(n), "--out", str(out)])
    err = capsys.readouterr().err
    if violated:
        assert code == EXIT_INVALID and err.startswith(f"claimed bounds violated for {name}: ")
    else:
        assert (code, err) == (EXIT_OK, "")
    blob = out.read_bytes()
    text = json.dumps(json.loads(blob), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert blob == text.encode("utf-8")
    if (name, n) in REPORT_DIGESTS:
        assert hashlib.sha256(blob).hexdigest() == REPORT_DIGESTS[(name, n)]


@pytest.mark.parametrize("report", [True, False], ids=["batch", "brute"])
def test_a_sweep_past_the_claims_domain_is_a_usage_error(tmp_path, capsys, report):
    out = tmp_path / "report.json"
    if report:
        code = main(["batch", "--zoo", "xoreq-q1ca", "--max-n", "12", "--out", str(out)])
    else:
        code = main(["adversary", "brute", "xoreq-q1ca", "--max-n", "12"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INVALID, "")
    assert captured.err == "xoreq-q1ca claims its bounds for n <= 11 only, not --max-n 12\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "name, reason",
    [
        ("xoreq-q1ca-mod15", "modulus must be at most 13"),
        ("xoreq-q1ca-mod99999999999999999999", "modulus must be at most 13"),
        ("xoreq-q1ca-mod4", "modulus must be odd and >= 3"),
        ("xoreq-q1ca-mod1", "modulus must be odd and >= 3"),
    ],
)
def test_xoreq_mod_out_of_range_is_a_usage_error(capsys, name, reason):
    for argv in (["run", name, "--input", "0#0#0#0#"], ["adversary", "brute", name, "--max-n", "4"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_INVALID, "")
        assert captured.err == f"{name}: {reason}\n"


def test_xoreq_mod_sweep_past_its_domain_is_a_usage_error(capsys):
    assert main(["adversary", "brute", "xoreq-q1ca-mod3", "--max-n", "7"]) == EXIT_EXHAUSTED
    capsys.readouterr()
    assert main(["adversary", "brute", "xoreq-q1ca-mod3", "--max-n", "8"]) == EXIT_INVALID
    assert capsys.readouterr().err == "xoreq-q1ca-mod3 claims its bounds for n <= 7 only, not --max-n 8\n"


def test_batch_record_parts_wrap_any_word():
    verdict = run_word(get_entry("onenone-lv").machine, "adaabddd")
    head, tail = _record_parts("yes", verdict)
    for word in ["", "ad", 'a"b\\c\x01d\x7fé z']:
        record = {"input": word, "label": "yes", "accept": "1/3", "reject": "0/1"}
        report = {"instances": [{**record, "dontknow": "2/3"}]}
        text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False)
        assert text == '{\n  "instances": [\n' + head + encode_basestring(word) + tail + "\n  ]\n}"


def test_batch_file_machine_needs_problem(tmp_path, capsys):
    path = tmp_path / "m1.cma"
    path.write_text(emit(get_entry("m1").machine), encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(["batch", str(path), "--max-n", "4", "--out", str(out)])
    assert code == EXIT_INVALID
    assert "--problem is required" in capsys.readouterr().err


def test_batch_file_machine_with_problem(tmp_path, capsys):
    path = tmp_path / "m1.cma"
    path.write_text(emit(get_entry("m1").machine), encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(
        ["batch", str(path), "--problem", "xor-eq", "--max-n", "2", "--out", str(out)]
    )
    assert code == EXIT_OK  # file machines carry no claimed bounds to violate
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["machine"] == "m1"
    assert report["problem"] == "xor-eq"
    capsys.readouterr()


def test_batch_requires_exactly_one_machine_source(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["batch", "--max-n", "4", "--out", str(out)])
    assert code == EXIT_INVALID
    path = tmp_path / "m.cma"
    path.write_text(emit(get_entry("m1").machine), encoding="utf-8")
    code = main(
        ["batch", str(path), "--zoo", "m1", "--max-n", "4", "--out", str(out)]
    )
    assert code == EXIT_INVALID
    assert "exactly one" in capsys.readouterr().err


def test_batch_unknown_problem(tmp_path, capsys):
    code, _, captured = run_batch(
        tmp_path, capsys, "--zoo", "m1", "--problem", "three-sat", "--max-n", "4"
    )
    assert code == EXIT_INVALID
    assert "unknown problem" in captured.err


def test_batch_unknown_zoo_machine(tmp_path, capsys):
    code, _, captured = run_batch(
        tmp_path, capsys, "--zoo", "mystery", "--max-n", "4"
    )
    assert code == EXIT_INVALID
    assert "unknown zoo machine" in captured.err


def test_batch_over_ceiling(tmp_path, capsys):
    code, _, captured = run_batch(
        tmp_path, capsys, "--zoo", "eq-star-p1bca-k3", "--max-n", "99"
    )
    assert code == EXIT_INVALID
    assert "ceiling" in captured.err


def _fmt(value):
    return f"{value.numerator}/{value.denominator}"


def _word_by_word_report(machine, problem, max_n):
    """The records and summary of a batch, one run_word per instance."""
    records = []
    min_yes = max_no = worst = None
    max_dontknow = Fraction(0)
    for word, label in generate(problem, max_n):
        verdict = run_word(machine, word)
        records.append({"input": word, "label": label, "accept": _fmt(verdict.accept),
                        "reject": _fmt(verdict.reject), "dontknow": _fmt(verdict.neutral)})
        max_dontknow = max(max_dontknow, verdict.neutral)
        if label == "yes" and (min_yes is None or verdict.accept < min_yes):
            min_yes, worst = verdict.accept, {"input": word, "label": label}
        if label == "no" and (max_no is None or verdict.accept > max_no):
            max_no = verdict.accept
            if min_yes is None:
                worst = {"input": word, "label": label}
    return records, {
        "min_accept_on_yes": None if min_yes is None else _fmt(min_yes),
        "max_accept_on_no": None if max_no is None else _fmt(max_no),
        "max_dontknow": _fmt(max_dontknow),
        "worst_case_instance": worst,
    }


@pytest.mark.parametrize(
    "machine, argv",
    [
        ("m1", ("--max-n", "4")),
        ("eq-star-p1bca-k3", ("--problem", "eq-star-complement", "--max-n", "6")),
        ("onenone-lv", ("--max-n", "10")),
        ("xoreq-q1ca", ("--max-n", "4")),
        # Every word gets one verdict, on yes- and no-instances alike.
        (u_accept_all, ("--problem", "eq-star", "--max-n", "4")),
    ],
)
def test_batch_report_matches_word_by_word_runs(tmp_path, capsys, machine, argv):
    if isinstance(machine, str):
        machine = get_entry(machine).machine
        source = ("--zoo", machine.name)
    else:
        machine = machine()
        path = tmp_path / "machine.cma"
        path.write_text(emit(machine), encoding="utf-8")
        source = (str(path),)
    _, report, _ = run_batch(tmp_path, capsys, *source, *argv)
    records, summary = _word_by_word_report(machine, report["problem"], report["max_n"])
    assert report["instances"] == records
    assert report["summary"] == summary


def test_batch_without_instances_is_a_usage_error(tmp_path, capsys):
    # The shortest one-none-t2 instance has 16 letters.
    code, report, captured = run_batch(
        tmp_path, capsys, "--zoo", "onenone-lv-t2", "--max-n", "4"
    )
    assert code == EXIT_INVALID
    assert report is None
    assert captured.err == "no instances of one-none-t2 up to --max-n 4\n"
    assert captured.out == ""


def test_batch_flags_violated_bounds(tmp_path, capsys):
    # deliberately run the equality acceptor against the complement problem
    code, report, captured = run_batch(
        tmp_path,
        capsys,
        "--zoo",
        "eq-star-p1bca-k3",
        "--problem",
        "eq-star-complement",
        "--max-n",
        "6",
    )
    assert code == EXIT_INVALID
    assert "claimed bounds violated for eq-star-p1bca-k3" in captured.err
    # the report file is still written for inspection
    assert report is not None and report["problem"] == "eq-star-complement"


_SMALL_N = {
    "xor-eq": 4,
    "one-none-t1": 8,
    "one-none-t2": 16,
    "eq-star": 6,
    "eq-star-complement": 6,
    "eq3": 6,
    "lang-L": 5,
}


@pytest.mark.parametrize(
    "name, problem",
    [(name, get_entry(name).problem) for name in zoo_names()]
    + [("eq-star-p1bca-k3", "eq-star-complement"), ("eq-star-complement-d1ca", "eq-star")],
)
def test_batch_flags_bounds_exactly_when_brute_refutes(tmp_path, capsys, name, problem):
    entry = get_entry(name)
    n = _SMALL_N[problem]
    found = brute_refute(entry.machine, problem, n, bounds_rule(entry.claimed_bounds))
    code, report, captured = run_batch(
        tmp_path, capsys, "--zoo", name, "--problem", problem, "--max-n", str(n)
    )
    assert report is not None
    if found is None:
        assert (code, captured.err) == (EXIT_OK, "")
    else:
        assert code == EXIT_INVALID
        assert captured.err.startswith(f"claimed bounds violated for {name}: ")


def test_batch_holds_las_vegas_machines_to_soundness_as_brute_does(
    tmp_path, capsys, monkeypatch
):
    # A Las Vegas coin: accept and reject 1/2 each on every word, inside
    # its numeric bounds but never sound.
    coin = mk(
        "lv-coin",
        "lv-p1ca",
        "ab",
        ("s", "acc", "rej"),
        "s",
        ("acc",),
        [("s", L, "*", [("acc", 0, F(1, 2)), ("rej", 0, F(1, 2))])]
        + [(q, symbol, "*", [(q, 0, F(1))]) for q in ("acc", "rej") for symbol in ("a", "b", R)],
    )
    entry = zoo.ZooEntry(
        "lv-coin", coin, "eq-star", zoo.ClaimedBounds(F(0), F(1), F(1)), "unsound coin"
    )
    real = zoo.get_entry
    monkeypatch.setattr(zoo, "get_entry", lambda name: entry if name == "lv-coin" else real(name))

    code, report, captured = run_batch(tmp_path, capsys, "--zoo", "lv-coin", "--max-n", "2")
    assert code == EXIT_INVALID
    assert report is not None
    assert captured.err.startswith("claimed bounds violated for lv-coin: ")

    assert main(["adversary", "brute", "lv-coin", "--max-n", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["reason"] == (
        "both accept and reject have positive probability"
    )


def test_batch_and_brute_refute_a_las_vegas_machine_that_accepts_everything(
    tmp_path, capsys, monkeypatch
):
    # Never rejects or says dontknow, so only the no-instance check can
    # refute it under a no-bound of 1.
    yes_man = mk(
        "lv-yes",
        "lv-p1ca",
        "ab",
        ("acc",),
        "acc",
        ("acc",),
        [("acc", symbol, "*", [("acc", 0, F(1))]) for symbol in (L, "a", "b", R)],
    )
    entry = zoo.ZooEntry(
        "lv-yes", yes_man, "eq-star", zoo.ClaimedBounds(F(0), F(1), F(1)), "accepts everything"
    )
    real = zoo.get_entry
    monkeypatch.setattr(zoo, "get_entry", lambda name: entry if name == "lv-yes" else real(name))

    code, report, captured = run_batch(tmp_path, capsys, "--zoo", "lv-yes", "--max-n", "2")
    assert code == EXIT_INVALID
    assert report is not None
    assert captured.err.startswith("claimed bounds violated for lv-yes: ")

    path = tmp_path / "lv-yes.cma"
    path.write_text(emit(yes_man), encoding="utf-8")
    for argv in (["lv-yes"], [str(path), "--problem", "eq-star"]):
        assert main(["adversary", "brute", *argv, "--max-n", "2"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "no"
        assert payload["reason"] == "accept probability 1 on a no-instance"


# ---------------------------------------------------------------------------
# adversary
# ---------------------------------------------------------------------------


def test_adversary_fool_xoreq_json(capsys):
    assert main(["adversary", "fool-xoreq", "m1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "a equal"
    assert payload["machine"] == "m1"
    assert payload["collision"] == ["q3", 2]
    assert payload["word_yes"] == "00#00#0000#00#000###0"
    assert payload["word_no"] == "00#0000#0000#00#000###0"
    assert payload["machine_accepts"] is False


def test_adversary_fool_xoreq_whole_json(capsys):
    assert main(["adversary", "fool-xoreq", "m1", "--max-n", "16"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "case": "a equal",
        "collision": ["q3", 2],
        "machine": "m1",
        "machine_accepts": False,
        "prefix_no": [2, 4],
        "prefix_yes": [2, 2],
        "suffix": [4, 2, 3, 0, 0, 1],
        "word_no": "00#0000#0000#00#000###0",
        "word_yes": "00#00#0000#00#000###0",
    }


def test_adversary_fool_xoreq_max_n_zero_is_a_usage_error(capsys):
    assert main(["adversary", "fool-xoreq", "m1", "--max-n", "0"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err


def test_adversary_fool_xoreq_wrong_class(capsys):
    assert main(["adversary", "fool-xoreq", "onenone-lv"]) == EXIT_INVALID
    assert "deterministic" in capsys.readouterr().err


def test_adversary_pump_wrong_class(capsys):
    assert main(["adversary", "pump-u1bca", "m1"]) == EXIT_INVALID
    assert "u1bca" in capsys.readouterr().err


def test_adversary_pump_from_file(tmp_path, capsys):
    path = tmp_path / "u.cma"
    path.write_text(emit(u_branchy()), encoding="utf-8")
    assert main(["adversary", "pump-u1bca", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "pumped-reject"
    assert payload["witness_word"] == "aaaabbb"
    assert payload["final_config"] == ["t", 3]


def test_adversary_pump_whole_json(tmp_path, capsys):
    path = tmp_path / "u.cma"
    path.write_text(emit(u_branchy()), encoding="utf-8")
    assert main(["adversary", "pump-u1bca", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "base_word": "aaabbb",
        "detail": "a rejecting path pumped through the first-block cycle rejects "
        "a member of the complement of (a^n b^n)*",
        "final_config": ["t", 3],
        "kind": "pumped-reject",
        "machine": "u-branchy",
        "pump_gap": 1,
        "repeated_state": "s",
        "witness_word": "aaaabbb",
    }


def test_adversary_brute_zoo_machine_survives(capsys):
    code = main(["adversary", "brute", "xoreq-q1ca", "--max-n", "4"])
    assert code == EXIT_EXHAUSTED
    out = capsys.readouterr().out
    assert out == "no refutation: xoreq-q1ca is consistent with xor-eq up to 4\n"


def test_adversary_brute_refutes_file_machine(tmp_path, capsys):
    path = tmp_path / "m1.cma"
    path.write_text(emit(get_entry("m1").machine), encoding="utf-8")
    code = main(
        ["adversary", "brute", str(path), "--problem", "xor-eq", "--max-n", "4"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["input"] == "00#00#00#00####"
    assert payload["label"] == "no"
    assert payload["accept"] == "1/1"
    assert payload["reason"] == "expected accept=0 on a no-instance, got 1"


def test_adversary_brute_without_instances_is_a_usage_error(capsys):
    # The same bound that batch refuses: nothing is scanned, so nothing is shown.
    code = main(["adversary", "brute", "onenone-lv-t2", "--max-n", "4"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == "no instances of one-none-t2 up to --max-n 4\n"
    assert captured.out == ""


def test_adversary_brute_missing_arguments(tmp_path, capsys):
    code = main(["adversary", "brute", "xoreq-q1ca"])
    assert code == EXIT_INVALID
    assert "--max-n" in capsys.readouterr().err

    path = tmp_path / "m1.cma"
    path.write_text(emit(get_entry("m1").machine), encoding="utf-8")
    code = main(["adversary", "brute", str(path), "--max-n", "4"])
    assert code == EXIT_INVALID
    assert "--problem" in capsys.readouterr().err


def test_adversary_unknown_machine(capsys):
    assert main(["adversary", "fool-xoreq", "ghost"]) == EXIT_IO
    capsys.readouterr()


# ---------------------------------------------------------------------------
# zoo
# ---------------------------------------------------------------------------


def test_zoo_list(capsys):
    assert main(["zoo", "list"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(zoo_names())
    assert lines[0] == "m1\td1ca\txor-eq"
    for line in lines:
        name, tag, problem = line.split("\t")
        assert name in zoo_names()


def test_zoo_emit_round_trips(tmp_path, capsys):
    out = tmp_path / "onenone.cma"
    assert main(["zoo", "emit", "onenone-lv", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert parse_file(out) == get_entry("onenone-lv").machine


def test_zoo_emit_to_stdout(capsys):
    assert main(["zoo", "emit", "eq-star-complement-d1ca"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("machine eq-star-complement-d1ca\n")
    assert out == emit(get_entry("eq-star-complement-d1ca").machine)


def test_zoo_emit_into_a_closed_pipe_exits_quietly():
    # The 200 KB text overfills the pipe, so the writer meets the closed end.
    # Unbuffered, the interpreter would drop the short write without an error.
    env = {**os.environ, "PYTHONPATH": str(Path(ocalab.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ocalab.cli", "zoo", "emit", "xoreq-q1ca"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"machine xoreq-q1ca\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == EXIT_IO
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_zoo_emit_into_a_closed_pipe_fails_in_both_modes(unbuffered):
    # Unbuffered, the text layer used to drop the short write and exit 0.
    env = {**os.environ, "PYTHONPATH": str(Path(ocalab.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ocalab.cli", "zoo", "emit", "xoreq-q1ca"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"machine xoreq-q1ca\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == EXIT_IO
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_zoo_emit_into_a_text_only_stdout():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["zoo", "emit", "m1"]) == EXIT_OK
    assert out.getvalue() == emit(get_entry("m1").machine)


def test_zoo_emit_unknown_name(capsys):
    assert main(["zoo", "emit", "ghost"]) == EXIT_INVALID
    assert "unknown zoo machine" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["eq-star-p1bca-k10", "onenone-lv-t0", "eq3-p1bca-k1"]
)
def test_run_out_of_range_family_parameter_is_a_usage_error(name, capsys):
    code = main(["run", name, "--input", "ab"])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"{name}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_batch_and_emit_out_of_range_family_parameter(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["batch", "--zoo", "eq3-p1bca-k1", "--max-n", "2", "--out", str(out)]) == EXIT_INVALID
    assert "k must be" in capsys.readouterr().err
    assert not out.exists()
    assert main(["zoo", "emit", "onenone-lv-t0"]) == EXIT_INVALID
    assert "t must be" in capsys.readouterr().err


def test_run_refuses_a_huge_family_parameter_at_once(capsys):
    # The bound is checked before anything is built from t: (2/3)^t would
    # take gigabits at this t.
    assert main(["run", "onenone-lv-t1000000000", "--input", "ad"]) == EXIT_INVALID
    assert capsys.readouterr().err == "onenone-lv-t1000000000: t must be in 1..25\n"
    assert main(["run", "onenone-lv-t25", "--input", "ad"]) == EXIT_OK
    capsys.readouterr()


# ---------------------------------------------------------------------------
# References the file system cannot look up, and other error paths
# ---------------------------------------------------------------------------

BROKEN_CMA = (
    "machine b\nclass p1ca\nalphabet a\nstates s\ninitial s\naccept s\n"
    "trans s , a , Z -> s , 0 @ 1/2\n"
)


def test_too_long_references_are_no_such_file(tmp_path, capsys):
    ref = "x" * 300  # past the file-name limit: looking it up raises OSError
    out = tmp_path / "r.json"
    for argv in (
        ["run", ref, "--input", "ad"],
        ["batch", ref, "--problem", "eq3", "--max-n", "2", "--out", str(out)],
        ["adversary", "brute", ref, "--max-n", "2"],
    ):
        assert main(argv) == EXIT_IO, argv[0]
        assert capsys.readouterr().err == f"{ref}: no such file and no such zoo machine\n"
    assert main(["validate", ref]) == EXIT_IO
    assert capsys.readouterr().err == f"{ref}: no such file\n"
    assert not out.exists()

    # A family name too long to look up still reaches the zoo's own check.
    name = "onenone-lv-t" + "1" * 5000
    for argv in (["run", name, "--input", "ad"], ["zoo", "emit", name]):
        assert main(argv) == EXIT_INVALID, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"{name}: ") and err.count("\n") == 1


def test_run_broken_file_prints_its_diagnostics(tmp_path, capsys):
    path = tmp_path / "broken.cma"
    path.write_text(BROKEN_CMA, encoding="utf-8")
    assert main(["run", str(path), "--input", "a"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: [prob-sum]" in captured.err


def test_run_and_validate_a_directory_are_io_errors(tmp_path, capsys):
    assert main(["run", str(tmp_path), "--input", "a"]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"cannot read {tmp_path}: ")
    assert main(["validate", str(tmp_path)]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"{tmp_path}: ")


def test_batch_stops_on_the_first_foreign_symbol(tmp_path, capsys):
    path = tmp_path / "m1.cma"
    path.write_text(emit(get_entry("m1").machine), encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(["batch", str(path), "--problem", "eq3", "--max-n", "2", "--out", str(out)])
    assert code == EXIT_INVALID
    assert "is not in the machine alphabet" in capsys.readouterr().err
    assert not out.exists()


def test_run_sample_on_a_foreign_symbol_is_a_usage_error(capsys):
    argv = ["run", "eq-star-p1bca-k3", "--input", "ax", "--sample", "--seed", "1"]
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err == "input symbol 'x' is not in the machine alphabet\n"
