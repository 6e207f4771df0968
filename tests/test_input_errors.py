"""Input errors end to end: every documented bad input fails with its own
typed error and message, and the CLI turns each into one exit code."""
import dataclasses

import pytest

from helpers import F, L, R, det_a5b, hadamard2, mk
from ocalab import (
    OUTSIDE,
    EngineError,
    MachineClass,
    ParseError,
    SimulationError,
    Verdict,
    classify_onenone_t,
    emit,
    evolve,
    get_entry,
    measure,
    parse_with_diagnostics,
    require_valid,
    step,
    validate_machine,
    verdict_of,
)
from ocalab.adversary import FoolingPair, fool_xoreq_d1ca
from ocalab.cli import EXIT_INVALID, main
from ocalab.dsl import parse_amplitude, parse_file
from ocalab.kernel import run_word
from ocalab.problems import xoreq_word
from ocalab.zoo import ClaimedBounds, list_entries

# ---------------------------------------------------------------------------
# .cma diagnostics
# ---------------------------------------------------------------------------

BASE = """\
machine t
class d1ca
alphabet a
states s
initial s
accept s
trans s , LEND , * -> s , 0
trans s , a , * -> s , 0
trans s , REND , * -> s , 0
"""

MALFORMED = (
    "10:1: error: malformed transition line; expected "
    "'trans <state> , <sym> , <Z|NZ|*> -> <state> , <delta> [@ <weight>]'"
)


def test_base_text_parses():
    machine, diagnostics = parse_with_diagnostics(BASE)
    assert machine is not None and diagnostics == []


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            BASE.replace("machine t\n", "machine t u\n"),
            ["1:1: error: 'machine' needs exactly one argument"],
        ),
        (BASE + "maxstep x\n", ["10:9: error: malformed integer 'x'"]),
        (
            BASE.replace("alphabet a", "alphabet a a"),
            ["3:12: error: duplicate alphabet symbol 'a'"],
        ),
        (
            BASE + "trans s , a , Z -> s ,\n",
            ["10:22: error: transition line ends early; expected counter delta"],
        ),
        (BASE + "trans s a Z -> s , 0\n", [MALFORMED]),
        (
            BASE + "trans s , a , Z -> s , 0 x\n",
            ["10:26: error: unexpected token 'x'; expected '@' or end of line"],
        ),
        (BASE + "trans s , a , Z -> s , 0 @\n", ["10:26: error: '@' with no weight"]),
        (
            BASE.replace("class d1ca\n", "class d1ca p1ca\n"),
            ["2:1: error: 'class' needs exactly one argument"],
        ),
        (
            BASE.replace("initial s\n", "initial\n"),
            ["5:1: error: 'initial' needs exactly one argument"],
        ),
    ],
)
def test_cma_diagnostics(text, expected):
    machine, diagnostics = parse_with_diagnostics(text)
    assert machine is None
    assert [str(d) for d in diagnostics] == expected


def test_missing_states_comes_first():
    machine, diagnostics = parse_with_diagnostics(BASE.replace("states s\n", ""))
    assert machine is None
    assert str(diagnostics[0]) == "1:1: error: missing 'states' directive"
    assert all("undeclared state 's'" in str(d) for d in diagnostics[1:])


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", "1:1: error: empty amplitude"),
        ("i", "1:1: error: amplitude has no terms"),
        ("1 + - 1", "1:5: error: two sign tokens in a row"),
        ("1 2", "1:3: error: expected + or - before '2'"),
        ("1 +", "1:3: error: dangling sign at end of amplitude"),
        ("1 r2 + 1 r2", "1:8: error: two r2 terms in one part"),
        ("1 r2 + 1", "1:8: error: malformed amplitude part"),
    ],
)
def test_parse_amplitude_errors(text, expected):
    with pytest.raises(ParseError) as exc_info:
        parse_amplitude(text)
    assert str(exc_info.value) == expected


def test_emit_rejects_a_symbol_with_a_space():
    machine = dataclasses.replace(hadamard2(), alphabet=("a b",))
    with pytest.raises(EngineError, match="cannot be written in the text format"):
        emit(machine)


# ---------------------------------------------------------------------------
# Machine validation and the kernel's weight types
# ---------------------------------------------------------------------------


def one_state(tag, weight):
    """One accepting state that loops on every symbol with ``weight``."""
    rows = [("s", symbol, "*", [("s", 0, weight)]) for symbol in (L, "a", R)]
    return mk("w", tag, "a", ("s",), "s", ("s",), rows)


def test_validate_empty_symbol():
    machine = dataclasses.replace(hadamard2(), alphabet=("a", ""))
    assert [str(v) for v in validate_machine(machine)] == [
        "[alphabet-empty-symbol] empty string is not a symbol"
    ]


def test_validate_quantum_fraction_weights():
    violations = validate_machine(one_state("q1ca", F(1)))
    assert len(violations) == 6
    assert {v.code for v in violations} == {"weight"}
    assert all(
        str(v).endswith("quantum transitions need Amplitude weights") for v in violations
    )


def test_require_valid_counts_what_it_does_not_show():
    with pytest.raises(SimulationError, match=r"\(and 1 more\)$"):
        require_valid(one_state("q1ca", F(1)))


@pytest.mark.parametrize(
    "tag, message",
    [
        ("p1ca", "classical transitions need Fraction weights"),
        ("q1ca", "quantum transitions need Amplitude weights"),
    ],
)
def test_kernel_rejects_float_weights(tag, message):
    with pytest.raises(SimulationError, match=message):
        run_word(one_state(tag, 1.0), "a")


def test_exact_edges_refuse_inexact_values():
    m1 = get_entry("m1").machine
    xoreq = get_entry("xoreq-q1ca").machine
    calls = (
        (lambda: step(m1, {("q1", 0): 0.5}, "0"), r"\('q1', 0\) holds 0.5, not one of int, Fraction$"),
        (lambda: verdict_of(m1, {("q1", 0): 0.5}), r"\('q1', 0\) holds 0.5, not one of int, Fraction$"),
        (lambda: evolve(xoreq, {("q0", 0): 0.5}, "0"), r"\('q0', 0\) holds 0.5, not one of int, Fraction, Amplitude$"),
        (lambda: measure(xoreq, {("q0", 0): "x"}), r"\('q0', 0\) holds 'x', not one of int, Fraction, Amplitude$"),
    )
    for call, message in calls:
        with pytest.raises(SimulationError, match=message):
            call()


# ---------------------------------------------------------------------------
# Problems, claims and the registry
# ---------------------------------------------------------------------------


def test_xoreq_word_rejects_negative_blocks():
    with pytest.raises(EngineError, match="block lengths must be nonnegative"):
        xoreq_word(-1, 0, 0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("word", ["xad", "adx"])
def test_onenone_stray_letters_are_outside(word):
    assert classify_onenone_t(word, 1) == OUTSIDE


def test_las_vegas_claim_refuses_reject_on_yes():
    bounds = ClaimedBounds(F(0), F(0), F(1))
    verdict = Verdict(F(0), F(1), F(0))
    assert bounds.violation("yes", verdict) is None
    assert (
        bounds.violation("yes", verdict, las_vegas=True)
        == "reject probability 1 on a yes-instance"
    )


def test_las_vegas_claim_refuses_accept_on_no():
    verdict = Verdict(F(1), F(0), F(0))
    loose = ClaimedBounds(F(0), F(1), F(1))
    assert loose.violation("no", verdict) is None
    assert loose.violation("no", verdict, las_vegas=True) == "accept probability 1 on a no-instance"
    # a no-bound of 0 is broken first, with its own message
    assert (
        ClaimedBounds(F(0), F(0), F(1)).violation("no", verdict, las_vegas=True)
        == "accept 1 above claimed no-bound 0"
    )


def test_probabilistic_class_has_no_modal_reading():
    with pytest.raises(ValueError, match="p1ca has no modal reading"):
        MachineClass.P1CA.decides_yes(F(1))


def test_list_entries_holds_the_representatives():
    assert [entry.name for entry in list_entries()] == [
        "m1",
        "m2",
        "xoreq-q1ca",
        "onenone-lv",
        "onenone-lv-t2",
        "eq-star-p1bca-k3",
        "eq3-p1bca-k4",
        "eq-star-complement-d1ca",
        "lang-L-p1ca-k3",
    ]


# ---------------------------------------------------------------------------
# The fooling-pair bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 2, 0, -5])
def test_fooling_bound_below_two_even_prefixes(m1, n):
    with pytest.raises(
        EngineError, match=f"^prefix bound {n} is below 4, the least with two even prefixes$"
    ):
        fool_xoreq_d1ca(m1, n=n)


def test_fooling_at_the_least_bound(m1):
    assert fool_xoreq_d1ca(m1, n=4) == FoolingPair(
        word_yes="00#00#0000#00#000###0",
        word_no="00#0000#0000#00#000###0",
        prefix_yes=(2, 2),
        prefix_no=(2, 4),
        collision=("q3", 2),
        case="a equal",
        suffix=(4, 2, 3, 0, 0, 1),
        machine_accepts=False,
    )


def test_fooling_without_collision_asks_for_a_larger_bound():
    with pytest.raises(
        SimulationError,
        match=r"^no configuration collision among even prefixes up to 8; raise the bound$",
    ):
        fool_xoreq_d1ca(det_a5b(), n=8)


def test_cli_fooling_bound_below_four(capsys):
    assert main(["adversary", "fool-xoreq", "m1", "--max-n", "2"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "prefix bound 2 is below 4, the least with two even prefixes\n"


# ---------------------------------------------------------------------------
# The CLI: exit code, stdout and stderr of each invocation
# ---------------------------------------------------------------------------

BROKEN = (
    "machine b\nclass p1ca\nalphabet a\nstates s\ninitial s\naccept s\n"
    "trans s , a , Z -> s , 0 @ 1/2\n"
)
BIG = (
    "machine big\nclass q1ca\nalphabet a\nstates s\ninitial s\naccept s\n"
    "maxstep 100000000\ntrans s , a , * -> s , 0\n"
    "trans s , LEND , * -> s , 0\ntrans s , REND , * -> s , 0\n"
)
PROB_SUM = "7:1: error: [prob-sum] (s, a, Z): branch probabilities must sum to 1, got 1/2\n"
WINDOW = (
    "1:1: error: [unitarity-window] unitarity window of 2 states x 600000001 "
    "counter values exceeds 200000 configurations; lower maxstep\n"
)
FOOL_M1 = """\
{
  "case": "a equal",
  "collision": [
    "q3",
    2
  ],
  "machine": "m1",
  "machine_accepts": false,
  "prefix_no": [
    2,
    4
  ],
  "prefix_yes": [
    2,
    2
  ],
  "suffix": [
    4,
    2,
    3,
    0,
    0,
    1
  ],
  "word_no": "00#0000#0000#00#000###0",
  "word_yes": "00#00#0000#00#000###0"
}
"""
ZOO_LIST = """\
m1\td1ca\txor-eq
m2\td1ca\txor-eq
xoreq-q1ca\tq1ca\txor-eq
onenone-lv\tlv-p1ca\tone-none-t1
onenone-lv-t2\tlv-p1ca\tone-none-t2
eq-star-p1bca-k3\tp1bca\teq-star
eq3-p1bca-k4\tp1bca\teq3
eq-star-complement-d1ca\td1ca\teq-star-complement
lang-L-p1ca-k3\tp1ca\tlang-L
"""

# (arguments with {tmp} for the working directory, exit code, stdout, stderr);
# TMP in the expected texts stands for that directory.
CLI_CASES = [
    ("validate {tmp}/good.cma", 0, "OK\n", ""),
    ("validate {tmp}/broken.cma", 2, PROB_SUM, ""),
    ("validate {tmp}/big.cma", 2, WINDOW, ""),
    ("validate {tmp}/dir", 1, "", "TMP/dir: [Errno 21] Is a directory: 'TMP/dir'\n"),
    ("validate {tmp}/missing.cma", 1, "", "TMP/missing.cma: no such file\n"),
    ("run {tmp}/good.cma --input 00#00#00#00####", 0, "accept=1/1 reject=0/1 dontknow=0/1\n", ""),
    ("run {tmp}/broken.cma --input a", 2, "", PROB_SUM),
    ("run {tmp}/big.cma --input a", 2, "", WINDOW),
    ("run {tmp}/dir --input a", 1, "", "cannot read TMP/dir: [Errno 21] Is a directory: 'TMP/dir'\n"),
    ("run {tmp}/missing.cma --input a", 1, "", "TMP/missing.cma: no such file and no such zoo machine\n"),
    ("run m1 --input abc", 2, "", "input symbol 'a' is not in the machine alphabet\n"),
    ("run onenone-lv --input adaabddd --sample --seed 7", 0, "accept\n", ""),
    ("run onenone-lv --input adaabddd --sample", 2, "", "--sample requires an explicit --seed\n"),
    ("run onenone-lv --input xyz --sample --seed 7", 2, "", "input symbol 'x' is not in the machine alphabet\n"),
    ("run xoreq-q1ca --input 00# --sample --seed 1", 2, "", "--sample supports classical machines only\n"),
    ("batch --zoo m1 --max-n 4 --out {tmp}/out.json", 0, "", ""),
    ("batch {tmp}/good.cma --problem xor-eq --max-n 4 --out {tmp}/out.json", 0, "", ""),
    ("batch --zoo m1 --problem three-sat --max-n 4 --out {tmp}/out.json", 2, "", "unknown problem name: 'three-sat'\n"),
    ("batch --zoo ghost --max-n 4 --out {tmp}/out.json", 2, "", "unknown zoo machine 'ghost'\n"),
    ("batch --zoo eq-star-p1bca-k99 --max-n 4 --out {tmp}/out.json", 2, "", "eq-star-p1bca-k99: k must be in 2..9\n"),
    ("batch {tmp}/good.cma --max-n 4 --out {tmp}/out.json", 2, "", "--problem is required for file machines\n"),
    ("batch {tmp}/good.cma --zoo m1 --max-n 4 --out {tmp}/out.json", 2, "", "provide exactly one of <file.cma> or --zoo <name>\n"),
    ("batch {tmp}/broken.cma --problem xor-eq --max-n 4 --out {tmp}/out.json", 2, "", PROB_SUM),
    ("batch --zoo m1 --max-n -1 --out {tmp}/out.json", 2, "", "size bound must be nonnegative, got -1\n"),
    ("batch --zoo onenone-lv-t2 --max-n 4 --out {tmp}/out.json", 2, "", "no instances of one-none-t2 up to --max-n 4\n"),
    (
        "batch --zoo m1 --max-n 4 --out {tmp}/nodir/out.json",
        1,
        "",
        "cannot write TMP/nodir/out.json: [Errno 2] No such file or directory: 'TMP/nodir/out.json'\n",
    ),
    ("adversary fool-xoreq m1", 0, FOOL_M1, ""),
    (
        "adversary fool-xoreq onenone-lv",
        2,
        "",
        "machine 'onenone-lv' is lv-p1ca; this procedure needs a deterministic machine\n",
    ),
    ("adversary fool-xoreq {tmp}/missing.cma", 1, "", "TMP/missing.cma: no such file and no such zoo machine\n"),
    ("adversary pump-u1bca m1", 2, "", "machine 'm1' is d1ca; expected u1bca\n"),
    ("adversary brute xoreq-q1ca --max-n 4", 3, "no refutation: xoreq-q1ca is consistent with xor-eq up to 4\n", ""),
    ("adversary brute m1 --problem three-sat --max-n 4", 2, "", "unknown problem name: 'three-sat'\n"),
    ("adversary brute {tmp}/good.cma --max-n 4", 2, "", "brute needs --problem (or a zoo machine)\n"),
    ("adversary brute onenone-lv-t2 --max-n 4", 2, "", "no instances of one-none-t2 up to --max-n 4\n"),
    ("zoo list", 0, ZOO_LIST, ""),
    ("zoo emit ghost", 2, "", "unknown zoo machine 'ghost'\n"),
    (
        "zoo emit m1 --out {tmp}/nodir/m1.cma",
        1,
        "",
        "cannot write TMP/nodir/m1.cma: [Errno 2] No such file or directory: 'TMP/nodir/m1.cma'\n",
    ),
]


@pytest.mark.parametrize(
    "command, code, out, err", CLI_CASES, ids=[case[0] for case in CLI_CASES]
)
def test_cli_invocation(tmp_path, capsys, command, code, out, err):
    (tmp_path / "good.cma").write_text(emit(get_entry("m1").machine), encoding="utf-8")
    (tmp_path / "broken.cma").write_text(BROKEN, encoding="utf-8")
    (tmp_path / "big.cma").write_text(BIG, encoding="utf-8")
    (tmp_path / "dir").mkdir()
    assert main(command.format(tmp=tmp_path).split()) == code
    captured = capsys.readouterr()
    assert captured.out.replace(str(tmp_path), "TMP") == out
    assert captured.err.replace(str(tmp_path), "TMP") == err


# A .cma file written as UTF-16 starts with the bytes ff fe.
NOT_UTF8_COMMANDS = [
    "validate {path}",
    "run {path} --input 00#",
    "batch {path} --problem xor-eq --max-n 4 --out {out}",
    "adversary brute {path} --problem xor-eq --max-n 4",
    "adversary fool-xoreq {path}",
]


@pytest.mark.parametrize("command", NOT_UTF8_COMMANDS)
def test_cli_refuses_a_file_that_is_not_utf8(tmp_path, capsys, command):
    path = tmp_path / "m1.cma"
    path.write_bytes(emit(get_entry("m1").machine).encode("utf-16"))
    out = tmp_path / "out.json"
    assert main(command.format(path=path, out=out).split()) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"1:1: error: {path} is not UTF-8 text: invalid start byte\n"
    assert not out.exists()


def test_parse_file_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.cma"
    path.write_bytes(BASE.replace("states s", "states s\xe9").encode("latin-1"))
    with pytest.raises(ParseError) as caught:
        parse_file(path)
    assert str(caught.value) == f"4:9: error: {path} is not UTF-8 text: invalid continuation byte"


# Some editors start a UTF-8 file with a byte-order mark, the bytes ef bb bf.
BOM = b"\xef\xbb\xbf"
BOM_COMMANDS = [
    "validate {path}",
    "run {path} --input 00#",
    "batch {path} --problem xor-eq --max-n 4 --out {out}",
]


@pytest.mark.parametrize("command", BOM_COMMANDS)
def test_cli_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path, capsys, command):
    path, out = tmp_path / "m1.cma", tmp_path / "out.json"
    text = emit(get_entry("m1").machine).encode()
    seen = []
    for data in (text, BOM + text):
        path.write_bytes(data)
        code = main(command.format(path=path, out=out).split())
        seen.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert seen[0][0] == 0
    assert seen[1] == seen[0]


def test_parse_file_drops_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "t.cma"
    path.write_bytes(BOM + BASE.encode())
    assert parse_file(path) == parse_with_diagnostics(BASE)[0]
    path.write_bytes(BOM + BROKEN.encode())
    with pytest.raises(ParseError) as caught:
        parse_file(path)
    assert str(caught.value) + "\n" == PROB_SUM
    path.write_bytes(BOM + BOM + BASE.encode())
    with pytest.raises(ParseError) as caught:
        parse_file(path)
    assert str(caught.value).startswith("1:1: error: unknown directive '\\ufeffmachine'")
