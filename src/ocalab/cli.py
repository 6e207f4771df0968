"""Command-line front end.

Commands:

- ``validate <file.cma>``: structural + unitarity validation, "OK" or one
  diagnostic per line.
- ``run <file.cma|zoo-name> --input <word> [--sample --seed <u64>]``:
  exact verdict as lowest-terms rationals, or one sampled outcome.
- ``batch <file.cma|--zoo <name>> --problem <p> --max-n <n> --out <json>``:
  per-instance verdicts plus exact summary aggregates; exit 0 iff the
  machine's claimed bounds (when a zoo machine) hold over the batch, and
  2 without a report when the bound admits no instance at all or passes
  the lengths a zoo claim covers.
- ``adversary <fool-xoreq|pump-u1bca|brute> <file.cma|zoo-name> ...``:
  constructive or empirical refutations as JSON; ``brute`` exits 2, as
  ``batch`` does, when the bound admits no instance or passes the claim.
- ``zoo <list|emit <name> [--out <file>]>``: stable machine registry.

Exit codes: 0 success, 1 I/O error (a reader that closes stdout early
included, with nothing on stderr), 2 validation/usage error (any library
``EngineError``, a violated claim, and a batch or brute search with no
instances, included), 3 search exhausted without a finding.  JSON output is
deterministic (sorted keys) and all probabilities print as exact "p/q" strings.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import tee
from json.encoder import encode_basestring
from pathlib import Path
from typing import Optional, Sequence

from . import adversary as adversary_mod
from . import zoo as zoo_mod
from .classical import sample_run
from .core import CounterMachine, EngineError, Verdict, format_exact
from .dsl import emit, parse_with_diagnostics, read_source
from .kernel import run_many, run_word
from .problems import NO, YES, get_problem

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3


def _fmt(value: Fraction) -> str:
    return format_exact("{}/{}", value.numerator, value.denominator)


def _verdict_fields(verdict: Verdict) -> dict[str, str]:
    return {
        "accept": _fmt(verdict.accept),
        "reject": _fmt(verdict.reject),
        "dontknow": _fmt(verdict.neutral),
    }


def _record_parts(label: str, verdict: Verdict) -> tuple[str, str]:
    """The text of a batch record before and after its JSON-encoded input,
    laid out as ``json.dumps(report, sort_keys=True, indent=2)`` lays out
    one element of ``report["instances"]``."""
    record = {"input": "", "label": label, **_verdict_fields(verdict)}
    text = json.dumps(record, sort_keys=True, indent=2, ensure_ascii=False)
    # An encoded string escapes its quotes, so only the key matches.
    head, tail = text.replace("\n", "\n    ").split('"input": ""')
    return f'    {head}"input": ', tail


def _out(text: str) -> None:
    """Write ``text`` to stdout in one write whose byte count is checked.

    Unbuffered (``PYTHONUNBUFFERED``), the text layer would drop what a
    reader that closed early did not take; a short write is a broken pipe.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream, such as io.StringIO, takes it whole
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = text.encode(sys.stdout.encoding, sys.stdout.errors)
    if buffer.write(data) != len(data):
        raise BrokenPipeError
    buffer.flush()


def _print_json(payload: object) -> None:
    _out(json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n")


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _zoo_entry(name: str, unknown: str, unknown_code: int) -> zoo_mod.ZooEntry:
    """Look up a zoo entry; a family parameter out of range is a usage error."""
    try:
        return zoo_mod.get_entry(name)
    except KeyError as exc:
        raise _CliError(unknown, unknown_code) from exc
    except ValueError as exc:
        raise _CliError(f"{name}: {exc}", EXIT_INVALID) from exc


def _load_machine(ref: str) -> tuple[CounterMachine, Optional[zoo_mod.ZooEntry]]:
    """Resolve a machine reference: a .cma path, or failing that a zoo name.

    A reference the file system cannot look up (too long a name, say)
    counts as no such file.
    """
    if os.path.exists(ref):
        try:
            text = read_source(ref)
        except OSError as exc:
            raise _CliError(f"cannot read {ref}: {exc}", EXIT_IO) from exc
        machine, diagnostics = parse_with_diagnostics(text)
        if machine is None:
            lines = "\n".join(str(d) for d in diagnostics)
            raise _CliError(lines, EXIT_INVALID)
        return machine, None
    entry = _zoo_entry(ref, f"{ref}: no such file and no such zoo machine", EXIT_IO)
    return entry.machine, entry


def _claim_rule(entry: Optional[zoo_mod.ZooEntry], max_n: int) -> Optional[adversary_mod.Rule]:
    """A zoo machine's claim check, Las Vegas soundness included; None for a file.

    A bound past the lengths the claim covers is a usage error."""
    if entry is None:
        return None
    bounds = entry.claimed_bounds
    if bounds.max_n is not None and max_n > bounds.max_n:
        raise _CliError(
            f"{entry.name} claims its bounds for n <= {bounds.max_n} only, not --max-n {max_n}",
            EXIT_INVALID,
        )
    return adversary_mod.bounds_rule(bounds, las_vegas=entry.machine.mclass.las_vegas)


def _cmd_validate(args: argparse.Namespace) -> int:
    if not os.path.exists(args.file):
        raise _CliError(f"{args.file}: no such file", EXIT_IO)
    try:
        text = read_source(args.file)
    except OSError as exc:
        raise _CliError(f"{args.file}: {exc}", EXIT_IO) from exc
    machine, diagnostics = parse_with_diagnostics(text)
    if machine is None:
        for diagnostic in diagnostics:
            print(diagnostic)
        return EXIT_INVALID
    print("OK")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    machine, _ = _load_machine(args.file)
    if args.sample:
        if machine.mclass.quantum:
            raise _CliError("--sample supports classical machines only", EXIT_INVALID)
        if args.seed is None:
            raise _CliError("--sample requires an explicit --seed", EXIT_INVALID)
        print(sample_run(machine, args.input, seed=args.seed))
        return EXIT_OK
    fields = _verdict_fields(run_word(machine, args.input))
    print(f"accept={fields['accept']} reject={fields['reject']} dontknow={fields['dontknow']}")
    return EXIT_OK


def _cmd_batch(args: argparse.Namespace) -> int:
    if (args.file is None) == (args.zoo is None):
        raise _CliError("provide exactly one of <file.cma> or --zoo <name>", EXIT_INVALID)
    if args.zoo is not None:
        entry: Optional[zoo_mod.ZooEntry] = _zoo_entry(
            args.zoo, f"unknown zoo machine {args.zoo!r}", EXIT_INVALID
        )
        machine = entry.machine
    else:
        machine, entry = _load_machine(args.file)
    problem_name = args.problem or (entry.problem if entry else None)
    if problem_name is None:
        raise _CliError("--problem is required for file machines", EXIT_INVALID)
    rule = _claim_rule(entry, args.max_n)
    instances, words = tee(get_problem(problem_name).instances(args.max_n))
    violated = False
    records = []
    min_yes: Optional[Fraction] = None
    max_no: Optional[Fraction] = None
    max_dontknow = Fraction(0)
    worst: Optional[tuple[str, str]] = None
    # run_many shares one Verdict among the words with the same outcome, so
    # each distinct (verdict, label) is formatted and summarised once: a
    # repeat cannot move the strict minimum or maximum.
    seen: dict[tuple[int, str], tuple[Verdict, str, str]] = {}
    for (word, label), verdict in zip(instances, run_many(machine, (w for w, _ in words))):
        hit = seen.get((id(verdict), label))
        if hit is None:
            hit = seen[(id(verdict), label)] = (verdict, *_record_parts(label, verdict))
            if rule is not None and rule(label, verdict) is not None:
                violated = True
            max_dontknow = max(max_dontknow, verdict.neutral)
            if label == YES and (min_yes is None or verdict.accept < min_yes):
                min_yes = verdict.accept
                worst = (word, label)
            if label == NO and (max_no is None or verdict.accept > max_no):
                max_no = verdict.accept
                if min_yes is None:
                    worst = (word, label)
        records.append(hit[1] + encode_basestring(word) + hit[2])
    if not records:
        raise _no_instances(problem_name, args.max_n)

    summary: dict[str, object] = {
        "min_accept_on_yes": None if min_yes is None else _fmt(min_yes),
        "max_accept_on_no": None if max_no is None else _fmt(max_no),
        "max_dontknow": _fmt(max_dontknow),
        "worst_case_instance": None
        if worst is None
        else {"input": worst[0], "label": worst[1]},
    }
    report = {
        "problem": problem_name,
        "machine": machine.name,
        "max_n": args.max_n,
        "summary": summary,
    }
    # "instances" sorts first, so the report is the records then the rest
    # of json.dumps(report, sort_keys=True, indent=2) after its "{\n".
    rest = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False)
    _write(args.out, '{\n  "instances": [\n' + ",\n".join(records) + "\n  ],\n" + rest[2:] + "\n")

    if violated:
        print(
            f"claimed bounds violated for {entry.name}: "
            f"min accept on yes {None if min_yes is None else _fmt(min_yes)}, "
            f"max accept on no {None if max_no is None else _fmt(max_no)}, "
            f"max dontknow {_fmt(max_dontknow)}",
            file=sys.stderr,
        )
        return EXIT_INVALID
    return EXIT_OK


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}", EXIT_IO) from exc


def _no_instances(problem_name: str, max_n: int) -> _CliError:
    """A sweep whose bound admits no instance checks nothing: a usage error."""
    return _CliError(f"no instances of {problem_name} up to --max-n {max_n}", EXIT_INVALID)


def _cmd_adversary(args: argparse.Namespace) -> int:
    machine, entry = _load_machine(args.file)
    if args.op in ("fool-xoreq", "pump-u1bca"):
        if args.op == "fool-xoreq":
            n = 64 if args.max_n is None else args.max_n
            found = adversary_mod.fool_xoreq_d1ca(machine, n=n)
        else:
            found = adversary_mod.pump_u1bca(machine)
        _print_json({**dataclasses.asdict(found), "machine": machine.name})
        return EXIT_OK
    # brute
    problem_name = args.problem or (entry.problem if entry else None)
    if problem_name is None:
        raise _CliError("brute needs --problem (or a zoo machine)", EXIT_INVALID)
    if args.max_n is None:
        raise _CliError("brute needs --max-n", EXIT_INVALID)
    rule = _claim_rule(entry, args.max_n)
    if next(get_problem(problem_name).instances(args.max_n), None) is None:
        raise _no_instances(problem_name, args.max_n)
    result = adversary_mod.brute_refute(machine, problem_name, args.max_n, rule)
    if result is None:
        print(
            f"no refutation: {machine.name} is consistent with "
            f"{problem_name} up to {args.max_n}"
        )
        return EXIT_EXHAUSTED
    payload = {
        "input": result.word,
        "label": result.label,
        "reason": result.reason,
        "machine": machine.name,
        **_verdict_fields(result.verdict),
    }
    _print_json(payload)
    return EXIT_OK


def _cmd_zoo(args: argparse.Namespace) -> int:
    if args.zoo_op == "list":
        for name in zoo_mod.zoo_names():
            entry = zoo_mod.get_entry(name)
            print(f"{name}\t{entry.machine.mclass.tag}\t{entry.problem}")
        return EXIT_OK
    entry = _zoo_entry(args.name, f"unknown zoo machine {args.name!r}", EXIT_INVALID)
    text = emit(entry.machine)
    if args.out is None:
        _out(text)
    else:
        _write(args.out, text)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocalab",
        description="Exact simulation laboratory for one-way one-counter machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a .cma machine file")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="run a machine on one input word")
    p_run.add_argument("file", help=".cma file or zoo machine name")
    p_run.add_argument("--input", required=True)
    p_run.add_argument("--sample", action="store_true", help="draw one outcome")
    p_run.add_argument("--seed", type=int, default=None, help="RNG seed for --sample")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run a machine over a problem's instances")
    p_batch.add_argument("file", nargs="?", default=None, help=".cma file")
    p_batch.add_argument("--zoo", default=None, help="zoo machine name")
    p_batch.add_argument("--problem", default=None)
    p_batch.add_argument("--max-n", type=int, required=True)
    p_batch.add_argument("--out", required=True, help="report JSON path")
    p_batch.set_defaults(func=_cmd_batch)

    p_adv = sub.add_parser("adversary", help="refutation procedures")
    p_adv.add_argument("op", choices=("fool-xoreq", "pump-u1bca", "brute"))
    p_adv.add_argument("file", help=".cma file or zoo machine name")
    p_adv.add_argument("--problem", default=None)
    p_adv.add_argument("--max-n", type=int, default=None)
    p_adv.set_defaults(func=_cmd_adversary)

    p_zoo = sub.add_parser("zoo", help="machine registry")
    zoo_sub = p_zoo.add_subparsers(dest="zoo_op", required=True)
    zoo_sub.add_parser("list", help="list stable machine names")
    p_emit = zoo_sub.add_parser("emit", help="write a zoo machine as .cma")
    p_emit.add_argument("name")
    p_emit.add_argument("--out", default=None)
    p_zoo.set_defaults(func=_cmd_zoo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help; normalize.
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader left early; send the flush at exit to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except EngineError as exc:  # the one place a library error becomes exit 2
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
