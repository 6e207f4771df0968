"""Text format for counter machines: parse and emit ``.cma`` files.

The format is line oriented.  ``#`` starts a comment, so the tape symbol
``#`` is written with the alias token ``HASH``; likewise the endmarkers are
written ``LEND`` and ``REND``.  Whitespace separates tokens, and ``,``,
``@``, ``*`` and ``->`` are tokens of their own, so they need no spaces
and no name may contain them.  Diagnostics point at 1-based ``line:col``
spans.  Directives:

    machine <id>
    class <d1ca|d1bca|p1ca|p1bca|n1bca|u1bca|q1ca|lv-p1ca|lv-p1bca>
    alphabet <sym>*
    states <id>+
    initial <id>
    accept <id>*
    neutral <id>*
    maxstep <int>
    trans <state> , <sym|LEND|REND> , <Z|NZ|*> -> <state> , <delta> [@ <weight>]

``*`` in the status slot expands to both Z and NZ rows; blind machine
classes must use ``*`` on every transition line.  Several ``trans`` lines
with the same (state, symbol, status) accumulate branches of one row.
Classical weights are rationals like ``1/3``; if no branch of a row carries
a weight the row is filled uniformly.  Quantum amplitudes are elements of
Q(sqrt2)+i*Q(sqrt2) written as sign-joined terms, e.g. ``-1/2 r2`` or
``1/2 + 0 - 1/2 r2 i``; a missing amplitude means 1.

Emission is canonical: ``parse(emit(m))`` reconstructs a machine that is
structurally equal to ``m``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path

from .amplitudes import AMP_ONE, Amplitude
from .core import (
    ENDMARKERS,
    LEFT_END,
    NZ,
    RIGHT_END,
    SINK,
    STATUSES,
    Z,
    CounterMachine,
    EngineError,
    MachineClass,
    TransEntry,
    TransKey,
    validate_machine,
)

__all__ = [
    "ParseDiagnostic",
    "ParseError",
    "SourceSpan",
    "emit",
    "parse",
    "parse_file",
    "parse_with_diagnostics",
]

ERROR = "error"  # the only severity: every diagnostic is an error

_SYMBOL_ALIASES = {"LEND": LEFT_END, "REND": RIGHT_END, "HASH": "#"}
_SYMBOL_NAMES = {v: k for k, v in _SYMBOL_ALIASES.items()}
_RESERVED_TOKENS = set(_SYMBOL_ALIASES) | {"Z", "NZ", "trans", "->", ",", "@", "*"}

# A word runs up to whitespace, ``,``, ``@``, ``*`` or ``->``.
_TOKEN_RE = re.compile(
    r"->|[,@*]|[^\s,@*-]+(?:-(?!>)[^\s,@*-]*)*|-(?!>)[^\s,@*-]*(?:-(?!>)[^\s,@*-]*)*"
)


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a token (or region) in the source text."""

    line: int
    column: int
    length: int

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1:
            raise ValueError("SourceSpan positions are 1-based")


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    severity: str
    message: str

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.column}: {self.severity}: {self.message}"


class ParseError(EngineError):
    """Raised by :func:`parse` when the text has diagnostics."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        head = str(diagnostics[0]) if diagnostics else "parse failed"
        more = f" (+{len(diagnostics) - 1} more)" if len(diagnostics) > 1 else ""
        super().__init__(head + more)


def _span(body: str, lineno: int, index: int) -> SourceSpan:
    """The span of token ``index`` of one line body, found by scanning it again."""
    match = next(islice(_TOKEN_RE.finditer(body), index, None), None)
    if match is None:  # no such token: the empty amplitude
        return SourceSpan(lineno, 1, 1)
    return SourceSpan(lineno, match.start() + 1, len(match.group()))


class _AmpError(Exception):
    """A weight literal that does not parse, at token ``index`` of the literal."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message, self.index = message, index


def _parse_rational(text: str, index: int) -> Fraction:
    """An exponent is refused: ``Fraction('1e-999999999')`` builds a 415 MB power of ten."""
    try:
        if "e" in text or "E" in text:
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _AmpError(f"malformed rational {text!r}", index) from exc


def _parse_amplitude(toks: list[str]) -> Amplitude:
    """Parse sign-joined terms, optionally ending in ``i``.

    A *term* is ``<rat>`` or ``<rat> r2``.  A *group* is at most one plain
    term and at most one r2 term, plain first.  The amplitude is one group,
    or two groups with the second followed by ``i``; the split before the
    trailing ``i`` is recovered greedily and is unambiguous for any text
    this module emits.
    """
    if not toks:
        raise _AmpError("empty amplitude", 0)
    has_i = toks[-1] == "i"
    body = toks[:-1] if has_i else toks
    if not body:
        raise _AmpError("amplitude has no terms", len(toks) - 1)

    terms: list[tuple[Fraction, bool, int]] = []  # (value, is r2, token index)
    sign = 1
    want_term = True
    for index, tok in enumerate(body):
        if tok in ("+", "-"):
            if want_term and terms:
                raise _AmpError("two sign tokens in a row", index)
            sign = 1 if tok == "+" else -1
            want_term = True
        elif tok == "r2":
            if want_term or not terms or terms[-1][1]:
                raise _AmpError("stray r2 token", index)
            value, _, first = terms[-1]
            terms[-1] = (value, True, first)
        else:
            if not want_term and terms:
                raise _AmpError(f"expected + or - before {tok!r}", index)
            terms.append((sign * _parse_rational(tok, index), False, index))
            sign = 1
            want_term = False
    if want_term and terms:
        raise _AmpError("dangling sign at end of amplitude", len(body) - 1)

    def fold(group: list[tuple[Fraction, bool, int]]) -> tuple[Fraction, Fraction]:
        rat = Fraction(0)
        s2 = Fraction(0)
        seen_rat = seen_s2 = False
        for value, is_r2, index in group:
            if is_r2:
                if seen_s2:
                    raise _AmpError("two r2 terms in one part", index)
                s2, seen_s2 = value, True
            else:
                if seen_rat or seen_s2:
                    raise _AmpError("malformed amplitude part", index)
                rat, seen_rat = value, True
        return rat, s2

    if has_i:
        if len(terms) >= 2 and not terms[-2][1] and terms[-1][1]:
            im_group, re_group = terms[-2:], terms[:-2]
        else:
            im_group, re_group = terms[-1:], terms[:-1]
        im_rat, im_s2 = fold(im_group)
        re_rat, re_s2 = fold(re_group) if re_group else (Fraction(0), Fraction(0))
    else:
        re_rat, re_s2 = fold(terms)
        im_rat = im_s2 = Fraction(0)
    return Amplitude(re_rat, re_s2, im_rat, im_s2)


def _emit_qsqrt2(rat: Fraction, s2: Fraction) -> list[str]:
    """Render rat + s2*sqrt2 as sign-joined term tokens (first term signed)."""
    parts: list[str] = []
    if rat or not s2:
        parts.append(str(rat))
    if s2:
        if parts:
            parts.append("+" if s2 > 0 else "-")
            parts.append(f"{abs(s2)} r2")
        else:
            parts.append(f"{s2} r2")
    return parts


def emit_amplitude(amp: Amplitude) -> str:
    """Canonical text for one amplitude."""
    parts = _emit_qsqrt2(amp.re_rat, amp.re_sqrt2)
    if amp.im_rat or amp.im_sqrt2:
        im = _emit_qsqrt2(abs(amp.im_rat), abs(amp.im_sqrt2) if amp.im_rat == 0 else amp.im_sqrt2)
        # Sign of the leading imaginary term becomes the joining operator.
        lead = amp.im_rat if amp.im_rat else amp.im_sqrt2
        parts.append("+" if lead > 0 else "-")
        parts.extend(im)
        parts.append("i")
    return " ".join(parts)


def parse_amplitude(text: str) -> Amplitude:
    """Parse one amplitude from standalone text (used by tests and tools)."""
    try:
        return _parse_amplitude(_TOKEN_RE.findall(text))
    except _AmpError as exc:
        raise ParseError([ParseDiagnostic(_span(text, 1, exc.index), ERROR, exc.message)]) from exc


_SINGLE_DIRECTIVES = ("machine", "class", "initial", "maxstep")
_LIST_DIRECTIVES = ("alphabet", "states", "accept", "neutral")
_TOP = SourceSpan(1, 1, 1)


def parse_with_diagnostics(
    text: str,
) -> tuple[CounterMachine | None, list[ParseDiagnostic]]:
    """Parse; always return every diagnostic found.

    The machine is ``None`` whenever there is a diagnostic (every one is
    an error), so a non-``None`` machine has already passed
    :func:`ocalab.core.validate_machine`.
    """
    diags: list[ParseDiagnostic] = []
    bodies = [raw.split("#", 1)[0] for raw in text.splitlines()]

    # A token is its text; where it stands is (line number, index in the
    # line), turned into a span only when a diagnostic names it.
    def err(lineno: int, index: int, message: str) -> None:
        diags.append(ParseDiagnostic(_span(bodies[lineno - 1], lineno, index), ERROR, message))

    single: dict[str, tuple[str, int, int]] = {}
    named: set[str] = set()  # single directives met, well formed or not
    lists: dict[str, list[tuple[str, int, int]]] = {name: [] for name in _LIST_DIRECTIVES}
    trans_lines: list[tuple[int, list[str]]] = []

    for lineno, body in enumerate(bodies, start=1):
        toks = _TOKEN_RE.findall(body)
        if not toks:
            continue
        head = toks[0]
        if head == "trans":
            trans_lines.append((lineno, toks))
        elif head in _SINGLE_DIRECTIVES:
            named.add(head)
            if head in single:
                err(lineno, 0, f"duplicate {head!r} directive")
            elif len(toks) != 2:
                err(lineno, 0, f"{head!r} needs exactly one argument")
            else:
                single[head] = (toks[1], lineno, 1)
        elif head in _LIST_DIRECTIVES:
            lists[head].extend((tok, lineno, index) for index, tok in enumerate(toks) if index)
        else:
            err(lineno, 0, f"unknown directive {head!r}")

    for name in ("machine", "class", "initial", "states"):
        if name not in named and not lists.get(name):
            diags.append(ParseDiagnostic(_TOP, ERROR, f"missing {name!r} directive"))

    mclass: MachineClass | None = None
    if "class" in single:
        tag, lineno, index = single["class"]
        try:
            mclass = MachineClass.from_tag(tag)
        except ValueError:
            err(lineno, index, f"unknown machine class {tag!r}")

    max_step = 1
    if "maxstep" in single:
        digits, lineno, index = single["maxstep"]
        try:
            max_step = int(digits)
        except ValueError:
            err(lineno, index, f"malformed integer {digits!r}")

    alphabet: list[str] = []
    for tok, lineno, index in lists["alphabet"]:
        sym = _SYMBOL_ALIASES.get(tok, tok)
        if sym in ENDMARKERS:
            err(lineno, index, "endmarkers are implicit and may not be declared")
            continue
        if sym in alphabet:
            err(lineno, index, f"duplicate alphabet symbol {sym!r}")
            continue
        alphabet.append(sym)

    states: list[str] = []
    for tok, lineno, index in lists["states"]:
        if tok in states:
            err(lineno, index, f"duplicate state {tok!r}")
            continue
        if tok in _RESERVED_TOKENS or tok == SINK:
            err(lineno, index, f"state name {tok!r} is reserved")
            continue
        states.append(tok)

    state_set = set(states)

    def state_arg(tok: str, lineno: int, index: int) -> str | None:
        if tok not in state_set:
            err(lineno, index, f"undeclared state {tok!r}")
            return None
        return tok

    accepting = [state_arg(*tok) for tok in lists["accept"]]
    neutral = [state_arg(*tok) for tok in lists["neutral"]]
    initial = state_arg(*single["initial"]) if "initial" in single else None

    tape_symbols = set(alphabet) | set(ENDMARKERS)
    if mclass is None:
        return None, diags

    # --- transition lines -------------------------------------------------
    # Branches are collected per key with their (possibly missing) weights;
    # weights are resolved after all lines are read so that uniform fill can
    # see the whole row.  Each distinct weight literal is parsed once; only
    # a successful parse is kept, so every bad one is reported where it is.
    pending: dict[TransKey, list[tuple[str, int, object | None, int]]] = {}
    seen_branches: set[tuple[str, str, str, str, int]] = set()
    literals: dict[tuple[str, ...], object] = {}
    quantum, blind = mclass.quantum, mclass.blind

    for lineno, toks in trans_lines:
        # trans q , sym , st -> q2 , delta [@ weight...]
        if len(toks) < 9 or toks[2:9:2] != [",", ",", "->", ","]:
            err(lineno, 0, "malformed transition line; expected "
                "'trans <state> , <sym> , <Z|NZ|*> -> <state> , <delta> [@ <weight>]'")
            continue
        if len(toks) == 9:
            err(lineno, 8, "transition line ends early; expected counter delta")
            continue
        status_tok, delta_tok = toks[5], toks[9]

        src = state_arg(toks[1], lineno, 1)
        dst = state_arg(toks[7], lineno, 7)
        sym = _SYMBOL_ALIASES.get(toks[3], toks[3])
        if sym not in tape_symbols:
            err(lineno, 3, f"undeclared symbol {toks[3]!r}")
            sym = None
        if status_tok == "*":
            statuses: tuple[str, ...] = STATUSES
        elif status_tok in STATUSES:
            if blind:
                err(lineno, 5, "blind machine cannot branch on status; use '*'")
                continue
            statuses = (status_tok,)
        else:
            err(lineno, 5, f"status must be Z, NZ or *, got {status_tok!r}")
            continue
        try:
            delta = int(delta_tok)
        except ValueError:
            err(lineno, 9, f"malformed counter delta {delta_tok!r}")
            continue

        weight: object | None = None
        if len(toks) > 10:
            if toks[10] != "@":
                err(lineno, 10, f"unexpected token {toks[10]!r}; expected '@' or end of line")
                continue
            literal = tuple(toks[11:])
            if not literal:
                err(lineno, 10, "'@' with no weight")
                continue
            weight = literals.get(literal)
            if weight is None:
                try:
                    if quantum:
                        weight = _parse_amplitude(toks[11:])
                    elif len(literal) != 1:
                        raise _AmpError("classical weight must be a single rational", 1)
                    else:
                        weight = _parse_rational(literal[0], 0)
                        if weight < 0 or weight > 1:
                            raise _AmpError(f"weight {weight} outside [0,1]", 0)
                except _AmpError as exc:
                    err(lineno, 11 + exc.index, exc.message)
                    continue
                literals[literal] = weight

        if src is None or dst is None or sym is None:
            continue
        dup_key = (src, sym, status_tok, dst, delta)
        if dup_key in seen_branches:
            err(lineno, 0, f"duplicate transition {src} , {_symbol_token(sym)} , "
                f"{status_tok} -> {dst} , {delta}")
            continue
        seen_branches.add(dup_key)
        for status in statuses:
            key: TransKey = (src, sym, status)
            pending.setdefault(key, []).append((dst, delta, weight, lineno))

    transitions: dict[TransKey, tuple[TransEntry, ...]] = {}
    fills: dict[int, Fraction] = {}  # branch count -> its uniform weight
    for key, branches in pending.items():
        if quantum:
            row = tuple(
                (dst, delta, w if w is not None else AMP_ONE)
                for dst, delta, w, _ in branches
            )
        else:
            unweighted = [lineno for _, _, w, lineno in branches if w is None]
            if len(unweighted) == len(branches):
                n = len(branches)
                fill = fills[n] if n in fills else fills.setdefault(n, Fraction(1, n))
                row = tuple((dst, delta, fill) for dst, delta, _, _ in branches)
            elif unweighted:
                err(unweighted[0], 0, "row mixes weighted and unweighted branches")
                continue
            else:
                row = tuple((dst, delta, w) for dst, delta, w, _ in branches)
        transitions[key] = row

    if diags:
        return None, diags

    machine = CounterMachine(
        name=single["machine"][0],
        mclass=mclass,
        alphabet=tuple(alphabet),
        states=tuple(states),
        initial=initial or "",
        accepting=frozenset(q for q in accepting if q is not None),
        neutral=frozenset(q for q in neutral if q is not None),
        transitions=transitions,
        max_step=max_step,
    )

    for violation in validate_machine(machine):
        # A key's diagnostics point at its first line (a sink key has none).
        branches = pending.get(violation.key)
        lineno = branches[0][3] if branches else 0
        span = _span(bodies[lineno - 1], lineno, 0) if lineno else _TOP
        diags.append(ParseDiagnostic(span, ERROR, str(violation)))
    return (None if diags else machine), diags


def parse(text: str) -> CounterMachine:
    """Parse text into a validated machine or raise :class:`ParseError`."""
    machine, diags = parse_with_diagnostics(text)
    if machine is None:
        raise ParseError(diags)
    return machine


def read_source(path: str | Path) -> str:
    """The text of a ``.cma`` file less one leading BOM; bytes that are not UTF-8 raise :class:`ParseError`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        data, bad = exc.object, exc.start
        begin = data.rfind(b"\n", 0, bad) + 1
        prefix = data[begin:bad].decode("utf-8")  # the line up to its first bad byte
        if begin == 0:
            prefix = prefix.removeprefix("\ufeff")  # as the text that parse reads
        span = SourceSpan(data.count(b"\n", 0, bad) + 1, len(prefix) + 1, 1)  # columns count characters
        raise ParseError([ParseDiagnostic(span, ERROR, f"{path} is not UTF-8 text: {exc.reason}")]) from None
    return text.removeprefix("\ufeff")


def parse_file(path: str | Path) -> CounterMachine:
    return parse(read_source(path))


def _symbol_token(sym: str) -> str:
    return _SYMBOL_NAMES.get(sym, sym)


def _check_emittable(machine: CounterMachine) -> None:
    for sym in machine.alphabet:
        token = _symbol_token(sym)
        if token in _RESERVED_TOKENS and sym not in _SYMBOL_NAMES:
            raise EngineError(f"symbol {sym!r} collides with a reserved token")
        if not _TOKEN_RE.fullmatch(token):
            raise EngineError(f"symbol {sym!r} cannot be written in the text format")
    for state in machine.states:
        if state in _RESERVED_TOKENS or not _TOKEN_RE.fullmatch(state):
            raise EngineError(f"state {state!r} cannot be written in the text format")


def emit(machine: CounterMachine) -> str:
    """Canonical text for a machine; ``parse(emit(m))`` equals ``m``."""
    _check_emittable(machine)
    out: list[str] = []
    out.append(f"machine {machine.name}")
    out.append(f"class {machine.mclass.tag}")
    out.append("alphabet" + "".join(f" {_symbol_token(s)}" for s in machine.alphabet))
    out.append("states " + " ".join(machine.states))
    out.append(f"initial {machine.initial}")
    out.append("accept" + "".join(f" {q}" for q in machine.states if q in machine.accepting))
    if machine.neutral:
        out.append("neutral " + " ".join(q for q in machine.states if q in machine.neutral))
    out.append(f"maxstep {machine.max_step}")
    out.append("")

    tape_order = list(machine.alphabet) + [LEFT_END, RIGHT_END]

    texts: dict[int, str] = {}  # id(weight) -> its text; tables share weights

    def weight_text(weight: object) -> str:
        text = texts.get(id(weight))
        if text is None:
            if isinstance(weight, Amplitude):
                text = f" @ {emit_amplitude(weight)}"
            else:
                assert isinstance(weight, Fraction)
                text = "" if weight == 1 else f" @ {weight}"
            texts[id(weight)] = text
        return text

    for state in machine.states:
        for sym in tape_order:
            z_row = machine.transitions.get((state, sym, Z))
            nz_row = machine.transitions.get((state, sym, NZ))
            if z_row is None and nz_row is None:
                continue
            sym_tok = _symbol_token(sym)
            rows = (("*", z_row),) if z_row == nz_row else ((Z, z_row), (NZ, nz_row))
            for status, row in rows:
                for dst, delta, weight in row or ():
                    out.append(
                        f"trans {state} , {sym_tok} , {status} -> "
                        f"{dst} , {delta}{weight_text(weight)}"
                    )
    return "\n".join(out) + "\n"
