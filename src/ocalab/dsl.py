"""Text format for counter machines: parse and emit ``.cma`` files.

The format is line oriented.  ``#`` starts a comment, so the tape symbol
``#`` is written with the alias token ``HASH``; likewise the endmarkers are
written ``LEND`` and ``REND``.  Directives:

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

ERROR = "error"  # the only severity: every diagnostic is an error

_SYMBOL_ALIASES = {"LEND": LEFT_END, "REND": RIGHT_END, "HASH": "#"}
_SYMBOL_NAMES = {v: k for k, v in _SYMBOL_ALIASES.items()}
_RESERVED_TOKENS = set(_SYMBOL_ALIASES) | {"Z", "NZ", "trans", "->", ",", "@", "*"}

_TOKEN_RE = re.compile(r"->|[,@*]|[^\s,@*]+")


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


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(1, len(self.text)))


def _tokenize(text: str) -> list[list[_Tok]]:
    lines: list[list[_Tok]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [
            _Tok(m.group(0), lineno, m.start() + 1) for m in _TOKEN_RE.finditer(body)
        ]
        lines.append(toks)
    return lines


def _parse_rational(tok: _Tok) -> Fraction:
    try:
        return Fraction(tok.text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _AmpError(f"malformed rational {tok.text!r}", tok) from exc


class _AmpError(Exception):
    def __init__(self, message: str, tok: _Tok):
        super().__init__(message)
        self.message = message
        self.tok = tok


def _parse_amplitude(toks: list[_Tok]) -> Amplitude:
    """Parse sign-joined terms, optionally ending in ``i``.

    A *term* is ``<rat>`` or ``<rat> r2``.  A *group* is at most one plain
    term and at most one r2 term, plain first.  The amplitude is one group,
    or two groups with the second followed by ``i``; the split before the
    trailing ``i`` is recovered greedily and is unambiguous for any text
    this module emits.
    """
    if not toks:
        raise _AmpError("empty amplitude", _Tok("", 1, 1))
    has_i = toks[-1].text == "i"
    body = toks[:-1] if has_i else toks
    if not body:
        raise _AmpError("amplitude has no terms", toks[-1])

    terms: list[tuple[Fraction, bool, _Tok]] = []
    sign = 1
    want_term = True
    for tok in body:
        if tok.text in ("+", "-"):
            if want_term and terms:
                raise _AmpError("two sign tokens in a row", tok)
            sign = 1 if tok.text == "+" else -1
            want_term = True
        elif tok.text == "r2":
            if want_term or not terms or terms[-1][1]:
                raise _AmpError("stray r2 token", tok)
            value, _, first = terms[-1]
            terms[-1] = (value, True, first)
        else:
            if not want_term and terms:
                raise _AmpError(f"expected + or - before {tok.text!r}", tok)
            terms.append((sign * _parse_rational(tok), False, tok))
            sign = 1
            want_term = False
    if want_term and terms:
        raise _AmpError("dangling sign at end of amplitude", body[-1])

    def fold(group: list[tuple[Fraction, bool, _Tok]]) -> tuple[Fraction, Fraction]:
        rat = Fraction(0)
        s2 = Fraction(0)
        seen_rat = seen_s2 = False
        for value, is_r2, tok in group:
            if is_r2:
                if seen_s2:
                    raise _AmpError("two r2 terms in one part", tok)
                s2, seen_s2 = value, True
            else:
                if seen_rat or seen_s2:
                    raise _AmpError("malformed amplitude part", tok)
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
    toks = [_Tok(m.group(0), 1, m.start() + 1) for m in _TOKEN_RE.finditer(text)]
    try:
        return _parse_amplitude(toks)
    except _AmpError as exc:
        raise ParseError(
            [ParseDiagnostic(exc.tok.span, ERROR, exc.message)]
        ) from exc


_SINGLE_DIRECTIVES = ("machine", "class", "initial", "maxstep")
_LIST_DIRECTIVES = ("alphabet", "states", "accept", "neutral")


def parse_with_diagnostics(
    text: str,
) -> tuple[CounterMachine | None, list[ParseDiagnostic]]:
    """Parse; always return every diagnostic found.

    The machine is ``None`` whenever there is a diagnostic (every one is
    an error), so a non-``None`` machine has already passed
    :func:`ocalab.core.validate_machine`.
    """
    diags: list[ParseDiagnostic] = []

    def err(tok: _Tok, message: str) -> None:
        diags.append(ParseDiagnostic(tok.span, ERROR, message))

    lines = _tokenize(text)
    single: dict[str, _Tok] = {}
    named: set[str] = set()  # single directives met, well formed or not
    lists: dict[str, list[_Tok]] = {name: [] for name in _LIST_DIRECTIVES}
    trans_lines: list[list[_Tok]] = []

    for toks in lines:
        if not toks:
            continue
        head = toks[0]
        if head.text == "trans":
            trans_lines.append(toks)
        elif head.text in _SINGLE_DIRECTIVES:
            named.add(head.text)
            if head.text in single:
                err(head, f"duplicate {head.text!r} directive")
            elif len(toks) != 2:
                err(head, f"{head.text!r} needs exactly one argument")
            else:
                single[head.text] = toks[1]
        elif head.text in _LIST_DIRECTIVES:
            lists[head.text].extend(toks[1:])
        else:
            err(head, f"unknown directive {head.text!r}")

    for name in ("machine", "class", "initial", "states"):
        if name not in named and not lists.get(name):
            diags.append(
                ParseDiagnostic(SourceSpan(1, 1, 1), ERROR, f"missing {name!r} directive")
            )

    mclass: MachineClass | None = None
    if "class" in single:
        try:
            mclass = MachineClass.from_tag(single["class"].text)
        except ValueError:
            err(single["class"], f"unknown machine class {single['class'].text!r}")

    max_step = 1
    if "maxstep" in single:
        try:
            max_step = int(single["maxstep"].text)
        except ValueError:
            err(single["maxstep"], f"malformed integer {single['maxstep'].text!r}")

    alphabet: list[str] = []
    for tok in lists["alphabet"]:
        sym = _SYMBOL_ALIASES.get(tok.text, tok.text)
        if sym in ENDMARKERS:
            err(tok, "endmarkers are implicit and may not be declared")
            continue
        if sym in alphabet:
            err(tok, f"duplicate alphabet symbol {sym!r}")
            continue
        alphabet.append(sym)

    states: list[str] = []
    for tok in lists["states"]:
        if tok.text in states:
            err(tok, f"duplicate state {tok.text!r}")
            continue
        if tok.text in _RESERVED_TOKENS or tok.text == SINK:
            err(tok, f"state name {tok.text!r} is reserved")
            continue
        states.append(tok.text)

    state_set = set(states)

    def state_arg(tok: _Tok) -> str | None:
        if tok.text not in state_set:
            err(tok, f"undeclared state {tok.text!r}")
            return None
        return tok.text

    accepting = [state_arg(t) for t in lists["accept"]]
    neutral = [state_arg(t) for t in lists["neutral"]]
    initial = state_arg(single["initial"]) if "initial" in single else None

    tape_symbols = set(alphabet) | set(ENDMARKERS)
    if mclass is None:
        return None, diags

    # --- transition lines -------------------------------------------------
    # Branches are collected per key with their (possibly missing) weights;
    # weights are resolved after all lines are read so that uniform fill can
    # see the whole row.
    pending: dict[TransKey, list[tuple[str, int, object | None, _Tok]]] = {}
    key_line: dict[TransKey, SourceSpan] = {}
    seen_branches: set[tuple[str, str, str, str, int]] = set()

    for toks in trans_lines:
        head = toks[0]
        texts = [t.text for t in toks]
        # trans q , sym , st -> q2 , delta [@ weight...]
        shape_ok = (
            len(toks) >= 9
            and texts[2] == ","
            and texts[4] == ","
            and texts[6] == "->"
            and texts[8] == ","
        )
        if not shape_ok:
            err(head, "malformed transition line; expected "
                "'trans <state> , <sym> , <Z|NZ|*> -> <state> , <delta> [@ <weight>]'")
            continue
        if len(toks) == 9:
            err(toks[8], "transition line ends early; expected counter delta")
            continue
        src_tok, sym_tok, st_tok, dst_tok, delta_tok = toks[1], toks[3], toks[5], toks[7], toks[9]

        src = state_arg(src_tok)
        dst = state_arg(dst_tok)
        sym = _SYMBOL_ALIASES.get(sym_tok.text, sym_tok.text)
        if sym not in tape_symbols:
            err(sym_tok, f"undeclared symbol {sym_tok.text!r}")
            sym = None
        if st_tok.text == "*":
            statuses: tuple[str, ...] = STATUSES
        elif st_tok.text in STATUSES:
            if mclass.blind:
                err(st_tok, "blind machine cannot branch on status; use '*'")
                continue
            statuses = (st_tok.text,)
        else:
            err(st_tok, f"status must be Z, NZ or *, got {st_tok.text!r}")
            continue
        try:
            delta = int(delta_tok.text)
        except ValueError:
            err(delta_tok, f"malformed counter delta {delta_tok.text!r}")
            continue

        weight: object | None = None
        if len(toks) > 10:
            if toks[10].text != "@":
                err(toks[10], f"unexpected token {toks[10].text!r}; expected '@' or end of line")
                continue
            weight_toks = toks[11:]
            if not weight_toks:
                err(toks[10], "'@' with no weight")
                continue
            try:
                if mclass.quantum:
                    weight = _parse_amplitude(weight_toks)
                elif len(weight_toks) != 1:
                    raise _AmpError("classical weight must be a single rational", weight_toks[1])
                else:
                    weight = _parse_rational(weight_toks[0])
                    if weight < 0 or weight > 1:
                        raise _AmpError(f"weight {weight} outside [0,1]", weight_toks[0])
            except _AmpError as exc:
                err(exc.tok, exc.message)
                continue

        if src is None or dst is None or sym is None:
            continue
        dup_key = (src, sym, st_tok.text, dst, delta)
        if dup_key in seen_branches:
            err(head, f"duplicate transition {src} , {_symbol_token(sym)} , "
                f"{st_tok.text} -> {dst} , {delta}")
            continue
        seen_branches.add(dup_key)
        for status in statuses:
            key: TransKey = (src, sym, status)
            pending.setdefault(key, []).append((dst, delta, weight, head))
            key_line.setdefault(key, head.span)

    transitions: dict[TransKey, tuple[TransEntry, ...]] = {}
    for key, branches in pending.items():
        weights = [w for _, _, w, _ in branches]
        if mclass.quantum:
            row = tuple(
                (dst, delta, w if w is not None else AMP_ONE)
                for dst, delta, w, _ in branches
            )
        elif all(w is None for w in weights):
            fill = Fraction(1, len(branches))
            row = tuple((dst, delta, fill) for dst, delta, _, _ in branches)
        elif any(w is None for w in weights):
            tok = next(t for _, _, w, t in branches if w is None)
            err(tok, "row mixes weighted and unweighted branches")
            continue
        else:
            row = tuple((dst, delta, w) for dst, delta, w, _ in branches)
        transitions[key] = row

    if diags:
        return None, diags

    machine = CounterMachine(
        name=single["machine"].text,
        mclass=mclass,
        alphabet=tuple(alphabet),
        states=tuple(states),
        initial=initial or "",
        accepting=frozenset(q for q in accepting if q is not None),
        neutral=frozenset(q for q in neutral if q is not None),
        transitions=transitions,
        max_step=max_step,
    )

    top = SourceSpan(1, 1, 1)
    for violation in validate_machine(machine):
        span = key_line.get(violation.key, top) if violation.key else top
        diags.append(ParseDiagnostic(span, ERROR, str(violation)))
    return (None if diags else machine), diags


def parse(text: str) -> CounterMachine:
    """Parse text into a validated machine or raise :class:`ParseError`."""
    machine, diags = parse_with_diagnostics(text)
    if machine is None:
        raise ParseError(diags)
    return machine


def parse_file(path: str | Path) -> CounterMachine:
    return parse(Path(path).read_text(encoding="utf-8"))


def _symbol_token(sym: str) -> str:
    return _SYMBOL_NAMES.get(sym, sym)


def _check_emittable(machine: CounterMachine) -> None:
    for sym in machine.alphabet:
        token = _symbol_token(sym)
        if token in _RESERVED_TOKENS and sym not in _SYMBOL_NAMES:
            raise EngineError(f"symbol {sym!r} collides with a reserved token")
        if not _TOKEN_RE.fullmatch(token) or token != _TOKEN_RE.match(token).group(0):
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
