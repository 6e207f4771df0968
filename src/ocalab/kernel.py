"""The one propagation kernel behind every machine class.

A machine is compiled once, on its first run, into integer rows and the
compiled form is cached on the (immutable) machine:

- state names become ids ``0..S-1``, the implicit sink last, and a
  configuration (state, counter) becomes the single int ``counter*S + id``;
- every (state, symbol, status) row is either a *move* (one branch of
  weight 1), stored as the int offset ``delta*S + target - source`` that
  carries a configuration to its successor, or a tuple of
  (offset, integer weight) branches over one denominator per symbol; a
  symbol's rows are one list per counter status (:class:`SymbolTable`),
  read by the loops here and, through :meth:`Kernel.branches_at`, by every
  single-path walk (``sample_run`` and the adversary's);
- classical masses are ints, quantum amplitudes are ``amplitudes.Quad``
  integer 4-tuples (a, b, c, d) meaning (a + b*sqrt2) + i*(c + d*sqrt2).

A distribution is ``{config: value}`` over one common denominator ``D``.
Moves never touch ``D``.  A step that takes a multi-branch row scales the
whole distribution by the symbol's denominator and then divides
everything by the gcd, so ``D`` only grows by what the weights really
need.  Exact values appear only at the edges (compiling weights, reading a
verdict, reporting unitarity violations, the public ``step``/``evolve``
wrappers), and each is a (numerator, denominator) pair, as a ``Fraction``
is an int over an int and an ``Amplitude`` a ``Quad`` over an int.

A blind machine whose rows never read the counter is stepped by
:func:`advance` in dense per-state groups instead, ``{state: (low, [mass at
counter low, low + 1, ...])}`` (both ends nonzero) over the same ``D`` with
the same rescale: a move re-labels a whole state in O(1), groups that meet
add by aligned slices, and the sources of a branching row are gathered
once; :func:`_add`, the one writer of a list, merges into a new one, so a
kept distribution may be stepped again.  Machines that read the counter
hold a few configurations per state, where the flat ``{config: value}``
form of :func:`propagate` is cheaper.

:func:`advance_runs` takes the rest of a run of one symbol in one :func:`_jump`
where the symbol's rows never read the counter and every configuration (or
group, walking as its state) only moves: one ``divmod`` on its state's
:meth:`SymbolTable.walk`, which ``adversary.analyze_cycle`` reads too.

A step's result depends only on the flat content and ``D`` it starts from,
however it is grouped, so :func:`run_many` steps each distinct (content, D)
of a batch once.  Its memo is its own prefix index: every word walks the
memo's ``{symbol: node}`` edges from the node after ``¢``, and the memo
holds at most ``MEMO_CONFIGS`` entries plus one word's nodes.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, groupby
from math import gcd, lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .amplitudes import QZERO, Amplitude, Quad
from .core import (
    ENDMARKERS,
    LEFT_END,
    NZ,
    RIGHT_END,
    SINK,
    Z,
    CounterMachine,
    SimulationError,
    Verdict,
    format_exact,
    tape_of,
)

IntDist = dict  # config -> int mass or Quad amplitude
Groups = dict  # state id -> (low, [int mass at counter low, low + 1, ...])
Branches = tuple  # ((offset, int or Quad weight), ...)

# Outcome kinds of a final configuration.
REJECT, ACCEPT, NEUTRAL = 0, 1, 2

# run_many clears its memo between words once it holds more entries than
# this: the configurations of each node, or for per-state groups the slots
# of each distinct group list plus each node's groups (README gives the bytes).
MEMO_CONFIGS = 1 << 16


class MeasurementError(SimulationError):
    """A final probability failed an exactness check (bad total mass or norm, sqrt2 residue)."""


# ---------------------------------------------------------------------------
# The compiled machine.
# ---------------------------------------------------------------------------


class SymbolTable:
    """Compiled rows of one tape symbol.

    ``rows_z[s]``/``rows_nz[s]`` hold the row of state ``s`` on a zero /
    nonzero counter: the int offset of its one weight-1 move, or a tuple of
    (offset, weight) branches, weights over ``den``.
    ``reads_counter`` is whether some zero row differs from its nonzero row.
    ``walks`` caches :meth:`walk`, the one single-symbol cycle record.
    """

    __slots__ = ("rows_z", "rows_nz", "den", "reads_counter", "walks")

    def __init__(self, rows_z: list, rows_nz: list, den: int) -> None:
        self.rows_z = rows_z
        self.rows_nz = rows_nz
        self.den = den
        self.reads_counter = rows_z != rows_nz
        self.walks: dict = {}

    def branches(self, state: int, zero: bool, unit: object) -> Branches:
        """The row of ``state`` as branches, a move given weight ``unit``."""
        row = (self.rows_z if zero else self.rows_nz)[state]
        return ((row, unit),) if row.__class__ is int else row

    def walk(self, state: int) -> tuple[list, int | None]:
        """``state``'s moves on the nonzero rows, cached in ``walks``: the cumulative offsets
        to the first repeated state, and that state's first index (None: a branching row)."""
        rows, at, offsets, seen = self.rows_nz, state, [0], {}
        while at not in seen and rows[at].__class__ is int:
            seen[at] = len(seen)
            offsets.append(offsets[-1] + rows[at])
            at = (state + offsets[-1]) % len(rows)
        return self.walks.setdefault(state, (offsets, seen.get(at)))


class Kernel:
    """``Kernel(machine)`` compiles a machine for :func:`propagate`; see
    the module docstring.

    ``kinds[s]`` is the outcome of state ``s``, and ``unit`` is the value 1
    (int 1, or ``Quad(1)`` for quantum machines).  ``rows`` holds the rows
    of :func:`advance`'s grouped loop per symbol, or None when the machine
    runs flat.
    """

    __slots__ = (
        "names", "ids", "size", "initial", "quantum", "blind", "kinds", "tables", "unit", "rows"
    )

    def __init__(self, machine: CounterMachine) -> None:
        keyed = [key for key in machine.transitions if key[0] != SINK]
        named = chain(
            machine.states,
            (machine.initial,),
            sorted(machine.accepting),
            sorted(machine.neutral),
            (state for state, _, _ in keyed),
            (target for key in keyed for target, _, _ in machine.transitions[key]),
        )
        self.names = names = tuple(dict.fromkeys(name for name in named if name != SINK)) + (SINK,)
        self.ids = ids = {name: i for i, name in enumerate(names)}
        self.size = len(names)
        self.initial = ids[machine.initial]
        self.quantum = machine.mclass.quantum
        self.blind = machine.mclass.blind
        self.kinds = tuple(
            ACCEPT
            if name in machine.accepting
            else NEUTRAL
            if machine.mclass.las_vegas and name in machine.neutral
            else REJECT
            for name in names
        )
        self.tables = tables = _tables(machine, ids, machine.transitions.items(), machine.tape_symbols)
        self.unit = Quad(1) if self.quantum else 1
        self.rows = None
        if self.blind and not any(table.reads_counter for table in tables.values()):
            self.rows = {symbol: _grouped_rows(table, self.size) for symbol, table in tables.items()}

    def kind(self, config: int) -> int:
        """REJECT, ACCEPT or NEUTRAL for a final configuration."""
        state = config % self.size
        if self.blind and config != state:
            return REJECT
        return self.kinds[state]

    def config(self, config: int) -> tuple[str, int]:
        return self.names[config % self.size], config // self.size

    def branches_at(self, config: int, symbol: str) -> Branches:
        """The row read at ``config`` on ``symbol`` as branches, a move given weight 1:
        the one row reader of every single-path walk (``sample_run``, the adversary's)."""
        state = config % self.size
        row = self.tables[symbol].branches(state, config == state, 1)
        if not row:  # only a hand-built row whose weights are all 0
            raise SimulationError(f"state {self.names[state]!r} has no branch of nonzero weight on {symbol!r}")
        return row


class Split(tuple):
    """A branching row of the grouped loop: (target id, delta, weight) triples."""

    __slots__ = ()


def _grouped_rows(table: SymbolTable, size: int) -> list:
    """Per state, a move as (target id, delta) or a branching row as a
    :class:`Split`; equal branching rows are one object."""
    rows: list = []
    splits: dict[Split, Split] = {}
    for state, row in enumerate(table.rows_z):
        if row.__class__ is int:
            rows.append(((state + row) % size, (state + row) // size))
        else:
            split = Split(((state + off) % size, (state + off) // size, weight) for off, weight in row)
            rows.append(splits.setdefault(split, split))
    return rows


def _ratio(value: object, quantum: bool) -> tuple:
    """An exact value as (numerator, denominator): an int or ``Fraction`` as
    two ints, or, on a quantum machine, as an ``Amplitude``'s ``quad`` and ``den``."""
    if quantum:
        amp = Amplitude._coerce(value)
        return amp.quad, amp.den
    return value.numerator, value.denominator


def _tables(
    machine: CounterMachine,
    ids: dict[str, int],
    rows: Iterable[tuple[tuple[str, str, str], tuple]],
    symbols: Iterable[str],
) -> dict[str, SymbolTable]:
    """Compile ``((state, symbol, status), row)`` pairs into one
    :class:`SymbolTable` per symbol of ``symbols``; unlisted rows and the
    sink's own rows drop into the sink."""
    quantum = machine.mclass.quantum
    if quantum:
        exact, need = (int, Fraction, Amplitude), "quantum transitions need Amplitude weights"
        zero, one = QZERO, Quad(1)
    else:
        exact, need = (int, Fraction), "classical transitions need Fraction weights"
        zero, one = 0, 1
    size = len(ids)
    sink = size - 1
    known: dict[int, tuple] = {}  # id(weight) -> its (numerator, denominator)

    def ratio_of(weight: object) -> tuple:
        hit = known.get(id(weight))
        if hit is None:
            if not isinstance(weight, exact):
                raise SimulationError(f"machine {machine.name!r}: {need}")
            hit = known[id(weight)] = _ratio(weight, quantum)
        return hit

    # Moves are stored as offsets, the sink's offset by default.
    default = [sink - state for state in range(size)]
    default[sink] = 0
    compiled_rows = {symbol: (list(default), list(default)) for symbol in symbols}
    branching: dict[str, list] = {symbol: [] for symbol in compiled_rows}
    for (state, symbol, status), row in rows:
        if state == SINK or symbol not in compiled_rows or status not in (Z, NZ):
            continue
        source = ids[state]
        into = compiled_rows[symbol][status == NZ]
        if len(row) == 1 and ratio_of(row[0][2]) == (one, 1):
            target, delta, _ = row[0]
            into[source] = delta * size + ids[target] - source
            continue
        branches = [
            (delta * size + ids[target] - source, *ratio_of(weight)) for target, delta, weight in row
        ]
        branches = [branch for branch in branches if branch[1] != zero]  # a zero weight adds nothing
        branching[symbol].append((into, source, branches))

    tables = {}
    for symbol, (rows_z, rows_nz) in compiled_rows.items():
        branched = branching[symbol]
        den = lcm(*(d for _, _, branches in branched for _, _, d in branches))
        for into, source, branches in branched:
            into[source] = tuple((off, num * (den // d)) for off, num, d in branches)
        tables[symbol] = SymbolTable(rows_z, rows_nz, den)
    return tables


def compiled(machine: CounterMachine) -> Kernel:
    """The machine's compiled form, built on first use and cached on it.

    Sound because a machine's transition table is frozen: a changed
    machine is a new object (``dataclasses.replace``) with its own cache.
    """
    kernel = machine.__dict__.get("_kernel")
    if kernel is None:
        kernel = Kernel(machine)
        object.__setattr__(machine, "_kernel", kernel)
    return kernel


# ---------------------------------------------------------------------------
# Propagation.
# ---------------------------------------------------------------------------


def propagate(
    kernel: Kernel,
    tape: Iterable[str],
    dist: IntDist | None = None,
    den: int = 1,
    keep: list | None = None,
    tables: Mapping[str, SymbolTable] | None = None,
) -> tuple[IntDist, int]:
    """Advance through ``tape`` from ``dist`` over ``den`` (default: the
    initial point mass); ``keep`` collects every step's (distribution, D).
    ``tables`` replaces the kernel's own compiled rows.

    The flat loop, for any machine and any ``tables``; :func:`advance`
    steps a kernel with grouped rows through its grouped loop instead.
    """
    if dist is None:
        dist = {kernel.initial: kernel.unit}
        den = 1
    size = kernel.size
    quantum = kernel.quantum
    if tables is None:
        tables = kernel.tables
    for symbol in tape:
        table = tables[symbol]
        rows_z, rows_nz = table.rows_z, table.rows_nz
        out: IntDist = {}
        get = out.get
        pending = None
        for config, value in dist.items():
            state = config % size
            off = rows_z[state] if config == state else rows_nz[state]
            if off.__class__ is tuple:
                if pending is None:
                    pending = []
                pending.append((config, value, off))
                continue
            config += off
            prev = get(config)
            out[config] = value if prev is None else prev + value
        if pending is not None:
            den = _branch(out, pending, den, table, quantum)
        if quantum and QZERO in out.values():
            # Paths met and interfered destructively: drop the exact zeros.
            out = {config: value for config, value in out.items() if value != QZERO}
        dist = out
        if keep is not None:
            keep.append((dist, den))
    return dist, den


def _branch(out: IntDist, pending: list, den: int, table: SymbolTable, quantum: bool) -> int:
    """Add the multi-branch rows' mass to ``out``; returns the new ``D``.

    The moves already in ``out`` are scaled to the symbol's denominator
    first, and the gcd of everything is divided out afterwards.
    """
    step_den = table.den
    if step_den != 1:
        for config, value in out.items():
            out[config] = value * step_den
        den *= step_den
    get = out.get
    for config, value, row in pending:
        for off, weight in row:
            target = config + off
            prev = get(target)
            product = value * weight
            out[target] = product if prev is None else prev + product
    if step_den != 1:
        common = gcd(den, *(chain.from_iterable(out.values()) if quantum else out.values()))
        if common != 1:
            den //= common
            for config, value in out.items():
                out[config] = value // common
    return den


def advance(
    kernel: Kernel,
    tape: Iterable[str],
    dist: Groups | IntDist | None = None,
    den: int = 1,
    keep: list | None = None,
) -> tuple[Groups | IntDist, int]:
    """:func:`propagate` in the kernel's own form: flat, or per-state groups
    ``{state: (low, [mass at counter low, low + 1, ...])}`` when it has
    grouped rows.

    A move re-labels a whole group in O(1): the list is shared and only
    ``low`` changes.  A step that takes a branching row scales every
    group to the symbol's denominator, gathers the sources of each row into
    one list (shared by every target of weight 1) and divides the gcd of
    everything out.  Only :func:`_add` writes a list, and only the new one it
    merges into, so every (groups, D) returned or kept stays valid.
    """
    if kernel.rows is None:
        return propagate(kernel, tape, dist, den, keep)
    if dist is None:
        dist = {kernel.initial: (0, [1])}
        den = 1
    grouped_rows = kernel.rows
    for symbol in tape:
        rows = grouped_rows[symbol]
        out: Groups = {}
        gathered: dict[Split, tuple[int, list]] = {}  # each branching row's sources, added up
        for state, (low, counts) in dist.items():
            row = rows[state]
            if row.__class__ is Split:
                _add(gathered, row, low, counts, 1)
                continue
            target, delta = row
            if target in out:
                _add(out, target, low + delta, counts, 1)
            else:
                out[target] = (low + delta, counts)
        if gathered:
            scale = kernel.tables[symbol].den
            if scale != 1:
                den *= scale
                for state, (low, counts) in out.items():
                    out[state] = (low, [mass * scale for mass in counts])
            for row, (low, counts) in gathered.items():
                for target, delta, weight in row:
                    _add(out, target, low + delta, counts, weight)
            if scale != 1:
                shared = {id(counts): counts for _, counts in out.values()}
                common = gcd(den, *chain.from_iterable(shared.values()))
                if common != 1:
                    den //= common
                    shared = {key: [mass // common for mass in c] for key, c in shared.items()}
                    out = {state: (low, shared[id(counts)]) for state, (low, counts) in out.items()}
        dist = out
        if keep is not None:
            keep.append((dist, den))
    return dist, den


def advance_runs(kernel: Kernel, tape: Sequence[str]) -> tuple[Groups | IntDist, int]:
    """:func:`advance` from the initial distribution through ``tape``, taking
    the rest of each run of three or more equal symbols in one :func:`_jump`
    unless it refuses (a shorter run's rest is one step and closes no cycle)."""
    dist, den, done, end = None, 1, 0, 0
    for symbol, run in groupby(tape):
        start, end = end, end + len(list(run))
        if end - start > 2:
            dist, den = advance(kernel, tape[done : start + 1], dist, den)
            jumped = _jump(kernel, kernel.tables[symbol], dist, end - start - 1)
            dist, done = (dist, start + 1) if jumped is None else (jumped, end)
    return advance(kernel, tape[done:], dist, den)


def _jump(kernel: Kernel, table: SymbolTable, dist: Groups | IntDist, steps: int) -> dict | None:
    """``dist`` after ``steps`` more moves on ``table``'s symbol, or None if
    its rows read the counter or a branching row comes first; see the module
    docstring."""
    if table.reads_counter:
        return None
    size, grouped, walks = kernel.size, kernel.rows is not None, table.walks
    out: dict = {}
    for config, value in dist.items():  # the rows ignore the counter, so the nonzero walk is the run
        offsets, entry = walks.get(config % size) or table.walk(config % size)
        if steps < len(offsets):
            config += offsets[steps]
        elif entry is None:
            return None
        else:  # whole cycles of the walk's last len(offsets) - 1 - entry moves
            cycles, left = divmod(steps - entry, len(offsets) - 1 - entry)
            config += cycles * (offsets[-1] - offsets[entry]) + offsets[entry + left]
        if grouped:  # a group walks as its state; the walk's drift moves its low end
            _add(out, config % size, value[0] + config // size, value[1], 1)
        else:
            out[config] = out[config] + value if config in out else value
    if kernel.quantum and QZERO in out.values():
        out = {config: value for config, value in out.items() if value != QZERO}
    return out


def _add(groups: dict, key: object, low: int, counts: list, weight: int) -> None:
    """Add ``counts`` times ``weight`` from counter ``low`` into ``groups[key]``: the one
    writer of a group list, it merges into a new list, so none is written after it is made."""
    if weight != 1:
        counts = [mass * weight for mass in counts]
    have = groups.get(key)
    if have is None:
        groups[key] = (low, counts)
        return
    base_low, base = have
    start, stop = min(low, base_low), max(low + len(counts), base_low + len(base))
    merged = [0] * (base_low - start) + base + [0] * (stop - base_low - len(base))
    i = low - start
    merged[i : i + len(counts)] = map(add, merged[i : i + len(counts)], counts)
    groups[key] = (start, merged)


def flat(kernel: Kernel, dist: Groups | IntDist) -> IntDist:
    """A distribution of :func:`advance` as ``{counter*S + id: value}``."""
    if kernel.rows is None:
        return dist
    size = kernel.size
    return {
        (low + i) * size + state: mass
        for state, (low, counts) in dist.items()
        for i, mass in enumerate(counts) if mass
    }


# ---------------------------------------------------------------------------
# Reading a final distribution: the one place outcomes become a Verdict.
# ---------------------------------------------------------------------------


def outcome_sums(kernel: Kernel, items: Iterable[tuple[int, object]]) -> tuple[int, ...]:
    """The integer sums a verdict is read from, over the final distribution's
    items in the kernel's own form: (config, value), or (state, group).

    Classical: the (reject, accept, neutral) masses by ``Kernel.kind``; a
    group's mass at counter 0 is read at its state, the rest at counter 1.  Quantum:
    the rational and sqrt2 parts of the total norm, then of the accepting
    norm.
    """
    if kernel.rows is not None:
        sums = [0, 0, 0]
        for state, (low, counts) in items:
            zero = counts[-low] if low <= 0 < low + len(counts) else 0
            sums[kernel.kind(state + kernel.size)] += sum(counts) - zero
            sums[kernel.kind(state)] += zero
        return tuple(sums)
    kind = kernel.kind
    if kernel.quantum:
        total_rat = total_s2 = accept_rat = accept_s2 = 0
        for config, (a, b, c, d) in items:
            rat = a * a + 2 * b * b + c * c + 2 * d * d
            s2 = 2 * (a * b + c * d)
            total_rat += rat
            total_s2 += s2
            if kind(config) == ACCEPT:
                accept_rat += rat
                accept_s2 += s2
        return total_rat, total_s2, accept_rat, accept_s2
    sums = [0, 0, 0]
    for config, mass in items:
        sums[kind(config)] += mass
    return tuple(sums)


def tally(sums: tuple[int, ...], den: int) -> Verdict:
    """Classical verdict from the (reject, accept, neutral) masses over ``den``,
    whose total must be exactly ``den``: a hand-built row may lose mass."""
    reject, accept, neutral = sums
    if reject + accept + neutral != den:
        raise MeasurementError(format_exact("total mass is {}, expected exactly 1", Fraction(sum(sums), den)))
    return Verdict(
        accept=Fraction(accept, den),
        reject=Fraction(reject, den),
        neutral=Fraction(neutral, den),
    )


def born(sums: tuple[int, ...], den: int) -> Verdict:
    """Quantum verdict from the norm sums of amplitudes over ``den``.

    The total norm must be exactly ``den**2`` and the accepting mass free
    of any sqrt2 component; either failure raises, never rounds.
    """
    total_rat, total_s2, accept_rat, accept_s2 = sums
    den2 = den * den
    if total_s2 != 0 or total_rat != den2:
        raise MeasurementError(format_exact(
            "state vector norm^2 is {} + {}*sqrt2, expected exactly 1",
            Fraction(total_rat, den2), Fraction(total_s2, den2),
        ))
    if accept_s2 != 0:
        raise MeasurementError(format_exact(
            "accept probability has sqrt2 residue {}; machine is malformed", Fraction(accept_s2, den2)
        ))
    accept = Fraction(accept_rat, den2)
    return Verdict(accept=accept, reject=1 - accept)


def read(kernel: Kernel, items: Iterable[tuple[int, object]], den: int) -> Verdict:
    """The verdict of a final distribution's items (see :func:`outcome_sums`)
    over ``den``."""
    return (born if kernel.quantum else tally)(outcome_sums(kernel, items), den)


def run_word(machine: CounterMachine, word: str) -> Verdict:
    """Exact verdict of any machine class on a word: the one engine dispatch.

    Classical machines yield their accept/reject/dontknow masses, quantum
    machines the Born-rule probabilities of one final measurement.
    """
    kernel = compiled(machine)
    dist, den = advance_runs(kernel, tape_of(word, machine.alphabet))
    return read(kernel, dist.items(), den)


def run_many(machine: CounterMachine, words: Iterable[str]) -> Iterator[Verdict]:
    """``run_word`` of every word, yielded lazily and in order.

    Each distinct (content, D) reached is one node of a memo that lives
    only in this call: a node's step on a symbol is taken once and then
    kept as its edge, and so are its ``$`` step and ``Verdict``.  The memo
    is keyed by content, so a node's edges are the steps of every prefix
    that reaches it: each word walks them from the node after ``¢`` and
    steps only where an edge is missing.  A word with a bad symbol raises
    ``tape_of``'s error.  One ``Verdict`` object is shared by every word
    with its value.  Once the memo holds more than ``MEMO_CONFIGS`` entries
    it is cleared between words down to the ``¢`` node, so it holds at most
    that many plus one word's nodes.
    """
    kernel = compiled(machine)
    verdict_of = born if kernel.quantum else tally
    allowed = set(machine.alphabet).difference(ENDMARKERS)
    verdicts: dict[tuple, Verdict] = {}  # (sums, D) -> its Verdict
    shared: dict[Verdict, Verdict] = {}  # one object per value
    memo: dict[tuple, list] = {}  # (content, D) -> [distribution, D, {symbol: node}, verdict]
    frozen: dict[int, tuple] = {}  # id(group list) -> (list, its masses as a tuple)
    held = 0  # entries in the memo: see MEMO_CONFIGS

    def group(item: tuple) -> tuple:
        """A group as (state, low, masses): its content, since both ends are
        nonzero, built once per list, which nothing writes once it is made
        (:func:`_add` merges into a new list)."""
        nonlocal held
        state, (low, counts) = item
        hit = frozen.get(id(counts))
        if hit is None:
            hit = frozen[id(counts)] = (counts, tuple(counts))
            held += len(counts)
        return state, low, hit[1]

    def node(dist: Groups | IntDist, den: int) -> list:
        nonlocal held
        content = frozenset(dist.items() if kernel.rows is None else map(group, dist.items()))
        found = memo.get((content, den))
        if found is None:
            found = memo[(content, den)] = [dist, den, {}, None]
            held += len(content)
        return found

    start = node(*advance(kernel, (LEFT_END,)))
    for word in words:
        if not allowed.issuperset(word):
            tape_of(word, machine.alphabet)  # raises for the first bad symbol
        if held > MEMO_CONFIGS:
            memo.clear()
            frozen.clear()
            held = 0
            start = node(start[0], start[1])
        at = start
        for symbol in word:
            step = at[2].get(symbol)
            if step is None:
                step = at[2][symbol] = node(*advance(kernel, (symbol,), at[0], at[1]))
            at = step
        if at[3] is None:
            dist, den = advance(kernel, (RIGHT_END,), at[0], at[1])
            key = (outcome_sums(kernel, dist.items()), den)
            if key not in verdicts:
                verdict = verdict_of(*key)
                verdicts[key] = shared.setdefault(verdict, verdict)
            at[3] = verdicts[key]
        yield at[3]


# ---------------------------------------------------------------------------
# Conversions for the public Fraction / Amplitude interfaces.
# ---------------------------------------------------------------------------


def read_exact(machine: CounterMachine, dist: Mapping[tuple[str, int], object]) -> Verdict:
    """The verdict of a ``Fraction`` distribution or ``Amplitude`` vector."""
    kernel = compiled(machine)
    values, den = from_exact(kernel, dist)
    items = values.items()
    if kernel.rows is not None:
        items = [(config % kernel.size, (config // kernel.size, [mass])) for config, mass in items]
    return read(kernel, items, den)


def from_exact(kernel: Kernel, dist: Mapping[tuple[str, int], object]) -> tuple[IntDist, int]:
    """A ``Fraction`` distribution or ``Amplitude`` vector in compiled form,
    over its least common denominator; keys that compile to one
    configuration (unknown state names fall into the sink) add up."""
    exact = (int, Fraction, Amplitude) if kernel.quantum else (int, Fraction)
    for key, value in dist.items():
        if not isinstance(value, exact):
            raise SimulationError(f"{key!r} holds {value!r}, not one of {', '.join(t.__name__ for t in exact)}")
    items = [(key, _ratio(value, kernel.quantum)) for key, value in dist.items()]
    if kernel.quantum:  # exact-zero amplitudes are not part of a vector
        items = [item for item in items if item[1][0] != QZERO]
    den = lcm(*(d for _, (_, d) in items))
    ids, size = kernel.ids, kernel.size
    out: IntDist = {}
    for (state, counter), (num, d) in items:
        config = counter * size + ids.get(state, size - 1)
        value = num * (den // d)
        prev = out.get(config)
        out[config] = value if prev is None else prev + value
    return out, den


def to_exact(kernel: Kernel, dist: IntDist, den: int) -> dict:
    """The compiled distribution as ``Fraction`` masses or ``Amplitude`` values."""
    config, exact = kernel.config, Amplitude.over if kernel.quantum else Fraction
    return {config(key): exact(value, den) for key, value in dist.items()}


def step_exact(machine: CounterMachine, dist: Mapping[tuple[str, int], object], symbol: str) -> dict:
    """One step of a ``Fraction`` distribution or an ``Amplitude`` vector.

    The rows are read through ``machine.entries``, one lookup per
    configuration held, so a single step sees the table through the
    machine's total lookup as it always has; the step itself runs
    through :func:`propagate`.
    """
    if symbol not in machine.tape_symbols:
        raise SimulationError(f"symbol {symbol!r} is not on this machine's tape")
    kernel = compiled(machine)
    values, den = from_exact(kernel, dist)
    names, size = kernel.names, kernel.size
    rows = {}
    for config in values:
        state = config % size
        key = (names[state], symbol, Z if config == state else NZ)
        rows[key] = machine.entries(*key)
    tables = _tables(machine, kernel.ids, rows.items(), (symbol,))
    return to_exact(kernel, *propagate(kernel, (symbol,), values, den, tables=tables))
