"""Membership oracles and bounded instance generators.

Every machine in the zoo targets one of the problems defined here.  The
oracles are plain string scans, written independently of any machine so
the test suite can check constructions against ground truth.  Language
problems label every string yes/no; promise problems additionally return
``outside_promise`` for strings the machines are never asked about.

Generators enumerate bounded instance sets deterministically (and
duplicate-free), so batch reports and refutation scans are reproducible.
``PromiseProblem.instances`` streams them lazily; ``generate`` lists them.
Each generator documents its enumeration domain; they are exhaustive over
that domain, which for the structured problems is a tuple/block space
rather than the set of all strings.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

from .core import EngineError

__all__ = [
    "NO",
    "OUTSIDE",
    "PromiseProblem",
    "YES",
    "classify_L",
    "classify_eq3",
    "classify_eqstar",
    "classify_eqstar_complement",
    "classify_none",
    "classify_one",
    "classify_onenone_t",
    "classify_xoreq",
    "generate",
    "get_problem",
    "list_problems",
    "xoreq_blocks",
    "xoreq_word",
]

YES = "yes"
NO = "no"
OUTSIDE = "outside_promise"

DEFAULT_CEILING = 24
WORD_CEILING = 16  # problems that list every string up to the bound
ONENONE_CEILING = 200
# A ONE block is at least "ad" and a NONE block at least "abbddd" long, so the
# shortest one-none-t<t> instance has 8t letters: larger t have no instance.
ONENONE_T_MAX = ONENONE_CEILING // 8

Instance = tuple[str, str]


@dataclass(frozen=True)
class PromiseProblem:
    """A named problem: oracle plus bounded deterministic generator.

    ``stream(n)`` yields the instances of size bound ``n``, which must lie
    in ``0..ceiling``.
    """

    name: str
    alphabet: tuple[str, ...]
    classify: Callable[[str], str]
    stream: Callable[[int], Iterator[Instance]]
    ceiling: int = DEFAULT_CEILING

    def instances(self, n: int) -> Iterator[Instance]:
        """The instances up to ``n``, lazily; a bad ``n`` raises right away."""
        if n < 0:
            raise EngineError(f"size bound must be nonnegative, got {n}")
        if n > self.ceiling:
            raise EngineError(f"size bound {n} exceeds the configured ceiling {self.ceiling}")
        return self.stream(n)

    def generate(self, n: int) -> list[Instance]:
        return list(self.instances(n))


# ---------------------------------------------------------------------------
# XOR-EQ: eight 0-blocks separated by #, promise ties the offset blocks to
# the two comparisons so exactly-counter-matched interference is possible.
# ---------------------------------------------------------------------------

XOREQ_ALPHABET = ("0", "#")


def xoreq_word(a: int, b: int, c: int, d: int, k1: int, k2: int, l1: int, l2: int) -> str:
    """Build the 8-block input string for a tuple of block lengths."""
    blocks = (a, b, c, d, k1, k2, l1, l2)
    if any(x < 0 for x in blocks):
        raise EngineError("block lengths must be nonnegative")
    return "#".join("0" * x for x in blocks)


def xoreq_blocks(word: str) -> tuple[int, ...] | None:
    """Recover the eight block lengths, or None if the shape is wrong."""
    parts = word.split("#")
    if len(parts) != 8 or any(part.strip("0") for part in parts):
        return None
    return tuple(len(part) for part in parts)


def classify_xoreq(word: str) -> str:
    """Oracle for the XOR of the two equality comparisons.

    The promise requires the shape above, the four compared numbers even
    and positive, and the displayed relation between the comparisons and
    the offset blocks; the offsets may be zero.
    """
    blocks = xoreq_blocks(word)
    if blocks is None:
        return OUTSIDE
    a, b, c, d, k1, k2, l1, l2 = blocks
    if any(x <= 0 or x % 2 for x in (a, b, c, d)):
        return OUTSIDE
    left = a - c + (-1 if a == c else 1) * (k1 - k2)
    right = b - d + (-1 if b == d else 1) * (l1 - l2)
    if left != right:
        return OUTSIDE
    return YES if (a == c) != (b == d) else NO


def _gen_xoreq(n: int) -> Iterator[Instance]:
    """All promised tuples with a,b,c,d even in [2, n] and offsets in [0, 4].

    The tuples come in lexicographic order.  The promise fixes l1 - l2 once
    a, b, c, d, k1, k2 are chosen, so only promised words are ever built.
    """
    sizes = range(2, n + 1, 2)
    offsets = range(0, 5)
    for a, b, c, d in product(sizes, repeat=4):
        label = YES if (a == c) != (b == d) else NO
        sign_k = -1 if a == c else 1
        sign_l = -1 if b == d else 1
        for k1, k2 in product(offsets, repeat=2):
            left = a - c + sign_k * (k1 - k2)
            gap = sign_l * (left - (b - d))  # the l1 - l2 that makes right == left
            for l1 in offsets:
                l2 = l1 - gap
                if 0 <= l2 <= 4:
                    yield xoreq_word(a, b, c, d, k1, k2, l1, l2), label


# ---------------------------------------------------------------------------
# ONE / NONE block classification over {a,b,c} and the alternating promise.
# ---------------------------------------------------------------------------


def _pair_equalities(u: str) -> int | None:
    """How many of the three symbol-count pairs of ``u`` are equal; None
    when ``u`` has a letter outside {a,b,c}."""
    if set(u) - {"a", "b", "c"}:
        return None
    counts = (u.count("a"), u.count("b"), u.count("c"))
    return sum(
        counts[i] == counts[j] for i, j in ((0, 1), (1, 2), (2, 0))
    )


def classify_one(u: str) -> bool:
    """Exactly one of the three unordered symbol-count pairs is equal."""
    return _pair_equalities(u) == 1


def classify_none(u: str) -> bool:
    """No two of the three symbol counts are equal."""
    return _pair_equalities(u) == 0


_RUN_RE = re.compile(r"([abc]+)(d+)")


def classify_onenone_t(word: str, t: int) -> str:
    """Oracle for the alternating ONE/NONE promise with 2t blocks.

    The word must decompose as exactly 2t blocks u·y with u over {a,b,c}
    nonempty, y a run of d at least as long as u.  Odd blocks ONE and even
    blocks NONE is a yes; swapped is a no; anything else is outside.
    """
    if t < 1:
        raise EngineError(f"t must be positive, got {t}")
    pos = 0
    kinds: list[str] = []
    for match in _RUN_RE.finditer(word):
        if match.start() != pos:
            return OUTSIDE
        pos = match.end()
        u, y = match.group(1), match.group(2)
        if len(y) < len(u):
            return OUTSIDE
        if classify_one(u):
            kinds.append("one")
        elif classify_none(u):
            kinds.append("none")
        else:
            return OUTSIDE
    if pos != len(word) or len(kinds) != 2 * t:
        return OUTSIDE
    if kinds == ["one", "none"] * t:
        return YES
    if kinds == ["none", "one"] * t:
        return NO
    return OUTSIDE


def _strings_over(symbols: str, max_len: int) -> Iterator[str]:
    """The nonempty words over ``symbols`` up to ``max_len``, shortest first."""
    for length in range(1, max_len + 1):
        for tup in product(symbols, repeat=length):
            yield "".join(tup)


def _one_vocab(max_len: int) -> list[str]:
    return [u for u in _strings_over("abc", max_len) if classify_one(u)]


def _none_vocab(max_len: int) -> list[str]:
    return [u for u in _strings_over("abc", max_len) if classify_none(u)]


# Per-t enumeration vocabularies.  The instance count for the full
# u-length-4 vocabulary grows as (75*42)^t, so for t >= 2 the generator
# uses smaller length caps (t=2) and one canonical NONE representative per
# count pattern (t=3) to keep exhaustive runs tractable.
def _canonical_none_reps() -> list[str]:
    reps: dict[tuple[int, int, int], str] = {}
    for u in _none_vocab(3):
        key = (u.count("a"), u.count("b"), u.count("c"))
        reps.setdefault(key, u)
    return sorted(reps.values())


@functools.cache
def _onenone_vocab(t: int) -> tuple[list[str], list[str]]:
    if t == 1:
        return _one_vocab(4), _none_vocab(4)
    if t == 2:
        return _one_vocab(2), _none_vocab(3)
    return _one_vocab(1), _canonical_none_reps()


def _blocks_within(vocabs: list[list[str]], budget: int) -> Iterator[tuple[str, ...]]:
    """The tuples of ``product(*vocabs)``, in its order, of total length <= budget."""
    if not vocabs:
        yield ()
        return
    head, rest = vocabs[0], vocabs[1:]
    least_rest = sum(min(map(len, vocab)) for vocab in rest)
    for u in head:
        if len(u) + least_rest <= budget:
            for tail in _blocks_within(rest, budget - len(u)):
                yield (u, *tail)


def _gen_onenone(t: int, n: int) -> Iterator[Instance]:
    """Alternating-block instances with minimal d-runs (|y| = |u|).

    Enumerates every block tuple over the per-t vocabulary whose total
    length fits within n, yes and no shapes both.  A block u costs 2|u|
    letters, so tuples are pruned on their u-length before any joining.
    """
    ones, nones = _onenone_vocab(t)
    for label, first, second in ((YES, ones, nones), (NO, nones, ones)):
        for blocks in _blocks_within([first, second] * t, n // 2):
            yield "".join(u + "d" * len(u) for u in blocks), label


# ---------------------------------------------------------------------------
# Equality-block languages over {a,b} and {c,d,e}, and their composite.
# ---------------------------------------------------------------------------


def classify_eqstar(word: str) -> bool:
    """Member of the closure of {a^n b^n | n > 0} (empty string included);
    any other letter cuts a block short or starts one with no a's."""
    pos = 0
    while pos < len(word):
        a_run = 0
        while pos < len(word) and word[pos] == "a":
            a_run += 1
            pos += 1
        b_run = 0
        while pos < len(word) and word[pos] == "b":
            b_run += 1
            pos += 1
        if a_run == 0 or a_run != b_run:
            return False
    return True


def classify_eqstar_complement(word: str) -> bool:
    """Member of the complement, within strings over {a,b}."""
    if set(word) - {"a", "b"}:
        return False
    return not classify_eqstar(word)


def classify_eq3(word: str) -> bool:
    """Member of {c^n d^n e^n | n >= 0}."""
    n, rem = divmod(len(word), 3)
    return rem == 0 and word == "c" * n + "d" * n + "e" * n


def classify_L(word: str) -> bool:
    """Union language: complement blocks over {a,b}, or a c^n d^n e^n string.

    The empty string belongs to both constituents.  Strings mixing the two
    alphabets belong to neither.
    """
    if word == "":
        return True
    chars = set(word)
    if chars <= {"a", "b"}:
        return not classify_eqstar(word)
    if chars <= {"c", "d", "e"}:
        return classify_eq3(word)
    return False


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _word_problem(
    name: str, fragments: tuple[str, ...], member: Callable[[str], bool]
) -> PromiseProblem:
    """The empty word, then every word over each fragment's symbols in turn
    up to the bound, labelled by ``member``."""

    def classify(word: str) -> str:
        return YES if member(word) else NO

    def stream(n: int) -> Iterator[Instance]:
        yield "", classify("")
        for symbols in fragments:
            for w in _strings_over(symbols, n):
                yield w, YES if member(w) else NO

    return PromiseProblem(name, tuple("".join(fragments)), classify, stream, WORD_CEILING)


def _onenone_problem(t: int) -> PromiseProblem:
    return PromiseProblem(
        f"one-none-t{t}",
        ("a", "b", "c", "d"),
        lambda w: classify_onenone_t(w, t),
        lambda n: _gen_onenone(t, n),
        ONENONE_CEILING,
    )


_PROBLEMS = {
    problem.name: problem
    for problem in (
        PromiseProblem("xor-eq", XOREQ_ALPHABET, classify_xoreq, _gen_xoreq),
        _word_problem("eq-star", ("ab",), classify_eqstar),
        _word_problem("eq-star-complement", ("ab",), classify_eqstar_complement),
        _word_problem("eq3", ("cde",), classify_eq3),
        _word_problem("lang-L", ("ab", "cde"), classify_L),
        *(_onenone_problem(t) for t in range(1, ONENONE_T_MAX + 1)),
    )
}


def get_problem(name: str) -> PromiseProblem:
    """Look up a problem by its stable name.

    ``one-none-t<t>`` takes t in 1..25, and ``one-none`` is ``one-none-t1``.
    """
    problem = _PROBLEMS.get("one-none-t1" if name == "one-none" else name)
    if problem is None:
        raise EngineError(f"unknown problem name: {name!r}")
    return problem


def list_problems() -> list[str]:
    """Stable names; the parametric family is listed at its default t."""
    return ["xor-eq", "one-none-t1", "one-none-t2", "one-none-t3",
            "eq-star", "eq-star-complement", "eq3", "lang-L"]


def generate(name: str, n: int) -> list[Instance]:
    """Labeled, duplicate-free, deterministically ordered instance list."""
    return get_problem(name).generate(n)
