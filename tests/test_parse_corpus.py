"""Parse identity corpus: seeded mutations of the emitted zoo texts.

Every diagnostic line that ``parse_with_diagnostics`` prints on the corpus
is folded into one sha256, so a change to any message, span or order of
diagnostics shows here.  ``xoreq-q1ca``'s 200 KB text is left out: one
parse of it costs about as much as a few hundred of the others.
"""
import hashlib
import random

from ocalab import emit, get_entry, parse_with_diagnostics, zoo_names

SEED = 11
MUTATIONS = 1000
# Tokens a mutation may insert: directive heads, separators, statuses,
# endmarker aliases, numbers, weights and plain junk.
POOL = (
    "machine", "class", "initial", "maxstep", "states", "alphabet", "accept",
    "neutral", "trans", ",", "->", "@", "*", "Z", "NZ", "LEND", "REND",
    "0", "1", "-1", "2", "x", "1/2", "1/3", "0/1", "d1ca", "p1ca", "q1ca", "#",
)


def _mutate(rng, lines):
    lines = list(lines)
    op = rng.randrange(7)
    i = rng.randrange(len(lines))
    toks = lines[i].split(" ")
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2 and len(toks) > 1:
        del toks[rng.randrange(len(toks))]
        lines[i] = " ".join(toks)
    elif op == 3:
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(POOL))
        lines[i] = " ".join(toks)
    elif op == 4:
        toks[rng.randrange(len(toks))] = rng.choice(POOL)
        lines[i] = " ".join(toks)
    elif op == 5:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines.insert(i, " ".join(rng.choice(POOL) for _ in range(rng.randrange(1, 5))))
    return lines or [""]


def corpus():
    """The seeded mutated texts, in a fixed order."""
    rng = random.Random(SEED)
    texts = [
        emit(get_entry(name).machine).split("\n")
        for name in zoo_names()
        if name != "xoreq-q1ca"
    ]
    out = []
    for _ in range(MUTATIONS):
        lines = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            lines = _mutate(rng, lines)
        out.append("\n".join(lines))
    return out


def digest(texts):
    """(sha256 of every diagnostic line, texts rejected)."""
    sha = hashlib.sha256()
    rejected = 0
    for index, text in enumerate(texts):
        machine, diagnostics = parse_with_diagnostics(text)
        rejected += machine is None
        sha.update(f"#{index}\n".encode())
        for diagnostic in diagnostics:
            sha.update(f"{diagnostic}\n".encode())
    return sha.hexdigest(), rejected


def test_parse_identity_corpus():
    assert digest(corpus()) == (
        "8b66e2604ddbd74500aa50f23c598fb35a3572fdce5deaac18e152424ccfa8c2",
        853,
    )
