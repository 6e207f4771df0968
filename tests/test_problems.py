"""Promise problems: classifiers, instance generators, registry."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocalab import (
    NO,
    OUTSIDE,
    YES,
    EngineError,
    classify_eq3,
    classify_eqstar,
    classify_eqstar_complement,
    classify_L,
    classify_none,
    classify_one,
    classify_onenone_t,
    classify_xoreq,
    get_problem,
    list_problems,
    xoreq_blocks,
    xoreq_word,
)
from reference import ref_gen_L, ref_gen_onenone, ref_gen_over, ref_gen_xoreq


# ---------------------------------------------------------------------------
# The eight-block counting language.
# ---------------------------------------------------------------------------


def test_xoreq_word_shape():
    word = xoreq_word(2, 2, 2, 4, 2, 0, 0, 0)
    assert word == "00#00#00#0000#00###"
    assert word.count("#") == 7


def test_xoreq_blocks_inverts_word():
    sizes = (2, 4, 8, 4, 6, 0, 0, 0)
    assert xoreq_blocks(xoreq_word(*sizes)) == sizes
    assert xoreq_blocks("01#") is None
    assert xoreq_blocks("00#00") is None  # wrong block count
    assert xoreq_blocks("") is None


def test_classify_xoreq_frozen_examples():
    assert classify_xoreq(xoreq_word(2, 2, 2, 4, 2, 0, 0, 0)) == YES
    assert classify_xoreq(xoreq_word(2, 2, 2, 2, 0, 0, 0, 0)) == NO
    assert classify_xoreq(xoreq_word(2, 2, 2, 4, 0, 0, 0, 0)) == OUTSIDE
    assert classify_xoreq(xoreq_word(1, 2, 2, 2, 0, 0, 0, 0)) == OUTSIDE  # odd block
    assert classify_xoreq(xoreq_word(0, 2, 2, 2, 0, 0, 0, 0)) == OUTSIDE  # empty block
    assert classify_xoreq("00#00#00#00#00#00") == OUTSIDE  # six blocks
    assert classify_xoreq("0101") == OUTSIDE


def test_classify_xoreq_yes_matches_xor_of_equalities():
    problem = get_problem("xor-eq")
    seen_yes = seen_no = 0
    for word, label in problem.generate(6):
        a, b, c, d, _k1, _k2, _l1, _l2 = xoreq_blocks(word)
        xor = (a == c) != (b == d)
        if label == YES:
            assert xor
            seen_yes += 1
        else:
            assert label == NO
            assert not xor
            seen_no += 1
    assert seen_yes and seen_no


# ---------------------------------------------------------------------------
# ONE / NONE block classifiers.
# ---------------------------------------------------------------------------


def test_classify_one_and_none_tables():
    assert classify_one("a")
    assert classify_one("ab")
    assert not classify_one("abc")
    assert not classify_one("")
    assert not classify_one("aab")

    assert classify_none("aab")
    assert classify_none("abb")
    assert not classify_none("aabb")  # counts (2,2,0): one pair equal
    assert not classify_none("a")
    assert not classify_none("")
    assert not classify_none("abc")
    assert not classify_one("xa")
    assert not classify_none("xa")


def test_classify_onenone_t_frozen_words():
    assert classify_onenone_t("adaabddd", 1) == YES
    assert classify_onenone_t("aabdddad", 1) == NO
    assert classify_onenone_t("adad", 1) == OUTSIDE  # one/one, not alternating
    assert classify_onenone_t("ad", 1) == OUTSIDE  # single block, needs two
    assert classify_onenone_t("adabbddd", 1) == YES
    assert classify_onenone_t("abbdddad", 1) == NO
    assert classify_onenone_t("aabdd", 1) == OUTSIDE  # |y| < |u|
    assert classify_onenone_t("", 1) == OUTSIDE
    assert classify_onenone_t("adaabddd" * 2, 2) == YES
    assert classify_onenone_t("aabdddad" * 2, 2) == NO
    assert classify_onenone_t("adaabddd" * 3, 3) == YES
    assert classify_onenone_t("aabdddad" * 3, 3) == NO
    with pytest.raises(EngineError):
        classify_onenone_t("ad", 0)


def test_classify_onenone_t_outside_cases():
    assert classify_onenone_t("adaab", 1) == OUTSIDE  # trailing block truncated
    assert classify_onenone_t("aabdddaabddd", 2) == OUTSIDE  # two blocks, needs four
    assert classify_onenone_t("adaabdddad", 2) == OUTSIDE  # three blocks for t=2
    assert classify_onenone_t("adaabdddadad", 2) == OUTSIDE  # one/none/one/one
    assert classify_onenone_t("adaabddd", 2) == OUTSIDE  # a yes-word for the wrong t
    assert classify_onenone_t("xyz", 1) == OUTSIDE
    assert classify_onenone_t("abcdddaabddd", 1) == OUTSIDE  # first block neither ONE nor NONE
    assert classify_onenone_t("adabcddd", 1) == OUTSIDE  # second block neither ONE nor NONE


# ---------------------------------------------------------------------------
# Equal-count languages over {a, b} and {c, d, e}.
# ---------------------------------------------------------------------------


_BLOCK = re.compile(r"(a+)(b+)")


def eqstar_reference(word):
    """Strip maximal a-run/b-run blocks; member iff every block is balanced."""
    if word == "":
        return True
    match = _BLOCK.match(word)
    if not match or len(match.group(1)) != len(match.group(2)):
        return False
    return eqstar_reference(word[match.end() :])


def all_ab_words(limit):
    frontier = [""]
    for word in frontier:
        yield word
        if len(word) < limit:
            frontier.extend((word + "a", word + "b"))


def test_classify_eqstar_matches_reference():
    words = list(all_ab_words(8))
    assert len(words) == 511
    for word in words:
        assert classify_eqstar(word) == eqstar_reference(word), word
        assert classify_eqstar_complement(word) == (not eqstar_reference(word)), word


def test_classify_eqstar_rejects_alien_letters():
    # both classifiers are scoped to {a,b}: alien letters sit in neither
    assert not classify_eqstar("ax")
    assert not classify_eqstar_complement("ax")


def test_classify_eq3_table():
    assert classify_eq3("")
    assert classify_eq3("cde")
    assert classify_eq3("ccddee")
    assert not classify_eq3("cdde")
    assert not classify_eq3("ccde")
    assert not classify_eq3("dce")  # order matters
    assert not classify_eq3("cd")
    assert not classify_eq3("cdea")


@pytest.mark.parametrize("word", ["xab", "abx", "aaxbb", "xcde", "cdxe", "cdex"])
def test_a_stray_letter_anywhere_is_in_no_block_language(word):
    # before, inside and after a block: each oracle's own scan rejects it
    assert not classify_eqstar(word)
    assert not classify_eqstar_complement(word)
    assert not classify_eq3(word)
    assert not classify_L(word)


def test_classify_L_table():
    assert classify_L("")
    assert classify_L("ba")
    assert classify_L("aab")
    assert not classify_L("ab")
    assert not classify_L("aabb")
    assert classify_L("cde")
    assert not classify_L("cdde")
    assert not classify_L("acde")  # mixed alphabets
    assert not classify_L("ax")


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="ab", max_size=12))
def test_eqstar_complement_is_exact_complement(word):
    assert classify_eqstar_complement(word) == (not classify_eqstar(word))


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------

FROZEN_COUNTS = {
    ("xor-eq", 6): (4573, 2052),
    ("one-none-t1", 16): (6048, 3024),
    ("one-none-t2", 20): (93312, 46656),
    ("one-none-t3", 24): (11664, 5832),
    ("eq-star", 6): (127, None),
}


@pytest.mark.parametrize("name,n", sorted(FROZEN_COUNTS))
def test_generator_frozen_counts(name, n):
    total_expected, yes_expected = FROZEN_COUNTS[(name, n)]
    instances = list(get_problem(name).generate(n))
    assert len(instances) == total_expected
    if yes_expected is not None:
        assert sum(1 for _, label in instances if label == YES) == yes_expected


CLASSIFIERS = {
    "xor-eq": classify_xoreq,
    "one-none-t1": lambda w: classify_onenone_t(w, 1),
    "one-none-t2": lambda w: classify_onenone_t(w, 2),
    "one-none-t3": lambda w: classify_onenone_t(w, 3),
    "eq-star": lambda w: YES if classify_eqstar(w) else NO,
    "eq-star-complement": lambda w: YES if classify_eqstar_complement(w) else NO,
    "eq3": lambda w: YES if classify_eq3(w) else NO,
    "lang-L": lambda w: YES if classify_L(w) else NO,
}

SMALL_N = {
    "xor-eq": 4,
    "one-none-t1": 8,
    "one-none-t2": 16,  # shortest 4-block word is 16 letters
    "one-none-t3": 24,  # shortest 6-block word is 24 letters
    "eq-star": 8,
    "eq-star-complement": 8,
    "eq3": 8,
    "lang-L": 8,
}


@pytest.mark.parametrize("name", sorted(CLASSIFIERS))
def test_generator_labels_agree_with_classifier(name):
    problem = get_problem(name)
    classify = CLASSIFIERS[name]
    instances = list(problem.generate(SMALL_N[name]))
    assert instances, name
    words = [word for word, _ in instances]
    assert len(words) == len(set(words)), "duplicate instance"
    for word, label in instances:
        assert label in (YES, NO)
        assert classify(word) == label, word
        if name != "xor-eq":  # xor-eq's n bounds block sizes, not |word|
            assert len(word) <= SMALL_N[name]
    # deterministic ordering: a second pass yields the identical sequence
    assert list(problem.generate(SMALL_N[name])) == instances


@pytest.mark.parametrize(
    "name,bad_n",
    [
        ("xor-eq", 26),
        ("eq-star", 17),
        ("eq-star-complement", 17),
        ("eq3", 17),
        ("lang-L", 17),
        ("one-none-t1", 201),
        ("xor-eq", -1),
    ],
)
def test_generator_ceilings(name, bad_n):
    with pytest.raises(EngineError):
        list(get_problem(name).generate(bad_n))


REFERENCE_LISTS = {
    "xor-eq": ref_gen_xoreq,
    "one-none-t1": lambda n: ref_gen_onenone(1, n),
    "one-none-t2": lambda n: ref_gen_onenone(2, n),
    "one-none-t3": lambda n: ref_gen_onenone(3, n),
    "eq-star": lambda n: ref_gen_over("ab", classify_eqstar, n),
    "eq-star-complement": lambda n: ref_gen_over("ab", classify_eqstar_complement, n),
    "eq3": lambda n: ref_gen_over("cde", classify_eq3, n),
    "lang-L": ref_gen_L,
}


@pytest.mark.parametrize("name", list_problems())
def test_instances_stream_the_reference_lists(name):
    problem = get_problem(name)
    top = SMALL_N[name]
    for n in sorted({0, 1, top // 2, top}):
        stream = problem.instances(n)
        assert iter(stream) is stream  # a lazy iterator, not a list
        listed = list(stream)
        assert listed == REFERENCE_LISTS[name](n), n
        assert problem.generate(n) == listed


@pytest.mark.parametrize("name", list_problems())
def test_instances_check_the_bound_when_called(name):
    problem = get_problem(name)
    for bad_n in (-1, problem.ceiling + 1):
        with pytest.raises(EngineError):
            problem.instances(bad_n)  # raises before anything is read


def test_problem_registry():
    assert list_problems() == [
        "xor-eq",
        "one-none-t1",
        "one-none-t2",
        "one-none-t3",
        "eq-star",
        "eq-star-complement",
        "eq3",
        "lang-L",
    ]
    assert get_problem("one-none").name == "one-none-t1"
    for name in list_problems():
        assert get_problem(name).name == name
    with pytest.raises(EngineError):
        get_problem("three-sat")
