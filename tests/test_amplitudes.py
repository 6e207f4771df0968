"""Ring arithmetic of exact amplitudes over Q(sqrt2) + i*Q(sqrt2)."""
import copy
import pickle
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ocalab import AMP_HALF, AMP_INV_SQRT2, AMP_ONE, AMP_ZERO, Amplitude
from ocalab.amplitudes import Quad
from reference import ref_parts, ref_ring_abs2, ref_ring_add, ref_ring_conjugate, ref_ring_mul

F = Fraction

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=8)
amps = st.builds(Amplitude, fracs, fracs, fracs, fracs)


def sqrt2_nonneg(rat: Fraction, s2: Fraction) -> bool:
    """Exact sign test for rat + s2*sqrt2 >= 0."""
    if s2 == 0:
        return rat >= 0
    if s2 > 0:
        return rat >= 0 or rat * rat <= 2 * s2 * s2
    return rat >= 0 and rat * rat >= 2 * s2 * s2


def test_constants():
    assert AMP_ZERO == Amplitude()
    assert AMP_ONE == Amplitude(1)
    assert AMP_HALF == Amplitude(F(1, 2))
    assert AMP_INV_SQRT2 == Amplitude(0, F(1, 2))
    assert AMP_INV_SQRT2 * AMP_INV_SQRT2 == AMP_HALF


def test_construction_coerces_to_fraction():
    a = Amplitude(1, F(1, 3))
    assert a.re_rat == F(1) and isinstance(a.re_rat, Fraction)
    assert a.re_sqrt2 == F(1, 3)
    assert a.im_rat == 0 and a.im_sqrt2 == 0


def test_immutable():
    with pytest.raises(AttributeError):
        AMP_ONE.re_rat = F(2)


def test_sqrt2_and_i_squares():
    sqrt2 = Amplitude(0, 1)
    i = Amplitude(0, 0, 1, 0)
    assert sqrt2 * sqrt2 == Amplitude(2)
    assert i * i == Amplitude(-1)
    assert (sqrt2 * i) * (sqrt2 * i) == Amplitude(-2)


def test_mixed_operand_coercion():
    assert AMP_HALF + AMP_HALF == AMP_ONE
    assert AMP_HALF + F(1, 2) == AMP_ONE
    assert AMP_ONE - 1 == AMP_ZERO
    assert 1 - AMP_HALF == AMP_HALF
    assert AMP_HALF * 2 == AMP_ONE
    assert AMP_HALF * F(2, 3) == Amplitude(F(1, 3))
    with pytest.raises(TypeError):
        AMP_ONE + "x"


def test_foreign_operands_are_not_implemented():
    with pytest.raises(TypeError):
        AMP_ONE - "x"
    with pytest.raises(TypeError):
        "x" - AMP_ONE
    with pytest.raises(TypeError):
        AMP_ONE * "x"
    assert (AMP_ONE == "x") is False


def test_abs2_examples():
    assert AMP_INV_SQRT2.abs2() == (F(1, 2), F(0))
    assert Amplitude(F(1, 4), F(1, 4)).abs2() == (F(3, 16), F(1, 8))
    assert Amplitude(0, 0, 0, F(1, 2)).abs2() == (F(1, 2), F(0))
    assert Amplitude(0, F(1, 2), 0, F(1, 2)).abs2() == (F(1), F(0))


def test_is_zero_and_bool():
    assert AMP_ZERO.is_zero() and not bool(AMP_ZERO)
    assert not AMP_ONE.is_zero() and bool(AMP_ONE)
    assert Amplitude(0, 0, 0, F(1, 7)) != AMP_ZERO


def test_repr_mentions_parts():
    text = repr(Amplitude(F(1, 2), F(-1, 3)))
    assert "1/2" in text and "1/3" in text


@given(amps, amps, amps)
def test_addition_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + AMP_ZERO == x
    assert x + (-x) == AMP_ZERO


@given(amps, amps, amps)
def test_multiplication_ring_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * AMP_ONE == x
    assert x * AMP_ZERO == AMP_ZERO
    assert x * (y + z) == x * y + x * z


@given(amps, amps)
def test_subtraction_matches_negation(x, y):
    assert x - y == x + (-y)
    assert -(-x) == x


@given(amps, amps)
def test_conjugation(x, y):
    assert x.conjugate().conjugate() == x
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(amps)
def test_abs2_matches_product_with_conjugate(x):
    rat, s2 = x.abs2()
    assert x * x.conjugate() == Amplitude(rat, s2)
    assert sqrt2_nonneg(rat, s2)


@given(amps)
def test_equal_amplitudes_hash_equal(x):
    clone = Amplitude(x.re_rat, x.re_sqrt2, x.im_rat, x.im_sqrt2)
    assert clone == x
    assert hash(clone) == hash(x)


@given(fracs)
def test_real_rational_amplitudes_hash_as_their_fraction(r):
    assert Amplitude(r) == r
    assert hash(Amplitude(r)) == hash(r)
    assert len({Amplitude(r), r, AMP_INV_SQRT2 * AMP_INV_SQRT2 * 2 * r}) == 1


@pytest.mark.parametrize("part", [0.1, 1.0, "1/3", "1e3", Decimal("0.5")])
def test_parts_must_be_ints_or_fractions(part):
    with pytest.raises(TypeError):
        Amplitude(part)
    with pytest.raises(TypeError):
        Amplitude(0, 0, 0, part)


@given(amps, amps)
def test_ring_matches_four_fraction_reference(x, y):
    px, py = ref_parts(x), ref_parts(y)
    assert ref_parts(x + y) == ref_ring_add(px, py)
    assert ref_parts(x - y) == ref_ring_add(px, tuple(-p for p in py))
    assert ref_parts(x * y) == ref_ring_mul(px, py)
    assert ref_parts(x.conjugate()) == ref_ring_conjugate(px)
    assert x.abs2() == ref_ring_abs2(px)


ints = st.integers(min_value=-40, max_value=40)


@given(st.builds(Quad, ints, ints, ints, ints), st.integers(min_value=1, max_value=60))
def test_over_is_in_lowest_terms(quad, den):
    amp = Amplitude.over(quad, den)
    assert amp.den > 0 and gcd(amp.den, *amp.quad) == 1
    assert amp == Amplitude(*(Fraction(part, den) for part in quad))
    with pytest.raises(ValueError):
        Amplitude.over(quad, -den)
    with pytest.raises(ValueError):
        Amplitude.over(quad, 0)


@pytest.mark.parametrize(
    "trip", [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_quads_and_amplitudes_survive_copy_and_pickle(trip):
    values = (Quad(1, 2, 3, 4), Quad(-5), AMP_HALF, AMP_INV_SQRT2, Amplitude(F(1, 3), 0, F(-2, 7), F(1, 2)))
    for value in values:
        got = trip(value)
        assert type(got) is type(value) and got == value
        assert repr(got) == repr(value) and hash(got) == hash(value)
    with pytest.raises(AttributeError):
        trip(AMP_HALF).den = 3
