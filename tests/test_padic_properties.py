"""Capped arithmetic against its general path and against exact rationals.

Two oracles:

* ``padic_reference`` keeps the general ``__add__``/``__mul__``/``__neg__``
  with no branch by operand kind; every result of the fast branches must
  equal it field for field.
* Exact ``Fraction`` arithmetic: a capped x stands for every rational
  congruent to ``value(x)`` mod p^abs(x).  The result of ``+ - * /`` and
  ``pow`` must agree with the exact result on any such representatives,
  modulo the absolute precision the result claims.  Choosing the
  representatives at random is what catches a result that claims more
  digits than its inputs support.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padic_reference as ref
from padicops.errors import DivisionByZero, PrecisionLoss
from padicops.padic import PadicScalar, rational_valuation

PRIMES = [2, 3, 5, 17]
PRECISIONS = [1, 2, 3, 8, 64]


# ----- scalars -----------------------------------------------------------


def unit(p, v, u, N):
    """Capped u * p^v with u made a unit mod p^N."""
    u %= p**N
    if u % p == 0:
        u += 1
    return PadicScalar.capped(p, v, u, N)


def grid(p):
    """Every kind the fast branches tell apart, with units of differing
    v and N (and a unit and its negative at each (v, N))."""
    out = [
        PadicScalar.zero(p),
        PadicScalar.from_int(p, 0),
        PadicScalar.one(p),
        PadicScalar.from_int(p, 1),
        PadicScalar.from_int(p, -1),
        PadicScalar.from_rational(p, Fraction(2, 3) * p),
        PadicScalar.from_rational(p, Fraction(-7, p**2)),
        PadicScalar.from_int(p, p + 1),
        PadicScalar.capped_zero(p, -1),
        PadicScalar.capped_zero(p, 0),
        PadicScalar.capped_zero(p, 3),
    ]
    for N in PRECISIONS:
        for v in (-1, 0, 2):
            out.append(unit(p, v, 1 + p, N))
            out.append(unit(p, v, -(1 + p), N))
        out.append(unit(p, 0, 3**N + 5, N))
    return out


@st.composite
def scalars(draw, p):
    kind = draw(st.sampled_from(["exact", "one", "minus_one", "zero", "unit", "capped_zero"]))
    if kind == "exact":
        num = draw(st.integers(-60, 60))
        den = draw(st.integers(1, 60))
        return PadicScalar.from_rational(p, Fraction(num, den) * Fraction(p) ** draw(st.integers(-3, 3)))
    if kind == "one":
        return PadicScalar.from_int(p, 1)
    if kind == "minus_one":
        return PadicScalar.from_int(p, -1)
    if kind == "zero":
        return PadicScalar.from_int(p, 0)
    if kind == "capped_zero":
        return PadicScalar.capped_zero(p, draw(st.integers(-4, 8)))
    N = draw(st.sampled_from(PRECISIONS))
    return unit(p, draw(st.integers(-4, 4)), draw(st.integers(1, p**N)), N)


@st.composite
def pairs(draw):
    """(x, y) over one prime; a third of the units nearly cancel."""
    p = draw(st.sampled_from(PRIMES))
    x = draw(scalars(p))
    if x.kind == "unit" and draw(st.integers(0, 2)) == 0:
        # y = -x + p^s * w at its own precision: cancels s - v digits
        N = draw(st.sampled_from(PRECISIONS))
        s = x.v + draw(st.integers(0, x.N + 1))
        w = draw(st.integers(0, p**N))
        total = -x.unit + w * p ** (s - x.v)
        y = (
            PadicScalar.capped_zero(p, x.v + N)
            if total % p**N == 0
            else unit(p, x.v, total, N)
        )
        # the nudge may have made the residue a non-unit; then y is simply
        # some unit or capped zero, which is still a valid operand
        return x, y
    return x, draw(scalars(p))


# ----- representatives ---------------------------------------------------


def abs_precision(x):
    if x.kind == "exact":
        return math.inf
    if x.kind == "unit":
        return x.v + x.N
    return x.bound


def value(x):
    """The stored value as an exact rational (0 for a capped zero)."""
    if x.kind == "exact":
        return x.frac
    if x.kind == "unit":
        return x.unit * Fraction(x.p) ** x.v
    return Fraction(0)


def representative(x, shift):
    """A rational that x stands for: value(x) + shift * p^abs(x)."""
    if x.kind == "exact":
        return x.frac
    return value(x) + shift * Fraction(x.p) ** abs_precision(x)


def assert_agrees(z, exact):
    """z agrees with the exact rational to the precision it claims."""
    if z.kind == "exact":
        assert z.frac == exact
        return
    if z.kind == "unit":
        assert 1 <= z.N and z.unit % z.p != 0 and 0 < z.unit < z.p**z.N
    assert rational_valuation(z.p, exact - value(z)) >= abs_precision(z)


# ----- field-for-field against the general path -------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_every_kind_pair_matches_general_path(p):
    xs = grid(p)
    for x in xs:
        assert ref.fields(-x) == ref.fields(ref.neg(x))
        for y in xs:
            assert ref.fields(x + y) == ref.fields(ref.add(x, y)), (x, y)
            assert ref.fields(x * y) == ref.fields(ref.mul(x, y)), (x, y)
            assert ref.fields(x - y) == ref.fields(ref.add(x, ref.neg(y))), (x, y)


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_fast_branches_match_general_path(case):
    x, y = case
    for a, b in ((x, y), (y, x)):
        assert ref.fields(a + b) == ref.fields(ref.add(a, b))
        assert ref.fields(a * b) == ref.fields(ref.mul(a, b))
        assert ref.fields(a - b) == ref.fields(ref.add(a, ref.neg(b)))
    assert ref.fields(-x) == ref.fields(ref.neg(x))


@pytest.mark.parametrize("p", PRIMES)
def test_exact_one_is_an_identity_and_minus_one_negates(p):
    for one in (PadicScalar.one(p), PadicScalar.from_int(p, 1)):
        for x in grid(p):
            assert one * x is x
            if x.kind == "exact" and x.frac in (1, -1):
                # the left factor's branch runs first
                assert ref.fields(x * one) == ref.fields(x)
            else:
                assert x * one is x
    minus_one = PadicScalar.from_int(p, -1)
    for x in grid(p):
        assert ref.fields(minus_one * x) == ref.fields(-x)
        assert ref.fields(x * minus_one) == ref.fields(-x)


def test_zero_and_one_are_shared_per_prime():
    for p in PRIMES:
        assert PadicScalar.zero(p) is PadicScalar.zero(p)
        assert PadicScalar.one(p) is PadicScalar.one(p)
        assert ref.fields(PadicScalar.zero(p)) == (p, "exact", 0, None, None, None, None)
        assert ref.fields(PadicScalar.one(p)) == (p, "exact", 1, None, None, None, None)
    assert PadicScalar.zero(3) is not PadicScalar.zero(5)
    assert PadicScalar.one(3).p == 3 and PadicScalar.one(5).p == 5


def test_prime_mismatch_is_rejected():
    for x, y in (
        (PadicScalar.one(3), PadicScalar.one(5)),
        (unit(3, 0, 2, 4), unit(5, 0, 2, 4)),
        (PadicScalar.from_int(3, 2), unit(5, 0, 2, 4)),
    ):
        with pytest.raises(ValueError, match="prime mismatch"):
            x + y
        with pytest.raises(ValueError, match="prime mismatch"):
            x * y


# ----- against exact rationals -------------------------------------------


@settings(max_examples=400, deadline=None)
@given(pairs(), st.integers(-20, 20), st.integers(-20, 20))
def test_sum_difference_product_agree_with_rationals(case, s1, s2):
    x, y = case
    rx, ry = representative(x, s1), representative(y, s2)
    assert_agrees(x + y, rx + ry)
    assert_agrees(x - y, rx - ry)
    assert_agrees(x * y, rx * ry)
    assert_agrees(-x, -rx)
    # no more absolute precision than the inputs support: a sum keeps the
    # joint precision; a product at most a capped factor's absolute
    # precision plus the other factor's valuation (or lower bound)
    if (x + y).kind != "exact":
        assert abs_precision(x + y) == min(abs_precision(x), abs_precision(y))
    if (x * y).kind != "exact":
        supported = min(
            abs_precision(a) + b.valuation_lower_bound()
            for a, b in ((x, y), (y, x))
            if a.kind != "exact"
        )
        assert abs_precision(x * y) <= supported


@settings(max_examples=300, deadline=None)
@given(pairs(), st.integers(-20, 20), st.integers(-20, 20))
def test_quotient_agrees_with_rationals(case, s1, s2):
    x, y = case
    rx, ry = representative(x, s1), representative(y, s2)
    if y.is_exact_zero():
        with pytest.raises(DivisionByZero):
            x / y
        return
    if y.kind == "zero":
        with pytest.raises(PrecisionLoss):
            x / y
        return
    assert_agrees(x / y, rx / ry)


@settings(max_examples=300, deadline=None)
@given(pairs(), st.integers(-3, 6), st.integers(-20, 20))
def test_pow_agrees_with_rationals(case, n, s):
    x, _ = case
    r = representative(x, s)
    if n < 0 and x.is_exact_zero():
        with pytest.raises(DivisionByZero):
            x**n
        return
    if n < 0 and x.kind == "zero":
        with pytest.raises(PrecisionLoss):
            x**n
        return
    assert_agrees(x**n, r**n)
