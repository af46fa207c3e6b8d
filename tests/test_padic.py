"""Scalar arithmetic: valuations, capped precision, residues, Teichmuller lifts."""

import math
import random
from fractions import Fraction

import pytest

from padicops.errors import (
    BadOrder,
    DivisionByZero,
    NotIntegral,
    PrecisionLoss,
)
from padicops.padic import (
    PadicScalar,
    parse_scalar,
    primitive_root,
    reduce_residue,
    teichmuller_root,
)


def random_fraction(rng, p):
    num = rng.randint(-50, 50)
    den = rng.randint(1, 50)
    return Fraction(num, den)


class TestValuation:
    def test_basic_values(self):
        assert PadicScalar.from_int(5, 5).valuation() == 1
        assert PadicScalar.from_int(5, 50).valuation() == 2
        assert PadicScalar.from_rational(5, Fraction(1, 5)).valuation() == -1
        assert PadicScalar.from_int(5, 7).valuation() == 0
        assert PadicScalar.zero(5).valuation() == math.inf

    def test_capped_zero_valuation_raises(self):
        z = PadicScalar.capped_zero(5, 10)
        with pytest.raises(PrecisionLoss):
            z.valuation()
        assert z.valuation_lower_bound() == 10

    def test_multiplicativity_random(self):
        rng = random.Random(101)
        for p in (3, 5, 17):
            for _ in range(1000 // 3):
                x = PadicScalar.from_rational(p, random_fraction(rng, p))
                y = PadicScalar.from_rational(p, random_fraction(rng, p))
                if x.is_zero() or y.is_zero():
                    continue
                assert (x * y).valuation() == x.valuation() + y.valuation()

    def test_ultrametric_sharp_case_exhaustive(self):
        p = 3
        grid = [
            Fraction(n, d)
            for n in range(-6, 7)
            for d in (1, 2, 3, 9)
            if n != 0
        ]
        for a in grid:
            for b in grid:
                x = PadicScalar.from_rational(p, a)
                y = PadicScalar.from_rational(p, b)
                s = x + y
                if x.valuation() != y.valuation():
                    assert s.valuation() == min(x.valuation(), y.valuation())
                elif not s.is_zero():
                    assert s.valuation() >= x.valuation()


class TestPredicates:
    @pytest.mark.parametrize(
        "x, zero, exact_zero, certified_nonzero",
        [
            (PadicScalar.from_rational(5, 0), True, True, False),
            (PadicScalar.from_rational(5, Fraction(0, 7)), True, True, False),
            (PadicScalar.from_rational(5, Fraction(-3, 25)), False, False, True),
            (PadicScalar.from_rational(5, 1), False, False, True),
            (PadicScalar.capped(5, -2, 7, 3), False, False, True),
            (PadicScalar.capped_zero(5, 4), True, False, False),
            (PadicScalar.capped_zero(5, -1), True, False, False),
        ],
    )
    def test_zero_predicates_by_kind(self, x, zero, exact_zero, certified_nonzero):
        assert x.is_zero() is zero
        assert x.is_exact_zero() is exact_zero
        assert x.is_certified_nonzero() is certified_nonzero


class TestCappedArithmetic:
    def test_cancellation_produces_certified_zero_bound(self):
        p = 5
        x = PadicScalar.capped(p, 0, 7, 8)
        y = PadicScalar.capped(p, 0, 7, 8)
        diff = x - y
        assert diff.is_zero()
        assert not diff.is_certified_nonzero()

    def test_mixed_exact_and_capped(self):
        p = 5
        x = PadicScalar.from_rational(p, Fraction(3, 4))
        y = PadicScalar.capped(p, 1, 2, 16)
        z = x * y
        assert z.valuation() == 1

    def test_inverse_roundtrip(self):
        p = 7
        x = PadicScalar.from_rational(p, Fraction(21, 4))
        assert (x * x.inverse() - PadicScalar.one(p)).is_zero()
        y = PadicScalar.capped(p, -2, 3, 20)
        assert (y * y.inverse() - PadicScalar.one(p)).is_zero()

    def test_division_by_exact_zero(self):
        p = 5
        with pytest.raises(DivisionByZero):
            PadicScalar.one(p) / PadicScalar.zero(p)

    def test_division_by_capped_zero_raises_precision(self):
        p = 5
        with pytest.raises((DivisionByZero, PrecisionLoss)):
            PadicScalar.one(p) / PadicScalar.capped_zero(p, 12)

    def test_pow(self):
        p = 3
        x = PadicScalar.from_rational(p, Fraction(6, 5))
        assert (x**3).valuation() == 3
        assert ((x**-2) * x * x - PadicScalar.one(p)).is_zero()


class TestResidue:
    def test_examples(self):
        assert reduce_residue(PadicScalar.from_int(5, 7)) == 2
        assert reduce_residue(PadicScalar.from_int(5, 25)) == 0
        with pytest.raises(NotIntegral):
            reduce_residue(PadicScalar.from_rational(5, Fraction(1, 5)))

    def test_ring_homomorphism_random(self):
        rng = random.Random(77)
        p = 5
        for _ in range(1000):
            a = rng.randint(-200, 200)
            b = rng.randint(-200, 200)
            x = PadicScalar.from_int(p, a)
            y = PadicScalar.from_int(p, b)
            assert reduce_residue(x + y) == (reduce_residue(x) + reduce_residue(y)) % p
            assert reduce_residue(x * y) == (reduce_residue(x) * reduce_residue(y)) % p


class TestTeichmuller:
    def test_primitive_root_deterministic(self):
        assert primitive_root(5) == 2
        assert primitive_root(7) == 3

    def test_order_exact(self):
        for p, m in [(5, 4), (7, 3), (17, 16), (3, 2)]:
            z = teichmuller_root(p, m)
            acc = PadicScalar.one(p)
            for t in range(1, m + 1):
                acc = acc * z
                if t < m:
                    assert not (acc - PadicScalar.one(p)).is_zero()
            assert (acc - PadicScalar.one(p)).is_zero()

    def test_digit_agreement_between_precisions(self):
        z_lo = teichmuller_root(5, 4, N=2)
        z_hi = teichmuller_root(5, 4, N=40)
        assert (z_lo - z_hi).valuation_lower_bound() >= 2
        # the order-4 root congruent to 2 mod 5 is 7 mod 25
        assert z_lo.unit % 25 == 7

    def test_order_two_is_exact_minus_one(self):
        z = teichmuller_root(3, 2)
        assert (z + PadicScalar.one(3)).is_exact_zero() or (
            z + PadicScalar.one(3)
        ).is_zero()

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            teichmuller_root(5, 3)


class TestParsing:
    def test_literals(self):
        x = parse_scalar(5, "3/4")
        assert x.equals(PadicScalar.from_rational(5, Fraction(3, 4)))
        y = parse_scalar(5, 7)
        assert y.valuation() == 0
        z = parse_scalar(5, {"v": 2, "unit": 3, "N": 10})
        assert z.valuation() == 2
