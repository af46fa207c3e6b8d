"""Cyclic harmonic analysis: characters, Haar means, Fourier, approximation."""

import random
from fractions import Fraction

import pytest

from padicops.charduals import (
    TruncatedGroup,
    WeightedSupNorm,
    abs_value_upper,
    fourier_analyze,
    fourier_synthesize,
    haar_integrate,
    trig_poly_approx,
)
from padicops.errors import ConfigInvalid
from padicops.padic import PadicScalar


def random_exact(p, rng, vrange=(-2, 2)):
    u = rng.randint(1, 6 * p)
    while u % p == 0:
        u = rng.randint(1, 6 * p)
    return PadicScalar.from_rational(p, Fraction(u) * Fraction(p) ** rng.randint(*vrange))


class TestConfiguration:
    def test_divisibility_violation_named(self):
        with pytest.raises(ConfigInvalid, match="8 does not divide"):
            TruncatedGroup(2, 3, 1, 5)

    def test_j_range(self):
        with pytest.raises(ConfigInvalid):
            TruncatedGroup(2, 1, 2, 3)

    def test_l_equals_p_rejected(self):
        with pytest.raises(ConfigInvalid):
            TruncatedGroup(3, 1, 1, 3)

    def test_dual_stabilizer_subgroup(self):
        grp = TruncatedGroup(2, 2, 1, 5)
        assert grp.g0_indices() == [0, 2]
        assert not grp.is_free
        free = TruncatedGroup(2, 2, 2, 5)
        assert free.g0_indices() == [0, 1, 2, 3]
        assert free.is_free


class TestCharacters:
    @pytest.mark.parametrize("l,k,p", [(2, 1, 3), (2, 2, 5), (3, 1, 7), (2, 3, 17)])
    def test_orthogonality_all_pairs(self, l, k, p):
        grp = TruncatedGroup(l, k, k, p)
        one, zero = PadicScalar.one(p), PadicScalar.zero(p)
        for m in range(grp.order):
            for n in range(grp.order):
                f = [
                    grp.zeta_pow(m * a) * grp.zeta_pow(-n * a)
                    for a in range(grp.order)
                ]
                integral = haar_integrate(grp, f)
                expected = one if m == n else zero
                assert (integral - expected).is_zero()

    def test_character_multiplicativity(self):
        grp = TruncatedGroup(2, 2, 2, 5)
        for n in range(grp.order):
            for a in range(grp.order):
                for b in range(grp.order):
                    lhs = grp.zeta_pow(n * (a + b))
                    rhs = grp.zeta_pow(n * a) * grp.zeta_pow(n * b)
                    assert (lhs - rhs).is_zero()

    @pytest.mark.parametrize(
        "l,k,j,p", [(2, 1, 1, 3), (2, 2, 1, 5), (2, 2, 2, 5), (2, 3, 1, 17), (3, 1, 1, 7)]
    )
    def test_g0_characters_multiply_once_and_lazily(self, l, k, j, p):
        grp = TruncatedGroup(l, k, j, p)
        assert "g0_characters_multiply" not in vars(grp)
        assert grp.g0_characters_multiply is True
        assert "g0_characters_multiply" in vars(grp)

    def test_g0_character_identity_fails_on_a_wrong_power(self):
        grp = TruncatedGroup(2, 2, 2, 5)
        # zeta^3 (1 + p): eta_1(1) eta_2(1) = zeta^-1 zeta^-2 is no longer zeta^-3
        grp._powers[3] = grp._powers[3] * PadicScalar.from_int(5, 6)
        assert grp.g0_characters_multiply is False

    def test_haar_translation_invariance_exhaustive(self):
        grp = TruncatedGroup(2, 2, 2, 5)
        rng = random.Random(31)
        f = [random_exact(5, rng) for _ in range(grp.order)]
        base = haar_integrate(grp, f)
        for b in range(grp.order):
            shifted = [f[(a + b) % grp.order] for a in range(grp.order)]
            assert (haar_integrate(grp, shifted) - base).is_zero()


class TestFourier:
    @pytest.mark.parametrize("l,k,j,p", [(2, 2, 2, 5), (2, 2, 1, 5), (3, 1, 1, 7)])
    def test_roundtrip_both_ways(self, l, k, j, p):
        grp = TruncatedGroup(l, k, j, p)
        rng = random.Random(32)
        for _ in range(20):
            F = [
                [random_exact(p, rng) for _ in range(grp.order)]
                for _ in range(grp.s_size)
            ]
            coeffs = fourier_analyze(grp, F)
            back = fourier_synthesize(grp, coeffs)
            for x in range(grp.s_size):
                for a in range(grp.order):
                    assert (back[x][a] - F[x][a]).is_zero()
            # synthesize then analyze
            again = fourier_analyze(grp, back)
            for n in range(grp.order):
                for x in range(grp.s_size):
                    assert (again[n][x] - coeffs[n][x]).is_zero()

    def test_supnorm_identity(self):
        grp = TruncatedGroup(2, 2, 2, 5)
        rng = random.Random(33)
        for _ in range(100):
            F = [[random_exact(5, rng) for _ in range(grp.order)]]
            coeffs = fourier_analyze(grp, F)
            sup_F = max(abs_value_upper(v) for row in F for v in row)
            sup_c = max(
                abs_value_upper(c)
                for row in coeffs
                for c in row
                if not c.is_zero()
            )
            assert sup_F == sup_c


class TestTrigApproximation:
    def test_full_dual_forces_exact(self):
        grp = TruncatedGroup(2, 2, 2, 5)
        rng = random.Random(34)
        f = [random_exact(5, rng, vrange=(0, 2)) for _ in range(grp.order)]
        w = WeightedSupNorm({i: Fraction(1) for i in range(grp.order)})
        approx = trig_poly_approx(grp, f, w, Fraction(1, 5**20))
        assert approx.subgroup_level == 0
        for i in range(grp.order):
            assert (approx.values[i] - f[i]).is_zero()

    def test_postconditions_on_eps_grid(self):
        grp = TruncatedGroup(2, 3, 3, 17)
        rng = random.Random(35)
        for trial in range(20):
            f = [random_exact(17, rng, vrange=(-1, 2)) for _ in range(grp.order)]
            gamma = {
                i: Fraction(1, 17 ** rng.randint(0, 4)) for i in range(grp.order)
            }
            w = WeightedSupNorm(gamma)
            for e in (Fraction(1), Fraction(1, 17), Fraction(1, 17**3)):
                approx = trig_poly_approx(grp, f, w, e)
                assert approx.achieved_error < e
                step = grp.l**approx.subgroup_level
                for t in range(grp.order // step):
                    assert (approx.values[step * t] - f[step * t]).is_zero()

    def test_zero_function(self):
        grp = TruncatedGroup(2, 1, 1, 3)
        f = [PadicScalar.zero(3)] * grp.order
        approx = trig_poly_approx(grp, f, WeightedSupNorm({0: Fraction(1)}), Fraction(1))
        assert approx.achieved_error == 0
