"""Finite cyclic harmonic analysis with Q_p-valued characters.

The acting group is G = Z/l^k (written additively), acting on S = Z/l^j
through reduction mod l^j; p is a prime with l^k | p - 1 so a root of
unity zeta of exact order l^k exists in Q_p.  Characters are indexed by
the dual group, again Z/l^k: g_n(a) = zeta^(n a).

Notation map to multiplicative conventions used elsewhere: index
products become sums (i * j -> i + j), inverses become negation
(i^-1 -> -i), and the trivial character is index 0.  Group elements are
ordered canonically 0 .. l^k - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import CertificationFailed, ConfigInvalid
from .padic import DEFAULT_PRECISION, PadicScalar, teichmuller_root
from .ultralinalg import KMatrix


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TruncatedGroup:
    """G = Z/l^k acting on S = Z/l^j by translation-through-quotient.

    The action x . a = x + (a mod l^j) is transitive; it is free iff
    j = k.  The stabilizer of any point is l^j (Z/l^k), so the dual
    stabilizer subgroup G0 consists of the indices divisible by l^(k-j).
    """

    def __init__(self, l: int, k: int, j: int, p: int, N: int = DEFAULT_PRECISION):
        if not _is_prime(p):
            raise ConfigInvalid(f"p = {p} is not prime")
        if not _is_prime(l):
            raise ConfigInvalid(f"l = {l} is not prime")
        if l == p:
            raise ConfigInvalid("l must differ from p")
        if not (1 <= j <= k):
            raise ConfigInvalid(f"need 1 <= j <= k, got j={j}, k={k}")
        if (p - 1) % (l**k) != 0:
            raise ConfigInvalid(f"l^k = {l**k} does not divide p - 1 = {p - 1}")
        self.l = l
        self.k = k
        self.j = j
        self.p = p
        self.N = N
        self.order = l**k  # |G| = |dual|
        self.s_size = l**j  # |S|
        self.zeta = teichmuller_root(p, self.order, N)
        # power table: zeta^t for t in [0, order)
        self._powers = [PadicScalar.one(p)]
        for _ in range(self.order - 1):
            self._powers.append(self._powers[-1] * self.zeta)

    @property
    def is_free(self) -> bool:
        return self.j == self.k

    @property
    def g0_modulus(self) -> int:
        return self.l ** (self.k - self.j)

    def g0_indices(self) -> list[int]:
        """Dual stabilizer subgroup G0: indices divisible by l^(k-j)."""
        return list(range(0, self.order, self.g0_modulus))

    def g0_cosets(self) -> list[list[int]]:
        """The cosets r + G0, r = 0 .. l^(k-j) - 1, each in increasing order."""
        m = self.g0_modulus
        return [list(range(r, self.order, m)) for r in range(m)]

    def in_g0(self, i: int) -> bool:
        return i % self.g0_modulus == 0

    def zeta_pow(self, t: int) -> PadicScalar:
        return self._powers[t % self.order]

    def act(self, x: int, a: int) -> int:
        """The action x . a = x + (a mod l^j) on S."""
        return (x + a) % self.s_size

    def haar_weight(self) -> PadicScalar:
        """Mass of a single point: 1 / |G| (a p-adic unit since p does not divide l)."""
        return PadicScalar.from_rational(self.p, Fraction(1, self.order))

    @cached_property
    def partial_fourier(self) -> tuple[KMatrix, KMatrix]:
        """The partial Fourier matrix F = I_S (x) F_G on C(S x G) and its inverse.

        Rows of F are indexed by points, (x, a) -> x * l^k + a; columns by
        the block basis, (n, y) -> n * l^j + y, and column (n, y) is
        delta_y (x) g_n.  By character orthogonality the inverse is
        (1 / |G|) zeta^(-n a) on the same support, so no elimination is
        needed; F F^-1 = I is certified once, when the pair is first used.
        """
        p, s, order = self.p, self.s_size, self.order
        n_dim = s * order
        weight = self.haar_weight()
        F = KMatrix.from_rows(
            p,
            [
                {n * s + x: self.zeta_pow(n * a) for n in range(order)}
                for x in range(s)
                for a in range(order)
            ],
            n_dim,
        )
        F_inv = KMatrix.from_rows(
            p,
            [
                {x * order + a: weight * self.zeta_pow(-n * a) for a in range(order)}
                for n in range(order)
                for x in range(s)
            ],
            n_dim,
        )
        if not (F @ F_inv).equals(KMatrix.identity(p, n_dim)):
            raise CertificationFailed("F F^-1 is not the identity")
        return F, F_inv

    @cached_property
    def g0_characters_multiply(self) -> bool:
        """eta_a eta_b = eta_(a+b) pointwise on S for all a, b in G0.

        eta_i(x) = zeta^(-i x) is the character of S = Z/l^j that an index
        i in G0 gives (``crossed.eta``).  A block form whose block [m][n]
        is b[m,n] times multiplication by eta_(m-n), with b supported on
        the G0-cosets, then multiplies as its coefficient matrix does:
        block(b) block(c) = block(b c), as eta_(m-n) eta_(n-q) = eta_(m-q).
        Checked once, |G0|^2 l^j scalar products, when first used.
        """
        g0, s = self.g0_indices(), self.s_size
        return all(
            (
                self.zeta_pow(-a * x) * self.zeta_pow(-b * x)
                - self.zeta_pow(-(a + b) * x)
            ).is_zero()
            for a in g0
            for b in g0
            for x in range(s)
        )

    def __repr__(self):
        return f"TruncatedGroup(l={self.l}, k={self.k}, j={self.j}, p={self.p})"


def haar_integrate(grp: TruncatedGroup, f) -> PadicScalar:
    """Translation-invariant mean over G with total mass 1."""
    acc = PadicScalar.zero(grp.p)
    for a in range(grp.order):
        acc = acc + f[a]
    return grp.haar_weight() * acc


def fourier_analyze(grp: TruncatedGroup, F) -> list[list[PadicScalar]]:
    """Coefficient functions phi_n(x) = integral of F(x, a) g_n(-a) over G.

    F is a grid F[x][a]; the result is indexed [n][x].
    """
    weight = grp.haar_weight()
    coeffs = []
    for n in range(grp.order):
        phi_n = []
        for x in range(len(F)):
            acc = PadicScalar.zero(grp.p)
            for a in range(grp.order):
                val = F[x][a]
                if not val.is_zero():
                    acc = acc + val * grp.zeta_pow(-n * a)
            phi_n.append(weight * acc)
        coeffs.append(phi_n)
    return coeffs


def fourier_synthesize(grp: TruncatedGroup, coeffs) -> list[list[PadicScalar]]:
    """F(x, a) = sum over n of phi_n(x) zeta^(n a); inverse of fourier_analyze."""
    n_points = len(coeffs[0])
    F = []
    for x in range(n_points):
        row = []
        for a in range(grp.order):
            acc = PadicScalar.zero(grp.p)
            for n in range(grp.order):
                c = coeffs[n][x]
                if not c.is_zero():
                    acc = acc + c * grp.zeta_pow(n * a)
            row.append(acc)
        F.append(row)
    return F


def abs_value_upper(x: PadicScalar) -> Fraction:
    """|x|_p as an exact rational, from the certified valuation lower bound."""
    v = x.valuation_lower_bound()
    if v == float("inf"):
        return Fraction(0)
    v = int(v)
    return Fraction(1, x.p**v) if v >= 0 else Fraction(x.p ** (-v))


@dataclass
class WeightedSupNorm:
    """Weighted sup norm on functions over the dual group.

    ||f||_gamma = max over i of |f(i)|_p * gamma(i), with nonnegative
    rational weights; comparisons are exact rational comparisons.
    """

    gamma: dict[int, Fraction] = field(default_factory=dict)

    def weight(self, i: int) -> Fraction:
        return self.gamma.get(i, Fraction(0))

    def norm(self, f) -> Fraction:
        out = Fraction(0)
        for i, x in enumerate(f):
            out = max(out, abs_value_upper(x) * self.weight(i))
        return out


@dataclass
class TrigApproximation:
    """Result of approximating f on the dual by a trigonometric polynomial."""

    coefficients: dict[int, PadicScalar]  # c_a over a finite subset of G
    values: list[PadicScalar]  # f_eps evaluated on the whole dual
    subgroup_level: int  # Sigma = l^s (Z / l^k)
    achieved_error: Fraction


def trig_poly_approx(
    grp: TruncatedGroup, f, w: WeightedSupNorm, eps: Fraction
) -> TrigApproximation:
    """Weighted approximation of f by a trigonometric polynomial.

    Picks the smallest dual subgroup Sigma = l^s (Z/l^k) whose complement
    carries weight below eps / M_f, matches f exactly on Sigma via the
    finite character expansion, and certifies the weighted error.
    The full dual always qualifies (empty complement), so a valid
    subgroup always exists at finite level.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    p, l, k = grp.p, grp.l, grp.k
    order = grp.order
    M_f = Fraction(0)
    for x in f:
        M_f = max(M_f, abs_value_upper(x))
    if M_f == 0:
        return TrigApproximation({}, list(f), k, Fraction(0))
    # smallest subgroup = largest s whose complement weight is below eps / M_f
    chosen = 0
    for s in range(k, -1, -1):
        step = l**s
        tail = Fraction(0)
        for i in range(order):
            if i % step != 0:
                tail = max(tail, w.weight(i))
        if tail < eps / M_f:
            chosen = s
            break
    step = l**chosen
    sub_size = order // step  # |Sigma| = l^(k-s)
    # inverse character expansion of f on Sigma; coefficients sit on the
    # quotient-of-G index set 0 .. l^(k-s) - 1
    inv_size = PadicScalar.from_rational(p, Fraction(1, sub_size))
    coefficients: dict[int, PadicScalar] = {}
    for a in range(sub_size):
        acc = PadicScalar.zero(p)
        for t in range(sub_size):
            val = f[step * t]
            if not val.is_zero():
                acc = acc + val * grp.zeta_pow(-step * t * a)
        coefficients[a] = inv_size * acc
    values = []
    for i in range(order):
        acc = PadicScalar.zero(p)
        for a, c in coefficients.items():
            if not c.is_zero():
                acc = acc + c * grp.zeta_pow(i * a)
        values.append(acc)
    # certify both postconditions
    for t in range(sub_size):
        if not (values[step * t] - f[step * t]).is_zero():
            raise CertificationFailed("not exact on Sigma")
    err = Fraction(0)
    for i in range(order):
        err = max(err, abs_value_upper(values[i] - f[i]) * w.weight(i))
    if not err < eps:
        raise CertificationFailed(f"weighted error {err} not below eps {eps}")
    return TrigApproximation(coefficients, values, chosen, err)
