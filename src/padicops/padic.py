"""Exact scalar arithmetic in Q_p.

A scalar is either an exact rational (zero precision risk) or a
capped-relative element: valuation v plus a unit residue mod p^N.  The
norm is p^(-v), so every norm comparison in the library is an integer
comparison of valuations.  Valuations use ``math.inf`` for zero.

Cancellation in capped mode can eat tracked digits; the result then
degrades to an explicit "zero to precision p^bound" state, and any
operation that needs a certified valuation raises PrecisionLoss instead
of guessing.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import (
    BadOrder,
    CertificationFailed,
    DivisionByZero,
    NotIntegral,
    PrecisionLoss,
)

INF = math.inf

#: Default number of tracked digits for capped-mode units.
DEFAULT_PRECISION = 64

Valuation = float  # int or math.inf


# The only module-level state: p**e by (p, e), and the shared exact zero
# and exact one of each prime.  The exponents are tracked precisions plus
# valuation gaps, so the power cache stays small; nothing is keyed by a
# scalar's value.
_P_POWERS: dict[tuple[int, int], int] = {}
_ZEROS: dict[int, PadicScalar] = {}
_ONES: dict[int, PadicScalar] = {}


def _p_power(p: int, e: int) -> int:
    try:
        return _P_POWERS[p, e]
    except KeyError:
        pe = _P_POWERS[p, e] = p**e
        return pe


def rational_valuation(p: int, x: Fraction) -> Valuation:
    """p-adic valuation of an exact rational (+inf for zero)."""
    if not x.numerator:
        return INF
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class PadicScalar:
    """Element of Q_p: exact rational, capped unit, or capped zero.

    kind "exact": value is ``frac`` (a Fraction), valuation exact.
    kind "unit":  value is unit * p^v with ``unit`` a unit mod p^N.
    kind "zero":  only v >= ``bound`` is known (total cancellation).
    """

    __slots__ = ("p", "kind", "frac", "v", "unit", "N", "bound")

    def __init__(self, p, kind, frac=None, v=None, unit=None, N=None, bound=None):
        self.p = p
        self.kind = kind
        self.frac = frac
        self.v = v
        self.unit = unit
        self.N = N
        self.bound = bound

    # ----- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, p: int, value) -> "PadicScalar":
        return cls(p, "exact", frac=Fraction(value))

    @classmethod
    def from_int(cls, p: int, value: int) -> "PadicScalar":
        return cls(p, "exact", frac=Fraction(value))

    @classmethod
    def capped(cls, p: int, v: int, unit: int, N: int) -> "PadicScalar":
        if N <= 0:
            raise ValueError("capped precision must be positive")
        unit %= p**N
        if unit % p == 0:
            raise ValueError("capped unit must be a unit mod p")
        return cls(p, "unit", v=v, unit=unit, N=N)

    @classmethod
    def capped_zero(cls, p: int, bound: int) -> "PadicScalar":
        return cls(p, "zero", bound=bound)

    # Scalars are never mutated after __init__, so one exact zero and one
    # exact one per prime can be shared by every caller.

    @classmethod
    def zero(cls, p: int) -> "PadicScalar":
        x = _ZEROS.get(p)
        if x is None:
            x = _ZEROS[p] = cls.from_int(p, 0)
        return x

    @classmethod
    def one(cls, p: int) -> "PadicScalar":
        x = _ONES.get(p)
        if x is None:
            x = _ONES[p] = cls.from_int(p, 1)
        return x

    # ----- predicates ---------------------------------------------------

    # The predicates test the numerator: Fraction.__eq__ against 0 costs
    # about 2.5 times as much, and they run on every entry of every product.

    def is_zero(self) -> bool:
        """True if the element is zero to the full tracked precision."""
        if self.kind == "exact":
            return not self.frac.numerator
        return self.kind == "zero"

    def is_exact_zero(self) -> bool:
        return self.kind == "exact" and not self.frac.numerator

    def is_certified_nonzero(self) -> bool:
        return self.kind == "unit" or (
            self.kind == "exact" and self.frac.numerator != 0
        )

    # ----- valuation ----------------------------------------------------

    def valuation(self) -> Valuation:
        """Exact valuation; +inf for exact zero; PrecisionLoss otherwise."""
        if self.kind == "exact":
            return rational_valuation(self.p, self.frac)
        if self.kind == "unit":
            return self.v
        raise PrecisionLoss(
            f"only the lower bound v >= {self.bound} is certified"
        )

    def valuation_lower_bound(self) -> Valuation:
        if self.kind == "zero":
            return self.bound
        return self.valuation()

    # ----- internal helpers ---------------------------------------------

    def _abs_precision(self) -> Valuation:
        """Element is known mod p^(this)."""
        if self.kind == "exact":
            return INF
        if self.kind == "unit":
            return self.v + self.N
        return self.bound

    def _to_unit_parts(self, N: int) -> tuple[int, int]:
        """(v, unit mod p^N) for a certified-nonzero element."""
        p = self.p
        if self.kind == "unit":
            return self.v, self.unit % p**N
        v = rational_valuation(p, self.frac)
        num, den = self.frac.numerator, self.frac.denominator
        if v >= 0:
            num //= p**v
        else:
            den //= p ** (-v)
        pk = p**N
        return int(v), (num * pow(den, -1, pk)) % pk

    # ----- arithmetic ---------------------------------------------------

    # The fast branches below return a scalar equal field for field to the
    # general path's; tests/padic_reference.py keeps that path as the oracle.
    # They pass the fields positionally (p, kind, frac, v, unit, N, bound):
    # keyword arguments cost about 0.5 us more per scalar built.

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        p = self.p
        if other.p != p:
            raise ValueError(f"prime mismatch: {p} vs {other.p}")
        if self.kind == "exact" and other.kind == "exact":
            return PadicScalar(p, "exact", frac=self.frac + other.frac)
        if self.kind == "unit" and other.kind == "unit":
            # the general path below, on the two units directly
            v1, v2 = self.v, other.v
            a1, a2 = v1 + self.N, v2 + other.N
            a = a1 if a1 <= a2 else a2
            if v1 <= v2:
                vmin, acc = v1, self.unit + other.unit * _p_power(p, v2 - v1)
            else:
                vmin, acc = v2, other.unit + self.unit * _p_power(p, v1 - v2)
            acc %= _p_power(p, a - vmin)
            if not acc:
                return PadicScalar(p, "zero", None, None, None, None, a)
            v = vmin
            while not acc % p:
                acc //= p
                v += 1
            return PadicScalar(p, "unit", None, v, acc, a - v)
        # At least one capped operand: combine at the joint absolute precision.
        a = min(self._abs_precision(), other._abs_precision())
        terms = []
        for x in (self, other):
            if x.is_exact_zero() or x.kind == "zero":
                continue
            terms.append(x)
        if not terms:
            if self.is_exact_zero() and other.is_exact_zero():
                return PadicScalar.zero(p)
            return PadicScalar.capped_zero(p, int(a))
        vmin = min(t.valuation() for t in terms)
        a = int(a)
        if vmin >= a:
            return PadicScalar.capped_zero(p, a)
        pk = p ** (a - vmin)
        acc = 0
        for t in terms:
            tv, tu = t._to_unit_parts(a - vmin)
            acc = (acc + tu * p ** (int(tv) - vmin)) % pk
        if acc == 0:
            return PadicScalar.capped_zero(p, a)
        shift = 0
        while acc % p == 0:
            acc //= p
            shift += 1
        v = vmin + shift
        N = a - v
        return PadicScalar.capped(p, v, acc, N)

    def __neg__(self) -> "PadicScalar":
        if self.kind == "exact":
            return PadicScalar(self.p, "exact", frac=-self.frac)
        if self.kind == "unit":
            N = self.N
            return PadicScalar(
                self.p, "unit", None, self.v, -self.unit % _p_power(self.p, N), N
            )
        return self

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        p = self.p
        if other.p != p:
            raise ValueError(f"prime mismatch: {p} vs {other.p}")
        if self.kind == "unit" and other.kind == "unit":
            # a product of units is a unit: no re-check through capped()
            N = self.N if self.N <= other.N else other.N
            unit = self.unit * other.unit % _p_power(p, N)
            return PadicScalar(p, "unit", None, self.v + other.v, unit, N)
        # exact 1 on either side returns the other operand itself, -1 its negation
        if self.kind == "exact" and self.frac.denominator == 1:
            n = self.frac.numerator
            if n == 1:
                return other
            if n == -1:
                return -other
        if other.kind == "exact" and other.frac.denominator == 1:
            n = other.frac.numerator
            if n == 1:
                return self
            if n == -1:
                return -self
        if self.kind == "exact" and other.kind == "exact":
            return PadicScalar(p, "exact", frac=self.frac * other.frac)
        if self.is_exact_zero() or other.is_exact_zero():
            return PadicScalar.zero(p)
        if self.kind == "zero" or other.kind == "zero":
            b = self.valuation_lower_bound() + other.valuation_lower_bound()
            return PadicScalar.capped_zero(p, int(b))
        N = min(x.N for x in (self, other) if x.kind == "unit")
        v1, u1 = self._to_unit_parts(N)
        v2, u2 = other._to_unit_parts(N)
        return PadicScalar.capped(p, v1 + v2, (u1 * u2) % p**N, N)

    def inverse(self) -> "PadicScalar":
        p = self.p
        if self.kind == "exact":
            if not self.frac.numerator:
                raise DivisionByZero("inverse of zero")
            return PadicScalar(p, "exact", frac=1 / self.frac)
        if self.kind == "unit":
            pk = p**self.N
            return PadicScalar.capped(p, -self.v, pow(self.unit, -1, pk), self.N)
        raise PrecisionLoss("inverse of an element that is zero to precision")

    def __pow__(self, n: int) -> "PadicScalar":
        if n < 0:
            return self.inverse() ** (-n)
        result = PadicScalar.one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other: "PadicScalar") -> "PadicScalar":
        return self * other.inverse()

    # ----- comparison ---------------------------------------------------

    def equals(self, other: "PadicScalar") -> bool:
        """Equality to the full tracked precision of both operands."""
        return (self - other).is_zero()

    __eq__ = equals
    __hash__ = None

    def __repr__(self):
        if self.kind == "exact":
            return f"PadicScalar({self.p}, {self.frac})"
        if self.kind == "unit":
            return f"PadicScalar({self.p}, {self.unit}*{self.p}^{self.v} + O({self.p}^{self.v + self.N}))"
        return f"PadicScalar({self.p}, O({self.p}^{self.bound}))"


# ----- module-level operations ------------------------------------------


def random_exact(p: int, rng: random.Random, vrange=(-2, 2)) -> PadicScalar:
    """Random exact scalar u * p^v, v drawn from vrange, u a unit in [1, 6p]."""
    v = rng.randint(*vrange)
    u = rng.randint(1, 6 * p)
    while u % p == 0:
        u = rng.randint(1, 6 * p)
    return PadicScalar.from_rational(p, Fraction(u) * Fraction(p) ** v)


def reduce_residue(x: PadicScalar) -> int:
    """Reduce an integral element to F_p, as an int in [0, p).

    A ring homomorphism on v >= 0 (with + and * taken mod p).
    """
    p = x.p
    if x.kind == "exact":
        v = rational_valuation(p, x.frac)
        if v == INF:
            return 0
        if v < 0:
            raise NotIntegral(f"valuation {v} < 0")
        if v > 0:
            return 0
        num, den = x.frac.numerator, x.frac.denominator
        return num * pow(den, -1, p) % p
    if x.kind == "unit":
        if x.v < 0:
            raise NotIntegral(f"valuation {x.v} < 0")
        return x.unit % p if x.v == 0 else 0
    # zero to precision: residue is certified 0 only if v >= 1 is certified
    if x.bound >= 1:
        return 0
    raise PrecisionLoss("cannot certify v >= 0 for a zero-to-precision element")


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primitive_root(p: int) -> int:
    """Smallest primitive root mod p, by exhaustive search from 2."""
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"{p} has no primitive root; not prime?")


def teichmuller_root(p: int, m: int, N: int = DEFAULT_PRECISION) -> PadicScalar:
    """Root of unity of exact order m in Q_p, for m | p - 1.

    Starts from g^((p-1)/m) mod p and lifts by iterated p-th powering
    (the Teichmueller lift); the result satisfies zeta^m = 1 mod p^N.
    """
    if m < 1 or (p - 1) % m != 0:
        raise BadOrder(f"{m} does not divide {p} - 1")
    if m == 1:
        return PadicScalar.one(p)
    if m == 2:
        return PadicScalar.from_int(p, -1)
    g = primitive_root(p)
    modulus = p**N
    c = pow(g, (p - 1) // m, p)
    for _ in range(N + 1):
        c_next = pow(c, p, modulus)
        if c_next == c:
            break
        c = c_next
    zeta = PadicScalar.capped(p, 0, c, N)
    if pow(c, m, modulus) != 1:
        raise CertificationFailed(
            f"Teichmuller lift is not a root of unity of order dividing {m}"
        )
    for q in _prime_factors(m):
        if pow(c, m // q, modulus) == 1:
            raise CertificationFailed(
                f"Teichmuller lift has order dividing {m // q}, not exactly {m}"
            )
    return zeta


def parse_scalar(p: int, literal, N: int = DEFAULT_PRECISION) -> PadicScalar:
    """Scalar literal from an input file: "a/b" / int (exact) or {"v","unit","N"}.

    Raises ValueError for any literal that does not parse.
    """
    if isinstance(literal, dict):
        fields = (literal.get("v"), literal.get("unit"), literal.get("N", N))
        if all(isinstance(x, int) for x in fields):
            return PadicScalar.capped(p, *fields)
    elif isinstance(literal, str):
        try:
            return PadicScalar.from_rational(p, Fraction(literal))
        except ZeroDivisionError:
            pass
    elif isinstance(literal, int):
        return PadicScalar.from_int(p, literal)
    raise ValueError(f"cannot parse scalar literal {literal!r}")
