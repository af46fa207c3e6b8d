"""Finite-dimensional spectral theory: normality checks, orthoprojections,
spectral decompositions and functional calculus.

The norm-square identity ||B^2|| = ||B||^2 is decided by comparing integer
exponents.  The scan over polynomials is a falsifier only: an empty
violation list means "no violation found", never a normality proof.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CertificationFailed,
    MissingValue,
    NotCommuting,
    NotDiagonalizable,
    RepeatedEigenvalue,
)
from .padic import PadicScalar, random_exact
from .ultralinalg import INF, KMatrix, NormExponent, operator_norm


@dataclass
class PolynomialOverK:
    """Polynomial with PadicScalar coefficients, low degree first."""

    coefficients: list[PadicScalar]

    @classmethod
    def from_roots(cls, p: int, roots: list[PadicScalar]) -> "PolynomialOverK":
        coeffs = [PadicScalar.one(p)]
        for r in roots:
            zero = PadicScalar.zero(p)
            new = [zero] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] = new[i + 1] + c
                new[i] = new[i] - r * c
            coeffs = new
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def eval_matrix(self, A: KMatrix) -> KMatrix:
        """Horner: acc <- acc A + c I, with c added to the diagonal in place.

        c * 1 has the kind, value, v, unit, N and bound of c, exact or
        capped, so this is entrywise the sum with the scaled identity.
        """
        acc = KMatrix.zeros(A.p, A.rows)
        for c in reversed(self.coefficients):
            acc = acc @ A
            if c.is_exact_zero():
                continue
            for i, row in enumerate(acc.data):
                a = row.get(i)
                s = c if a is None else a + c
                if s.is_exact_zero():
                    del row[i]
                else:
                    row[i] = s
        return acc


@dataclass
class NormIdentityVerdict:
    holds: bool
    lhs: NormExponent  # exponent of ||[q(A)]^2||
    rhs: NormExponent  # exponent of ||q(A)||^2


@dataclass
class SpectralData:
    """Finite spectrum with its family of spectral projections."""

    eigenvalues: list[PadicScalar]
    projections: list[KMatrix]

    def verify(self, A: KMatrix | None = None) -> None:
        """Certify partition of unity, orthogonality, and reconstruction."""
        p = self.projections[0].p
        n = self.projections[0].rows
        total = KMatrix.zeros(p, n)
        for E in self.projections:
            total = total + E
        if not total.equals(KMatrix.identity(p, n)):
            raise CertificationFailed("sum of projections != I")
        for i, Ei in enumerate(self.projections):
            for j, Ej in enumerate(self.projections):
                prod = Ei @ Ej
                expected = Ei if i == j else KMatrix.zeros(p, n)
                if not prod.equals(expected):
                    raise CertificationFailed("projections not mutually orthogonal")
        if A is not None:
            recon = KMatrix.zeros(p, n)
            for lam, E in zip(self.eigenvalues, self.projections):
                recon = recon + E.scale(lam)
            if not recon.equals(A):
                raise CertificationFailed("spectral reconstruction failed")


def norm_square_verdict(B: KMatrix) -> NormIdentityVerdict:
    """Does ||B^2|| = ||B||^2 hold, by exact exponent comparison?"""
    eB = operator_norm(B)
    eB2 = operator_norm(B @ B)
    rhs = eB * 2 if eB != INF else INF
    return NormIdentityVerdict(holds=(eB2 == rhs), lhs=eB2, rhs=rhs)


def check_norm_identity(A: KMatrix, q: PolynomialOverK) -> NormIdentityVerdict:
    """Does ||[q(A)]^2|| = ||q(A)||^2 hold, by exact exponent comparison?"""
    return norm_square_verdict(q.eval_matrix(A))


def _root_products(factors: list[KMatrix], degree_bound: int):
    """Yield (idx, F[idx[0]] @ ... @ F[idx[-1]]) over nondecreasing index tuples.

    Degree by degree, in ``combinations_with_replacement`` order.  Each
    product is its prefix's product times one factor, so a tuple of
    degree d >= 2 costs one matrix product; only the previous degree's
    products are kept.
    """
    prev = {(i,): F for i, F in enumerate(factors)}
    for deg in range(1, degree_bound + 1):
        if deg > 1:
            prev = {
                idx: prev[idx[:-1]] @ factors[idx[-1]]
                for idx in itertools.combinations_with_replacement(
                    range(len(factors)), deg
                )
            }
        yield from prev.items()


def normality_scan(
    A: KMatrix,
    degree_bound: int,
    eigenvalue_candidates: list[PadicScalar] | None = None,
    n_random: int = 20,
    seed: int = 0,
) -> list[tuple[PolynomialOverK, NormIdentityVerdict]]:
    """Scan a documented polynomial family for violations of the norm identity.

    Family: monic products of (t - lambda) over multisets of the candidate
    eigenvalues up to the degree bound, plus seeded random monic
    polynomials with coefficient valuations in [-2, 2].  Returns every
    violating polynomial; empty means no violation found (not a proof).
    A must be square.

    The root products are evaluated by shared prefixes (``_root_products``
    on the factors A - lambda I, one matrix product per polynomial), and
    a polynomial's coefficients are expanded only when it violates the
    identity.  On exact inputs this gives the matrices, verdicts and
    order of per-polynomial Horner evaluation.  On capped inputs the two
    evaluation orders round differently, so a verdict can be certified
    by one and raise PrecisionLoss in the other.
    """
    p = A.p
    violations = []
    candidates = eigenvalue_candidates or []
    I = KMatrix.identity(p, A.rows)
    factors = [A - I.scale(lam) for lam in candidates]
    for idx, B in _root_products(factors, degree_bound):
        verdict = norm_square_verdict(B)
        if not verdict.holds:
            q = PolynomialOverK.from_roots(p, [candidates[i] for i in idx])
            violations.append((q, verdict))
    rng = random.Random(seed)
    for _ in range(n_random):
        deg = rng.randint(1, degree_bound)
        coeffs = [random_exact(p, rng) for _ in range(deg)]
        coeffs.append(PadicScalar.one(p))
        q = PolynomialOverK(coeffs)
        verdict = check_norm_identity(A, q)
        if not verdict.holds:
            violations.append((q, verdict))
    return violations


def spectral_projections(A: KMatrix, eigenvalues: list[PadicScalar]) -> SpectralData:
    """Spectral decomposition via Lagrange interpolation idempotents.

    Requires the minimal polynomial of A to be squarefree with exactly
    the supplied roots; this is verified by checking prod (A - lambda I) = 0.
    """
    p, n = A.p, A.rows
    for i, a in enumerate(eigenvalues):
        for b in eigenvalues[i + 1 :]:
            if not (a - b).is_certified_nonzero():
                raise RepeatedEigenvalue("eigenvalues not pairwise distinct")
    ann = KMatrix.identity(p, n)
    for lam in eigenvalues:
        ann = ann @ (A - KMatrix.identity(p, n).scale(lam))
    if not ann.is_zero():
        raise NotDiagonalizable(
            "product of (A - lambda I) over the supplied eigenvalues is nonzero"
        )
    projections = []
    for lam in eigenvalues:
        E = KMatrix.identity(p, n)
        for mu in eigenvalues:
            if mu is lam:
                continue
            factor = (A - KMatrix.identity(p, n).scale(mu)).scale(
                (lam - mu).inverse()
            )
            E = E @ factor
        projections.append(E)
    data = SpectralData(list(eigenvalues), projections)
    data.verify(A)
    return data


def functional_calculus(S: SpectralData, phi) -> KMatrix:
    """Sum of phi(lambda) E_lambda; phi is a callable or a (scalar, scalar) list."""
    p = S.projections[0].p
    n = S.projections[0].rows
    out = KMatrix.zeros(p, n)
    for lam, E in zip(S.eigenvalues, S.projections):
        if callable(phi):
            value = phi(lam)
        else:
            value = None
            for key, val in phi:
                if key.equals(lam):
                    value = val
                    break
            if value is None:
                raise MissingValue(f"phi undefined on eigenvalue {lam!r}")
        out = out + E.scale(value)
    return out


def _valuation_pairs(p: int, rng: random.Random, count: int):
    """Sampled (a, b) scalar pairs with mixed and equal valuations."""
    pairs = []
    for i in range(count):
        va = rng.randint(-2, 2)
        # force the hard equal-valuation case on half the samples
        vb = va if i % 2 == 0 else rng.randint(-2, 2)
        ua = rng.randint(1, 6 * p)
        ub = rng.randint(1, 6 * p)
        while ua % p == 0:
            ua = rng.randint(1, 6 * p)
        while ub % p == 0:
            ub = rng.randint(1, 6 * p)
        a = PadicScalar.from_rational(p, Fraction(ua) * Fraction(p) ** va)
        b = PadicScalar.from_rational(p, Fraction(ub) * Fraction(p) ** vb)
        pairs.append((a, b, min(va, vb)))
    return pairs


def is_orthoprojection(P: KMatrix, samples: int = 50, seed: int = 0) -> bool:
    """Idempotent of norm 1 (or zero).

    For a nontrivial accepted P, the norm identity
    ||aP + b(I-P)|| = max(|a|, |b|) is additionally certified on sampled
    (a, b) pairs, including the equal-valuation case.
    """
    p, n = P.p, P.rows
    if not (P @ P).equals(P):
        return False
    if P.is_zero():
        return True
    if operator_norm(P) != 0:
        return False
    I = KMatrix.identity(p, n)
    if P.equals(I):
        return True
    Q = I - P
    rng = random.Random(seed)
    for a, b, expected in _valuation_pairs(p, rng, samples):
        e = operator_norm(P.scale(a) + Q.scale(b))
        if e != expected:
            raise CertificationFailed(
                f"||aP+b(I-P)|| exponent {e} != min(v) {expected}"
            )
    return True


def multiplication_operator(
    values: list[PadicScalar],
    verify: bool = True,
    degree_bound: int = 3,
    seed: int = 0,
) -> tuple[KMatrix, SpectralData]:
    """Diagonal operator of multiplication over a finite point set.

    Spectrum = set of distinct values; strong normality holds by
    construction and is spot-checked by a normality scan when verify=True.
    """
    p = values[0].p
    n = len(values)
    zero = PadicScalar.zero(p)
    A = KMatrix(
        p, [[values[i] if i == j else zero for j in range(n)] for i in range(n)]
    )
    spectrum: list[PadicScalar] = []
    for v in values:
        if not any(v.equals(s) for s in spectrum):
            spectrum.append(v)
    projections = []
    one = PadicScalar.one(p)
    for lam in spectrum:
        diag = [one if values[i].equals(lam) else zero for i in range(n)]
        projections.append(
            KMatrix(p, [[diag[i] if i == j else zero for j in range(n)] for i in range(n)])
        )
    data = SpectralData(spectrum, projections)
    data.verify(A)
    if verify:
        if normality_scan(A, degree_bound, spectrum, seed=seed) != []:
            raise CertificationFailed(
                "normality scan of a multiplication operator found a defect"
            )
    return A, data


def joint_spectral_measure(
    family: list[KMatrix], eigenvalue_lists: list[list[PadicScalar]]
) -> list[tuple[tuple[PadicScalar, ...], KMatrix]]:
    """Common refinement of the spectral projections of a commuting family.

    Every operator in the family equals the sum of its joint eigenvalue
    coordinate times the joint projections.
    """
    p = family[0].p
    n = family[0].rows
    for i, A in enumerate(family):
        for B in family[i + 1 :]:
            if not (A @ B).equals(B @ A):
                raise NotCommuting("family members do not commute")
    datas = [spectral_projections(A, evs) for A, evs in zip(family, eigenvalue_lists)]
    joint: list[tuple[tuple[PadicScalar, ...], KMatrix]] = []
    for combo in itertools.product(*[list(zip(d.eigenvalues, d.projections)) for d in datas]):
        E = KMatrix.identity(p, n)
        for _, proj in combo:
            E = E @ proj
        if not E.is_zero():
            joint.append((tuple(lam for lam, _ in combo), E))
    total = KMatrix.zeros(p, n)
    for _, E in joint:
        total = total + E
        if not is_orthoprojection(E, samples=10):
            raise CertificationFailed("joint spectral projection is not an orthoprojection")
    if not total.equals(KMatrix.identity(p, n)):
        raise CertificationFailed("joint spectral projections do not sum to the identity")
    for idx, A in enumerate(family):
        recon = KMatrix.zeros(p, n)
        for tup, E in joint:
            recon = recon + E.scale(tup[idx])
        if not recon.equals(A):
            raise CertificationFailed(
                f"family member {idx} differs from its joint spectral decomposition"
            )
    return joint
