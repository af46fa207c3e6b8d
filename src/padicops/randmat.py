"""Random matrices of norm 1 for the checks: unimodular changes of basis
and the idempotents they conjugate from 0/1 diagonals."""

from __future__ import annotations

import random

from .errors import CertificationFailed
from .padic import PadicScalar
from .ultralinalg import KMatrix


def unimodular(p: int, n: int, rng: random.Random) -> tuple[KMatrix, KMatrix]:
    """Random norm-1 matrix with norm-1 inverse (product of unipotents).

    A unipotent E has I - E nilpotent, so E^-1 = sum over k < n of (I - E)^k
    and the inverse of Q = L U is U^-1 L^-1 without elimination.
    """
    zero, one = PadicScalar.zero(p), PadicScalar.one(p)
    identity = KMatrix.identity(p, n)

    def unipotent(lower: bool) -> tuple[KMatrix, KMatrix]:
        E = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if (i > j) if lower else (i < j):
                    E[i][j] = PadicScalar.from_int(p, rng.randint(-3 * p, 3 * p))
        E = KMatrix(p, E)
        nilpotent = identity - E
        inv = term = identity
        for _ in range(n - 1):
            term = term @ nilpotent
            inv = inv + term
        return E, inv

    L, L_inv = unipotent(True)
    U, U_inv = unipotent(False)
    Q, Q_inv = L @ U, U_inv @ L_inv
    if not (Q @ Q_inv).equals(identity):
        raise CertificationFailed("Q Q^-1 is not the identity")
    return Q, Q_inv


def random_projection(p: int, n: int, rng: random.Random) -> KMatrix:
    """Q D Q^-1 for a random unimodular Q and a random 0/1 diagonal D."""
    Q, Q_inv = unimodular(p, n, rng)
    diag = [rng.randint(0, 1) for _ in range(n)]
    zero, one = PadicScalar.zero(p), PadicScalar.one(p)
    D = KMatrix(
        p, [[one if (i == j and diag[i]) else zero for j in range(n)] for i in range(n)]
    )
    return Q @ D @ Q_inv
