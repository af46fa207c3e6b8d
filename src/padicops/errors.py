"""Exception hierarchy shared by all modules."""


class PadicopsError(Exception):
    """Base class for all library errors."""


class DivisionByZero(PadicopsError):
    """Inversion of an element known to be exactly zero."""


class PrecisionLoss(PadicopsError):
    """A certified valuation was required but only a lower bound survives.

    Raised instead of guessing whenever cancellation has eaten every
    tracked digit of a capped-precision element.
    """


class BadOrder(PadicopsError):
    """Requested root-of-unity order does not divide p - 1."""


class NotIntegral(PadicopsError):
    """Residue reduction applied to an element with negative valuation."""


class NotUnitNorm(PadicopsError):
    """Orthonormality test fed a vector whose sup-norm is not 1."""


class NotDiagonalizable(PadicopsError):
    """Supplied eigenvalues do not annihilate the operator squarefreely."""


class RepeatedEigenvalue(PadicopsError):
    """Eigenvalue list for a spectral decomposition contains duplicates."""


class MissingValue(PadicopsError):
    """Functional calculus invoked with a map undefined on some eigenvalue."""


class NotCommuting(PadicopsError):
    """Joint spectral data requested for a non-commuting family."""


class NotInUnitBall(PadicopsError):
    """Reduction applied to a matrix of operator norm > 1."""


class NonConvergent(PadicopsError):
    """Unit-ball lattice repair failed to stabilize; precision exhausted."""


class IndexNotInG0(PadicopsError):
    """eta requested for a dual index outside the stabilizer-dual subgroup."""


class BudgetExceeded(PadicopsError):
    """An exhaustive search exceeded its configured budget."""


class CertificationFailed(PadicopsError):
    """A computed result failed the exact check that certifies it.

    Raised in place of ``assert`` so that certification survives
    ``python -O``; the CLI reports it as a failed check.
    """


class ConfigInvalid(PadicopsError):
    """Run configuration violates a structural constraint (e.g. l^k | p-1)."""
