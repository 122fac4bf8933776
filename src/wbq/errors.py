"""Exception types shared across the package."""


class WbqError(Exception):
    """Base class for all package-specific errors."""


class DenominatorVanishes(WbqError):
    """A denominator evaluates to zero under the requested specialization."""


class RhoDependentDivisor(WbqError):
    """A generic quotient, or a generic denominator read from terms, has a
    denominator with more than one power of rho: generic denominators lie
    in Q[q] times a power of rho."""


class IntegralityViolation(WbqError):
    """A divided-power result fails to lie in the integral Laurent form."""


class RankTooSmall(WbqError):
    """The ambient gl_n rank is too small for the requested construction."""


class IndexOutOfRange(WbqError):
    """A generator index lies outside the valid range for (r, s)."""


class NotInSpan(WbqError):
    """An element is not in the span of the coordinate system (nonzero residual)."""


class RankCertificationFailed(WbqError):
    """Seed vectors failed to certify full rank of the coordinate system."""


class InterpolationUnstable(WbqError):
    """Structure-constant interpolation did not stabilize within the degree budget."""


class TraceSystemSingular(WbqError):
    """The trace linear system for decomposition numbers is singular or inconsistent."""


class OracleMismatch(WbqError):
    """A computed quantity disagrees with the closed-form prediction."""
