"""Exception types shared across the library."""


class SmallballError(Exception):
    """Base class for every error raised by this package."""


class NotStochastic(SmallballError):
    pass


class NotReversible(SmallballError):
    pass


class NotStationary(SmallballError):
    """A supplied stationary vector is not a fixed point of the chain."""


class NoUniqueStationary(SmallballError):
    pass


class ZeroStationaryMass(SmallballError):
    """Some state has zero stationary mass, so L2(mu) symmetrization is undefined."""


class InvalidDistribution(SmallballError):
    pass


class OutOfRange(SmallballError):
    pass


class DimensionMismatch(SmallballError):
    pass


class BudgetExceeded(SmallballError):
    pass


class NonIntegerWeights(SmallballError):
    pass


class QuadratureNonConvergence(SmallballError):
    pass


class UnsupportedDimension(SmallballError):
    pass


class PreconditionViolated(SmallballError):
    pass


class DegenerateGap(SmallballError):
    """Bound formulas blow up at spectral parameter 1."""


class HypothesisViolated(SmallballError):
    pass


class EmptyFamily(SmallballError):
    pass


class OddK(SmallballError):
    pass


class TooLarge(SmallballError):
    pass


class ConfigError(SmallballError):
    """Bad CLI configuration or input file; messages cite the offending field."""
