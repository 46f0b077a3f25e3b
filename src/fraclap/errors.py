"""Exception hierarchy. Every error raised by the library derives from FraclapError."""


class FraclapError(Exception):
    pass


# -- space construction
class MetricViolation(FraclapError):
    """Distance matrix fails a metric axiom; the witness is in the message."""


class NonpositiveMeasure(FraclapError):
    pass


class DisconnectedGraph(FraclapError):
    pass


class InvalidParams(FraclapError):
    pass


class DimensionMismatch(FraclapError):
    pass


# -- spectral / energy
class EigensolverNoConvergence(FraclapError):
    pass


class NonpositiveTime(FraclapError):
    pass


class SeriesTimeTooLarge(FraclapError):
    """beta*t is beyond the range the uniformization series route supports."""


class ThetaOutOfRange(InvalidParams):
    """An exponent theta outside (0, 1); an InvalidParams like any bad input."""


class QuadratureNoConvergence(FraclapError):
    pass


class ConstantFunctionInFamily(FraclapError):
    pass


# -- half-space extension
class GridThetaMismatch(FraclapError):
    pass


class DegenerateFirstCell(FraclapError):
    pass


class EmptySubset(FraclapError):
    pass


class RadiusExceedsGrid(FraclapError):
    pass


# -- Dirichlet solvers
class SingularSystem(FraclapError):
    pass


class IterationBudgetExceeded(FraclapError):
    pass


class BallNotCompactlyInside(FraclapError):
    pass


class NegativeSolution(FraclapError):
    pass


class InsufficientScales(FraclapError):
    pass


# -- cli
class ConfigParseError(FraclapError):
    pass
