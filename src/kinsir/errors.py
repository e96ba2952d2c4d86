"""Error types raised by the toolkit.

Every failure mode that callers are expected to handle has its own class,
and each class carries the distinct exit code that the CLI returns for it.
"""


class KinsirError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 1


class ValidationError(KinsirError):
    """A parameter or state violates a documented invariant."""
    exit_code = 3


class ParseError(KinsirError):
    """A config or data file is malformed (bad syntax, unknown key)."""
    exit_code = 2


class NegativeStateError(KinsirError):
    """An ODE step produced a component below -tolerance (dt too large),
    or one that is not finite."""
    exit_code = 4


class OddNodeCountError(KinsirError):
    """Velocity grids need an even node count to stay +/-v symmetric."""
    exit_code = 5


class ResidualError(KinsirError):
    """A constructed solution failed its residual check."""
    exit_code = 6


class ConsistencyError(KinsirError):
    """Two independent routes to the same quantity disagree."""
    exit_code = 7


class CflViolationError(KinsirError):
    """Kinetic step size exceeds the transport CFL bound."""
    exit_code = 8


class NegativityError(KinsirError):
    """A field went below -1e-12 during a solver step (dt too large), or
    was not finite."""
    exit_code = 9


class StepSizeError(KinsirError):
    """A macro Euler stage exceeds the drift (advective) step bound."""
    exit_code = 10


class DegenerateFitError(KinsirError):
    """Order estimation needs >= 3 points with strictly positive errors."""
    exit_code = 12
