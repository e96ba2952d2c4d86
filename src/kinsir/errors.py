"""Error types raised by the toolkit.

Every failure mode that callers are expected to handle has its own class so
the CLI can map each one to a distinct exit code.
"""


class KinsirError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(KinsirError):
    """A parameter or state violates a documented invariant."""


class ParseError(KinsirError):
    """A config or data file is malformed (bad syntax, unknown key)."""


class NegativeStateError(KinsirError):
    """An ODE step produced a component below -tolerance (dt too large)."""


class OddNodeCountError(KinsirError):
    """Velocity grids need an even node count to stay +/-v symmetric."""


class ResidualError(KinsirError):
    """A constructed solution failed its residual check."""


class ConsistencyError(KinsirError):
    """Two independent routes to the same quantity disagree."""


class CflViolationError(KinsirError):
    """Kinetic step size exceeds the transport CFL bound."""


class NegativityError(KinsirError):
    """A field went below -1e-12 during a solver step (dt too large)."""


class StepSizeError(KinsirError):
    """A macro Euler stage exceeds the drift (advective) step bound."""


class RegimeError(KinsirError):
    """The (q, p) scaling combination has no implemented reference."""


class DegenerateFitError(KinsirError):
    """Order estimation needs >= 3 points with strictly positive errors."""
