"""Model parameters shared by all three tiers of the toolkit."""

from dataclasses import dataclass
from operator import attrgetter

from .grids import check_bounded, check_integer

_NONNEGATIVE = ("d1", "d2", "d3", "beta", "k", "r", "chi0")
_POSITIVE = ("sigma1", "sigma2", "sigma3", "vmax")
_SCALING = ("q1", "q2", "q3", "p")
# a group's values as one tuple, checked in one call
_nonnegative, _positive, _scaling = (attrgetter(*names) for names in
                                     (_NONNEGATIVE, _POSITIVE, _SCALING))


@dataclass(frozen=True)
class ModelParams:
    """Rates and scaling exponents of the virus dynamics model.

    d1, d2, d3   natural death rates of healthy cells, infected cells, virus
    beta         infection rate
    k            virus production rate by infected cells
    r            constant production rate of healthy cells
    sigma1..3    velocity relaxation rates of the three kinetic populations
    chi0         strength of the velocity bias toward the infected gradient
    q1, q2, q3   relaxation scaling exponents (integers >= 1)
    p            perturbation scaling exponent (integer >= 1)
    vmax         velocity domain half-width, V = [-vmax, vmax]

    Every rate is finite. Reaction rates may be zero (pure
    transport/diffusion configurations); relaxation rates and vmax must be
    positive.
    """

    d1: float
    d2: float
    d3: float
    beta: float
    k: float
    r: float
    sigma1: float = 1.0
    sigma2: float = 1.0
    sigma3: float = 1.0
    chi0: float = 0.0
    q1: int = 1
    q2: int = 1
    q3: int = 1
    p: int = 1
    vmax: float = 1.0

    def __post_init__(self):
        check_bounded(_NONNEGATIVE, _nonnegative(self), 0)
        check_bounded(_POSITIVE, _positive(self), 0, strict=True)
        check_integer(_SCALING, _scaling(self), 1)

    def reactions(self, c, s, u):
        """Reaction terms of the virus dynamics at densities (c, s, u):

            (-d1*c - beta*c*u + r,  -d2*s + beta*c*u,  -d3*u + k*s).

        The ODE right-hand side, the macro step's reactions and, at the
        ratios f_i/M_i, the kinetic interactions; works on floats and on
        arrays alike.
        """
        infection = self.beta * c * u
        return (
            -self.d1 * c - infection + self.r,
            -self.d2 * s + infection,
            -self.d3 * u + self.k * s,
        )
