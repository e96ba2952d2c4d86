"""Virus dynamics across scales: an SIR-type ODE system, a velocity-jump
kinetic model of the same dynamics, and the chemotaxis-reaction-diffusion
system obtained in the parabolic limit, with a harness that measures how fast
kinetic moments converge to the macroscopic solution as the scaling parameter
epsilon shrinks.
"""

__version__ = "1.0.0"

from .convergence import ConvergenceReport, estimate_order, run_convergence_study
from .errors import (
    CflViolationError,
    ConsistencyError,
    DegenerateFitError,
    KinsirError,
    NegativeStateError,
    NegativityError,
    OddNodeCountError,
    ParseError,
    ResidualError,
    StepSizeError,
    ValidationError,
)
from .grids import InitialProfile, MacroState, SpatialGrid
from .kinetic import KineticState, init_local_equilibrium, kinetic_step, moments, run_kinetic
from .macro import (
    MacroCoefficients,
    build_macro_coefficients,
    macro_step,
    run_macro,
    stable_dt,
)
from .params import ModelParams
from .sir import (
    EquilibriumReport,
    SirState,
    SirTrajectory,
    basic_reproduction_number,
    equilibria,
    integrate_sir,
    integrate_sir_blocks,
    sir_rhs,
)
from .velocity import (
    VelocityGrid,
    build_velocity_grid,
    species_equilibria,
    transport_coefficients,
)

__all__ = [
    "CflViolationError",
    "ConsistencyError",
    "ConvergenceReport",
    "DegenerateFitError",
    "EquilibriumReport",
    "InitialProfile",
    "KineticState",
    "KinsirError",
    "MacroCoefficients",
    "MacroState",
    "ModelParams",
    "NegativeStateError",
    "NegativityError",
    "OddNodeCountError",
    "ParseError",
    "ResidualError",
    "SirState",
    "SirTrajectory",
    "SpatialGrid",
    "StepSizeError",
    "ValidationError",
    "VelocityGrid",
    "basic_reproduction_number",
    "build_macro_coefficients",
    "build_velocity_grid",
    "equilibria",
    "estimate_order",
    "init_local_equilibrium",
    "integrate_sir",
    "integrate_sir_blocks",
    "kinetic_step",
    "macro_step",
    "moments",
    "run_convergence_study",
    "run_kinetic",
    "run_macro",
    "sir_rhs",
    "species_equilibria",
    "stable_dt",
    "transport_coefficients",
]
