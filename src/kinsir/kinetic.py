"""Kinetic tier: velocity-jump transport of the three populations.

In the scaled time variable each distribution f_i(t, x, v) obeys

    df_i/dt + (v/eps) df_i/dx
        = sigma_i/eps^(q_i+1) * relaxation
        + eps^(p-q_1-1) * gradient bias   (healthy cells only)
        + interaction terms,

so transport runs at speed v/eps, velocity relaxation at rate
sigma_i/eps^(q_i+1), the infected-gradient bias at eps^(p-q_1-1), and the
virus-dynamics interactions at order one. A step is the sequence: upwind
transport, exact exponential relaxation, explicit gradient bias, explicit
interactions, each over the full dt. Transport is in conservative upwind
form and the other three sub-steps preserve the zeroth moment node-for-node,
so total mass moves only through the interaction terms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolationError, ValidationError
from .grids import MacroState, clamp_nonnegative, march, snapshot_schedule
from .velocity import interaction_terms, perturbation_apply


@dataclass
class KineticState:
    """Distributions on (species, cell, velocity node), plus the scaling
    parameter; the rows of f are f1, f2 and f3."""

    f: np.ndarray
    epsilon: float
    time: float
    grid: object
    vgrid: object

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ValidationError("epsilon must be in (0, 1]")
        shape = (3, self.grid.n_cells, self.vgrid.n_nodes)
        if self.f.shape != shape:
            raise ValidationError(f"f must have shape {shape}")

    # read-only views of the healthy, infected and virus rows
    f1 = property(lambda self: self.f[0])
    f2 = property(lambda self: self.f[1])
    f3 = property(lambda self: self.f[2])


def init_local_equilibrium(macro, eqs, vgrid, epsilon):
    """Start at the local equilibrium f_i = M_i(v) * density_i(x)."""
    f = macro.rho[:, :, None] * eqs[:, None, :]
    return KineticState(f, float(epsilon), macro.time, macro.grid, vgrid)


def moments(state):
    """Zeroth velocity moments as a macroscopic state."""
    return MacroState(state.f @ state.vgrid.weights, state.time, state.grid)


def max_step(state, cfl=0.9):
    """Largest dt allowed by the transport CFL condition."""
    return cfl * state.epsilon * state.grid.dx / state.vgrid.vmax


def transport_substep(f, vgrid, grid, epsilon, dt):
    """Conservative upwind transport at the scaled speeds v_j/eps, cells on
    axis -2: one species or the (3, n_cells, n_nodes) stack."""
    courant = vgrid.nodes * (dt / (epsilon * grid.dx))
    upwind_diff = np.where(
        vgrid.nodes > 0, f - np.roll(f, 1, axis=-2), np.roll(f, -1, axis=-2) - f
    )
    return f - courant * upwind_diff


def relaxation_substep(f, M, sigma, epsilon, q, dt, vgrid):
    """Exact relaxation toward M * <f>: the anisotropic part decays by the
    factor exp(-sigma*dt/eps^(q+1)) while <f> is untouched."""
    decay = math.exp(-sigma * dt / epsilon ** (q + 1))
    mean = (f @ vgrid.weights)[:, None]
    return M * mean + (f - M * mean) * decay


def infected_gradient(f2, vgrid, grid):
    """Centered-difference gradient of the infected-cell moment."""
    s = f2 @ vgrid.weights
    return (np.roll(s, -1) - np.roll(s, 1)) / (2.0 * grid.dx)


def kinetic_step(state, params, eqs, dt):
    """One split step; returns a new state at time + dt.

    Preconditions: dt finite and > 0 (ValidationError), and
    dt <= 0.9 * eps * dx / vmax (CflViolationError).
    """
    if not 0 < dt < math.inf:
        raise ValidationError("dt must be finite and > 0")
    if dt > max_step(state) * (1.0 + 1e-12):
        raise CflViolationError(
            f"dt = {dt:.3e} exceeds the transport bound {max_step(state):.3e}"
        )
    eps, grid, vgrid = state.epsilon, state.grid, state.vgrid
    sigmas = (params.sigma1, params.sigma2, params.sigma3)
    qs = (params.q1, params.q2, params.q3)

    # (a) transport of the stack, then (b) stiff relaxation, exact per species
    f = transport_substep(state.f, vgrid, grid, eps, dt)
    for i, (M, sigma, q) in enumerate(zip(eqs, sigmas, qs)):
        f[i] = relaxation_substep(f[i], M, sigma, eps, q, dt, vgrid)

    # (c) infected-gradient bias on the healthy population
    if params.chi0 != 0.0:
        grad_s = infected_gradient(f[1], vgrid, grid)
        scale = eps ** (params.p - params.q1 - 1)
        f[0] += dt * scale * perturbation_apply(f[0], grad_s, params.chi0, vgrid)

    # (d) interactions
    for i, g in enumerate(interaction_terms(*f, eqs, params, vgrid)):
        f[i] += dt * g
        clamp_nonnegative(f[i], f"kinetic distribution f{i + 1}")
    return KineticState(f, eps, state.time + dt, grid, vgrid)


def run_kinetic(initial, params, eqs, t_final, snapshot_times=None, cfl=0.8):
    """Advance to t_final, emitting moment snapshots at the requested times.

    dt is chosen from the CFL bound and rounded down so every snapshot time
    is hit exactly; the final time is always snapshotted. Returns the list
    of snapshots and the final kinetic state.
    """
    if not 0 < cfl <= 0.9:
        raise ValidationError("cfl must be in (0, 0.9]")
    times = snapshot_schedule(snapshot_times, initial.time, t_final)
    return march(
        initial, lambda state, dt: kinetic_step(state, params, eqs, dt),
        lambda state: max_step(state, cfl), times, moments,
    )
