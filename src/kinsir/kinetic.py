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
interactions, each over the full dt and each in one call on the whole
(3, n_cells, n_nodes) stack (the bias on its f1 row). Transport is in
conservative upwind form and the other three sub-steps preserve the zeroth
moment node-for-node, so total mass moves only through the interactions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolationError, ValidationError
from .grids import MacroState, clamp_nonnegative, march, shifted, snapshot_schedule
from .velocity import interaction_terms, perturbation_apply

MAX_CFL = 0.9  # transport number bound: dt <= MAX_CFL * eps * dx / vmax


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


def check_cfl(cfl):
    """Reject a transport number outside (0, MAX_CFL]."""
    if not 0 < cfl <= MAX_CFL:
        raise ValidationError(f"cfl must be in (0, {MAX_CFL}]")


def max_step(state, cfl=MAX_CFL):
    """Largest dt allowed by the transport CFL condition."""
    return cfl * state.epsilon * state.grid.dx / state.vgrid.vmax


def transport_substep(f, vgrid, grid, epsilon, dt):
    """Conservative upwind transport at the scaled speeds v_j/eps, cells on
    axis -2: one species or the (3, n_cells, n_nodes) stack."""
    courant = vgrid.nodes * (dt / (epsilon * grid.dx))
    upwind_diff = np.where(vgrid.nodes > 0, f - shifted(f, -1, axis=-2),
                           shifted(f, 1, axis=-2) - f)
    return f - courant * upwind_diff


def relaxation_substep(f, M, sigma, epsilon, q, dt, vgrid):
    """Exact relaxation toward M * <f>: the anisotropic part decays by the
    factor exp(-sigma*dt/eps^(q+1)) while <f> is untouched. sigma and q are
    scalars for one species, or one per row of the stack (M = eqs[:, None, :])."""
    rates = zip(sigma, q) if M.ndim > 1 else [(sigma, q)]
    decay = np.array([math.exp(-s * dt / epsilon ** (e + 1)) for s, e in rates])
    mean = (f @ vgrid.weights)[..., None]
    return M * mean + (f - M * mean) * decay.reshape(M.shape[:-1] + (1,))


def infected_gradient(f2, vgrid, grid):
    """Centered-difference gradient of the infected-cell moment."""
    s = f2 @ vgrid.weights
    return (shifted(s, 1) - shifted(s, -1)) / (2.0 * grid.dx)


def kinetic_step(state, params, eqs, dt):
    """One split step; returns a new state at time + dt.

    Preconditions: dt finite and > 0 (ValidationError), and
    dt <= MAX_CFL * eps * dx / vmax (CflViolationError).
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

    # (a) transport, then (b) stiff relaxation, exact with one factor per row
    f = transport_substep(state.f, vgrid, grid, eps, dt)
    f = relaxation_substep(f, eqs[:, None, :], sigmas, eps, qs, dt, vgrid)

    # (c) infected-gradient bias on the healthy population
    if params.chi0 != 0.0:
        grad_s = infected_gradient(f[1], vgrid, grid)
        scale = eps ** (params.p - params.q1 - 1)
        f[0] += dt * scale * perturbation_apply(f[0], grad_s, params.chi0, vgrid)

    # (d) interactions; a failing check names the row that went negative
    f += dt * interaction_terms(*f, eqs, params, vgrid)
    if f.min() < 0.0:
        for i, row in enumerate(f, start=1):
            clamp_nonnegative(row, f"kinetic distribution f{i}")
    return KineticState(f, eps, state.time + dt, grid, vgrid)


def run_kinetic(initial, params, eqs, t_final, snapshot_times=None, cfl=0.8):
    """Advance to t_final, emitting moment snapshots at the requested times.

    dt is chosen from the CFL bound and rounded down so every snapshot time
    is hit exactly; the final time is always snapshotted. Returns the list
    of snapshots and the final kinetic state.
    """
    check_cfl(cfl)
    times = snapshot_schedule(snapshot_times, initial.time, t_final)
    return march(
        initial, lambda state, dt: kinetic_step(state, params, eqs, dt),
        lambda state: max_step(state, cfl), times, moments,
    )
