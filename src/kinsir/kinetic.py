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

Buffers: a step allocates one array, the f of the state it returns.
Transport writes into it from the old f, which a step never changes, and
every later sub-step updates it in place. KineticState.scratch holds the
step's work space, one (5, n_cells, n_nodes) array: rows 0-2 a scratch of
f's shape, rows 3-4 the reaction law's two rows. A step allocates it when
the state it is given has none, leaves it there and hands it on to the
state it returns, so a run allocates it once, and so do repeated steps
from one state. Every sub-step writes the scratch before it reads it, so
nothing passes through it from one sub-step or step to the next, and
states that share it (two steps taken from one state) stay independent.
Steps that share a scratch must not run concurrently.
transport_substep, relaxation_substep, perturbation_apply and
interaction_terms allocate their own buffers and run the same in-place
bodies as the step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CflViolationError, ValidationError
from .grids import MacroState, clamp_nonnegative, march, shifted, snapshot_schedule
from .velocity import interaction_terms_into, perturbation_into

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
    # kinetic_step's work array, (5, n_cells, n_nodes), handed on from
    # state to state
    scratch: np.ndarray = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        check_epsilon(self.epsilon)
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


def check_epsilon(eps, message="epsilon must be in (0, 1]"):
    """Reject a scaling parameter outside (0, 1]."""
    if not 0 < eps <= 1:
        raise ValidationError(message)


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
    return _transport(f, np.empty(f.shape), np.empty(f.shape),
                      vgrid, grid, epsilon, dt)


def _transport(f, out, diff, vgrid, grid, epsilon, dt):
    """transport_substep of f written into out, with diff as scratch.

    diff[i] = f[i] - f[i-1] (periodic in i) is the backward difference of
    cell i, the upwind one for v > 0, and the forward difference of cell
    i-1, the upwind one for v < 0: one subtraction serves both.
    """
    np.subtract(f[..., 1:, :], f[..., :-1, :], out=diff[..., 1:, :])
    np.subtract(f[..., :1, :], f[..., -1:, :], out=diff[..., :1, :])
    out[..., :-1, :] = diff[..., 1:, :]
    out[..., -1:, :] = diff[..., :1, :]
    np.copyto(out, diff, where=vgrid.nodes > 0)
    out *= vgrid.nodes * (dt / (epsilon * grid.dx))
    return np.subtract(f, out, out=out)


def relaxation_substep(f, M, sigma, epsilon, q, dt, vgrid):
    """Exact relaxation toward M * <f>: the anisotropic part decays by the
    factor exp(-sigma*dt/eps^(q+1)) while <f> is untouched. sigma and q are
    scalars for one species, or one per row of the stack (M = eqs[:, None, :])."""
    return _relax(np.array(f, dtype=float), M, sigma, epsilon, q, dt, vgrid,
                  np.empty(np.shape(f)))


def _relax(f, M, sigma, epsilon, q, dt, vgrid, work):
    """relaxation_substep applied to f in place, with work (f's shape) as
    scratch; returns f."""
    rates = zip(sigma, q) if M.ndim > 1 else [(sigma, q)]
    decay = np.array([math.exp(-s * dt / epsilon ** (e + 1)) for s, e in rates])
    equilibrium = np.multiply(M, (f @ vgrid.weights)[..., None], out=work)
    f -= equilibrium
    f *= decay.reshape(M.shape[:-1] + (1,))
    f += equilibrium
    return f


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
    f = np.empty(state.f.shape)
    if state.scratch is None:
        state.scratch = np.empty((5,) + f.shape[1:])
    scratch, law_rows = state.scratch[:3], state.scratch[3:]

    # (a) transport, then (b) stiff relaxation, exact with one factor per row
    _transport(state.f, f, scratch, vgrid, grid, eps, dt)
    _relax(f, eqs[:, None, :], sigmas, eps, qs, dt, vgrid, scratch)

    # (c) infected-gradient bias on the healthy population
    if params.chi0 != 0.0:
        grad_s = infected_gradient(f[1], vgrid, grid)
        bias = perturbation_into(f[0], grad_s, params.chi0, vgrid, *scratch[:2])
        bias *= dt * eps ** (params.p - params.q1 - 1)
        f[0] += bias

    # (d) interactions; a failing check names the row that went negative
    gains = interaction_terms_into(f, eqs, params, vgrid, scratch, law_rows)
    gains *= dt
    f += gains
    if f.min() < 0.0:
        for i, row in enumerate(f, start=1):
            clamp_nonnegative(row, f"kinetic distribution f{i}")
    new = KineticState(f, eps, state.time + dt, grid, vgrid)
    new.scratch = state.scratch
    return new


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
