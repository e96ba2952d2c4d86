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

Buffers and step plan: a step allocates one array, the f of the state it
returns. Transport writes into it from the old f, which a step never
changes, and every later sub-step updates it in place, with the work array
of a StepPlan (KineticState.plan) as its scratch. The plan also holds what
does not depend on f, tiled to full size where a sub-step reads it across
f: broadcasting a row of n_nodes values makes numpy's inner loop run over
the nodes alone, while a tile makes each operation one contiguous loop. A
step reuses the plan of the state it is given when it was built for the
same key (step_plan) and hands it on to the state it returns, so a run
builds one per distinct dt and allocates the work array and the M and
nodes tiles once. Every sub-step writes the work array before it reads
it, so nothing passes through it from one sub-step or step to the next,
and states that share it (two steps taken from one state) stay
independent; steps that share a plan must not run concurrently. The dt,
CFL and negativity checks run on every step.

transport_substep and relaxation_substep run the step's own bodies on
buffers of their own, with rows that broadcast in place of the tiles.
velocity.perturbation_apply and velocity.interaction_terms are the
formulas of the bias and the interactions; the step writes the same
operations out in place, in its work array, and tests pin the two forms
to each other bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CflViolationError, ValidationError
from .grids import (MacroState, check_dt, clamp_rows_nonnegative, march, shifted,
                    snapshot_schedule, step_ratio)
from .velocity import bias_loss_rate

MAX_CFL = 0.9  # transport number bound: dt <= MAX_CFL * eps * dx / vmax


@dataclass(eq=False)
class StepPlan:
    """The work array and the f-independent part of a kinetic step for one
    key (see the module docstring); every array but work is read-only."""

    key: tuple
    decay: np.ndarray  # (3, 1, 1) relaxation factors
    c_up: np.ndarray  # courant numbers where v > 0, else 0: (n_cells, n_nodes)
    c_dn: np.ndarray  # courant numbers where v < 0, else 0
    M: np.ndarray  # eqs tiled to f's shape
    nodes: np.ndarray  # the nodes tiled to (n_cells, n_nodes)
    bias_loss: float  # chi0 * sum_j w_j v_j
    bias_scale: float  # dt * eps**(p - q1 - 1)
    work: np.ndarray  # (5, n_cells, n_nodes): f's shape, then the law's rows


@dataclass
class KineticState:
    """Distributions on (species, cell, velocity node), plus the scaling
    parameter; the rows of f are f1, f2 and f3."""

    f: np.ndarray
    epsilon: float
    time: float
    grid: object
    vgrid: object
    # kinetic_step's StepPlan, handed on from state to state
    plan: StepPlan = field(default=None, init=False, repr=False, compare=False)

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


def _courant_rows(vgrid, grid, epsilon, dt):
    """The courant numbers v_j*dt/(eps*dx) where v_j > 0 and where v_j < 0,
    each row 0 at the other nodes."""
    courant = vgrid.nodes * (dt / (epsilon * grid.dx))
    return (np.where(vgrid.nodes > 0, courant, 0.0),
            np.where(vgrid.nodes < 0, courant, 0.0))


def transport_substep(f, vgrid, grid, epsilon, dt):
    """Conservative upwind transport at the scaled speeds v_j/eps, cells on
    axis -2: one species or the (3, n_cells, n_nodes) stack."""
    c_up, c_dn = (np.broadcast_to(row, f.shape[-2:])
                  for row in _courant_rows(vgrid, grid, epsilon, dt))
    return _transport(f, np.empty(f.shape), np.empty(f.shape), c_up, c_dn)


def _transport(f, out, diff, c_up, c_dn):
    """transport_substep of f written into out, with diff as scratch and
    the courant rows c_up, c_dn broadcasting to (n_cells, n_nodes).

    diff[i] = f[i] - f[i-1] (periodic in i) is the backward difference of
    cell i, the upwind one for v > 0, and the forward difference of cell
    i-1, the upwind one for v < 0: one subtraction serves both. Each node
    takes c_dn * diff[i+1] + c_up * diff[i], where one of the two terms is
    a signed zero, which leaves the other unchanged except for the sign of
    a zero; f - out therefore equals the masked upwind form bit for bit
    wherever f does not hold -0.0, and the relaxation that follows in a
    step maps either sign of a zero to the same value.
    """
    np.subtract(f[..., 1:, :], f[..., :-1, :], out=diff[..., 1:, :])
    np.subtract(f[..., :1, :], f[..., -1:, :], out=diff[..., :1, :])
    np.multiply(diff[..., 1:, :], c_dn[:-1], out=out[..., :-1, :])
    np.multiply(diff[..., :1, :], c_dn[-1:], out=out[..., -1:, :])
    diff *= c_up
    out += diff
    return np.subtract(f, out, out=out)


def _decay_factors(rates, epsilon, dt):
    """exp(-sigma*dt/eps^(q+1)) on Python floats, one per (sigma, q) pair."""
    return np.array([math.exp(-sigma * dt / epsilon ** (q + 1)) for sigma, q in rates])


def relaxation_substep(f, M, sigma, epsilon, q, dt, vgrid):
    """Exact relaxation of one species toward M * <f>: the anisotropic part
    decays by the factor exp(-sigma*dt/eps^(q+1)) while <f> is untouched."""
    f = np.array(f, dtype=float)
    return _relax(f, M, _decay_factors([(sigma, q)], epsilon, dt), vgrid,
                  np.empty(f.shape))


def _relax(f, M, decay, vgrid, work):
    """relaxation_substep applied to f in place, with M broadcasting to
    f's shape and work (f's shape) as scratch; returns f."""
    np.copyto(work, (f @ vgrid.weights)[..., None])
    work *= M
    f -= work
    f *= decay
    f += work
    return f


def infected_gradient(f2, vgrid, grid):
    """Centered-difference gradient of the infected-cell moment, periodic
    in the cells."""
    s = f2 @ vgrid.weights
    return (shifted(s, 1) - shifted(s, -1)) / (2.0 * grid.dx)


def _tile(values, shape):
    """values broadcast to shape, as a new read-only contiguous array."""
    tile = np.empty(shape)
    tile[...] = values
    tile.flags.writeable = False
    return tile


def step_plan(state, params, eqs, dt):
    """The state's StepPlan when it was built for this step, else a new one.

    The key holds the velocity grid and eqs by their bytes, since their
    arrays can change in place; its last item is all that the work array
    and the M and nodes tiles depend on, and a new plan keeps those three
    of the state's plan when they still fit, so that a run whose dt
    changes allocates them once.
    """
    eps, grid, vgrid = state.epsilon, state.grid, state.vgrid
    key = (dt, eps, grid, params,
           (vgrid.vmax, vgrid.nodes.tobytes(), vgrid.weights.tobytes(),
            eqs.dtype, eqs.shape, eqs.tobytes(), state.f.shape))
    old = state.plan
    if old is not None and old.key == key:
        return old
    cells = state.f.shape[1:]
    if old is not None and old.key[-1] == key[-1]:
        M, nodes, work = old.M, old.nodes, old.work
    else:
        M, nodes = _tile(eqs[:, None, :], state.f.shape), _tile(vgrid.nodes, cells)
        work = np.empty((5,) + cells)
    decay = _decay_factors(zip((params.sigma1, params.sigma2, params.sigma3),
                               (params.q1, params.q2, params.q3)), eps, dt)
    c_up, c_dn = (_tile(row, cells) for row in _courant_rows(vgrid, grid, eps, dt))
    return StepPlan(key, _tile(decay[:, None, None], (3, 1, 1)), c_up, c_dn, M, nodes,
                    bias_loss_rate(params.chi0, vgrid),
                    dt * eps ** (params.p - params.q1 - 1), work)


def _reactions_in_place(params, rho, work):
    """params.reactions over the rows (c, s, u) of the float array rho,
    written back into rho and returned; the same operations in the same
    order, so equal to reactions bit for bit. work, two more rows of the
    same shape, holds the infection and k*s while the rows are overwritten."""
    c, s, u = rho
    infection = np.multiply(params.beta, c, out=work[0])
    infection *= u
    virus_gain = np.multiply(params.k, s, out=work[1])
    c *= -params.d1
    c -= infection
    c += params.r
    s *= -params.d2
    s += infection
    u *= -params.d3
    u += virus_gain
    return rho


def kinetic_step(state, params, eqs, dt):
    """One split step; returns a new state at time + dt.

    Preconditions: dt finite and > 0 (ValidationError), and
    dt <= MAX_CFL * eps * dx / vmax (CflViolationError).
    """
    check_dt(dt)
    if step_ratio(dt, max_step(state)) > 1:
        raise CflViolationError(
            f"dt = {dt:.3e} exceeds the transport bound {max_step(state):.3e}"
        )
    plan = step_plan(state, params, eqs, dt)
    if state.plan is None:
        state.plan = plan
    vgrid = state.vgrid
    f = np.empty(state.f.shape)
    scratch, law_rows = plan.work[:3], plan.work[3:]

    # (a) transport, then (b) stiff relaxation, exact with one factor per row
    _transport(state.f, f, scratch, plan.c_up, plan.c_dn)
    _relax(f, plan.M, plan.decay, vgrid, scratch)

    # (c) infected-gradient bias on the healthy population, gain - loss
    if params.chi0 != 0.0:
        grad_s = infected_gradient(f[1], vgrid, state.grid)
        gain, loss = scratch[:2]
        np.copyto(gain, (params.chi0 * (grad_s * vgrid.moment0(f[0])))[:, None])
        gain *= plan.nodes
        np.copyto(loss, (plan.bias_loss * grad_s)[:, None])
        loss *= f[0]
        gain -= loss
        gain *= plan.bias_scale
        f[0] += gain

    # (d) interactions, the law at the ratios f/M over |V|; a failing check
    # names the row that went negative and asks for a smaller cfl, the key
    # that sets a kinetic run's step
    np.divide(f, plan.M, out=scratch)
    _reactions_in_place(params, scratch, law_rows)
    scratch /= vgrid.measure
    scratch *= dt
    f += scratch
    clamp_rows_nonnegative(f, ("kinetic distribution f1", "kinetic distribution f2",
                               "kinetic distribution f3"), "cfl")
    new = KineticState(f, state.epsilon, state.time + dt, state.grid, vgrid)
    new.plan = plan
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
