"""Kinetic tier: velocity-jump transport of the three populations.

In the scaled time variable each distribution f_i(t, x, v) obeys

    df_i/dt + (v/eps) df_i/dx
        = sigma_i/eps^(q_i+1) * relaxation
        + eps^(p-q_1-1) * gradient bias   (healthy cells only)
        + interaction terms,

so transport runs at speed v/eps, velocity relaxation at rate
lambda_i = sigma_i/eps^(q_i+1), the infected-gradient bias at eps^(p-q_1-1),
and the virus-dynamics interactions at order one.

A step is the micro-macro scheme of Lemou & Mieussens (SIAM J. Sci. Comput.
31, 2008). Each f_i is its density rho_i = <f_i> times M_i plus a deviation
g_i with <g_i> = 0, rho at the cells and g at the faces, stored in one array
as f[:, i, :] = rho_i*M + g_{i+1/2}. A step (1) transports g upwind at v/eps,
removes the mean of the result, adds -dt*v*M*(rho_{i+1} - rho_i)/(eps*dx)
and, on the f1 row, the bias dt*eps^(p-q1-1)*chi0*v*(s_{i+1} - s_i)/dx *
(c_i + c_{i+1})/2, and divides the sum by 1 + dt*lambda_i: the relaxation is
implicit, so the step keeps the diffusion limit as eps -> 0 at a dt of
order eps; (2) takes an explicit Euler step of ModelParams.reactions, the law
of the other two tiers, on rho (no interaction term enters g), less dt/eps
times the divergence of the new flux <v g>, which conserves mass.

Positivity: where a new density would go negative, each face's flux is
scaled by the factor of the cell that it leaves, so that no cell sends out
more than it holds after its reactions; one still negative is a reaction
overshoot and asks for a smaller cfl, the key that sets a kinetic run's
step, and one that is not finite (an overflow) raises too. Where -g
outgrows rho*M, the scaling limiter of Zhang & Shu (J. Comput. Phys. 229,
2010) shrinks g in each (species, cell) row with a negative as little as
leaves it nonnegative. The bias sustains a skew
eps^p*chi0*(ds/dx)*v*c/sigma1 in f1, which the model's own f1 survives only
while Lambda = eps^p*chi0*max|ds/dx|*max|v_j| / (sigma1*M) <= 1; where f1
goes negative at Lambda > 1 the step raises NegativityError naming Lambda.

Buffers: a step allocates one full-size array, the new f, as one
(3, n_cells, 5) @ (3, 5, n_nodes) matmul of per-cell terms with the rows
they add to f, plus the transported g. A StepPlan (KineticState.plan) holds
those rows, all else that does not depend on f, and the scratch, which each
step writes before it reads. A step reuses its state's plan when it was
built for the same key (step_plan) and hands it on, so a run builds one per
distinct dt; steps that share a plan must not run concurrently.

transport_substep, relaxation_substep and infected_gradient are stand-alone
upwind transport, exact relaxation and centred bias gradient of one array.
No step calls them; they stay only for perfbench/micro.py, which times
them, and for tests: their own, and the per-species reference of the step,
which transports with transport_substep. A step calls _transport,
transport_substep's body.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CflViolationError, NegativityError, ValidationError
from .grids import (MacroState, check_dt, clamp_rows_nonnegative, finite_nonnegative,
                    march, shifted, snapshot_schedule, step_ratio)

MAX_CFL = 0.9  # transport number bound: dt <= MAX_CFL * eps * dx / vmax


@dataclass(eq=False)
class StepPlan:
    """The scratch and the f-independent part of a kinetic step for one key
    (see the module docstring); all arrays but work and terms are read-only."""

    key: tuple
    c_up: np.ndarray  # courant numbers where v > 0, else 0: (n_cells, n_nodes)
    c_dn: np.ndarray  # courant numbers where v < 0, else 0
    project: np.ndarray  # (3, n_nodes, n_nodes): f @ project = g/(1 + dt*lambda)
    moments: np.ndarray  # (n_nodes, 2): the weights of <h> and <v h>
    basis: np.ndarray  # (3, 5, n_nodes): the rows that the terms add to f
    fluxes: np.ndarray  # (3, 4, 1): what terms 1-4 add to dt/(eps*dx) * <v g>
    work: np.ndarray  # (3,) + f's shape: g, T(g) and T's scratch
    terms: np.ndarray  # (3, n_cells, 5): rho_new, <T g>, <v T g>, drho, bias


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


def check_epsilon(eps):
    """Reject a scaling parameter outside (0, 1]."""
    if not 0 < eps <= 1:
        raise ValidationError("epsilon must be in (0, 1]")


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
    wherever f does not hold -0.0.
    """
    np.subtract(f[..., 1:, :], f[..., :-1, :], out=diff[..., 1:, :])
    np.subtract(f[..., :1, :], f[..., -1:, :], out=diff[..., :1, :])
    np.multiply(diff[..., 1:, :], c_dn[:-1], out=out[..., :-1, :])
    np.multiply(diff[..., :1, :], c_dn[-1:], out=out[..., -1:, :])
    diff *= c_up
    out += diff
    return np.subtract(f, out, out=out)


def relaxation_substep(f, M, sigma, epsilon, q, dt, vgrid):
    """Exact relaxation of one species toward M * <f>: the anisotropic part
    decays by the factor exp(-sigma*dt/eps^(q+1)) while <f> is untouched."""
    equilibrium = M * (np.asarray(f, dtype=float) @ vgrid.weights)[..., None]
    return (f - equilibrium) * math.exp(-sigma * dt / epsilon ** (q + 1)) + equilibrium


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


def _scale_factors(params, eps):
    """eps^(q_i+1), the relaxation scale of f1, f2 and f3, and eps^(p-q1-1),
    the bias factor of f1. ValidationError names the first that leaves the
    float range: one underflows to 0 or overflows at an eps far enough
    below 1 for its exponent."""
    names = [f"eps^(q{i}+1) of f{i}" for i in "123"] + ["eps^(p-q1-1) of f1"]
    exponents = [q + 1 for q in (params.q1, params.q2, params.q3)] + [params.p - params.q1 - 1]
    factors = []
    for name, exponent in zip(names, exponents):
        try:
            factor = eps ** exponent
        except OverflowError:
            factor = math.inf
        if not 0 < factor < math.inf:
            raise ValidationError(f"{name} is {factor:g} at epsilon = {eps:g}, "
                                  "outside the float range")
        factors.append(factor)
    return factors


def step_plan(state, params, eqs, dt):
    """The state's StepPlan when it was built for this step, else a new one.

    The key holds the velocity grid and eqs by their bytes, since their
    arrays can change in place; its last item is all that the scratch
    depends on, and a new plan keeps the old plan's scratch when it fits:
    a run whose dt changes between segments builds several plans, and
    without the carry-over the peak RSS of a 512 x 16 chemotaxis run rose
    by 1.2-1.3 MB.
    """
    eps, grid, vgrid = state.epsilon, state.grid, state.vgrid
    key = (dt, eps, grid, params,
           (vgrid.vmax, vgrid.nodes.tobytes(), vgrid.weights.tobytes(),
            eqs.dtype, eqs.shape, eqs.tobytes(), state.f.shape))
    old = state.plan
    if old is not None and old.key == key:
        return old
    shape = state.f.shape
    if old is not None and old.key[-1] == key[-1]:
        work, terms = old.work, old.terms
    else:
        work, terms = np.empty((3,) + shape), np.empty(shape[:2] + (5,))
    v, w, courant = vgrid.nodes, vgrid.weights, dt / (eps * grid.dx)
    *scales, bias = _scale_factors(params, eps)
    rates = zip((params.sigma1, params.sigma2, params.sigma3), scales)
    # the implicit relaxation, applied to g before T (which is linear)
    shrink = np.array([[1.0 / (1.0 + dt * sigma / scale)] for sigma, scale in rates])
    project = shrink[..., None] * (np.eye(len(v)) - w[:, None] * eqs[:, None, :])
    basis = np.zeros((3, 5, len(v)))
    basis[:, 0], basis[:, 1] = eqs, -eqs
    basis[:, 3] = -courant * shrink * v * eqs
    basis[0, 4] = (shrink[0] * dt * bias * params.chi0 / (2.0 * grid.dx)) * v
    moments = np.stack((w, w * v), axis=1)
    fluxes = courant * (basis[:, 1:] @ moments[:, 1])
    fluxes[:, 1] = courant
    c_up, c_dn = (_tile(row, shape[1:]) for row in _courant_rows(vgrid, grid, eps, dt))
    return StepPlan(key, c_up, c_dn, *(_tile(a, a.shape) for a in (
        project, moments, basis, fluxes[..., None])), work, terms)


def _limit_outflow(flux, held):
    """The fluxes through the faces i+1/2, each scaled by the factor of the
    cell that it leaves: min(1, held/outflow), and 0 where held < 0."""
    outflow = np.maximum(flux, 0.0) - np.minimum(shifted(flux, -1), 0.0)
    room = np.maximum(held, 0.0)
    scale = np.ones(held.shape)
    np.divide(room, outflow, out=scale, where=outflow > room)  # in [0, 1)
    return flux * np.where(flux > 0.0, scale, shifted(scale, 1))


def _limit(f, rho, eqs):
    """The scaling limiter of Zhang & Shu on f in place: each (species,
    cell) row that holds a negative becomes rho*M + theta*(f - rho*M), with
    the largest theta in [0, 1] that leaves the row nonnegative."""
    rows = (f < 0.0).any(axis=-1)
    rho_m = rho[rows][:, None] * np.broadcast_to(eqs[:, None, :], f.shape)[rows]
    low = f[rows]
    ratio = np.ones(low.shape)
    np.divide(rho_m, rho_m - low, out=ratio, where=low < 0.0)  # in [0, 1)
    theta = ratio.min(axis=-1, keepdims=True)
    f[rows] = np.maximum(rho_m + theta * (low - rho_m), 0.0)


def kinetic_step(state, params, eqs, dt):
    """One micro-macro step; returns a new state at time + dt.

    Preconditions: dt finite and > 0 (ValidationError), a transport bound
    MAX_CFL * eps * dx / vmax > 0 (ValidationError, grids.step_ratio) that
    dt does not exceed (CflViolationError), and scale factors within the
    float range (ValidationError, see _scale_factors).
    """
    check_dt(dt)
    if step_ratio(dt, max_step(state)) > 1:
        raise CflViolationError(f"dt = {dt:.3e} exceeds the transport bound "
                                f"{max_step(state):.3e}")
    plan = step_plan(state, params, eqs, dt)
    if state.plan is None:
        state.plan = plan
    g, moved, scratch = plan.work
    terms, drho, bias = plan.terms, plan.terms[..., 3], plan.terms[..., 4]
    rho = state.f @ state.vgrid.weights
    right = shifted(rho, 1)  # the densities past each face i+1/2
    np.matmul(state.f, plan.project, out=g)
    _transport(g, moved, scratch, plan.c_up, plan.c_dn)
    np.matmul(moved, plan.moments, out=terms[..., 1:3])
    np.subtract(right, rho, out=drho)
    np.add(right, rho, out=bias)
    bias *= drho[1]  # (c_i + c_{i+1}) * (s_{i+1} - s_i) in the f1 row

    held = rho + np.multiply(params.reactions(*rho), dt)
    flux = (terms[..., 1:] @ plan.fluxes)[..., 0]  # dt/(eps*dx) * <v g> at i+1/2
    # contiguous, not the strided terms[..., 0]: min() and max() of a
    # strided view cost about twice as much
    rho_new = held - flux + shifted(flux, -1)
    if not finite_nonnegative(rho_new):
        flux = _limit_outflow(flux, held)
        rho_new = held - flux + shifted(flux, -1)
        clamp_rows_nonnegative(rho_new, [f"density of kinetic distribution f{i}"
                                         for i in "123"], "cfl")
    terms[..., 0] = rho_new

    f = np.matmul(terms, plan.basis)
    f += moved
    if f.min() < 0.0:
        bias_number = (state.epsilon ** params.p * params.chi0 * np.abs(drho[1]).max()
                       / state.grid.dx * np.abs(state.vgrid.nodes).max()
                       / (params.sigma1 * eqs[0].min()))
        if f[0].min() < 0.0 and bias_number > 1.0:
            raise NegativityError(
                f"kinetic distribution f1 reached {f[0].min():.3e} where the bias "
                f"outweighs the relaxation: Lambda = eps^p*chi0*max|ds/dx|*max|v|"
                f"/(sigma1*M) = {bias_number:.3g} > 1")
        _limit(f, rho_new, eqs)
    new = KineticState(f, state.epsilon, state.time + dt, state.grid, state.vgrid)
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
    return march(initial, lambda state, dt: kinetic_step(state, params, eqs, dt),
                 lambda state: max_step(state, cfl), times, moments)
