"""Space-homogeneous virus dynamics: the three-species SIR-type ODE system.

    u' = -d1*u - beta*u*w + r      (healthy cells)
    v' = -d2*v + beta*u*w          (infected cells)
    w' = -d3*w + k*v               (virus particles)

The basic reproduction number R0 = beta*k*r/(d1*d2*d3) separates extinction
(R0 <= 1, infection-free equilibrium) from persistence (R0 > 1, endemic
equilibrium).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeStateError, ValidationError
from .grids import MAX_CELLS, NEGATIVITY_TOL, check_bounded, check_dt, split


@dataclass(frozen=True)
class SirState:
    u: float
    v: float
    w: float

    def as_array(self):
        return np.array([self.u, self.v, self.w])


@dataclass(frozen=True)
class EquilibriumReport:
    """R0 together with the equilibria it selects.

    qstar is None when R0 <= 1: the endemic state exists only for R0 > 1.
    """

    r0: float
    q0: SirState
    qstar: SirState | None


@dataclass(frozen=True)
class SirTrajectory:
    """Fixed-step trajectory: times[i] pairs with states[i] = (u, v, w)."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final(self):
        u, v, w = self.states[-1]
        return SirState(u, v, w)


def sir_rhs(state, params):
    """Right-hand side of the ODE system at a state, as a length-3 array."""
    return np.array(params.reactions(state.u, state.v, state.w))


def basic_reproduction_number(params):
    """R0 = beta*k*r/(d1*d2*d3).

    Defined only where d1*d2*d3 > 0: a zero death rate, or rates whose
    product underflows to 0 (1e-110 each), raise ValidationError.
    """
    denom = params.d1 * params.d2 * params.d3
    if denom <= 0:
        raise ValidationError("d1*d2*d3 must be > 0 for equilibrium analysis")
    return params.beta * params.k * params.r / denom


def equilibria(params):
    """Infection-free equilibrium, and the endemic one when R0 > 1.

    q0    = (r/d1, 0, 0)
    qstar = (r/(d1*R0), d1*d3*(R0-1)/(beta*k), d1*(R0-1)/beta)
    """
    r0 = basic_reproduction_number(params)
    q0 = SirState(params.r / params.d1, 0.0, 0.0)
    qstar = None
    if r0 > 1.0:
        qstar = SirState(
            params.r / (params.d1 * r0),
            params.d1 * params.d3 * (r0 - 1.0) / (params.beta * params.k),
            params.d1 * (r0 - 1.0) / params.beta,
        )
    return EquilibriumReport(r0, q0, qstar)


# rows per block of a streamed trajectory: 1,024 writer chunks of 64 rows,
# 1.5 MB of states and 0.5 MB of times; `kinsir ode` sends the times on as
# about 1.4 MB of text
_BLOCK_ROWS = 65_536


def _step_count(initial, t_final, dt):
    """Check integrate_sir's arguments; returns its step count and step."""
    check_dt(dt)
    check_bounded("t_final", (t_final,), 0)
    if not all(0 <= x < math.inf for x in (initial.u, initial.v, initial.w)):
        raise ValidationError("initial state must be finite and >= 0")

    # the trajectory's (n_steps + 1, 3) doubles must fit in one numpy array
    steps = t_final / dt
    if not steps + 1 <= MAX_CELLS:
        raise ValidationError(f"t_final / dt = {steps:.3e} steps is more than "
                              "a trajectory array can hold")
    return split(t_final, dt)


def _times(start, stop, h, t_final, n_steps):
    """Times of steps start, ..., stop - 1: bit for bit the same slice of
    np.linspace(0, t_final, n_steps + 1), which also computes i*h and sets
    its last time to t_final."""
    times = np.arange(start, stop, dtype=float)
    times *= h
    if stop == n_steps + 1:
        times[-1] = t_final
    return times


def _clamped(u, v, w, t):
    """The state at time t with each component in [-NEGATIVITY_TOL, 0)
    rounded up to zero; NegativeStateError for one below, or not finite."""
    for x in (u, v, w):
        if not math.isfinite(x):
            raise NegativeStateError(f"state component {x:.3e} at t = {t:.6g} is not finite")
    low = min(u, v, w)
    if low < -NEGATIVITY_TOL:
        raise NegativeStateError(
            f"state component {low:.3e} < -{NEGATIVITY_TOL:.1e} at t = {t:.6g}; reduce dt"
        )
    return max(u, 0.0), max(v, 0.0), max(w, 0.0)


def _rk4_into(rows, start, params, h, first):
    """Fill the (k, 3) array rows with the RK4 steps first, ..., first + k - 1
    from the state start = (u, v, w) at step first - 1; returns the state
    at the last step. The step index i names the time i*h in the
    NegativeStateError message."""
    # Python floats: numpy scalars (rates drawn with rng.uniform, say) do
    # the same IEEE operations at about three times the cost per step
    h = float(h)
    half = 0.5 * h
    m1, m2, m3 = -float(params.d1), -float(params.d2), -float(params.d3)
    beta, k, r = float(params.beta), float(params.k), float(params.r)
    u, v, w = start
    # a float stored through a flat memoryview of rows builds no array
    flat = memoryview(rows.reshape(-1))
    offset = 3 * first
    inf = math.inf

    for i in range(first, first + len(rows)):
        # RK4 stages of ModelParams.reactions on scalars, each stage with
        # its one infection product, as reactions computes it: the same
        # operations in the same order, so the same bits
        infection = beta * u * w
        au = m1 * u - infection + r
        av = m2 * v + infection
        aw = m3 * w + k * v

        u2, v2, w2 = u + half * au, v + half * av, w + half * aw
        infection = beta * u2 * w2
        bu = m1 * u2 - infection + r
        bv = m2 * v2 + infection
        bw = m3 * w2 + k * v2

        u3, v3, w3 = u + half * bu, v + half * bv, w + half * bw
        infection = beta * u3 * w3
        cu = m1 * u3 - infection + r
        cv = m2 * v3 + infection
        cw = m3 * w3 + k * v3

        u4, v4, w4 = u + h * cu, v + h * cv, w + h * cw
        infection = beta * u4 * w4
        du = m1 * u4 - infection + r
        dv = m2 * v4 + infection
        dw = m3 * w4 + k * v4

        u += h * (au + 2.0 * bu + 2.0 * cu + du) / 6.0
        v += h * (av + 2.0 * bv + 2.0 * cv + dv) / 6.0
        w += h * (aw + 2.0 * bw + 2.0 * cw + dw) / 6.0

        # a nan fails every comparison
        if not (u >= 0.0 and v >= 0.0 and w >= 0.0 and u < inf and v < inf and w < inf):
            u, v, w = _clamped(u, v, w, i * h)
        row = 3 * i - offset
        flat[row] = u
        flat[row + 1] = v
        flat[row + 2] = w

    return u, v, w


def integrate_sir(initial, params, t_final, dt):
    """Integrate with classical RK4 at a fixed step.

    The actual step is t_final/ceil(t_final/dt), the largest step <= dt that
    lands exactly on t_final; the trajectory has ceil(t_final/dt)+1 states.
    Components in [-NEGATIVITY_TOL, 0) are rounded up to zero after each
    step; a component below -NEGATIVITY_TOL raises NegativeStateError
    (dt too large), and so does one that is not finite (an overflow). dt
    must be finite and > 0; t_final and every component of the initial
    state must be finite and >= 0.
    """
    n_steps, h = _step_count(initial, t_final, dt)
    [(times, states)] = _blocks(initial, params, h, t_final, n_steps, n_steps + 1)
    return SirTrajectory(times, states)


def integrate_sir_blocks(initial, params, t_final, dt):
    """integrate_sir's trajectory as an iterator of (times, states) blocks.

    The arguments are checked here, before the first block is asked for,
    with integrate_sir's checks and messages. Each block holds the next
    rows of times and states, at most _BLOCK_ROWS of them, in arrays of
    its own; concatenated, the blocks are integrate_sir's arrays bit for
    bit. A NegativeStateError comes from the block that meets it.
    """
    n_steps, h = _step_count(initial, t_final, dt)
    return _blocks(initial, params, h, t_final, n_steps, _BLOCK_ROWS)


def _blocks(initial, params, h, t_final, n_steps, size):
    """The trajectory's rows in blocks of size rows, each in new arrays;
    integrate_sir takes them as one block."""
    state = float(initial.u), float(initial.v), float(initial.w)
    for start in range(0, n_steps + 1, size):
        stop = min(start + size, n_steps + 1)
        states = np.empty((stop - start, 3))
        if start == 0:
            states[0] = state
        first = max(start, 1)
        state = _rk4_into(states[first - start:], state, params, h, first)
        yield _times(start, stop, h, t_final, n_steps), states
