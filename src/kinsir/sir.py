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
from .grids import NEGATIVITY_TOL


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

    Needs strictly positive death rates; zero-rate parameter sets have no
    meaningful threshold.
    """
    denom = params.d1 * params.d2 * params.d3
    if denom <= 0:
        raise ValidationError("d1, d2, d3 must be > 0 for equilibrium analysis")
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


def integrate_sir(initial, params, t_final, dt):
    """Integrate with classical RK4 at a fixed step.

    The actual step is t_final/ceil(t_final/dt), the largest step <= dt that
    lands exactly on t_final; the trajectory has ceil(t_final/dt)+1 states.
    Components in [-NEGATIVITY_TOL, 0) are rounded up to zero after each
    step; a component below -NEGATIVITY_TOL raises NegativeStateError
    (dt too large). dt must be finite and > 0; t_final and every component
    of the initial state must be finite and >= 0.
    """
    if not 0 < dt < math.inf:
        raise ValidationError("dt must be finite and > 0")
    if not 0 <= t_final < math.inf:
        raise ValidationError("t_final must be finite and >= 0")
    if not all(0 <= x < math.inf for x in (initial.u, initial.v, initial.w)):
        raise ValidationError("initial state must be finite and >= 0")

    # at least one step whenever t_final > 0, however large dt is
    n_steps = max(int(t_final > 0), math.ceil(t_final / dt - 1e-12))
    times = np.linspace(0.0, t_final, n_steps + 1)
    states = np.empty((n_steps + 1, 3))
    states[0] = (initial.u, initial.v, initial.w)

    if n_steps == 0:
        return SirTrajectory(times, states)

    h = t_final / n_steps
    d1, d2, d3 = params.d1, params.d2, params.d3
    beta, k, r = params.beta, params.k, params.r
    u, v, w = float(initial.u), float(initial.v), float(initial.w)

    for i in range(1, n_steps + 1):
        # RK4 stages of ModelParams.reactions, unrolled on scalars: the loop
        # dominates runtime for the long threshold integrations.
        au = -d1 * u - beta * u * w + r
        av = -d2 * v + beta * u * w
        aw = -d3 * w + k * v

        u2, v2, w2 = u + 0.5 * h * au, v + 0.5 * h * av, w + 0.5 * h * aw
        bu = -d1 * u2 - beta * u2 * w2 + r
        bv = -d2 * v2 + beta * u2 * w2
        bw = -d3 * w2 + k * v2

        u3, v3, w3 = u + 0.5 * h * bu, v + 0.5 * h * bv, w + 0.5 * h * bw
        cu = -d1 * u3 - beta * u3 * w3 + r
        cv = -d2 * v3 + beta * u3 * w3
        cw = -d3 * w3 + k * v3

        u4, v4, w4 = u + h * cu, v + h * cv, w + h * cw
        du = -d1 * u4 - beta * u4 * w4 + r
        dv = -d2 * v4 + beta * u4 * w4
        dw = -d3 * w4 + k * v4

        u += h * (au + 2.0 * bu + 2.0 * cu + du) / 6.0
        v += h * (av + 2.0 * bv + 2.0 * cv + dv) / 6.0
        w += h * (aw + 2.0 * bw + 2.0 * cw + dw) / 6.0

        low = min(u, v, w)
        if low < 0.0:
            if low < -NEGATIVITY_TOL:
                raise NegativeStateError(
                    f"state component {low:.3e} < -{NEGATIVITY_TOL:.1e} at "
                    f"t = {i * h:.6g}; reduce dt"
                )
            u, v, w = max(u, 0.0), max(v, 0.0), max(w, 0.0)
        states[i] = (u, v, w)

    return SirTrajectory(times, states)
