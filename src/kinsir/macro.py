"""Macroscopic tier: chemotaxis-reaction-diffusion system on a periodic grid.

    dc/dt + d/dx( chi*c*ds/dx - Dc*dc/dx ) = -d1*c - beta*c*u + r
    ds/dt - d/dx( Ds*ds/dx )               = -d2*s + beta*c*u
    du/dt - d/dx( Du*du/dx )               = -d3*u + k*s

Healthy cells c drift up the gradient of the infected density s; all three
species diffuse with coefficients obtained from velocity-space quadrature.
A Strang step (Strang, SIAM J. Numer. Anal. 5, 1968) puts exact diffusion,
exp(dt*D*Lap_h) by FFT, between two Heun half steps of upwind drift plus
reactions: second order in time, with no diffusive step bound. The drift
flux telescopes and the heat semigroup keeps the mean, so mass changes
only through reactions.
"""

import math

import numpy as np

from .errors import StepSizeError, ValidationError
from .grids import (MacroState, check_dt, clamp_rows_nonnegative, march, shifted,
                    snapshot_schedule)
from .velocity import MacroCoefficients, transport_coefficients  # noqa: F401

DRIFT_CFL = 0.9  # Euler stage of size h: h <= DRIFT_CFL * dx / max|chi * ds/dx|


def build_macro_coefficients(params, vgrid):
    """The macro tier's coefficients, from velocity quadrature rather than
    closed forms, so the macro tier stays consistent with whatever the
    kinetic tier integrates."""
    return transport_coefficients(params, vgrid)


def _euler_stage(rho, coeff, h, dx):
    """Forward Euler over h for upwind chemotactic drift plus reactions."""
    new = rho + h * np.array(coeff.params.reactions(*rho))
    if coeff.chi:
        w = coeff.chi / dx * (shifted(rho[1], 1) - rho[1])  # drift at face k+1/2
        if h * np.abs(w).max() > DRIFT_CFL * dx:
            bound = DRIFT_CFL * dx / np.abs(w).max()
            raise StepSizeError(f"dt/2 = {h:.3e} exceeds the drift bound {bound:.3e}")
        flux = w * np.where(w > 0, rho[0], shifted(rho[0], 1))
        new[0] -= h / dx * (flux - shifted(flux, -1))
    return clamp_rows_nonnegative(new, ("macro field c", "macro field s",
                                         "macro field u"))


def _heun(rho, coeff, h, dx):
    """Heun (SSP-RK2) over h: a convex combination of nonnegative states."""
    stage = _euler_stage(rho, coeff, h, dx)
    return 0.5 * (rho + _euler_stage(stage, coeff, h, dx))


def _heat_symbol(n, rates):
    """exp(dt*D_i*Lap_h) on the rfft modes m: eigenvalues -4/dx^2*sin^2(pi*m/n)."""
    sin2 = np.sin(np.pi / n * np.arange(n // 2 + 1)) ** 2
    return np.exp(-4.0 * np.multiply.outer(rates, sin2))


def macro_step(state, coeff, dt):
    """One Strang step; returns a new state at time + dt.

    Heun half steps dt/2 of drift plus reactions around exact diffusion over
    dt. Each Euler stage stays within the drift bound 0.9*dx/max|chi*ds/dx|
    (StepSizeError) and no density below -1e-12 or not finite
    (NegativityError).
    """
    check_dt(dt)
    dx, n = state.grid.dx, state.grid.n_cells
    rho = _heun(state.rho, coeff, 0.5 * dt, dx)
    if coeff.max_diffusivity > 0:
        rates = tuple(D * dt / (dx * dx) for D in (coeff.Dc, coeff.Ds, coeff.Du))
        mean = rho.mean(axis=1, keepdims=True)  # kept apart, so flat rows stay flat
        rho = mean + np.fft.irfft(np.fft.rfft(rho - mean) * _heat_symbol(n, rates), n)
        np.maximum(rho, 0.0, out=rho)  # a positive semigroup: negatives are rounding
    rho = _heun(rho, coeff, 0.5 * dt, dx)
    return MacroState(rho, state.time + dt, state.grid)


def stable_dt(state, coeff):
    """Step size safe for the drift and accurate for the reactions:
    0.9/(max|w|/dx + 16*rate). rate is the reaction Jacobian's infinity norm
    at the largest densities plus sqrt(beta*k*max(s)), which keeps Euler
    stages nonnegative while u grows from k*s within the step; the factor
    16 is for accuracy. Diffusion is exact and sets no bound.

    Infection steepens s, and so the drift, within the step: a face jump of
    s grows at beta times the jump of c*u. With both on, the bound is taken
    again with each |w| grown at that rate for dt0, the step above.
    """
    dx, p = state.grid.dx, coeff.params
    c, s, u = np.maximum(state.rho.max(axis=1), 0.0)
    rate = (max(max(p.d1, p.d2) + p.beta * (c + u), p.k + p.d3)
            + math.sqrt(p.beta * p.k * s))
    w = coeff.chi / dx * (shifted(state.s, 1) - state.s)
    denom = np.abs(w).max() / dx + 16.0 * rate
    # a float divide: a subnormal denom overflows to inf without a numpy warning
    dt0 = 0.9 / float(denom) if denom > 0 else math.inf
    if not (p.beta and coeff.chi) or math.isinf(dt0):
        return dt0
    cu = state.c * state.u
    growth = abs(coeff.chi) / dx * p.beta * np.abs(shifted(cu, 1) - cu)
    w = np.abs(w) + dt0 * growth
    return 0.9 / float(w.max() / dx + 16.0 * rate)


def run_macro(initial, coeff, t_final, snapshot_times=None, dt_max=None):
    """Advance to t_final, returning snapshots at the requested times.

    The step is 0.8 of stable_dt (a margin for drift growth), capped at
    dt_max, evaluated before every step; grids.march splits each segment
    into equal steps that hit it exactly. The final time is always
    snapshotted.
    """
    if dt_max is not None and not dt_max > 0:
        raise ValidationError("dt_max must be None or > 0")
    times = snapshot_schedule(snapshot_times, initial.time, t_final)
    cap = math.inf if dt_max is None else dt_max
    snapshots, _ = march(
        initial, lambda state, dt: macro_step(state, coeff, dt),
        lambda state: min(0.8 * stable_dt(state, coeff), cap), times,
        lambda state: MacroState(state.rho.copy(), state.time, state.grid),
    )
    return snapshots
