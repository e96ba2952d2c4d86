"""Macroscopic tier: chemotaxis-reaction-diffusion system on a periodic grid.

    dc/dt + d/dx( chi*c*ds/dx - Dc*dc/dx ) = -d1*c - beta*c*u + r
    ds/dt - d/dx( Ds*ds/dx )               = -d2*s + beta*c*u
    du/dt - d/dx( Du*du/dx )               = -d3*u + k*s

Healthy cells c drift up the gradient of the infected density s; all three
species diffuse with coefficients obtained from velocity-space quadrature.
Finite-volume discretization in flux form: diffusion via centered face
differences, the chemotactic flux with the cell value upwinded by the drift
sign, reactions pointwise explicit. Transport fluxes telescope over the
periodic domain, so mass changes only through reactions.
"""

import math

import numpy as np

from .errors import StepSizeError, ValidationError
from .grids import MacroState, clamp_nonnegative, march, snapshot_schedule
from .velocity import MacroCoefficients, transport_coefficients  # noqa: F401

DIFFUSION_NUMBER = 0.45  # dt <= DIFFUSION_NUMBER * dx^2 / max(D)
DRIFT_CFL = 0.9          # dt <= DRIFT_CFL * dx / max|chi * ds/dx|


def build_macro_coefficients(params, vgrid):
    """The macro tier's coefficients, from velocity quadrature rather than
    closed forms, so the macro tier stays consistent with whatever the
    kinetic tier integrates."""
    return transport_coefficients(params, vgrid)


def _face_gradient(field, dx):
    """Gradient at face k+1/2 between cells k and k+1 (periodic, last axis)."""
    return (np.roll(field, -1, axis=-1) - field) / dx


def drift_field(state, coeff):
    """Chemotactic drift velocity chi * ds/dx at the faces."""
    return coeff.chi * _face_gradient(state.s, state.grid.dx)


def macro_step(state, coeff, dt):
    """One explicit step; returns a new state at time + dt.

    Preconditions (StepSizeError): dt within the diffusive bound
    0.45*dx^2/max(D) and the drift bound 0.9*dx/max|chi*ds/dx|.
    """
    if dt <= 0:
        raise ValidationError("dt must be > 0")
    grid = state.grid
    dx = grid.dx

    rho = state.rho
    grad = _face_gradient(rho, dx)
    w = coeff.chi * grad[1]  # same as drift_field(state, coeff)
    max_drift = np.max(np.abs(w))
    if coeff.max_diffusivity > 0 and dt > DIFFUSION_NUMBER * dx * dx / coeff.max_diffusivity:
        raise StepSizeError(
            f"dt = {dt:.3e} exceeds the diffusive bound "
            f"{DIFFUSION_NUMBER * dx * dx / coeff.max_diffusivity:.3e}"
        )
    if max_drift > 0 and dt > DRIFT_CFL * dx / max_drift:
        raise StepSizeError(
            f"dt = {dt:.3e} exceeds the drift bound {DRIFT_CFL * dx / max_drift:.3e}"
        )

    # fluxes at face k+1/2; upwind the advected cell value by the drift sign
    c = rho[0]
    flux = -np.array([[coeff.Dc], [coeff.Ds], [coeff.Du]]) * grad
    flux[0] += w * np.where(w > 0, c, np.roll(c, -1))

    reaction = np.array(coeff.params.reactions(*rho))
    new = rho - dt / dx * (flux - np.roll(flux, 1, axis=-1)) + dt * reaction

    for name, field in zip("csu", new):
        clamp_nonnegative(field, f"macro field {name}")
    return MacroState(new, state.time + dt, grid)


def stable_dt(state, coeff):
    """Step size safe for diffusion, drift and reaction loss simultaneously.

    Uses the combined explicit bound 0.9/(2*maxD/dx^2 + max|w|/dx + loss),
    which is at least as strict as each macro_step precondition and also
    keeps the explicit reaction update positivity-preserving.
    """
    dx = state.grid.dx
    p = coeff.params
    loss = max(p.d1 + p.beta * float(state.u.max()), p.d2, p.d3)
    denom = (
        2.0 * coeff.max_diffusivity / (dx * dx)
        + np.max(np.abs(drift_field(state, coeff))) / dx
        + loss
    )
    return 0.9 / denom if denom > 0 else math.inf


def run_macro(initial, coeff, t_final, snapshot_times=None, dt_max=None):
    """Advance to t_final, returning snapshots at the requested times.

    Between snapshots the step is chosen from the stability bound (with a
    0.8 margin for drift growth) or capped at dt_max, then rounded down so
    each segment is hit exactly. The final time is always snapshotted.
    """
    if dt_max is not None and not dt_max > 0:
        raise ValidationError("dt_max must be None or > 0")
    times = snapshot_schedule(snapshot_times, initial.time, t_final)

    def bound(state):
        dt = 0.8 * stable_dt(state, coeff)
        return dt if dt_max is None else min(dt / 0.8, dt_max)

    snapshots, _ = march(
        initial, lambda state, dt: macro_step(state, coeff, dt), bound, times,
        lambda state: MacroState(state.rho.copy(), state.time, state.grid),
    )
    return snapshots
