"""Convergence harness: certify kinetic moments against the limit model.

For a decreasing sequence of scaling parameters eps the study runs the
kinetic solver, measures the distance of the zeroth moments from a reference
solution, and fits the slope of log(error) versus log(eps).

Relaxation (rate eps^-(q_i+1)) outruns transport (eps^-1) for every
q_i >= 1, and a first-order Chapman-Enskog step leaves species i the flux
eps^(q_i-1)*(-D_i*dx rho_i), plus eps^(p-1)*chi*c*dx s for the healthy
cells. So every regime has the macro system as its limit, with D_i kept
if and only if q_i == 1, chi kept if and only if p == 1, and each other
coefficient set to zero (the dropped terms are O(eps)). The reference is
the Strang macroscopic solver with those coefficients, on a grid refined by
ref_refine and block-averaged back onto the study grid (a file profile,
given per study cell, is repeated onto the fine cells). With every
coefficient zero, as in the material regime q_i = p = 2, the Strang step is
Heun on the reactions: the cell average of the pointwise virus ODE.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kinetic
from .ahead import computed_ahead
from .errors import DegenerateFitError, ValidationError
from .grids import MacroState, SpatialGrid, check_integer, snapshot_schedule
from .macro import build_macro_coefficients, run_macro
from .velocity import build_velocity_grid, species_equilibria

_FIELDS = ("c", "s", "u")


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-species L2-in-space, RMS-in-snapshots errors and fitted orders.

    regime labels the (q1, q2, q3, p) tuple in exponents: "parabolic" (all
    1), "hyperbolic" (all 2) or "mixed". reference_descriptor records which
    reference run the errors are measured against, and which macro
    coefficients the limit drops. estimated_order is fit on the
    per-eps maximum error across species.
    """

    regime: str
    exponents: tuple
    reference_descriptor: str
    epsilons: tuple
    errors: dict
    orders: dict
    estimated_order: float

    def __post_init__(self):
        if any(a <= b for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ValidationError("epsilons must be strictly decreasing")
        for field in _FIELDS:
            values = self.errors.get(field, ())
            if len(values) != len(self.epsilons):
                raise ValidationError(f"errors[{field!r}] must match epsilons")
            if any(e < 0 for e in values):
                raise ValidationError("errors must be nonnegative")
        if not math.isfinite(self.estimated_order):
            raise ValidationError("estimated_order must be finite")

    def max_errors(self):
        return _species_max(self.errors)


def _species_max(errors):
    """Per-eps maximum error across species."""
    return tuple(map(max, zip(*(errors[f] for f in _FIELDS))))


def estimate_order(epsilons, errors):
    """Least-squares slope of log(error) against log(eps)."""
    if len(epsilons) != len(errors):
        raise ValidationError("epsilons and errors must have equal length")
    if len(epsilons) < 3:
        raise DegenerateFitError("order fit needs at least three points")
    eps = np.asarray(epsilons, dtype=float)
    err = np.asarray(errors, dtype=float)
    if np.any(eps <= 0) or np.any(err <= 0):
        raise DegenerateFitError("order fit needs positive eps and errors")
    slope, _ = np.polyfit(np.log(eps), np.log(err), 1)
    return float(slope)


def _fit_or_flat(epsilons, errors):
    """estimate_order, except an identically zero error sequence counts as
    constant (slope 0.0): the runs agree exactly, nothing shrinks with eps."""
    if all(e == 0.0 for e in errors):
        return 0.0
    return estimate_order(epsilons, errors)


def _detect_regime(params):
    """A label for the scaling exponents; the reference does not depend on it."""
    exponents = (params.q1, params.q2, params.q3, params.p)
    if all(e == 1 for e in exponents):
        return "parabolic", exponents
    if all(e == 2 for e in exponents):
        return "hyperbolic", exponents
    return "mixed", exponents


def _error_norm(snaps, reference, dx):
    """sqrt of the snapshot-averaged squared L2 distance, per species row."""
    acc = np.zeros(len(_FIELDS))
    for snap, ref in zip(snaps, reference):
        delta = snap.rho - ref
        acc += dx * np.sum(delta * delta, axis=1)
    return np.sqrt(acc / len(snaps))


def _limit_reference(profile, initial, params, vgrid, t_final, times,
                     ref_refine):
    fine = SpatialGrid(initial.grid.length, initial.grid.n_cells * ref_refine)
    if profile.kind == "file":
        # the file has one row per study cell; repeating each row onto its
        # fine cells keeps the cell averages
        start = MacroState(np.repeat(initial.rho, ref_refine, axis=1), 0.0, fine)
    else:
        start = profile.build(fine)
    # the limit keeps D_i only where q_i == 1 and chi only where p == 1
    exponents = (params.q1, params.q2, params.q3, params.p)
    dropped = [name for name, e in zip(("Dc", "Ds", "Du", "chi"), exponents)
               if e != 1]
    coeff = replace(build_macro_coefficients(params, vgrid),
                    **dict.fromkeys(dropped, 0.0))
    ref_snaps = run_macro(start, coeff, t_final, snapshot_times=times)
    reference = [s.rho.reshape(3, -1, ref_refine).mean(axis=2) for s in ref_snaps]
    descriptor = (f"run_macro (Strang, exact diffusion) on {fine.n_cells} cells, "
                  f"restricted {ref_refine}x")
    if dropped:
        descriptor += ", " + " = ".join(dropped) + " = 0"
    return reference, descriptor


def run_convergence_study(params, profile, epsilons, t_final,
                          snapshot_times=None, length=1.0, n_cells=128,
                          n_nodes=16, ref_refine=4, cfl=0.8):
    """Run the kinetic solver across epsilons and fit the convergence order.

    Returns a ConvergenceReport with the epsilons sorted largest first.
    Orders are fit per species, and estimated_order on the per-eps maximum
    across species; identically zero errors report a flat order of 0.0.
    The smallest eps runs in a forked child (ahead.computed_ahead) while
    this process runs the others, largest first, and then takes the
    child's row; the report, and the error raised if a run fails, are
    those of running the epsilons one after another, largest first.
    """
    if len(set(epsilons)) != len(epsilons):
        raise ValidationError("epsilons must be distinct")
    for eps in epsilons:
        kinetic.check_epsilon(eps)
    kinetic.check_cfl(cfl)
    if len(epsilons) < 3:
        raise DegenerateFitError("a convergence study needs at least three epsilons")
    check_integer("ref_refine", (ref_refine,), 2)
    regime, exponents = _detect_regime(params)
    epsilons = tuple(sorted(epsilons, reverse=True))
    times = snapshot_schedule(snapshot_times, 0.0, t_final)

    grid = SpatialGrid(length, n_cells)
    vgrid = build_velocity_grid(params.vmax, n_nodes)
    eqs = species_equilibria(vgrid)
    initial = profile.build(grid)
    reference, descriptor = _limit_reference(
        profile, initial, params, vgrid, t_final, times, ref_refine
    )

    def errors_at(eps):
        state = kinetic.init_local_equilibrium(initial, eqs, vgrid, eps)
        snaps, _ = kinetic.run_kinetic(
            state, params, eqs, t_final, snapshot_times=times, cfl=cfl
        )
        return _error_norm(snaps, reference, grid.dx)

    # steps grow as 1/eps: a child runs the smallest eps, the costliest run,
    # while this process runs the others, largest first
    *larger, smallest = epsilons
    with computed_ahead(map(errors_at, [smallest])) as last:
        table = [*map(errors_at, larger), *last]

    errors = {f: tuple(col) for f, col in zip(_FIELDS, np.array(table).T.tolist())}
    orders = {f: _fit_or_flat(epsilons, errors[f]) for f in _FIELDS}
    return ConvergenceReport(
        regime=regime,
        exponents=exponents,
        reference_descriptor=descriptor,
        epsilons=epsilons,
        errors=errors,
        orders=orders,
        estimated_order=_fit_or_flat(epsilons, _species_max(errors)),
    )
