"""Convergence harness: certify kinetic moments against the limit model.

For a decreasing sequence of scaling parameters eps the study runs the
kinetic solver, measures the distance of the zeroth moments from a reference
solution, and fits the slope of log(error) versus log(eps). The reference
depends on the regime encoded in the scaling exponents:

* parabolic, all q_i = p = 1: reference is the Strang macroscopic solver
  on a grid refined by ref_refine, block-averaged back onto the study grid;
* hyperbolic material regime, all q_i = p = 2 with spatially constant
  initial data: the space-homogeneous dynamics reduce to the virus ODE
  system, so the reference is one finely resolved integrate_sir pass.

Any other exponent combination, or non-constant data in the second case,
raises RegimeError.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kinetic
from .errors import DegenerateFitError, RegimeError, ValidationError
from .grids import SpatialGrid, snapshot_schedule
from .macro import build_macro_coefficients, run_macro
from .sir import SirState, integrate_sir
from .velocity import build_velocity_grid, species_equilibria

_FIELDS = ("c", "s", "u")
_REF_ODE_STEPS = 100_000


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-species L2-in-space, RMS-in-snapshots errors and fitted orders.

    regime is "parabolic" or "hyperbolic", exponents the (q1, q2, q3, p)
    tuple behind it, and reference_descriptor records which reference run
    the errors are measured against. estimated_order is fit on the
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

    def to_lines(self):
        """Serialized form: '#' metadata lines, a header row, data rows."""
        lines = [
            f"# regime = {self.regime}",
            "# exponents = " + " ".join(str(e) for e in self.exponents),
            f"# reference = {self.reference_descriptor}",
        ]
        for field in _FIELDS:
            lines.append(f"# order_{field} = {self.orders[field]:.17g}")
        lines.append(f"# estimated_order = {self.estimated_order:.17g}")
        lines.append("epsilon," + ",".join(f"error_{f}" for f in _FIELDS))
        for i, eps in enumerate(self.epsilons):
            row = [f"{eps:.17g}"] + [f"{self.errors[f][i]:.17g}" for f in _FIELDS]
            lines.append(",".join(row))
        return lines


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
    exponents = (params.q1, params.q2, params.q3, params.p)
    if all(e == 1 for e in exponents):
        return "parabolic", exponents
    if all(e == 2 for e in exponents):
        return "hyperbolic", exponents
    raise RegimeError(
        f"no reference solution for scaling exponents (q1,q2,q3,p) = {exponents}"
    )


def _error_norm(snaps, reference, dx):
    """sqrt of the snapshot-averaged squared L2 distance, per species row."""
    acc = np.zeros(len(_FIELDS))
    for snap, ref in zip(snaps, reference):
        delta = snap.rho - ref
        acc += dx * np.sum(delta * delta, axis=1)
    return np.sqrt(acc / len(snaps))


def _parabolic_reference(profile, params, vgrid, grid, t_final, times, ref_refine):
    fine = SpatialGrid(grid.length, grid.n_cells * ref_refine)
    coeff = build_macro_coefficients(params, vgrid)
    ref_snaps = run_macro(profile.build(fine), coeff, t_final, snapshot_times=times)
    reference = [s.rho.reshape(3, -1, ref_refine).mean(axis=2) for s in ref_snaps]
    descriptor = (f"run_macro (Strang, exact diffusion) on {fine.n_cells} cells, "
                  f"restricted {ref_refine}x")
    return reference, descriptor


def _hyperbolic_reference(profile, params, grid, times):
    rho0 = profile.build(grid).rho
    for field, spread in zip(_FIELDS, np.ptp(rho0, axis=1)):
        if spread != 0.0:
            raise RegimeError(
                "the hyperbolic material regime needs spatially constant "
                f"initial data; field {field} varies across cells"
            )
    # one pass at one step size, continued from snapshot to snapshot
    state, start, dt = SirState(*rho0[:, 0]), 0.0, times[-1] / _REF_ODE_STEPS
    ones = np.ones(grid.n_cells)
    reference = []
    for t in times:
        if t > start:
            state, start = integrate_sir(state, params, t - start, dt).final, t
        reference.append(np.outer(state.as_array(), ones))
    descriptor = f"integrate_sir, {_REF_ODE_STEPS} steps to the last snapshot"
    return reference, descriptor


def run_convergence_study(params, profile, epsilons, t_final,
                          snapshot_times=None, length=1.0, n_cells=128,
                          n_nodes=16, ref_refine=4, cfl=0.8):
    """Run the kinetic solver across epsilons and fit the convergence order.

    Returns a ConvergenceReport with the epsilons sorted largest first.
    Orders are fit per species, and estimated_order on the per-eps maximum
    across species; identically zero errors report a flat order of 0.0.
    """
    if len(set(epsilons)) != len(epsilons) or not all(0 < e <= 1 for e in epsilons):
        raise ValidationError("epsilons must be distinct and in (0, 1]")
    if not 0 < cfl <= 0.9:
        raise ValidationError("cfl must be in (0, 0.9]")
    if len(epsilons) < 3:
        raise DegenerateFitError("a convergence study needs at least three epsilons")
    if ref_refine < 2:
        raise ValidationError("ref_refine must be >= 2")
    regime, exponents = _detect_regime(params)
    epsilons = tuple(sorted(epsilons, reverse=True))
    times = snapshot_schedule(snapshot_times, 0.0, t_final)

    grid = SpatialGrid(length, n_cells)
    vgrid = build_velocity_grid(params.vmax, n_nodes)
    eqs = species_equilibria(vgrid)
    if regime == "parabolic":
        reference, descriptor = _parabolic_reference(
            profile, params, vgrid, grid, t_final, times, ref_refine
        )
    else:
        reference, descriptor = _hyperbolic_reference(profile, params, grid, times)

    initial = profile.build(grid)
    table = []
    for eps in epsilons:
        state = kinetic.init_local_equilibrium(initial, eqs, vgrid, eps)
        snaps, _ = kinetic.run_kinetic(
            state, params, eqs, t_final, snapshot_times=times, cfl=cfl
        )
        table.append(_error_norm(snaps, reference, grid.dx))

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
