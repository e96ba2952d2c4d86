"""Periodic spatial grids, macroscopic fields, initial profiles, and the
time-marching loop that the macro and kinetic solvers share."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativityError, ParseError, ValidationError

NEGATIVITY_TOL = 1e-12


def clamp_nonnegative(field, what, tol=NEGATIVITY_TOL):
    """Round tiny negative values (rounding noise) up to zero, in place.

    A value below -tol is not noise; it means the step size was too large
    for the positivity-preserving regime, so raise instead of papering over.
    """
    low = field.min()
    if low < 0.0:
        if low < -tol:
            raise NegativityError(
                f"{what} reached {low:.3e} < -{tol:.1e}; reduce dt"
            )
        np.maximum(field, 0.0, out=field)
    return field


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic finite-volume grid on [0, length)."""

    length: float
    n_cells: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValidationError("length must be > 0")
        if not isinstance(self.n_cells, int) or self.n_cells < 2:
            raise ValidationError("n_cells must be an integer >= 2")

    @property
    def dx(self):
        return self.length / self.n_cells

    @property
    def centers(self):
        return (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class MacroState:
    """Cell-averaged densities of the three populations at one time."""

    c: np.ndarray
    s: np.ndarray
    u: np.ndarray
    time: float
    grid: SpatialGrid

    def __post_init__(self):
        for name in ("c", "s", "u"):
            field = np.asarray(getattr(self, name), dtype=float)
            if field.shape != (self.grid.n_cells,):
                raise ValidationError(
                    f"{name} must have shape ({self.grid.n_cells},)"
                )
            setattr(self, name, field)

    def total_mass(self):
        """Cell-integrated totals (per species), conserved by pure transport."""
        dx = self.grid.dx
        return np.array([f.sum() * dx for f in (self.c, self.s, self.u)])


@dataclass(frozen=True)
class InitialProfile:
    """Descriptor for initial data: constant, cosine-perturbed or from file.

    cosine applies a relative ripple to each species,
        rho_i(x) = base_i * (1 + amplitude*cos(2*pi*mode*x/length)),
    so zero-density species stay identically zero.
    """

    kind: str
    c0: float = 1.0
    s0: float = 0.0
    u0: float = 0.0
    amplitude: float = 0.1
    mode: int = 1
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "cosine", "file"):
            raise ValidationError("profile must be constant, cosine or file")
        if self.kind != "file":
            if min(self.c0, self.s0, self.u0) < 0:
                raise ValidationError("initial densities must be >= 0")
        if self.kind == "cosine" and not 0 <= self.amplitude <= 1:
            raise ValidationError("amplitude must be in [0, 1]")
        if self.kind == "cosine" and self.mode < 1:
            raise ValidationError("mode must be >= 1")
        if self.kind == "file" and not self.path:
            raise ValidationError("file profile needs a path")

    def build(self, grid):
        """Instantiate the profile on a grid as a time-0 MacroState."""
        if self.kind == "constant":
            fields = [np.full(grid.n_cells, v) for v in (self.c0, self.s0, self.u0)]
        elif self.kind == "cosine":
            ripple = 1.0 + self.amplitude * np.cos(
                2.0 * np.pi * self.mode * grid.centers / grid.length
            )
            fields = [v * ripple for v in (self.c0, self.s0, self.u0)]
        else:
            fields = _read_profile_file(self.path, grid.n_cells)
        state = MacroState(fields[0], fields[1], fields[2], 0.0, grid)
        if min(f.min() for f in fields) < 0:
            raise ValidationError("initial densities must be >= 0")
        return state


def snapshot_schedule(snapshot_times, start, t_final):
    """Sorted distinct snapshot times in [start, t_final], ending at t_final.

    None asks for the final time only.
    """
    if t_final < 0:
        raise ValidationError("t_final must be >= 0")
    times = sorted(set(snapshot_times if snapshot_times is not None else [t_final]))
    if times and (times[0] < start or times[-1] > t_final):
        raise ValidationError("snapshot times must lie in [initial time, t_final]")
    if not times or times[-1] < t_final:
        times.append(t_final)
    return times


def march(state, step, bound, times, snapshot):
    """Advance state through the scheduled times; returns (snapshots, state).

    Each segment up to the next time is split into the fewest equal steps
    no longer than bound(state), so every time is hit exactly; step(state,
    dt) returns the next state and snapshot(state) what to record there.
    """
    snapshots = []
    for target in times:
        segment = target - state.time
        if segment > 0:
            n = max(1, math.ceil(segment / bound(state) - 1e-12))
            dt = segment / n
            for _ in range(n):
                state = step(state, dt)
            state.time = target  # cancel accumulated rounding in the sum
        snapshots.append(snapshot(state))
    return snapshots, state


def _read_profile_file(path, n_cells):
    """Read per-cell (c, s, u) rows; '#' lines are comments."""
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 'c,s,u', got {line!r}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric value in {line!r}")
    if len(rows) != n_cells:
        raise ValidationError(
            f"{path}: {len(rows)} rows but the grid has {n_cells} cells"
        )
    data = np.array(rows)
    return [data[:, 0].copy(), data[:, 1].copy(), data[:, 2].copy()]
