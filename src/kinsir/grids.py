"""Periodic spatial grids, macroscopic fields, initial profiles, and the
time-marching loop that the macro and kinetic solvers share."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativityError, ParseError, ValidationError

NEGATIVITY_TOL = 1e-12


def clamp_nonnegative(field, what):
    """Round tiny negative values (rounding noise) up to zero, in place.

    A value below -NEGATIVITY_TOL is not noise; it means the step size was
    too large for the positivity-preserving regime, so raise instead of
    papering over.
    """
    low = field.min()
    if low < 0.0:
        if low < -NEGATIVITY_TOL:
            raise NegativityError(
                f"{what} reached {low:.3e} < -{NEGATIVITY_TOL:.1e}; reduce dt"
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
    """Cell-averaged densities of the three populations at one time.

    rho has shape (3, n_cells); its rows are the healthy cells c, the
    infected cells s and the virus u.
    """

    rho: np.ndarray
    time: float
    grid: SpatialGrid

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.shape != (3, self.grid.n_cells):
            raise ValidationError(f"rho must have shape (3, {self.grid.n_cells})")

    @property
    def c(self):
        return self.rho[0]

    @property
    def s(self):
        return self.rho[1]

    @property
    def u(self):
        return self.rho[2]

    def total_mass(self):
        """Cell-integrated totals (per species), conserved by pure transport."""
        return self.rho.sum(axis=1) * self.grid.dx


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
        if self.kind == "file":
            rho = _read_profile_file(self.path, grid.n_cells)
        else:
            ripple = np.ones(grid.n_cells)
            if self.kind == "cosine":
                ripple += self.amplitude * np.cos(
                    2.0 * np.pi * self.mode * grid.centers / grid.length
                )
            rho = np.array([[self.c0], [self.s0], [self.u0]], dtype=float) * ripple
        state = MacroState(rho, 0.0, grid)
        if rho.min() < 0:
            raise ValidationError("initial densities must be >= 0")
        return state


def snapshot_schedule(snapshot_times, start, t_final):
    """Sorted distinct snapshot times in [start, t_final], ending at t_final.

    None or empty asks for the final time only; every time must be finite.
    """
    if t_final < 0:
        raise ValidationError("t_final must be >= 0")
    times = sorted(set(snapshot_times if snapshot_times is not None else [t_final]))
    if not all(map(math.isfinite, times)):
        raise ValidationError("snapshot times must be finite")
    if times and (times[0] < start or times[-1] > t_final):
        raise ValidationError("snapshot times must lie in [initial time, t_final]")
    if not times or times[-1] < t_final:
        times.append(t_final)
    return times


def _split(segment, limit):
    """(count, dt): the fewest equal steps no longer than limit in segment."""
    count = max(1, math.ceil(segment / limit - 1e-12))
    return count, segment / count


def march(state, step, bound, times, snapshot):
    """Advance state through the scheduled times; returns (snapshots, state).

    Each segment up to the next time is split into the fewest equal steps
    no longer than bound(state), and the rest again whenever a step outgrows
    the bound, so every time is hit exactly; step(state, dt) returns the
    next state and snapshot(state) what to record there.
    """
    snapshots = []
    for target in times:
        if target > state.time:
            left, dt = _split(target - state.time, bound(state))
            while left:
                state = step(state, dt)
                left -= 1
                limit = bound(state) if left else math.inf
                if dt / limit - 1e-12 > 1:  # the bound shrank below dt
                    left, dt = _split(target - state.time, limit)
            state.time = target  # cancel accumulated rounding in the sum
        snapshots.append(snapshot(state))
    return snapshots, state


def _read_profile_file(path, n_cells):
    """Read per-cell (c, s, u) lines into a (3, n_cells) array; '#' lines
    are comments. Every value must be a finite number."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read profile_file {path}: {exc}") from exc
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'c,s,u', got {line!r}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric value in {line!r}")
        if not all(map(math.isfinite, values)):
            raise ParseError(f"{path}:{lineno}: non-finite value in {line!r}")
        rows.append(values)
    if len(rows) != n_cells:
        raise ValidationError(
            f"{path}: {len(rows)} rows but the grid has {n_cells} cells"
        )
    return np.array(rows).T.copy()
