"""Periodic spatial grids, macroscopic fields, initial profiles, and the
time-marching loop that the macro and kinetic solvers share."""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import NegativityError, ParseError, ValidationError

NEGATIVITY_TOL = 1e-12

# the most cells of a (3, n_cells) float array, or rows of an (n, 3) one
# (an ODE trajectory): numpy makes one only while its bytes fit an intp;
# split bounds the step count of every tier by it
MAX_CELLS = np.iinfo(np.intp).max // 24


def finite_nonnegative(stack):
    """Whether every value of stack is finite and >= 0 (a nan is not)."""
    return stack.min() >= 0.0 and stack.max() < math.inf


def clamp_rows_nonnegative(stack, labels, step="dt"):
    """Round the tiny negative values (rounding noise) of a stack up to
    zero, in place; labels name its rows.

    A value below -NEGATIVITY_TOL is not noise; it means the step size was
    too large for the positivity-preserving regime, so raise instead of
    papering over, with a message that asks to reduce step, the key that
    sets the caller's step size. A value that is not finite (an overflow)
    raises too. Where finite_nonnegative holds that test is all; else the
    rows are taken one by one, and only a row that holds a negative is
    clamped, so a row of -0.0 keeps its bits.
    """
    if finite_nonnegative(stack):
        return stack
    for row, label in zip(stack, labels):
        low = row.min()
        for value in (low, row.max()):
            if not math.isfinite(value):
                raise NegativityError(f"{label} reached {value:.3e}, which is not finite")
        if low < -NEGATIVITY_TOL:
            raise NegativityError(
                f"{label} reached {low:.3e} < -{NEGATIVITY_TOL:.1e}; reduce {step}"
            )
        if low < 0.0:
            np.maximum(row, 0.0, out=row)
    return stack


def check_dt(dt):
    """Reject a step size that is not finite and > 0."""
    if not 0 < dt < math.inf:
        raise ValidationError("dt must be finite and > 0")


def check_bounded(names, values, low, strict=False):
    """Reject the first of values that is not finite and >= low (> low when
    strict) with "<name> must be >= low" ("> low") when it lies below, else
    "<name> must be finite"; names is one name, or a name per value."""
    for name, value in zip(repeat(names) if isinstance(names, str) else names, values):
        if (value <= low) if strict else (value < low):
            raise ValidationError(f"{name} must be {'>' if strict else '>='} {low}")
        if not value < math.inf:  # inf or nan
            raise ValidationError(f"{name} must be finite")


def check_integer(names, values, low):
    """check_bounded, for the rule "<name> must be an integer >= low"."""
    for name, value in zip(repeat(names) if isinstance(names, str) else names, values):
        if not (isinstance(value, int) and value >= low):
            raise ValidationError(f"{name} must be an integer >= {low}")


def check_width(name, width):
    """Reject a width whose square (a divisor or a moment in every tier) is subnormal or 0."""
    if not width * width >= np.finfo(float).tiny:
        raise ValidationError(f"{name} {width:.3e} squares below the smallest normal float")


def shifted(row, k):
    """row[..., (i + k) % n] along the last axis, for k = 1 or -1: the
    periodic neighbour of both tiers, a roll by -k without the cost of
    numpy's."""
    return np.concatenate((row[..., k:], row[..., :k]), axis=-1)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic finite-volume grid on [0, length), dx passing check_width."""

    length: float
    n_cells: int

    def __post_init__(self):
        check_bounded("length", (self.length,), 0, strict=True)
        check_integer("n_cells", (self.n_cells,), 2)
        if self.n_cells > MAX_CELLS:
            raise ValidationError(f"n_cells = {self.n_cells:.3e} is more cells "
                                  "than a density array can hold")
        check_width("the cell width", self.dx)

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

    # read-only views of the c, s and u rows
    c = property(lambda self: self.rho[0])
    s = property(lambda self: self.rho[1])
    u = property(lambda self: self.rho[2])

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
            check_bounded("initial densities", (self.c0, self.s0, self.u0), 0)
        if self.kind == "cosine":
            if not 0 <= self.amplitude <= 1:
                raise ValidationError("amplitude must be in [0, 1]")
            check_bounded("mode", (self.mode,), 1)
            check_integer("mode", (self.mode,), 1)
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
        check_bounded("initial densities", (rho.min(), rho.max()), 0)
        return MacroState(rho, 0.0, grid)


def snapshot_schedule(snapshot_times, start, t_final):
    """Sorted distinct snapshot times in [start, t_final], ending at t_final.

    None or empty asks for the final time only; all times must be finite.
    """
    check_bounded("t_final", (t_final,), 0)
    times = sorted(set(snapshot_times if snapshot_times is not None else [t_final]))
    if not all(map(math.isfinite, times)):
        raise ValidationError("snapshot times must be finite")
    if times and (times[0] < start or times[-1] > t_final):
        raise ValidationError("snapshot times must lie in [initial time, t_final]")
    if not times or times[-1] < t_final:
        times.append(t_final)
    return times


def step_ratio(span, limit):
    """span / limit less the slack of 1e-12 that every step rule forgives for
    rounding: above 1 only when span outgrows limit by more than that. A
    bound that is not > 0 (an underflow to 0, say, or a nan) raises
    ValidationError."""
    if not limit > 0:
        raise ValidationError(f"the step bound {limit:.3e} must be > 0")
    return span / limit - 1e-12


def split(span, limit):
    """(count, step): the fewest equal steps no longer than limit in a span
    >= 0, at least one when span > 0; a zero span is zero steps of 0.

    The count bounds every tier's loop and an ODE trajectory's rows: one
    whose count + 1 rows exceed MAX_CELLS, or that is not finite, raises
    ValidationError.
    """
    ratio = step_ratio(span, limit)
    if not ratio + 1 <= MAX_CELLS:  # inf or nan too
        raise ValidationError(f"span {span:.3e} / step bound {limit:.3e} = {ratio:.3e} "
                              "steps is more than an array can hold")
    count = max(int(span > 0), math.ceil(ratio))
    return count, span / max(count, 1)


def march(state, step, bound, times, snapshot):
    """Advance state through the scheduled times; returns (snapshots, state).

    Each segment up to the next time is split into the fewest equal steps
    no longer than bound(state), and the rest again whenever a step outgrows
    the bound, so every time is hit exactly; step(state, dt) returns the
    next state and snapshot(state) what to record there. A bound that is
    not > 0 raises ValidationError (step_ratio).
    """
    snapshots = []
    for target in times:
        if target > state.time:
            left, dt = split(target - state.time, bound(state))
            while left:
                state = step(state, dt)
                left -= 1
                limit = bound(state) if left else math.inf
                if step_ratio(dt, limit) > 1:  # the bound shrank below dt
                    left, dt = split(target - state.time, limit)
            state.time = target  # cancel accumulated rounding in the sum
        snapshots.append(snapshot(state))
    return snapshots, state


def read_text(path, what):
    """The text of the UTF-8 file at path, line ends as newlines; ParseError
    "cannot read <what> <path>: ..." when it cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc


def data_lines(text):
    """(lineno, line) for each line of text, stripped, that is neither blank
    nor a '#' comment; the line rule of both input files.

    Lines end at "\n" alone, as readlines() ends them: str.splitlines()
    also ends them at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029.
    """
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _read_profile_file(path, n_cells):
    """Read per-cell (c, s, u) lines into a (3, n_cells) array; '#' lines
    are comments. Every value must be a finite number."""
    rows = []
    for lineno, line in data_lines(read_text(path, "profile_file")):
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
