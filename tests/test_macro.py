"""Macroscopic solver tests: structure first, then frozen accuracy oracles.

Accuracy thresholds were frozen from independent closed forms: the heat
kernel decay rate for a single cosine mode, the virus ODE system solved by
the fourth-order integrator, hand-computed Heun updates and the matrix
exponential of the discrete Laplacian.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kinsir import ModelParams, SirState, equilibria, integrate_sir
from kinsir.config import parse_config
from kinsir.errors import NegativityError, StepSizeError, ValidationError
from kinsir.grids import (
    MAX_CELLS,
    InitialProfile,
    MacroState,
    SpatialGrid,
    check_dt,
    clamp_rows_nonnegative,
    march,
    shifted,
    snapshot_schedule,
    split,
)
from kinsir.macro import (
    MacroCoefficients,
    build_macro_coefficients,
    macro_step,
    run_macro,
    stable_dt,
)
from kinsir.kinetic import init_local_equilibrium, kinetic_step
from kinsir.velocity import (
    build_velocity_grid,
    species_equilibria,
    transport_coefficients,
)

VGRID = build_velocity_grid(1.0, 16)


def constant_state(values, grid):
    return MacroState(np.outer(values, np.ones(grid.n_cells)), 0.0, grid)


# ---------------------------------------------------------------------------
# state layout: one (3, n) array with rows c, s, u


@pytest.mark.parametrize("shape", [(16,), (2, 16), (3, 17)])
def test_macro_state_rejects_other_shapes(shape):
    with pytest.raises(ValidationError, match="shape"):
        MacroState(np.ones(shape), 0.0, SpatialGrid(1.0, 16))


def test_species_are_views_of_the_rows():
    rho = np.arange(48.0).reshape(3, 16)
    state = MacroState(rho, 0.0, SpatialGrid(1.0, 16))
    for i, row in enumerate((state.c, state.s, state.u)):
        assert np.shares_memory(row, state.rho)
        np.testing.assert_array_equal(row, rho[i])
    state.rho[1, 3] = -7.0
    assert state.s[3] == -7.0


def test_total_mass_is_the_per_row_sum_times_dx():
    grid = SpatialGrid(3.0, 1000)
    rho = np.random.default_rng(5).uniform(0.0, 2.0, (3, grid.n_cells))
    mass = MacroState(rho, 0.0, grid).total_mass()
    assert mass.tolist() == [row.sum() * grid.dx for row in rho]


def test_initial_profiles_match_the_per_species_formulas(tmp_path):
    grid = SpatialGrid(2.0, 24)
    base = (1.25, 0.5, 0.0)
    constant = InitialProfile("constant", c0=1.25, s0=0.5, u0=0.0).build(grid)
    for row, v in zip(constant.rho, base):
        np.testing.assert_array_equal(row, np.full(grid.n_cells, v))

    cosine = InitialProfile("cosine", c0=1.25, s0=0.5, u0=0.0, amplitude=0.3,
                            mode=2).build(grid)
    ripple = 1.0 + 0.3 * np.cos(2.0 * np.pi * 2 * grid.centers / grid.length)
    for row, v in zip(cosine.rho, base):
        np.testing.assert_array_equal(row, v * ripple)

    columns = np.random.default_rng(8).uniform(0.0, 3.0, (grid.n_cells, 3))
    path = tmp_path / "cells.csv"
    path.write_text("".join(",".join(map(repr, r.tolist())) + "\n"
                            for r in columns))
    from_file = InitialProfile("file", path=str(path)).build(grid)
    for i, row in enumerate(from_file.rho):
        np.testing.assert_array_equal(row, columns[:, i])
    assert from_file.rho.flags.c_contiguous


@pytest.mark.parametrize("value, rule", [(math.nan, "finite"), (math.inf, "finite"),
                                         (-math.inf, "> 0")])
def test_grid_length_must_be_finite(value, rule):
    # a nan length used to give run_macro nan densities without an error
    with pytest.raises(ValidationError, match=f"^length must be {rule}$"):
        SpatialGrid(value, 8)


@pytest.mark.parametrize("value, rule", [(math.nan, "finite"), (math.inf, "finite"),
                                         (-math.inf, ">= 0")])
@pytest.mark.parametrize("kind", ["constant", "cosine"])
@pytest.mark.parametrize("name", ["c0", "s0", "u0"])
def test_initial_densities_must_be_finite(name, kind, value, rule):
    # an infinite c0 or u0 used to end run_macro in a ZeroDivisionError
    with pytest.raises(ValidationError, match=f"^initial densities must be {rule}$"):
        InitialProfile(kind, **{name: value})


@pytest.mark.parametrize("mode, rule", [(math.nan, "finite"), (math.inf, "finite"),
                                        (-math.inf, ">= 1"),
                                        # a fractional mode used to pass and
                                        # give a ripple that jumps at the wrap
                                        (1.5, "an integer >= 1"),
                                        (2.0, "an integer >= 1")])
def test_cosine_mode_must_be_finite(mode, rule):
    with pytest.raises(ValidationError, match=f"^mode must be {rule}$"):
        InitialProfile("cosine", mode=mode)


# ---------------------------------------------------------------------------
# coefficients


def test_coefficients_match_kinetic_transport_closed_forms():
    # D_i = vmax^2 / (3 sigma_i), chi = 2 chi0 vmax^3 / (3 sigma_1)
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1,
                         sigma1=1.0, sigma2=2.0, sigma3=4.0, chi0=1.5)
    coeff = build_macro_coefficients(params, VGRID)
    assert coeff.Dc == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert coeff.Ds == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert coeff.Du == pytest.approx(1.0 / 12.0, abs=1e-14)
    assert coeff.chi == pytest.approx(1.0, abs=1e-14)


def test_coefficients_are_the_transport_coefficients():
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5, sigma2=2.0)
    coeff = build_macro_coefficients(params, VGRID)
    assert coeff == transport_coefficients(params, VGRID)
    assert coeff.params is params
    assert all(type(getattr(coeff, name)) is float
               for name in ("Dc", "Ds", "Du", "chi"))


def test_coefficients_reject_negative_or_nonfinite_values():
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1)
    with pytest.raises(ValidationError):
        MacroCoefficients(Dc=-0.1, Ds=0.1, Du=0.1, chi=0.0, params=params)
    with pytest.raises(ValidationError):
        MacroCoefficients(Dc=0.1, Ds=0.1, Du=0.1, chi=math.nan, params=params)


@pytest.mark.parametrize("n", [16, 48])
def test_pure_diffusion_step_is_the_matrix_exponential(n):
    # chi = 0 and no reactions: the half steps are the identity and one step
    # is exp(dt*D_i*Lap_h) on each row, Lap_h the periodic three-point
    # Laplacian, here from its eigendecomposition instead of the FFT
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0, sigma2=2.0, sigma3=3.0)
    coeff = build_macro_coefficients(params, VGRID)
    grid = SpatialGrid(1.0, n)
    rho = np.random.default_rng(21).uniform(0.2, 1.5, (3, n))
    eye = np.eye(n)
    laplacian = np.roll(eye, 1, axis=0) + np.roll(eye, -1, axis=0) - 2.0 * eye
    lam, vec = np.linalg.eigh(laplacian / grid.dx**2)
    dt = 0.01  # dt*Dc/dx^2 = 7.7 at n = 48, far past an explicit diffusion bound
    stepped = macro_step(MacroState(rho, 0.0, grid), coeff, dt)
    for got, row, D in zip(stepped.rho, rho, (coeff.Dc, coeff.Ds, coeff.Du)):
        want = vec @ (np.exp(dt * D * lam) * (vec.T @ row))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_strang_step_is_second_order_in_time():
    # drift, diffusion and reactions all on; N, 2N and 4N steps to t = 0.1
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
    coeff = build_macro_coefficients(params, VGRID)
    initial = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5,
                             amplitude=0.3).build(SpatialGrid(1.0, 64))

    def run(steps):
        state = initial
        for _ in range(steps):
            state = macro_step(state, coeff, 0.1 / steps)
        return state.rho

    coarse, mid, fine = run(4), run(8), run(16)
    ratio = np.abs(coarse - mid).max() / np.abs(mid - fine).max()
    assert ratio >= 3.5  # measured 3.97; first-order halves would give 2


# ---------------------------------------------------------------------------
# structural invariants


def test_endemic_equilibrium_is_a_discrete_steady_state():
    # Constant-in-space endemic state: every flux vanishes identically and
    # the reactions cancel, so 1e4 steps must not move it.
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=1.0)
    qstar = equilibria(params).qstar
    grid = SpatialGrid(1.0, 64)
    state = constant_state((qstar.u, qstar.v, qstar.w), grid)
    coeff = build_macro_coefficients(params, VGRID)
    dt = 0.8 * stable_dt(state, coeff)
    for _ in range(10_000):
        state = macro_step(state, coeff, dt)
    drift = max(
        np.max(np.abs(state.c - qstar.u)),
        np.max(np.abs(state.s - qstar.v)),
        np.max(np.abs(state.u - qstar.w)),
    )
    assert drift <= 1e-10


@pytest.mark.parametrize("n", [7, 17, 100])
def test_constant_rows_stay_exactly_constant_on_any_grid(n):
    # at these sizes an FFT round trip leaves ripples of about 1e-15 on a
    # constant row; the step diffuses only the deviation from the row mean
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1, chi0=1.0)
    coeff = build_macro_coefficients(params, VGRID)
    state = constant_state((1.2, 0.4, 0.9), SpatialGrid(1.0, n))
    for _ in range(20):
        state = macro_step(state, coeff, 1e-3)
    assert np.ptp(state.rho, axis=1).tolist() == [0.0, 0.0, 0.0]


def test_mass_conserved_without_reactions():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0, chi0=1.0)
    coeff = build_macro_coefficients(params, VGRID)
    profile = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.2,
                             amplitude=0.3, mode=2)
    initial = profile.build(SpatialGrid(2.0, 96))
    mass0 = initial.total_mass()
    final = run_macro(initial, coeff, 0.5)[-1]
    assert np.max(np.abs(final.total_mass() - mass0)) <= 1e-12
    assert final.c.min() >= 0.0
    assert final.s.min() >= 0.0
    assert final.u.min() >= 0.0


def test_reaction_update_matches_two_hand_heun_steps():
    # With all transport off, one step is two Heun steps of dt/2 on the ODE.
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1)
    coeff = MacroCoefficients(Dc=0.0, Ds=0.0, Du=0.0, chi=0.0, params=params)
    state = constant_state((1.2, 0.4, 0.9), SpatialGrid(1.0, 8))
    stepped = macro_step(state, coeff, 0.01)
    manual = np.array([1.2, 0.4, 0.9])
    for _ in range(2):
        stage = manual + 0.005 * np.array(params.reactions(*manual))
        manual = 0.5 * (manual + stage + 0.005 * np.array(params.reactions(*stage)))
    for row, value in zip(stepped.rho, manual):
        assert np.max(np.abs(row - value)) <= 1e-14


def test_drift_update_matches_two_hand_heun_steps():
    # With diffusion and reactions off, one step is two Heun steps of dt/2
    # of the upwind drift, here written out cell by cell: the velocity at
    # face k+1/2 is chi*(s[k+1] - s[k])/dx and carries c from its upwind side.
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    coeff = MacroCoefficients(Dc=0.0, Ds=0.0, Du=0.0, chi=0.7, params=params)
    grid = SpatialGrid(1.0, 12)
    rho = np.random.default_rng(5).uniform(0.2, 1.5, (3, 12))
    dt = 0.5 * stable_dt(MacroState(rho, 0.0, grid), coeff)
    stepped = macro_step(MacroState(rho.copy(), 0.0, grid), coeff, dt)
    n, dx, s = 12, grid.dx, rho[1]

    def drift(c):
        flux = []
        for k in range(n):
            w = coeff.chi * (s[(k + 1) % n] - s[k]) / dx
            flux.append(w * (c[k] if w > 0 else c[(k + 1) % n]))
        return np.array([-(flux[k] - flux[k - 1]) / dx for k in range(n)])

    c, h = rho[0], 0.5 * dt
    for _ in range(2):
        stage = c + h * drift(c)
        c = 0.5 * (c + stage + h * drift(stage))
    assert np.max(np.abs(stepped.c - c)) <= 1e-14
    np.testing.assert_array_equal(stepped.rho[1:], rho[1:])


# ---------------------------------------------------------------------------
# accuracy oracles


def test_single_mode_decays_at_the_heat_rate():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0, chi0=0.0)
    coeff = build_macro_coefficients(params, VGRID)
    grid = SpatialGrid(1.0, 128)
    initial = InitialProfile("cosine", c0=1.0, amplitude=0.1, mode=1).build(grid)
    final = run_macro(initial, coeff, 0.1)[-1]
    wavenumber = 2.0 * np.pi
    expected = 1.0 + 0.1 * np.cos(wavenumber * grid.centers) * math.exp(
        -coeff.Dc * wavenumber**2 * 0.1
    )
    rel = np.linalg.norm(final.c - expected) / np.linalg.norm(expected)
    pert = np.linalg.norm(
        (final.c - final.c.mean()) - (expected - expected.mean())
    ) / np.linalg.norm(expected - expected.mean())
    assert rel <= 1e-3      # measured 5.8e-06
    assert pert <= 1e-2     # measured 3.1e-04


def test_diffusion_is_second_order_in_space():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    coeff = build_macro_coefficients(params, VGRID)
    wavenumber = 2.0 * np.pi
    errors = []
    for n in (32, 64, 128):
        grid = SpatialGrid(1.0, n)
        initial = InitialProfile("cosine", c0=1.0, amplitude=0.1).build(grid)
        final = run_macro(initial, coeff, 0.05)[-1]
        expected = 1.0 + 0.1 * np.cos(wavenumber * grid.centers) * math.exp(
            -coeff.Dc * wavenumber**2 * 0.05
        )
        errors.append(math.sqrt(grid.dx) * np.linalg.norm(final.c - expected))
    orders = np.diff(-np.log2(errors))
    assert np.all(orders > 1.8)
    assert np.all(orders < 2.2)


def test_homogeneous_run_tracks_the_ode_tightly_on_a_short_horizon():
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1)
    coeff = build_macro_coefficients(params, VGRID)
    state = constant_state((1.2, 0.4, 0.9), SpatialGrid(1.0, 8))
    final = run_macro(state, coeff, 5e-4, dt_max=5e-8)[-1]
    reference = integrate_sir(SirState(1.2, 0.4, 0.9), params, 5e-4, 1e-5).final
    err = max(
        abs(final.c[0] - reference.u),
        abs(final.s[0] - reference.v),
        abs(final.u[0] - reference.w),
    )
    assert err <= 1e-10


def test_homogeneous_run_stays_flat_and_tracks_the_ode():
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1)
    coeff = build_macro_coefficients(params, VGRID)
    state = constant_state((1.2, 0.4, 0.9), SpatialGrid(1.0, 8))
    final = run_macro(state, coeff, 0.05, dt_max=2e-6)[-1]
    assert np.ptp(final.c) == 0.0
    assert np.ptp(final.s) == 0.0
    assert np.ptp(final.u) == 0.0
    reference = integrate_sir(SirState(1.2, 0.4, 0.9), params, 0.05, 1e-5).final
    err = max(
        abs(final.c[0] - reference.u),
        abs(final.s[0] - reference.v),
        abs(final.u[0] - reference.w),
    )
    assert err <= 1e-6


# ---------------------------------------------------------------------------
# guards and stepping semantics


def test_step_size_guards_fire():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0, chi0=1.0)
    coeff = build_macro_coefficients(params, VGRID)
    grid = SpatialGrid(1.0, 64)
    state = InitialProfile("cosine", c0=1.0, s0=1.0, u0=1.0,
                           amplitude=0.5).build(grid)
    # large chi makes the drift bound the binding one
    steep = MacroCoefficients(Dc=0.0, Ds=0.0, Du=0.0, chi=500.0, params=params)
    with pytest.raises(StepSizeError):
        macro_step(state, steep, 0.5 * grid.dx)


@pytest.mark.parametrize("field, rate", [("c", "d1"), ("s", "d2"), ("u", "d3")])
def test_negative_reaction_overshoot_is_reported(field, rate):
    # only the field whose decay rate is large goes negative, and the one
    # stacked check must still name it
    params = ModelParams(**{**dict(d1=0, d2=0, d3=0, beta=0, k=0, r=0), rate: 300.0})
    coeff = MacroCoefficients(Dc=0.0, Ds=0.0, Du=0.0, chi=0.0, params=params)
    state = constant_state((1.0, 1.0, 1.0), SpatialGrid(1.0, 8))
    with pytest.raises(NegativityError, match=f"macro field {field} .*; reduce dt$"):
        macro_step(state, coeff, 0.01)


def test_a_field_that_overflows_raises_negativity_error():
    # k*s overflows to +inf in the u row alone, which no min() sees
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=1e308, r=0)
    coeff = MacroCoefficients(Dc=0.0, Ds=0.0, Du=0.0, chi=0.0, params=params)
    state = constant_state((1.0, 4.0, 0.25), SpatialGrid(1.0, 8))
    with np.errstate(over="ignore"), pytest.raises(
            NegativityError, match="^macro field u reached inf, which is not finite$"):
        macro_step(state, coeff, 0.01)


def test_rounding_level_negatives_are_clamped_to_zero():
    params = ModelParams(d1=1.0, d2=0, d3=0, beta=0, k=0, r=0)
    coeff = MacroCoefficients(Dc=0.0, Ds=0.0, Du=0.0, chi=0.0, params=params)
    state = constant_state((1e-13, 0.0, 0.0), SpatialGrid(1.0, 8))
    # one step of decay cannot overshoot below -tol; the floor is exact zero
    stepped = macro_step(state, coeff, 1.0 + 5e-14)
    assert np.all(stepped.c >= 0.0)


@pytest.mark.parametrize("shape", [(5,), (2,), (3, 5)])
@pytest.mark.parametrize("k", [1, -1])
def test_shifted_is_the_periodic_roll(shape, k):
    # along the last axis: the rows of a stack shift alike
    row = np.arange(float(np.prod(shape))).reshape(shape)
    np.testing.assert_array_equal(shifted(row, k), np.roll(row, -k, axis=-1))


@pytest.mark.parametrize("low", [-1e-13, -1e-12])
def test_clamp_rounds_noise_level_negatives_up_in_place(low):
    field = np.array([[low, 0.0, 2.0]])
    assert clamp_rows_nonnegative(field, ["test field"]) is field
    assert field.tolist() == [[0.0, 0.0, 2.0]]


def test_clamp_leaves_a_row_of_negative_zeros_bit_for_bit():
    # np.maximum(-0.0, 0.0) is +0.0: only a row that holds a negative is
    # clamped, so a row whose only sign bits are on -0.0 keeps them
    stack = np.array([[-0.0, 1.0, -0.0], [1.0, -1e-13, -0.0]])
    clamp_rows_nonnegative(stack, ("row a", "row b"))
    assert np.signbit(stack).tolist() == [[True, False, True], [False, False, False]]
    assert stack.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_clamp_refuses_a_value_that_is_not_finite(bad):
    stack = np.array([[1.0, 2.0], [0.5, bad]])
    with pytest.raises(NegativityError, match=f"^row b reached {bad:.3e}, which is not finite$"):
        clamp_rows_nonnegative(stack, ("row a", "row b"))


def test_stacked_clamp_names_the_first_row_below_tolerance():
    stack = np.array([[1.0, -1e-13], [0.5, 0.0], [-1e-13, 2.0]])
    labels = ("row a", "row b", "row c")
    assert clamp_rows_nonnegative(stack, labels) is stack
    assert stack.tolist() == [[1.0, 0.0], [0.5, 0.0], [0.0, 2.0]]
    stack[1, 0] = -1e-3
    stack[2, 1] = -1.0
    with pytest.raises(NegativityError, match="^row b reached -1.000e-03"):
        clamp_rows_nonnegative(stack, labels)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_every_tier_rejects_a_bad_step_with_one_message(dt):
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    state = constant_state((1.0, 0.5, 0.5), SpatialGrid(1.0, 8))
    eqs = species_equilibria(VGRID)
    kinetic_state = init_local_equilibrium(state, eqs, VGRID, 0.5)
    calls = [lambda: check_dt(dt),
             lambda: macro_step(state, build_macro_coefficients(params, VGRID), dt),
             lambda: kinetic_step(kinetic_state, params, eqs, dt),
             lambda: integrate_sir(SirState(1.0, 0.0, 0.0), params, 1.0, dt)]
    if math.isfinite(dt):  # a config cannot hold nan or inf
        calls.append(lambda: parse_config(f"dt = {dt}\n"))
    for call in calls:
        with pytest.raises(ValidationError, match=r"^dt must be finite and > 0$"):
            call()


def test_snapshot_times_are_hit_exactly_and_final_time_is_appended():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    coeff = build_macro_coefficients(params, VGRID)
    initial = InitialProfile("cosine", c0=1.0, amplitude=0.1).build(
        SpatialGrid(1.0, 32)
    )
    snaps = run_macro(initial, coeff, 0.1, snapshot_times=[0.0, 0.03])
    assert [s.time for s in snaps] == [0.0, 0.03, 0.1]
    np.testing.assert_array_equal(snaps[0].c, initial.c)
    assert snaps[0].c is not initial.c  # snapshots are copies


def test_zero_horizon_returns_the_initial_state():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    coeff = build_macro_coefficients(params, VGRID)
    initial = InitialProfile("constant", c0=2.0).build(SpatialGrid(1.0, 16))
    snaps = run_macro(initial, coeff, 0.0)
    assert len(snaps) == 1
    assert snaps[0].time == 0.0
    np.testing.assert_array_equal(snaps[0].c, initial.c)


def test_snapshot_times_outside_the_horizon_are_rejected():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    coeff = build_macro_coefficients(params, VGRID)
    initial = InitialProfile("constant", c0=1.0).build(SpatialGrid(1.0, 16))
    with pytest.raises(ValidationError):
        run_macro(initial, coeff, 0.1, snapshot_times=[0.2])
    with pytest.raises(ValidationError):
        run_macro(initial, coeff, 0.1, snapshot_times=[-0.01])


def test_stable_dt_matches_the_combined_bound():
    params = ModelParams(d1=0.7, d2=1.3, d3=0.9, beta=1.1, k=1.7, r=2, chi0=0.5)
    grid = SpatialGrid(1.0, 64)
    state = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5,
                           amplitude=0.3).build(grid)
    c, s, u = state.c.max(), state.s.max(), state.u.max()

    def combined(params):
        coeff = build_macro_coefficients(params, VGRID)
        drift = coeff.chi * (np.roll(state.s, -1) - state.s) / grid.dx
        jacobian = np.array([[-params.d1 - params.beta * u, 0.0, -params.beta * c],
                             [params.beta * u, -params.d2, params.beta * c],
                             [0.0, params.k, -params.d3]])
        rate = (np.abs(jacobian).sum(axis=1).max()
                + math.sqrt(params.beta * params.k * s))
        return coeff, np.abs(drift), rate

    # without infection the drift cannot steepen within the step
    coeff, drift, rate = combined(dataclasses.replace(params, beta=0.0))
    expected = 0.9 / (np.max(drift) / grid.dx + 16.0 * rate)
    assert stable_dt(state, coeff) == pytest.approx(expected, rel=1e-14)
    # with it, |w| grows by chi/dx*dt0*beta times the jump of c*u
    coeff, drift, rate = combined(params)
    dt0 = 0.9 / (np.max(drift) / grid.dx + 16.0 * rate)
    cu = state.c * state.u
    growth = coeff.chi / grid.dx * params.beta * np.abs(np.roll(cu, -1) - cu)
    steep = drift + dt0 * growth
    expected = 0.9 / (np.max(steep) / grid.dx + 16.0 * rate)
    assert stable_dt(state, coeff) == pytest.approx(expected, rel=1e-14)
    assert expected < dt0
    # diffusion is exact and sets no bound
    faster = build_macro_coefficients(
        dataclasses.replace(params, sigma2=1e-3, sigma3=1e-3), VGRID)
    assert stable_dt(state, faster) == stable_dt(state, coeff)


def test_numpy_scalar_rates_give_the_python_float_bound_and_run_bit_for_bit():
    # criterion 2 draws its rates with rng.uniform: numpy float64 scalars
    rng = np.random.default_rng(203)
    names = ("d1", "d2", "d3", "beta", "k", "r", "chi0", "sigma1", "sigma2", "sigma3")
    grid = SpatialGrid(1.0, 64)
    for _ in range(4):
        values = dict(zip(names, rng.uniform(0.3, 2.0, len(names))))
        state = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5,
                               amplitude=rng.uniform(0.1, 0.9)).build(grid)
        runs = []
        for cast in (np.float64, float):
            params = ModelParams(**{name: cast(v) for name, v in values.items()},
                                 vmax=cast(1.5))
            coeff = build_macro_coefficients(params, build_velocity_grid(params.vmax, 16))
            # and a run, whose march takes the bound before every step
            snaps = run_macro(state, coeff, cast(0.02), snapshot_times=[cast(0.01)])
            runs.append((float(stable_dt(state, coeff)).hex(),
                         [(float(snap.time).hex(), snap.rho.tobytes()) for snap in snaps]))
        assert isinstance(values["beta"], np.float64)
        assert runs[0] == runs[1]


def test_stable_dt_covers_virus_growth_within_the_step():
    # u = 0 at the start, so the healthy cells' loss d1 + beta*u is 1; the
    # virus made from s at rate k within the step raises it. k = 20 needs
    # the Jacobian's k + d3 row, s = 1e4 the sqrt(beta*k*max(s)) term.
    for k, s0 in ((20.0, 2.0), (1.0, 1e4)):
        params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=k, r=2)
        coeff = build_macro_coefficients(params, VGRID)
        state = constant_state((1.0, s0, 0.0), SpatialGrid(1.0, 8))
        for _ in range(10):
            state = macro_step(state, coeff, 0.8 * stable_dt(state, coeff))
        assert state.rho.min() > 0.0


def test_stable_dt_is_infinite_when_nothing_moves():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    coeff = MacroCoefficients(Dc=0.0, Ds=0.0, Du=0.0, chi=0.0, params=params)
    state = constant_state((1.0, 1.0, 1.0), SpatialGrid(1.0, 8))
    assert stable_dt(state, coeff) == math.inf
    # run_macro still lands on the final time with a single step
    snaps = run_macro(state, coeff, 1.0)
    assert snaps[-1].time == 1.0


def test_stable_dt_overflows_to_inf_without_a_warning():
    # a subnormal rate: 0.9/denom overflows, which numpy scalars warn about
    params = ModelParams(d1=1e-320, d2=0, d3=0, beta=0, k=0, r=0)
    coeff = MacroCoefficients(Dc=0.0, Ds=0.0, Du=0.0, chi=0.0, params=params)
    state = constant_state((1.0, 1.0, 1.0), SpatialGrid(1.0, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stable_dt(state, coeff) == math.inf


def test_snapshot_schedule_sorts_deduplicates_and_ends_at_t_final():
    assert snapshot_schedule([0.3, 0.1, 0.3, 0.0], 0.0, 0.5) == [0.0, 0.1, 0.3, 0.5]
    assert snapshot_schedule([0.1, 0.5], 0.0, 0.5) == [0.1, 0.5]
    assert snapshot_schedule(None, 0.0, 0.5) == [0.5]
    assert snapshot_schedule([], 0.0, 0.5) == [0.5]
    with pytest.raises(ValidationError):
        snapshot_schedule([0.6], 0.0, 0.5)
    with pytest.raises(ValidationError):
        snapshot_schedule(None, 0.0, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_snapshot_times_must_be_finite(bad):
    with pytest.raises(ValidationError, match="finite"):
        snapshot_schedule([0.1, bad], 0.0, 0.5)
    grid = SpatialGrid(1.0, 8)
    coeff = build_macro_coefficients(ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2),
                                     VGRID)
    with pytest.raises(ValidationError, match="finite"):
        run_macro(constant_state([1.0, 0.5, 0.5], grid), coeff, 0.01,
                  snapshot_times=[bad])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_macro_horizon_must_be_finite(bad):
    # an infinite horizon used to be reported as a snapshot time
    grid = SpatialGrid(1.0, 8)
    coeff = build_macro_coefficients(ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2),
                                     VGRID)
    with pytest.raises(ValidationError, match="^t_final must be finite$"):
        run_macro(constant_state([1.0, 0.5, 0.5], grid), coeff, bad)


def test_dt_max_must_be_none_or_positive():
    grid = SpatialGrid(1.0, 8)
    coeff = build_macro_coefficients(ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2),
                                     VGRID)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="dt_max"):
            run_macro(constant_state([1.0, 0.5, 0.5], grid), coeff, 0.01,
                      dt_max=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_step_is_rejected(bad):
    coeff = build_macro_coefficients(ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2),
                                     VGRID)
    with pytest.raises(ValidationError, match="finite"):
        macro_step(constant_state([1.0, 0.5, 0.5], SpatialGrid(1.0, 8)), coeff, bad)


def test_a_loose_dt_max_does_not_raise_the_step():
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
    coeff = build_macro_coefficients(params, VGRID)
    initial = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5).build(SpatialGrid(1.0, 16))
    capped = run_macro(initial, coeff, 0.05, snapshot_times=[0.02], dt_max=1e9)
    free = run_macro(initial, coeff, 0.05, snapshot_times=[0.02])
    for a, b in zip(capped, free, strict=True):
        assert a.time == b.time
        np.testing.assert_array_equal(a.rho, b.rho)


def test_march_splits_the_rest_of_a_segment_again_when_the_bound_shrinks():
    class Clock:
        def __init__(self, time):
            self.time = time

    taken = []

    def step(state, dt):
        taken.append((state.time, dt))
        return Clock(state.time + dt)

    def bound(state):  # 0.1 until t = 0.3, then 0.03
        return 0.1 if state.time < 0.3 - 1e-9 else 0.03

    snaps, final = march(Clock(0.0), step, bound, [0.5, 1.0], lambda s: s.time)
    assert snaps == [0.5, 1.0] and final.time == 1.0
    assert all(dt <= bound(Clock(t)) * (1 + 1e-12) for t, dt in taken)
    # 3 steps of 0.1, then the remaining 0.2 in 7 equal steps, then 0.5 in 17
    assert [round(dt, 12) for _, dt in taken] == (
        [0.1] * 3 + [round(0.2 / 7, 12)] * 7 + [round(0.5 / 17, 12)] * 17)


def test_split_takes_the_fewest_equal_steps_and_none_for_a_zero_span():
    assert split(0.5, 0.1) == (5, 0.1)  # 0.5 / 0.1 is 5 to within rounding
    assert split(0.2, 0.03) == (7, 0.2 / 7)
    assert split(0.2, math.inf) == (1, 0.2)
    assert split(1e-9, 1.0) == (1, 1e-9)
    assert split(0.0, 0.1) == (0, 0.0)
    # more steps than MAX_CELLS, the first an inf count
    for span, limit in [(1e308, 0.0225), (1.0, 1e-300), (2.0 ** 60, 1.0)]:
        with pytest.raises(ValidationError, match="steps is more than"):
            split(span, limit)


@pytest.mark.parametrize("limit", [1.0, 0.5, 0.1, 3.0, 1e-300])
def test_split_refuses_the_counts_that_integrate_sir_refused(limit):
    # on the floats around the bound, split refuses exactly the counts that
    # fail t_final / dt + 1 <= MAX_CELLS: step_ratio's slack moves no verdict
    span = MAX_CELLS * limit
    for _ in range(40):
        span = math.nextafter(span, 0.0)
    verdicts = set()
    for _ in range(80):
        fits = span / limit + 1 <= MAX_CELLS
        verdicts.add(fits)
        if fits:
            assert split(span, limit)[0] <= MAX_CELLS - 1
        else:
            with pytest.raises(ValidationError, match="steps is more than"):
                split(span, limit)
        span = math.nextafter(span, math.inf)
    assert verdicts == {True, False}


def test_run_macro_looks_up_the_step_at_call_time(monkeypatch):
    # wrappers installed on the module attribute (as a tracer does) must
    # see every step that run_macro takes
    import kinsir.macro as macro

    calls = []
    original = macro.macro_step

    def counting(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(macro, "macro_step", counting)
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
    coeff = build_macro_coefficients(params, VGRID)
    initial = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5).build(SpatialGrid(1.0, 16))
    snaps = run_macro(initial, coeff, 0.01, snapshot_times=[0.005, 0.005],
                      dt_max=1e-3)
    assert [s.time for s in snaps] == [0.005, 0.01]
    assert len(calls) == 10 and max(calls) <= 1e-3


_RATES = st.tuples(*[st.floats(0.0, 5.0)] * 6)


_DENSITIES = st.integers(4, 64).flatmap(
    lambda n_cells: arrays(float, (3, n_cells), elements=st.floats(0.0, 3.0))
)


def _emptied(row, n_cells):
    """Unit densities, with one species at zero in the first cell."""
    rho = np.ones((3, n_cells))
    rho[row, 0] = 0.0
    return rho


@settings(max_examples=100, deadline=None)
@given(
    rho=_DENSITIES,
    rates=st.one_of(st.just((0.0,) * 6), _RATES),
    sigmas=st.tuples(*[st.floats(0.2, 5.0)] * 3),
    chi0=st.floats(0.0, 2.0),
)
# a subnormal density: the FFT diffusion moves its mass by one ulp (5e-324)
@example(rho=np.array([[2.2e-313, 0, 0, 0], [0.0] * 4, [0.0] * 4]),
         rates=(0.0,) * 6, sigmas=(2.0, 1.0, 1.0), chi0=0.0)
# infection alone makes s steep next to the empty cell within one step
@example(rho=_emptied(0, 52), rates=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
         sigmas=(0.25, 1.0, 1.0), chi0=1.0)
@example(rho=_emptied(2, 55), rates=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
         sigmas=(0.5, 1.0, 1.0), chi0=1.0)
def test_steps_stay_finite_nonnegative_and_conserve_mass_without_reactions(
    rho, rates, sigmas, chi0
):
    params = ModelParams(*rates, sigma1=sigmas[0], sigma2=sigmas[1],
                         sigma3=sigmas[2], chi0=chi0)
    coeff = build_macro_coefficients(params, VGRID)
    grid = SpatialGrid(1.0, rho.shape[1])
    state = MacroState(rho, 0.0, grid)
    mass0 = state.total_mass()
    for _ in range(20):
        state = macro_step(state, coeff, min(0.8 * stable_dt(state, coeff), 0.05))
        assert np.all(np.isfinite(state.rho)) and state.rho.min() >= 0.0
    if not any(rates):
        mass = state.total_mass()
        bound = np.maximum(1e-12 * mass0, np.finfo(float).tiny)
        assert np.all(np.abs(mass - mass0) <= bound)
