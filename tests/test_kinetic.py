"""Kinetic solver tests.

Structural checks exercise each sub-step in isolation (upwind orientation,
exact relaxation factor, moment preservation), then integrated runs are
held against independent references: the heat-kernel closed form in the
diffusive regime and the finely resolved virus ODE in the space-homogeneous
material regime.
"""

import math

import numpy as np
import pytest

import kinsir.kinetic as kin
from kinsir import ModelParams, SirState, integrate_sir
from kinsir.errors import CflViolationError, NegativityError, ValidationError
from kinsir.grids import InitialProfile, SpatialGrid
from kinsir.velocity import build_velocity_grid, species_equilibria

VGRID = build_velocity_grid(1.0, 8)
EQS = species_equilibria(VGRID)
GRID = SpatialGrid(1.0, 32)


def bump_state(epsilon=0.2):
    profile = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.25, amplitude=0.3)
    return kin.init_local_equilibrium(profile.build(GRID), EQS, VGRID, epsilon)


# ---------------------------------------------------------------------------
# state construction


def test_local_equilibrium_moments_reproduce_the_macro_fields():
    profile = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.25, amplitude=0.3)
    macro = profile.build(GRID)
    state = kin.init_local_equilibrium(macro, EQS, VGRID, 0.3)
    got = kin.moments(state)
    np.testing.assert_allclose(got.c, macro.c, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got.s, macro.s, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got.u, macro.u, rtol=0, atol=1e-13)
    assert got.time == macro.time


def test_state_validation():
    with pytest.raises(ValidationError):
        bump_state(epsilon=0.0)
    with pytest.raises(ValidationError):
        bump_state(epsilon=1.5)
    good = bump_state()
    with pytest.raises(ValidationError):
        kin.KineticState(good.f1[:, :4], good.f2, good.f3, 0.2, 0.0, GRID, VGRID)


# ---------------------------------------------------------------------------
# sub-steps


def test_transport_moves_mass_with_the_node_sign():
    f = np.zeros((GRID.n_cells, VGRID.n_nodes))
    f[5, :] = 1.0
    dt = 0.5 * kin.max_step(bump_state(0.2))
    out = kin.transport_substep(f, VGRID, GRID, 0.2, dt)
    positive = VGRID.nodes > 0
    assert np.all(out[6, positive] > 0)       # downwind fill to the right
    assert np.all(out[4, positive] == 0.0)
    assert np.all(out[4, ~positive] > 0)      # and to the left for v < 0
    assert np.all(out[6, ~positive] == 0.0)


def test_transport_conserves_total_mass():
    rng = np.random.default_rng(3)
    f = rng.uniform(0.5, 1.5, size=(GRID.n_cells, VGRID.n_nodes))
    dt = kin.max_step(bump_state(0.2))
    out = kin.transport_substep(f, VGRID, GRID, 0.2, dt)
    drift = abs((atot := (out @ VGRID.weights).sum()) - (f @ VGRID.weights).sum())
    assert drift <= 1e-12 * abs(atot)


def test_relaxation_substep_applies_the_exact_decay_factor():
    rng = np.random.default_rng(7)
    f = rng.uniform(0.5, 1.5, size=(5, VGRID.n_nodes))
    sigma, eps, q, dt = 2.0, 0.3, 2, 0.01
    out = kin.relaxation_substep(f, EQS[1], sigma, eps, q, dt, VGRID)
    mean = (f @ VGRID.weights)[:, None]
    expected = EQS[1] * mean + (f - EQS[1] * mean) * math.exp(
        -sigma * dt / eps ** (q + 1)
    )
    assert np.max(np.abs(out - expected)) <= 1e-15
    # the zeroth moment is untouched
    assert np.max(np.abs(out @ VGRID.weights - f @ VGRID.weights)) <= 1e-13


def test_gradient_of_infected_moment_ignores_equilibrium_shifts():
    # Adding a multiple of the equilibrium shifts the moment by a constant,
    # which the centered difference removes up to rounding.
    rng = np.random.default_rng(11)
    f2 = rng.uniform(0.5, 1.5, size=(GRID.n_cells, VGRID.n_nodes))
    base = kin.infected_gradient(f2, VGRID, GRID)
    shifted = kin.infected_gradient(f2 + 0.37 * EQS[1], VGRID, GRID)
    assert np.max(np.abs(base - shifted)) <= 1e-12


# ---------------------------------------------------------------------------
# full steps


def test_total_mass_is_conserved_without_reactions():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0, chi0=0.8,
                         sigma1=1.0, sigma2=2.0, sigma3=0.5)
    state = bump_state(0.2)
    start = kin.moments(state)
    masses0 = [f.sum() * GRID.dx for f in (start.c, start.s, start.u)]
    dt = kin.max_step(state, 0.8)
    for _ in range(1000):
        state = kin.kinetic_step(state, params, EQS, dt)
    end = kin.moments(state)
    masses1 = [f.sum() * GRID.dx for f in (end.c, end.s, end.u)]
    assert max(abs(a - b) for a, b in zip(masses0, masses1)) <= 1e-12


def test_cfl_guard_fires():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    state = bump_state(0.2)
    with pytest.raises(CflViolationError):
        kin.kinetic_step(state, params, EQS, 1.01 * kin.max_step(state))


def test_interaction_overshoot_raises_negativity_error():
    state = bump_state(0.5)
    dt = kin.max_step(state, 0.8)  # 0.0125, so d1*dt = 1.25 overshoots zero
    params = ModelParams(d1=100.0, d2=0, d3=0, beta=0, k=0, r=0)
    with pytest.raises(NegativityError):
        kin.kinetic_step(state, params, EQS, dt)


# ---------------------------------------------------------------------------
# regime oracles


def test_diffusive_regime_matches_the_heat_closed_form():
    # chi0 = 0, no reactions, sigma = 1: the healthy moment obeys the heat
    # equation with D = vmax^2/3 as eps -> 0. Measured 9.0e-4 at eps = 0.05.
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0, chi0=0.0)
    grid = SpatialGrid(1.0, 128)
    vgrid = build_velocity_grid(1.0, 16)
    eqs = species_equilibria(vgrid)
    profile = InitialProfile("cosine", c0=1.0, s0=1.0, u0=1.0, amplitude=0.1)
    state = kin.init_local_equilibrium(profile.build(grid), eqs, vgrid, 0.05)
    snaps, _ = kin.run_kinetic(state, params, eqs, 0.1, cfl=0.8)
    wavenumber = 2.0 * np.pi
    closed = 1.0 + 0.1 * np.cos(wavenumber * grid.centers) * math.exp(
        -(1.0 / 3.0) * wavenumber**2 * 0.1
    )
    rel = np.linalg.norm(snaps[-1].c - closed) / np.linalg.norm(closed)
    assert rel <= 5e-3


def test_homogeneous_material_regime_follows_the_ode():
    # All exponents 2 with constant data: transport and relaxation act
    # trivially and the run is explicit Euler on the ODE with dt ~ eps.
    # Measured max error 5.3e-4 at eps = 0.1.
    params = ModelParams(d1=0.5, d2=0.4, d3=0.6, beta=1.2, k=1.1, r=0.9,
                         chi0=0.5, q1=2, q2=2, q3=2, p=2)
    grid = SpatialGrid(1.0, 16)
    profile = InitialProfile("constant", c0=1.0, s0=0.2, u0=0.3)
    state = kin.init_local_equilibrium(profile.build(grid), EQS, VGRID, 0.1)
    snaps, _ = kin.run_kinetic(state, params, EQS, 1.0, cfl=0.8)
    final = snaps[-1]
    assert np.ptp(final.c) == 0.0
    assert np.ptp(final.s) == 0.0
    assert np.ptp(final.u) == 0.0
    ref = integrate_sir(SirState(1.0, 0.2, 0.3), params, 1.0, 1e-5).final
    err = max(
        abs(final.c[0] - ref.u), abs(final.s[0] - ref.v), abs(final.u[0] - ref.w)
    )
    assert err <= 1e-3


def test_material_regime_error_shrinks_linearly_in_eps():
    params = ModelParams(d1=0.5, d2=0.4, d3=0.6, beta=1.2, k=1.1, r=0.9,
                         q1=2, q2=2, q3=2, p=2)
    grid = SpatialGrid(1.0, 16)
    profile = InitialProfile("constant", c0=1.0, s0=0.2, u0=0.3)
    ref = integrate_sir(SirState(1.0, 0.2, 0.3), params, 1.0, 1e-5).final
    errs = []
    for eps in (0.4, 0.2, 0.1):
        state = kin.init_local_equilibrium(profile.build(grid), EQS, VGRID, eps)
        snaps, _ = kin.run_kinetic(state, params, EQS, 1.0, cfl=0.8)
        final = snaps[-1]
        errs.append(max(abs(final.c[0] - ref.u), abs(final.s[0] - ref.v),
                        abs(final.u[0] - ref.w)))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios > 1.7)   # measured 2.0 per halving
    assert np.all(ratios < 2.3)


# ---------------------------------------------------------------------------
# run_kinetic semantics


def test_snapshots_land_exactly_and_final_time_is_appended():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    state = bump_state(0.2)
    snaps, final = kin.run_kinetic(
        state, params, EQS, 0.02, snapshot_times=[0.0, 0.007]
    )
    assert [s.time for s in snaps] == [0.0, 0.007, 0.02]
    assert final.time == 0.02
    start = kin.moments(bump_state(0.2))
    np.testing.assert_array_equal(snaps[0].c, start.c)


def test_run_validation():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    state = bump_state(0.2)
    with pytest.raises(ValidationError):
        kin.run_kinetic(state, params, EQS, -1.0)
    with pytest.raises(ValidationError):
        kin.run_kinetic(state, params, EQS, 0.1, cfl=0.95)
    with pytest.raises(ValidationError):
        kin.run_kinetic(state, params, EQS, 0.1, cfl=0.0)
    with pytest.raises(ValidationError):
        kin.run_kinetic(state, params, EQS, 0.1, snapshot_times=[0.2])


def test_run_kinetic_looks_up_the_step_at_call_time(monkeypatch):
    # a wrapper on the module attribute (as a tracer installs) sees each step
    calls = []
    original = kin.kinetic_step

    def counting(state, params, eqs, dt):
        calls.append(dt)
        return original(state, params, eqs, dt)

    monkeypatch.setattr(kin, "kinetic_step", counting)
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
    state = bump_state(0.2)
    snaps, final = kin.run_kinetic(state, params, EQS, 0.02, snapshot_times=[0.01])
    bound = kin.max_step(state, 0.8)
    assert [s.time for s in snaps] == [0.01, 0.02]
    assert len(calls) == 2 * math.ceil(0.01 / bound - 1e-12)
    assert max(calls) <= bound
