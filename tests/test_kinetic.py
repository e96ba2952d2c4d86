"""Kinetic solver tests.

Structural checks exercise each sub-step in isolation (upwind orientation,
exact relaxation factor, moment preservation), then integrated runs are
held against independent references: the heat-kernel closed form in the
diffusive regime and the finely resolved virus ODE in the space-homogeneous
material regime.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinsir.kinetic as kin
from kinsir import ModelParams, SirState, integrate_sir
from kinsir.errors import CflViolationError, NegativityError, ValidationError
from kinsir.grids import InitialProfile, SpatialGrid, clamp_rows_nonnegative
from kinsir.velocity import build_velocity_grid, species_equilibria

VGRID = build_velocity_grid(1.0, 8)
EQS = species_equilibria(VGRID)
GRID = SpatialGrid(1.0, 32)
NO_REACTIONS = dict(d1=0, d2=0, d3=0, beta=0, k=0, r=0)


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
        kin.KineticState(good.f[:, :, :4], 0.2, 0.0, GRID, VGRID)


# ---------------------------------------------------------------------------
# state layout: one (3, n_cells, n_nodes) array with rows f1, f2, f3


@pytest.mark.parametrize("shape", [(32, 8), (2, 32, 8), (3, 32, 9)])
def test_kinetic_state_rejects_other_shapes(shape):
    with pytest.raises(ValidationError, match="shape"):
        kin.KineticState(np.ones(shape), 0.2, 0.0, GRID, VGRID)


def test_species_are_views_of_the_rows():
    f = np.arange(3.0 * GRID.n_cells * VGRID.n_nodes).reshape(3, GRID.n_cells, -1)
    state = kin.KineticState(f, 0.2, 0.0, GRID, VGRID)
    for i, row in enumerate((state.f1, state.f2, state.f3)):
        assert np.shares_memory(row, state.f)
        np.testing.assert_array_equal(row, f[i])
    state.f[1, 3, 2] = -7.0
    assert state.f2[3, 2] == -7.0
    with pytest.raises(AttributeError):
        state.f1 = f[0]


def test_equilibrium_and_moments_match_the_per_species_formulas():
    macro = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.25,
                           amplitude=0.3).build(GRID)
    state = kin.init_local_equilibrium(macro, EQS, VGRID, 0.3)
    for rho, M, f in zip(macro.rho, EQS, state.f):
        np.testing.assert_array_equal(f, np.outer(rho, M))
    got = kin.moments(state)
    for i, f in enumerate((state.f1, state.f2, state.f3)):
        np.testing.assert_array_equal(got.rho[i], f @ VGRID.weights)


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


def test_a_transport_bound_of_zero_is_refused_before_the_cfl_test():
    # max_step underflows to 0 at the least epsilon; the CFL test used to
    # divide by it and raise ZeroDivisionError
    grid, vgrid = SpatialGrid(1.0, 8), build_velocity_grid(1.0, 4)
    eqs = species_equilibria(vgrid)
    macro = InitialProfile("constant", c0=1.0, s0=0.5, u0=0.25).build(grid)
    state = kin.init_local_equilibrium(macro, eqs, vgrid, 5e-324)
    assert kin.max_step(state) == 0.0
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    with pytest.raises(ValidationError, match=r"^the step bound 0\.000e\+00 must be > 0$"):
        kin.kinetic_step(state, params, eqs, 1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_step_is_rejected(bad):
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    with pytest.raises(ValidationError, match="finite"):
        kin.kinetic_step(bump_state(0.2), params, EQS, bad)


@pytest.mark.parametrize("row, rate", [("f1", "d1"), ("f2", "d2"), ("f3", "d3")])
def test_interaction_overshoot_raises_negativity_error(row, rate):
    # only the row whose death rate is large goes negative, and the one
    # stacked check must still name it
    state = bump_state(0.5)
    dt = kin.max_step(state, 0.8)  # 0.0125, so d_i*dt = 1.25 overshoots zero
    params = ModelParams(**{**NO_REACTIONS, rate: 100.0})
    with pytest.raises(NegativityError,
                       match=f"kinetic distribution {row} .*; reduce cfl$"):
        kin.kinetic_step(state, params, EQS, dt)


def test_a_density_that_overflows_raises_negativity_error():
    # k*s overflows to +inf in the virus row alone, which no min() sees
    profile = InitialProfile("cosine", c0=1.0, s0=4.0, u0=0.25, amplitude=0.3)
    state = kin.init_local_equilibrium(profile.build(GRID), EQS, VGRID, 0.5)
    params = ModelParams(**{**NO_REACTIONS, "k": 1e308})
    with np.errstate(over="ignore"), pytest.raises(
            NegativityError, match="^density of kinetic distribution f3 reached inf, "
                                   "which is not finite$"):
        kin.kinetic_step(state, params, EQS, kin.max_step(state, 0.8))


def per_species_step(fields, params, eqs, eps, grid, vgrid, dt):
    """kinetic_step written out one species at a time and its limiters one
    cell at a time, its matrices built here, without the check that raises
    where the bias outweighs the relaxation: the reference that the stacked
    step must match bit for bit."""
    w, v, n = vgrid.weights, vgrid.nodes, vgrid.n_nodes
    courant = dt / (eps * grid.dx)
    rhos = [f @ w for f in fields]
    ds = np.roll(rhos[1], -1) - rhos[1]
    rates = params.reactions(*rhos)
    sigmas = (params.sigma1, params.sigma2, params.sigma3)
    qs = (params.q1, params.q2, params.q3)
    species = []
    for i, (f, rho, M, sigma, q) in enumerate(zip(fields, rhos, eqs, sigmas, qs)):
        shrink = 1.0 / (1.0 + dt * sigma / eps ** (q + 1))
        # g / (1 + dt*lambda), transported: T is linear
        moved = kin.transport_substep(f @ (shrink * (np.eye(n) - np.outer(w, M))),
                                      vgrid, grid, eps, dt)
        scale = eps ** (params.p - params.q1 - 1) * params.chi0 if i == 0 else 0.0
        bias_row = (shrink * dt * scale / (2.0 * grid.dx)) * v
        rows = np.stack([M, -M, 0.0 * M, -courant * shrink * v * M, bias_row])
        terms = np.zeros((grid.n_cells, 5))
        terms[:, 1:3] = moved @ np.stack((w, w * v), axis=1)
        terms[:, 3] = np.roll(rho, -1) - rho
        terms[:, 4] = (np.roll(rho, -1) + rho) * ds
        face_rows = courant * (rows[1:] @ (w * v))
        face_rows[1] = courant
        flux = (terms[:, 1:] @ face_rows[:, None])[:, 0]  # through face i+1/2
        held = rates[i] * dt + rho
        species.append((moved, rows, terms, flux, held))
    if min((held - flux + np.roll(flux, 1)).min() for *_, flux, held in species) < 0.0:
        # each face's flux scaled by the factor of the cell that it leaves
        for _, _, _, flux, held in species:
            factor = np.ones(grid.n_cells)
            for k in range(grid.n_cells):
                out = np.maximum(flux[k], 0.0) - np.minimum(flux[k - 1], 0.0)
                room = np.maximum(held[k], 0.0)
                if out > room:
                    factor[k] = room / out
            for k in range(grid.n_cells):
                flux[k] *= factor[k] if flux[k] > 0.0 else factor[(k + 1) % grid.n_cells]
    new = []
    for i, (moved, rows, terms, flux, held) in enumerate(species):
        terms[:, 0] = held - flux + np.roll(flux, 1)
        clamp_rows_nonnegative(terms[None, :, 0],
                               [f"density of kinetic distribution f{i + 1}"], "cfl")
        f = terms @ rows + moved
        if f.min() < 0.0:
            # the scaling limiter, with the largest theta that keeps f >= 0
            for k in range(grid.n_cells):
                low = f[k] < 0.0
                if low.any():
                    rho_m = terms[k, 0] * eqs[i]
                    theta = (rho_m[low] / (rho_m[low] - f[k, low])).min()
                    f[k] = np.maximum(rho_m + theta * (f[k] - rho_m), 0.0)
        new.append(f)
    return new


@pytest.mark.parametrize("n_cells, n_nodes, extra", [
    (16, 8, dict(chi0=0.5)),
    (128, 16, dict(chi0=0.5)),
    (16, 8, dict(chi0=0.0)),
    (16, 8, dict(chi0=0.5, q1=2, q2=2, q3=2, p=2)),
    (16, 8, dict(chi0=0.5, sigma2=3.0, q3=2)),
    (2, 4, dict(chi0=0.5)),  # the shift wraps on both sides of every cell
    (16, 8, dict(chi0=0.5, **NO_REACTIONS)),
], ids=["chi0.5-16x8", "chi0.5-128x16", "chi0", "q=p=2", "sigma2=3-q3=2",
        "chi0.5-2x4", "no-reactions"])
def test_stacked_step_matches_the_per_species_reference(n_cells, n_nodes, extra):
    grid = SpatialGrid(1.0, n_cells)
    vgrid = build_velocity_grid(1.0, n_nodes)
    eqs = species_equilibria(vgrid)
    rates = dict(d1=0.7, d2=1.3, d3=0.9, beta=1.1, k=1.7, r=2.0)
    params = ModelParams(**{**rates, **extra})
    # rough in velocity, smooth in space: with data drawn per cell, the
    # 128-cell case starts at Lambda = 19, where the model's own f1 goes
    # negative and the step raises at once
    ripple = 1.0 + 0.3 * np.cos(2.0 * np.pi * grid.centers)
    f = np.random.default_rng(23).uniform(0.2, 1.5, (3, 1, n_nodes)) * ripple[:, None]
    state = kin.KineticState(f, 0.2, 0.0, grid, vgrid)
    dt = kin.max_step(state, 0.8)
    fields = list(f)
    for _ in range(20):
        fields = per_species_step(fields, params, eqs, 0.2, grid, vgrid, dt)
        state = kin.kinetic_step(state, params, eqs, dt)
    for got, want in zip(state.f, fields):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("extra, seed", [(NO_REACTIONS, 79612), ({}, 137)],
                         ids=["no-reactions", "reactions"])
def test_stacked_step_matches_the_per_species_reference_where_the_limiters_act(
        extra, seed, monkeypatch):
    # rough data with empty cells: fluxes out of empty cells are scaled
    # down and negative rows of f are limited, in the first step at least
    grid, vgrid = SpatialGrid(1.0, 8), build_velocity_grid(1.0, 4)
    eqs = species_equilibria(vgrid)
    rng = np.random.default_rng(seed)
    shape = (3, 8, 4)
    f = np.where(rng.random(shape) < 0.7, rng.choice([0.0, 0.5, 1.0], shape),
                 rng.uniform(0.0, 2.0, shape))
    params = ModelParams(**{**dict(d1=0.7, d2=1.3, d3=0.9, beta=1.1, k=1.7, r=2.0),
                            **extra})
    state = kin.KineticState(f, 1.0, 0.0, grid, vgrid)
    dt = kin.max_step(state, 0.25)
    calls = []
    for name in ("_limit_outflow", "_limit"):
        limiter = getattr(kin, name)
        monkeypatch.setattr(kin, name, lambda *a, limiter=limiter, name=name:
                            calls.append(name) or limiter(*a))
    fields = list(f)
    for _ in range(5):
        fields = per_species_step(fields, params, eqs, 1.0, grid, vgrid, dt)
        state = kin.kinetic_step(state, params, eqs, dt)
        assert state.f.tobytes() == np.stack(fields).tobytes()
    assert {"_limit_outflow", "_limit"} <= set(calls)


def test_a_step_leaves_its_state_untouched_and_repeats_bit_for_bit():
    params = ModelParams(d1=0.7, d2=1.3, d3=0.9, beta=1.1, k=1.7, r=2.0, chi0=0.5)
    state = bump_state(0.2)
    dt = kin.max_step(state, 0.8)
    state = kin.kinetic_step(state, params, EQS, dt)  # now holds a plan
    before = state.f.copy()
    first = kin.kinetic_step(state, params, EQS, dt)
    assert state.f.tobytes() == before.tobytes()
    second = kin.kinetic_step(state, params, EQS, dt)
    assert state.f.tobytes() == before.tobytes()
    assert first.plan is second.plan is state.plan
    assert first.f.tobytes() == second.f.tobytes()
    # two runs that share one plan and its work array, stepped in turn,
    # stay identical
    for _ in range(5):
        first = kin.kinetic_step(first, params, EQS, dt)
        second = kin.kinetic_step(second, params, EQS, dt)
        assert first.f.tobytes() == second.f.tobytes()


def test_hand_built_and_marched_states_step_alike():
    params = ModelParams(d1=0.7, d2=1.3, d3=0.9, beta=1.1, k=1.7, r=2.0, chi0=0.5)
    state = bump_state(0.2)
    dt = kin.max_step(state, 0.8)
    marched = kin.kinetic_step(state, params, EQS, dt)
    hand = kin.KineticState(marched.f.copy(), 0.2, marched.time, GRID, VGRID)
    assert hand.plan is None and marched.plan is not None
    marched.plan.work.fill(math.nan)  # a stale scratch value must never be read
    marched.plan.terms.fill(math.nan)
    from_hand = kin.kinetic_step(hand, params, EQS, dt)
    from_marched = kin.kinetic_step(marched, params, EQS, dt)
    assert from_hand.plan is hand.plan is not marched.plan
    assert from_hand.f.tobytes() == from_marched.f.tobytes()
    assert from_hand.time == from_marched.time


def test_numpy_scalar_inputs_give_the_python_float_steps_and_run_bit_for_bit():
    # criterion 2 draws its rates with rng.uniform: numpy float64 scalars
    rng = np.random.default_rng(204)
    names = ("d1", "d2", "d3", "beta", "k", "r", "chi0", "sigma1", "sigma2", "sigma3")
    profile = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.25, amplitude=0.3)
    for q1, p in ((1, 1), (2, 1), (1, 2)):
        values = dict(zip(names, rng.uniform(0.3, 2.0, len(names))))
        eps, cfl = rng.uniform(0.05, 0.5, 2)
        runs = []
        for cast in (np.float64, float):
            params = ModelParams(**{name: cast(v) for name, v in values.items()},
                                 vmax=cast(1.5), q1=q1, p=p)
            vgrid = build_velocity_grid(params.vmax, 8)
            eqs = species_equilibria(vgrid)
            state = kin.init_local_equilibrium(profile.build(GRID), eqs, vgrid, cast(eps))
            dt = kin.max_step(state, cast(cfl))
            assert type(dt) is cast
            marched = state
            for _ in range(5):
                marched = kin.kinetic_step(marched, params, eqs, dt)
            # and a run, whose march takes the bound before every step
            snaps, _ = kin.run_kinetic(state, params, eqs, 3.5 * dt,
                                       snapshot_times=[1.5 * dt], cfl=cast(cfl))
            runs.append((float(dt).hex(), float(marched.time).hex(), marched.f.tobytes(),
                         [(float(snap.time).hex(), snap.rho.tobytes()) for snap in snaps]))
        assert isinstance(eps, np.float64)
        assert runs[0] == runs[1]


def fresh_step(state, params, eqs, dt):
    """The step from a hand-built copy of state: no plan."""
    hand = kin.KineticState(state.f.copy(), state.epsilon, state.time,
                            state.grid, state.vgrid)
    return kin.kinetic_step(hand, params, eqs.copy(), dt)


def test_a_plan_never_goes_stale():
    params = ModelParams(d1=0.7, d2=1.3, d3=0.9, beta=1.1, k=1.7, r=2.0, chi0=0.5)
    eqs = EQS.copy()
    state = bump_state(0.2)
    dt = kin.max_step(state, 0.8)
    state = kin.kinetic_step(state, params, eqs, dt)  # now holds a plan
    plan = state.plan
    writeable = [name for name, value in vars(plan).items()
                 if isinstance(value, np.ndarray) and value.flags.writeable]
    assert writeable == ["work", "terms"]
    assert kin.kinetic_step(state, params, eqs, dt).plan is plan
    # a new dt alone keeps the scratch arrays, which do not depend on it
    new_dt = kin.kinetic_step(state, params, eqs, 0.6 * dt).plan
    assert new_dt.work is plan.work and new_dt.terms is plan.terms

    vgrid4 = build_velocity_grid(1.0, 4)
    narrow = kin.init_local_equilibrium(kin.moments(state), species_equilibria(vgrid4),
                                        vgrid4, 0.2)
    wider = kin.KineticState(state.f.copy(), 0.3, state.time, GRID, VGRID)
    cases = [
        (state, params, eqs, 0.6 * dt),
        (state, ModelParams(**{**vars(params), "chi0": 0.9}), eqs, dt),
        (narrow, params, species_equilibria(vgrid4), dt),
        (wider, params, eqs, dt),
        (state, params, eqs, dt),  # after eqs[1] *= 1.5 below
    ]
    for i, (stepped, step_params, step_eqs, step_dt) in enumerate(cases):
        if i == len(cases) - 1:
            eqs[1] *= 1.5
        stepped.plan = plan  # handed on from a state it does not fit
        want = fresh_step(stepped, step_params, step_eqs, step_dt)
        got = kin.kinetic_step(stepped, step_params, step_eqs, step_dt)
        assert got.plan is not plan and stepped.plan is plan
        assert got.f.tobytes() == want.f.tobytes()


def masked_upwind(f, vgrid, grid, eps, dt):
    """The upwind transport written with a masked copy: the periodic
    backward difference D, D shifted by one cell and overlaid by D where
    v > 0, times the courant row, subtracted from f."""
    diff = np.empty(f.shape)
    np.subtract(f[..., 1:, :], f[..., :-1, :], out=diff[..., 1:, :])
    np.subtract(f[..., :1, :], f[..., -1:, :], out=diff[..., :1, :])
    out = np.roll(diff, -1, axis=-2)
    np.copyto(out, diff, where=vgrid.nodes > 0)
    out *= vgrid.nodes * (dt / (eps * grid.dx))
    return f - out


@settings(max_examples=60, deadline=None)
@given(
    n_cells=st.integers(2, 12),
    n_nodes=st.sampled_from([4, 6, 8]),
    eps=st.floats(0.05, 1.0),
    cfl=st.floats(0.01, kin.MAX_CFL),
    seed=st.integers(0, 2**32 - 1),
)
def test_sign_split_transport_is_the_masked_upwind_form_bit_for_bit(
    n_cells, n_nodes, eps, cfl, seed
):
    # few distinct values, so that many differences are exactly 0 and many
    # entries are exact zeros; a zero term adds a signed zero to the other
    grid, vgrid = SpatialGrid(1.0, n_cells), build_velocity_grid(1.0, n_nodes)
    eqs = species_equilibria(vgrid)
    rng = np.random.default_rng(seed)
    shape = (3, n_cells, n_nodes)
    f = np.where(rng.random(shape) < 0.7, rng.choice([0.0, 0.5, 1.0], shape),
                 rng.uniform(0.0, 2.0, shape))
    state = kin.KineticState(f, eps, 0.0, grid, vgrid)
    dt = kin.max_step(state, cfl)
    want = masked_upwind(f, vgrid, grid, eps, dt)
    plan = kin.step_plan(state, ModelParams(**NO_REACTIONS), eqs, dt)
    got = kin._transport(f, np.empty(shape), np.empty(shape), plan.c_up, plan.c_dn)
    assert got.tobytes() == want.tobytes()
    for row, want_row in zip(f, want):
        got_row = kin.transport_substep(row, vgrid, grid, eps, dt)
        assert got_row.tobytes() == want_row.tobytes()
    # a -0.0 in f may flip the sign of a zero in the transported f; a step
    # takes either sign to the same bits
    negative_zeros = kin.KineticState(np.where(f == 0.0, -0.0, f), eps, 0.0,
                                      grid, vgrid)
    params = ModelParams(**NO_REACTIONS)
    assert (kin.kinetic_step(negative_zeros, params, eqs, dt).f.tobytes()
            == kin.kinetic_step(state, params, eqs, dt).f.tobytes())


def test_a_step_allocates_one_full_size_array():
    # the new state's f and nothing of its size: the scratch arrays come
    # with the plan of the state that is stepped, and the rest of the peak
    # is rows of n_cells values (0.07 of this f in all); one temporary of a
    # species' size would add another 1/3
    grid, vgrid = SpatialGrid(1.0, 1024), build_velocity_grid(1.0, 16)
    eqs = species_equilibria(vgrid)
    params = ModelParams(d1=0.7, d2=1.3, d3=0.9, beta=1.1, k=1.7, r=2.0, chi0=0.5)
    profile = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.25, amplitude=0.3)
    state = kin.init_local_equilibrium(profile.build(grid), eqs, vgrid, 0.2)
    dt = kin.max_step(state, 0.8)
    state = kin.kinetic_step(state, params, eqs, dt)
    tracemalloc.start()
    try:
        state = kin.kinetic_step(state, params, eqs, dt)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1.1 * state.f.nbytes
    assert peak < 1.6 * state.f.nbytes


@settings(max_examples=50, deadline=None)
@given(
    n_cells=st.integers(2, 24),
    n_nodes=st.sampled_from([4, 6, 8, 10, 12]),
    eps=st.floats(0.05, 1.0),
    sigmas=st.tuples(*[st.floats(0.1, 10.0)] * 3),
    qs=st.tuples(*[st.sampled_from([1, 2])] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_steps_without_reactions_stay_nonnegative_and_conserve_mass(
    n_cells, n_nodes, eps, sigmas, qs, seed
):
    grid = SpatialGrid(1.0, n_cells)
    vgrid = build_velocity_grid(1.0, n_nodes)
    eqs = species_equilibria(vgrid)
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0, chi0=0.0,
                         sigma1=sigmas[0], sigma2=sigmas[1], sigma3=sigmas[2],
                         q1=qs[0], q2=qs[1], q3=qs[2])
    f = np.random.default_rng(seed).uniform(0.0, 2.0, (3, n_cells, n_nodes))
    state = kin.KineticState(f, eps, 0.0, grid, vgrid)
    mass0 = kin.moments(state).total_mass()
    dt = kin.max_step(state, 0.8)
    for _ in range(20):
        state = kin.kinetic_step(state, params, eqs, dt)
        assert state.f.min() >= 0.0
    mass = kin.moments(state).total_mass()
    assert np.all(np.abs(mass - mass0) <= 1e-12 * mass0)


def test_the_limiter_mends_negatives_and_keeps_mass_and_the_other_rows(monkeypatch):
    # f = M + tilt*v*M per species, negative at the nodes against the tilt
    # in three cells; chi0 = 0, so only the limiter can restore f >= 0
    tilt = np.zeros(GRID.n_cells)
    tilt[[3, 17, 18]] = (2.0, -2.5, 1.5)
    f = EQS[:, None, :] * (1.0 + tilt[:, None] * VGRID.nodes)
    assert f.min() < 0.0
    state = kin.KineticState(f, 0.5, 0.0, GRID, VGRID)
    params, dt = ModelParams(**NO_REACTIONS), kin.max_step(state, 0.8)
    limited = kin.kinetic_step(state, params, EQS, dt)
    monkeypatch.setattr(kin, "_limit", lambda f, rho, eqs: None)
    unlimited = kin.kinetic_step(state, params, EQS, dt)
    assert limited.f.min() >= 0.0
    mass0, mass = kin.moments(state).total_mass(), kin.moments(limited).total_mass()
    assert np.all(np.abs(mass - mass0) <= 1e-12 * mass0)
    # the limiter rewrites the (species, cell) rows that hold a negative,
    # and only those
    rows = (unlimited.f < 0.0).any(axis=-1)
    assert 0 < rows.sum() < rows.size
    assert limited.f[~rows].tobytes() == unlimited.f[~rows].tobytes()
    # with the largest theta that keeps it nonnegative: each limited row
    # touches zero
    assert np.all(limited.f[rows].min(axis=-1) == 0.0)


@pytest.mark.parametrize("cfl", [0.25, 0.05])
def test_an_empty_cell_keeps_a_nonnegative_density_at_any_cfl(cfl, monkeypatch):
    # the deviation at the face left of the empty cell 3 carries mass out
    # of it, by about as much at any dt; the fluxes out of a cell are
    # scaled to what it holds, so the step stays nonnegative and keeps mass
    f = EQS[:, None, :] * np.ones((1, GRID.n_cells, 1))
    f[:, 3] = 0.0
    f[:, 2] *= 1.0 - VGRID.nodes / VGRID.vmax
    state = kin.KineticState(f, 0.5, 0.0, GRID, VGRID)
    params, dt = ModelParams(**NO_REACTIONS), kin.max_step(state, cfl)
    stepped = kin.kinetic_step(state, params, EQS, dt)
    assert stepped.f.min() >= 0.0
    mass0, mass = kin.moments(state).total_mass(), kin.moments(stepped).total_mass()
    assert np.all(np.abs(mass - mass0) <= 1e-12 * mass0)
    # unscaled, the density of cell 3 goes negative
    monkeypatch.setattr(kin, "_limit_outflow", lambda flux, held: flux)
    with pytest.raises(NegativityError, match=r"density of kinetic distribution f1 "
                       r"reached -1\.\d+e-02"):
        kin.kinetic_step(state, params, EQS, dt)


def test_negative_f1_where_the_bias_outweighs_the_relaxation_names_lambda():
    # Lambda = eps^p*chi0*max|ds/dx|*max|v|/(sigma1*M) is about 18 at
    # chi0 = 50 on this ripple: the model's own f1 goes negative, so the
    # step raises, and a smaller cfl would not help
    state = bump_state(0.2)
    dt = kin.max_step(state, 0.8)
    params = ModelParams(**NO_REACTIONS, chi0=50.0)
    with pytest.raises(NegativityError, match=r"^kinetic distribution f1 reached -\S+ "
                       r"where the bias outweighs the relaxation: Lambda = .* = 18\.1 > 1$"):
        kin.kinetic_step(state, params, EQS, dt)
    # at chi0 = 2, Lambda = 0.72: the step keeps f1 >= 0
    stepped = kin.kinetic_step(state, ModelParams(**NO_REACTIONS, chi0=2.0), EQS, dt)
    assert stepped.f.min() >= 0.0


@settings(max_examples=150, deadline=None)
@given(
    q1=st.sampled_from([1, 2]),
    eps=st.floats(0.1, 1.0),
    chi0=st.floats(0.0, 3.0),
    sigma1=st.floats(0.1, 10.0),
    vmax=st.floats(0.5, 2.0),
    n_cells=st.integers(8, 32),
    n_nodes=st.sampled_from([4, 8]),
    rates=st.tuples(*[st.floats(0.3, 1.5)] * 8),
)
def test_a_kinetic_run_goes_negative_only_where_lambda_exceeds_one(
    q1, eps, chi0, sigma1, vmax, n_cells, n_nodes, rates
):
    # Lambda = eps^p*chi0*max|ds/dx|*max|v|/(sigma1*M), M = 1/(2*vmax), taken
    # before each step: a run that keeps Lambda <= 1 stays nonnegative, and
    # f1 goes negative only at a step whose Lambda > 1, which the error names
    d1, d2, d3, beta, k, r, sigma2, sigma3 = rates
    params = ModelParams(d1=d1, d2=d2, d3=d3, beta=beta, k=k, r=r, chi0=chi0,
                         sigma1=sigma1, sigma2=sigma2, sigma3=sigma3, q1=q1,
                         vmax=vmax)
    grid = SpatialGrid(1.0, n_cells)
    vgrid = build_velocity_grid(vmax, n_nodes)
    eqs = species_equilibria(vgrid)
    start = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.25, amplitude=0.3)
    state = kin.init_local_equilibrium(start.build(grid), eqs, vgrid, eps)
    lambdas = []
    step = kin.kinetic_step

    def measured(state, params, eqs, dt):
        s = kin.moments(state).s
        gradient = np.abs(np.roll(s, -1) - s).max() / grid.dx
        lambdas.append(eps ** params.p * chi0 * gradient * np.abs(vgrid.nodes).max()
                       * 2.0 * vmax / sigma1)
        return step(state, params, eqs, dt)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kin, "kinetic_step", measured)
        try:
            kin.run_kinetic(state, params, eqs, 0.1, cfl=0.8)
        except NegativityError as err:
            named = re.search(r"Lambda = .* = (\S+) > 1$", str(err))
            assert named, err
            assert lambdas[-1] > 1.0
            assert float(named[1]) == pytest.approx(lambdas[-1], rel=5e-3)


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


CFL_MESSAGE = r"^cfl must be in \(0, 0\.9\]$"


def test_run_validation():
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    state = bump_state(0.2)
    with pytest.raises(ValidationError):
        kin.run_kinetic(state, params, EQS, -1.0)
    with pytest.raises(ValidationError, match=CFL_MESSAGE):
        kin.run_kinetic(state, params, EQS, 0.1, cfl=0.95)
    with pytest.raises(ValidationError, match=CFL_MESSAGE):
        kin.run_kinetic(state, params, EQS, 0.1, cfl=0.0)
    with pytest.raises(ValidationError):
        kin.run_kinetic(state, params, EQS, 0.1, snapshot_times=[0.2])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_kinetic_horizon_must_be_finite(bad):
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    with pytest.raises(ValidationError, match="^t_final must be finite$"):
        kin.run_kinetic(bump_state(0.2), params, EQS, bad)


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
