"""The exact per-mode oracles of the linearized tiers (mode_oracle.py).
Without coupling: mass, the parabolic limit, and the mode-1 decay rates of
the kinetic model, of the kinetic step and of the split scheme that the
step replaced, on 128 cells. About the endemic state, with chemotaxis and
reactions on: the kinetic oracle's mode 0 and its limit in every scaling
regime, and macro_step, integrate_sir and the kinetic step against the
oracle of their tier. Where the endemic state turns unstable: the onset in
chi0 of the macro system and of the kinetic oracle, and runs of both tiers
on either side of it."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from kinsir import (ModelParams, SirState, convergence, equilibria, integrate_sir,
                    kinetic)
from kinsir.grids import InitialProfile, MacroState, SpatialGrid, split
from kinsir.macro import _heat_symbol, build_macro_coefficients, macro_step, run_macro
from kinsir.velocity import (
    build_velocity_grid,
    diffusion_tensor,
    species_equilibria,
    uniform_equilibrium,
)
from mode_oracle import expm, macro_matrices, propagators, reaction_jacobian

GRID = SpatialGrid(1.0, 128)
VGRID = build_velocity_grid(1.0, 16)
EQS = species_equilibria(VGRID)
M = uniform_equilibrium(VGRID)
T = 0.05
NO_REACTIONS = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)


def uncoupled(eps, mode):
    """The block of f1 in the oracle's mode with chi0 = 0 and no reactions,
    where each species is on its own; sigma = q = 1."""
    n = VGRID.n_nodes
    return propagators(GRID, VGRID, EQS, eps, NO_REACTIONS, (1.0, 0.0, 0.0), T,
                       [mode])[0, :n, :n]


def oracle_decay(eps):
    """|c_1(T)| / |c_1(0)| of the model from the local equilibrium, sigma = q = 1."""
    return abs(VGRID.weights @ uncoupled(eps, 1) @ M)


def decay_rate(ratio):
    """D = -ln(A(T)/A(0)) / ((2 pi)^2 T) for the mode-1 amplitude A."""
    return -math.log(ratio) / ((2.0 * math.pi) ** 2 * T)


@pytest.mark.parametrize("eps", [0.4, 0.05, 3e-3, 1e-4])
def test_mode_zero_keeps_mass(eps):
    mode0 = uncoupled(eps, 0)
    f = np.random.default_rng(3).uniform(0.0, 1.0, (VGRID.n_nodes, 5))
    mass = VGRID.weights @ f
    assert np.max(np.abs(VGRID.weights @ mode0 @ f - mass) / mass) <= 1e-13


# the relative gap to the heat semigroup falls like eps^2 (1.14e-5 and
# 1.14e-7); at smaller eps the rounding of the stiff exponential, about
# 1e-16 * |T * B_m|, swamps it
@pytest.mark.parametrize("eps, bound", [(1e-3, 2e-5), (1e-4, 2e-7)])
def test_mode_one_tends_to_the_heat_symbol(eps, bound):
    rate = diffusion_tensor(M, 1.0, VGRID) * T / GRID.dx ** 2
    heat = _heat_symbol(GRID.n_cells, (rate,))[0, 1]
    assert abs(oracle_decay(eps) - heat) / heat <= bound


def run_decay(eps):
    """|c_1(T)| / |c_1(0)| of a kinetic run at cfl 0.8 from the local
    equilibrium."""
    eqs = species_equilibria(VGRID)
    start = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5, amplitude=0.1).build(GRID)
    state = kinetic.init_local_equilibrium(start, eqs, VGRID, eps)
    snapshots, _ = kinetic.run_kinetic(state, NO_REACTIONS, eqs, T, cfl=0.8)
    return abs(np.fft.rfft(snapshots[-1].c)[1]) / abs(np.fft.rfft(start.c)[1])


def step_decay(eps):
    """run_decay(eps) in a few steps: with chi0 = 0 and no reactions a step
    is linear and shift-invariant, so on mode 1 it is a matrix over the
    nodes. Its column j is read off one step of M + 0.1*cos(2*pi*x)*M_j*e_j
    (one probe per species row), and the matrix is raised to the run's
    number of steps."""
    n, nodes = GRID.n_cells, VGRID.n_nodes
    wave = np.exp(2j * np.pi * GRID.centers)
    eqs = species_equilibria(VGRID)
    amplification = np.empty((nodes, nodes), complex)
    for first in range(0, nodes, 3):
        probed = range(first, min(first + 3, nodes))
        f = np.tile(M, (3, n, 1))
        for row, j in enumerate(probed):
            f[row, :, j] += 0.1 * M[j] * wave.real
        state = kinetic.KineticState(f, eps, 0.0, GRID, VGRID)
        steps, dt = split(T, kinetic.max_step(state, 0.8))
        stepped = kinetic.kinetic_step(state, NO_REACTIONS, eqs, dt).f
        for row, j in enumerate(probed):
            amplification[:, j] = wave.conj() @ (stepped[row] - M) / (0.05 * n * M[j])
    return abs(VGRID.weights @ np.linalg.matrix_power(amplification, steps) @ M)


# mode-1 decay rates D of the model (oracle) and, at cfl 0.8, of the
# kinetic step and of the upwind split scheme that the step replaced, whose
# numerical diffusion grew like dx/eps; the limit on this grid is 0.33327
STEP = {0.4: 0.04974, 0.1: 0.27351, 0.05: 0.31766, 0.01: 0.33244, 0.003: 0.33314}


@pytest.mark.parametrize("eps, oracle, split", [
    (0.4, 0.04788, 0.05016),
    (0.1, 0.27485, 0.28381),
    (0.05, 0.31876, 0.33738),
    (0.01, 0.33269, 0.43527),
    (0.003, 0.33321, 0.75179),
])
def test_mode_one_decay_rates_of_the_model_and_the_split_scheme(eps, oracle, split):
    assert decay_rate(oracle_decay(eps)) == pytest.approx(oracle, abs=5e-5)
    assert decay_rate(run_decay(eps)) == pytest.approx(STEP[eps], abs=5e-5)
    assert abs(STEP[eps] - oracle) <= abs(split - oracle)


def test_step_decay_is_the_decay_of_a_run():
    assert step_decay(0.05) == pytest.approx(run_decay(0.05), rel=1e-10)


# within 1% of the model down to eps = 1e-4, where a run takes 80,000 steps
@pytest.mark.parametrize("eps", [0.05, 0.01, 3e-3, 1e-3, 1e-4])
def test_the_kinetic_step_decays_mode_one_as_the_model_does(eps):
    assert decay_rate(step_decay(eps)) == pytest.approx(decay_rate(oracle_decay(eps)),
                                                        rel=0.01)


def test_expm_of_a_stack_matches_closed_forms():
    theta = np.array([0.3, 40.0])
    rotations = np.multiply.outer(theta, [[0.0, -1.0], [1.0, 0.0]])
    expected = np.stack([[[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
                         for a in theta])
    np.testing.assert_allclose(expm(rotations), expected, atol=1e-12)
    np.testing.assert_allclose(expm(np.diag([-20.0, 0.0, 2.0])[None]),
                               np.diag(np.exp([-20.0, 0.0, 2.0]))[None], rtol=1e-13)


# ---------------------------------------------------------------------------
# linearized about the endemic state q* = (0.28, 1.43, 3.07), chi = 0.53


COUPLED = ModelParams(d1=0.5, d2=0.6, d3=0.7, beta=1, k=1.5, r=1, chi0=0.8)
QSTAR = equilibria(COUPLED).qstar.as_array()
SHAPE = 1e-6 * np.array([0.3, 1.0, -0.5])  # a perturbation small enough
# that its square, which the linear model drops, stays below the errors


def macro_step_errors(params, t, step_counts):
    """The relative distance of macro_step's mode-1 amplitude after t from
    expm(t * A_1) on it, from QSTAR + SHAPE * cos(2 pi x) on 64 cells, for
    each number of steps."""
    grid = SpatialGrid(1.0, 64)
    coeff = build_macro_coefficients(params, build_velocity_grid(1.0, 16))
    wave = np.cos(2.0 * np.pi * grid.centers)
    exact = expm(t * macro_matrices(grid, coeff, QSTAR))[1] @ SHAPE
    errors = []
    for steps in step_counts:
        state = MacroState(QSTAR[:, None] + np.outer(SHAPE, wave), 0.0, grid)
        for _ in range(steps):
            state = macro_step(state, coeff, t / steps)
        amplitude = np.fft.rfft(state.rho)[:, 1] / np.fft.rfft(wave)[1]
        errors.append(np.linalg.norm(amplitude - exact) / np.linalg.norm(exact))
    return errors


def test_macro_step_amplifies_mode_one_as_the_linear_macro_system_does():
    # relative error 2.1e-5, 5.3e-6, 1.3e-6 and 3.4e-7 at 5 to 40 steps of
    # T = 0.05: second order; a floor of order SHAPE shows from 80 steps
    errors = macro_step_errors(COUPLED, T, (5, 10, 20, 40))
    assert errors == pytest.approx([2.14e-5, 5.30e-6, 1.32e-6, 3.37e-7], rel=0.03)
    assert all(3.8 < a / b < 4.2 for a, b in zip(errors, errors[1:]))


def test_integrate_sir_near_the_endemic_state_follows_the_linear_ode():
    # relative error 2.8e-7 and 1.8e-8 at h = 0.05 and 0.025 over t = 1:
    # fourth order, down to a rounding floor near 5e-9
    exact = expm(reaction_jacobian(COUPLED, QSTAR)[None])[0] @ SHAPE
    start = SirState(*(QSTAR + SHAPE))
    errors = []
    for h in (0.05, 0.025):
        final = integrate_sir(start, COUPLED, 1.0, h).final.as_array()
        errors.append(np.linalg.norm(final - QSTAR - exact) / np.linalg.norm(exact))
    assert errors == pytest.approx([2.85e-7, 1.85e-8], rel=0.05)


KINETIC_GRID = SpatialGrid(1.0, 64)
DENSITIES = np.kron(np.eye(3), VGRID.weights)  # (3, 3*n_nodes): f -> rho
EQUILIBRIUM = np.kron(np.eye(3), M).T  # (3*n_nodes, 3): rho -> rho * M


def coupled_densities(params, eps, mode, t=T):
    """The kinetic oracle's mode about QSTAR acting on the densities of a
    local equilibrium, f = rho * M at the start and rho = <f> at t."""
    oracle = propagators(KINETIC_GRID, VGRID, EQS, eps, params, QSTAR, t, [mode])[0]
    return DENSITIES @ oracle @ EQUILIBRIUM


def test_the_coupled_kinetic_oracle_has_the_ode_as_its_mode_zero():
    exact = expm(T * reaction_jacobian(COUPLED, QSTAR)[None])[0]
    for eps in (0.4, 0.01):
        np.testing.assert_allclose(coupled_densities(COUPLED, eps, 0), exact,
                                   rtol=0, atol=1e-12)


def limit_coefficients(params, monkeypatch):
    """The MacroCoefficients that convergence._limit_reference hands to
    run_macro for params: the rule that keeps D_i where q_i = 1 and chi
    where p = 1, as the source writes it."""
    kept = []
    monkeypatch.setattr(convergence, "run_macro",
                        lambda start, coeff, *args, **kwargs: kept.append(coeff) or [start])
    start = MacroState(np.ones((3, KINETIC_GRID.n_cells)), 0.0, KINETIC_GRID)
    convergence._limit_reference(InitialProfile("constant"), start, params, VGRID, T,
                                 [T], 1)
    return kept[0]


# the distances at eps = 0.005 run from 2.7e-4 (parabolic) to 3.5e-3; with
# every coefficient kept instead, the non-parabolic ones stay between 0.23
# and 0.8 as eps shrinks
@pytest.mark.parametrize("q1, q2, q3, p", itertools.product((1, 2), repeat=4))
def test_the_coupled_kinetic_oracle_tends_to_the_limit_that_a_study_takes(
        monkeypatch, q1, q2, q3, p):
    params = replace(COUPLED, q1=q1, q2=q2, q3=q3, p=p)
    coeff = limit_coefficients(params, monkeypatch)
    limit = expm(T * macro_matrices(KINETIC_GRID, coeff, QSTAR))[1]
    distances = np.array([np.linalg.norm(coupled_densities(params, eps, 1) - limit, 2)
                          for eps in (0.01, 0.005)]) / np.linalg.norm(limit, 2)
    # each dropped coefficient is O(eps); the parabolic limit is O(eps^2)
    order = math.log2(distances[0] / distances[1])
    assert order == pytest.approx(2 if (q1, q2, q3, p) == (1, 1, 1, 1) else 1, abs=0.2)
    assert distances[1] < 3.6e-3


# the kinetic step's relative distance from the coupled oracle at mode 1 on
# 64 x 16 cells, T = 0.05, cfl 0.8; the split step that it replaced was
# 0.9%, 3.5%, 7.2% and 37% off at these eps
@pytest.mark.parametrize("eps, distance", [
    (0.4, 9.88e-3), (0.1, 5.69e-3), (0.05, 2.92e-3), (0.01, 7.96e-4)])
def test_the_kinetic_step_follows_the_coupled_oracle(eps, distance):
    wave = np.cos(2.0 * np.pi * KINETIC_GRID.centers)
    exact = coupled_densities(COUPLED, eps, 1) @ SHAPE
    start = MacroState(QSTAR[:, None] + np.outer(SHAPE, wave), 0.0, KINETIC_GRID)
    state = kinetic.init_local_equilibrium(start, EQS, VGRID, eps)
    snapshots, _ = kinetic.run_kinetic(state, COUPLED, EQS, T, cfl=0.8)
    amplitude = np.fft.rfft(snapshots[-1].rho)[:, 1] / np.fft.rfft(wave)[1]
    relative = np.linalg.norm(amplitude - exact) / np.linalg.norm(exact)
    assert relative == pytest.approx(distance, rel=0.02)


# ---------------------------------------------------------------------------
# where q* turns unstable: mode 1 on 64 cells, chi0 on both sides of the onset


def growth_rate(chi0, eps=None):
    """The largest growth rate of mode 1 about QSTAR at chi0: of A_1, or of
    the coupled kinetic oracle at eps, read off its spectrum over t = 1."""
    params = replace(COUPLED, chi0=chi0)
    if eps is None:
        coeff = build_macro_coefficients(params, VGRID)
        return np.linalg.eigvals(macro_matrices(KINETIC_GRID, coeff, QSTAR)[1]).real.max()
    oracle = propagators(KINETIC_GRID, VGRID, EQS, eps, params, QSTAR, 1.0, [1])[0]
    return math.log(np.abs(np.linalg.eigvals(oracle)).max())


def onset(eps=None):
    """The chi0 in [5, 15] where growth_rate(chi0, eps) turns positive, to
    1e-4, by bisection."""
    low, high = 5.0, 15.0
    while high - low > 1e-4:
        middle = 0.5 * (low + high)
        low, high = (low, middle) if growth_rate(middle, eps) > 0 else (middle, high)
    return 0.5 * (low + high)


def test_the_macro_system_turns_unstable_at_chi0_10_146():
    assert onset() == pytest.approx(10.146, abs=1e-3)
    assert growth_rate(20.0) == pytest.approx(6.09, abs=5e-3)


def test_the_kinetic_onset_tends_to_the_macro_one():
    onsets = [onset(eps) for eps in (0.1, 0.03)]
    assert onsets == pytest.approx([9.230, 10.046], abs=1e-3)
    assert onsets[0] < onsets[1] < onset()
    rates = [growth_rate(20.0, eps) for eps in (0.2, 0.1, 0.05, 0.02)]
    assert rates == pytest.approx([8.23, 7.10, 6.40, 6.15], abs=5e-3)


def test_macro_step_amplifies_the_growing_mode_as_the_linear_macro_system_does():
    # chi0 = 20, where mode 1 grows at 6.09: relative error 5.5e-3, 1.4e-3
    # and 3.7e-4 at 20, 40 and 80 steps of 0.2, second order
    errors = macro_step_errors(replace(COUPLED, chi0=20.0), 0.2, (20, 40, 80))
    assert errors == pytest.approx([5.52e-3, 1.43e-3, 3.67e-4], rel=0.03)


# |mode 1| at t = 1 over its start, of a macro run and of a kinetic run at
# eps 0.05, cfl 0.8; the oracles give 0.378 and 0.455 at chi0 = 8, 9.18
# and 11.6 at chi0 = 12
@pytest.mark.parametrize("chi0, macro_gain, kinetic_gain", [
    (8.0, 0.3760, 0.4636), (12.0, 9.104, 11.00)])
def test_runs_from_the_endemic_state_decay_below_the_onset_and_grow_above_it(
        chi0, macro_gain, kinetic_gain):
    params = replace(COUPLED, chi0=chi0)
    wave = np.cos(2.0 * np.pi * KINETIC_GRID.centers)
    start = MacroState(QSTAR[:, None] + np.outer(SHAPE, wave), 0.0, KINETIC_GRID)
    coeff = build_macro_coefficients(params, VGRID)
    state = kinetic.init_local_equilibrium(start, EQS, VGRID, 0.05)
    runs = (run_macro(start, coeff, 1.0)[-1],
            kinetic.run_kinetic(state, params, EQS, 1.0, cfl=0.8)[0][-1])
    oracles = (expm(macro_matrices(KINETIC_GRID, coeff, QSTAR))[1],
               coupled_densities(params, 0.05, 1, t=1.0))
    unstable = chi0 > onset()
    for run, oracle, gain in zip(runs, oracles, (macro_gain, kinetic_gain)):
        amplitude = np.fft.rfft(run.rho)[:, 1] / np.fft.rfft(wave)[1]
        measured = np.linalg.norm(amplitude) / np.linalg.norm(SHAPE)
        exact = np.linalg.norm(oracle @ SHAPE) / np.linalg.norm(SHAPE)
        assert measured == pytest.approx(gain, rel=1e-3)
        assert (measured > 1) == (exact > 1) == unstable
