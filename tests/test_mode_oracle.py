"""The exact per-mode oracle of the linear kinetic model (mode_oracle.py):
mass, its parabolic limit, and the mode-1 decay rates of the model, of the
kinetic step and of the split scheme that the step replaced, on 128
cells; and the macro system and the ODE linearized about the endemic
state, with chemotaxis and reactions on, against macro_step and
integrate_sir."""

import math

import numpy as np
import pytest

from kinsir import ModelParams, SirState, equilibria, integrate_sir, kinetic
from kinsir.grids import InitialProfile, MacroState, SpatialGrid, split
from kinsir.macro import _heat_symbol, build_macro_coefficients, macro_step
from kinsir.velocity import (
    build_velocity_grid,
    diffusion_tensor,
    species_equilibria,
    uniform_equilibrium,
)
from mode_oracle import expm, macro_matrices, propagators, reaction_jacobian

GRID = SpatialGrid(1.0, 128)
VGRID = build_velocity_grid(1.0, 16)
M = uniform_equilibrium(VGRID)
T = 0.05


def oracle_decay(eps):
    """|c_1(T)| / |c_1(0)| of the model from the local equilibrium, sigma = q = 1."""
    mode1 = propagators(GRID, VGRID, M, eps, 1.0, 1, T)[1]
    return abs(VGRID.weights @ mode1 @ M)


def decay_rate(ratio):
    """D = -ln(A(T)/A(0)) / ((2 pi)^2 T) for the mode-1 amplitude A."""
    return -math.log(ratio) / ((2.0 * math.pi) ** 2 * T)


@pytest.mark.parametrize("eps", [0.4, 0.05, 3e-3, 1e-4])
def test_mode_zero_keeps_mass(eps):
    mode0 = propagators(GRID, VGRID, M, eps, 1.0, 1, T)[0]
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


NO_REACTIONS = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)


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


def test_macro_step_amplifies_mode_one_as_the_linear_macro_system_does():
    # relative error 2.1e-5, 5.3e-6, 1.3e-6 and 3.4e-7 at 5 to 40 steps of
    # T = 0.05: second order; a floor of order SHAPE shows from 80 steps
    grid = SpatialGrid(1.0, 64)
    coeff = build_macro_coefficients(COUPLED, build_velocity_grid(1.0, 16))
    wave = np.cos(2.0 * np.pi * grid.centers)
    exact = expm(T * macro_matrices(grid, coeff, QSTAR))[1] @ SHAPE
    errors = []
    for steps in (5, 10, 20, 40):
        state = MacroState(QSTAR[:, None] + np.outer(SHAPE, wave), 0.0, grid)
        for _ in range(steps):
            state = macro_step(state, coeff, T / steps)
        amplitude = np.fft.rfft(state.rho)[:, 1] / np.fft.rfft(wave)[1]
        errors.append(np.linalg.norm(amplitude - exact) / np.linalg.norm(exact))
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
