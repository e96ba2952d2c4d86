"""The exact per-mode oracle of the linear kinetic model (mode_oracle.py):
mass, its parabolic limit, and the mode-1 decay rates of the model and
of the split scheme on 128 cells."""

import math

import numpy as np
import pytest

from kinsir import ModelParams, kinetic
from kinsir.grids import InitialProfile, SpatialGrid
from kinsir.macro import _heat_symbol
from kinsir.velocity import (
    build_velocity_grid,
    diffusion_tensor,
    species_equilibria,
    uniform_equilibrium,
)
from mode_oracle import expm, propagators

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


# mode-1 decay rates D of the model (oracle) and of the split kinetic
# scheme at cfl 0.8; the limit on this grid is 0.33327
@pytest.mark.parametrize("eps, oracle, split", [
    (0.4, 0.04788, 0.05016),
    (0.1, 0.27485, 0.28381),
    (0.05, 0.31876, 0.33738),
    (0.01, 0.33269, 0.43527),
    (0.003, 0.33321, 0.75179),
])
def test_mode_one_decay_rates_of_the_model_and_the_split_scheme(eps, oracle, split):
    assert decay_rate(oracle_decay(eps)) == pytest.approx(oracle, abs=5e-5)

    no_reactions = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    eqs = species_equilibria(VGRID)
    start = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5, amplitude=0.1).build(GRID)
    state = kinetic.init_local_equilibrium(start, eqs, VGRID, eps)
    snapshots, _ = kinetic.run_kinetic(state, no_reactions, eqs, T, cfl=0.8)
    ratio = abs(np.fft.rfft(snapshots[-1].c)[1]) / abs(np.fft.rfft(start.c)[1])
    assert decay_rate(ratio) == pytest.approx(split, abs=5e-5)


def test_expm_of_a_stack_matches_closed_forms():
    theta = np.array([0.3, 40.0])
    rotations = np.multiply.outer(theta, [[0.0, -1.0], [1.0, 0.0]])
    expected = np.stack([[[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
                         for a in theta])
    np.testing.assert_allclose(expm(rotations), expected, atol=1e-12)
    np.testing.assert_allclose(expm(np.diag([-20.0, 0.0, 2.0])[None]),
                               np.diag(np.exp([-20.0, 0.0, 2.0]))[None], rtol=1e-13)
