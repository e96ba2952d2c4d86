"""Acceptance gate: ten external criteria, one test each.

Every test prints a single PASS line with its measured figures once its
assertions hold, and asserts its own runtime budget. Tolerances are stated
inline; none are relaxed relative to the contract this suite certifies.
"""

import math
import os
import time

import numpy as np
import pytest

import kinsir.kinetic as kin
from kinsir import (
    ModelParams,
    SirState,
    equilibria,
    integrate_sir,
    run_convergence_study,
    sir_rhs,
)
from kinsir.cli import main
from kinsir.grids import InitialProfile, MacroState, SpatialGrid
from kinsir.macro import build_macro_coefficients, macro_step, run_macro, stable_dt
from kinsir.velocity import (
    alpha_direct,
    build_velocity_grid,
    diffusion_tensor,
    diffusion_tensor_from_theta,
    interaction_terms,
    relaxation_apply,
    relaxation_kernel,
    solve_theta,
    species_equilibria,
    transport_coefficients,
    uniform_equilibrium,
)


def random_params(rng, r0_range=None):
    d1, d2, d3 = rng.uniform(0.4, 2.0, 3)
    beta, k = rng.uniform(0.3, 2.0, 2)
    if r0_range is None:
        r = rng.uniform(0.2, 4.0)
    else:
        r = rng.uniform(*r0_range) * d1 * d2 * d3 / (beta * k)
    return ModelParams(d1=d1, d2=d2, d3=d3, beta=beta, k=k, r=r)


def report(line, start, budget):
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s budget"
    print(f"PASS {line} [{elapsed:.2f}s]")


def test_criterion_01_equilibrium_residuals():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        params = random_params(rng)
        rep = equilibria(params)
        worst = max(worst, np.max(np.abs(sir_rhs(rep.q0, params))))
        if rep.qstar is not None:
            worst = max(worst, np.max(np.abs(sir_rhs(rep.qstar, params))))
        assert worst <= 1e-12
    report(f"criterion 1: equilibrium residuals <= 1e-12 "
           f"(worst {worst:.2e}, 100 sets)", start, 1.0)


def test_criterion_02_threshold_dichotomy():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst_endemic = worst_free = 0.0
    for _ in range(20):
        params = random_params(rng, (1.2, 5.0))
        target = equilibria(params).qstar
        init = SirState(*(target.as_array() * rng.uniform(0.5, 1.5, 3)))
        t_final = 1000.0 * max(1 / params.d1, 1 / params.d2, 1 / params.d3)
        rate = max(params.d1 + 2 * params.beta * target.w, params.d2,
                   params.d3, params.k, 2 * params.beta * target.u)
        final = integrate_sir(init, params, t_final, 0.1 / rate).final
        worst_endemic = max(worst_endemic,
                            np.max(np.abs(final.as_array() - target.as_array())))
        assert worst_endemic < 1e-3
    for _ in range(20):
        params = random_params(rng, (0.2, 0.95))
        target = equilibria(params).q0
        init = SirState(target.u * rng.uniform(0.5, 1.5),
                        target.u * rng.uniform(0.05, 0.5),
                        target.u * rng.uniform(0.05, 0.5))
        t_final = 1000.0 * max(1 / params.d1, 1 / params.d2, 1 / params.d3)
        rate = max(params.d1 + params.beta * target.u, params.d2, params.d3,
                   params.k, params.beta * target.u)
        final = integrate_sir(init, params, t_final, 0.1 / rate).final
        worst_free = max(worst_free,
                         np.max(np.abs(final.as_array() - target.as_array())))
        assert worst_free < 1e-3
    report(f"criterion 2: threshold dichotomy, 20+20 sets "
           f"(worst endemic {worst_endemic:.2e}, free {worst_free:.2e})",
           start, 30.0)


def test_criterion_03_coefficient_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    worst_formula = worst_routes = worst_alpha = 0.0
    for _ in range(50):
        vmax = rng.uniform(0.5, 2.5)
        sigmas = rng.uniform(0.5, 4.0, 3)
        chi0 = rng.uniform(0.0, 2.0)
        params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1,
                             sigma1=sigmas[0], sigma2=sigmas[1],
                             sigma3=sigmas[2], chi0=chi0, vmax=vmax)
        grid = build_velocity_grid(vmax, 16)
        eqs = species_equilibria(grid)
        coeff = transport_coefficients(params, grid)
        for D, sigma in zip((coeff.Dc, coeff.Ds, coeff.Du), sigmas):
            worst_formula = max(
                worst_formula, abs(D - vmax**2 / (3.0 * sigma))
            )
        worst_formula = max(
            worst_formula,
            abs(coeff.chi - 2.0 * chi0 * vmax**3 / (3.0 * sigmas[0])),
        )
        assert worst_formula <= 1e-10
        for species, sigma in zip((1, 2, 3), sigmas):
            M = eqs[species - 1]
            direct = diffusion_tensor(M, sigma, grid)
            via_theta = diffusion_tensor_from_theta(
                solve_theta(M, sigma, grid), grid
            )
            worst_routes = max(worst_routes,
                               abs(direct - via_theta))
        assert worst_routes <= 1e-12
        grad = rng.uniform(-1.0, 1.0)
        alpha = alpha_direct(grad, grid, eqs, params)
        worst_alpha = max(
            worst_alpha, abs(alpha - coeff.chi * grad)
        )
        assert worst_alpha <= 1e-12
    report(f"criterion 3: coefficients vs closed forms <= 1e-10 "
           f"(worst {worst_formula:.2e}), dual routes <= 1e-12 "
           f"(worst {worst_routes:.2e}), alpha <= 1e-12 "
           f"(worst {worst_alpha:.2e})", start, 1.0)


def test_criterion_04_moment_identity():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    grid = build_velocity_grid(1.0, 16)
    eqs = species_equilibria(grid)
    worst = 0.0
    for _ in range(100):
        params = random_params(rng)
        c, s, u = rng.uniform(0.0, 3.0, 3)
        f1 = c * eqs[0][None, :]
        f2 = s * eqs[1][None, :]
        f3 = u * eqs[2][None, :]
        g1, g2, g3 = interaction_terms(f1, f2, f3, eqs, params, grid)
        got = np.array([grid.moment0(g[0]) for g in (g1, g2, g3)])
        want = sir_rhs(SirState(c, s, u), params)
        worst = max(worst, np.max(np.abs(got - want)))
        assert worst <= 1e-12
    report(f"criterion 4: interaction moments reproduce the ODE RHS "
           f"(worst {worst:.2e}, 100 draws)", start, 1.0)


def test_criterion_05_operator_properties():
    start = time.monotonic()
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (8, 16, 32, 64):
        grid = build_velocity_grid(1.0, n)
        M = uniform_equilibrium(grid)
        sigma = 1.3
        # zero velocity average of L(g), and L annihilates M
        for _ in range(10):
            g = rng.uniform(-1.0, 1.0, n)
            worst = max(worst, abs(grid.moment0(relaxation_apply(g, M, sigma, grid))))
        worst = max(worst,
                    np.max(np.abs(relaxation_apply(M, M, sigma, grid))))
        # detailed balance and the kernel lower bound sigma*M
        K = relaxation_kernel(M, sigma, grid)
        worst = max(worst, np.max(np.abs(K * M[None, :]
                                         - K.T * M[:, None])))
        assert np.all(K >= sigma * M[:, None] - 1e-15)
        # self-adjointness in the 1/M inner product
        a, b = rng.uniform(-1.0, 1.0, (2, n))
        lhs = grid.moment0(relaxation_apply(a, M, sigma, grid) * b / M)
        rhs = grid.moment0(a * relaxation_apply(b, M, sigma, grid) / M)
        worst = max(worst, abs(lhs - rhs))
        # kernel of the operator is exactly span{M}
        A = -sigma * (np.eye(n) - np.outer(M, grid.weights))
        assert np.linalg.matrix_rank(A) == n - 1
        worst = max(worst, np.max(np.abs(A @ M)))
        assert worst <= 1e-12
    report(f"criterion 5: relaxation operator properties on 8..64 nodes "
           f"(worst {worst:.2e})", start, 5.0)


def test_criterion_06_diffusion_limit():
    start = time.monotonic()
    params = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0, chi0=0.0)
    grid = SpatialGrid(1.0, 128)
    vgrid = build_velocity_grid(1.0, 16)
    eqs = species_equilibria(vgrid)
    profile = InitialProfile("cosine", c0=1.0, s0=1.0, u0=1.0, amplitude=0.1)
    state = kin.init_local_equilibrium(profile.build(grid), eqs, vgrid, 0.05)
    snaps, _ = kin.run_kinetic(state, params, eqs, 0.1, cfl=0.8)
    wavenumber = 2.0 * np.pi
    diffusivity = params.vmax**2 / (3.0 * params.sigma1)
    closed = 1.0 + 0.1 * np.cos(wavenumber * grid.centers) * math.exp(
        -diffusivity * wavenumber**2 * 0.1
    )
    rel = np.linalg.norm(snaps[-1].c - closed) / np.linalg.norm(closed)
    assert rel <= 0.02
    report(f"criterion 6: diffusion limit at eps=0.05, 128 cells "
           f"(rel L2 {rel:.2e} <= 2e-2)", start, 120.0)


def test_criterion_07_parabolic_convergence():
    start = time.monotonic()
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
    profile = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5, amplitude=0.1)
    rep = run_convergence_study(
        params, profile, (0.4, 0.2, 0.1, 0.05), 0.2,
        snapshot_times=(0.05, 0.1, 0.15, 0.2),
        n_cells=128, n_nodes=16, ref_refine=4, cfl=0.8,
    )
    for field in ("c", "s", "u"):
        errs = rep.errors[field]
        assert all(a > b for a, b in zip(errs, errs[1:])), field
        assert rep.orders[field] >= 0.8, field
    assert rep.estimated_order >= 0.8
    report("criterion 7: parabolic micro-macro convergence, orders "
           + " ".join(f"{f}={rep.orders[f]:.2f}" for f in ("c", "s", "u")),
           start, 900.0)


def test_criterion_08_hyperbolic_convergence():
    start = time.monotonic()
    params = ModelParams(d1=0.5, d2=0.4, d3=0.6, beta=1.2, k=1.1, r=0.9,
                         chi0=0.5, q1=2, q2=2, q3=2, p=2)
    profile = InitialProfile("constant", c0=1.0, s0=0.2, u0=0.3)
    rep = run_convergence_study(
        params, profile, (0.4, 0.2, 0.1, 0.05), 1.0,
        n_cells=16, n_nodes=8,
    )
    maxes = rep.max_errors()
    assert all(a > b for a, b in zip(maxes, maxes[1:]))
    assert rep.estimated_order >= 0.8
    report(f"criterion 8: material-regime convergence to the ODE, order "
           f"{rep.estimated_order:.2f}", start, 300.0)


def test_criterion_09_macro_structural_suite():
    start = time.monotonic()
    vgrid = build_velocity_grid(1.0, 16)
    # well-balanced at the endemic state over 1e4 steps
    params = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=1.0)
    qstar = equilibria(params).qstar
    grid = SpatialGrid(1.0, 64)
    state = MacroState(np.outer(qstar.as_array(), np.ones(64)), 0.0, grid)
    coeff = build_macro_coefficients(params, vgrid)
    dt = 0.8 * stable_dt(state, coeff)
    for _ in range(10_000):
        state = macro_step(state, coeff, dt)
    drift = max(np.max(np.abs(state.c - qstar.u)),
                np.max(np.abs(state.s - qstar.v)),
                np.max(np.abs(state.u - qstar.w)))
    assert drift <= 1e-10
    # mass bookkeeping with reactions off, chemotaxis on
    params0 = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0, chi0=1.0)
    coeff0 = build_macro_coefficients(params0, vgrid)
    initial = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.2, amplitude=0.3,
                             mode=2).build(SpatialGrid(2.0, 96))
    final = run_macro(initial, coeff0, 0.5)[-1]
    mass_drift = np.max(np.abs(final.total_mass() - initial.total_mass()))
    assert mass_drift <= 1e-12
    # positivity after a chemotactically aggregating run
    assert final.c.min() >= 0 and final.s.min() >= 0 and final.u.min() >= 0
    # heat-decay accuracy
    heat = ModelParams(d1=0, d2=0, d3=0, beta=0, k=0, r=0)
    coeff_h = build_macro_coefficients(heat, vgrid)
    hgrid = SpatialGrid(1.0, 128)
    hfinal = run_macro(InitialProfile("cosine", c0=1.0, amplitude=0.1).build(hgrid),
                       coeff_h, 0.1)[-1]
    wavenumber = 2.0 * np.pi
    closed = 1.0 + 0.1 * np.cos(wavenumber * hgrid.centers) * math.exp(
        -coeff_h.Dc * wavenumber**2 * 0.1
    )
    heat_err = np.linalg.norm(hfinal.c - closed) / np.linalg.norm(closed)
    assert heat_err <= 0.01
    report(f"criterion 9: macro structure (equilibrium drift {drift:.1e}, "
           f"mass drift {mass_drift:.1e}, heat error {heat_err:.1e})",
           start, 60.0)


def test_criterion_10_cli_reproducibility(tmp_path):
    start = time.monotonic()
    configs = {
        "ode": "r = 2\nc0 = 1.2\ns0 = 0.4\nu0 = 0.9\nt_final = 0.5\ndt = 0.01\n",
        "macro": ("chi0 = 0.5\nprofile = cosine\nc0 = 1\ns0 = 0.5\nu0 = 0.5\n"
                  "n_cells = 32\nt_final = 0.02\nsnapshot_times = 0.01 0.02\n"),
        "kinetic": ("chi0 = 0.5\nprofile = cosine\nc0 = 1\ns0 = 0.5\n"
                    "u0 = 0.5\nn_cells = 32\nn_nodes = 8\nepsilon = 0.2\n"
                    "t_final = 0.02\n"),
        "converge": ("chi0 = 0.5\nprofile = cosine\nc0 = 1\ns0 = 0.5\n"
                     "u0 = 0.5\nn_cells = 32\nn_nodes = 8\nt_final = 0.05\n"
                     "eps_list = 0.4 0.2 0.1\n"),
        "coeffs": "chi0 = 1.0\n",
    }
    compared = 0
    for subcommand, text in configs.items():
        cfg = tmp_path / f"{subcommand}.cfg"
        cfg.write_text(text)
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{subcommand}_{tag}"
            assert main([subcommand, "--config", str(cfg),
                         "--out", str(out)]) == 0
            dirs.append(out)
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), (
                f"{subcommand}/{name} differs between identical runs"
            )
            compared += 1
    report(f"criterion 10: byte-identical reruns across all 5 subcommands "
           f"({compared} files compared)", start, 120.0)
