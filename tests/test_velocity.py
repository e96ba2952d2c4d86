"""Tests for velocity-space quadrature, turning operators and coefficients."""

import math

import numpy as np
import pytest

from kinsir import ModelParams, OddNodeCountError, ValidationError
from kinsir.errors import ConsistencyError
from kinsir.sir import SirState, sir_rhs
from kinsir.velocity import (
    alpha_direct,
    build_velocity_grid,
    chemotactic_sensitivity,
    diffusion_tensor,
    diffusion_tensor_from_theta,
    interaction_terms,
    invert_relaxation,
    perturbation_apply,
    psi_profile,
    relaxation_apply,
    relaxation_kernel,
    solve_theta,
    species_equilibria,
    transport_coefficients,
    uniform_equilibrium,
)


def params_with(**kw):
    base = dict(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
    base.update(kw)
    return ModelParams(**base)


class TestGrid:
    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    @pytest.mark.parametrize("vmax", [1.0, 2.5])
    def test_grid_invariants(self, n, vmax):
        g = build_velocity_grid(vmax, n)
        assert g.n_nodes == n
        assert np.all(g.weights > 0)
        # exact +/-v pairing by construction
        np.testing.assert_array_equal(g.nodes, -g.nodes[::-1])
        np.testing.assert_array_equal(g.weights, g.weights[::-1])
        assert np.all(np.abs(g.nodes) < vmax)
        assert np.all(g.nodes != 0.0)
        assert abs(g.weights.sum() - 2 * vmax) < 1e-13 * vmax

    def test_polynomial_moments_are_exact(self):
        g = build_velocity_grid(1.0, 8)
        assert abs(g.moment0(g.nodes**2) - 2.0 / 3.0) < 1e-13
        assert abs(g.moment0(g.nodes**4) - 2.0 / 5.0) < 1e-13
        assert abs(g.moment0(np.ones(8)) - 2.0) < 1e-13
        g = build_velocity_grid(2.5, 12)
        assert abs(g.moment0(g.nodes**6) - 2 * 2.5**7 / 7) < 1e-10

    def test_odd_moments_vanish(self):
        g = build_velocity_grid(1.5, 16)
        for power in (1, 3, 5):
            assert abs(g.moment0(g.nodes**power)) < 1e-14

    def test_node_count_validation(self):
        with pytest.raises(OddNodeCountError):
            build_velocity_grid(1.0, 9)
        with pytest.raises(ValidationError):
            build_velocity_grid(1.0, 2)
        with pytest.raises(ValidationError):
            build_velocity_grid(-1.0, 8)

    @pytest.mark.parametrize("vmax, rule", [(math.nan, "finite"), (math.inf, "finite"),
                                            (-math.inf, "> 0")])
    def test_vmax_must_be_finite(self, vmax, rule):
        with pytest.raises(ValidationError, match=f"^vmax must be {rule}$"):
            build_velocity_grid(vmax, 8)


class TestEquilibrium:
    def test_uniform_value(self):
        g = build_velocity_grid(1.0, 16)
        M = uniform_equilibrium(g)
        np.testing.assert_allclose(M, 0.5, rtol=1e-14)

    @pytest.mark.parametrize("n", [8, 32])
    def test_mass_flux_positivity(self, n):
        g = build_velocity_grid(1.7, n)
        M = uniform_equilibrium(g)
        assert np.all(M > 0)
        assert abs(g.moment0(M) - 1.0) < 1e-14
        assert abs(g.moment1(M)) < 1e-14

    def test_the_discrete_mass_is_one_to_within_two_and_a_half_epsilons(self):
        # not to the last bit: over vmax 1e-3 .. 1e3 and 4 .. 64 nodes the
        # sum misses 1 on a third of the grids, by at most 2.5 * 2^-52
        eps = np.finfo(float).eps
        misses = [abs(g.moment0(uniform_equilibrium(g)) - 1.0) / eps
                  for g in (build_velocity_grid(float(vmax), n)
                            for n in range(4, 65, 2) for vmax in np.logspace(-3, 3, 13))]
        assert max(misses) <= 2.5
        assert 0.25 < np.mean(np.array(misses) > 0) < 0.4
        g = build_velocity_grid(1.0, 8)
        assert g.moment0(uniform_equilibrium(g)) == 1.0 + eps

    @pytest.mark.parametrize("n", [8, 32])
    def test_species_rows_are_the_uniform_profile(self, n):
        g = build_velocity_grid(1.7, n)
        eqs = species_equilibria(g)
        assert eqs.shape == (3, n)
        for M in eqs:
            assert np.array_equal(M, uniform_equilibrium(g))
            assert np.all(M > 0)
            assert abs(g.moment0(M) - 1.0) < 1e-14
            assert abs(g.moment1(M)) < 1e-14


class TestRelaxation:
    def test_zero_mean_for_random_inputs(self):
        g = build_velocity_grid(1.0, 32)
        M = uniform_equilibrium(g)
        rng = np.random.default_rng(10)
        for _ in range(100):
            f = rng.uniform(-1.0, 2.0, g.n_nodes)
            out = relaxation_apply(f, M, 1.4, g)
            assert abs(g.moment0(out)) <= 1e-12

    def test_annihilates_equilibrium(self):
        g = build_velocity_grid(1.0, 16)
        M = uniform_equilibrium(g)
        out = relaxation_apply(3.7 * M, M, 2.0, g)
        assert np.max(np.abs(out)) < 1e-14

    def test_matches_kernel_form(self):
        # dual route: closed-form relaxation vs the gain/loss quadrature of
        # its kernel, sum_k w_k K[j,k] f_k - (sum_k w_k K[k,j]) f_j
        g = build_velocity_grid(1.0, 24)
        M = uniform_equilibrium(g)
        K = relaxation_kernel(M, 0.8, g)
        rng = np.random.default_rng(11)
        f = rng.uniform(0.0, 1.0, g.n_nodes)
        gain_loss = K @ (g.weights * f) - (g.weights @ K) * f
        np.testing.assert_allclose(
            gain_loss, relaxation_apply(f, M, 0.8, g), atol=1e-12
        )

    def test_detailed_balance_and_lower_bound(self):
        g = build_velocity_grid(1.0, 16)
        M = uniform_equilibrium(g)
        K = relaxation_kernel(M, 1.3, g)
        np.testing.assert_array_equal(K * M[None, :], K.T * M[:, None])
        assert np.all(K >= 1.3 * M[:, None])
        np.testing.assert_array_equal(K, np.broadcast_to(1.3 * M[:, None], K.shape))

    def test_self_adjointness_in_weighted_inner_product(self):
        g = build_velocity_grid(1.0, 32)
        M = uniform_equilibrium(g)
        rng = np.random.default_rng(12)
        for _ in range(25):
            a, b = rng.uniform(-1.0, 1.0, (2, g.n_nodes))
            lhs = g.moment0(relaxation_apply(a, M, 1.0, g) * b / M)
            rhs = g.moment0(a * relaxation_apply(b, M, 1.0, g) / M)
            assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_kernel_is_spanned_by_equilibrium(self, n):
        g = build_velocity_grid(1.0, n)
        M = uniform_equilibrium(g)
        A = -1.0 * (np.eye(n) - np.outer(M, g.weights))
        assert np.linalg.matrix_rank(A) == n - 1
        assert np.max(np.abs(A @ M)) < 1e-13

    def test_solvability_requires_zero_mean(self):
        g = build_velocity_grid(1.0, 16)
        M = uniform_equilibrium(g)
        rng = np.random.default_rng(13)
        f = rng.uniform(-1.0, 1.0, g.n_nodes)
        f -= M * g.moment0(f)  # project onto the operator range
        sol = invert_relaxation(f, M, 2.0, g)
        assert abs(g.moment0(sol)) < 1e-13
        np.testing.assert_allclose(relaxation_apply(sol, M, 2.0, g), f, atol=1e-13)
        with pytest.raises(ValidationError):
            invert_relaxation(f + 0.1 * M, M, 2.0, g)


    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_checks_are_relative_to_the_right_side(self, scale):
        g = build_velocity_grid(1.0, 16)
        M = uniform_equilibrium(g)
        f = scale * np.random.default_rng(19).uniform(-1.0, 1.0, g.n_nodes)
        f -= M * g.moment0(f)
        np.testing.assert_array_equal(invert_relaxation(f, M, 2.0, g), -f / 2.0)
        with pytest.raises(ValidationError):
            invert_relaxation(f + 1e-6 * scale * M, M, 2.0, g)


class TestTheta:
    def test_closed_form(self):
        g = build_velocity_grid(1.0, 16)
        M = uniform_equilibrium(g)
        theta = solve_theta(M, 2.0, g)
        np.testing.assert_allclose(theta, -g.nodes / 4.0, atol=1e-14)

    def test_residual_and_mean(self):
        g = build_velocity_grid(2.0, 32)
        M = uniform_equilibrium(g)
        theta = solve_theta(M, 0.7, g)
        residual = relaxation_apply(theta, M, 0.7, g) - g.nodes * M
        assert np.max(np.abs(residual)) <= 1e-12
        assert abs(g.moment0(theta)) <= 1e-12

    @pytest.mark.parametrize("vmax, sigma, n", [(1000.0, 1e-4, 16), (37.0, 1e-4, 4),
                                                (1e-3, 1e4, 8), (1e5, 1e-4, 64)])
    def test_checks_scale_with_theta(self, vmax, sigma, n):
        g = build_velocity_grid(vmax, n)
        theta = solve_theta(uniform_equilibrium(g), sigma, g)
        assert np.max(np.abs(theta)) == pytest.approx(0.5 / sigma * g.nodes[-1] / vmax)

    def test_odd_symmetry(self):
        g = build_velocity_grid(1.0, 16)
        theta = solve_theta(uniform_equilibrium(g), 1.0, g)
        np.testing.assert_array_equal(theta, -theta[::-1])


class TestDiffusion:
    def test_unit_values(self):
        g = build_velocity_grid(1.0, 8)
        M = uniform_equilibrium(g)
        assert diffusion_tensor(M, 1.0, g) == pytest.approx(1.0 / 3.0, abs=1e-13)
        g = build_velocity_grid(2.0, 8)
        M = uniform_equilibrium(g)
        assert diffusion_tensor(M, 4.0, g) == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_matches_analytic_formula_randomized(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            vmax = rng.uniform(0.3, 3.0)
            sigma = rng.uniform(0.2, 5.0)
            g = build_velocity_grid(vmax, 16)
            M = uniform_equilibrium(g)
            D = diffusion_tensor(M, sigma, g)
            assert abs(D - vmax**2 / (3 * sigma)) <= 1e-10 * max(1.0, vmax**2 / sigma)

    def test_two_routes_agree(self):
        g = build_velocity_grid(1.3, 24)
        M = uniform_equilibrium(g)
        theta = solve_theta(M, 0.9, g)
        direct = diffusion_tensor(M, 0.9, g)
        via_theta = diffusion_tensor_from_theta(theta, g)
        assert abs(direct - via_theta) <= 1e-12

    def test_positive_definite(self):
        g = build_velocity_grid(0.5, 8)
        D = diffusion_tensor(uniform_equilibrium(g), 3.0, g)
        assert isinstance(D, float) and D > 0


class TestGradientBias:
    def test_psi_is_linear_in_v(self):
        g = build_velocity_grid(1.0, 16)
        M2 = uniform_equilibrium(g)
        np.testing.assert_allclose(psi_profile(M2, 2.0, g), 2.0 * g.nodes, atol=1e-12)

    def test_psi_antisymmetry(self):
        g = build_velocity_grid(1.0, 12)
        psi = psi_profile(uniform_equilibrium(g), 1.5, g)
        np.testing.assert_allclose(psi, -psi[::-1], atol=1e-15)

    def test_sensitivity_known_values(self):
        g = build_velocity_grid(1.0, 16)
        chi = chemotactic_sensitivity(g, params_with(chi0=1.0, sigma1=1.0))
        assert chi == pytest.approx(2.0 / 3.0, abs=1e-13)
        chi = chemotactic_sensitivity(g, params_with(chi0=3.0, sigma1=2.0))
        assert chi == pytest.approx(1.0, abs=1e-13)

    def test_sensitivity_formula_randomized(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            vmax = rng.uniform(0.3, 2.5)
            chi0 = rng.uniform(0.0, 3.0)
            sigma1 = rng.uniform(0.2, 4.0)
            g = build_velocity_grid(vmax, 16)
            p = params_with(chi0=chi0, sigma1=sigma1)
            chi = chemotactic_sensitivity(g, p)
            expected = 2 * chi0 * vmax**3 / (3 * sigma1)
            assert abs(chi - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_perturbation_on_equilibrium(self):
        g = build_velocity_grid(1.0, 16)
        M1 = uniform_equilibrium(g)
        out = perturbation_apply(M1, 1.0, 1.0, g)
        np.testing.assert_allclose(out, g.nodes, atol=1e-12)

    def test_perturbation_conserves_mass(self):
        g = build_velocity_grid(1.0, 24)
        rng = np.random.default_rng(16)
        for _ in range(50):
            f = rng.uniform(0.0, 2.0, g.n_nodes)
            grad = rng.uniform(-3.0, 3.0)
            assert abs(g.moment0(perturbation_apply(f, grad, 1.7, g))) <= 1e-12

    def test_perturbation_is_the_gain_minus_loss_quadrature_bit_for_bit(self):
        # the per-species reference runs this operator and the kinetic step
        # writes the same operations out in place, so pin it to the formula
        # written out
        g = build_velocity_grid(1.3, 16)
        rng = np.random.default_rng(19)
        f1 = rng.uniform(0.0, 2.0, (32, g.n_nodes))
        grad = rng.uniform(-3.0, 3.0, 32)
        chi0 = 0.7
        gain = chi0 * (grad * g.moment0(f1))[:, None] * g.nodes
        loss = chi0 * g.moment1(np.ones(g.n_nodes)) * grad[:, None] * f1
        got = perturbation_apply(f1, grad, chi0, g)
        assert got.tobytes() == (gain - loss).tobytes()

    def test_alpha_equals_chi_times_gradient(self):
        g = build_velocity_grid(1.0, 16)
        eqs = species_equilibria(g)
        p = params_with(chi0=1.0, sigma1=1.0)
        alpha = alpha_direct(0.7, g, eqs, p)
        assert alpha == pytest.approx(0.7 * 2.0 / 3.0, abs=1e-13)

    def test_alpha_consistency_guard_fires_on_corrupt_sensitivity(self):
        g = build_velocity_grid(1.0, 16)
        eqs = species_equilibria(g)
        # corrupt the mass of the equilibrium used by the direct route only
        bad = (1.2 * eqs[0], eqs[1], eqs[2])
        with pytest.raises(ConsistencyError):
            alpha_direct(1.0, g, bad, params_with(chi0=1.0))


class TestInteractions:
    def test_moment_identity_randomized(self):
        g = build_velocity_grid(1.0, 16)
        eqs = species_equilibria(g)
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = ModelParams(
                d1=rng.uniform(0.1, 2),
                d2=rng.uniform(0.1, 2),
                d3=rng.uniform(0.1, 2),
                beta=rng.uniform(0.1, 2),
                k=rng.uniform(0.1, 2),
                r=rng.uniform(0.0, 2),
            )
            c, s, u = rng.uniform(0.0, 3.0, 3)
            f1, f2, f3 = (eq * rho for eq, rho in zip(eqs, (c, s, u)))
            g1, g2, g3 = interaction_terms(f1, f2, f3, eqs, p, g)
            moments = np.array([g.moment0(g1), g.moment0(g2), g.moment0(g3)])
            expected = sir_rhs(SirState(c, s, u), p)
            assert np.max(np.abs(moments - expected)) <= 1e-12

    def test_terms_are_the_shared_reaction_law_over_the_measure(self):
        # interaction_terms calls ModelParams.reactions itself; pin the call
        g = build_velocity_grid(1.3, 16)
        eqs = species_equilibria(g)
        rng = np.random.default_rng(18)
        p = params_with(d1=0.3, d2=0.7, d3=1.1, beta=1.9, k=0.5, r=0.8)
        fs = [rng.uniform(0.0, 2.0, (8, g.n_nodes)) for _ in eqs]
        law = p.reactions(*(f / eq for f, eq in zip(fs, eqs)))
        for term, expected in zip(interaction_terms(*fs, eqs, p, g), law):
            assert np.array_equal(term, expected / g.measure)

    def test_terms_are_isotropic_at_local_equilibrium(self):
        g = build_velocity_grid(1.0, 16)
        eqs = species_equilibria(g)
        p = params_with()
        f1, f2, f3 = (eq * rho for eq, rho in zip(eqs, (1.2, 0.3, 0.7)))
        for term in interaction_terms(f1, f2, f3, eqs, p, g):
            assert np.max(np.abs(term - term.mean())) < 1e-14


class TestTransportCoefficients:
    def test_assembly_matches_individual_routes(self):
        g = build_velocity_grid(1.0, 16)
        p = params_with(sigma1=1.0, sigma2=2.0, sigma3=4.0, chi0=1.5)
        tc = transport_coefficients(p, g)
        assert tc.Dc == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert tc.Ds == pytest.approx(1.0 / 6.0, abs=1e-13)
        assert tc.Du == pytest.approx(1.0 / 12.0, abs=1e-13)
        assert tc.chi == pytest.approx(1.0, abs=1e-13)
        theta2 = solve_theta(species_equilibria(g)[1], p.sigma2, g)
        np.testing.assert_allclose(theta2, -g.nodes * 0.5 / 2.0, atol=1e-14)
        for D in (tc.Dc, tc.Ds, tc.Du):
            assert D > 0

    def test_routes_agree_over_the_valid_range(self):
        # the dual-route checks must not fire on any valid configuration
        for vmax in (1e-3, 1.0, 1e5):
            for sigma in (1e-4, 1.0, 1e4):
                for n in (4, 16, 64):
                    g = build_velocity_grid(vmax, n)
                    p = params_with(sigma1=sigma, sigma2=sigma, sigma3=sigma,
                                    chi0=2.0, vmax=vmax)
                    tc = transport_coefficients(p, g)
                    expected = vmax**2 / (3 * sigma)
                    assert tc.Dc == pytest.approx(expected, rel=1e-10)

    def test_disagreeing_routes_raise(self, monkeypatch):
        import kinsir.velocity as velocity

        original = velocity.diffusion_tensor
        monkeypatch.setattr(velocity, "diffusion_tensor",
                            lambda M, sigma, grid: original(M, sigma, grid) * 1.001)
        with pytest.raises(ConsistencyError):
            transport_coefficients(params_with(), build_velocity_grid(1.0, 8))

    # math.isclose: any nan, or inf against -inf, is no agreement
    @pytest.mark.parametrize("direct, via_theta", [
        (math.inf, -math.inf), (0.5, math.nan), (math.nan, math.nan)])
    def test_routes_that_are_not_finite_disagree(self, monkeypatch, direct, via_theta):
        import kinsir.velocity as velocity

        monkeypatch.setattr(velocity, "diffusion_tensor", lambda M, sigma, grid: direct)
        monkeypatch.setattr(velocity, "diffusion_tensor_from_theta",
                            lambda theta, grid: via_theta)
        with pytest.raises(ConsistencyError, match="of species 1: direct"):
            transport_coefficients(params_with(), build_velocity_grid(1.0, 8))

    @pytest.mark.parametrize("species", [1, 2, 3])
    def test_disagreement_names_the_species(self, monkeypatch, species):
        import kinsir.velocity as velocity

        sigmas = (1.0, 2.0, 4.0)
        original = velocity.diffusion_tensor

        def skewed(M, sigma, grid):
            scale = 1.001 if sigma == sigmas[species - 1] else 1.0
            return original(M, sigma, grid) * scale

        monkeypatch.setattr(velocity, "diffusion_tensor", skewed)
        p = params_with(sigma1=sigmas[0], sigma2=sigmas[1], sigma3=sigmas[2])
        with pytest.raises(ConsistencyError, match=f"of species {species}: direct"):
            transport_coefficients(p, build_velocity_grid(1.0, 8))
