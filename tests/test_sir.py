"""Tests for the space-homogeneous ODE tier."""

import dataclasses
import math

import numpy as np
import pytest

from kinsir import (
    ModelParams,
    NegativeStateError,
    SirState,
    ValidationError,
    basic_reproduction_number,
    equilibria,
    integrate_sir,
    sir_rhs,
)


def random_params(rng, r0_range=None):
    d1, d2, d3 = rng.uniform(0.4, 2.0, 3)
    beta, k = rng.uniform(0.3, 2.0, 2)
    if r0_range is None:
        r = rng.uniform(0.2, 4.0)
    else:
        r = rng.uniform(*r0_range) * d1 * d2 * d3 / (beta * k)
    return ModelParams(d1=d1, d2=d2, d3=d3, beta=beta, k=k, r=r)


class TestReproductionNumber:
    def test_known_value(self):
        # beta*k*r/(d1*d2*d3) = 0.5*2*3 / (1*1.5*2) = 1
        p = ModelParams(d1=1.0, d2=1.5, d3=2.0, beta=0.5, k=2.0, r=3.0)
        assert basic_reproduction_number(p) == pytest.approx(1.0, abs=1e-15)

    def test_formula_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_params(rng)
            expected = p.beta * p.k * p.r / (p.d1 * p.d2 * p.d3)
            assert basic_reproduction_number(p) == expected

    def test_rejects_zero_death_rate(self):
        p = ModelParams(d1=0.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        with pytest.raises(ValidationError):
            basic_reproduction_number(p)


class TestEquilibria:
    def test_r0_two_gives_unit_endemic_state(self):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=2.0)
        rep = equilibria(p)
        assert rep.r0 == pytest.approx(2.0, abs=1e-15)
        assert rep.q0 == SirState(2.0, 0.0, 0.0)
        assert rep.qstar.u == pytest.approx(1.0, abs=1e-14)
        assert rep.qstar.v == pytest.approx(1.0, abs=1e-14)
        assert rep.qstar.w == pytest.approx(1.0, abs=1e-14)

    def test_endemic_state_exists_only_above_threshold(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            assert equilibria(random_params(rng, (0.1, 1.0))).qstar is None
            assert equilibria(random_params(rng, (1.0001, 6.0))).qstar is not None

    def test_equilibria_are_roots_of_the_rhs(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = random_params(rng, (1.05, 6.0))
            rep = equilibria(p)
            assert np.max(np.abs(sir_rhs(rep.q0, p))) <= 1e-12
            assert np.max(np.abs(sir_rhs(rep.qstar, p))) <= 1e-12


class TestRhs:
    def test_known_value(self):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        np.testing.assert_allclose(
            sir_rhs(SirState(1.0, 1.0, 1.0), p), [-1.0, 0.0, 0.0], atol=1e-15
        )

    def test_infection_term_moves_mass_from_u_to_v(self):
        p = ModelParams(d1=0.3, d2=0.7, d3=1.1, beta=1.9, k=0.5, r=0.8)
        s = SirState(1.2, 0.4, 2.0)
        rhs = sir_rhs(s, p)
        infection = p.beta * s.u * s.w
        assert rhs[0] == pytest.approx(-p.d1 * s.u - infection + p.r)
        assert rhs[1] == pytest.approx(-p.d2 * s.v + infection)
        assert rhs[2] == pytest.approx(-p.d3 * s.w + p.k * s.v)


    def test_is_the_shared_reaction_law(self):
        p = ModelParams(d1=0.3, d2=0.7, d3=1.1, beta=1.9, k=0.5, r=0.8)
        assert sir_rhs(SirState(1.2, 0.4, 2.0), p).tolist() == list(
            p.reactions(1.2, 0.4, 2.0)
        )


class TestIntegrator:
    def test_unrolled_step_is_rk4_of_the_shared_reaction_law(self):
        # integrate_sir writes ModelParams.reactions out on scalars; each of
        # its steps must equal RK4 written with reactions on an array state
        rng = np.random.default_rng(23)
        h = 0.01
        for _ in range(200):
            p = random_params(rng)
            y = rng.uniform(0.1, 2.0, 3)

            def f(state):
                return np.array(p.reactions(*state))

            a = f(y)
            b = f(y + 0.5 * h * a)
            c = f(y + 0.5 * h * b)
            d = f(y + h * c)
            expected = y + h * (a + 2.0 * b + 2.0 * c + d) / 6.0
            got = integrate_sir(SirState(*y), p, h, h).states[-1]
            assert np.array_equal(got, expected)

    def test_trajectory_shape_and_times(self):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        tr = integrate_sir(SirState(1.0, 0.1, 0.1), p, 1.0, 0.3)
        assert len(tr.times) == math.ceil(1.0 / 0.3) + 1
        assert tr.times[0] == 0.0
        assert tr.times[-1] == 1.0
        assert tr.states.shape == (len(tr.times), 3)

    def test_zero_horizon_returns_initial_only(self):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        tr = integrate_sir(SirState(0.5, 0.25, 0.125), p, 0.0, 0.1)
        assert tr.states.shape == (1, 3)
        np.testing.assert_array_equal(tr.states[0], [0.5, 0.25, 0.125])

    @pytest.mark.parametrize("t_final, dt", [(1.0, 1e13), (1e-16, 0.01)])
    def test_a_positive_horizon_takes_at_least_one_step(self, t_final, dt):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        tr = integrate_sir(SirState(0.5, 0.25, 0.125), p, t_final, dt)
        assert tr.times.tolist() == [0.0, t_final]
        assert tr.states.shape == (2, 3)
        assert not np.array_equal(tr.states[1], tr.states[0])

    def test_linear_decay_matches_exponential(self):
        # beta = 0 decouples u: u(t) = u0*exp(-d1*t), solvable in closed form.
        p = ModelParams(d1=1.3, d2=1.0, d3=1.0, beta=0.0, k=0.0, r=0.0)
        tr = integrate_sir(SirState(1.0, 0.0, 0.0), p, 1.0, 1e-3)
        assert abs(tr.final.u - math.exp(-1.3)) < 1e-6

    def test_fourth_order_convergence(self):
        p = ModelParams(d1=1.3, d2=1.0, d3=1.0, beta=0.0, k=0.0, r=0.0)
        errs = []
        for dt in (0.2, 0.1, 0.05):
            tr = integrate_sir(SirState(1.0, 0.0, 0.0), p, 1.0, dt)
            errs.append(abs(tr.final.u - math.exp(-1.3)))
        orders = np.diff(-np.log2(errs))
        assert np.all(orders > 3.7) and np.all(orders < 4.3)

    def test_negative_overshoot_raises(self):
        # A violent infection burst with dt = 1 drives u far below zero.
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=40.0, k=1.0, r=0.0)
        with pytest.raises(NegativeStateError):
            integrate_sir(SirState(1.0, 0.0, 1.0), p, 5.0, 1.0)

    def test_states_stay_nonnegative(self):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=2.0)
        tr = integrate_sir(SirState(3.0, 0.01, 0.0), p, 50.0, 0.01)
        assert tr.states.min() >= 0.0

    def test_rejects_bad_steps(self):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        with pytest.raises(ValidationError):
            integrate_sir(SirState(1.0, 0.0, 0.0), p, 1.0, 0.0)
        with pytest.raises(ValidationError):
            integrate_sir(SirState(1.0, 0.0, 0.0), p, -1.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_nonfinite_step(self, bad):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        with pytest.raises(ValidationError, match="finite"):
            integrate_sir(SirState(1.0, 0.0, 0.0), p, 1.0, bad)


    @pytest.mark.parametrize("t_final", [math.nan, math.inf])
    def test_rejects_a_nonfinite_horizon(self, t_final):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        with pytest.raises(ValidationError, match="t_final must be finite"):
            integrate_sir(SirState(1.0, 0.0, 0.0), p, t_final, 0.1)

    @pytest.mark.parametrize("start", [(1.0, -1e-3, 0.0), (math.nan, 0.0, 0.0),
                                       (1.0, 0.0, math.inf)])
    def test_rejects_a_negative_or_nonfinite_start(self, start):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        with pytest.raises(ValidationError, match="initial state"):
            integrate_sir(SirState(*start), p, 1.0, 0.1)


class TestThresholdDynamics:
    """Long-time behaviour on each side of R0 = 1 (small sample; the
    acceptance suite runs the full 20+20 sweep)."""

    def test_supercritical_runs_reach_the_endemic_state(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            p = random_params(rng, (1.2, 5.0))
            qs = equilibria(p).qstar
            init = SirState(
                qs.u * rng.uniform(0.5, 1.5),
                qs.v * rng.uniform(0.5, 1.5),
                qs.w * rng.uniform(0.5, 1.5),
            )
            t_final = 1000.0 * max(1 / p.d1, 1 / p.d2, 1 / p.d3)
            rate = max(p.d1 + 2 * p.beta * qs.w, p.d2, p.d3, p.k, 2 * p.beta * qs.u)
            tr = integrate_sir(init, p, t_final, 0.1 / rate)
            err = np.max(np.abs(tr.final.as_array() - qs.as_array()))
            assert err < 1e-3

    def test_subcritical_runs_reach_the_infection_free_state(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            p = random_params(rng, (0.2, 0.95))
            q0 = equilibria(p).q0
            init = SirState(
                q0.u * rng.uniform(0.5, 1.5),
                q0.u * rng.uniform(0.05, 0.5),
                q0.u * rng.uniform(0.05, 0.5),
            )
            t_final = 1000.0 * max(1 / p.d1, 1 / p.d2, 1 / p.d3)
            rate = max(p.d1 + p.beta * q0.u, p.d2, p.d3, p.k, p.beta * q0.u)
            tr = integrate_sir(init, p, t_final, 0.1 / rate)
            err = np.max(np.abs(tr.final.as_array() - q0.as_array()))
            assert err < 1e-3


class TestParamValidation:
    def test_scaling_exponents_must_be_positive_integers(self):
        with pytest.raises(ValidationError, match="q1"):
            ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1, q1=0)
        with pytest.raises(ValidationError, match="p"):
            ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1, p=0)

    def test_rates_must_be_nonnegative(self):
        with pytest.raises(ValidationError, match="beta"):
            ModelParams(d1=1, d2=1, d3=1, beta=-0.1, k=1, r=1)

    def test_relaxation_rates_must_be_positive(self):
        with pytest.raises(ValidationError, match="sigma2"):
            ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1, sigma2=0.0)
        with pytest.raises(ValidationError, match="vmax"):
            ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1, vmax=0.0)

    def test_replace_revalidates(self):
        p = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1)
        assert dataclasses.replace(p, r=3.0).r == 3.0
        with pytest.raises(ValidationError):
            dataclasses.replace(p, sigma1=-1.0)
