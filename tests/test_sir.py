"""Tests for the space-homogeneous ODE tier."""

import dataclasses
import math
import tracemalloc

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
    integrate_sir_blocks,
    sir,
    sir_rhs,
)
from kinsir.grids import NEGATIVITY_TOL


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

    def test_rejects_death_rates_whose_product_underflows(self):
        p = ModelParams(d1=1e-110, d2=1e-110, d3=1e-110, beta=1.0, k=1.0, r=1.0)
        with pytest.raises(ValidationError, match=r"^d1\*d2\*d3 must be > 0"):
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
        for _ in range(200):
            p = random_params(rng)
            y = rng.uniform(0.1, 2.0, 3)
            want, _ = self.rk4_of_the_shared_law(y, p, 0.01, 1)
            got = integrate_sir(SirState(*y), p, 0.01, 0.01)
            assert got.states.tobytes() == want.tobytes()

    @staticmethod
    def rk4_of_the_shared_law(y, p, t_final, n_steps):
        """integrate_sir's trajectory and clamp count, written with
        ModelParams.reactions on an array state."""
        def f(state):
            return np.array(p.reactions(*state))

        h = t_final / n_steps
        states, clamps = [y], 0
        for _ in range(n_steps):
            a = f(y)
            b = f(y + 0.5 * h * a)
            c = f(y + 0.5 * h * b)
            d = f(y + h * c)
            y = y + h * (a + 2.0 * b + 2.0 * c + d) / 6.0
            if y.min() < 0.0:
                assert y.min() >= -NEGATIVITY_TOL
                y = np.array([max(x, 0.0) for x in y.tolist()])
                clamps += 1
            states.append(y)
        return np.array(states), clamps

    # counts on both sides of 1024, where a store that buffered 1024 rows
    # would flush
    @pytest.mark.parametrize("n_steps", [1023, 1024, 1025, 2048])
    def test_whole_trajectories_are_rk4_of_the_shared_reaction_law(self, n_steps):
        rng = np.random.default_rng(n_steps)
        for _ in range(2):
            p = random_params(rng)
            y = rng.uniform(0.1, 2.0, 3)
            t_final = n_steps * 0.01
            got = integrate_sir(SirState(*y), p, t_final, 0.01)
            want, clamps = self.rk4_of_the_shared_law(y, p, t_final, n_steps)
            assert clamps == 0
            assert got.states.tobytes() == want.tobytes()
            times = np.linspace(0.0, t_final, n_steps + 1)
            assert got.times.tobytes() == times.tobytes()

    def test_clamped_trajectories_are_rk4_of_the_shared_reaction_law(self):
        # with d2*h = d3*h = 2, one RK4 step turns infected cells v into
        # virus w with the weight 1 - 2 + 2 - 4/3 < 0: w from a trace of v
        # comes out just below zero, and is rounded up to zero, every step
        p = ModelParams(d1=1.0, d2=20.0, d3=20.0, beta=1.0, k=1.0, r=1.0)
        y = np.array([1.0, 1e-11, 0.0])
        got = integrate_sir(SirState(*y), p, 30.0, 0.1)
        want, clamps = self.rk4_of_the_shared_law(y, p, 30.0, 300)
        assert clamps == 300
        assert got.states.tobytes() == want.tobytes()

    def test_a_run_allocates_only_its_trajectory(self):
        # a store that held the whole trajectory as Python floats would
        # cost about five times the arrays
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=2.0)
        tracemalloc.start()
        try:
            tr = integrate_sir(SirState(3.0, 0.01, 0.0), p, 10.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.states.shape == (10_001, 3)
        assert peak < 1.1 * (tr.states.nbytes + tr.times.nbytes)

    def test_numpy_scalar_arguments_give_the_python_float_run_bit_for_bit(self):
        # criterion 2 draws its rates with rng.uniform and derives t_final
        # and dt from them: numpy float64 scalars throughout
        rng = np.random.default_rng(202)
        for _ in range(4):
            p = random_params(rng, (1.2, 5.0))
            assert isinstance(p.d1, np.float64) and isinstance(p.r, np.float64)
            floats = ModelParams(**{name: float(getattr(p, name)) for name in
                                    ("d1", "d2", "d3", "beta", "k", "r")})
            init = SirState(*equilibria(p).qstar.as_array() * rng.uniform(0.5, 1.5, 3))
            t_final = 50.0 * max(1 / p.d1, 1 / p.d2, 1 / p.d3)
            dt = 0.1 / max(p.d1, p.d2, p.d3, p.k)
            assert isinstance(t_final, np.float64) and isinstance(dt, np.float64)
            scalars = integrate_sir(init, p, t_final, dt)
            plain = integrate_sir(init, floats, float(t_final), float(dt))
            assert scalars.times.tobytes() == plain.times.tobytes()
            assert scalars.states.tobytes() == plain.states.tobytes()

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

    @pytest.mark.parametrize("start, rates, message", [
        # the infection term overflows, and the state becomes nan
        ((1e200, 1e200, 1e200), dict(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0),
         "state component nan at t = 1 is not finite"),
        # every RK4 stage is finite, but the weighted sum of the stages
        # overflows
        ((0.0, 0.0, 0.0), dict(d1=0.0, d2=0.0, d3=0.0, beta=0.0, k=0.0, r=1e308),
         "state component inf at t = 1 is not finite"),
    ])
    def test_states_that_are_not_finite_raise(self, start, rates, message):
        with pytest.raises(NegativeStateError, match=f"^{message}$"):
            integrate_sir(SirState(*start), ModelParams(**rates), 2.0, 1.0)

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

    # step counts that numpy rejects before it allocates; the last overflows
    @pytest.mark.parametrize("t_final, dt", [(1.0, 1e-300), (1e300, 1.0),
                                             (2.0 ** 60, 1.0), (1e300, 1e-300)])
    def test_rejects_more_steps_than_an_array_can_hold(self, t_final, dt):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        with pytest.raises(ValidationError, match="steps is more than"):
            integrate_sir(SirState(1.0, 0.0, 0.0), p, t_final, dt)

    @pytest.mark.parametrize("start", [(1.0, -1e-3, 0.0), (math.nan, 0.0, 0.0),
                                       (1.0, 0.0, math.inf)])
    def test_rejects_a_negative_or_nonfinite_start(self, start):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        with pytest.raises(ValidationError, match="initial state"):
            integrate_sir(SirState(*start), p, 1.0, 0.1)


class TestBlocks:
    """integrate_sir_blocks: the trajectory in blocks of at most _BLOCK_ROWS
    rows, each block's first step continuing the previous block's last."""

    @staticmethod
    def joined(blocks):
        times, states = zip(*blocks)
        return np.concatenate(times), np.concatenate(states)

    # 2, 7, 8, 9 and 20 rows: less than a block, one block exactly, one
    # and two rows past it, and a partial third block
    @pytest.mark.parametrize("n_steps", [1, 6, 7, 8, 19])
    def test_blocks_join_to_the_whole_trajectory_bit_for_bit(self, monkeypatch,
                                                             n_steps):
        monkeypatch.setattr(sir, "_BLOCK_ROWS", 7)
        rng = np.random.default_rng(n_steps)
        # a random run, and one whose w is rounded up to zero every step
        # (see test_clamped_trajectories_are_rk4_of_the_shared_reaction_law)
        runs = [(random_params(rng), rng.uniform(0.1, 2.0, 3), 0.01),
                (ModelParams(d1=1.0, d2=20.0, d3=20.0, beta=1.0, k=1.0, r=1.0),
                 np.array([1.0, 1e-11, 0.0]), 0.1)]
        for p, y, dt in runs:
            blocks = list(integrate_sir_blocks(SirState(*y), p, n_steps * dt, dt))
            assert [len(t) for t, _ in blocks[:-1]] == [7] * (len(blocks) - 1)
            assert all(len(t) == len(s) for t, s in blocks)
            times, states = self.joined(blocks)
            whole = integrate_sir(SirState(*y), p, n_steps * dt, dt)
            assert times.tobytes() == whole.times.tobytes()
            assert states.tobytes() == whole.states.tobytes()
        assert whole.states[1:, 2].tolist() == [0.0] * n_steps

    def test_times_are_linspace_bit_for_bit(self):
        # integrate_sir's times were np.linspace(0, t_final, n + 1) up to
        # this formula; each block computes its own slice of it
        for t_final in (1e-3, 0.1, 1 / 3, 0.5, 1.0, 2.5, 7.0, 70.0, 123.456,
                        500.0):
            for n in (1, 2, 3, 7, 10, 99, 1000, 4096, 65_536, 70_000, 500_000):
                want = np.linspace(0.0, t_final, n + 1)
                h = t_final / n
                got = sir._times(0, n + 1, h, t_final, n)
                assert got.tobytes() == want.tobytes(), (t_final, n)
                split = n // 2
                head = sir._times(0, split, h, t_final, n)
                tail = sir._times(split, n + 1, h, t_final, n)
                assert np.concatenate([head, tail]).tobytes() == want.tobytes()

    def test_a_zero_horizon_is_one_block_of_the_start(self):
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        [(times, states)] = integrate_sir_blocks(SirState(0.5, 0.25, 0.125),
                                                 p, 0.0, 0.1)
        assert times.tolist() == [0.0]
        assert states.tolist() == [[0.5, 0.25, 0.125]]

    @pytest.mark.parametrize("start, t_final, dt, message", [
        ((1.0, 0.0, 0.0), 1.0, 0.0, "dt must be finite"),
        ((1.0, 0.0, 0.0), math.nan, 0.1, "t_final must be finite"),
        ((1.0, -1e-3, 0.0), 1.0, 0.1, "initial state"),
        ((1.0, 0.0, 0.0), 1e300, 1e-300, "steps is more than"),
    ])
    def test_arguments_are_checked_before_the_first_block(self, start, t_final,
                                                          dt, message):
        # the call itself raises, with integrate_sir's error and message
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        with pytest.raises(ValidationError, match=message) as whole:
            integrate_sir(SirState(*start), p, t_final, dt)
        with pytest.raises(ValidationError) as blocks:
            integrate_sir_blocks(SirState(*start), p, t_final, dt)
        assert str(blocks.value) == str(whole.value)

    def test_peak_memory_of_the_blocks_does_not_grow_with_the_step_count(
            self, monkeypatch):
        # the RK4 side of the CLI's memory bound: the consumer holds a block
        # or two of 1,024 rows (32 KB each) at any step count, where a whole
        # trajectory costs 288 KB more at 12,000 steps than at 3,000
        monkeypatch.setattr(sir, "_BLOCK_ROWS", 1024)
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=2.0)
        peaks = []
        for n_steps in (3_000, 3_000, 12_000):  # the first run warms up
            tracemalloc.start()
            try:
                for _ in integrate_sir_blocks(SirState(1.2, 0.4, 0.9), p,
                                              n_steps * 1e-3, 1e-3):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] < peaks[1] + 1024 * 32

    def test_a_negative_state_in_a_later_block_names_its_time(self, monkeypatch):
        # h*d1 = 3 is beyond RK4's stability interval: the start's deficit
        # below r/d1 = 1 grows by 1.375 a step, and u goes below zero at
        # step 15, in the third block of 7 rows
        monkeypatch.setattr(sir, "_BLOCK_ROWS", 7)
        p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0, k=1.0, r=1.0)
        start = SirState(0.99, 0.0, 0.0)
        with pytest.raises(NegativeStateError, match="at t = 45;") as whole:
            integrate_sir(start, p, 57.0, 3.0)
        blocks = integrate_sir_blocks(start, p, 57.0, 3.0)
        assert len(next(blocks)[0]) == len(next(blocks)[0]) == 7
        with pytest.raises(NegativeStateError) as streamed:
            next(blocks)
        assert str(streamed.value) == str(whole.value)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["d1", "d2", "d3", "beta", "k", "r", "chi0",
                                      "sigma1", "sigma2", "sigma3", "vmax"])
    def test_rates_must_be_finite(self, name, value):
        # an infinite r or beta used to integrate to an all-NaN trajectory
        rates = dict(d1=1, d2=1, d3=1, beta=1, k=1, r=1)
        rule = "finite" if value > 0 or math.isnan(value) else ">=? 0$"
        with pytest.raises(ValidationError, match=f"^{name} must be {rule}"):
            ModelParams(**{**rates, name: value})

    @pytest.mark.parametrize("fields, message", [
        # 2.0 == 2, yet only q2 is not an integer
        (dict(q1=2, q2=2.0), "q2 must be an integer >= 1"),
        # one value in two fields: the first of them is named
        (dict(d2=-0.5, d3=-0.5), "d2 must be >= 0"),
        (dict(sigma2=2.0, sigma3=math.nan), "sigma3 must be finite"),
    ])
    def test_the_first_field_to_break_its_rule_is_named(self, fields, message):
        rates = dict(d1=1, d2=1, d3=1, beta=1, k=1, r=1)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ModelParams(**{**rates, **fields})

    def test_replace_revalidates(self):
        p = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=1)
        assert dataclasses.replace(p, r=3.0).r == 3.0
        with pytest.raises(ValidationError):
            dataclasses.replace(p, sigma1=-1.0)
