"""Convergence harness tests.

The order fitter is checked on exact power laws, the limit reference on its
coefficient rule, the study on the scaling regimes with measured error
levels, and the report format in the file that `kinsir converge` writes.
"""

import dataclasses
import itertools
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinsir.cli as cli
import kinsir.convergence as convergence
import kinsir.kinetic as kin
from kinsir import ModelParams, SirState, equilibria, integrate_sir, macro
from kinsir.config import parse_config
from kinsir.convergence import (
    ConvergenceReport,
    estimate_order,
    run_convergence_study,
)
from kinsir.errors import (
    DegenerateFitError,
    NegativityError,
    StepSizeError,
    ValidationError,
)
from kinsir.grids import InitialProfile, MacroState, SpatialGrid
from kinsir.velocity import build_velocity_grid, species_equilibria

PARABOLIC = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
HYPERBOLIC = ModelParams(d1=0.5, d2=0.4, d3=0.6, beta=1.2, k=1.1, r=0.9,
                         q1=2, q2=2, q3=2, p=2)
RIPPLE = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5, amplitude=0.1)
ENDEMIC = InitialProfile("constant", c0=1.0, s0=0.2, u0=0.3)


# ---------------------------------------------------------------------------
# order fitting


def test_estimate_order_recovers_exact_power_laws():
    eps = (0.4, 0.2, 0.1, 0.05)
    assert estimate_order(eps, tuple(2.0 * e for e in eps)) == pytest.approx(
        1.0, abs=1e-10
    )
    assert estimate_order(eps, tuple(2.0 * e**2 for e in eps)) == pytest.approx(
        2.0, abs=1e-10
    )
    assert estimate_order(eps, tuple(3.1 * e**1.7 for e in eps)) == pytest.approx(
        1.7, abs=1e-10
    )
    assert estimate_order(eps, (0.5, 0.5, 0.5, 0.5)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_estimate_order_rejects_degenerate_inputs():
    with pytest.raises(DegenerateFitError):
        estimate_order((0.4, 0.2), (1.0, 0.5))
    with pytest.raises(DegenerateFitError):
        estimate_order((0.4, 0.2, 0.1), (1.0, 0.5, 0.0))
    with pytest.raises(DegenerateFitError):
        estimate_order((0.4, -0.2, 0.1), (1.0, 0.5, 0.2))
    with pytest.raises(ValidationError):
        estimate_order((0.4, 0.2, 0.1), (1.0, 0.5))


# ---------------------------------------------------------------------------
# regime labels, the limit coefficients and preconditions


def test_mixed_scaling_exponents_get_the_limit_reference():
    params = dataclasses.replace(PARABOLIC, q1=2)
    report = run_convergence_study(params, RIPPLE, (0.4, 0.2, 0.1), 0.1,
                                   n_cells=16, n_nodes=8)
    assert report.regime == "mixed"
    assert report.exponents == (2, 1, 1, 1)
    assert report.reference_descriptor.endswith("restricted 4x, Dc = 0")
    assert all(e > 0 for e in report.max_errors())


def test_material_regime_study_runs_on_varying_data():
    report = run_convergence_study(HYPERBOLIC, RIPPLE, (0.4, 0.2, 0.1), 0.1,
                                   n_cells=16, n_nodes=8)
    assert report.regime == "hyperbolic"
    assert report.reference_descriptor.endswith("Dc = Ds = Du = chi = 0")
    assert all(0 < e < 1 for e in report.max_errors())


class _ReferenceBuilt(Exception):
    pass


@pytest.mark.parametrize("exponents", list(itertools.product((1, 2), repeat=4)),
                         ids=lambda e: "".join(map(str, e)))
def test_limit_keeps_each_coefficient_only_at_exponent_one(monkeypatch, exponents):
    q1, q2, q3, p = exponents
    params = dataclasses.replace(PARABOLIC, q1=q1, q2=q2, q3=q3, p=p)
    full = macro.build_macro_coefficients(params, build_velocity_grid(1.0, 8))
    used = []

    def recording(initial, coeff, *args, **kwargs):
        used.append(coeff)
        raise _ReferenceBuilt

    monkeypatch.setattr(convergence, "run_macro", recording)
    with pytest.raises(_ReferenceBuilt):
        run_convergence_study(params, RIPPLE, (0.4, 0.2, 0.1), 0.1,
                              n_cells=16, n_nodes=8)
    (coeff,) = used
    for name, exponent in zip(("Dc", "Ds", "Du", "chi"), exponents):
        kept = getattr(full, name)
        assert kept > 0
        assert getattr(coeff, name) == (kept if exponent == 1 else 0.0), name
    assert coeff.params is params


def test_material_reference_is_the_ode_in_every_cell():
    times = [0.0, 0.25, 0.5]
    reference, _ = convergence._limit_reference(
        ENDEMIC, ENDEMIC.build(SpatialGrid(1.0, 4)), HYPERBOLIC,
        build_velocity_grid(1.0, 8), 0.5, times, 4)
    state = SirState(1.0, 0.2, 0.3)
    for start, end, ref in zip(times, times[1:], reference[1:]):
        state = integrate_sir(state, HYPERBOLIC, end - start, 1e-4).final
        # measured 9.3e-7 at t = 0.5: Heun on the reactions at the macro bound
        np.testing.assert_allclose(ref, np.outer(state.as_array(), np.ones(4)),
                                   rtol=0, atol=2e-6)


def test_epsilon_list_must_be_positive_distinct_and_long_enough():
    with pytest.raises(ValidationError, match="epsilons must be distinct"):
        run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.4, 0.1), 0.1)
    with pytest.raises(ValidationError, match=r"\(0, 1\]"):
        run_convergence_study(PARABOLIC, RIPPLE, (0.4, -0.2, 0.1), 0.1)
    with pytest.raises(DegenerateFitError):
        run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.2), 0.1)


@pytest.mark.parametrize("bad", [2.0, float("nan")])
def test_epsilons_are_checked_before_the_reference_is_built(monkeypatch, bad):
    def reference_built(*args, **kwargs):
        raise RuntimeError("the reference was built")

    monkeypatch.setattr(convergence, "run_macro", reference_built)
    with pytest.raises(ValidationError, match=r"\(0, 1\]"):
        run_convergence_study(PARABOLIC, RIPPLE, (bad, 0.4, 0.2), 0.1)


def test_cfl_is_checked_before_the_reference_is_built(monkeypatch):
    def reference_built(*args, **kwargs):
        raise RuntimeError("the reference was built")

    monkeypatch.setattr(convergence, "run_macro", reference_built)
    with pytest.raises(ValidationError, match=r"^cfl must be in \(0, 0\.9\]$"):
        run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.2, 0.1), 0.1, cfl=2.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_horizon_is_checked_before_the_reference_is_built(monkeypatch, bad):
    def reference_built(*args, **kwargs):
        raise RuntimeError("the reference was built")

    monkeypatch.setattr(convergence, "run_macro", reference_built)
    with pytest.raises(ValidationError, match="^t_final must be finite$"):
        run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.2, 0.1), bad)


def test_reference_refinement_must_be_at_least_two():
    # 2.5 used to pass this check and fail later, naming n_cells
    for ref_refine in (1, 2.5):
        with pytest.raises(ValidationError, match="^ref_refine must be an integer >= 2$"):
            run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.2, 0.1), 0.01,
                                  n_cells=16, n_nodes=8, ref_refine=ref_refine)
    # the config checks the same rule at parse time
    with pytest.raises(ValidationError, match="^ref_refine must be an integer >= 2$"):
        parse_config("ref_refine = 1\n")


def test_parabolic_study_converges_to_the_macro_limit():
    # Measured at this configuration: per-species orders 1.8 to 2.9 and
    # strictly decreasing errors.
    report = run_convergence_study(PARABOLIC, RIPPLE, (0.1, 0.4, 0.2), 0.1,
                                   n_cells=64, n_nodes=8, ref_refine=4)
    assert report.regime == "parabolic"
    assert report.exponents == (1, 1, 1, 1)
    assert "run_macro" in report.reference_descriptor
    assert report.epsilons == (0.4, 0.2, 0.1)  # sorted largest first
    for field in ("c", "s", "u"):
        errs = report.errors[field]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert report.orders[field] >= 0.8
    assert report.estimated_order >= 0.8
    maxes = report.max_errors()
    assert all(a > b for a, b in zip(maxes, maxes[1:]))


def test_parabolic_errors_do_not_depend_on_the_reference_resolution():
    # Refining the reference grid 2x versus 4x moved every error by less
    # than 0.6% when measured; 10% is the acceptance bar.
    coarse = run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.2, 0.1), 0.1,
                                   n_cells=64, n_nodes=8, ref_refine=2)
    fine = run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.2, 0.1), 0.1,
                                 n_cells=64, n_nodes=8, ref_refine=4)
    for field in ("c", "s", "u"):
        for a, b in zip(coarse.errors[field], fine.errors[field]):
            assert abs(a - b) / b <= 0.1


def _reference_self_difference(monkeypatch, study, ref_refine):
    """The study's reference run against the same run at half the step
    bound (N against 2N steps), restricted and measured in the study's norm."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return macro.run_macro(*args, **kwargs)

    monkeypatch.setattr(convergence, "run_macro", recording)
    report = study()
    (args, kwargs), = calls
    plain = macro.run_macro(*args, **kwargs)
    bound = macro.stable_dt
    monkeypatch.setattr(macro, "stable_dt", lambda *a: 0.5 * bound(*a))
    halved = macro.run_macro(*args, **kwargs)
    squared = np.zeros(3)
    for a, b in zip(plain, halved):
        delta = (a.rho - b.rho).reshape(3, -1, ref_refine).mean(axis=2)
        squared += np.sum(delta * delta, axis=1) / delta.shape[1]
    return report, np.sqrt(squared / len(plain)).max()


def test_reference_self_difference_is_far_below_the_kinetic_error(monkeypatch):
    # criterion 7's study and its 512-cell Strang reference
    report, self_difference = _reference_self_difference(
        monkeypatch, lambda: run_convergence_study(
            PARABOLIC, RIPPLE, (0.4, 0.2, 0.1, 0.05), 0.2,
            snapshot_times=(0.05, 0.1, 0.15, 0.2), n_cells=128, n_nodes=16,
            ref_refine=4, cfl=0.8), ref_refine=4)
    assert report.reference_descriptor == (
        "run_macro (Strang, exact diffusion) on 512 cells, restricted 4x")
    # measured 6.0e-7 (24 against 46 steps); smallest kinetic error 5.6e-4
    assert self_difference <= 0.1 * min(report.max_errors())


def test_material_reference_self_difference_is_far_below_the_kinetic_error(
        monkeypatch):
    # the material-regime study at t = 1 over six eps down to 0.0125, with
    # its reference of Heun steps on the reactions (every coefficient zero)
    report, self_difference = _reference_self_difference(
        monkeypatch, lambda: run_convergence_study(
            dataclasses.replace(HYPERBOLIC, chi0=0.5), ENDEMIC,
            (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125), 1.0,
            snapshot_times=(0.25, 0.5, 0.75, 1.0), n_cells=16, n_nodes=8,
            ref_refine=4), ref_refine=4)
    assert report.regime == "hyperbolic"
    # measured 7.3e-7; smallest kinetic error 4.6e-5
    assert self_difference <= 0.1 * min(report.max_errors())


def test_hyperbolic_study_converges_to_the_ode():
    report = run_convergence_study(HYPERBOLIC, ENDEMIC, (0.4, 0.2, 0.1), 0.5,
                                   n_cells=16, n_nodes=8)
    assert report.regime == "hyperbolic"
    assert report.exponents == (2, 2, 2, 2)
    assert "run_macro" in report.reference_descriptor
    for field in ("c", "s", "u"):
        errs = report.errors[field]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert 0.8 <= report.orders[field] <= 1.2  # measured 0.99 to 1.00
    assert report.estimated_order == pytest.approx(1.0, abs=0.2)


def test_parabolic_reference_repeats_a_file_profile_onto_the_fine_cells(tmp_path):
    rows = [(1.0 + 0.1 * i, 0.5, 0.25 + 0.01 * i) for i in range(8)]
    path = tmp_path / "cells.csv"
    path.write_text("".join(f"{c!r},{s!r},{u!r}\n" for c, s, u in rows))
    profile = InitialProfile("file", path=str(path))
    reference, descriptor = convergence._limit_reference(
        profile, profile.build(SpatialGrid(1.0, 8)), PARABOLIC,
        build_velocity_grid(PARABOLIC.vmax, 8), 0.01, [0.0, 0.01], 4)
    # restricted back to the study grid, the start is the file's cell values
    np.testing.assert_allclose(reference[0], np.array(rows).T, rtol=1e-15, atol=0)
    assert "on 32 cells" in descriptor


def test_endemic_equilibrium_is_shared_by_both_tiers():
    # Constant endemic data is a steady state of the kinetic run and of the
    # macro reference alike, so the errors sit at rounding level (or are
    # exactly zero, reported with a flat order).
    qstar = equilibria(PARABOLIC).qstar
    profile = InitialProfile("constant", c0=qstar.u, s0=qstar.v, u0=qstar.w)
    report = run_convergence_study(PARABOLIC, profile, (0.4, 0.2, 0.1),
                                   0.1, n_cells=32, n_nodes=8)
    assert max(report.max_errors()) <= 1e-8


# Studies at small eps. The split scheme that the kinetic step replaced
# failed all of them: its upwind transport carried a numerical diffusion of
# about |v|*dx/(2*eps), which outgrew the model error as eps shrank.


def _assert_converges(report):
    maxes = report.max_errors()
    assert all(a > b for a, b in zip(maxes, maxes[1:]))
    assert report.estimated_order >= 0.8


def test_parabolic_errors_keep_falling_below_criterion_7s_smallest_eps():
    # criterion 7's study down to eps = 0.00625; measured 1.86e-2, 8.62e-3,
    # 2.76e-3, 7.70e-4, 2.22e-4, 7.38e-5, 3.14e-5, order 1.61 (the split
    # scheme's errors rose again below eps = 0.05)
    report = run_convergence_study(PARABOLIC, RIPPLE,
                                   (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625), 0.2,
                                   snapshot_times=(0.05, 0.1, 0.15, 0.2),
                                   n_cells=128, n_nodes=16, ref_refine=4, cfl=0.8)
    _assert_converges(report)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at these eps the model's own distance from the pointwise "
                   "ODE has order 0.35, below the 0.8 asserted")
def test_material_regime_with_varying_data_converges_to_the_pointwise_ode():
    # measured 0.242, 0.221, 0.170, 0.109, order 0.38 (the split scheme:
    # 0.243, 0.229, 0.212, 0.231, order 0.03)
    profile = InitialProfile("cosine", c0=1.0, s0=0.2, u0=0.3, amplitude=0.5)
    report = run_convergence_study(dataclasses.replace(HYPERBOLIC, chi0=0.5),
                                   profile, (0.4, 0.2, 0.1, 0.05), 1.0,
                                   n_cells=64, n_nodes=8)
    _assert_converges(report)


def test_material_regime_at_small_eps_converges_to_the_pointwise_ode():
    # the study above at eps where the model's own distance from the limit
    # has order 0.87; measured 0.109, 6.23e-2, 3.33e-2, 1.72e-2, order 0.89
    # (the split scheme: 0.231, 0.244, 0.245, 0.245, order -0.03)
    profile = InitialProfile("cosine", c0=1.0, s0=0.2, u0=0.3, amplitude=0.5)
    report = run_convergence_study(dataclasses.replace(HYPERBOLIC, chi0=0.5),
                                   profile, (0.05, 0.025, 0.0125, 0.00625), 1.0,
                                   n_cells=64, n_nodes=8)
    _assert_converges(report)


def test_mixed_regime_converges_to_the_limit_without_virus_diffusion():
    # criterion 7's study with q3 = 2; measured order 0.96 (the split
    # scheme's u error rose 6.4e-3, 1.07e-2, 1.73e-2)
    report = run_convergence_study(dataclasses.replace(PARABOLIC, q3=2), RIPPLE,
                                   (0.05, 0.025, 0.0125), 0.2,
                                   snapshot_times=(0.05, 0.1, 0.15, 0.2),
                                   n_cells=128, n_nodes=16, ref_refine=4, cfl=0.8)
    _assert_converges(report)


# rates with an endemic equilibrium: R0 = beta*k*r/(d1*d2*d3) in [1.2, 5]
_ENDEMIC_RATES = st.builds(
    lambda d, beta, k, r0, chi0: ModelParams(
        d1=d[0], d2=d[1], d3=d[2], beta=beta, k=k,
        r=r0 * d[0] * d[1] * d[2] / (beta * k), chi0=chi0),
    st.tuples(*[st.floats(0.4, 2.0)] * 3), st.floats(0.3, 2.0),
    st.floats(0.3, 2.0), st.floats(1.2, 5.0), st.floats(0.0, 2.0),
)


@settings(max_examples=30, deadline=None)
@given(params=_ENDEMIC_RATES)
def test_both_steps_hold_the_endemic_equilibrium(params):
    # measured over 200 draws: relative drift 0 (macro), <= 1.6e-14 (kinetic)
    qstar = equilibria(params).qstar.as_array()
    grid, vgrid = SpatialGrid(1.0, 16), build_velocity_grid(params.vmax, 8)
    start = MacroState(np.outer(qstar, np.ones(grid.n_cells)), 0.0, grid)
    coeff = macro.build_macro_coefficients(params, vgrid)
    state = start
    dt = 0.8 * macro.stable_dt(state, coeff)
    for _ in range(100):
        state = macro.macro_step(state, coeff, dt)
    np.testing.assert_allclose(state.rho, start.rho, rtol=1e-12, atol=0)
    eqs = species_equilibria(vgrid)
    kinetic = kin.init_local_equilibrium(start, eqs, vgrid, 0.1)
    dt = kin.max_step(kinetic)
    for _ in range(100):
        kinetic = kin.kinetic_step(kinetic, params, eqs, dt)
    np.testing.assert_allclose(kin.moments(kinetic).rho, start.rho,
                               rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the study on two processes: the smallest eps in a child, the others here

STUDIES = {
    "parabolic": (PARABOLIC, RIPPLE, 0.05, 32),
    "hyperbolic": (HYPERBOLIC, ENDEMIC, 0.25, 16),
    "mixed": (dataclasses.replace(PARABOLIC, q3=2), RIPPLE, 0.05, 16),
}


def small_study(name, epsilons=(0.3, 0.4, 0.1, 0.25)):
    params, profile, t_final, n_cells = STUDIES[name]
    return run_convergence_study(params, profile, epsilons, t_final,
                                 n_cells=n_cells, n_nodes=8)


def assert_no_child_is_left():
    # waitpid(-1) finds no child, not even a finished one left unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_at(monkeypatch, failures):
    """run_kinetic raises failures[eps] at each eps in failures."""
    run = kin.run_kinetic

    def failing(state, *args, **kwargs):
        if state.epsilon in failures:
            raise failures[state.epsilon]
        return run(state, *args, **kwargs)

    monkeypatch.setattr(kin, "run_kinetic", failing)


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_a_study_in_one_process_reports_the_same_bits(monkeypatch, name):
    forked = small_study(name)
    assert forked.epsilons == (0.4, 0.3, 0.25, 0.1)
    assert_no_child_is_left()
    monkeypatch.delattr(os, "fork")
    assert pickle.dumps(small_study(name)) == pickle.dumps(forked)


def test_an_eps_has_the_same_errors_in_either_process():
    # eps 0.25 runs in this process in a study of four eps, and in the
    # child in a study of three
    four = small_study("parabolic")
    three = small_study("parabolic", (0.4, 0.3, 0.25))
    for field in "csu":
        assert four.errors[field][:3] == three.errors[field]


CONVERGE_CFG = ("chi0 = 0.5\nprofile = cosine\nc0 = 1\ns0 = 0.5\nu0 = 0.5\n"
                "n_cells = 32\nn_nodes = 8\nt_final = 0.05\n"
                "eps_list = 0.2 0.4 0.1\n")


@pytest.mark.parametrize("failures", [
    {0.2: NegativityError("injected at eps 0.2")},
    {0.1: StepSizeError("injected at eps 0.1")},
    {0.2: NegativityError("injected at eps 0.2"),
     0.1: StepSizeError("injected at eps 0.1")},
    {0.4: StepSizeError("injected at eps 0.4"),
     0.2: NegativityError("injected at eps 0.2")},
], ids=["parent", "child", "both", "parent_twice"])
def test_a_failing_run_fails_the_study_as_the_serial_loop_does(
        tmp_path, monkeypatch, capsys, failures):
    # eps 0.1 runs in the child, 0.4 and 0.2 in this process; run one after
    # another, largest first, the study stops at the largest failing eps
    first = failures[max(failures)]
    expected = (type(first).exit_code,
                f"error: {type(first).__name__}: {first}\n", False)
    fail_at(monkeypatch, failures)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONVERGE_CFG)
    for tag in ("forked", "in_process"):
        if tag == "in_process":
            monkeypatch.delattr(os, "fork")
        out = tmp_path / tag
        code = cli.main(["converge", "--config", str(cfg), "--out", str(out)])
        assert (code, capsys.readouterr().err, out.exists()) == expected, tag
        assert_no_child_is_left()


def test_a_study_reaps_its_child_however_it_ends(monkeypatch):
    small_study("hyperbolic")
    assert_no_child_is_left()
    for eps in (0.4, 0.1):  # in this process, in the child
        with monkeypatch.context() as patch:
            fail_at(patch, {eps: NegativityError("injected")})
            with pytest.raises(NegativityError):
                small_study("hyperbolic")
        assert_no_child_is_left()
    # interrupted in the child, and in this process while the child is
    # still running the smallest eps
    for eps in (0.1, 0.4):
        with monkeypatch.context() as patch:
            fail_at(patch, {eps: KeyboardInterrupt()})
            with pytest.raises(KeyboardInterrupt):
                small_study("hyperbolic")
        assert_no_child_is_left()


_BLAS_THEN_STUDY = """
import os, pickle
import numpy as np
from kinsir import ModelParams
from kinsir.convergence import run_convergence_study
from kinsir.grids import InitialProfile

matrix = np.random.default_rng(0).random((400, 400))
matrix @ matrix  # starts OpenBLAS's thread pool in this process
args = (ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5),
        InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5, amplitude=0.1),
        (0.4, 0.2, 0.1), 0.05)
forked = pickle.dumps(run_convergence_study(*args, n_cells=32, n_nodes=8))
del os.fork
print(forked == pickle.dumps(run_convergence_study(*args, n_cells=32, n_nodes=8)))
"""


def test_a_study_forks_safely_after_blas_has_started_its_threads():
    # the child's kinetic steps call BLAS through `@`; a lock held by a BLAS
    # thread at the fork would hang it, so the run has a timeout
    src = os.path.dirname(os.path.dirname(convergence.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _BLAS_THEN_STUDY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


# ---------------------------------------------------------------------------
# report serialization


def test_report_csv_is_plain_text_with_seventeen_digit_floats(tmp_path, monkeypatch):
    report = ConvergenceReport(
        regime="parabolic",
        exponents=(1, 1, 1, 1),
        reference_descriptor="run_macro on 256 cells, restricted 4x",
        epsilons=(0.4, 0.2, 0.1),
        errors={"c": (0.1, 0.05, 0.025), "s": (0.2, 0.1, 0.05),
                "u": (0.3, 0.15, 0.075)},
        orders={"c": 1.0, "s": 1.0, "u": 1.0},
        estimated_order=1.0,
    )
    # the CLI formats the report: write this one through it
    monkeypatch.setattr(cli, "run_convergence_study", lambda *args, **kwargs: report)
    (tmp_path / "run.cfg").write_text("")
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", str(tmp_path / "run.cfg"),
                     "--out", str(out)]) == 0
    text = (out / "convergence.csv").read_text()
    assert "epsilon,error_c,error_s,error_u" in text
    assert "0.40000000000000002" in text


def test_report_validates_its_invariants():
    kwargs = dict(
        regime="parabolic",
        exponents=(1, 1, 1, 1),
        reference_descriptor="x",
        orders={"c": 1.0, "s": 1.0, "u": 1.0},
        estimated_order=1.0,
    )
    errors = {"c": (0.1, 0.05), "s": (0.1, 0.05), "u": (0.1, 0.05)}
    with pytest.raises(ValidationError):  # not decreasing
        ConvergenceReport(epsilons=(0.2, 0.4), errors=errors, **kwargs)
    with pytest.raises(ValidationError):  # negative error
        ConvergenceReport(epsilons=(0.4, 0.2),
                          errors={**errors, "c": (0.1, -0.05)}, **kwargs)
    with pytest.raises(ValidationError):  # non-finite order
        ConvergenceReport(epsilons=(0.4, 0.2), errors=errors,
                          **{**kwargs, "estimated_order": float("nan")})

