"""Convergence harness tests.

The order fitter is checked on exact power laws, the study on both scaling
regimes with measured error levels, and the report format on its
serialized lines.
"""

import dataclasses

import numpy as np
import pytest

from kinsir import ModelParams, SirState, equilibria, integrate_sir, macro
from kinsir.convergence import (
    ConvergenceReport,
    estimate_order,
    run_convergence_study,
)
from kinsir.errors import (
    DegenerateFitError,
    RegimeError,
    ValidationError,
)
from kinsir.grids import InitialProfile, SpatialGrid
from kinsir.velocity import build_velocity_grid

PARABOLIC = ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
HYPERBOLIC = ModelParams(d1=0.5, d2=0.4, d3=0.6, beta=1.2, k=1.1, r=0.9,
                         q1=2, q2=2, q3=2, p=2)
RIPPLE = InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5, amplitude=0.1)


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
# regime selection and preconditions


def test_mixed_scaling_exponents_have_no_reference():
    params = dataclasses.replace(PARABOLIC, q1=2)
    with pytest.raises(RegimeError):
        run_convergence_study(params, RIPPLE, (0.4, 0.2, 0.1), 0.1)


def test_hyperbolic_regime_requires_constant_data():
    with pytest.raises(RegimeError):
        run_convergence_study(HYPERBOLIC, RIPPLE, (0.4, 0.2, 0.1), 0.1,
                              n_cells=16, n_nodes=8)


def test_epsilon_list_must_be_positive_distinct_and_long_enough():
    with pytest.raises(ValidationError):
        run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.4, 0.1), 0.1)
    with pytest.raises(ValidationError):
        run_convergence_study(PARABOLIC, RIPPLE, (0.4, -0.2, 0.1), 0.1)
    with pytest.raises(DegenerateFitError):
        run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.2), 0.1)


@pytest.mark.parametrize("bad", [2.0, float("nan")])
def test_epsilons_are_checked_before_the_reference_is_built(monkeypatch, bad):
    import kinsir.convergence as convergence

    def reference_built(*args, **kwargs):
        raise RuntimeError("the reference was built")

    monkeypatch.setattr(convergence, "run_macro", reference_built)
    with pytest.raises(ValidationError, match=r"\(0, 1\]"):
        run_convergence_study(PARABOLIC, RIPPLE, (bad, 0.4, 0.2), 0.1)


def test_cfl_is_checked_before_the_reference_is_built(monkeypatch):
    import kinsir.convergence as convergence

    def reference_built(*args, **kwargs):
        raise RuntimeError("the reference was built")

    monkeypatch.setattr(convergence, "run_macro", reference_built)
    with pytest.raises(ValidationError, match="cfl"):
        run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.2, 0.1), 0.1, cfl=2.0)


def test_reference_refinement_must_be_at_least_two():
    with pytest.raises(ValidationError, match="ref_refine must be >= 2"):
        run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.2, 0.1), 0.01,
                              n_cells=16, n_nodes=8, ref_refine=1)


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


def test_reference_self_difference_is_far_below_the_kinetic_error(monkeypatch):
    # criterion 7's study: its 512-cell Strang reference against the same run
    # at half the step bound (N against 2N steps), in the study's norm
    times = (0.05, 0.1, 0.15, 0.2)
    report = run_convergence_study(PARABOLIC, RIPPLE, (0.4, 0.2, 0.1, 0.05), 0.2,
                                   snapshot_times=times, n_cells=128, n_nodes=16,
                                   ref_refine=4, cfl=0.8)
    assert report.reference_descriptor == (
        "run_macro (Strang, exact diffusion) on 512 cells, restricted 4x")
    coeff = macro.build_macro_coefficients(PARABOLIC, build_velocity_grid(1.0, 16))
    initial = RIPPLE.build(SpatialGrid(1.0, 512))
    plain = macro.run_macro(initial, coeff, 0.2, snapshot_times=times)
    bound = macro.stable_dt
    monkeypatch.setattr(macro, "stable_dt", lambda *args: 0.5 * bound(*args))
    halved = macro.run_macro(initial, coeff, 0.2, snapshot_times=times)
    squared = np.zeros(3)
    for a, b in zip(plain, halved):
        delta = (a.rho - b.rho).reshape(3, 128, 4).mean(axis=2)
        squared += np.sum(delta * delta, axis=1) / 128
    self_difference = np.sqrt(squared / len(times)).max()
    # measured 6.0e-7 (24 against 46 steps); smallest kinetic error 5.6e-4
    assert self_difference <= 0.1 * min(report.max_errors())


def test_hyperbolic_study_converges_to_the_ode():
    profile = InitialProfile("constant", c0=1.0, s0=0.2, u0=0.3)
    report = run_convergence_study(HYPERBOLIC, profile, (0.4, 0.2, 0.1), 0.5,
                                   n_cells=16, n_nodes=8)
    assert report.regime == "hyperbolic"
    assert report.exponents == (2, 2, 2, 2)
    assert "integrate_sir" in report.reference_descriptor
    for field in ("c", "s", "u"):
        errs = report.errors[field]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert 0.8 <= report.orders[field] <= 1.2  # measured 0.99 to 1.00
    assert report.estimated_order == pytest.approx(1.0, abs=0.2)


def test_hyperbolic_reference_is_one_pass_over_the_snapshots(monkeypatch):
    import kinsir.convergence as convergence

    taken = []

    def counting(initial, params, t_final, dt):
        trajectory = integrate_sir(initial, params, t_final, dt)
        taken.append(len(trajectory.times) - 1)
        return trajectory

    monkeypatch.setattr(convergence, "_REF_ODE_STEPS", 40)
    monkeypatch.setattr(convergence, "integrate_sir", counting)
    profile = InitialProfile("constant", c0=1.0, s0=0.2, u0=0.3)
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    reference, _ = convergence._hyperbolic_reference(
        profile, HYPERBOLIC, SpatialGrid(1.0, 4), times)
    assert sum(taken) <= 40 + len(times)
    start = SirState(1.0, 0.2, 0.3)
    np.testing.assert_array_equal(reference[0][:, 0], start.as_array())
    whole = integrate_sir(start, HYPERBOLIC, 1.0, 1.0 / 40).final.as_array()
    np.testing.assert_allclose(reference[-1][:, 0], whole, rtol=1e-13)


def test_parabolic_reference_repeats_a_file_profile_onto_the_fine_cells(tmp_path):
    import kinsir.convergence as convergence

    rows = [(1.0 + 0.1 * i, 0.5, 0.25 + 0.01 * i) for i in range(8)]
    path = tmp_path / "cells.csv"
    path.write_text("".join(f"{c!r},{s!r},{u!r}\n" for c, s, u in rows))
    profile = InitialProfile("file", path=str(path))
    reference, descriptor = convergence._parabolic_reference(
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


# ---------------------------------------------------------------------------
# report serialization


def test_report_csv_is_plain_text_with_seventeen_digit_floats():
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
    text = "\n".join(report.to_lines())
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

