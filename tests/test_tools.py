"""Smoke tests of the step-cost tool and of the benchmark's microbenchmark
cases against the working tree's kinsir, and tests of the file comparison
behind tools/cli_parity.py."""

import importlib
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_step_cost_measures_a_small_kinetic_step(monkeypatch):
    # the tool's child process drives the kinetic step's public API, so API
    # drift shows here rather than only when the tool is run
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    step_cost = importlib.import_module("step_cost")
    figures = step_cost.measure(str(ROOT / "src"), "kinetic_step 16x8")
    assert len(figures) == 2
    assert all(math.isfinite(x) and x >= 0.0 for x in figures)


def test_step_cost_measures_a_short_rk4_run(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    step_cost = importlib.import_module("step_cost")
    assert any(case.startswith("integrate_sir ") for case in step_cost.CASES)
    us, faults = step_cost.measure(str(ROOT / "src"), "integrate_sir 2000")
    assert 0.0 < us < math.inf
    assert 0.0 <= faults < math.inf


def test_step_cost_measures_a_short_rk4_run_on_numpy_scalars(monkeypatch):
    # criterion 2's rates, t_final and dt are numpy float64 scalars
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    step_cost = importlib.import_module("step_cost")
    assert "integrate_sir 50000 float64" in step_cost.CASES
    us, faults = step_cost.measure(str(ROOT / "src"), "integrate_sir 2000 float64")
    assert 0.0 < us < math.inf
    assert 0.0 <= faults < math.inf


def test_step_cost_measures_the_benchmark_kinetic_run(monkeypatch):
    # this case patches kinetic.kinetic_step and reads the kinetic_chemotaxis
    # workload's config from perfbench/workloads.py
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    step_cost = importlib.import_module("step_cost")
    assert "run_kinetic kinetic_chemotaxis" in step_cost.CASES
    us, faults = step_cost.measure(str(ROOT / "src"), "run_kinetic kinetic_chemotaxis")
    assert 0.0 < us < math.inf
    assert 0.0 <= faults < math.inf


def test_every_microbenchmark_case_runs(monkeypatch):
    # perfbench/micro.py times kinsir's public sub-step functions, so a
    # renamed or re-signed one shows here rather than only in a benchmark
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    micro = importlib.import_module("micro")
    cases = [*micro._kinetic_cases(16, 8), *micro._macro_cases(),
             *micro._velocity_cases()]
    for _, fn in cases:
        fn()
    micro._rk4_steps()


def parity_compare(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("cli_parity").compare


def test_parity_reports_identical_texts(monkeypatch):
    compare = parity_compare(monkeypatch)
    text = "# dt = 0.01\nt,c\n0,1.5\n"
    assert compare(text, text, "REV") == "identical"


def test_parity_reports_the_largest_numeric_differences(monkeypatch):
    compare = parity_compare(monkeypatch)
    old = "# dt = 0.01\nt,c\n0,1.5\n1,-4\n"
    new = "# dt = 0.02\nt,c\n0,1.25\n1,-4.5\n"
    assert compare(old, new, "REV") == "max abs diff 5.000e-01, max rel diff 5.000e-01"


def test_parity_lists_a_text_change(monkeypatch):
    compare = parity_compare(monkeypatch)
    verdict = compare("t,c\n0,1.5\n", "t,u\n0,1.5\n", "REV")
    assert verdict == ("max abs diff 0.000e+00, max rel diff 0.000e+00; "
                       "'t,c' against 't,u'")


def test_parity_lists_lines_that_one_tree_wrote(monkeypatch):
    compare = parity_compare(monkeypatch)
    verdict = compare("t,c\n0,1\n1,2\n", "t,c\n0,1\n2,3\n3,4\n", "REV")
    assert verdict == ("max abs diff 1.000e+00, max rel diff 5.000e-01; "
                       "only in the working tree: '3,4'")
    verdict = compare("t,c\n0,1\n9,9\n", "t,c\n0,1\n", "REV")
    assert verdict.endswith("; only in REV: '9,9'")
