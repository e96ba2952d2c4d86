"""Smoke test of the step-cost tool against the working tree's kinsir."""

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
