"""End-to-end CLI tests: golden output schemas, reproducibility, exit codes.

Each test drives main() in-process with a config written to tmp_path and
inspects the files it leaves behind.
"""

import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinsir import __version__, errors
from kinsir.cli import _header, _named, _table, _texts, main
from kinsir.config import load_config
from kinsir.convergence import run_convergence_study
from kinsir.errors import NegativeStateError
from kinsir.sir import SirState, integrate_sir


def run_cli(tmp_path, subcommand, config_text, out="out", name="run.cfg"):
    cfg = tmp_path / name
    cfg.write_text(config_text)
    out_dir = tmp_path / out
    code = main([subcommand, "--config", str(cfg), "--out", str(out_dir)])
    return code, out_dir


def read_table(path):
    """Header lines, column row and data cells of one output file."""
    header, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line
        else:
            rows.append(line.split(","))
    return header, columns, rows


ODE_CFG = "r = 2\nc0 = 1.2\ns0 = 0.4\nu0 = 0.9\nt_final = 0.1\ndt = 0.01\n"


# ---------------------------------------------------------------------------
# golden schemas


def test_ode_outputs_trajectory_and_equilibrium_report(tmp_path, capsys):
    code, out = run_cli(tmp_path, "ode", ODE_CFG)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "trajectory.csv" in stdout

    header, columns, rows = read_table(out / "trajectory.csv")
    assert header[0] == f"# kinsir {__version__}"
    assert header[1] == "# subcommand = ode"
    assert "# beta = 1" in header
    assert columns == "t,c,s,u"
    assert len(rows) == 11  # t_final/dt + 1
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 0.1
    assert float(rows[0][1]) == 1.2

    _, columns, rows = read_table(out / "equilibrium.csv")
    assert columns == "quantity,value"
    table = {name: float(value) for name, value in rows}
    assert table["r0"] == pytest.approx(2.0, abs=1e-15)
    assert table["qstar_c"] == pytest.approx(1.0, abs=1e-12)
    assert table["qstar_s"] == pytest.approx(1.0, abs=1e-12)
    assert table["qstar_u"] == pytest.approx(1.0, abs=1e-12)


def test_ode_below_threshold_omits_the_endemic_rows(tmp_path):
    code, out = run_cli(tmp_path, "ode", "r = 0.5\nt_final = 0.1\ndt = 0.01\n")
    assert code == 0
    _, _, rows = read_table(out / "equilibrium.csv")
    names = {name for name, _ in rows}
    assert "r0" in names and "q0_c" in names
    assert not any(name.startswith("qstar") for name in names)


def test_coeffs_reports_the_analytic_transport_coefficients(tmp_path):
    code, out = run_cli(tmp_path, "coeffs", "chi0 = 1.0\n")
    assert code == 0
    _, columns, rows = read_table(out / "coefficients.csv")
    assert columns == "name,value"
    table = {name: float(value) for name, value in rows}
    assert table["Dc"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert table["Ds"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert table["Du"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert table["chi"] == pytest.approx(2.0 / 3.0, rel=1e-12)


MACRO_CFG = ("chi0 = 0.5\nprofile = cosine\nc0 = 1\ns0 = 0.5\nu0 = 0.5\n"
             "n_cells = 32\nt_final = 0.02\nsnapshot_times = 0.01 0.02\n")


def test_macro_emits_per_cell_snapshot_rows(tmp_path):
    code, out = run_cli(tmp_path, "macro", MACRO_CFG)
    assert code == 0
    _, columns, rows = read_table(out / "macro_snapshots.csv")
    assert columns == "time,x,c,s,u"
    assert len(rows) == 2 * 32
    times = sorted({float(r[0]) for r in rows})
    assert times == [0.01, 0.02]
    first_x = float(rows[0][1])
    assert first_x == pytest.approx(0.5 / 32, rel=1e-15)


KINETIC_CFG = ("chi0 = 0.5\nprofile = cosine\nc0 = 1\ns0 = 0.5\nu0 = 0.5\n"
               "n_cells = 32\nn_nodes = 8\nepsilon = 0.2\nt_final = 0.02\n")


def test_kinetic_emits_moment_rows(tmp_path):
    code, out = run_cli(tmp_path, "kinetic", KINETIC_CFG)
    assert code == 0
    _, columns, rows = read_table(out / "kinetic_moments.csv")
    assert columns == "time,x,c,s,u"
    assert len(rows) == 32  # final time only
    assert {float(r[0]) for r in rows} == {0.02}
    assert all(float(v) >= 0 for row in rows for v in row[2:])


CONV_CFG = ("chi0 = 0.5\nprofile = cosine\nc0 = 1\ns0 = 0.5\nu0 = 0.5\n"
            "n_cells = 32\nn_nodes = 8\nt_final = 0.05\neps_list = 0.4 0.2 0.1\n")


def test_converge_writes_a_loadable_report_and_a_summary(tmp_path, capsys):
    code, out = run_cli(tmp_path, "converge", CONV_CFG)
    assert code == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("converge: regime=parabolic orders ")
    config = load_config(tmp_path / "run.cfg")
    report = run_convergence_study(
        config.params, config.profile, config.eps_list, config.t_final,
        length=config.length, n_cells=config.n_cells, n_nodes=config.n_nodes,
        ref_refine=config.ref_refine, cfl=config.cfl,
    )
    # the file holds the report's numbers, each to the last bit
    header, columns, rows = read_table(out / "convergence.csv")
    run_header = _header("converge", config)
    assert header[:len(run_header)] == run_header
    metadata = [line[2:].split(" = ", 1) for line in header[len(run_header):]]
    assert metadata[:3] == [["regime", report.regime], ["exponents", "1 1 1 1"],
                            ["reference", report.reference_descriptor]]
    assert [(key, float(value)) for key, value in metadata[3:]] == [
        *((f"order_{f}", report.orders[f]) for f in "csu"),
        ("estimated_order", report.estimated_order)]
    assert columns == "epsilon,error_c,error_s,error_u"
    assert [[float(x) for x in row] for row in rows] == [
        [eps, *(report.errors[f][i] for f in "csu")]
        for i, eps in enumerate(report.epsilons)]
    assert report.regime == "parabolic"
    assert report.epsilons == (0.4, 0.2, 0.1)
    assert all(e > 0 for e in report.max_errors())
    text = (out / "convergence.csv").read_text()
    assert "epsilon,error_c,error_s,error_u" in text
    assert f"# kinsir {__version__}" in text


# ---------------------------------------------------------------------------
# reproducibility


@pytest.mark.parametrize("subcommand,cfg", [
    ("ode", ODE_CFG),
    ("macro", MACRO_CFG),
    ("kinetic", KINETIC_CFG),
    ("coeffs", "chi0 = 1.0\n"),
])
def test_identical_configs_give_byte_identical_outputs(tmp_path, subcommand, cfg):
    _, out_a = run_cli(tmp_path, subcommand, cfg, out="a")
    _, out_b = run_cli(tmp_path, subcommand, cfg, out="b")
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes_by_failure_class(tmp_path):
    cases = [
        ("ode", "betaa = 2\n", 2),                      # ParseError
        ("ode", "q1 = 0\n", 3),                         # ValidationError
        ("ode", "beta = 40\nc0 = 1\nu0 = 1\ndt = 1\nt_final = 2\n", 4),
        # a zero death rate leaves R0 undefined, not the trajectory
        ("ode", "d1 = 0\n", 0),
        ("ode", "d3 = 0\n", 0),
        ("kinetic", "n_nodes = 7\nt_final = 0.01\n", 5),  # OddNodeCountError
        ("kinetic",
         "d1 = 100\nepsilon = 0.5\nn_cells = 8\nn_nodes = 8\nt_final = 0.1\n",
         9),                                            # NegativityError
        # a mixed scaling regime: the limit drops Dc
        ("converge", "q1 = 2\nn_cells = 16\nn_nodes = 8\nt_final = 0.01\n", 0),
        ("converge",
         "eps_list = 0.4 0.2\nn_cells = 16\nn_nodes = 8\nt_final = 0.01\n",
         12),                                           # DegenerateFitError
    ]
    for i, (subcommand, cfg, expected) in enumerate(cases):
        code, out = run_cli(tmp_path, subcommand, cfg, out=f"e{i}",
                            name=f"case{i}.cfg")
        assert code == expected, f"{subcommand} case {i}"
        # a failed run leaves no file or directory behind
        assert out.exists() == (expected == 0), f"{subcommand} case {i}"
    header, _, _ = read_table(tmp_path / "e7" / "convergence.csv")
    assert "# regime = mixed" in header


def fail_in_the_second_block(monkeypatch, tmp_path):
    """Blocks of 7 rows, and a NegativeStateError from the RK4 loop when it
    fills the second one: ODE_CFG's 11 rows stop after the first block.
    Returns a function that reads the first step of each call, which the
    loop appends to a file, since it runs in a child process."""
    import kinsir.sir as sir

    loop = sir._rk4_into
    log = tmp_path / "rk4_calls.txt"
    log.write_text("")

    def second_block_fails(rows, start, params, h, first):
        with open(log, "a") as handle:
            handle.write(f"{first}\n")
        if len(log.read_text().split()) == 2:
            raise NegativeStateError("injected")
        return loop(rows, start, params, h, first)

    monkeypatch.setattr(sir, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(sir, "_rk4_into", second_block_fails)
    return lambda: [int(first) for first in log.read_text().split()]


def test_ode_failing_in_the_middle_of_a_stream_leaves_nothing(tmp_path,
                                                              monkeypatch):
    read_calls = fail_in_the_second_block(monkeypatch, tmp_path)
    code, out = run_cli(tmp_path, "ode", ODE_CFG)
    assert code == 4
    calls = read_calls()
    assert calls == [1, 7]
    assert not out.exists()


def test_ode_failing_in_the_middle_of_a_stream_keeps_an_earlier_run(tmp_path,
                                                                    monkeypatch):
    code, out = run_cli(tmp_path, "ode", ODE_CFG)
    assert code == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    read_calls = fail_in_the_second_block(monkeypatch, tmp_path)
    code, _ = run_cli(tmp_path, "ode", ODE_CFG)
    assert code == 4
    calls = read_calls()
    assert calls == [1, 7]
    # the complete files are untouched and no temporary file is left
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
    assert sorted(before) == ["equilibrium.csv", "trajectory.csv"]


def assert_no_child_is_left():
    # waitpid(-1) finds no child, not even a finished one left unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_ode_reaps_its_child_after_a_success_and_after_a_child_error(
        tmp_path, monkeypatch):
    code, _ = run_cli(tmp_path, "ode", ODE_CFG, out="done")
    assert code == 0
    assert_no_child_is_left()
    fail_in_the_second_block(monkeypatch, tmp_path)
    code, _ = run_cli(tmp_path, "ode", ODE_CFG, out="failed")
    assert code == 4
    assert_no_child_is_left()


def test_ode_kills_and_reaps_its_child_after_a_writer_error(tmp_path,
                                                           monkeypatch):
    # 100,001 rows: the child is still integrating when the writer fails
    import kinsir.cli as cli

    table = cli._table
    errors = [OSError("injected"), KeyboardInterrupt()]
    long_run = ODE_CFG.replace("t_final = 0.1\ndt = 0.01", "t_final = 100\ndt = 1e-3")

    def second_chunk_fails(columns, blocks):
        lines = table(columns, blocks)
        yield next(lines)  # the column line
        yield next(lines)
        raise errors.pop(0)

    monkeypatch.setattr(cli, "_table", second_chunk_fails)
    code, out = run_cli(tmp_path, "ode", long_run)
    assert code == 1
    assert not out.exists()
    assert_no_child_is_left()
    # the CLI does not catch an interrupt, but its child is gone all the same
    with pytest.raises(KeyboardInterrupt):
        run_cli(tmp_path, "ode", long_run)
    assert not out.exists()
    assert_no_child_is_left()


def test_ode_child_ending_without_the_end_of_its_stream_exits_one(
        tmp_path, monkeypatch, capsys):
    import kinsir.sir as sir

    parent = os.getpid()
    loop = sir._rk4_into

    def second_block_exits(rows, start, params, h, first):
        assert os.getpid() != parent  # os._exit below ends the child only
        if first > 1:
            os._exit(3)
        return loop(rows, start, params, h, first)

    monkeypatch.setattr(sir, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(sir, "_rk4_into", second_block_exits)
    code, out = run_cli(tmp_path, "ode", ODE_CFG)
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exit status 3" in err
    assert not out.exists()
    assert_no_child_is_left()


def test_ode_without_fork_writes_the_same_files_in_process(tmp_path,
                                                          monkeypatch):
    import kinsir.sir as sir

    monkeypatch.setattr(sir, "_BLOCK_ROWS", 7)
    code, forked = run_cli(tmp_path, "ode", ODE_CFG, out="forked")
    assert code == 0
    monkeypatch.delattr(os, "fork")
    code, in_process = run_cli(tmp_path, "ode", ODE_CFG, out="in_process")
    assert code == 0
    assert sorted(os.listdir(in_process)) == ["equilibrium.csv", "trajectory.csv"]
    for name in os.listdir(forked):
        assert (in_process / name).read_bytes() == (forked / name).read_bytes()
    # a failing block fails the same way in this process
    read_calls = fail_in_the_second_block(monkeypatch, tmp_path)
    code, out = run_cli(tmp_path, "ode", ODE_CFG, out="failed")
    assert code == 4
    assert read_calls() == [1, 7]
    assert not out.exists()


def test_ode_of_one_block_runs_without_a_fork(tmp_path, monkeypatch):
    import kinsir.sir as sir

    fork = os.fork

    def no_fork():
        raise AssertionError("a trajectory of one block forked")

    # criterion 10's ode config: 51 rows, one block
    cfg = ODE_CFG.replace("t_final = 0.1", "t_final = 0.5")
    monkeypatch.setattr(os, "fork", no_fork)
    code, one_block = run_cli(tmp_path, "ode", cfg, out="one_block")
    assert code == 0
    assert sorted(os.listdir(one_block)) == ["equilibrium.csv", "trajectory.csv"]
    # the same rows in blocks of 7, streamed from a child
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(sir, "_BLOCK_ROWS", 7)
    code, forked = run_cli(tmp_path, "ode", cfg, out="forked")
    assert code == 0
    for name in os.listdir(forked):
        assert (one_block / name).read_bytes() == (forked / name).read_bytes()


def test_ode_of_more_than_one_block_forks(tmp_path, monkeypatch):
    import kinsir.sir as sir

    fork = os.fork
    forks = []

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    # tools/cli_parity.py's ode_blocks: 70,001 rows, a full block and a
    # partial one
    code, _ = run_cli(tmp_path, "ode", ODE_CFG.replace(
        "t_final = 0.1\ndt = 0.01", "t_final = 70\ndt = 1e-3"), out="blocks")
    assert (code, len(forks)) == (0, 1)
    # ODE_CFG's 11 rows: one block of 11 runs here, blocks of 10 fork
    for rows, expected in [(11, 1), (10, 2)]:
        monkeypatch.setattr(sir, "_BLOCK_ROWS", rows)
        code, _ = run_cli(tmp_path, "ode", ODE_CFG, out=f"rows{rows}")
        assert (code, len(forks)) == (0, expected)
    assert_no_child_is_left()


@pytest.mark.parametrize("rate", ["d1", "d2", "d3"])
def test_ode_with_a_zero_death_rate_writes_the_trajectory_without_a_report(
        tmp_path, rate):
    code, out = run_cli(tmp_path, "ode", ODE_CFG + f"{rate} = 0\n")
    assert code == 0
    _, _, rows = read_table(out / "trajectory.csv")
    assert len(rows) == 11  # steps + 1
    # R0 and the equilibria are undefined: only the column line
    _, columns, rows = read_table(out / "equilibrium.csv")
    assert columns == "quantity,value" and rows == []


def test_ode_with_death_rates_whose_product_underflows_writes_no_report(tmp_path):
    # 1e-110 cubed underflows to 0: sir finds R0 undefined, as for a zero rate
    code, out = run_cli(tmp_path, "ode",
                        ODE_CFG + "d1 = 1e-110\nd2 = 1e-110\nd3 = 1e-110\n")
    assert code == 0
    _, _, rows = read_table(out / "trajectory.csv")
    assert len(rows) == 11
    _, columns, rows = read_table(out / "equilibrium.csv")
    assert columns == "quantity,value" and rows == []


# R0 overflows to inf in the first; in the second R0 = 1e50, but qstar_s
# overflows: sir finds the report undefined, as for a zero rate
@pytest.mark.parametrize("rates, rows", [
    ("d1 = 1e-100\nd2 = 1e-100\nd3 = 1e-100\nbeta = 1e100\nk = 1e100\nr = 1e100\n"
     "t_final = 0.01\n", 11),
    ("d1 = 1e200\nd2 = 1e-300\nd3 = 1e200\nbeta = 1e-50\nk = 1e-50\nr = 1e250\n"
     "t_final = 0\n", 1)], ids=["r0", "qstar_s"])
def test_ode_whose_report_overflows_writes_no_report(tmp_path, rates, rows):
    code, out = run_cli(tmp_path, "ode", "c0 = 0\ns0 = 0\nu0 = 0\n" + rates)
    assert code == 0
    _, _, cells = read_table(out / "trajectory.csv")
    assert len(cells) == rows
    _, columns, cells = read_table(out / "equilibrium.csv")
    assert columns == "quantity,value" and cells == []


def test_ode_peak_memory_does_not_grow_with_the_step_count(tmp_path,
                                                          monkeypatch):
    # a whole trajectory in memory costs 32 bytes a step (three states and
    # a time), 288 KB more at 12,000 steps than at 3,000; a streamed run
    # holds a block or two of 1,024 rows (32 KB each) at any step count
    import kinsir.sir as sir

    monkeypatch.setattr(sir, "_BLOCK_ROWS", 1024)
    base = "r = 2\nc0 = 1.2\ns0 = 0.4\nu0 = 0.9\ndt = 1e-3\n"
    peaks = []
    for i, t_final in enumerate([3, 3, 12]):  # the first run warms up
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_text(base + f"t_final = {t_final}\n")
        tracemalloc.start()
        try:
            code = main(["ode", "--config", str(cfg),
                         "--out", str(tmp_path / f"out{i}")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[2] < peaks[1] + 1024 * 32


def test_every_failure_class_has_its_own_exit_code(tmp_path, monkeypatch):
    # Guards that only fire on direct solver misuse (not reachable through
    # the CLI's own step-size choices) are injected at the dispatch table.
    import kinsir.cli as cli
    from kinsir.errors import (
        CflViolationError,
        ConsistencyError,
        ResidualError,
        StepSizeError,
    )

    cases = [(ResidualError, 6), (ConsistencyError, 7),
             (CflViolationError, 8), (StepSizeError, 10)]
    for i, (error_class, expected) in enumerate(cases):
        def boom(config, out_dir, _cls=error_class):
            raise _cls("injected")

        monkeypatch.setitem(cli._COMMANDS, "coeffs", boom)
        code, _ = run_cli(tmp_path, "coeffs", "chi0 = 1.0\n", out=f"x{i}",
                          name=f"inject{i}.cfg")
        assert code == expected


def test_each_error_class_carries_its_own_exit_code():
    import kinsir.errors as errors

    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.KinsirError)]
    codes = sorted(cls.exit_code for cls in classes)
    assert codes == [*range(1, 11), 12]
    assert errors.KinsirError.exit_code == 1


def test_unexpected_exceptions_exit_one(tmp_path, monkeypatch):
    import kinsir.cli as cli

    def boom(config, out_dir):
        raise RuntimeError("not a toolkit error")

    monkeypatch.setitem(cli._COMMANDS, "coeffs", boom)
    code, _ = run_cli(tmp_path, "coeffs", "chi0 = 1.0\n")
    assert code == 1


@pytest.mark.parametrize("route", ["diffusion_tensor_from_theta",
                                   "perturbation_apply"])
def test_disagreeing_dual_routes_exit_seven(tmp_path, monkeypatch, capsys, route):
    # Perturb one route by one part in 1e9; the production path must notice.
    import kinsir.velocity as velocity

    original = getattr(velocity, route)
    monkeypatch.setattr(velocity, route,
                        lambda *args: original(*args) * (1.0 + 1e-9))
    code, _ = run_cli(tmp_path, "coeffs", "chi0 = 1.0\n")
    assert code == 7
    assert capsys.readouterr().err.startswith("error: ConsistencyError:")


@pytest.mark.parametrize("cfg", [
    "vmax = 1000\nsigma1 = 1e-4\nsigma2 = 1e-4\nsigma3 = 1e-4\n",
    "vmax = 37\nsigma1 = 1e-4\nn_nodes = 4\n",
])
def test_small_relaxation_rates_pass_the_theta_checks(tmp_path, cfg):
    # theta grows like 1/sigma; these configs once failed an absolute check
    code, out = run_cli(tmp_path, "coeffs", cfg)
    assert code == 0
    _, columns, rows = read_table(out / "coefficients.csv")
    assert columns == "name,value"
    assert [row[0] for row in rows] == ["Dc", "Ds", "Du", "chi"]


def test_errors_are_single_stderr_lines(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "ode", "betaa = 2\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ParseError:")
    assert "betaa" in err


def test_missing_config_file_exits_with_parse_code(tmp_path, capsys):
    code = main(["ode", "--config", str(tmp_path / "none.cfg"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


FILE_PROFILE_CFG = (b"profile = file\nprofile_file = cells.csv\nn_cells = 2\n"
                    b"t_final = 0.01\n")


@pytest.mark.parametrize("config, profile, unreadable", [
    (b"chi0 = 0.5\xff\n", None, "run.cfg"),
    (FILE_PROFILE_CFG, "directory", "cells.csv"),
    (FILE_PROFILE_CFG, b"1,1,1\n1,1,\xff1\n", "cells.csv"),
], ids=["config-not-utf8", "profile-is-a-directory", "profile-not-utf8"])
def test_unreadable_input_files_exit_with_parse_code(tmp_path, capsys, config,
                                                     profile, unreadable):
    (tmp_path / "run.cfg").write_bytes(config)
    if profile == "directory":
        (tmp_path / "cells.csv").mkdir()
    elif profile is not None:
        (tmp_path / "cells.csv").write_bytes(profile)
    out = tmp_path / "out"
    code = main(["macro", "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: cannot read")
    assert str(tmp_path / unreadable) in err
    assert not out.exists()


def test_parabolic_study_runs_from_a_file_profile(tmp_path):
    # the file gives one row per study cell; the refined reference used to
    # read it against its own 64 cells and exit 3
    ripple = (1 + 0.1 * np.cos(2 * np.pi * (np.arange(16) + 0.5) / 16)).tolist()
    (tmp_path / "cells.csv").write_text(
        "".join(f"{r!r},{0.5 * r!r},{0.5 * r!r}\n" for r in ripple))
    cfg = ("chi0 = 0.5\nprofile = file\nprofile_file = cells.csv\n"
           "n_cells = 16\nn_nodes = 8\nt_final = 0.05\neps_list = 0.4 0.2 0.1\n")
    code, out = run_cli(tmp_path, "converge", cfg)
    assert code == 0
    header, columns, rows = read_table(out / "convergence.csv")
    assert "# regime = parabolic" in header
    assert columns == "epsilon,error_c,error_s,error_u"
    assert len(rows) == 3
    assert all(0 < float(cell) < 1 for row in rows for cell in row[1:])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"kinsir {__version__}"


def test_file_profile_runs_through_the_macro_solver(tmp_path):
    rows = "\n".join("1.0,0.5,0.25" for _ in range(16))
    (tmp_path / "cells.csv").write_text("# c,s,u per cell\n" + rows + "\n")
    cfg = ("profile = file\nprofile_file = cells.csv\nn_cells = 16\n"
           "t_final = 0.01\n")
    code, out = run_cli(tmp_path, "macro", cfg)
    assert code == 0
    _, _, data = read_table(out / "macro_snapshots.csv")
    assert len(data) == 16


AGGREGATING_CFG = ("chi0 = 5\nprofile = cosine\ns0 = 0.5\nu0 = 0.5\n"
                   "amplitude = 0.9\nn_cells = 64\nr = 50\nbeta = 5\nk = 5\n"
                   "sigma2 = 100\nsigma3 = 100\nt_final = 0.05\n")


def test_growing_drift_within_a_segment_does_not_exit_ten(tmp_path):
    # the chemotactic drift of this run grows within its one snapshot
    # segment; a step size fixed at the segment's start exceeds the drift
    # bound before t = 0.05 and used to exit 10
    code, out = run_cli(tmp_path, "macro", AGGREGATING_CFG)
    assert code == 0
    _, _, rows = read_table(out / "macro_snapshots.csv")
    assert len(rows) == 64
    assert all(float(value) >= 0.0 for row in rows for value in row[2:])


def test_virus_growth_within_a_step_keeps_the_macro_run_nonnegative(tmp_path):
    # u = 0 at the start but k*s = 40: a step bound on the starting loss
    # alone lets u grow within the step until c turns negative (exit 9)
    code, out = run_cli(tmp_path, "macro", "c0 = 1\ns0 = 2\nu0 = 0\nk = 20\n")
    assert code == 0
    _, _, rows = read_table(out / "macro_snapshots.csv")
    assert all(float(value) >= 0.0 for row in rows for value in row[2:])


@pytest.mark.parametrize("subcommand", ["macro", "kinetic"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_profile_values_exit_with_parse_code(tmp_path, capsys,
                                                        subcommand, value):
    rows = ["1.0,0.5,0.25"] * 8
    rows[5] = f"{value},0.5,0.5"
    (tmp_path / "cells.csv").write_text("# c,s,u per cell\n" + "\n".join(rows) + "\n")
    cfg = ("profile = file\nprofile_file = cells.csv\nn_cells = 8\n"
           "n_nodes = 8\nt_final = 0.01\n")
    code, out = run_cli(tmp_path, subcommand, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError:")
    assert "cells.csv:7: non-finite value" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, cfg", [
    ("macro", "n_cells = 8\nt_final = 0.01\nsnapshot_times = nan\n"),
    ("converge", "n_cells = 8\nn_nodes = 4\nt_final = 0.01\neps_list = 0.4 0.2 nan\n"),
])
def test_non_finite_list_values_exit_with_parse_code(tmp_path, capsys,
                                                     subcommand, cfg):
    code, out = run_cli(tmp_path, subcommand, cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ParseError:")
    assert not out.exists()


@pytest.mark.parametrize("profile, code, message", [
    ("1,0.5\n1,0.5\n", 2, r"cells\.csv:1: expected 'c,s,u'"),
    ("1,0.5,0.2\n1,half,0.2\n", 2, r"cells\.csv:2: non-numeric value"),
    ("1,0.5,0.2\n1,0.5,0.2\n1,0.5,0.2\n", 3, "3 rows but the grid has 2 cells"),
    ("1,0.5,0.2\n1,-0.5,0.2\n", 3, "initial densities must be >= 0"),
], ids=["column-count", "non-numeric", "row-count", "negative"])
def test_malformed_profile_files_are_reported(tmp_path, capsys, profile, code,
                                              message):
    (tmp_path / "cells.csv").write_text(profile)
    exit_code, out = run_cli(tmp_path, "macro", FILE_PROFILE_CFG.decode())
    assert exit_code == code
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_profile_file_lines_end_at_newlines_alone(tmp_path):
    # str.splitlines() would also end a line at \x0c, \x85 or \u2028 and
    # read each of these rows as two rows of too few columns
    (tmp_path / "cells.csv").write_text("1,0.5\x0c,0.2\n1,0.5\x85,0.2\u2028\n",
                                        encoding="utf-8")
    code, out = run_cli(tmp_path, "macro", FILE_PROFILE_CFG.decode())
    assert code == 0
    _, _, rows = read_table(out / "macro_snapshots.csv")
    assert len(rows) == 2


@pytest.mark.parametrize("mark", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_config_lines_end_at_newlines_alone(tmp_path, mark):
    # as a profile file's: str.splitlines() would also end this comment at
    # mark and read the rest as a second t_final
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ODE_CFG + f"# not{mark}t_final = 0.05\n", encoding="utf-8")
    assert main(["ode", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    _, _, rows = read_table(tmp_path / "out" / "trajectory.csv")
    assert len(rows) == 11


def test_ode_rejects_a_negative_start_from_a_file_profile_config(tmp_path, capsys):
    # a file profile leaves c0, s0 and u0 unchecked by the config; the
    # integrator checks its starting state itself
    (tmp_path / "cells.csv").write_text("1,0,0\n1,0,0\n")
    code, _ = run_cli(tmp_path, "ode",
                      FILE_PROFILE_CFG.decode() + "c0 = -1\ns0 = -5\n")
    assert code == 3
    assert "initial state must be finite and >= 0" in capsys.readouterr().err


def test_ode_step_counts_beyond_an_array_exit_three(tmp_path, capsys):
    code, out = run_cli(tmp_path, "ode", ODE_CFG.replace("dt = 0.01", "dt = 1e-300"))
    assert code == 3
    assert "t_final / dt = 1.000e+299 steps" in capsys.readouterr().err
    assert not out.exists()


# cell counts that numpy rejects before it allocates: the first does not
# fit an intp, a row of the second does not fit the address space
@pytest.mark.parametrize("n_cells", [10 ** 19, 2 ** 61])
@pytest.mark.parametrize("subcommand", ["macro", "kinetic", "converge"])
def test_cell_counts_beyond_an_array_exit_three(tmp_path, capsys, subcommand,
                                                 n_cells):
    code, out = run_cli(tmp_path, subcommand, f"n_cells = {n_cells}\nt_final = 0.01\n")
    assert code == 3
    assert f"n_cells = {n_cells:.3e} is more cells" in capsys.readouterr().err
    assert not out.exists()


OVERFLOW_CFG = ("profile = cosine\nc0 = 1e200\ns0 = 1e200\nu0 = 1e200\n"
                "n_cells = 16\nn_nodes = 8\nt_final = 0.01\n")


# the infection term c*u overflows in the first step
OVERFLOWS = [
    ("ode", 4, "NegativeStateError: state component nan at t = 0.001 is not finite"),
    ("macro", 9, "NegativityError: macro field c reached -inf, which is not finite"),
    ("kinetic", 9, "NegativityError: density of kinetic distribution f1 reached nan, "
                   "which is not finite"),
]


@pytest.mark.parametrize("subcommand, code, message", OVERFLOWS)
def test_overflowing_states_exit_with_their_code_and_leave_no_directory(
        tmp_path, capsys, subcommand, code, message):
    exit_code, out = run_cli(tmp_path, subcommand, OVERFLOW_CFG)
    assert exit_code == code
    assert message in capsys.readouterr().err
    assert not out.exists()


# a fresh interpreter prints numpy's warnings under its default filters, as
# an installed kinsir does, so only the CLI's own errstate keeps them out
@pytest.mark.parametrize("subcommand, code, message", OVERFLOWS)
def test_an_overflowing_run_prints_one_stderr_line(tmp_path, subcommand, code,
                                                   message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(OVERFLOW_CFG)
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(errors.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "kinsir.cli", subcommand, "--config", str(cfg),
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert done.returncode == code
    assert done.stderr == f"error: {message}\n"
    assert not out.exists()


# the node count is checked when a run builds its velocity grid, after
# parsing; a run that stops there has written nothing and made no directory
@pytest.mark.parametrize("n_nodes, code, message", [
    (7, 5, "OddNodeCountError: n_nodes must be an even integer"),
    (2, 3, "ValidationError: n_nodes must be >= 4"),
])
@pytest.mark.parametrize("subcommand", ["macro", "kinetic", "converge", "coeffs"])
def test_bad_node_counts_exit_with_their_code_and_leave_no_directory(
        tmp_path, capsys, subcommand, n_nodes, code, message):
    exit_code, out = run_cli(tmp_path, subcommand,
                             f"n_nodes = {n_nodes}\nn_cells = 8\nt_final = 0.01\n")
    assert exit_code == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_nodes", [7, 2])
def test_ode_ignores_the_node_count(tmp_path, n_nodes):
    code, out = run_cli(tmp_path, "ode", ODE_CFG + f"n_nodes = {n_nodes}\n")
    assert code == 0
    assert sorted(os.listdir(out)) == ["equilibrium.csv", "trajectory.csv"]


@pytest.mark.parametrize("subcommand", ["ode", "macro", "kinetic", "converge",
                                        "coeffs"])
def test_snapshot_times_beyond_t_final_exit_three_at_parse_time(tmp_path, capsys,
                                                                subcommand):
    code, out = run_cli(tmp_path, subcommand, "snapshot_times = 2\nt_final = 1\n")
    assert code == 3
    assert "snapshot times must lie in" in capsys.readouterr().err
    assert not out.exists()


# at q1 = 2 the velocity bias, which scales as chi0*eps^(p-q1-1), outweighs
# the relaxation: Lambda = eps^p*chi0*max|ds/dx|*max|v|/(sigma1*M) starts
# at 3.0, and the model's own f1 goes negative, so no cfl mends the run
BIASED_KINETIC_CFG = (
    "q1 = 2\nchi0 = 1.2272\nepsilon = 0.3536\nvmax = 1.5\nd1 = 0.4853\n"
    "d2 = 0.6493\nd3 = 0.6441\nbeta = 0.6562\nk = 1.2095\nr = 0.5993\n"
    "sigma1 = 0.5824\nsigma2 = 1.1289\nsigma3 = 1.2859\nprofile = cosine\n"
    "c0 = 1\ns0 = 0.5\nu0 = 0.25\namplitude = 0.3\nn_cells = 32\n"
    "n_nodes = 8\nt_final = 0.05\n")


@pytest.mark.parametrize("cfl", [0.38, 0.05])
def test_a_biased_kinetic_run_names_the_bias_number(tmp_path, capsys, cfl):
    exit_code, out = run_cli(tmp_path, "kinetic", BIASED_KINETIC_CFG + f"cfl = {cfl}\n")
    assert exit_code == 9
    err = capsys.readouterr().err.strip()
    assert re.search(r"kinetic distribution f1 reached -\S+ where the bias outweighs "
                     r"the relaxation: Lambda = .* = 2\.5\d > 1$", err)
    assert "reduce cfl" not in err
    assert not out.exists()


def test_identically_zero_errors_report_a_flat_order(tmp_path, capsys):
    # zero densities with r = 0 stay zero on both tiers: every error is 0.0
    cfg = ("q1 = 2\nq2 = 2\nq3 = 2\np = 2\nr = 0\nc0 = 0\nn_cells = 8\n"
           "n_nodes = 8\nt_final = 0.05\neps_list = 0.4 0.2 0.1\n")
    code, out = run_cli(tmp_path, "converge", cfg)
    assert code == 0
    assert "orders c=0.000 s=0.000 u=0.000 estimated=0.000" in capsys.readouterr().out
    header, _, rows = read_table(out / "convergence.csv")
    assert "# estimated_order = 0" in header
    assert all(float(cell) == 0.0 for row in rows for cell in row[1:])


# README's exit codes other than 1, an unexpected internal error: 0 and the
# code that each error class carries
DOCUMENTED_EXIT_CODES = {0} | {
    cls.exit_code for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.KinsirError)} - {1}

_RATE = st.floats(0.0, 2.0)
_DENSITY = st.floats(0.0, 2.0)


_IN_RANGE = st.fixed_dictionaries({
    "n_cells": st.integers(2, 16), "n_nodes": st.sampled_from([4, 6, 8]),
    "t_final": st.floats(0.0, 0.05), "chi0": st.floats(0.0, 1.0),
    "epsilon": st.floats(0.1, 1.0), "profile": st.sampled_from(["constant", "cosine"]),
    "c0": _DENSITY, "s0": _DENSITY, "u0": _DENSITY,
    "amplitude": st.floats(0.0, 1.0), "mode": st.integers(1, 4),
    "d1": _RATE, "beta": _RATE, "k": _RATE, "r": _RATE,
    "sigma1": st.floats(0.1, 10.0), "q3": st.integers(1, 2),
})


def assert_exits_zero_or_with_a_documented_code(subcommand, values, cells=()):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w") as handle:
            handle.writelines(f"{key} = {value}\n" for key, value in values.items())
        with open(os.path.join(tmp, "cells.csv"), "w") as handle:
            handle.writelines(",".join(map(str, row)) + "\n" for row in cells)
        out = os.path.join(tmp, "out")
        code = main([subcommand, "--config", config, "--out", out])
        assert code in DOCUMENTED_EXIT_CODES
        assert code == 0 or not os.path.exists(out)


@settings(max_examples=60, deadline=None)
@given(subcommand=st.sampled_from(["ode", "macro", "kinetic", "converge", "coeffs"]),
       values=_IN_RANGE)
def test_in_range_configs_exit_zero_or_with_a_documented_code(subcommand, values):
    assert_exits_zero_or_with_a_documented_code(subcommand, values)


@settings(max_examples=40, deadline=None)
@given(subcommand=st.sampled_from(["macro", "kinetic", "converge"]),
       values=_IN_RANGE, data=st.data())
def test_in_range_time_and_eps_lists_exit_zero_or_with_a_documented_code(
        subcommand, values, data):
    # snapshot times anywhere in [0, t_final], in any order and repeated,
    # and three distinct eps in (0, 1], in any order; eps >= 0.1 as for
    # epsilon above, since a study's steps grow as eps shrinks
    times = data.draw(st.lists(st.floats(0.0, values["t_final"]), max_size=4))
    eps = data.draw(st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3,
                             unique=True))
    values = {**values, "eps_list": " ".join(map(str, eps))}
    if times:
        values["snapshot_times"] = " ".join(map(str, times))
    assert_exits_zero_or_with_a_documented_code(subcommand, values)


@settings(max_examples=60, deadline=None)
@given(subcommand=st.sampled_from(["ode", "macro", "kinetic", "converge", "coeffs"]),
       values=_IN_RANGE, data=st.data())
def test_in_range_file_profiles_exit_zero_or_with_a_documented_code(
        subcommand, values, data):
    # a cells.csv beside the config, one drawn c,s,u row per cell
    cells = data.draw(st.lists(st.tuples(_DENSITY, _DENSITY, _DENSITY),
                               min_size=values["n_cells"], max_size=values["n_cells"]))
    values = {**values, "profile": "file", "profile_file": "cells.csv"}
    assert_exits_zero_or_with_a_documented_code(subcommand, values, cells)


# ---------------------------------------------------------------------------
# the table writer


_SPECIAL = [-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1e300,
            math.nan, math.inf, -math.inf]


def _blocks(n_rows, n_blocks, first_column):
    # (first column, values) blocks: _SPECIAL in every column and
    # random-scale numbers in the last one
    rng = np.random.default_rng(n_rows)
    blocks = []
    for b in range(n_blocks):
        values = np.resize(_SPECIAL, (n_rows, 3))
        scales = 10.0 ** rng.integers(-300, 300, n_rows)
        values[:, 2] = rng.standard_normal(n_rows) * scales
        blocks.append((first_column(b).tolist(), values))
    return blocks


def assert_table_matches_per_number_formatting(blocks):
    lines = "\n".join(_table("t,c,s,u", [(_texts(first), values)
                                         for first, values in blocks])).split("\n")
    expected = [",".join(f"{x:.17g}" for x in (t, *row))
                for first, values in blocks for t, row in zip(first, values)]
    assert lines == ["t,c,s,u"] + expected


@pytest.mark.parametrize("n_blocks", [1, 3])
@pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65, 129])
def test_trajectory_writer_matches_per_number_formatting(n_rows, n_blocks):
    # a trajectory's times, _SPECIAL too, differ row by row
    assert_table_matches_per_number_formatting(_blocks(
        n_rows, n_blocks, lambda b: np.resize(_SPECIAL[::-1], n_rows) + b))


@pytest.mark.parametrize("n_blocks", [1, 3])
@pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65, 129])
def test_table_writer_matches_per_number_formatting(n_rows, n_blocks):
    # a snapshot's one time per block
    assert_table_matches_per_number_formatting(_blocks(
        n_rows, n_blocks, lambda b: np.full(n_rows, b / 7)))
    # a named table, a column of names first; with no rows, its column line
    pairs = [(f"q{i}", x) for i, x in enumerate(np.resize(_SPECIAL, n_rows).tolist())]
    lines = "\n".join(_table("quantity,value", [_named(pairs)])).split("\n")
    assert lines == ["quantity,value"] + [f"{name},{x:.17g}" for name, x in pairs]


@pytest.mark.parametrize("fork", [True, False])
@pytest.mark.parametrize("t_final, n_rows", [("2.5", 251), ("0", 1)])
def test_trajectory_file_matches_per_number_formatting(tmp_path, monkeypatch,
                                                       fork, t_final, n_rows):
    import kinsir.sir as sir

    # blocks of 100 rows: chunks of 64 and 36 rows, and a last block of 51
    monkeypatch.setattr(sir, "_BLOCK_ROWS", 100)
    if not fork:
        monkeypatch.delattr(os, "fork")
    code, out = run_cli(tmp_path, "ode", ODE_CFG.replace("t_final = 0.1",
                                                         f"t_final = {t_final}"))
    assert code == 0
    config = load_config(str(tmp_path / "run.cfg"))
    whole = integrate_sir(SirState(config.c0, config.s0, config.u0),
                          config.params, config.t_final, config.dt)
    lines = [line for line in (out / "trajectory.csv").read_text().splitlines()
             if not line.startswith("#")]
    expected = [",".join(f"{x:.17g}" for x in (t, *state))
                for t, state in zip(whole.times, whole.states)]
    assert len(expected) == n_rows
    assert lines == ["t,c,s,u"] + expected
