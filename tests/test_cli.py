"""End-to-end CLI tests: golden output schemas, reproducibility, exit codes.

Each test drives main() in-process with a config written to tmp_path and
inspects the files it leaves behind.
"""

import os
import re

import pytest

from kinsir import __version__
from kinsir.cli import _header, main
from kinsir.config import load_config
from kinsir.convergence import run_convergence_study


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
    lines = _header("converge", config) + report.to_lines()
    assert (out / "convergence.csv").read_text() == "\n".join(lines) + "\n"
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
        ("kinetic", "n_nodes = 7\nt_final = 0.01\n", 5),  # OddNodeCountError
        ("kinetic",
         "d1 = 100\nepsilon = 0.5\nn_cells = 8\nn_nodes = 8\nt_final = 0.1\n",
         9),                                            # NegativityError
        ("converge", "q1 = 2\nn_cells = 16\nn_nodes = 8\nt_final = 0.01\n", 11),
        ("converge",
         "eps_list = 0.4 0.2\nn_cells = 16\nn_nodes = 8\nt_final = 0.01\n",
         12),                                           # DegenerateFitError
    ]
    for i, (subcommand, cfg, expected) in enumerate(cases):
        code, _ = run_cli(tmp_path, subcommand, cfg, out=f"e{i}",
                          name=f"case{i}.cfg")
        assert code == expected, f"{subcommand} case {i}"


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
    assert codes == list(range(1, 13))
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
    assert not out.exists() or not os.listdir(out)


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
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("subcommand, cfg", [
    ("macro", "n_cells = 8\nt_final = 0.01\nsnapshot_times = nan\n"),
    ("converge", "n_cells = 8\nn_nodes = 4\nt_final = 0.01\neps_list = 0.4 0.2 nan\n"),
])
def test_non_finite_list_values_exit_with_parse_code(tmp_path, capsys,
                                                     subcommand, cfg):
    code, out = run_cli(tmp_path, subcommand, cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ParseError:")
    assert not out.exists() or not os.listdir(out)


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
    assert not out.exists() or not os.listdir(out)


def test_ode_rejects_a_negative_start_from_a_file_profile_config(tmp_path, capsys):
    # a file profile leaves c0, s0 and u0 unchecked by the config; the
    # integrator checks its starting state itself
    (tmp_path / "cells.csv").write_text("1,0,0\n1,0,0\n")
    code, _ = run_cli(tmp_path, "ode",
                      FILE_PROFILE_CFG.decode() + "c0 = -1\ns0 = -5\n")
    assert code == 3
    assert "initial state must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["ode", "macro", "kinetic", "converge",
                                        "coeffs"])
def test_snapshot_times_beyond_t_final_exit_three_at_parse_time(tmp_path, capsys,
                                                                subcommand):
    code, out = run_cli(tmp_path, subcommand, "snapshot_times = 2\nt_final = 1\n")
    assert code == 3
    assert "snapshot times must lie in" in capsys.readouterr().err
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
