"""Command line interface: reproducible runs of every tier.

    kinsir {ode|macro|kinetic|converge|coeffs} --config FILE [--out DIR]

Each run writes headered CSV files into the output directory. The header
records the toolkit version, the subcommand, and the fully resolved
configuration, so identical configs yield byte-identical files. An error
exits with its class's exit_code (1 if it has none) and one stderr line.
"""

import argparse
import os
import sys
from itertools import chain

from . import __version__
from .config import load_config
from .convergence import run_convergence_study
from .errors import KinsirError
from .grids import SpatialGrid
from .kinetic import init_local_equilibrium, run_kinetic
from .macro import build_macro_coefficients, run_macro
from .sir import SirState, equilibria, integrate_sir
from .velocity import build_velocity_grid, species_equilibria


def _fmt(value):
    return f"{value:.17g}"


def _header(subcommand, config):
    lines = [f"kinsir {__version__}", f"subcommand = {subcommand}"]
    lines.extend(config.resolved_lines())
    return ["# " + line for line in lines]


def _write_csv(path, header, lines):
    """Write the header comment lines, then the table lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in chain(header, lines):
            handle.write(line + "\n")


def _numbers(columns, rows):
    """Table lines: the column names, then one line per row of numbers."""
    yield columns
    for row in rows:
        yield ",".join(map(_fmt, row))


def _named(columns, pairs):
    """Table lines: the column names, then one `name,value` line per pair."""
    yield columns
    for name, value in pairs:
        yield f"{name},{_fmt(value)}"


def _write_snapshots(path, header, snapshots, grid):
    rows = (
        (snap.time, x, c, s, u)
        for snap in snapshots
        for x, c, s, u in zip(grid.centers, *snap.rho)
    )
    _write_csv(path, header, _numbers("time,x,c,s,u", rows))


def _cmd_ode(config, out_dir):
    """integrate the virus ODE system and report its equilibria"""
    header = _header("ode", config)
    trajectory = integrate_sir(
        SirState(config.c0, config.s0, config.u0),
        config.params, config.t_final, config.dt,
    )
    rows = (
        (t, row[0], row[1], row[2])
        for t, row in zip(trajectory.times, trajectory.states)
    )
    _write_csv(os.path.join(out_dir, "trajectory.csv"), header,
               _numbers("t,c,s,u", rows))

    report = equilibria(config.params)
    quantities = [("r0", report.r0)]
    quantities += [(f"q0_{f}", v) for f, v in
                   zip("csu", (report.q0.u, report.q0.v, report.q0.w))]
    if report.qstar is not None:
        quantities += [(f"qstar_{f}", v) for f, v in
                       zip("csu", (report.qstar.u, report.qstar.v, report.qstar.w))]
    _write_csv(os.path.join(out_dir, "equilibrium.csv"), header,
               _named("quantity,value", quantities))
    return ["trajectory.csv", "equilibrium.csv"]


def _cmd_macro(config, out_dir):
    """run the chemotaxis-reaction-diffusion solver"""
    header = _header("macro", config)
    grid = SpatialGrid(config.length, config.n_cells)
    vgrid = build_velocity_grid(config.params.vmax, config.n_nodes)
    coeff = build_macro_coefficients(config.params, vgrid)
    snapshots = run_macro(
        config.profile.build(grid), coeff, config.t_final,
        snapshot_times=config.snapshot_times,
        dt_max=config.dt_max or None,
    )
    _write_snapshots(os.path.join(out_dir, "macro_snapshots.csv"),
                     header, snapshots, grid)
    return ["macro_snapshots.csv"]


def _cmd_kinetic(config, out_dir):
    """run the velocity-jump solver and emit moments"""
    header = _header("kinetic", config)
    grid = SpatialGrid(config.length, config.n_cells)
    vgrid = build_velocity_grid(config.params.vmax, config.n_nodes)
    eqs = species_equilibria(vgrid)
    state = init_local_equilibrium(
        config.profile.build(grid), eqs, vgrid, config.epsilon
    )
    snapshots, _ = run_kinetic(
        state, config.params, eqs, config.t_final,
        snapshot_times=config.snapshot_times, cfl=config.cfl,
    )
    _write_snapshots(os.path.join(out_dir, "kinetic_moments.csv"),
                     header, snapshots, grid)
    return ["kinetic_moments.csv"]


def _cmd_converge(config, out_dir):
    """run a kinetic-to-limit convergence study"""
    header = _header("converge", config)
    report = run_convergence_study(
        config.params, config.profile, config.eps_list, config.t_final,
        snapshot_times=config.snapshot_times,
        length=config.length, n_cells=config.n_cells, n_nodes=config.n_nodes,
        ref_refine=config.ref_refine, cfl=config.cfl,
    )
    _write_csv(os.path.join(out_dir, "convergence.csv"), header,
               report.to_lines())
    orders = " ".join(f"{f}={report.orders[f]:.3f}" for f in ("c", "s", "u"))
    print(f"converge: regime={report.regime} orders {orders} "
          f"estimated={report.estimated_order:.3f}")
    return ["convergence.csv"]


def _cmd_coeffs(config, out_dir):
    """print the derived transport coefficients"""
    header = _header("coeffs", config)
    vgrid = build_velocity_grid(config.params.vmax, config.n_nodes)
    coeff = build_macro_coefficients(config.params, vgrid)
    rows = [("Dc", coeff.Dc), ("Ds", coeff.Ds), ("Du", coeff.Du),
            ("chi", coeff.chi)]
    _write_csv(os.path.join(out_dir, "coefficients.csv"), header,
               _named("name,value", rows))
    return ["coefficients.csv"]


_COMMANDS = {
    "ode": _cmd_ode,
    "macro": _cmd_macro,
    "kinetic": _cmd_kinetic,
    "converge": _cmd_converge,
    "coeffs": _cmd_coeffs,
}


def dispatch(subcommand, config, out_dir):
    """Run one subcommand; returns the list of files written."""
    os.makedirs(out_dir, exist_ok=True)
    return _COMMANDS[subcommand](config, out_dir)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kinsir",
        description="Virus dynamics across kinetic and macroscopic scales.",
    )
    parser.add_argument("--version", action="version",
                        version=f"kinsir {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.__doc__)
        sub.add_argument("--config", required=True, help="key = value file")
        sub.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        written = dispatch(args.subcommand, config, args.out)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, KinsirError) else 1
    for name in written:
        print(f"wrote {os.path.join(args.out, name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
