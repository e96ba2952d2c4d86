"""Command line interface: reproducible runs of every tier.

    kinsir {ode|macro|kinetic|converge|coeffs} --config FILE [--out DIR]

Each run writes headered CSV files into the output directory, made when
its first file is opened; each file is written whole or not at all. The
header records the toolkit version, the subcommand, and the fully
resolved configuration, so identical configs yield byte-identical files.
An error exits with its class's exit_code (1 if it has none) and one
stderr line.
"""

import argparse
import os
import sys
from contextlib import nullcontext, suppress
from dataclasses import astuple
from itertools import chain

import numpy as np

from . import __version__, sir
from .ahead import computed_ahead
from .config import load_config
from .convergence import run_convergence_study
from .errors import KinsirError, ValidationError
from .grids import SpatialGrid, split
from .kinetic import init_local_equilibrium, run_kinetic
from .macro import build_macro_coefficients, run_macro
from .sir import SirState, equilibria, integrate_sir_blocks
from .velocity import build_velocity_grid, species_equilibria


# rows per % call: a chunk's string (about 5 KB) stays below the text
# buffer, and no full-size copy of a table is ever built
_CHUNK_ROWS = 64


def _header(subcommand, config, *extra):
    lines = [f"kinsir {__version__}", f"subcommand = {subcommand}"]
    return ["# " + line for line in (*lines, *config.resolved_lines(), *extra)]


def _write_csv(out_dir, name, header, lines):
    """Write the header comment lines, then the table lines, to out_dir/name.

    The lines go to a temporary sibling that replaces out_dir/name after
    the last one, so the file is written whole or not at all: on an error
    the temporary file is deleted, and out_dir too if this call made it
    and nothing else is in it. out_dir is made here, so a run that fails
    before it writes leaves nothing behind. Each item gets one trailing
    newline; a table item may hold several lines already joined by
    newlines.
    """
    made = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    partial = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as handle:
            for line in chain(header, lines):
                handle.write(line + "\n")
        os.replace(partial, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(partial)
        if made and not os.listdir(out_dir):
            os.rmdir(out_dir)
        raise


def _texts(column, field="%.17g"):
    """A table's first column as text: the column's items formatted with
    field, one newline-joined string per chunk of _CHUNK_ROWS rows.

    The text becomes its chunk's row format in _table, so it must hold no
    % (%.17g output holds none).
    """
    return ["\n".join([field] * len(chunk)) % tuple(chunk)
            for chunk in (column[start:start + _CHUNK_ROWS]
                          for start in range(0, len(column), _CHUNK_ROWS))]


def _table(columns, blocks):
    """Table lines: the column names, then the rows of each (texts, values)
    block, where texts is the first column's _texts and values holds the
    other columns as a C-contiguous (rows, k) array.

    Each chunk's text becomes its rows' format, with k %.17g fields after
    each first field, and one % call fills in the chunk's values.
    """
    yield columns
    for texts, values in blocks:
        fields = ",%.17g" * values.shape[1]
        for start, text in zip(range(0, len(values), _CHUNK_ROWS), texts):
            chunk = values[start:start + _CHUNK_ROWS]
            rows = text.replace("\n", fields + "\n") + fields
            yield rows % tuple(chunk.ravel().tolist())


def _named(pairs):
    """The (texts, values) block of a table of (name, number) pairs."""
    values = np.array([value for _, value in pairs], dtype=float)
    return _texts([name for name, _ in pairs], "%s"), values.reshape(-1, 1)


def _write_snapshots(out_dir, name, header, snapshots, grid):
    blocks = ((_texts([snap.time] * grid.n_cells),
               np.column_stack((grid.centers, *snap.rho))) for snap in snapshots)
    _write_csv(out_dir, name, header, _table("time,x,c,s,u", blocks))


def _cmd_ode(config, out_dir):
    """integrate the virus ODE system and report its equilibria"""
    header = _header("ode", config)
    # the arguments and the equilibrium report are checked before a child
    # integrates the trajectory block by block and formats its times, as
    # the parent writes the rows before them
    trajectory = integrate_sir_blocks(
        SirState(config.c0, config.s0, config.u0),
        config.params, config.t_final, config.dt,
    )
    try:
        report = equilibria(config.params)
    except ValidationError:  # sir's rule: R0 or an equilibrium is undefined
        quantities = []
    else:
        quantities = [("r0", report.r0),
                      *zip(("q0_c", "q0_s", "q0_u"), astuple(report.q0))]
        if report.qstar is not None:
            quantities += zip(("qstar_c", "qstar_s", "qstar_u"), astuple(report.qstar))
    # a trajectory of one block has nothing to overlap, so it is not
    # worth a fork
    n_steps, _ = split(config.t_final, config.dt)
    ahead = computed_ahead if n_steps + 1 > sir._BLOCK_ROWS else nullcontext
    blocks = ((_texts(times.tolist()), states) for times, states in trajectory)
    with ahead(blocks) as received:
        _write_csv(out_dir, "trajectory.csv", header, _table("t,c,s,u", received))
    _write_csv(out_dir, "equilibrium.csv", header,
               _table("quantity,value", [_named(quantities)]))
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
    _write_snapshots(out_dir, "macro_snapshots.csv", header, snapshots, grid)
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
    _write_snapshots(out_dir, "kinetic_moments.csv", header, snapshots, grid)
    return ["kinetic_moments.csv"]


def _cmd_converge(config, out_dir):
    """run a kinetic-to-limit convergence study"""
    report = run_convergence_study(
        config.params, config.profile, config.eps_list, config.t_final,
        snapshot_times=config.snapshot_times,
        length=config.length, n_cells=config.n_cells, n_nodes=config.n_nodes,
        ref_refine=config.ref_refine, cfl=config.cfl,
    )
    header = _header("converge", config, f"regime = {report.regime}",
                     "exponents = " + " ".join(map(str, report.exponents)),
                     f"reference = {report.reference_descriptor}",
                     *(f"order_{f} = {report.orders[f]:.17g}" for f in "csu"),
                     f"estimated_order = {report.estimated_order:.17g}")
    errors = np.column_stack([report.errors[f] for f in "csu"])
    _write_csv(out_dir, "convergence.csv", header,
               _table("epsilon,error_c,error_s,error_u",
                      [(_texts(report.epsilons), errors)]))
    orders = " ".join(f"{f}={report.orders[f]:.3f}" for f in "csu")
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
    _write_csv(out_dir, "coefficients.csv", header,
               _table("name,value", [_named(rows)]))
    return ["coefficients.csv"]


_COMMANDS = {
    "ode": _cmd_ode,
    "macro": _cmd_macro,
    "kinetic": _cmd_kinetic,
    "converge": _cmd_converge,
    "coeffs": _cmd_coeffs,
}


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
        # an overflow is reported once, where a solver finds a state that is
        # not finite, not also as numpy's warnings
        with np.errstate(all="ignore"):
            written = _COMMANDS[args.subcommand](config, args.out)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, KinsirError) else 1
    for name in written:
        print(f"wrote {os.path.join(args.out, name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
