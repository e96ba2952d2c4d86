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
import pickle
import signal
import sys
from contextlib import contextmanager, suppress
from itertools import chain

import numpy as np

from . import __version__
from .config import load_config
from .convergence import run_convergence_study
from .errors import KinsirError
from .grids import SpatialGrid
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


def _numbers(columns, blocks):
    """Table lines: the column names, then the rows of each block.

    A block is a sequence of equal-length number columns; row i holds
    element i of each column. Each chunk of up to _CHUNK_ROWS rows is
    formatted by one % call with %.17g, and the chunk's lines come out
    joined by newlines.
    """
    yield columns
    for block in blocks:
        row = ",".join(["%.17g"] * len(block))
        for start in range(0, len(block[0]), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            chunk = np.column_stack([col[start:stop] for col in block])
            yield "\n".join([row] * len(chunk)) % tuple(chunk.ravel().tolist())


def _named(columns, pairs):
    """Table lines: the column names, then one `name,value` line per pair."""
    yield columns
    for name, value in pairs:
        yield f"{name},{value:.17g}"


def _write_snapshots(out_dir, name, header, snapshots, grid):
    blocks = [(np.full(grid.n_cells, snap.time), grid.centers, *snap.rho)
              for snap in snapshots]
    _write_csv(out_dir, name, header, _numbers("time,x,c,s,u", blocks))


def _stream(blocks, sink):
    """In a forked child: write each (times, states) block to the pipe
    sink, then the end of the stream. Leaves the process only through
    os._exit, so it flushes no buffer it inherited and runs no exit
    handler. The blocks take only float arithmetic, np.empty and
    np.arange, no BLAS call and no lock that another thread of the parent
    may have held at the fork."""
    status = 1
    try:
        try:
            for times, states in blocks:
                sink.write(np.int64(len(times)).tobytes())
                sink.write(times)
                sink.write(states)
                # the whole block goes out now: the parent formats it while
                # this process computes the next one
                sink.flush()
            sink.write(np.int64(0).tobytes())
        except BaseException as exc:
            sink.write(np.int64(-1).tobytes() + pickle.dumps(exc))
        sink.flush()
        status = 0
    finally:
        os._exit(status)


@contextmanager
def _computed_ahead(blocks):
    """The (times, states) blocks of an iterator, computed in a forked child
    while the caller consumes the blocks before them.

    The child sends each block through a pipe as an int64 row count, then
    the raw float64 bytes of its times and states, and ends the stream with
    0, or with -1 and the pickled exception that stopped it, which the
    caller's iteration raises again. A stream that ends without either
    raises a RuntimeError that names the child's exit status. The child is
    killed and reaped when the with block exits, however it exits. Without
    os.fork the blocks are iterated in this process.
    """
    if not hasattr(os, "fork"):
        yield blocks
        return
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as pipe, open(write_fd, "wb") as sink:
        pid = os.fork()
        if pid == 0:
            pipe.close()
            _stream(blocks, sink)
        waited = []

        def reap():
            if not waited:
                waited.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            return waited[0]

        def fill(array):
            if pipe.readinto(array) != array.nbytes:
                code = reap()
                how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                raise RuntimeError("the process integrating the trajectory "
                                   f"ended early, with {how}")
            return array

        def received():
            count = np.empty(1, np.int64)
            while (rows := int(fill(count)[0])) > 0:
                yield fill(np.empty(rows)), fill(np.empty((rows, 3)))
            if rows < 0:
                raise pickle.load(pipe)

        try:
            sink.close()
            yield received()
        finally:
            if not waited:
                os.kill(pid, signal.SIGKILL)
                reap()


def _cmd_ode(config, out_dir):
    """integrate the virus ODE system and report its equilibria"""
    header = _header("ode", config)
    # the arguments and the equilibrium report are checked before a child
    # integrates the trajectory block by block, as the parent writes them
    trajectory = integrate_sir_blocks(
        SirState(config.c0, config.s0, config.u0),
        config.params, config.t_final, config.dt,
    )
    params = config.params
    quantities = []
    # R0 and the equilibria are undefined when a death rate is zero
    if 0.0 not in (params.d1, params.d2, params.d3):
        report = equilibria(params)
        quantities += [("r0", report.r0)]
        quantities += [(f"q0_{f}", v) for f, v in
                       zip("csu", (report.q0.u, report.q0.v, report.q0.w))]
        if report.qstar is not None:
            quantities += [(f"qstar_{f}", v) for f, v in
                           zip("csu", (report.qstar.u, report.qstar.v, report.qstar.w))]
    with _computed_ahead(trajectory) as received:
        blocks = ((times, *states.T) for times, states in received)
        _write_csv(out_dir, "trajectory.csv", header, _numbers("t,c,s,u", blocks))
    _write_csv(out_dir, "equilibrium.csv", header,
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
    errors = [report.errors[f] for f in "csu"]
    _write_csv(out_dir, "convergence.csv", header,
               _numbers("epsilon,error_c,error_s,error_u", [(report.epsilons, *errors)]))
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
    _write_csv(out_dir, "coefficients.csv", header, _named("name,value", rows))
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
