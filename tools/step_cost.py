"""Microseconds and minor page faults per step of the kinetic and macro steps,
of their step bounds, of the ODE tier's RK4 loop and per row of `kinsir ode`.

    python3 tools/step_cost.py [REV]

Nine cases, on criterion 7's model and profile (chemotaxis and
reactions on, so every term of the kinetic step is at work):

* `kinetic_step 16x8`, `kinetic_step 128x16` and `kinetic_step 512x16`:
  `kinetic_step` at eps = 0.05 and 0.8 of the CFL bound;
* `max_step 128x16`: `kinetic.max_step` of that state at cfl 0.8;
* `macro_step 512`: `macro_step` at 0.8 of `stable_dt`;
* `stable_dt 512`: `macro.stable_dt` of that state;
* `run_kinetic kinetic_chemotaxis`: one `run_kinetic` on the config of the
  benchmark's kinetic_chemotaxis workload, divided by its steps;
* `integrate_sir 50000`: RK4 runs of 50,000 steps of the model's ODE,
  best of RUNS, divided by the steps;
* `ode 65535`: `cli.main(["ode", ...])` in-process on the model's ODE,
  65,535 steps of 2**-10 written to a temporary directory, best of RUNS,
  divided by the 65,536 rows: one block, so no fork, and it runs on any
  tree whose CLI takes `ode --config --out`.

Each call advances the state it is given, as a run does, so a step pays
for whatever it builds or hands on from one state to the next; a bound
(`max_step`, `stable_dt`) is taken of the same state on every call. A
marching case runs WARMUP calls, then BATCHES timed batches of CALLS
calls, and reports its best batch per call and the minor faults
(`resource.getrusage`) of all its timed batches per call. A step whose freed temporaries make
glibc unmap or trim memory and map it again on the next call shows up as
faults per step; one whose temporaries the allocator recycles reads 0.

Reports the working tree and, when REV is given, src/ at REV. Every case
runs in a fresh process, because what ran earlier in a process changes
its allocator's state and with it the count. Each tree is byte-compiled at
one temporary path (see revtree.compiled_tree) and parked beside it, and is
moved back to that path for each of its runs: the allocator's state also
depends on the import paths, and on the source text when a process
compiles kinsir at import (as under PYTHONDONTWRITEBYTECODE=1). The trees
take turns on each case, ROUNDS times, in alternating order: the figures
per tree and case are medians over the rounds, and the ratio of the trees
is the median of the time ratios of the two runs of a round, which ran one
after the other. That cancels load that other tenants of a shared machine
put on it for seconds at a time, but not what differs from one process to
the next; see the README for the resolution measured on a 2-core host.
"""

import os
import statistics
import subprocess
import sys
import tempfile

from revtree import ROOT, WORKING_TREE, compiled_tree

CASES = ("kinetic_step 16x8", "kinetic_step 128x16", "kinetic_step 512x16",
         "max_step 128x16", "macro_step 512", "stable_dt 512",
         "run_kinetic kinetic_chemotaxis", "integrate_sir 50000", "ode 65535")
ROUNDS = 9

# run in a child process with PYTHONPATH pointing at the tree under test and
# the case name as its one argument; prints microseconds and minor faults
# per step
MEASURE = """
import contextlib
import io
import math
import os
import resource
import sys
import tempfile
from time import perf_counter
from kinsir import cli, config, grids, kinetic, macro, params, sir, velocity

WARMUP, BATCHES, CALLS, RUNS = 50, 20, 100, 5
MODEL = params.ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
PROFILE = grids.InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5, amplitude=0.1)


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def marching(state, step):
    for _ in range(WARMUP):
        state = step(state)
    best, faulted = math.inf, 0
    for _ in range(BATCHES):
        before = faults()
        start = perf_counter()
        for _ in range(CALLS):
            state = step(state)
        best = min(best, perf_counter() - start)
        faulted += faults() - before
    return best / CALLS * 1e6, faulted / (BATCHES * CALLS)


def kinetic_state(n_cells, n_nodes):
    grid = grids.SpatialGrid(1.0, n_cells)
    vgrid = velocity.build_velocity_grid(MODEL.vmax, n_nodes)
    eqs = velocity.species_equilibria(vgrid)
    return kinetic.init_local_equilibrium(PROFILE.build(grid), eqs, vgrid, 0.05), eqs


def kinetic_case(n_cells, n_nodes):
    state, eqs = kinetic_state(n_cells, n_nodes)
    dt = kinetic.max_step(state, 0.8)
    return marching(state, lambda state: kinetic.kinetic_step(state, MODEL, eqs, dt))


def max_step_case(n_cells, n_nodes):
    # a bound is positive, so `and` hands the state on unchanged
    state, _ = kinetic_state(n_cells, n_nodes)
    return marching(state, lambda state: kinetic.max_step(state, 0.8) and state)


def macro_state(n_cells):
    coeff = macro.build_macro_coefficients(MODEL, velocity.build_velocity_grid(MODEL.vmax, 16))
    return PROFILE.build(grids.SpatialGrid(1.0, n_cells)), coeff


def macro_case(n_cells):
    state, coeff = macro_state(n_cells)
    dt = 0.8 * macro.stable_dt(state, coeff)
    return marching(state, lambda state: macro.macro_step(state, coeff, dt))


def stable_dt_case(n_cells):
    state, coeff = macro_state(n_cells)
    return marching(state, lambda state: macro.stable_dt(state, coeff) and state)


def run_kinetic_case():
    sys.path.append(%r)  # perfbench/, after the tree under test
    from workloads import KINETIC  # the kinetic_chemotaxis workload's config

    cfg = config.parse_config(KINETIC)
    grid = grids.SpatialGrid(cfg.length, cfg.n_cells)
    vgrid = velocity.build_velocity_grid(cfg.params.vmax, cfg.n_nodes)
    eqs = velocity.species_equilibria(vgrid)
    state = kinetic.init_local_equilibrium(cfg.profile.build(grid), eqs, vgrid,
                                           cfg.epsilon)
    steps, step = [], kinetic.kinetic_step
    # run_kinetic looks the step up on every call
    kinetic.kinetic_step = lambda *args: steps.append(1) or step(*args)
    before = faults()
    start = perf_counter()
    kinetic.run_kinetic(state, cfg.params, eqs, cfg.t_final,
                        snapshot_times=list(cfg.snapshot_times), cfl=cfg.cfl)
    return ((perf_counter() - start) / len(steps) * 1e6,
            (faults() - before) / len(steps))


def best_of_runs(run, count):
    # the best of RUNS calls of run and the minor faults of all of them, per
    # each of the count steps or rows that a call makes
    best, faulted = math.inf, 0
    for _ in range(RUNS):
        before = faults()
        started = perf_counter()
        run()
        best = min(best, perf_counter() - started)
        faulted += faults() - before
    return best / count * 1e6, faulted / (RUNS * count)


def rk4_case(n_steps):
    # a step is too short to time alone: time whole runs, each with its own
    # trajectory array
    start = sir.SirState(1.0, 0.1, 0.1)
    dt = 1e-3
    return best_of_runs(lambda: sir.integrate_sir(start, MODEL, n_steps * dt, dt), n_steps)


def ode_case(n_steps):
    # steps of 2**-10 land on t_final exactly: n_steps + 1 rows
    dt = 2.0 ** -10
    values = {name: getattr(MODEL, name) for name in ("d1", "d2", "d3", "beta", "k", "r")}
    values.update(c0=1.2, s0=0.4, u0=0.9, dt=dt, t_final=n_steps * dt)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as handle:
            handle.writelines(f"{key} = {value!r}\\n" for key, value in values.items())
        argv = ["ode", "--config", cfg, "--out", os.path.join(tmp, "out")]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise SystemExit("kinsir ode failed")

        return best_of_runs(run, n_steps + 1)


name, size = sys.argv[1].split()
if name == "run_kinetic":
    print(*run_kinetic_case())
else:
    case = {"kinetic_step": kinetic_case, "max_step": max_step_case,
            "macro_step": macro_case, "stable_dt": stable_dt_case,
            "integrate_sir": rk4_case, "ode": ode_case}[name]
    print(*case(*(int(n) for n in size.split("x"))))
""" % os.path.join(ROOT, "perfbench")


def measure(src, case):
    """Microseconds and minor faults per step of one case, in a fresh child
    process that imports kinsir from src."""
    done = subprocess.run([sys.executable, "-c", MEASURE, case],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(1)
    us, faults = done.stdout.split()
    return float(us), float(faults)


def main(argv):
    if len(argv) > 1:
        print("usage: python3 tools/step_cost.py [REV]", file=sys.stderr)
        return 2
    labels = [WORKING_TREE, *argv]
    runs = {(label, case): [] for label in labels for case in CASES}
    with tempfile.TemporaryDirectory(prefix="step-cost-") as tmp:
        slot = os.path.join(tmp, "tree")
        parked = {label: os.path.join(tmp, f"parked-{i}") for i, label in enumerate(labels)}
        for label in labels:
            compiled_tree(label, slot)
            os.rename(slot, parked[label])
        for turn in range(ROUNDS):
            for case in CASES:
                for label in labels[::-1] if turn % 2 else labels:
                    os.rename(parked[label], slot)
                    try:
                        runs[label, case].append(measure(os.path.join(slot, "src"), case))
                    finally:
                        os.rename(slot, parked[label])
    for case in CASES:
        for label in labels:
            times, faults = zip(*runs[label, case])
            print(f"{label}: {case}: {statistics.median(times):.1f} us per step "
                  f"(median of {ROUNDS}, {min(times):.1f}-{max(times):.1f}), "
                  f"{statistics.median(faults):.3f} minor faults per step")
        if argv:
            ratios = [a[0] / b[0] for a, b in zip(*(runs[label, case] for label in labels))]
            print(f"{case}: {WORKING_TREE} / {argv[0]} {statistics.median(ratios):.2f} "
                  f"(median of {ROUNDS} adjacent pairs, "
                  f"{min(ratios):.2f}-{max(ratios):.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
