"""Microseconds per marching step of the kinetic and macro steps.

    python3 tools/step_time.py [REV]

Four cases, on criterion 7's model and profile (chemotaxis and reactions
on, so every kinetic sub-step runs):

* `kinetic_step 16x8`, `kinetic_step 128x16` and `kinetic_step 512x16`:
  `kinetic_step` at eps = 0.05 and 0.8 of the CFL bound;
* `macro_step 512`: `macro_step` at 0.8 of `stable_dt`.

Each call advances the state it is given, as a run does, so a step pays
for whatever it builds or hands on from one state to the next. A case runs
in a fresh Python process: WARMUP calls, then BATCHES timed batches of
CALLS calls, and the process reports its best batch per call. Reports the
working tree and, when REV is given, src/ at REV, side by side. Each tree
is byte-compiled at one temporary path (see revtree.compiled_tree) and
parked beside it, and is moved back to that path for each of its runs, so
both run from the same path string. The trees take turns on each case,
ROUNDS times, in alternating order: the figure per tree and case is the
median over the rounds of the best batch, with the lowest and highest of
them, and the ratio of the trees is the median of the ratios of the two
runs of a round, which ran one after the other. Pairing runs that close in
time cancels load that other tenants of a shared machine put on it for
seconds at a time, but not what differs from one process to the next; see
the README for the resolution measured on a 2-core host.
"""

import os
import statistics
import subprocess
import sys
import tempfile

from revtree import WORKING_TREE, compiled_tree

CASES = ("kinetic_step 16x8", "kinetic_step 128x16", "kinetic_step 512x16",
         "macro_step 512")
ROUNDS = 9

# run in a child process with PYTHONPATH pointing at the tree under test and
# the case name as its one argument; prints microseconds per call
MEASURE = """
import math
import sys
from time import perf_counter
from kinsir import grids, kinetic, macro, params, velocity

WARMUP, BATCHES, CALLS = 50, 20, 100
MODEL = params.ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
PROFILE = grids.InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5, amplitude=0.1)


def marching(state, step):
    for _ in range(WARMUP):
        state = step(state)
    best = math.inf
    for _ in range(BATCHES):
        start = perf_counter()
        for _ in range(CALLS):
            state = step(state)
        best = min(best, perf_counter() - start)
    return best / CALLS * 1e6


def kinetic_case(n_cells, n_nodes):
    grid = grids.SpatialGrid(1.0, n_cells)
    vgrid = velocity.build_velocity_grid(MODEL.vmax, n_nodes)
    eqs = velocity.species_equilibria(vgrid)
    state = kinetic.init_local_equilibrium(PROFILE.build(grid), eqs, vgrid, 0.05)
    dt = kinetic.max_step(state, 0.8)
    return marching(state, lambda state: kinetic.kinetic_step(state, MODEL, eqs, dt))


def macro_case(n_cells):
    coeff = macro.build_macro_coefficients(
        MODEL, velocity.build_velocity_grid(MODEL.vmax, 16))
    state = PROFILE.build(grids.SpatialGrid(1.0, n_cells))
    dt = 0.8 * macro.stable_dt(state, coeff)
    return marching(state, lambda state: macro.macro_step(state, coeff, dt))


name, size = sys.argv[1].split()
sizes = [int(n) for n in size.split("x")]
print(f"{(kinetic_case if name == 'kinetic_step' else macro_case)(*sizes):.1f}")
"""


def measure(src, case):
    """Best-of-batch microseconds per call of one case, in a fresh child."""
    done = subprocess.run([sys.executable, "-c", MEASURE, case],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(1)
    return float(done.stdout)


def main(argv):
    if len(argv) > 1:
        print("usage: python3 tools/step_time.py [REV]", file=sys.stderr)
        return 2
    labels = [WORKING_TREE, *argv]
    times = {(label, case): [] for label in labels for case in CASES}
    with tempfile.TemporaryDirectory(prefix="step-time-") as tmp:
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
                        times[label, case].append(measure(os.path.join(slot, "src"), case))
                    finally:
                        os.rename(slot, parked[label])
    for case in CASES:
        for label in labels:
            runs = times[label, case]
            print(f"{label}: {case}: {statistics.median(runs):.1f} us per step "
                  f"(median of {ROUNDS}, {min(runs):.1f}-{max(runs):.1f})")
        if argv:
            ratios = [a / b for a, b in zip(*(times[label, case] for label in labels))]
            print(f"{case}: {WORKING_TREE} / {argv[0]} {statistics.median(ratios):.2f} "
                  f"(median of {ROUNDS} adjacent pairs, "
                  f"{min(ratios):.2f}-{max(ratios):.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
