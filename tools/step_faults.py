"""Minor page faults per step of the macro and kinetic steps.

    python3 tools/step_faults.py [REV]

Three cases, each measured in its own fresh Python process, because what
ran earlier in a process changes the state of its allocator and with it
the count:

* `macro_step 512`: `macro_step` on 512 cells (criterion 7's model and
  profile), 200 calls after a warm-up of 50;
* `kinetic_step 512x16`: `kinetic_step` on 512 cells x 16 velocity nodes
  at eps = 0.05, 200 calls after a warm-up of 50;
* `run_kinetic kinetic_chemotaxis`: one `run_kinetic` on the config of the
  benchmark's kinetic_chemotaxis workload, faults divided by its steps.

Each call advances the state it is given, as a run does. The faults are
read with `resource.getrusage`. A step that allocates temporaries above
glibc's mmap threshold maps and unmaps them on every call, and one whose
freed temporaries let glibc trim the top of the heap regrows it on the next
call; both show up here as faults per step. A step whose temporaries are
recycled by the allocator reads 0.0.

Reports the working tree and, when REV is given, src/ at REV. Each tree in
turn is copied to the same temporary path and byte-compiled there before it
is measured, so both run from the same path string: the allocator's state
in the child also depends on its import paths, and two trees measured from
two paths can differ by that alone.

A process that compiles kinsir from source at import (as one does under
PYTHONDONTWRITEBYTECODE=1) leaves glibc's allocator in a state that depends
on the source text and on the import path, and a step that frees large
temporaries on every call then reads anywhere from 0 to about 100 faults
per step whatever its own code.
"""

import os
import subprocess
import sys
import tempfile

from revtree import ROOT, WORKING_TREE, compiled_tree

CASES = ("macro_step 512", "kinetic_step 512x16", "run_kinetic kinetic_chemotaxis")

# run in a child process with PYTHONPATH pointing at the tree under test and
# the case name as its one argument
MEASURE = """
import resource
import sys
from kinsir import config, grids, kinetic, macro, params, velocity

sys.path.append(%r)  # perfbench/, after the tree under test
from workloads import KINETIC  # the kinetic_chemotaxis workload's config

WARMUP, CALLS = 50, 200


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def marching(state, step):
    for _ in range(WARMUP):
        state = step(state)
    before = faults()
    for _ in range(CALLS):
        state = step(state)
    return (faults() - before) / CALLS


def setup():
    model = params.ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
    profile = grids.InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5, amplitude=0.1)
    grid = grids.SpatialGrid(1.0, 512)
    vgrid = velocity.build_velocity_grid(model.vmax, 16)
    return model, profile, grid, vgrid


def macro_case():
    model, profile, grid, vgrid = setup()
    coeff = macro.build_macro_coefficients(model, vgrid)
    state = profile.build(grid)
    dt = 0.8 * macro.stable_dt(state, coeff)
    return marching(state, lambda state: macro.macro_step(state, coeff, dt))


def kinetic_case():
    model, profile, grid, vgrid = setup()
    eqs = velocity.species_equilibria(vgrid)
    state = kinetic.init_local_equilibrium(profile.build(grid), eqs, vgrid, 0.05)
    dt = kinetic.max_step(state, 0.8)
    return marching(state, lambda state: kinetic.kinetic_step(state, model, eqs, dt))


def run_kinetic_case():
    cfg = config.parse_config(KINETIC)
    grid = grids.SpatialGrid(cfg.length, cfg.n_cells)
    vgrid = velocity.build_velocity_grid(cfg.params.vmax, cfg.n_nodes)
    eqs = velocity.species_equilibria(vgrid)
    state = kinetic.init_local_equilibrium(cfg.profile.build(grid), eqs, vgrid,
                                           cfg.epsilon)
    steps = 0
    step = kinetic.kinetic_step

    def counting(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    kinetic.kinetic_step = counting  # run_kinetic looks the step up per call
    before = faults()
    kinetic.run_kinetic(state, cfg.params, eqs, cfg.t_final,
                        snapshot_times=list(cfg.snapshot_times), cfl=cfg.cfl)
    return (faults() - before) / steps


CASES = dict(zip(%r, (macro_case, kinetic_case, run_kinetic_case)))
print(f"{CASES[sys.argv[1]]():.1f}")
""" % (os.path.join(ROOT, "perfbench"), CASES)


def measure(src, case):
    """Minor faults per step of one case, in a fresh child process."""
    done = subprocess.run([sys.executable, "-c", MEASURE, case],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(1)
    return done.stdout.strip()


def main(argv):
    if len(argv) > 1:
        print("usage: python3 tools/step_faults.py [REV]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="step-faults-") as tmp:
        slot = os.path.join(tmp, "tree")
        for label in [WORKING_TREE, *argv]:
            src = compiled_tree(label, slot)
            for case in CASES:
                print(f"{label}: {case}: {measure(src, case)} minor faults per step")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
