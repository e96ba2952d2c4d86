"""Minor page faults per call of the macro and kinetic steps.

    python3 tools/step_faults.py [REV]

Runs `macro_step` on 512 cells and `kinetic_step` on 512 cells x 16
velocity nodes (criterion 7's model and profile, eps = 0.05) in a fresh
Python process, and reads the minor page faults of that process with
`resource.getrusage` around a fixed number of calls made after a warm-up.
Each call advances the state it is given, as a run does.
A step that allocates temporaries above glibc's mmap threshold maps and
unmaps them on every call and shows up here as faults per call; a step
whose temporaries are recycled by the allocator reads 0.0.

Reports the working tree and, when REV is given, src/ at REV, extracted
with `git archive` into a temporary directory.
"""

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARMUP, CALLS = 50, 200

# run in a child process with PYTHONPATH pointing at the tree under test
MEASURE = f"""
import resource
from kinsir import grids, kinetic, macro, params, velocity

model = params.ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
profile = grids.InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5, amplitude=0.1)
grid = grids.SpatialGrid(1.0, 512)
vgrid = velocity.build_velocity_grid(model.vmax, 16)
eqs = velocity.species_equilibria(vgrid)

coeff = macro.build_macro_coefficients(model, vgrid)
macro_state = profile.build(grid)
macro_dt = 0.8 * macro.stable_dt(macro_state, coeff)
kinetic_state = kinetic.init_local_equilibrium(profile.build(grid), eqs, vgrid, 0.05)
kinetic_dt = kinetic.max_step(kinetic_state, 0.8)

cases = [
    ("macro_step 512", macro_state,
     lambda state: macro.macro_step(state, coeff, macro_dt)),
    ("kinetic_step 512x16", kinetic_state,
     lambda state: kinetic.kinetic_step(state, model, eqs, kinetic_dt)),
]
for name, state, step in cases:
    for _ in range({WARMUP}):
        state = step(state)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range({CALLS}):
        state = step(state)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print(f"{{name}}: {{(after - before) / {CALLS}:.1f}} minor faults per call")
"""


def measure(src):
    """The child's report lines for the package under src."""
    done = subprocess.run([sys.executable, "-c", MEASURE],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(1)
    return done.stdout.splitlines()


def main(argv):
    if len(argv) > 1:
        print("usage: python3 tools/step_faults.py [REV]", file=sys.stderr)
        return 2
    trees = [("working tree", os.path.join(ROOT, "src"))]
    with tempfile.TemporaryDirectory(prefix="step-faults-") as tmp:
        if argv:
            archive = subprocess.run(
                ["git", "-C", ROOT, "archive", "--format=tar", argv[0], "src"],
                capture_output=True,
            )
            if archive.returncode != 0:
                sys.stderr.write(archive.stderr.decode())
                return 2
            subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                           check=True)
            trees.append((argv[0], os.path.join(tmp, "src")))
        for label, src in trees:
            for line in measure(src):
                print(f"{label}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
