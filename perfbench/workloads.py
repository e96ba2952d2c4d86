"""The four benchmark workloads.

Each workload writes its config file once, then offers three calls:

* ``setup()``: the public set-up calls its run makes before the first
  step (config load, grids, velocity grid, coefficients, initial profile,
  initial kinetic state). Timed on its own for ``setup_s``.
* ``run()``: one repetition through the public entry point, its own
  set-up included. Timed for ``wall_s``.
* ``check(result)``: raises ``CheckFailed`` when the output is wrong.

Every kinsir call goes through a module attribute (``convergence.run_...``)
so that the tracer's wrappers, installed on those attributes, see it.
"""

import contextlib
import io
import math
import os
from time import perf_counter

import numpy as np

from kinsir import cli, config, convergence, grids, kinetic, macro, params, sir, velocity
from kinsir.errors import KinsirError

# Criterion 7 of tests/test_acceptance.py, written as a config file.
PARABOLIC = """\
chi0 = 0.5
profile = cosine
c0 = 1
s0 = 0.5
u0 = 0.5
amplitude = 0.1
n_cells = 128
n_nodes = 16
ref_refine = 4
cfl = 0.8
t_final = 0.2
snapshot_times = 0.05 0.1 0.15 0.2
eps_list = 0.4 0.2 0.1 0.05
"""

# Criterion 10's converge config: runs in well under a second.
PARABOLIC_TINY = """\
chi0 = 0.5
profile = cosine
c0 = 1
s0 = 0.5
u0 = 0.5
n_cells = 32
n_nodes = 8
t_final = 0.05
eps_list = 0.4 0.2 0.1
"""

# Criterion 8, extended from 4 to 6 epsilons and from 1 to 4 snapshots so
# that one repetition takes seconds: each snapshot adds a 100,000-step RK4
# reference, each halving of eps doubles the kinetic steps.
_HYPERBOLIC_MODEL = """\
d1 = 0.5
d2 = 0.4
d3 = 0.6
beta = 1.2
k = 1.1
r = 0.9
chi0 = 0.5
q1 = 2
q2 = 2
q3 = 2
p = 2
profile = constant
c0 = 1
s0 = 0.2
u0 = 0.3
n_cells = 16
n_nodes = 8
"""
HYPERBOLIC = _HYPERBOLIC_MODEL + """\
t_final = 1
snapshot_times = 0.25 0.5 0.75 1
eps_list = 0.4 0.2 0.1 0.05 0.025 0.0125
"""
HYPERBOLIC_TINY = _HYPERBOLIC_MODEL + """\
t_final = 0.25
eps_list = 0.4 0.2 0.1
"""

# 512 cells x 16 nodes at eps=0.05 with chemotaxis and reactions on: all four
# kinetic sub-steps run, and the arithmetic outweighs the numpy call overhead.
_KINETIC_MODEL = """\
chi0 = 0.5
profile = cosine
c0 = 1
s0 = 0.5
u0 = 0.5
epsilon = 0.05
cfl = 0.8
"""
KINETIC = _KINETIC_MODEL + """\
n_cells = 512
n_nodes = 16
t_final = 0.2
snapshot_times = 0.05 0.1 0.15 0.2
"""
KINETIC_TINY = _KINETIC_MODEL + """\
n_cells = 64
n_nodes = 8
t_final = 0.02
"""

ODE_RUN = {"t_final": 50.0, "dt": 1e-4}
ODE_RUN_TINY = {"t_final": 1.0, "dt": 1e-3}

MIN_ORDER = 0.8  # criteria 7 and 8


class CheckFailed(Exception):
    """A repetition produced output that fails its workload's check."""


class Repetitions:
    """Runs and checks repetitions of a workload, counting failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.last_result = None
        self.errors = []

    def once(self):
        """One checked repetition; returns its wall time in seconds."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = self.workload.run()
        except KinsirError as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")
            result = None
        wall = perf_counter() - start
        if result is not None:
            try:
                self.workload.check(result)
                self.last_result = result
                return wall
            except CheckFailed as exc:
                self.errors.append(str(exc))
        self.failed += 1
        return wall


class _Workload:
    name = ""
    uses_seed = False

    def __init__(self, workdir, seed, tiny):
        self.config_path = os.path.join(workdir, f"{self.name}.cfg")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            handle.write(self.config_text(seed, tiny))

    def config_text(self, seed, tiny):
        raise NotImplementedError

    def accuracy(self, result):
        """(error at the smallest eps, fitted order); zeros without a study."""
        return 0.0, 0.0

    def bytes_written(self):
        return 0


class _Study(_Workload):
    """run_convergence_study on a fixed config, called as `kinsir converge`
    calls it, without the CSV."""

    macro_reference = False

    def setup(self):
        cfg = config.load_config(self.config_path)
        p = cfg.params
        grid = grids.SpatialGrid(cfg.length, cfg.n_cells)
        vgrid = velocity.build_velocity_grid(p.vmax, cfg.n_nodes)
        eqs = velocity.species_equilibria(vgrid)
        if self.macro_reference:
            fine = grids.SpatialGrid(cfg.length, cfg.n_cells * cfg.ref_refine)
            macro.build_macro_coefficients(p, vgrid)
            cfg.profile.build(fine)
        states = [
            kinetic.init_local_equilibrium(cfg.profile.build(grid), eqs, vgrid, eps)
            for eps in cfg.eps_list
        ]
        return cfg, states

    def run(self):
        cfg = config.load_config(self.config_path)
        return convergence.run_convergence_study(
            cfg.params, cfg.profile, cfg.eps_list, cfg.t_final,
            snapshot_times=list(cfg.snapshot_times) or None,
            length=cfg.length, n_cells=cfg.n_cells, n_nodes=cfg.n_nodes,
            ref_refine=cfg.ref_refine, cfl=cfg.cfl,
        )

    def check(self, report):
        errors = np.array([report.errors[f] for f in ("c", "s", "u")])
        if not np.all(np.isfinite(errors)) or not np.all(errors > 0):
            raise CheckFailed(f"errors not finite and positive: {errors.tolist()}")
        if not report.estimated_order >= MIN_ORDER:
            raise CheckFailed(
                f"estimated order {report.estimated_order:.3f} < {MIN_ORDER}"
            )

    def accuracy(self, report):
        return report.max_errors()[-1], report.estimated_order


class ParabolicStudy(_Study):
    name = "parabolic_study"
    macro_reference = True

    def config_text(self, seed, tiny):
        return PARABOLIC_TINY if tiny else PARABOLIC


class HyperbolicStudy(_Study):
    name = "hyperbolic_study"

    def config_text(self, seed, tiny):
        return HYPERBOLIC_TINY if tiny else HYPERBOLIC


class KineticChemotaxis(_Workload):
    """run_kinetic, called as `kinsir kinetic` calls it, without the CSV."""

    name = "kinetic_chemotaxis"

    def config_text(self, seed, tiny):
        return KINETIC_TINY if tiny else KINETIC

    def setup(self):
        cfg = config.load_config(self.config_path)
        grid = grids.SpatialGrid(cfg.length, cfg.n_cells)
        vgrid = velocity.build_velocity_grid(cfg.params.vmax, cfg.n_nodes)
        eqs = velocity.species_equilibria(vgrid)
        state = kinetic.init_local_equilibrium(
            cfg.profile.build(grid), eqs, vgrid, cfg.epsilon
        )
        return cfg, eqs, state

    def run(self):
        cfg, eqs, state = self.setup()
        snapshots, _ = kinetic.run_kinetic(
            state, cfg.params, eqs, cfg.t_final,
            snapshot_times=list(cfg.snapshot_times) or None, cfl=cfg.cfl,
        )
        return snapshots

    def check(self, snapshots):
        fields = np.array([[s.c, s.s, s.u] for s in snapshots])
        if not np.all(np.isfinite(fields)):
            raise CheckFailed("moments are not finite")
        if fields.min() < 0:
            raise CheckFailed(f"negative moment {fields.min():.3e}")


def endemic_draw(seed):
    """An endemic parameter set and a start near its equilibrium, drawn the
    way criterion 2's random_params(rng, (1.2, 5.0)) draws them."""
    rng = np.random.default_rng(seed)
    d1, d2, d3 = rng.uniform(0.4, 2.0, 3)
    beta, k = rng.uniform(0.3, 2.0, 2)
    r = rng.uniform(1.2, 5.0) * d1 * d2 * d3 / (beta * k)
    model = params.ModelParams(d1=d1, d2=d2, d3=d3, beta=beta, k=k, r=r)
    qstar = sir.equilibria(model).qstar
    start = qstar.as_array() * rng.uniform(0.5, 1.5, 3)
    return model, start


class CliOde(_Workload):
    """`kinsir ode` in-process on a long fine trajectory: RK4 plus the CSV
    writer, the only workload that writes output."""

    name = "cli_ode"
    uses_seed = True

    def __init__(self, workdir, seed, tiny):
        self.run_values = ODE_RUN_TINY if tiny else ODE_RUN
        self.out_dir = os.path.join(workdir, "ode_out")
        super().__init__(workdir, seed, tiny)

    def config_text(self, seed, tiny):
        model, start = endemic_draw(seed)
        values = {
            "d1": model.d1, "d2": model.d2, "d3": model.d3,
            "beta": model.beta, "k": model.k, "r": model.r,
            "c0": start[0], "s0": start[1], "u0": start[2],
            **self.run_values,
        }
        return "".join(f"{key} = {value:.17g}\n" for key, value in values.items())

    def setup(self):
        cfg = config.load_config(self.config_path)
        return cfg, sir.SirState(cfg.c0, cfg.s0, cfg.u0)

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["ode", "--config", self.config_path,
                             "--out", self.out_dir])

    def check(self, exit_code):
        if exit_code != 0:
            raise CheckFailed(f"kinsir ode exited with {exit_code}")
        steps = math.ceil(self.run_values["t_final"] / self.run_values["dt"] - 1e-12)
        rows = 0
        with open(os.path.join(self.out_dir, "trajectory.csv"), "rb") as handle:
            for line in handle:
                if not line.startswith(b"#"):
                    rows += 1
        if rows != steps + 2:  # the column line plus steps + 1 states
            raise CheckFailed(f"trajectory.csv has {rows} lines, want {steps + 2}")

    def bytes_written(self):
        return sum(
            os.path.getsize(os.path.join(self.out_dir, name))
            for name in os.listdir(self.out_dir)
        )


WORKLOADS = {
    cls.name: cls
    for cls in (ParabolicStudy, KineticChemotaxis, HyperbolicStudy, CliOde)
}
