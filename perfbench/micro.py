"""Per-layer microbenchmarks at fixed sizes, each warmed before timing.

Every figure is the best time per call, in microseconds, over PASSES timed
batches. The passes go round all cases in turn, so that each case's batches
spread over the whole run: other tenants of a shared machine slow it down
in stretches of a second or more, and a case timed in one burst would read
the busy speed or the quiet one by chance.

The kinetic sub-step figures are the cost of that sub-step within one
kinetic_step: transport and relaxation run once per species, and bias is
infected_gradient plus perturbation_apply.
"""

from time import perf_counter

from kinsir import grids, kinetic, macro, params, sir, velocity

MACRO_CELLS = (128, 512, 4096)
KINETIC_SIZES = ((16, 8), (128, 16), (512, 16), (128, 64))
RK4_STEPS = 2_000
PASSES = 20

# The ROADMAP re-anchor figures (2 cores, numpy 2.4.6, Python 3.11), in us.
REANCHOR_US = {
    "sir.rk4.us_per_step": 2.9,
    "macro.macro_step.us.n128": 147.0,
    "macro.macro_step.us.n512": 169.0,
    "macro.macro_step.us.n4096": 299.0,
    "kinetic.kinetic_step.us.128x16": 393.0,
    "kinetic.kinetic_step.us.512x16": 606.0,
}

# Criterion 7's model: chemotaxis and reactions on, so every sub-step runs.
MODEL = params.ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2, chi0=0.5)
PROFILE = grids.InitialProfile("cosine", c0=1.0, s0=0.5, u0=0.5, amplitude=0.1)
EPSILON = 0.05


def _macro_cases():
    vgrid = velocity.build_velocity_grid(1.0, 16)
    coeff = macro.build_macro_coefficients(MODEL, vgrid)
    cases = []
    for n in MACRO_CELLS:
        state = PROFILE.build(grids.SpatialGrid(1.0, n))
        dt = 0.8 * macro.stable_dt(state, coeff)
        cases.append((f"macro.macro_step.us.n{n}",
                      lambda state=state, dt=dt: macro.macro_step(state, coeff, dt)))
        if n == 512:
            cases.append(("macro.stable_dt.us.n512",
                          lambda state=state: macro.stable_dt(state, coeff)))
    return cases


def _kinetic_cases(n_cells, n_nodes):
    p = MODEL
    size = f"{n_cells}x{n_nodes}"
    grid = grids.SpatialGrid(1.0, n_cells)
    vgrid = velocity.build_velocity_grid(p.vmax, n_nodes)
    eqs = velocity.species_equilibria(vgrid)
    state = kinetic.init_local_equilibrium(PROFILE.build(grid), eqs, vgrid, EPSILON)
    dt = kinetic.max_step(state, 0.8)
    fs = (state.f1, state.f2, state.f3)
    sigmas, qs = (p.sigma1, p.sigma2, p.sigma3), (p.q1, p.q2, p.q3)

    def transport():
        for f in fs:
            kinetic.transport_substep(f, vgrid, grid, EPSILON, dt)

    def relaxation():
        for f, eq, sigma, q in zip(fs, eqs, sigmas, qs):
            kinetic.relaxation_substep(f, eq, sigma, EPSILON, q, dt, vgrid)

    def bias():
        grad_s = kinetic.infected_gradient(state.f2, vgrid, grid)
        velocity.perturbation_apply(state.f1, grad_s, p.chi0, vgrid)

    return [
        (f"kinetic.kinetic_step.us.{size}",
         lambda: kinetic.kinetic_step(state, p, eqs, dt)),
        (f"kinetic.transport.us.{size}", transport),
        (f"kinetic.relaxation.us.{size}", relaxation),
        (f"kinetic.bias.us.{size}", bias),
        (f"kinetic.interactions.us.{size}",
         lambda: velocity.interaction_terms(*fs, eqs, p, vgrid)),
    ]


def _rk4_steps():
    model = params.ModelParams(d1=1, d2=1, d3=1, beta=1, k=1, r=2)
    start = sir.SirState(1.0, 0.1, 0.1)
    sir.integrate_sir(start, model, RK4_STEPS * 1e-3, 1e-3)


def _velocity_cases():
    vgrid = velocity.build_velocity_grid(1.0, 16)
    return [
        ("velocity.transport_coefficients.us",
         lambda: velocity.transport_coefficients(MODEL, vgrid)),
        ("velocity.build_velocity_grid.us",
         lambda: velocity.build_velocity_grid(1.0, 16)),
    ]


def _calls_per_batch(fn, batch_seconds):
    calls = 1
    while True:
        start = perf_counter()
        for _ in range(calls):
            fn()
        if perf_counter() - start >= batch_seconds:
            return calls
        calls *= 2


def run_all(seconds):
    """Every microbenchmark figure in us, within about `seconds` in all."""
    cases = [("sir.rk4.us_per_step", _rk4_steps), *_macro_cases()]
    for n_cells, n_nodes in KINETIC_SIZES:
        cases += _kinetic_cases(n_cells, n_nodes)
    cases += _velocity_cases()
    batch_seconds = seconds / (PASSES * len(cases))
    sized = [(name, fn, _calls_per_batch(fn, batch_seconds)) for name, fn in cases]
    best = {name: float("inf") for name, _ in cases}
    for _ in range(PASSES):
        for name, fn, calls in sized:
            start = perf_counter()
            for _ in range(calls):
                fn()
            best[name] = min(best[name], (perf_counter() - start) / calls)
    figures = {name: value * 1e6 for name, value in best.items()}
    figures["sir.rk4.us_per_step"] /= RK4_STEPS
    return figures


def table(figures):
    """Text lines: each figure, with the re-anchor figure and ratio if any."""
    lines = [f"{'microbenchmark':36s} {'us':>10s} {'re-anchor':>10s} {'ratio':>6s}"]
    for name, value in figures.items():
        ref = REANCHOR_US.get(name)
        extra = f" {ref:10.1f} {value / ref:6.2f}" if ref else ""
        lines.append(f"{name:36s} {value:10.2f}{extra}")
    return lines
