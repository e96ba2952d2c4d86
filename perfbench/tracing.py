"""Spans around the public kinsir calls, recorded from outside the package.

``Tracer.installed()`` replaces each traced function by a wrapper in every
kinsir module that holds a reference to it (``from .macro import run_macro``
makes a second reference in ``kinsir.convergence``), and restores the
originals on exit. A span is (name, start, end, parent index); spans stay in
memory until the caller writes them out.
"""

import contextlib
import sys
from collections import Counter
from time import perf_counter

# layer -> public functions of kinsir.<layer> that get a span
TRACED = {
    "sir": ("integrate_sir",),
    "macro": ("run_macro", "macro_step", "stable_dt"),
    "kinetic": ("run_kinetic", "kinetic_step", "init_local_equilibrium"),
    "velocity": ("build_velocity_grid", "transport_coefficients"),
    "convergence": ("run_convergence_study",),
    "config": ("load_config",),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)


def _count_kinetic_step(counts, args, result):
    counts["kinetic.cell_updates"] += 3 * args[0].f1.size


def _count_integrate_sir(counts, args, result):
    counts["sir.rk4_steps"] += len(result.times) - 1


_COUNTERS = {
    "kinetic.kinetic_step": _count_kinetic_step,
    "sir.integrate_sir": _count_integrate_sir,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def _wrap(self, label, fn):
        stack = self._stack
        counter = _COUNTERS.get(label)

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "kinsir" or name.startswith("kinsir.")]
        patched = []
        try:
            for layer, names in TRACED.items():
                home = sys.modules[f"kinsir.{layer}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = self._wrap(f"{layer}.{name}", original)
                    for module in modules:
                        if getattr(module, name, None) is original:
                            setattr(module, name, wrapper)
                            patched.append((module, name, original))
            yield self
        finally:
            for module, name, original in patched:
                setattr(module, name, original)


def summarize(spans, counts, wall):
    """Per-rep figures from one traced repetition that took `wall` seconds.

    Self time of a span is its duration minus its children's durations; a
    layer's self time sums its spans' self times. Time outside every span
    is reported as the layer "untraced".
    """
    child = [0.0] * len(spans)
    total = Counter()
    calls = Counter()
    under_study = Counter()
    self_time = Counter()
    for label, start, end, parent in spans:
        duration = end - start
        total[label] += duration
        calls[label] += 1
        if parent >= 0:
            child[parent] += duration
            parent_label = spans[parent][0]
            if parent_label == "convergence.run_convergence_study":
                under_study[label] += duration
        else:
            self_time["untraced"] -= duration
    self_time["untraced"] += wall
    for (label, start, end, _), inner in zip(spans, child):
        self_time[label.split(".")[0]] += (end - start) - inner
    return {
        "macro.run_macro.s": total["macro.run_macro"],
        "macro.macro_step.calls": calls["macro.macro_step"],
        "kinetic.run_kinetic.s": total["kinetic.run_kinetic"],
        "kinetic.kinetic_step.calls": calls["kinetic.kinetic_step"],
        "kinetic.cell_updates": counts["kinetic.cell_updates"],
        "sir.integrate_sir.s": total["sir.integrate_sir"],
        "sir.rk4_steps": counts["sir.rk4_steps"],
        "convergence.reference.s": (under_study["macro.run_macro"]
                                    + under_study["sir.integrate_sir"]),
        "convergence.kinetic.s": under_study["kinetic.run_kinetic"],
        "convergence.harness.s": self_time_of(spans, child,
                                              "convergence.run_convergence_study"),
        "config.load_config.s": total["config.load_config"],
        "cli.main.s": total["cli.main"],
        "cli.output.s": self_time_of(spans, child, "cli.main"),
        **{f"self.{layer}.s": self_time[layer] for layer in LAYERS + ("untraced",)},
    }


def self_time_of(spans, child, label):
    return sum((end - start) - inner
               for (name, start, end, _), inner in zip(spans, child)
               if name == label)


def spans_as_json(spans):
    """Spans relative to the first start, in a compact form for the trace file."""
    origin = spans[0][1] if spans else 0.0
    return [[label, start - origin, end - origin, parent]
            for label, start, end, parent in spans]
