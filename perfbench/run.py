"""kinsir benchmark: one workload per process, one BLAS thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/`` of the
same checkout; nothing needs building. Workloads and metric names are those
of ``BENCHMARK.json``.

With ``--trace 0`` the workload repeats, untraced, for S seconds and the
end-to-end metrics are printed: ``wall_s`` (median time of one repetition),
``setup_s`` (median time of the set-up calls, made SETUPS_PER_REP times
before each repetition so that the samples spread over the run) and
``peak_rss_mb``. Both times are corrected for the machine's contention,
measured while they run (see probe.py); the uncorrected times are printed
and recorded too. With ``--trace 1`` the microbenchmarks run first, then
untraced and traced repetitions alternate for S seconds, and the per-layer
metrics are printed: medians over the traced repetitions, the tracing
overhead (median over adjacent pairs of traced minus untraced time) and the
microbenchmark figures. Each repetition's output is checked; a failed check
counts in ``failed`` and ``fail_ratio``.

Human-readable lines go first; the last line of stdout is the JSON result.
A JSON record with the machine section, every repetition and, when traced,
the spans of the last traced repetition is written to perfbench/results/.
``--tiny`` shrinks every workload and microbenchmark for the smoke test.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS_PER_REP = 10
MICRO_SECONDS = 4.0
MICRO_SECONDS_TINY = 0.1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test only)")
    return parser.parse_args(argv)


def declared_metrics():
    """name -> unit for the end-to-end and per-layer metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def machine_section():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in
                       THREAD_VARS + ("KINSIR_THREADS",)},
    }


def timed(fn):
    start = perf_counter()
    fn()
    return perf_counter() - start


def measure_end_to_end(workload, seconds, record):
    import workloads
    from probe import Probe

    probe = Probe()
    reps = workloads.Repetitions(workload)
    raw_walls, walls, setup_times = [], [], []
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        with probe.running():
            block = [timed(workload.setup) for _ in range(SETUPS_PER_REP)]
        setup_times += [t * probe.scale() for t in block]
        with probe.running():
            raw_walls.append(reps.once())
        walls.append(raw_walls[-1] * probe.scale())
    record.update(raw_walls=raw_walls, walls=walls, setup_times=setup_times)
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{workload.name}: {len(walls)} repetitions, wall_s median "
          f"{metrics['wall_s']:.4f} (uncorrected {median(raw_walls):.4f}, "
          f"min {min(raw_walls):.4f}, max {max(raw_walls):.4f}), "
          f"setup_s median {metrics['setup_s'] * 1e3:.3f} ms")
    return reps, metrics


def measure_per_layer(workload, seconds, tiny, record):
    import micro
    import tracing
    import workloads

    micro_figures = micro.run_all(MICRO_SECONDS_TINY if tiny else MICRO_SECONDS)
    for line in micro.table(micro_figures):
        print(line)

    tracer = tracing.Tracer()
    reps = workloads.Repetitions(workload)
    untraced, traced, summaries = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        if len(untraced) <= len(traced):
            untraced.append(reps.once())
            continue
        tracer.reset()
        with tracer.installed():
            wall = reps.once()
        traced.append(wall)
        summaries.append(tracing.summarize(tracer.spans, tracer.counts, wall))

    metrics = {name: median(s[name] for s in summaries) for name in summaries[0]}
    metrics.update(micro_figures)
    error, order = workload.accuracy(reps.last_result) if reps.last_result else (0.0, 0.0)
    metrics.update({
        "trace.wall_s": median(traced),
        "trace.untraced_wall_s": median(untraced),
        "trace.overhead_s": median(t - u for t, u in zip(traced, untraced)),
        "error_min_eps": error,
        "estimated_order": order,
        "fail_ratio": reps.failed / reps.attempted,
        "cli.bytes_written": workload.bytes_written(),
    })
    print_self_times(workload.name, metrics)
    record.update(untraced_walls=untraced, traced_walls=traced,
                  micro_table=micro.table(micro_figures),
                  spans=tracing.spans_as_json(tracer.spans))
    return reps, metrics


def print_self_times(name, metrics):
    import tracing

    wall = metrics["trace.wall_s"]
    print(f"{name}: self time per layer, median of traced repetitions")
    for layer in tracing.LAYERS + ("untraced",):
        value = metrics[f"self.{layer}.s"]
        print(f"  {layer:12s} {value:10.4f} s  {100.0 * value / wall:6.1f} %")
    overhead = metrics["trace.overhead_s"]
    print(f"  tracing overhead {overhead:+.4f} s "
          f"({100.0 * overhead / metrics['trace.untraced_wall_s']:+.1f} % of untraced wall_s)")


def main(argv=None):
    args = parse_args(argv)
    # BLAS reads its thread count when numpy is loaded, so set it first.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "kinsir", "__init__.py")):
        print(f"error: no kinsir package under {SRC}", file=sys.stderr)
        return 2
    workload_names, end_to_end, per_layer = declared_metrics()
    if args.workload not in workload_names:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import kinsir
    import workloads

    if os.path.dirname(os.path.abspath(kinsir.__file__)) != os.path.join(SRC, "kinsir"):
        print(f"error: kinsir imported from {kinsir.__file__}", file=sys.stderr)
        return 2

    machine = machine_section()
    cls = workloads.WORKLOADS[args.workload]
    seed_note = "drawn from the seed" if cls.uses_seed else "fixed config, seed ignored"
    print("machine: " + json.dumps(machine))
    print(f"workload {args.workload}: seed {args.seed}, inputs {seed_note}")
    record = {"workload": args.workload, "seed": args.seed, "seed_note": seed_note,
              "trace": args.trace, "tiny": args.tiny, "machine": machine}

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = cls(workdir, args.seed, args.tiny)
        if args.trace:
            reps, metrics = measure_per_layer(workload, args.seconds, args.tiny, record)
            units = per_layer
        else:
            reps, metrics = measure_end_to_end(workload, args.seconds, record)
            units = end_to_end
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 3
    for message in reps.errors:
        print(f"check failed: {message}")
    result = {
        "correct": reps.failed == 0,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record["result"] = result
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
