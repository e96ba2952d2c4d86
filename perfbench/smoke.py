"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size (``--tiny``), untraced
and traced, and checks that each run exits 0 and ends with a result line
that carries every metric named below with its unit, no failed check and a
``fail_ratio`` of 0. Then checks that the benchmark refuses to run, without
a result line, in a copy that holds only BENCHMARK.json and perfbench/.
Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
KINETIC_SIZES = ("16x8", "128x16", "512x16", "128x64")
PER_LAYER = {
    "macro.run_macro.s": "s",
    "macro.macro_step.calls": "count",
    "macro.macro_step.us.n128": "us",
    "macro.macro_step.us.n512": "us",
    "macro.macro_step.us.n4096": "us",
    "macro.stable_dt.us.n512": "us",
    "kinetic.run_kinetic.s": "s",
    "kinetic.kinetic_step.calls": "count",
    "kinetic.cell_updates": "count",
    **{f"kinetic.{part}.us.{size}": "us"
       for part in ("kinetic_step", "transport", "relaxation", "bias", "interactions")
       for size in KINETIC_SIZES},
    "sir.integrate_sir.s": "s",
    "sir.rk4_steps": "count",
    "sir.rk4.us_per_step": "us",
    "convergence.reference.s": "s",
    "convergence.kinetic.s": "s",
    "convergence.harness.s": "s",
    "velocity.transport_coefficients.us": "us",
    "velocity.build_velocity_grid.us": "us",
    "config.load_config.s": "s",
    "cli.main.s": "s",
    "cli.output.s": "s",
    "cli.bytes_written": "count",
    **{f"self.{layer}.s": "s" for layer in ("sir", "macro", "kinetic", "velocity",
                                             "convergence", "config", "cli", "untraced")},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "error_min_eps": "L2",
    "estimated_order": "order",
    "fail_ratio": "ratio",
}


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def run_tiny(workload, trace):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload, trace, result):
    want = PER_LAYER if trace else END_TO_END
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace {trace}: metrics differ: "
             f"{sorted(set(got.items()) ^ set(want.items()))}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        fail(f"{workload} trace {trace}: {result['failed']} of "
             f"{result['attempted']} repetitions failed")
    if trace and result["metrics"]["fail_ratio"]["value"] != 0:
        fail(f"{workload}: fail_ratio is not 0")
    if not trace and not all(m["value"] > 0 for m in result["metrics"].values()):
        fail(f"{workload}: an end-to-end metric is not positive")


def check_refuses_without_program():
    bare = tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run(RUN + ["--workload", "cli_ode", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"a copy without src/ exited {proc.returncode} with {proc.stdout!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace, run_tiny(workload, trace))
            print(f"ok {workload} trace {trace}")
    check_refuses_without_program()
    print("ok refuses to run without src/")
    print("PASS benchmark smoke test")


if __name__ == "__main__":
    main()
