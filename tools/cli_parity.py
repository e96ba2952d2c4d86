"""Compare the CLI outputs of the working tree with those of a git revision.

    python3 tools/cli_parity.py REV

Extracts src/ at REV into a temporary directory and runs a fixed list of
configs through `python3 -m kinsir.cli` on that tree and on the working
tree. Both trees read the same config files, so the resolved headers
match. For each file written it prints `identical`, or the largest
absolute and relative difference over the numeric cells, then every
paired line whose text differs and every line that only one tree wrote.
Exits 0 only if every run exits 0 and every file is identical.
"""

import difflib
import os
import re
import subprocess
import sys
import tempfile

from revtree import ROOT, extract_src

_COSINE = "chi0 = 0.5\nprofile = cosine\nc0 = 1\ns0 = 0.5\nu0 = 0.5\n"
_ENDEMIC = "profile = constant\nc0 = 1\ns0 = 0.2\nu0 = 0.3\n"
_HYPERBOLIC = "q1 = 2\nq2 = 2\nq3 = 2\np = 2\n"

# (name, subcommand, config text); the first five are criterion 10's configs
CONFIGS = [
    ("ode", "ode", "r = 2\nc0 = 1.2\ns0 = 0.4\nu0 = 0.9\nt_final = 0.5\ndt = 0.01\n"),
    ("macro", "macro", _COSINE + "n_cells = 32\nt_final = 0.02\n"
                                 "snapshot_times = 0.01 0.02\n"),
    ("kinetic", "kinetic", _COSINE + "n_cells = 32\nn_nodes = 8\nepsilon = 0.2\n"
                                     "t_final = 0.02\n"),
    ("converge", "converge", _COSINE + "n_cells = 32\nn_nodes = 8\nt_final = 0.05\n"
                                       "eps_list = 0.4 0.2 0.1\n"),
    ("coeffs", "coeffs", "chi0 = 1.0\n"),
    ("macro_dt_max", "macro", _COSINE + "n_cells = 32\nt_final = 0.02\n"
                                        "dt_max = 1e-4\n"
                                        "snapshot_times = 0.01 0 0.005 0.01\n"),
    ("macro_file", "macro", "chi0 = 0.5\nprofile = file\nprofile_file = cells.csv\n"
                            "n_cells = 16\nt_final = 0.02\n"),
    ("kinetic_q2", "kinetic", _COSINE + _HYPERBOLIC + "n_cells = 32\nn_nodes = 8\n"
                                                      "epsilon = 0.2\nt_final = 0.02\n"
                                                      "snapshot_times = 0.01\n"),
    # per-species relaxation at different rates
    ("kinetic_mixed", "kinetic", _COSINE + "sigma2 = 3\nq3 = 2\nn_cells = 32\n"
                                           "n_nodes = 8\nepsilon = 0.2\n"
                                           "t_final = 0.02\n"),
    # the kinetic step without the bias
    ("kinetic_nochi", "kinetic", _COSINE.replace("chi0 = 0.5", "chi0 = 0")
     + "n_cells = 32\nn_nodes = 8\nepsilon = 0.2\nt_final = 0.02\n"),
    # every reaction rate 0 and no virus: the law runs on exact zeros
    ("kinetic_norates", "kinetic", _COSINE.replace("u0 = 0.5", "u0 = 0")
     + "d1 = 0\nd2 = 0\nd3 = 0\nbeta = 0\nk = 0\nr = 0\nn_cells = 32\n"
       "n_nodes = 8\nepsilon = 0.2\nt_final = 0.02\n"),
    # every key at its default: a constant profile run to t_final = 1
    ("macro_default", "macro", ""),
    # a chemotactic drift that grows within its one snapshot segment
    ("macro_aggregating", "macro", "chi0 = 5\nprofile = cosine\ns0 = 0.5\nu0 = 0.5\n"
                                   "amplitude = 0.9\nn_cells = 64\nr = 50\nbeta = 5\n"
                                   "k = 5\nsigma2 = 100\nsigma3 = 100\n"
                                   "t_final = 0.05\n"),
    # unsorted eps that do not halve: the study sorts them, and splits
    # them between two processes
    ("converge_unsorted", "converge", _COSINE + "n_cells = 32\nn_nodes = 8\n"
                                                "t_final = 0.05\n"
                                                "eps_list = 0.3 0.4 0.1 0.25\n"),
    ("converge_hyperbolic", "converge", _ENDEMIC + _HYPERBOLIC
     + "n_cells = 16\nn_nodes = 8\nt_final = 0.5\neps_list = 0.4 0.2 0.1\n"),
    # limit references that drop some (q3 = 2: Du) or all of the macro
    # coefficients, on varying data
    ("converge_mixed", "converge", _COSINE + "q3 = 2\n"
     + "n_cells = 16\nn_nodes = 8\nt_final = 0.05\neps_list = 0.4 0.2 0.1\n"),
    ("converge_material", "converge", _COSINE + _HYPERBOLIC
     + "n_cells = 16\nn_nodes = 8\nt_final = 0.05\neps_list = 0.4 0.2 0.1\n"),
    # a study on a file profile: its reference repeats each row onto the
    # refined cells
    ("converge_file", "converge", "chi0 = 0.5\nprofile = file\nprofile_file = cells.csv\n"
                                  "n_cells = 16\nn_nodes = 8\nt_final = 0.05\n"
                                  "eps_list = 0.4 0.2 0.1\n"),
    # small relaxation rates: large theta through the relaxation inverse
    ("coeffs_vmax1000", "coeffs", "vmax = 1000\nsigma1 = 1e-4\nsigma2 = 1e-4\n"
                                  "sigma3 = 1e-4\n"),
    ("coeffs_vmax37", "coeffs", "vmax = 37\nsigma1 = 1e-4\nn_nodes = 4\n"),
    # relaxation rates 400 decades apart, each D_i = D/sigma_i of the one
    # diffusivity D at unit rate
    ("coeffs_rate_extremes", "coeffs", "chi0 = 1\nvmax = 1e-10\nsigma1 = 1e-300\n"
                                       "sigma2 = 1e100\n"),
    # tables longer than one writer chunk (64 rows), each with a partial
    # last chunk: 1,001 trajectory rows, and three snapshots of 100 cells
    ("ode_long", "ode", "r = 2\nc0 = 1.2\ns0 = 0.4\nu0 = 0.9\nt_final = 1\n"
                        "dt = 1e-3\n"),
    # a trajectory streamed in more than one block (65,536 rows): 70,001
    # rows, one full block and a partial one
    ("ode_blocks", "ode", "r = 2\nc0 = 1.2\ns0 = 0.4\nu0 = 0.9\nt_final = 70\n"
                          "dt = 1e-3\n"),
    ("kinetic_n100", "kinetic", _COSINE + "n_cells = 100\nn_nodes = 8\n"
                                          "epsilon = 0.2\nt_final = 0.02\n"
                                          "snapshot_times = 0.005 0.01 0.02\n"),
    # the kinetic benchmark's size: 256 steps between its two snapshots,
    # each handing the step plan and its work array on to the next
    ("kinetic_512", "kinetic", _COSINE + "n_cells = 512\nn_nodes = 16\n"
                                         "epsilon = 0.05\nt_final = 0.04\n"
                                         "snapshot_times = 0.02\n"),
    # three snapshot segments with three distinct dt: the step plan is
    # built anew at each segment
    ("kinetic_uneven", "kinetic", _COSINE + "n_cells = 32\nn_nodes = 8\n"
                                            "epsilon = 0.2\nt_final = 0.02\n"
                                            "snapshot_times = 0.003 0.01 0.02\n"),
    # a zero death rate: R0 and the equilibria are undefined, so
    # equilibrium.csv is an empty named table, its column line alone
    ("ode_nodeath", "ode", "r = 2\nc0 = 1.2\ns0 = 0.4\nu0 = 0.9\nd2 = 0\n"
                           "t_final = 0.5\ndt = 0.01\n"),
    # zero horizons: the zero-step branch of the step-count rule in each
    # marching tier
    ("ode_zero", "ode", "r = 2\nc0 = 1.2\ns0 = 0.4\nu0 = 0.9\nt_final = 0\n"
                        "dt = 0.01\n"),
    ("macro_zero", "macro", _COSINE + "n_cells = 32\nt_final = 0\n"),
    ("kinetic_zero", "kinetic", _COSINE + "n_cells = 32\nn_nodes = 8\n"
                                          "epsilon = 0.2\nt_final = 0\n"),
    # flat data: every upwind difference is exactly 0, and f3 starts at
    # exact zeros
    ("kinetic_flat", "kinetic", "chi0 = 0.5\nprofile = constant\nc0 = 1\ns0 = 0.5\n"
                                "u0 = 0\nn_cells = 16\nn_nodes = 8\nepsilon = 0.2\n"
                                "t_final = 0.1\n"),
    # widths whose squares are just above the smallest normal float, the
    # least that grids.check_width accepts: vmax^2 = 2.25e-308, dx^2 = 2.6e-308
    ("coeffs_vmax_edge", "coeffs", "chi0 = 0\nvmax = 1.5e-154\n"),
    ("macro_width_edge", "macro", _ENDEMIC + "length = 1.3e-153\nn_cells = 8\n"
                                             "t_final = 0.02\n"),
]

# per-cell (c, s, u) rows for the file profile: 16 distinct positive values
PROFILE_ROWS = "".join(
    f"{1.0 + 0.1 * i!r},{0.5 + 0.03 * (i % 5)!r},{0.25 + 0.02 * (i % 3)!r}\n"
    for i in range(16)
)


def run_tree(src, config_dir, out_root):
    """Run every config on the package under src; returns {name: exit code}."""
    env = dict(os.environ, PYTHONPATH=src)
    codes = {}
    for name, subcommand, _ in CONFIGS:
        done = subprocess.run(
            [sys.executable, "-m", "kinsir.cli", subcommand,
             "--config", os.path.join(config_dir, f"{name}.cfg"),
             "--out", os.path.join(out_root, name)],
            env=env, capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(f"{name} under {src}: {done.stderr}")
        codes[name] = done.returncode
    return codes


def compare(text_a, text_b, rev):
    """'identical', or the largest numeric differences between two files,
    followed by each paired line whose text (not only its numbers) differs
    and each unpaired line.

    difflib aligns the lines; within a changed block they pair in order and
    the lines left over are unpaired. Cells are split at commas and at the
    '=' of '# key = value' lines.
    """
    if text_a == text_b:
        return "identical"
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    pairs, unpaired = [], []
    matcher = difflib.SequenceMatcher(None, lines_a, lines_b, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            paired = min(i2 - i1, j2 - j1)
            pairs += zip(lines_a[i1:i1 + paired], lines_b[j1:j1 + paired])
            unpaired += [f"only in {rev}: {line!r}"
                         for line in lines_a[i1 + paired:i2]]
            unpaired += [f"only in the working tree: {line!r}"
                         for line in lines_b[j1 + paired:j2]]
    max_abs = max_rel = 0.0
    text_changes = []
    for line_a, line_b in pairs:
        cells_a, cells_b = re.split("[,=]", line_a), re.split("[,=]", line_b)
        if len(cells_a) != len(cells_b):
            text_changes.append(f"{line_a!r} against {line_b!r}")
            continue
        for a, b in zip(cells_a, cells_b):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                text_changes.append(f"{line_a!r} against {line_b!r}")
                break
            diff = abs(x - y)
            max_abs = max(max_abs, diff)
            max_rel = max(max_rel, diff / max(abs(x), abs(y)))
    verdict = f"max abs diff {max_abs:.3e}, max rel diff {max_rel:.3e}"
    return "; ".join([verdict, *text_changes, *unpaired])


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/cli_parity.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="cli-parity-") as tmp:
        old_src = extract_src(argv[0], os.path.join(tmp, "rev"))
        config_dir = os.path.join(tmp, "configs")
        os.makedirs(config_dir)
        with open(os.path.join(config_dir, "cells.csv"), "w") as handle:
            handle.write(PROFILE_ROWS)
        for name, _, text in CONFIGS:
            with open(os.path.join(config_dir, f"{name}.cfg"), "w") as handle:
                handle.write(text)

        outs = {tag: os.path.join(tmp, "out", tag) for tag in ("rev", "work")}
        codes_rev = run_tree(old_src, config_dir, outs["rev"])
        codes_work = run_tree(os.path.join(ROOT, "src"), config_dir, outs["work"])

        all_identical = True
        for name, _, _ in CONFIGS:
            if codes_rev[name] != 0 or codes_work[name] != 0:
                print(f"{name}: exit {codes_rev[name]} at {argv[0]}, "
                      f"{codes_work[name]} in the working tree")
                all_identical = False
                continue
            dirs = [os.path.join(outs[tag], name) for tag in ("rev", "work")]
            files = sorted(set(os.listdir(dirs[0])) | set(os.listdir(dirs[1])))
            for filename in files:
                paths = [os.path.join(d, filename) for d in dirs]
                if not all(map(os.path.exists, paths)):
                    verdict = "written by one tree only"
                else:
                    texts = []
                    for path in paths:
                        with open(path, encoding="utf-8") as handle:
                            texts.append(handle.read())
                    verdict = compare(*texts, argv[0])
                print(f"{name}/{filename}: {verdict}")
                all_identical &= verdict == "identical"
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
