"""Extract src/ at a git revision, for the tools that compare two trees."""

import compileall
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKING_TREE = "working tree"


def extract_src(rev, dest):
    """`git archive` src/ at rev into dest and return the path of its src/.

    Exits with status 2, after printing git's message, when rev is unknown.
    """
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
        capture_output=True,
    )
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode())
        raise SystemExit(2)
    os.makedirs(dest, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return os.path.join(dest, "src")


def compiled_tree(label, slot):
    """Replace slot with src/ of the working tree (label WORKING_TREE) or of
    the git revision label, byte-compiled; returns the path of its src/.

    tools/step_cost.py puts each tree in turn at one slot, so that both run
    from the same path string: the allocator's state in a child process
    also depends on its import paths.
    """
    shutil.rmtree(slot, ignore_errors=True)
    if label == WORKING_TREE:
        src = shutil.copytree(os.path.join(ROOT, "src"), os.path.join(slot, "src"),
                              ignore=shutil.ignore_patterns("__pycache__"))
    else:
        src = extract_src(label, slot)
    compileall.compile_dir(src, quiet=1)
    return src
