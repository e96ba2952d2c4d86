"""Extract src/ at a git revision, for the tools that compare two trees."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
