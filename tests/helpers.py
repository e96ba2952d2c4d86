"""Helpers that more than one test module uses."""

import os

import pytest

from kinsir import ModelParams


def random_params(rng, r0_range=None):
    """ModelParams with rates drawn from rng; r is drawn so that R0 lies in
    r0_range when one is given."""
    d1, d2, d3 = rng.uniform(0.4, 2.0, 3)
    beta, k = rng.uniform(0.3, 2.0, 2)
    if r0_range is None:
        r = rng.uniform(0.2, 4.0)
    else:
        r = rng.uniform(*r0_range) * d1 * d2 * d3 / (beta * k)
    return ModelParams(d1=d1, d2=d2, d3=d3, beta=beta, k=k, r=r)


def assert_no_child_is_left():
    # waitpid(-1) finds no child, not even a finished one left unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
