"""Run configuration: a flat key = value document with a fixed schema.

Lines are `key = value`; blank lines and lines starting with `#` are
skipped. Every key has a documented default, unknown keys are rejected so
typos cannot pass silently, and the resolved configuration (defaults
filled in) can be echoed line by line into output headers.
"""

import math
import os
from collections import namedtuple
from dataclasses import fields

from .errors import ParseError, ValidationError
from .grids import (InitialProfile, SpatialGrid, check_dt, check_integer, data_lines,
                    read_text, snapshot_schedule)
from .kinetic import MAX_CFL, check_cfl, check_epsilon
from .params import ModelParams

_FLOAT, _INT, _STRING, _FLOAT_LIST = "float", "int", "string", "float list"

# key -> (type, default, description); order defines the echo order
SCHEMA = {
    # model parameters
    "d1": (_FLOAT, 1.0, "death rate of healthy cells"),
    "d2": (_FLOAT, 1.0, "death rate of infected cells"),
    "d3": (_FLOAT, 1.0, "decay rate of virus particles"),
    "beta": (_FLOAT, 1.0, "infection rate"),
    "k": (_FLOAT, 1.0, "virus production rate"),
    "r": (_FLOAT, 2.0, "production rate of healthy cells"),
    "sigma1": (_FLOAT, 1.0, "velocity relaxation rate, healthy cells"),
    "sigma2": (_FLOAT, 1.0, "velocity relaxation rate, infected cells"),
    "sigma3": (_FLOAT, 1.0, "velocity relaxation rate, virus"),
    "chi0": (_FLOAT, 0.0, "velocity bias strength toward the infected gradient"),
    "q1": (_INT, 1, "relaxation scaling exponent, healthy cells"),
    "q2": (_INT, 1, "relaxation scaling exponent, infected cells"),
    "q3": (_INT, 1, "relaxation scaling exponent, virus"),
    "p": (_INT, 1, "bias scaling exponent"),
    "vmax": (_FLOAT, 1.0, "velocity domain half-width"),
    # discretization
    "length": (_FLOAT, 1.0, "periodic domain length"),
    "n_cells": (_INT, 128, "spatial cells"),
    "n_nodes": (_INT, 16, "velocity quadrature nodes (even)"),
    # initial profile
    "profile": (_STRING, "constant", "initial profile: constant, cosine, file"),
    "c0": (_FLOAT, 1.0, "healthy cell baseline"),
    "s0": (_FLOAT, 0.0, "infected cell baseline"),
    "u0": (_FLOAT, 0.0, "virus baseline"),
    "amplitude": (_FLOAT, 0.1, "relative cosine ripple amplitude"),
    "mode": (_INT, 1, "cosine mode number"),
    "profile_file": (_STRING, "", "per-cell profile path (profile = file)"),
    # run control
    "t_final": (_FLOAT, 1.0, "final time"),
    "dt": (_FLOAT, 1e-3, "ode step size"),
    "dt_max": (_FLOAT, 0.0, "macro step cap, 0 = no cap"),
    "epsilon": (_FLOAT, 0.1, "kinetic scaling parameter"),
    "cfl": (_FLOAT, 0.8, f"kinetic transport number, at most {MAX_CFL}"),
    "snapshot_times": (_FLOAT_LIST, (), "snapshot times, empty = final only"),
    "eps_list": (_FLOAT_LIST, (0.4, 0.2, 0.1, 0.05), "study epsilons"),
    "ref_refine": (_INT, 4, "reference grid refinement factor"),
}


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_value(kind, text, where):
    try:
        if kind == _FLOAT:
            return _finite(text)
        if kind == _INT:
            return int(text)
        if kind == _FLOAT_LIST:
            return tuple(map(_finite, text.replace(",", " ").split()))
        return text
    except ValueError as exc:
        raise ParseError(f"{where}: expected {kind}, got {text!r}") from exc


def _format_value(kind, value):
    if kind == _FLOAT:
        return f"{value:.17g}"
    if kind == _FLOAT_LIST:
        return " ".join(f"{v:.17g}" for v in value)
    return str(value)


class RunConfig(namedtuple("RunConfig", [
        *(key for key in SCHEMA if key != "profile"), "params", "profile"])):
    """A fully resolved configuration: a field per schema key, with params
    the ModelParams and profile the InitialProfile built from them."""

    __slots__ = ()

    def resolved_lines(self):
        """One `key = value` line per schema key, in schema order."""
        echoed = self._replace(profile=self.profile.kind)
        return [f"{key} = {_format_value(kind, getattr(echoed, key))}"
                for key, (kind, _, _) in SCHEMA.items()]


def parse_config(text, source="<config>", base_dir="."):
    """Parse a key = value document into a validated RunConfig.

    Raises ParseError with line context for syntax problems, unknown or
    duplicate keys, and unreadable values; ValidationError when a value
    violates a model or solver invariant.
    """
    values = {}
    for lineno, line in data_lines(text):
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: expected 'key = value'")
        key, _, rest = line.partition("=")
        key, rest = key.strip(), rest.strip()
        if key not in SCHEMA:
            raise ParseError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(SCHEMA[key][0], rest, f"{source}:{lineno}")

    for key, (_, default, _) in SCHEMA.items():
        values.setdefault(key, default)

    params = ModelParams(**{field.name: values[field.name]
                            for field in fields(ModelParams)})
    profile = _build_profile(values, base_dir)
    _check_run_values(values)
    values.update(params=params, profile=profile)
    return RunConfig._make(map(values.__getitem__, RunConfig._fields))


def load_config(path):
    """parse_config on a file, resolving profile paths next to it."""
    return parse_config(read_text(path, "config"), source=str(path),
                        base_dir=os.path.dirname(path))


def _build_profile(values, base_dir):
    kind = values["profile"]
    if kind == "file":
        path = values["profile_file"]
        if not path:
            raise ValidationError("profile = file needs profile_file")
        path = os.path.join(base_dir, path)  # an absolute path stays as it is
        if not os.path.exists(path):
            raise ValidationError(f"profile_file does not exist: {path}")
        return InitialProfile("file", path=path)
    return InitialProfile(
        kind,
        c0=values["c0"], s0=values["s0"], u0=values["u0"],
        amplitude=values["amplitude"], mode=values["mode"],
    )


def _check_run_values(values):
    SpatialGrid(values["length"], values["n_cells"])
    snapshot_schedule(values["snapshot_times"], 0.0, values["t_final"])
    check_dt(values["dt"])
    if values["dt_max"] < 0:
        raise ValidationError("dt_max must be >= 0 (0 means automatic)")
    check_cfl(values["cfl"])
    check_epsilon(values["epsilon"])
    check_integer("ref_refine", (values["ref_refine"],), 2)
