"""Configuration parsing tests."""

import pytest

from kinsir.config import SCHEMA, load_config, parse_config
from kinsir.errors import ParseError, ValidationError
from kinsir.grids import InitialProfile


def test_empty_document_resolves_to_the_documented_defaults():
    config = parse_config("")
    assert config.params.d1 == 1.0
    assert config.params.r == 2.0
    assert config.params.q1 == 1
    assert config.n_cells == 128
    assert config.n_nodes == 16
    assert config.profile.kind == "constant"
    assert config.eps_list == (0.4, 0.2, 0.1, 0.05)
    assert config.snapshot_times == ()


def test_comments_blanks_and_spacing_are_tolerated():
    text = "\n# a comment\n  beta = 2.5  \n\nn_cells=32\n"
    config = parse_config(text)
    assert config.params.beta == 2.5
    assert config.n_cells == 32


def test_unknown_key_is_rejected_with_its_name_and_line():
    with pytest.raises(ParseError, match=r"<config>:2.*betaa"):
        parse_config("beta = 1\nbetaa = 2\n")


def test_seed_is_no_longer_a_key():
    with pytest.raises(ParseError, match="unknown key 'seed'"):
        parse_config("seed = 0\n")


def test_duplicate_key_is_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_config("beta = 1\nbeta = 2\n")


def test_missing_separator_is_a_syntax_error():
    with pytest.raises(ParseError, match="<config>:1"):
        parse_config("beta 1\n")


def test_type_errors_carry_line_context():
    with pytest.raises(ParseError, match="<config>:1.*float"):
        parse_config("beta = fast\n")
    with pytest.raises(ParseError, match="int"):
        parse_config("n_cells = 12.5\n")
    with pytest.raises(ParseError, match="float list"):
        parse_config("eps_list = 0.4 oops\n")


def test_scaling_exponent_bound_is_cited():
    with pytest.raises(ValidationError, match="q_i >= 1"):
        parse_config("q1 = 0\n")


def test_float_lists_accept_commas_and_whitespace():
    config = parse_config("eps_list = 0.4, 0.2, 0.1\nsnapshot_times = 0.1 0.2\n")
    assert config.eps_list == (0.4, 0.2, 0.1)
    assert config.snapshot_times == (0.1, 0.2)


@pytest.mark.parametrize("key", ["snapshot_times", "eps_list"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_float_lists_must_be_finite(key, value):
    with pytest.raises(ParseError, match=rf"<config>:1: expected float list.*{value}"):
        parse_config(f"{key} = 0.2 {value}\n")


def test_run_value_bounds():
    for text in ("cfl = 0.95\n", "epsilon = 0\n", "epsilon = 1.5\n",
                 "ref_refine = 1\n", "dt_max = -1\n", "dt = 0\n",
                 "snapshot_times = -0.1\n", "t_final = -1\n",
                 "length = 0\n", "n_cells = 0\n", "n_cells = 1\n",
                 "snapshot_times = 2\nt_final = 1\n"):
        with pytest.raises(ValidationError):
            parse_config(text)


@pytest.mark.parametrize("text,message", [
    ("profile = blob\n", "profile must be constant, cosine or file"),
    ("c0 = -1\n", "initial densities must be >= 0"),
    ("s0 = -0.5\n", "initial densities must be >= 0"),
    ("profile = cosine\nu0 = -1e-3\n", "initial densities must be >= 0"),
    ("profile = cosine\namplitude = 1.5\n", r"amplitude must be in \[0, 1\]"),
    ("profile = cosine\namplitude = -0.1\n", r"amplitude must be in \[0, 1\]"),
    ("profile = cosine\nmode = 0\n", "mode must be >= 1"),
])
def test_profile_values_are_checked_at_parse_time(text, message):
    with pytest.raises(ValidationError, match=message):
        parse_config(text)


@pytest.mark.parametrize("path", [None, ""])
def test_a_file_profile_needs_a_path(path):
    with pytest.raises(ValidationError, match="file profile needs a path"):
        InitialProfile("file", path=path)


def test_resolved_lines_echo_every_key_in_schema_order():
    config = parse_config("beta = 0.5\n")
    lines = config.resolved_lines()
    assert len(lines) == len(SCHEMA)
    assert [line.split(" = ")[0] for line in lines] == list(SCHEMA)
    assert "beta = 0.5" in lines
    assert "r = 2" in lines  # default, float formatted at 17 digits


def test_file_profile_requires_an_existing_file(tmp_path):
    with pytest.raises(ValidationError, match="profile_file"):
        parse_config("profile = file\n")
    with pytest.raises(ValidationError, match="does not exist"):
        parse_config("profile = file\nprofile_file = nope.csv\n",
                      base_dir=str(tmp_path))


def test_file_profile_paths_resolve_next_to_the_config(tmp_path):
    data = tmp_path / "cells.csv"
    data.write_text("# c,s,u\n1.0,0.5,0.2\n1.0,0.5,0.2\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile = file\nprofile_file = cells.csv\nn_cells = 2\n")
    config = load_config(str(cfg))
    assert config.profile.kind == "file"
    assert config.profile.path == str(data)


def test_load_config_reports_unreadable_files_as_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="cannot read config"):
        load_config(str(tmp_path / "missing.cfg"))


def test_parse_errors_cite_the_config_path(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense = 1\n")
    with pytest.raises(ParseError, match=r"run\.cfg:1"):
        load_config(str(cfg))
