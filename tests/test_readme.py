"""README.md states the config and exit-code contract: its config table
names every key of config.SCHEMA, and its exit-code table has one row for
each code that a class in errors.py carries, beside 0 for success."""

import itertools
import re
from pathlib import Path

from kinsir import errors
from kinsir.config import SCHEMA

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def table_rows(heading):
    """The body rows of the first table after a heading, as lists of cells."""
    lines = README.split(f"\n{heading}\n", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in table[2:]]


def test_the_config_table_names_every_schema_key():
    named = [name for row in table_rows("### Configuration format")
             for name in re.findall(r"`(\w+)`", row[0])]
    assert sorted(named) == sorted(SCHEMA)


def test_the_exit_code_table_has_one_row_per_error_code():
    carried = {cls.exit_code for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.KinsirError)}
    rows = [int(row[0]) for row in table_rows("### Exit codes")]
    assert sorted(rows) == sorted(carried | {0})
