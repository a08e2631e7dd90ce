"""The README's tables stay true to the package and the tests."""

import importlib
import os
import re

import pytest

from dopptrack import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_table(header: str) -> list[list[str]]:
    """Cells of the body rows of the README table whose header row starts
    with header."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def paper_map():
    return readme_table("| concept | code | pinned by |")


def test_paper_map_is_short():
    assert 1 <= len(paper_map()) <= 15


@pytest.mark.parametrize("row", paper_map(), ids=lambda row: row[0])
def test_paper_map_code_resolves(row):
    module, *attrs = row[1].strip("`").split(".")
    obj = importlib.import_module("dopptrack." + module)
    for attr in attrs:
        obj = getattr(obj, attr)


@pytest.mark.parametrize("row", paper_map(), ids=lambda row: row[0])
def test_paper_map_tests_exist(row):
    cited = re.findall(r"`(test_\w+\.py)::(test_\w+)`", row[2])
    assert cited, "row cites no test"
    for name, test in cited:
        with open(os.path.join(ROOT, "tests", name), encoding="utf-8") as f:
            text = f.read()
        assert re.search(r"^\s*def %s\(" % test, text, re.M), \
            "%s has no %s" % (name, test)


def test_scene_table_lists_each_scene_file():
    files = [row[0].strip("`") for row in readme_table("| file | differs")]
    assert sorted(files) == sorted(os.listdir(os.path.join(ROOT, "scenes")))


def test_exit_code_table_lists_each_code_once():
    codes = [row[0] for row in readme_table("| code | meaning | examples |")]
    assert sorted(codes) == ["`%d`" % k for k in range(6)]


def test_cli_docstring_gives_one_line_per_exit_code():
    codes = re.findall(r"^    (\d)  \S", cli.__doc__, re.M)
    assert sorted(codes) == [str(k) for k in range(6)]
