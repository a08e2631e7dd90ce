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


def test_output_table_lists_each_file_the_steps_write(tmp_path):
    """Every file a CLI step writes has a row naming that step as a writer,
    and every row's writers write it: each step runs into a directory of its
    own, and the report and dump are named as the table names them."""
    short = ["--duration", "0.02"]
    sim, track, baseline = (str(tmp_path / step)
                            for step in ("simulate", "track", "baseline"))
    steps = {
        "simulate": [*short, "--out", sim],
        "track": [*short, "--in", sim, "--out", track],
        "baseline": [*short, "--in", sim, "--out", baseline],
        "compare": ["--a", track, "--b", baseline,
                    "--out", str(tmp_path / "compare" / "<report>")],
        "dump-signal": [*short,
                        "--out", str(tmp_path / "dump-signal" / "<dump>.csv")],
    }
    for step, argv in steps.items():
        os.makedirs(tmp_path / step, exist_ok=True)
        assert cli.main([step, *argv]) == 0
    written = {(name, step) for step in steps
               for name in os.listdir(tmp_path / step)}
    rows = readme_table("| file | columns | writer |")
    assert written == {(row[0].strip("`"), writer) for row in rows
                       for writer in row[2].split(", ")}
