import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every file the CLI steps write, each the same in both trees
NO_DRIFT = ["%s: identical" % name
            for name in ("baseline/delays.csv", "baseline/errors.csv",
                         "baseline/summary.json", "compare.json",
                         "compare.json.plot.csv", "dump.csv",
                         "sim/received.csv", "sim/truth.csv",
                         "track/errors.csv", "track/segments.csv",
                         "track/summary.json")]


def drift(tmp_path, new_tree, settings=""):
    """tools/drift.py run on a 0.02 s scenario: ROOT against new_tree."""
    ini = tmp_path / "run.ini"
    ini.write_text(settings + "[run]\nduration_s = 0.02\n")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "drift.py"), ROOT,
         str(new_tree), "--config", str(ini)], capture_output=True,
        text=True, timeout=600)


def copied_tree(tmp_path, old, new):
    """A copy of ROOT's src/ whose harness.py holds new in place of old."""
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src"), tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness = tree / "src" / "dopptrack" / "harness.py"
    text = harness.read_text()
    assert text.count(old) == 1
    harness.write_text(text.replace(old, new))
    return tree


# coincident.ini is the scene where the perturbed rows decide the fit
@pytest.mark.parametrize("scene", [None, "coincident.ini"],
                         ids=["default", "coincident"])
def test_tree_against_itself_reports_zero_drift(tmp_path, scene):
    settings = Path(ROOT, "scenes", scene).read_text() if scene else ""
    done = drift(tmp_path, ROOT, settings)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == NO_DRIFT


# the run diverges at once (track exits 3), so its segment's lse is inf in
# both trees: the same value, which is no drift
def test_diverging_tree_against_itself_reports_zero_drift(tmp_path):
    done = drift(tmp_path, ROOT, "[signal]\namplitude = 1e300\n"
                 "[channel]\nnoise_std = 0.01\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == NO_DRIFT


def test_changed_literal_exits_one(tmp_path):
    tree = copied_tree(tmp_path, "noise_seed: int = 1234",
                       "noise_seed: int = 1235")
    done = drift(tmp_path, tree)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    at = lines.index("sim/received.csv: differs")
    assert lines[at + 1] == "  max |delta| n: 0"
    column, _, delta = lines[at + 2].rpartition(" ")
    assert column == "  max |delta| r:" and float(delta) > 0
    assert "sim/truth.csv: identical" in lines
    assert "dump.csv: identical" in lines


# the CLI's reader feeds the tracker and the baseline, so a tree that reads
# the stream back negated drifts though it simulates the same stream
def test_changed_reader_exits_one(tmp_path):
    tree = copied_tree(tmp_path, "    return data[:, 1].copy()\n",
                       "    return -data[:, 1]\n")
    done = drift(tmp_path, tree)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert "sim/received.csv: identical" in lines
    assert "track/errors.csv: differs" in lines


def test_tree_without_package_exits_two(tmp_path):
    (tmp_path / "tree" / "src").mkdir(parents=True)
    done = drift(tmp_path, tmp_path / "tree")
    assert done.returncode == 2
    assert os.path.realpath(tmp_path / "tree") in done.stderr
