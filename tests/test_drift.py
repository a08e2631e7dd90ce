import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ZERO_DRIFT = ["max |delta| %s: 0" % name
              for name in ("error_s", "doppler", "tau", "lse", "received",
                           "noise_std", "truth_alpha_s", "truth_doppler",
                           "baseline_n", "baseline_delay_s", "baseline_flag",
                           "baseline_error_s", "dump_signal")] \
    + ["%s.csv: identical" % name
       for name in ("received", "truth", "segments", "errors", "delays",
                    "baseline_errors", "dump")]


def drift(tmp_path, new_tree, settings=""):
    """tools/drift.py run on a 0.02 s scenario: ROOT against new_tree."""
    ini = tmp_path / "run.ini"
    ini.write_text(settings + "[run]\nduration_s = 0.02\n")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "drift.py"), ROOT,
         str(new_tree), "--config", str(ini)], capture_output=True,
        text=True, timeout=600)


# coincident.ini is the scene where the perturbed rows decide the fit
@pytest.mark.parametrize("scene", [None, "coincident.ini"],
                         ids=["default", "coincident"])
def test_tree_against_itself_reports_zero_drift(tmp_path, scene):
    settings = Path(ROOT, "scenes", scene).read_text() if scene else ""
    done = drift(tmp_path, ROOT, settings)
    assert done.returncode == 0, done.stderr
    first, *deltas = done.stdout.splitlines()
    assert first.startswith("boundaries: equal (")
    assert deltas == ZERO_DRIFT


# the run diverges at once, so its segment's lse is inf in both trees: the
# same value, which is no drift
def test_diverging_tree_against_itself_reports_zero_drift(tmp_path):
    done = drift(tmp_path, ROOT, "[signal]\namplitude = 1e300\n"
                 "[channel]\nnoise_std = 0.01\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1:] == ZERO_DRIFT


def test_changed_literal_exits_one(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src"), tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness = tree / "src" / "dopptrack" / "harness.py"
    text = harness.read_text()
    assert text.count("noise_seed: int = 1234") == 1
    harness.write_text(text.replace("noise_seed: int = 1234",
                                    "noise_seed: int = 1235"))
    done = drift(tmp_path, tree)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert "max |delta| noise_std: 0" in lines
    assert "max |delta| received: 0" not in lines
    assert "received.csv: differs" in lines and "dump.csv: identical" in lines
