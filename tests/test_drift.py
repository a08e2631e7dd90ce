import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tree_against_itself_reports_zero_drift(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nduration_s = 0.02\n")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "drift.py"), ROOT, ROOT,
         "--config", str(ini)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    first, *deltas = done.stdout.splitlines()
    assert first.startswith("boundaries: equal (")
    assert deltas == ["max |delta| %s: 0" % name
                      for name in ("error_s", "doppler", "tau", "lse",
                                   "received", "baseline_delay_s")]
