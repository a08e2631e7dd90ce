"""Report how far the answers of two source trees drift apart.

    python tools/drift.py OLD_TREE NEW_TREE [--config FILE]

Each tree's `src/` is imported in a child process of its own, which
simulates the scenario (the defaults, or FILE read by the tree's
`harness.load_config`), runs the tracker and the baseline over it and saves
every output of the simulator (the received stream, the noise level it was
drawn at and the truth's per-path warp and Doppler), the tracker's segments
and per-path error trace, and the baseline's per-path delays. The report
says whether the segment boundaries are equal and gives the largest |delta|
of the per-path error, when the boundaries are equal of each segment's
per-path Doppler and tau and its lse, and then of the simulator's outputs
and the baseline's delays. A tree compared with itself reports zero drift.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

import numpy as np

CHILD = """
import sys
import numpy as np
import dopptrack
from dopptrack import harness
out, config = sys.argv[1], sys.argv[2:]
cfg = harness.load_config(config[0]) if config else harness.default_config()
sig, scene, r, truth = harness.simulate_stream(cfg)
segments, trace, _ = harness.track_stream(cfg, sig, r, truth)
_, baseline_delay, _, _, _ = harness.baseline_stream(cfg, sig, r, truth)
np.savez(out, module=dopptrack.__file__,
         bounds=np.array([(s.a, s.b) for s in segments]),
         doppler=np.array([s.doppler for s in segments]),
         tau=np.array([s.tau for s in segments]),
         lse=np.array([s.lse for s in segments]),
         error=trace.abs_err, received=r, noise_std=scene.noise_std,
         truth_alpha_s=truth.alpha, truth_doppler=truth.doppler,
         baseline_delay_s=baseline_delay)
"""


def run_trees(trees, config, scratch):
    """Run the scenario from every tree at once; one loaded .npz each."""
    children = []
    for i, tree in enumerate(trees):
        out = os.path.join(scratch, "%d.npz" % i)
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        child = subprocess.Popen([sys.executable, "-c", CHILD, out, *config],
                                 cwd=tree, env=env)
        children.append((tree, out, child))
    codes = [child.wait() for _, _, child in children]
    results = []
    for (tree, out, _), code in zip(children, codes):
        if code != 0:
            sys.exit("drift: the run from %s failed" % tree)
        with np.load(out) as saved:
            result = dict(saved)
        module = str(result["module"])
        if not module.startswith(os.path.join(tree, "src", "")):
            sys.exit("drift: %s imported dopptrack from %s" % (tree, module))
        results.append(result)
    return results


def max_delta(a, b) -> str:
    return "%.3g" % float(np.max(np.abs(a - b), initial=0.0))


def report(old, new) -> list[str]:
    same = np.array_equal(old["bounds"], new["bounds"])
    lines = ["boundaries: %s (%d segments old, %d new)"
             % ("equal" if same else "differ", len(old["bounds"]),
                len(new["bounds"])),
             "max |delta| error_s: " + max_delta(old["error"], new["error"])]
    for name in ("doppler", "tau", "lse"):
        lines.append("max |delta| %s: %s" % (
            name, max_delta(old[name], new[name]) if same
            else "n/a, boundaries differ"))
    for name in ("received", "noise_std", "truth_alpha_s", "truth_doppler",
                 "baseline_delay_s"):
        lines.append("max |delta| %s: %s"
                     % (name, max_delta(old[name], new[name])))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--config", help="INI run configuration for both")
    args = parser.parse_args()
    trees = [os.path.realpath(t) for t in (args.old_tree, args.new_tree)]
    config = [os.path.abspath(args.config)] if args.config else []
    with tempfile.TemporaryDirectory() as scratch:
        old, new = run_trees(trees, config, scratch)
        print("\n".join(report(old, new)))


if __name__ == "__main__":
    main()
