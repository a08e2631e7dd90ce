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
and the baseline's delays. It exits 0 when nothing drifts (a tree compared
with itself) and 1 when the boundaries differ or any |delta| is not zero; a
place where both trees hold the same value, an infinity or NaN included,
does not drift.
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
         error_s=trace.abs_err, received=r, noise_std=scene.noise_std,
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


def max_delta(a, b) -> float:
    """The largest |a - b|, where places equal in both, or NaN in both, count
    as zero (inf - inf would be NaN); NaN when one side alone is NaN."""
    equal = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        return float(np.max(np.where(equal, 0.0, np.abs(a - b)), initial=0.0))


def report(old, new) -> tuple[list[str], bool]:
    """The report's lines, and whether anything drifted."""
    same = np.array_equal(old["bounds"], new["bounds"])
    lines = ["boundaries: %s (%d segments old, %d new)"
             % ("equal" if same else "differ", len(old["bounds"]),
                len(new["bounds"]))]
    drifted = not same
    for name in ("error_s", "doppler", "tau", "lse", "received", "noise_std",
                 "truth_alpha_s", "truth_doppler", "baseline_delay_s"):
        if name in ("doppler", "tau", "lse") and not same:
            lines.append("max |delta| %s: n/a, boundaries differ" % name)
            continue
        delta = max_delta(old[name], new[name])
        drifted |= delta != 0.0
        lines.append("max |delta| %s: %.3g" % (name, delta))
    return lines, drifted


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
    lines, drifted = report(old, new)
    print("\n".join(lines))
    sys.exit(1 if drifted else 0)


if __name__ == "__main__":
    main()
