"""Report which files two source trees' CLI runs write differently.

    python tools/drift.py OLD_TREE NEW_TREE [--config FILE]

Each tree's `src/` is imported in a child process of its own, which runs
that tree's `dopptrack` CLI into a directory of its own: `simulate --out
sim`, `track --in sim --out track` (exit 3, the tracker's divergence flag,
is a finished run), `baseline --in sim --out baseline`, `compare --a track
--b baseline --out compare.json` and `dump-signal --out dump.csv`; every
step but `compare` is given `--config FILE` when FILE is. The report prints
one line per file either run wrote, in sorted order: `identical`, `differs`
or `written by one tree only`. Under a CSV that differs it prints the
largest |delta| of each column by header name, taken over the fields that
differ; a column whose length differs, or where a field that is not a number
differs, drifts by inf. It exits 0 when every file the CLI writes is
byte-identical in both trees, 1 when any file drifts, and 2 when a tree's
run fails or does not import `dopptrack` from the tree's own `src/`.
"""

from __future__ import annotations

import argparse
import filecmp
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

CHILD = """
import sys
import dopptrack
from dopptrack.cli import main
print(dopptrack.__file__)
config = sys.argv[1:]
for argv in (["simulate", *config, "--out", "sim"],
             ["track", *config, "--in", "sim", "--out", "track"],
             ["baseline", *config, "--in", "sim", "--out", "baseline"],
             ["compare", "--a", "track", "--b", "baseline",
              "--out", "compare.json"],
             ["dump-signal", *config, "--out", "dump.csv"]):
    code = main(argv)
    if code and not (code == 3 and argv[0] == "track"):
        sys.exit(code)
"""


def fail(message):
    """A run that did not finish gives no answer to compare: exit 2."""
    print("drift: %s" % message, file=sys.stderr)
    sys.exit(2)


def run_trees(trees, config, scratch) -> list[str]:
    """Run the CLI from every tree at once; each run's output directory."""
    runs = []
    for i, tree in enumerate(trees):
        out = os.path.join(scratch, str(i))
        os.mkdir(out)
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        runs.append((tree, out, subprocess.Popen(
            [sys.executable, "-c", CHILD, *config], cwd=out, env=env,
            stdout=subprocess.PIPE, text=True)))
    printed = [child.communicate()[0] for _, _, child in runs]
    for (tree, _, child), text in zip(runs, printed):
        if child.returncode != 0:
            fail("the run from %s failed" % tree)
        module = text.partition("\n")[0]
        if not module.startswith(os.path.join(tree, "src", "")):
            fail("%s imported dopptrack from %s" % (tree, module))
    return [out for _, out, _ in runs]


def files(top) -> set[str]:
    """The path of every file under top, relative to top."""
    return {os.path.relpath(os.path.join(root, name), top)
            for root, _, names in os.walk(top) for name in names}


def columns(path) -> dict:
    """A CSV's columns by header name, each an array of its fields' text."""
    with open(path) as f:
        header, *rows = (line.rstrip("\n").split(",") for line in f)
    return {name: np.array(column)
            for name, column in zip(header, zip(*rows))}


def column_delta(old, new) -> float:
    """The largest |old - new| of two text columns over the fields that
    differ: NaN where one side alone is NaN, inf when the lengths differ or
    a differing field is not a number."""
    if old.shape != new.shape:
        return math.inf
    differ = old != new
    try:
        old, new = old[differ].astype(float), new[differ].astype(float)
    except ValueError:
        return math.inf
    return float(np.max(np.abs(old - new), initial=0.0))


def report(old_dir, new_dir) -> list[str]:
    """One line per file either directory holds, and under a CSV that
    differs one line per column."""
    old_files, new_files = files(old_dir), files(new_dir)
    lines = []
    for name in sorted(old_files | new_files):
        old, new = os.path.join(old_dir, name), os.path.join(new_dir, name)
        if (name in old_files) != (name in new_files):
            lines.append("%s: written by one tree only" % name)
        elif filecmp.cmp(old, new, shallow=False):
            lines.append("%s: identical" % name)
        else:
            lines.append("%s: differs" % name)
            if name.endswith(".csv"):
                old, new = columns(old), columns(new)
                none = np.array([], dtype=str)
                lines += ["  max |delta| %s: %.3g" % (column, column_delta(
                    old.get(column, none), new.get(column, none)))
                    for column in dict.fromkeys([*old, *new])]
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--config", help="INI run configuration for both")
    args = parser.parse_args()
    trees = [os.path.realpath(t) for t in (args.old_tree, args.new_tree)]
    config = ["--config", os.path.abspath(args.config)] if args.config else []
    with tempfile.TemporaryDirectory() as scratch:
        lines = report(*run_trees(trees, config, scratch))
    print("\n".join(lines))
    sys.exit(0 if all(line.endswith(": identical") for line in lines) else 1)


if __name__ == "__main__":
    main()
