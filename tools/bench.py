"""Run the benchmark for one workload and seed and save its trajectory file.

    python tools/bench.py WORKLOAD [--seed 1] [--seconds S] [--out DIR]

Runs this checkout's perfbench/run.py in a child process, untraced
(--trace 0) and then traced (--trace 1), and writes BENCH_<WORKLOAD>.json
into DIR (the checkout's root by default). --seconds defaults to
BENCHMARK.json's run_seconds. The file holds:
- commit: `git describe --always --dirty` of the checkout;
- rtf, setup_s and peak_rss_mib: the untraced run's end-to-end metrics;
- rtf_wall: the median over the untraced passes of wall time per stream
  second, which the probe does not scale;
- stages: for pipeline, the untraced median of each stage's seconds;
- accuracy and digests: what the untraced run reports of its answers;
- layers: every per-layer metric of the traced run;
- environment: the untraced run's Python, numpy, BLAS and CPUs.
A run that fails prints the runner's output and exits with its status, and
no file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("simulate_s", "baseline_s", "csv_io_s", "compare_s")
ACCURACY = ("max_err_s", "segments", "baseline_max_err_s")


def run(workload: str, seed: int, seconds: float, trace: int):
    """(metrics, details) of one runner invocation; exits on a failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        sys.exit(proc.returncode)
    lines = proc.stdout.splitlines()
    details = next(json.loads(line[len("details: "):]) for line in lines
                   if line.startswith("details: "))
    metrics = json.loads(lines[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}, details


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--out", default=ROOT)
    args = parser.parse_args(argv)

    end_to_end, details = run(args.workload, args.seed, args.seconds, 0)
    layers, _ = run(args.workload, args.seed, args.seconds, 1)
    commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                            cwd=ROOT, capture_output=True, text=True)
    bench = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": commit.stdout.strip() or None,
        **end_to_end,
        "rtf_wall": statistics.median(p["rtf_wall"]
                                      for p in details["per_pass"]),
        "passes": details["passes"],
        "stages": {k: details[k] for k in STAGES if k in details},
        "accuracy": {k: details[k] for k in ACCURACY if k in details},
        "digests": {k: v for k, v in details.items()
                    if k.endswith("_digest")},
        "layers": layers,
        "environment": details["environment"],
    }
    path = os.path.join(args.out, "BENCH_%s.json" % args.workload)
    with open(path, "w") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")
    print("%s: rtf %.4g, rtf_wall %.4g" % (path, bench["rtf"],
                                            bench["rtf_wall"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
