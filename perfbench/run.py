"""Benchmark of the dopptrack tracker and its offline pipeline.

    python3 perfbench/run.py --workload track_moving --seed 1 --seconds 20 \
        --trace 0

Runs one workload from perfbench/README.md against the dopptrack sources in
src/ of the checkout this file sits in. It prints each metric with its unit,
then a JSON line of run details (environment, seed, counts behind each figure,
answer digests), and last a JSON line with "correct", "attempted", "failed"
and "metrics". --trace 0 gives the end-to-end metrics; --trace 1 a traced run
with the per-layer ones. A failed correctness check exits 1 after printing;
a missing source tree or a bad argument exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

# One BLAS thread: the tracker works on tiny matrices, and the runs must not
# compete for the two cores they were sized on.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _fail(message: str):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _declared_units(trace: bool) -> dict[str, str]:
    """metric -> unit, as BENCHMARK.json declares them for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        _fail("cannot read %s: %s" % (path, exc))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _import_package():
    """Import dopptrack from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dopptrack", "__init__.py")):
        _fail("no dopptrack sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import dopptrack
    if os.path.dirname(os.path.dirname(os.path.abspath(
            dopptrack.__file__))) != SRC:
        _fail("dopptrack imported from %s, not from %s"
              % (dopptrack.__file__, SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    trace = bool(args.trace)
    units = _declared_units(trace)
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)))
    if workloads.WORKLOADS[args.workload]["kind"] == "track":
        result = workloads.run_track(args.workload, args.seed, args.seconds,
                                     trace)
    else:
        result = workloads.run_pipeline(args.workload, args.seed,
                                        args.seconds, trace, ROOT)

    details = result.pop("details")
    symbol_seed, noise_seed = workloads.derive_seeds(args.seed)
    details.update(workload=args.workload, seed=args.seed,
                   symbol_seed=symbol_seed, noise_seed=noise_seed,
                   trace=args.trace, environment=_environment())
    values = result["metrics"]
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: %s"
                           % sorted(set(values) ^ set(units)))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result["metrics"] = metrics
    for name, m in metrics.items():
        print("%-52s %14.6g %s" % (name, m["value"], m["unit"]))
    print("problems: %s" % ("none" if result["correct"]
                            else "; ".join(details["problems"])))
    print("details: " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
