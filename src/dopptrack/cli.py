"""Command-line front end.

Subcommands:
    simulate     synthesize received.csv and truth.csv for a scenario
    track        run the segmented-RLS Doppler tracker over a simulation
    baseline     run the peak-tracking baseline over a simulation
    compare      per-path error report for two tracker output directories
    demo         full pipeline at reduced duration in one output directory
    dump-signal  sample the transmitted waveform to CSV for inspection

Each subcommand loads its configuration, then runs one step function that
calls the harness and prints a summary; demo runs the simulate, baseline,
track and compare steps in that order. README "CLI" states what a step
leaves behind when it fails.

Exit codes (README "Exit codes" lists the causes of each):
    0  success
    1  configuration error
    2  I/O error
    3  the tracker flagged numerical divergence
    4  bad input
    5  internal fault
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback

from . import harness
from .harness import BadInputError, ConfigError


def _load(args) -> harness.RunConfig:
    if args.config:
        cfg = harness.load_config(args.config)
    else:
        cfg = harness.default_config()
    if args.duration is not None:
        cfg = dataclasses.replace(cfg, duration=args.duration)
    return cfg


def _per_path(summary: dict) -> dict:
    return {k: "%.3g" % v for k, v in summary["max_abs_err_s"].items()}


def _simulate(cfg: harness.RunConfig, out: str) -> int:
    info = harness.run_simulation(cfg, out)
    print("wrote %d samples to %s (noise_std=%.6g)"
          % (info["n_samples"], out, info["noise_std"]))
    return 0


def _track(cfg: harness.RunConfig, indir: str, out: str) -> int:
    summary = harness.run_tracker(cfg, indir, out)
    print("tracker : %d segments, per-path max |err| %s"
          % (summary["segment_count"], _per_path(summary)))
    if summary["diverged"]:
        print("tracker flagged numerical divergence at sample %s"
              % summary["diverged_at"], file=sys.stderr)
        return 3
    return 0


def _baseline(cfg: harness.RunConfig, indir: str, out: str) -> int:
    summary = harness.run_baseline(cfg, indir, out)
    print("baseline: per-path max |err| %s" % _per_path(summary))
    return 0


def _compare(a: str, b: str, out: str, **options) -> int:
    report = harness.compare_dirs(a, b, out, **options)
    for name, row in report["paths"].items():
        print("%-8s a: max %.3g mean %.3g misses %d | "
              "b: max %.3g mean %.3g misses %d"
              % (name, row["a_max_s"], row["a_mean_s"], row["a_misses"],
                 row["b_max_s"], row["b_mean_s"], row["b_misses"]))
    print("report written to %s" % out)
    return 0


def _demo(args) -> int:
    cfg = _load(args)
    if args.duration is None and args.config is None:
        cfg = dataclasses.replace(cfg, duration=0.1)
    sim_dir = os.path.join(args.out, "sim")
    trk_dir = os.path.join(args.out, "tracker")
    bas_dir = os.path.join(args.out, "baseline")
    _simulate(cfg, sim_dir)
    _baseline(cfg, sim_dir, bas_dir)
    code = _track(cfg, sim_dir, trk_dir)
    _compare(trk_dir, bas_dir, os.path.join(args.out, "compare.json"))
    print("artifacts under %s" % args.out)
    return code


def _dump_signal(cfg: harness.RunConfig, out: str) -> int:
    harness.dump_signal(cfg, out)
    print("wrote %d samples to %s" % (cfg.n_samples, out))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors: it
    prints its usage line and raises ConfigError instead of exiting with
    status 2, which is reserved for I/O errors. Subparsers share its class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dopptrack", description="Multipath Doppler tracking "
                                              "simulator and trackers")
    sub = p.add_subparsers(dest="command", required=True)

    def add_step(name, about, func, out="output directory", indir=False):
        sp = sub.add_parser(name, help=about)
        sp.add_argument("--config", default=None, help="INI config file")
        sp.add_argument("--duration", type=float, default=None,
                        help="override run duration in seconds")
        if indir:
            sp.add_argument("--in", dest="indir", required=True,
                            help="directory with received.csv and truth.csv")
        sp.add_argument("--out", required=True, help=out)
        sp.set_defaults(func=func)

    add_step("simulate", "synthesize a received stream",
             lambda a: _simulate(_load(a), a.out))
    add_step("track", "run the Doppler tracker",
             lambda a: _track(_load(a), a.indir, a.out), indir=True)
    add_step("baseline", "run the peak-tracking baseline",
             lambda a: _baseline(_load(a), a.indir, a.out), indir=True)

    sp = sub.add_parser("compare", help="compare two error traces")
    sp.add_argument("--a", required=True, help="first output directory")
    sp.add_argument("--b", required=True, help="second output directory")
    sp.add_argument("--out", required=True, help="report file (JSON)")
    # an option left out takes compare_dirs' default
    sp.add_argument("--threshold", type=float, dest="miss_threshold",
                    default=argparse.SUPPRESS,
                    help="sample-miss threshold in seconds")
    sp.add_argument("--window", type=int, default=argparse.SUPPRESS,
                    help="block-average window for the plot CSV")
    sp.set_defaults(func=lambda a: _compare(a.a, a.b, a.out, **{
        k: v for k, v in vars(a).items()
        if k in ("miss_threshold", "window")}))

    add_step("demo", "full pipeline at reduced duration", _demo)
    add_step("dump-signal", "dump sampled waveform to CSV",
             lambda a: _dump_signal(_load(a), a.out), out="output CSV file")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, MemoryError) as exc:   # a run too large to allocate
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except BadInputError as exc:
        print("bad input: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2
    except Exception:   # a fault of the program, not of its input
        traceback.print_exc()
        return 5


if __name__ == "__main__":
    sys.exit(main())
