"""Command-line front end.

Subcommands:
    simulate     synthesize received.csv and truth.csv for a scenario
    track        run the segmented-RLS Doppler tracker over a simulation
    baseline     run the peak-tracking baseline over a simulation
    compare      per-path error report for two tracker output directories
    demo         full pipeline at reduced duration in one output directory
    dump-signal  sample the transmitted waveform to CSV for inspection

Exit codes: 0 success, 1 configuration error (a value that does not parse
or is not finite, any value the simulator or a tracker rejects, a run no
longer than the tracker warm-up, a baseline run too short for the template
and lag range, or a compare window below 1 or threshold that is negative or
not finite), 2 I/O error (a file that cannot be opened, read or written), 3
the tracker reported numerical divergence, 4 bad input
(an input CSV whose content does not parse or is laid out wrongly, a
received.csv or truth.csv that does not hold the configured run's number of
samples, error traces that cannot be compared, or a received sample the
tracker cannot consume), 5 internal fault: any other exception is a fault of
the program, not of its input, and its traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback

import numpy as np

from . import harness
from .harness import BadInputError, ConfigError
from .tracker import InvalidSampleError


def _load(args) -> harness.RunConfig:
    if getattr(args, "config", None):
        cfg = harness.load_config(args.config)
    else:
        cfg = harness.default_config()
    if getattr(args, "duration", None) is not None:
        cfg = dataclasses.replace(cfg, duration=args.duration)
    cfg.validate()
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    info = harness.run_simulation(cfg, args.out)
    print("wrote %d samples to %s (noise_std=%.6g)"
          % (info["n_samples"], args.out, info["noise_std"]))
    return 0


def _cmd_track(args) -> int:
    cfg = _load(args)
    summary = harness.run_tracker(cfg, args.indir, args.out)
    worst = max(summary["max_abs_err_s"].values())
    print("tracker: %d segments, max |timing error| %.3g s"
          % (summary["segment_count"], worst))
    if summary["diverged"]:
        print("tracker flagged numerical divergence at sample %s"
              % summary["diverged_at"], file=sys.stderr)
        return 3
    return 0


def _cmd_baseline(args) -> int:
    cfg = _load(args)
    summary = harness.run_baseline(cfg, args.indir, args.out)
    worst = max(summary["max_abs_err_s"].values())
    print("baseline: %d iterations, max |timing error| %.3g s"
          % (summary["iterations"], worst))
    return 0


def _cmd_compare(args) -> int:
    report = harness.compare_dirs(args.a, args.b, args.out,
                                  miss_threshold=args.threshold,
                                  window=args.window)
    for name, row in report["paths"].items():
        print("%-8s a: max %.3g mean %.3g misses %d | "
              "b: max %.3g mean %.3g misses %d"
              % (name, row["a_max_s"], row["a_mean_s"], row["a_misses"],
                 row["b_max_s"], row["b_mean_s"], row["b_misses"]))
    print("report written to %s" % args.out)
    return 0


def _cmd_demo(args) -> int:
    cfg = _load(args)
    if getattr(args, "duration", None) is None and args.config is None:
        cfg = dataclasses.replace(cfg, duration=0.1)
        cfg.validate()
    sim_dir = os.path.join(args.out, "sim")
    trk_dir = os.path.join(args.out, "tracker")
    bas_dir = os.path.join(args.out, "baseline")
    harness.run_simulation(cfg, sim_dir)
    code = 0
    summary = harness.run_tracker(cfg, sim_dir, trk_dir)
    print("tracker : %d segments, per-path max |err| %s"
          % (summary["segment_count"],
             {k: "%.3g" % v for k, v in summary["max_abs_err_s"].items()}))
    if summary["diverged"]:
        print("tracker flagged numerical divergence", file=sys.stderr)
        code = 3
    bsum = harness.run_baseline(cfg, sim_dir, bas_dir)
    print("baseline: per-path max |err| %s"
          % {k: "%.3g" % v for k, v in bsum["max_abs_err_s"].items()})
    harness.compare_dirs(trk_dir, bas_dir,
                         os.path.join(args.out, "compare.json"),
                         window=cfg.error_window)
    print("artifacts under %s" % args.out)
    return code


def _cmd_dump_signal(args) -> int:
    cfg = _load(args)
    sig = harness.build_signal(cfg)
    T = 1.0 / cfg.channel.sample_rate
    n = np.arange(cfg.n_samples)
    values = sig.eval_passband(n * T)
    with open(args.out, "w") as f:
        f.write("n,t_seconds,value\n")
        f.writelines("%d,%s,%s\n" % (i, repr(i * T), repr(float(v)))
                     for i, v in zip(n, values))
    print("wrote %d samples to %s" % (n.size, args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dopptrack",
                                description="Multipath Doppler tracking "
                                            "simulator and trackers")
    sub = p.add_subparsers(dest="command", required=True)

    def add_config(sp):
        sp.add_argument("--config", default=None, help="INI config file")
        sp.add_argument("--duration", type=float, default=None,
                        help="override run duration in seconds")

    sp = sub.add_parser("simulate", help="synthesize a received stream")
    add_config(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("track", help="run the Doppler tracker")
    add_config(sp)
    sp.add_argument("--in", dest="indir", required=True,
                    help="directory with received.csv and truth.csv")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=_cmd_track)

    sp = sub.add_parser("baseline", help="run the peak-tracking baseline")
    add_config(sp)
    sp.add_argument("--in", dest="indir", required=True,
                    help="directory with received.csv and truth.csv")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=_cmd_baseline)

    sp = sub.add_parser("compare", help="compare two error traces")
    sp.add_argument("--a", required=True, help="first output directory")
    sp.add_argument("--b", required=True, help="second output directory")
    sp.add_argument("--out", required=True, help="report file (JSON)")
    sp.add_argument("--threshold", type=float, default=5e-6,
                    help="sample-miss threshold in seconds")
    sp.add_argument("--window", type=int, default=1000,
                    help="block-average window for the plot CSV")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("demo", help="full pipeline at reduced duration")
    add_config(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=_cmd_demo)

    sp = sub.add_parser("dump-signal", help="dump sampled waveform to CSV")
    add_config(sp)
    sp.add_argument("--out", required=True, help="output CSV file")
    sp.set_defaults(func=_cmd_dump_signal)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except (BadInputError, InvalidSampleError) as exc:
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
