"""Scenario configuration, pipeline orchestration and evaluation.

Builds the simulated scene, runs the streaming tracker and the peak-tracking
baseline over it, and turns both into per-sample absolute timing-error traces
against the simulator's ground truth. All artifacts are plain CSV with
mandatory headers:

    received.csv   n,r
    truth.csv      n,path,alpha_s,doppler      (path-major blocks)
    segments.csv   segment,path,a,b,d,tau_s,lse
    errors.csv     n,path,abs_err_s            (path-major blocks)
    delays.csv     n,path,delay_seconds,flag   (baseline only)

Floats are written with repr so outputs are byte-identical across runs with
the same seeds.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from .channel import (PATHS, ChannelScene, Geometry, GroundTruth, MotionSpec,
                      path_length, synthesize)
from .peak_tracking import PeakTracker
from .signal_model import TransmitSignal, make_qpsk_signal
from .tracker import (DopplerTracker, TrackerConfig, reconstruct_warp_array)


class ConfigError(Exception):
    """Invalid or unparsable run configuration."""


class BadInputError(ValueError):
    """Input data the pipeline cannot use: an input CSV whose content does not
    parse or is laid out wrongly, or error traces that cannot be compared."""


@dataclass(frozen=True)
class SignalParams:
    # Amplitude calibrates the absolute residual scale against the segment
    # penalty: at 20 dB SNR the per-sample noise LSE must stay well below the
    # penalty or candidate segments profit from fitting noise. 0.25 keeps the
    # penalty ~70x the per-sample noise floor.
    symbol_rate: float = 20e3
    carrier_freq: float = 30e3
    amplitude: float = 0.25
    pulse_std_fraction: float = 0.25
    pulse_halfwidth: int = 4
    symbol_seed: int = 7


@dataclass(frozen=True)
class ChannelParams:
    gains: tuple[float, float, float] = (1.0, -0.8, 0.5)
    snr_db: float = 20.0
    noise_std: float | None = None   # overrides snr_db when set
    sample_rate: float = 200e3
    noise_seed: int = 1234


@dataclass(frozen=True)
class TrackerParams:
    penalty: float = 0.01
    detect_threshold: int = 50
    keep_best: int = 10
    keep_recent: int = 20
    perturbation: float = 1e-6
    ridge: float = 1e-4


@dataclass(frozen=True)
class BaselineParams:
    template_len: float = 3e-3
    search_halfwidth: int = 20
    hop: int = 10


@dataclass(frozen=True)
class RunConfig:
    signal: SignalParams
    geometry: Geometry
    motion: MotionSpec
    channel: ChannelParams
    tracker: TrackerParams
    baseline: BaselineParams
    duration: float = 0.5
    error_window: int = 1000

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.channel.sample_rate))

    def validate(self) -> None:
        if self.duration <= 0.0:
            raise ConfigError("duration must be positive")
        if self.n_samples < self.tracker.detect_threshold + 2:
            raise ConfigError("run too short for the detection threshold")
        nyq = 2.0 * (self.signal.carrier_freq + self.signal.symbol_rate)
        if self.channel.sample_rate <= nyq:
            raise ConfigError("sample_rate must exceed twice the carrier "
                              "plus signal bandwidth")
        if self.error_window < 1:
            raise ConfigError("error_window must be >= 1")
        t = self.tracker
        if t.penalty <= 0.0 or t.perturbation <= 0.0 or t.ridge <= 0.0:
            raise ConfigError("tracker penalty, perturbation and ridge must "
                              "be positive")
        if t.detect_threshold < 1 or t.keep_best < 1 or t.keep_recent < 1:
            raise ConfigError("tracker thresholds and memory sizes must be "
                              ">= 1")
        b = self.baseline
        if b.template_len <= 0.0:
            raise ConfigError("baseline template length must be positive")
        if b.search_halfwidth < 1 or b.hop < 1:
            raise ConfigError("baseline search_halfwidth and hop must be >= 1")
        if self.signal.amplitude <= 0.0 or self.signal.symbol_rate <= 0.0 \
                or self.signal.carrier_freq < 0.0:
            raise ConfigError("invalid signal parameters")
        if self.channel.noise_std is not None and self.channel.noise_std < 0.0:
            raise ConfigError("noise_std must be >= 0")


def default_config() -> RunConfig:
    """The standard wave-tank-style scenario all defaults are tuned for."""
    return RunConfig(
        signal=SignalParams(),
        geometry=Geometry(bottom_depth=1.8, tx_depth=0.46, rx_depth=0.46,
                          horizontal_range=1.45, sound_speed=1500.0),
        motion=MotionSpec(rx_osc_freq=0.6, rx_osc_amp=0.125,
                          rx_osc_phase=0.0, surface_freq=0.6,
                          surface_amp=0.165, surface_phase=0.0),
        channel=ChannelParams(),
        tracker=TrackerParams(),
        baseline=BaselineParams(),
        duration=0.5,
        error_window=1000,
    )


# INI section/key -> (dataclass field path, parser); peak-to-peak motion keys
# are halved into amplitudes.
_FLOAT = float
_INT = int


def _parse_optional_float(text: str):
    return None if text.strip() == "" else float(text)


_CONFIG_KEYS = {
    ("signal", "symbol_rate_hz"): ("signal", "symbol_rate", _FLOAT),
    ("signal", "carrier_freq_hz"): ("signal", "carrier_freq", _FLOAT),
    ("signal", "amplitude"): ("signal", "amplitude", _FLOAT),
    ("signal", "pulse_std_fraction"): ("signal", "pulse_std_fraction", _FLOAT),
    ("signal", "pulse_halfwidth"): ("signal", "pulse_halfwidth", _INT),
    ("signal", "symbol_seed"): ("signal", "symbol_seed", _INT),
    ("geometry", "bottom_depth_m"): ("geometry", "bottom_depth", _FLOAT),
    ("geometry", "tx_depth_m"): ("geometry", "tx_depth", _FLOAT),
    ("geometry", "rx_depth_m"): ("geometry", "rx_depth", _FLOAT),
    ("geometry", "horizontal_range_m"): ("geometry", "horizontal_range", _FLOAT),
    ("geometry", "sound_speed_mps"): ("geometry", "sound_speed", _FLOAT),
    ("motion", "rx_osc_freq_hz"): ("motion", "rx_osc_freq", _FLOAT),
    ("motion", "rx_osc_pp_m"): ("motion", "rx_osc_amp", lambda s: 0.5 * float(s)),
    ("motion", "rx_osc_phase_rad"): ("motion", "rx_osc_phase", _FLOAT),
    ("motion", "surface_freq_hz"): ("motion", "surface_freq", _FLOAT),
    ("motion", "surface_pp_m"): ("motion", "surface_amp", lambda s: 0.5 * float(s)),
    ("motion", "surface_phase_rad"): ("motion", "surface_phase", _FLOAT),
    ("channel", "gain_direct"): ("channel", "_gain0", _FLOAT),
    ("channel", "gain_surface"): ("channel", "_gain1", _FLOAT),
    ("channel", "gain_bottom"): ("channel", "_gain2", _FLOAT),
    ("channel", "snr_db"): ("channel", "snr_db", _FLOAT),
    ("channel", "noise_std"): ("channel", "noise_std", _parse_optional_float),
    ("channel", "sample_rate_hz"): ("channel", "sample_rate", _FLOAT),
    ("channel", "noise_seed"): ("channel", "noise_seed", _INT),
    ("tracker", "penalty"): ("tracker", "penalty", _FLOAT),
    ("tracker", "detect_threshold"): ("tracker", "detect_threshold", _INT),
    ("tracker", "keep_best"): ("tracker", "keep_best", _INT),
    ("tracker", "keep_recent"): ("tracker", "keep_recent", _INT),
    ("tracker", "perturbation"): ("tracker", "perturbation", _FLOAT),
    ("tracker", "ridge"): ("tracker", "ridge", _FLOAT),
    ("baseline", "template_ms"): ("baseline", "template_len", lambda s: 1e-3 * float(s)),
    ("baseline", "search_halfwidth"): ("baseline", "search_halfwidth", _INT),
    ("baseline", "hop"): ("baseline", "hop", _INT),
    ("run", "duration_s"): ("run", "duration", _FLOAT),
    ("run", "error_window"): ("run", "error_window", _INT),
}


def load_config(path: str) -> RunConfig:
    """Parse an INI config file on top of the defaults."""
    if not os.path.isfile(path):
        raise ConfigError("config file not found: %s" % path)
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc)) from exc
    base = default_config()
    fields = {
        "signal": dict(asdict(base.signal)),
        "geometry": dict(asdict(base.geometry)),
        "motion": dict(asdict(base.motion)),
        "channel": dict(asdict(base.channel)),
        "tracker": dict(asdict(base.tracker)),
        "baseline": dict(asdict(base.baseline)),
        "run": {"duration": base.duration, "error_window": base.error_window},
    }
    gains = list(base.channel.gains)
    for section in parser.sections():
        for key, raw in parser.items(section):
            spec = _CONFIG_KEYS.get((section, key))
            if spec is None:
                raise ConfigError("unknown config key [%s] %s" % (section, key))
            group, name, conv = spec
            try:
                value = conv(raw)
            except ValueError as exc:
                raise ConfigError("bad value for [%s] %s: %r"
                                  % (section, key, raw)) from exc
            if name.startswith("_gain"):
                gains[int(name[-1])] = value
            else:
                fields[group][name] = value
    fields["channel"]["gains"] = tuple(gains)
    try:
        cfg = RunConfig(
            signal=SignalParams(**fields["signal"]),
            geometry=Geometry(**fields["geometry"]),
            motion=MotionSpec(**fields["motion"]),
            channel=ChannelParams(**fields["channel"]),
            tracker=TrackerParams(**fields["tracker"]),
            baseline=BaselineParams(**fields["baseline"]),
            duration=fields["run"]["duration"],
            error_window=fields["run"]["error_window"],
        )
        cfg.validate()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _max_path_delay(cfg: RunConfig) -> float:
    probe = ChannelScene(geometry=cfg.geometry, motion=cfg.motion,
                         gains=cfg.channel.gains, noise_std=0.0,
                         sample_rate=cfg.channel.sample_rate)
    t = np.linspace(0.0, cfg.duration, 512)
    longest = max(float(np.max(path_length(probe, p, t))) for p in PATHS)
    return longest / cfg.geometry.sound_speed


def build_signal(cfg: RunConfig) -> TransmitSignal:
    """Waveform covering the run, with enough lead-in symbols before t = 0
    that every propagation-delayed evaluation stays inside the support."""
    n_symbols = int(math.ceil(cfg.duration * cfg.signal.symbol_rate)) + 2
    lead = int(math.ceil(_max_path_delay(cfg) * cfg.signal.symbol_rate)) \
        + cfg.signal.pulse_halfwidth + 1
    return make_qpsk_signal(n_symbols, cfg.signal.symbol_seed,
                            cfg.signal.symbol_rate, cfg.signal.carrier_freq,
                            cfg.signal.amplitude,
                            cfg.signal.pulse_std_fraction,
                            cfg.signal.pulse_halfwidth,
                            lead_symbols=lead)


def resolve_noise_std(cfg: RunConfig, sig: TransmitSignal) -> float:
    """Explicit noise_std wins; otherwise derive it from snr_db against the
    clean direct-path signal power."""
    if cfg.channel.noise_std is not None:
        return cfg.channel.noise_std
    probe = ChannelScene(geometry=cfg.geometry, motion=cfg.motion,
                         gains=(cfg.channel.gains[0], 0.0, 0.0),
                         noise_std=0.0, sample_rate=cfg.channel.sample_rate)
    clean, _ = synthesize(probe, sig, cfg.n_samples, noise_seed=0)
    power = float(np.mean(clean * clean))
    if power == 0.0:
        raise ConfigError("direct path carries no signal power")
    return math.sqrt(power / 10.0 ** (cfg.channel.snr_db / 10.0))


def build_scene(cfg: RunConfig, sig: TransmitSignal) -> ChannelScene:
    return ChannelScene(geometry=cfg.geometry, motion=cfg.motion,
                        gains=cfg.channel.gains,
                        noise_std=resolve_noise_std(cfg, sig),
                        sample_rate=cfg.channel.sample_rate)


def config_echo(cfg: RunConfig) -> dict:
    """JSON-ready dump of the full run configuration."""
    return {
        "signal": asdict(cfg.signal),
        "geometry": asdict(cfg.geometry),
        "motion": asdict(cfg.motion),
        "channel": asdict(cfg.channel),
        "tracker": asdict(cfg.tracker),
        "baseline": asdict(cfg.baseline),
        "duration_s": cfg.duration,
        "error_window": cfg.error_window,
    }


@dataclass
class ErrorTrace:
    """Per-path |reconstructed - true| emission times, in seconds."""

    n: np.ndarray         # sample indices covered, shape (N,)
    abs_err: np.ndarray   # shape (num_paths, N)

    def block_mean(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """Average the trace over consecutive index blocks of size window."""
        block = self.n // window
        starts = np.unique(block)
        means = np.empty((self.abs_err.shape[0], starts.size))
        for j, b in enumerate(starts):
            sel = block == b
            means[:, j] = self.abs_err[:, sel].mean(axis=1)
        return starts * window, means

    def max_per_path(self) -> np.ndarray:
        return self.abs_err.max(axis=1)


def simulate_stream(cfg: RunConfig):
    """In-memory simulation: (signal, scene, received, truth)."""
    cfg.validate()
    sig = build_signal(cfg)
    scene = build_scene(cfg, sig)
    r, truth = synthesize(scene, sig, cfg.n_samples, cfg.channel.noise_seed)
    return sig, scene, r, truth


def track_stream(cfg: RunConfig, sig: TransmitSignal, r: np.ndarray,
                 truth: GroundTruth):
    """Run the tracker over a received stream.

    Returns (segments, error trace, summary dict). Initial per-path delays
    and gains are taken as known: the warp of sample 0 comes from the truth.
    """
    t = cfg.tracker
    tcfg = TrackerConfig(penalty=t.penalty,
                         detect_threshold=t.detect_threshold,
                         keep_best=t.keep_best, keep_recent=t.keep_recent,
                         perturbation=t.perturbation,
                         gains=tuple(cfg.channel.gains),
                         initial_tau=tuple(truth.alpha[:, 0]),
                         sample_period=1.0 / cfg.channel.sample_rate,
                         ridge=t.ridge)
    tracker = DopplerTracker(sig, tcfg)
    for value in r:
        tracker.process_sample(float(value))
    tracker.finalize()
    n_samples = r.size
    warp_hat = reconstruct_warp_array(tracker.segments, tcfg.num_paths,
                                      n_samples, tcfg.sample_period)
    trace = ErrorTrace(n=np.arange(n_samples),
                       abs_err=np.abs(warp_hat - truth.alpha))
    warmup = 2 * t.detect_threshold
    final_lse = tracker.segments[-1].lse if tracker.segments else 0.0
    summary = {
        "tracker": "segmented_rls",
        "config": config_echo(cfg),
        "segment_count": len(tracker.segments),
        # an overflowed fit (only after divergence) is written as null
        "final_lse": final_lse if math.isfinite(final_lse) else None,
        "diverged": tracker.diverged,
        "diverged_at": tracker.diverged_at,
        "warmup_samples": warmup,
        "max_abs_err_s": {PATHS[i]: float(trace.abs_err[i].max())
                          for i in range(len(PATHS))},
        "max_abs_err_after_warmup_s": {
            PATHS[i]: float(trace.abs_err[i, warmup:].max())
            for i in range(len(PATHS))},
    }
    return tracker.segments, trace, summary


def baseline_stream(cfg: RunConfig, sig: TransmitSignal, r: np.ndarray,
                    truth: GroundTruth):
    """Run the peak-tracking baseline over a received stream.

    Returns (n_grid, delays, flags, error trace, summary). Delays are held
    between hops when forming the per-sample error trace.
    """
    b = cfg.baseline
    T = 1.0 / cfg.channel.sample_rate
    first = int(round(b.template_len * cfg.channel.sample_rate))
    if first >= r.size:
        raise ConfigError("run too short for the baseline template")
    init_delays = first * T - truth.alpha[:, first]
    pk = PeakTracker(sig, init_delays, cfg.channel.sample_rate,
                     template_len=b.template_len,
                     search_halfwidth=b.search_halfwidth, hop=b.hop)
    n_grid, delays, flags = pk.run(r)
    n_all = np.arange(n_grid[0], n_grid[-1] + 1)
    held = np.searchsorted(n_grid, n_all, side="right") - 1
    delay_per_sample = delays[:, held]
    alpha_hat = n_all * T - delay_per_sample
    trace = ErrorTrace(n=n_all,
                       abs_err=np.abs(alpha_hat - truth.alpha[:, n_all]))
    summary = {
        "tracker": "peak_tracking",
        "config": config_echo(cfg),
        "iterations": int(n_grid.size),
        "hop": b.hop,
        "no_peak_flags": int(flags.sum()),
        "max_abs_err_s": {PATHS[i]: float(trace.abs_err[i].max())
                          for i in range(len(PATHS))},
    }
    return n_grid, delays, flags, trace, summary


def compare(err_a: ErrorTrace, err_b: ErrorTrace,
            miss_threshold: float = 5e-6) -> dict:
    """Per-path max/mean table plus sample-miss counts for two traces."""
    if err_a.abs_err.shape[0] != err_b.abs_err.shape[0]:
        raise BadInputError("path count mismatch")
    common, ia, ib = np.intersect1d(err_a.n, err_b.n, return_indices=True)
    if common.size == 0:
        raise BadInputError("no overlapping samples to compare")
    report = {"miss_threshold_s": miss_threshold,
              "common_samples": int(common.size), "paths": {}}
    for i, name in enumerate(PATHS[:err_a.abs_err.shape[0]]):
        ea = err_a.abs_err[i, ia]
        eb = err_b.abs_err[i, ib]
        report["paths"][name] = {
            "a_max_s": float(ea.max()), "a_mean_s": float(ea.mean()),
            "a_misses": int((ea > miss_threshold).sum()),
            "b_max_s": float(eb.max()), "b_mean_s": float(eb.mean()),
            "b_misses": int((eb > miss_threshold).sum()),
            "delta_max_s": float(ea.max() - eb.max()),
            "delta_mean_s": float(ea.mean() - eb.mean()),
        }
    return report


# ---------------------------------------------------------------------------
# CSV artifacts


def _w(value) -> str:
    return repr(float(value))


def write_received(path: str, r: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("n,r\n")
        f.writelines("%d,%s\n" % (i, _w(v)) for i, v in enumerate(r))


def _read_csv(path: str, usecols=None) -> np.ndarray:
    """Numeric rows of a CSV below its header line; content that does not
    parse raises BadInputError, a file that cannot be opened OSError."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols,
                          ndmin=2)
    except ValueError as exc:
        raise BadInputError("%s: %s" % (path, exc)) from exc


def read_received(path: str) -> np.ndarray:
    return _read_csv(path, usecols=(0, 1))[:, 1]


def write_truth(path: str, truth: GroundTruth) -> None:
    n = truth.alpha.shape[1]
    with open(path, "w") as f:
        f.write("n,path,alpha_s,doppler\n")
        for i, name in enumerate(PATHS):
            f.writelines("%d,%s,%s,%s\n"
                         % (j, name, _w(truth.alpha[i, j]),
                            _w(truth.doppler[i, j]))
                         for j in range(n))


def read_truth(path: str) -> GroundTruth:
    data = _read_csv(path, usecols=(0, 2, 3))
    total = data.shape[0]
    if total % len(PATHS) != 0:
        raise BadInputError("truth file rows not divisible by path count")
    n = total // len(PATHS)
    idx = data[:, 0].astype(int)
    expected = np.tile(np.arange(n), len(PATHS))
    if not np.array_equal(idx, expected):
        raise BadInputError("truth file not in path-major sample order")
    alpha = data[:, 1].reshape(len(PATHS), n)
    doppler = data[:, 2].reshape(len(PATHS), n)
    return GroundTruth(alpha=alpha, doppler=doppler)


def write_segments(path: str, segments) -> None:
    with open(path, "w") as f:
        f.write("segment,path,a,b,d,tau_s,lse\n")
        for k, seg in enumerate(segments):
            for i, name in enumerate(PATHS[:seg.doppler.size]):
                f.write("%d,%s,%d,%d,%s,%s,%s\n"
                        % (k, name, seg.a, seg.b, _w(seg.doppler[i]),
                           _w(seg.tau[i]), _w(seg.lse)))


def write_errors(path: str, trace: ErrorTrace) -> None:
    with open(path, "w") as f:
        f.write("n,path,abs_err_s\n")
        for i, name in enumerate(PATHS[:trace.abs_err.shape[0]]):
            f.writelines("%d,%s,%s\n" % (j, name, _w(trace.abs_err[i, k]))
                         for k, j in enumerate(trace.n))


def read_errors(path: str) -> ErrorTrace:
    data = _read_csv(path, usecols=(0, 2))
    total = data.shape[0]
    if total % len(PATHS) != 0:
        raise BadInputError("errors file rows not divisible by path count")
    n = total // len(PATHS)
    idx = data[:, 0].astype(int)
    first = idx[:n]
    if not np.array_equal(idx, np.tile(first, len(PATHS))):
        raise BadInputError("errors file not in path-major sample order")
    return ErrorTrace(n=first, abs_err=data[:, 1].reshape(len(PATHS), n))


def write_delays(path: str, n_grid: np.ndarray, delays: np.ndarray,
                 flags: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("n,path,delay_seconds,flag\n")
        for i, name in enumerate(PATHS[:delays.shape[0]]):
            f.writelines("%d,%s,%s,%d\n"
                         % (n_grid[k], name, _w(delays[i, k]),
                            int(flags[i, k]))
                         for k in range(n_grid.size))


def write_summary(path: str, summary: dict) -> None:
    """Write strict JSON: a non-finite float raises instead of being written
    as the non-JSON tokens NaN or Infinity."""
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


# ---------------------------------------------------------------------------
# Directory-level pipeline entry points (used by the CLI)


def run_simulation(cfg: RunConfig, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    sig, scene, r, truth = simulate_stream(cfg)
    write_received(os.path.join(out_dir, "received.csv"), r)
    write_truth(os.path.join(out_dir, "truth.csv"), truth)
    return {"n_samples": int(r.size), "noise_std": scene.noise_std,
            "sample_rate_hz": cfg.channel.sample_rate}


def run_tracker(cfg: RunConfig, in_dir: str, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    r = read_received(os.path.join(in_dir, "received.csv"))
    truth = read_truth(os.path.join(in_dir, "truth.csv"))
    sig = build_signal(cfg)
    segments, trace, summary = track_stream(cfg, sig, r, truth)
    write_segments(os.path.join(out_dir, "segments.csv"), segments)
    write_errors(os.path.join(out_dir, "errors.csv"), trace)
    write_summary(os.path.join(out_dir, "summary.json"), summary)
    return summary


def run_baseline(cfg: RunConfig, in_dir: str, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    r = read_received(os.path.join(in_dir, "received.csv"))
    truth = read_truth(os.path.join(in_dir, "truth.csv"))
    sig = build_signal(cfg)
    n_grid, delays, flags, trace, summary = baseline_stream(cfg, sig, r, truth)
    write_delays(os.path.join(out_dir, "delays.csv"), n_grid, delays, flags)
    write_errors(os.path.join(out_dir, "errors.csv"), trace)
    write_summary(os.path.join(out_dir, "summary.json"), summary)
    return summary


def compare_dirs(a_dir: str, b_dir: str, out_file: str,
                 miss_threshold: float = 5e-6, window: int = 1000) -> dict:
    err_a = read_errors(os.path.join(a_dir, "errors.csv"))
    err_b = read_errors(os.path.join(b_dir, "errors.csv"))
    report = compare(err_a, err_b, miss_threshold)
    write_summary(out_file, report)
    # block-averaged long-format trace for plotting
    common, ia, ib = np.intersect1d(err_a.n, err_b.n, return_indices=True)
    sub_a = ErrorTrace(n=common, abs_err=err_a.abs_err[:, ia])
    sub_b = ErrorTrace(n=common, abs_err=err_b.abs_err[:, ib])
    plot_path = out_file + ".plot.csv"
    with open(plot_path, "w") as f:
        f.write("block_start_n,path,method,mean_abs_err_s\n")
        for label, sub in (("a", sub_a), ("b", sub_b)):
            starts, means = sub.block_mean(window)
            for i, name in enumerate(PATHS[:means.shape[0]]):
                f.writelines("%d,%s,%s,%s\n"
                             % (starts[k], name, label, _w(means[i, k]))
                             for k in range(starts.size))
    return report
