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
    <dump>.csv     n,t_seconds,value           (transmitted waveform)

Floats are written with repr so outputs are byte-identical across runs with
the same seeds. One writer frames every CSV: it formats a block of at most
_BLOCK_ROWS rows from Python values (.tolist() of the block's column slices)
and writes the block in one call, so a whole column is never a list.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import warnings
from dataclasses import dataclass, asdict, replace
from itertools import islice

import numpy as np

from .channel import (PATHS, ChannelScene, Geometry, GroundTruth, MotionSpec,
                      path_lengths, synthesize)
from .peak_tracking import PeakTracker, template_samples
from .signal_model import TransmitSignal, check_symbol_rate, make_qpsk_signal
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
    """A whole run's settings; building one (dataclasses.replace included)
    validates it, so every instance is valid or was never made."""

    signal: SignalParams
    geometry: Geometry
    motion: MotionSpec
    channel: ChannelParams
    tracker: TrackerParams
    baseline: BaselineParams
    duration: float = 0.5

    def __post_init__(self):
        self.validate()

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.channel.sample_rate))

    @property
    def warmup_samples(self) -> int:
        """Leading samples the tracker's error summary skips."""
        return 2 * self.tracker.detect_threshold

    def validate(self) -> None:
        """Build the scene, which checks the sample rate, then check the
        rules that span fields or that the harness applies, then build each
        other configured object once, so that every value a library
        constructor rejects is a ConfigError too. The signal is built after
        the Nyquist rule, which bounds its symbol count by the sample
        count."""
        zeros = np.zeros(len(PATHS))
        try:
            build_scene(self)
            if not 0.0 < self.duration < math.inf:
                raise ConfigError("duration must be positive and finite, "
                                  "got %r" % self.duration)
            # np.arange and the sample arrays index samples with np.intp
            if not self.duration * self.channel.sample_rate \
                    < np.iinfo(np.intp).max:
                raise ConfigError("run of %r s at %r Hz has too many samples"
                                  % (self.duration, self.channel.sample_rate))
            if self.n_samples <= self.warmup_samples:
                raise ConfigError("run of %d samples must be longer than the "
                                  "tracker warm-up of %d"
                                  % (self.n_samples, self.warmup_samples))
            nyq = 2.0 * (self.signal.carrier_freq
                         + check_symbol_rate(self.signal.symbol_rate))
            if self.channel.sample_rate <= nyq:
                raise ConfigError("sample_rate must exceed twice the carrier "
                                  "plus signal bandwidth")
            sig = build_signal(self)
            np.random.default_rng(self.channel.noise_seed)
            DopplerTracker(sig, tracker_config(self, zeros))
            peak_tracker(self, sig, zeros)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def default_config() -> RunConfig:
    """The standard wave-tank-style scenario all defaults are tuned for."""
    return RunConfig(
        signal=SignalParams(),
        geometry=Geometry(bottom_depth=1.8, tx_depth=0.46, rx_depth=0.46,
                          horizontal_range=1.45),
        motion=MotionSpec(rx_osc_freq=0.6, rx_osc_amp=0.125,
                          surface_freq=0.6, surface_amp=0.165),
        channel=ChannelParams(),
        tracker=TrackerParams(),
        baseline=BaselineParams(),
    )


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number: %r" % text)
    return value


def _parse_optional_float(text: str):
    return None if text.strip() == "" else _float(text)


# INI section/key -> (dataclass field path, parser); peak-to-peak motion keys
# are halved into amplitudes.
_CONFIG_KEYS = {
    ("signal", "symbol_rate_hz"): ("signal", "symbol_rate", _float),
    ("signal", "carrier_freq_hz"): ("signal", "carrier_freq", _float),
    ("signal", "amplitude"): ("signal", "amplitude", _float),
    ("signal", "pulse_std_fraction"): ("signal", "pulse_std_fraction", _float),
    ("signal", "pulse_halfwidth"): ("signal", "pulse_halfwidth", int),
    ("signal", "symbol_seed"): ("signal", "symbol_seed", int),
    ("geometry", "bottom_depth_m"): ("geometry", "bottom_depth", _float),
    ("geometry", "tx_depth_m"): ("geometry", "tx_depth", _float),
    ("geometry", "rx_depth_m"): ("geometry", "rx_depth", _float),
    ("geometry", "horizontal_range_m"): ("geometry", "horizontal_range", _float),
    ("geometry", "sound_speed_mps"): ("geometry", "sound_speed", _float),
    ("motion", "rx_osc_freq_hz"): ("motion", "rx_osc_freq", _float),
    ("motion", "rx_osc_pp_m"): ("motion", "rx_osc_amp", lambda s: 0.5 * _float(s)),
    ("motion", "rx_osc_phase_rad"): ("motion", "rx_osc_phase", _float),
    ("motion", "surface_freq_hz"): ("motion", "surface_freq", _float),
    ("motion", "surface_pp_m"): ("motion", "surface_amp", lambda s: 0.5 * _float(s)),
    ("motion", "surface_phase_rad"): ("motion", "surface_phase", _float),
    ("channel", "gain_direct"): ("channel", "_gain0", _float),
    ("channel", "gain_surface"): ("channel", "_gain1", _float),
    ("channel", "gain_bottom"): ("channel", "_gain2", _float),
    ("channel", "snr_db"): ("channel", "snr_db", _float),
    ("channel", "noise_std"): ("channel", "noise_std", _parse_optional_float),
    ("channel", "sample_rate_hz"): ("channel", "sample_rate", _float),
    ("channel", "noise_seed"): ("channel", "noise_seed", int),
    ("tracker", "penalty"): ("tracker", "penalty", _float),
    ("tracker", "detect_threshold"): ("tracker", "detect_threshold", int),
    ("tracker", "keep_best"): ("tracker", "keep_best", int),
    ("tracker", "keep_recent"): ("tracker", "keep_recent", int),
    ("tracker", "perturbation"): ("tracker", "perturbation", _float),
    ("tracker", "ridge"): ("tracker", "ridge", _float),
    ("baseline", "template_ms"): ("baseline", "template_len", lambda s: 1e-3 * _float(s)),
    ("baseline", "search_halfwidth"): ("baseline", "search_halfwidth", int),
    ("baseline", "hop"): ("baseline", "hop", int),
    ("run", "duration_s"): ("run", "duration", _float),
}


def load_config(path: str) -> RunConfig:
    """Parse a UTF-8 INI config file on top of the defaults."""
    if not os.path.isfile(path):
        raise ConfigError("config file not found: %s" % path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc)) from exc
    base = default_config()
    changes = {}    # group -> {field: value}
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
                name, value = "gains", tuple(gains)
            changes.setdefault(group, {})[name] = value
    run = changes.pop("run", {})
    try:
        return replace(base, **run, **{
            group: replace(getattr(base, group), **fields)
            for group, fields in changes.items()})
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _max_path_delay(cfg: RunConfig) -> float:
    """The longest path delay over the run in seconds, taken at 512 evenly
    spaced times. Of build_signal's pulse_halfwidth + 1 extra lead-in
    symbols, the last covers the delay's rise between two of those times
    (~1 us of a 50 us symbol on the default run). The bound sets the
    lead-in, so changing how it is taken moves every answer."""
    t = np.linspace(0.0, cfg.duration, 512)
    lengths = path_lengths(cfg.geometry, cfg.motion, t)
    return float(np.max(lengths)) / cfg.geometry.sound_speed


def build_signal(cfg: RunConfig) -> TransmitSignal:
    """Waveform covering the run, with enough lead-in symbols before t = 0
    that every propagation-delayed evaluation stays inside the support."""
    rate = check_symbol_rate(cfg.signal.symbol_rate)
    n_symbols = int(math.ceil(cfg.duration * rate)) + 2
    lead = int(math.ceil(_max_path_delay(cfg) * rate)) \
        + cfg.signal.pulse_halfwidth + 1
    return make_qpsk_signal(n_symbols, cfg.signal.symbol_seed, rate,
                            cfg.signal.carrier_freq, cfg.signal.amplitude,
                            cfg.signal.pulse_std_fraction,
                            cfg.signal.pulse_halfwidth, lead_symbols=lead)


def build_scene(cfg: RunConfig, sig=None) -> ChannelScene:
    """The run's channel scene, with the run's noise_std or, when that is
    None, its snr_db; synthesize resolves the level, so this evaluates
    nothing. sig is not read: the scene does not depend on the waveform, and
    callers that pass the run's signal may keep doing so."""
    c = cfg.channel
    return ChannelScene(cfg.geometry, cfg.motion, c.gains, c.noise_std,
                        c.sample_rate, c.snr_db)


def tracker_config(cfg: RunConfig, initial_tau) -> TrackerConfig:
    """The run's tracker settings, with initial_tau the per-path emission
    time of sample 0."""
    t = cfg.tracker
    return TrackerConfig(penalty=t.penalty,
                         detect_threshold=t.detect_threshold,
                         keep_best=t.keep_best, keep_recent=t.keep_recent,
                         perturbation=t.perturbation,
                         gains=tuple(cfg.channel.gains),
                         initial_tau=tuple(initial_tau),
                         sample_period=1.0 / cfg.channel.sample_rate,
                         ridge=t.ridge)


def peak_tracker(cfg: RunConfig, sig: TransmitSignal,
                 initial_delays) -> PeakTracker:
    """The run's baseline, with initial_delays the per-path delays of its
    first template."""
    b = cfg.baseline
    return PeakTracker(sig, initial_delays, cfg.channel.sample_rate,
                       template_len=b.template_len,
                       search_halfwidth=b.search_halfwidth, hop=b.hop)


def config_echo(cfg: RunConfig) -> dict:
    """JSON-ready dump of the full run configuration."""
    echo = asdict(cfg)
    echo["duration_s"] = echo.pop("duration")
    return echo


def _max_per_path(abs_err: np.ndarray) -> dict:
    """{path: largest error} over the rows of a (num_paths, N) array."""
    return {name: float(row.max()) for name, row in zip(PATHS, abs_err)}


@dataclass
class ErrorTrace:
    """Per-path |reconstructed - true| emission times, in seconds."""

    n: np.ndarray         # sample indices covered, shape (N,)
    abs_err: np.ndarray   # shape (num_paths, N)

    def block_mean(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """Average the trace over consecutive index blocks of size window.

        n must be sorted ascending, as `track_stream` and `_paired` give it,
        so each block is one contiguous slice. The slice is averaged as an
        F-ordered copy, so numpy sums each row in sequence, as it does over
        a boolean-mask selection, not pairwise.
        """
        block = self.n // window
        first = np.flatnonzero(np.diff(block, prepend=block[:1] - 1))
        ends = np.append(first[1:], block.size)
        means = np.empty((self.abs_err.shape[0], first.size))
        for j, (lo, hi) in enumerate(zip(first, ends)):
            block_err = np.asfortranarray(self.abs_err[:, lo:hi])
            means[:, j] = block_err.mean(axis=1)
        return block[first] * window, means


def simulate_stream(cfg: RunConfig):
    """In-memory simulation: (signal, scene, received, truth). The scene's
    noise_std is the level the noise was drawn at; ConfigError when the
    level is set from snr_db and the direct path carries no power, or when
    the received stream is not finite."""
    sig = build_signal(cfg)
    scene = build_scene(cfg)
    try:
        r, truth, noise_std = synthesize(scene, sig, cfg.n_samples,
                                         cfg.channel.noise_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return sig, replace(scene, noise_std=noise_std), r, truth


def track_stream(cfg: RunConfig, sig: TransmitSignal, r: np.ndarray,
                 truth: GroundTruth):
    """Run the tracker over a received stream.

    Returns (segments, error trace, summary dict). Initial per-path delays
    and gains are taken as known: the warp of sample 0 comes from the truth.
    """
    tcfg = tracker_config(cfg, truth.alpha[:, 0])
    tracker = DopplerTracker(sig, tcfg)
    for value in r:
        tracker.process_sample(float(value))
    tracker.finalize()
    n_samples = r.size
    warp_hat = reconstruct_warp_array(tracker.segments, tcfg.num_paths,
                                      n_samples, tcfg.sample_period)
    trace = ErrorTrace(n=np.arange(n_samples),
                       abs_err=np.abs(warp_hat - truth.alpha))
    warmup = cfg.warmup_samples
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
        "max_abs_err_s": _max_per_path(trace.abs_err),
        "max_abs_err_after_warmup_s": _max_per_path(trace.abs_err[:, warmup:]),
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
    first = template_samples(b.template_len, cfg.channel.sample_rate)
    if first >= r.size:   # the truth at sample first gives the start delays
        raise ConfigError("run too short for the baseline template")
    pk = peak_tracker(cfg, sig, first * T - truth.alpha[:, first])
    try:   # a run too short for the template and lag range
        n_grid, delays, flags = pk.run(r)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
        "max_abs_err_s": _max_per_path(trace.abs_err),
    }
    return n_grid, delays, flags, trace, summary


def _paired(err_a: ErrorTrace, err_b: ErrorTrace):
    """Both traces cut to the samples they share; BadInputError when they
    differ in path count or share no sample. Traces that list the same
    ascending samples are returned as they are, without copies."""
    if err_a.abs_err.shape[0] != err_b.abs_err.shape[0]:
        raise BadInputError("path count mismatch")
    n = err_a.n
    if np.array_equal(n, err_b.n) and np.all(n[1:] > n[:-1]):
        common, ia, ib = n, slice(None), slice(None)
    else:
        common, ia, ib = np.intersect1d(n, err_b.n, return_indices=True)
    if common.size == 0:
        raise BadInputError("no overlapping samples to compare")
    return (ErrorTrace(n=common, abs_err=err_a.abs_err[:, ia]),
            ErrorTrace(n=common, abs_err=err_b.abs_err[:, ib]))


# compare's default: an error above this many seconds is a sample miss
_MISS_THRESHOLD_S = 5e-6


def compare(err_a: ErrorTrace, err_b: ErrorTrace,
            miss_threshold: float = _MISS_THRESHOLD_S) -> dict:
    """Per-path max/mean table plus sample-miss counts for two traces."""
    sub_a, sub_b = _paired(err_a, err_b)
    report = {"miss_threshold_s": miss_threshold,
              "common_samples": int(sub_a.n.size), "paths": {}}
    for name, ea, eb in zip(PATHS, sub_a.abs_err, sub_b.abs_err):
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


# Rows formatted per write call. Write time is flat from 64 to 1 024 rows
# (float repr dominates); larger blocks leave more freed string memory in the
# heap and raise the pipeline's peak RSS, by ~1 MiB at 4 096 rows.
_BLOCK_ROWS = 256


def _write_csv(path: str, header: str, parts) -> None:
    """The header line, then for each (fmt, columns) part the lines
    fmt % (columns[0][k], columns[1][k], ...), k over the columns' rows.

    Each block of at most _BLOCK_ROWS rows is sliced from every column,
    converted with .tolist(), so floats are Python floats that %r writes
    with repr, and written in one call; no whole column is ever a list."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for fmt, columns in parts:
            for lo in range(0, len(columns[0]), _BLOCK_ROWS):
                block = [np.asarray(c[lo:lo + _BLOCK_ROWS]).tolist()
                         for c in columns]
                f.write("".join(map(fmt.__mod__, zip(*block))))


def _path_major(fmt: str, n, *columns):
    """Parts of the lines n[k],path,<fmt % (column[i, k], ...)>: one block
    of len(n) lines per path i, for each row of the (num_paths, len(n))
    columns."""
    return [("%d," + name + "," + fmt, (n, *values))
            for name, *values in zip(PATHS, *columns)]


def _is_data(line: str) -> bool:
    """Whether np.loadtxt reads a line of a file as data: it skips an empty
    line and a '#' comment line."""
    return line[0] not in "#\n"


def _read_csv(path: str, usecols) -> np.ndarray:
    """Numeric rows of a CSV below its header line; content that does not
    parse or a used value that is not finite raises BadInputError, a file
    that cannot be opened OSError."""
    try:
        with warnings.catch_warnings():
            # a header-only file is an empty array here; callers judge it
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1,
                              usecols=usecols, ndmin=2)
    except ValueError as exc:
        raise BadInputError("%s: %s" % (path, exc)) from exc
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        # the data rows' line numbers, below the header line
        with open(path) as f:
            lines = [k for k, line in enumerate(f, start=1)
                     if k > 1 and _is_data(line)]
        raise BadInputError("%s: line %d holds a value that is not finite"
                            % (path, lines[np.argmin(finite)]))
    return data


def _read_blocks(path: str, usecols) -> tuple[np.ndarray, np.ndarray]:
    """A path-major CSV whose first used column is the sample index:
    (n, values), n the integer samples that every path's block lists and
    values the other used columns, shape (len(usecols) - 1, num_paths,
    len(n)); BadInputError when an index is not an integer, the blocks
    differ or a block's first row does not name its path. Both are copies,
    so they keep no parsed row alive."""
    data = _read_csv(path, usecols)
    if data.shape[0] % len(PATHS) != 0:
        raise BadInputError("%s: rows not divisible by path count" % path)
    blocks = data.reshape(len(PATHS), data.shape[0] // len(PATHS),
                          data.shape[1])
    if blocks.shape[1]:   # a header-only file has no block to name
        _check_block_names(path, blocks.shape[1])
    n = blocks[:, :, 0]
    # checked before the cast, which is undefined for a float past int64
    if not ((np.abs(n) < 2.0 ** 63) & (np.trunc(n) == n)).all():
        raise BadInputError("%s: a sample index is not an integer below "
                            "2**63 in magnitude" % path)
    if not (n == n[0]).all():
        raise BadInputError("%s: path blocks list different samples" % path)
    return n[0].astype(int), np.moveaxis(blocks[:, :, 1:], 2, 0).copy()


def _check_block_names(path: str, rows: int) -> None:
    """BadInputError unless the first data line of the i-th block of rows
    data lines names PATHS[i]. The lines are picked by position first, which
    finds them when no line is skipped and costs about half as much as
    testing every line; when those picks do not name the paths in order, a
    scan of the data lines decides."""
    for data_only in (False, True):
        with open(path) as f:
            next(f)
            lines = filter(_is_data, f) if data_only else f
            heads = islice(lines, 0, (len(PATHS) - 1) * rows + 1, rows)
            if [line.split(",", 2)[1:2] for line in heads] \
                    == [[name] for name in PATHS]:
                return
    raise BadInputError("%s: path blocks are not in the order %s"
                        % (path, ", ".join(PATHS)))


def write_received(path: str, r: np.ndarray) -> None:
    _write_csv(path, "n,r", [("%d,%r\n", (range(len(r)), r))])


def _check_numbered(path: str, n: np.ndarray) -> None:
    """BadInputError unless the samples n are numbered 0..len(n)-1 in
    order."""
    if not np.array_equal(n, np.arange(n.size)):
        raise BadInputError("%s: samples not numbered from 0 in order" % path)


def read_received(path: str) -> np.ndarray:
    data = _read_csv(path, usecols=(0, 1))
    _check_numbered(path, data[:, 0])
    return data[:, 1].copy()


def write_truth(path: str, truth: GroundTruth) -> None:
    _write_csv(path, "n,path,alpha_s,doppler",
               _path_major("%r,%r\n", range(truth.alpha.shape[1]),
                           truth.alpha, truth.doppler))


def read_truth(path: str) -> GroundTruth:
    n, (alpha, doppler) = _read_blocks(path, usecols=(0, 2, 3))
    _check_numbered(path, n)
    return GroundTruth(alpha=alpha, doppler=doppler)


def write_segments(path: str, segments) -> None:
    """One line per segment and path, segment-major: each segment's own
    columns are repeated over its paths."""
    m = len(PATHS)
    _write_csv(path, "segment,path,a,b,d,tau_s,lse",
               [("%d,%s,%d,%d,%r,%r,%r\n",
                 ([k] * m, PATHS, [seg.a] * m, [seg.b] * m, seg.doppler,
                  seg.tau, [seg.lse] * m))
                for k, seg in enumerate(segments)])


def write_errors(path: str, trace: ErrorTrace) -> None:
    _write_csv(path, "n,path,abs_err_s",
               _path_major("%r\n", trace.n, trace.abs_err))


def read_errors(path: str) -> ErrorTrace:
    n, (abs_err,) = _read_blocks(path, usecols=(0, 2))
    return ErrorTrace(n=n, abs_err=abs_err)


def write_delays(path: str, n_grid: np.ndarray, delays: np.ndarray,
                 flags: np.ndarray) -> None:
    _write_csv(path, "n,path,delay_seconds,flag",
               _path_major("%r,%d\n", n_grid, delays, flags))


def dump_signal(cfg: RunConfig, path: str) -> None:
    """The transmitted waveform at the run's sample times, as CSV."""
    t = np.arange(cfg.n_samples) * (1.0 / cfg.channel.sample_rate)
    values = build_signal(cfg).eval_passband(t)
    _write_csv(path, "n,t_seconds,value",
               [("%d,%r,%r\n", (range(t.size), t, values))])


def write_summary(path: str, summary: dict) -> None:
    """Write strict JSON: a non-finite float raises instead of being written
    as the non-JSON tokens NaN or Infinity, before the file is opened."""
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as f:
        f.write(text + "\n")


# ---------------------------------------------------------------------------
# Directory-level pipeline entry points (used by the CLI)


def run_simulation(cfg: RunConfig, out_dir: str) -> dict:
    sig, scene, r, truth = simulate_stream(cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_received(os.path.join(out_dir, "received.csv"), r)
    write_truth(os.path.join(out_dir, "truth.csv"), truth)
    return {"n_samples": int(r.size), "noise_std": scene.noise_std}


def _read_inputs(cfg: RunConfig, in_dir: str
                 ) -> tuple[TransmitSignal, np.ndarray, GroundTruth]:
    """(signal, received stream, truth): the configured run's waveform, and
    received.csv and truth.csv of one simulation; BadInputError unless both
    CSVs hold the configured run's n_samples samples and no truth warp is
    later than its sample's reception time (a negative path delay)."""
    r = read_received(os.path.join(in_dir, "received.csv"))
    truth = read_truth(os.path.join(in_dir, "truth.csv"))
    if not r.size == truth.alpha.shape[1] == cfg.n_samples:
        raise BadInputError("received.csv holds %d samples, truth.csv %d; "
                            "the configured run needs %d"
                            % (r.size, truth.alpha.shape[1], cfg.n_samples))
    # the reception times as the simulator takes them, bit for bit
    t = np.arange(r.size) * (1.0 / cfg.channel.sample_rate)
    late = (truth.alpha > t).any(0)
    if late.any():
        raise BadInputError("truth.csv: the warp of sample %d is later than "
                            "its reception time" % np.argmax(late))
    return build_signal(cfg), r, truth


def run_tracker(cfg: RunConfig, in_dir: str, out_dir: str) -> dict:
    sig, r, truth = _read_inputs(cfg, in_dir)
    segments, trace, summary = track_stream(cfg, sig, r, truth)
    os.makedirs(out_dir, exist_ok=True)
    write_segments(os.path.join(out_dir, "segments.csv"), segments)
    write_errors(os.path.join(out_dir, "errors.csv"), trace)
    write_summary(os.path.join(out_dir, "summary.json"), summary)
    return summary


def run_baseline(cfg: RunConfig, in_dir: str, out_dir: str) -> dict:
    sig, r, truth = _read_inputs(cfg, in_dir)
    n_grid, delays, flags, trace, summary = baseline_stream(cfg, sig, r, truth)
    os.makedirs(out_dir, exist_ok=True)
    write_delays(os.path.join(out_dir, "delays.csv"), n_grid, delays, flags)
    write_errors(os.path.join(out_dir, "errors.csv"), trace)
    write_summary(os.path.join(out_dir, "summary.json"), summary)
    return summary


def compare_dirs(a_dir: str, b_dir: str, out_file: str,
                 miss_threshold: float = _MISS_THRESHOLD_S,
                 window: int = 1000) -> dict:
    if window < 1:
        raise ConfigError("window must be >= 1, got %r" % window)
    if not 0.0 <= miss_threshold < math.inf:
        raise ConfigError("threshold must be non-negative and finite, got %r"
                          % miss_threshold)
    err_a = read_errors(os.path.join(a_dir, "errors.csv"))
    err_b = read_errors(os.path.join(b_dir, "errors.csv"))
    # paired once: compare takes traces that share their samples as they are
    paired = _paired(err_a, err_b)
    report = compare(*paired, miss_threshold)
    write_summary(out_file, report)
    # block-averaged long-format trace for plotting
    _write_csv(out_file + ".plot.csv",
               "block_start_n,path,method,mean_abs_err_s",
               [part for label, sub in zip("ab", paired)
                for part in _path_major(label + ",%r\n",
                                        *sub.block_mean(window))])
    return report
