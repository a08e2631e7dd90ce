"""Scenario configuration, pipeline orchestration and evaluation.

Builds the simulated scene, runs the streaming tracker and the peak-tracking
baseline over it, and turns both into per-sample absolute timing-error traces
against the simulator's ground truth. README "Output files" lists the
artifacts and their columns; _write_csv frames every CSV, formatting a file
of at least two shares' rows in one forked process per usable CPU and
joining their shares in order, byte for byte as one process writes it.
"""

from __future__ import annotations

import configparser
import contextlib
import json
import math
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass, asdict, replace
from itertools import islice

import numpy as np

from . import fanout
from .csvformat import format_rows
from .channel import (PATHS, ChannelScene, Geometry, GroundTruth, MotionSpec,
                      path_lengths, sample_times, synthesize)
from .peak_tracking import PeakTracker
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
            DopplerTracker(sig, tracker_config(self, np.zeros(len(PATHS))))
            peak_tracker(self)
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


def _parse_optional_float(text: str):
    return None if text.strip() == "" else float(text)


# INI section/key -> (dataclass field path, parser); peak-to-peak motion keys
# are halved into amplitudes.
_CONFIG_KEYS = {
    ("signal", "symbol_rate_hz"): ("signal", "symbol_rate", float),
    ("signal", "carrier_freq_hz"): ("signal", "carrier_freq", float),
    ("signal", "amplitude"): ("signal", "amplitude", float),
    ("signal", "pulse_std_fraction"): ("signal", "pulse_std_fraction", float),
    ("signal", "pulse_halfwidth"): ("signal", "pulse_halfwidth", int),
    ("signal", "symbol_seed"): ("signal", "symbol_seed", int),
    ("geometry", "bottom_depth_m"): ("geometry", "bottom_depth", float),
    ("geometry", "tx_depth_m"): ("geometry", "tx_depth", float),
    ("geometry", "rx_depth_m"): ("geometry", "rx_depth", float),
    ("geometry", "horizontal_range_m"): ("geometry", "horizontal_range", float),
    ("geometry", "sound_speed_mps"): ("geometry", "sound_speed", float),
    ("motion", "rx_osc_freq_hz"): ("motion", "rx_osc_freq", float),
    ("motion", "rx_osc_pp_m"): ("motion", "rx_osc_amp", lambda s: 0.5 * float(s)),
    ("motion", "rx_osc_phase_rad"): ("motion", "rx_osc_phase", float),
    ("motion", "surface_freq_hz"): ("motion", "surface_freq", float),
    ("motion", "surface_pp_m"): ("motion", "surface_amp", lambda s: 0.5 * float(s)),
    ("motion", "surface_phase_rad"): ("motion", "surface_phase", float),
    ("channel", "gain_direct"): ("channel", "_gain0", float),
    ("channel", "gain_surface"): ("channel", "_gain1", float),
    ("channel", "gain_bottom"): ("channel", "_gain2", float),
    ("channel", "snr_db"): ("channel", "snr_db", float),
    ("channel", "noise_std"): ("channel", "noise_std", _parse_optional_float),
    ("channel", "sample_rate_hz"): ("channel", "sample_rate", float),
    ("channel", "noise_seed"): ("channel", "noise_seed", int),
    ("tracker", "penalty"): ("tracker", "penalty", float),
    ("tracker", "detect_threshold"): ("tracker", "detect_threshold", int),
    ("tracker", "keep_best"): ("tracker", "keep_best", int),
    ("tracker", "keep_recent"): ("tracker", "keep_recent", int),
    ("tracker", "perturbation"): ("tracker", "perturbation", float),
    ("tracker", "ridge"): ("tracker", "ridge", float),
    ("baseline", "template_ms"): ("baseline", "template_len", lambda s: 1e-3 * float(s)),
    ("baseline", "search_halfwidth"): ("baseline", "search_halfwidth", int),
    ("baseline", "hop"): ("baseline", "hop", int),
    ("run", "duration_s"): ("run", "duration", float),
}


def load_config(path: str) -> RunConfig:
    """Parse a UTF-8 INI config file, with or without a byte-order mark, on
    top of the defaults. A file that exists but cannot be opened or read
    raises its OSError; a key under [DEFAULT] is an unknown key, as
    sections do not inherit it. Values are parsed, not range-checked: the
    object each one sets checks it when the RunConfig is built."""
    if not os.path.isfile(path):
        raise ConfigError("config file not found: %s" % path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                       interpolation=None)
    with open(path, encoding="utf-8-sig") as f:
        try:
            parser.read_file(f)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError("cannot parse %s: %s" % (path, exc)) from exc
    base = default_config()
    changes = {}    # group -> {field: value}
    gains = list(base.channel.gains)
    for section in parser:     # [DEFAULT] first, then the file's sections
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
    rate = cfg.signal.symbol_rate
    n_symbols = int(math.ceil(cfg.duration * rate)) + 2
    lead = int(math.ceil(_max_path_delay(cfg) * rate)) \
        + cfg.signal.pulse_halfwidth + 1
    return make_qpsk_signal(n_symbols, lead, **vars(cfg.signal))


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
    time of sample 0: TrackerParams' fields are TrackerConfig's keyword
    arguments."""
    return TrackerConfig(**asdict(cfg.tracker),
                         gains=tuple(cfg.channel.gains),
                         initial_tau=tuple(initial_tau),
                         sample_period=1.0 / cfg.channel.sample_rate)


def peak_tracker(cfg: RunConfig) -> PeakTracker:
    """The run's baseline settings: BaselineParams' fields are PeakTracker's
    keyword arguments."""
    return PeakTracker(cfg.channel.sample_rate, **asdict(cfg.baseline))


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
    pk = peak_tracker(cfg)
    first = pk.template_samples
    if first >= r.size:   # the truth at sample first gives the start delays
        raise ConfigError("run too short for the baseline template")
    t = sample_times(r.size, cfg.channel.sample_rate)
    try:   # a run too short for the template and lag range
        n_grid, delays, flags = pk.run(r, sig.eval_passband(t),
                                       t[first] - truth.alpha[:, first])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    n_all = np.arange(n_grid[0], n_grid[-1] + 1)
    held = np.searchsorted(n_grid, n_all, side="right") - 1
    alpha_hat = t[n_all] - delays[:, held]
    trace = ErrorTrace(n=n_all,
                       abs_err=np.abs(alpha_hat - truth.alpha[:, n_all]))
    summary = {
        "tracker": "peak_tracking",
        "config": config_echo(cfg),
        "iterations": int(n_grid.size),
        "hop": pk.hop,
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


# Rows formatted per write call. numpy's per-call cost is spread over the
# block, and the block's working arrays grow with it: writing a truth.csv of
# 3 x 10^5 rows traced a peak of 0.66 MiB at 2 048 rows, 0.97 MiB at 3 072
# and 1.29 MiB at 4 096.
_BLOCK_ROWS = 2048


# The fewest rows a share of a CSV holds, so that a file splits from 24 576
# rows. On a 2-vCPU VM (medians of 9 alternating calls) a fork and its reap
# cost ~8-10 ms: "n,r" lines took 8.1, 18.9, 25.4 and 82.6 ms at 8 192,
# 20 000, 30 000 and 10^5 rows in one share and 16.2, 28.4, 34.3 and 95.2 ms
# in two, while the three-path files won with two shares from ~25 000 rows:
# truth.csv of 3 x 8 192 rows 29.0 ms in one and 23.0 ms in two,
# errors.csv 18.8 and 18.1 ms, delays.csv of 3 x 9 851 rows 27.4 and
# 20.7 ms, and truth.csv of 3 x 10^5 rows 365 and 224 ms.
_SHARE_ROWS = 12288


def _write_blocks(share) -> None:
    """For each (fmt, columns, lo) block of a (blocks, f) share, the bytes
    of the lines fmt % (columns[0][k], columns[1][k], ...), k over the at
    most _BLOCK_ROWS rows from lo, formatted by csvformat.format_rows and
    written to the binary file f in one call; no whole column is ever a
    list. f is flushed last, since a forked child leaves through os._exit,
    which flushes nothing."""
    blocks, f = share
    for fmt, columns, lo in blocks:
        f.write(format_rows(fmt, [c[lo:lo + _BLOCK_ROWS] for c in columns]))
    f.flush()


def _write_csv(path: str, header: str, parts) -> None:
    """The header line, then for each (fmt, columns) part the lines
    fmt % (columns[0][k], columns[1][k], ...), k over the columns' rows.

    The parts' blocks of at most _BLOCK_ROWS rows are split by
    fanout.split into contiguous shares of at least _SHARE_ROWS rows, one
    per usable CPU. This process writes the header and the first share
    while a forked child formats each later share into an anonymous spill
    file that this opens in the output's directory; the spills then follow
    in order, so the bytes do not depend on how many processes ran. Every
    child is reaped before this returns or raises; a child that fails
    raises OSError naming the file."""
    blocks = [(fmt, columns, lo) for fmt, columns in parts
              for lo in range(0, len(columns[0]), _BLOCK_ROWS)]
    rows = sum(len(columns[0]) for _, columns in parts)
    shares = fanout.split(blocks, rows, _SHARE_ROWS)
    spill_dir = os.path.dirname(os.path.abspath(path))
    with open(path, "wb") as f, contextlib.ExitStack() as stack:
        spills = [stack.enter_context(tempfile.TemporaryFile(dir=spill_dir))
                  for _ in shares[1:]]
        f.write(header.encode() + b"\n")
        fanout.fan_out(list(zip(shares, [f, *spills])), _write_blocks, path)
        for spill in spills:
            spill.seek(0)
            shutil.copyfileobj(spill, f)   # in 64 KiB reads


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
    def each(name):   # the segments' values, one per segment
        return np.array([getattr(seg, name) for seg in segments])

    def per_path(name):   # one row of the segments' values per path
        return np.array([getattr(seg, name) for seg in segments],
                        dtype=float).reshape(-1, len(PATHS)).T

    n, a, b, lse = range(len(segments)), each("a"), each("b"), each("lse")
    # one row per segment, which names each path in its own line
    _write_csv(path, "segment,path,a,b,d,tau_s,lse",
               [("".join("%d," + name + ",%d,%d,%r,%r,%r\n"
                         for name in PATHS),
                 [column for d, tau in zip(per_path("doppler"),
                                           per_path("tau"))
                  for column in (n, a, b, d, tau, lse)])])


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
    t = sample_times(cfg.n_samples, cfg.channel.sample_rate)
    values = build_signal(cfg).eval_passband(t)
    _write_csv(path, "n,t_seconds,value",
               [("%d,%r,%r\n", (range(t.size), t, values))])


def write_summary(path: str, summary: dict) -> None:
    """Write strict JSON, before the file is opened: a numpy scalar (a
    count a config holds as a numpy integer) is written as the Python number
    it holds, any other value json cannot write raises TypeError, and a
    non-finite float raises ValueError instead of being written as the
    non-JSON tokens NaN or Infinity."""
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False,
                      default=np.generic.item)
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
    late = (truth.alpha > sample_times(r.size, cfg.channel.sample_rate)).any(0)
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
