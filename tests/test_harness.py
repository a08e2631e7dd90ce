import dataclasses
import json
import math
import os
import tracemalloc
from itertools import repeat

import numpy as np
import pytest

from dopptrack import cli, harness, signal_model
from dopptrack.channel import PATHS, ChannelScene, GroundTruth, synthesize
from dopptrack.harness import ConfigError
from dopptrack.signal_model import TransmitSignal
from dopptrack.tracker import DopplerSegment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def short_config(duration=0.02, **channel_kw):
    cfg = harness.default_config()
    channel = dataclasses.replace(cfg.channel, **channel_kw) \
        if channel_kw else cfg.channel
    return dataclasses.replace(cfg, duration=duration, channel=channel)


def static_config(duration=0.02):
    cfg = short_config(duration, noise_std=0.0)
    return dataclasses.replace(cfg, motion=harness.MotionSpec())


def count_passband_calls(monkeypatch) -> list:
    """The time counts of every later TransmitSignal.eval_passband call."""
    calls = []
    original = TransmitSignal.eval_passband

    def counted(self, t):
        calls.append(t.size)
        return original(self, t)

    monkeypatch.setattr(TransmitSignal, "eval_passband", counted)
    return calls


class TestConfig:
    def test_defaults_are_tank_scenario(self):
        cfg = harness.default_config()
        assert cfg.channel.sample_rate == 200e3
        assert cfg.signal.carrier_freq == 30e3
        assert cfg.signal.symbol_rate == 20e3
        assert cfg.geometry.bottom_depth == 1.8
        assert cfg.geometry.tx_depth == 0.46
        assert cfg.geometry.horizontal_range == 1.45
        assert cfg.motion.rx_osc_amp == pytest.approx(0.125)   # 0.25 m p-p
        assert cfg.motion.surface_amp == pytest.approx(0.165)  # 0.33 m p-p
        assert cfg.channel.gains == (1.0, -0.8, 0.5)
        assert cfg.tracker.penalty == 0.01
        assert cfg.tracker.detect_threshold == 50
        assert cfg.tracker.keep_best == 10
        assert cfg.tracker.keep_recent == 20
        assert cfg.tracker.perturbation == 1e-6
        assert cfg.baseline.template_len == pytest.approx(3e-3)

    def test_ini_roundtrip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nduration_s = 0.05\n"
            "[motion]\nrx_osc_pp_m = 0.5\n"
            "[channel]\nsnr_db = 14\ngain_surface = -0.6\nnoise_seed = 55\n"
            "[tracker]\npenalty = 0.02\n"
            "[baseline]\ntemplate_ms = 2.0\n")
        cfg = harness.load_config(str(path))
        assert cfg.duration == 0.05
        assert cfg.motion.rx_osc_amp == pytest.approx(0.25)
        assert cfg.channel.snr_db == 14
        assert cfg.channel.gains == (1.0, -0.6, 0.5)
        assert cfg.channel.noise_seed == 55
        assert cfg.tracker.penalty == 0.02
        assert cfg.baseline.template_len == pytest.approx(2e-3)

    def test_readme_config_block_is_the_default(self, tmp_path):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
            readme = f.read()
        path = tmp_path / "run.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        assert harness.load_config(str(path)) == harness.default_config()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[tracker]\npenalti = 0.02\n")
        with pytest.raises(ConfigError):
            harness.load_config(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[tracker]\npenalty = abc\n")
        with pytest.raises(ConfigError):
            harness.load_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            harness.load_config("/nonexistent/run.ini")

    # 20 samples are below the detection threshold of 50; 60 are above it
    # but within the 100-sample warm-up the error summary skips
    @pytest.mark.parametrize("duration", [1e-4, 3e-4])
    def test_validation_short_run(self, duration):
        cfg = harness.default_config()
        with pytest.raises(ConfigError, match="warm-up"):
            dataclasses.replace(cfg, duration=duration)

    def test_validation_undersampled(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[channel]\nsample_rate_hz = 60000\n")
        with pytest.raises(ConfigError):
            harness.load_config(str(path))

    # the lead-in is ceil(longest delay * symbol rate) + pulse_halfwidth + 1
    # = 42 + 4 + 1 symbols; integers, not the bound's bits, which numpy's
    # per-CPU sin and hypot kernels may move in the last place
    def test_default_lead_in(self, monkeypatch):
        cfg = harness.default_config()
        counts = []
        generate = signal_model.generate_symbols

        def counted(count, seed):
            counts.append(count)
            return generate(count, seed)

        monkeypatch.setattr(signal_model, "generate_symbols", counted)
        sig = harness.build_signal(cfg)
        assert counts == [10049]
        assert sig.start_time == -47 / cfg.signal.symbol_rate

    # the level the stream's noise was drawn at: simulate_stream's scene
    @staticmethod
    def noise_level(cfg):
        return harness.simulate_stream(cfg)[1].noise_std

    def test_noise_std_override(self):
        cfg = short_config(noise_std=0.0)
        assert self.noise_level(cfg) == 0.0

    def test_snr_sets_noise(self):
        cfg = short_config()
        std = self.noise_level(cfg)
        probe = dataclasses.replace(cfg, channel=dataclasses.replace(
            cfg.channel, gains=(cfg.channel.gains[0], 0.0, 0.0),
            noise_std=0.0))
        _, _, clean, _ = harness.simulate_stream(probe)
        snr = 10 * np.log10(np.mean(clean ** 2) / std ** 2)
        assert snr == pytest.approx(20.0, abs=0.01)

    @staticmethod
    def synthesized_noise_std(cfg, sig):
        # the probe as a direct-path-only synthesize run, noise-free
        probe = ChannelScene(geometry=cfg.geometry, motion=cfg.motion,
                             gains=(cfg.channel.gains[0], 0.0, 0.0),
                             noise_std=0.0,
                             sample_rate=cfg.channel.sample_rate)
        clean, _, _ = synthesize(probe, sig, cfg.n_samples, noise_seed=0)
        power = float(np.mean(clean * clean))
        return math.sqrt(power / 10.0 ** (cfg.channel.snr_db / 10.0))

    @pytest.mark.parametrize("duration, gain, snr_db", [
        (0.5, 1.0, 20.0),       # the default run
        (0.02, -0.7, 20.0),
        (0.02, 1.0, 7.5),
        (0.0123, 0.3, 31.0),
    ])
    def test_noise_probe_matches_synthesized_probe(self, duration, gain,
                                                   snr_db):
        cfg = harness.default_config()
        gains = (gain,) + cfg.channel.gains[1:]
        cfg = dataclasses.replace(cfg, duration=duration, channel=(
            dataclasses.replace(cfg.channel, gains=gains, snr_db=snr_db)))
        sig = harness.build_signal(cfg)
        std = self.noise_level(cfg)
        assert std.hex() == self.synthesized_noise_std(cfg, sig).hex()

    def test_silent_direct_path_is_config_error(self, tmp_path, capsys):
        cfg = short_config(gains=(0.0, -0.8, 0.5))
        with pytest.raises(ConfigError, match="no signal power"):
            harness.simulate_stream(cfg)
        ini = tmp_path / "silent.ini"
        ini.write_text("[channel]\ngain_direct = 0\n")
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(ini), "--duration",
                         "0.005", "--out", str(out)]) == 1
        assert "no signal power" in capsys.readouterr().err
        assert not out.exists()

    # the scene carries the noise setting; synthesize resolves it, so the
    # scene's construction evaluates no waveform and a simulation evaluates
    # each path with a nonzero gain once, at every sample
    def test_build_scene_evaluates_no_waveform(self, monkeypatch):
        cfg = harness.default_config()
        sig = harness.build_signal(cfg)
        calls = count_passband_calls(monkeypatch)
        scene = harness.build_scene(cfg, sig)
        assert calls == []
        assert scene.noise_std is None and scene.snr_db == cfg.channel.snr_db

    @pytest.mark.parametrize("gains", [(1.0, -0.8, 0.5), (1.0, 0.0, 0.5),
                                       (-0.3, 0.0, 0.0)])
    def test_one_passband_call_per_sounding_path(self, monkeypatch, gains):
        cfg = short_config(gains=gains)
        calls = count_passband_calls(monkeypatch)
        harness.simulate_stream(cfg)
        assert calls == [cfg.n_samples] * np.count_nonzero(gains)

    # a NaN noise level once simulated a noiseless stream, and NaN or inf
    # geometry or motion poisoned the warp. The RunConfig checks the other
    # groups, itself or by building the signal, scene and trackers once, and
    # a sample rate before it rounds a sample count; the geometry and motion
    # groups check themselves on construction, and load_config turns their
    # ValueError into ConfigError.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("group, field", [
        ("channel", "noise_std"), ("channel", "snr_db"),
        ("channel", "sample_rate"),
        ("signal", "amplitude"), ("signal", "pulse_std_fraction"),
        ("signal", "carrier_freq"), ("baseline", "template_len"),
        ("geometry", "bottom_depth"), ("geometry", "horizontal_range"),
        ("geometry", "sound_speed"),
        ("motion", "rx_osc_amp"), ("motion", "surface_amp"),
        ("motion", "rx_osc_freq"), ("motion", "surface_phase"),
    ])
    def test_non_finite_scene_setting_rejected(self, group, field, value):
        cfg = harness.default_config()
        expected = ValueError if group in ("geometry", "motion") \
            else ConfigError
        with pytest.raises(expected):
            dataclasses.replace(cfg, **{group: dataclasses.replace(
                getattr(cfg, group), **{field: value})})

    # the scene states the sample-rate rule; the RunConfig builds the scene
    # before any rule of its own and maps its ValueError
    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan])
    def test_sample_rate_checked_by_scene(self, rate):
        cfg = harness.default_config()
        with pytest.raises(ConfigError, match="sample_rate must be positive "
                           "and finite") as info:
            dataclasses.replace(cfg, channel=dataclasses.replace(
                cfg.channel, sample_rate=rate))
        cause = info.value.__cause__
        assert isinstance(cause, ValueError)
        tb = cause.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        assert tb.tb_frame.f_code.co_filename.endswith("channel.py")
        assert tb.tb_frame.f_code.co_name == "__post_init__"

    # the symbol rate is checked before build_signal or the Nyquist rule
    # does arithmetic on it, so the message names it
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_symbol_rate_named_in_its_error(self, rate):
        cfg = harness.default_config()
        with pytest.raises(ConfigError, match="symbol_rate"):
            dataclasses.replace(cfg, signal=dataclasses.replace(
                cfg.signal, symbol_rate=rate))


class TestSimulationArtifacts:
    def test_row_counts_and_headers(self, tmp_path):
        cfg = short_config(duration=0.01)
        out = str(tmp_path / "sim")
        info = harness.run_simulation(cfg, out)
        assert info["n_samples"] == 2000
        received = (tmp_path / "sim" / "received.csv").read_text().splitlines()
        assert received[0] == "n,r"
        assert len(received) == 1 + 2000
        truth = (tmp_path / "sim" / "truth.csv").read_text().splitlines()
        assert truth[0] == "n,path,alpha_s,doppler"
        assert len(truth) == 1 + 3 * 2000

    def test_byte_identical_reruns(self, tmp_path):
        cfg = short_config(duration=0.01)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        harness.run_simulation(cfg, a)
        harness.run_simulation(cfg, b)
        for name in ("received.csv", "truth.csv"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_roundtrip_received_truth(self, tmp_path):
        cfg = short_config(duration=0.01)
        sig, scene, r, truth = harness.simulate_stream(cfg)
        harness.write_received(str(tmp_path / "received.csv"), r)
        harness.write_truth(str(tmp_path / "truth.csv"), truth)
        r2 = harness.read_received(str(tmp_path / "received.csv"))
        t2 = harness.read_truth(str(tmp_path / "truth.csv"))
        np.testing.assert_array_equal(r, r2)
        np.testing.assert_array_equal(truth.alpha, t2.alpha)
        np.testing.assert_array_equal(truth.doppler, t2.doppler)

    # a reader returns copies: the arrays at the end of its results' .base
    # chains hold no more bytes than the results, so the parsed rows, index
    # column included, do not stay alive with them
    def test_read_back_holds_only_what_it_returns(self, tmp_path):
        cfg = short_config(duration=0.01)
        _, _, r, truth = harness.simulate_stream(cfg)
        trace = harness.ErrorTrace(n=np.arange(r.size),
                                   abs_err=np.abs(truth.alpha))
        received, truth_csv, errors = (str(tmp_path / name) for name in (
            "received.csv", "truth.csv", "errors.csv"))
        harness.write_received(received, r)
        harness.write_truth(truth_csv, truth)
        harness.write_errors(errors, trace)
        for returned in ([harness.read_received(received)],
                         vars(harness.read_truth(truth_csv)).values(),
                         vars(harness.read_errors(errors)).values()):
            owners = {}
            for array in returned:
                owner = array
                while owner.base is not None:
                    owner = owner.base
                owners[id(owner)] = owner.nbytes
            assert sum(owners.values()) <= sum(a.nbytes for a in returned)

    # (reader, file, (n, path) of each row): every row list breaks the
    # path-major block layout that both readers require
    @pytest.mark.parametrize("read, name, rows, match", [
        (harness.read_truth, "truth.csv",
         [(n, p) for p in ("direct", "surface", "bottom") for n in (1, 2)],
         "not numbered from 0"),
        (harness.read_errors, "errors.csv",
         [(n, p) for p in ("direct", "surface") for n in (0, 1)],
         "not divisible"),
        (harness.read_errors, "errors.csv",
         [(0, "direct"), (1, "direct"), (0, "surface"), (1, "surface"),
          (0, "bottom"), (2, "bottom")],
         "different samples"),
        # an index that is not an integer, in one block or in all three
        (harness.read_truth, "truth.csv",
         [(n, p) for p in ("direct", "surface", "bottom")
          for n in ((0, 1.7) if p == "surface" else (0, 1))],
         "not an integer"),
        (harness.read_errors, "errors.csv",
         [(n, p) for p in ("direct", "surface", "bottom") for n in (0, 0.5)],
         "not an integer"),
        # an index past the int64 range, which a cast would warn about
        (harness.read_errors, "errors.csv",
         [(n, p) for p in ("direct", "surface", "bottom") for n in (0, 1e300)],
         "not an integer"),
        # well-formed blocks in another order, or named wrongly
        (harness.read_truth, "truth.csv",
         [(n, p) for p in ("bottom", "surface", "direct") for n in (0, 1)],
         "not in the order"),
        (harness.read_errors, "errors.csv",
         [(n, p) for p in ("direct", "bottom", "surface") for n in (0, 1)],
         "not in the order"),
        (harness.read_errors, "errors.csv",
         [(n, p) for p in ("direct", "surface", "Bottom") for n in (0, 1)],
         "not in the order"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_blocks_are_bad_input(self, tmp_path, read, name, rows,
                                            match):
        path = tmp_path / name
        path.write_text("n,path,value,value\n"
                        + "".join("%s,%s,0.0,1.0\n" % row for row in rows))
        with pytest.raises(harness.BadInputError, match=match):
            read(str(path))

    # np.loadtxt skips '#' comment lines and blank lines, so they move the
    # blocks' first lines; their path names are still checked
    @pytest.mark.parametrize("order", [PATHS, PATHS[::-1]])
    def test_block_names_read_past_skipped_lines(self, tmp_path, order):
        truth = GroundTruth(alpha=np.arange(12.0).reshape(3, 4),
                            doppler=np.ones((3, 4)))
        path = tmp_path / "truth.csv"
        harness.write_truth(str(path), truth)
        lines = path.read_text().splitlines()
        blocks = [lines[1 + 4 * PATHS.index(p):5 + 4 * PATHS.index(p)]
                  for p in order]
        path.write_text("\n".join(
            [lines[0], "# note"] + blocks[0] + ["", "# c"] + blocks[1]
            + blocks[2][:1] + ["#"] + blocks[2][1:]) + "\n")
        if order == PATHS:
            read = harness.read_truth(str(path))
            np.testing.assert_array_equal(read.alpha, truth.alpha)
        else:
            with pytest.raises(harness.BadInputError,
                               match="not in the order"):
                harness.read_truth(str(path))


# The writer that formatted and wrote one line at a time, kept as the
# reference for the block writer's bytes.
def per_line_csv(path, header, lines):
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(lines)


def per_line_path_major(fmt, n, *columns):
    for name, *values in zip(PATHS, *columns):
        yield from (fmt % row for row in
                    zip(n, repeat(name), *(map(float, v) for v in values)))


class TestCsvWriterBytes:
    """Every writer against the one-formatted-line-at-a-time writer it
    replaced, at lengths around the block size and on the floats where
    repr changes notation."""

    BLOCK = harness._BLOCK_ROWS
    LENGTHS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
               2.5e-310, -1.1e-320, 1e16, 9999999999999998.0, 1e-5,
               9.999999999999999e-06, 1e-4, 3.0, -7.0, 1e15, 1e22, 123456.0,
               2.0 ** 53]

    def floats(self, rng, shape):
        values = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(
            -12, 18, shape)
        flat = values.reshape(-1)
        k = min(flat.size, len(self.SPECIAL))
        flat[rng.choice(flat.size, k, replace=False)] = self.SPECIAL[:k]
        return values

    def samples(self, kind, size, rng):
        if kind == "range":
            return range(3, 3 + size)
        return np.sort(rng.choice(10 * size + 1, size, replace=False))

    def assert_same(self, tmp_path, write, header, lines):
        got, want = str(tmp_path / "got.csv"), str(tmp_path / "want.csv")
        write(got)
        per_line_csv(want, header, lines)
        with open(got, "rb") as a, open(want, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("size", LENGTHS)
    def test_received(self, tmp_path, size):
        r = self.floats(np.random.default_rng(size), size)
        self.assert_same(tmp_path, lambda p: harness.write_received(p, r),
                         "n,r", ("%d,%r\n" % row
                                 for row in enumerate(map(float, r))))

    @pytest.mark.parametrize("size", LENGTHS)
    def test_truth(self, tmp_path, size):
        rng = np.random.default_rng(size)
        truth = GroundTruth(alpha=self.floats(rng, (3, size)),
                            doppler=self.floats(rng, (3, size)))
        self.assert_same(tmp_path, lambda p: harness.write_truth(p, truth),
                         "n,path,alpha_s,doppler",
                         per_line_path_major("%d,%s,%r,%r\n", range(size),
                                             truth.alpha, truth.doppler))

    @pytest.mark.parametrize("kind", ["int64", "range"])
    @pytest.mark.parametrize("size", LENGTHS)
    def test_errors(self, tmp_path, size, kind):
        rng = np.random.default_rng(size)
        trace = harness.ErrorTrace(n=self.samples(kind, size, rng),
                                   abs_err=self.floats(rng, (3, size)))
        self.assert_same(tmp_path, lambda p: harness.write_errors(p, trace),
                         "n,path,abs_err_s",
                         per_line_path_major("%d,%s,%r\n", trace.n,
                                             trace.abs_err))

    @pytest.mark.parametrize("kind", ["int64", "range"])
    @pytest.mark.parametrize("size", LENGTHS)
    def test_delays(self, tmp_path, size, kind):
        rng = np.random.default_rng(size)
        n_grid = self.samples(kind, size, rng)
        delays = self.floats(rng, (3, size))
        flags = rng.random((3, size)) < 0.3
        self.assert_same(tmp_path,
                         lambda p: harness.write_delays(p, n_grid, delays,
                                                        flags),
                         "n,path,delay_seconds,flag",
                         per_line_path_major("%d,%s,%r,%d\n", n_grid,
                                             delays, flags))

    # 100 segments make 300 lines, more than one block of rows
    @pytest.mark.parametrize("count", [0, 1, 5, 100])
    def test_segments(self, tmp_path, count):
        rng = np.random.default_rng(count)
        lse = [0.25, math.inf, 1e16, 3.0, 1e-5] * 20
        segments = [DopplerSegment(a=10 * k, b=10 * k + 9,
                                   doppler=1.0 + rng.normal(0.0, 1e-4, 3),
                                   tau=self.floats(rng, 3), lse=lse[k])
                    for k in range(count)]
        self.assert_same(tmp_path,
                         lambda p: harness.write_segments(p, segments),
                         "segment,path,a,b,d,tau_s,lse",
                         ("%d,%s,%d,%d,%r,%r,%r\n"
                          % (k, name, seg.a, seg.b, d, tau, float(seg.lse))
                          for k, seg in enumerate(segments)
                          for name, d, tau in zip(PATHS,
                                                  map(float, seg.doppler),
                                                  map(float, seg.tau))))

    def test_dump_signal(self, tmp_path):
        cfg = short_config(duration=0.0123)   # 2 460 samples
        t = np.arange(cfg.n_samples) * (1.0 / cfg.channel.sample_rate)
        values = harness.build_signal(cfg).eval_passband(t)
        self.assert_same(tmp_path, lambda p: harness.dump_signal(cfg, p),
                         "n,t_seconds,value",
                         ("%d,%r,%r\n" % row for row in
                          zip(range(t.size), map(float, t),
                              map(float, values))))

    @pytest.mark.parametrize("window", [1, 3])
    def test_compare_plot(self, tmp_path, window):
        # finite errors: the report subtracts the two traces' maxima
        rng = np.random.default_rng(window)
        size = 2 * self.BLOCK + 1
        for name in ("a", "b"):
            abs_err = np.abs(self.floats(rng, (3, size)))
            abs_err[~np.isfinite(abs_err)] = 1e-5
            os.makedirs(tmp_path / name)
            harness.write_errors(str(tmp_path / name / "errors.csv"),
                                 harness.ErrorTrace(n=np.arange(size),
                                                    abs_err=abs_err))
        report = str(tmp_path / "report.json")
        harness.compare_dirs(str(tmp_path / "a"), str(tmp_path / "b"),
                             report, window=window)
        err = [harness.read_errors(str(tmp_path / name / "errors.csv"))
               for name in ("a", "b")]
        want = str(tmp_path / "want.csv")
        per_line_csv(want, "block_start_n,path,method,mean_abs_err_s",
                     (line for label, sub in zip("ab", harness._paired(*err))
                      for line in per_line_path_major(
                          "%d,%s," + label + ",%r\n",
                          *sub.block_mean(window))))
        with open(report + ".plot.csv", "rb") as a, open(want, "rb") as b:
            assert a.read() == b.read()

    def test_memory_stays_below_whole_column_lists(self, tmp_path):
        # one column of 10^5 floats as a list traces ~3.2 MB
        rng = np.random.default_rng(0)
        truth = GroundTruth(alpha=rng.random((3, 100_000)),
                            doppler=rng.random((3, 100_000)))
        path = str(tmp_path / "truth.csv")
        harness.write_truth(path, truth)
        tracemalloc.start()
        try:
            harness.write_truth(path, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestTrackerPipeline:
    def test_static_scene_error_below_tenth_microsecond(self):
        cfg = static_config()
        sig, scene, r, truth = harness.simulate_stream(cfg)
        segments, trace, summary = harness.track_stream(cfg, sig, r, truth)
        assert not summary["diverged"]
        assert max(summary["max_abs_err_s"].values()) < 1e-7

    def test_errors_cover_every_sample(self):
        cfg = static_config()
        sig, scene, r, truth = harness.simulate_stream(cfg)
        _, trace, _ = harness.track_stream(cfg, sig, r, truth)
        assert trace.n.size == r.size
        assert np.all(np.isfinite(trace.abs_err))

    def test_artifact_files(self, tmp_path):
        cfg = static_config()
        sim = str(tmp_path / "sim")
        trk = str(tmp_path / "trk")
        harness.run_simulation(cfg, sim)
        summary = harness.run_tracker(cfg, sim, trk)
        seg_lines = (tmp_path / "trk" / "segments.csv").read_text().splitlines()
        assert seg_lines[0] == "segment,path,a,b,d,tau_s,lse"
        assert len(seg_lines) == 1 + 3 * summary["segment_count"]
        err = harness.read_errors(os.path.join(trk, "errors.csv"))
        assert err.abs_err.shape[0] == 3
        with open(os.path.join(trk, "summary.json")) as f:
            assert json.load(f)["segment_count"] == summary["segment_count"]


class TestBaselinePipeline:
    def test_static_scene_positive_paths_within_one_sample(self):
        # the inverted-gain surface path sits half a carrier period off by
        # construction (its correlation lobe is negative), so only the
        # positive-gain paths are held to the one-sample bound
        cfg = static_config(duration=0.03)
        sig, scene, r, truth = harness.simulate_stream(cfg)
        n_grid, delays, flags, trace, summary = \
            harness.baseline_stream(cfg, sig, r, truth)
        T = 1.0 / cfg.channel.sample_rate
        assert summary["max_abs_err_s"]["direct"] < T
        assert summary["max_abs_err_s"]["bottom"] < T
        half_carrier = 0.5 / cfg.signal.carrier_freq
        assert summary["max_abs_err_s"]["surface"] < half_carrier + T

    def test_delay_file_schema(self, tmp_path):
        cfg = static_config(duration=0.03)
        sim = str(tmp_path / "sim")
        bas = str(tmp_path / "bas")
        harness.run_simulation(cfg, sim)
        harness.run_baseline(cfg, sim, bas)
        lines = (tmp_path / "bas" / "delays.csv").read_text().splitlines()
        assert lines[0] == "n,path,delay_seconds,flag"


class TestCompare:
    def trace(self, values):
        n = np.arange(len(values))
        return harness.ErrorTrace(n=n, abs_err=np.vstack([values] * 3))

    def test_identical_traces_zero_deltas(self):
        t = self.trace([1e-6, 2e-6, 3e-6])
        report = harness.compare(t, t)
        for row in report["paths"].values():
            assert row["delta_max_s"] == 0.0
            assert row["delta_mean_s"] == 0.0

    def test_miss_count_thresholding(self):
        t = self.trace([1e-6, 2e-6, 3e-6])
        report = harness.compare(t, t, miss_threshold=5e-6)
        assert all(row["a_misses"] == 0 for row in report["paths"].values())
        report = harness.compare(t, t, miss_threshold=1.5e-6)
        assert all(row["a_misses"] == 2 for row in report["paths"].values())

    def test_disjoint_samples_rejected(self):
        a = harness.ErrorTrace(n=np.arange(5), abs_err=np.zeros((3, 5)))
        b = harness.ErrorTrace(n=np.arange(10, 15), abs_err=np.zeros((3, 5)))
        with pytest.raises(ValueError):
            harness.compare(a, b)

    def test_block_mean(self):
        t = harness.ErrorTrace(n=np.arange(10),
                               abs_err=np.arange(30, dtype=float).reshape(3, 10))
        starts, means = t.block_mean(5)
        np.testing.assert_array_equal(starts, [0, 5])
        assert means[0, 0] == pytest.approx(np.mean(np.arange(5)))

    @pytest.mark.parametrize("window", [1, 7, 1000])
    def test_block_mean_matches_mask_reference(self, window):
        rng = np.random.default_rng(window)
        n = np.flatnonzero(rng.random(20_000) < 0.6)
        n = n[(n < 3_000) | (n > 9_500)]
        err = rng.exponential(1e-6, (3, 20_000)) ** 3
        block = n // window
        starts = np.unique(block)
        # an F-ordered trace as `_paired` cuts it, and a C-ordered one
        for abs_err in (err[:, n], np.ascontiguousarray(err[:, n])):
            t = harness.ErrorTrace(n=n, abs_err=abs_err)
            want = np.empty((3, starts.size))
            for j, b in enumerate(starts):
                want[:, j] = abs_err[:, block == b].mean(axis=1)
            got_starts, got = t.block_mean(window)
            np.testing.assert_array_equal(got_starts, starts * window)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", ["ascending", "gaps", "unsorted"])
    def test_report_on_equal_samples_matches_intersection(self, tmp_path,
                                                          order):
        # one trace read back from its CSV, as `compare_dirs` reads it: its
        # values are a contiguous copy, and equal ascending samples skip the
        # intersection; the report keeps every bit of the intersected one
        rng = np.random.default_rng(4)
        n = {"ascending": np.arange(20_001),
             "gaps": np.flatnonzero(rng.random(30_000) < 0.7),
             "unsorted": rng.permutation(20_001)}[order]
        a = harness.ErrorTrace(n=n, abs_err=rng.exponential(1e-6,
                                                            (3, n.size)))
        path = str(tmp_path / "errors.csv")
        harness.write_errors(path, a)
        b = harness.read_errors(path)
        np.testing.assert_array_equal(b.n, n)
        assert b.abs_err.flags.c_contiguous
        common, ia, ib = np.intersect1d(a.n, b.n, return_indices=True)
        cut = [harness.ErrorTrace(n=common, abs_err=t.abs_err[:, i])
               for t, i in ((a, ia), (b, ib))]
        got = harness.compare(a, b)
        want = harness.compare(*cut)
        assert json.dumps(got) == json.dumps(want)


class TestCli:
    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[tracker]\npenalty = -1\n")
        code = cli.main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "o")])
        assert code == 1

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[tracker]\npenalty = 0.01\xff\n")
        code = cli.main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_input_exit_code(self, tmp_path):
        code = cli.main(["track", "--in", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "o"), "--duration", "0.02"])
        assert code == 2

    def test_non_finite_sample_exit_code(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--duration", "0.005",
                         "--out", str(sim)]) == 0
        received = sim / "received.csv"
        lines = received.read_text().splitlines()
        assert lines[50].startswith("49,")
        lines[50] = "49,nan"
        received.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = cli.main(["track", "--duration", "0.005", "--in", str(sim),
                         "--out", str(tmp_path / "trk")])
        err = capsys.readouterr().err
        assert code == 4
        assert "bad input" in err
        assert "i/o error" not in err
        assert not (tmp_path / "trk").exists()

    def simulate(self, tmp_path, duration):
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--duration", duration,
                         "--out", str(sim)]) == 0
        return sim

    def set_sample(self, sim, n, text):
        received = sim / "received.csv"
        lines = received.read_text().splitlines()
        assert lines[n + 1].startswith("%d," % n)
        lines[n + 1] = "%d,%s" % (n, text)
        received.write_text("\n".join(lines) + "\n")

    def test_missing_truth_is_io_error(self, tmp_path, capsys):
        sim = self.simulate(tmp_path, "0.005")
        (sim / "truth.csv").unlink()
        capsys.readouterr()
        code = cli.main(["track", "--duration", "0.005", "--in", str(sim),
                         "--out", str(tmp_path / "trk")])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_received_is_bad_input(self, tmp_path, capsys):
        sim = self.simulate(tmp_path, "0.005")
        self.set_sample(sim, 49, "0.1x")
        capsys.readouterr()
        code = cli.main(["track", "--duration", "0.005", "--in", str(sim),
                         "--out", str(tmp_path / "trk")])
        err = capsys.readouterr().err
        assert code == 4
        assert "bad input" in err and "received.csv" in err
        assert "i/o error" not in err

    # numpy warns that a header-only file holds no data; none may escape
    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("command", ["track", "baseline"])
    @pytest.mark.parametrize("kept", [500, 0])
    def test_received_shorter_than_truth_is_bad_input(self, tmp_path, capsys,
                                                      command, kept):
        sim = self.simulate(tmp_path, "0.005")
        received = sim / "received.csv"
        lines = received.read_text().splitlines()
        assert len(lines) == 1 + 1000
        received.write_text("\n".join(lines[:1 + kept]) + "\n")
        capsys.readouterr()
        code = cli.main([command, "--duration", "0.005", "--in", str(sim),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 4
        assert "bad input" in err and "%d samples" % kept in err
        assert not (tmp_path / "out").exists()

    # both files cut to 60 samples: consistent with each other, but shorter
    # than the configured run of 1 000 and than the 100-sample warm-up
    @pytest.mark.parametrize("command", ["track", "baseline"])
    def test_inputs_shorter_than_configured_run_are_bad_input(
            self, tmp_path, capsys, command):
        sim = self.simulate(tmp_path, "0.005")
        for name in ("received.csv", "truth.csv"):
            header, *rows = (sim / name).read_text().splitlines(True)
            (sim / name).write_text(header + "".join(
                row for row in rows if int(row.split(",")[0]) < 60))
        capsys.readouterr()
        code = cli.main([command, "--duration", "0.005", "--in", str(sim),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 4
        assert "bad input" in err and "needs 1000" in err
        assert not (tmp_path / "out").exists()

    # 700 samples: longer than the 100-sample tracker warm-up and the
    # 600-sample template, shorter than the template plus the lag range
    def test_baseline_too_short_for_lag_range_is_config_error(
            self, tmp_path, capsys):
        sim = self.simulate(tmp_path, "0.0035")
        capsys.readouterr()
        code = cli.main(["baseline", "--duration", "0.0035", "--in", str(sim),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "lag range" in err
        assert not (tmp_path / "out").exists()

    # 400 samples: longer than the 100-sample tracker warm-up, shorter than
    # the 600-sample template
    def test_baseline_too_short_for_template_is_config_error(
            self, tmp_path, capsys):
        sim = self.simulate(tmp_path, "0.002")
        capsys.readouterr()
        code = cli.main(["baseline", "--duration", "0.002", "--in", str(sim),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "baseline template" in err
        assert not (tmp_path / "out").exists()

    # a value that is not finite in each input CSV, a truth warp later than
    # its reception time, or a sample index that is out of place or not an
    # integer; sample 600 is the baseline's first iteration
    @pytest.mark.parametrize("command, name, n, value", [
        ("track", "truth.csv", 0, "nan"),
        ("track", "truth.csv", 500, "nan"),
        ("baseline", "truth.csv", 600, "nan"),
        ("baseline", "truth.csv", 600, "1.0"),
        ("baseline", "received.csv", 500, "nan"),
        ("baseline", "received.csv", 500, "inf"),
        ("compare", "errors.csv", 3, "nan"),
        # "n=x" renumbers the row as sample x
        ("baseline", "received.csv", 500, "n=501"),
        ("track", "received.csv", 0, "n=0.5"),
        ("track", "truth.csv", 500, "n=500.5"),
        ("compare", "errors.csv", 3, "n=3.5"),
        ("compare", "errors.csv", 3, "n=1e300"),
        ("track", "truth.csv", 500, "n=-1e300"),
        # "swap" writes the bottom block first and the direct block last
        ("track", "truth.csv", 0, "swap"),
        ("compare", "errors.csv", 0, "swap"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_input_value_is_bad_input(self, tmp_path, capsys, command,
                                          name, n, value):
        out = tmp_path / "out"
        if command == "compare":
            trace = harness.ErrorTrace(n=np.arange(5),
                                       abs_err=np.zeros((3, 5)))
            for d in ("a", "b"):
                (tmp_path / d).mkdir()
                harness.write_errors(str(tmp_path / d / "errors.csv"), trace)
            edited = tmp_path / "a" / name
            args = ["compare", "--a", str(tmp_path / "a"),
                    "--b", str(tmp_path / "b"), "--out", str(out)]
        else:
            sim = self.simulate(tmp_path, "0.02")
            edited = sim / name
            args = [command, "--duration", "0.02", "--in", str(sim),
                    "--out", str(out)]
        # the first rows are sample n's of the direct path
        lines = edited.read_text().splitlines()
        fields = lines[n + 1].split(",")
        assert fields[0] == str(n)
        if value.startswith("n="):
            fields[0] = value[2:]
        elif value != "swap":
            fields[1 if name == "received.csv" else 2] = value
        lines[n + 1] = ",".join(fields)
        if value == "swap":
            rows = (len(lines) - 1) // 3
            lines[1:] = lines[1 + 2 * rows:] + lines[1 + rows:1 + 2 * rows] \
                + lines[1:1 + rows]
        edited.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code == 4
        assert "bad input" in err and name in err
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["a", "b"] if command == "compare" else ["sim"])

    # reception times are n * (1 / sample_rate), as the simulator takes
    # them: at sample 3 that is one ulp past 3 / sample_rate
    def test_truth_warp_at_reception_time_is_not_late(self, tmp_path):
        cfg = short_config(duration=0.005)
        sim = self.simulate(tmp_path, "0.005")
        truth = harness.read_truth(str(sim / "truth.csv"))
        t3 = 3 * (1.0 / cfg.channel.sample_rate)
        assert t3 > 3 / cfg.channel.sample_rate
        truth.alpha[0, 3] = t3
        harness.write_truth(str(sim / "truth.csv"), truth)
        _, _, read = harness._read_inputs(cfg, str(sim))
        assert read.alpha[0, 3] == t3

    # np.loadtxt skips '#' comment lines and blank lines; the message still
    # names the line as the file numbers it
    def test_bad_input_names_line_past_skipped_lines(self, tmp_path, capsys):
        sim = self.simulate(tmp_path, "0.02")
        received = sim / "received.csv"
        lines = received.read_text().splitlines()
        lines[2] = "1,nan"
        lines[1:1] = ["# note", ""]
        received.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = cli.main(["baseline", "--duration", "0.02", "--in", str(sim),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 4
        assert "received.csv: line 5 holds a value that is not finite" in err

    # 8e18 samples fit np.intp, but the 8e17-symbol waveform (5.55 EiB)
    # fits no address space, so its allocation fails at once
    def test_run_too_large_to_allocate_is_config_error(self, tmp_path,
                                                       capsys):
        code = cli.main(["simulate", "--duration", "4e13",
                         "--out", str(tmp_path / "sim")])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "Traceback" not in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("option, value", [
        ("--window", "0"),
        ("--window", "-5"),
        ("--threshold", "nan"),
        ("--threshold", "-1"),
    ])
    def test_bad_compare_argument_is_config_error(self, tmp_path, capsys,
                                                  option, value):
        trace = harness.ErrorTrace(n=np.arange(5), abs_err=np.zeros((3, 5)))
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            harness.write_errors(str(tmp_path / name / "errors.csv"), trace)
        out = tmp_path / "compare.json"
        code = cli.main(["compare", "--a", str(tmp_path / "a"),
                         "--b", str(tmp_path / "b"), "--out", str(out),
                         option, value])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err
        assert not out.exists()
        assert not (tmp_path / "compare.json.plot.csv").exists()

    # values the simulator or a tracker rejects, and non-finite values
    @pytest.mark.parametrize("ini, duration", [
        ("[motion]\nsurface_pp_m = 1.0\n", "0.005"),
        ("[signal]\npulse_std_fraction = 1.0\n", "0.005"),
        ("[signal]\npulse_halfwidth = 0\n", "0.005"),
        ("[tracker]\npenalty = nan\n", "0.005"),
        ("[channel]\ngain_direct = 0\n", "0.005"),
        ("", "nan"),
        ("", "inf"),
        # 10 ** (snr_db / 10) overflows, or underflows to a zero divisor
        ("[channel]\nsnr_db = 4000\n", "0.005"),
        ("[channel]\nsnr_db = 1e300\n", "0.005"),
        ("[channel]\nsnr_db = -4000\n", "0.005"),
        ("[channel]\nsnr_db = -1e300\n", "0.005"),
        # more samples than np.intp counts: finite, and inf as a product
        ("[channel]\nsample_rate_hz = 1e300\n", None),
        ("[channel]\nsample_rate_hz = 1e300\n[run]\nduration_s = 1e10\n",
         None),
        # the noise generator takes no negative seed
        ("[channel]\nnoise_seed = -1\n", "0.005"),
        ("[signal]\nsymbol_rate_hz = 0\n", "0.005"),
        # the geometry checks itself: the transmitter below the 1.8 m bottom
        ("[geometry]\ntx_depth_m = 2.0\n", "0.005"),
    ])
    def test_rejected_value_is_config_error(self, tmp_path, capsys, ini,
                                            duration):
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        args = ["simulate", "--config", str(cfg),
                "--out", str(tmp_path / "sim")]
        if duration is not None:
            args += ["--duration", duration]
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err
        assert not (tmp_path / "sim").exists()

    # the direct path's power overflows, so the noise level snr_db below it
    # is infinite; synthesize finds this while it simulates
    @pytest.mark.parametrize("ini", ["[channel]\ngain_direct = 1e200\n",
                                     "[signal]\namplitude = 1e200\n"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_noise_level_is_config_error(self, tmp_path, capsys,
                                                     ini):
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        code = cli.main(["simulate", "--config", str(cfg), "--duration",
                         "0.005", "--out", str(tmp_path / "sim")])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "not finite" in err
        assert not (tmp_path / "sim" / "received.csv").exists()

    # gain times amplitude overflows the stream itself, with an explicit
    # noise level that derives nothing from it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_stream_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\ngain_direct = 1e200\nnoise_std = 0.1\n"
                       "[signal]\namplitude = 1e200\n")
        code = cli.main(["simulate", "--config", str(cfg), "--duration",
                         "0.005", "--out", str(tmp_path / "sim")])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "not finite" in err
        assert not (tmp_path / "sim" / "received.csv").exists()

    # an explicit noise level derives nothing from the direct path's power
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_explicit_noise_level_with_huge_gain_simulates(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\ngain_direct = 1e200\nnoise_std = 0.1\n")
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(cfg), "--duration",
                         "0.005", "--out", str(sim)]) == 0
        r = harness.read_received(str(sim / "received.csv"))
        assert r.size == 1000 and np.isfinite(r).all()
        assert np.abs(r).max() > 1e190

    # 0.001 ms is 0.2 samples at 200 kHz, a template of no sample: every
    # step rejects the configuration before it reads or writes
    @pytest.mark.parametrize("command", ["simulate", "track", "baseline"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_template_under_one_sample_is_config_error(self, tmp_path, capsys,
                                                       command):
        sim = self.simulate(tmp_path, "0.005")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[baseline]\ntemplate_ms = 0.001\n")
        out = tmp_path / "out"
        args = [command, "--config", str(cfg), "--duration", "0.005",
                "--out", str(out)]
        if command != "simulate":
            args += ["--in", str(sim)]
        capsys.readouterr()
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "shorter than one sample" in err
        assert not out.exists()

    def test_internal_fault_exit_code(self, tmp_path, capsys, monkeypatch):
        def broken(cfg, out_dir):
            raise RuntimeError("simulated internal fault")

        monkeypatch.setattr(harness, "run_simulation", broken)
        code = cli.main(["simulate", "--duration", "0.005",
                         "--out", str(tmp_path / "sim")])
        err = capsys.readouterr().err
        assert code == 5
        assert "Traceback" in err
        assert "RuntimeError: simulated internal fault" in err

    def test_summary_is_strict_json_after_divergence(self, tmp_path):
        sim = self.simulate(tmp_path, "0.003")
        self.set_sample(sim, 300, "1e+300")
        trk = tmp_path / "trk"
        with pytest.warns(RuntimeWarning):
            code = cli.main(["track", "--duration", "0.003", "--in", str(sim),
                             "--out", str(trk)])
        assert code == 3

        def reject(constant):
            raise ValueError("not JSON: %s" % constant)

        summary = json.loads((trk / "summary.json").read_text(),
                             parse_constant=reject)
        assert summary["diverged"] is True
        assert summary["diverged_at"] == 300
        assert summary["final_lse"] is None

    def test_dump_signal(self, tmp_path):
        out = tmp_path / "sig.csv"
        code = cli.main(["dump-signal", "--duration", "0.005",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,t_seconds,value"
        assert len(lines) == 1 + 1000
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 0], np.arange(1000))
        assert data[:, 1].tobytes() == (np.arange(1000)
                                        * (1.0 / 200e3)).tobytes()

    # 1 480 samples: the tracker could run, but the baseline needs 1 494
    def test_demo_too_short_for_baseline_leaves_only_simulation(
            self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = cli.main(["demo", "--duration", "0.0074", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "lag range" in err
        assert (out / "sim" / "received.csv").exists()
        assert not (out / "tracker").exists()
        assert not (out / "baseline").exists()

    def test_full_pipeline_via_cli(self, tmp_path):
        sim = str(tmp_path / "sim")
        trk = str(tmp_path / "trk")
        bas = str(tmp_path / "bas")
        rep = str(tmp_path / "report.json")
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nduration_s = 0.02\n"
                       "[channel]\nnoise_std = 0\n"
                       "[motion]\nrx_osc_pp_m = 0\nsurface_pp_m = 0\n")
        assert cli.main(["simulate", "--config", str(ini), "--out", sim]) == 0
        assert cli.main(["track", "--config", str(ini), "--in", sim,
                         "--out", trk]) == 0
        assert cli.main(["baseline", "--config", str(ini), "--in", sim,
                         "--out", bas]) == 0
        assert cli.main(["compare", "--a", trk, "--b", bas,
                         "--out", rep]) == 0
        with open(rep) as f:
            report = json.load(f)
        assert set(report["paths"]) == {"direct", "surface", "bottom"}
        assert os.path.exists(rep + ".plot.csv")
