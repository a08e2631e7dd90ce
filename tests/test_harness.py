import dataclasses
import json
import os

import numpy as np
import pytest

from dopptrack import cli, harness
from dopptrack.harness import ConfigError


def short_config(duration=0.02, **channel_kw):
    cfg = harness.default_config()
    channel = dataclasses.replace(cfg.channel, **channel_kw) \
        if channel_kw else cfg.channel
    return dataclasses.replace(cfg, duration=duration, channel=channel)


def static_config(duration=0.02):
    cfg = short_config(duration, noise_std=0.0)
    return dataclasses.replace(cfg, motion=harness.MotionSpec())


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
        cfg = dataclasses.replace(cfg, duration=duration)
        with pytest.raises(ConfigError, match="warm-up"):
            cfg.validate()

    def test_validation_undersampled(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[channel]\nsample_rate_hz = 60000\n")
        with pytest.raises(ConfigError):
            harness.load_config(str(path))

    def test_noise_std_override(self):
        cfg = short_config(noise_std=0.0)
        sig = harness.build_signal(cfg)
        assert harness.resolve_noise_std(cfg, sig) == 0.0

    def test_snr_sets_noise(self):
        cfg = short_config()
        sig = harness.build_signal(cfg)
        std = harness.resolve_noise_std(cfg, sig)
        probe = dataclasses.replace(cfg, channel=dataclasses.replace(
            cfg.channel, gains=(cfg.channel.gains[0], 0.0, 0.0),
            noise_std=0.0))
        _, _, clean, _ = harness.simulate_stream(probe)
        snr = 10 * np.log10(np.mean(clean ** 2) / std ** 2)
        assert snr == pytest.approx(20.0, abs=0.01)


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
    ])
    def test_malformed_blocks_are_bad_input(self, tmp_path, read, name, rows,
                                            match):
        path = tmp_path / name
        path.write_text("n,path,value,value\n"
                        + "".join("%d,%s,0.0,1.0\n" % row for row in rows))
        with pytest.raises(harness.BadInputError, match=match):
            read(str(path))


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


class TestCli:
    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[tracker]\npenalty = -1\n")
        code = cli.main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "o")])
        assert code == 1

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

    # values the simulator or a tracker rejects, and non-finite values
    @pytest.mark.parametrize("ini, duration", [
        ("[motion]\nsurface_pp_m = 1.0\n", "0.005"),
        ("[signal]\npulse_std_fraction = 1.0\n", "0.005"),
        ("[signal]\npulse_halfwidth = 0\n", "0.005"),
        ("[tracker]\npenalty = nan\n", "0.005"),
        ("", "nan"),
        ("", "inf"),
    ])
    def test_rejected_value_is_config_error(self, tmp_path, capsys, ini,
                                            duration):
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        code = cli.main(["simulate", "--config", str(cfg),
                         "--duration", duration,
                         "--out", str(tmp_path / "sim")])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err
        assert not (tmp_path / "sim").exists()

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
