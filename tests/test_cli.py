import argparse
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import nfbeam
import nfbeam.simharness
from nfbeam import ArrayConfig, build_polar_codebook
from nfbeam.cli import EXIT_CONFIG, EXIT_OK, load_config_file, main
from nfbeam.errors import SingularChannelError
from nfbeam.simharness import ScenarioConfig


def run(args):
    return main(args)


_TRAIN = ["train", "--theta", "0.2", "--r", "5"]
_PATTERN = ["pattern", "--theta", "0.2", "--r", "5"]
# The Monte-Carlo grid flags, which only the simulating commands accept.
_GRID_FLAGS = {
    "trials": ["--trials", "7"],
    "snr-db": ["--snr-db", "3"],
    "theta-range": ["--theta-range", "-0.5", "0.5"],
    "r-range": ["--r-range", "1", "3"],   # inside [R_Fre, R_Ray] at N = 64
    "schemes": ["--schemes", "joint"],
}
_UNREAD_FLAGS = {
    "train-svg": _TRAIN + ["--svg"],
    **{f"train-{k}": _TRAIN + v for k, v in _GRID_FLAGS.items()},
    **{f"pattern-{k}": _PATTERN + v for k, v in _GRID_FLAGS.items()},
    **{f"codebook-dump-{k}": ["codebook-dump"] + v for k, v in _GRID_FLAGS.items()},
    **{f"overhead-{k}": ["overhead"] + v for k, v in _GRID_FLAGS.items() if k != "schemes"},
    "overhead-svg": ["overhead", "--svg"],
    "codebook-dump-svg": ["codebook-dump", "--svg"],
}


class TestPattern:
    def test_fig2_trace(self, tmp_path, capsys):
        rc = run(["pattern", "--theta", "0", "--r", "8", "--N", "512",
                  "--fc", "100e9", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        files = list(tmp_path.glob("pattern_*.csv"))
        assert len(files) == 1
        lines = files[0].read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert rows[0] == "phi,gain_raw,gain_normalized"
        assert len(rows) == 1 + 512
        # the trace shows the plateau-with-ripples shape: raw plateau
        # near 0.2, normalized peak slightly above 1
        data = np.array([[float(x) for x in ln.split(",")] for ln in rows[1:]])
        phi, raw, norm = data.T
        lobe = np.abs(phi) < 0.04
        assert 0.15 <= raw[lobe].min() and raw[lobe].max() <= 0.26
        assert 1.0 < norm.max() < 1.3
        assert any("central_gain=" in ln for ln in header)

    def test_svg_emission(self, tmp_path):
        rc = run(["pattern", "--theta", "0.2", "--r", "5", "--N", "64",
                  "--fc", "100e9", "--out", str(tmp_path), "--svg"])
        assert rc == EXIT_OK
        svg = list(tmp_path.glob("pattern_*.svg"))
        assert len(svg) == 1
        assert svg[0].read_text().startswith("<svg")

    def test_builds_one_steering_vector(self, tmp_path, monkeypatch):
        # the raw, normalized and central_gain values all read one sweep_pattern
        calls = []
        real = nfbeam.beampattern.near_field_steering

        def counting(cfg, p):
            calls.append(p)
            return real(cfg, p)

        monkeypatch.setattr(nfbeam.beampattern, "near_field_steering", counting)
        assert run(_PATTERN + ["--N", "64", "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 1

    def test_runs_where_r_fre_passes_100_m(self, tmp_path):
        # N = 4096: R_Fre = 138.9 m, so the default box is the whole near field
        rc = run(["pattern", "--N", "4096", "--theta", "0.2", "--r", "300",
                  "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert "r_range=138.9" in next(tmp_path.glob("pattern_*.csv")).read_text()


class TestTrain:
    def test_single_shot(self, tmp_path, capsys):
        rc = run(["train", "--theta", "0.0", "--r", "1.5", "--N", "128",
                  "--fc", "100e9", "--scheme", "proposed", "--snr-ref-db", "200",
                  "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "scheme=proposed" in out
        assert "pilots=131" in out

    def test_proposed_builds_no_polar_codebook(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("polar codebook built for the proposed scheme")

        monkeypatch.setattr(nfbeam.simharness, "build_polar_codebook", refuse)
        rc = run(["train", "--theta", "0.1", "--r", "3", "--N", "64",
                  "--scheme", "proposed", "--out", str(tmp_path)])
        assert rc == EXIT_OK


class TestExperiments:
    def test_nmse_csv(self, tmp_path):
        rc = run(["nmse", "--N", "64", "--trials", "6", "--seed", "1",
                  "--snr-db", "10", "20", "--schemes", "proposed,joint",
                  "--theta-range", "-0.6", "0.6",
                  "--reference-mode", "per-antenna", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        csv = list(tmp_path.glob("nmse_*.csv"))[0]
        text = csv.read_text()
        assert "# n_antennas=64" in text
        assert "proposed,10.0" in text

    def test_rate_single_with_svg(self, tmp_path):
        rc = run(["rate-single", "--N", "64", "--trials", "4", "--seed", "2",
                  "--snr-db", "20", "--schemes", "proposed",
                  "--reference-mode", "per-antenna", "--out", str(tmp_path), "--svg"])
        assert rc == EXIT_OK
        assert list(tmp_path.glob("rate_single_*.csv"))
        assert list(tmp_path.glob("rate_single_*.svg"))

    def test_rate_multi(self, tmp_path):
        rc = run(["rate-multi", "--N", "64", "--trials", "3", "--seed", "3",
                  "--M", "2", "--snr-db", "20", "--schemes", "proposed",
                  "--reference-mode", "per-antenna", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        csv = list(tmp_path.glob("rate_multi_*.csv"))[0]
        assert "full-csi" in csv.read_text()

    def test_per_trial_estimate_dump(self, tmp_path):
        rc = run(["nmse", "--N", "64", "--trials", "4", "--seed", "6",
                  "--snr-db", "18", "--schemes", "proposed,joint",
                  "--reference-mode", "per-antenna", "--out", str(tmp_path),
                  "--dump-estimates"])
        assert rc == EXIT_OK
        est = list(tmp_path.glob("estimates_*.csv"))[0]
        lines = [ln for ln in est.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "snr_ref_db,trial,scheme,theta,r,theta_hat,r_hat,pilot_count"
        assert len(lines) == 1 + 4 * 2  # trials x schemes at one SNR

    def test_estimate_dump_trains_once_per_trial_snr_and_scheme(self, tmp_path, monkeypatch):
        calls = []
        for name in ("proposed_candidates", "joint_candidates"):
            original = getattr(nfbeam.simharness, name)
            monkeypatch.setattr(nfbeam.simharness, name,
                                lambda *a, _f=original, **kw: calls.append(1) or _f(*a, **kw))
        rc = run(["nmse", "--N", "64", "--trials", "3", "--seed", "6",
                  "--snr-db", "10", "18", "--schemes", "proposed,joint",
                  "--reference-mode", "per-antenna", "--out", str(tmp_path),
                  "--dump-estimates"])
        assert rc == EXIT_OK
        assert len(calls) == 3 * 2 * 2  # trials x SNR points x schemes

    def test_per_user_rate_breakdown(self, tmp_path):
        rc = run(["rate-multi", "--N", "64", "--trials", "2", "--seed", "3",
                  "--M", "3", "--snr-db", "20", "--schemes", "proposed",
                  "--reference-mode", "per-antenna", "--out", str(tmp_path),
                  "--dump-users", "proposed"])
        assert rc == EXIT_OK
        bk = list(tmp_path.glob("rate_users_proposed_*.csv"))[0]
        lines = [ln for ln in bk.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "snr_ref_db,user,theta,r,theta_hat,r_hat,sinr,rate"
        assert len(lines) == 1 + 3  # one row per user at one SNR
        # rate column consistent with the SINR column
        snr_db, user, theta, r, th, rh, sinr, rate = map(float, lines[1].split(","))
        assert rate == pytest.approx(np.log2(1 + sinr), rel=1e-9)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        src = str(Path(nfbeam.__file__).resolve().parents[1])
        far = ["--trials", "2", "--schemes", "proposed", "--snr-db", "10", "30",
               "--r-range", "1200", "5000", "--reference-mode", "per-antenna"]
        runs = [["nmse", "--N", "64", "--trials", "3", "--dump-estimates"],
                ["rate-multi", "--N", "64", "--M", "4", "--trials", "1", "--dump-users", "fast"],
                ["rate-single", "--N", "64", "--trials", "2", "--schemes", "proposed,exhaustive"],
                # N M = 10,240 precoder entries, past OpenBLAS's threaded-dot size
                ["rate-multi", "--N", "128", "--M", "80", "--trials", "1", "--snr-db", "4", "30",
                 "--dump-users", "proposed"],
                # N = 10,240: every dot product, norm and M = 1 Gram is past
                # the threaded size, so numerics sums it in blocks
                ["rate-single", "--N", "10240", *far],
                ["rate-multi", "--M", "1", "--N", "10240", *far],
                ["pattern", "--N", "10240", "--theta", "0.2", "--r", "1500"]]
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            for argv in runs:
                subprocess.run([sys.executable, "-m", "nfbeam.cli", *argv, "--out", str(out)],
                               env=env, check=True, capture_output=True)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outputs[0]) == 10
        assert outputs[0] == outputs[1]

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            rc = run(["nmse", "--N", "64", "--trials", "5", "--seed", "9",
                      "--snr-db", "15", "--schemes", "proposed",
                      "--reference-mode", "per-antenna", "--out", str(out)])
            assert rc == EXIT_OK
        fa = list(a.glob("*.csv"))[0]
        fb = list(b.glob("*.csv"))[0]
        assert fa.read_bytes() == fb.read_bytes()


class TestOverhead:
    def test_headline_515(self, tmp_path, capsys):
        rc = run(["overhead", "--N", "512", "--k", "3", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "proposed: 515 pilots" in out
        csv = list(tmp_path.glob("overhead_*.csv"))[0]
        assert "proposed,515," in csv.read_text()


class TestCodebookDump:
    def test_dft(self, tmp_path):
        rc = run(["codebook-dump", "--kind", "dft", "--N", "64",
                  "--fc", "100e9", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert list(tmp_path.glob("codebook_dft_*.csv"))

    def test_polar_reports_scale(self, tmp_path, capsys):
        rc = run(["codebook-dump", "--kind", "polar", "--N", "128",
                  "--fc", "100e9", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert "ring scale Z" in capsys.readouterr().out

    def test_config_beta_polar_used_and_written(self, tmp_path):
        cfg = tmp_path / "book.cfg"
        cfg.write_text("n_antennas=64\nbeta_polar=1.2\n")
        for kind in ("dft", "polar"):
            assert run(["codebook-dump", "--kind", kind, "--config", str(cfg),
                        "--out", str(tmp_path)]) == EXIT_OK
        polar = build_polar_codebook(ArrayConfig(64, 100e9), 1.2)
        for name, n_rows in (("codebook_dft_N64.csv", 64),
                             ("codebook_polar_N64_beta1.2.csv", len(polar))):
            lines = (tmp_path / name).read_text().splitlines()
            assert "# beta_polar=1.2" in lines
            rows = [ln for ln in lines if not ln.startswith("#")]
            assert rows[0] == "index,label,theta,r"
            assert len(rows) == 1 + n_rows
        assert any(",near," in ln for ln in rows)
        # the flag overrides the file value
        assert run(["codebook-dump", "--kind", "polar", "--config", str(cfg),
                    "--beta-polar", "1.8", "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "codebook_polar_N64_beta1.8.csv").is_file()


class TestSharedParser:
    # the parser is built once, at import; every call parses into a fresh namespace
    def test_a_call_builds_no_parser(self, tmp_path, monkeypatch):
        calls = []
        real = argparse.ArgumentParser.add_argument
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        assert run(_TRAIN + ["--N", "64", "--out", str(tmp_path)]) == EXIT_OK
        assert run(["overhead", "--N", "16", "--out", str(tmp_path)]) == EXIT_OK
        assert calls == []

    def test_a_flag_of_one_call_does_not_reach_the_next(self, tmp_path):
        nmse = ["nmse", "--N", "64", "--trials", "2", "--snr-db", "20", "--schemes", "proposed"]
        assert run(nmse + ["--svg", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert run(nmse + ["--out", str(tmp_path / "b")]) == EXIT_OK
        assert list((tmp_path / "a").glob("*.svg"))
        assert [p.suffix for p in (tmp_path / "b").iterdir()] == [".csv"]
        multi = ["rate-multi", "--N", "64", "--trials", "1", "--snr-db", "20",
                 "--schemes", "proposed"]
        assert run(multi + ["--M", "4", "--out", str(tmp_path / "c")]) == EXIT_OK
        assert run(multi + ["--out", str(tmp_path / "d")]) == EXIT_OK
        for out, m in (("c", 4), ("d", 10)):
            header = (tmp_path / out / "rate_multi_N64_seed0.csv").read_text().splitlines()
            assert f"# m_users={m}" in header

    def test_a_config_value_of_one_call_does_not_reach_the_next(self, tmp_path):
        cfg = tmp_path / "book.cfg"
        cfg.write_text("n_antennas=64\nbeta_polar=1.2\n")
        dump = ["codebook-dump", "--kind", "dft"]
        assert run(dump + ["--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert run(dump + ["--N", "64", "--out", str(tmp_path / "b")]) == EXIT_OK
        a, b = ((tmp_path / d / "codebook_dft_N64.csv").read_text().splitlines() for d in "ab")
        assert "# beta_polar=1.2" in a and "# beta_polar=1.2" not in b
        assert "# beta_polar=1.6" in b

    def test_help_and_an_unknown_flag_on_repeated_calls(self, capsys):
        for _ in range(2):
            assert run(["--help"]) == EXIT_OK
            assert run(["nmse", "--help"]) == EXIT_OK
            assert capsys.readouterr().out.count("usage: nfbeam") == 2
            assert run(["nmse", "--no-such-flag"]) == EXIT_CONFIG
            assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


class TestErrors:
    def test_output_path_faults_are_runtime_failures(self, tmp_path):
        # --out names an existing file, or a written file's name is taken by
        # a directory: exit 3 with one line on stderr, no traceback
        src = str(Path(nfbeam.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        taken = tmp_path / "file"
        taken.write_text("")
        (tmp_path / "dir" / "overhead_N16_k3.csv").mkdir(parents=True)
        for out in (taken, tmp_path / "dir"):
            done = subprocess.run([sys.executable, "-m", "nfbeam.cli", "overhead", "--N", "16",
                                   "--out", str(out)], env=env, capture_output=True, text=True)
            assert done.returncode == 3
            assert done.stderr.startswith("runtime failure: ")
            assert "Traceback" not in done.stderr

    def test_missing_config_file(self, tmp_path, capsys):
        rc = run(["nmse", "--config", str(tmp_path / "nope.cfg")])
        assert rc == EXIT_CONFIG
        assert "nope.cfg" in capsys.readouterr().err

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_antennas=64\nwarp_factor=9\n")
        rc = run(["nmse", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "warp_factor" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["trials=2.5", "carrier_hz=abc", "theta_range=0.1",
                                      "trials 2"])
    def test_unparsable_config_value_names_line_and_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"n_antennas=64\n{line}\n")
        rc = run(["nmse", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{cfg}:2:" in err
        assert line.split("=")[0] in err
        assert not list(tmp_path.glob("*.csv"))

    def test_empty_scheme_list_rejected(self, tmp_path, capsys):
        # used to run and write a CSV holding a header and no records
        cfg = tmp_path / "s.cfg"
        cfg.write_text("schemes=\n")
        rc = run(["nmse", "--config", str(cfg), "--N", "32", "--trials", "2",
                  "--snr-db", "10", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "schemes" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_empty_schemes_flag_rejected(self, tmp_path, capsys):
        # used to run all four schemes, as if the flag were not given
        rc = run(["nmse", "--N", "32", "--trials", "1", "--snr-db", "10", "--schemes", "",
                  "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "schemes is empty" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, field", [
        (["nmse", "--schemes", "proposed,proposed"], "schemes"),
        (["nmse", "--seed", "-1"], "seed"),
        ([*_TRAIN, "--seed", "-1"], "seed"),
    ])
    def test_repeated_scheme_and_negative_seed_named(self, tmp_path, capsys, argv, field):
        # a repeated scheme used to double n_trials; a negative seed failed
        # inside the random generator with a message that named no field
        rc = run([*argv, "--N", "32", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_config_file_values_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(
            "# warp_factor=9, skipped as a comment\n"
            "n_antennas=64\ntrials=4\nseed=11\nsnr_ref_db_grid=15\n"
            "schemes=proposed\nreference_mode=per-antenna\ntheta_range=-0.5,0.5\n")
        rc = run(["nmse", "--config", str(cfg), "--trials", "3", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        text = list(tmp_path.glob("nmse_*.csv"))[0].read_text()
        assert "# trials=3" in text          # flag wins
        assert "# n_antennas=64" in text     # file value kept

    def test_config_file_setting_every_field(self, tmp_path):
        expected = ScenarioConfig(
            n_antennas=64, carrier_hz=90e9, snr_ref_db_grid=(5.0, 12.5), trials=7,
            seed=3, theta_range=(-0.5, 0.25), r_range=(1.0, 4.5), m_users=2,
            schemes=("joint", "fast"), reference_mode="per-antenna", k=2,
            cluster_gap=5, rho2_fraction=0.6, beta_polar=1.5, z_mu_size=16)
        lines = []
        for f in fields(ScenarioConfig):
            value = getattr(expected, f.name)
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{f.name}={text}")
        cfg = tmp_path / "all.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        values = load_config_file(str(cfg))
        assert set(values) == {f.name for f in fields(ScenarioConfig)}
        assert ScenarioConfig(**values) == expected

    def test_bad_flag_value(self, capsys):
        rc = run(["nmse", "--N", "not-a-number"])
        assert rc == EXIT_CONFIG

    def test_invalid_scenario_range(self, tmp_path, capsys):
        rc = run(["nmse", "--N", "64", "--r-range", "0.001", "9999",
                  "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "r range" in capsys.readouterr().err

    def test_theta_range_outside_unit_interval(self, tmp_path, capsys):
        rc = run(["nmse", "--N", "64", "--theta-range", "-2", "2",
                  "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "theta range" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_config_beta_polar_must_be_positive(self, tmp_path, capsys):
        # rejected even when no scheme of the run builds a polar codebook
        cfg = tmp_path / "b.cfg"
        cfg.write_text("beta_polar=-1\n")
        rc = run(["nmse", "--N", "64", "--trials", "2", "--snr-db", "20",
                  "--schemes", "proposed", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "beta_polar" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_non_finite_snr_rejected(self, tmp_path, capsys):
        rc = run(["nmse", "--N", "64", "--trials", "2", "--snr-db", "nan", "10",
                  "--schemes", "proposed", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "snr_ref_db_grid" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("snr_db", ["4000", "-4000"])
    def test_nmse_extreme_snr_rejected(self, tmp_path, capsys, snr_db):
        # 10^400 overflows a float and 10^-400 underflows to zero
        rc = run(["nmse", "--N", "32", "--trials", "1", "--snr-db", snr_db,
                  "--schemes", "proposed", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "snr_ref_db_grid" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("snr_db", ["4000", "-4000"])
    def test_train_extreme_snr_rejected(self, tmp_path, capsys, snr_db):
        rc = run(["train", "--N", "32", "--theta", "0.1", "--r", "3",
                  "--snr-ref-db", snr_db, "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "reference SNR" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["pattern", "train"])
    def test_infinite_range_rejected(self, tmp_path, capsys, command):
        rc = run([command, "--theta", "0", "--r", "inf", "--N", "64",
                  "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "r must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", list(_UNREAD_FLAGS.values()), ids=list(_UNREAD_FLAGS))
    def test_flags_a_command_does_not_read_are_rejected(self, tmp_path, argv):
        rc = run(argv + ["--N", "64", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert not list(tmp_path.iterdir())

    def test_overhead_reads_schemes(self, tmp_path, capsys):
        rc = run(["overhead", "--N", "64", "--schemes", "joint", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("joint: 67 pilots")

    def test_nmse_ignores_m_users_at_small_n(self, tmp_path):
        # the default m_users = 10 exceeds N = 8, but nmse has no users group
        rc = run(["nmse", "--N", "8", "--trials", "2", "--snr-db", "20",
                  "--schemes", "proposed", "--out", str(tmp_path)])
        assert rc == EXIT_OK

    def test_rate_multi_more_users_than_antennas(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run(["rate-multi", "--N", "8", "--M", "10", "--trials", "2",
                  "--snr-db", "20", "--schemes", "proposed", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "m_users" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_users_scheme_must_be_simulated(self, tmp_path, capsys):
        rc = run(["rate-multi", "--N", "16", "--M", "2", "--trials", "1", "--snr-db", "20",
                  "--schemes", "proposed", "--dump-users", "fast", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "--dump-users scheme 'fast'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_an_empty_polar_grid_is_a_config_error(self, tmp_path, capsys):
        # a huge coherence parameter shrinks every distance ring below
        # the Fresnel cutoff: the input is at fault, exit 2
        rc = run(["codebook-dump", "--kind", "polar", "--N", "64",
                  "--beta-polar", "99", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "beta_polar = 99.0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("beta", ["1e-300", "1e300"])
    def test_a_beta_polar_whose_ring_scale_is_not_finite_is_a_config_error(self, tmp_path,
                                                                          capsys, beta):
        # beta_polar**2 underflows to 0 or overflows: named, not a traceback
        rc = run(["codebook-dump", "--kind", "polar", "--N", "64",
                  "--beta-polar", beta, "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "beta_polar" in err
        assert not list(tmp_path.iterdir())

    def test_a_small_array_with_a_polar_scheme_is_a_config_error(self, tmp_path, capsys):
        # no polar ring survives at N = 8; the default schemes include fast
        # and exhaustive, which need the polar codebook, and the width schemes do not
        rc = run(["nmse", "--N", "8", "--trials", "2", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "N = 8," in err
        assert not list(tmp_path.iterdir())
        for argv in (["pattern", "--N", "8", "--theta", "0", "--r", "0.05"],
                     ["nmse", "--N", "8", "--trials", "2", "--schemes", "proposed,joint"]):
            assert run(argv + ["--out", str(tmp_path)]) == EXIT_OK

    def test_a_small_array_with_a_polar_scheme_fails_before_any_training(self, tmp_path,
                                                                        monkeypatch):
        # the polar codebook is read before the first training, not at fast's first one
        calls = []
        for name in ("proposed_candidates", "joint_candidates", "proposed_training"):
            original = getattr(nfbeam.simharness, name)
            monkeypatch.setattr(nfbeam.simharness, name,
                                lambda *a, _f=original, **kw: calls.append(1) or _f(*a, **kw))
        for argv in (["nmse", "--N", "8", "--trials", "2"], ["overhead", "--N", "8"]):
            assert run(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert calls == []
        assert not list(tmp_path.iterdir())

    def test_linalg_error_is_a_runtime_failure(self, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError subclasses ValueError; it is no config error
        from nfbeam.cli import EXIT_RUNTIME

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(nfbeam.simharness, "multiuser_rate", fail)
        rc = run(["rate-multi", "--N", "16", "--M", "2", "--trials", "1", "--snr-db", "20",
                  "--schemes", "proposed", "--out", str(tmp_path)])
        assert rc == EXIT_RUNTIME
        assert "runtime failure: injected" in capsys.readouterr().err

    def test_all_outage_run_writes_its_csv_and_an_empty_plot(self, tmp_path, capsys,
                                                             monkeypatch):
        # every row an outage is a result, not a config error
        def singular(*args, **kwargs):
            raise SingularChannelError("injected")

        monkeypatch.setattr(nfbeam.simharness, "multiuser_precode", singular)
        rc = run(["rate-multi", "--N", "32", "--M", "2", "--trials", "1", "--snr-db", "10",
                  "--schemes", "proposed", "--svg", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert capsys.readouterr().err == ""
        csv = tmp_path / "rate_multi_N32_seed0.csv"
        lines = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")]
        assert lines[1:] == ["full-csi,10.0,,,,1,,0", "proposed,10.0,,,,1,,0"]
        svg = csv.with_suffix(".svg").read_text()
        assert svg.startswith("<svg") and "<polyline" not in svg
