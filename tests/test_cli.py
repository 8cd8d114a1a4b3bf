"""End-to-end tests for the command-line front end.

Every test drives `cora.cli.main` in-process with an argv list, so exit
codes and printed output are checked exactly as a shell user would see
them. File outputs (grids, CSVs, IQ captures, sidecars) are parsed back
with the package's own readers.
"""

import ast
import csv
import inspect
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cora import channel, cli, detector, harness, phy
from cora.channel import TrainConfig, fields_from_text
from cora.cli import (
    ConfigError,
    IqFormatError,
    main,
    read_config,
    read_iq,
    read_sidecar,
    write_iq,
    write_sidecar,
)
from cora.detector import GridFormatError, PosteriorGrid, load_grid, save_grid, train
from cora.phy import PhyParams, payload_start


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


TRAIN_CFG = """
# quick training run
n_symbols = 1500
snr_db = 10
seed = 1
"""


class TestConfigParsing:
    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("# header\n\n  sf = 8 \nseed=3\n", encoding="utf-8")
        assert read_config(path) == {"sf": "8", "seed": "3"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("sf=8\nsf=9\n", encoding="utf-8")
        try:
            read_config(path)
        except ConfigError as exc:
            assert "duplicate" in str(exc) and ":2:" in str(exc)
        else:
            assert False, "duplicate key accepted"

    def test_missing_separator_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("sf 8\n", encoding="utf-8")
        try:
            read_config(path)
        except ConfigError as exc:
            assert "key=value" in str(exc)
        else:
            assert False, "line without '=' accepted"

    def test_unknown_key_lists_valid_ones(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg", "n_symbols=200\nbogus_knob=1\n")
        rc, _, err = run_cli(
            ["train", "--config", cfg, "--out", str(tmp_path / "g.grid")], capsys
        )
        assert rc == 1
        assert "bogus_knob" in err
        assert "valid keys" in err and "n_symbols" in err

    # Each subcommand's keys as of the one-parser rewrite: the sets derived
    # from dataclass annotations must not shrink or grow unnoticed.
    @pytest.mark.parametrize(
        "command, keys",
        [
            (
                "train",
                "frac_freq_range grid_resolution interference_samples_per_symbol "
                "max_interferers n_bins n_symbols power_range_db seed smooth_floor "
                "smooth_sigma snr_db",
            ),
            (
                "evaluate",
                "bandwidth_hz detector fading frame_error_threshold grid n_frames "
                "n_interferers offset_mode offset_samples preamble_len seed sf sir_db "
                "snr_db symbols_per_frame",
            ),
            ("bench", "bandwidth_hz grid n_iter n_warmup seed sf_list snr_db"),
            (
                "gen-scenario",
                "bandwidth_hz fading n_interferers offset_mode offset_samples "
                "preamble_len seed sf sir_db snr_db symbols_per_frame",
            ),
            ("demod", "detector grid preamble_len sf sidecar"),
        ],
    )
    def test_key_sets_are_pinned(self, tmp_path, capsys, command, keys):
        cfg = write_cfg(tmp_path / "c.cfg", "bogus_knob=1\n")
        if command == "demod":
            argv = ["demod", str(tmp_path / "absent.iq"), "--config", cfg]
        else:
            argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        rc, _, err = run_cli(argv, capsys)
        assert rc == 1
        valid = re.search(r"valid keys: (.*)$", err.strip())
        assert valid, err
        assert valid[1].split(", ") == keys.split()

    # A bad value reads the same from a config file and from a grid file's
    # config line: both go through one parser.
    @pytest.mark.parametrize(
        "key, raw, expected",
        [
            ("n_symbols", "many", "n_symbols: expected an integer, got 'many'"),
            ("smooth_sigma", "wide", "smooth_sigma: expected a number, got 'wide'"),
            ("power_range_db", "-15", "power_range_db: expected 'low,high', got '-15'"),
        ],
        ids=["int", "float", "pair"],
    )
    def test_bad_value_reads_the_same_in_config_and_grid(
        self, tmp_path, capsys, key, raw, expected
    ):
        cfg = write_cfg(tmp_path / "t.cfg", f"{key}={raw}\n")
        rc, _, err = run_cli(["train", "--config", cfg, "--out", str(tmp_path / "t.grid")], capsys)
        assert (rc, err) == (1, f"error: {expected}\n")
        path = tmp_path / "g.grid"
        save_grid(PosteriorGrid(2, np.full((2, 2), 0.5), 0.5, TrainConfig()), path)
        *lines, cells = path.read_bytes().split(b"\n", 3)
        tokens = lines[2].decode("utf-8").split()
        tokens = [f"{key}={raw}" if t.startswith(f"{key}=") else t for t in tokens]
        lines[2] = " ".join(tokens).encode("utf-8")
        path.write_bytes(b"\n".join([*lines, cells]))
        with pytest.raises(GridFormatError) as info:
            load_grid(path)
        assert str(info.value) == f"{path}:3: {expected}"

    # An infinite rate would give zero-length symbols; it fails as a
    # validation error before any campaign or capture is made.
    @pytest.mark.parametrize("command", ["evaluate", "gen-scenario"])
    def test_infinite_bandwidth_is_rejected(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path / "c.cfg", "sf=8\nbandwidth_hz=inf\n")
        out = tmp_path / "out"
        rc, stdout, err = run_cli([command, "--config", cfg, "--out", str(out)], capsys)
        assert (rc, stdout) == (1, "")
        assert err == "error: bandwidth_hz must be finite and positive, got inf\n"
        assert not out.exists()

    # error branches no other test reaches: each exits 1, names its cause
    # and writes nothing
    @pytest.mark.parametrize(
        "command, body, message",
        [
            ("evaluate", "n_frames=2\n", "config must set sf"),
            ("evaluate", "sf=8\nsnr_db=,\n", "snr_db: need at least one value"),
            ("evaluate", "sf=8\nfading=maybe\n", "fading: expected true/false, got 'maybe'"),
            ("bench", "sf_list=,\n", "sf_list: need at least one value"),
            ("demod", "sf=8\n", "missing 'window_start,true_bin' header"),
        ],
        ids=["no-sf", "empty-snr-list", "bad-fading", "empty-sf-list", "sidecar-no-header"],
    )
    def test_error_names_its_cause(self, tmp_path, capsys, command, body, message):
        cfg = write_cfg(tmp_path / "c.cfg", body)
        if command == "demod":
            iq = tmp_path / "cap.iq"
            write_iq(iq, np.zeros(512, dtype=complex), 125e3)
            comment_only = "# interferer offset=0 gain_db=0\n"
            (tmp_path / "cap.iq.truth.csv").write_text(comment_only, encoding="utf-8")
            argv = [command, str(iq), "--config", cfg]
        else:
            argv = [command, "--config", cfg, "--out", str(tmp_path / "out.csv")]
        rc, stdout, err = run_cli(argv, capsys)
        assert (rc, stdout) == (1, "")
        assert err.startswith("error: ") and err.endswith(f"{message}\n")
        assert not (tmp_path / "out.csv").exists()

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        rc, _, err = run_cli(
            ["train", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "g")],
            capsys,
        )
        assert rc == 2
        assert "absent.cfg" in err


class TestTrain:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg", TRAIN_CFG)
        out = tmp_path / "t.grid"
        rc, stdout, _ = run_cli(["train", "--config", cfg, "--out", str(out)], capsys)
        assert rc == 0
        assert "kept " in stdout and "resolution=200" in stdout
        assert f"grid written to {out}" in stdout
        grid = load_grid(out)
        assert grid.resolution == 200
        assert grid.prior == 1.0 / 11.0
        assert np.all(grid.cells >= 0.0) and np.all(grid.cells <= 1.0)

    def test_verbose_reports_time_and_throughput(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg", TRAIN_CFG)
        out = tmp_path / "t.grid"
        argv = ["train", "--config", cfg, "--out", str(out)]
        rc, quiet, _ = run_cli(argv, capsys)
        assert rc == 0
        rc, loud, _ = run_cli(argv + ["--verbose"], capsys)
        assert rc == 0
        first, rest = loud.split("\n", 1)
        match = re.fullmatch(
            r"generated (\d+) windows, kept (\d+) in (\d+\.\d\d) s \((\d+) windows/s\), "
            r"(\d+) worker processes",
            first,
        )
        assert match, first
        kept_line = re.search(r"^kept (\d+)/(\d+) windows;", rest, re.M)
        assert (match[2], match[1]) == kept_line.groups()
        assert int(match[4]) > 0
        # the line the benchmark parses is the same with and without --verbose
        assert rest == quiet

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_verbose_counts_worker_processes(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setattr(detector, "_worker_count", lambda n_chunks: workers)
        cfg = write_cfg(tmp_path / "t.cfg", TRAIN_CFG)
        argv = ["train", "--config", cfg, "--out", str(tmp_path / "t.grid"), "--verbose"]
        rc, loud, _ = run_cli(argv, capsys)
        assert rc == 0
        # one worker runs in the cora process; more are forked
        forked = 0 if workers == 1 else workers
        assert loud.split("\n", 1)[0].endswith(f"windows/s), {forked} worker processes")

    def test_too_few_symbols_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg", "n_symbols=10\nseed=1\n")
        rc, _, err = run_cli(
            ["train", "--config", cfg, "--out", str(tmp_path / "g.grid")], capsys
        )
        assert rc == 1
        assert err.startswith("error:")

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg", TRAIN_CFG)
        out_a, out_b = tmp_path / "a.grid", tmp_path / "b.grid"
        assert run_cli(["train", "--config", cfg, "--out", str(out_a)], capsys)[0] == 0
        assert run_cli(["train", "--config", cfg, "--out", str(out_b)], capsys)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg1 = write_cfg(tmp_path / "s1.cfg", "n_symbols=1500\nsnr_db=10\nseed=1\n")
        cfg2 = write_cfg(tmp_path / "s2.cfg", "n_symbols=1500\nsnr_db=10\nseed=2\n")
        out_flag, out_cfg = tmp_path / "flag.grid", tmp_path / "cfg.grid"
        rc, _, _ = run_cli(
            ["train", "--config", cfg1, "--out", str(out_flag), "--seed", "2"], capsys
        )
        assert rc == 0
        assert run_cli(["train", "--config", cfg2, "--out", str(out_cfg)], capsys)[0] == 0
        assert out_flag.read_bytes() == out_cfg.read_bytes()

    def test_grid_header_reproduces_the_grid(self, tmp_path, capsys):
        # every field off its default, so a field the header drops would show
        cfg = write_cfg(
            tmp_path / "t.cfg",
            "n_bins=128\nn_symbols=1200\nmax_interferers=2\npower_range_db=-10,5\n"
            "frac_freq_range=0.25\ninterference_samples_per_symbol=5\nsnr_db=3.5\n"
            "grid_resolution=50\nsmooth_sigma=1.5\nsmooth_floor=1e-8\nseed=9\n",
        )
        trained, again = tmp_path / "t.grid", tmp_path / "again.grid"
        assert run_cli(["train", "--config", cfg, "--out", str(trained)], capsys)[0] == 0
        save_grid(train(load_grid(trained).config), again)
        assert again.read_bytes() == trained.read_bytes()

    def test_every_config_field_parses_in_config_and_grid_header(self, tmp_path):
        # Config text and the grid header must read back every TrainConfig
        # field, each set off its default so a field either skips shows up.
        cfg = TrainConfig(
            n_bins=128,
            n_symbols=500,
            max_interferers=1,
            power_range_db=(-10.0, 5.0),
            frac_freq_range=0.25,
            interference_samples_per_symbol=5,
            snr_db=3.5,
            grid_resolution=50,
            smooth_sigma=1.5,
            smooth_floor=1e-8,
            seed=9,
        )
        unchanged = [f.name for f in fields(TrainConfig) if getattr(cfg, f.name) == f.default]
        assert not unchanged, f"set these fields off their defaults here: {unchanged}"
        text = {
            key: ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
            for key, value in asdict(cfg).items()
        }
        assert TrainConfig(**fields_from_text(TrainConfig, text)) == cfg
        path = tmp_path / "g.grid"
        save_grid(PosteriorGrid(2, np.full((2, 2), 0.5), 0.5, cfg), path)
        assert load_grid(path).config == cfg


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestEvaluate:
    def test_baseline_noiseless_is_perfect(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", "sf=8\nn_frames=3\nseed=5\n")
        out = tmp_path / "r.csv"
        rc, stdout, _ = run_cli(["evaluate", "--config", cfg, "--out", str(out)], capsys)
        assert rc == 0
        assert "wrote 1 result row(s)" in stdout
        rows = read_rows(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["detector"] == "baseline"
        assert float(row["ser"]) == 0.0
        assert float(row["prr"]) == 1.0
        assert row["snr_db"] == "inf"
        assert row["fading"] == "false"

    def test_snr_sweep_emits_one_row_per_point(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "e.cfg", "sf=8\nn_frames=2\nsnr_db=-10,0,10\nseed=1\n"
        )
        out = tmp_path / "r.csv"
        argv = ["evaluate", "--config", cfg, "--out", str(out), "--verbose"]
        rc, stdout, _ = run_cli(argv, capsys)
        assert rc == 0
        rows = read_rows(out)
        assert [float(r["snr_db"]) for r in rows] == [-10.0, 0.0, 10.0]
        # --verbose: one line per campaign, then the summary
        assert stdout.splitlines() == [
            f"snr={float(r['snr_db'])} detector=baseline "
            f"ser={float(r['ser']):.6g} prr={float(r['prr']):.6g}"
            for r in rows
        ] + [f"wrote 3 result row(s) to {out}"]

    def test_cora_noiseless_is_perfect(self, tmp_path, capsys, detector_grid_file):
        cfg = write_cfg(
            tmp_path / "e.cfg",
            f"sf=8\ndetector=cora\nn_frames=2\nseed=4\ngrid={detector_grid_file}\n",
        )
        out = tmp_path / "r.csv"
        rc, _, _ = run_cli(["evaluate", "--config", cfg, "--out", str(out)], capsys)
        assert rc == 0
        row = read_rows(out)[0]
        assert row["detector"] == "cora"
        assert float(row["ser"]) == 0.0

    def test_cora_without_grid_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", "sf=8\ndetector=cora\nn_frames=2\n")
        rc, _, err = run_cli(
            ["evaluate", "--config", cfg, "--out", str(tmp_path / "r.csv")], capsys
        )
        assert rc == 1
        assert "grid" in err

    def test_missing_grid_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "no-such.grid"
        cfg = write_cfg(
            tmp_path / "e.cfg", f"sf=8\ndetector=cora\nn_frames=2\ngrid={missing}\n"
        )
        rc, _, err = run_cli(
            ["evaluate", "--config", cfg, "--out", str(tmp_path / "r.csv")], capsys
        )
        assert rc == 2
        assert str(missing) in err

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "e.cfg",
            "sf=8\nn_frames=3\nsnr_db=0\nn_interferers=1\nsir_db=-6,0\nseed=9\n",
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["evaluate", "--config", cfg, "--out", str(out_a)], capsys)[0] == 0
        assert run_cli(["evaluate", "--config", cfg, "--out", str(out_b)], capsys)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_stdout_output_redirected_to_a_file_lands_in_it(self, tmp_path, capsys):
        """`cora evaluate --out /dev/stdout > out.csv`: the CSV is written into out.csv."""
        cfg = write_cfg(tmp_path / "e.cfg", "sf=8\nn_frames=2\nseed=5\n")
        argv = ["evaluate", "--config", cfg, "--out", str(tmp_path / "r.csv")]
        assert run_cli(argv, capsys)[0] == 0
        out = tmp_path / "out.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        argv = [sys.executable, "-m", "cora", "evaluate", "--config", cfg, "--out", "/dev/stdout"]
        with open(out, "wb") as fh:  # as a shell's `>` opens it
            subprocess.run(argv, stdout=fh, env=env, check=True)
        # the summary line is printed at stdout's own offset, 0, over the CSV header
        want = (tmp_path / "r.csv").read_text().splitlines()[1:]
        assert out.read_text().splitlines()[-len(want):] == want

    def test_fading_run_marks_column(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "e.cfg", "sf=8\nn_frames=2\nsnr_db=10\nfading=true\nseed=2\n"
        )
        out = tmp_path / "r.csv"
        rc, _, _ = run_cli(["evaluate", "--config", cfg, "--out", str(out)], capsys)
        assert rc == 0
        assert read_rows(out)[0]["fading"] == "true"

    def test_unknown_detector_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", "sf=8\ndetector=magic\nn_frames=2\n")
        rc, _, err = run_cli(
            ["evaluate", "--config", cfg, "--out", str(tmp_path / "r.csv")], capsys
        )
        assert rc == 1
        assert "magic" in err


class TestBench:
    def test_two_sfs_give_four_rows(self, tmp_path, capsys, detector_grid_file):
        cfg = write_cfg(
            tmp_path / "b.cfg",
            f"sf_list=8,10\nn_warmup=5\nn_iter=40\nseed=0\ngrid={detector_grid_file}\n",
        )
        out = tmp_path / "bench.csv"
        argv = ["bench", "--config", cfg, "--out", str(out), "--verbose"]
        rc, stdout, _ = run_cli(argv, capsys)
        assert rc == 0
        rows = read_rows(out)
        assert [r["sf"] for r in rows] == ["8", "8", "10", "10"]
        assert [r["detector"] for r in rows] == ["baseline", "cora"] * 2
        # --verbose: one line per row with its total stage time, then the summary
        stages = ("t_dechirp_s", "t_features_s", "t_classifier_s", "t_argmax_s")
        assert stdout.splitlines() == [
            f"sf={r['sf']} detector={r['detector']} "
            f"total={sum(float(r[s]) for s in stages) * 1e6:.2f} us/symbol"
            for r in rows
        ] + [f"wrote 4 bench row(s) to {out}"]
        for row in rows:
            assert float(row["t_dechirp_s"]) > 0.0
            assert float(row["t_argmax_s"]) > 0.0
        # the baseline rows spend no time in the feature or classifier stages
        assert float(rows[0]["t_features_s"]) == 0.0
        assert float(rows[1]["t_features_s"]) > 0.0

    def test_bench_requires_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "b.cfg", "sf_list=8\nn_iter=10\n")
        rc, _, err = run_cli(
            ["bench", "--config", cfg, "--out", str(tmp_path / "b.csv")], capsys
        )
        assert rc == 1
        assert "grid" in err

    def test_bad_iteration_count_fails(self, tmp_path, capsys, detector_grid_file):
        cfg = write_cfg(
            tmp_path / "b.cfg", f"sf_list=8\nn_iter=0\ngrid={detector_grid_file}\n"
        )
        rc, _, _ = run_cli(
            ["bench", "--config", cfg, "--out", str(tmp_path / "b.csv")], capsys
        )
        assert rc == 1


GEN_CFG = """
sf = 8
symbols_per_frame = 10
preamble_len = 8
n_interferers = 0
seed = 3
"""


class TestGenScenario:
    def test_noiseless_frame_layout(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "g.cfg", GEN_CFG)
        out = tmp_path / "cap.iq"
        rc, stdout, _ = run_cli(["gen-scenario", "--config", cfg, "--out", str(out)], capsys)
        assert rc == 0
        samples, fs = read_iq(out)
        # preamble 8 + 2 sync + 2.25 downchirps + 10 payload symbols of 256
        assert samples.shape == (int(22.25 * 256),)
        assert fs == 125e3
        assert f"wrote {samples.size} samples" in stdout
        rows, interferers = read_sidecar(str(out) + ".truth.csv")
        assert interferers == []
        starts = [s for s, _ in rows]
        assert starts == [3136 + 256 * k for k in range(10)]
        assert all(0 <= b < 256 for _, b in rows)

    def test_interferer_comments_in_sidecar(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "g.cfg",
            "sf=8\nsymbols_per_frame=6\nn_interferers=2\nsir_db=-6,0\nsnr_db=10\nseed=7\n",
        )
        out = tmp_path / "cap.iq"
        rc, _, _ = run_cli(["gen-scenario", "--config", cfg, "--out", str(out)], capsys)
        assert rc == 0
        _, interferers = read_sidecar(str(out) + ".truth.csv")
        assert len(interferers) == 2
        for offset, gain_db in interferers:
            assert offset > 0
            assert np.isfinite(gain_db)

    def test_same_seed_reproduces_bytes(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "g.cfg",
            "sf=8\nsymbols_per_frame=6\nn_interferers=1\nsnr_db=5\nseed=11\n",
        )
        out_a, out_b = tmp_path / "a.iq", tmp_path / "b.iq"
        assert run_cli(["gen-scenario", "--config", cfg, "--out", str(out_a)], capsys)[0] == 0
        assert run_cli(["gen-scenario", "--config", cfg, "--out", str(out_b)], capsys)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (
            (tmp_path / "a.iq.truth.csv").read_bytes()
            == (tmp_path / "b.iq.truth.csv").read_bytes()
        )

    def test_capture_is_frame_zero_of_the_campaign(self, tmp_path, capsys, monkeypatch):
        text = "sf=8\nsymbols_per_frame=6\nn_interferers=1\nsir_db=-6,0\nsnr_db=10\nfading=true\n"
        gen_cfg = write_cfg(tmp_path / "g.cfg", text + "seed=13\n")
        out = tmp_path / "cap.iq"
        assert run_cli(["gen-scenario", "--config", gen_cfg, "--out", str(out)], capsys)[0] == 0
        chunks = []
        simulate = harness.simulate_frame

        def simulate_frame(cfg, streams):
            chunks.append(simulate(cfg, streams))
            return chunks[-1]

        monkeypatch.setattr(harness, "simulate_frame", simulate_frame)
        campaign = write_cfg(tmp_path / "c.cfg", text + "n_frames=5\nseed=13\n")
        argv = ["evaluate", "--config", campaign, "--out", str(tmp_path / "c.csv")]
        assert run_cli(argv, capsys)[0] == 0
        [(samples, payloads, placements)] = chunks  # five frames make one chunk
        assert samples.shape[0] == 5
        captured, _ = read_iq(out)
        assert captured.tobytes() == samples[0].astype(np.complex64).astype(complex).tobytes()
        rows, interferers = read_sidecar(str(out) + ".truth.csv")
        assert [b for _, b in rows] == payloads[0].tolist()
        assert interferers == placements[0]


class TestDemod:
    def gen_clean_capture(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "g.cfg", GEN_CFG)
        out = tmp_path / "cap.iq"
        rc, _, _ = run_cli(["gen-scenario", "--config", cfg, "--out", str(out)], capsys)
        assert rc == 0
        return out

    @staticmethod
    def parse_demod(stdout):
        lines = stdout.strip().splitlines()
        assert lines[0] == "window_start,detected_bin,score"
        rows = []
        for line in lines[1:]:
            start, bin_, score = line.split(",")
            rows.append((int(start), int(bin_), float(score)))
        return rows

    def test_baseline_round_trip(self, tmp_path, capsys):
        iq = self.gen_clean_capture(tmp_path, capsys)
        cfg = write_cfg(tmp_path / "d.cfg", "sf=8\n")
        rc, stdout, _ = run_cli(["demod", str(iq), "--config", cfg], capsys)
        assert rc == 0
        got = self.parse_demod(stdout)
        truth, _ = read_sidecar(str(iq) + ".truth.csv")
        assert [(s, b) for s, b, _ in got] == truth
        for _, _, score in got:
            # baseline scores are raw peak magnitudes, a full tone here
            assert abs(score - 256.0) < 1e-6

    def test_cora_round_trip(self, tmp_path, capsys, detector_grid_file):
        iq = self.gen_clean_capture(tmp_path, capsys)
        cfg = write_cfg(tmp_path / "d.cfg", "sf=8\ndetector=cora\n")
        rc, stdout, _ = run_cli(
            ["demod", str(iq), "--config", cfg, "--grid", str(detector_grid_file)],
            capsys,
        )
        assert rc == 0
        got = self.parse_demod(stdout)
        truth, _ = read_sidecar(str(iq) + ".truth.csv")
        assert [(s, b) for s, b, _ in got] == truth
        for _, _, score in got:
            assert 0.0 <= score <= 1.0

    def test_verbose_is_not_an_option(self, tmp_path, capsys):
        # neither command prints anything extra, so neither takes the flag
        iq = self.gen_clean_capture(tmp_path, capsys)
        cfg = write_cfg(tmp_path / "d.cfg", "sf=8\n")
        rc, stdout, err = run_cli(["demod", str(iq), "--config", cfg, "--verbose"], capsys)
        assert (rc, stdout) == (1, "") and "--verbose" in err
        gen = write_cfg(tmp_path / "g.cfg", GEN_CFG)
        argv = ["gen-scenario", "--config", gen, "--out", str(tmp_path / "v.iq"), "--verbose"]
        rc, _, err = run_cli(argv, capsys)
        assert rc == 1 and "--verbose" in err
        assert not (tmp_path / "v.iq").exists()

    def test_cora_needs_grid(self, tmp_path, capsys):
        iq = self.gen_clean_capture(tmp_path, capsys)
        cfg = write_cfg(tmp_path / "d.cfg", "sf=8\ndetector=cora\n")
        rc, _, err = run_cli(["demod", str(iq), "--config", cfg], capsys)
        assert rc == 1
        assert "grid" in err

    def test_truncated_iq_names_byte_offset(self, tmp_path, capsys):
        iq = self.gen_clean_capture(tmp_path, capsys)
        data = iq.read_bytes()
        iq.write_bytes(data[:-4])
        cfg = write_cfg(tmp_path / "d.cfg", "sf=8\n")
        rc, _, err = run_cli(["demod", str(iq), "--config", cfg], capsys)
        assert rc == 1
        assert "byte" in err and str(len(data) - 4) in err

    def test_bad_magic_rejected(self, tmp_path, capsys):
        iq = tmp_path / "junk.iq"
        iq.write_bytes(b"JUNK v9 fs=125000 n=0\n")
        cfg = write_cfg(tmp_path / "d.cfg", "sf=8\n")
        rc, _, err = run_cli(["demod", str(iq), "--config", cfg], capsys)
        assert rc == 1
        assert "header" in err

    def test_missing_sidecar_is_io_error(self, tmp_path, capsys):
        iq = self.gen_clean_capture(tmp_path, capsys)
        (tmp_path / "cap.iq.truth.csv").unlink()
        cfg = write_cfg(tmp_path / "d.cfg", "sf=8\n")
        rc, _, err = run_cli(["demod", str(iq), "--config", cfg], capsys)
        assert rc == 2
        assert "truth.csv" in err

    def test_sidecar_key_overrides_default_path(self, tmp_path, capsys):
        iq = self.gen_clean_capture(tmp_path, capsys)
        moved = tmp_path / "elsewhere.csv"
        (tmp_path / "cap.iq.truth.csv").rename(moved)
        cfg = write_cfg(tmp_path / "d.cfg", f"sf=8\nsidecar={moved}\n")
        rc, stdout, _ = run_cli(["demod", str(iq), "--config", cfg], capsys)
        assert rc == 0
        assert len(self.parse_demod(stdout)) == 10

    @pytest.mark.parametrize("detector", ["baseline", "cora"])
    def test_non_finite_sample_rejected(self, tmp_path, capsys, detector_grid_file, detector):
        # NaN in the real part of the first sample of the third payload window
        iq = self.gen_clean_capture(tmp_path, capsys)
        data = bytearray(iq.read_bytes())
        header = data.index(b"\n") + 1
        bad = payload_start(8, PhyParams(sf=8)) + 2 * 256
        data[header + 8 * bad : header + 8 * bad + 4] = np.array([np.nan], dtype="<f4").tobytes()
        iq.write_bytes(bytes(data))
        cfg = write_cfg(tmp_path / "d.cfg", f"sf=8\ndetector={detector}\n")
        grid = ["--grid", str(detector_grid_file)] if detector == "cora" else []
        rc, stdout, err = run_cli(["demod", str(iq), "--config", cfg, *grid], capsys)
        assert rc == 1
        assert stdout == ""
        assert f"sample {bad} is not finite" in err

    def test_window_outside_stream_rejected(self, tmp_path, capsys):
        iq = self.gen_clean_capture(tmp_path, capsys)
        sidecar = tmp_path / "cap.iq.truth.csv"
        cfg = write_cfg(tmp_path / "d.cfg", "sf=8\n")
        for start in (999999, -5):
            sidecar.write_text(f"window_start,true_bin\n{start},0\n", encoding="utf-8")
            rc, stdout, err = run_cli(["demod", str(iq), "--config", cfg], capsys)
            assert (rc, stdout) == (1, "")
            assert err == (
                f"error: {iq}, {sidecar}: window at {start} "
                "falls outside the 5696-sample stream\n"
            )

    def test_cora_capture_shorter_than_preamble_rejected(
        self, tmp_path, capsys, detector_grid_file
    ):
        # the one window lies inside the capture, whose preamble is cut short
        iq = self.gen_clean_capture(tmp_path, capsys)
        sidecar = tmp_path / "cap.iq.truth.csv"
        samples, fs = read_iq(iq)
        write_iq(iq, samples[: 8 * 256 - 1], fs)
        sidecar.write_text("window_start,true_bin\n0,0\n", encoding="utf-8")
        cfg = write_cfg(tmp_path / "d.cfg", "sf=8\ndetector=cora\n")
        rc, stdout, err = run_cli(
            ["demod", str(iq), "--config", cfg, "--grid", str(detector_grid_file)], capsys
        )
        assert (rc, stdout) == (1, "")
        assert err == (
            f"error: {iq}, {sidecar}: a 2047-sample stream is too short for a 8-symbol preamble\n"
        )

    def test_silent_cora_capture_names_its_files(self, tmp_path, capsys, detector_grid_file):
        # an all-zero capture has no preamble peak to calibrate p against
        iq = tmp_path / "silent.iq"
        sidecar = tmp_path / "silent.iq.truth.csv"
        write_iq(iq, np.zeros(16 * 128, dtype=np.complex128), 125000.0)
        sidecar.write_text(f"window_start,true_bin\n{8 * 128},0\n", encoding="utf-8")
        cfg = write_cfg(tmp_path / "d.cfg", "sf=7\ndetector=cora\n")
        rc, stdout, err = run_cli(
            ["demod", str(iq), "--config", cfg, "--grid", str(detector_grid_file)], capsys
        )
        assert (rc, stdout) == (1, "")
        assert err == (
            f"error: {iq}, {sidecar}: expected_peak must be finite and positive, got [[0.]]\n"
        )

    @pytest.mark.parametrize(
        "fields",
        ["fs=125000 n=0", "fs=0 n=5696", "fs=nan n=5696", "fs=inf n=5696"],
        ids=["empty", "zero-rate", "nan-rate", "inf-rate"],
    )
    def test_header_needs_positive_rate_and_count(self, tmp_path, capsys, fields):
        iq = self.gen_clean_capture(tmp_path, capsys)
        data = iq.read_bytes()
        iq.write_bytes(f"CORA-IQ v1 {fields}".encode() + data[data.index(b"\n") :])
        cfg = write_cfg(tmp_path / "d.cfg", "sf=8\n")
        rc, stdout, err = run_cli(["demod", str(iq), "--config", cfg], capsys)
        assert (rc, stdout) == (1, "")
        assert err.startswith(f"error: {iq}: header needs 0 < fs < inf and n >= 1"), err

    @pytest.mark.parametrize("target", ["config", "sidecar", "grid"])
    def test_non_utf8_file_is_named(self, tmp_path, capsys, detector_grid_file, target):
        # a byte that is no UTF-8 fails as that file's format error
        iq = self.gen_clean_capture(tmp_path, capsys)
        cfg = tmp_path / "d.cfg"
        cfg.write_text("sf=8\ndetector=cora\n", encoding="utf-8")
        grid = tmp_path / "copy.grid"
        grid.write_bytes(detector_grid_file.read_bytes())
        path = {"config": cfg, "sidecar": tmp_path / "cap.iq.truth.csv", "grid": grid}[target]
        # at the end of the first line: a grid decodes its header lines only
        data = path.read_bytes()
        at = data.index(b"\n")
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        rc, stdout, err = run_cli(
            ["demod", str(iq), "--config", str(cfg), "--grid", str(grid)], capsys
        )
        assert (rc, stdout) == (1, "")
        assert err == f"error: {path}: not UTF-8 text (byte {at})\n"


class TestFileRoundTrips:
    def test_iq_survives_float32_quantisation(self, tmp_path):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=512) + 1j * rng.normal(size=512)
        path = tmp_path / "x.iq"
        write_iq(path, samples, 125e3)
        back, fs = read_iq(path)
        expected = samples.real.astype(np.float32).astype(np.float64) + 1j * samples.imag.astype(
            np.float32
        ).astype(np.float64)
        assert fs == 125e3
        assert back.dtype == np.complex128
        assert np.array_equal(back, expected)

    def test_iq_header_count_mismatch(self, tmp_path):
        path = tmp_path / "x.iq"
        write_iq(path, np.ones(16, dtype=complex), 125e3)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"n=16", b"n=17"))
        try:
            read_iq(path)
        except IqFormatError as exc:
            assert "payload bytes" in str(exc)
        else:
            assert False, "length mismatch accepted"

    def test_signalling_nan_sample_rejected(self, tmp_path):
        # a signalling NaN warns when cast to float64; the suite turns warnings into errors
        path = tmp_path / "x.iq"
        write_iq(path, np.ones(16, dtype=complex), 125e3)
        data = bytearray(path.read_bytes())
        data[-12:-8] = np.array([0x7F800001], dtype="<u4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(IqFormatError, match=r": sample 14 is not finite$"):
            read_iq(path)

    def test_sidecar_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_sidecar(path, [0, 256, 512], [5, 0, 255], [(153, -3.0), (40, 2.5)])
        rows, interferers = read_sidecar(path)
        assert rows == [(0, 5), (256, 0), (512, 255)]
        assert interferers == [(153, -3.0), (40, 2.5)]

    @pytest.mark.parametrize(
        "tokens, problem",
        [
            ("fs=125000 fs=125000 n=16", "duplicate key 'fs'"),
            ("fs=125000 n=16 gain=1", "unknown key 'gain'"),
            ("fs=125000 n=16 gain", "expected key=value, got 'gain'"),
            ("fs=125000", "missing key 'n'"),
        ],
        ids=["repeated", "unknown", "no-equals", "missing"],
    )
    def test_iq_header_tokens_rejected(self, tmp_path, tokens, problem):
        path = tmp_path / "x.iq"
        write_iq(path, np.ones(16, dtype=complex), 125e3)
        data = path.read_bytes()
        header = f"CORA-IQ v1 {tokens}"
        path.write_bytes(header.encode() + data[data.index(b"\n") :])
        with pytest.raises(IqFormatError) as info:
            read_iq(path)
        assert str(info.value) == f"{path}: bad header {header!r}: {problem}"

    def test_iq_header_token_order_is_free(self, tmp_path):
        path = tmp_path / "x.iq"
        write_iq(path, np.ones(16, dtype=complex), 125e3)
        path.write_bytes(path.read_bytes().replace(b"fs=125000 n=16", b"n=16 fs=125000"))
        samples, fs = read_iq(path)
        assert (samples.size, fs) == (16, 125e3)

    @pytest.mark.parametrize(
        "comment, problem",
        [
            ("offset=5 gain_db=1 offset=9", "duplicate key 'offset'"),
            ("offset=5 gain_db=1 bogus=2", "unknown key 'bogus'"),
            ("offset=5 gain_db=1 bogus", "expected key=value, got 'bogus'"),
            ("offset=5", "missing key 'gain_db'"),
        ],
        ids=["repeated", "unknown", "no-equals", "missing"],
    )
    def test_sidecar_interferer_comment_sets_each_key_once(self, tmp_path, comment, problem):
        path = tmp_path / "t.csv"
        path.write_text(f"# interferer {comment}\nwindow_start,true_bin\n0,5\n", encoding="utf-8")
        with pytest.raises(IqFormatError) as info:
            read_sidecar(path)
        assert str(info.value) == f"{path}:1: bad interferer comment: {problem}"

    def test_sidecar_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("start,bin\n0,5\n", encoding="utf-8")
        try:
            read_sidecar(path)
        except IqFormatError as exc:
            assert "window_start,true_bin" in str(exc)
        else:
            assert False, "bad header accepted"


def byte_edits(limit: int):
    """One to three (offset, value) byte replacements within the first `limit` bytes."""
    return st.lists(
        st.tuples(st.integers(0, limit - 1), st.integers(0, 255)), min_size=1, max_size=3
    )


def edited(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for offset, value in edits:
        out[offset] = value
    return bytes(out)


class TestCorruptedFiles:
    # A corrupted grid, capture, sidecar or config either still parses or
    # raises the reader's documented error, which the CLI turns into exit
    # code 1. Each original is at least 300 bytes, the reach of the edits.
    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("corrupted")
        grid = PosteriorGrid(8, np.linspace(0.05, 0.95, 64).reshape(8, 8), 0.1, TrainConfig())
        save_grid(grid, folder / "a.grid")
        write_iq(folder / "a.iq", np.exp(1j * np.arange(64) / 3.0), 125e3)
        starts = [3136 + 256 * k for k in range(30)]
        write_sidecar(folder / "a.csv", starts, list(range(30)), [(153, -3.0), (40, 2.5)])
        (folder / "a.cfg").write_text(
            "# collision campaign\n\nsf = 8\nbandwidth_hz = 125000\nn_frames = 200\n"
            "symbols_per_frame = 20\nsnr_db = 0, 5, 10\nn_interferers = 1\nsir_db = -6,0\n"
            "offset_mode = random\nfading = false\ndetector = cora\ngrid = collisions.grid\n"
            "# frames with at most two symbol errors still count as received\n"
            "frame_error_threshold = 2\nseed = 42\n",
            encoding="utf-8",
        )
        return folder

    @pytest.mark.parametrize(
        "kind, read, error",
        [
            ("grid", load_grid, GridFormatError),
            ("iq", read_iq, IqFormatError),
            ("csv", read_sidecar, IqFormatError),
            ("cfg", read_config, ConfigError),
        ],
        ids=["grid", "capture", "sidecar", "config"],
    )
    @settings(max_examples=300, deadline=None, database=None)
    @given(edits=byte_edits(300))
    def test_reads_or_raises_format_error(self, originals, kind, read, error, edits):
        data = (originals / f"a.{kind}").read_bytes()
        assert len(data) >= 300
        path = originals / f"edited.{kind}"
        path.write_bytes(edited(data, edits))
        try:
            read(path)
        except error:
            pass


class TestSnrRule:
    # -inf dB sets no noise level; every subcommand that takes an SNR
    # rejects it as a validation error.
    @pytest.mark.parametrize("command", ["train", "evaluate", "gen-scenario", "bench"])
    def test_minus_inf_snr_is_rejected(self, tmp_path, capsys, detector_grid_file, command):
        text = {
            "train": "n_symbols=1500\n",
            "evaluate": "sf=8\nn_frames=2\n",
            "gen-scenario": "sf=8\n",
            "bench": f"sf_list=8\nn_iter=40\ngrid={detector_grid_file}\n",
        }[command]
        cfg = write_cfg(tmp_path / "c.cfg", text + "snr_db=-inf\n")
        rc, _, err = run_cli([command, "--config", cfg, "--out", str(tmp_path / "out")], capsys)
        assert rc == 1
        assert err.startswith("error: snr_db "), err

    # 10^(snr_db/10) overflows a double above about 3,082 dB and its
    # reciprocal does below about -3,082 dB, so neither sets a noise level.
    @pytest.mark.parametrize("snr", ["4000", "-4000"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_unrepresentable_snr_is_rejected(self, tmp_path, capsys, command, snr):
        text = {"train": "n_symbols=1500\n", "evaluate": "sf=8\nn_frames=2\n"}[command]
        cfg = write_cfg(tmp_path / "c.cfg", text + f"snr_db={snr}\n")
        out = tmp_path / "out"
        rc, stdout, err = run_cli([command, "--config", cfg, "--out", str(out)], capsys)
        assert (rc, stdout) == (1, "")
        assert err.startswith("error: snr_db "), err
        assert "Traceback" not in err
        assert not out.exists()


class TestRangeRule:
    # A (low, high) dB range is drawn from uniformly and each draw sets a
    # gain, so each end must be finite within the SNR rule's ±3,082 dB, and
    # the smoothing knobs must be finite. Each fails as a validation error
    # before any window or frame is drawn.
    @pytest.mark.parametrize(
        "command, line",
        [
            ("evaluate", "sir_db=nan,nan"),
            ("evaluate", "sir_db=-inf,0"),
            ("evaluate", "sir_db=-1e308,1e308"),
            ("train", "power_range_db=nan,nan"),
            ("train", "power_range_db=-inf,0"),
            ("train", "power_range_db=-1e308,1e308"),
            # ends whose power ratio overflows: the gain drawn between them would too
            ("evaluate", "sir_db=-100000,-99999"),
            ("train", "power_range_db=0,7000"),
            ("train", "smooth_sigma=inf"),
            ("train", "smooth_floor=inf"),
        ],
    )
    def test_non_finite_value_is_rejected(self, tmp_path, capsys, command, line):
        text = {"train": "n_symbols=1500\n", "evaluate": "sf=8\nn_frames=2\nn_interferers=1\n"}
        cfg = write_cfg(tmp_path / "c.cfg", text[command] + line + "\n")
        out = tmp_path / "out"
        rc, stdout, err = run_cli([command, "--config", cfg, "--out", str(out)], capsys)
        assert (rc, stdout) == (1, "")
        key = line.partition("=")[0]
        assert err.startswith(f"error: {key} must be finite"), err
        assert err.count("\n") == 1, err
        assert not out.exists()


class TestSeedRule:
    # numpy's SeedSequence takes no negative entropy; the configs say so by key
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_negative_seed_is_rejected(self, tmp_path, capsys, command):
        text = {"train": "n_symbols=1500\n", "evaluate": "sf=8\nn_frames=2\n"}[command]
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        rc, stdout, err = run_cli(
            [command, "--config", cfg, "--out", str(out), "--seed", "-1"], capsys
        )
        assert (rc, stdout) == (1, "")
        assert err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


README = Path(__file__).resolve().parent.parent / "README.md"

# The subcommand that reads each config file the README shows.
README_COMMANDS = {
    "train.cfg": "train",
    "campaign.cfg": "evaluate",
    "bench.cfg": "bench",
    "scenario.cfg": "gen-scenario",
}


class Parsed(Exception):
    """Raised in place of the work a subcommand starts once its config has parsed."""


def stop(*args, **kwargs):
    raise Parsed


class TestReadmeConfigs:
    @pytest.mark.parametrize(
        "name, body",
        [
            pytest.param(name, body, id=name)
            for name, body in re.findall(
                r"```\n# (\S+\.cfg)\n(.*?)```", README.read_text(encoding="utf-8"), re.S
            )
        ],
    )
    def test_documented_config_parses(self, tmp_path, capsys, monkeypatch, name, body):
        for work in ("collect_training_features", "run_experiment", "bench_stages", "map_chunks"):
            monkeypatch.setattr(cli, work, stop)
        grid = PosteriorGrid(2, np.full((2, 2), 0.5), 0.5, TrainConfig())
        monkeypatch.setattr(cli, "load_grid", lambda path: grid)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "collisions.grid").touch()
        cfg = write_cfg(tmp_path / name, body)
        try:
            rc = main([README_COMMANDS[name], "--config", cfg, "--out", str(tmp_path / "out")])
        except Parsed:
            return
        pytest.fail(f"{name} exits {rc}: {capsys.readouterr().err}")


class TestReadmeReferences:
    def test_code_references_resolve(self):
        # backticked spans of the prose, outside fenced blocks, each joined onto one line
        prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
        spans = [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]
        modules = (phy, channel, detector, harness, cli)
        layers = {module.__name__.split(".")[-1]: module for module in modules}
        pattern = r"\b(phy|channel|detector|harness|cli)\.(\w+)(\([^)]*\))?"
        seen = {"names": 0, "calls": 0, "tests": 0}
        for span in spans:
            for layer, name, call in re.findall(pattern, span):
                assert hasattr(layers[layer], name), f"`{span}`: {layer}.{name} does not exist"
                seen["names"] += 1
                if call:
                    listed = [arg.strip() for arg in call[1:-1].split(",") if arg.strip()]
                    params = list(inspect.signature(getattr(layers[layer], name)).parameters)
                    assert params[: len(listed)] == listed, f"`{span}`: {name} takes {params}"
                    seen["calls"] += 1
            for ref in re.findall(r"tests/\w+\.py(?:::\w+)*", span):
                path, *names = ref.split("::")
                scope = ast.parse((README.parent / path).read_text(encoding="utf-8")).body
                for name in names:
                    found = [
                        node
                        for node in scope
                        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
                    ]
                    assert found, f"`{span}`: {name} is not defined in {path}"
                    scope = found[0].body
                seen["tests"] += 1
        assert all(seen.values()), f"README shows no reference of some kind: {seen}"


class TestEntryPoint:
    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_no_subcommand_fails(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_fails(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_one_parser_keeps_no_flags_between_calls(self):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        common = ["evaluate", "--config", "a.cfg", "--out", "b.csv"]
        first = parser.parse_args([*common, "--grid", "g", "--seed", "3", "--detector", "cora"])
        second = parser.parse_args(common)
        assert (first.grid, first.seed, first.detector) == ("g", 3, "cora")
        assert (second.grid, second.seed, second.detector) == (None, None, None)
