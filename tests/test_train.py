"""Training pipeline: sample harvesting, histograms, Bayes grid, file format."""

import ctypes
import hashlib
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.ndimage import gaussian_filter

import cora
from cora import (
    GridFormatError,
    PosteriorGrid,
    SymbolWindow,
    TrainConfig,
    TrainingError,
    baseline_detect,
    collect_training_features,
    feature_histogram,
    gen_training_symbol,
    grid_from_samples,
    hpd,
    load_grid,
    pmd,
    save_grid,
    score_bins,
    train,
)
from cora import detector as detector_module
from cora.detector import CHUNK_SAMPLES, TrainingSamples

QUICK_CFG = TrainConfig(n_symbols=2000, seed=3, snr_db=10.0)

# Training windows per chunk at the default 256 bins.
TRAINING_CHUNK = CHUNK_SAMPLES // TrainConfig().n_bins

# A grid file's training-config line, for grids written by hand.
GRID_CONFIG_LINE = (
    "n_bins=256 n_symbols=1000 max_interferers=2 power_range_db=-15,13 "
    "frac_freq_range=0.125 interference_samples_per_symbol=10 snr_db=-1 "
    "grid_resolution=200 smooth_sigma=2 smooth_floor=1e-9 seed=0"
)


class TestFeatureHistogram:
    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        pairs = rng.uniform(0, 1, size=(500, 2))
        hist = feature_histogram(pairs, 50, 2.0, 1e-9)
        npt.assert_allclose(hist.sum(), 1.0, atol=1e-12)
        assert hist.shape == (50, 50)
        assert np.all(hist > 0)  # the floor keeps every cell reachable

    def test_mass_lands_near_samples(self):
        pairs = np.full((100, 2), 0.05)
        hist = feature_histogram(pairs, 20, 1.0, 1e-9)
        assert hist[1, 1] == hist.max()
        assert hist[:4, :4].sum() > 0.9

    def test_no_smoothing_is_pure_binning(self):
        pairs = np.array([[0.225, 0.725]])
        hist = feature_histogram(pairs, 20, 0.0, 1e-12)
        i, j = np.unravel_index(np.argmax(hist), hist.shape)
        assert (i, j) == (4, 14)
        npt.assert_allclose(hist[i, j], 1.0, rtol=1e-9)

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            feature_histogram(np.empty((0, 2)), 20, 2.0, 1e-9)
        with pytest.raises(ValueError):
            feature_histogram(np.array([[0.5, 1.5]]), 20, 2.0, 1e-9)
        with pytest.raises(ValueError):
            feature_histogram(np.array([[0.1, 0.2, 0.3]]), 20, 2.0, 1e-9)

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0, 5.0])
    def test_blur_is_scipy_gaussian_filter_bit_for_bit(self, sigma):
        # Resolutions below the kernel radius (up to 20 cells at sigma 5)
        # reflect the grid more than once on each side.
        rng = np.random.default_rng(int(sigma * 10))
        for res in [*range(1, 41), 200]:
            counts = rng.integers(0, 30, (res, res))
            centres = (np.arange(res) + 0.5) / res
            i, j = np.meshgrid(centres, centres, indexing="ij")
            pairs = np.repeat(np.column_stack([i.ravel(), j.ravel()]), counts.ravel(), axis=0)
            if len(pairs) == 0:
                continue
            want = gaussian_filter(counts.astype(np.float64), sigma=sigma, mode="reflect") + 1e-6
            npt.assert_array_equal(
                feature_histogram(pairs, res, sigma, 1e-6), want / want.sum(), err_msg=f"res {res}"
            )

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, cora.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        env = {**os.environ, "PYTHONPATH": str(Path(cora.__file__).resolve().parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestCollect:
    def test_sample_bookkeeping(self):
        samples = collect_training_features(QUICK_CFG)
        n_kept = len(samples.true_features)
        assert 0 < n_kept < QUICK_CFG.n_symbols
        assert samples.true_features.shape == (n_kept, 2)
        expected_intf = n_kept * QUICK_CFG.interference_samples_per_symbol
        assert samples.interference_features.shape == (expected_intf, 2)
        for arr in (samples.true_features, samples.interference_features):
            assert np.all((arr >= 0) & (arr <= 1))

    def test_deterministic(self):
        a = collect_training_features(QUICK_CFG)
        b = collect_training_features(QUICK_CFG)
        npt.assert_array_equal(a.true_features, b.true_features)
        npt.assert_array_equal(a.interference_features, b.interference_features)

    def test_interference_picks_lean_low_p(self):
        # The interference set keeps the most dangerous bins: its median p
        # must sit well below the median over all-bin noise (which hugs 1).
        samples = collect_training_features(QUICK_CFG)
        assert np.median(samples.interference_features[:, 0]) < 0.9


def per_window_features(cfg, rng):
    """The training loop one window at a time, as before batching: one
    substream, one window and one pmd/hpd call per window, and a 1-D
    argpartition for the interference picks."""
    n_take = cfg.interference_samples_per_symbol
    true_rows, intf_rows = [], []
    for stream in rng.spawn(cfg.n_symbols):
        windows, (true_bin,), _ = gen_training_symbol(cfg, [stream])
        window = SymbolWindow(windows.time_samples[0], windows.magnitudes[0])
        if baseline_detect(window.magnitudes) == true_bin:
            continue
        p = pmd(window.magnitudes, float(np.max(window.magnitudes)))
        h = hpd(window)
        true_rows.append((p[true_bin], h[true_bin]))
        p_others = p.copy()
        p_others[true_bin] = np.inf
        picked = np.argpartition(p_others, n_take)[:n_take]
        intf_rows.extend(zip(p[picked], h[picked]))
    true_arr = np.array(true_rows, dtype=np.float64).reshape(-1, 2)
    intf_arr = np.array(intf_rows, dtype=np.float64).reshape(-1, 2)
    return true_arr, intf_arr, len(true_rows)


class TestChunkedCollect:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_symbols": 100},
            {"n_symbols": TRAINING_CHUNK + 37},
            {"max_interferers": 0, "snr_db": -20.0},
            {"max_interferers": 3},
            {"snr_db": np.inf},
            {"frac_freq_range": 0.0},
            {"n_bins": 8, "interference_samples_per_symbol": 7},
            {"n_bins": 1024, "n_symbols": CHUNK_SAMPLES // 1024 + 37},
        ],
        ids=[
            "below-chunk",
            "chunk-plus-37",
            "no-interferers",
            "three-interferers",
            "inf-snr",
            "integer-bins",
            "n8-all-bins-picked",
            "n1024",
        ],
    )
    def test_matches_per_window_loop(self, overrides):
        cfg = TrainConfig(**{"n_symbols": 300, "seed": 4, **overrides})
        ref_true, ref_intf, ref_kept = per_window_features(cfg, np.random.default_rng(cfg.seed))
        samples = collect_training_features(cfg)
        assert ref_kept > 0
        assert samples.true_features.shape == ref_true.shape == (ref_kept, 2)
        assert samples.interference_features.shape == ref_intf.shape
        assert samples.true_features.tobytes() == ref_true.tobytes()
        assert samples.interference_features.tobytes() == ref_intf.tobytes()

    def test_chunk_without_a_missed_window_gives_no_pairs(self):
        # no interferers at 40 dB: the argmax finds every true bin
        cfg = TrainConfig(max_interferers=0, snr_db=40.0)
        streams = np.random.default_rng(6).spawn(TRAINING_CHUNK)
        true, intf = detector_module._training_chunk(cfg, streams)
        assert true.shape == intf.shape == (0, 2)


def train_on_workers(cfg, workers, monkeypatch, tmp_path):
    """Train with `workers` pool workers: the grid file's bytes, the samples
    and the number of processes forked."""
    monkeypatch.setattr(detector_module, "_worker_count", lambda n_chunks: workers)
    forks = count_forks(monkeypatch)
    samples = collect_training_features(cfg)
    monkeypatch.undo()
    path = tmp_path / f"{workers}-workers.grid"
    save_grid(grid_from_samples(samples, cfg), path)
    return path.read_bytes(), samples, len(forks)


def count_forks(monkeypatch):
    """Note every `os.fork` call this process makes; returns the list of notes."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def running_since(pid):
    """Start time of process `pid` from /proc while it runs; None once it is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state, *fields = stat.read().rsplit(")", 1)[1].split()
    except FileNotFoundError:
        return None
    return None if state == "Z" else fields[18]


class TestTrainingPool:
    # three full chunks and a short one: more chunks than two or three
    # workers, and chunks of two sizes
    CFG = TrainConfig(n_symbols=3 * TRAINING_CHUNK + 37, seed=5, snr_db=10.0)

    def test_worker_count_does_not_show(self, monkeypatch, tmp_path):
        runs = {w: train_on_workers(self.CFG, w, monkeypatch, tmp_path) for w in (1, 2, 3)}
        # one worker runs in this process; more fork that many processes
        assert {w: (run[1].n_workers, run[2]) for w, run in runs.items()} == {
            1: (0, 0),
            2: (2, 2),
            3: (3, 3),
        }
        assert len(runs[1][1].true_features) > 0
        assert runs[1][0] == runs[2][0] == runs[3][0]
        # the pairs themselves come in chunk order (the grid's counts would not show it)
        for name in ("true_features", "interference_features"):
            want = getattr(runs[1][1], name).tobytes()
            assert getattr(runs[2][1], name).tobytes() == getattr(runs[3][1], name).tobytes() == want
        assert multiprocessing.active_children() == []

    def test_first_failing_chunk_raises_and_no_worker_survives(self, monkeypatch):
        generate = detector_module.gen_training_symbol

        def gen_training_symbol(cfg, streams):
            first = streams[0].bit_generator.seed_seq.spawn_key[0]
            if first == TRAINING_CHUNK:
                time.sleep(0.2)  # the last chunk fails first in time
                raise ValueError("middle chunk")
            if first == 2 * TRAINING_CHUNK:
                raise ValueError("last chunk")
            return generate(cfg, streams)

        # workers are forked, so they run the patched generator
        monkeypatch.setattr(detector_module, "gen_training_symbol", gen_training_symbol)
        monkeypatch.setattr(detector_module, "_worker_count", lambda n_chunks: 2)
        cfg = TrainConfig(n_symbols=3 * TRAINING_CHUNK, seed=5)
        forks = count_forks(monkeypatch)
        with pytest.raises(ValueError, match="^middle chunk$"):
            collect_training_features(cfg)
        assert len(forks) == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("has_mallopt", [False, True], ids=["no-mallopt", "recorded"])
    def test_worker_heap_settings(self, has_mallopt, monkeypatch, tmp_path):
        # Each forked worker sets glibc's mmap and trim thresholds, this
        # process never does, and where libc has no mallopt the workers run
        # without; the pairs are those of the parent commit either way.
        log = tmp_path / "mallopt.log"
        log.touch()

        def mallopt(param, value):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {param} {value}\n")
            return 1

        libc = type("Libc", (), {"mallopt": staticmethod(mallopt)} if has_mallopt else {})
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc())
        monkeypatch.setattr(detector_module, "_worker_count", lambda n_chunks: 2)
        samples = collect_training_features(TrainConfig(n_symbols=5000, seed=21, snr_db=10.0))
        assert samples.n_workers == 2
        pairs = samples.true_features.tobytes() + samples.interference_features.tobytes()
        assert hashlib.sha256(pairs).hexdigest() == (
            "341b529053c1ed0ca92f95aad3484d89bac8585ed2fc02645a3e64e77095f008"
        )
        calls = [line.split() for line in log.read_text().splitlines()]
        pids = {pid for pid, _, _ in calls}
        assert len(pids) == (2 if has_mallopt else 0) and str(os.getpid()) not in pids
        want = [[pid, "-3", str(32 << 20)] for pid in pids]
        want += [[pid, "-1", str(1 << 30)] for pid in pids]
        assert sorted(calls) == sorted(want)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_workers_exit_with_a_killed_parent(self):
        # a training parent whose two forked workers print their PIDs and
        # then block in their chunks; one SIGTERM ends the parent. Each PID
        # line is one write, so the two workers' lines cannot interleave
        # (print writes the newline separately when output is unbuffered).
        code = (
            "import os, time\n"
            "from cora import TrainConfig, detector\n"
            "def gen_training_symbol(cfg, streams):\n"
            "    os.write(1, b'%d\\n' % os.getpid())\n"
            "    time.sleep(30)\n"
            "detector._worker_count = lambda n_chunks: 2\n"
            "detector.gen_training_symbol = gen_training_symbol\n"
            f"detector.collect_training_features(TrainConfig(n_symbols={2 * TRAINING_CHUNK}))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cora.__file__).resolve().parents[1])}
        started = {}  # worker PID: its start time, so a reused PID is not mistaken for it

        def alive():
            return [pid for pid, start in started.items() if start and running_since(pid) == start]

        parent = subprocess.Popen(
            [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            for _ in range(2):
                pid = int(parent.stdout.readline())
                started[pid] = running_since(pid)
            assert parent.pid not in started and None not in started.values()
            parent.send_signal(signal.SIGTERM)
            assert parent.wait(timeout=10) == -signal.SIGTERM
            deadline = time.monotonic() + 10
            while alive() and time.monotonic() < deadline:
                time.sleep(0.1)
            assert alive() == []
        finally:
            for pid in alive():
                os.kill(pid, signal.SIGKILL)
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()

    def test_in_process_while_another_thread_runs(self, monkeypatch, tmp_path):
        want = train_on_workers(self.CFG, 1, monkeypatch, tmp_path)[0]
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            got, samples, forks = train_on_workers(self.CFG, 2, monkeypatch, tmp_path)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert (samples.n_workers, forks) == (0, 0)
        assert got == want

    def test_in_process_in_a_daemonic_worker(self, monkeypatch):
        monkeypatch.setattr(detector_module, "_worker_count", lambda n_chunks: 2)
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        forks = count_forks(monkeypatch)
        samples = collect_training_features(self.CFG)
        assert (samples.n_workers, len(forks)) == (0, 0)

    def test_in_process_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        forks = count_forks(monkeypatch)
        samples = collect_training_features(self.CFG)
        assert (samples.n_workers, len(forks)) == (0, 0)


class TestGridFromSamples:
    def test_prior_is_one_eleventh(self):
        samples = collect_training_features(QUICK_CFG)
        grid = grid_from_samples(samples, QUICK_CFG)
        assert grid.prior == 1 / 11

    def test_bayes_identity_cellwise(self):
        samples = collect_training_features(QUICK_CFG)
        grid = grid_from_samples(samples, QUICK_CFG)
        like_true = feature_histogram(
            samples.true_features,
            QUICK_CFG.grid_resolution,
            QUICK_CFG.smooth_sigma,
            QUICK_CFG.smooth_floor,
        )
        like_intf = feature_histogram(
            samples.interference_features,
            QUICK_CFG.grid_resolution,
            QUICK_CFG.smooth_sigma,
            QUICK_CFG.smooth_floor,
        )
        evidence = like_true * grid.prior + like_intf * (1.0 - grid.prior)
        npt.assert_allclose(grid.cells * evidence, like_true * grid.prior, atol=1e-9)

    def test_unreached_cells_sit_near_even_odds(self):
        # With one true sample per ten interference samples, a cell
        # holding only the floor in both histograms scores 1/2: the floor
        # mass is diluted by each class's own total, which cancels the
        # prior imbalance.
        true_f = np.full((200, 2), 0.1)
        intf_f = np.full((2000, 2), 0.9)
        cfg = TrainConfig(n_symbols=400, seed=0)
        grid = grid_from_samples(TrainingSamples(true_f, intf_f), cfg)
        # a lone window's score is its posterior q
        q = score_bins(np.array([0.9]), np.array([0.1]), grid)
        npt.assert_allclose(q, [0.5], atol=1e-3)

    def test_insufficient_windows_rejected(self):
        samples = TrainingSamples(np.full((99, 2), 0.5), np.full((990, 2), 0.5))
        with pytest.raises(TrainingError):
            grid_from_samples(samples, QUICK_CFG)

    def test_train_too_few_symbols(self):
        with pytest.raises(TrainingError):
            train(TrainConfig(n_symbols=10, seed=0))


class TestTrain:
    def test_composes_collect_and_estimate(self):
        grid_a = train(QUICK_CFG)
        grid_b = grid_from_samples(collect_training_features(QUICK_CFG), QUICK_CFG)
        npt.assert_array_equal(grid_a.cells, grid_b.cells)
        assert grid_a.prior == grid_b.prior

    def test_deterministic(self):
        a = train(QUICK_CFG)
        b = train(QUICK_CFG)
        npt.assert_array_equal(a.cells, b.cells)

    def test_grid_is_valid_probability_field(self):
        grid = train(QUICK_CFG)
        assert np.all((grid.cells >= 0) & (grid.cells <= 1))
        assert grid.resolution == QUICK_CFG.grid_resolution
        assert grid.config == QUICK_CFG


def split_grid(path: Path) -> tuple[list[str], bytes]:
    """A grid file's three header lines and the cell bytes after them."""
    *lines, body = path.read_bytes().split(b"\n", 3)
    return [line.decode("utf-8") for line in lines], body


def write_grid(path: Path, lines: list[str], body: bytes) -> None:
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8") + body)


class TestGridFile:
    def test_round_trip_bit_identical(self, tmp_path, detector_grid):
        path = tmp_path / "grid.txt"
        save_grid(detector_grid, path)
        loaded = load_grid(path)
        npt.assert_array_equal(loaded.cells, detector_grid.cells)
        assert loaded.prior == detector_grid.prior
        assert loaded.resolution == detector_grid.resolution
        assert loaded.config == detector_grid.config

    def test_extreme_cells_round_trip_bit_exact(self, tmp_path):
        # both ends, the smallest subnormal and a half, as their bits
        cells = np.array([[0.0, 1.0], [5e-324, 0.5]])
        path = tmp_path / "grid.txt"
        save_grid(PosteriorGrid(2, cells, 0.5, TrainConfig()), path)
        assert split_grid(path)[1] == cells.astype("<f8").tobytes()
        npt.assert_array_equal(load_grid(path).cells.view(np.uint64), cells.view(np.uint64))

    def test_save_is_byte_stable(self, tmp_path, detector_grid):
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_grid(detector_grid, p1)
        save_grid(detector_grid, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_shape(self, tmp_path, detector_grid):
        path = tmp_path / "grid.txt"
        save_grid(detector_grid, path)
        lines, body = split_grid(path)
        assert lines[0] == "CORA-GRID v2"
        assert lines[1].startswith("resolution=200 prior=")
        assert "\r" not in "".join(lines)
        assert body == detector_grid.cells.astype("<f8").tobytes()
        assert len(body) == 8 * 200 * 200

    def test_wrong_version_rejected(self, tmp_path, detector_grid):
        # a v1 grid, decimal rows after the header, fails on its magic
        path = tmp_path / "grid.txt"
        save_grid(detector_grid, path)
        lines, _ = split_grid(path)
        rows = "".join(" ".join(map(repr, row)) + "\n" for row in detector_grid.cells.tolist())
        write_grid(path, ["CORA-GRID v1", *lines[1:]], rows.encode())
        message = f"{path}:1: expected 'CORA-GRID v2', found 'CORA-GRID v1'"
        with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
            load_grid(path)

    def test_truncated_file_rejected(self, tmp_path, detector_grid):
        # one cell short, and one byte past the last cell
        path = tmp_path / "grid.txt"
        save_grid(detector_grid, path)
        lines, body = split_grid(path)
        for found in (len(body) - 8, len(body) + 1):
            write_grid(path, lines, (body + b"\0")[:found])
            message = f"{path}: expected 320000 cell bytes for resolution 200, found {found}"
            with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
                load_grid(path)

    def test_file_cut_in_header_rejected(self, tmp_path, detector_grid):
        path = tmp_path / "grid.txt"
        save_grid(detector_grid, path)
        lines, _ = split_grid(path)
        path.write_bytes("\n".join(lines).encode())
        message = f"{path}: expected 3 header lines, found 2"
        with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
            load_grid(path)

    def test_absurd_resolution_rejected_before_any_array(self, tmp_path, detector_grid):
        path = tmp_path / "grid.txt"
        save_grid(detector_grid, path)
        lines, body = split_grid(path)
        lines[1] = lines[1].replace("resolution=200", "resolution=1000000000")
        write_grid(path, lines, body)
        message = (
            f"{path}: expected 8000000000000000000 cell bytes for resolution 1000000000, "
            "found 320000"
        )
        with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
            load_grid(path)

    def test_garbage_cell_rejected(self, tmp_path, detector_grid):
        # a cell that is no probability, written where cell (4, 3) was
        path = tmp_path / "grid.txt"
        save_grid(detector_grid, path)
        lines, body = split_grid(path)
        at = 8 * (4 * 200 + 3)
        for cell in (np.nan, np.inf, 1.5, -0.5):
            cell_bytes = np.float64(cell).astype("<f8").tobytes()
            write_grid(path, lines, body[:at] + cell_bytes + body[at + 8 :])
            message = f"{path}: cells must be finite probabilities in [0, 1]"
            with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
                load_grid(path)

    @staticmethod
    def _with_header_line(tmp_path, grid, index, edit):
        path = tmp_path / "grid.txt"
        save_grid(grid, path)
        lines, body = split_grid(path)
        lines[index] = edit(lines[index])
        write_grid(path, lines, body)
        return path

    def test_header_line_needs_both_keys_in_any_order(self, tmp_path, detector_grid):
        path = self._with_header_line(
            tmp_path, detector_grid, 1, lambda line: " ".join(reversed(line.split()))
        )
        loaded = load_grid(path)
        assert (loaded.resolution, loaded.prior) == (200, detector_grid.prior)
        path = self._with_header_line(tmp_path, detector_grid, 1, lambda line: line.split()[0])
        message = f"{path}:2: missing key 'prior'"
        with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
            load_grid(path)

    def test_zero_resolution_rejected(self, tmp_path):
        # a 0x0 grid with no cells and a 1x1 grid with one cell; grids start at 2x2
        path = tmp_path / "grid.txt"
        for resolution, cells in ((0, b""), (1, np.float64(0.5).astype("<f8").tobytes())):
            header = ["CORA-GRID v2", f"resolution={resolution} prior=0.5", GRID_CONFIG_LINE]
            write_grid(path, header, cells)
            message = f"{path}: resolution must be >= 2, got {resolution}"
            with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
                load_grid(path)

    def test_unknown_config_token_rejected(self, tmp_path, detector_grid):
        path = self._with_header_line(tmp_path, detector_grid, 2, lambda line: line + " mystery=1")
        message = f"{path}:3: unknown key 'mystery'"
        with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
            load_grid(path)

    def test_duplicate_config_token_rejected(self, tmp_path, detector_grid):
        # as in a config file, a repeated key is an error, not an override
        path = self._with_header_line(
            tmp_path, detector_grid, 2, lambda line: line + " n_symbols=5"
        )
        message = f"{path}:3: duplicate key 'n_symbols'"
        with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
            load_grid(path)
