"""Feature extractors, posterior lookup, the two-window classifier and the chunk runner."""

import multiprocessing
import os
import threading
import time
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cora import (
    PhyParams,
    PosteriorGrid,
    TrainConfig,
    baseline_detect,
    classify,
    clipped_tone,
    compose_collision,
    dechirp,
    detect_symbol,
    feature_histogram,
    hpd,
    modulate_symbol,
    pmd,
    score_bins,
)
from cora import detector as detector_module
from cora.detector import CHUNK_SAMPLES, map_chunks
from cora.phy import SymbolWindow
from oracles import hpd_identity_error


def tone_window(freq_bins: float, n: int, amp: float = 1.0, phase: float = 0.0,
                start: int = 0, stop: int | None = None) -> SymbolWindow:
    samples = clipped_tone(freq_bins, amp, phase, start, n if stop is None else stop, n)
    return SymbolWindow(samples, np.abs(np.fft.fft(samples)))


def random_window(rng: np.random.Generator, n: int) -> SymbolWindow:
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SymbolWindow(samples, np.abs(np.fft.fft(samples)))


def tiny_grid(cells, prior=0.5) -> PosteriorGrid:
    cells = np.asarray(cells, dtype=np.float64)
    cfg = TrainConfig(
        n_bins=4,
        n_symbols=1,
        interference_samples_per_symbol=3,
        grid_resolution=cells.shape[0],
    )
    return PosteriorGrid(cells.shape[0], cells, prior, cfg)


class TestPmd:
    def test_formula_values(self):
        ep = 8.0
        mags = np.array([8.0, 0.0, 16.0, 4.0, 20.0])
        npt.assert_allclose(pmd(mags, ep), [0.0, 1.0, 1.0, 0.5, 1.0])

    def test_true_bin_scores_zero_on_clean_symbol(self):
        phy = PhyParams(sf=8)
        win = dechirp(modulate_symbol(33, phy), phy)
        p = pmd(win.magnitudes, float(phy.n))
        assert p[33] < 1e-9
        assert np.all(p >= 0) and np.all(p <= 1)

    def test_per_row_expected_peak(self):
        mags = np.array([[8.0, 0.0, 16.0, 4.0], [2.0, 1.0, 3.0, 6.0]])
        p = pmd(mags, np.array([[8.0], [2.0]]))
        npt.assert_allclose(p, [[0.0, 1.0, 1.0, 0.5], [0.0, 0.5, 0.5, 1.0]])
        for row, peak in enumerate((8.0, 2.0)):
            assert p[row].tobytes() == pmd(mags[row], peak).tobytes()

    def test_rejects_any_bad_expected_peak_entry(self):
        mags = np.ones((2, 4))
        for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="expected_peak"):
                pmd(mags, np.array([[1.0], [bad]]))
            with pytest.raises(ValueError, match="expected_peak"):
                pmd(mags, bad)


class TestHpd:
    def test_complete_tone_nulls_its_bin(self):
        n = 256
        for m in (0, 1, 2, 17, 128, 255):
            h = hpd(tone_window(float(m), n))
            assert h[m] < 1e-9, f"bin {m}: h={h[m]}"

    def test_half_window_tone_maxes_out(self):
        # A tone filling only the first half leaves x unchanged under the
        # mask on its support, so |Y| == |X| everywhere and h == 1.
        n = 256
        win = tone_window(40.0, n, stop=n // 2)
        h = hpd(win)
        npt.assert_allclose(h[40], 1.0)

    def test_eighth_bin_deviation_value(self):
        # A complete tone off its bin centre by 1/8 leaves a residue with
        # a closed-form ratio tan(pi/16) at the nearest bin.
        n = 256
        h = hpd(tone_window(100.125, n))
        npt.assert_allclose(h[100], np.tan(np.pi / 16), rtol=1e-9)

    def test_all_zero_window_takes_max_penalty(self):
        win = SymbolWindow(np.zeros(64, dtype=np.complex128), np.zeros(64))
        npt.assert_array_equal(hpd(win), np.ones(64))

    def test_vanishing_bins_take_max_penalty(self):
        # Bins whose magnitude is numerical dust next to the window peak
        # must not produce a ratio of rounding errors.
        n = 256
        win = tone_window(10.0, n)
        dead = win.magnitudes < 1e-6
        assert dead.sum() > 100  # integer tone: every other bin is empty
        h = hpd(win)
        npt.assert_array_equal(h[dead], 1.0)

    def test_range_on_random_windows(self):
        rng = np.random.default_rng(404)
        for _ in range(25):
            h = hpd(random_window(rng, 128))
            assert np.all(h >= 0) and np.all(h <= 1)

    def test_odd_length_rejected(self):
        samples = np.ones(63, dtype=np.complex128)
        win = SymbolWindow(samples, np.abs(np.fft.fft(samples)))
        with pytest.raises(ValueError):
            hpd(win)


@st.composite
def scaled_samples(draw):
    """Gaussian samples from a drawn seed, even length N and scale; a third of
    them keep only a drawn prefix, as a tone that ends inside the window."""
    n = 2 * draw(st.integers(1, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-5, 5))
    samples = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if draw(st.integers(0, 2)) == 0:
        samples[draw(st.integers(1, n)) :] = 0
    return samples


def samples_window(samples: np.ndarray) -> SymbolWindow:
    return SymbolWindow(samples, np.abs(np.fft.fft(samples)))


class TestHpdProperties:
    # Drawn from seeds, not as raw arrays, so that no bin sits on the
    # dead-bin floor, where a rounding change may flip h to 1.

    @settings(max_examples=200, deadline=None, database=None)
    @given(samples=scaled_samples(), k=st.integers(-16, 16))
    def test_bit_identical_under_quarter_turn_and_power_of_two(self, samples, k):
        want = hpd(samples_window(samples)).tobytes()
        assert hpd(samples_window(samples * 1j)).tobytes() == want
        assert hpd(samples_window(samples * 2.0**k)).tobytes() == want

    @settings(max_examples=200, deadline=None, database=None)
    @given(samples=scaled_samples(), theta=st.floats(0, 2 * np.pi))
    def test_phase_rotation_moves_h_by_rounding_only(self, samples, theta):
        want = hpd(samples_window(samples))
        got = hpd(samples_window(samples * np.exp(1j * theta)))
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None, database=None)
    @given(samples=scaled_samples(), peak=st.floats(-5, 5))
    def test_p_and_h_lie_in_unit_interval(self, samples, peak):
        window = samples_window(samples)
        for feature in (pmd(window.magnitudes, 10.0**peak), hpd(window)):
            assert ((feature >= 0) & (feature <= 1)).all()


class TestHpdIdentity:
    def test_random_windows(self):
        rng = np.random.default_rng(2024)
        n = 256
        for _ in range(50):
            err = hpd_identity_error(random_window(rng, n))
            assert err < 1e-9 * n

    def test_zero_window_is_exact(self):
        win = SymbolWindow(np.zeros(32, dtype=np.complex128), np.zeros(32))
        assert hpd_identity_error(win) == 0.0

    def test_even_tone_cancels_samplewise(self):
        # For a complete tone at an even bin the two window halves are
        # identical, so the masked transform loses every even bin at once.
        n = 128
        win = tone_window(44.0, n)
        npt.assert_allclose(win.time_samples[: n // 2], win.time_samples[n // 2 :], atol=1e-12)
        masked = np.fft.fft(win.time_samples * np.where(np.arange(n) < n // 2, 1.0, -1.0))
        assert np.max(np.abs(masked[::2])) < 1e-9


def lookup(grid: PosteriorGrid, p, h) -> np.ndarray:
    """Posteriors q of feature values, before damping."""
    return detector_module._lookup(grid, np.asarray(p, dtype=float), np.asarray(h, dtype=float))


class TestPosteriorLookup:
    def test_cell_centers_and_corners(self):
        cells = np.array([[0.1, 0.2], [0.3, 0.4]])
        grid = tiny_grid(cells)
        # cell centres, then boundary values, which clamp to the edge cells
        p = [0.25, 0.25, 0.75, 0.75, 0.0, 1.0, 0.0, 1.0]
        h = [0.25, 0.75, 0.25, 0.75, 0.0, 1.0, 1.0, 0.0]
        npt.assert_array_equal(lookup(grid, p, h), [0.1, 0.2, 0.3, 0.4, 0.1, 0.4, 0.2, 0.3])

    def test_array_input_keeps_shape(self):
        grid = tiny_grid(np.array([[0.1, 0.2], [0.3, 0.4]]))
        p = np.array([0.0, 1.0, 0.6])
        h = np.array([0.0, 1.0, 0.1])
        npt.assert_array_equal(lookup(grid, p, h), [0.1, 0.4, 0.3])
        for shape in ((1,), (3, 4), (2, 3, 4)):
            assert lookup(grid, np.full(shape, 0.6), np.full(shape, 0.1)).shape == shape

    def test_trained_grid_orders_corners(self, detector_grid):
        res = detector_grid.resolution
        cut = res // 10
        low = detector_grid.cells[:cut, :cut].mean()
        high = detector_grid.cells[res - cut :, res - cut :].mean()
        assert low > high, f"low-feature mean {low} not above high-feature mean {high}"


class TestClassify:
    """`classify`, and the damping of each row by the row before it in `score_bins`."""

    def test_previous_window_damps_score(self):
        # Row 0 puts posterior 0.1 on bin 5, row 1 q = 0.9 there: score 0.9*(1-0.1).
        grid = tiny_grid(np.array([[0.9, 0.1], [0.0, 0.0]]))
        n = 8
        p = np.full((2, n), 0.9)
        h = np.full((2, n), 0.9)
        p[0, 5], h[0, 5] = 0.1, 0.9
        p[1, 5] = h[1, 5] = 0.1
        q, scores = lookup(grid, p, h), score_bins(p, h, grid)
        npt.assert_allclose(q[0, 5], 0.1)
        assert np.argmax(scores[1]) == 5
        npt.assert_allclose(scores[1, 5], 0.81)
        npt.assert_allclose(q[1, 5], 0.9)

    def test_saturated_previous_bin_is_suppressed(self):
        # A bin the previous window pinned at posterior 1 scores zero now,
        # which is how a persistent interferer preamble gets rejected.
        grid = tiny_grid(np.array([[0.9, 1.0], [0.0, 0.2]]))
        n = 4
        p = np.full((2, n), 0.9)
        h = np.array([np.full(n, 0.1), np.full(n, 0.9)])
        p[0, 0], h[0, 0] = 0.1, 0.9
        p[1, 0] = h[1, 0] = 0.1
        q, scores = lookup(grid, p, h), score_bins(p, h, grid)
        npt.assert_array_equal(q[0], [1.0, 0.0, 0.0, 0.0])
        assert np.argmax(scores[1]) != 0
        npt.assert_allclose(scores[1].max(), 0.2)

    def test_first_window_uses_posterior_alone(self):
        grid = tiny_grid(np.array([[0.7, 0.0], [0.0, 0.1]]))
        n = 6
        p = np.full(n, 0.9)
        h = np.full(n, 0.9)
        p[3] = h[3] = 0.0
        # one window (N,), then the same window as row 0 of a (K, N) array
        frame_p, frame_h = np.stack([p, np.zeros(n)]), np.stack([h, np.zeros(n)])
        for q, scores in (
            (lookup(grid, p, h), score_bins(p, h, grid)),
            (lookup(grid, frame_p, frame_h)[0], score_bins(frame_p, frame_h, grid)[0]),
        ):
            npt.assert_array_equal(scores, q)
            assert np.argmax(scores) == 3
            npt.assert_allclose(scores[3], 0.7)
        assert classify(p, h, grid) == (3, pytest.approx(0.7))

    def test_ties_break_to_lowest_bin(self):
        grid = tiny_grid(np.full((2, 2), 0.5))
        best, _ = classify(np.full(5, 0.2), np.full(5, 0.2), grid)
        assert best == 0

    @pytest.mark.parametrize("shape", [(16,), (5, 16), (3, 5, 16)], ids=["N", "KN", "FKN"])
    def test_score_is_the_best_bins_score(self, shape):
        # numpy scalars for one window, (K,) or (F, K) arrays for more; the
        # score holds the bytes of the argmax bin's score
        grid = tiny_grid(np.random.default_rng(3).random((8, 8)))
        p, h = np.random.default_rng(4).random((2, *shape))
        best, score = classify(p, h, grid)
        scores = score_bins(p, h, grid)
        gathered = np.take_along_axis(scores, np.asarray(best)[..., None], axis=-1)[..., 0]
        if len(shape) == 1:
            assert isinstance(best, np.integer) and isinstance(score, np.float64)
        else:
            assert best.shape == score.shape == shape[:-1]
        npt.assert_array_equal(best, scores.argmax(axis=-1))
        assert np.asarray(score).tobytes() == gathered.tobytes()


class TestGainInvariance:
    def test_features_and_argmax_survive_scaling(self):
        rng = np.random.default_rng(88)
        n = 256
        win = random_window(rng, n)
        ep = float(np.max(win.magnitudes))
        p_ref = pmd(win.magnitudes, ep)
        h_ref = hpd(win)
        for g in (0.125, 3.0, 1e4):
            scaled = SymbolWindow(g * win.time_samples, g * win.magnitudes)
            npt.assert_allclose(pmd(scaled.magnitudes, g * ep), p_ref, atol=1e-12)
            npt.assert_allclose(hpd(scaled), h_ref, atol=1e-12)


class TestDetectSymbol:
    def test_clean_symbols_detected(self, detector_grid):
        phy = PhyParams(sf=8)
        for m in (0, 1, 77, 130, 255):
            win = dechirp(modulate_symbol(m, phy), phy)
            best, _ = detect_symbol(win, float(phy.n), detector_grid)
            assert best == m

    def test_collision_recovered_where_baseline_fails(self, detector_grid):
        # Same geometry as the channel tests: +6 dB interferer, boundary
        # at 0.6*N. The strongest peak is the interferer's clipped tone at
        # bin 103; the complete-waveform features still pick out bin 30.
        phy = PhyParams(sf=8)
        n = phy.n
        target = np.concatenate([modulate_symbol(5, phy), modulate_symbol(30, phy)])
        interferer = np.concatenate([modulate_symbol(0, phy), modulate_symbol(60, phy)])
        out = compose_collision(target, [(interferer, 6.0, 153)], np.inf, np.random.default_rng(0))
        win = dechirp(out[n : 2 * n], phy)
        assert baseline_detect(win.magnitudes) == 103
        best, _ = detect_symbol(win, float(n), detector_grid)
        assert best == 30

    def test_pure_noise_scores_low(self, detector_grid):
        # No tone anywhere: whatever bin wins should win weakly.
        rng = np.random.default_rng(5)
        n = 256
        for _ in range(50):
            noise = np.sqrt(0.05) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            win = SymbolWindow(noise, np.abs(np.fft.fft(noise)))
            _, score = detect_symbol(win, float(n), detector_grid)
            assert score < 0.5


class TestGridImmutability:
    def test_cells_are_read_only(self):
        grid = tiny_grid(np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            grid.cells[0, 0] = 0.9

    def test_validation(self):
        cfg = TrainConfig(
            n_bins=4, n_symbols=1, interference_samples_per_symbol=3, grid_resolution=2
        )
        with pytest.raises(ValueError, match="^resolution must be >= 2, got 1$"):
            PosteriorGrid(1, np.full((1, 1), 0.5), 0.5, cfg)
        with pytest.raises(ValueError):
            PosteriorGrid(2, np.full((3, 3), 0.5), 0.5, cfg)
        with pytest.raises(ValueError):
            PosteriorGrid(2, np.full((2, 2), 1.5), 0.5, cfg)
        for bad_prior in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                PosteriorGrid(2, np.full((2, 2), 0.5), bad_prior, cfg)


class TestFeatureRange:
    """The one [0, 1] rule on features, shared by decoding and training."""

    STAGES = {
        "score_bins": lambda p, h: score_bins(p, h, tiny_grid(np.full((2, 2), 0.5))),
        "classify": lambda p, h: classify(p, h, tiny_grid(np.full((2, 2), 0.5))),
        "feature_histogram": lambda p, h: feature_histogram(np.column_stack([p, h]), 2, 1.0, 0.0),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    @pytest.mark.parametrize("feature", ["p", "h"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan, np.inf, -np.inf])
    def test_out_of_range_rejected(self, stage, feature, bad):
        good, wrong = np.array([0.0, 0.5, 1.0]), np.array([0.0, bad, 1.0])
        p, h = (wrong, good) if feature == "p" else (good, wrong)
        self.STAGES[stage](good, good)  # the same call with both features in range
        with pytest.raises(ValueError, match=r"^features must lie in \[0, 1\]$"):
            self.STAGES[stage](p, h)

    def test_classify_rejects_unpaired_features(self):
        grid = tiny_grid(np.full((2, 2), 0.5))
        # (N,) against (K, N) would broadcast into a wrong pairing
        for p, h in ((np.full(4, 0.5), np.full((2, 4), 0.5)), (np.full(1, 0.5), np.full(2, 0.5))):
            with pytest.raises(ValueError, match="^p and h must have one shape"):
                classify(p, h, grid)
        with pytest.raises(ValueError):
            classify(np.array([]), np.array([]), grid)


def start_chunk(log_dir, streams):
    """Note in `log_dir` that the chunk of `streams` started, and where it runs.

    Chunk 1 fails at once; every other chunk takes 50 ms.
    """
    first = streams[0].bit_generator.seed_seq.spawn_key[0]
    (log_dir / str(first)).write_text(f"{os.getpid()} {threading.get_ident()}")
    if first == 1:
        raise ValueError("chunk 1")
    time.sleep(0.05)
    return first


class TestMapChunks:
    @pytest.mark.parametrize("fork", [False, True], ids=["threads", "fork"])
    def test_failing_chunk_cancels_unstarted_chunks(self, fork, monkeypatch, tmp_path):
        monkeypatch.setattr(detector_module, "_worker_count", lambda n_chunks: 2)
        # one item per chunk: 20 chunks on two workers
        with pytest.raises(ValueError, match="^chunk 1$"):
            map_chunks(partial(start_chunk, tmp_path), 0, 20, CHUNK_SAMPLES, fork=fork)
        started = [path.read_text() for path in tmp_path.iterdir()]
        assert 2 <= len(started) < 20
        # forked workers run every chunk, none in this process; on threads this
        # thread takes its turn (TestCampaignPool::test_calling_thread_runs_chunks)
        if fork:
            assert f"{os.getpid()} {threading.get_ident()}" not in started
        assert multiprocessing.active_children() == []


def stream_seeds(streams):
    """Each stream's seed entropy, spawn key and PCG64 state, as picklable values."""
    seqs = [g.bit_generator.seed_seq for g in streams]
    return [(seq.entropy, seq.spawn_key, g.bit_generator.state) for seq, g in zip(seqs, streams)]


class TestSeedingRule:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 9]

    @pytest.mark.parametrize("fork", [False, True], ids=["threads", "fork"])
    def test_streams_are_those_of_seed_sequence_children(self, fork, monkeypatch):
        """Every stream is `default_rng(SeedSequence(seed, spawn_key=(k,)))`, past item 1,000 too.

        One seed word up to 2**32 - 1, two from 2**32, three past 2**64,
        and five, more than the pool of four, past 2**128.
        """
        monkeypatch.setattr(detector_module, "_worker_count", lambda n_chunks: 2)
        for seed in self.SEEDS:
            # 100 items per chunk: chunks start at 0, 100, ..., 1,200
            chunks, workers = map_chunks(stream_seeds, seed, 1250, CHUNK_SAMPLES // 100, fork)
            assert workers == 2
            got = [item for chunk in chunks for item in chunk]
            assert len(got) == 1250
            for k, (entropy, spawn_key, state) in enumerate(got):
                ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
                assert (entropy, spawn_key) == (seed, (k,))
                assert state == ref.bit_generator.state, (seed, k)

    def test_seed_is_checked_as_seed_sequence_checks_it(self):
        for seed, error in ((-1, ValueError), (1.5, TypeError)):
            with pytest.raises(error):
                map_chunks(stream_seeds, seed, 3, 1)
        (chunk,), _ = map_chunks(stream_seeds, np.uint64(2**63), 2, 1)
        ref = np.random.default_rng(np.random.SeedSequence(2**63, spawn_key=(1,)))
        assert chunk[1] == (2**63, (1,), ref.bit_generator.state)

    def test_other_state_requests_fall_back_to_seed_sequence(self):
        (seq,), _ = map_chunks(lambda streams: streams[0].bit_generator.seed_seq, 2**32, 1, 1)
        ref = np.random.SeedSequence(2**32, spawn_key=(0,))
        for n_words, dtype in ((4, np.uint32), (8, np.uint64), (3, np.uint32)):
            want = ref.generate_state(n_words, dtype)
            npt.assert_array_equal(seq.generate_state(n_words, dtype), want, strict=True)

    def test_streams_spawn_as_seed_sequence_children_do(self):
        """`spawn`, `pool`, `state` and the spawn counter are those of the `SeedSequence`."""
        (streams,), _ = map_chunks(lambda streams: streams, 2**64 + 3, 3, 1)
        for k, stream in enumerate(streams):
            ref = np.random.default_rng(np.random.SeedSequence(2**64 + 3, spawn_key=(k,)))
            seq, ref_seq = stream.bit_generator.seed_seq, ref.bit_generator.seed_seq
            npt.assert_array_equal(seq.pool, ref_seq.pool, strict=True)
            got, want = stream.spawn(2), ref.spawn(2)
            assert [g.bit_generator.state for g in got] == [g.bit_generator.state for g in want]
            got, want = seq.spawn(3), ref_seq.spawn(3)
            keys = [s.spawn_key for s in got]
            assert keys == [s.spawn_key for s in want] == [(k, i) for i in (2, 3, 4)]
            assert seq.n_children_spawned == 5 and seq.state == ref_seq.state
