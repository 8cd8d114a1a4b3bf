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
    FeatureField,
    PhyParams,
    PosteriorGrid,
    TrainConfig,
    baseline_detect,
    classify,
    clipped_tone,
    compose_collision,
    dechirp,
    detect_symbol,
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
    """Posteriors q of feature values, before damping, through `score_bins`."""
    return score_bins(FeatureField(p, h), grid)[0]


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
    def test_previous_window_damps_score(self):
        # q = 0.9 at bin 5, prev posterior 0.1 there: score 0.9*(1-0.1).
        grid = tiny_grid(np.array([[0.9, 0.0], [0.0, 0.0]]))
        n = 8
        p = np.full(n, 0.9)
        h = np.full(n, 0.9)
        p[5] = h[5] = 0.1
        prev = np.zeros(n)
        prev[5] = 0.1
        best, score, q = classify(FeatureField(p, h), grid, prev)
        assert best == 5
        npt.assert_allclose(score, 0.81)
        npt.assert_allclose(q[5], 0.9)

    def test_saturated_previous_bin_is_suppressed(self):
        # A bin the previous window pinned at posterior 1 scores zero now,
        # which is how a persistent interferer preamble gets rejected.
        grid = tiny_grid(np.array([[0.9, 0.0], [0.0, 0.2]]))
        n = 4
        p = np.full(n, 0.9)
        h = np.full(n, 0.9)
        p[0] = h[0] = 0.1
        prev = np.zeros(n)
        prev[0] = 1.0
        best, score, _ = classify(FeatureField(p, h), grid, prev)
        assert best != 0
        npt.assert_allclose(score, 0.2)

    def test_first_window_uses_posterior_alone(self):
        grid = tiny_grid(np.array([[0.7, 0.0], [0.0, 0.1]]))
        n = 6
        p = np.full(n, 0.9)
        h = np.full(n, 0.9)
        p[3] = h[3] = 0.0
        for prev in (None, np.zeros(n)):
            best, score, _ = classify(FeatureField(p, h), grid, prev)
            assert best == 3
            npt.assert_allclose(score, 0.7)

    def test_ties_break_to_lowest_bin(self):
        grid = tiny_grid(np.full((2, 2), 0.5))
        feats = FeatureField(np.full(5, 0.2), np.full(5, 0.2))
        best, _, _ = classify(feats, grid)
        assert best == 0

    def test_state_shape_mismatch_rejected(self):
        grid = tiny_grid(np.full((2, 2), 0.5))
        feats = FeatureField(np.full(5, 0.2), np.full(5, 0.2))
        for prev in (np.zeros(7), np.zeros((1, 5)), np.zeros((2, 5))):
            with pytest.raises(ValueError, match="posteriors"):
                classify(feats, grid, prev)


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
            best, _, _ = detect_symbol(win, float(phy.n), detector_grid)
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
        best, _, _ = detect_symbol(win, float(n), detector_grid)
        assert best == 30

    def test_pure_noise_scores_low(self, detector_grid):
        # No tone anywhere: whatever bin wins should win weakly.
        rng = np.random.default_rng(5)
        n = 256
        for _ in range(50):
            noise = np.sqrt(0.05) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            win = SymbolWindow(noise, np.abs(np.fft.fft(noise)))
            _, score, _ = detect_symbol(win, float(n), detector_grid)
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


class TestFeatureField:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureField(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
        for p, h in ((-0.1, 0.5), (0.5, 1.2), (np.nan, 0.5), (0.5, np.inf)):
            with pytest.raises(ValueError, match="must lie in"):
                FeatureField(np.array([p]), np.array([h]))
        with pytest.raises(ValueError):
            FeatureField(np.array([0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            FeatureField(np.array([]), np.array([]))


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
        # every chunk ran on a worker, none in the calling thread
        assert f"{os.getpid()} {threading.get_ident()}" not in started
        assert multiprocessing.active_children() == []
