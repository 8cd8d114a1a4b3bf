"""Campaign runner, paired-seed fairness, stage benchmarks, CSV output."""

import bisect
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from cora import (
    CSV_COLUMNS,
    ExperimentConfig,
    PhyParams,
    ScenarioSpec,
    baseline_detect,
    bench_stages,
    build_frame,
    dechirp,
    etu_like_profile,
    hpd,
    pmd,
    receive,
    run_experiment,
    score_bins,
    simulate_frame,
    write_csv,
)
from cora import detector as detector_module
from cora import harness
from cora import phy as phy_module
from cora.detector import CHUNK_SAMPLES
from cora.harness import expected_peak_from_preamble
from cora.phy import frame_length, payload_start
from oracles import per_frame_campaign, per_frame_samples

PHY8 = PhyParams(sf=8)


def _chunk_frames(cfg):
    """Frames per campaign chunk."""
    return max(1, CHUNK_SAMPLES // frame_length(cfg.symbols_per_frame, cfg.preamble_len, cfg.phy))


def quick_cfg(detector="baseline", grid=None, **kw):
    defaults = dict(
        phy=PHY8,
        detector=detector,
        scenario=ScenarioSpec(),
        n_frames=10,
        symbols_per_frame=20,
        seed=0,
        grid=grid,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_cora_requires_grid(self):
        with pytest.raises(ValueError):
            quick_cfg(detector="cora")

    def test_unknown_detector(self):
        with pytest.raises(ValueError):
            quick_cfg(detector="magic")

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            quick_cfg(n_frames=0)
        with pytest.raises(ValueError):
            quick_cfg(symbols_per_frame=0)
        with pytest.raises(ValueError):
            quick_cfg(frame_error_threshold=-1)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(sir_db=(1.0, -1.0))
        with pytest.raises(ValueError):
            ScenarioSpec(offset_mode="sideways")
        with pytest.raises(ValueError):
            ScenarioSpec(snr_db=float("nan"))
        with pytest.raises(ValueError):
            ScenarioSpec(n_interferers=-1)


class TestRunExperiment:
    def test_noiseless_baseline_is_perfect(self):
        rec = run_experiment(quick_cfg())
        assert rec.ser == 0.0
        assert rec.prr == 1.0
        assert rec.symbol_errors == 0
        assert rec.symbols == 200
        assert math.isnan(rec.sir_db)

    def test_noiseless_cora_is_perfect(self, detector_grid):
        rec = run_experiment(quick_cfg(detector="cora", grid=detector_grid))
        assert rec.ser == 0.0
        assert rec.prr == 1.0

    def test_throughput_accounts_airtime(self):
        rec = run_experiment(quick_cfg())
        # 8 preamble + 2 sync + 2.25 downchirps + 20 payload symbols at
        # 256 samples / 125 kHz.
        airtime = (12 * 256 + 64 + 20 * 256) / 125e3
        npt.assert_allclose(rec.throughput_fps, 1.0 / airtime, rtol=1e-12)

    def test_lenient_threshold_rescues_frames(self):
        noisy = ScenarioSpec(snr_db=-18.0)
        strict = run_experiment(quick_cfg(scenario=noisy, n_frames=20, seed=5))
        lenient = run_experiment(
            quick_cfg(scenario=noisy, n_frames=20, seed=5, frame_error_threshold=20)
        )
        assert strict.ser == lenient.ser  # same channel, same detections
        assert strict.prr < 1.0
        assert lenient.prr == 1.0

    def test_seed_determinism(self):
        sc = ScenarioSpec(snr_db=3.0, n_interferers=1, sir_db=(-6.0, 0.0))
        a = run_experiment(quick_cfg(scenario=sc, seed=123))
        b = run_experiment(quick_cfg(scenario=sc, seed=123))
        assert a == b

    def test_snr_monotonicity_spec_sweep(self):
        # At SF8 the spreading gain makes all four points error-free; the
        # property still has to hold with zero inversions.
        sers = []
        for snr in (-10.0, 0.0, 10.0, 30.0):
            rec = run_experiment(
                quick_cfg(scenario=ScenarioSpec(snr_db=snr), n_frames=40, seed=5)
            )
            sers.append(rec.ser)
        assert all(a >= b for a, b in zip(sers, sers[1:]))

    def test_snr_monotonicity_where_errors_live(self):
        # Around the waterfall the decline is visible; allow at most one
        # inversion within one standard error of the symbol count.
        sers = []
        for snr in (-24.0, -20.0, -16.0, -12.0):
            rec = run_experiment(
                quick_cfg(scenario=ScenarioSpec(snr_db=snr), n_frames=40, seed=5)
            )
            sers.append(rec.ser)
        n = 40 * 20
        inversions = 0
        for a, b in zip(sers, sers[1:]):
            se = math.sqrt(max(a * (1 - a), 1e-9) / n)
            if b > a + se:
                inversions += 1
        assert inversions <= 1, f"sers not declining: {sers}"
        assert sers[0] > 0.5 and sers[-1] < 0.1

    def test_two_interferer_campaign_favors_cora(self, detector_grid):
        sc = ScenarioSpec(snr_db=10.0, n_interferers=2, sir_db=(-6.0, 0.0))
        base = run_experiment(
            quick_cfg(detector="baseline", scenario=sc, n_frames=150, seed=17)
        )
        cora = run_experiment(
            quick_cfg(
                detector="cora", grid=detector_grid, scenario=sc, n_frames=150, seed=17
            )
        )
        assert cora.symbol_errors < base.symbol_errors
        assert cora.sir_db == base.sir_db == -3.0  # echo of the range mean


class TestPairedFairness:
    def test_channel_identical_across_detectors(self, detector_grid):
        # The frame simulation draws nothing detector-specific, so both
        # campaigns see byte-identical waveforms.
        sc = ScenarioSpec(snr_db=5.0, n_interferers=1, sir_db=(-3.0, 3.0))
        cfg_base = quick_cfg(scenario=sc, seed=321)
        cfg_cora = quick_cfg(detector="cora", grid=detector_grid, scenario=sc, seed=321)
        for child in np.random.SeedSequence(321).spawn(3):
            (s_base,), (t_base,), _ = simulate_frame(cfg_base, [np.random.default_rng(child)])
            (s_cora,), (t_cora,), _ = simulate_frame(cfg_cora, [np.random.default_rng(child)])
            npt.assert_array_equal(s_base, s_cora)
            npt.assert_array_equal(t_base, t_cora)

    def test_fading_draws_stay_paired(self, detector_grid):
        sc = ScenarioSpec(snr_db=5.0, fading_profile=etu_like_profile())
        cfg_base = quick_cfg(scenario=sc, seed=77)
        cfg_cora = quick_cfg(detector="cora", grid=detector_grid, scenario=sc, seed=77)
        child = np.random.SeedSequence(77).spawn(1)[0]
        (s_base,), _, _ = simulate_frame(cfg_base, [np.random.default_rng(child)])
        (s_cora,), _, _ = simulate_frame(cfg_cora, [np.random.default_rng(child)])
        npt.assert_array_equal(s_base, s_cora)


class TestPreambleEstimate:
    def test_clean_frame_reads_full_peak(self):
        cfg = quick_cfg(n_frames=1)
        rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
        (samples,), _, _ = simulate_frame(cfg, [rng])
        npt.assert_allclose(expected_peak_from_preamble(samples, cfg), 256.0, rtol=1e-9)

    def test_strong_interferer_does_not_capture_estimate(self):
        # A +10 dB interferer overlapping the preamble would dominate a
        # global-maximum reading; the bin-0 reading stays on the target.
        sc = ScenarioSpec(
            snr_db=np.inf,
            n_interferers=1,
            sir_db=(-10.0, -10.0),
            offset_mode="fixed",
            offset_samples=300,
        )
        cfg = quick_cfg(scenario=sc, n_frames=1, seed=9)
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
        (samples,), _, _ = simulate_frame(cfg, [rng])
        ep = expected_peak_from_preamble(samples, cfg)
        assert 0.9 * 256 < ep < 1.1 * 256, f"estimate drifted to {ep}"


def per_window_receive(samples, starts, cfg):
    """The receive path one window at a time: dechirp, pmd and hpd,
    damped lookup, argmax; the reference the batched path must match."""
    phy = cfg.phy
    n = phy.n
    peaks = [dechirp(samples[i * n : (i + 1) * n], phy).magnitudes[0]
             for i in range(cfg.preamble_len)]
    expected_peak = float(np.mean(peaks))
    prev = None
    bins, scores = [], []
    for start in starts:
        window = dechirp(samples[start : start + n], phy)
        if cfg.detector == "baseline":
            best = baseline_detect(window.magnitudes)
            score = window.magnitudes[best]
        else:
            # a lone window's score is its posterior q
            q = score_bins(pmd(window.magnitudes, expected_peak), hpd(window), cfg.grid)
            damped = q if prev is None else q * (1.0 - prev)
            best = int(np.argmax(damped))
            score = damped[best]
            prev = q
        bins.append(best)
        scores.append(score)
    return expected_peak, np.array(bins), np.array(scores)


def receive_case(case, phy):
    """A stream plus window starts for one equivalence case."""
    n = phy.n
    rng = np.random.default_rng(np.random.SeedSequence(phy.sf).spawn(1)[0])
    start = payload_start(8, phy)
    if case == "repeated-symbol":
        samples = build_frame([5, 5, 5, 9, 9, 5, 0, 0], 8, phy)
        samples = samples + 0.3 * rng.standard_normal(samples.size)
        return samples, start + n * np.arange(8)
    sc = ScenarioSpec(snr_db=5.0, n_interferers=1, sir_db=(-6.0, 0.0))
    (samples,), _, _ = simulate_frame(quick_cfg(phy=phy, scenario=sc, symbols_per_frame=10), [rng])
    starts = start + n * np.arange(10)
    if case == "demod-starts":
        # unsorted, overlapping and off the symbol grid, as a sidecar may list
        starts = np.array([start + 3 * n + 17, start, start + n // 2, 5, start + 3 * n + 17, 0])
    elif case == "dead-bins":
        # an all-zero window, and one so weak that a frame-wide floor
        # (rather than its own peak's) would declare every bin dead
        samples = samples.copy()
        samples[start + 2 * n : start + 3 * n] = 0.0
        samples[start + 4 * n : start + 5 * n] *= 1e-7
    return samples, starts


class TestReceive:
    @pytest.mark.parametrize("detector", ["baseline", "cora"])
    @pytest.mark.parametrize("sf", [7, 12])
    @pytest.mark.parametrize("case", ["frame", "demod-starts", "dead-bins", "repeated-symbol"])
    def test_batched_equals_per_window(self, detector, sf, case, detector_grid):
        phy = PhyParams(sf=sf)
        cfg = quick_cfg(detector, detector_grid if detector == "cora" else None, phy=phy)
        samples, starts = receive_case(case, phy)
        expected_peak, ref_bins, ref_scores = per_window_receive(samples, starts, cfg)
        bins, scores = receive(samples, starts, cfg)
        assert expected_peak_from_preamble(samples, cfg) == expected_peak
        npt.assert_array_equal(bins, ref_bins)
        npt.assert_array_equal(scores, ref_scores)

    def test_no_windows(self):
        bins, scores = receive(np.zeros(4096, dtype=complex), [], quick_cfg())
        assert bins.shape == scores.shape == (0,)

    # SF7, L = 2080: starts 128 apart would take the view path, others the
    # gather; neither may truncate or reinterpret a start
    @pytest.mark.parametrize(
        "starts",
        [[1536.9, 1664.2], [0.5, 300.0], [True, False], [[0, 128], [256, 384]]],
        ids=["float-view", "float-gather", "bool", "2-D"],
    )
    def test_starts_must_be_one_dimensional_integers(self, starts):
        phy = PhyParams(sf=7)
        samples = build_frame([1, 2, 3, 4], 8, phy)
        with pytest.raises(ValueError, match="^starts must be 1-D integers, got "):
            receive(samples, starts, quick_cfg(phy=phy))

    # SF7, L = 2080: the last whole window starts at 1952. Back-to-back
    # starts take the view path, any others the gather.
    @pytest.mark.parametrize(
        "starts, bad", [([-5, 300], -5), ([1952, 2080], 2080)], ids=["gather", "view"]
    )
    def test_window_outside_stream_rejected(self, starts, bad):
        phy = PhyParams(sf=7)
        samples = build_frame([1, 2, 3, 4], 8, phy)
        assert samples.size == 2080
        with pytest.raises(ValueError, match=f"^window at {bad} falls outside the 2080-sample"):
            receive(samples, starts, quick_cfg(phy=phy))

    # SF8 streams shorter than an 8-window preamble: 4 whole windows, whose
    # reference would be taken over the payload, and 1,000 samples, which
    # do not reshape into windows at all
    @pytest.mark.parametrize(
        "length, starts", [(1024, [0, 256, 512, 768]), (1000, [0, 500])], ids=["view", "gather"]
    )
    def test_cora_stream_shorter_than_preamble_rejected(self, length, starts, detector_grid):
        samples = np.ones(length, dtype=complex)
        with pytest.raises(ValueError, match=f"^a {length}-sample stream is too short for a 8-sym"):
            receive(samples, starts, quick_cfg("cora", detector_grid))
        bins, _ = receive(samples, starts, quick_cfg())
        assert bins.shape == (len(starts),)


# (sf, interferers, sir_db, snr_db, fading, frames): "chunk+1" spills one
# frame into a second chunk, so damping crosses a frame boundary inside a
# chunk. SIRs from -10 to 130 dB mix interferers that raise some windows'
# peaks with interferers so faint that their bins sit near the dead-bin
# floor, so a floor taken over more than one window moves features.
CAMPAIGN_CASES = {
    "sf7-noisy": (7, 0, (-6.0, 0.0), 5.0, False, "chunk+1"),
    "sf7-3-interferers": (7, 3, (-6.0, 0.0), 5.0, False, "chunk+1"),
    "sf7-noiseless": (7, 0, (-6.0, 0.0), math.inf, False, "chunk+1"),
    "sf7-faint-and-strong-noiseless": (7, 3, (-10.0, 130.0), math.inf, False, "chunk+1"),
    "sf7-3-interferers-noiseless-faded": (7, 3, (-6.0, 0.0), math.inf, True, "chunk+1"),
    "sf7-one-frame": (7, 3, (-6.0, 0.0), 5.0, False, 1),
    "sf12-3-interferers": (12, 3, (-6.0, 0.0), 5.0, False, "chunk+1"),
    "sf12-faded-one-frame": (12, 0, (-6.0, 0.0), 5.0, True, 1),
}


class TestChunkedCampaign:
    @pytest.mark.parametrize("detector", ["baseline", "cora"])
    @pytest.mark.parametrize("case", sorted(CAMPAIGN_CASES))
    def test_matches_per_frame_loop(self, detector, case, detector_grid, monkeypatch, tmp_path):
        sf, n_interferers, sir_db, snr_db, fading, frames = CAMPAIGN_CASES[case]
        sc = ScenarioSpec(
            snr_db=snr_db,
            n_interferers=n_interferers,
            sir_db=sir_db,
            fading_profile=etu_like_profile() if fading else None,
        )
        cfg = quick_cfg(
            detector,
            detector_grid if detector == "cora" else None,
            phy=PhyParams(sf=sf),
            scenario=sc,
            symbols_per_frame=10,
            seed=sf,
        )
        if frames == "chunk+1":
            frames = _chunk_frames(cfg) + 1
        cfg.n_frames = frames
        stages = ("_lookup", "score_bins")  # posteriors, then damped scores
        ref_logs = [record_calls(monkeypatch, detector_module, name) for name in stages]
        ref_bins, ref_scores, ref_record = per_frame_campaign(cfg)
        monkeypatch.undo()
        chunk, _ = track_chunks(monkeypatch)
        logs = [record_calls(monkeypatch, detector_module, name, chunk) for name in stages]
        decoded = record_calls(monkeypatch, harness, "receive", chunk)
        record = run_experiment(cfg)

        bins, scores = (np.concatenate([np.atleast_2d(d[i]) for d in decoded]) for i in (0, 1))
        npt.assert_array_equal(bins, ref_bins)
        npt.assert_array_equal(scores, ref_scores)
        # every bin's posterior and damped score, not only the winners'
        n = cfg.phy.n
        for pair in zip(logs, ref_logs):
            got, want = (
                np.concatenate([np.reshape(out, (-1, n)) for out in log] + [np.empty((0, n))])
                for log in pair
            )
            npt.assert_array_equal(got, want)
        write_csv([record], tmp_path / "chunked.csv")
        write_csv([ref_record], tmp_path / "per-frame.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "per-frame.csv").read_bytes()


# Chunks whose buffers `simulate_frame` reuses in different ways: a new
# draw buffer (unfaded), the dead unfaded targets (faded, alone) or the
# dead unfaded interferers (faded, with interferers) hold the noise draws,
# and the first interferer rows, faded or not, the complex noise.
SIMULATE_CASES = {
    "clean": ScenarioSpec(snr_db=10.0),
    "collision": ScenarioSpec(snr_db=10.0, n_interferers=1, sir_db=(-6.0, 0.0)),
    "noiseless-2-interferers": ScenarioSpec(n_interferers=2, sir_db=(0.0, 3.0)),
    "faded": ScenarioSpec(snr_db=5.0, fading_profile=etu_like_profile()),
    "faded-noiseless": ScenarioSpec(fading_profile=etu_like_profile()),
    "faded-2-interferers": ScenarioSpec(
        snr_db=5.0, n_interferers=2, sir_db=(-6.0, 6.0), fading_profile=etu_like_profile()
    ),
}


class TestSimulateFrame:
    @pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
    def test_chunk_rows_are_frames_built_alone(self, case):
        # every row keeps the bytes and signed zeros of its frame built alone
        cfg = quick_cfg(phy=PhyParams(sf=7), scenario=SIMULATE_CASES[case], symbols_per_frame=4)
        streams = [np.random.default_rng(seed) for seed in range(5)]
        samples, truth, _ = simulate_frame(cfg, streams)
        rows, payloads = zip(*(per_frame_samples(cfg, np.random.default_rng(s)) for s in range(5)))
        alone = np.stack(rows)
        assert samples.tobytes() == alone.tobytes()
        npt.assert_array_equal(*(np.signbit(x.view(np.float64)) for x in (samples, alone)))
        npt.assert_array_equal(truth, np.stack(payloads))


class TestChunkMemory:
    """Peak memory of one 7-frame SF8 campaign chunk, in units of one (F, L)
    complex128 array (F * L * 16 = 924,672 bytes).

    numpy reports its buffers to tracemalloc. Each peak is read on a second
    call, once the first has filled the caches (frame header, fading plan,
    power tables). Each bound is this design's reading plus 0.15 units,
    about one numpy ufunc buffer of 8,192 complex values.
    """

    COLLISION = ScenarioSpec(snr_db=10.0, n_interferers=1, sir_db=(-6.0, 0.0))

    @staticmethod
    def peak_units(fn) -> float:
        fn()
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (7 * frame_length(20, 8, PHY8) * 16)

    def chunk(self, cfg):
        assert _chunk_frames(cfg) == 7
        return lambda: simulate_frame(cfg, [np.random.default_rng(seed) for seed in range(7)])

    def test_collision_chunk(self):
        # the targets and interferers (2), the draws (1), |targets| (0.5);
        # the interferer rows hold the complex noise once added. 4.15 when
        # the noise took a new unit and |targets| ** 2 a second half unit.
        assert self.peak_units(self.chunk(quick_cfg(scenario=self.COLLISION))) < 3.66

    def test_faded_chunk(self):
        # the faded targets (1), the dead unfaded ones holding the draws (1)
        # and the complex noise (1), which no byte-exact form builds in less
        sc = ScenarioSpec(snr_db=5.0, fading_profile=etu_like_profile())
        assert self.peak_units(self.chunk(quick_cfg(scenario=sc))) < 3.30

    def test_faded_chunk_with_interferers(self):
        # while the interferers fade: all frames (3), their faded copies (2)
        # and the fading's own arrays; the faded targets wait in the rows of
        # the unfaded ones rather than in a unit of their own (7.18)
        sc = ScenarioSpec(snr_db=5.0, n_interferers=2, fading_profile=etu_like_profile())
        assert self.peak_units(self.chunk(quick_cfg(scenario=sc))) < 6.32

    def test_cora_receive(self, detector_grid):
        # the dechirped window (0.93) and the masked transform and its FFT
        # (1.24); the window is dropped before the grid lookup. 2.49 when
        # it lived on through the lookup's index and posterior arrays.
        samples = self.chunk(quick_cfg(scenario=self.COLLISION))()[0]
        cfg = quick_cfg("cora", detector_grid)
        assert self.peak_units(lambda: harness.demodulate_frame(samples, cfg)) < 2.32


class TestCampaignPool:
    # chunk + 1 frames give two chunks of different sizes; two chunks + 1
    # also put two equal chunks in flight at once.
    @pytest.mark.parametrize("chunks", [1, 2], ids=["chunk+1", "2-chunks+1"])
    @pytest.mark.parametrize("detector", ["baseline", "cora"])
    @pytest.mark.parametrize("faded", [False, True], ids=["collided", "faded"])
    def test_worker_count_does_not_show(
        self, chunks, detector, faded, detector_grid, monkeypatch, tmp_path
    ):
        if faded:
            sc = ScenarioSpec(snr_db=5.0, fading_profile=etu_like_profile())
        else:
            sc = ScenarioSpec(snr_db=10.0, n_interferers=1, sir_db=(-6.0, 0.0))
        cfg = quick_cfg(detector, detector_grid if detector == "cora" else None, scenario=sc, seed=4)
        cfg.n_frames = chunks * _chunk_frames(cfg) + 1
        one, two = (run_on_threads(cfg, w, monkeypatch, tmp_path) for w in (1, 2))
        assert one[0].shape == (cfg.n_frames, cfg.symbols_per_frame)
        npt.assert_array_equal(one[0], two[0])
        assert one[1] == two[1]

    def test_stress_more_threads_than_cores(self, detector_grid, monkeypatch, tmp_path):
        sc = ScenarioSpec(snr_db=10.0, n_interferers=1, sir_db=(-6.0, 0.0))
        cfg = quick_cfg("cora", detector_grid, scenario=sc, seed=9)
        cfg.n_frames = 6 * _chunk_frames(cfg)
        want = run_on_threads(cfg, 1, monkeypatch, tmp_path)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # the cached chirp tables are filled by whichever thread comes first
            for module in (phy_module, detector_module):
                for obj in vars(module).values():
                    if hasattr(obj, "cache_clear"):
                        obj.cache_clear()
            got = run_on_threads(cfg, 6, monkeypatch, tmp_path)
        finally:
            sys.setswitchinterval(switch)
        npt.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]

    def test_first_failing_chunk_raises_and_no_thread_survives(self, monkeypatch):
        cfg = quick_cfg()
        per_chunk = _chunk_frames(cfg)
        cfg.n_frames = 3 * per_chunk
        simulate = harness.simulate_frame

        def simulate_frame(cfg, streams):
            first = streams[0].bit_generator.seed_seq.spawn_key[0]
            if first == per_chunk:
                time.sleep(0.05)  # the last chunk fails first in time
                raise ValueError("middle chunk")
            if first == 2 * per_chunk:
                raise ValueError("last chunk")
            return simulate(cfg, streams)

        monkeypatch.setattr(harness, "simulate_frame", simulate_frame)
        monkeypatch.setattr(detector_module, "_worker_count", lambda n_chunks: 2)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="^middle chunk$"):
            run_experiment(cfg)
        assert set(threading.enumerate()) <= before

    def test_calling_thread_runs_chunks(self, monkeypatch):
        cfg = quick_cfg()
        cfg.n_frames = 3 * _chunk_frames(cfg)
        monkeypatch.setattr(detector_module, "_worker_count", lambda n_chunks: 2)
        # the first two chunks wait for each other, so two threads take one each
        _, threads = track_chunks(monkeypatch, hold=2)
        before = set(threading.enumerate())
        run_experiment(cfg)
        assert len(threads) == 3
        assert threading.get_ident() in threads
        assert len(set(threads)) <= 2
        assert set(threading.enumerate()) == before

    def test_worker_count_rule(self, monkeypatch):
        count, os = detector_module._worker_count, detector_module.os
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [count(n) for n in (1, 2, 3, 50)] == [1, 2, 3, 3]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert count(50) == detector_module.MAX_WORKERS == 8
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert count(50) == 2


def run_on_threads(cfg, workers, monkeypatch, tmp_path):
    """Run a campaign on `workers` threads: its bins in frame order and its CSV bytes."""
    monkeypatch.setattr(detector_module, "_worker_count", lambda n_chunks: workers)
    # the first chunks wait for each other, so none frees its thread before all run
    chunk, threads = track_chunks(monkeypatch, hold=workers)
    decoded = record_calls(monkeypatch, harness, "receive", chunk)
    path = tmp_path / f"{workers}-threads.csv"
    write_csv([run_experiment(cfg)], path)
    monkeypatch.undo()
    used = len(set(threads))
    assert used == 1 if workers == 1 else 1 < used <= workers
    return np.concatenate([out[0] for out in decoded]), path.read_bytes()


def track_chunks(monkeypatch, hold=1):
    """Note on each thread which campaign chunk it is decoding.

    `run_experiment` decodes chunks on a thread pool, so calls made for
    different chunks interleave. A thread works on one chunk from its
    `simulate_frame` call until its `receive` returns. The first `hold`
    chunks to start wait at a barrier until all `hold` have started.
    Returns a threading.local whose `key` is that chunk's first frame
    index on the calling thread, and the list of threads that simulated
    a chunk.
    """
    current = threading.local()
    threads = []
    lock = threading.Lock()
    barrier = threading.Barrier(hold, timeout=60)
    simulate = harness.simulate_frame

    def simulate_frame(cfg, streams):
        current.key = streams[0].bit_generator.seed_seq.spawn_key
        with lock:
            threads.append(threading.get_ident())
            held = len(threads) <= hold
        if held:
            barrier.wait()
        return simulate(cfg, streams)

    monkeypatch.setattr(harness, "simulate_frame", simulate_frame)
    return current, threads


def record_calls(monkeypatch, module, name, chunk=None):
    """Route `module.name` through a wrapper that logs every return value.

    Without `chunk` the log is in call order. With `chunk` (from
    `track_chunks`) it is in chunk order, whichever thread made the call.
    An array is logged as a copy, since `score_bins` damps the array
    `_lookup` returns in place.
    """
    log = []
    keys = []
    lock = threading.Lock()
    original = getattr(module, name)

    def wrapper(*args):
        out = original(*args)
        key = () if chunk is None else chunk.key
        with lock:
            at = bisect.bisect_right(keys, key)
            keys.insert(at, key)
            log.insert(at, out.copy() if isinstance(out, np.ndarray) else out)
        return out

    monkeypatch.setattr(module, name, wrapper)
    return log


class TestBenchStages:
    def test_baseline_stage_split(self):
        rec = bench_stages(quick_cfg(), n_warmup=5, n_iter=50)
        assert rec.t_dechirp_s > 0
        assert rec.t_argmax_s > 0
        assert rec.t_features_s == 0.0
        assert rec.t_classifier_s == 0.0
        assert rec.ser == 0.0  # noiseless pre-generated symbols

    def test_cora_stage_split(self, detector_grid):
        rec = bench_stages(
            quick_cfg(detector="cora", grid=detector_grid), n_warmup=5, n_iter=50
        )
        for value in (rec.t_dechirp_s, rec.t_features_s, rec.t_classifier_s, rec.t_argmax_s):
            assert value > 0
        assert rec.ser == 0.0

    def test_noisy_symbols_count_their_errors(self):
        cfg = quick_cfg(phy=PhyParams(sf=7), scenario=ScenarioSpec(snr_db=-20.0))
        rec = bench_stages(cfg, n_warmup=5, n_iter=50)
        assert rec.symbol_errors > 0
        assert rec.frames_ok == 50 - rec.symbol_errors

    def test_rejects_thin_iteration_counts(self):
        with pytest.raises(ValueError):
            bench_stages(quick_cfg(), n_warmup=5, n_iter=29)
        with pytest.raises(ValueError):
            bench_stages(quick_cfg(), n_warmup=-1, n_iter=50)


class TestWriteCsv:
    def test_header_is_pinned(self, tmp_path):
        rec = run_experiment(quick_cfg(n_frames=1))
        path = tmp_path / "out.csv"
        write_csv([rec], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            "detector,sf,snr_db,sir_db,interferers,fading,frames,symbols,"
            "symbol_errors,ser,frames_ok,prr,throughput_fps,t_dechirp_s,"
            "t_features_s,t_classifier_s,t_argmax_s,seed"
        )

    def test_numeric_round_trip_is_exact(self, tmp_path):
        sc = ScenarioSpec(snr_db=7.3, n_interferers=1, sir_db=(-6.0, 0.0))
        rec = run_experiment(quick_cfg(scenario=sc, n_frames=3, seed=2))
        path = tmp_path / "out.csv"
        write_csv([rec], path)
        header, row = path.read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["ser"]) == rec.ser
        assert float(values["prr"]) == rec.prr
        assert float(values["throughput_fps"]) == rec.throughput_fps
        assert float(values["snr_db"]) == 7.3
        assert int(values["symbol_errors"]) == rec.symbol_errors
        assert values["fading"] == "false"
        assert values["detector"] == "baseline"

    def test_column_order_matches_record_fields(self):
        assert CSV_COLUMNS[0] == "detector"
        assert CSV_COLUMNS[-1] == "seed"
        assert len(CSV_COLUMNS) == 18

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "out.csv")

    def test_symlinked_output_updates_its_target(self, tmp_path):
        rec = run_experiment(quick_cfg(n_frames=1))
        write_csv([rec], tmp_path / "plain.csv")
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        write_csv([rec], link)
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
    def test_read_only_output_is_refused(self, tmp_path):
        rec = run_experiment(quick_cfg(n_frames=1))
        out = tmp_path / "out.csv"
        out.write_text("old\n")
        out.chmod(0o444)
        with pytest.raises(PermissionError):
            write_csv([rec], out)
        assert out.read_text() == "old\n"

    def test_output_it_may_not_write_is_opened_not_unlinked(self, tmp_path, monkeypatch):
        """Such a file goes to `open` in place, so a hard link to it sees what `open` did."""
        rec = run_experiment(quick_cfg(n_frames=1))
        write_csv([rec], tmp_path / "plain.csv")
        out, other = tmp_path / "out.csv", tmp_path / "other.csv"
        out.write_text("old\n")
        other.hardlink_to(out)
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        write_csv([rec], out)
        assert other.read_bytes() == out.read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_fifo_output_gets_the_csv(self, tmp_path):
        rec = run_experiment(quick_cfg(n_frames=1))
        write_csv([rec], tmp_path / "plain.csv")
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_csv([rec], fifo)
        reader.join(timeout=10)
        assert fifo.is_fifo()
        assert got == [(tmp_path / "plain.csv").read_bytes()]
