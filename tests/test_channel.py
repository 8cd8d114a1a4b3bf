"""Noise, offsets, collisions, fading, and the training-symbol generator."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import j0

from cora import (
    CollisionScenario,
    ComplexSignal,
    FadingProfile,
    Interferer,
    PhyParams,
    TrainConfig,
    add_awgn,
    apply_fading,
    apply_freq_offset,
    baseline_detect,
    build_frame,
    clipped_tone,
    compose_collision,
    dechirp,
    etu_like_profile,
    gen_training_symbol,
    gen_training_windows,
    modulate_symbol,
)
from cora.channel import JAKES_OSCILLATORS, TAYLOR_TERMS, _power_table
from cora.detector import hpd

FS = 125e3


def two_symbol_frame(m1: int, m2: int, phy: PhyParams) -> ComplexSignal:
    samples = np.concatenate(
        [modulate_symbol(m1, phy).samples, modulate_symbol(m2, phy).samples]
    )
    return ComplexSignal(samples, phy.sample_rate_hz)


class TestAwgn:
    def test_huge_snr_is_identity(self):
        rng = np.random.default_rng(0)
        sig = ComplexSignal(np.exp(1j * np.linspace(0, 5, 64)), FS)
        out = add_awgn(sig, 300.0, rng)
        npt.assert_allclose(out.samples, sig.samples, rtol=1e-10)

    def test_noise_power_at_zero_db(self):
        # Unit-power input at 0 dB SNR: the added noise should carry unit
        # power as well, measured over 1e5 samples.
        rng = np.random.default_rng(7)
        sig = ComplexSignal(np.ones(100_000, dtype=np.complex128), FS)
        out = add_awgn(sig, 0.0, rng)
        noise_power = np.mean(np.abs(out.samples - sig.samples) ** 2)
        assert 0.9 < noise_power < 1.1, f"noise power {noise_power} off target"

    def test_power_tracks_snr(self):
        rng = np.random.default_rng(8)
        sig = ComplexSignal(2.0 * np.ones(100_000, dtype=np.complex128), FS)
        out = add_awgn(sig, 10.0, rng)
        noise_power = np.mean(np.abs(out.samples - sig.samples) ** 2)
        # Signal power 4, SNR 10 dB -> variance 0.4.
        assert 0.36 < noise_power < 0.44

    def test_zero_signal_rejected(self):
        rng = np.random.default_rng(0)
        sig = ComplexSignal(np.zeros(16, dtype=np.complex128), FS)
        with pytest.raises(ValueError):
            add_awgn(sig, 10.0, rng)

    def test_nan_snr_rejected(self):
        rng = np.random.default_rng(0)
        sig = ComplexSignal(np.ones(16, dtype=np.complex128), FS)
        with pytest.raises(ValueError):
            add_awgn(sig, float("nan"), rng)


class TestFreqOffset:
    def test_zero_offset_is_identity(self):
        phy = PhyParams(sf=7)
        sig = modulate_symbol(12, phy)
        out = apply_freq_offset(sig, 0.0, phy)
        npt.assert_array_equal(out.samples, sig.samples)

    def test_integer_offset_moves_peak_one_bin(self):
        phy = PhyParams(sf=8)
        for m in (0, 100, 255):
            shifted = apply_freq_offset(modulate_symbol(m, phy), 1.0, phy)
            win = dechirp(shifted, phy)
            assert baseline_detect(win.spectrum) == (m + 1) % phy.n

    def test_fractional_offset_degrades_hpd(self):
        # An eighth-bin deviation breaks the half-period cancellation, so
        # h at the peak moves away from zero: tan(pi/16) for a full-window
        # tone.
        phy = PhyParams(sf=8)
        m = 40
        shifted = apply_freq_offset(modulate_symbol(m, phy), 0.125, phy)
        win = dechirp(shifted, phy)
        h = hpd(win)
        assert h[m] > 0.0
        npt.assert_allclose(h[m], np.tan(np.pi / 16), rtol=1e-6)


class TestComposeCollision:
    def test_no_interferers_high_snr_is_identity(self):
        phy = PhyParams(sf=8)
        target = two_symbol_frame(5, 30, phy)
        out = compose_collision(
            CollisionScenario(target, [], snr_db=np.inf), np.random.default_rng(0)
        )
        npt.assert_array_equal(out.samples, target.samples)

    def test_three_peaks_in_collided_window(self):
        # Target symbol 30 in its second window; the interferer starts 153
        # samples late, so the window sees the tail of its first symbol and
        # the head of its second: three tones at bins 30, 103 = -153 mod
        # 256 and 163 = 60 - 153 mod 256.
        phy = PhyParams(sf=8)
        n = phy.n
        target = two_symbol_frame(5, 30, phy)
        interferer = Interferer(two_symbol_frame(0, 60, phy), 0.0, 153)
        out = compose_collision(
            CollisionScenario(target, [interferer], snr_db=np.inf),
            np.random.default_rng(0),
        )
        win = dechirp(out.samples[n : 2 * n], phy)
        mags = win.spectrum.magnitudes
        local_max = (
            (mags > np.roll(mags, 1))
            & (mags > np.roll(mags, -1))
            & (mags > 0.25 * mags.max())
        )
        npt.assert_array_equal(np.flatnonzero(local_max), [30, 103, 163])

    def test_strong_interferer_flips_baseline_not_true_tone(self):
        # +6 dB interferer offset by 0.6*N: the baseline grabs the louder
        # clipped tone while the true bin still holds its complete
        # waveform (full magnitude N, near-zero HPD).
        phy = PhyParams(sf=8)
        n = phy.n
        target = two_symbol_frame(5, 30, phy)
        interferer = Interferer(two_symbol_frame(0, 60, phy), 6.0, 153)
        out = compose_collision(
            CollisionScenario(target, [interferer], snr_db=np.inf),
            np.random.default_rng(0),
        )
        win = dechirp(out.samples[n : 2 * n], phy)
        assert baseline_detect(win.spectrum) == 103
        assert win.spectrum.magnitudes[30] > 0.99 * n
        h = hpd(win)
        assert h[30] < 0.1, f"true bin no longer tone-like, h={h[30]}"
        assert h[103] > 0.5 and h[163] > 0.5

    def test_interferer_clipped_to_target_extent(self):
        phy = PhyParams(sf=7)
        target = ComplexSignal(modulate_symbol(3, phy).samples, FS)
        long_frame = two_symbol_frame(1, 2, phy)
        out = compose_collision(
            CollisionScenario(target, [Interferer(long_frame, 0.0, 64)], snr_db=np.inf),
            np.random.default_rng(0),
        )
        assert len(out) == len(target)

    def test_gain_power_calibration(self):
        rng = np.random.default_rng(3)
        frame = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        base_power = np.mean(np.abs(frame) ** 2)
        for gain_db in (-15.0, -3.0, 0.0, 6.0, 13.0):
            amp = 10.0 ** (gain_db / 20.0)
            scaled_power = np.mean(np.abs(amp * frame) ** 2)
            npt.assert_allclose(scaled_power, base_power * 10.0 ** (gain_db / 10.0), rtol=1e-9)

    def test_offset_beyond_target_rejected(self):
        phy = PhyParams(sf=7)
        target = ComplexSignal(modulate_symbol(3, phy).samples, FS)
        with pytest.raises(ValueError):
            CollisionScenario(target, [Interferer(target, 0.0, 128)])

    def test_interferer_validation(self):
        phy = PhyParams(sf=7)
        frame = ComplexSignal(modulate_symbol(3, phy).samples, FS)
        with pytest.raises(ValueError):
            Interferer(frame, 0.0, -1)
        with pytest.raises(ValueError):
            Interferer(frame, float("nan"), 0)
        with pytest.raises(ValueError):
            Interferer(np.ones(8), 0.0, 0)

    def test_deterministic_given_seed(self):
        phy = PhyParams(sf=7)
        target = two_symbol_frame(9, 80, phy)
        scenario = CollisionScenario(
            target, [Interferer(two_symbol_frame(0, 1, phy), -3.0, 40)], snr_db=5.0
        )
        a = compose_collision(scenario, np.random.default_rng(77))
        b = compose_collision(scenario, np.random.default_rng(77))
        npt.assert_array_equal(a.samples, b.samples)


def reference_fading(signal, profile, rng):
    """Tap-by-tap, tone-by-tone Jakes tapped delay line: n exponentials per tone."""
    fs = signal.sample_rate_hz
    x = signal.samples
    n = x.size
    t = np.arange(n) / fs
    powers_lin = 10.0 ** (np.asarray(profile.tap_powers_db) / 10.0)
    powers_lin = powers_lin / powers_lin.sum()
    out = np.zeros(n, dtype=np.complex128)
    for delay_s, p_tap in zip(profile.tap_delays_s, powers_lin):
        delay = int(round(delay_s * fs))
        angles = rng.uniform(0.0, 2.0 * np.pi, JAKES_OSCILLATORS)
        phases = rng.uniform(0.0, 2.0 * np.pi, JAKES_OSCILLATORS)
        dopplers = profile.max_doppler_hz * np.cos(angles)
        osc = np.exp(1j * (2.0 * np.pi * np.outer(dopplers, t) + phases[:, None]))
        gain = math.sqrt(p_tap / JAKES_OSCILLATORS) * osc.sum(axis=0)
        if delay == 0:
            out += gain * x
        elif delay < n:
            out[delay:] += gain[delay:] * x[: n - delay]
    return out


def random_frame(sf: int, n_payload: int, seed: int) -> ComplexSignal:
    phy = PhyParams(sf=sf)
    payload = np.random.default_rng(seed).integers(phy.n, size=n_payload)
    return build_frame(payload, 8, phy)


class TestFading:
    @pytest.mark.parametrize(
        "signal, profile",
        [
            pytest.param(random_frame(7, 20, 1), etu_like_profile(), id="etu-sf7"),
            pytest.param(random_frame(8, 20, 2), etu_like_profile(), id="etu-sf8"),
            pytest.param(random_frame(12, 2, 3), etu_like_profile(), id="etu-sf12"),
            pytest.param(random_frame(8, 20, 4), FadingProfile((0.0,), (0.0,), 0.0), id="flat"),
            pytest.param(
                random_frame(12, 2, 5),
                replace(etu_like_profile(), max_doppler_hz=100.0),
                id="etu-sf12-100hz",
            ),
            pytest.param(
                ComplexSignal(np.exp(0.3j * np.arange(100)), FS),
                FadingProfile((0.0, 8e-6, 800e-6, 1e-3), (0.0, -math.inf, 0.0, -1.0), 20.0),
                id="silent-tap-and-delays-past-end",
            ),
            pytest.param(ComplexSignal(np.ones(1, dtype=np.complex128), FS), etu_like_profile(), id="n1"),
            pytest.param(ComplexSignal(np.ones(2, dtype=np.complex128), FS), etu_like_profile(), id="n2"),
            pytest.param(
                random_frame(8, 20, 6), replace(etu_like_profile(), max_doppler_hz=0.0), id="etu-0hz"
            ),
            # 200 Hz at 1 kHz is above fs / (4 pi): every block is one sample wide
            pytest.param(
                ComplexSignal(np.exp(0.3j * np.arange(300)), 1000.0),
                FadingProfile((0.0, 2e-3, 5e-3), (0.0, -2.0, -4.0), 200.0),
                id="doppler-above-fs-over-4pi",
            ),
        ],
    )
    def test_matches_per_tone_reference(self, signal, profile):
        rng_ref, rng_new = np.random.default_rng(99), np.random.default_rng(99)
        expected = reference_fading(signal, profile, rng_ref)
        out = apply_fading(signal, profile, rng_new)
        npt.assert_allclose(out.samples, expected, rtol=0, atol=1e-12)
        assert rng_new.random() == rng_ref.random()

    def test_power_table_is_cached_read_only(self):
        table = _power_table(8)
        assert _power_table(8) is table
        npt.assert_array_equal(table, (np.arange(8) / 8) ** np.arange(TAYLOR_TERMS)[:, None])
        with pytest.raises(ValueError):
            table[1, 1] = 0.0

    def test_jakes_autocorrelation_is_bessel_j0(self):
        # One tap, unit input: the output is the tap gain g(t). Over many
        # realisations E[g(0) g*(tau)] -> J0(2 pi f_d tau) and E|g|^2 -> 1.
        fs, doppler = 1000.0, 10.0
        profile = FadingProfile((0.0,), (0.0,), doppler)
        ones = ComplexSignal(np.ones(64, dtype=np.complex128), fs)
        rng = np.random.default_rng(5)
        gains = np.array([apply_fading(ones, profile, rng).samples for _ in range(2000)])
        lags = np.array([0, 10, 25, 38, 50, 63])  # J0's first zero is near lag 38
        measured = np.mean(gains[:, :1] * np.conj(gains[:, lags]), axis=0)
        npt.assert_allclose(measured, j0(2.0 * np.pi * doppler * lags / fs), atol=0.1)
        assert abs(np.mean(np.abs(gains) ** 2) - 1.0) < 0.05

    def test_single_tap_no_doppler_is_flat(self):
        profile = FadingProfile((0.0,), (0.0,), 0.0)
        phy = PhyParams(sf=8)
        sig = modulate_symbol(17, phy)
        out = apply_fading(sig, profile, np.random.default_rng(11))
        ratio = out.samples / sig.samples
        npt.assert_allclose(ratio, ratio[0], rtol=1e-10)
        assert np.abs(ratio[0]) > 0.0

    def test_mean_power_preserved(self):
        profile = etu_like_profile()
        sig = ComplexSignal(np.ones(64, dtype=np.complex128), FS)
        rng = np.random.default_rng(3)
        in_power = np.mean(np.abs(sig.samples) ** 2)
        ratios = []
        for _ in range(100):
            out = apply_fading(sig, profile, rng)
            ratios.append(np.mean(np.abs(out.samples) ** 2) / in_power)
        mean_gain = np.mean(ratios)
        assert abs(mean_gain - 1.0) < 0.05, f"mean channel gain {mean_gain}"

    def test_etu_profile_varies_peaks_across_frame(self):
        profile = etu_like_profile()
        phy = PhyParams(sf=8)
        n = phy.n
        frame = ComplexSignal(
            np.tile(modulate_symbol(5, phy).samples, 30), phy.sample_rate_hz
        )
        out = apply_fading(frame, profile, np.random.default_rng(21))
        peaks = []
        for i in range(30):
            win = dechirp(out.samples[i * n : (i + 1) * n], phy)
            peaks.append(np.max(win.spectrum.magnitudes))
        assert np.var(peaks) > 0.0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            FadingProfile((), (), 5.0)
        with pytest.raises(ValueError):
            FadingProfile((0.0, 1e-6), (0.0,), 5.0)
        with pytest.raises(ValueError):
            FadingProfile((-1e-6,), (0.0,), 5.0)
        with pytest.raises(ValueError):
            FadingProfile((0.0,), (0.0,), -1.0)

    @pytest.mark.parametrize(
        "delays, powers_db, doppler",
        [
            pytest.param((0.0, math.nan), (0.0, 0.0), 5.0, id="nan-delay"),
            pytest.param((0.0, math.inf), (0.0, 0.0), 5.0, id="inf-delay"),
            pytest.param((0.0, 1e-6), (0.0, math.nan), 5.0, id="nan-power"),
            pytest.param((0.0, 1e-6), (0.0, math.inf), 5.0, id="inf-power"),
            pytest.param((0.0, 1e-6), (-math.inf, -math.inf), 5.0, id="all-taps-silent"),
            pytest.param((0.0,), (0.0,), math.inf, id="inf-doppler"),
        ],
    )
    def test_non_finite_input_rejected(self, delays, powers_db, doppler):
        with pytest.raises(ValueError):
            FadingProfile(delays, powers_db, doppler)

    def test_huge_finite_powers_normalise_like_their_offsets(self):
        signal = random_frame(7, 2, 6)
        huge = FadingProfile((0.0, 8e-6), (4000.0, 3997.0), 5.0)
        unit = FadingProfile((0.0, 8e-6), (0.0, -3.0), 5.0)
        a = apply_fading(signal, huge, np.random.default_rng(1))
        b = apply_fading(signal, unit, np.random.default_rng(1))
        npt.assert_allclose(a.samples, b.samples, rtol=0, atol=1e-12)

    def test_etu_like_profile_shape(self):
        profile = etu_like_profile()
        assert len(profile.tap_delays_s) == 9
        assert profile.tap_delays_s[0] == 0.0
        assert max(profile.tap_delays_s) == 5e-6
        assert profile.max_doppler_hz == 5.0


class TestClippedTone:
    def test_integer_tone_peak_is_amp_times_length(self):
        n = 256
        for start, stop, freq, amp in ((0, 256, 30, 1.0), (0, 100, 7, 2.0), (60, 200, 99, 0.5)):
            tone = clipped_tone(float(freq), amp, 0.3, start, stop, n)
            mag = np.abs(np.fft.fft(tone))
            npt.assert_allclose(mag[freq], amp * (stop - start), rtol=1e-9)

    def test_zero_outside_interval(self):
        tone = clipped_tone(5.0, 1.0, 0.0, 10, 20, 64)
        assert np.all(tone[:10] == 0) and np.all(tone[20:] == 0)
        assert np.all(np.abs(tone[10:20]) > 0)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            clipped_tone(1.0, 1.0, 0.0, 20, 10, 64)
        with pytest.raises(ValueError):
            clipped_tone(1.0, 1.0, 0.0, 0, 65, 64)


class TestTrainConfig:
    def test_defaults_match_recipe(self):
        cfg = TrainConfig()
        assert cfg.n_bins == 256
        assert cfg.n_symbols == 100_000
        assert cfg.max_interferers == 2
        assert cfg.power_range_db == (-15.0, 13.0)
        assert cfg.frac_freq_range == 0.125
        assert cfg.interference_samples_per_symbol == 10
        assert cfg.grid_resolution == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(n_bins=100)
        with pytest.raises(ValueError):
            TrainConfig(n_symbols=0)
        with pytest.raises(ValueError):
            TrainConfig(power_range_db=(13.0, -15.0))
        with pytest.raises(ValueError):
            TrainConfig(frac_freq_range=0.6)
        with pytest.raises(ValueError):
            TrainConfig(interference_samples_per_symbol=256)
        with pytest.raises(ValueError):
            TrainConfig(grid_resolution=1)
        with pytest.raises(ValueError):
            TrainConfig(smooth_floor=0.0)


def per_window_training_symbol(cfg, rng):
    """One training window built alone, one clipped_tone per tone, as before
    batching; returns the window, its true bin and the draw metadata."""
    n = cfg.n_bins
    true_bin = int(rng.integers(n))
    true_dev = float(rng.uniform(-cfg.frac_freq_range, cfg.frac_freq_range))
    true_phase = float(rng.uniform(0.0, 2.0 * np.pi))
    window = clipped_tone(true_bin + true_dev, 1.0, true_phase, 0, n, n)
    interferers = []
    for _ in range(int(rng.integers(cfg.max_interferers + 1))):
        power_db = float(rng.uniform(*cfg.power_range_db))
        amp = 10.0 ** (power_db / 20.0)
        boundary = int(rng.integers(n))
        dev = float(rng.uniform(-cfg.frac_freq_range, cfg.frac_freq_range))
        bin_a = int(rng.integers(n))
        bin_b = int(rng.integers(n))
        phase_a = float(rng.uniform(0.0, 2.0 * np.pi))
        phase_b = float(rng.uniform(0.0, 2.0 * np.pi))
        window += clipped_tone(bin_a + dev, amp, phase_a, 0, boundary, n)
        window += clipped_tone(bin_b + dev, amp, phase_b, boundary, n, n)
        interferers.append(
            {"power_db": power_db, "boundary": boundary, "deviation": dev, "bins": (bin_a, bin_b)}
        )
    variance = 1.0 / 10.0 ** (cfg.snr_db / 10.0)
    scale = math.sqrt(variance / 2.0) if variance > 0 else 0.0
    window += scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    meta = {"true_bin": true_bin, "true_deviation": true_dev, "interferers": interferers}
    return window, true_bin, meta


class TestTrainingWindows:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"max_interferers": 0},
            {"max_interferers": 3},
            {"snr_db": math.inf},
            {"frac_freq_range": 0.0},
            {"n_bins": 8, "interference_samples_per_symbol": 7},
            {"n_bins": 1024},
        ],
        ids=[
            "default",
            "no-interferers",
            "three-interferers",
            "inf-snr",
            "integer-bins",
            "n8",
            "n1024",
        ],
    )
    def test_batch_matches_per_window_reference(self, overrides):
        # Every row of the (K, N) batch carries the same bytes as the window
        # built alone from the same stream, and every stream ends in the
        # same state: the batch changes no draw and no rounding.
        cfg = TrainConfig(n_symbols=1, **overrides)
        windows, true_bins, _ = gen_training_windows(cfg, np.random.default_rng(8).spawn(40))
        ref_streams = np.random.default_rng(8).spawn(40)
        for row, stream in enumerate(ref_streams):
            window, true_bin, _ = per_window_training_symbol(cfg, stream)
            bins = np.fft.fft(window)
            assert windows.time_samples[row].tobytes() == window.tobytes()
            assert windows.spectrum.bins[row].tobytes() == bins.tobytes()
            assert windows.spectrum.magnitudes[row].tobytes() == np.abs(bins).tobytes()
            assert true_bins[row] == true_bin
        streams = np.random.default_rng(8).spawn(40)
        gen_training_windows(cfg, streams)
        for stream, ref in zip(streams, ref_streams):
            assert stream.bit_generator.state == ref.bit_generator.state

    def test_empty_stream_list_rejected(self):
        with pytest.raises(ValueError, match="at least one stream"):
            gen_training_windows(TrainConfig(n_symbols=1), [])

    def test_one_window_view_keeps_meta(self):
        cfg = TrainConfig(n_symbols=1, max_interferers=3)
        for seed in range(20):
            sym, true_bin, meta = gen_training_symbol(cfg, np.random.default_rng(seed))
            window, ref_bin, ref_meta = per_window_training_symbol(cfg, np.random.default_rng(seed))
            assert sym.time_samples.shape == (cfg.n_bins,)
            assert sym.time_samples.tobytes() == window.tobytes()
            assert (true_bin, meta) == (ref_bin, ref_meta)


class TestTrainingSymbol:
    def test_clean_symbol_detected_by_baseline(self):
        cfg = TrainConfig(
            n_symbols=1, max_interferers=0, frac_freq_range=0.0, snr_db=300.0
        )
        rng = np.random.default_rng(5)
        for _ in range(20):
            window, true_bin, meta = gen_training_symbol(cfg, rng)
            assert baseline_detect(window.spectrum) == true_bin
            assert meta["true_bin"] == true_bin
            npt.assert_allclose(
                window.spectrum.magnitudes[true_bin], cfg.n_bins, rtol=1e-6
            )

    def test_strong_interferers_defeat_baseline_sometimes(self):
        # With every interferer pinned at +13 dB, a visible fraction of
        # windows must fool the magnitude argmax.
        # The same generator passed K times makes the draws of K successive
        # gen_training_symbol calls, window for window.
        cfg = TrainConfig(n_symbols=1, power_range_db=(13.0, 13.0), snr_db=300.0)
        rng = np.random.default_rng(99)
        wrong = 0
        for _ in range(10):
            windows, true_bins, _ = gen_training_windows(cfg, [rng] * 1000)
            wrong += int(np.count_nonzero(baseline_detect(windows.spectrum) != true_bins))
        assert wrong > 0, "no misclassified windows in 10k draws"

    def test_interferer_count_and_meta_fields(self):
        cfg = TrainConfig(n_symbols=1)
        rng = np.random.default_rng(2)
        counts = set()
        for _ in range(200):
            _, _, meta = gen_training_symbol(cfg, rng)
            counts.add(len(meta["interferers"]))
            for itf in meta["interferers"]:
                assert -15.0 <= itf["power_db"] <= 13.0
                assert 0 <= itf["boundary"] < cfg.n_bins
                assert abs(itf["deviation"]) <= cfg.frac_freq_range
        assert counts == {0, 1, 2}

    def test_noise_level_tracks_snr_config(self):
        # The wanted tone has unit power, so the window with the tone
        # removed should carry roughly the configured noise variance.
        cfg = TrainConfig(n_symbols=1, max_interferers=0, frac_freq_range=0.0, snr_db=-3.0)
        rng = np.random.default_rng(31)
        powers = []
        for _ in range(300):
            window, _, _ = gen_training_symbol(cfg, rng)
            # Total window power minus the unit tone power leaves the noise.
            powers.append(np.mean(np.abs(window.time_samples) ** 2) - 1.0)
        target = 10.0 ** (3.0 / 10.0)
        assert abs(np.mean(powers) - target) < 0.1 * target

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(n_symbols=1)
        a, bin_a, meta_a = gen_training_symbol(cfg, np.random.default_rng(1234))
        b, bin_b, meta_b = gen_training_symbol(cfg, np.random.default_rng(1234))
        npt.assert_array_equal(a.time_samples, b.time_samples)
        assert bin_a == bin_b
        assert meta_a == meta_b
