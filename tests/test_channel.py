"""Noise, offsets, collisions, fading, and the training-symbol generator.

Sample streams are complex128 arrays; AWGN is `compose_collision` with no
interferers.
"""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0

from cora import (
    FadingProfile,
    PhyParams,
    ScenarioSpec,
    TrainConfig,
    apply_fading,
    baseline_detect,
    build_frame,
    clipped_tone,
    collide,
    compose_collision,
    dechirp,
    etu_like_profile,
    gen_training_symbol,
    modulate_symbol,
)
from cora.channel import (
    _TEXT_PARSERS,
    JAKES_OSCILLATORS,
    MAX_TAYLOR_BLOCK,
    TAYLOR_TERMS,
    _fading_plan,
    _power_table,
    format_value,
    parse_tokens,
    parse_value,
    text_keys,
)
from cora import channel as channel_module
from cora.detector import hpd
from oracles import grouped_fading

FS = 125e3


def two_symbol_frame(m1: int, m2: int, phy: PhyParams) -> np.ndarray:
    return np.concatenate([modulate_symbol(m1, phy), modulate_symbol(m2, phy)])


def add_noise(samples, snr_db, rng):
    return compose_collision(samples, [], snr_db, rng)


def rotate(samples, bins, n):
    """`samples` under a carrier offset of `bins` FFT bins (bandwidth / n Hz each)."""
    return samples * np.exp(2j * np.pi * bins * np.arange(len(samples)) / n)


class TestAwgn:
    def test_huge_snr_is_identity(self):
        rng = np.random.default_rng(0)
        sig = np.exp(1j * np.linspace(0, 5, 64))
        out = add_noise(sig, 300.0, rng)
        npt.assert_allclose(out, sig, rtol=1e-10)

    def test_noise_power_at_zero_db(self):
        # Unit-power input at 0 dB SNR: the added noise should carry unit
        # power as well, measured over 1e5 samples.
        rng = np.random.default_rng(7)
        sig = np.ones(100_000, dtype=np.complex128)
        out = add_noise(sig, 0.0, rng)
        noise_power = np.mean(np.abs(out - sig) ** 2)
        assert 0.9 < noise_power < 1.1, f"noise power {noise_power} off target"

    def test_power_tracks_snr(self):
        rng = np.random.default_rng(8)
        sig = 2.0 * np.ones(100_000, dtype=np.complex128)
        out = add_noise(sig, 10.0, rng)
        noise_power = np.mean(np.abs(out - sig) ** 2)
        # Signal power 4, SNR 10 dB -> variance 0.4.
        assert 0.36 < noise_power < 0.44

    def test_zero_signal_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="zero power"):
            add_noise(np.zeros(16, dtype=np.complex128), 10.0, rng)

    def test_nan_snr_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            add_noise(np.ones(16, dtype=np.complex128), float("nan"), rng)

    @pytest.mark.parametrize(
        "snr_db",
        [math.nan, -math.inf, 4000.0, -4000.0, 3083.0, -3083.0],
        ids=["nan", "minus-inf", "plus-4000", "minus-4000", "plus-3083", "minus-3083"],
    )
    @pytest.mark.parametrize(
        "holder", ["add_awgn", "CollisionScenario", "TrainConfig", "ScenarioSpec"]
    )
    def test_one_snr_rule(self, holder, snr_db):
        # every place that takes an SNR rejects the ones that set no
        # representable noise level: 10^(snr_db/10) or its reciprocal
        # would overflow the double range or vanish. The first two case ids
        # keep the names of the entry points `compose_collision` replaced:
        # plain AWGN (no interferers) and a collision (one interferer).
        sig = np.ones(16, dtype=np.complex128)
        make = {
            "add_awgn": lambda: add_noise(sig, snr_db, np.random.default_rng(0)),
            "CollisionScenario": lambda: compose_collision(
                sig, [(sig, 0.0, 0)], snr_db, np.random.default_rng(0)
            ),
            "TrainConfig": lambda: TrainConfig(snr_db=snr_db),
            "ScenarioSpec": lambda: ScenarioSpec(snr_db=snr_db),
        }[holder]
        with pytest.raises(ValueError, match="^snr_db "):
            make()

    @pytest.mark.parametrize("snr_db", [math.inf, 3082.0, -3082.0, 0.0])
    def test_representable_snr_accepted(self, snr_db):
        TrainConfig(snr_db=snr_db)
        ScenarioSpec(snr_db=snr_db)
        out = add_noise(np.ones(16, dtype=np.complex128), snr_db, np.random.default_rng(0))
        assert np.isfinite(out).all()


class TestFreqOffset:
    def test_integer_offset_moves_peak_one_bin(self):
        phy = PhyParams(sf=8)
        for m in (0, 100, 255):
            win = dechirp(rotate(modulate_symbol(m, phy), 1.0, phy.n), phy)
            assert baseline_detect(win.magnitudes) == (m + 1) % phy.n

    def test_fractional_offset_degrades_hpd(self):
        # An eighth-bin deviation breaks the half-period cancellation, so
        # h at the peak moves away from zero: tan(pi/16) for a full-window
        # tone.
        phy = PhyParams(sf=8)
        m = 40
        win = dechirp(rotate(modulate_symbol(m, phy), 0.125, phy.n), phy)
        h = hpd(win)
        assert h[m] > 0.0
        npt.assert_allclose(h[m], np.tan(np.pi / 16), rtol=1e-6)


class TestComposeCollision:
    def test_no_interferers_high_snr_is_identity(self):
        phy = PhyParams(sf=8)
        target = two_symbol_frame(5, 30, phy)
        out = compose_collision(target, [], np.inf, np.random.default_rng(0))
        npt.assert_array_equal(out, target)

    def test_target_coerced_to_complex128(self):
        target = np.arange(1, 5, dtype=np.float32)
        out = compose_collision(target, [], np.inf, np.random.default_rng(0))
        assert out.dtype == np.complex128
        npt.assert_array_equal(out, target)

    def test_target_must_be_nonempty_1d(self):
        rng = np.random.default_rng(0)
        for bad in (np.ones((2, 2)), np.ones(0), np.complex128(1.0)):
            with pytest.raises(ValueError, match="non-empty 1-D"):
                compose_collision(bad, [], np.inf, rng)

    def test_three_peaks_in_collided_window(self):
        # Target symbol 30 in its second window; the interferer starts 153
        # samples late, so the window sees the tail of its first symbol and
        # the head of its second: three tones at bins 30, 103 = -153 mod
        # 256 and 163 = 60 - 153 mod 256.
        phy = PhyParams(sf=8)
        n = phy.n
        target = two_symbol_frame(5, 30, phy)
        interferer = (two_symbol_frame(0, 60, phy), 0.0, 153)
        out = compose_collision(target, [interferer], np.inf, np.random.default_rng(0))
        win = dechirp(out[n : 2 * n], phy)
        mags = win.magnitudes
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
        interferer = (two_symbol_frame(0, 60, phy), 6.0, 153)
        out = compose_collision(target, [interferer], np.inf, np.random.default_rng(0))
        win = dechirp(out[n : 2 * n], phy)
        assert baseline_detect(win.magnitudes) == 103
        assert win.magnitudes[30] > 0.99 * n
        h = hpd(win)
        assert h[30] < 0.1, f"true bin no longer tone-like, h={h[30]}"
        assert h[103] > 0.5 and h[163] > 0.5

    def test_interferer_clipped_to_target_extent(self):
        phy = PhyParams(sf=7)
        target = modulate_symbol(3, phy)
        long_frame = two_symbol_frame(1, 2, phy)
        out = compose_collision(target, [(long_frame, 0.0, 64)], np.inf, np.random.default_rng(0))
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
        target = modulate_symbol(3, phy)
        with pytest.raises(ValueError):
            compose_collision(target, [(target, 0.0, 128)], np.inf, np.random.default_rng(0))

    def test_interferer_validation(self):
        # a gain whose power ratio overflows or vanishes sets no interferer
        # level; every bad placement raises before the noise is drawn
        phy = PhyParams(sf=7)
        frame = modulate_symbol(3, phy)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        bad_gains = (math.nan, math.inf, 1e4, -1e4, 3083.0, -3083.0)
        for gain_db, offset in ((0.0, -1), (0.0, 3.0), *((g, 0) for g in bad_gains)):
            with pytest.raises(ValueError):
                compose_collision(frame, [(frame, gain_db, offset)], 10.0, rng)
            assert rng.bit_generator.state == state

    def test_minus_inf_gain_is_a_silent_interferer(self):
        frame = modulate_symbol(3, PhyParams(sf=7))
        silent = compose_collision(frame, [(frame, -math.inf, 5)], 10.0, np.random.default_rng(4))
        alone = compose_collision(frame, [], 10.0, np.random.default_rng(4))
        npt.assert_array_equal(silent, alone)

    def test_deterministic_given_seed(self):
        phy = PhyParams(sf=7)
        target = two_symbol_frame(9, 80, phy)
        interferers = [(two_symbol_frame(0, 1, phy), -3.0, 40)]
        a = compose_collision(target, interferers, 5.0, np.random.default_rng(77))
        b = compose_collision(target, interferers, 5.0, np.random.default_rng(77))
        npt.assert_array_equal(a, b)


@st.composite
def collision_chunks(draw):
    """F = 1-5 targets of one length with interferers, placements, SNR and row seeds.

    Targets are faded or not, scaled to non-unit powers, and hold signed
    zeros; offsets include 0 and L - 1, gains -inf dB, SNR +inf dB.
    """
    rows = draw(st.integers(1, 5))
    length = draw(st.integers(1, 300))
    n_intf = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = rng.standard_normal((rows, length)) + 1j * rng.standard_normal((rows, length))
    zeros = rng.random(length) < 0.1
    zeros[0] = False  # every row keeps some power
    targets[:, zeros] = complex(-0.0, -0.0)
    targets *= 10.0 ** rng.uniform(-3, 3, (rows, 1))
    for row in range(rows):
        if draw(st.booleans()):
            targets[row] = apply_fading(targets[row], FS, etu_like_profile(), rng)
    frames = rng.standard_normal((rows, n_intf, draw(st.integers(1, 2 * length))))
    offsets = st.sampled_from([0, length - 1]) | st.integers(0, length - 1)
    gains = st.just(-math.inf) | st.floats(-40.0, 40.0)
    placements = [[(draw(offsets), draw(gains)) for _ in range(n_intf)] for _ in range(rows)]
    snr_db = draw(st.just(math.inf) | st.floats(-20.0, 60.0))
    seeds = draw(st.lists(st.integers(0, 99), min_size=rows, max_size=rows))
    return targets, frames, placements, snr_db, seeds


@st.composite
def campaign_chunks(draw):
    """Targets as `collision_chunks` draws them, with 0-3 complex128
    interferer rows of their length stacked slot by slot, (I, F, L), as a
    campaign chunk holds them."""
    targets, _, _, snr_db, seeds = draw(collision_chunks())
    rows, length = targets.shape
    n_intf = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    others = rng.standard_normal((n_intf, rows, length)) + 1j * rng.standard_normal(
        (n_intf, rows, length)
    )
    offsets = st.sampled_from([0, length - 1]) | st.integers(0, length - 1)
    gains = st.just(-math.inf) | st.floats(-40.0, 40.0)
    placements = [[(draw(offsets), draw(gains)) for _ in range(n_intf)] for _ in range(rows)]
    return targets, others, placements, snr_db, seeds


class TestChunkCollide:
    @settings(max_examples=150, deadline=None, database=None)
    @given(case=collision_chunks())
    def test_chunk_is_row_by_row_compose_collision(self, case):
        # one chunk call against F one-frame calls, each row's noise from its own seed
        targets, frames, placements, snr_db, seeds = case
        length = targets.shape[1]
        noise = np.stack([np.random.default_rng(s).standard_normal((2, length)) for s in seeds])
        chunk = collide(targets.copy(), frames, placements, snr_db, noise)
        rows = np.stack([
            compose_collision(
                target,
                [(frame, gain_db, offset) for frame, (offset, gain_db) in zip(row_frames, placed)],
                snr_db,
                np.random.default_rng(seed),
            )
            for target, row_frames, placed, seed in zip(targets, frames, placements, seeds)
        ])
        assert chunk.tobytes() == rows.tobytes()
        signs = [np.signbit(x.view(np.float64)) for x in (chunk, rows)]
        npt.assert_array_equal(*signs)

    @settings(max_examples=150, deadline=None, database=None)
    @given(case=campaign_chunks(), over_draws=st.booleans())
    def test_dead_buffers_keep_every_byte(self, case, over_draws):
        # buffers as a campaign reuses them: the draws in a dead complex
        # buffer, the complex noise in the first interferer rows (without
        # interferers, in a second dead buffer), the noisy frames over the
        # draws or in place
        targets, others, placements, snr_db, seeds = case
        # the references first: the chunk call overwrites the first interferer rows
        alone = np.stack([
            compose_collision(
                target,
                [(frame, gain_db, offset) for frame, (offset, gain_db) in zip(row_frames, placed)],
                snr_db,
                np.random.default_rng(seed),
            )
            for target, row_frames, placed, seed in zip(
                targets, others.transpose(1, 0, 2), placements, seeds
            )
        ])
        rows, length = targets.shape
        dead = np.full((2, rows, length), complex(math.nan, -0.0))
        noise = dead[0].view(np.float64).reshape(rows, 2, length)
        for row, seed in enumerate(seeds):
            np.random.default_rng(seed).standard_normal(out=noise[row])
        spare = others[0] if len(others) else dead[1]
        out = dead[0] if over_draws else None
        chunk = collide(targets.copy(), others.transpose(1, 0, 2), placements, snr_db, noise, spare, out)
        assert np.shares_memory(chunk, dead[0]) == over_draws
        assert chunk.tobytes() == alone.tobytes()
        npt.assert_array_equal(*(np.signbit(x.view(np.float64)) for x in (chunk, alone)))

    def test_zero_power_row_raises(self):
        targets = np.ones((3, 16), dtype=np.complex128)
        targets[1] = complex(-0.0, 0.0)
        noise = np.random.default_rng(0).standard_normal((3, 2, 16))
        with pytest.raises(ValueError, match="target frame has zero power"):
            collide(targets, np.empty((3, 0, 16)), [[], [], []], 10.0, noise)
        with pytest.raises(ValueError, match="target frame has zero power"):
            compose_collision(targets[1], [], 10.0, np.random.default_rng(0))


def reference_fading(x, fs, profile, rng):
    """Tap-by-tap, tone-by-tone Jakes tapped delay line: n exponentials per tone."""
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


def random_frame(sf: int, n_payload: int, seed: int) -> np.ndarray:
    phy = PhyParams(sf=sf)
    payload = np.random.default_rng(seed).integers(phy.n, size=n_payload)
    return build_frame(payload, 8, phy)


@st.composite
def fading_cases(draw):
    """k streams of n samples at 1 kHz, and a profile of 1-4 taps at 0-400 Hz
    with shared delays, silent taps and delays of n samples or more."""
    n = draw(st.integers(1, 3000))
    k = draw(st.integers(1, 5))
    delays = st.one_of(st.sampled_from([0, 1, n]), st.integers(0, n + 2))
    powers = st.sampled_from([0.0, -3.0, -math.inf])
    taps = draw(
        st.lists(st.tuples(delays, powers), min_size=1, max_size=4).filter(
            lambda taps: any(p > -math.inf for _, p in taps)
        )
    )
    fs = 1000.0
    profile = FadingProfile(
        tuple(d / fs for d, _ in taps), tuple(p for _, p in taps), draw(st.floats(0.0, 400.0))
    )
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=k, max_size=k))
    rng = np.random.default_rng(seeds[0])
    signals = list(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    return signals, fs, profile, seeds


def assert_streams_fade_alone(signals, fs, profile, seeds):
    """One call over the streams back to back gives each stream's bytes, and
    each generator's end state, of a call on that stream alone."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    out = apply_fading(np.concatenate(signals), fs, profile, rngs)
    for x, part, seed, rng in zip(signals, np.split(out, len(signals)), seeds, rngs):
        alone = np.random.default_rng(seed)
        assert part.tobytes() == apply_fading(x, fs, profile, alone).tobytes()
        assert rng.bit_generator.state == alone.bit_generator.state


class TestFading:
    @pytest.mark.parametrize(
        "signal, fs, profile",
        [
            pytest.param(random_frame(7, 20, 1), FS, etu_like_profile(), id="etu-sf7"),
            pytest.param(random_frame(8, 20, 2), FS, etu_like_profile(), id="etu-sf8"),
            pytest.param(random_frame(12, 2, 3), FS, etu_like_profile(), id="etu-sf12"),
            pytest.param(random_frame(8, 20, 4), FS, FadingProfile((0.0,), (0.0,), 0.0), id="flat"),
            pytest.param(
                random_frame(12, 2, 5),
                FS,
                replace(etu_like_profile(), max_doppler_hz=100.0),
                id="etu-sf12-100hz",
            ),
            pytest.param(
                np.exp(0.3j * np.arange(100)),
                FS,
                FadingProfile((0.0, 8e-6, 800e-6, 1e-3), (0.0, -math.inf, 0.0, -1.0), 20.0),
                id="silent-tap-and-delays-past-end",
            ),
            pytest.param(np.ones(1, dtype=np.complex128), FS, etu_like_profile(), id="n1"),
            pytest.param(np.ones(2, dtype=np.complex128), FS, etu_like_profile(), id="n2"),
            pytest.param(
                random_frame(8, 20, 6),
                FS,
                replace(etu_like_profile(), max_doppler_hz=0.0),
                id="etu-0hz",
            ),
            # longer than MAX_TAYLOR_BLOCK: a Doppler-free sum takes B at the cap
            pytest.param(
                random_frame(12, 20, 7),
                FS,
                replace(etu_like_profile(), max_doppler_hz=0.0),
                id="etu-sf12-0hz",
            ),
            # 200 Hz at 1 kHz is above fs / (4 pi): every block is one sample wide
            pytest.param(
                np.exp(0.3j * np.arange(300)),
                1000.0,
                FadingProfile((0.0, 2e-3, 5e-3), (0.0, -2.0, -4.0), 200.0),
                id="doppler-above-fs-over-4pi",
            ),
        ],
    )
    def test_matches_per_tone_reference(self, signal, fs, profile):
        rng_ref, rng_new = np.random.default_rng(99), np.random.default_rng(99)
        expected = reference_fading(signal, fs, profile, rng_ref)
        out = apply_fading(signal, fs, profile, rng_new)
        npt.assert_allclose(out, expected, rtol=0, atol=1e-12)
        assert rng_new.random() == rng_ref.random()
        grouped, _ = grouped_fading(signal, fs, profile, np.random.default_rng(99))
        assert out.tobytes() == grouped.tobytes()

    @pytest.mark.parametrize(
        "signal, profile, some_widths_differ",
        [
            pytest.param(random_frame(7, 20, 1), etu_like_profile(), True, id="etu-sf7"),
            pytest.param(random_frame(8, 20, 2), etu_like_profile(), True, id="etu-sf8"),
            pytest.param(random_frame(12, 2, 3), etu_like_profile(), True, id="etu-sf12"),
            # at 100 Hz both groups take B = 64 in practically every frame
            pytest.param(
                random_frame(8, 20, 5),
                replace(etu_like_profile(), max_doppler_hz=100.0),
                False,
                id="etu-sf8-100hz",
            ),
        ],
    )
    def test_bit_identical_to_group_by_group_sums(self, signal, profile, some_widths_differ):
        # Evaluating the groups that share a Taylor block width in one pass
        # changes no bit of the channel. At 5 Hz the realised Dopplers give
        # the two ETU groups different widths in some 7% of frames.
        split = 0
        for seed in range(200):
            rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
            expected, widths = grouped_fading(signal, FS, profile, rng_ref)
            assert apply_fading(signal, FS, profile, rng_new).tobytes() == expected.tobytes()
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state
            split += len(set(widths)) > 1
        assert split > 0 or not some_widths_differ

    @pytest.mark.parametrize(
        "sf, n_payload, profile",
        [
            pytest.param(7, 20, etu_like_profile(), id="etu-sf7"),
            pytest.param(8, 20, etu_like_profile(), id="etu-sf8"),
            pytest.param(12, 2, etu_like_profile(), id="etu-sf12"),
            pytest.param(
                8, 20, replace(etu_like_profile(), max_doppler_hz=100.0), id="etu-sf8-100hz"
            ),
            # three delay groups of 16 tones each: their B differ in some streams
            pytest.param(
                8,
                20,
                FadingProfile((0.0, 8e-6, 16e-6), (0.0, -1.0, -2.0), 5.0),
                id="three-groups",
            ),
        ],
    )
    def test_streams_in_one_call_equal_one_stream_calls(self, sf, n_payload, profile):
        signals = [random_frame(sf, n_payload, seed) for seed in range(5)]
        assert_streams_fade_alone(signals, FS, profile, seeds=range(10, 15))

    def test_group_with_different_widths_across_streams(self):
        # At 5 Hz the delay-1 ETU group takes B = 2,048 in some 7% of SF8
        # frames and B = 1,024 in the rest; 40 streams hold both.
        signals = [random_frame(8, 20, seed) for seed in range(40)]
        widths = [
            grouped_fading(x, FS, etu_like_profile(), np.random.default_rng(seed))[1]
            for x, seed in zip(signals, range(40))
        ]
        assert len({w[1] for w in widths}) > 1
        assert_streams_fade_alone(signals, FS, etu_like_profile(), seeds=range(40))

    def test_group_delayed_past_the_stream_in_every_stream(self):
        # delays of 0, 1 and 125 samples over 100-sample streams
        profile = FadingProfile((0.0, 8e-6, 1e-3), (0.0, -1.0, -2.0), 20.0)
        assert [d for d, _ in _fading_plan(profile, FS, 100)[1]] == [0, 1]
        signals = [np.exp(0.3j * np.arange(100) + phase) for phase in range(3)]
        assert_streams_fade_alone(signals, FS, profile, seeds=range(3))

    @settings(max_examples=150, deadline=None, database=None)
    @given(case=fading_cases())
    def test_random_streams_fade_alone_and_group_by_group(self, case):
        # At 1 kHz a Doppler above about 20 Hz gives B = 1. A group delayed
        # by n - 1 samples (every group when n = 1) leaves one sample, and
        # numpy rounds an in-place product of one complex sample differently
        # from the oracle's out-of-place one, by an ulp: the oracle is held
        # to bytes wherever every group leaves two samples or more.
        signals, fs, profile, seeds = case
        assert_streams_fade_alone(signals, fs, profile, seeds)
        n = signals[0].size
        if all(delay < n - 1 for delay, _ in _fading_plan(profile, fs, n)[1]):
            for x, seed in zip(signals, seeds):
                grouped, _ = grouped_fading(x, fs, profile, np.random.default_rng(seed))
                out = apply_fading(x, fs, profile, np.random.default_rng(seed))
                assert out.tobytes() == grouped.tobytes()

    def test_one_generator_in_a_sequence_is_the_one_stream_call(self):
        signal = random_frame(8, 20, 2)
        listed = apply_fading(signal, FS, etu_like_profile(), [np.random.default_rng(4)])
        bare = apply_fading(signal, FS, etu_like_profile(), np.random.default_rng(4))
        grouped, _ = grouped_fading(signal, FS, etu_like_profile(), np.random.default_rng(4))
        assert listed.tobytes() == bare.tobytes() == grouped.tobytes()

    @pytest.mark.parametrize("n_rngs", [3, 0], ids=["uneven", "no-generators"])
    def test_bad_stream_split_rejected_before_any_draw(self, n_rngs):
        rngs = [np.random.default_rng(seed) for seed in range(n_rngs)]
        states = [rng.bit_generator.state for rng in rngs]
        message = f"^need k >= 1 generators for k equal streams, got {n_rngs} for 100 samples$"
        with pytest.raises(ValueError, match=message):
            apply_fading(np.ones(100, dtype=complex), FS, etu_like_profile(), rngs)
        assert [rng.bit_generator.state for rng in rngs] == states

    def test_plan_is_cached_read_only(self):
        amps, groups = plan = _fading_plan(etu_like_profile(), FS, 100)
        assert _fading_plan(etu_like_profile(), FS, 100) is plan
        assert [delay for delay, _ in groups] == [0, 1]
        npt.assert_array_equal(groups[0][1], np.arange(8 * JAKES_OSCILLATORS))
        npt.assert_array_equal(groups[1][1], np.arange(8 * JAKES_OSCILLATORS, amps.size))
        assert [delay for delay, _ in _fading_plan(etu_like_profile(), FS, 1)[1]] == [0]
        for array in (amps, *(tones for _, tones in groups)):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_power_table_is_cached_read_only(self):
        table = _power_table(8)
        assert _power_table(8) is table
        npt.assert_array_equal(table, (np.arange(8) / 8) ** np.arange(TAYLOR_TERMS)[:, None])
        with pytest.raises(ValueError):
            table[1, 1] = 0.0

    def test_power_table_width_is_capped(self, monkeypatch):
        widths = []
        table = channel_module._power_table

        def recording_table(width):
            widths.append(width)
            return table(width)

        monkeypatch.setattr(channel_module, "_power_table", recording_table)
        frame = random_frame(12, 20, 8)
        for signal, profile in [
            (frame, replace(etu_like_profile(), max_doppler_hz=0.0)),
            (frame, etu_like_profile()),
            (np.ones(3 * MAX_TAYLOR_BLOCK + 5, dtype=complex), FadingProfile((0.0,), (0.0,), 0.1)),
        ]:
            apply_fading(signal, FS, profile, np.random.default_rng(1))
        assert max(widths) == MAX_TAYLOR_BLOCK

    def test_jakes_autocorrelation_is_bessel_j0(self):
        # One tap, unit input: the output is the tap gain g(t). Over many
        # realisations E[g(0) g*(tau)] -> J0(2 pi f_d tau) and E|g|^2 -> 1.
        fs, doppler = 1000.0, 10.0
        profile = FadingProfile((0.0,), (0.0,), doppler)
        ones = np.ones(64, dtype=np.complex128)
        rng = np.random.default_rng(5)
        gains = np.array([apply_fading(ones, fs, profile, rng) for _ in range(2000)])
        lags = np.array([0, 10, 25, 38, 50, 63])  # J0's first zero is near lag 38
        measured = np.mean(gains[:, :1] * np.conj(gains[:, lags]), axis=0)
        npt.assert_allclose(measured, j0(2.0 * np.pi * doppler * lags / fs), atol=0.1)
        assert abs(np.mean(np.abs(gains) ** 2) - 1.0) < 0.05

    def test_single_tap_no_doppler_is_flat(self):
        profile = FadingProfile((0.0,), (0.0,), 0.0)
        phy = PhyParams(sf=8)
        sig = modulate_symbol(17, phy)
        out = apply_fading(sig, phy.sample_rate_hz, profile, np.random.default_rng(11))
        ratio = out / sig
        npt.assert_allclose(ratio, ratio[0], rtol=1e-10)
        assert np.abs(ratio[0]) > 0.0

    def test_mean_power_preserved(self):
        profile = etu_like_profile()
        sig = np.ones(64, dtype=np.complex128)
        rng = np.random.default_rng(3)
        in_power = np.mean(np.abs(sig) ** 2)
        ratios = []
        for _ in range(100):
            out = apply_fading(sig, FS, profile, rng)
            ratios.append(np.mean(np.abs(out) ** 2) / in_power)
        mean_gain = np.mean(ratios)
        assert abs(mean_gain - 1.0) < 0.05, f"mean channel gain {mean_gain}"

    def test_etu_profile_varies_peaks_across_frame(self):
        profile = etu_like_profile()
        phy = PhyParams(sf=8)
        n = phy.n
        frame = np.tile(modulate_symbol(5, phy), 30)
        out = apply_fading(frame, phy.sample_rate_hz, profile, np.random.default_rng(21))
        peaks = []
        for i in range(30):
            win = dechirp(out[i * n : (i + 1) * n], phy)
            peaks.append(np.max(win.magnitudes))
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

    @pytest.mark.parametrize("fs", [0.0, math.nan, -FS, math.inf], ids=["zero", "nan", "negative", "inf"])
    def test_rate_must_be_finite_and_positive(self, fs):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^fs must be finite and > 0, got "):
            apply_fading(random_frame(7, 2, 7), fs, etu_like_profile(), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("shape", [(3, 64), ()], ids=["rows", "scalar"])
    def test_samples_not_1d_rejected_before_any_draw(self, shape):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^samples must be one 1-D array, got shape "):
            apply_fading(np.ones(shape, dtype=complex), FS, etu_like_profile(), rng)
        assert rng.bit_generator.state == state

    def test_huge_finite_delay_is_past_the_stream(self):
        # 1e305 s at 125 kHz overflows to an infinite sample delay; the tap
        # contributes nothing, like one at 1 ms (125 samples) past a
        # 100-sample stream
        signal = np.exp(0.3j * np.arange(100))
        huge = FadingProfile((0.0, 1e305), (0.0, -3.0), 5.0)
        past = FadingProfile((0.0, 1e-3), (0.0, -3.0), 5.0)
        a = apply_fading(signal, FS, huge, np.random.default_rng(1))
        b = apply_fading(signal, FS, past, np.random.default_rng(1))
        assert a.tobytes() == b.tobytes()

    def test_huge_finite_powers_normalise_like_their_offsets(self):
        signal = random_frame(7, 2, 6)
        huge = FadingProfile((0.0, 8e-6), (4000.0, 3997.0), 5.0)
        unit = FadingProfile((0.0, 8e-6), (0.0, -3.0), 5.0)
        a = apply_fading(signal, FS, huge, np.random.default_rng(1))
        b = apply_fading(signal, FS, unit, np.random.default_rng(1))
        npt.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_etu_like_profile_shape(self):
        profile = etu_like_profile()
        assert len(profile.tap_delays_s) == 9
        assert profile.tap_delays_s[0] == 0.0
        assert max(profile.tap_delays_s) == 5e-6
        assert profile.max_doppler_hz == 5.0


# Values of each annotation a text may set. Signed zeros, infinities and
# subnormals are drawn often, not left to the float strategy's chance.
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308]),
    st.floats(allow_nan=False),
)
TEXT_VALUES = {
    "int": st.integers(),
    "float": FLOATS,
    "str": st.text(),
    "bool": st.booleans(),
    "tuple[float, float]": st.tuples(FLOATS, FLOATS),
}


class TestTextCodec:
    @pytest.mark.parametrize("kind", list(_TEXT_PARSERS))
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_format_then_parse_is_exact(self, kind, data):
        value = data.draw(TEXT_VALUES[kind])
        back = parse_value(kind, "key", format_value(value))
        # repr tells -0.0 from 0.0 and prints the shortest exact float
        assert (type(back), repr(back)) == (type(value), repr(value))

    def test_text_keys_are_cached_read_only(self):
        keys = text_keys(TrainConfig)
        assert text_keys(TrainConfig) is keys
        assert keys["seed"] == "int" and keys["power_range_db"] == "tuple[float, float]"
        with pytest.raises(TypeError):
            keys["seed"] = "float"

    def test_tokens_are_typed_in_any_order(self):
        kinds = {"fs": "float", "n": "int"}
        assert parse_tokens(["n=3", "fs=1e3"], kinds) == {"fs": 1000.0, "n": 3}
        assert parse_tokens(["n=3"], kinds, required=False) == {"n": 3}

    @pytest.mark.parametrize(
        "tokens, message",
        [
            (["n=3", "fs"], "expected key=value, got 'fs'"),
            (["n=3", "gain=1"], "unknown key 'gain'"),
            (["n=3", "fs=1", "n=4"], "duplicate key 'n'"),
            (["n=3"], "missing key 'fs'"),
            (["n=3", "fs=fast"], "fs: expected a number, got 'fast'"),
        ],
    )
    def test_bad_tokens_rejected(self, tokens, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_tokens(tokens, {"fs": "float", "n": "int"})


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

    def test_n_bins_above_one_32_bit_draw_rejected(self):
        # gen_training_symbol decodes integers(n_bins) from one 32-bit draw
        assert TrainConfig(n_bins=2**32).n_bins == 2**32
        with pytest.raises(ValueError, match=r"power of two in \[2, 2\*\*32\]"):
            TrainConfig(n_bins=2**33)


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


def assert_matches_reference(cfg, streams, ref_streams):
    """`gen_training_symbol(cfg, streams)` against the windows that `ref_streams`,
    twins of `streams`, give one at a time: bytes, draws and whole end states."""
    windows, true_bins, (true, counts, slots) = gen_training_symbol(cfg, streams)
    for row, stream in enumerate(ref_streams):
        window, true_bin, meta = per_window_training_symbol(cfg, stream)
        assert windows.time_samples[row].tobytes() == window.tobytes()
        assert windows.magnitudes[row].tobytes() == np.abs(np.fft.fft(window)).tobytes()
        assert (true_bins[row], true[row, 1]) == (true_bin, meta["true_deviation"])
        drawn = [[itf["power_db"], itf["boundary"], itf["deviation"], *itf["bins"]]
                 for itf in meta["interferers"]]
        assert slots[row, : counts[row]][:, [0, 2, 3, 4, 5]].tolist() == drawn
    for stream, ref in zip(streams, ref_streams):
        assert stream.bit_generator.state == ref.bit_generator.state


# PCG64's 128-bit LCG multiplier: state' = state * PCG64_MULTIPLIER + inc, mod 2**128.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_state_before(word, rot, inc):
    """The PCG64 state whose next 64-bit output is `word`, with rotation `rot`.

    The output of a state s is its high and low halves XORed and rotated
    right by s >> 122, so that state's high half is chosen with `rot` in its
    top six bits and the low half inverts the XOR; one inverse LCG step
    gives the state before it.
    """
    high = rot << 58 | 0x123456789ABCDEF
    xored = (word << rot | word >> (64 - rot)) & (2**64 - 1) if rot else word
    after = high << 64 | (xored ^ high)
    return (after - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128


TRAINING_OVERRIDES = {
    "default": {},
    "no-interferers": {"max_interferers": 0},
    "three-interferers": {"max_interferers": 3},
    "inf-snr": {"snr_db": math.inf},
    "integer-bins": {"frac_freq_range": 0.0},
    "n8": {"n_bins": 8, "interference_samples_per_symbol": 7},
    "n1024": {"n_bins": 1024},
    "wide-ranges": {
        "max_interferers": 4, "power_range_db": (-40.0, 37.5), "frac_freq_range": 0.5
    },
}


class TestTrainingWindows:
    @pytest.mark.parametrize(
        "overrides", TRAINING_OVERRIDES.values(), ids=TRAINING_OVERRIDES.keys()
    )
    def test_batch_matches_per_window_reference(self, overrides):
        # Every row of the (K, N) batch carries the same bytes as the window
        # built alone from the same stream, and every stream ends in the
        # same state: the batch changes no draw and no rounding.
        cfg = TrainConfig(n_symbols=1, **overrides)
        windows, true_bins, (true, counts, slots) = gen_training_symbol(
            cfg, np.random.default_rng(8).spawn(40)
        )
        ref_streams = np.random.default_rng(8).spawn(40)
        for row, stream in enumerate(ref_streams):
            window, true_bin, meta = per_window_training_symbol(cfg, stream)
            assert windows.time_samples[row].tobytes() == window.tobytes()
            assert windows.magnitudes[row].tobytes() == np.abs(np.fft.fft(window)).tobytes()
            assert true_bins[row] == true_bin
            # the draw bookkeeping holds the reference's draws exactly
            assert (true[row, 0], true[row, 1]) == (meta["true_bin"], meta["true_deviation"])
            assert counts[row] == len(meta["interferers"])
            for slot, itf in zip(slots[row], meta["interferers"]):
                power_db, _, boundary, dev, bin_a, bin_b, _, _ = slot.tolist()
                assert (power_db, boundary, dev) == (
                    itf["power_db"], itf["boundary"], itf["deviation"]
                )
                assert (bin_a, bin_b) == itf["bins"]
        streams = np.random.default_rng(8).spawn(40)
        gen_training_symbol(cfg, streams)
        for stream, ref in zip(streams, ref_streams):
            assert stream.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize(
        "overrides", TRAINING_OVERRIDES.values(), ids=TRAINING_OVERRIDES.keys()
    )
    def test_one_generator_passed_k_times_matches_reference(self, overrides):
        # window k enters with the buffer window k - 1 left: empty or a half
        cfg = TrainConfig(n_symbols=1, **overrides)
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        assert_matches_reference(cfg, [rng] * 60, [twin] * 60)

    @pytest.mark.parametrize(
        "overrides", TRAINING_OVERRIDES.values(), ids=TRAINING_OVERRIDES.keys()
    )
    def test_streams_entering_with_a_buffered_half_match_reference(self, overrides):
        cfg = TrainConfig(n_symbols=1, **overrides)
        streams, twins = (np.random.default_rng(12).spawn(40) for _ in range(2))
        for stream in streams + twins:
            stream.integers(5)  # leaves the high half of a word buffered
        assert streams[0].bit_generator.state["has_uint32"] == 1
        assert_matches_reference(cfg, streams, twins)

    @pytest.mark.parametrize("rot", [0, 37])
    def test_rejected_count_draw_matches_reference(self, rot):
        # The window's first word has a zero high half: the count draw
        # integers(3) gets u = 0, and (0 * 3) mod 2**32 = 0 lies below
        # Lemire's threshold 2**32 mod 3 = 1, so it draws again.
        cfg = TrainConfig(n_symbols=1)
        inc = np.random.default_rng(13).bit_generator.state["state"]["inc"]
        state = {
            "bit_generator": "PCG64",
            "state": {"state": pcg64_state_before(0x9E3779B9, rot, inc), "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gens = [np.random.default_rng(0) for _ in range(3)]
        for gen in gens:
            gen.bit_generator.state = state
        assert gens[0].bit_generator.random_raw() == 0x9E3779B9
        twin = gens[1]
        twin.integers(cfg.n_bins)
        twin.random(2)
        twin.integers(3)  # the rejected draw and a second one: a half stays buffered
        assert twin.bit_generator.state["has_uint32"] == 1
        twin.bit_generator.state = state
        rest = np.random.default_rng(14).spawn(20)
        twins = np.random.default_rng(14).spawn(20)
        assert_matches_reference(cfg, [gens[2], *rest], [twin, *twins])

    def test_empty_stream_list_rejected(self):
        with pytest.raises(ValueError, match="at least one stream"):
            gen_training_symbol(TrainConfig(n_symbols=1), [])


class TestTrainingSymbol:
    # The same generator passed K times makes the draws of K successive
    # one-stream calls, window for window.
    def test_clean_symbol_detected_by_baseline(self):
        cfg = TrainConfig(
            n_symbols=1, max_interferers=0, frac_freq_range=0.0, snr_db=300.0
        )
        rng = np.random.default_rng(5)
        windows, true_bins, (true, _, _) = gen_training_symbol(cfg, [rng] * 20)
        npt.assert_array_equal(baseline_detect(windows.magnitudes), true_bins)
        npt.assert_array_equal(true[:, 0], true_bins)
        npt.assert_allclose(windows.magnitudes[np.arange(20), true_bins], cfg.n_bins, rtol=1e-6)

    def test_strong_interferers_defeat_baseline_sometimes(self):
        # With every interferer pinned at +13 dB, a visible fraction of
        # windows must fool the magnitude argmax.
        cfg = TrainConfig(n_symbols=1, power_range_db=(13.0, 13.0), snr_db=300.0)
        rng = np.random.default_rng(99)
        wrong = 0
        for _ in range(10):
            windows, true_bins, _ = gen_training_symbol(cfg, [rng] * 1000)
            wrong += int(np.count_nonzero(baseline_detect(windows.magnitudes) != true_bins))
        assert wrong > 0, "no misclassified windows in 10k draws"

    def test_interferer_count_and_meta_fields(self):
        cfg = TrainConfig(n_symbols=1)
        _, _, (_, counts, slots) = gen_training_symbol(cfg, [np.random.default_rng(2)] * 200)
        assert set(counts.tolist()) == {0, 1, 2}
        for row, count in enumerate(counts):
            for power_db, _, boundary, dev, *_ in slots[row, :count].tolist():
                assert -15.0 <= power_db <= 13.0
                assert 0 <= boundary < cfg.n_bins
                assert abs(dev) <= cfg.frac_freq_range

    def test_noise_level_tracks_snr_config(self):
        # The wanted tone has unit power, so the window with the tone
        # removed should carry roughly the configured noise variance.
        cfg = TrainConfig(n_symbols=1, max_interferers=0, frac_freq_range=0.0, snr_db=-3.0)
        windows, _, _ = gen_training_symbol(cfg, [np.random.default_rng(31)] * 300)
        # Total window power minus the unit tone power leaves the noise.
        powers = np.mean(np.abs(windows.time_samples) ** 2, axis=-1) - 1.0
        target = 10.0 ** (3.0 / 10.0)
        assert abs(np.mean(powers) - target) < 0.1 * target

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(n_symbols=1)
        a, bin_a, draws_a = gen_training_symbol(cfg, [np.random.default_rng(1234)])
        b, bin_b, draws_b = gen_training_symbol(cfg, [np.random.default_rng(1234)])
        npt.assert_array_equal(a.time_samples, b.time_samples)
        npt.assert_array_equal(bin_a, bin_b)
        for x, y in zip(draws_a, draws_b):
            npt.assert_array_equal(x, y)
