"""Modulation and dechirp behaviour, checked against hand-computed values."""

import cmath

import numpy as np
import numpy.testing as npt
import pytest

from cora import (
    PhyParams,
    baseline_detect,
    build_frame,
    dechirp,
    modulate_symbol,
)
from cora.phy import SYNC_WORD_BIN, frame_length, payload_start


def ref_chirp_sample(k: int, n: int) -> complex:
    """Base upchirp sample computed with scalar cmath, not numpy."""
    return cmath.exp(1j * cmath.pi * k * k / n)


class TestParams:
    def test_derived_quantities(self):
        p = PhyParams(sf=8)
        assert p.n == 256
        assert p.sample_rate_hz == 125e3

    def test_sf_range_enforced(self):
        for bad in (6, 13, 0, -1):
            with pytest.raises(ValueError):
                PhyParams(sf=bad)
        with pytest.raises(ValueError):
            PhyParams(sf=8, bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            PhyParams(sf="8")

    def test_all_valid_sf(self):
        for sf in range(7, 13):
            assert PhyParams(sf=sf).n == 2**sf


class TestChirps:
    def test_unit_modulus_and_first_sample(self):
        sig = modulate_symbol(0, PhyParams(sf=7))
        assert sig.dtype == np.complex128
        npt.assert_allclose(np.abs(sig), 1.0, atol=1e-12)
        assert sig[0] == 1.0 + 0.0j

    def test_samples_match_scalar_reference(self):
        n = 128
        sig = modulate_symbol(0, PhyParams(sf=7))
        for k in (0, 1, 5, 63, 64, 127):
            npt.assert_allclose(sig[k], ref_chirp_sample(k, n), atol=1e-12)

    def test_downchirp_is_conjugate(self):
        # both full downchirps of every frame's header, after the preamble
        # and the two sync symbols
        p = PhyParams(sf=9)
        n = p.n
        frames = build_frame(np.array([[3, 7], [0, 511]]), 2, p)
        head = (2 + 2) * n
        down = frames[:, head : head + 2 * n].reshape(2, 2, n)
        npt.assert_array_equal(down, np.broadcast_to(np.conj(modulate_symbol(0, p)), (2, 2, n)))

    def test_cache_is_not_aliased(self):
        p = PhyParams(sf=7)
        for build in (
            lambda: modulate_symbol(3, p),
            lambda: modulate_symbol(np.array([[0, 3], [127, 3]]), p),
        ):
            a = build()
            want = a.copy()
            a[...] = 0.0
            npt.assert_array_equal(build(), want)
            npt.assert_allclose(np.abs(build()), 1.0, atol=1e-12)


class TestModulate:
    def test_cyclic_shift_definition(self):
        # every row is the base upchirp rolled left by its symbol value
        rng = np.random.default_rng(19)
        for sf in (7, 12):
            p = PhyParams(sf=sf)
            n = p.n
            base = modulate_symbol(0, p)
            for m in (0, 1, 17, n - 1):
                npt.assert_array_equal(modulate_symbol(m, p), base[(np.arange(n) + m) % n])
            for shape in ((), (5,), (3, 4), (2, 0, 4)):
                values = rng.integers(0, n, shape)
                got = modulate_symbol(values, p)
                assert got.shape == shape + (n,) and got.flags.writeable
                want = [np.roll(base, -m) for m in values.reshape(-1)]
                npt.assert_array_equal(got.reshape(-1, n), np.reshape(want, (-1, n)))

    def test_symbol_zero_is_base_chirp(self):
        p = PhyParams(sf=8)
        k = np.arange(p.n)
        npt.assert_array_equal(modulate_symbol(0, p), np.exp(1j * np.pi * k * k / p.n))

    def test_rejects_out_of_range(self):
        p = PhyParams(sf=7)
        for bad in (-1, 128, 1000, np.array([0, 5, 128]), np.array([[3], [-1]])):
            with pytest.raises(ValueError, match="must lie in"):
                modulate_symbol(bad, p)
        for bad in (1.5, True, np.array([True]), np.array([1.0, 2.0])):
            with pytest.raises(ValueError, match="must be integers"):
                modulate_symbol(bad, p)


class TestDechirp:
    def test_clean_symbol_concentrates_in_one_bin(self):
        p = PhyParams(sf=7)
        n = p.n
        for m in (0, 3, 64, 127):
            win = dechirp(modulate_symbol(m, p), p)
            mags = win.magnitudes
            npt.assert_allclose(mags[m], n, rtol=1e-12)
            others = np.delete(mags, m)
            assert np.max(others) < 1e-8 * n

    def test_peak_bin_phase(self):
        # Dechirping symbol m leaves the tone exp(j*2*pi*m*k/N) scaled by
        # the residual chirp phase exp(j*pi*m^2/N); the FFT keeps that phase.
        p = PhyParams(sf=7)
        n = p.n
        for m in (1, 9, 100):
            win = dechirp(modulate_symbol(m, p), p)
            expect = n * cmath.exp(1j * cmath.pi * m * m / n)
            bins = np.fft.fft(win.time_samples)
            npt.assert_allclose(bins[m], expect, atol=1e-9)
            assert win.magnitudes.tobytes() == np.abs(bins).tobytes()

    def test_time_samples_are_pure_tone(self):
        p = PhyParams(sf=7)
        n = p.n
        m = 21
        win = dechirp(modulate_symbol(m, p), p)
        k = np.arange(n)
        tone = np.exp(2j * np.pi * m * k / n) * cmath.exp(1j * cmath.pi * m * m / n)
        npt.assert_allclose(win.time_samples, tone, atol=1e-12)

    def test_accepts_plain_arrays(self):
        p = PhyParams(sf=7)
        raw = modulate_symbol(5, p).tolist()
        win = dechirp(raw, p)
        assert baseline_detect(win.magnitudes) == 5

    def test_wrong_length_rejected(self):
        p = PhyParams(sf=7)
        with pytest.raises(ValueError):
            dechirp(np.ones(64, dtype=complex), p)

    def test_random_symbols_roundtrip(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            sf = int(rng.integers(7, 13))
            p = PhyParams(sf=sf)
            m = int(rng.integers(p.n))
            win = dechirp(modulate_symbol(m, p), p)
            assert baseline_detect(win.magnitudes) == m
            npt.assert_allclose(np.max(win.magnitudes), p.n, rtol=1e-9)


class TestBaselineDetect:
    def test_tie_breaks_to_lowest_bin(self):
        mags = np.zeros(8)
        mags[[2, 5]] = 7.0
        assert baseline_detect(mags) == 2


class TestFrame:
    def test_frame_length_sf8(self):
        p = PhyParams(sf=8)
        frame = build_frame(list(range(10)), 8, p)
        # 8 preamble + 2 sync + 2 downchirps = 12 symbols, plus a quarter
        # downchirp and 10 payload symbols: 12*256 + 64 + 2560.
        assert len(frame) == 5696
        assert frame_length(10, 8, p) == 5696

    def test_payload_start_sf8(self):
        assert payload_start(8, PhyParams(sf=8)) == 3136

    def test_header_and_payload_demodulate(self):
        p = PhyParams(sf=7)
        n = p.n
        payload = [5, 0, 127, 64, 9]
        pre = 6
        frame = build_frame(payload, pre, p)
        for i in range(pre):
            win = dechirp(frame[i * n : (i + 1) * n], p)
            assert baseline_detect(win.magnitudes) == 0
        for i in (pre, pre + 1):
            win = dechirp(frame[i * n : (i + 1) * n], p)
            assert baseline_detect(win.magnitudes) == SYNC_WORD_BIN
        start = payload_start(pre, p)
        for i, m in enumerate(payload):
            win = dechirp(frame[start + i * n : start + (i + 1) * n], p)
            assert baseline_detect(win.magnitudes) == m

    def test_downchirp_section_content(self):
        p = PhyParams(sf=7)
        n = p.n
        frame = build_frame([3], 4, p)
        down = np.conj(modulate_symbol(0, p))
        head = (4 + 2) * n
        npt.assert_array_equal(frame[head : head + n], down)
        npt.assert_array_equal(frame[head + n : head + 2 * n], down)
        npt.assert_array_equal(frame[head + 2 * n : head + 2 * n + n // 4], down[: n // 4])

    # the upchirps are gathered one stack of the last leading axis at a time
    @pytest.mark.parametrize("shape", [(2, 3, 4), (3, 0, 4), (2, 1, 2, 4)])
    def test_leading_axes_hold_frames_built_alone(self, shape):
        p = PhyParams(sf=7)
        payloads = np.random.default_rng(0).integers(0, p.n, shape)
        frames = build_frame(payloads, 8, p)
        assert frames.shape == shape[:-1] + (frame_length(shape[-1], 8, p),)
        for index in np.ndindex(shape[:-1]):
            npt.assert_array_equal(frames[index], build_frame(payloads[index], 8, p))

    def test_bad_symbol_in_a_later_stack_rejected(self):
        p = PhyParams(sf=7)
        payloads = np.zeros((2, 3, 4), dtype=np.int64)
        payloads[1, 2, 3] = p.n
        with pytest.raises(ValueError, match=r"must lie in \[0, 128\)"):
            build_frame(payloads, 8, p)

    def test_rejects_bad_payloads(self):
        p = PhyParams(sf=7)
        with pytest.raises(ValueError):
            build_frame([], 8, p)
        with pytest.raises(ValueError):
            build_frame([128], 8, p)
        with pytest.raises(ValueError):
            build_frame([-1], 8, p)
        with pytest.raises(ValueError):
            build_frame([1.0, 2.0], 8, p)
        with pytest.raises(ValueError):
            build_frame([1], 0, p)

