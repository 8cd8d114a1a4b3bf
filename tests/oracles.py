"""Test oracles: slow, independent routes to quantities the detector computes fast."""

import math
from functools import lru_cache

import numpy as np

from cora.channel import (
    _TAYLOR_COEFFS,
    JAKES_OSCILLATORS,
    MAX_TAYLOR_BLOCK,
    TAYLOR_TERMS,
    _power_table,
    apply_fading,
    compose_collision,
)
from cora.detector import _half_mask
from cora.harness import MetricsRecord, receive
from cora.phy import SymbolWindow, build_frame, frame_length, payload_start


@lru_cache(maxsize=8)
def _fold_basis(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    nn = np.arange(n // 2)[None, :]
    return np.exp(-2j * np.pi * k * nn / n)


def hpd_identity_error(window: SymbolWindow) -> float:
    """Cross-check the masked transform against a half-length folded sum.

    Splitting the window as a_n = x_n (first half) and b_n = x_{n+N/2},
    the masked DFT bin k equals sum_n (a_n - (-1)^k b_n) e^{-j2pi k n/N}.
    Returns the largest absolute difference between the two routes; it
    should sit at numerical noise for any window.
    """
    n = window.n
    if n % 2 != 0:
        raise ValueError(f"window length must be even, got {n}")
    a = window.time_samples[: n // 2]
    b = window.time_samples[n // 2 :]
    basis = _fold_basis(n)
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    folded = basis @ a - sign * (basis @ b)
    masked = np.fft.fft(window.time_samples * _half_mask(n))
    return float(np.max(np.abs(masked - folded)))


def taylor_width(max_doppler_hz: float, n: int, fs: float) -> int:
    """Taylor block width B of a fading profile: the largest power of two with
    2 pi max_doppler_hz * B / fs <= 1/2, capped at n and at MAX_TAYLOR_BLOCK."""
    top = 2.0 * np.pi * max_doppler_hz / fs
    width = 1
    while width < min(n, MAX_TAYLOR_BLOCK) and top * 2 * width <= 0.5:
        width *= 2
    return min(width, n)


def tone_sum(amps, omegas, phases, n: int, fs: float, width: int) -> np.ndarray:
    """sum_i amps[i] * exp(1j * (omegas[i] * k / fs + phases[i])) for k < n, one group alone.

    The coarse exponentials at every B-th sample (B = `width`) times the
    Taylor weights of the tones, then two real products with the power
    table, as `apply_fading` documents.
    """
    rows = -(-n // width)
    coarse = np.arange(rows) * (width / fs)
    left = amps * np.exp(1j * (np.outer(coarse, omegas) + phases))
    powers = np.vander(omegas * (width / fs), TAYLOR_TERMS, increasing=True)
    weights = (left @ powers) * _TAYLOR_COEFFS
    table = _power_table(width)
    gain = np.empty((rows, width), dtype=np.complex128)
    np.matmul(weights.real, table, out=gain.real)
    np.matmul(weights.imag, table, out=gain.imag)
    return gain.ravel()[:n]


def grouped_fading(x, fs, profile, rng) -> np.ndarray:
    """`apply_fading` evaluated delay group by delay group, each with its own `tone_sum`.

    Same draws, same normalisation, same Taylor block width (the profile's
    `taylor_width`) and same order of accumulation, with nothing cached
    and no two groups sharing a pass.
    """
    n = x.size
    powers_db = np.asarray(profile.tap_powers_db)
    powers_lin = 10.0 ** ((powers_db - powers_db.max()) / 10.0)
    powers_lin = powers_lin / powers_lin.sum()
    draws = rng.uniform(0.0, 2.0 * np.pi, (len(powers_lin), 2, JAKES_OSCILLATORS))
    omegas = 2.0 * np.pi * (profile.max_doppler_hz * np.cos(draws[:, 0]))
    amps = np.sqrt(powers_lin / JAKES_OSCILLATORS)[:, None].repeat(JAKES_OSCILLATORS, axis=1)
    width = taylor_width(profile.max_doppler_hz, n, fs)
    groups: dict[int, list[int]] = {}
    for tap, delay_s in enumerate(profile.tap_delays_s):
        groups.setdefault(int(round(delay_s * fs)), []).append(tap)
    out = np.zeros(n, dtype=np.complex128)
    for delay, taps in groups.items():
        if delay >= n:
            continue
        phases = draws[taps, 1].ravel()
        gain = tone_sum(amps[taps].ravel(), omegas[taps].ravel(), phases, n, fs, width)
        if delay == 0:
            out += gain * x
        else:
            out[delay:] += gain[delay:] * x[: n - delay]
    return out


def per_frame_samples(cfg, rng):
    """One campaign frame from its own generator: build_frame, apply_fading, compose_collision.

    The draws come in the campaign's order: payload; per interferer its
    payload, SIR and offset; fading of the target, then of each
    interferer; then the noise. Returns the samples and the payload.
    """
    phy = cfg.phy
    sc = cfg.scenario
    payload = rng.integers(0, phy.n, cfg.symbols_per_frame)
    target = build_frame(payload, cfg.preamble_len, phy)
    total = target.size
    interferers = []
    for _ in range(sc.n_interferers):
        frame = build_frame(rng.integers(0, phy.n, cfg.symbols_per_frame), cfg.preamble_len, phy)
        sir = float(rng.uniform(*sc.sir_db))
        if sc.offset_mode == "random":
            offset = int(rng.integers(total))
        else:
            offset = min(sc.offset_samples, total - 1)
        interferers.append((frame, -sir, offset))
    if sc.fading_profile is not None:
        fs = phy.sample_rate_hz
        target = apply_fading(target, fs, sc.fading_profile, rng)
        interferers = [
            (apply_fading(frame, fs, sc.fading_profile, rng), gain_db, offset)
            for frame, gain_db, offset in interferers
        ]
    return compose_collision(target, interferers, sc.snr_db, rng), payload


def per_frame_campaign(cfg):
    """A campaign one frame at a time: `per_frame_samples`, then receive.

    Each frame draws from its own substream spawned from the experiment
    seed. Returns the detected bins and scores, one row per frame, and the
    campaign's record.
    """
    phy = cfg.phy
    sc = cfg.scenario
    n = phy.n
    starts = payload_start(cfg.preamble_len, phy) + n * np.arange(cfg.symbols_per_frame)
    bins, scores = [], []
    symbol_errors = 0
    frames_ok = 0
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_frames):
        samples, payload = per_frame_samples(cfg, np.random.default_rng(child))
        detected, score = receive(samples, starts, cfg)
        bins.append(detected)
        scores.append(score)
        errors = int(np.count_nonzero(detected != payload))
        symbol_errors += errors
        if errors <= cfg.frame_error_threshold:
            frames_ok += 1

    n_symbols = cfg.n_frames * cfg.symbols_per_frame
    frame_s = frame_length(cfg.symbols_per_frame, cfg.preamble_len, phy) / phy.sample_rate_hz
    record = MetricsRecord(
        detector=cfg.detector,
        sf=phy.sf,
        snr_db=float(sc.snr_db),
        sir_db=float(np.mean(sc.sir_db)) if sc.n_interferers > 0 else math.nan,
        interferers=sc.n_interferers,
        fading=sc.fading_profile is not None,
        frames=cfg.n_frames,
        symbols=n_symbols,
        symbol_errors=symbol_errors,
        ser=symbol_errors / n_symbols,
        frames_ok=frames_ok,
        prr=frames_ok / cfg.n_frames,
        throughput_fps=frames_ok / (cfg.n_frames * frame_s),
        t_dechirp_s=0.0,
        t_features_s=0.0,
        t_classifier_s=0.0,
        t_argmax_s=0.0,
        seed=cfg.seed,
    )
    return np.array(bins), np.array(scores), record
