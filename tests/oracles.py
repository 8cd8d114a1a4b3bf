"""Test oracles: slow, independent routes to quantities the detector computes fast."""

import math
from functools import lru_cache

import numpy as np

from cora.channel import apply_fading, compose_collision
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


def per_frame_campaign(cfg):
    """A campaign one frame at a time: build_frame, compose_collision, receive.

    Each frame draws from its own substream spawned from the experiment
    seed, in the campaign's draw order: payload; per interferer its
    payload, SIR and offset; fading of the target, then of each
    interferer; then the noise. Returns the detected bins and scores, one
    row per frame, and the campaign's record.
    """
    phy = cfg.phy
    sc = cfg.scenario
    n = phy.n
    starts = payload_start(cfg.preamble_len, phy) + n * np.arange(cfg.symbols_per_frame)
    bins, scores = [], []
    symbol_errors = 0
    frames_ok = 0
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_frames):
        rng = np.random.default_rng(child)
        payload = rng.integers(0, n, cfg.symbols_per_frame)
        target = build_frame(payload, cfg.preamble_len, phy)
        total = target.size
        interferers = []
        for _ in range(sc.n_interferers):
            frame = build_frame(rng.integers(0, n, cfg.symbols_per_frame), cfg.preamble_len, phy)
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
        samples = compose_collision(target, interferers, sc.snr_db, rng)
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
