"""Chirp-spread-spectrum primitives: modulation, frame assembly, dechirping.

Everything works at critical sampling (sample rate == bandwidth), so one
symbol is exactly N = 2**sf complex samples and the dechirped FFT has one
bin per candidate symbol value. A sample stream is a complex128 array
at `PhyParams.sample_rate_hz`. Windows live on the last axis: the
dechirp and detection stages take one window (N,), a whole frame's
windows (K, N), or the windows of F frames (F, K, N) at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Cyclic shift used by both sync symbols in a frame header.
SYNC_WORD_BIN = 8

# Header structure: preamble upchirps, two sync upchirps, 2.25 downchirps.
N_SYNC_SYMBOLS = 2
N_FULL_DOWNCHIRPS = 2


@dataclass(frozen=True)
class PhyParams:
    """Radio parameters. Spreading factor fixes the symbol alphabet size."""

    sf: int
    bandwidth_hz: float = 125e3

    def __post_init__(self):
        if not isinstance(self.sf, (int, np.integer)) or isinstance(self.sf, bool):
            raise ValueError(f"sf must be an integer, got {self.sf!r}")
        if not 7 <= self.sf <= 12:
            raise ValueError(f"sf must be in [7, 12], got {self.sf}")
        if not 0 < self.bandwidth_hz < np.inf:
            raise ValueError(f"bandwidth_hz must be finite and positive, got {self.bandwidth_hz}")

    @property
    def n(self) -> int:
        """Samples per symbol, also the number of FFT bins after dechirp."""
        return 1 << self.sf

    @property
    def sample_rate_hz(self) -> float:
        """Critical sampling: the complex sample rate equals the bandwidth."""
        return float(self.bandwidth_hz)

    @property
    def symbol_time_s(self) -> float:
        return self.n / self.bandwidth_hz


@dataclass
class SymbolWindow:
    """Dechirped symbols, one per row: the time-domain product and its FFT magnitudes.

    Both arrays are (..., N). `time_samples` holds the window already
    multiplied by the conjugate base chirp, which is what the half-symbol
    feature needs; the raw received samples are not kept.
    """

    time_samples: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self):
        self.time_samples = np.asarray(self.time_samples, dtype=np.complex128)
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        if self.time_samples.shape != self.magnitudes.shape:
            raise ValueError(
                f"time_samples shape {self.time_samples.shape} does not match "
                f"magnitudes shape {self.magnitudes.shape}"
            )

    @property
    def n(self) -> int:
        return self.time_samples.shape[-1]


@lru_cache(maxsize=16)
def _upchirp_table(n: int) -> np.ndarray:
    """Base upchirp exp(j*pi*k^2/N), cached read-only per window length."""
    k = np.arange(n)
    table = np.exp(1j * np.pi * k * k / n)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _downchirp_table(n: int) -> np.ndarray:
    table = np.conj(_upchirp_table(n))
    table.setflags(write=False)
    return table


def base_upchirp(params: PhyParams) -> np.ndarray:
    """Unit-amplitude upchirp sweeping the full bandwidth once."""
    return _upchirp_table(params.n).copy()


def modulate_symbol(m: int, params: PhyParams) -> np.ndarray:
    """Encode symbol value m as a cyclic shift of the base upchirp.

    Sample k of the output equals base[(k + m) mod N], so after dechirp the
    energy lands in FFT bin m.
    """
    n = params.n
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ValueError(f"symbol value must be an integer, got {m!r}")
    if not 0 <= m < n:
        raise ValueError(f"symbol value must be in [0, {n}), got {m}")
    return np.roll(_upchirp_table(n), -int(m))


@lru_cache(maxsize=16)
def _shift_table(n: int) -> np.ndarray:
    """Row m is upchirp m, base[(k + m) mod N]: a read-only sliding window
    over the base upchirp concatenated with itself, so one row gather
    builds any run of upchirps."""
    up = _upchirp_table(n)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([up, up]), n)[:n]


@lru_cache(maxsize=16)
def _frame_header(preamble_len: int, n: int) -> np.ndarray:
    """Preamble upchirps, two sync upchirps and 2.25 downchirps, read-only."""
    down = _downchirp_table(n)
    shifts = [0] * preamble_len + [SYNC_WORD_BIN] * N_SYNC_SYMBOLS
    header = np.concatenate(
        [_shift_table(n)[shifts].ravel(), np.tile(down, N_FULL_DOWNCHIRPS), down[: n // 4]]
    )
    header.setflags(write=False)
    return header


def build_frames(
    payloads: np.ndarray | list[int],
    preamble_len: int,
    params: PhyParams,
) -> np.ndarray:
    """Frame samples for every row of payload symbols on the last axis.

    Payloads (S,) give one frame (L,), and leading axes carry over: (F, S)
    gives F frames as one (F, L) array. Each frame is the shared header
    followed by the payload upchirps, gathered as rows of the upchirp
    shift table.
    """
    if not isinstance(preamble_len, (int, np.integer)) or preamble_len < 1:
        raise ValueError(f"preamble_len must be a positive integer, got {preamble_len}")
    payloads = np.asarray(payloads)
    if payloads.ndim == 0 or payloads.shape[-1] == 0:
        raise ValueError("payload symbols must be non-empty rows")
    if not np.issubdtype(payloads.dtype, np.integer):
        raise ValueError(f"payload symbols must be integers, got dtype {payloads.dtype}")
    n = params.n
    if np.any((payloads < 0) | (payloads >= n)):
        raise ValueError(f"payload symbols must lie in [0, {n})")
    header = _frame_header(int(preamble_len), n)
    lead = payloads.shape[:-1]
    body = payloads.shape[-1] * n
    frames = np.empty(lead + (header.size + body,), dtype=np.complex128)
    frames[..., : header.size] = header
    frames[..., header.size :] = _shift_table(n)[payloads].reshape(lead + (body,))
    return frames


def build_frame(
    payload_symbols: np.ndarray | list[int],
    preamble_len: int,
    params: PhyParams,
) -> np.ndarray:
    """Assemble a frame: preamble, two sync symbols, 2.25 downchirps, payload.

    The quarter downchirp keeps the conventional header length of 4.25
    symbols after the preamble, so the first payload sample sits at
    (preamble_len + 4) * N + N // 4. The one-frame view of `build_frames`:
    payload symbols that are not one row give no 1-D frame, and raise.
    """
    frame = build_frames(payload_symbols, preamble_len, params)
    if frame.ndim != 1:
        raise ValueError(f"payload symbols must be one row, got shape {np.shape(payload_symbols)}")
    return frame


def payload_start(preamble_len: int, params: PhyParams) -> int:
    """Index of the first payload sample within a frame."""
    n = params.n
    return (preamble_len + N_SYNC_SYMBOLS + N_FULL_DOWNCHIRPS) * n + n // 4


def frame_length(n_payload: int, preamble_len: int, params: PhyParams) -> int:
    """Sample count of a frame built with the same arguments."""
    return payload_start(preamble_len, params) + n_payload * params.n


def dechirp(window: np.ndarray, params: PhyParams) -> SymbolWindow:
    """Multiply symbol windows by the conjugate base chirp and FFT them.

    Takes one window (N,) or windows on the last axis of any array, such
    as (K, N) or (F, K, N), with one FFT for all of them. A clean symbol m
    collapses to a single tone, so its magnitudes are N at index m and
    zero elsewhere.
    """
    samples = np.asarray(window).astype(np.complex128, copy=False)
    n = params.n
    if samples.ndim == 0 or samples.shape[-1] != n:
        raise ValueError(f"window must hold exactly {n} samples, got shape {samples.shape}")
    flattened = samples * _downchirp_table(n)
    return SymbolWindow(flattened, np.abs(np.fft.fft(flattened, axis=-1)))


def baseline_detect(magnitudes: np.ndarray) -> int | np.ndarray:
    """Magnitude argmax detector over the last axis; ties resolve to the lowest bin.

    Returns an int for one window (N,) and an array of bins for more.
    """
    best = magnitudes.argmax(axis=-1)
    return int(best) if best.ndim == 0 else best
