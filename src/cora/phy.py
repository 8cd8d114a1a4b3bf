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


@lru_cache(maxsize=16)
def _shift_table(n: int) -> np.ndarray:
    """Row m is upchirp m, base[(k + m) mod N]: a read-only sliding window
    over the base upchirp concatenated with itself."""
    up = _upchirp_table(n)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([up, up]), n)[:n]


def modulate_symbol(symbols: int | np.ndarray, params: PhyParams) -> np.ndarray:
    """Encode symbol values as cyclic shifts of the base upchirp.

    Sample k of symbol m's upchirp equals base[(k + m) mod N], so after
    dechirp its energy lands in FFT bin m. Takes one integer or an integer
    array of any shape, all in [0, N); returns a fresh writable array of
    shape `shape + (N,)`, rows of the cached shift table. Every upchirp of
    the package comes from here.
    """
    values = np.asarray(symbols)
    n = params.n
    if not np.issubdtype(values.dtype, np.integer):
        raise ValueError(f"symbol values must be integers, got dtype {values.dtype}")
    if np.any((values < 0) | (values >= n)):
        raise ValueError(f"symbol values must lie in [0, {n})")
    # a 0-d index would be basic indexing, a view of the cache: gather 1-D
    return _shift_table(n)[values.reshape(-1)].reshape(values.shape + (n,))


@lru_cache(maxsize=16)
def _frame_header(preamble_len: int, params: PhyParams) -> np.ndarray:
    """Preamble upchirps, two sync upchirps and 2.25 downchirps, read-only."""
    down = _downchirp_table(params.n)
    shifts = np.array([0] * preamble_len + [SYNC_WORD_BIN] * N_SYNC_SYMBOLS)
    upchirps = modulate_symbol(shifts, params).ravel()
    header = np.concatenate([upchirps, np.tile(down, N_FULL_DOWNCHIRPS), down[: params.n // 4]])
    header.setflags(write=False)
    return header


def build_frame(
    payloads: np.ndarray | list[int],
    preamble_len: int,
    params: PhyParams,
) -> np.ndarray:
    """Assemble frames: preamble, two sync symbols, 2.25 downchirps, payload.

    Payload symbols (S,) give one frame (L,), and leading axes carry over:
    (F, S) gives F frames as one (F, L) array. Each frame is the shared
    header followed by the payload upchirps from `modulate_symbol`, which
    also checks the symbol values. The quarter downchirp keeps the
    conventional header length of 4.25 symbols after the preamble, so the
    first payload sample sits at (preamble_len + 4) * N + N // 4.
    """
    if not isinstance(preamble_len, (int, np.integer)) or preamble_len < 1:
        raise ValueError(f"preamble_len must be a positive integer, got {preamble_len}")
    payloads = np.asarray(payloads)
    if payloads.ndim == 0 or payloads.shape[-1] == 0:
        raise ValueError("payload symbols must be non-empty rows")
    header = _frame_header(int(preamble_len), params)
    lead = payloads.shape[:-1]
    body = payloads.shape[-1] * params.n
    frames = np.empty(lead + (header.size + body,), dtype=np.complex128)
    frames[..., : header.size] = header
    # one gather per stack of the last leading axis, so its temporary is one stack's
    for index in np.ndindex(lead[:-1]):
        symbols = modulate_symbol(payloads[index], params)
        frames[index][..., header.size :] = symbols.reshape(symbols.shape[:-2] + (body,))
    return frames


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


def baseline_detect(magnitudes: np.ndarray) -> np.ndarray:
    """Magnitude argmax detector over the last axis; ties resolve to the lowest bin.

    Returns one bin per window: a numpy scalar for one window (N,), an
    array of shape (K,) or (F, K) for more.
    """
    return magnitudes.argmax(axis=-1)
