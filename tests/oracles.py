"""Test oracles: slow, independent routes to quantities the detector computes fast."""

from functools import lru_cache

import numpy as np

from cora.detector import _half_mask
from cora.phy import SymbolWindow


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
