"""Collision-resistant symbol detection.

Two per-bin features separate a frame's own tone from colliding energy in
a dechirped window: the peak magnitude deviation (how far a bin's
magnitude sits from the preamble-calibrated peak) and the half-symbol
power deviation (how much the bin's energy changes between window
halves). A Bayes posterior over a 2-D grid of those features, estimated
from simulated collisions, scores every bin; the previous window's
posteriors damp bins that were already occupied, which is what suppresses
an interferer's repeated preamble symbols. Every stage works on the last
axis, so a frame's K windows go through it as one (K, N) array, and the
windows of F frames as one (F, K, N) array. `map_chunks` runs training,
campaigns and gen-scenario in chunks and holds their one seeding rule.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from cora.channel import TrainConfig, format_value, gen_training_windows, parse_tokens, text_keys
from cora.phy import SymbolWindow, baseline_detect

# A training run must keep at least this many baseline-misclassified
# windows before the histograms are considered meaningful.
MIN_KEPT_WINDOWS = 100

# Training windows and campaign frames are built this many samples per
# chunk, and at least one item per chunk: enough items to spread numpy's
# per-call cost (256 windows of 256 bins, 7 SF8 frames of 20 payload
# symbols), while each chunk's arrays stay about a megabyte.
CHUNK_SAMPLES = 1 << 16

# At most this many workers run chunks, which bounds their memory on large hosts.
MAX_WORKERS = 8


def _worker_count(n_chunks: int) -> int:
    """Pool workers: the CPUs this process may run on, one per chunk at most."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_chunks, MAX_WORKERS)


def _can_fork() -> bool:
    """Whether worker processes may be forked here.

    The platform must have the `fork` start method, no other Python
    thread may run (a thread holding a lock at the fork would leave it
    held in the child), and this process must not be a daemonic
    multiprocessing worker, which may have no children.
    """
    import multiprocessing  # here, so that a `cora` run that never forks does not load it

    return (
        threading.active_count() == 1
        and "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
    )


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker once `parent` is gone, which its call queue never shows."""

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _on_streams(fn, seed: int, first: int, count: int):
    """`fn` of the streams of items first .. first + count - 1, built where the chunk runs."""
    seqs = (np.random.SeedSequence(seed, spawn_key=(k,)) for k in range(first, first + count))
    return fn([np.random.default_rng(seq) for seq in seqs])


def map_chunks(
    fn, seed: int, n_items: int, item_samples: int, fork: bool = False
) -> tuple[list, int]:
    """`fn(streams)` over the `n_items` items of the run seeded with `seed`, chunk by chunk.

    The one seeding rule: item k draws from `default_rng` of child k of
    `SeedSequence(seed)`, which is `SeedSequence(seed, spawn_key=(k,))`,
    so a chunk of max(1, CHUNK_SAMPLES // item_samples) items builds its
    streams where it runs. Chunks run on `_worker_count` threads, or with
    `fork` on forked processes that exit if this one dies; with one
    worker, or where `_can_fork` refuses, in this process. The first chunk
    to fail, in chunk order, raises here and cancels the chunks not yet
    started; every worker is joined before this returns or raises.
    Returns the results in chunk order and the workers, 0 for this process.
    """
    per_chunk = max(1, CHUNK_SAMPLES // item_samples)
    firsts = range(0, n_items, per_chunk)
    counts = [min(per_chunk, n_items - first) for first in firsts]
    run = partial(_on_streams, fn, seed)
    workers = _worker_count(len(firsts))
    if workers < 2 or (fork and not _can_fork()):
        return list(map(run, firsts, counts)), 0
    if fork:
        import numpy.random  # noqa: F401  loaded once here, for the forked workers to share
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        pool = ProcessPoolExecutor(workers, get_context("fork"), _exit_with_parent, (os.getpid(),))
    else:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
    with pool:
        return list(pool.map(run, firsts, counts)), workers


class TrainingError(RuntimeError):
    """Raised when a training run cannot produce a usable grid."""


class GridFormatError(ValueError):
    """Raised when a grid file does not follow the documented layout."""


@dataclass
class FeatureField:
    """Per-bin features p (peak deviation) and h (half-symbol), (N,), (K, N) or (F, K, N)."""

    p: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        self.h = np.asarray(self.h, dtype=np.float64)
        if self.p.shape != self.h.shape or self.p.ndim == 0 or self.p.size == 0:
            raise ValueError("p and h must be matching non-empty arrays of windows")
        for name, arr in (("p", self.p), ("h", self.h)):
            # a single range test also rejects NaN and both infinities
            if not ((arr >= 0.0) & (arr <= 1.0)).all():
                raise ValueError(f"feature {name} must lie in [0, 1]")


@dataclass(frozen=True)
class PosteriorGrid:
    """Posterior probability of 'bin holds the frame's own tone' per feature cell.

    cells[i, j] covers feature values around ((i+0.5)/resolution,
    (j+0.5)/resolution) with i indexing the peak-deviation axis and j the
    half-symbol axis. The array is read-only so a loaded grid cannot
    drift from its file.
    """

    resolution: int
    cells: np.ndarray
    prior: float
    config: TrainConfig

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        cells = np.asarray(self.cells, dtype=np.float64)
        if cells.shape != (self.resolution, self.resolution):
            raise ValueError(
                f"cells shape {cells.shape} does not match resolution {self.resolution}"
            )
        if np.any(~np.isfinite(cells)) or np.any((cells < 0) | (cells > 1)):
            raise ValueError("cells must be finite probabilities in [0, 1]")
        if not 0.0 < self.prior < 1.0:
            raise ValueError(f"prior must be in (0, 1), got {self.prior}")
        cells = cells.copy()
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)


@dataclass
class TrainingSamples:
    """Feature pairs harvested from baseline-misclassified training windows."""

    true_features: np.ndarray
    interference_features: np.ndarray
    n_generated: int
    n_kept: int
    n_workers: int = 0  # worker processes that built them; 0 for this process

    def __post_init__(self):
        self.true_features = np.atleast_2d(np.asarray(self.true_features, dtype=np.float64))
        self.interference_features = np.atleast_2d(
            np.asarray(self.interference_features, dtype=np.float64)
        )


def pmd(magnitudes: np.ndarray, expected_peak: float | np.ndarray) -> np.ndarray:
    """Peak magnitude deviation: |magnitude - expected| / expected, capped at 1.

    A bin holding the frame's own tone scores near 0; bins holding much
    stronger or much weaker colliding energy score close to 1. The
    expected peak is one float or an array that broadcasts against the
    magnitudes, such as (K, 1) for one peak per window; every entry must
    be finite and positive.
    """
    try:
        valid = 0 < expected_peak < np.inf
    except ValueError:  # an array of more than one entry
        valid = ((expected_peak > 0) & (expected_peak < np.inf)).all()
    if not valid:
        raise ValueError(f"expected_peak must be finite and positive, got {expected_peak}")
    dev = np.abs(magnitudes - expected_peak) / expected_peak
    return np.minimum(dev, 1.0)


@lru_cache(maxsize=16)
def _half_mask(n: int) -> np.ndarray:
    mask = np.ones(n)
    mask[n // 2 :] = -1.0
    mask.setflags(write=False)
    return mask


# Bins this far below the window's strongest magnitude carry no usable
# waveform; their half-symbol ratio would be a quotient of rounding noise.
# The margin is wide enough to also cover float32 quantisation residue
# from IQ files (about 1e-8 of the peak after FFT gain), while any real
# signal component sits orders of magnitude above it.
DEAD_BIN_RELATIVE_FLOOR = 1e-6


def hpd(window: SymbolWindow) -> np.ndarray:
    """Half-symbol power deviation per bin, in [0, 1].

    The dechirped window is re-transformed with its second half negated,
    which swaps the sign of every odd-offset component; a tone occupying
    the whole window cancels out of its own bin, while a tone occupying
    only part of it (a colliding symbol crossing its boundary) leaves
    residue. The feature is min(|X_k|, |Y_k|) / |X_k| with Y the masked
    transform. Dead bins — |X_k| zero or vanishing next to their own
    window's peak — take the maximum penalty of 1: a ratio of two
    rounding-noise magnitudes says nothing about waveform completeness.
    """
    n = window.n
    if n % 2 != 0:
        raise ValueError(f"window length must be even, got {n}")
    masked_bins = np.fft.fft(window.time_samples * _half_mask(n), axis=-1)
    x_mag = window.magnitudes
    z = np.minimum(x_mag, np.abs(masked_bins))
    live = x_mag > DEAD_BIN_RELATIVE_FLOOR * x_mag.max(axis=-1, keepdims=True)
    return np.divide(z, x_mag, out=np.ones_like(z), where=live)


def _cell_index(values: np.ndarray, resolution: int) -> np.ndarray:
    """Nearest-cell index for feature values in [0, 1]."""
    idx = (np.asarray(values) * resolution).astype(np.int64)
    return np.minimum(idx, resolution - 1)


def _lookup(grid: PosteriorGrid, p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Nearest-cell posterior for features already known to lie in [0, 1]."""
    res = grid.resolution
    return grid.cells.ravel().take(_cell_index(p, res) * res + _cell_index(h, res))


def score_bins(
    features: FeatureField, grid: PosteriorGrid, prev: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin posteriors q and history-damped scores, without the argmax.

    Each bin's score is its posterior q_k, damped by how occupied the bin
    looked in the previous window: q_k * (1 - prev_q_k). The rows of a
    (K, N) field are consecutive windows, so row k is damped by row k - 1
    and row 0 by `prev`, the (N,) posteriors of the window before; a
    frame's first window has no history (`prev` None) and scores q_k
    alone. An (F, K, N) field holds F frames, and damping restarts at
    each frame's row 0, which `prev` damps. Skips feature validation: a
    FeatureField guarantees its arrays are finite and in [0, 1].
    """
    q = _lookup(grid, features.p, features.h)
    # damping by (1 - 0) leaves q exact
    prev = np.zeros(q.shape[-1]) if prev is None else np.asarray(prev, dtype=np.float64)
    if prev.shape != q.shape[-1:]:
        raise ValueError(f"prev holds {prev.shape} posteriors, window has {q.shape[-1:]}")
    if q.ndim > 1:
        first = np.broadcast_to(prev, q[..., :1, :].shape)
        prev = np.concatenate([first, q[..., :-1, :]], axis=-2)
    return q, q * (1.0 - prev)


def classify(
    features: FeatureField, grid: PosteriorGrid, prev: np.ndarray | None = None
) -> tuple[int | np.ndarray, float | np.ndarray, np.ndarray]:
    """Pick the bin most likely to hold the frame's own tone, per window.

    Scores come from `score_bins`; ties resolve to the lowest bin.
    Returns (bin, score, posteriors): an int and a float for one window,
    arrays with one entry per window for more, and the last window's (N,)
    posteriors q, which the next window takes as `prev`.
    """
    q, scores = score_bins(features, grid, prev)
    best = scores.argmax(axis=-1)
    score = np.take_along_axis(scores, best[..., None], axis=-1)[..., 0]
    if best.ndim == 0:
        best, score = int(best), float(score)
    return best, score, q.reshape(-1, q.shape[-1])[-1]


def detect_symbol(
    window: SymbolWindow,
    expected_peak: float | np.ndarray,
    grid: PosteriorGrid,
    prev: np.ndarray | None = None,
) -> tuple[int | np.ndarray, float | np.ndarray, np.ndarray]:
    """Full collision-aware detection for dechirped window(s), (N,), (K, N) or (F, K, N).

    The expected peak broadcasts against the magnitudes, as in `pmd`:
    (F, 1, 1) gives each frame its own preamble reference.
    """
    features = FeatureField(pmd(window.magnitudes, expected_peak), hpd(window))
    return classify(features, grid, prev)


def _feature_pairs(p: np.ndarray, h: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(p, h) pairs at each row's `cols` bins, row by row, as an (m, 2) array."""
    picked = [np.take_along_axis(f, cols, axis=-1) for f in (p, h)]
    return np.stack(picked, axis=-1).reshape(-1, 2)


def _training_chunk(
    cfg: TrainConfig, streams: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """One chunk's wanted-tone and interference (p, h) pairs, window k drawn from streams[k]."""
    windows, true_bins, _ = gen_training_windows(cfg, streams)
    missed = baseline_detect(windows.magnitudes) != true_bins
    if not missed.any():
        return np.empty((0, 2)), np.empty((0, 2))
    kept = SymbolWindow(windows.time_samples[missed], windows.magnitudes[missed])
    p = pmd(kept.magnitudes, kept.magnitudes.max(axis=-1, keepdims=True))
    h = hpd(kept)
    true_cols = true_bins[missed, None]
    p_others = p.copy()
    np.put_along_axis(p_others, true_cols, np.inf, axis=-1)
    n_take = cfg.interference_samples_per_symbol
    picked = np.argpartition(p_others, n_take, axis=-1)[:, :n_take]
    return _feature_pairs(p, h, true_cols), _feature_pairs(p, h, picked)


def collect_training_features(cfg: TrainConfig) -> TrainingSamples:
    """Generate windows and harvest features where the baseline fails.

    Every window where magnitude-argmax already finds the true bin is
    dropped: the classifier only needs to tell tones apart in the
    ambiguous cases. For each kept window the true bin contributes one
    (p, h) pair to the wanted-tone set and the
    `interference_samples_per_symbol` non-true bins with the lowest p
    contribute to the interference set (low p is what makes an interfering
    bin dangerous).

    The expected peak for the p feature is each window's own largest
    magnitude: the synthetic windows carry no preamble, and the window
    maximum is what a preamble average would report after locking onto
    the strongest frame present. Normalising by the nominal tone height
    instead folds over-driven true bins (an interferer sitting on the
    true bin) onto the capped p == 1 edge, which teaches the grid that
    the edge is tone-like and makes weak noise bins win there.

    Window k is item k of a `map_chunks` run seeded with `cfg.seed`, so
    the samples depend on `cfg` alone. The chunks run on forked worker
    processes (window synthesis holds the GIL, so threads would not help);
    `_training_chunk` builds a chunk as one (K, N) array with
    `gen_training_windows`, filters it with the baseline and runs `pmd`
    and `hpd` once on its kept rows. Memory, apart from the harvested
    pairs, does not grow with `n_symbols`.
    """
    run_chunk = partial(_training_chunk, cfg)
    parts, workers = map_chunks(run_chunk, cfg.seed, cfg.n_symbols, cfg.n_bins, fork=True)
    true_arr = np.concatenate([np.empty((0, 2))] + [true for true, _ in parts])
    intf_arr = np.concatenate([np.empty((0, 2))] + [intf for _, intf in parts])
    return TrainingSamples(true_arr, intf_arr, cfg.n_symbols, len(true_arr), workers)


def feature_histogram(
    pairs: np.ndarray, resolution: int, sigma: float, floor: float
) -> np.ndarray:
    """Smoothed, floored, normalised 2-D histogram of (p, h) pairs.

    Counts land in nearest cells, get a Gaussian blur of `sigma` cells
    (reflected at the edges so mass near 0 and 1 stays in range), gain a
    uniform `floor` so no cell is impossible, and are normalised to sum
    to one. The blur is `scipy.ndimage.gaussian_filter(mode="reflect")`
    bit for bit, in numpy: a kernel truncated at 4 sigma, axis 0 then
    axis 1, each cell's centre term first, then its mirrored pairs from
    the outermost inwards (`_gaussian_blur`).
    """
    pairs = np.atleast_2d(np.asarray(pairs, dtype=np.float64))
    if pairs.shape[0] == 0 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must be a non-empty (m, 2) array, got shape {pairs.shape}")
    if np.any(~np.isfinite(pairs)) or np.any((pairs < 0) | (pairs > 1)):
        raise ValueError("feature pairs must lie in [0, 1]")
    i = _cell_index(pairs[:, 0], resolution)
    j = _cell_index(pairs[:, 1], resolution)
    hist = np.bincount(i * resolution + j, minlength=resolution * resolution)
    hist = hist.reshape(resolution, resolution).astype(np.float64)
    if sigma > 0:
        hist = _gaussian_blur(hist, sigma)
    hist += floor
    return hist / hist.sum()


def _gaussian_blur(hist: np.ndarray, sigma: float) -> np.ndarray:
    """`scipy.ndimage.gaussian_filter(hist, sigma, mode="reflect")`, bit for bit.

    Each axis is padded by half-sample reflection (d c b a | a b c d | d c
    b a, repeated when the kernel outreaches the grid) and summed in
    scipy's symmetric-kernel order. The result is C-ordered, as scipy's
    is, so that `hist.sum()` adds in the same order.
    """
    r = int(4.0 * sigma + 0.5)
    weights = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    weights /= weights.sum()
    for _ in range(2):  # axis 0 of the grid, then axis 0 of its transpose
        n = hist.shape[0]
        padded = np.pad(hist, ((r, r), (0, 0)), mode="symmetric")
        out = padded[r : r + n] * weights[r]
        for j in range(r, 0, -1):
            out += (padded[r - j : r - j + n] + padded[r + j : r + j + n]) * weights[r - j]
        hist = out.T
    return np.ascontiguousarray(hist)


def grid_from_samples(samples: TrainingSamples, cfg: TrainConfig) -> PosteriorGrid:
    """Turn harvested feature samples into a Bayes posterior grid.

    The class prior is the wanted-tone share of all samples; with k
    interference picks per kept window it is exactly 1/(k+1). Cellwise
    Bayes then gives posterior = like_true * prior / (like_true * prior +
    like_intf * (1 - prior)). Cells no sample reached hold only the
    histogram floor in both classes; since each floor is scaled by its
    class's sample count and the prior scales the other way, such cells
    settle near even odds (0.5) rather than at either extreme.
    """
    if samples.n_kept < MIN_KEPT_WINDOWS:
        raise TrainingError(
            f"only {samples.n_kept} of {samples.n_generated} windows were "
            f"baseline-misclassified; need at least {MIN_KEPT_WINDOWS}. "
            "Increase n_symbols or make the scenario harder."
        )
    n_true = samples.true_features.shape[0]
    n_intf = samples.interference_features.shape[0]
    prior = n_true / (n_true + n_intf)
    res = cfg.grid_resolution
    like_true = feature_histogram(samples.true_features, res, cfg.smooth_sigma, cfg.smooth_floor)
    like_intf = feature_histogram(
        samples.interference_features, res, cfg.smooth_sigma, cfg.smooth_floor
    )
    evidence = like_true * prior + like_intf * (1.0 - prior)
    cells = like_true * prior / evidence
    return PosteriorGrid(res, cells, prior, cfg)


def train(cfg: TrainConfig) -> PosteriorGrid:
    """Run the full training recipe: generate, filter, histogram, Bayes."""
    return grid_from_samples(collect_training_features(cfg), cfg)


# --- grid file round-trip ---------------------------------------------------

_GRID_MAGIC = "CORA-GRID v1"


def save_grid(grid: PosteriorGrid, destination: str | Path) -> None:
    """Write a grid as versioned text, byte-stable for identical grids.

    The cells are formatted with one `%` over all of them: "%.17g" gives
    the same text as `format_value`.
    """
    res = grid.resolution
    header = [
        _GRID_MAGIC,
        f"resolution={res} prior={format_value(grid.prior)}",
        " ".join(f"{key}={format_value(value)}" for key, value in asdict(grid.config).items()),
    ]
    row = " ".join(["%.17g"] * res) + "\n"
    body = (row * res) % tuple(grid.cells.ravel().tolist())
    Path(destination).write_text("\n".join(header) + "\n" + body, encoding="utf-8", newline="\n")


# What `save_grid` writes in a cell row. Over these characters `np.loadtxt`
# and `float` read the same numbers; beyond them they differ both ways
# (`float` reads "0_5" and Arabic-Indic digits, `np.loadtxt` strips
# "\x1c" to "\x1f" as whitespace). Non-ASCII characters encode to bytes
# outside the set.
_CELL_BYTES = b"0123456789.eE+- "


def _parse_cells(rows: list[str], res: int, source: str | Path) -> np.ndarray:
    """Cell rows as a (res, res) array: one space between values.

    Non-empty rows of `save_grid`'s characters are parsed in one
    `np.loadtxt` call. Any other rows, and any that call rejects or reads
    to the wrong shape, go through `float` one value at a time, which
    decides what loads and raises the line-numbered GridFormatError.
    """
    if rows and all(row and not row.encode().translate(None, _CELL_BYTES) for row in rows):
        try:
            cells = np.loadtxt(rows, delimiter=" ", ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if cells.shape == (res, res):
                return cells
    cells = np.empty((res, res), dtype=np.float64)
    for r, row in enumerate(rows):
        parts = row.split(" ")
        if len(parts) != res:
            raise GridFormatError(f"{source}:{4 + r}: expected {res} values, found {len(parts)}")
        try:
            cells[r] = [float(v) for v in parts]
        except ValueError as exc:
            raise GridFormatError(f"{source}:{4 + r}: unparseable cell value") from exc
    return cells


def _read_utf8(path: str | Path, error: type[ValueError]) -> str:
    """The text of file `path`; `error` naming the file if its bytes are not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_grid(source: str | Path) -> PosteriorGrid:
    """Parse a grid file, rejecting wrong versions and malformed content."""
    lines = _read_utf8(source, GridFormatError).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 3:
        raise GridFormatError(f"{source}: expected at least 3 header lines, found {len(lines)}")
    if lines[0] != _GRID_MAGIC:
        raise GridFormatError(f"{source}:1: expected {_GRID_MAGIC!r}, found {lines[0]!r}")
    try:
        header = parse_tokens(lines[1].split(), text_keys(PosteriorGrid))
    except ValueError as exc:
        raise GridFormatError(f"{source}:2: {exc}") from None
    try:
        cfg = TrainConfig(**parse_tokens(lines[2].split(), text_keys(TrainConfig), required=False))
    except ValueError as exc:
        raise GridFormatError(f"{source}:3: {exc}") from None
    resolution = header["resolution"]
    rows = lines[3:]
    if len(rows) != resolution:
        raise GridFormatError(
            f"{source}: expected {resolution} grid rows, found {len(rows)} (truncated or padded)"
        )
    cells = _parse_cells(rows, resolution, source)
    try:
        return PosteriorGrid(resolution, cells, header["prior"], cfg)
    except ValueError as exc:
        raise GridFormatError(f"{source}: {exc}") from exc
