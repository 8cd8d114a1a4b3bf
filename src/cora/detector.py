"""Collision-resistant symbol detection.

Two per-bin features separate a frame's own tone from colliding energy in
a dechirped window: the peak magnitude deviation (how far a bin's
magnitude sits from the preamble-calibrated peak) and the half-symbol
power deviation (how much the bin's energy changes between window
halves). A Bayes posterior over a 2-D grid of those features, estimated
from simulated collisions, scores every bin; the previous window's
posteriors damp bins that were already occupied, which is what suppresses
an interferer's repeated preamble symbols. The features travel as two
arrays of one shape, p and h, and the grid lookup alone checks that they
lie in [0, 1]. Every stage works on the last axis, so a frame's K windows
go through it as one (K, N) array, and the windows of F frames as one
(F, K, N) array. `map_chunks` runs training, campaigns and gen-scenario
in chunks and holds their one seeding rule.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache, partial
from pathlib import Path

import numpy as np

from cora.channel import (
    TrainConfig,
    format_value,
    gen_training_symbol,
    parse_tokens,
    text_keys,
    write_file,
)
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


def _worker_init(parent: int) -> None:
    """Pool initializer: keep this worker's heap, and end the worker once `parent` is gone.

    A worker never gives memory back, so with glibc's mmap threshold at 32
    MiB and a high trim threshold each chunk reuses the last one's pages
    instead of faulting in fresh ones (the trim threshold alone pins the
    mmap threshold at 128 KiB, below a chunk's 1 MiB arrays). The calling
    process keeps its allocator settings. A thread watches for the
    parent's death, which the call queue never shows.
    """
    import ctypes  # numpy has loaded it already

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # glibc only
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _seed_words(seed: int, n_items: int) -> np.ndarray:
    """Row k: `SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)`, for k < n_items.

    numpy's algorithm on 32-bit words, the seed's as Python ints masked to 32
    bits and k's as a uint32 array, which wraps as numpy's words do: the seed's
    little-endian words, zero-padded to the pool size of 4, then k (one word: a
    run that fits in memory has fewer than 2**32 items), are hashed and mixed
    into the pool, hashed into the state.
    """
    seed = int(np.random.SeedSequence(seed).entropy)  # numpy's check: an integer >= 0
    mask = 0xFFFFFFFF
    words = [seed >> s & mask for s in range(0, seed.bit_length() or 1, 32)]
    words += [0] * (4 - len(words)) + [np.arange(n_items, dtype=np.uint32)]

    def hashmix(value, chain):  # chain: [hash constant, its multiplier], advanced in place
        value = value ^ chain[0]
        chain[0] = chain[0] * chain[1] & mask
        value = value * chain[0] & mask
        return value ^ value >> 16

    def mix_in(dst, word):  # numpy's mix of pool word dst with the hash of `word`
        out = (0xCA01F9DD * pool[dst] & mask) - 0x4973F715 * hashmix(word, chain) & mask
        pool[dst] = out ^ out >> 16

    chain = [0x43B0D7E5, 0x931E8875]
    pool = [hashmix(word, chain) for word in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        mix_in(dst, pool[src])
    for word, dst in itertools.product(words[4:], range(4)):
        mix_in(dst, word)
    chain, state = [0x8B51F9DD, 0x58F38DED], np.empty((n_items, 8), "<u4")
    for i in range(8):
        state[:, i] = hashmix(pool[i % 4], chain)
    return state.view("<u8").astype(np.uint64, copy=False)


class _ItemSeed(np.random.bit_generator.ISpawnableSeedSequence):
    """Item k's `SeedSequence(entropy, spawn_key=(k,))`, holding its `_seed_words` row.

    PCG64's request is answered from the row; everything else (other
    `generate_state` requests, `spawn`, `pool`, `state`, ...) goes to that
    `SeedSequence`, built on first use.
    """

    def __init__(self, entropy: int, k: int, words: np.ndarray):
        self.entropy, self.spawn_key, self._words = entropy, (k,), words

    @cached_property
    def _seq(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key)

    def __getattr__(self, name):
        if name.startswith("_"):  # copy and pickle probe these before __init__ has run
            raise AttributeError(name)
        return getattr(self._seq, name)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:  # PCG64's request
            return self._words
        return self._seq.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._seq.spawn(n_children)


def _on_streams(fn, seed: int, first: int, words: np.ndarray):
    """`fn` of the streams of items first, first + 1, ..., from their rows of `_seed_words`.

    Item k's stream is `default_rng(SeedSequence(seed, spawn_key=(k,)))`, bit for bit.
    """
    seqs = (_ItemSeed(seed, k, row) for k, row in enumerate(words, first))
    return fn([np.random.Generator(np.random.PCG64(seq)) for seq in seqs])


def map_chunks(
    fn, seed: int, n_items: int, item_samples: int, fork: bool = False
) -> tuple[list, int]:
    """`fn(streams)` over the `n_items` items of the run seeded with `seed`, chunk by chunk.

    The one seeding rule: item k draws from `default_rng` of child k of
    `SeedSequence(seed)`, which is `SeedSequence(seed, spawn_key=(k,))`.
    One `_seed_words` pass here hashes every item's PCG64 words, and a
    chunk of max(1, CHUNK_SAMPLES // item_samples) items gets its rows and
    builds its streams where it runs. With `fork`, forked processes that keep their heap
    and exit if this one dies run the chunks; else this thread takes them in turn with
    `_worker_count` - 1 helper threads, started before it takes its first. With one
    worker, or where `_can_fork` refuses, this thread runs them alone. The first chunk to
    fail, in chunk order, raises once every worker is joined; after a failure no chunk
    starts. Returns the results in chunk order and the workers, 0 if this thread ran alone.
    """
    per_chunk = max(1, CHUNK_SAMPLES // item_samples)
    firsts = range(0, n_items, per_chunk)
    words = _seed_words(seed, n_items)
    rows = [words[first : first + per_chunk] for first in firsts]
    run = partial(_on_streams, fn, seed)
    workers = _worker_count(len(firsts))
    if workers < 2 or (fork and not _can_fork()):
        return list(map(run, firsts, rows)), 0
    if fork:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(workers, get_context("fork"), _worker_init, (os.getpid(),)) as pool:
            return list(pool.map(run, firsts, rows)), workers
    results, errors, lock, todo = [None] * len(rows), {}, threading.Lock(), iter(range(len(rows)))

    def work():  # chunks in order, while any is left and none has failed
        while True:
            with lock:
                if errors or (i := next(todo, None)) is None:
                    return
            try:
                results[i] = run(firsts[i], rows[i])
            except BaseException as exc:  # raised below, in chunk order
                errors[i] = exc

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return results, workers


class TrainingError(RuntimeError):
    """Raised when a training run cannot produce a usable grid."""


class GridFormatError(ValueError):
    """Raised when a grid file does not follow the documented layout."""


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
    """(p, h) pairs harvested from baseline-misclassified training windows.

    `true_features` has one row per kept window, so its length is the
    kept-window count.
    """

    true_features: np.ndarray
    interference_features: np.ndarray
    n_workers: int = 0  # worker processes that built them; 0 for this process


def pmd(magnitudes: np.ndarray, expected_peak: float | np.ndarray) -> np.ndarray:
    """Peak magnitude deviation: |magnitude - expected| / expected, capped at 1.

    A bin holding the frame's own tone scores near 0; bins holding much
    stronger or much weaker colliding energy score close to 1. The
    expected peak is one float or an array that broadcasts against the
    magnitudes, such as (K, 1) for one peak per window; every entry must
    be finite and positive.
    """
    if not np.logical_and(expected_peak > 0, expected_peak < np.inf).all():
        raise ValueError(f"expected_peak must be finite and positive, got {expected_peak}")
    dev = np.subtract(magnitudes, expected_peak)
    dev = np.divide(np.abs(dev, out=dev), expected_peak, out=dev)
    return np.minimum(dev, 1.0, out=dev)


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
    z = np.abs(np.fft.fft(window.time_samples * _half_mask(n), axis=-1))
    x_mag = window.magnitudes
    np.minimum(x_mag, z, out=z)
    live = x_mag > DEAD_BIN_RELATIVE_FLOOR * x_mag.max(axis=-1, keepdims=True)
    np.divide(z, x_mag, out=z, where=live)
    z[~live] = 1.0
    return z


def _cell_index(values: np.ndarray, resolution: int) -> np.ndarray:
    """Nearest-cell index for feature values, which must lie in [0, 1].

    The one min/max range test also rejects NaN and both infinities, which
    would otherwise become wrong indices (a negative one wraps around the grid).
    """
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError("features must lie in [0, 1]")
    idx = np.multiply(values, resolution, out=np.empty(values.shape, np.int64), casting="unsafe")
    return np.minimum(idx, resolution - 1, out=idx)


def _lookup(grid: PosteriorGrid, p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Nearest-cell posterior q of per-bin features p and h, arrays of one shape.

    One flat gather: cell (i, j) is element i * resolution + j of the C-ordered cells.
    """
    if p.shape != h.shape:
        raise ValueError(f"p and h must have one shape, got {p.shape} and {h.shape}")
    res = grid.resolution
    flat = _cell_index(p, res)
    flat *= res
    flat += _cell_index(h, res)
    return np.take(grid.cells.ravel(), flat)


def score_bins(p: np.ndarray, h: np.ndarray, grid: PosteriorGrid) -> np.ndarray:
    """History-damped per-bin scores of features p and h, without the argmax.

    p (peak deviation) and h (half-symbol) are (N,), (K, N) or (F, K, N)
    arrays of one shape. Each bin's score is its posterior q_k from
    `_lookup`, damped by how occupied the bin looked in the previous
    window of its frame: q_k * (1 - prev_q_k). The rows of a (K, N) array
    are a frame's consecutive windows, so row k is damped by row k - 1,
    and row 0, a frame's first window, scores q_k alone, as does a
    one-window (N,) array. An (F, K, N) array holds F frames, and damping
    restarts at each frame's row 0.
    """
    scores = _lookup(grid, p, h)
    if scores.ndim > 1:
        scores[..., 1:, :] *= 1.0 - scores[..., :-1, :]
    return scores


def classify(p: np.ndarray, h: np.ndarray, grid: PosteriorGrid) -> tuple[np.ndarray, np.ndarray]:
    """Pick the bin most likely to hold the frame's own tone, per window.

    Scores come from `score_bins`; ties resolve to the lowest bin.
    Returns (bin, score), with one entry per window: numpy scalars for one
    window (N,), arrays of shape (K,) or (F, K) for more.
    """
    scores = score_bins(p, h, grid)
    return scores.argmax(axis=-1), scores.max(axis=-1)  # the max is the argmax bin's score


def detect_symbol(
    window: SymbolWindow, expected_peak: float | np.ndarray, grid: PosteriorGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Full collision-aware detection for dechirped window(s), (N,), (K, N) or (F, K, N).

    The expected peak broadcasts against the magnitudes, as in `pmd`:
    (F, 1, 1) gives each frame its own preamble reference. Returns
    `classify`'s (bin, score).
    """
    return classify(pmd(window.magnitudes, expected_peak), hpd(window), grid)


def _feature_pairs(p: np.ndarray, h: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(p, h) pairs at each row's `cols` bins, row by row, as an (m, 2) array."""
    picked = [np.take_along_axis(f, cols, axis=-1) for f in (p, h)]
    return np.stack(picked, axis=-1).reshape(-1, 2)


def _training_chunk(
    cfg: TrainConfig, streams: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """One chunk's wanted-tone and interference (p, h) pairs, window k drawn from streams[k]."""
    windows, true_bins, _ = gen_training_symbol(cfg, streams)
    missed = baseline_detect(windows.magnitudes) != true_bins
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
    `gen_training_symbol`, filters it with the baseline and runs `pmd`
    and `hpd` once on its kept rows. Memory, apart from the harvested
    pairs, grows with `n_symbols` only through the run's seed words in
    `map_chunks`: 32 bytes per window while the chunks run, 60 while they
    are hashed, and none once the pairs are concatenated.
    """
    run_chunk = partial(_training_chunk, cfg)
    parts, workers = map_chunks(run_chunk, cfg.seed, cfg.n_symbols, cfg.n_bins, fork=True)
    true_arr = np.concatenate([true for true, _ in parts])
    intf_arr = np.concatenate([intf for _, intf in parts])
    return TrainingSamples(true_arr, intf_arr, workers)


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
    n_kept = len(samples.true_features)
    if n_kept < MIN_KEPT_WINDOWS:
        raise TrainingError(
            f"only {n_kept} of {cfg.n_symbols} windows were "
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

_GRID_MAGIC = "CORA-GRID v2"


def save_grid(grid: PosteriorGrid, destination: str | Path) -> None:
    """Write a grid as three text header lines and its cells in binary, byte-stable.

    The header lines are the magic, `resolution=<int> prior=<float>` and
    the training config as `key=value` tokens, each value written by
    `format_value` and each line ended by LF. The 8 * resolution**2 bytes
    after the third LF are the cells as little-endian float64, row-major
    with row i on the p axis; nothing follows them.
    """
    header = [
        _GRID_MAGIC,
        f"resolution={grid.resolution} prior={format_value(grid.prior)}",
        " ".join(f"{key}={format_value(value)}" for key, value in asdict(grid.config).items()),
    ]
    text = "".join(line + "\n" for line in header).encode("utf-8")
    write_file(destination, text + grid.cells.astype("<f8").tobytes())


def load_grid(source: str | Path) -> PosteriorGrid:
    """Read a `save_grid` file, rejecting wrong versions and malformed content.

    Only the three header lines are decoded, as UTF-8. Line 3, the grid's
    recipe, must set every `TrainConfig` key. The cell bytes are counted
    against the header's resolution before any array is built, and
    `PosteriorGrid` rejects cells that are not probabilities.
    """
    *lines, body = Path(source).read_bytes().split(b"\n", 3)
    if len(lines) < 3:
        raise GridFormatError(f"{source}: expected 3 header lines, found {len(lines)}")
    try:
        magic, sizes, config = b"\n".join(lines).decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise GridFormatError(f"{source}: not UTF-8 text (byte {exc.start})") from None
    if magic != _GRID_MAGIC:
        raise GridFormatError(f"{source}:1: expected {_GRID_MAGIC!r}, found {magic!r}")
    try:
        header = parse_tokens(sizes.split(), text_keys(PosteriorGrid))
    except ValueError as exc:
        raise GridFormatError(f"{source}:2: {exc}") from None
    try:
        cfg = TrainConfig(**parse_tokens(config.split(), text_keys(TrainConfig)))
    except ValueError as exc:
        raise GridFormatError(f"{source}:3: {exc}") from None
    # a negative resolution reads as an empty grid, which PosteriorGrid rejects by its value
    side = max(header["resolution"], 0)
    if len(body) != 8 * side * side:
        raise GridFormatError(
            f"{source}: expected {8 * side * side} cell bytes for resolution "
            f"{header['resolution']}, found {len(body)}"
        )
    cells = np.frombuffer(body, dtype="<f8").reshape(side, side)
    try:
        return PosteriorGrid(header["resolution"], cells, header["prior"], cfg)
    except ValueError as exc:
        raise GridFormatError(f"{source}: {exc}") from exc
