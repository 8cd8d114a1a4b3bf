"""Experiment runner: seeded SER/PRR campaigns, stage benchmarks, CSV output.

Frames are demodulated at known window boundaries (ground truth replaces
frame synchronisation), which isolates detector behaviour from sync
quality. Frame k draws from stream k of the experiment seed by the
seeding rule of `detector.map_chunks`, so a campaign's channel
realizations depend only on that seed, never on the detector under test,
on how frames are chunked or on how many threads decode them. `receive`
is the one receive path: campaigns, the `demod` command and the stage
benchmark all decode through it or its stages.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from cora.channel import (
    FadingProfile,
    _check_snr_db,
    _scaled_noise,
    apply_fading,
    collide,
    format_value,
)
from cora.detector import (
    FeatureField,
    PosteriorGrid,
    detect_symbol,
    hpd,
    map_chunks,
    pmd,
    score_bins,
)
from cora.phy import (
    PhyParams,
    base_upchirp,
    baseline_detect,
    build_frames,
    dechirp,
    frame_length,
    payload_start,
)

DETECTOR_KINDS = ("baseline", "cora")


@dataclass
class ScenarioSpec:
    """Channel conditions for a campaign: noise, collisions, fading.

    Frames fade exactly when `fading_profile` is set.
    """

    snr_db: float = math.inf
    n_interferers: int = 0
    sir_db: tuple[float, float] = (0.0, 0.0)
    offset_mode: str = "random"
    offset_samples: int = 0
    fading_profile: FadingProfile | None = None

    def __post_init__(self):
        _check_snr_db(self.snr_db)
        if self.n_interferers < 0:
            raise ValueError(f"n_interferers must be >= 0, got {self.n_interferers}")
        self.sir_db = tuple(float(x) for x in self.sir_db)
        if len(self.sir_db) != 2 or self.sir_db[0] > self.sir_db[1]:
            raise ValueError(f"sir_db must be (low, high), got {self.sir_db}")
        if self.offset_mode not in ("random", "fixed"):
            raise ValueError(f"offset_mode must be 'random' or 'fixed', got {self.offset_mode!r}")
        if self.offset_samples < 0:
            raise ValueError(f"offset_samples must be >= 0, got {self.offset_samples}")


@dataclass
class ExperimentConfig:
    """One campaign: detector, radio parameters, scenario, and sizes."""

    phy: PhyParams
    detector: str
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    n_frames: int = 100
    symbols_per_frame: int = 20
    preamble_len: int = 8
    frame_error_threshold: int = 0
    seed: int = 0
    grid: PosteriorGrid | None = None

    def __post_init__(self):
        if self.detector not in DETECTOR_KINDS:
            raise ValueError(f"detector must be one of {DETECTOR_KINDS}, got {self.detector!r}")
        if self.detector == "cora" and self.grid is None:
            raise ValueError("detector 'cora' needs a trained grid")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.symbols_per_frame < 1:
            raise ValueError(f"symbols_per_frame must be >= 1, got {self.symbols_per_frame}")
        if self.preamble_len < 1:
            raise ValueError(f"preamble_len must be >= 1, got {self.preamble_len}")
        if self.frame_error_threshold < 0:
            raise ValueError(
                f"frame_error_threshold must be >= 0, got {self.frame_error_threshold}"
            )


@dataclass
class MetricsRecord:
    """One result row; fields mirror the CSV schema exactly."""

    detector: str
    sf: int
    snr_db: float
    sir_db: float
    interferers: int
    fading: bool
    frames: int
    symbols: int
    symbol_errors: int
    ser: float
    frames_ok: int
    prr: float
    throughput_fps: float
    t_dechirp_s: float
    t_features_s: float
    t_classifier_s: float
    t_argmax_s: float
    seed: int

CSV_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


def simulate_frames(
    cfg: ExperimentConfig, streams: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, list[list[tuple[int, float]]]]:
    """Build F collided, faded, noisy frames, one per stream, plus their payload truth.

    Frame k draws only from `streams[k]`, in this order: target payload;
    per interferer its payload, SIR and offset; fading of the target, then
    of each interferer; then the I and Q noise. This order is part of the
    determinism contract, so a frame's channel depends only on its stream,
    never on the detector or on how frames are chunked. The targets and
    the interferers of all streams are two gathers (`build_frames`), the
    noise is drawn into one (2, F, L) buffer, and `collide` sums every
    frame with the arithmetic of `compose_collision`.

    Returns the samples (F, L), the target payloads (F, S), and per frame
    its interferers as (offset_samples, gain_db) pairs.
    """
    phy = cfg.phy
    sc = cfg.scenario
    n_symbols = cfg.symbols_per_frame
    total = frame_length(n_symbols, cfg.preamble_len, phy)
    payloads = np.empty((len(streams), 1 + sc.n_interferers, n_symbols), dtype=np.int64)
    placements = []
    for row, rng in enumerate(streams):
        payloads[row, 0] = rng.integers(0, phy.n, n_symbols)
        placed = []
        for slot in range(1, 1 + sc.n_interferers):
            payloads[row, slot] = rng.integers(0, phy.n, n_symbols)
            sir = float(rng.uniform(*sc.sir_db))
            if sc.offset_mode == "random":
                offset = int(rng.integers(total))
            else:
                offset = min(sc.offset_samples, total - 1)
            placed.append((offset, -sir))
        placements.append(placed)

    samples = build_frames(payloads[:, 0], cfg.preamble_len, phy)
    others = build_frames(payloads[:, 1:], cfg.preamble_len, phy)
    noise = np.empty((2, len(streams), total))
    for row, rng in enumerate(streams):
        if sc.fading_profile is not None:
            for frame in (samples[row], *others[row]):
                frame[:] = apply_fading(frame, phy.sample_rate_hz, sc.fading_profile, rng)
        rng.standard_normal(total, out=noise[0, row])
        rng.standard_normal(total, out=noise[1, row])
    interferers = [
        [(frame, gain_db, offset) for frame, (offset, gain_db) in zip(others[row], placed)]
        for row, placed in enumerate(placements)
    ]
    collide(samples, interferers, sc.snr_db, noise)
    return samples, payloads[:, 0], placements


def simulate_frame(
    cfg: ExperimentConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, float]]]:
    """Build one collided, faded, noisy frame plus its payload truth.

    The one-frame view of `simulate_frames`, drawing from `rng` itself.
    Returns the composite samples, the target payload symbols, and the
    interferers as (offset_samples, gain_db) pairs.
    """
    samples, payloads, placements = simulate_frames(cfg, [rng])
    return samples[0], payloads[0], placements[0]


def expected_peak_from_preamble(samples: np.ndarray, cfg: ExperimentConfig) -> float | np.ndarray:
    """Preamble peak estimate for a frame aligned at sample zero.

    Emulates the measurement a synchronized receiver makes: the mean
    magnitude of the target's own preamble peak, which in known-boundary
    mode sits at bin 0 of each preamble window. Taking each window's
    global maximum instead would latch onto a stronger interferer and
    mis-calibrate the peak-deviation feature for the whole frame.
    Returns a float for one stream (L,) and one estimate per stream for
    (F, L).
    """
    n = cfg.phy.n
    lead = samples.shape[:-1]
    preamble = dechirp(samples[..., : cfg.preamble_len * n].reshape(lead + (-1, n)), cfg.phy)
    return np.mean(preamble.magnitudes[..., 0], axis=-1)


def receive(
    samples: np.ndarray, starts: np.ndarray, cfg: ExperimentConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Detect the symbol in each N-sample window of target-aligned streams.

    `samples` is one stream (L,) or F streams (F, L), each a frame aligned
    at sample zero, and the same starts apply to every stream. The windows
    of all streams go through every stage as one (F, K, N) array, in the
    order given. Each window is damped by the window before it in its own
    stream (see `score_bins`), and each stream's preamble gives its own
    reference peak. Starts must lie inside the stream. Returns the
    detected bins and their scores, (K,) or (F, K): the peak magnitude for
    the baseline, the history-damped posterior for cora.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lead = samples.shape[:-1]
    n = cfg.phy.n
    if starts.size == 0:
        return np.empty(lead + (0,), dtype=np.int64), np.empty(lead + (0,))
    if np.array_equal(starts, starts[0] + n * np.arange(starts.size)):
        # back-to-back windows, such as a frame's payload: a view, not a gather
        stop = starts[0] + starts.size * n
        windows = samples[..., starts[0] : stop].reshape(lead + (starts.size, n))
    else:
        windows = samples[..., starts[:, None] + np.arange(n)]
    window = dechirp(windows, cfg.phy)
    if cfg.detector == "baseline":
        bins = baseline_detect(window.magnitudes)
        return bins, np.take_along_axis(window.magnitudes, bins[..., None], axis=-1)[..., 0]
    expected_peak = np.reshape(expected_peak_from_preamble(samples, cfg), lead + (1, 1))
    bins, scores, _ = detect_symbol(window, expected_peak, cfg.grid)
    return bins, scores


def demodulate_frame(
    samples: np.ndarray,
    cfg: ExperimentConfig,
) -> np.ndarray:
    """Detect every payload symbol of one frame (L,) or F frames (F, L) at known boundaries."""
    start = payload_start(cfg.preamble_len, cfg.phy)
    return receive(samples, start + cfg.phy.n * np.arange(cfg.symbols_per_frame), cfg)[0]


def _chunk_errors(cfg: ExperimentConfig, streams: list[np.random.Generator]) -> np.ndarray:
    """Symbol errors of each frame of one campaign chunk, one frame per stream."""
    samples, truth, _ = simulate_frames(cfg, streams)
    return np.count_nonzero(demodulate_frame(samples, cfg) != truth, axis=-1)


def run_experiment(cfg: ExperimentConfig) -> MetricsRecord:
    """Run a seeded campaign and aggregate SER, PRR, and throughput.

    Frame k is item k of a `map_chunks` run seeded with `cfg.seed`. The
    chunks run on threads, since numpy releases the GIL for their noise
    draws, gathers, FFTs and products. `simulate_frames` builds a chunk
    as one (F, L) array and `demodulate_frame` decodes it as one (F, K,
    N) array, so results depend neither on the chunk size nor on the
    thread. Each frame still costs its own generator and two full-length
    normal draws, which no batching removes.

    Stage timings are reported as 0.0 here so result files are
    byte-stable across machines; `bench_stages` is the timing path.
    """
    total = frame_length(cfg.symbols_per_frame, cfg.preamble_len, cfg.phy)
    chunks, _ = map_chunks(partial(_chunk_errors, cfg), cfg.seed, cfg.n_frames, total)
    errors = np.concatenate(chunks)
    symbol_errors = int(errors.sum())
    frames_ok = int(np.count_nonzero(errors <= cfg.frame_error_threshold))

    n_symbols = cfg.n_frames * cfg.symbols_per_frame
    frame_s = total / cfg.phy.sample_rate_hz
    sc = cfg.scenario
    return MetricsRecord(
        detector=cfg.detector,
        sf=cfg.phy.sf,
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


def bench_stages(cfg: ExperimentConfig, n_warmup: int = 100, n_iter: int = 1000) -> MetricsRecord:
    """Measure mean per-symbol wall time for each detection stage.

    Times the receive path's stages one window at a time: `dechirp`, the
    features (`pmd`, `hpd`), the classifier (`score_bins`) and the
    argmax. Symbols are pre-generated so only detection is timed; the
    first `n_warmup` iterations are discarded. For the baseline detector
    the feature and classifier stages report zero, and its argmax runs on
    the magnitude spectrum. Runs single-threaded with a monotonic clock.
    """
    if n_iter < 30:
        raise ValueError(f"n_iter must be >= 30 for stable means, got {n_iter}")
    if n_warmup < 0:
        raise ValueError(f"n_warmup must be >= 0, got {n_warmup}")

    phy = cfg.phy
    n = phy.n
    rng = np.random.default_rng(cfg.seed)
    total = n_warmup + n_iter
    bins = rng.integers(0, n, total)
    raw = np.take(base_upchirp(phy), np.arange(n) + bins[:, None], mode="wrap")
    variance = 1.0 / 10.0 ** (cfg.scenario.snr_db / 10.0)
    raw += _scaled_noise(rng.standard_normal(raw.shape), rng.standard_normal(raw.shape), variance)

    expected_peak = float(n)
    t_dechirp = t_features = t_classifier = t_argmax = 0.0
    errors = 0
    prev = None
    clock = time.perf_counter
    for i in range(total):
        t0 = clock()
        window = dechirp(raw[i], phy)
        t1 = clock()
        if cfg.detector == "cora":
            features = FeatureField(pmd(window.magnitudes, expected_peak), hpd(window))
            t2 = clock()
            prev, scores = score_bins(features, cfg.grid, prev)
            t3 = clock()
            detected = int(np.argmax(scores))
            t4 = clock()
        else:
            t2 = t3 = t1
            detected = baseline_detect(window.magnitudes)
            t4 = clock()
        if i >= n_warmup:
            t_dechirp += t1 - t0
            t_features += t2 - t1
            t_classifier += t3 - t2
            t_argmax += t4 - t3
            if detected != bins[i]:
                errors += 1

    sc = cfg.scenario
    return MetricsRecord(
        detector=cfg.detector,
        sf=phy.sf,
        snr_db=float(sc.snr_db),
        sir_db=math.nan,
        interferers=0,
        fading=False,
        frames=n_iter,
        symbols=n_iter,
        symbol_errors=errors,
        ser=errors / n_iter,
        frames_ok=n_iter - errors,
        prr=(n_iter - errors) / n_iter,
        throughput_fps=0.0,
        t_dechirp_s=t_dechirp / n_iter,
        t_features_s=t_features / n_iter,
        t_classifier_s=t_classifier / n_iter,
        t_argmax_s=t_argmax / n_iter,
        seed=cfg.seed,
    )


def write_csv(records: list[MetricsRecord], destination) -> None:
    """Emit records as CSV: header row, 17-significant-digit floats, LF."""
    if not records:
        raise ValueError("no records to write")
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(format_value(getattr(rec, name)) for name in CSV_COLUMNS))
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
