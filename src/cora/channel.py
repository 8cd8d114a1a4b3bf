"""Channel impairments on sample streams (complex128 arrays).

Covers multipath Rayleigh fading with a Jakes Doppler spectrum,
frame-on-frame collisions with AWGN calibrated to the target frame's
power, and the dechirped-domain symbol generator used to train the
collision classifier.
Next to `TrainConfig` sits the one text codec of grid, IQ, sidecar and CSV
files: `format_value` writes each value, `parse_tokens` reads `key=value` tokens,
and `write_file` writes each file.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache, lru_cache
from types import MappingProxyType

import numpy as np

from cora.phy import SymbolWindow

# Sum-of-sinusoids order for the Jakes Doppler model. 16 oscillators keep
# the tap statistics close to Rayleigh without noticeable cost.
JAKES_OSCILLATORS = 16


def _representable_db(db: float) -> bool:
    """Whether power ratio 10^(db/10) and its reciprocal are finite and non-zero.

    That holds within about ±3,082 dB; NaN and both infinities fail it.
    """
    try:
        ratio = 10.0 ** (db / 10.0)
    except OverflowError:
        return False
    return 0.0 < ratio < math.inf and 1.0 / ratio < math.inf


def _check_snr_db(snr_db: float) -> None:
    """Reject an SNR that sets no representable noise level.

    +inf dB means no noise; any other SNR must pass `_representable_db`.
    """
    if snr_db != math.inf and not _representable_db(snr_db):
        raise ValueError(f"snr_db must be +inf or finite within about ±3082 dB, got {snr_db}")


def _finite_range(name: str, pair) -> tuple[float, float]:
    """`pair` as a (low, high) tuple of dB; ValueError unless low <= high, both representable.

    Each end must pass `_representable_db`, so that neither a uniform draw
    between the ends nor the gain it sets overflows.
    """
    pair = tuple(float(x) for x in pair)
    if len(pair) != 2 or not pair[0] <= pair[1] or not all(map(_representable_db, pair)):
        raise ValueError(
            f"{name} must be finite (low, high) within about ±3082 dB with low <= high, got {pair}"
        )
    return pair


@dataclass(frozen=True)
class FadingProfile:
    """Tapped delay line description: path delays, powers, max Doppler."""

    tap_delays_s: tuple[float, ...]
    tap_powers_db: tuple[float, ...]
    max_doppler_hz: float

    def __post_init__(self):
        object.__setattr__(self, "tap_delays_s", tuple(float(d) for d in self.tap_delays_s))
        object.__setattr__(self, "tap_powers_db", tuple(float(p) for p in self.tap_powers_db))
        if len(self.tap_delays_s) == 0:
            raise ValueError("profile needs at least one tap")
        if len(self.tap_delays_s) != len(self.tap_powers_db):
            raise ValueError("tap_delays_s and tap_powers_db must have equal length")
        if not all(math.isfinite(d) and d >= 0 for d in self.tap_delays_s):
            raise ValueError(f"tap delays must be finite and >= 0, got {self.tap_delays_s}")
        # -inf dB is a silent tap; NaN or +inf dB has no normalised power
        if any(math.isnan(p) or p == math.inf for p in self.tap_powers_db):
            raise ValueError(f"tap powers must be finite or -inf dB, got {self.tap_powers_db}")
        if all(p == -math.inf for p in self.tap_powers_db):
            raise ValueError("tap powers are all -inf dB: the profile carries no power")
        if not 0 <= self.max_doppler_hz < math.inf:
            raise ValueError(f"max_doppler_hz must be finite and >= 0, got {self.max_doppler_hz}")


def etu_like_profile() -> FadingProfile:
    """Nine-tap urban multipath profile with 5 us delay spread, 5 Hz Doppler."""
    return FadingProfile(
        tap_delays_s=(0.0, 50e-9, 120e-9, 200e-9, 230e-9, 500e-9, 1600e-9, 2300e-9, 5000e-9),
        tap_powers_db=(-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, -3.0, -5.0, -7.0),
        max_doppler_hz=5.0,
    )


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the simulation-driven classifier training run.

    The defaults reproduce the reference recipe: 100k dechirped windows of
    256 bins, up to two interferers drawn between -15 and +13 dB relative
    to the wanted tone, fractional frequency deviations within 1/8 of a
    bin, and additive noise at the midpoint of that power range.
    """

    n_bins: int = 256
    n_symbols: int = 100_000
    max_interferers: int = 2
    power_range_db: tuple[float, float] = (-15.0, 13.0)
    frac_freq_range: float = 0.125
    interference_samples_per_symbol: int = 10
    snr_db: float = -1.0
    grid_resolution: int = 200
    smooth_sigma: float = 2.0
    smooth_floor: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "power_range_db", _finite_range("power_range_db", self.power_range_db)
        )
        if not 2 <= self.n_bins <= 2**32 or (self.n_bins & (self.n_bins - 1)) != 0:
            raise ValueError(f"n_bins must be a power of two in [2, 2**32], got {self.n_bins}")
        if self.n_symbols < 1:
            raise ValueError(f"n_symbols must be >= 1, got {self.n_symbols}")
        if self.max_interferers < 0:
            raise ValueError(f"max_interferers must be >= 0, got {self.max_interferers}")
        if not 0 <= self.frac_freq_range <= 0.5:
            raise ValueError(f"frac_freq_range must be in [0, 0.5], got {self.frac_freq_range}")
        if not 1 <= self.interference_samples_per_symbol <= self.n_bins - 1:
            raise ValueError(
                "interference_samples_per_symbol must be in [1, n_bins - 1], "
                f"got {self.interference_samples_per_symbol}"
            )
        _check_snr_db(self.snr_db)
        if self.grid_resolution < 2:
            raise ValueError(f"grid_resolution must be >= 2, got {self.grid_resolution}")
        if not 0 <= self.smooth_sigma < math.inf:
            raise ValueError(f"smooth_sigma must be finite and >= 0, got {self.smooth_sigma}")
        if not 0 < self.smooth_floor < math.inf:
            raise ValueError(f"smooth_floor must be finite and > 0, got {self.smooth_floor}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _as_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _as_pair(text: str) -> tuple[float, float]:
    low, high = text.split(",")
    return float(low), float(high)


# Text parser, and what it expects, per parameter annotation. The
# annotations are strings (`from __future__ import annotations`); a
# parameter whose annotation is not listed cannot be set from text.
_TEXT_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "text"),
    "bool": (_as_bool, "true/false"),
    "tuple[float, float]": (_as_pair, "'low,high'"),
}


def parse_value(kind: str, key: str, text: str):
    """`text` as a value of annotation `kind`; ValueError "<key>: expected ..." if it is not one."""
    parse, expected = _TEXT_PARSERS[kind]
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{key}: expected {expected}, got {text!r}") from None


@cache
def text_keys(cls) -> Mapping[str, str]:
    """Parameters of `cls` (a dataclass or a function) that a key=value text may set.

    Maps each name to its annotation; these are the keys of config files
    and of the grid file's config line. Cached per `cls` and read-only.
    """
    params = inspect.signature(cls).parameters.values()
    return MappingProxyType({p.name: p.annotation for p in params if p.annotation in _TEXT_PARSERS})


def format_value(value) -> str:
    """`value` as text `parse_value` reads back exactly: floats to 17 digits, bools true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    return str(value)


def write_file(path, data: bytes) -> None:
    """Write `data` to `path`, as a new file where a regular file this process may write stands.

    That file is unlinked, not truncated (on ext4 that can stall for tens of ms), so a hard
    link's other names keep the old bytes. A symlink, a FIFO, a device, a file this process
    may not write or one that cannot be unlinked is left to `open`, which truncates it in place
    or refuses it.
    """
    if os.path.isfile(path) and not os.path.islink(path) and os.access(path, os.W_OK):
        with contextlib.suppress(OSError):
            os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(data)


def parse_tokens(tokens: list[str], kinds: Mapping[str, str], required: bool = True) -> dict:
    """Typed values of `key=value` tokens whose keys are among `kinds` (name -> annotation).

    ValueError for a token without '=', an unknown or repeated key, a
    value `parse_value` rejects, or, if `required`, a key no token sets.
    """
    out = {}
    for token in tokens:
        key, sep, text = token.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {token!r}")
        if key not in kinds:
            raise ValueError(f"unknown key {key!r}")
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = parse_value(kinds[key], key, text)
    if required and len(out) < len(kinds):
        raise ValueError(f"missing key {next(k for k in kinds if k not in out)!r}")
    return out


def fields_from_text(cls, text: dict[str, str]) -> dict:
    """Typed values for the `text_keys(cls)` that a config map sets; other keys are ignored."""
    kinds = text_keys(cls)
    return {key: parse_value(kinds[key], key, value) for key, value in text.items() if key in kinds}


def _noise_scale(power: float | np.ndarray, snr_db: float) -> np.ndarray:
    """The factor on standard normal I and Q that puts complex noise `snr_db` below `power`."""
    variance = np.divide(power, 10.0 ** (snr_db / 10.0))
    return np.sqrt(variance / 2.0, out=np.zeros_like(variance), where=variance > 0)


def _scaled_noise(
    re: np.ndarray, im: np.ndarray, power: float | np.ndarray, snr_db: float, out=None
) -> np.ndarray:
    """Complex noise `snr_db` below `power` (a float or (F, 1) array) from I and Q, in `out`."""
    noise = np.multiply(1j, im, out=out)
    return np.multiply(_noise_scale(power, snr_db), np.add(re, noise, out=noise), out=noise)


def collide(
    targets: np.ndarray,
    frames: Sequence[Sequence[np.ndarray]],
    placements: list[list[tuple[int, float]]],
    snr_db: float,
    noise: np.ndarray,
    spare: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Add interferers and noise to F target frames `targets` (F, L), in place or into `out`.

    Row f's interferer `frames[f][i]` is scaled by `placements[f][i]` =
    (offset, gain_db), offset in [0, L), and added from sample `offset` on;
    its samples beyond the target's last one are dropped. `noise` holds
    standard normal I and Q parts as (F, 2, L), each row's scaled to sit
    `snr_db` below its own target's power. The interferers go into `targets`
    in place, the complex noise into `spare` (a dead (F, L) complex128
    buffer, such as rows of `frames`, added first) or a new array, and the
    noisy frames, returned, into `out` (it may hold the draws) or `targets`.
    Only the interferer slices go row by row: numpy calls on whole chunks
    overlap on two threads, per-row calls on L-sample arrays do not.
    """
    power = np.abs(targets)
    power = np.mean(np.square(power, out=power), axis=-1)
    if not power.all():
        raise ValueError("target frame has zero power")
    for row, placed in enumerate(placements):
        for frame, (start, gain_db) in zip(frames[row], placed):
            stop = min(start + len(frame), targets.shape[-1])
            targets[row, start:stop] += 10.0 ** (gain_db / 20.0) * frame[: stop - start]
    scaled = _scaled_noise(noise[:, 0], noise[:, 1], power[:, None], snr_db, spare)
    return np.add(targets, scaled, out=targets if out is None else out)


def compose_collision(
    target: np.ndarray,
    interferers: list[tuple[np.ndarray, float, int]],
    snr_db: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sum the target frame, offset interferers, and noise into one stream.

    `interferers` lists (samples, gain_db, offset) triples, each offset in
    [0, len(target)) from the target's first sample and each gain -inf dB
    (a silent interferer) or within `_representable_db`'s range; any
    other gain raises ValueError before the noise is drawn. The output
    has the target's length: interferer samples beyond the target's last
    sample are dropped. The AWGN, one `standard_normal((2, L))` draw, is
    calibrated to the target's own power, so an infinite-SNR call with no
    interferers returns the target. `collide` on a one-row copy of the target.
    """
    target = np.asarray(target, dtype=np.complex128)
    if target.ndim != 1 or target.size == 0:
        raise ValueError(f"target must be a non-empty 1-D stream, got shape {target.shape}")
    for _, gain_db, offset in interferers:
        if not isinstance(offset, (int, np.integer)) or not 0 <= offset < target.size:
            raise ValueError(f"interferer offset {offset!r} not an integer in [0, {target.size})")
        # -inf dB is a silent interferer
        if gain_db != -math.inf and not _representable_db(gain_db):
            raise ValueError(
                f"interferer gain_db must be -inf or finite within about ±3082 dB, got {gain_db}"
            )
    _check_snr_db(snr_db)
    frames = [np.asarray(frame) for frame, _, _ in interferers]
    placements = [(int(offset), gain_db) for _, gain_db, offset in interferers]
    noise = rng.standard_normal((1, 2, target.size))
    return collide(target[None].copy(), [frames], [placements], snr_db, noise)[0]


# Terms of the Taylor series that stands in for each tone's fine factor in
# `apply_fading`. With its argument at most 1/2 the first omitted term is
# below 0.5**16 / 16! ~ 7e-18, far under float64 rounding of a unit tone.
TAYLOR_TERMS = 16
# 1j**m / m!: the series' coefficient of x**m
_TAYLOR_COEFFS = np.array(
    [(1, 1j, -1, -1j)[m % 4] / math.factorial(m) for m in range(TAYLOR_TERMS)]
)

# The widest Taylor block B: without it a Doppler-free tone sum takes B = n
# and caches a (TAYLOR_TERMS, n) table, 16.9 MB for a 20-payload SF12 frame.
MAX_TAYLOR_BLOCK = 4096


@lru_cache(maxsize=16)
def _power_table(width: int) -> np.ndarray:
    """(TAYLOR_TERMS, width) table of (j / width) ** m, read-only."""
    table = (np.arange(width) / width) ** np.arange(TAYLOR_TERMS)[:, None]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def _fading_plan(profile: FadingProfile, fs: float, n: int) -> tuple[np.ndarray, tuple]:
    """`apply_fading`'s view of `profile` at `fs` Hz over n samples, read-only.

    Returns the tone amplitudes, one per angle drawn, normalised so the
    expected channel gain is one, and per rounded tap delay below n, in
    order of first tap: (delay, the flat indices of its taps' tones).
    """
    # relative to the strongest tap, so no finite dB value overflows
    powers_db = np.asarray(profile.tap_powers_db)
    powers_lin = 10.0 ** ((powers_db - powers_db.max()) / 10.0)
    powers_lin = powers_lin / powers_lin.sum()
    amps = np.sqrt(powers_lin / JAKES_OSCILLATORS).repeat(JAKES_OSCILLATORS)
    delays: dict[int, list[int]] = {}
    for tap, delay_s in enumerate(profile.tap_delays_s):
        # n or more is dropped before rounding: int() fails on a delay that overflows
        if delay_s * fs < n:
            delays.setdefault(int(round(delay_s * fs)), []).append(tap)
    tones = np.arange(amps.size).reshape(-1, JAKES_OSCILLATORS)
    groups = tuple((d, tones[taps].ravel()) for d, taps in delays.items() if d < n)
    for array in (amps, *(group_tones for _, group_tones in groups)):
        array.setflags(write=False)
    return amps, groups


def apply_fading(
    samples: np.ndarray,
    fs: float,
    profile: FadingProfile,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> np.ndarray:
    """Pass streams sampled at `fs` Hz through time-varying tapped delay lines.

    `rng` is one generator for one stream, or a sequence of k generators
    for k equal-length streams held back to back in the 1-D `samples`.
    Stream i fades by its own channel, drawn from `rng[i]`: its output and
    its generator's end state are those of a one-stream call.

    Each tap gets an independent Jakes sum-of-sinusoids Rayleigh process:
    the sum of JAKES_OSCILLATORS complex tones at Dopplers
    max_doppler_hz * cos(alpha) with random angles and phases. A stream's
    draws are one `uniform` call of shape (taps, 2, JAKES_OSCILLATORS) on
    its generator, made in stream order, which yields the doubles, and
    leaves the generator in the state, of drawing tap by tap in profile
    order (angles, then phases). Tap delays are rounded to whole samples,
    and taps that share a delay act as one group: at 125 kHz the ETU-like
    profile's first eight taps land on delay 0 and its 5 us tap on delay 1.
    The tone amplitudes, normalised so the expected channel gain is one,
    and the groups come from a cached plan (`_fading_plan`); groups delayed
    by n samples or more contribute nothing.

    A group's gain, sum_i amps[i] * exp(1j * (omegas[i] * k / fs + phases[i]))
    for k < n, is evaluated with k = b * B + j, j < B: each tone is a coarse
    exponential at time b * B / fs times exp(1j * x_i * j / B), with
    x_i = omegas[i] * B / fs, and that fine factor is replaced by its Taylor
    series over TAYLOR_TERMS terms. The gain is then the (ceil(n / B), M)
    coarse exponentials times the (M, TAYLOR_TERMS) Taylor weights of the M
    tones, followed by two real products with the cached power table. B is
    the largest power of two with max|omegas| * B / fs <= 1/2 over the
    group's realised Dopplers in its stream, capped at n and at
    MAX_TAYLOR_BLOCK, which bounds the truncation error by 0.5**16 / 16!;
    once max|omegas| > fs / 4, B = 1, the table is [1, 0, ...], and every
    value is an exact exponential.

    Group by group in plan order, the streams that get the same B share
    one pass: one exponential over their coarse times, one Vandermonde
    matrix and one stacked Taylor-weight product. Each stream's gain is
    then two real products with the table into one reused buffer, applied
    at the group's delay and added to the stream at once, so one gain of
    n samples is held at a time. Stream by stream that is the arithmetic
    of summing each group alone: a channel is bit for bit that of a
    group-by-group evaluation wherever every group leaves two samples or
    more (delay < n - 1), may differ from it by an ulp where a group leaves
    one, as numpy rounds an in-place product of one complex sample its own
    way, and is that of a tap-by-tap, tone-by-tone evaluation up to
    rounding. `samples` that are not 1-D, an `fs` that is not finite
    and positive, no generators, or a length that k does not divide raises
    ValueError before any draw.
    """
    if not 0 < fs < math.inf:
        raise ValueError(f"fs must be finite and > 0, got {fs}")
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    x = np.asarray(samples)
    if x.ndim != 1:
        raise ValueError(f"samples must be one 1-D array, got shape {x.shape}")
    if not rngs or x.size % len(rngs):
        raise ValueError(
            f"need k >= 1 generators for k equal streams, got {len(rngs)} for {x.size} samples"
        )
    k, n = len(rngs), x.size // len(rngs)
    x = x.reshape(k, n)
    amps, groups = _fading_plan(profile, fs, n)

    shape = (len(profile.tap_delays_s), 2, JAKES_OSCILLATORS)
    draws = np.stack([r.uniform(0.0, 2.0 * np.pi, shape) for r in rngs])
    omegas = (2.0 * np.pi * (profile.max_doppler_hz * np.cos(draws[:, :, 0]))).reshape(k, -1)
    phases = draws[:, :, 1].reshape(k, -1)
    cap = min(n, MAX_TAYLOR_BLOCK)
    candidates = 1 << np.arange((cap - 1).bit_length() + 1)

    out = np.zeros((k, n), dtype=np.complex128)
    for delay, tones in groups:
        # B per stream: the first power of two that reaches the cap or fails the test
        top = np.abs(omegas[:, tones]).max(axis=1) / fs
        fails = (candidates >= cap) | (top[:, None] * 2 * candidates > 0.5)
        widths = np.minimum(candidates[fails.argmax(axis=1)], n)
        for width in set(widths.tolist()):
            streams = np.flatnonzero(widths == width)
            rows = -(-n // width)
            coarse = np.arange(rows) * (width / fs)
            om, phase = omegas[streams[:, None], tones], phases[streams[:, None], tones]
            left = amps[tones] * np.exp(1j * (coarse[:, None] * om[:, None] + phase[:, None]))
            powers = np.vander(om.ravel() * (width / fs), TAYLOR_TERMS, increasing=True)
            weights = np.matmul(left, powers.reshape(*om.shape, -1)) * _TAYLOR_COEFFS
            # each stream's gain in turn, in one reused buffer
            table = _power_table(width)
            gain = np.empty((rows, width), dtype=np.complex128)
            tail = gain.reshape(-1)[delay:n]
            for stream, weight in zip(streams.tolist(), weights):
                np.matmul(weight.real, table, out=gain.real)
                np.matmul(weight.imag, table, out=gain.imag)
                out[stream, delay:] += np.multiply(tail, x[stream, : n - delay], out=tail)
    return out.reshape(-1)


def _tone(amplitude, omega, phase, k, n: int) -> np.ndarray:
    """amplitude * exp(1j * (omega * k / n + phase)): `omega` in radians per window.

    `omega * k` has the tones' shape, such as (K, N) for a batch, and the
    other arguments broadcast against it; each step after it works in place.
    An `amplitude` of None skips the product, which for 1.0 changes no byte.
    """
    x = omega * k
    x /= n
    x += phase
    tone = np.multiply(1j, x)
    np.exp(tone, out=tone)
    return tone if amplitude is None else np.multiply(tone, amplitude, out=tone)


def clipped_tone(
    freq_bins: float,
    amplitude: float,
    phase: float,
    start: int,
    stop: int,
    n: int,
) -> np.ndarray:
    """Complex tone exp(j*(2*pi*freq_bins*k/n + phase)) on [start, stop).

    Samples outside the interval are zero. This is the dechirped-domain
    shape of a chirp symbol: a full-window tone when aligned, a clipped
    one when the symbol boundary falls inside the window.
    """
    if not 0 <= start <= stop <= n:
        raise ValueError(f"need 0 <= start <= stop <= n, got start={start} stop={stop} n={n}")
    out = np.zeros(n, dtype=np.complex128)
    out[start:stop] = _tone(amplitude, 2.0 * np.pi * freq_bins, phase, np.arange(start, stop), n)
    return out


def _slot_words(n_slots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where interferer slots' draws sit among the raw PCG64 words after a window's header.

    A slot draws power, boundary, deviation, two bins and two phases. A
    double takes a fresh 64-bit word; a 32-bit integer draw takes the
    buffered high half if there is one, else the low half of a fresh word,
    whose high half it buffers. From an empty buffer slots take 6, 5, 6, 5,
    ... words. Returns per slot its doubles' words (S, 4) and its integers'
    32-bit halves (S, 3), half 2i + 1 being word i's high half, and the
    words that c slots take, for c in 0..S.
    """
    pair, odd = np.divmod(np.arange(n_slots + 1), 2)
    ends = 11 * pair + 6 * odd
    w, odd = 11 * pair[:-1, None], odd[:-1, None] == 1
    doubles = w + np.where(odd, [6, 7, 9, 10], [0, 2, 4, 5])
    return doubles, 2 * w + np.where(odd, [7, 16, 17], [2, 3, 6]), ends


def gen_training_symbol(
    cfg: TrainConfig, streams: list[np.random.Generator]
) -> tuple[SymbolWindow, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Draw K synthetic dechirped windows with collisions and noise, one per stream.

    Each window holds a unit wanted tone at a uniform random bin with a
    fractional frequency deviation, plus zero to `max_interferers`
    colliding symbols. Each interferer carries a uniform power offset in
    `power_range_db`, shares one random symbol boundary and one fractional
    deviation, and switches between two independent bins (with independent
    phases) at that boundary, mimicking a frame that changes symbol value
    mid-window. Complex AWGN at `cfg.snr_db` relative to the unit tone is
    added last.

    Window k draws only from `streams[k]`, in this order: true bin, true
    deviation, true phase, interferer count; per interferer its power,
    boundary, deviation, bin before and after the boundary, and phase
    before and after; then the I and Q noise. The interferers' draws come
    from raw PCG64 words (`_slot_words`), decoded for all windows at once:
    Generator.random() of a word w is (w >> 11) * 2**-53, and integers(n)
    of a 32-bit draw u is Lemire's (u * n) >> 32 = u >> (32 - log2 n),
    which never rejects for a power of two. The last word that fills the
    buffer goes through integers(n), so each stream's whole
    `bit_generator.state` ends as the scalar calls leave it. The K windows
    are then built together: one exponential for the wanted tones, one per
    interferer slot over the windows that have that interferer (bin and
    phase switching at each row's boundary), the noise, and one (K, N) FFT.

    Returns the windows as one (K, N) SymbolWindow, the true bins (K,),
    and the draws (true, counts, slots): true[k] = (bin, deviation,
    phase), counts[k] interferers, and slots[k, :counts[k]] rows of
    (power_db, amplitude, boundary, deviation, bin_a, bin_b, phase_a, phase_b).
    """
    if len(streams) == 0:
        raise ValueError("need at least one stream")
    n = cfg.n_bins
    f = cfg.frac_freq_range
    low_db, high_db = cfg.power_range_db
    # Generator.uniform(low, high) is low + (high - low) * rng.random(): the
    # same doubles, and several of them per call
    two_pi = 2.0 * np.pi
    true = np.empty((len(streams), 3))
    counts = np.empty(len(streams), dtype=np.int64)
    slots = np.empty((len(streams), cfg.max_interferers, 8))
    noise = np.empty((len(streams), 2, n))
    doubles, halves, ends = _slot_words(cfg.max_interferers + 1)
    words = np.zeros((len(streams), ends[-1]), "<u8")
    skipped = np.zeros(len(streams), dtype=np.int64)
    shift = 33 - n.bit_length()  # 32 - log2 n
    for row, rng in enumerate(streams):
        true_bin = rng.integers(n)
        dev_u, phase_u = rng.random(2).tolist()
        true[row] = true_bin, -f + 2.0 * f * dev_u, two_pi * phase_u
        count = counts[row] = rng.integers(cfg.max_interferers + 1)
        if count:
            # A half that the header left buffered (one the stream came in
            # with, or a rejected count draw) is the first boundary, as word
            # 3's high half would be, and the slots take slots 1..count's
            # words. integers(n) draws the third-last, the last to buffer.
            bits = rng.bit_generator
            skip = skipped[row] = bits.state["has_uint32"]
            if skip:
                words[row, 3] = int(rng.integers(n)) << (32 + shift)
            start, stop = 6 * skip, ends[count + skip]
            words[row, start : stop - 3] = bits.random_raw(stop - 3 - start)
            low, high = int(rng.integers(n)), int(rng.integers(n)) if (count + skip) % 2 == 0 else 0
            words[row, stop - 3] = (low | high << 32) << shift
            words[row, stop - 2 : stop] = bits.random_raw(2)
        rng.standard_normal(out=noise[row])

    k = np.arange(n)
    omega = 2.0 * np.pi * (true[:, :1] + true[:, 1:2])
    window = _tone(None, omega, true[:, 2:], k, n)
    for slot in range(cfg.max_interferers):
        rows = np.flatnonzero(counts > slot)
        layout = slot + skipped[rows]
        u = (words[rows[:, None], doubles[layout]] >> 11) * 2.0**-53  # Generator.random()
        power_db = low_db + (high_db - low_db) * u[:, 0]
        # Python's float power, as one window alone computes it: numpy's
        # vectorised power rounds about 5% of these amplitudes differently.
        amp = [10.0 ** (p / 20.0) for p in power_db.tolist()]
        boundary, bin_a, bin_b = (words.view("<u4")[rows[:, None], halves[layout]] >> shift).T
        dev, phases = -f + 2.0 * f * u[:, 1], two_pi * u[:, 2:]
        slots[rows, slot] = np.column_stack((power_db, amp, boundary, dev, bin_a, bin_b, phases))
        _, amp, boundary, dev, bin_a, bin_b, phase_a, phase_b = slots[rows, slot].T[..., None]
        before = k < boundary
        omega = np.where(before, 2.0 * np.pi * (bin_a + dev), 2.0 * np.pi * (bin_b + dev))
        phase = np.where(before, phase_a, phase_b)
        window[rows] += _tone(amp, omega, phase, k, n)
    noise *= _noise_scale(1.0, cfg.snr_db)
    window.real += noise[:, 0]
    window.imag += noise[:, 1]

    windows = SymbolWindow(window, np.abs(np.fft.fft(window, axis=-1)))
    return windows, true[:, 0].astype(np.int64), (true, counts, slots)
