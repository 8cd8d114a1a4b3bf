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
import ctypes
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
        # gen_training_symbol draws the count as numpy's integers(max_interferers + 1)
        # does up to 2**32 choices: Lemire's loop on 32-bit draws
        if not 0 <= self.max_interferers < 2**32:
            raise ValueError(f"max_interferers must be in [0, 2**32), got {self.max_interferers}")
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


def parse_tokens(tokens: list[str], kinds: Mapping[str, str]) -> dict:
    """Typed values of `key=value` tokens whose keys are among `kinds` (name -> annotation).

    ValueError for a token without '=', an unknown or repeated key, a
    value `parse_value` rejects, or a key no token sets.
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
    if len(out) < len(kinds):
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
def _fading_plan(profile: FadingProfile, fs: float, n: int) -> tuple[np.ndarray, tuple, int]:
    """`apply_fading`'s view of `profile` at `fs` Hz over n samples, read-only.

    Returns the tone amplitudes, one per angle drawn, normalised so the
    expected channel gain is one; per rounded tap delay below n, in order
    of first tap, (delay, the flat indices of its taps' tones); and the
    Taylor block width B: the largest power of two with
    2 pi max_doppler_hz * B / fs <= 1/2, capped at n and at MAX_TAYLOR_BLOCK.
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
    # every realised |omega| is at most 2 pi max_doppler_hz
    top = 2.0 * np.pi * profile.max_doppler_hz / fs
    width = 1
    while width < min(n, MAX_TAYLOR_BLOCK) and top * 2 * width <= 0.5:
        width *= 2
    return amps, groups, min(width, n)


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
    the groups and the Taylor block width B come from a cached plan
    (`_fading_plan`); groups delayed by n samples or more contribute nothing.

    A group's gain, sum_i amps[i] * exp(1j * (omegas[i] * k / fs + phases[i]))
    for k < n, is evaluated with k = b * B + j, j < B: each tone is a coarse
    exponential at time b * B / fs times exp(1j * x_i * j / B), with
    x_i = omegas[i] * B / fs, and that fine factor is replaced by its Taylor
    series over TAYLOR_TERMS terms. The gain is then the (ceil(n / B), M)
    coarse exponentials times the (M, TAYLOR_TERMS) Taylor weights of the M
    tones, followed by two real products with the cached power table. B is
    the largest power of two with 2 pi max_doppler_hz * B / fs <= 1/2,
    capped at n and at MAX_TAYLOR_BLOCK; every realised |omegas[i]| is at
    most 2 pi max_doppler_hz, so |x_i| <= 1/2 and the truncation error is
    below 0.5**16 / 16!. Once 2 pi max_doppler_hz > fs / 4, B = 1, the
    table is [1, 0, ...], and every value is an exact exponential.

    All tones of all k streams share one exponential over the coarse times
    and one running product for their Taylor powers, and each group one
    stacked product for its Taylor weights. Stream by stream, each gain is
    two real products with the table into one reused buffer, times the
    stream at the group's delay: the first group writes 0 + that product,
    the others add theirs. That is the arithmetic of summing each group
    alone: a channel is bit for bit that of a group-by-group evaluation
    wherever every group leaves two samples or more (delay < n - 1), may
    differ from it by an ulp where a group leaves one, as numpy rounds an
    in-place product of one complex sample its own way, and is that of a
    tap-by-tap, tone-by-tone evaluation up to rounding. `samples` that are
    not 1-D, an `fs` that is not finite and positive, no generators, or a
    length that k does not divide raises ValueError before any draw.
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
    amps, groups, width = _fading_plan(profile, fs, n)

    shape = (len(profile.tap_delays_s), 2, JAKES_OSCILLATORS)
    draws = np.stack([r.uniform(0.0, 2.0 * np.pi, shape) for r in rngs])
    omegas = (2.0 * np.pi * (profile.max_doppler_hz * np.cos(draws[:, :, 0]))).reshape(k, -1)
    phases = draws[:, :, 1].reshape(k, -1)
    rows = -(-n // width)
    coarse = np.arange(rows) * (width / fs)
    table = _power_table(width)
    left = amps * np.exp(1j * (coarse[:, None] * omegas[:, None] + phases[:, None]))
    powers = np.empty((TAYLOR_TERMS, k, amps.size))
    powers[0], powers[1:] = 1.0, omegas * (width / fs)
    powers = np.multiply.accumulate(powers, out=powers).transpose(1, 2, 0)
    weights = [np.matmul(left[..., tones], powers[:, tones]) * _TAYLOR_COEFFS for _, tones in groups]
    del left, powers  # freed before the output is made, which bounds the call's peak
    out = (np.empty if groups and groups[0][0] == 0 else np.zeros)((k, n), dtype=np.complex128)
    gain = np.empty((rows, width), dtype=np.complex128)  # each stream's gain in turn
    for g, (delay, _) in enumerate(groups):
        tail = gain.reshape(-1)[delay:n]
        for stream, weight in enumerate(weights[g]):
            np.matmul(weight.real, table, out=gain.real)
            np.matmul(weight.imag, table, out=gain.imag)
            product = np.multiply(tail, x[stream, : n - delay], out=tail)
            np.add(out[stream, delay:] if g else 0.0, product, out=out[stream, delay:])
    return out.reshape(-1)


def _tone(amplitude, omega, phase, n: int) -> np.ndarray:
    """amplitude * exp(1j * (omega * k / n + phase)) for k < n: `omega` in radians per window.

    `omega` and `phase` broadcast as (..., 1); the tones come back as (..., n).
    With k = B * a + b, b < B = 2 ** floor(log2(n) / 2), a tone is the outer
    product of coarse factors exp(1j * (omega * B * a / n + phase)) and fine
    factors exp(1j * omega * b / n): about 2 * sqrt(n) exponentials, not n,
    and an error still set by rounding the argument. `amplitude` scales the
    coarse factors: 1.0 changes no byte.
    """
    width = 1 << (n.bit_length() - 1) // 2
    coarse = np.exp(1j * (omega * np.arange(0, n, width) / n + phase))
    coarse *= amplitude
    fine = np.exp(1j * (omega * np.arange(width) / n))
    tone = np.multiply(coarse[..., None], fine[..., None, :])
    return tone.reshape(*tone.shape[:-2], tone.shape[-2] * width)[..., :n]


def clipped_tone(
    freq_bins: float,
    amplitude: float,
    phase: float,
    start: int,
    stop: int,
    n: int,
) -> np.ndarray:
    """Complex tone exp(j*(2*pi*freq_bins*k/n + phase)) on [start, stop).

    Samples outside the interval are zero; inside it they are those of the
    full-window tone (`_tone`). This is the dechirped-domain
    shape of a chirp symbol: a full-window tone when aligned, a clipped
    one when the symbol boundary falls inside the window.
    """
    if not 0 <= start <= stop <= n:
        raise ValueError(f"need 0 <= start <= stop <= n, got start={start} stop={stop} n={n}")
    out = np.zeros(n, dtype=np.complex128)
    out[start:stop] = _tone(amplitude, 2.0 * np.pi * freq_bins, phase, n)[start:stop]
    return out


class _BitGen(ctypes.Structure):
    """The head of numpy's `bitgen_t` (numpy/random/bitgen.h): state and draw functions."""

    _fields_ = [(f, ctypes.c_void_p) for f in "state next_uint64 next_uint32 next_double".split()]


_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


@cache
def _c_draw(address: int, restype):
    """The C draw function at `address`, called on a state pointer without releasing the GIL."""
    return ctypes.PYFUNCTYPE(restype, ctypes.c_void_p)(address)


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
    before and after; then the I and Q noise. All but the noise are drawn
    through the stream's own C functions (`bitgen_t`'s next_uint32 and
    next_double, read from `bit_generator.capsule`), which are what
    Generator.random() and Generator.integers(n) call: a uniform is
    low + (high - low) * next_double, integers(n) for a power-of-two n is
    next_uint32 >> (32 - log2 n), and the count is numpy's Lemire loop for
    integers(max_interferers + 1), with no draw when max_interferers is 0.
    So every draw, and each stream's whole `bit_generator.state`, is that
    of the scalar calls, for any bit generator. These draws bypass the bit
    generator's lock: a stream must not be drawn from by another thread
    meanwhile. The K windows are then built together from `_tone`s: the
    wanted tones, per interferer slot its tones before and after each row's
    boundary over the windows that have that interferer, each sample kept
    from one of them, the noise, and one (K, N) FFT.

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
    two_pi = 2.0 * np.pi
    shift = 33 - n.bit_length()  # 32 - log2 n
    choices = cfg.max_interferers + 1
    reject_below = (2**32 - choices) % choices  # Lemire's threshold, as numpy computes it
    header, counts, drawn = [], [], []
    noise = np.empty((len(streams), 2, n))
    for row, rng in enumerate(streams):
        bitgen = _BitGen.from_address(_capsule_pointer(rng.bit_generator.capsule, b"BitGenerator"))
        state = bitgen.state
        uint32 = _c_draw(bitgen.next_uint32, ctypes.c_uint32)
        double = _c_draw(bitgen.next_double, ctypes.c_double)
        header += uint32(state) >> shift, double(state), double(state)
        m = uint32(state) * choices if choices > 1 else 0
        while m & 0xFFFFFFFF < reject_below:
            m = uint32(state) * choices
        counts.append(m >> 32)
        for _ in range(m >> 32):  # power, boundary, deviation, bin a, bin b, phase a, phase b
            drawn += double(state), uint32(state) >> shift, double(state), uint32(state) >> shift
            drawn += uint32(state) >> shift, double(state), double(state)
        rng.standard_normal(out=noise[row])

    true = np.array(header).reshape(-1, 3)
    true[:, 1] = -f + 2.0 * f * true[:, 1]
    true[:, 2] *= two_pi
    drawn = np.array(drawn, dtype=np.float64).reshape(-1, 7)
    drawn[:, 0] = low_db + (high_db - low_db) * drawn[:, 0]
    drawn[:, 2] = -f + 2.0 * f * drawn[:, 2]
    drawn[:, 5:] *= two_pi
    # Python's float power, as one window alone computes it: numpy's
    # vectorised power rounds about 5% of these amplitudes differently.
    amp = [10.0 ** (p / 20.0) for p in drawn[:, 0].tolist()]
    counts = np.array(counts, dtype=np.int64)
    rows = np.repeat(np.arange(len(streams)), counts)
    slots = np.empty((len(streams), cfg.max_interferers, 8))
    nth = np.arange(rows.size) - (counts.cumsum() - counts)[rows]  # each draw row's slot
    slots[rows, nth] = np.insert(drawn, 1, amp, axis=1)
    k = np.arange(n)
    window = _tone(1.0, 2.0 * np.pi * (true[:, :1] + true[:, 1:2]), true[:, 2:], n)
    for slot in range(cfg.max_interferers):
        rows = np.flatnonzero(counts > slot)
        _, amp, boundary, dev, bin_a, bin_b, phase_a, phase_b = slots[rows, slot].T[..., None]
        tone = _tone(amp, 2.0 * np.pi * (bin_b + dev), phase_b, n)
        np.copyto(tone, _tone(amp, 2.0 * np.pi * (bin_a + dev), phase_a, n), where=k < boundary)
        window[rows] += tone
    noise *= _noise_scale(1.0, cfg.snr_db)
    window.real += noise[:, 0]
    window.imag += noise[:, 1]

    windows = SymbolWindow(window, np.abs(np.fft.fft(window, axis=-1)))
    return windows, true[:, 0].astype(np.int64), (true, counts, slots)
