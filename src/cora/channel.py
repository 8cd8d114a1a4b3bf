"""Channel impairments and collision scenarios.

Covers complex AWGN, carrier frequency offset, multipath Rayleigh fading
with a Jakes Doppler spectrum, frame-on-frame collisions, and the
dechirped-domain symbol generator used to train the collision classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from cora.phy import ComplexSignal, PhyParams, SymbolWindow, DechirpedSpectrum

# Sum-of-sinusoids order for the Jakes Doppler model. 16 oscillators keep
# the tap statistics close to Rayleigh without noticeable cost.
JAKES_OSCILLATORS = 16


@dataclass
class Interferer:
    """One colliding frame: its waveform, power offset, and start sample.

    `offset_samples` places the interferer's first sample relative to the
    target frame's first sample; anything falling outside the target
    extent is discarded.
    """

    frame: ComplexSignal
    gain_db: float
    offset_samples: int

    def __post_init__(self):
        if not isinstance(self.frame, ComplexSignal):
            raise ValueError("frame must be a ComplexSignal")
        if not isinstance(self.offset_samples, (int, np.integer)):
            raise ValueError(f"offset_samples must be an integer, got {self.offset_samples!r}")
        if self.offset_samples < 0:
            raise ValueError(f"offset_samples must be >= 0, got {self.offset_samples}")
        if math.isnan(self.gain_db):
            raise ValueError("gain_db must not be NaN")


@dataclass
class CollisionScenario:
    """A target frame plus colliding frames and a noise level.

    `snr_db` is measured against the target frame's mean power, so the
    noise floor does not move when interferers are added.
    """

    target: ComplexSignal
    interferers: list[Interferer] = field(default_factory=list)
    snr_db: float = math.inf

    def __post_init__(self):
        if not isinstance(self.target, ComplexSignal):
            raise ValueError("target must be a ComplexSignal")
        for itf in self.interferers:
            if not isinstance(itf, Interferer):
                raise ValueError("interferers must be Interferer instances")
            if itf.offset_samples >= len(self.target):
                raise ValueError(
                    f"interferer offset {itf.offset_samples} lies beyond the "
                    f"target frame ({len(self.target)} samples)"
                )
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")


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
        object.__setattr__(self, "power_range_db", tuple(float(x) for x in self.power_range_db))
        if self.n_bins < 2 or (self.n_bins & (self.n_bins - 1)) != 0:
            raise ValueError(f"n_bins must be a power of two >= 2, got {self.n_bins}")
        if self.n_symbols < 1:
            raise ValueError(f"n_symbols must be >= 1, got {self.n_symbols}")
        if self.max_interferers < 0:
            raise ValueError(f"max_interferers must be >= 0, got {self.max_interferers}")
        if len(self.power_range_db) != 2 or self.power_range_db[0] > self.power_range_db[1]:
            raise ValueError(f"power_range_db must be (low, high), got {self.power_range_db}")
        if not 0 <= self.frac_freq_range <= 0.5:
            raise ValueError(f"frac_freq_range must be in [0, 0.5], got {self.frac_freq_range}")
        if not 1 <= self.interference_samples_per_symbol <= self.n_bins - 1:
            raise ValueError(
                "interference_samples_per_symbol must be in [1, n_bins - 1], "
                f"got {self.interference_samples_per_symbol}"
            )
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")
        if self.grid_resolution < 2:
            raise ValueError(f"grid_resolution must be >= 2, got {self.grid_resolution}")
        if self.smooth_sigma < 0:
            raise ValueError(f"smooth_sigma must be >= 0, got {self.smooth_sigma}")
        if not self.smooth_floor > 0:
            raise ValueError(f"smooth_floor must be > 0, got {self.smooth_floor}")


# Value type of every TrainConfig field (int, float, or a (low, high)
# tuple), read off its default: the one key table behind both the CLI's
# train config and the grid file's config line.
TRAIN_FIELD_TYPES = {f.name: type(f.default) for f in fields(TrainConfig)}


def _scaled_noise(re: np.ndarray, im: np.ndarray, variance: float) -> np.ndarray:
    """Complex noise of the given total variance from standard normal I and Q parts."""
    scale = math.sqrt(variance / 2.0) if variance > 0 else 0.0
    return scale * (re + 1j * im)


def add_awgn(signal: ComplexSignal, snr_db: float, rng: np.random.Generator) -> ComplexSignal:
    """Add complex white Gaussian noise at the given SNR.

    The noise variance is set from the mean power of `signal` itself:
    sigma^2 = P / 10^(snr_db / 10), split evenly between I and Q.
    """
    if math.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    power = float(np.mean(np.abs(signal.samples) ** 2))
    if power == 0.0:
        raise ValueError("cannot set an SNR against an all-zero signal")
    variance = power / 10.0 ** (snr_db / 10.0)
    n = len(signal)
    noisy = signal.samples + _scaled_noise(rng.standard_normal(n), rng.standard_normal(n), variance)
    return ComplexSignal(noisy, signal.sample_rate_hz)


def apply_freq_offset(signal: ComplexSignal, delta_f: float, params: PhyParams) -> ComplexSignal:
    """Rotate the signal by a carrier offset of `delta_f` FFT bins.

    One bin equals bandwidth / N Hz; an offset of exactly 1.0 moves a
    dechirped peak up one bin, fractional values split energy between
    neighbours.
    """
    k = np.arange(len(signal))
    rotated = signal.samples * np.exp(2j * np.pi * delta_f * k / params.n)
    return ComplexSignal(rotated, signal.sample_rate_hz)


def collide(
    out: np.ndarray,
    interferers: list[list[tuple[np.ndarray, float, int]]],
    snr_db: float,
    noise: np.ndarray,
) -> np.ndarray:
    """`compose_collision` for F frames at once, in place on their targets.

    `out` holds the F target frames as an (F, L) array. `interferers[f]`
    lists frame f's (samples, gain_db, offset) triples, offsets inside the
    frame, and `noise` holds standard normal I and Q parts as (2, F, L).
    Each row's noise is calibrated to its own target's power. Row for row
    the arithmetic is that of one `compose_collision` call, so the bytes
    are too, signed zeros of noiseless frames included. Returns `out`.
    """
    power = np.mean(np.abs(out) ** 2, axis=-1)
    if not power.all():
        raise ValueError("target frame has zero power")
    variance = power / 10.0 ** (snr_db / 10.0)
    for row, placed, row_variance, re, im in zip(out, interferers, variance.tolist(), *noise):
        for samples, gain_db, start in placed:
            amp = 10.0 ** (gain_db / 20.0)
            stop = min(start + len(samples), row.size)
            row[start:stop] += amp * samples[: stop - start]
        row += _scaled_noise(re, im, row_variance)
    return out


def compose_collision(
    scenario: CollisionScenario, rng: np.random.Generator
) -> ComplexSignal:
    """Sum the target frame, offset interferers, and noise into one stream.

    The output has the target's length. Interferer samples beyond the
    target's last sample are dropped, and the AWGN level is calibrated to
    the target's own power, so an infinite-SNR scenario with no
    interferers returns the target unchanged.
    """
    target = scenario.target.samples
    interferers = [
        (itf.frame.samples, itf.gain_db, int(itf.offset_samples)) for itf in scenario.interferers
    ]
    noise = np.stack([rng.standard_normal(target.size), rng.standard_normal(target.size)])
    out = collide(target[None].copy(), [interferers], scenario.snr_db, noise[:, None])
    return ComplexSignal(out[0], scenario.target.sample_rate_hz)


# Terms of the Taylor series that stands in for each tone's fine factor in
# `_tone_sum`. With its argument at most 1/2 the first omitted term is below
# 0.5**16 / 16! ~ 7e-18, far under float64 rounding of a unit tone.
TAYLOR_TERMS = 16
# 1j**m / m!: the series' coefficient of x**m
_TAYLOR_COEFFS = np.array(
    [(1, 1j, -1, -1j)[m % 4] / math.factorial(m) for m in range(TAYLOR_TERMS)]
)


@lru_cache(maxsize=16)
def _power_table(width: int) -> np.ndarray:
    """(TAYLOR_TERMS, width) table of (j / width) ** m, read-only."""
    table = (np.arange(width) / width) ** np.arange(TAYLOR_TERMS)[:, None]
    table.setflags(write=False)
    return table


def _tone_sum(
    amps: np.ndarray, omegas: np.ndarray, phases: np.ndarray, n: int, fs: float
) -> np.ndarray:
    """sum_i amps[i] * exp(1j * (omegas[i] * k / fs + phases[i])) for k < n.

    Writing k = b * B + j with j < B factors each tone into a coarse term
    exp(1j * (omegas[i] * b * B / fs + phases[i])) and a fine term
    exp(1j * x_i * j / B) with x_i = omegas[i] * B / fs. The fine term is
    replaced by its Taylor series sum_m (1j * x_i) ** m / m! * (j / B) ** m
    over TAYLOR_TERMS terms, so the sum over the M tones is one
    (ceil(n / B), M) @ (M, TAYLOR_TERMS) complex product followed by two
    real products with the cached power table: only the ceil(n / B) * M
    coarse terms are exponentials.

    B is the largest power of two with max|omegas| * B / fs <= 1/2, capped
    at n, which bounds the truncation error by 0.5**16 / 16!. Without
    Doppler B = n and there is one coarse row; once max|omegas| > fs / 4,
    B = 1, the table is [1, 0, ...], and every value is an exact
    exponential.
    """
    top = float(np.max(np.abs(omegas))) / fs
    width = 1
    while width < n and top * 2 * width <= 0.5:
        width *= 2
    width = min(width, n)
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


def apply_fading(
    signal: ComplexSignal, profile: FadingProfile, rng: np.random.Generator
) -> ComplexSignal:
    """Pass the signal through a time-varying tapped delay line.

    Each tap gets an independent Jakes sum-of-sinusoids Rayleigh process:
    the sum of JAKES_OSCILLATORS complex tones at Dopplers
    max_doppler_hz * cos(alpha) with random angles and phases. All draws
    come from one `rng.uniform` call of shape (taps, 2, JAKES_OSCILLATORS),
    which yields the doubles, and leaves the generator in the state, of
    drawing tap by tap in profile order (angles, then phases). Tap powers
    are normalised so the expected channel gain is one, and tap delays are
    rounded to whole samples: at 125 kHz the ETU-like profile's first
    eight taps land on delay 0 and its 5 us tap on delay 1.

    Taps that share a rounded delay act as one group whose gain is the sum
    of all their tones, computed by `_tone_sum` from a few exponentials per
    tone and a cached Taylor power table. The realised channel is that of
    a tap-by-tap, tone-by-tone evaluation, up to floating-point rounding.
    Groups delayed by the whole signal length or more contribute nothing.
    """
    fs = signal.sample_rate_hz
    x = signal.samples
    n = x.size

    # relative to the strongest tap, so no finite dB value overflows
    powers_db = np.asarray(profile.tap_powers_db)
    powers_lin = 10.0 ** ((powers_db - powers_db.max()) / 10.0)
    powers_lin = powers_lin / powers_lin.sum()

    draws = rng.uniform(0.0, 2.0 * np.pi, (len(powers_lin), 2, JAKES_OSCILLATORS))
    omegas = 2.0 * np.pi * (profile.max_doppler_hz * np.cos(draws[:, 0]))
    amps = np.sqrt(powers_lin / JAKES_OSCILLATORS)[:, None].repeat(JAKES_OSCILLATORS, axis=1)
    groups: dict[int, list[int]] = {}
    for tap, delay_s in enumerate(profile.tap_delays_s):
        groups.setdefault(int(round(delay_s * fs)), []).append(tap)

    out = np.zeros(n, dtype=np.complex128)
    for delay, taps in groups.items():
        if delay >= n:
            continue
        gain = _tone_sum(amps[taps].ravel(), omegas[taps].ravel(), draws[taps, 1].ravel(), n, fs)
        if delay == 0:
            out += gain * x
        else:
            out[delay:] += gain[delay:] * x[: n - delay]
    return ComplexSignal(out, fs)


def _tone(amplitude, omega, phase, k, n: int) -> np.ndarray:
    """amplitude * exp(1j * (omega * k / n + phase)): `omega` in radians per window.

    Every argument broadcasts, so one call builds a (K, N) batch of tones.
    """
    return amplitude * np.exp(1j * (omega * k / n + phase))


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


def gen_training_windows(
    cfg: TrainConfig, streams: list[np.random.Generator]
) -> tuple[SymbolWindow, np.ndarray, list[tuple]]:
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
    before and after; then the I and Q noise. The K windows are then built
    together: one exponential for the wanted tones, one per interferer
    slot over the windows that have that interferer (bin and phase
    switching at each row's boundary), the noise, and one (K, N) FFT.

    Returns the windows as one (K, N) SymbolWindow, the true bins (K,),
    and per window its draws as (true_bin, true_deviation, true_phase,
    interferers), each interferer a tuple (power_db, boundary, deviation,
    bin_a, bin_b, phase_a, phase_b).
    """
    if len(streams) == 0:
        raise ValueError("need at least one stream")
    n = cfg.n_bins
    f = cfg.frac_freq_range
    draws = []
    noise = np.empty((2, len(streams), n))
    for row, rng in enumerate(streams):
        true_bin = int(rng.integers(n))
        true_dev = float(rng.uniform(-f, f))
        true_phase = float(rng.uniform(0.0, 2.0 * np.pi))
        interferers = [
            (
                float(rng.uniform(*cfg.power_range_db)),
                int(rng.integers(n)),
                float(rng.uniform(-f, f)),
                int(rng.integers(n)),
                int(rng.integers(n)),
                float(rng.uniform(0.0, 2.0 * np.pi)),
                float(rng.uniform(0.0, 2.0 * np.pi)),
            )
            for _ in range(int(rng.integers(cfg.max_interferers + 1)))
        ]
        rng.standard_normal(n, out=noise[0, row])
        rng.standard_normal(n, out=noise[1, row])
        draws.append((true_bin, true_dev, true_phase, interferers))

    k = np.arange(n)
    true_bins, devs, phases, _ = zip(*draws)
    true_bins = np.array(true_bins)
    omega = 2.0 * np.pi * (true_bins + np.array(devs))
    window = _tone(1.0, omega[:, None], np.array(phases)[:, None], k, n)
    for slot in range(cfg.max_interferers):
        rows = [row for row, d in enumerate(draws) if len(d[3]) > slot]
        if not rows:
            break
        power_db, boundary, dev, bin_a, bin_b, phase_a, phase_b = zip(
            *(draws[row][3][slot] for row in rows)
        )
        # Python's float power, as one window alone computes it: numpy's
        # vectorised power rounds about 5% of these amplitudes differently.
        amp = np.array([10.0 ** (p / 20.0) for p in power_db])
        dev = np.array(dev)
        before = k < np.array(boundary)[:, None]
        omega = np.where(
            before,
            (2.0 * np.pi * (np.array(bin_a) + dev))[:, None],
            (2.0 * np.pi * (np.array(bin_b) + dev))[:, None],
        )
        phase = np.where(before, np.array(phase_a)[:, None], np.array(phase_b)[:, None])
        window[rows] += _tone(amp[:, None], omega, phase, k, n)
    window += _scaled_noise(noise[0], noise[1], 1.0 / 10.0 ** (cfg.snr_db / 10.0))

    bins = np.fft.fft(window, axis=-1)
    return SymbolWindow(window, DechirpedSpectrum(bins, np.abs(bins))), true_bins, draws


def gen_training_symbol(
    cfg: TrainConfig, rng: np.random.Generator
) -> tuple[SymbolWindow, int, dict]:
    """Draw one synthetic dechirped window with collisions and noise.

    The one-window view of `gen_training_windows`, drawing from `rng`
    itself. Returns the window, the true bin, and a metadata dict
    describing the draws (handy when debugging the feature extractors).
    """
    windows, _, [(true_bin, true_dev, _, interferers)] = gen_training_windows(cfg, [rng])
    spectrum = DechirpedSpectrum(windows.spectrum.bins[0], windows.spectrum.magnitudes[0])
    sym = SymbolWindow(windows.time_samples[0], spectrum)
    meta = {
        "true_bin": true_bin,
        "true_deviation": true_dev,
        "interferers": [
            {"power_db": power_db, "boundary": boundary, "deviation": dev, "bins": (bin_a, bin_b)}
            for power_db, boundary, dev, bin_a, bin_b, _, _ in interferers
        ],
    }
    return sym, true_bin, meta
