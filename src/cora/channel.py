"""Channel impairments and collision scenarios.

Covers complex AWGN, carrier frequency offset, multipath Rayleigh fading
with a Jakes Doppler spectrum, frame-on-frame collisions, and the
dechirped-domain symbol generator used to train the collision classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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


def _complex_noise(n: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian samples with the given total variance."""
    scale = math.sqrt(variance / 2.0) if variance > 0 else 0.0
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


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
    noisy = signal.samples + _complex_noise(len(signal), variance, rng)
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
    out = target.copy()
    for itf in scenario.interferers:
        amp = 10.0 ** (itf.gain_db / 20.0)
        start = int(itf.offset_samples)
        stop = min(start + len(itf.frame), out.size)
        out[start:stop] += amp * itf.frame.samples[: stop - start]
    power = float(np.mean(np.abs(target) ** 2))
    if power == 0.0:
        raise ValueError("target frame has zero power")
    variance = power / 10.0 ** (scenario.snr_db / 10.0)
    out += _complex_noise(out.size, variance, rng)
    return ComplexSignal(out, scenario.target.sample_rate_hz)


def _tone_sum(
    amps: np.ndarray, omegas: np.ndarray, phases: np.ndarray, n: int, fs: float
) -> np.ndarray:
    """sum_i amps[i] * exp(1j * (omegas[i] * k / fs + phases[i])) for k < n.

    Splitting k = b * B + j with B = isqrt(n) factors each tone into a
    row term at time b * B / fs and a column term at time j / fs, so the
    whole sum is one (ceil(n / B), M) @ (M, B) matrix product over the M
    tones instead of M * n complex exponentials.
    """
    width = math.isqrt(n)
    rows = -(-n // width)
    coarse = np.arange(rows) * (width / fs)
    fine = np.arange(width) / fs
    left = amps * np.exp(1j * (np.outer(coarse, omegas) + phases))
    right = np.exp(1j * np.outer(omegas, fine))
    return (left @ right).ravel()[:n]


def apply_fading(
    signal: ComplexSignal, profile: FadingProfile, rng: np.random.Generator
) -> ComplexSignal:
    """Pass the signal through a time-varying tapped delay line.

    Each tap gets an independent Jakes sum-of-sinusoids Rayleigh process:
    the sum of JAKES_OSCILLATORS complex tones at Dopplers
    max_doppler_hz * cos(alpha) with random angles and phases, drawn tap
    by tap in profile order (angles, then phases). Tap powers are
    normalised so the expected channel gain is one, and tap delays are
    rounded to whole samples: at 125 kHz the ETU-like profile's first
    eight taps land on delay 0 and its 5 us tap on delay 1.

    Taps that share a rounded delay act as one group whose gain is the sum
    of all their tones, computed by `_tone_sum` as one small matrix
    product. The draws, and so the realised channel, are those of a
    tap-by-tap, tone-by-tone evaluation, up to floating-point rounding.
    Groups delayed by the whole signal length or more contribute nothing.
    """
    fs = signal.sample_rate_hz
    x = signal.samples
    n = x.size

    # relative to the strongest tap, so no finite dB value overflows
    powers_db = np.asarray(profile.tap_powers_db)
    powers_lin = 10.0 ** ((powers_db - powers_db.max()) / 10.0)
    powers_lin = powers_lin / powers_lin.sum()

    groups: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
    for delay_s, p_tap in zip(profile.tap_delays_s, powers_lin):
        angles = rng.uniform(0.0, 2.0 * np.pi, JAKES_OSCILLATORS)
        phases = rng.uniform(0.0, 2.0 * np.pi, JAKES_OSCILLATORS)
        omegas = 2.0 * np.pi * (profile.max_doppler_hz * np.cos(angles))
        amps = np.full(JAKES_OSCILLATORS, math.sqrt(p_tap / JAKES_OSCILLATORS))
        groups.setdefault(int(round(delay_s * fs)), []).append((amps, omegas, phases))

    out = np.zeros(n, dtype=np.complex128)
    for delay, taps in groups.items():
        if delay >= n:
            continue
        amps, omegas, phases = (np.concatenate(col) for col in zip(*taps))
        gain = _tone_sum(amps, omegas, phases, n, fs)
        if delay == 0:
            out += gain * x
        else:
            out[delay:] += gain[delay:] * x[: n - delay]
    return ComplexSignal(out, fs)


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
    k = np.arange(start, stop)
    out[start:stop] = amplitude * np.exp(1j * (2.0 * np.pi * freq_bins * k / n + phase))
    return out


def gen_training_symbol(
    cfg: TrainConfig, rng: np.random.Generator
) -> tuple[SymbolWindow, int, dict]:
    """Draw one synthetic dechirped window with collisions and noise.

    The window holds a unit wanted tone at a uniform random bin with a
    fractional frequency deviation, plus zero to `max_interferers`
    colliding symbols. Each interferer carries a uniform power offset in
    `power_range_db`, shares one random symbol boundary and one fractional
    deviation, and switches between two independent bins (with independent
    phases) at that boundary, mimicking a frame that changes symbol value
    mid-window. Complex AWGN at `cfg.snr_db` relative to the unit tone is
    added last.

    Returns the window, the true bin, and a metadata dict describing the
    draws (handy when debugging the feature extractors).
    """
    n = cfg.n_bins
    true_bin = int(rng.integers(n))
    true_dev = float(rng.uniform(-cfg.frac_freq_range, cfg.frac_freq_range))
    true_phase = float(rng.uniform(0.0, 2.0 * np.pi))
    window = clipped_tone(true_bin + true_dev, 1.0, true_phase, 0, n, n)

    n_interferers = int(rng.integers(cfg.max_interferers + 1))
    meta_interferers = []
    for _ in range(n_interferers):
        power_db = float(rng.uniform(*cfg.power_range_db))
        amp = 10.0 ** (power_db / 20.0)
        boundary = int(rng.integers(n))
        dev = float(rng.uniform(-cfg.frac_freq_range, cfg.frac_freq_range))
        bin_a = int(rng.integers(n))
        bin_b = int(rng.integers(n))
        phase_a = float(rng.uniform(0.0, 2.0 * np.pi))
        phase_b = float(rng.uniform(0.0, 2.0 * np.pi))
        window += clipped_tone(bin_a + dev, amp, phase_a, 0, boundary, n)
        window += clipped_tone(bin_b + dev, amp, phase_b, boundary, n, n)
        meta_interferers.append(
            {
                "power_db": power_db,
                "boundary": boundary,
                "deviation": dev,
                "bins": (bin_a, bin_b),
            }
        )

    variance = 1.0 / 10.0 ** (cfg.snr_db / 10.0)
    window += _complex_noise(n, variance, rng)

    bins = np.fft.fft(window)
    sym = SymbolWindow(window, DechirpedSpectrum(bins, np.abs(bins)))
    meta = {
        "true_bin": true_bin,
        "true_deviation": true_dev,
        "interferers": meta_interferers,
    }
    return sym, true_bin, meta
