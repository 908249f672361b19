"""Long-term drift and vibration analysis of resonance-frequency records.

Drift is reported two ways, since a "less than 1 kHz over 70 hours" style
bound can be read either as a fitted trend or as a total excursion:
  - ordinary least-squares slope (Hz/hr and ppb/hr against the reference f0)
  - peak-to-peak deviation (Hz)
A spectral peak finder flags periodic modulation (pin vibration shows up as a
few-kHz oscillation in the transmitted signal).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PintuneError

# Spectral peak must exceed this multiple of the median bin power to count as
# an oscillation rather than a noise excursion.
PEAK_TO_MEDIAN_THRESHOLD = 50.0


class NoOscillation(PintuneError):
    """No spectral peak stands out above the noise floor."""


@dataclass
class FrequencyTimeSeries:
    """Resonance frequency vs time: timestamps in s (strictly increasing),
    f_r in Hz, and the reference frequency f0 the drift is quoted against."""

    timestamps: np.ndarray
    f_r: np.ndarray
    f0: float

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.f_r = np.asarray(self.f_r, dtype=float)
        if self.timestamps.shape != self.f_r.shape:
            raise DomainError("FrequencyTimeSeries arrays must have equal length")
        if self.timestamps.size and not np.all(np.diff(self.timestamps) > 0):
            raise DomainError("FrequencyTimeSeries.timestamps must be strictly increasing")
        if not 0 < self.f0 < math.inf:
            raise DomainError("FrequencyTimeSeries.f0 must be finite and > 0")


def drift_rate(series):
    """OLS drift of f_r vs time: (slope in Hz/hr, fractional rate in ppb/hr)."""
    t = series.timestamps
    if t.size < 3:
        raise DomainError("drift_rate needs at least 3 samples")
    if t[-1] <= t[0]:
        raise DomainError("drift_rate needs a non-degenerate time span")
    # center both axes first; raw values (seconds x GHz) are badly scaled
    slope_per_s = np.polyfit(t - t.mean(), series.f_r - series.f_r.mean(), 1)[0]
    slope_per_hr = slope_per_s * 3600.0  # numpy scalars, so an overflow follows np.errstate
    return float(slope_per_hr), float(slope_per_hr / series.f0 * 1e9)


def peak_to_peak_deviation(series):
    """max(f_r) - min(f_r) in Hz."""
    if series.f_r.size == 0:
        raise DomainError("series is empty")
    return float(np.ptp(series.f_r))


def _golden_section_max(func, lo, hi, xatol):
    """Maximise a unimodal func on [lo, hi] by golden-section search until the
    bracket is narrower than xatol; returns the bracket midpoint."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = func(c), func(d)
    while hi - lo > xatol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = func(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = func(d)
    return 0.5 * (lo + hi)


def detect_oscillation(series, lineshape_slope=None):
    """Find the dominant periodic modulation in a uniformly sampled record,
    after removing its least-squares line.

    Returns (modulation frequency in Hz, amplitude).  The amplitude is in the
    units of the samples; when the samples are power-ratio values taken at a
    fixed probe frequency, pass the local lineshape slope d(ratio)/df to
    convert the result to equivalent frequency jitter in Hz.

    Raises NoOscillation when no spectral peak clears the noise floor.
    """
    t = series.timestamps
    y = series.f_r
    if t.size < 64:
        raise DomainError("detect_oscillation needs at least 64 samples")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-6, atol=0.0):
        raise DomainError("detect_oscillation requires uniform sampling")
    dt = float(dt[0])

    # Remove the least-squares line, not only the mean: a linear drift would
    # otherwise leak into the low bins and outrank a real oscillation.
    tc = t - t.mean()
    y0 = y - np.mean(y)
    y0 = y0 - (tc @ y0) / (tc @ tc) * tc
    power = np.abs(np.fft.rfft(y0)) ** 2
    power[0] = 0.0
    k = int(np.argmax(power))
    floor = float(np.median(power[1:]))
    if floor <= 0.0 or power[k] < PEAK_TO_MEDIAN_THRESHOLD * floor:
        raise NoOscillation("no spectral peak above the noise floor")

    # Refine the peak frequency off the FFT grid, then solve amplitude/phase
    # by linear least squares at the refined frequency.
    n = y0.size
    df_bin = 1.0 / (n * dt)

    def dft_mag(nu):
        return abs(np.sum(y0 * np.exp(-2j * math.pi * nu * t)))

    nu = _golden_section_max(dft_mag, max(k - 1, 1) * df_bin,
                             min(k + 1, n // 2) * df_bin, df_bin * 1e-6)
    if nu > (n // 2 - 1) * df_bin:
        # Towards Nyquist the sine column of the design below goes to zero.
        raise NoOscillation("spectral peak within one bin of the Nyquist frequency")

    design = np.column_stack([np.sin(2 * math.pi * nu * t),
                              np.cos(2 * math.pi * nu * t)])
    coef, *_ = np.linalg.lstsq(design, y0, rcond=None)
    amplitude = float(np.hypot(coef[0], coef[1]))
    if lineshape_slope is not None:
        if lineshape_slope == 0:
            raise DomainError("lineshape_slope must be nonzero")
        amplitude /= abs(lineshape_slope)
    return nu, amplitude


def allan_deviation(series, taus=None):
    """Non-overlapping Allan deviation of the fractional frequency f_r/f0.

    Extra metric beyond the drift/peak-to-peak headline numbers; expects
    uniform sampling.  Returns (taus_s, adev) arrays.
    """
    t = series.timestamps
    if t.size < 9:
        raise DomainError("allan_deviation needs at least 9 samples")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-6, atol=0.0):
        raise DomainError("allan_deviation requires uniform sampling")
    dt = float(dt[0])

    y = series.f_r / series.f0
    n = y.size
    if taus is None:
        ms = np.unique(np.floor(np.logspace(0, math.log10(n // 3), 20)).astype(int))
    else:
        ms = np.unique(np.asarray([max(int(round(tau / dt)), 1) for tau in taus]))
    ms = ms[ms <= n // 3]

    out_t, out_a = [], []
    for m in ms:
        k = n // m
        block = y[: k * m].reshape(k, m).mean(axis=1)
        if block.size < 2:
            continue
        d = np.diff(block)
        out_t.append(m * dt)
        out_a.append(math.sqrt(0.5 * float(np.mean(d * d))))
    return np.asarray(out_t), np.asarray(out_a)
