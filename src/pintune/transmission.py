"""Forward model of the measured transmission.

Near resonance the ratio of transmitted to input power for the notch-coupled
resonator is, with u = (f - f_r) 2 Q_L/f_r, a = Q_L/Q_e, W = 1/D = 1/(1 + u**2)
and 1/Q_L = 1/Q_i + 1/Q_e (Probst et al., Rev. Sci. Instrum. 86, 024706
(2015)),

    S = |1 - a e^{i phi}/(1 + i u)|**2 = 1 + (a**2 - 2a cos phi - 2a u sin phi) W

and m = S - 1.  This module evaluates that lineshape in real arithmetic, with
one array division per evaluation at a float f_r (W's; u takes 2 Q_L/f_r as
one number), composes quality factors, synthesizes noisy sweeps (including
broadening from mechanical vibration of the tuning pin), and does the
power-chain / photon bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import numpy as np
from .errors import DomainError, NonPhysicalFit
from .resonator import frequency_slope, tuned_frequency

HBAR = 1.054571817e-34  # J s
U_CLAMP = 1e150  # past it |m| < 3a/|u| + (a/u)**2, and S is 1 exactly for a < 1e70


@dataclass(frozen=True)
class SweepConfig:
    """Frequency sweep settings: span [f_start, f_stop] in Hz, point count,
    input power at the resonator."""

    f_start: float
    f_stop: float
    n_points: int
    p_in_dbm: float

    def __post_init__(self):
        if not 0 < self.f_start < self.f_stop < math.inf:
            raise DomainError("SweepConfig needs 0 < f_start < f_stop < inf")
        if self.n_points < 2:
            raise DomainError("SweepConfig.n_points must be >= 2")
        # np.linspace rounds each point by at most an ulp or two of f_stop, so a
        # spacing of more than 4 keeps the grid strictly increasing.
        if not (self.f_stop - self.f_start) / (self.n_points - 1) > 4 * math.ulp(self.f_stop):
            raise DomainError("SweepConfig points must be spaced by more than 4 ulp of f_stop")


@dataclass
class SweepTrace:
    """One measured or synthesized sweep: frequency axis (Hz, strictly
    increasing), power ratio P_out/P_in, input power, and the logical time
    offset from session start.

    The constructor checks every invariant: equal shapes, at least 2 points,
    finite values, a positive strictly increasing axis and a ratio >= 0.
    `synthesize_sweep` holds all but finiteness by construction and builds
    its trace without them."""

    frequencies: np.ndarray
    power_ratio: np.ndarray
    p_in_dbm: float
    timestamp: float = 0.0

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.power_ratio = np.asarray(self.power_ratio, dtype=float)
        if self.frequencies.shape != self.power_ratio.shape:
            raise DomainError("SweepTrace arrays must have equal length")
        if self.frequencies.size < 2:
            raise DomainError("SweepTrace needs at least 2 points")
        if not (np.isfinite(self.frequencies).all() and np.isfinite(self.power_ratio).all()):
            raise DomainError("SweepTrace values must be finite")
        if not (self.frequencies[0] > 0 and np.all(self.frequencies[1:] > self.frequencies[:-1])):
            raise DomainError("SweepTrace.frequencies must be positive and strictly increasing")
        if np.any(self.power_ratio < 0):
            raise DomainError("SweepTrace.power_ratio must be >= 0")


@dataclass(frozen=True)
class NoiseModel:
    """Measurement imperfections for synthesis.

    sigma_rel: relative (multiplicative) Gaussian noise on the power ratio
    vib_amplitude: mechanical vibration amplitude of the pin (m)
    seed: the key of the counter-based Philox stream the draws come from
    (fixed seed -> bit-identical traces and tune sessions)
    """

    sigma_rel: float = 0.0
    vib_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma_rel < math.inf:
            raise DomainError("NoiseModel.sigma_rel must be >= 0 and finite")
        if not 0 <= self.vib_amplitude < math.inf:
            raise DomainError("NoiseModel.vib_amplitude must be >= 0 and finite")
        if not self.seed >= 0:  # Philox takes no negative seed
            raise DomainError("NoiseModel.seed must be >= 0")

    def stream(self):
        """A fresh Generator on Philox(seed): a single sweep draws from its
        own, and a tune session draws every sweep from one, in order."""
        return np.random.Generator(np.random.Philox(self.seed))


def notch_response(f, f_r, q_l, q_e, phi, out=None):
    """S = 1 + m of the module docstring, in real arithmetic, and its terms;
    returns (S, u, W, m), of which the fit's normal equations reuse u and W.
    The one copy of the lineshape: no argument checks, f is an increasing
    array and f_r a float or an array.  out: optional real arrays of f's
    shape that receive (S, u, W, m)."""
    s, u, w, m = (None,) * 4 if out is None else out
    a = q_l / q_e
    # 2 Q_L / f_r: at a float f_r, Python's quotient when it is finite, which
    # is numpy's with no warning; numpy's, and its warnings, per point at an
    # array f_r and otherwise.  A 2 Q_L past the float range is NaN, and so
    # are u and S, so that a fit rejects such a trial.
    two_q = 2.0 * q_l
    two_q = math.nan if math.isinf(two_q) else two_q
    scale = two_q / f_r if isinstance(f_r, float) and f_r else math.inf
    if not math.isfinite(scale):
        scale = np.divide(two_q, f_r, out=w)
    u = np.subtract(f, f_r, out=u)
    u = np.multiply(u, scale, out=u)  # in place: a scalar f raises TypeError here
    # u clamped at +-U_CLAMP (np.minimum and np.maximum cost less than
    # np.clip).  At a float f_r, u is monotone along f, rounding included, so
    # when both ends are within the clamp every point is and the clamp is
    # skipped; an end that is NaN fails the test.
    if not (isinstance(f_r, float) and abs(u.item(0)) <= U_CLAMP and abs(u.item(-1)) <= U_CLAMP):
        u = np.maximum(np.minimum(u, U_CLAMP, out=u), -U_CLAMP, out=u)
    w = np.divide(1.0, np.add(np.multiply(u, u, out=w), 1.0, out=w), out=w)  # the one division
    m = np.multiply(u, -2.0 * a * math.sin(phi), out=m)
    m += a * (a - 2.0 * math.cos(phi))
    m *= w
    return np.add(m, 1.0, out=s), u, w, m


def loaded_q(q_i, q_e):
    """Harmonic composition 1/Q_L = 1/Q_i + 1/Q_e."""
    if not q_i > 0 or not q_e > 0:
        raise DomainError("quality factors must be > 0")
    return q_i * q_e / (q_i + q_e)


def internal_q(q_l, q_e):
    """Invert the composition: Q_i from Q_L and Q_e.  Requires Q_L < Q_e."""
    if not q_l > 0 or not q_e > 0:
        raise DomainError("quality factors must be > 0")
    if q_l >= q_e:
        raise NonPhysicalFit("Q_L >= Q_e implies infinite or negative Q_i")
    return q_l * q_e / (q_e - q_l)


def synthesize_sweep(config, params, state, pin, noise, timestamp=0.0, rng=None):
    """Synthesize one VNA sweep of the tuned plant.

    Pin vibration is modeled as a sinusoidal mechanical oscillation much
    faster than the sweep, so each frequency point sees the resonance
    displaced by an arcsine-distributed offset of amplitude
    |df/dd| * vib_amplitude.  Multiplicative Gaussian noise sigma_rel is then
    applied to the power ratio.  The sweep takes its n phases and then its n
    Gaussian gains (scaled by zero without noise) from the Generator rng, in
    order: by default a fresh `noise.stream()`, so a single sweep is fixed by
    its seed; a tune session passes its one stream, so each sweep, a retry
    included, draws what the last left.  A sweep without vibration skips its
    phase draws, reading n raw 64-bit outputs (one per uniform draw), and
    takes the lineshape at the one f_r, with no np.sin, in the bits the
    per-point form gives.

    The trace skips `SweepTrace`'s checks that hold by construction: the
    axis is `config`'s, by np.linspace's arithmetic (2 or more points,
    positive, finite and strictly increasing, as `SweepConfig` ensures) and
    the clamp at +0.0 keeps the ratio >= 0.  A noise model that overflows
    raises DomainError naming vib_amplitude (checked before any draw) or
    sigma_rel.
    """
    f_r = tuned_frequency(params, state, pin)
    q_l = loaded_q(params.Qi0, params.Qe)
    n = config.n_points
    f = np.arange(n, dtype=float)  # np.linspace's own arithmetic, op for op
    f *= (config.f_stop - config.f_start) / (n - 1)
    f += config.f_start
    f[-1] = config.f_stop

    jitter_amp = abs(frequency_slope(params, state, pin)) * noise.vib_amplitude
    if not math.isfinite(jitter_amp):
        raise DomainError("NoiseModel.vib_amplitude times |df/dd| must be finite")
    rng = noise.stream() if rng is None else rng
    if jitter_amp:
        # Per-point resonance displacement: each point sees its own jittered
        # f_r, f_r + jitter_amp sin(phase), with uniform(0, 2 pi)'s phases.
        centre = rng.random(n)
        centre *= 2.0 * math.pi
        np.sin(centre, out=centre)
        centre *= jitter_amp
        centre += f_r
    else:  # f_r + 0 sin(phase) is f_r, and the kernel's float path keeps its bits
        rng.bit_generator.random_raw(n)  # past the n phase draws, wherever the stream stands
        centre = f_r
    gain = rng.standard_normal(n)
    ratio = notch_response(f, centre, q_l, params.Qe, params.phi)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        gain *= noise.sigma_rel
        gain += 1.0
        ratio *= gain
    np.maximum(ratio, 0.0, out=ratio)  # np.clip(ratio, 0.0, None)'s ufunc; +0.0 for -0.0
    if not math.isfinite(ratio.max()):  # only NaN or +inf can be left, and max keeps both
        raise DomainError("NoiseModel.sigma_rel times the noise draws must be finite")
    trace = object.__new__(SweepTrace)
    trace.frequencies, trace.power_ratio, trace.p_in_dbm, trace.timestamp = (
        f, ratio, config.p_in_dbm, timestamp)
    return trace


def _stored_energy_factor(p_in_dbm, f_r, q_l, q_e):
    # (Q_L^2/Q_e) * P_in / (hbar * omega_r^2), the convention-free part of
    # the photon number, with P_in = 10**((dBm - 30)/10) W.
    omega = 2.0 * math.pi * f_r
    return (q_l * q_l / q_e) * 10.0 ** ((p_in_dbm - 30.0) / 10.0) / (HBAR * omega * omega)


# kappa is fixed so that -131 dBm at 6.828 GHz with Q_L = 32,710 and
# Q_e = 5e5 holds exactly 11 photons (the measured calibration anchor).
PHOTON_ANCHOR = (-131.0, 6.828e9, 32710.0, 5.0e5)
DEFAULT_PHOTON_KAPPA = 11.0 / _stored_energy_factor(*PHOTON_ANCHOR)


def photon_number(p_in_dbm, f_r, q_l, q_e, kappa=DEFAULT_PHOTON_KAPPA):
    """Mean intra-resonator photon number at the given drive power."""
    if not f_r > 0 or not q_l > 0 or not q_e > 0:
        raise DomainError("f_r and quality factors must be > 0")
    return kappa * _stored_energy_factor(p_in_dbm, f_r, q_l, q_e)
