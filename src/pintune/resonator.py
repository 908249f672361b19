"""Lumped-element model of the pin-tuned resonator.

The resonator is an LC circuit whose effective inductance is reduced
("screened") by image currents in a superconducting pin hovering a distance d
above it:

    L = L0 * (1 - m(d)**2),   m = M / L0,
    f_r = 1 / (2*pi*sqrt(L*C))

so bringing the pin closer raises the frequency.  The distance-to-coupling map
m(d) is a calibrated single exponential with three parameters (peak coupling,
decay length, closest approach).  A one-time lithographic trim of the
capacitor is modeled as a fixed negative frequency offset, linear in the
effective finger-length increase at -0.8 MHz/um.

All quantities here are SI: Hz, m, H, F.
"""

import math
from dataclasses import dataclass

from .errors import CalibrationError, DomainError

# Capacitive trim sensitivity: -0.8 MHz per um of finger lengthening.
TRIM_RATE_HZ_PER_M = -0.8e6 / 1e-6


@dataclass(frozen=True)
class ResonatorParams:
    """Electrical description of the resonator.

    L0: un-screened self-inductance (H)
    C: capacitance (F)
    Qi0: intrinsic internal quality factor at low power
    Qe: external (coupling) quality factor
    phi: lineshape asymmetry angle (rad), |phi| < pi/2
    """

    L0: float
    C: float
    Qi0: float
    Qe: float
    phi: float = 0.0

    def __post_init__(self):
        for name in ("L0", "C", "Qi0", "Qe"):
            if not getattr(self, name) > 0:
                raise DomainError(f"ResonatorParams.{name} must be > 0")
        if not self.Qi0 * self.Qe < math.inf:  # Q_L = Qi0 Qe / (Qi0 + Qe) would overflow
            raise DomainError("ResonatorParams.Qi0 * Qe must be finite")
        if not abs(self.phi) < math.pi / 2:
            raise DomainError("ResonatorParams.phi must satisfy |phi| < pi/2")

    @classmethod
    def at(cls, f_baseline, Qi0, Qe, phi=0.0):
        """The resonator with retracted-pin frequency f_baseline (Hz); L0 is 1 nH, as only L0*C matters."""
        return cls(L0=1e-9, C=capacitance_for_frequency(f_baseline, 1e-9), Qi0=Qi0, Qe=Qe, phi=phi)


@dataclass(frozen=True)
class PinCouplingModel:
    """Parametric map from pin separation to coupling ratio m = M/L0.

    m(d) = m_max * exp(-(d - d_min) / lam)

    m_max: peak coupling at closest approach, 0 <= m_max < 1
    lam: decay length (m)
    d_min: closest allowed pin height (m)
    """

    m_max: float
    lam: float
    d_min: float

    def __post_init__(self):
        if not 0.0 <= self.m_max < 1.0:
            raise DomainError("PinCouplingModel.m_max must be in [0, 1)")
        if not 0 < self.lam < math.inf:
            raise DomainError("PinCouplingModel.lam must be finite and > 0")
        if not 0 < self.d_min < math.inf:
            raise DomainError("PinCouplingModel.d_min must be finite and > 0")


@dataclass(frozen=True)
class TuningState:
    """Current mechanical/lithographic tuning state.

    d: pin-resonator separation (m)
    trim_shift: accumulated coarse-trim frequency offset (Hz, <= 0 for
        added capacitance)
    """

    d: float
    trim_shift: float = 0.0

    def __post_init__(self):
        if not self.d > 0:
            raise DomainError("TuningState.d must be > 0")


def resonance_frequency(L, C):
    """f_r = 1/(2*pi*sqrt(L*C)) for an LC resonator."""
    if not L > 0:
        raise DomainError("inductance must be > 0")
    if not C > 0:
        raise DomainError("capacitance must be > 0")
    return 1.0 / (2.0 * math.pi * math.sqrt(L * C))


def capacitance_for_frequency(f_r, L):
    """Invert the LC relation: C = 1/((2*pi*f_r)**2 * L)."""
    if not f_r > 0:
        raise DomainError("frequency must be > 0")
    if not L > 0:
        raise DomainError("inductance must be > 0")
    try:
        return 1.0 / ((2.0 * math.pi * f_r) ** 2 * L)
    except (OverflowError, ZeroDivisionError):
        raise DomainError("frequency out of range for a capacitance") from None


def screened_inductance(L0, M):
    """Effective inductance with a mutual inductance M to the pin's image
    currents: L0 * (1 - M**2/L0**2)."""
    if not L0 > 0:
        raise DomainError("L0 must be > 0")
    if abs(M) >= L0:
        raise DomainError("|M| must be < L0 (inductance would vanish)")
    return L0 * (1.0 - (M * M) / (L0 * L0))


def d_min_floor(d_min):
    """The lowest pin height taken as closest approach d_min: 1e-9 relative
    below it, to tolerate float round-off at the boundary (40*1e-6 vs 40e-6)."""
    return d_min * (1.0 - 1e-9)


def mutual_inductance(d, model):
    """Coupling ratio m = M/L0 at pin separation d (dimensionless)."""
    if d < d_min_floor(model.d_min):
        raise DomainError("d < d_min: pin would touch the resonator")
    d = max(d, model.d_min)
    return model.m_max * math.exp(-(d - model.d_min) / model.lam)


def calibrate_pin_model(f_baseline, f_closest, d_min, peak_sensitivity):
    """Fit the exponential coupling model to three measured anchors.

    f_baseline: resonance frequency with the pin fully retracted (Hz)
    f_closest: resonance frequency at closest approach d_min (Hz)
    d_min: closest pin height (m)
    peak_sensitivity: |df/dd| at d_min (Hz/m)

    Solved in closed form on the exact (non-linearized) model:
      m_max**2 = 1 - (f_baseline/f_closest)**2
      lam      = f_baseline * m_max**2
                 / (peak_sensitivity * (1 - m_max**2)**1.5)
    so the model reproduces the anchor shift and anchor slope exactly.
    """
    if not f_baseline > 0 or not f_closest > 0:
        raise CalibrationError("anchor frequencies must be > 0")
    if f_closest < f_baseline:
        raise CalibrationError("f_closest must be >= f_baseline")
    if not d_min > 0:
        raise CalibrationError("d_min must be > 0")
    if not peak_sensitivity > 0:
        raise CalibrationError("peak_sensitivity must be > 0")

    m2 = 1.0 - (f_baseline / f_closest) ** 2
    if m2 >= 1.0:
        raise CalibrationError("anchors imply m_max >= 1 (unscreenable)")
    if m2 == 0.0:
        # Zero shift: no coupling at any distance; decay length is moot.
        return PinCouplingModel(m_max=0.0, lam=d_min, d_min=d_min)
    denominator = peak_sensitivity * (1.0 - m2) ** 1.5  # may underflow to 0
    lam = f_baseline * m2 / denominator if denominator > 0 else math.inf
    if not 0 < lam < math.inf:
        raise CalibrationError("anchors imply a decay length that is not finite and > 0")
    return PinCouplingModel(m_max=math.sqrt(m2), lam=lam, d_min=d_min)


def coarse_trim(finger_length_increase):
    """Frequency shift (Hz, <= 0) from lengthening a capacitor finger by
    `finger_length_increase` meters."""
    if finger_length_increase < 0:
        raise DomainError("finger_length_increase must be >= 0")
    return TRIM_RATE_HZ_PER_M * finger_length_increase


def tuned_frequency(params, state, pin):
    """Resonance frequency at the given tuning state.

    Uses the exact 1/sqrt(L) form (no small-m expansion); the coarse-trim
    offset is added on top.
    """
    m = mutual_inductance(state.d, pin)
    L = screened_inductance(params.L0, m * params.L0)
    return resonance_frequency(L, params.C) + state.trim_shift


def frequency_slope(params, state, pin):
    """d f_r / d d at the current separation (Hz/m, negative).

    Analytic: f(d) = f0 / sqrt(1 - m**2) + trim, dm/dd = -m/lam.
    """
    m = mutual_inductance(state.d, pin)
    f0 = resonance_frequency(params.L0, params.C)
    return -f0 * m * m / (pin.lam * (1.0 - m * m) ** 1.5)


def baseline_frequency(params, state):
    """Frequency with the pin fully retracted (trim included)."""
    return resonance_frequency(params.L0, params.C) + state.trim_shift
