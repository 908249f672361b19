"""Piezo stage model and the closed-loop frequency tuner.

The stick-slip stage moves in discrete pulses; pulse length scales linearly
with drive voltage (60 nm at the 36 V reference) and the stage stalls below a
minimum voltage.  The controller iterates measure -> fit -> actuate: each
iteration synthesizes a sweep around the model-predicted resonance, fits it,
and steps the stage toward the target using a secant estimate of the local
Hz-per-meter sensitivity (model slope as fallback), at most
`steps_per_measurement` pulses between measurements.
"""

from dataclasses import dataclass, field, replace
from typing import List

from .errors import (
    ConvergenceFailure,
    DomainError,
    MechanicalLimit,
    NonPhysicalFit,
    NoResonance,
    StageStalled,
)
from .fitting import fit_resonance
from .resonator import (
    PinCouplingModel,
    ResonatorParams,
    TuningState,
    baseline_frequency,
    frequency_slope,
    tuned_frequency,
)
from .transmission import NoiseModel, SweepConfig, synthesize_sweep
from .units import F_RB


@dataclass
class PiezoStage:
    """Stick-slip positioner state.  position is the pin height d (m)."""

    position: float
    voltage: float = 36.0
    step_size: float = 60e-9        # meters per pulse at reference_voltage
    reference_voltage: float = 36.0
    min_voltage: float = 30.0
    backlash: float = 0.0           # travel lost on direction reversal (m)
    last_direction: int = 0

    def __post_init__(self):
        if not self.step_size > 0:
            raise DomainError("PiezoStage.step_size must be > 0")
        if not self.position > 0:
            raise DomainError("PiezoStage.position must be > 0")

    @property
    def step_length(self):
        """Actual travel per pulse at the current drive voltage."""
        return self.step_size * self.voltage / self.reference_voltage


def piezo_step(stage, direction, d_min=0.0):
    """Issue one pulse; direction +1 retracts the pin (larger d), -1 moves it
    toward the resonator.  Returns the new position."""
    if direction not in (-1, 1):
        raise DomainError("direction must be +1 or -1")
    if stage.voltage < stage.min_voltage:
        raise StageStalled(
            f"{stage.voltage:g} V is below the {stage.min_voltage:g} V minimum"
        )
    move = stage.step_length
    if stage.backlash > 0 and stage.last_direction not in (0, direction):
        move = max(move - stage.backlash, 0.0)
    new = stage.position + direction * move
    if new < d_min:
        raise MechanicalLimit("step would push the pin below d_min")
    stage.position = new
    stage.last_direction = direction
    return new


def frequency_sensitivity(state, params, pin, step_length=60e-9):
    """|df| per piezo pulse at the current separation (Hz/step)."""
    if step_length < 0:
        raise DomainError("step_length must be >= 0")
    return abs(frequency_slope(params, state, pin)) * step_length


@dataclass(frozen=True)
class ControllerConfig:
    f_target: float = F_RB
    tolerance_ppm: float = 0.3
    max_steps: int = 2000           # measure-decide-actuate iterations
    steps_per_measurement: int = 8  # piezo pulses between measurements
    sweep_points: int = 1201
    sweep_span: float = 6e6         # Hz, centered on the predicted resonance
    p_in_dbm: float = -131.0
    duration_s: float = 160.0

    def __post_init__(self):
        if not self.tolerance_ppm > 0:
            raise DomainError("ControllerConfig.tolerance_ppm must be > 0")
        if not self.max_steps > 0:
            raise DomainError("ControllerConfig.max_steps must be > 0")
        if not self.steps_per_measurement > 0:
            raise DomainError("ControllerConfig.steps_per_measurement must be > 0")


@dataclass
class Plant:
    """The simulated device under control."""

    params: ResonatorParams
    pin: PinCouplingModel
    noise: NoiseModel
    trim_shift: float = 0.0

    def state_at(self, d):
        return TuningState(d=d, trim_shift=self.trim_shift)

    def true_frequency(self, d):
        return tuned_frequency(self.params, self.state_at(d), self.pin)


@dataclass
class TuningStep:
    index: int
    position: float             # d before actuation (m)
    measured_f_r: float
    error_hz: float
    pulses: int                 # pulses issued after this measurement
    direction: int
    fit_rms: float
    fit_iterations: int
    note: str = ""


@dataclass
class TuningSession:
    f_target: float
    tolerance_hz: float
    outcome: str = "StepBudgetExhausted"   # Converged | Unreachable |
                                           # StepBudgetExhausted | Aborted
    final_error_hz: float = float("nan")
    total_pulses: int = 0
    steps: List[TuningStep] = field(default_factory=list)


def _measure(plant, stage, cfg, iteration):
    """One sweep-and-fit around the model-predicted resonance.  Retries once
    with a 4x wider span before giving up."""
    f_pred = plant.true_frequency(stage.position)
    noise = replace(plant.noise, seed=plant.noise.seed + iteration)
    last_exc = None
    for widen in (1.0, 4.0):
        span = cfg.sweep_span * widen
        sweep = SweepConfig(
            f_start=f_pred - span / 2.0,
            f_stop=f_pred + span / 2.0,
            n_points=cfg.sweep_points,
            p_in_dbm=cfg.p_in_dbm,
        )
        trace = synthesize_sweep(
            sweep,
            plant.params,
            plant.state_at(stage.position),
            plant.pin,
            noise,
            timestamp=iteration * cfg.duration_s,
        )
        try:
            return fit_resonance(trace)
        except (NoResonance, NonPhysicalFit, ConvergenceFailure) as exc:
            last_exc = exc
    raise last_exc


def tune_to_target(plant, stage, cfg):
    """Drive the plant's resonance onto cfg.f_target.

    Returns a TuningSession with the full step-by-step log.  The session ends
    Converged (|f_r - f_target| within tolerance), Unreachable (target outside
    the achievable band, or a pin that does not couple), StepBudgetExhausted,
    or Aborted (repeated fit failure or a stalled stage).
    """
    tol = cfg.tolerance_ppm * 1e-6 * cfg.f_target
    session = TuningSession(f_target=cfg.f_target, tolerance_hz=tol)

    f_low = baseline_frequency(plant.params, plant.state_at(stage.position))
    f_high = plant.true_frequency(plant.pin.d_min)
    if not (f_low - tol < cfg.f_target <= f_high + tol):
        session.outcome = "Unreachable"
        session.final_error_hz = plant.true_frequency(stage.position) - cfg.f_target
        return session

    history = []  # (d, measured f_r) pairs for the secant slope

    for k in range(cfg.max_steps):
        d_before = stage.position
        try:
            fit = _measure(plant, stage, cfg, k)
        except (NoResonance, NonPhysicalFit, ConvergenceFailure) as exc:
            session.outcome = "Aborted"
            session.steps.append(
                TuningStep(k, d_before, float("nan"), float("nan"), 0, 0,
                           float("nan"), 0, note=f"fit failed: {type(exc).__name__}")
            )
            return session

        err = fit.f_r - cfg.f_target
        if abs(err) <= tol:
            session.steps.append(
                TuningStep(k, d_before, fit.f_r, err, 0, 0,
                           fit.rms_residual, fit.n_iterations)
            )
            session.outcome = "Converged"
            session.final_error_hz = err
            return session

        # Sensitivity: secant on the last two measurements when available and
        # well conditioned, otherwise the calibrated model slope.
        slope = frequency_slope(plant.params, plant.state_at(d_before), plant.pin)
        if slope == 0:  # no pulse can move f_r
            session.outcome = "Unreachable"
            session.final_error_hz = err
            session.steps.append(
                TuningStep(k, d_before, fit.f_r, err, 0, 0, fit.rms_residual,
                           fit.n_iterations, note="pin does not couple")
            )
            return session
        if history:
            d_prev, f_prev = history[-1]
            if abs(d_before - d_prev) > 1e-12:
                secant = (fit.f_r - f_prev) / (d_before - d_prev)
                if secant < 0:
                    slope = secant
        history.append((d_before, fit.f_r))

        dd = -err / slope
        pulses = int(round(abs(dd) / stage.step_length))
        pulses = min(max(pulses, 1), cfg.steps_per_measurement)
        direction = 1 if dd > 0 else -1

        issued = 0
        note = ""
        try:
            for _ in range(pulses):
                piezo_step(stage, direction, d_min=plant.pin.d_min)
                issued += 1
        except MechanicalLimit:
            note = "clamped at mechanical limit"
        except StageStalled as exc:
            session.outcome = "Aborted"
            session.steps.append(
                TuningStep(k, d_before, fit.f_r, err, issued, direction,
                           fit.rms_residual, fit.n_iterations,
                           note=f"stage stalled: {exc}")
            )
            return session

        session.total_pulses += issued
        session.steps.append(
            TuningStep(k, d_before, fit.f_r, err, issued, direction,
                       fit.rms_residual, fit.n_iterations, note=note)
        )
        session.final_error_hz = err

    session.outcome = "StepBudgetExhausted"
    return session
