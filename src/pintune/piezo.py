"""Piezo stage model and the closed-loop frequency tuner.

The stick-slip stage moves in discrete pulses; pulse length scales linearly
with drive voltage (60 nm at the 36 V reference) and the stage stalls below a
minimum voltage.  `piezo_step` issues a whole move as one call: it lands the
pulse train in closed form, snaps a landing within 1e-9 relative below d_min
to d_min, and stops a move that runs out of room at the last pulse that
fits, reporting the clamp.  The controller iterates measure -> fit ->
actuate against a ControllerModel, its belief about the device, which may
differ from the Plant it drives.  Each iteration sweeps around the belief's
f_r shifted by the offset of the last reading, fits the trace, and aims the
stage at the height where that shifted belief reaches the target (a few
percent short, so the approach stays on one side), through the closed-form
inverse of the coupling map.  A move is capped by a trust-region radius in
pulses, first the pulses whose believed df clears INFORMATIVE_BANDS noise
bands (at least `steps_per_measurement`).  A move whose df the belief
predicted lifts it to RADIUS_MAX if it cleared them, else grows a full radius
RADIUS_GROWTH-fold or to that size; a mispredicted move, a crossing of the
target or a mechanical clamp halves it."""

import math
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
    resonance_frequency,
    tuned_frequency,
)
from .transmission import NoiseModel, SweepConfig, synthesize_sweep

# Ground-state hyperfine splitting of 87Rb (Hz), the default tuning target.
F_RB = 6.834683e9


# Trust-region pulse budget (More 1978; Conn, Gould & Toint, Trust-Region
# Methods, SIAM 2000).  A move agrees with the belief when its measured df is
# between AGREE_MIN and AGREE_MAX times the predicted df, give or take
# AGREE_SIGMA combined fit standard errors.  Inside that band an aimed move
# still shrinks the error, however far it goes.
AGREE_MIN = 0.5
AGREE_MAX = 2.0
AGREE_SIGMA = 3.0
# The radius stops growing at 16384 pulses, about 1 mm at 60 nm: more than
# the calibrated device's whole tuning travel, and a bound on the pulses a
# session spends on a target its belief places out of reach.
RADIUS_MAX = 16384
# Each move aims this share of the measured error short of the target, so
# the approach stays on one side under a step or slope the belief
# underrates.  A shortfall within two tolerances (about one step) buys
# nothing and is dropped.
APPROACH_SHORT = 0.05
# A move informs when its predicted df is this many times its agreement
# noise: its agreement then bounds the belief's gain below
# AGREE_MAX + 1/INFORMATIVE_BANDS = 2 / (1 - APPROACH_SHORT) of the truth, so
# an aimed move never lands farther from the target than it started, however
# long it is.  About 9.5.
INFORMATIVE_BANDS = 1.0 / (2.0 / (1.0 - APPROACH_SHORT) - AGREE_MAX)
# The radius grows this many times after an agreeing full-radius move whose
# prediction fell short of those bands; a crossing or a misprediction still
# halves the radius.
RADIUS_GROWTH = 8
# A sweep whose fit fails is retried once over this many times its span.
RETRY_WIDEN = 4.0


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
        for name in ("step_size", "voltage", "reference_voltage"):
            if not getattr(self, name) > 0:
                raise DomainError(f"PiezoStage.{name} must be > 0")
        if not 0 < self.step_length < math.inf:
            raise DomainError("PiezoStage.step_length at the drive voltage must be finite and > 0")
        if not self.backlash >= 0:
            raise DomainError("PiezoStage.backlash must be >= 0")
        if not self.position > 0:
            raise DomainError("PiezoStage.position must be > 0")

    @property
    def step_length(self):
        """Actual travel per pulse at the current drive voltage."""
        return self.step_size * self.voltage / self.reference_voltage


def piezo_step(stage, direction, d_min=0.0, pulses=1):
    """Issue `pulses` pulses in one direction; +1 retracts the pin (larger d),
    -1 moves it toward the resonator.  Returns the new position.

    The move is computed in closed form: on a reversal the first pulse loses
    the backlash, the rest travel a full step, and the stage lands at
    position + direction * (first + (n - 1) * step).  A landing below d_min
    within the 1e-9 relative tolerance of `mutual_inductance` snaps to d_min.
    If fewer than `pulses` pulses fit above d_min, the stage takes those that
    do and MechanicalLimit is raised with their count in `issued`."""
    if direction not in (-1, 1):
        raise DomainError("direction must be +1 or -1")
    if pulses < 1:
        raise DomainError("pulses must be >= 1")
    if stage.voltage < stage.min_voltage:
        raise StageStalled(
            f"{stage.voltage:g} V is below the {stage.min_voltage:g} V minimum"
        )
    step = stage.step_length
    first = step
    if stage.last_direction not in (0, direction):
        first = max(step - stage.backlash, 0.0)
    floor = d_min * (1.0 - 1e-9)
    n = pulses
    if direction < 0:  # the pulses that land at or above the floor
        room = stage.position - first - floor  # left after the first pulse
        if room < 0:
            n = 0
        elif room < (pulses - 1) * step:
            n = 1 + int(room // step)
        while n and stage.position - (first + (n - 1) * step) < floor:
            n -= 1  # round-off in the count
    elif stage.position + first < floor:
        n = 0
    if n:
        stage.position = max(stage.position + direction * (first + (n - 1) * step), d_min)
        stage.last_direction = direction
    if n < pulses:
        raise MechanicalLimit("step would push the pin below d_min", issued=n)
    return stage.position


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
    steps_per_measurement: int = 8  # the floor of the first move's pulse radius
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
    """The simulated device under control: the truth the controller only
    sees through sweeps."""

    params: ResonatorParams
    pin: PinCouplingModel
    noise: NoiseModel
    trim_shift: float = 0.0

    def state_at(self, d):
        return TuningState(d=d, trim_shift=self.trim_shift)

    def true_frequency(self, d):
        return tuned_frequency(self.params, self.state_at(d), self.pin)

    def sweep(self, sweep, d, iteration, timestamp):
        """The trace of one sweep at pin height d; iteration k draws its own
        noise seed."""
        noise = replace(self.noise, seed=self.noise.seed + iteration)
        return synthesize_sweep(sweep, self.params, self.state_at(d), self.pin,
                                noise, timestamp=timestamp)


@dataclass(frozen=True)
class ControllerModel:
    """What the controller believes about the device: its resonator, its
    pin coupling, its trim and the stage's travel per pulse."""

    params: ResonatorParams
    pin: PinCouplingModel
    step_length: float
    trim_shift: float = 0.0

    def __post_init__(self):
        if not self.step_length > 0:
            raise DomainError("ControllerModel.step_length must be > 0")

    @classmethod
    def of(cls, plant, stage):
        """The plant's own model and the stage's own step."""
        return cls(plant.params, plant.pin, stage.step_length, plant.trim_shift)

    def state_at(self, d):
        return TuningState(d=d, trim_shift=self.trim_shift)

    def frequency(self, d):
        return tuned_frequency(self.params, self.state_at(d), self.pin)

    def height_for(self, f):
        """The pin height at which the belief reads f: the closed-form inverse
        of f = f0 / sqrt(1 - m(d)**2) + trim.  A frequency at or below the
        retracted-pin baseline gives inf, one beyond closest approach d_min."""
        f0 = resonance_frequency(self.params.L0, self.params.C)
        g = f - self.trim_shift
        if not g > f0:
            return math.inf
        m2 = 1.0 - (f0 / g) ** 2
        if m2 >= self.pin.m_max ** 2:
            return self.pin.d_min
        return self.pin.d_min + 0.5 * self.pin.lam * math.log(self.pin.m_max ** 2 / m2)


@dataclass
class TuningStep:
    index: int
    position: float             # d before actuation (m)
    measured_f_r: float = float("nan")   # nan when the fit failed
    error_hz: float = float("nan")
    pulses: int = 0             # pulses issued after this measurement
    direction: int = 0          # 0 when the session ended on this reading
    fit_rms: float = float("nan")
    fit_iterations: int = 0
    note: str = ""
    true_f_r: float = float("nan")       # the twin's f_r at `position`
    predicted_f_r: float = float("nan")  # the reading the belief predicted: the sweep centre
    # The pulse radius.  A move or a stalled step logs the radius that capped
    # it, after this reading's update; a step that ends the session on its
    # reading logs the one in force before that update.
    radius: int = 0


@dataclass
class TuningSession:
    f_target: float
    tolerance_hz: float
    outcome: str = "StepBudgetExhausted"   # Converged | Unreachable |
                                           # StepBudgetExhausted | Aborted
    final_error_hz: float = float("nan")
    total_pulses: int = 0
    steps: List[TuningStep] = field(default_factory=list)


def _measure(plant, stage, cfg, f_center, iteration):
    """One sweep-and-fit around f_center.  Retries once with a RETRY_WIDEN
    times wider span before giving up."""
    last_exc = None
    for widen in (1.0, RETRY_WIDEN):
        span = cfg.sweep_span * widen
        sweep = SweepConfig(
            f_start=f_center - span / 2.0,
            f_stop=f_center + span / 2.0,
            n_points=cfg.sweep_points,
            p_in_dbm=cfg.p_in_dbm,
        )
        trace = plant.sweep(sweep, stage.position, iteration, iteration * cfg.duration_s)
        try:
            return fit_resonance(trace)
        except (NoResonance, NonPhysicalFit, ConvergenceFailure) as exc:
            last_exc = exc
    raise last_exc


def tune_to_target(plant, stage, cfg, model=None):
    """Drive the plant's resonance onto cfg.f_target.

    The controller sees the plant only through sweeps; everything else (the
    pin height it dead-reckons from the pulses it issued, the sweep centre,
    the reach check, the moves) comes from `model`, the ControllerModel it
    believes, by default the plant's own.

    Returns a TuningSession with the full step-by-step log.  The session ends
    Converged (|f_r - f_target| within tolerance), Unreachable (target outside
    the achievable band, or a pin that does not couple), StepBudgetExhausted,
    or Aborted (repeated fit failure or a stalled stage).
    """
    if model is None:
        model = ControllerModel.of(plant, stage)
    tol = cfg.tolerance_ppm * 1e-6 * cfg.f_target
    session = TuningSession(f_target=cfg.f_target, tolerance_hz=tol)

    d = stage.position  # the believed pin height
    f_low = baseline_frequency(model.params, model.state_at(d))
    f_high = model.frequency(model.pin.d_min)
    if not (f_low - tol < cfg.f_target <= f_high + tol):
        session.outcome = "Unreachable"
        session.final_error_hz = model.frequency(d) - cfg.f_target
        return session

    radius = cfg.steps_per_measurement
    offset = 0.0  # measured minus believed f_r at the last reading
    last = None   # (believed f_r, fit, error, pulses) of the last move

    for k in range(cfg.max_steps):
        f_belief = model.frequency(d)
        step = TuningStep(k, stage.position, true_f_r=plant.true_frequency(stage.position),
                          predicted_f_r=f_belief + offset, radius=radius)
        session.steps.append(step)
        try:
            fit = _measure(plant, stage, cfg, step.predicted_f_r, k)
        except (NoResonance, NonPhysicalFit, ConvergenceFailure) as exc:
            session.outcome = "Aborted"
            step.note = f"fit failed: {type(exc).__name__}"
            return session

        err = fit.f_r - cfg.f_target
        step.measured_f_r, step.error_hz = fit.f_r, err
        step.fit_rms, step.fit_iterations = fit.rms_residual, fit.n_iterations

        converged = abs(err) <= tol
        if converged or model.pin.m_max == 0:  # m_max 0: no pulse can move f_r
            session.outcome = "Converged" if converged else "Unreachable"
            step.note = "" if converged else "pin does not couple"
            session.final_error_hz = err
            return session

        # Trust-region radius.  `sized` is the pulses whose believed df is
        # INFORMATIVE_BANDS times the next move's agreement noise, or the
        # floor when the noise or the slope is unusable.
        per_pulse = frequency_sensitivity(model.state_at(d), model.params, model.pin,
                                          model.step_length)
        sized = cfg.steps_per_measurement
        if per_pulse > 0 and math.isfinite(fit.f_r_err):
            bands = INFORMATIVE_BANDS * AGREE_SIGMA * math.sqrt(2.0) * fit.f_r_err
            sized = max(math.ceil(min(bands / per_pulse, RADIUS_MAX)), sized)
        if k == 0:
            radius = sized
        elif last is not None:  # shrink, lift or grow it after the last move
            f_last, fit_last, err_last, pulses_last = last
            predicted = f_belief - f_last
            moved = (fit.f_r - fit_last.f_r) * math.copysign(1.0, predicted)
            noise = AGREE_SIGMA * math.hypot(fit_last.f_r_err, fit.f_r_err)
            agrees = (AGREE_MIN * abs(predicted) - noise <= moved
                      <= AGREE_MAX * abs(predicted) + noise)
            if not agrees or err * err_last < 0:
                radius = max(radius // 2, 1)
            elif abs(predicted) >= INFORMATIVE_BANDS * noise:
                radius = RADIUS_MAX
            elif pulses_last >= radius:
                radius = min(max(RADIUS_GROWTH * radius, sized), RADIUS_MAX)
        offset = fit.f_r - f_belief

        # Aim where the offset-shifted belief reads a point a little short
        # of the target, on the side already measured.
        short = APPROACH_SHORT * err
        if abs(short) <= 2 * tol:
            short = 0.0
        dd = model.height_for(cfg.f_target + short - offset) - d
        pulses = max(int(round(min(abs(dd) / model.step_length, radius))), 1)
        step.direction = 1 if err > 0 else -1
        step.radius = radius
        session.final_error_hz = err

        try:
            piezo_step(stage, step.direction, plant.pin.d_min, pulses)
        except MechanicalLimit as exc:
            pulses, step.note = exc.issued, "clamped at mechanical limit"
        except StageStalled as exc:
            session.outcome = "Aborted"
            step.note = f"stage stalled: {exc}"
            return session

        step.pulses = pulses
        session.total_pulses += pulses
        d = max(d + step.direction * pulses * model.step_length, model.pin.d_min)
        last = (f_belief, fit, err, pulses)
        if step.note:  # clamped: shrink now, and judge no prediction on a cut move
            radius = max(radius // 2, 1)
            last = None

    return session  # the default outcome: StepBudgetExhausted
