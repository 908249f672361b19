"""Piezo stage model and the closed-loop frequency tuner.

The stick-slip stage moves in discrete pulses; pulse length scales linearly
with drive voltage (60 nm at the 36 V reference) and the stage stalls below a
minimum voltage.  `piezo_step` issues a whole move as one call: it lands the
pulse train in closed form, snaps a landing within 1e-9 relative below d_min
to d_min, and stops a move that runs out of room at the last pulse that
fits, reporting the clamp.  The controller tunes against a ControllerModel,
its belief about the device, which may differ from the Plant it drives.  Each
iteration sweeps around the belief's f_r shifted by the offset of the last
reading, fits the trace, and acts on the session's copy of the belief:
`update` learns from the reading, `aim` gives the next move, `moved` records
it.  The aim puts the belief's df at the measured error over the gain the
last informative move measured (its measured over its believed df; 1 until
such a move agrees), through the closed-form inverse of the coupling map, and
stops short by |gain - 1| plus that move's agreement noise over its predicted
df, at most APPROACH_SHORT of the error: the one-sample certainty-equivalence
step of Astrom & Wittenmark, Adaptive Control, 2nd ed. (1995), ch. 2-3.  A
move stays on its side while its own gain is below the gain it was aimed
with over (1 - that shortfall): on the matched plant, and for moves short
against the pin's decay length.  Under a step or decay-length mismatch a
long move's gain outgrows a short one's on the exponential coupling, and it
may cross the target, but never lands farther from it than it started (see
INFORMATIVE_BANDS).  Until a move has measured the gain, each move is a
probe: at most the pulses whose believed df clears INFORMATIVE_BANDS noise
bands of its reading (at least one).  After that only RADIUS_MAX caps a move.

The pin only screens the inductance, so Q_L, Q_e and phi do not change with
its height: each reading's fit starts from the lineshape the session already
knows, the last fit's (the belief's own before the first), at the sweep
centre (see fitting.fit_resonance for the window that guards it).  A fit
fails on any FitFailure; the wider retry of a failed fit starts from its own
guess, and a reading fails when both fits do."""

import math
from dataclasses import dataclass, field, replace

from .errors import DomainError, FitFailure, MechanicalLimit, StageStalled
from .fitting import InitialGuess, fit_resonance
from .resonator import (
    PinCouplingModel,
    ResonatorParams,
    TuningState,
    baseline_frequency,
    d_min_floor,
    frequency_slope,
    resonance_frequency,
    tuned_frequency,
)
from .transmission import NoiseModel, SweepConfig, loaded_q, synthesize_sweep

# Ground-state hyperfine splitting of 87Rb (Hz), the default tuning target.
F_RB = 6.834683e9


# A move agrees with the belief when its measured df is between AGREE_MIN and
# AGREE_MAX times the predicted df, give or take AGREE_SIGMA combined fit
# standard errors.  Inside that band an aimed move still shrinks the error,
# however far it goes.
AGREE_MIN = 0.5
AGREE_MAX = 2.0
AGREE_SIGMA = 3.0
# Once a move has measured the gain, the pulse radius is 16384 pulses, about
# 1 mm at 60 nm: more than the calibrated device's whole tuning travel, and a
# bound on the pulses a session spends on a target its belief places out of
# reach.
RADIUS_MAX = 16384
# A move aims at most this share of the measured error short of the target,
# so it stays on its side unless its own gain outgrows the measured one by
# more than 1 / (1 - share), as a long move's may under a step or decay-length
# mismatch.  Once an informative move has measured the gain, the share is
# what that gain may still be off: its distance from 1 plus the move's
# agreement noise over its predicted df.  A shortfall within two tolerances
# (about one step) buys nothing and is dropped.
APPROACH_SHORT = 0.05
# A move informs when its predicted df is this many times its agreement
# noise: its agreement then bounds the belief's gain below
# AGREE_MAX + 1/INFORMATIVE_BANDS = 2 / (1 - APPROACH_SHORT) of the truth, so
# an aimed move never lands farther from the target than it started, however
# long it is.  About 9.5.
INFORMATIVE_BANDS = 1.0 / (2.0 / (1.0 - APPROACH_SHORT) - AGREE_MAX)
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
    but not below `d_min_floor(d_min)` snaps to d_min.  If fewer than
    `pulses` pulses land at or above that floor, the stage takes those that
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
    floor = d_min_floor(d_min)
    n = pulses
    if direction < 0:  # the pulses that land at or above the floor
        room = stage.position - first - floor  # left after the first pulse
        if room < 0:
            n = 0
        elif room < (pulses - 1) * step:
            n = 1 + int(room // step)
        while n and stage.position - (first + (n - 1) * step) < floor:
            n -= 1  # round-off in the count, either way
        while n < pulses and stage.position - (first + n * step) >= floor:
            n += 1
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
    sweep_points: int = 1201
    sweep_span: float = 6e6         # Hz, centered on the predicted resonance
    p_in_dbm: float = -131.0
    duration_s: float = 160.0

    def __post_init__(self):
        if not self.tolerance_ppm > 0:
            raise DomainError("ControllerConfig.tolerance_ppm must be > 0")
        if not self.max_steps > 0:
            raise DomainError("ControllerConfig.max_steps must be > 0")


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
        noise = NoiseModel(self.noise.sigma_rel, self.noise.vib_amplitude,
                           self.noise.seed + iteration)
        return synthesize_sweep(sweep, self.params, self.state_at(d), self.pin,
                                noise, timestamp=timestamp)


@dataclass
class ControllerModel:
    """What the controller believes about the device: its resonator, its
    pin coupling, its trim and the stage's travel per pulse.  A session tunes
    a copy, whose plain attributes (not fields: `replace` starts them fresh,
    equality ignores them) hold what the session has learned."""

    params: ResonatorParams
    pin: PinCouplingModel
    step_length: float
    trim_shift: float = 0.0

    def __post_init__(self):
        if not self.step_length > 0:
            raise DomainError("ControllerModel.step_length must be > 0")
        self.height = math.nan  # the dead-reckoned pin height, set as a session starts
        self.radius, self.trusted = 1, False  # trusted once a move has measured the gain
        self.offset = 0.0  # measured minus believed f_r at the last reading
        self.gain, self.share = 1.0, APPROACH_SHORT  # measured over believed df; the aim's shortfall
        self.last = None  # (believed f_r, fit) of the last move
        # The lineshape (Q_L, Q_e, phi) the session knows: the belief's, then each fit's.
        self.shape = (loaded_q(self.params.Qi0, self.params.Qe), self.params.Qe, self.params.phi)

    @classmethod
    def of(cls, plant, stage):
        """The plant's own model and the stage's own step."""
        return cls(plant.params, plant.pin, stage.step_length, plant.trim_shift)

    def state_at(self, d):
        return TuningState(d=d, trim_shift=self.trim_shift)

    def frequency(self, d):
        return tuned_frequency(self.params, self.state_at(d), self.pin)

    def band(self):
        """The tuning band (f_low, f_high): the retracted-pin baseline with the
        trim, and the resonance at closest approach d_min."""
        return (baseline_frequency(self.params, self.state_at(self.pin.d_min)),
                self.frequency(self.pin.d_min))

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

    def update(self, fit, f_belief):
        """Learn from a reading `fit` where the belief reads f_belief: judge the
        last move, size the radius, keep the offset, lineshape and this move."""
        if self.last is not None:  # judge the last move against its prediction
            f_last, fit_last = self.last
            predicted = f_belief - f_last
            moved = (fit.f_r - fit_last.f_r) * math.copysign(1.0, predicted)
            noise = AGREE_SIGMA * math.hypot(fit_last.f_r_err, fit.f_r_err)
            if (AGREE_MIN * abs(predicted) - noise <= moved <= AGREE_MAX * abs(predicted) + noise
                    and abs(predicted) >= INFORMATIVE_BANDS * noise):  # crossing or not
                self.gain, self.trusted = moved / abs(predicted), True
                self.share = min(APPROACH_SHORT, abs(self.gain - 1.0) + noise / abs(predicted))
        # The pulse radius: RADIUS_MAX once a move has measured the gain, until
        # then a probe, the pulses whose believed df is INFORMATIVE_BANDS times
        # the next move's agreement noise, or one when the noise or the slope
        # is unusable.
        if self.trusted:
            self.radius = RADIUS_MAX
        else:
            per_pulse = frequency_sensitivity(self.state_at(self.height), self.params, self.pin,
                                              self.step_length)
            self.radius = 1
            if per_pulse > 0 and math.isfinite(fit.f_r_err):
                bands = INFORMATIVE_BANDS * AGREE_SIGMA * math.sqrt(2.0) * fit.f_r_err
                self.radius = max(math.ceil(min(bands / per_pulse, RADIUS_MAX)), 1)
        self.offset = fit.f_r - f_belief
        self.shape = (fit.q_l, fit.q_e, fit.phi)
        self.last = (f_belief, fit)

    def aim(self, err, f_belief, tol):
        """The pulses, within the radius, that aim the belief's df at the error
        err, less a shortfall on the side already measured, over the gain."""
        short = self.share * err if abs(self.share * err) > 2 * tol else 0.0
        dd = self.height_for(f_belief - (err - short) / self.gain) - self.height
        return max(int(round(min(abs(dd) / self.step_length, self.radius))), 1)

    def moved(self, direction, pulses, clamped):
        """Dead-reckon the move issued; a clamped move is cut, so judge none."""
        self.height = max(self.height + direction * pulses * self.step_length, self.pin.d_min)
        self.last = None if clamped else self.last


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
    # The pulse radius: the reading's probe size until a move has measured
    # the gain, RADIUS_MAX after.  A move or a stalled step logs the radius
    # that capped it, after this reading's update; a step that ends the
    # session on its reading logs the one in force before that update.
    radius: int = 0
    # The gain (measured over believed df) the move was aimed with, logged as
    # the radius is: 1.0 until an informative move agrees.
    gain: float = 1.0


@dataclass
class TuningSession:
    f_target: float
    tolerance_hz: float
    outcome: str = "StepBudgetExhausted"   # Converged | Unreachable |
                                           # StepBudgetExhausted | Aborted
    final_error_hz: float = float("nan")
    total_pulses: int = 0
    steps: list[TuningStep] = field(default_factory=list)


def reading_sweeps(cfg, f_center):
    """The sweeps of one reading around f_center, each built when asked for:
    cfg.sweep_span, then a failed fit's retry over RETRY_WIDEN times it.  One
    that SweepConfig refuses raises DomainError naming it and its ends."""
    for widen in (1.0, RETRY_WIDEN):
        span = cfg.sweep_span * widen
        lo, hi = f_center - span / 2.0, f_center + span / 2.0
        try:
            sweep = SweepConfig(lo, hi, cfg.sweep_points, cfg.p_in_dbm)
        except DomainError as exc:
            what = "sweep" if widen == 1.0 else f"{widen:g}x wider retry sweep"
            raise DomainError(f"the {what} runs from {lo:.6g} to {hi:.6g} Hz; {exc}") from None
        yield sweep


def _measure(plant, stage, cfg, f_center, iteration, shape):
    """One reading around f_center: the first sweep's fit starts from shape =
    (Q_L, Q_e, phi) at f_center, the retry's from its own guess.  Raises the
    retry's FitFailure when both fits fail."""
    last_exc = None
    for sweep, start in zip(reading_sweeps(cfg, f_center), (InitialGuess(f_center, *shape), None)):
        trace = plant.sweep(sweep, stage.position, iteration, iteration * cfg.duration_s)
        try:
            return fit_resonance(trace, start)
        except FitFailure as exc:
            last_exc = exc
    raise last_exc


def tune_to_target(plant, stage, cfg, model=None):
    """Drive the plant's resonance onto cfg.f_target.

    The controller sees the plant only through sweeps; everything else (the
    pin height it dead-reckons from the pulses it issued, the sweep centre,
    the reach check, the moves) comes from its own copy of `model`, the
    ControllerModel it believes (the plant's own by default).

    Returns a TuningSession with the full step-by-step log.  The session ends
    Converged (|f_r - f_target| within tolerance), Unreachable (target outside
    the achievable band, or a pin that does not couple), StepBudgetExhausted,
    or Aborted (a reading whose fits both failed, or a stalled stage).
    """
    model = ControllerModel.of(plant, stage) if model is None else replace(model)
    model.height = stage.position
    tol = cfg.tolerance_ppm * 1e-6 * cfg.f_target
    session = TuningSession(f_target=cfg.f_target, tolerance_hz=tol)

    f_low, f_high = model.band()
    if not (f_low - tol < cfg.f_target <= f_high + tol):
        session.outcome = "Unreachable"
        session.final_error_hz = model.frequency(model.height) - cfg.f_target
        return session

    for k in range(cfg.max_steps):
        f_belief = model.frequency(model.height)
        step = TuningStep(k, stage.position, true_f_r=plant.true_frequency(stage.position),
                          predicted_f_r=f_belief + model.offset, radius=model.radius,
                          gain=model.gain)
        session.steps.append(step)
        try:
            fit = _measure(plant, stage, cfg, step.predicted_f_r, k, model.shape)
        except FitFailure as exc:
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

        model.update(fit, f_belief)
        pulses = model.aim(err, f_belief, tol)
        step.direction = 1 if err > 0 else -1
        step.radius, step.gain = model.radius, model.gain
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
        model.moved(step.direction, pulses, clamped=bool(step.note))

    return session  # the default outcome: StepBudgetExhausted
