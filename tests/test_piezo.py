import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pintune import piezo
from pintune.errors import (
    ConvergenceFailure,
    DomainError,
    FitFailure,
    MechanicalLimit,
    NonPhysicalFit,
    NoResonance,
    StageStalled,
)
from pintune.fitting import FitResult, InitialGuess, fit_resonance
from pintune.piezo import (
    AGREE_MAX,
    AGREE_MIN,
    AGREE_SIGMA,
    APPROACH_SHORT,
    F_RB,
    INFORMATIVE_BANDS,
    RADIUS_MAX,
    ControllerConfig,
    ControllerModel,
    PiezoStage,
    Plant,
    TuningStep,
    frequency_sensitivity,
    piezo_step,
    tune_to_target,
)
from pintune.resonator import (
    PinCouplingModel,
    ResonatorParams,
    TuningState,
    baseline_frequency,
    calibrate_pin_model,
    capacitance_for_frequency,
    d_min_floor,
    frequency_slope,
    screened_inductance,
    tuned_frequency,
)
from pintune.stability import FrequencyTimeSeries, peak_to_peak_deviation
from pintune.transmission import (
    NoiseModel,
    SweepConfig,
    internal_q,
    loaded_q,
    notch_response,
    photon_number,
)

F_BASELINE = 6.8278e9
NM = 1e-9
UM = 1e-6


def noiseless_plant():
    L0 = 1e-9
    params = ResonatorParams(
        L0=L0, C=capacitance_for_frequency(F_BASELINE, L0), Qi0=35000, Qe=5e5
    )
    pin = calibrate_pin_model(F_BASELINE, 6.8454e9, 40e-6, 8.7e3 / 60e-9)
    return Plant(params=params, pin=pin, noise=NoiseModel(0.0, 0.0, 1))


class TestPiezoStep:
    def test_single_step_toward_resonator(self):
        stage = PiezoStage(position=300 * UM)
        piezo_step(stage, -1)
        assert stage.position == pytest.approx(300 * UM - 60 * NM)

    def test_stalls_below_min_voltage(self):
        stage = PiezoStage(position=300 * UM, voltage=20.0)
        with pytest.raises(StageStalled):
            piezo_step(stage, -1)
        assert stage.position == 300 * UM

    def test_additivity(self):
        stage = PiezoStage(position=300 * UM)
        for _ in range(10):
            piezo_step(stage, 1)
        assert stage.position == pytest.approx(300 * UM + 600 * NM)

    def test_voltage_scales_step(self):
        stage = PiezoStage(position=300 * UM, voltage=30.0)
        piezo_step(stage, 1)
        assert stage.position == pytest.approx(300 * UM + 50 * NM)

    def test_mechanical_limit(self):
        stage = PiezoStage(position=40 * UM + 30 * NM)
        with pytest.raises(MechanicalLimit):
            piezo_step(stage, -1, d_min=40 * UM)

    def test_backlash_on_reversal(self):
        stage = PiezoStage(position=300 * UM, backlash=20 * NM)
        piezo_step(stage, 1)
        piezo_step(stage, -1)  # first reversed step loses the backlash
        assert stage.position == pytest.approx(300 * UM + 60 * NM - 40 * NM)

    def test_bad_direction(self):
        with pytest.raises(DomainError):
            piezo_step(PiezoStage(position=300 * UM), 0)

    def test_last_pulse_lands_on_closest_approach(self):
        # 40.06 um as a pulse-by-pulse walk leaves it, 3e-20 m off the grid:
        # the pulse lands 3e-20 m below d_min, within round-off of it.
        stage = PiezoStage(position=4.005999999999997e-05)
        assert piezo_step(stage, -1, d_min=40 * UM) == 40 * UM
        assert stage.position == 40 * UM

    def test_one_call_moves_many_pulses(self):
        stage = PiezoStage(position=300 * UM, backlash=20 * NM, last_direction=1)
        piezo_step(stage, -1, pulses=10)
        assert stage.position == pytest.approx(300 * UM - 40 * NM - 9 * 60 * NM, rel=1e-15)
        assert stage.last_direction == -1

    def test_clamp_reports_the_pulses_issued(self):
        stage = PiezoStage(position=40 * UM + 10.5 * 60 * NM)
        with pytest.raises(MechanicalLimit) as clamp:
            piezo_step(stage, -1, d_min=40 * UM, pulses=15)
        assert clamp.value.issued == 10
        assert stage.position == pytest.approx(40 * UM + 30 * NM, rel=1e-12)
        assert stage.last_direction == -1

    def test_round_off_in_the_count(self):
        # Floor division counts 352 pulses to the floor, 40e-6 * (1 - 1e-9),
        # but the 352nd lands below it in floats, so it is not issued, as in
        # the pulse walk.
        stage = PiezoStage(position=6.111999996e-05)
        with pytest.raises(MechanicalLimit) as clamp:
            piezo_step(stage, -1, d_min=40e-6, pulses=400)
        assert clamp.value.issued == 351
        assert stage.position == 4.005999996e-05

    def test_a_last_pulse_onto_the_floor_is_issued(self):
        # Floor division counts one pulse to the floor here (the room rounds
        # to 0.99999999999993 steps), but the second lands on it, as in the
        # pulse walk, and snaps to d_min.
        stage = PiezoStage(position=40.11999996 * UM)
        with pytest.raises(MechanicalLimit) as clamp:
            piezo_step(stage, -1, d_min=40 * UM, pulses=5)
        assert clamp.value.issued == 2
        assert stage.position == 40 * UM

    def test_a_clamp_stops_at_the_last_pulse_that_fits(self):
        # Starts k steps above the floor, give or take 2 ulp, where round-off
        # decides whether the k-th pulse fits.  By the closed form's landing,
        # every issued pulse lands at or above the floor and one more would
        # land below it.  (The pulse walk sums its pulses in another order and
        # may disagree here by one pulse either way.)
        d_min = 40 * UM
        floor = d_min_floor(d_min)
        step = PiezoStage(position=d_min).step_length
        for k in range(1, 1501):
            start = floor + k * step
            for _ in range(2):
                start = math.nextafter(start, 0.0)
            for _ in range(5):
                def landing(n):
                    return start - (step + (n - 1) * step)

                stage = PiezoStage(position=start)
                with pytest.raises(MechanicalLimit) as clamp:
                    piezo_step(stage, -1, d_min, k + 2)
                n = clamp.value.issued
                assert n in (k - 1, k)
                assert n == 0 or landing(n) >= floor
                assert landing(n + 1) < floor
                assert stage.position == (max(landing(n), d_min) if n else start)
                start = math.nextafter(start, 1.0)

    @pytest.mark.parametrize("backlash", [-1 * NM, float("nan")])
    def test_backlash_must_be_non_negative(self, backlash):
        with pytest.raises(DomainError, match="backlash"):
            PiezoStage(position=300 * UM, backlash=backlash)

    @pytest.mark.parametrize("kwargs", [dict(step_size=1e-300, voltage=1e-30),
                                        dict(step_size=1e300, voltage=1e300)])
    def test_step_length_must_be_finite_and_positive(self, kwargs):
        with pytest.raises(DomainError, match="step_length"):
            PiezoStage(position=300 * UM, **kwargs)


def reference_walk(stage, direction, d_min, pulses):
    """The move as a loop of single pulses with the same tolerance and snap at
    d_min.  Returns (issued, clamped).  The pulses are summed with Kahan's
    compensation: a plain running sum drifts by 1e-12 relative within a few
    thousand pulses, the round-off the closed form avoids."""
    if stage.voltage < stage.min_voltage:
        raise StageStalled("stalled")
    issued, carry = 0, 0.0
    for _ in range(pulses):
        move = stage.step_length
        if stage.last_direction not in (0, direction):
            move = max(move - stage.backlash, 0.0)
        term = direction * move - carry
        new = stage.position + term
        if new < d_min_floor(d_min):
            return issued, True
        carry = (new - stage.position) - term
        stage.position = max(new, d_min)
        stage.last_direction = direction
        issued += 1
    return issued, False


def closed_form_move(stage, direction, d_min, pulses):
    try:
        piezo_step(stage, direction, d_min, pulses)
    except MechanicalLimit as clamp:
        return clamp.issued, True
    return pulses, False


@settings(max_examples=400, deadline=None)
@given(
    start=st.floats(40.0, 700.0) | st.floats(40.0, 41.0),  # um; the second near d_min
    direction=st.sampled_from([-1, 1]),
    last_direction=st.sampled_from([-1, 0, 1]),
    pulses=st.integers(1, RADIUS_MAX),
    backlash=st.sampled_from([0.0, 60.0, 100.0]) | st.floats(0.0, 120.0),  # nm
    voltage=st.floats(25.0, 40.0),
)
def test_closed_form_move_matches_pulse_walk(start, direction, last_direction, pulses,
                                             backlash, voltage):
    def stage():
        return PiezoStage(position=start * UM, voltage=voltage, backlash=backlash * NM,
                          last_direction=last_direction)

    moved, walked = stage(), stage()
    if voltage < moved.min_voltage:
        with pytest.raises(StageStalled):
            closed_form_move(moved, direction, 40 * UM, pulses)
        with pytest.raises(StageStalled):
            reference_walk(walked, direction, 40 * UM, pulses)
        assert moved.position == walked.position == start * UM
        return
    assert (closed_form_move(moved, direction, 40 * UM, pulses)
            == reference_walk(walked, direction, 40 * UM, pulses))
    assert moved.last_direction == walked.last_direction
    assert moved.position == pytest.approx(walked.position, rel=1e-12, abs=0.0)


class TestFrequencySensitivity:
    def test_peak_resolution(self):
        plant = noiseless_plant()
        per_step = frequency_sensitivity(
            TuningState(d=40 * UM), plant.params, plant.pin, step_length=60 * NM
        )
        assert per_step == pytest.approx(8.7e3, rel=0.01)

    def test_tail_resolution(self):
        plant = noiseless_plant()
        per_step = frequency_sensitivity(
            TuningState(d=600 * UM), plant.params, plant.pin, step_length=60 * NM
        )
        assert per_step < 100.0

    def test_zero_step(self):
        plant = noiseless_plant()
        assert frequency_sensitivity(
            TuningState(d=100 * UM), plant.params, plant.pin, step_length=0.0
        ) == 0.0


class TestTuneToTarget:
    def test_converges_to_rb_from_300um(self):
        plant = noiseless_plant()
        stage = PiezoStage(position=300 * UM)
        cfg = ControllerConfig()
        session = tune_to_target(plant, stage, cfg)
        assert session.outcome == "Converged"
        assert abs(session.final_error_hz) <= 0.3e-6 * F_RB
        # independent noiseless re-verification of the final state
        true_err = plant.true_frequency(stage.position) - cfg.f_target
        assert abs(true_err) <= 0.3e-6 * F_RB
        assert len(session.steps) <= 2000

    def test_already_within_tolerance(self):
        plant = noiseless_plant()
        # park the stage where the plant is already on target
        cfg = ControllerConfig(tolerance_ppm=50.0)
        stage = PiezoStage(position=200 * UM)
        cfg = ControllerConfig(
            f_target=plant.true_frequency(200 * UM), tolerance_ppm=0.3
        )
        session = tune_to_target(plant, stage, cfg)
        assert session.outcome == "Converged"
        assert session.total_pulses == 0
        assert len(session.steps) == 1

    def test_unreachable_above_band(self):
        plant = noiseless_plant()
        stage = PiezoStage(position=300 * UM)
        session = tune_to_target(plant, stage, ControllerConfig(f_target=6.86e9))
        assert session.outcome == "Unreachable"
        session = tune_to_target(plant, stage, ControllerConfig(f_target=7.0e9))
        assert session.outcome == "Unreachable"

    def test_unreachable_below_baseline(self):
        plant = noiseless_plant()
        stage = PiezoStage(position=300 * UM)
        session = tune_to_target(plant, stage, ControllerConfig(f_target=6.82e9))
        assert session.outcome == "Unreachable"

    @pytest.mark.parametrize("trim", [0.0, -5e6])
    @pytest.mark.parametrize("end", ["f_low", "f_high"])
    def test_the_band_and_its_tolerance_bound_the_reach(self, end, trim):
        # f_target is Unreachable 1 Hz past f_high + tol or f_low - tol, with
        # tol = 0.3 ppm of f_target; 1 Hz inside, the session takes a reading.
        plant = replace(noiseless_plant(), trim_shift=trim)
        stage = PiezoStage(position=300 * UM)
        f_low, f_high = ControllerModel.of(plant, stage).band()
        edge, out = (f_high / (1 - 0.3e-6), 1.0) if end == "f_high" else (f_low / (1 + 0.3e-6), -1.0)
        outside, inside = (tune_to_target(plant, replace(stage), ControllerConfig(f, max_steps=1))
                           for f in (edge + out, edge - out))
        assert (outside.outcome, len(outside.steps)) == ("Unreachable", 0)
        assert (inside.outcome, len(inside.steps)) == ("StepBudgetExhausted", 1)

    @pytest.mark.parametrize("start_um", [45.0, 150.0, 600.0])
    def test_converges_from_across_the_range(self, start_um):
        plant = noiseless_plant()
        stage = PiezoStage(position=start_um * UM)
        cfg = ControllerConfig()
        session = tune_to_target(plant, stage, cfg)
        assert session.outcome == "Converged"
        assert len(session.steps) <= 2000
        # position never violated the mechanical limit
        assert all(s.position >= plant.pin.d_min for s in session.steps)

    def test_peak_per_step_resolution_on_full_range_session(self):
        # full-range session passing near closest approach sees the peak
        # ~8.7 kHz/step resolution (within 15%)
        plant = noiseless_plant()
        stage = PiezoStage(position=45 * UM)
        cfg = ControllerConfig(f_target=F_RB)
        session = tune_to_target(plant, stage, cfg)
        assert session.outcome == "Converged"
        per_step = [
            abs(session.steps[i + 1].measured_f_r - session.steps[i].measured_f_r)
            / session.steps[i].pulses
            for i in range(len(session.steps) - 1)
            if session.steps[i].pulses
        ]
        assert max(per_step) == pytest.approx(8.7e3, rel=0.15)

    def test_session_log_is_complete(self):
        plant = noiseless_plant()
        stage = PiezoStage(position=280 * UM)
        session = tune_to_target(plant, stage, ControllerConfig())
        assert session.outcome == "Converged"
        assert session.total_pulses == sum(s.pulses for s in session.steps)
        for i, step in enumerate(session.steps):
            assert step.index == i
            assert step.measured_f_r > 0

    def test_step_budget_exhausted(self):
        plant = noiseless_plant()
        stage = PiezoStage(position=600 * UM)  # converges in 3 (TestLearnedGain)
        session = tune_to_target(plant, stage, ControllerConfig(max_steps=2))
        assert session.outcome == "StepBudgetExhausted"
        assert len(session.steps) == 2

    def test_aborts_when_stage_stalled(self):
        plant = noiseless_plant()
        stage = PiezoStage(position=300 * UM, voltage=20.0)
        session = tune_to_target(plant, stage, ControllerConfig())
        assert session.outcome == "Aborted"
        assert "stalled" in session.steps[-1].note


class UnnamedFitFailure(FitFailure):
    """A kind of failed fit that piezo does not name: a reading fails on any
    FitFailure."""


class TestFitFailure:
    """_measure retries a failed fit once on a RETRY_WIDEN times wider sweep,
    and the session aborts when that fails too."""

    def test_widened_sweep_recovers(self, monkeypatch):
        spans = []

        def fails_first(trace, start=None):
            spans.append(trace.frequencies[-1] - trace.frequencies[0])
            if len(spans) == 1:
                raise NoResonance("no dip")
            return fit_resonance(trace, start)

        monkeypatch.setattr(piezo, "fit_resonance", fails_first)
        plant = noiseless_plant()
        session = tune_to_target(plant, PiezoStage(position=300 * UM), ControllerConfig())
        assert session.outcome == "Converged"
        assert spans[1] == pytest.approx(piezo.RETRY_WIDEN * spans[0])
        assert spans[2] == pytest.approx(spans[0])  # the next measurement is back at 1x
        assert len(spans) == len(session.steps) + 1
        first = session.steps[0]
        assert first.note == "" and first.pulses > 0
        assert first.measured_f_r == pytest.approx(plant.true_frequency(300 * UM), abs=100.0)

    @pytest.mark.parametrize("exc", [NoResonance, NonPhysicalFit, ConvergenceFailure, UnnamedFitFailure])
    def test_second_failure_aborts(self, monkeypatch, exc):
        spans = []

        def always_fails(trace, start=None):
            spans.append(trace.frequencies[-1] - trace.frequencies[0])
            raise exc("fit failed")

        monkeypatch.setattr(piezo, "fit_resonance", always_fails)
        stage = PiezoStage(position=300 * UM)
        session = tune_to_target(noiseless_plant(), stage, ControllerConfig())
        assert session.outcome == "Aborted"
        assert spans[1] == pytest.approx(piezo.RETRY_WIDEN * spans[0]) and len(spans) == 2
        assert [step.note for step in session.steps] == [f"fit failed: {exc.__name__}"]
        assert session.steps[0].pulses == 0 and session.total_pulses == 0
        assert stage.position == 300 * UM

    def test_a_retry_draws_fresh_noise(self, monkeypatch):
        """The retry of a failed fit is a second measurement: the session's
        one noise stream gives it the phases and Gaussian gains that follow
        the failed sweep's, not those again.  Each trace is the per-point
        form of its draws, in the order the session took them."""
        traces = []

        def fails_first(trace, start=None):
            traces.append(trace)
            if len(traces) == 1:
                raise NoResonance("no dip")
            return fit_resonance(trace, start)

        monkeypatch.setattr(piezo, "fit_resonance", fails_first)
        plant = replace(noiseless_plant(), noise=NoiseModel(0.005, 0.1 * UM, 5))
        tune_to_target(plant, PiezoStage(position=300 * UM), ControllerConfig(max_steps=1))
        params, state, noise = plant.params, plant.state_at(300 * UM), plant.noise
        f_r = tuned_frequency(params, state, plant.pin)
        jitter = abs(frequency_slope(params, state, plant.pin)) * noise.vib_amplitude
        rng, draws = np.random.Generator(np.random.Philox(5)), []
        for trace in traces:
            n = trace.frequencies.size
            phases, gains = rng.uniform(0.0, 2.0 * math.pi, n), rng.standard_normal(n)
            centre = f_r + jitter * np.sin(phases)
            shape = notch_response(trace.frequencies, centre, loaded_q(params.Qi0, params.Qe),
                                   params.Qe, params.phi)[0]
            expected = np.clip(shape * (1.0 + noise.sigma_rel * gains), 0.0, None)
            assert trace.power_ratio.tobytes() == expected.tobytes()
            draws.append((phases, gains))
        assert len(draws) == 2
        (first_phases, first_gains), (retry_phases, retry_gains) = draws
        assert not np.array_equal(retry_phases, first_phases)
        assert not np.array_equal(retry_gains, first_gains)

    def test_an_unusable_retry_names_its_sweep(self, monkeypatch):
        def always_fails(trace, start=None):
            raise NoResonance("no dip")

        monkeypatch.setattr(piezo, "fit_resonance", always_fails)
        plant = noiseless_plant()
        f = plant.true_frequency(300 * UM)  # the first reading's centre
        with pytest.raises(DomainError) as err:
            tune_to_target(plant, PiezoStage(position=300 * UM), ControllerConfig(sweep_span=3.5e9))
        assert str(err.value) == (
            f"the 4x wider retry sweep runs from {f - 7e9:.6g} to {f + 7e9:.6g} Hz; "
            "SweepConfig needs 0 < f_start < f_stop < inf")


class TestControllerModel:
    @pytest.mark.parametrize("trim", [0.0, -5e6])
    @pytest.mark.parametrize("d_um", [40.0, 155.0, 300.0, 600.0])
    def test_height_for_inverts_frequency(self, d_um, trim):
        plant = replace(noiseless_plant(), trim_shift=trim)
        model = ControllerModel.of(plant, PiezoStage(position=300 * UM))
        assert model.height_for(model.frequency(d_um * UM)) == pytest.approx(d_um * UM, rel=1e-6)

    @pytest.mark.parametrize("trim", [0.0, -5e6])
    def test_band_runs_from_the_baseline_to_closest_approach(self, trim):
        model = ControllerModel.of(replace(noiseless_plant(), trim_shift=trim),
                                   PiezoStage(position=300 * UM))
        d_min = model.pin.d_min
        assert model.band() == (baseline_frequency(model.params, model.state_at(d_min)),
                                model.frequency(d_min))
        assert model.band() == pytest.approx((F_BASELINE + trim, 6.8454e9 + trim), abs=1.0)

    def test_height_for_outside_the_band(self):
        model = ControllerModel.of(noiseless_plant(), PiezoStage(position=300 * UM))
        assert model.height_for(F_BASELINE) == math.inf
        assert model.height_for(6.9e9) == model.pin.d_min


def reading(f_r, f_r_err=10.0, shape=(3.2e4, 5e5, 0.1)):
    """A hand-built converged fit of f_r with standard error f_r_err."""
    q_l, q_e, phi = shape
    return FitResult(f_r, q_l, q_e, internal_q(q_l, q_e), phi, f_r_err, 1.0, 1.0, 1e-3,
                     1e-3, 3, True, "offset")


def belief(start_um=600.0):
    """The noiseless plant's own belief, its height set as a session sets it."""
    model = ControllerModel.of(noiseless_plant(), PiezoStage(position=start_um * UM))
    model.height = start_um * UM
    return model


def judged(gain, pulses=100, clamped=False):
    """A belief after a first reading, a move of `pulses` toward the
    resonator, and a second reading whose df is `gain` times the predicted."""
    model = belief()
    f_first = model.frequency(model.height)
    model.update(reading(f_first), f_first)
    model.moved(-1, pulses, clamped)
    f_belief = model.frequency(model.height)
    model.update(reading(f_first + gain * (f_belief - f_first)), f_belief)
    return model, f_belief - f_first


class TestBelief:
    def test_starts_fresh(self):
        model = belief()
        assert (model.radius, model.trusted, model.offset, model.gain, model.share,
                model.last) == (1, False, 0.0, 1.0, APPROACH_SHORT, None)
        assert model.shape == (loaded_q(35000, 5e5), 5e5, 0.0)
        model.update(reading(F_RB), model.frequency(model.height))
        fresh = replace(model)  # equality compares the four fields only
        assert fresh == model and fresh.offset == 0.0 and model.offset != 0.0
        assert math.isnan(fresh.height)

    def test_an_agreeing_informative_move_sets_the_gain(self):
        model, predicted = judged(1.02)
        noise = AGREE_SIGMA * math.hypot(10.0, 10.0)
        assert abs(predicted) >= INFORMATIVE_BANDS * noise
        assert model.trusted and model.radius == RADIUS_MAX
        assert model.gain == pytest.approx(1.02, rel=1e-9)
        assert model.share == pytest.approx(0.02 + noise / abs(predicted), rel=1e-6)
        assert model.share < APPROACH_SHORT

    @pytest.mark.parametrize("gain,pulses", [(AGREE_MAX * 1.1, 100), (AGREE_MIN * 0.9, 100),
                                             (1.0, 2)])
    def test_a_disagreeing_or_uninformative_move_learns_nothing(self, gain, pulses):
        model, _ = judged(gain, pulses)
        assert (model.trusted, model.gain, model.share) == (False, 1.0, APPROACH_SHORT)

    @pytest.mark.parametrize("f_r_err", [5.0, 20.0])
    def test_a_readings_sigma_sizes_the_radius(self, f_r_err):
        model = belief()
        f_belief = model.frequency(model.height)
        fit = reading(f_belief + 1e3, f_r_err, (3.1e4, 4e5, -0.1))
        model.update(fit, f_belief)
        assert model.radius == informative_size(600 * UM, f_r_err)
        assert model.offset == 1e3 and model.shape == (3.1e4, 4e5, -0.1)
        assert model.last == (f_belief, fit)
        model.update(reading(f_belief, math.nan), f_belief)
        assert model.radius == 1

    def test_a_clamped_move_leaves_nothing_to_judge(self):
        model, _ = judged(1.0, clamped=True)
        assert (model.trusted, model.gain) == (False, 1.0)
        assert judged(1.0)[0].trusted
        model.moved(-1, 10**7, clamped=True)
        assert model.height == model.pin.d_min

    def test_aim_is_capped_by_the_radius(self):
        model = belief()
        f_belief = model.frequency(model.height)
        model.update(reading(f_belief), f_belief)
        assert model.aim(1e6, f_belief, 2e3) == model.radius > 1
        assert model.aim(-1.0, f_belief, 2e3) == 1  # at least one pulse

    @pytest.mark.parametrize("tols,kept", [(1.9, False), (2.5, True)])
    def test_aim_drops_a_shortfall_within_two_tolerances(self, tols, kept):
        model = belief()
        f_belief = model.frequency(model.height)
        model.update(reading(f_belief), f_belief)
        model.radius, tol = RADIUS_MAX, 2e3
        err = tols * tol / APPROACH_SHORT  # a shortfall of `tols` tolerances
        aimed = err - APPROACH_SHORT * err if kept else err
        expected = abs(model.height_for(f_belief - aimed) - model.height) / model.step_length
        assert model.aim(err, f_belief, tol) == round(expected) > 100

    def test_a_session_leaves_the_callers_model_as_it_was(self):
        plant, stage, model = mismatched(lam_factor=0.9)
        first = tune_to_target(plant, replace(stage), ControllerConfig(), model)
        assert first.outcome == "Converged" and len(first.steps) > 2
        assert math.isnan(model.height) and model.last is None
        assert (model.radius, model.trusted, model.offset, model.gain) == (1, False, 0.0, 1.0)
        second = tune_to_target(plant, replace(stage), ControllerConfig(), model)
        assert json.dumps([asdict(s) for s in first.steps]) == json.dumps(
            [asdict(s) for s in second.steps])


def mismatched(lam_factor=1.0, step_nm=60.0, backlash_nm=0.0, start_um=300.0):
    """A noiseless plant and stage that differ from the controller's belief
    (60-nm steps, the calibrated decay length, no backlash)."""
    believed = noiseless_plant()
    model = ControllerModel.of(believed, PiezoStage(position=start_um * UM))
    plant = replace(believed, pin=replace(believed.pin, lam=believed.pin.lam * lam_factor))
    stage = PiezoStage(position=start_um * UM, step_size=step_nm * NM, backlash=backlash_nm * NM)
    return plant, stage, model


# The 17-case grid: decay length x0.9/1.0/1.1, 54/60/66-nm steps and 0/5-nm
# backlash, less the matched case.  The five single-factor cases come first.
MISMATCHES = [
    {"lam_factor": 0.9}, {"lam_factor": 1.1},
    {"step_nm": 54.0}, {"step_nm": 66.0},
    {"backlash_nm": 5.0},
] + [
    {"lam_factor": lam, "step_nm": step, "backlash_nm": backlash}
    for lam in (0.9, 1.0, 1.1) for step in (54.0, 60.0, 66.0) for backlash in (0.0, 5.0)
    if (lam != 1.0) + (step != 60.0) + (backlash != 0.0) > 1
]


class TestModelMismatch:
    @pytest.mark.parametrize("start_um,budget", [(300.0, 30), (600.0, 40)])
    @pytest.mark.parametrize("mismatch", MISMATCHES)
    def test_converges_under_mismatch(self, mismatch, start_um, budget):
        plant, stage, model = mismatched(start_um=start_um, **mismatch)
        cfg = ControllerConfig()
        session = tune_to_target(plant, stage, cfg, model)
        assert session.outcome == "Converged"
        assert abs(plant.true_frequency(stage.position) - cfg.f_target) <= session.tolerance_hz
        assert len(session.steps) <= budget

    @pytest.mark.parametrize("start_um", [300.0, 600.0])
    @pytest.mark.parametrize("mismatch", MISMATCHES)
    def test_measurements_under_mismatch(self, mismatch, start_um):
        # The noiseless worst cases take 5 and 6 measurements.  The budgets
        # catch an aim that ignores the gain the last informative move
        # measured, which needs up to 8 and 17; the runaway bounds above would
        # not.
        plant, stage, model = mismatched(start_um=start_um, **mismatch)
        session = tune_to_target(plant, stage, ControllerConfig(), model)
        assert len(session.steps) <= {300.0: 5, 600.0: 6}[start_um]

    def test_sweeps_centre_on_the_belief(self):
        plant, stage, model = mismatched(lam_factor=1.1)
        session = tune_to_target(plant, stage, ControllerConfig(), model)
        first = session.steps[0]
        assert first.predicted_f_r == model.frequency(300 * UM)
        assert first.true_f_r == plant.true_frequency(300 * UM)
        assert first.true_f_r - first.predicted_f_r > 100e3  # the belief is off

    def test_converges_with_a_trim(self):
        plant = replace(noiseless_plant(), trim_shift=-5e6)
        stage = PiezoStage(position=300 * UM)
        cfg = ControllerConfig()
        session = tune_to_target(plant, stage, cfg)
        assert session.outcome == "Converged"
        assert abs(plant.true_frequency(stage.position) - cfg.f_target) <= session.tolerance_hz
        assert len(session.steps) <= 30


class TestLearnedGain:
    def test_a_long_move_is_aimed_with_the_step_ratio(self):
        # The one-pulse first move measures the real 66-nm step against the 60
        # believed, and the long move that follows is aimed with it.
        plant, stage, model = mismatched(step_nm=66.0, start_um=600.0)
        session = tune_to_target(plant, stage, ControllerConfig(), model)
        first, long_move = session.steps[:2]
        assert (first.pulses, first.gain) == (1, 1.0)
        assert long_move.pulses > 1000
        assert long_move.gain == pytest.approx(66.0 / 60.0, abs=1e-4)

    @pytest.mark.parametrize("start_um", [300.0, 600.0])
    def test_a_matched_session_converges_in_three(self, start_um):
        plant = noiseless_plant()
        stage = PiezoStage(position=start_um * UM)
        cfg = ControllerConfig()
        session = tune_to_target(plant, stage, cfg)
        assert (session.outcome, len(session.steps)) == ("Converged", 3)
        assert abs(plant.true_frequency(stage.position) - cfg.f_target) <= session.tolerance_hz


class TestPulseRadius:
    def test_radius_starts_at_one_pulse_and_grows(self):
        # Noiseless, the first reading's informative size rounds up to the
        # one pulse that piezo_step requires.
        plant = noiseless_plant()
        session = tune_to_target(plant, PiezoStage(position=600 * UM), ControllerConfig())
        assert session.outcome == "Converged"
        radii = [s.radius for s in session.steps]
        assert radii[0] == 1 and session.steps[0].pulses == 1
        assert max(radii) >= 1024
        assert all(s.pulses <= s.radius for s in session.steps)

    @pytest.mark.parametrize("start_steps, trusted_from", [(40.5, 2), (20.5, None)],
                             ids=["room", "clamped"])
    def test_probes_until_a_move_measures_the_gain(self, monkeypatch, start_steps,
                                                   trusted_from):
        # The one rule: each move is capped at its reading's informative size
        # until a move measures the gain, and at RADIUS_MAX from then on; a
        # clamp changes neither.  The target lies past closest approach and
        # the start half a step off the grid, so the session ends clamped
        # half a step above d_min.  The first move's 5000-Hz follow-up reading
        # is too noisy for it to inform.  The second move informs when it
        # has room; from 20.5 steps it is clamped, and a cut move measures
        # nothing.
        errors = [1000.0, 5000.0, 1000.0]
        f_high = noiseless_plant().true_frequency(40 * UM)
        session = reading_errors(monkeypatch, errors, 40.0 + start_steps * 60 * NM / UM,
                                 f_target=f_high + 1e3, max_steps=6)
        assert sum(s.note == "clamped at mechanical limit" for s in session.steps) >= 3
        for k, step in enumerate(session.steps):
            if trusted_from is not None and k >= trusted_from:
                assert step.radius == RADIUS_MAX
            else:
                assert step.radius == informative_size(step.position, errors[min(k, 2)])

    def test_a_reading_without_standard_errors_probes_one_pulse(self, monkeypatch):
        # A fit whose J^T J is not positive definite reports NaN errors: its
        # reading sizes a one-pulse probe, and no move agrees with it.
        session = reading_errors(monkeypatch, [math.nan], max_steps=4)
        assert [(s.radius, s.pulses, s.gain) for s in session.steps] == [(1, 1, 1.0)] * 4

    def test_informative_bands_from_agreement_and_approach(self):
        # An agreeing move that clears the bands bounds the belief's gain
        # where a 5%-short aim still lands no farther than it started.
        assert INFORMATIVE_BANDS == 1.0 / (2.0 / (1.0 - APPROACH_SHORT) - AGREE_MAX)
        assert AGREE_MAX + 1.0 / INFORMATIVE_BANDS == pytest.approx(2.0 / (1.0 - APPROACH_SHORT))
        assert INFORMATIVE_BANDS == pytest.approx(9.5)

    def test_first_radius_is_the_informative_size(self, monkeypatch):
        session = reading_errors(monkeypatch, [100.0], max_steps=1)
        assert session.steps[0].radius == informative_size(600 * UM, 100.0) > 8

    def test_a_noisy_session_sizes_and_lifts(self):
        # The first move falls short of the bands of its two readings, so the
        # radius becomes the second reading's informative size.  The second
        # move clears the bands, measures the gain and lifts the cap: the
        # third move is the first aimed by the gain.
        session = tune_to_target(*noisy(300.0, 2)[:2], ControllerConfig())
        assert [s.radius for s in session.steps[:3]] == [56, 59, RADIUS_MAX]
        assert [s.pulses for s in session.steps[:2]] == [56, 59]
        assert [s.gain for s in session.steps[:2]] == [1.0, 1.0]
        assert session.steps[2].gain != 1.0

    @pytest.mark.parametrize("error", [200.0, 2000.0])
    def test_radius_grows_to_the_informative_size(self, monkeypatch, error):
        # The first move spends the informative radius for a 100-Hz reading,
        # but the next reading's larger error widens its agreement band past
        # 1/INFORMATIVE_BANDS of it: the move agrees and falls short, and the
        # radius becomes the informative size for that reading.
        session = reading_errors(monkeypatch, [100.0, error], max_steps=2)
        first, second = session.steps
        assert first.pulses == first.radius == informative_size(600 * UM, 100.0)
        assert first.error_hz * second.error_hz > 0  # no crossing
        height = 600 * UM + first.direction * first.pulses * 60 * NM  # dead-reckoned
        assert second.radius == informative_size(height, error) > first.radius

    def test_a_move_that_clears_the_bands_lifts_the_cap(self, monkeypatch):
        # A 10-Hz second reading narrows the band under 1/INFORMATIVE_BANDS
        # of the move.
        session = reading_errors(monkeypatch, [100.0, 10.0], max_steps=2)
        assert session.steps[1].radius == RADIUS_MAX

    @pytest.mark.parametrize("error", [float("nan"), math.inf])
    def test_unusable_noise_keeps_the_floor(self, monkeypatch, error):
        session = reading_errors(monkeypatch, [error], max_steps=1)
        assert session.steps[0].radius == 1

    def test_a_flat_belief_keeps_the_floor(self):
        # At 10 cm m**2 underflows: the believed slope is exactly zero.
        plant = noiseless_plant()
        stage = PiezoStage(position=0.1)
        assert frequency_sensitivity(plant.state_at(0.1), plant.params, plant.pin) == 0.0
        session = tune_to_target(plant, stage, ControllerConfig(max_steps=1))
        assert session.steps[0].radius == 1

    def test_radius_stops_growing_at_its_cap(self):
        # From 2 mm the target is ~31,000 pulses away: the first, one-pulse
        # move lifts the radius to RADIUS_MAX, and the second spends all of it.
        session = tune_to_target(noiseless_plant(), PiezoStage(position=2000 * UM),
                                 ControllerConfig())
        assert session.outcome == "Converged"
        assert [s.radius for s in session.steps[:4]] == [1, RADIUS_MAX, RADIUS_MAX, RADIUS_MAX]
        assert session.steps[1].pulses == RADIUS_MAX
        assert max(s.radius for s in session.steps) == RADIUS_MAX

    def test_steps_log_the_truth(self):
        plant = noiseless_plant()
        session = tune_to_target(plant, PiezoStage(position=300 * UM), ControllerConfig())
        for step in session.steps:
            assert step.true_f_r == plant.true_frequency(step.position)
            assert abs(step.measured_f_r - step.true_f_r) < 100.0


def informative_size(height, f_r_err):
    """The pulses whose believed df at `height` on the noiseless plant is
    INFORMATIVE_BANDS agreement bands of two readings of f_r_err."""
    plant = noiseless_plant()
    per_pulse = frequency_sensitivity(plant.state_at(height), plant.params, plant.pin)
    return math.ceil(INFORMATIVE_BANDS * AGREE_SIGMA * math.sqrt(2.0) * f_r_err / per_pulse)


def reading_errors(monkeypatch, errors, start_um=600.0, **controller):
    """A matched noiseless session whose k-th reading reports the standard
    error errors[k] (the last one from then on), its f_r untouched."""
    readings = []

    def fit(trace, start=None):
        readings.append(trace)
        return replace(fit_resonance(trace, start),
                       f_r_err=errors[min(len(readings), len(errors)) - 1])

    monkeypatch.setattr(piezo, "fit_resonance", fit)
    return tune_to_target(noiseless_plant(), PiezoStage(position=start_um * UM),
                          ControllerConfig(**controller))


def replay(plant, model, cfg, start, session):
    """The log and final error a session should have written, rebuilt from a
    copy of its start stage.  Each reading is re-measured at the replayed
    height on the sweep centre the belief predicts, dead-reckoned from the
    pulses issued, its fit started from the lineshape (Q_L, Q_e, phi) of the
    last reading's fit (the belief's own before the first), and each move's
    radius, gain, shortfall and pulses are recomputed from the readings by
    the rules the controller must obey; a fit failure or a stall is taken
    from the log.

    A step that ends the session on its reading (converged, pin does not
    couple, fit failed) logs the radius and gain in force before that
    reading's update.  A move or a stalled step logs them after it, and a
    stalled step its direction but 0 pulses.  A stall ends the session on its
    own reading's error."""
    nan = float("nan")
    tol = session.tolerance_hz
    stage, d = replace(start), start.position
    offset, radius, trusted, final = 0.0, 1, False, nan
    gain, share, last = 1.0, APPROACH_SHORT, None
    shape = (loaded_q(model.params.Qi0, model.params.Qe), model.params.Qe, model.params.phi)
    log, rng = [], plant.noise.stream()  # the session's one noise stream
    for k, logged in enumerate(session.steps):
        f_belief = model.frequency(d)
        step = TuningStep(k, stage.position, nan, nan, 0, 0, nan, 0, "",
                          plant.true_frequency(stage.position), f_belief + offset, radius, gain)
        log.append(step)
        if logged.note.startswith("fit failed"):
            step.note = logged.note
            break
        centre, span = step.predicted_f_r, cfg.sweep_span
        sweep = SweepConfig(centre - span / 2.0, centre + span / 2.0, cfg.sweep_points,
                            cfg.p_in_dbm)
        fit = fit_resonance(plant.sweep(sweep, stage.position, rng, k * cfg.duration_s),
                            InitialGuess(centre, *shape))
        shape = (fit.q_l, fit.q_e, fit.phi)
        err = fit.f_r - cfg.f_target
        step.measured_f_r, step.error_hz = fit.f_r, err
        step.fit_rms, step.fit_iterations = fit.rms_residual, fit.n_iterations
        if abs(err) <= tol or model.pin.m_max == 0:
            step.note = "" if abs(err) <= tol else "pin does not couple"
            final = err
            break
        # A move that was not clamped, agrees with its prediction and clears
        # its own agreement bands measures the gain, crossing or not.  Until
        # one has, the radius is `sized`: the pulses whose believed df clears
        # INFORMATIVE_BANDS agreement bands of this reading, one when the
        # noise or the slope is unusable.  From then on it is RADIUS_MAX.
        if last is not None:
            f_last, fit_last = last
            predicted = f_belief - f_last
            moved = (fit.f_r - fit_last.f_r) * math.copysign(1.0, predicted)
            noise = AGREE_SIGMA * math.hypot(fit_last.f_r_err, fit.f_r_err)
            if (AGREE_MIN * abs(predicted) - noise <= moved <= AGREE_MAX * abs(predicted) + noise
                    and abs(predicted) >= INFORMATIVE_BANDS * noise):
                gain, trusted = moved / abs(predicted), True
                share = min(APPROACH_SHORT, abs(gain - 1.0) + noise / abs(predicted))
        per_pulse = frequency_sensitivity(model.state_at(d), model.params, model.pin,
                                          model.step_length)
        sized = 1
        if per_pulse > 0 and math.isfinite(fit.f_r_err):
            bands = INFORMATIVE_BANDS * AGREE_SIGMA * math.sqrt(2.0) * fit.f_r_err
            sized = max(math.ceil(min(bands / per_pulse, RADIUS_MAX)), 1)
        radius = RADIUS_MAX if trusted else sized
        step.radius, step.gain = radius, gain
        offset = fit.f_r - f_belief
        step.direction = 1 if err > 0 else -1
        final = err
        if logged.note.startswith("stage stalled"):
            step.note = logged.note
            break
        short = share * err if abs(share * err) > 2 * tol else 0.0
        aim = model.height_for(f_belief - (err - short) / gain) - d
        asked = max(int(round(min(abs(aim) / model.step_length, radius))), 1)
        step.pulses, clamped = closed_form_move(stage, step.direction, plant.pin.d_min, asked)
        step.note = "clamped at mechanical limit" if clamped else ""
        d = max(d + step.direction * step.pulses * model.step_length, model.pin.d_min)
        last = None if clamped else (f_belief, fit)
    return log, final


def matched(start_um, **controller):
    plant = noiseless_plant()
    stage = PiezoStage(position=start_um * UM)
    return plant, stage, ControllerModel.of(plant, stage), ControllerConfig(**controller)


def noisy(start_um, seed):
    """A matched session on the benchmark's noise (0.5% of the power ratio,
    0.1-um vibration)."""
    plant = replace(noiseless_plant(), noise=NoiseModel(0.005, 0.1 * UM, seed))
    stage = PiezoStage(position=start_um * UM)
    return plant, stage, ControllerModel.of(plant, stage), ControllerConfig()


def uncoupled():
    """A pin that does not couple, on a plant trimmed 1 MHz above the belief."""
    believed = noiseless_plant()
    d_min = believed.pin.d_min
    believed = replace(believed, pin=PinCouplingModel(m_max=0.0, lam=d_min, d_min=d_min))
    stage = PiezoStage(position=300 * UM)
    model = ControllerModel.of(believed, stage)
    plant = replace(believed, trim_shift=1e6)
    return plant, stage, model, ControllerConfig(f_target=model.frequency(300 * UM))


def against_the_limit():
    """The belief puts the target below closest approach (TestPulseRadius)."""
    plant, stage, model, _ = matched(40.0 + 10.5 * 60 * NM / UM)
    cfg = ControllerConfig(f_target=plant.true_frequency(plant.pin.d_min) + 1e3, max_steps=4)
    return plant, stage, model, cfg


def third_reading_fails(monkeypatch):
    fits = []

    def fit(trace, start=None):  # the third reading's sweep and its wider retry both fail
        fits.append(trace)
        if len(fits) > 2:
            raise NoResonance("no dip")
        return fit_resonance(trace, start)

    monkeypatch.setattr(piezo, "fit_resonance", fit)


def second_move_stalls(monkeypatch):
    moves = []

    def step(stage, direction, d_min=0.0, pulses=1):
        moves.append(pulses)
        if len(moves) == 2:
            stage.voltage = 20.0
        return piezo_step(stage, direction, d_min, pulses)

    monkeypatch.setattr(piezo, "piezo_step", step)


# path: (session, patch, outcome, steps, the last step's (pulses, direction,
# radius, note)).  Noiseless, the first move clears its agreement bands and
# measures the gain, and from then on RADIUS_MAX is the radius: the failed
# and the converged readings log it as in force before their update, the
# stalled, clamped and last budgeted moves after it.  A crossing or a clamp
# leaves it.  The noisy session sizes its first two moves to the noise of
# their readings before the second measures the gain (TestPulseRadius).
EXITS = {
    "converged": (lambda: (*mismatched(lam_factor=0.9), ControllerConfig()), None,
                  "Converged", 5, (0, 0, RADIUS_MAX, "")),
    "noisy": (lambda: noisy(300.0, 2), None, "Converged", 5, (0, 0, RADIUS_MAX, "")),
    "unreachable": (lambda: matched(300.0, f_target=7.0e9), None, "Unreachable", 0, None),
    "pin does not couple": (uncoupled, None, "Unreachable", 1, (0, 0, 1, "pin does not couple")),
    "fit failed": (lambda: matched(600.0), third_reading_fails, "Aborted", 3,
                   (0, 0, RADIUS_MAX, "fit failed: NoResonance")),
    "stage stalled": (lambda: matched(600.0), second_move_stalls, "Aborted", 2,
                      (0, -1, RADIUS_MAX, "stage stalled: 20 V is below the 30 V minimum")),
    "clamped": (against_the_limit, None, "StepBudgetExhausted", 4,
                (0, -1, RADIUS_MAX, "clamped at mechanical limit")),
    "step budget": (lambda: matched(600.0, max_steps=2), None, "StepBudgetExhausted", 2,
                    (7430, -1, RADIUS_MAX, "")),
}


@pytest.mark.parametrize("path", list(EXITS))
def test_one_log_record_per_exit(monkeypatch, path):
    build, patch, outcome, n_steps, last = EXITS[path]
    plant, stage, model, cfg = build()
    start = replace(stage)
    if patch:
        patch(monkeypatch)
    session = tune_to_target(plant, stage, cfg, model)
    assert (session.outcome, len(session.steps)) == (outcome, n_steps)
    if last:
        tail = session.steps[-1]
        assert (tail.pulses, tail.direction, tail.radius, tail.note) == last
        if not tail.note.startswith("fit failed"):  # a stall too ends on its own reading
            assert session.final_error_hz == tail.error_hz
    log, final = replay(plant, model, cfg, start, session)
    if not log:  # refused before any measurement
        final = model.frequency(start.position) - cfg.f_target
    # Every field, NaN included, as the session JSON writes it.
    assert json.dumps([asdict(s) for s in session.steps]) == json.dumps([asdict(s) for s in log])
    assert json.dumps(session.final_error_hz) == json.dumps(final)
    assert session.total_pulses == sum(s.pulses for s in log)


class TestControllerConfigValidation:
    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            ControllerConfig(tolerance_ppm=0.0)

    def test_bad_max_steps(self):
        with pytest.raises(DomainError):
            ControllerConfig(max_steps=0)


def below_d_min_after_reversal():
    """A stage 10 um below a 20 um d_min whose backlash eats a whole pulse."""
    stage = PiezoStage(position=10 * UM, backlash=60 * NM, last_direction=-1)
    return piezo_step(stage, +1, d_min=20 * UM)


# Guards on input from outside the program that no CLI input reaches:
# (call, error, message).
API_GUARDS = {
    "stage position": (lambda: PiezoStage(position=0.0), DomainError,
                       "PiezoStage.position must be > 0"),
    "no pulses": (lambda: piezo_step(PiezoStage(position=300 * UM), -1, pulses=0), DomainError,
                  "pulses must be >= 1"),
    "upward from below d_min": (below_d_min_after_reversal, MechanicalLimit,
                                "step would push the pin below d_min"),
    "negative step": (lambda: frequency_sensitivity(TuningState(d=300 * UM),
                                                    ResonatorParams.at(F_BASELINE, 3.5e4, 5e5),
                                                    PinCouplingModel(0.07, 240 * UM, 40 * UM), -NM),
                      DomainError, "step_length must be >= 0"),
    "believed step": (lambda: ControllerModel(ResonatorParams.at(F_BASELINE, 3.5e4, 5e5),
                                              PinCouplingModel(0.07, 240 * UM, 40 * UM), 0.0),
                      DomainError, "ControllerModel.step_length must be > 0"),
    "pin d_min": (lambda: PinCouplingModel(0.07, 240 * UM, 0.0), DomainError,
                  "PinCouplingModel.d_min must be finite and > 0"),
    "capacitance frequency": (lambda: capacitance_for_frequency(0.0, 1e-9), DomainError,
                              "frequency must be > 0"),
    "capacitance inductance": (lambda: capacitance_for_frequency(F_BASELINE, 0.0), DomainError,
                               "inductance must be > 0"),
    "screened L0": (lambda: screened_inductance(0.0, 0.0), DomainError, "L0 must be > 0"),
    "loaded Q": (lambda: loaded_q(0.0, 5e5), DomainError, "quality factors must be > 0"),
    "internal Q": (lambda: internal_q(0.0, 5e5), DomainError, "quality factors must be > 0"),
    "photon Q": (lambda: photon_number(-131.0, F_BASELINE, 0.0, 5e5), DomainError,
                 "f_r and quality factors must be > 0"),
    "empty series": (lambda: peak_to_peak_deviation(FrequencyTimeSeries([], [], F_BASELINE)),
                     DomainError, "series is empty"),
}


@pytest.mark.parametrize("call,error,message", API_GUARDS.values(), ids=API_GUARDS.keys())
def test_api_guard_raises_its_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
    if error is MechanicalLimit:  # the backlash leaves the first pulse below the floor
        assert err.value.issued == 0
