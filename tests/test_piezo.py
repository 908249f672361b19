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
    MechanicalLimit,
    NonPhysicalFit,
    NoResonance,
    StageStalled,
)
from pintune.fitting import fit_resonance
from pintune.piezo import (
    AGREE_MAX,
    AGREE_SIGMA,
    APPROACH_SHORT,
    F_RB,
    INFORMATIVE_BANDS,
    RADIUS_GROWTH,
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
    calibrate_pin_model,
    capacitance_for_frequency,
    tuned_frequency,
)
from pintune.transmission import NoiseModel, SweepConfig

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
        if new < d_min * (1.0 - 1e-9):
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
        stage = PiezoStage(position=600 * UM)
        session = tune_to_target(plant, stage, ControllerConfig(max_steps=4))
        assert session.outcome == "StepBudgetExhausted"
        assert len(session.steps) == 4

    def test_aborts_when_stage_stalled(self):
        plant = noiseless_plant()
        stage = PiezoStage(position=300 * UM, voltage=20.0)
        session = tune_to_target(plant, stage, ControllerConfig())
        assert session.outcome == "Aborted"
        assert "stalled" in session.steps[-1].note


class TestFitFailure:
    """_measure retries a failed fit once on a RETRY_WIDEN times wider sweep,
    and the session aborts when that fails too."""

    def test_widened_sweep_recovers(self, monkeypatch):
        spans = []

        def fails_first(trace):
            spans.append(trace.frequencies[-1] - trace.frequencies[0])
            if len(spans) == 1:
                raise NoResonance("no dip")
            return fit_resonance(trace)

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

    @pytest.mark.parametrize("exc", [NoResonance, NonPhysicalFit, ConvergenceFailure])
    def test_second_failure_aborts(self, monkeypatch, exc):
        spans = []

        def always_fails(trace):
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


class TestControllerModel:
    @pytest.mark.parametrize("trim", [0.0, -5e6])
    @pytest.mark.parametrize("d_um", [40.0, 155.0, 300.0, 600.0])
    def test_height_for_inverts_frequency(self, d_um, trim):
        plant = replace(noiseless_plant(), trim_shift=trim)
        model = ControllerModel.of(plant, PiezoStage(position=300 * UM))
        assert model.height_for(model.frequency(d_um * UM)) == pytest.approx(d_um * UM, rel=1e-6)

    def test_height_for_outside_the_band(self):
        model = ControllerModel.of(noiseless_plant(), PiezoStage(position=300 * UM))
        assert model.height_for(F_BASELINE) == math.inf
        assert model.height_for(6.9e9) == model.pin.d_min


def mismatched(lam_factor=1.0, step_nm=60.0, backlash_nm=0.0, start_um=300.0):
    """A noiseless plant and stage that differ from the controller's belief
    (60-nm steps, the calibrated decay length, no backlash)."""
    believed = noiseless_plant()
    model = ControllerModel.of(believed, PiezoStage(position=start_um * UM))
    plant = replace(believed, pin=replace(believed.pin, lam=believed.pin.lam * lam_factor))
    stage = PiezoStage(position=start_um * UM, step_size=step_nm * NM, backlash=backlash_nm * NM)
    return plant, stage, model


MISMATCHES = [
    {"lam_factor": 0.9}, {"lam_factor": 1.1},
    {"step_nm": 54.0}, {"step_nm": 66.0},
    {"backlash_nm": 5.0},
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
        # The noiseless worst cases take 8 and 13 measurements.  The budgets
        # catch a radius that only grows eightfold per agreeing move, whatever
        # the noise, which needs 9 and 16; the runaway bounds above would not.
        plant, stage, model = mismatched(start_um=start_um, **mismatch)
        session = tune_to_target(plant, stage, ControllerConfig(), model)
        assert len(session.steps) <= {300.0: 8, 600.0: 14}[start_um]

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


class TestPulseRadius:
    def test_radius_starts_at_steps_per_measurement_and_grows(self):
        plant = noiseless_plant()
        session = tune_to_target(plant, PiezoStage(position=600 * UM),
                                 ControllerConfig(steps_per_measurement=4))
        assert session.outcome == "Converged"
        radii = [s.radius for s in session.steps]
        assert radii[0] == 4 and session.steps[0].pulses == 4
        assert max(radii) >= 1024
        assert all(s.pulses <= s.radius for s in session.steps)

    def test_radius_halves_on_a_clamp(self):
        # The belief puts the target below its closest approach, so every
        # move runs into the real stage's limit.  The start is off the step
        # grid, so the last pulse that fits stops half a step above d_min.
        plant = noiseless_plant()
        stage = PiezoStage(position=40 * UM + 10.5 * 60 * NM)
        cfg = ControllerConfig(f_target=plant.true_frequency(plant.pin.d_min) + 1e3,
                               max_steps=6)
        session = tune_to_target(plant, stage, cfg)
        clamped = [s for s in session.steps if s.note == "clamped at mechanical limit"]
        assert clamped
        for step, nxt in zip(session.steps, session.steps[1:]):
            if step.note:
                assert nxt.radius == max(step.radius // 2, 1)

    def test_informative_bands_from_agreement_and_approach(self):
        # An agreeing move that clears the bands bounds the belief's gain
        # where a 5%-short aim still lands no farther than it started.
        assert INFORMATIVE_BANDS == 1.0 / (2.0 / (1.0 - APPROACH_SHORT) - AGREE_MAX)
        assert AGREE_MAX + 1.0 / INFORMATIVE_BANDS == pytest.approx(2.0 / (1.0 - APPROACH_SHORT))
        assert INFORMATIVE_BANDS == pytest.approx(9.5)

    def test_first_radius_is_the_informative_size(self, monkeypatch):
        session = reading_errors(monkeypatch, [100.0], max_steps=1)
        assert session.steps[0].radius == informative_size(600 * UM, 100.0) > 8

    def test_radius_grows_eightfold_per_agreeing_move(self, monkeypatch):
        # The first move predicts the informative df for a 100-Hz reading,
        # but the next reading's 200 Hz widens its agreement band past
        # 1/INFORMATIVE_BANDS of it: it falls short, and the radius grows
        # eightfold, which beats the informative size for 200 Hz.  The second
        # move clears the bands and lifts the cap.
        session = reading_errors(monkeypatch, [100.0, 200.0])
        assert session.outcome == "Converged"
        first, second, third = session.steps[:3]
        assert second.radius == RADIUS_GROWTH * first.radius
        assert (first.pulses, second.pulses) == (first.radius, second.radius)
        assert third.radius == RADIUS_MAX

    def test_a_noisy_session_sizes_grows_and_lifts(self):
        # The first move falls short of the bands of its two readings, and
        # eightfold beats the second reading's informative size.
        session = tune_to_target(*noisy(300.0, 5)[:2], ControllerConfig())
        assert [s.radius for s in session.steps[:3]] == [56, RADIUS_GROWTH * 56, RADIUS_MAX]
        assert [s.pulses for s in session.steps[:2]] == [56, RADIUS_GROWTH * 56]

    def test_radius_grows_to_the_informative_size(self, monkeypatch):
        # A 2-kHz second reading falls short by far more than eightfold.
        session = reading_errors(monkeypatch, [100.0, 2000.0], max_steps=2)
        first, second = session.steps
        height = 600 * UM + first.direction * first.pulses * 60 * NM  # dead-reckoned
        assert second.radius == informative_size(height, 2000.0) > RADIUS_GROWTH * first.radius

    def test_a_move_that_clears_the_bands_lifts_the_cap(self, monkeypatch):
        # A 10-Hz second reading narrows the band under 1/INFORMATIVE_BANDS
        # of the move.
        session = reading_errors(monkeypatch, [100.0, 10.0], max_steps=2)
        assert session.steps[1].radius == RADIUS_MAX

    @pytest.mark.parametrize("error", [float("nan"), math.inf])
    def test_unusable_noise_keeps_the_floor(self, monkeypatch, error):
        session = reading_errors(monkeypatch, [error], max_steps=1)
        assert session.steps[0].radius == 8

    def test_a_flat_belief_keeps_the_floor(self):
        # At 10 cm m**2 underflows: the believed slope is exactly zero.
        plant = noiseless_plant()
        stage = PiezoStage(position=0.1)
        assert frequency_sensitivity(plant.state_at(0.1), plant.params, plant.pin) == 0.0
        session = tune_to_target(plant, stage, ControllerConfig(max_steps=1))
        assert session.steps[0].radius == 8

    def test_radius_stops_growing_at_its_cap(self):
        # From 2 mm the target is ~31,000 pulses away: the second move spends
        # a full radius of RADIUS_MAX, which would otherwise grow again.
        session = tune_to_target(noiseless_plant(), PiezoStage(position=2000 * UM),
                                 ControllerConfig(steps_per_measurement=RADIUS_MAX // 4))
        assert session.outcome == "Converged"
        assert [s.radius for s in session.steps[:4]] == [RADIUS_MAX // 4, RADIUS_MAX,
                                                         RADIUS_MAX, RADIUS_MAX]
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

    def fit(trace):
        readings.append(trace)
        return replace(fit_resonance(trace), f_r_err=errors[min(len(readings), len(errors)) - 1])

    monkeypatch.setattr(piezo, "fit_resonance", fit)
    return tune_to_target(noiseless_plant(), PiezoStage(position=start_um * UM),
                          ControllerConfig(**controller))


def replay(plant, model, cfg, start, session):
    """The log and final error a session should have written, rebuilt from a
    copy of its start stage.  Each reading is re-measured at the replayed
    height on the sweep centre the belief predicts, dead-reckoned from the
    pulses issued; a fit failure or a stall is taken from the log, as is the
    radius a move logs, which is checked against the rule it must obey.

    A step that ends the session on its reading (converged, pin does not
    couple, fit failed) logs the radius in force before that reading's
    update.  A move or a stalled step logs the radius after it, and a stalled
    step its direction but 0 pulses.  A stall ends the session on its own
    reading's error."""
    nan = float("nan")
    tol = session.tolerance_hz
    stage, d = replace(start), start.position
    offset, radius, last_err, final = 0.0, cfg.steps_per_measurement, None, nan
    log = []
    for k, logged in enumerate(session.steps):
        f_belief = model.frequency(d)
        step = TuningStep(k, stage.position, nan, nan, 0, 0, nan, 0, "",
                          plant.true_frequency(stage.position), f_belief + offset, radius)
        log.append(step)
        if logged.note.startswith("fit failed"):
            step.note = logged.note
            break
        centre, span = step.predicted_f_r, cfg.sweep_span
        sweep = SweepConfig(centre - span / 2.0, centre + span / 2.0, cfg.sweep_points,
                            cfg.p_in_dbm)
        fit = fit_resonance(plant.sweep(sweep, stage.position, k, k * cfg.duration_s))
        err = fit.f_r - cfg.f_target
        step.measured_f_r, step.error_hz = fit.f_r, err
        step.fit_rms, step.fit_iterations = fit.rms_residual, fit.n_iterations
        if abs(err) <= tol or model.pin.m_max == 0:
            step.note = "" if abs(err) <= tol else "pin does not couple"
            final = err
            break
        # `sized`: the pulses whose believed df clears INFORMATIVE_BANDS
        # agreement bands of this reading, the floor when the noise or the
        # slope is unusable.  The first reading sets the radius to it.  After
        # a move the update halves the radius on a crossing, and otherwise
        # halves, keeps, grows or lifts it.
        per_pulse = frequency_sensitivity(model.state_at(d), model.params, model.pin,
                                          model.step_length)
        sized = cfg.steps_per_measurement
        if per_pulse > 0 and math.isfinite(fit.f_r_err):
            bands = INFORMATIVE_BANDS * AGREE_SIGMA * math.sqrt(2.0) * fit.f_r_err
            sized = max(math.ceil(min(bands / per_pulse, RADIUS_MAX)), sized)
        allowed = {radius}
        if k == 0:
            allowed = {sized}
        elif last_err is not None:
            allowed = {max(radius // 2, 1)}
            if err * last_err > 0:
                allowed |= {radius, min(max(RADIUS_GROWTH * radius, sized), RADIUS_MAX),
                            RADIUS_MAX}
        assert logged.radius in allowed
        step.radius = radius = logged.radius
        offset = fit.f_r - f_belief
        step.direction = 1 if err > 0 else -1
        final = err
        if logged.note.startswith("stage stalled"):
            step.note = logged.note
            break
        clamped = logged.note == "clamped at mechanical limit"
        asked = radius if clamped else logged.pulses
        assert 1 <= asked <= radius
        step.pulses, was_clamped = closed_form_move(stage, step.direction, plant.pin.d_min, asked)
        assert was_clamped == clamped
        step.note = logged.note
        d = max(d + step.direction * step.pulses * model.step_length, model.pin.d_min)
        last_err = err
        if clamped:
            radius, last_err = max(radius // 2, 1), None
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

    def fit(trace):  # the third reading's sweep and its wider retry both fail
        fits.append(trace)
        if len(fits) > 2:
            raise NoResonance("no dip")
        return fit_resonance(trace)

    monkeypatch.setattr(piezo, "fit_resonance", fit)


def third_move_stalls(monkeypatch):
    moves = []

    def step(stage, direction, d_min=0.0, pulses=1):
        moves.append(pulses)
        if len(moves) == 3:
            stage.voltage = 20.0
        return piezo_step(stage, direction, d_min, pulses)

    monkeypatch.setattr(piezo, "piezo_step", step)


# path: (session, patch, outcome, steps, the last step's (pulses, direction,
# radius, note)).  Noiseless, the first move clears the agreement bands and
# lifts the radius to RADIUS_MAX: the converged and the failed readings log
# it as in force before their update, the stalled and the last budgeted
# moves after it.  The clamped move logs half of it, after an earlier clamp.
# The noisy session sizes its first move to the noise, grows the next
# eightfold and then lifts the cap (TestPulseRadius).
EXITS = {
    "converged": (lambda: (*mismatched(lam_factor=0.9), ControllerConfig()), None,
                  "Converged", 5, (0, 0, RADIUS_MAX, "")),
    "noisy": (lambda: noisy(300.0, 5), None, "Converged", 7, (0, 0, RADIUS_MAX, "")),
    "unreachable": (lambda: matched(300.0, f_target=7.0e9), None, "Unreachable", 0, None),
    "pin does not couple": (uncoupled, None, "Unreachable", 1, (0, 0, 8, "pin does not couple")),
    "fit failed": (lambda: matched(600.0), third_reading_fails, "Aborted", 3,
                   (0, 0, RADIUS_MAX, "fit failed: NoResonance")),
    "stage stalled": (lambda: matched(600.0), third_move_stalls, "Aborted", 3,
                      (0, -1, RADIUS_MAX, "stage stalled: 20 V is below the 30 V minimum")),
    "clamped": (against_the_limit, None, "StepBudgetExhausted", 4,
                (0, -1, RADIUS_MAX // 2, "clamped at mechanical limit")),
    "step budget": (lambda: matched(600.0, max_steps=4), None, "StepBudgetExhausted", 4,
                    (4, -1, RADIUS_MAX, "")),
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
