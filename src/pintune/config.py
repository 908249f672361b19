"""Experiment configuration: one JSON document describing a full virtual
experiment (resonator, pin calibration anchors, noise, sweep defaults, stage
and controller settings).

Config files use lab-friendly units (GHz, MHz, um, nm, nH, dBm); everything
is converted to SI on load.  Any invariant violation is reported as a
ValidationError naming the offending field.
"""

import copy
import json
import sys
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .piezo import ControllerConfig, PiezoStage, Plant
from .resonator import (
    PinCouplingModel,
    ResonatorParams,
    TuningState,
    calibrate_pin_model,
    capacitance_for_frequency,
    tuned_frequency,
)
from .transmission import NoiseModel
from .units import GHz, MHz, nH, nm, um

DEFAULT_CONFIG = {
    # Paper-anchored virtual experiment: Nb resonator coarse-trimmed to
    # 6.8278 GHz, pin calibration from the measured tuning curve.
    "resonator": {
        "l0_nh": 1.0,
        "f_baseline_ghz": 6.8278,
        "qi0": 35000.0,
        "qe": 5.0e5,
        "phi": 0.0,
    },
    "calibration": {
        "f_baseline_ghz": 6.8278,
        "f_closest_ghz": 6.8454,
        "d_min_um": 40.0,
        "peak_sensitivity_hz_per_m": 8.7e3 / 60e-9,
    },
    "state": {
        "d_um": 300.0,
        "trim_shift_mhz": 0.0,
    },
    "noise": {
        "sigma_rel": 0.0,
        "vib_amplitude_um": 0.0,
        "seed": 20120828,
    },
    "sweep": {
        "span_mhz": 6.0,
        "n_points": 1601,
        "p_in_dbm": -131.0,
        "duration_s": 160.0,
    },
    "stage": {
        "step_size_nm": 60.0,
        "voltage_v": 36.0,
        "reference_voltage_v": 36.0,
        "min_voltage_v": 30.0,
        "backlash_nm": 0.0,
    },
    "controller": {
        "f_target_ghz": 6.834683,
        "tolerance_ppm": 0.3,
        "max_steps": 2000,
        "steps_per_measurement": 8,
        "sweep_points": 1201,
        "sweep_span_mhz": 6.0,
    },
}


@dataclass
class SweepDefaults:
    span: float        # Hz, centered on the tuned resonance unless overridden
    n_points: int
    p_in_dbm: float


@dataclass
class ExperimentConfig:
    params: ResonatorParams
    pin: PinCouplingModel
    state: TuningState
    noise: NoiseModel
    sweep: SweepDefaults
    stage: PiezoStage
    controller: ControllerConfig
    raw: dict  # the merged document, for provenance snapshots

    def plant(self):
        return Plant(
            params=self.params,
            pin=self.pin,
            noise=self.noise,
            trim_shift=self.state.trim_shift,
        )


def _merge(base, override, prefix=""):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise ValidationError(f"{prefix}{key}: unknown field")
        if isinstance(value, dict) and isinstance(out[key], dict):
            out[key] = _merge(out[key], value, f"{prefix}{key}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _get(doc, section, key, kind=(int, float)):
    try:
        value = doc[section][key]
    except (KeyError, TypeError):
        raise ValidationError(f"{section}.{key}: missing") from None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"{section}.{key}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int past the float range
        raise ValidationError(f"{section}.{key}: must be finite")
    return value


def from_dict(user_doc=None):
    """Build an ExperimentConfig from a (partial) document merged over the
    defaults.  Raises ValidationError naming the first offending field."""
    doc = _merge(DEFAULT_CONFIG, user_doc or {})

    def build(section, ctor, kwargs):
        try:
            return ctor(**kwargs)
        except DomainError as exc:
            raise ValidationError(f"{section}: {exc}") from exc

    l0 = _get(doc, "resonator", "l0_nh") * nH
    if not l0 > 0:
        raise ValidationError("resonator.l0_nh: must be > 0")
    f_baseline = _get(doc, "resonator", "f_baseline_ghz") * GHz
    if not f_baseline > 0:
        raise ValidationError("resonator.f_baseline_ghz: must be > 0")
    params = build("resonator", ResonatorParams, dict(
        L0=l0,
        C=capacitance_for_frequency(f_baseline, l0),
        Qi0=_get(doc, "resonator", "qi0"),
        Qe=_get(doc, "resonator", "qe"),
        phi=_get(doc, "resonator", "phi"),
    ))

    try:
        pin = calibrate_pin_model(
            f_baseline=_get(doc, "calibration", "f_baseline_ghz") * GHz,
            f_closest=_get(doc, "calibration", "f_closest_ghz") * GHz,
            d_min=_get(doc, "calibration", "d_min_um") * um,
            peak_sensitivity=_get(doc, "calibration", "peak_sensitivity_hz_per_m"),
        )
    except Exception as exc:
        raise ValidationError(f"calibration: {exc}") from exc

    state = build("state", TuningState, dict(
        d=_get(doc, "state", "d_um") * um,
        trim_shift=_get(doc, "state", "trim_shift_mhz") * MHz,
    ))
    if state.trim_shift > 0:
        raise ValidationError("state.trim_shift_mhz: must be <= 0 (added capacitance)")
    if state.d < pin.d_min:
        raise ValidationError("state.d_um: below calibration.d_min_um")
    try:  # the tuning band's ends, from d_min to the start height
        for d in (pin.d_min, state.d):
            tuned_frequency(params, TuningState(d=d, trim_shift=state.trim_shift), pin)
    except (ArithmeticError, DomainError) as exc:
        raise ValidationError(
            f"resonator: no finite resonance with this calibration ({exc})") from None

    seed = _get(doc, "noise", "seed", kind=int)
    if seed < 0:
        raise ValidationError("noise.seed: must be >= 0")
    noise = build("noise", NoiseModel, dict(
        sigma_rel=_get(doc, "noise", "sigma_rel"),
        vib_amplitude=_get(doc, "noise", "vib_amplitude_um") * um,
        seed=seed,
    ))

    n_points = _get(doc, "sweep", "n_points", kind=int)
    if n_points < 2:
        raise ValidationError("sweep.n_points: must be >= 2")
    span = _get(doc, "sweep", "span_mhz") * MHz
    if not span > 0:
        raise ValidationError("sweep.span_mhz: must be > 0")
    duration = _get(doc, "sweep", "duration_s")
    if not duration > 0:
        raise ValidationError("sweep.duration_s: must be > 0")
    sweep = SweepDefaults(
        span=span,
        n_points=n_points,
        p_in_dbm=_get(doc, "sweep", "p_in_dbm"),
    )

    stage = build("stage", PiezoStage, dict(
        position=state.d,
        voltage=_get(doc, "stage", "voltage_v"),
        step_size=_get(doc, "stage", "step_size_nm") * nm,
        reference_voltage=_get(doc, "stage", "reference_voltage_v"),
        min_voltage=_get(doc, "stage", "min_voltage_v"),
        backlash=_get(doc, "stage", "backlash_nm") * nm,
    ))

    f_target = _get(doc, "controller", "f_target_ghz") * GHz
    if not f_target > 0:
        raise ValidationError("controller.f_target_ghz: must be > 0")
    sweep_points = _get(doc, "controller", "sweep_points", kind=int)
    if sweep_points < 2:
        raise ValidationError("controller.sweep_points: must be >= 2")
    sweep_span = _get(doc, "controller", "sweep_span_mhz") * MHz
    if not sweep_span > 0:
        raise ValidationError("controller.sweep_span_mhz: must be > 0")
    controller = build("controller", ControllerConfig, dict(
        f_target=f_target,
        tolerance_ppm=_get(doc, "controller", "tolerance_ppm"),
        max_steps=_get(doc, "controller", "max_steps", kind=int),
        steps_per_measurement=_get(doc, "controller", "steps_per_measurement", kind=int),
        sweep_points=sweep_points,
        sweep_span=sweep_span,
        p_in_dbm=sweep.p_in_dbm,
        duration_s=duration,
    ))

    return ExperimentConfig(
        params=params,
        pin=pin,
        state=state,
        noise=noise,
        sweep=sweep,
        stage=stage,
        controller=controller,
        raw=doc,
    )


def load_config(path=None):
    """Load a config file (JSON) merged over the defaults; None loads the
    defaults themselves."""
    if path is None:
        return from_dict({})
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"config file {path}: top level must be an object")
    return from_dict(doc)
