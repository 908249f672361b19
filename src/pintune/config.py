"""Experiment configuration: one JSON document describing a full virtual
experiment (resonator, pin calibration anchors, noise, sweep defaults, stage
and controller settings).

Config files use lab-friendly units (GHz, MHz, um, nm, dBm); everything is
converted to SI on load.  FIELDS holds each field's default, unit, rule and
the argument it feeds, and any violation is reported as a ValidationError
naming the field.
"""

import copy
import json
import operator
import sys
from dataclasses import dataclass

from .errors import CalibrationError, DomainError, ValidationError
from .fitting import MIN_POINTS
from .piezo import F_RB, ControllerConfig, ControllerModel, PiezoStage, Plant, reading_sweeps
from .resonator import PinCouplingModel, ResonatorParams, TuningState, calibrate_pin_model
from .transmission import NoiseModel

# The most points a sweep may take: a VNA sweep takes at most about 1e5, and
# one tune reading at 1e6 already holds about 0.15 GB.
MAX_POINTS = 10**6

# Lab units in SI: config fields and CLI flags are given in them, and every
# model object takes SI (Hz, m, F; power in dBm).
GHz = 1e9
MHz = 1e6
um = 1e-6
nm = 1e-9

# section -> key -> (default, SI factor, rule, argument); the defaults are the
# paper's Nb resonator trimmed to 6.8278 GHz, with the pin calibrated on its
# tuning curve.  Each field must be a number (an int if its default is), finite,
# and in SI pass its rule, one bound or two joined by ", "; one with no rule is
# checked by the object it builds.
# The argument is the constructor keyword it feeds (None: from_dict wires it).
FIELDS = {
    "resonator": {
        "f_baseline_ghz": (6.8278, GHz, "> 0", "f_baseline"),
        "qi0": (35000.0, 1, None, "Qi0"),
        "qe": (5.0e5, 1, None, "Qe"),
        "phi": (0.0, 1, None, "phi"),
    },
    "calibration": {
        "f_baseline_ghz": (6.8278, GHz, None, "f_baseline"),
        "f_closest_ghz": (6.8454, GHz, None, "f_closest"),
        "d_min_um": (40.0, um, None, "d_min"),
        "peak_sensitivity_hz_per_m": (8.7e3 / 60e-9, 1, None, "peak_sensitivity"),
    },
    "state": {
        "d_um": (300.0, um, None, "d"),
        "trim_shift_mhz": (0.0, MHz, "<= 0", "trim_shift"),
    },
    "noise": {
        "sigma_rel": (0.0, 1, None, "sigma_rel"),
        "vib_amplitude_um": (0.0, um, None, "vib_amplitude"),
        "seed": (20120828, 1, ">= 0", "seed"),
    },
    "sweep": {
        "span_mhz": (6.0, MHz, "> 0", "span"),
        "n_points": (1601, 1, f">= 2, <= {MAX_POINTS}", "n_points"),
        "p_in_dbm": (-131.0, 1, None, "p_in_dbm"),
        "duration_s": (160.0, 1, "> 0", None),
    },
    "stage": {
        "step_size_nm": (60.0, nm, None, "step_size"),
        "voltage_v": (36.0, 1, None, "voltage"),
        "reference_voltage_v": (36.0, 1, None, "reference_voltage"),
        "min_voltage_v": (30.0, 1, None, "min_voltage"),
        "backlash_nm": (0.0, nm, None, "backlash"),
    },
    "controller": {
        "f_target_ghz": (F_RB / GHz, GHz, "> 0", "f_target"),
        "tolerance_ppm": (0.3, 1, None, "tolerance_ppm"),
        "max_steps": (2000, 1, None, "max_steps"),
        "sweep_points": (1201, 1, f">= {MIN_POINTS}, <= {MAX_POINTS}", "sweep_points"),
        "sweep_span_mhz": (6.0, MHz, "> 0", "sweep_span"),
    },
}
DEFAULT_CONFIG = {section: {key: row[0] for key, row in fields.items()}
                  for section, fields in FIELDS.items()}
_RULES = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


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


def check(name, value, default, factor, rule):
    """value * factor, if value is a number (an int if default is) that is
    finite in SI and passes each bound of rule; otherwise a ValidationError
    naming `name` and the first bound it breaks."""
    if isinstance(value, bool) or not isinstance(value, (type(default), int)):
        kind = "an integer" if isinstance(default, int) else "a number"
        raise ValidationError(f"{name}: expected {kind}, got {value!r}")
    si = value * factor if abs(value) <= sys.float_info.max else float("inf")
    if not abs(si) <= sys.float_info.max:  # NaN, inf, or past the float range
        raise ValidationError(f"{name}: must be finite")
    for bound in rule.split(", ") if rule else ():
        op, _, limit = bound.partition(" ")
        if not _RULES[op](si, float(limit)):
            raise ValidationError(f"{name}: must be {bound}")
    return si


def read_field(section, key, value):
    """A value of the field section.key in SI, checked by its FIELDS row."""
    default, factor, rule, _ = FIELDS[section][key]
    return check(f"{section}.{key}", value, default, factor, rule)


def _read(doc):
    """Every field's SI value by (section, key), checked in FIELDS order."""
    out = {}
    for section, fields in FIELDS.items():
        if not isinstance(doc[section], dict):
            raise ValidationError(f"{section}: expected an object")
        for key in fields:
            out[section, key] = read_field(section, key, doc[section][key])
    return out


def from_dict(user_doc=None):
    """Build an ExperimentConfig from a (partial) document merged over the
    defaults.  Raises ValidationError naming the first offending field."""
    doc = _merge(DEFAULT_CONFIG, user_doc or {})
    v = _read(doc)

    def build(section, ctor, **extra):
        kwargs = {arg: v[section, key] for key, (*_, arg) in FIELDS[section].items() if arg}
        try:
            return ctor(**kwargs, **extra)
        except (CalibrationError, DomainError) as exc:
            raise ValidationError(f"{section}: {exc}") from exc

    params = build("resonator", ResonatorParams.at)
    pin = build("calibration", calibrate_pin_model)
    state = build("state", TuningState)
    if state.d < pin.d_min:
        raise ValidationError("state.d_um: below calibration.d_min_um")

    noise = build("noise", NoiseModel)
    sweep = build("sweep", SweepDefaults)
    stage = build("stage", PiezoStage, position=state.d)
    if stage.voltage < stage.min_voltage:  # a stage that can never move
        raise ValidationError("stage.voltage_v: below stage.min_voltage_v")
    controller = build("controller", ControllerConfig,
                       p_in_dbm=sweep.p_in_dbm, duration_s=v["sweep", "duration_s"])
    try:  # the band the session's belief tunes over, as tune_to_target asks it
        f_low, f_high = ControllerModel(params, pin, stage.step_length, state.trim_shift).band()
    except (ArithmeticError, DomainError) as exc:
        raise ValidationError(
            f"resonator: no finite resonance with this calibration ({exc})") from None
    for f in (f_high, f_low):  # every sweep of a reading centred on each end of the band
        try:
            list(reading_sweeps(controller, f))
        except DomainError as exc:
            raise ValidationError(f"controller.sweep_span_mhz: {exc}") from None

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
