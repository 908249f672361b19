"""Command-line surface.

Verbs:
  simulate   synthesize a sweep of the virtual plant -> trace CSV
  fit        extract resonance parameters from a trace -> JSON
  tune       run the closed-loop tuner on the virtual plant -> session JSON
  drift      drift/oscillation report for an f_r time series -> JSON
  calibrate  solve the pin-coupling model from tuning-curve anchors -> JSON

Exit codes: 0 success/converged, 2 validation or unwritable output, 3 no
resonance, 4 non-physical fit, 5 unreachable target, 6 convergence failure:
a fit out of iterations, or a tune session that ended StepBudgetExhausted or
Aborted (a reading whose fit failed twice).
"""

import argparse
import sys

from . import io as pio
from ._lazy import numpy as np
from .config import FIELDS, GHz, check, from_dict, load_config, read_field
from .errors import (
    CalibrationError,
    ConvergenceFailure,
    DomainError,
    NonPhysicalFit,
    NoResonance,
    ValidationError,
)
from .fitting import fit_resonance
from .piezo import tune_to_target
from .resonator import ResonatorParams, TuningState, calibrate_pin_model, frequency_slope, tuned_frequency
from .stability import NoOscillation, allan_deviation, detect_oscillation, drift_rate, peak_to_peak_deviation
from .transmission import SweepConfig, synthesize_sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_RESONANCE = 3
EXIT_NON_PHYSICAL = 4
EXIT_UNREACHABLE = 5
EXIT_CONVERGENCE = 6


# The flags that set a config field, argparse dest -> (section, key); each
# given one is checked like a field of the config file.  _load lays them over
# the config; calibrate loads none and reads its anchors by their rows alone.
CONFIG_FLAGS = {
    "seed": ("noise", "seed"),
    "span_mhz": ("sweep", "span_mhz"),
    "n_points": ("sweep", "n_points"),
    "target_ghz": ("controller", "f_target_ghz"),
    "tolerance_ppm": ("controller", "tolerance_ppm"),
    "f_baseline_ghz": ("calibration", "f_baseline_ghz"),
    "f_closest_ghz": ("calibration", "f_closest_ghz"),
    "d_min_um": ("calibration", "d_min_um"),
    "peak_sensitivity": ("calibration", "peak_sensitivity_hz_per_m"),
}
# The number flags that set no config field, argparse dest -> (SI factor,
# rule); each is checked the same way, under its flag's name.
VALUE_FLAGS = {
    "center_ghz": (GHz, "> 0"),
    "f0_ghz": (GHz, "> 0"),
    "p_in_dbm": (1, None),
}


def _load(args):
    """The config file or the defaults, with each given CONFIG_FLAGS flag laid over it."""
    cfg = load_config(getattr(args, "config", None))
    given = {field: value for dest, field in CONFIG_FLAGS.items()
             if (value := getattr(args, dest, None)) is not None}
    if not given:
        return cfg
    doc = {section: dict(fields) for section, fields in cfg.raw.items()}
    for (section, key), value in given.items():
        doc[section][key] = value
    return from_dict(doc)


def _value(args, dest, default=None):
    """A VALUE_FLAGS flag's checked SI value, or default if it is not given."""
    value = getattr(args, dest)
    if value is None:
        return default
    return check("--" + dest.replace("_", "-"), value, 0.0, *VALUE_FLAGS[dest])


def cmd_simulate(args):
    cfg = _load(args)
    f_r = tuned_frequency(cfg.params, cfg.state, cfg.pin)
    center = _value(args, "center_ghz", f_r)
    f_start, f_stop = center - cfg.sweep.span / 2.0, center + cfg.sweep.span / 2.0
    try:
        sweep = SweepConfig(f_start, f_stop, cfg.sweep.n_points, cfg.sweep.p_in_dbm)
    except DomainError as exc:
        raise ValidationError(f"--center-ghz, sweep.span_mhz: the sweep runs from {f_start:.6g} "
                              f"to {f_stop:.6g} Hz; {exc}") from exc
    trace = synthesize_sweep(sweep, cfg.params, cfg.state, cfg.pin, cfg.noise)
    pio.write_trace_csv(args.out, trace)
    imin = int(np.argmin(trace.power_ratio))
    print(f"wrote {args.out}: {sweep.n_points} points, "
          f"model f_r = {f_r / GHz:.6f} GHz, "
          f"min ratio {trace.power_ratio[imin]:.4f} "
          f"at {trace.frequencies[imin] / GHz:.6f} GHz")
    return EXIT_OK


def cmd_fit(args):
    trace = pio.read_trace_csv(args.trace, p_in_dbm=_value(args, "p_in_dbm"))
    result = fit_resonance(trace)  # error exit codes handled in main()
    if args.out:
        pio.write_result_json(args.out, "fit", result)
    print(f"f_r = {result.f_r / GHz:.9f} GHz   "
          f"Q_L = {result.q_l:.0f}   Q_e = {result.q_e:.0f}   "
          f"Q_i = {result.q_i:.0f}   phi = {result.phi:+.4f} rad   "
          f"rms residual {result.rms_residual:.3e} "
          f"({result.n_iterations} iterations)")
    return EXIT_OK


def cmd_tune(args):
    cfg = _load(args)
    session = tune_to_target(cfg.plant(), cfg.stage, cfg.controller)
    if args.out:
        pio.write_result_json(args.out, "tune", session, cfg.raw, cfg.noise.seed)
    print(f"outcome: {session.outcome}, "
          f"{len(session.steps)} measurements, {session.total_pulses} pulses, "
          f"final error {session.final_error_hz:+.1f} Hz "
          f"(tolerance {session.tolerance_hz:.1f} Hz)")
    if session.steps and session.steps[-1].note:
        print(f"last step: {session.steps[-1].note}")
    if session.outcome == "Converged":
        return EXIT_OK
    if session.outcome == "Unreachable":
        return EXIT_UNREACHABLE
    return EXIT_CONVERGENCE


def cmd_drift(args):
    series = pio.read_series_csv(args.series, f0=_value(args, "f0_ghz"))
    try:  # finite values whose squares or ratios leave the float range
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _drift_report(args, series)
    except ArithmeticError as exc:
        raise ValidationError(f"{args.series}: values outside the float range ({exc})") from None
    except DomainError as exc:  # too few or unevenly spaced samples
        raise ValidationError(f"{args.series}: {exc}") from exc


def _drift_report(args, series):
    slope_hr, ppb_hr = drift_rate(series)
    payload = {
        "f0_hz": series.f0,
        "n_samples": int(series.f_r.size),
        "slope_hz_per_hr": slope_hr,
        "rate_ppb_per_hr": ppb_hr,
        "peak_to_peak_hz": peak_to_peak_deviation(series),
    }
    try:
        nu, amp = detect_oscillation(series)
        payload["oscillation"] = {"frequency_hz": nu, "amplitude_hz": amp}
    except (NoOscillation, DomainError):
        # short or non-uniform records simply report no oscillation
        payload["oscillation"] = None
    if args.allan:
        taus, adev = allan_deviation(series)
        payload["allan"] = {"tau_s": taus, "adev": adev}
    if args.out:
        pio.write_result_json(args.out, "drift", payload)
    print(f"drift: {slope_hr:+.3f} Hz/hr ({ppb_hr:+.3f} ppb/hr), "
          f"peak-to-peak {payload['peak_to_peak_hz']:.1f} Hz over "
          f"{(series.timestamps[-1] - series.timestamps[0]) / 3600.0:.1f} h")
    return EXIT_OK


def cmd_calibrate(args):
    # calibrate_pin_model's arguments, each named by its calibration row
    anchors = {FIELDS[section][key][3]: read_field(section, key, getattr(args, dest))
               for dest, (section, key) in CONFIG_FLAGS.items() if section == "calibration"}
    model = calibrate_pin_model(**anchors)
    payload = {
        "m_max": model.m_max,
        "lambda_m": model.lam,
        "d_min_m": model.d_min,
    }
    if args.out:
        pio.write_result_json(args.out, "calibrate", payload)
    # Residuals at the anchors: zero up to round-off by construction of the
    # closed form.  The quality factors of this LC stand-in are irrelevant.
    f_b = anchors["f_baseline"]
    lc = ResonatorParams.at(f_b, Qi0=1.0, Qe=1.0)
    at_min = TuningState(d=model.d_min)
    shift = tuned_frequency(lc, at_min, model) - f_b
    slope = -frequency_slope(lc, at_min, model)
    print(f"m_max = {model.m_max:.6f}, lambda = {model.lam * 1e6:.2f} um, "
          f"d_min = {model.d_min * 1e6:.1f} um")
    print(f"anchor residuals: shift {shift - (anchors['f_closest'] - f_b):+.3e} Hz, "
          f"slope {slope - anchors['peak_sensitivity']:+.3e} Hz/m")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pintune",
        description="Digital twin of a piezo-tunable superconducting resonator: "
                    "simulate sweeps, fit resonances, close the tuning loop, "
                    "analyze drift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a sweep -> trace CSV")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--out", required=True, help="output trace CSV path")
    p.add_argument("--center-ghz", type=float, help="sweep center (default: tuned f_r)")
    p.add_argument("--span-mhz", type=float, help="sweep span override")
    p.add_argument("--n-points", type=int, help="point count override")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a trace CSV -> FitResult JSON")
    p.add_argument("trace", help="trace CSV path")
    p.add_argument("--out", help="output JSON path")
    p.add_argument("--p-in-dbm", type=float,
                   help="input power when the file has a pout_dbm column")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("tune", help="closed-loop tuning session -> JSON log")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--out", help="output session JSON path")
    p.add_argument("--target-ghz", type=float, help="target frequency override")
    p.add_argument("--tolerance-ppm", type=float, help="tolerance override")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("drift", help="drift report for a time-series CSV")
    p.add_argument("series", help="time-series CSV path")
    p.add_argument("--out", help="output JSON path")
    p.add_argument("--f0-ghz", type=float, help="reference frequency override")
    p.add_argument("--allan", action="store_true", help="include Allan deviation")
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("calibrate", help="solve the pin model from anchors")
    p.add_argument("--f-baseline-ghz", type=float, required=True)
    p.add_argument("--f-closest-ghz", type=float, required=True)
    p.add_argument("--d-min-um", type=float, required=True)
    p.add_argument("--peak-sensitivity", type=float, required=True,
                   help="|df/dd| at closest approach, Hz per meter")
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NoResonance as exc:
        print(f"error: no resonance: {exc}", file=sys.stderr)
        return EXIT_NO_RESONANCE
    except NonPhysicalFit as exc:
        print(f"error: non-physical fit: {exc}", file=sys.stderr)
        return EXIT_NON_PHYSICAL
    except CalibrationError as exc:
        print(f"error: calibration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceFailure as exc:
        print(f"error: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:  # input files are read as ValidationError; this is an output
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
