import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pintune
from pintune import io as pio
from pintune import piezo
from pintune.cli import CONFIG_FLAGS, build_parser, main
from pintune.config import FIELDS, from_dict, load_config
from pintune.errors import NoResonance, ValidationError
from pintune.stability import FrequencyTimeSeries
from pintune.transmission import SweepTrace, notch_response


def run(argv):
    return main([str(a) for a in argv])


def child_env():
    """The environment for a child interpreter that imports the pintune this
    process imported: src/ in the tier-1 run, site-packages when installed."""
    root = str(Path(pintune.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# calibrate's flags with the paper's anchors, flag -> value
ANCHORS = {"--f-baseline-ghz": 6.8278, "--f-closest-ghz": 6.8454, "--d-min-um": 40,
           "--peak-sensitivity": 1.45e11}


def calibrate_argv(**given):
    """calibrate with the paper's anchors, some replaced: d_min_um=400 sets --d-min-um."""
    anchors = {**ANCHORS, **{"--" + k.replace("_", "-"): v for k, v in given.items()}}
    return ["calibrate", *(a for pair in anchors.items() for a in pair)]


def write_inputs(tmp_path):
    """Valid input files, name -> path: a time series, a trace with a
    pout_dbm column and no recorded power, and a two-column trace that fits."""
    x = [2 * 3e4 * 1e4 * (i - 40) / 6.8e9 for i in range(81)]  # 2 Q_L (f - f_r) / f_r
    rows = {
        "s.csv": "time_s,f_r_hz\n" + "".join(f"{60 * i},{6.8e9 + i}\n" for i in range(10)),
        "pout.csv": "frequency_hz,power_ratio,pout_dbm\n"
                    + "".join(f"{6.8e9 + 1e4 * i},,{-120 - (i == 5)}\n" for i in range(11)),
        "trace.csv": "frequency_hz,power_ratio\n"
                     + "".join(f"{6.8e9 + 1e4 * (i - 40)},{1 - 0.5 / (1 + xi * xi)}\n"
                               for i, xi in enumerate(x)),
    }
    for name, text in rows.items():
        (tmp_path / name).write_text(text)
    return {name: tmp_path / name for name in rows}


class TestConfig:
    def test_defaults_load(self):
        cfg = from_dict({})
        assert cfg.params.Qi0 == 35000
        assert cfg.pin.m_max == pytest.approx(0.0717, abs=5e-4)
        assert cfg.controller.f_target == pytest.approx(6.834683e9)

    def test_partial_override_merges(self):
        cfg = from_dict({"noise": {"sigma_rel": 0.01}})
        assert cfg.noise.sigma_rel == 0.01
        assert cfg.noise.vib_amplitude == 0.0  # default retained

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"resonator": {"qi0": -1}}, "Qi0"),
            ({"resonator": {"phi": 3.0}}, "phi"),
            ({"sweep": {"n_points": 1}}, "sweep.n_points"),
            ({"state": {"d_um": 10.0}}, "state.d_um"),
            ({"state": {"trim_shift_mhz": 5.0}}, "trim_shift"),
            ({"noise": {"sigma_rel": -0.1}}, "sigma_rel"),
            ({"controller": {"tolerance_ppm": 0}}, "tolerance_ppm"),
            ({"calibration": {"f_closest_ghz": 6.0}}, "calibration"),
            ({"noise": {"seed": "abc"}}, "noise.seed"),
            ({"noise": {"seed": -1}}, "noise.seed"),
            ({"sweep": {"p_in_dbm": float("inf")}}, "sweep.p_in_dbm: must be finite"),
            ({"resonator": {"qi0": float("nan")}}, "resonator.qi0: must be finite"),
            ({"tls": {"q_tls_low": 4e4, "p_sat_dbm": -120.0, "q_other": 2.8e5}},
             "tls: unknown field"),
            ({"noise": {"sigma": 0.01}}, "noise.sigma: unknown field"),
            ({"controller": {"f_target_ghz": -1}}, "controller.f_target_ghz: must be > 0"),
            ({"controller": {"sweep_span_mhz": 0}}, "controller.sweep_span_mhz: must be > 0"),
            ({"controller": {"sweep_points": 15}}, "controller.sweep_points: must be >= 16"),
            ({"stage": {"backlash_nm": -1.0}}, "stage: PiezoStage.backlash must be >= 0"),
            ({"stage": {"backlash_nm": float("nan")}}, "stage.backlash_nm: must be finite"),
            ({"resonator": {"l0_nh": 1.0}}, "resonator.l0_nh: unknown field"),
            ({"sweep": 5}, "sweep: expected an object"),
            ({"state": {"trim_shift_mhz": -1e305}}, "state.trim_shift_mhz: must be finite"),
            ({"sweep": {"n_points": 1601.0}}, "sweep.n_points: expected an integer, got 1601.0"),
            # Field checks run in FIELDS order, before any object is built.
            ({"sweep": {"n_points": 1, "span_mhz": 0}}, "sweep.span_mhz: must be > 0"),
            ({"resonator": {"qi0": -1}, "sweep": {"duration_s": 0}},
             "sweep.duration_s: must be > 0"),
            # (2 pi f)**2 underflows: the resonator is built inside the section's check.
            ({"resonator": {"f_baseline_ghz": 1e-300}}, "resonator: frequency out of range"),
            # A retired field is unknown like any other.
            ({"controller": {"steps_per_measurement": 8}},
             "controller.steps_per_measurement: unknown field"),
            # Ranges that the built object checks, under its section's name.
            ({"noise": {"vib_amplitude_um": -1}}, "noise: NoiseModel.vib_amplitude must be >= 0"),
            ({"stage": {"step_size_nm": 0}}, "stage: PiezoStage.step_size must be > 0"),
            ({"state": {"d_um": 0}}, "state: TuningState.d must be > 0"),
            ({"resonator": {"qi0": 3.5e304}}, "resonator: ResonatorParams.Qi0 * Qe must be finite"),
            # At d_min the screened L times C underflows to 0, and f_r = 1/(2 pi sqrt(LC)).
            ({"resonator": {"f_baseline_ghz": 2e144},
              "calibration": {"f_baseline_ghz": 1, "f_closest_ghz": 1e8}},
             "resonator: no finite resonance with this calibration (float division by zero)"),
            # Objects are built in FIELDS order, and the controller's sweeps are
            # checked once it is built: an earlier section's fault comes first.
            ({"noise": {"sigma_rel": -1}, "controller": {"sweep_span_mhz": 3500}},
             "noise: NoiseModel.sigma_rel must be >= 0 and finite"),
            ({"stage": {"voltage_v": 20}, "controller": {"sweep_span_mhz": 3500}},
             "stage.voltage_v: below stage.min_voltage_v"),
            # The band is asked of the built belief, after the controller too.
            ({"resonator": {"f_baseline_ghz": 2e144},
              "calibration": {"f_baseline_ghz": 1, "f_closest_ghz": 1e8}, "noise": {"sigma_rel": -1}},
             "noise: NoiseModel.sigma_rel must be >= 0 and finite"),
            # From d_min the band still runs down to the retracted-pin baseline,
            # where the retry sweep starts below 0 Hz.
            ({"state": {"d_um": 40}, "controller": {"sweep_span_mhz": 3420}},
             "controller.sweep_span_mhz: the 4x wider retry sweep runs from -1.22e+07 to "
             "1.36678e+10 Hz; SweepConfig needs 0 < f_start < f_stop < inf"),
            # Counts past the bound are refused before any array is allocated;
            # a huge one names itself, not the span it overflows.
            ({"sweep": {"n_points": 10**11}}, "sweep.n_points: must be <= 1000000"),
            ({"controller": {"sweep_points": 10**11}}, "controller.sweep_points: must be <= 1000000"),
            ({"controller": {"sweep_points": 10**20}}, "controller.sweep_points: must be <= 1000000"),
            # The anchors' decay length underflows its slope term, or overflows.
            ({"calibration": {"f_baseline_ghz": 1, "f_closest_ghz": 1e5,
                              "peak_sensitivity_hz_per_m": 1e-310}},
             "calibration: anchors imply a decay length that is not finite and > 0"),
            ({"calibration": {"peak_sensitivity_hz_per_m": 1e-320}},
             "calibration: anchors imply a decay length that is not finite and > 0"),
        ],
    )
    def test_invariant_violations_name_the_field(self, doc, field):
        with pytest.raises(ValidationError) as err:
            from_dict(doc)
        assert field in str(err.value)

    def test_the_load_check_asks_the_sessions_belief_for_its_band(self, monkeypatch):
        beliefs, band = [], piezo.ControllerModel.band
        monkeypatch.setattr(piezo.ControllerModel, "band",
                            lambda model: beliefs.append(model) or band(model))
        cfg = from_dict({"state": {"d_um": 120, "trim_shift_mhz": -3},
                         "stage": {"voltage_v": 40, "step_size_nm": 55}})
        assert beliefs == [piezo.ControllerModel.of(cfg.plant(), cfg.stage)]

    @pytest.mark.parametrize("section,key,rule", [
        (section, key, bound)
        for section, fields in FIELDS.items()
        for key, (_, _, rule, _) in fields.items()
        if rule
        for bound in rule.split(", ")
    ])
    def test_each_rule_names_its_field(self, section, key, rule):
        # Each bound of a rule is tested alone.  The bound itself breaks a
        # strict one, one past it an inclusive one; the bounds are 0, or in a
        # unitless field, so lab and SI values agree.
        op, bound = rule.split()
        default = FIELDS[section][key][0]
        bad = type(default)(float(bound) + {">": 0, ">=": -1, "<=": 1}[op])
        with pytest.raises(ValidationError) as err:
            from_dict({section: {key: bad}})
        assert f"{section}.{key}: must be {rule}" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_config(path)


VERBS = build_parser()._subparsers._group_actions[0].choices  # verb -> its parser


class TestConfigFlags:
    @pytest.mark.parametrize("dest,field", CONFIG_FLAGS.items())
    def test_flag_names_a_field(self, dest, field):
        section, key = field
        assert key in FIELDS.get(section, {}), f"{dest}: no FIELDS row {section}.{key}"
        verbs = build_parser()._subparsers._group_actions[0].choices.values()
        assert any(action.dest == dest for verb in verbs for action in verb._actions)

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--span-mhz", 0], "sweep.span_mhz: must be > 0"),
        (["simulate", "--span-mhz", "inf"], "sweep.span_mhz: must be finite"),
        (["simulate", "--n-points", 1], "sweep.n_points: must be >= 2"),
        (["simulate", "--seed", -1], "noise.seed: must be >= 0"),
        (["tune", "--target-ghz", -1], "controller.f_target_ghz: must be > 0"),
        (["tune", "--tolerance-ppm", "nan"], "controller.tolerance_ppm: must be finite"),
        (calibrate_argv(f_baseline_ghz=1e300, f_closest_ghz=1e300),
         "calibration.f_baseline_ghz: must be finite"),
        (calibrate_argv(f_closest_ghz="inf"), "calibration.f_closest_ghz: must be finite"),
        (calibrate_argv(peak_sensitivity="inf"),
         "calibration.peak_sensitivity_hz_per_m: must be finite"),
        (["simulate", "--center-ghz", -1], "--center-ghz: must be > 0"),
        (["simulate", "--center-ghz", "nan"], "--center-ghz: must be finite"),
        (["simulate", "--center-ghz", 1e300], "--center-ghz: must be finite"),
        # a positive center whose sweep starts at or below 0 Hz, whose span
        # rounds away, or whose stop overflows
        (["simulate", "--center-ghz", 0.001], "--center-ghz, sweep.span_mhz: the sweep runs "
         "from -2e+06 to 4e+06 Hz; SweepConfig needs 0 < f_start < f_stop < inf"),
        (["simulate", "--center-ghz", 1e299], "--center-ghz, sweep.span_mhz: the sweep runs "
         "from 1e+308 to 1e+308 Hz; SweepConfig needs 0 < f_start < f_stop < inf"),
        (["simulate", "--center-ghz", 1.7e299, "--span-mhz", 1e302], "--center-ghz, sweep.span_mhz: "
         "the sweep runs from 1.2e+308 to inf Hz; SweepConfig needs 0 < f_start < f_stop < inf"),
        (["simulate", "--span-mhz", 1e-9], "--center-ghz, sweep.span_mhz: the sweep runs from "
         "6.82988e+09 to 6.82988e+09 Hz; SweepConfig points must be spaced by more than 4 ulp "
         "of f_stop"),
        # anchors that only calibrate_pin_model checks
        (calibrate_argv(d_min_um=0), "calibration: d_min must be > 0"),
        (calibrate_argv(f_baseline_ghz=0), "calibration: anchor frequencies must be > 0"),
        (calibrate_argv(f_baseline_ghz=1e-200, f_closest_ghz=1e200),  # the anchor ratio underflows
         "calibration: anchors imply m_max >= 1 (unscreenable)"),
        # a count no VNA sweep takes, refused before any array is allocated
        (["simulate", "--n-points", 10**11], "sweep.n_points: must be <= 1000000"),
        # a decay length whose slope term underflows to 0, and one that overflows
        (calibrate_argv(f_baseline_ghz=1, f_closest_ghz=1e5, peak_sensitivity=1e-310),
         "calibration: anchors imply a decay length that is not finite and > 0"),
        (calibrate_argv(peak_sensitivity=1e-320),
         "calibration: anchors imply a decay length that is not finite and > 0"),
    ])
    def test_flag_is_checked_like_a_file_field(self, tmp_path, capsys, argv, message):
        out = ["--out", tmp_path / "o.csv"] if argv[0] == "simulate" else []
        assert run(argv + out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("verb,path,flag,value,message", [
        ("drift", "s.csv", "--f0-ghz", -1, "--f0-ghz: must be > 0"),
        ("drift", "s.csv", "--f0-ghz", 0, "--f0-ghz: must be > 0"),
        ("drift", "s.csv", "--f0-ghz", "nan", "--f0-ghz: must be finite"),
        ("drift", "s.csv", "--f0-ghz", 1e300, "--f0-ghz: must be finite"),
        ("fit", "pout.csv", "--p-in-dbm", "nan", "--p-in-dbm: must be finite"),
        ("fit", "pout.csv", "--p-in-dbm", "inf", "--p-in-dbm: must be finite"),
        ("fit", "trace.csv", "--p-in-dbm", "nan", "--p-in-dbm: must be finite"),
        ("fit", "trace.csv", "--p-in-dbm", "inf", "--p-in-dbm: must be finite"),
    ])
    def test_flag_on_a_file_names_itself(self, tmp_path, capsys, verb, path, flag, value, message):
        assert run([verb, write_inputs(tmp_path)[path], flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("verb,action", [
        (verb, action) for verb, parser in VERBS.items() for action in parser._actions
        if action.type is float], ids=lambda x: getattr(x, "dest", x))
    def test_every_float_flag_names_itself_on_nan(self, tmp_path, capsys, verb, action):
        inputs = write_inputs(tmp_path)
        base = {"simulate": ["--out", tmp_path / "o.csv"], "fit": [inputs["trace.csv"]],
                "tune": [], "drift": [inputs["s.csv"]], "calibrate": calibrate_argv()[1:]}
        flag = action.option_strings[0]
        assert run([verb, *base[verb], flag, "nan"]) == 2  # the last of a repeated flag wins
        field = ".".join(CONFIG_FLAGS.get(action.dest, ()))
        assert capsys.readouterr().err.startswith((f"error: {flag}: ", f"error: {field}: "))


class TestTraceCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        f = np.sort(rng.uniform(6.82e9, 6.84e9, 64))
        r = rng.uniform(0.5, 1.0, 64)
        trace = SweepTrace(f, r, p_in_dbm=-131.0, timestamp=320.0)
        path = tmp_path / "t.csv"
        pio.write_trace_csv(path, trace)
        back = pio.read_trace_csv(path)
        assert np.array_equal(back.frequencies, f)
        assert np.array_equal(back.power_ratio, r)
        assert back.p_in_dbm == -131.0
        assert back.timestamp == 320.0

    def test_header_is_exact(self, tmp_path):
        trace = SweepTrace(np.array([1e9, 2e9]), np.array([1.0, 1.0]), -131.0)
        path = tmp_path / "t.csv"
        pio.write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert "frequency_hz,power_ratio" in lines

    def test_pout_dbm_third_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "frequency_hz,power_ratio,pout_dbm\n"
            "6.8e9,,-141.0\n"
            "6.9e9,,-131.0\n"
        )
        back = pio.read_trace_csv(path, p_in_dbm=-131.0)
        assert back.power_ratio[0] == pytest.approx(0.1)
        assert back.power_ratio[1] == pytest.approx(1.0)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frequency_hz,power_ratio\n6.8e9,0.9\noops\n")
        with pytest.raises(ValidationError) as err:
            pio.read_trace_csv(path)
        assert ":3:" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValidationError):
            pio.read_trace_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "t.csv"
        path.write_text(f"frequency_hz,power_ratio\n6.8e9,0.9\n6.9e9,{value}\n")
        with pytest.raises(ValidationError) as err:
            pio.read_trace_csv(path)
        assert f"{path}:3:" in str(err.value)

    def test_pout_dbm_out_of_range(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frequency_hz,power_ratio,pout_dbm\n6.8e9,,-141.0\n6.9e9,,1e4\n")
        with pytest.raises(ValidationError):
            pio.read_trace_csv(path, p_in_dbm=-131.0)

    def test_unordered_extremes_rejected(self, tmp_path):
        # 1.7e308 - (-1.7e308) overflows: the order check must not subtract
        path = tmp_path / "t.csv"
        path.write_text("frequency_hz,power_ratio\n1,1\n1.7e308,1\n-1.7e308,1\n")
        with pytest.raises(ValidationError, match="strictly increasing"):
            pio.read_trace_csv(path)


class TestSeriesCsv:
    def test_unordered_extremes_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time_s,f_r_hz\n1.7e308,6.8e9\n-1.7e308,6.8e9\n")
        with pytest.raises(ValidationError, match="strictly increasing"):
            pio.read_series_csv(path)

    def test_round_trip(self, tmp_path):
        t = np.arange(10.0) * 120.0
        f = 6.8278e9 + np.arange(10.0)
        path = tmp_path / "s.csv"
        pio.write_series_csv(path, FrequencyTimeSeries(t, f, 6.8278e9))
        back = pio.read_series_csv(path)
        assert np.array_equal(back.timestamps, t)
        assert np.array_equal(back.f_r, f)
        assert back.f0 == 6.8278e9

    def test_non_finite_value_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time_s,f_r_hz\n0.0,6.8e9\n120.0,nan\n")
        with pytest.raises(ValidationError) as err:
            pio.read_series_csv(path)
        assert f"{path}:3:" in str(err.value)

    NEAR_MAX = "time_s,f_r_hz\n0.0,1.7e308\n120.0,1.7e308\n240.0,1.7e308\n"

    def test_near_float_max_with_f0_metadata(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# f0_hz = 6.8e9\n" + self.NEAR_MAX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = pio.read_series_csv(path)
        assert series.f0 == 6.8e9

    def test_near_float_max_without_f0_metadata(self, tmp_path, capsys):
        # The mean overflows to inf, which is no reference frequency.
        path = tmp_path / "s.csv"
        path.write_text(self.NEAR_MAX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="f0 must be finite"):
                pio.read_series_csv(path)
            assert run(["drift", path]) == 2
        assert "f0 must be finite" in capsys.readouterr().err


finite = st.floats(allow_nan=False, allow_infinity=False)


def strictly_increasing(elements):
    return st.lists(elements, min_size=2, max_size=40, unique=True).map(sorted)


@settings(max_examples=60, deadline=None)
@given(
    f=strictly_increasing(st.floats(1.0, 1e12)),
    ratio=st.lists(st.floats(0.0, 1e3), min_size=40, max_size=40),
    p_in_dbm=finite,
    timestamp=finite,
)
def test_trace_csv_round_trip_bit_exact(f, ratio, p_in_dbm, timestamp):
    trace = SweepTrace(f, ratio[: len(f)], p_in_dbm=p_in_dbm, timestamp=timestamp)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        pio.write_trace_csv(path, trace)
        back = pio.read_trace_csv(path)
    assert back.frequencies.tobytes() == trace.frequencies.tobytes()
    assert back.power_ratio.tobytes() == trace.power_ratio.tobytes()
    assert (back.p_in_dbm, back.timestamp) == (p_in_dbm, timestamp)


@settings(max_examples=60, deadline=None)
@given(t=strictly_increasing(finite), f_r=st.lists(finite, min_size=40, max_size=40),
       f0=st.floats(1e-300, 1e300))
def test_series_csv_round_trip_bit_exact(t, f_r, f0):
    series = FrequencyTimeSeries(t, f_r[: len(t)], f0=f0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        pio.write_series_csv(path, series)
        back = pio.read_series_csv(path)
    assert back.timestamps.tobytes() == series.timestamps.tobytes()
    assert back.f_r.tobytes() == series.f_r.tobytes()
    assert back.f0 == f0


def test_result_json_carries_package_version(tmp_path):
    path = tmp_path / "r.json"
    pio.write_result_json(path, "fit", {})
    assert json.loads(path.read_text())["toolkit_version"] == pintune.__version__


def test_numpy_scalars_become_plain_numbers():
    values = pio.to_jsonable([np.int64(3), np.float32(0.5)])
    assert values == [3, 0.5]
    assert [type(v) for v in values] == [int, float]


def test_result_json_is_strict_json_for_every_numpy_value(tmp_path):
    payload = {"flag": np.bool_(True), "count": np.int64(3), "single": np.float32(0.5),
               "nan": np.float64("nan"), "inf": np.float64("inf"),
               "grid": np.array([[1.0, np.nan], [2.0, 3.0]])}
    path = tmp_path / "r.json"
    pio.write_result_json(path, "fit", payload)

    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    result = json.loads(path.read_text(), parse_constant=refuse)["result"]
    assert result == {"flag": True, "count": 3, "single": 0.5, "nan": None, "inf": None,
                      "grid": [[1.0, None], [2.0, 3.0]]}
    assert [type(result[k]) for k in ("flag", "count", "single")] == [bool, int, float]


class TestSimulateCommand:
    def test_default_run(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run(["simulate", "--out", out]) == 0
        trace = pio.read_trace_csv(out)
        # default plant sits at 300 um; its dip is near the 6.8278 GHz
        # baseline (within the few-MHz pin shift)
        f_min = trace.frequencies[np.argmin(trace.power_ratio)]
        assert abs(f_min - 6.8278e9) < 5e6

    def test_n_points_validation(self, tmp_path):
        assert run(["simulate", "--out", tmp_path / "t.csv", "--n-points", 1]) == 2

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"resonator": {"qi0": -5}})
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "t.csv"]) == 2

    @pytest.mark.parametrize("sigma_rel", [0.0, 0.01])
    def test_negative_seed_rejected(self, tmp_path, capsys, sigma_rel):
        cfg = write_config(tmp_path, {"noise": {"seed": -1, "sigma_rel": sigma_rel}})
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "t.csv"]) == 2
        assert "noise.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["simulate", "tune"])
    @pytest.mark.parametrize("doc,message", [
        ({"noise": {"sigma_rel": 1e308}},
         "NoiseModel.sigma_rel times the noise draws must be finite"),
        ({"state": {"d_um": 40}, "noise": {"vib_amplitude_um": 1e304}},
         "NoiseModel.vib_amplitude times |df/dd| must be finite"),
    ], ids=["sigma_rel", "vib_amplitude"])
    def test_an_overflowing_noise_model_names_its_field(self, tmp_path, capsys, verb, doc,
                                                         message):
        # One error line and no numpy RuntimeWarning, even with warnings as errors.
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([verb, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "o.csv"
        assert run(["simulate", "--out", out]) == 2
        err = capsys.readouterr().err
        assert str(out) in err
        assert "Traceback" not in err


class TestFitCommand:
    def test_simulate_then_fit_round_trip(self, tmp_path):
        trace = tmp_path / "trace.csv"
        result = tmp_path / "fit.json"
        assert run(["simulate", "--out", trace]) == 0
        assert run(["fit", trace, "--out", result]) == 0
        doc = json.loads(result.read_text())
        fit = doc["result"]
        assert fit["converged"]
        assert fit["stop"] == "step"  # a noiseless trace: no noise to stop against
        assert abs(fit["q_i"] / 35000 - 1) < 1e-4
        assert abs(fit["q_e"] / 5e5 - 1) < 1e-4

    def test_missing_file(self, tmp_path):
        assert run(["fit", tmp_path / "absent.csv"]) == 2

    def test_non_finite_trace_exit(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        rows = "".join(f"{6.8e9 + i * 1e5},{'nan' if i == 100 else 1.0}\n" for i in range(201))
        path.write_text("frequency_hz,power_ratio\n" + rows)
        assert run(["fit", path]) == 2
        assert f"{path}:102:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["p_in_dbm", "timestamp_s"])
    def test_bad_metadata_exit(self, tmp_path, capsys, key):
        path = tmp_path / "bad.csv"
        path.write_text(f"# {key} = abc\nfrequency_hz,power_ratio\n6.8e9,1.0\n6.9e9,1.0\n")
        assert run(["fit", path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: bad '# {key} =' metadata\n"

    def test_binary_file_exit(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe\x00frequency")
        assert run(["fit", path]) == 2

    def test_flat_trace_no_resonance_exit(self, tmp_path):
        path = tmp_path / "flat.csv"
        rows = "".join(f"{6.8e9 + i * 1e5},1.0\n" for i in range(201))
        path.write_text("frequency_hz,power_ratio\n" + rows)
        assert run(["fit", path]) == 3

    def test_q_l_underflow_is_non_physical(self, tmp_path, capsys):
        # A valid trace 1.5x off the model's unit baseline: the fit runs ln Q_L
        # down until Q_L underflows to 0, a non-physical fit, not a bad input.
        f = np.linspace(6.8e9 - 3e6, 6.8e9 + 3e6, 401)
        y = 1.5 * notch_response(f, 6.8015e9, 3000.0, 45000.0, -0.4)[0]
        path = tmp_path / "off_baseline.csv"
        pio.write_trace_csv(path, SweepTrace(f, y, -131.0))
        assert run(["fit", path]) == 4
        assert capsys.readouterr().err.startswith("error: non-physical fit: fit landed at Q_L = 0 ")

    def test_non_physical_exit(self, tmp_path, monkeypatch):
        from pintune import cli
        from pintune.errors import NonPhysicalFit

        trace = tmp_path / "trace.csv"
        assert run(["simulate", "--out", trace]) == 0

        def boom(*a, **k):
            raise NonPhysicalFit("Q_L >= Q_e")

        monkeypatch.setattr(cli, "fit_resonance", boom)
        assert run(["fit", trace]) == 4

    def test_convergence_failure_exit(self, tmp_path, monkeypatch, capsys):
        from pintune import cli
        from pintune.errors import ConvergenceFailure

        trace = tmp_path / "trace.csv"
        assert run(["simulate", "--out", trace]) == 0

        def out_of_iterations(*a, **k):
            raise ConvergenceFailure("no convergence in 200 iterations")

        monkeypatch.setattr(cli, "fit_resonance", out_of_iterations)
        capsys.readouterr()
        assert run(["fit", trace, "--out", tmp_path / "fit.json"]) == 6
        err = capsys.readouterr().err
        assert err == "error: convergence failure: no convergence in 200 iterations\n"
        assert not (tmp_path / "fit.json").exists()


class TestTuneCommand:
    def test_converges_and_writes_log(self, tmp_path):
        out = tmp_path / "session.json"
        assert run(["tune", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["outcome"] == "Converged"
        assert abs(doc["result"]["final_error_hz"]) <= 2050.5
        assert doc["config"]["controller"]["f_target_ghz"] == 6.834683
        assert doc["seed"] == doc["config"]["noise"]["seed"]

    def test_a_target_off_the_step_grid_spends_the_whole_budget(self, tmp_path, capsys):
        # At closest approach one 60-nm step moves f_r by more than the 4.1-kHz
        # tolerance window, and 6.8454 GHz lies between two grid points: the
        # default session spends all of max_steps' default 2,000 measurements.
        out = tmp_path / "session.json"
        assert run(["tune", "--target-ghz", 6.8454, "--out", out]) == 6
        session = json.loads(out.read_text())["result"]
        assert (session["outcome"], len(session["steps"])) == ("StepBudgetExhausted", 2000)
        assert capsys.readouterr().out.splitlines() == [
            "outcome: StepBudgetExhausted, 2000 measurements, 4333 pulses, final error -2899.8 Hz "
            "(tolerance 2053.6 Hz)", "last step: clamped at mechanical limit"]

    def test_unreachable_exit(self, tmp_path):
        assert run(["tune", "--target-ghz", 7.0]) == 5

    @pytest.mark.parametrize("doc,fits_fail,outcome,note", [
        ({"controller": {"max_steps": 1}}, False, "StepBudgetExhausted", ""),
        ({}, True, "Aborted", "fit failed: NoResonance"),
    ], ids=["step budget", "fit failed"])
    def test_unconverged_session_exits_6(self, tmp_path, monkeypatch, capsys, doc, fits_fail,
                                         outcome, note):
        def no_dip(trace, start=None):  # the first reading's sweep and its wider retry
            raise NoResonance("no dip")

        if fits_fail:
            monkeypatch.setattr(piezo, "fit_resonance", no_dip)
        out = tmp_path / "session.json"
        assert run(["tune", "--config", write_config(tmp_path, doc), "--out", out]) == 6
        session = json.loads(out.read_text())["result"]
        assert session["outcome"] == outcome
        assert [step["note"] for step in session["steps"]] == [note]
        # Why the session ended is printed after its outcome, when the log says.
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"outcome: {outcome}, 1 measurements")
        assert lines[1:] == ([f"last step: {note}"] if note else [])

    def test_a_stage_that_cannot_move_exits_2(self, tmp_path, capsys):
        # A drive below the stall voltage is refused on load, before any sweep.
        cfg = write_config(tmp_path, {"stage": {"voltage_v": 20}})
        assert run(["tune", "--config", cfg, "--out", tmp_path / "session.json"]) == 2
        assert capsys.readouterr().err == "error: stage.voltage_v: below stage.min_voltage_v\n"
        assert not (tmp_path / "session.json").exists()

    def test_zero_tolerance_rejected(self, tmp_path):
        assert run(["tune", "--tolerance-ppm", 0.0]) == 2

    @pytest.mark.parametrize("controller,message", [
        # initial_guess refuses a trace under fitting.MIN_POINTS
        ({"sweep_points": 15}, "controller.sweep_points: must be >= 16"),
        # the sweep at d_min, the band's top, is finer than the float grid
        ({"sweep_span_mhz": 1e-9}, "controller.sweep_span_mhz: the sweep runs from 6.8454e+09 "
         "to 6.8454e+09 Hz; SweepConfig points must be spaced by more than 4 ulp of f_stop"),
        # the 1x sweep fits, but the retry after a failed fit would start below 0 Hz
        ({"sweep_span_mhz": 3500}, "controller.sweep_span_mhz: the 4x wider retry sweep runs "
         "from -1.546e+08 to 1.38454e+10 Hz; SweepConfig needs 0 < f_start < f_stop < inf"),
        # a count no VNA sweep takes, refused before any array is allocated
        ({"sweep_points": 10**11}, "controller.sweep_points: must be <= 1000000"),
    ])
    def test_sweep_the_fitter_cannot_use_names_its_field(self, tmp_path, capsys, controller,
                                                          message):
        cfg = write_config(tmp_path, {"controller": controller})
        assert run(["tune", "--config", cfg, "--out", tmp_path / "session.json"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "session.json").exists()

    def test_the_load_check_and_the_session_share_one_retry(self, monkeypatch):
        # A span whose 4x retry fits the float range but whose 8x one does not.
        monkeypatch.setattr(piezo, "RETRY_WIDEN", 8.0)
        with pytest.raises(ValidationError) as err:
            from_dict({"controller": {"sweep_span_mhz": 2000}})
        assert str(err.value) == (
            "controller.sweep_span_mhz: the 8x wider retry sweep runs from -1.1546e+09 to "
            "1.48454e+10 Hz; SweepConfig needs 0 < f_start < f_stop < inf")
        spans = []

        def fails_first(trace, start=None):
            spans.append(trace.frequencies[-1] - trace.frequencies[0])
            raise NoResonance("no dip")

        monkeypatch.setattr(piezo, "fit_resonance", fails_first)
        cfg = from_dict({})
        session = piezo.tune_to_target(cfg.plant(), cfg.stage, cfg.controller)
        assert session.outcome == "Aborted" and len(spans) == 2
        assert spans[1] == pytest.approx(8.0 * spans[0])

    def test_uncoupled_pin_unreachable(self, tmp_path):
        # Zero tuning range: the model slope is 0, so no pulse moves f_r.
        cfg = write_config(tmp_path, {
            "calibration": {"f_closest_ghz": 6.8278},
            "controller": {"f_target_ghz": 6.8278, "tolerance_ppm": 0.001},
            "noise": {"sigma_rel": 0.01},
        })
        out = tmp_path / "session.json"
        assert run(["tune", "--config", cfg, "--out", out]) == 5
        session = json.loads(out.read_text())["result"]
        assert session["outcome"] == "Unreachable"
        assert [step["note"] for step in session["steps"]] == ["pin does not couple"]
        assert abs(session["final_error_hz"]) > session["tolerance_hz"]


class TestDriftCommand:
    def test_linear_drift_report(self, tmp_path):
        t = np.linspace(0.0, 70 * 3600.0, 2101)
        f = 6.8278e9 + 1000.0 * t / (70 * 3600.0)
        src = tmp_path / "series.csv"
        pio.write_series_csv(src, FrequencyTimeSeries(t, f, 6.8278e9))
        out = tmp_path / "report.json"
        assert run(["drift", src, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["rate_ppb_per_hr"] == pytest.approx(2.09, rel=0.01)
        assert doc["result"]["peak_to_peak_hz"] == pytest.approx(1000.0, rel=1e-6)

    def test_constant_series(self, tmp_path):
        t = np.arange(10.0)
        src = tmp_path / "series.csv"
        pio.write_series_csv(src, FrequencyTimeSeries(t, np.full(10, 6.8278e9), 6.8278e9))
        out = tmp_path / "report.json"
        assert run(["drift", src, "--out", out]) == 0
        assert json.loads(out.read_text())["result"]["rate_ppb_per_hr"] == 0.0

    def test_allan_payload(self, tmp_path):
        # f_r alternates by +-100 Hz every 60 s: blocks of an even length
        # average to f0, and blocks of 3 alternate by +-100/3 Hz.
        t = 60.0 * np.arange(12)
        f = 6.8278e9 + 100.0 * (-1.0) ** np.arange(12)
        src = tmp_path / "series.csv"
        pio.write_series_csv(src, FrequencyTimeSeries(t, f, 6.8278e9))
        out = tmp_path / "report.json"
        assert run(["drift", src, "--allan", "--out", out]) == 0
        allan = json.loads(out.read_text())["result"]["allan"]
        assert allan["tau_s"] == [60.0, 120.0, 180.0, 240.0]
        one = 2.0 ** 0.5 * 100.0 / 6.8278e9
        assert allan["adev"] == pytest.approx([one, 0.0, one / 3.0, 0.0], rel=1e-6, abs=1e-15)

    def test_bad_metadata_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("# f0_hz = abc\ntime_s,f_r_hz\n0.0,6.8e9\n120.0,6.8e9\n240.0,6.8e9\n")
        assert run(["drift", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: bad '# f0_hz =' metadata\n"

    def test_two_point_series_rejected(self, tmp_path, capsys):
        src = tmp_path / "series.csv"
        src.write_text("time_s,f_r_hz\n0.0,6.8e9\n120.0,6.8e9\n")
        assert run(["drift", src]) == 2
        assert capsys.readouterr().err == f"error: {src}: drift_rate needs at least 3 samples\n"

    def test_blank_line_is_skipped(self, tmp_path, capsys):
        src = write_inputs(tmp_path)["s.csv"]
        rows = src.read_text().splitlines(keepends=True)
        gap = tmp_path / "gap.csv"
        gap.write_text("".join(rows[:4] + ["\n"] + rows[4:]))
        reports = []
        for path in (src, gap):
            assert run(["drift", path, "--allan", "--out", tmp_path / "r.json"]) == 0
            reports.append((capsys.readouterr(), (tmp_path / "r.json").read_bytes()))
        assert reports[0] == reports[1]


class TestCalibrateCommand:
    def test_paper_anchors(self, tmp_path):
        out = tmp_path / "model.json"
        assert run([
            "calibrate", "--f-baseline-ghz", 6.8278, "--f-closest-ghz", 6.8454,
            "--d-min-um", 40, "--peak-sensitivity", 1.45e11, "--out", out,
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["m_max"] == pytest.approx(0.072, abs=5e-4)
        assert doc["result"]["lambda_m"] == pytest.approx(240e-6, rel=0.03)

    def test_anchors_load_no_config(self):
        # d_min above the default state.d_um of 300 um: only the anchors' rows are read
        assert run(calibrate_argv(d_min_um=400)) == 0

    def test_module_entry_point(self, capsys):
        assert run(calibrate_argv()) == 0
        child = subprocess.run([sys.executable, "-m", "pintune.cli", *map(str, calibrate_argv())],
                               env=child_env(), capture_output=True, text=True)
        assert (child.returncode, child.stdout, child.stderr) == (0, capsys.readouterr().out, "")

    def test_inverted_anchors_rejected(self, tmp_path):
        assert run([
            "calibrate", "--f-baseline-ghz", 6.8454, "--f-closest-ghz", 6.8278,
            "--d-min-um", 40, "--peak-sensitivity", 1.45e11,
        ]) == 2


# A dip at 1e-300 Hz whose half-depth width spans 2e299 Hz
DIP_AT_1E_MINUS_300 = ("frequency_hz,power_ratio\n1e-300,0.1\n"
                       + "".join(f"{i}e299,1\n" for i in range(1, 17)))
UNEVEN = "time_s,f_r_hz\n" + "".join(f"{60 * i + 20 * (i == 8)},6.8e9\n" for i in range(9))


@pytest.mark.parametrize("argv,text,code,message", [
    (["tune", "--config"], "[]", 2, "config file {path}: top level must be an object"),
    (["fit"], "frequency_hz,power_ratio\n6.8e9,0.9\n6.9e9,abc\n", 2, "{path}:3: non-numeric value"),
    (["fit"], "freq,power_ratio\n6.8e9,0.9\n6.9e9,0.9\n", 2,
     "{path}:1: expected header 'frequency_hz,power_ratio', got 'freq,power_ratio'"),
    (["fit"], "frequency_hz,power_ratio\n6.8e9,0.9\n", 2, "{path}: SweepTrace needs at least 2 points"),
    (["fit"], "frequency_hz,power_ratio,pout_dbm\n6.8e9,,-141\n6.9e9,,-131\n", 2,
     "{path}: pout_dbm column requires a recorded input power"),
    (["fit"], DIP_AT_1E_MINUS_300, 3, "no resonance: dip too wide for its frequency (Q_L underflows)"),
    (["drift", "--allan"], "time_s,f_r_hz\n0,6.8e9\n60,6.8e9\n120,6.8e9\n180,6.8e9\n", 2,
     "{path}: allan_deviation needs at least 9 samples"),
    (["drift", "--allan"], UNEVEN, 2, "{path}: allan_deviation requires uniform sampling"),
    (["drift"], "time_s,f_r_hz\n0,1e308\n60,-1e308\n120,1e308\n", 2,
     "{path}: values outside the float range (overflow encountered in subtract)"),
], ids=["config top level", "non-numeric", "header", "one row", "pout without power",
        "Q_L underflow", "allan short", "allan uneven", "float range"])
def test_bad_input_file_exit(tmp_path, capsys, argv, text, code, message):
    path = tmp_path / "input"
    path.write_text(text)
    assert run([*argv, path]) == code
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


# sha256 of `simulate` on 1% noise and 0.7-um vibration with the default seed.
DEFAULT_SEED_TRACE = "81d4ff771add66c88e27583538d46cafea3e277e2f7151373b4b3a73a21db5bb"


class TestDeterminism:
    def test_simulate_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"noise": {"sigma_rel": 0.01, "vib_amplitude_um": 0.7}})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--config", cfg, "--seed", 99, "--out", a]) == 0
        assert run(["simulate", "--config", cfg, "--seed", 99, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_the_default_seed_is_pinned(self, tmp_path):
        # A noisy simulate without --seed draws from noise.seed's default,
        # 20120828: the same bits as that seed given, pinned.
        cfg = write_config(tmp_path, {"noise": {"sigma_rel": 0.01, "vib_amplitude_um": 0.7}})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--config", cfg, "--out", a]) == 0
        assert run(["simulate", "--config", cfg, "--seed", 20120828, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert hashlib.sha256(a.read_bytes()).hexdigest() == DEFAULT_SEED_TRACE

    def test_different_seed_differs(self, tmp_path):
        cfg = write_config(tmp_path, {"noise": {"sigma_rel": 0.01}})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--config", cfg, "--seed", 1, "--out", a])
        run(["simulate", "--config", cfg, "--seed", 2, "--out", b])
        assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("module", sorted(
    p.stem for p in (Path(__file__).resolve().parents[1] / "src" / "pintune").glob("[!_]*.py")))
def test_each_module_imports_alone(module):
    # The package root imports nothing, so no other module's import can
    # hide a cycle that importing this one alone would hit.
    subprocess.run([sys.executable, "-c", f"import pintune.{module}"], env=child_env(), check=True)


def test_drift_leaves_numpy_ma_out(tmp_path):
    # np.median and np.unique import numpy.ma, about 10 ms of a fresh process.
    # 128 samples, so detect_oscillation runs as well as allan_deviation.
    t = 120.0 * np.arange(128)
    series = tmp_path / "series.csv"
    pio.write_series_csv(series, FrequencyTimeSeries(t, 6.8278e9 + 100.0 * np.sin(t / 900.0),
                                                     6.8278e9))
    probe = ("import sys; from pintune.cli import main; "
             f"main(['drift', {str(series)!r}, '--allan']); print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines()[-1] == "False"


# Runs main on the arguments in a fresh interpreter, then prints its exit code
# and whether numpy was executed.  The module is registered under "numpy" from
# pintune's import on; executing it imports numpy's own submodules.
NUMPY_PROBE = """import sys
from pintune.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, any(name.startswith("numpy.") for name in sys.modules))"""


@pytest.mark.parametrize("case, code, loads", [
    ("calibrate", 0, False),
    ("calibrate_inverted", 2, False),
    ("help", 0, False),
    ("tune_bad_config", 2, False),
    ("fit", 0, True),
])
def test_numpy_loads_on_first_use(tmp_path, case, code, loads):
    argv = {
        "calibrate": calibrate_argv(),
        "calibrate_inverted": calibrate_argv(f_baseline_ghz=6.8454, f_closest_ghz=6.8278),
        "help": ["--help"],
        "tune_bad_config": ["tune", "--config", write_config(tmp_path, {"controller": {"sweep_points": 3}})],
        "fit": ["fit", tmp_path / "trace.csv"],
    }[case]
    if case == "fit":
        assert run(["simulate", "--out", tmp_path / "trace.csv"]) == 0
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *map(str, argv)], env=child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == f"{code} {loads}"


def test_cli_import_leaves_scipy_out():
    probe = "import sys, pintune.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
