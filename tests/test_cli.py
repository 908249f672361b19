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
from pintune.cli import main
from pintune.config import from_dict, load_config
from pintune.errors import ValidationError
from pintune.stability import FrequencyTimeSeries
from pintune.transmission import SweepTrace


def run(argv):
    return main([str(a) for a in argv])


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


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
            ({"controller": {"sweep_points": 1}}, "controller.sweep_points: must be >= 2"),
            ({"stage": {"backlash_nm": -1.0}}, "stage: PiezoStage.backlash must be >= 0"),
            ({"stage": {"backlash_nm": float("nan")}}, "stage.backlash_nm: must be finite"),
        ],
    )
    def test_invariant_violations_name_the_field(self, doc, field):
        with pytest.raises(ValidationError) as err:
            from_dict(doc)
        assert field in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_config(path)


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


class TestSeriesCsv:
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


def test_result_document_carries_package_version():
    assert pio.result_document("fit", None, None, {})["toolkit_version"] == pintune.__version__


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

    def test_non_physical_exit(self, tmp_path, monkeypatch):
        from pintune import cli
        from pintune.errors import NonPhysicalFit

        trace = tmp_path / "trace.csv"
        assert run(["simulate", "--out", trace]) == 0

        def boom(*a, **k):
            raise NonPhysicalFit("Q_L >= Q_e")

        monkeypatch.setattr(cli, "fit_resonance", boom)
        assert run(["fit", trace]) == 4


class TestTuneCommand:
    def test_converges_and_writes_log(self, tmp_path):
        out = tmp_path / "session.json"
        assert run(["tune", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["outcome"] == "Converged"
        assert abs(doc["result"]["final_error_hz"]) <= 2050.5
        assert doc["config"]["controller"]["f_target_ghz"] == 6.834683
        assert doc["seed"] == doc["config"]["noise"]["seed"]

    def test_unreachable_exit(self, tmp_path):
        assert run(["tune", "--target-ghz", 7.0]) == 5

    def test_zero_tolerance_rejected(self, tmp_path):
        assert run(["tune", "--tolerance-ppm", 0.0]) == 2

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

    def test_bad_metadata_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("# f0_hz = abc\ntime_s,f_r_hz\n0.0,6.8e9\n120.0,6.8e9\n240.0,6.8e9\n")
        assert run(["drift", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: bad '# f0_hz =' metadata\n"

    def test_two_point_series_rejected(self, tmp_path):
        src = tmp_path / "series.csv"
        src.write_text("time_s,f_r_hz\n0.0,6.8e9\n120.0,6.8e9\n")
        assert run(["drift", src]) == 2


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

    def test_inverted_anchors_rejected(self, tmp_path):
        assert run([
            "calibrate", "--f-baseline-ghz", 6.8454, "--f-closest-ghz", 6.8278,
            "--d-min-um", 40, "--peak-sensitivity", 1.45e11,
        ]) == 2


class TestDeterminism:
    def test_simulate_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"noise": {"sigma_rel": 0.01, "vib_amplitude_um": 0.7}})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--config", cfg, "--seed", 99, "--out", a]) == 0
        assert run(["simulate", "--config", cfg, "--seed", 99, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        cfg = write_config(tmp_path, {"noise": {"sigma_rel": 0.01}})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--config", cfg, "--seed", 1, "--out", a])
        run(["simulate", "--config", cfg, "--seed", 2, "--out", b])
        assert a.read_bytes() != b.read_bytes()


def test_cli_import_leaves_scipy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, pintune.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
