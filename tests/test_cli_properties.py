"""Property: whatever config, argv or input file `tune`, `simulate`, `fit`,
`drift` and `calibrate` are given, the CLI ends in an exit code from the
README table, never in a traceback.

Configs start from the defaults and replace up to three fields with scaled
numbers or with arbitrary JSON values, and may add an unknown field.  Point counts
are drawn below 4,000 and the step budget below 40: a sweep of 10**12 points
is a memory limit, not a validation case, and a session that cannot
converge would otherwise run its default 2,000 measurements.
"""

import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pintune.cli import main
from pintune.config import DEFAULT_CONFIG

EXIT_CODES = {0, 2, 3, 4, 5, 6}  # the README's exit-code table
BOUNDED = {("sweep", "n_points"): 4000, ("controller", "sweep_points"): 4000,
           ("controller", "max_steps"): 40}

any_json = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.floats(), st.integers(-10**25, 10**25), st.lists(st.integers(), max_size=2),
)
FIELDS = [(section, key) for section, fields in DEFAULT_CONFIG.items() for key in fields]
factors = st.one_of(st.floats(0.5, 1.5), st.floats(-3.0, 3.0),
                    st.sampled_from([0.0, 1e-300, 1e300, -1.0]))


@st.composite
def configs(draw):
    doc = {}
    for section, key in draw(st.lists(st.sampled_from(FIELDS), max_size=3, unique=True)):
        default = DEFAULT_CONFIG[section][key]
        if (section, key) in BOUNDED:
            value = draw(st.integers(-3, BOUNDED[section, key]))
        elif draw(st.booleans()):
            value = default * draw(factors)
            value = int(value) if isinstance(default, int) and abs(value) < 1e18 else value
        else:
            value = draw(any_json)
        doc.setdefault(section, {})[key] = value
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(["noise", "extra"]))] = {"unknown": 1}
    doc.setdefault("controller", {}).setdefault("max_steps", draw(st.integers(1, 40)))
    return doc


def exit_code(argv):
    """The CLI's exit code; argparse's own exits included."""
    try:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def run_with_config(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        return exit_code([argv[0], "--config", path, "--out", Path(tmp) / "out", *argv[1:]])


def sometimes(plausible, anything):
    """None (the flag left out) or a value, plausible more often than not."""
    return st.one_of(st.none(), plausible, plausible, anything)


optional_float = sometimes(st.floats(-10.0, 10.0), st.floats())
seeds = sometimes(st.integers(0, 2**40), st.integers(-5, 2**70))


def flag(name, value):
    return [] if value is None else [name, value]


fuzz = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(fuzz, max_examples=150)
@given(doc=configs(), seed=seeds, target=sometimes(st.floats(6.82, 6.85), st.floats()),
       tolerance=sometimes(st.floats(0.01, 100.0), st.floats()))
# Found with RuntimeWarnings as errors: fit trials that overflow on a Q_i of
# 1, and a loaded Q that overflows to inf.
@example({"resonator": {"qi0": 1}, "controller": {"max_steps": 1}}, None, None, None)
@example({"resonator": {"qi0": 3.5e304}, "controller": {"max_steps": 1}}, None, None, None)
def test_tune_ends_in_a_documented_exit_code(doc, seed, target, tolerance):
    argv = ["tune", *flag("--seed", seed), *flag("--target-ghz", target),
            *flag("--tolerance-ppm", tolerance)]
    assert run_with_config(doc, argv) in EXIT_CODES


@fuzz
@given(doc=configs(), seed=seeds, center=optional_float, span=optional_float,
       n_points=sometimes(st.integers(2, 4000), st.integers(-3, 1)))
def test_simulate_ends_in_a_documented_exit_code(doc, seed, center, span, n_points):
    argv = ["simulate", *flag("--seed", seed), *flag("--center-ghz", center),
            *flag("--span-mhz", span), *flag("--n-points", n_points)]
    assert run_with_config(doc, argv) in EXIT_CODES


cells = st.one_of(st.floats(), st.floats(-1e10, 1e10), st.integers(-10**25, 10**25),
                  st.sampled_from(["", "x", "nan"]))


@fuzz
@given(header=st.sampled_from(["frequency_hz,power_ratio", "frequency_hz,power_ratio,pout_dbm",
                               "time_s,f_r_hz", ""]),
       meta=st.lists(st.tuples(st.sampled_from(["p_in_dbm", "timestamp_s", "other"]), cells),
                     max_size=2),
       rows=st.lists(st.lists(cells, min_size=1, max_size=3), max_size=30),
       p_in_dbm=st.one_of(st.none(), st.floats()))
def test_fit_ends_in_a_documented_exit_code(header, meta, rows, p_in_dbm):
    lines = [f"# {key} = {value}" for key, value in meta] + [header]
    lines += [",".join(str(c) for c in row) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        trace.write_text("\n".join(lines) + "\n")
        argv = ["fit", trace, "--out", Path(tmp) / "fit.json", *flag("--p-in-dbm", p_in_dbm)]
        assert exit_code(argv) in EXIT_CODES


@fuzz
@given(doc=configs(), seed=st.integers(0, 2**32), n_points=st.integers(-3, 4000))
def test_fit_of_a_simulated_trace_ends_in_a_documented_exit_code(doc, seed, n_points):
    with tempfile.TemporaryDirectory() as tmp:
        path, trace = Path(tmp) / "config.json", Path(tmp) / "trace.csv"
        path.write_text(json.dumps(doc))
        code = exit_code(["simulate", "--config", path, "--seed", seed,
                          "--n-points", n_points, "--out", trace])
        assert code in EXIT_CODES
        if code == 0:
            assert exit_code(["fit", trace, "--out", Path(tmp) / "fit.json"]) in EXIT_CODES


@st.composite
def series_rows(draw):
    """A time series: either a uniformly sampled record (long enough, at
    times, for the oscillation search and the Allan deviation) of drift plus
    a tone, with a few cells replaced, or rows of arbitrary cells."""
    if draw(st.booleans()):
        return draw(st.lists(st.lists(cells, min_size=1, max_size=3), max_size=30))
    n = draw(st.integers(0, 300))
    t0 = draw(st.sampled_from([0.0, 1e9]) | st.floats(-1e6, 1e6))
    dt = draw(st.sampled_from([60.0, 1e-300, 1e300]) | st.floats(-10.0, 1e4))
    f0 = draw(st.sampled_from([6.834683e9, 1.7e308, 0.0]) | st.floats(-1e10, 1e10))
    amp = draw(st.floats(0.0, 1e4) | st.sampled_from([1e300]))
    rate = draw(st.floats(-1.0, 1.0))
    nu = draw(st.floats(0.0, 0.5))
    rows = [[t0 + i * dt, f0 + rate * i * dt + amp * math.sin(2 * math.pi * nu * i)]
            for i in range(n)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, 1))] = draw(cells)
    return rows


def uniform(n, f):
    return [[60.0 * i, f(i)] for i in range(n)]


@fuzz
@given(header=st.sampled_from(["time_s,f_r_hz", "time_s,f_r_hz,extra", "frequency_hz,power_ratio"]),
       meta=st.lists(st.tuples(st.sampled_from(["f0_hz", "other"]),
                               cells | st.sampled_from([6.834683e9, 1e-310])), max_size=2),
       rows=series_rows(),
       f0_ghz=sometimes(st.floats(6.8, 6.9), st.floats()),
       allan=st.booleans())
# Faults this property found: a time step whose square underflows (polyfit
# divided by zero and raised LinAlgError), and, each reported with exit 0,
# samples whose squares overflow, a mean past the float range and an f0 so
# small that the drift rate overflows.
@example("time_s,f_r_hz", [], [[0.0, 6.8e9], [1e-300, 6.8e9], [2e-300, 6.8e9]], None, False)
@example("time_s,f_r_hz", [("f0_hz", 6.8e9)], uniform(100, lambda i: 1e300 * (-1) ** i), None, True)
@example("time_s,f_r_hz", [("f0_hz", 6.8e9)], uniform(10, lambda i: 1.7e308), None, False)
@example("time_s,f_r_hz", [("f0_hz", 1e-310)], uniform(10, lambda i: 6.8e9 + 60.0 * i), None, False)
def test_drift_ends_in_a_documented_exit_code(header, meta, rows, f0_ghz, allan):
    lines = [f"# {key} = {value}" for key, value in meta] + [header]
    lines += [",".join(str(c) for c in row) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        series = Path(tmp) / "series.csv"
        series.write_text("\n".join(lines) + "\n")
        out = Path(tmp) / "drift.json"
        argv = ["drift", series, "--out", out, *flag("--f0-ghz", f0_ghz)]
        code = exit_code(argv + (["--allan"] if allan else []))
        assert code in EXIT_CODES
        if code == 0:  # a report holds numbers; JSON null stands for nan or inf
            result = json.loads(out.read_text())["result"]
            assert None not in [result["f0_hz"], result["slope_hz_per_hr"],
                                result["rate_ppb_per_hr"], result["peak_to_peak_hz"]]
            if allan:
                assert None not in result["allan"]["tau_s"] + result["allan"]["adev"]


def anchor(default):
    """A calibration anchor near its default, anywhere, or not a number."""
    return st.one_of(st.floats(0.5, 1.5).map(lambda x: default * x), st.floats(),
                     st.sampled_from([default, 0.0, -default, 1e-300, 1e300, "nan", "x"]))


@fuzz
@given(f_baseline=anchor(6.8278), f_closest=anchor(6.8454), d_min=anchor(40.0),
       sensitivity=anchor(8.7e3 / 60e-9), drop=st.sampled_from([None, 0, 1, 2, 3]))
@example(6.8278, 6.8454, 40.0, 1e-310, None)  # found: an infinite decay length, exit 0
def test_calibrate_ends_in_a_documented_exit_code(f_baseline, f_closest, d_min, sensitivity,
                                                  drop):
    pairs = [("--f-baseline-ghz", f_baseline), ("--f-closest-ghz", f_closest),
             ("--d-min-um", d_min), ("--peak-sensitivity", sensitivity)]
    if drop is not None:  # a required anchor left out
        del pairs[drop]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cal.json"
        code = exit_code(["calibrate", *[x for pair in pairs for x in pair], "--out", out])
        assert code in EXIT_CODES
        if code == 0:
            assert None not in json.loads(out.read_text())["result"].values()
