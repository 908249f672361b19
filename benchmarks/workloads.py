"""The three workloads: inputs made from the seed, one operation each, and the
correctness gate that operation must pass.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns, in one process, with no threads.  Operation i
depends only on the seed and i, so a run of any length repeats its first
operations exactly.

    tune_sessions  one closed-loop `piezo.tune_to_target` session per op
    fit_batch      one `fitting.fit_resonance` call per op
    cli_session    one `python -m pintune.cli <verb>` process per op
                   (in-process `pintune.cli.main` when traced)
"""

import json
import os
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

from pintune import cli, config, fitting, piezo, resonator
from pintune import io as pio
from pintune.resonator import ResonatorParams, TuningState, capacitance_for_frequency
from pintune.stability import FrequencyTimeSeries
from pintune.transmission import NoiseModel, SweepConfig, SweepTrace, loaded_q, synthesize_sweep

# The noisy plant of acceptance criterion 9.
NOISY_CONFIG = {"noise": {"sigma_rel": 0.005, "vib_amplitude_um": 0.1}}
F_BASELINE = 6.8278e9
SERIES_HOURS = 70.0
SERIES_SAMPLES = 2101
VERBS = ("simulate", "fit", "tune", "drift", "calibrate")


@dataclass(frozen=True)
class Sizing:
    heights_um: tuple = (300.0, 600.0)       # tune start heights, alternated
    fit_points: tuple = (401, 1601, 1601, 6401)  # 1:2:1 mix, cycled
    fit_traces: int = 1600                   # distinct traces made in set-up
    fit_fingerprint: int = 200               # fits in the fingerprint set
    setup_repeats: int = 0                   # 0: the workload's own count


@dataclass
class Outcome:
    """One operation: its class (start height, regime and point count, or
    verb), wall time, whether it passed its gate, the work items it did, and
    whether its result was within the accuracy bounds (a hit).  A fit or a
    tune session can pass its gate and miss; a CLI call hits exactly when it
    passes."""

    cls: str
    seconds: float
    ok: bool
    items: int = 1
    error: str = ""
    hit: bool = None
    ref_ms: float = None  # reference kernel time measured before it (speed.py)

    def __post_init__(self):
        if self.hit is None:
            self.hit = self.ok


def _seed_of(*key):
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def child_env(src):
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(src) + (os.pathsep + path if path else "")}


# --------------------------------------------------------------------------
# tune_sessions


TUNE_OUTCOMES = ("Converged", "Unreachable", "StepBudgetExhausted", "Aborted")
MIN_TUNE_HITS = 0.9


@dataclass
class TuneContext:
    seed: int
    sizing: Sizing
    cfg: object


class TuneSessions:
    """Back-to-back closed-loop sessions on the noisy plant with the default
    controller (1201 points, 6 MHz span, 8 pulses per measurement).  Start
    heights alternate; each session's noise seed comes from the run seed.

    A session passes its gate when it returns one of the controller's
    outcomes and a Converged session reports an error within its tolerance.
    It hits when it is Converged and the twin's true frequency at the final
    pin height is within the tolerance of the target.  Near the target one
    stage step moves f_r by about 3.4 kHz against a tolerance of +-2.05 kHz,
    and the controller accepts a single noisy measurement, so about 1% of
    sessions stop one step off.  Misses lower ok_frac, and the run is correct
    only if at least 90% of its sessions hit."""

    name = "tune_sessions"
    setup_repeats = 5
    atom = 1
    rss_of = "self"

    def fingerprint_ops(self, sizing):
        return len(sizing.heights_um)

    def setup(self, seed, workdir, sizing, src):
        """What a user of the controller pays before the first session: a
        fresh interpreter that imports it and loads the config.  The sessions
        themselves run in this process, on a config loaded the same way."""
        path = workdir / "config.json"
        path.write_text(json.dumps(NOISY_CONFIG))
        code = "import sys; from pintune import config, piezo; config.load_config(sys.argv[1])"
        subprocess.run([sys.executable, "-c", code, str(path)], env=child_env(src), check=True)
        return TuneContext(seed, sizing, config.load_config(str(path)))

    def op(self, ctx, i, inprocess=False):
        height = ctx.sizing.heights_um[i % len(ctx.sizing.heights_um)]
        cfg = ctx.cfg
        plant = replace(cfg.plant(), noise=replace(cfg.noise, seed=_seed_of(ctx.seed, 1, i)))
        stage = replace(cfg.stage, position=height * 1e-6)
        cls = f"{height:g}um"
        t0 = perf_counter()
        try:
            session = piezo.tune_to_target(plant, stage, cfg.controller)
        except Exception as exc:  # counted as a failed session
            return Outcome(cls, perf_counter() - t0, False, error=type(exc).__name__)
        seconds = perf_counter() - t0
        if session.outcome not in TUNE_OUTCOMES or (
                session.outcome == "Converged" and not abs(session.final_error_hz) <= session.tolerance_hz):
            return Outcome(cls, seconds, False, len(session.steps),
                           f"{session.outcome}, reported error {session.final_error_hz:+.1f} Hz")
        # A hit is judged on the twin's true frequency, not the last measurement.
        true_f = resonator.tuned_frequency(plant.params, plant.state_at(stage.position), plant.pin)
        true_err = true_f - cfg.controller.f_target
        hit = session.outcome == "Converged" and abs(true_err) <= session.tolerance_hz
        error = "" if hit else f"{session.outcome}, true error {true_err:+.1f} Hz"
        return Outcome(cls, seconds, True, len(session.steps), error, hit)

    def check(self, outcomes):
        sessions = [o for o in outcomes if o.cls.endswith("um")]  # not the layer probe's
        hits = sum(o.hit for o in sessions)
        if not sessions or hits < MIN_TUNE_HITS * len(sessions):
            return [f"{hits}/{len(sessions)} sessions converged within the tolerance of the "
                    f"true frequency, fewer than {MIN_TUNE_HITS:.0%}"]
        return []


# --------------------------------------------------------------------------
# fit_batch


# Criterion 4's noisy case: the device's own resonator at the target.
DEVICE_Q = (35000.0, 5e5)
F_TARGET = 6.834683e9
FIT_REGIMES = ("device", "broad")
MIN_DEVICE_HITS = 0.95  # criterion 4: at least 95 of 100 noisy fits in bounds


@dataclass
class FitCase:
    trace: SweepTrace
    f_r: float
    q_i: float
    linewidth: float
    regime: str = "device"


@dataclass
class FitContext:
    cases: list


def make_fit_case(rng, pin, n_points, regime):
    """A criterion-4 trace: a span of +-5 linewidths, 1% multiplicative noise
    and phi within +-0.5.  The "device" regime is criterion 4's noisy case
    (Q_i 35000, Q_e 5e5 at the target frequency); the "broad" regime draws
    Q_i from 1e4..1e6, Q_e from 1e5..1e7 and f_r from 4..8 GHz, log-uniform
    for the Qs, as criterion 4's noiseless round trip does.  Many broad traces
    have a dip too shallow for the noise, so their fits miss."""
    if regime == "device":
        (q_i, q_e), f_r = DEVICE_Q, F_TARGET
    else:
        q_i, q_e = 10 ** rng.uniform(4.0, 6.0), 10 ** rng.uniform(5.0, 7.0)
        f_r = rng.uniform(4e9, 8e9)
    phi = rng.uniform(-0.5, 0.5)
    params = ResonatorParams(L0=1e-9, C=capacitance_for_frequency(f_r, 1e-9), Qi0=q_i, Qe=q_e, phi=phi)
    state = TuningState(d=0.05)  # pin far away: the resonance is the bare one
    f_true = resonator.tuned_frequency(params, state, pin)
    lw = f_true / loaded_q(q_i, q_e)
    sweep = SweepConfig(f_true - 5 * lw, f_true + 5 * lw, n_points, -131.0)
    noise = NoiseModel(sigma_rel=0.01, vib_amplitude=0.0, seed=int(rng.integers(2**31)))
    return FitCase(synthesize_sweep(sweep, params, state, pin, noise), f_true, q_i, lw, regime)


class FitBatch:
    """Fits of traces made in set-up: blocks of four alternate between the
    two regimes, and within a block the point counts are 401, 1601, 1601 and
    6401.  Only `fitting` runs inside the timed region.

    Criterion 4 allows misses, so a single fit has no gate: a fit that raises,
    whatever the exception, or lands outside the bounds is a miss, as in the
    criterion's own test.  Misses lower ok_frac, and the run is correct only
    if at least 95% of its device-regime fits hit."""

    name = "fit_batch"
    setup_repeats = 5
    atom = 1
    rss_of = "self"

    def fingerprint_ops(self, sizing):
        return sizing.fit_fingerprint

    def setup(self, seed, workdir, sizing, src):
        """What a user of the fitter pays before the first fit: a fresh
        interpreter that imports it, and the traces to fit."""
        subprocess.run([sys.executable, "-c", "import pintune.fitting"], env=child_env(src), check=True)
        pin = config.from_dict({}).pin
        rng = np.random.default_rng([seed, 2])
        points = sizing.fit_points
        return FitContext([make_fit_case(rng, pin, points[j % len(points)],
                                         FIT_REGIMES[j // len(points) % len(FIT_REGIMES)])
                           for j in range(sizing.fit_traces)])

    def op(self, ctx, i, inprocess=False):
        return fit_outcome(ctx.cases[i % len(ctx.cases)])

    def check(self, outcomes):
        device = [o for o in outcomes if o.cls.startswith("device/")]
        hits = sum(o.hit for o in device)
        if not device or hits < MIN_DEVICE_HITS * len(device):
            return [f"{hits}/{len(device)} device-regime fits within the criterion-4 bounds, "
                    f"fewer than {MIN_DEVICE_HITS:.0%}"]
        return []


def fit_outcome(case):
    cls = f"{case.regime}/{case.trace.frequencies.size}"
    t0 = perf_counter()
    try:
        res = fitting.fit_resonance(case.trace)
    except Exception as exc:  # a miss, as criterion 4 counts it; never fatal
        return Outcome(cls, perf_counter() - t0, True, error=type(exc).__name__, hit=False)
    seconds = perf_counter() - t0
    # Criterion-4 bounds: f_r within 0.1 linewidth, Q_i within 5%.
    hit = abs(res.f_r - case.f_r) < 0.1 * case.linewidth and abs(res.q_i / case.q_i - 1) < 0.05
    return Outcome(cls, seconds, True, error="" if hit else "outside bounds", hit=hit)


# --------------------------------------------------------------------------
# cli_session


@dataclass
class CliContext:
    seed: int
    workdir: Path
    config: Path
    series: Path
    env: dict


class CliSession:
    """One CLI process per verb in lab order, simulate -> fit -> tune ->
    drift --allan -> calibrate; each verb runs twice and the two outputs must
    match byte for byte.  Ten operations make one round."""

    name = "cli_session"
    setup_repeats = 5
    atom = 2  # the two runs of a verb belong together
    rss_of = "children"  # the CLI processes, not the harness

    def fingerprint_ops(self, sizing):
        return 2 * len(VERBS)

    def setup(self, seed, workdir, sizing, src):
        ctx = cli_inputs(seed, workdir, src)
        # One interpreter that imports the CLI: compiles bytecode and warms the
        # file cache, so the first timed call is not a cold outlier.
        subprocess.run([sys.executable, "-c", "import pintune.cli"], env=ctx.env, check=True)
        return ctx

    def argv(self, ctx, i):
        rnd, k = divmod(i, 2 * len(VERBS))
        verb, run = VERBS[k // 2], "ab"[k % 2]
        rng = np.random.default_rng([ctx.seed, 4, rnd])
        sim_seed, tune_seed = (int(s) for s in rng.integers(2**31, size=2))
        d = ctx.workdir
        ext = "csv" if verb == "simulate" else "json"
        out, first = d / f"{verb}_{rnd}{run}.{ext}", d / f"{verb}_{rnd}a.{ext}"
        if verb == "simulate":
            args = ["--config", str(ctx.config), "--seed", str(sim_seed)]
        elif verb == "fit":
            args = [str(d / f"simulate_{rnd}a.csv")]
        elif verb == "tune":
            args = ["--config", str(ctx.config), "--seed", str(tune_seed)]
        elif verb == "drift":
            args = [str(ctx.series), "--allan"]
        else:
            args = ["--f-baseline-ghz", "6.8278",
                    "--f-closest-ghz", f"{6.8454 + rng.uniform(-1e-3, 1e-3):.7f}",
                    "--d-min-um", "40",
                    "--peak-sensitivity", f"{1.45e11 * rng.uniform(0.95, 1.05):.6e}"]
        return verb, out, first, [verb, *args, "--out", str(out)]

    def op(self, ctx, i, inprocess=False):
        verb, out, first, argv = self.argv(ctx, i)
        t0 = perf_counter()
        if inprocess:
            try:
                with redirect_stdout(StringIO()):
                    code = cli.main(argv)
                error = ""
            except Exception as exc:  # counted as a failed call
                code, error = -1, type(exc).__name__
        else:
            proc = subprocess.run([sys.executable, "-m", "pintune.cli", *argv], cwd=ctx.workdir,
                                  env=ctx.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            code, error = proc.returncode, proc.stderr.strip()[-200:]
        seconds = perf_counter() - t0
        ok = code == 0
        if ok and out != first:
            ok = first.is_file() and out.read_bytes() == first.read_bytes()
            error = "" if ok else "output differs from the first run's, or that run wrote none"
        return Outcome(verb, seconds, ok, error="" if ok else f"exit {code}: {error}")

    def check(self, outcomes):
        return []


def cli_inputs(seed, workdir, src):
    """The shared noisy config and the 70 h series every CLI round reads."""
    ctx = CliContext(seed, workdir, workdir / "config.json", workdir / "series.csv", child_env(src))
    ctx.config.write_text(json.dumps(NOISY_CONFIG))
    pio.write_series_csv(str(ctx.series), make_series(np.random.default_rng([seed, 3])))
    return ctx


def make_series(rng):
    """70 h of f_r samples: a linear drift, a slow modulation and white noise."""
    t = np.linspace(0.0, SERIES_HOURS * 3600.0, SERIES_SAMPLES)
    drift = rng.uniform(500.0, 1500.0) * t / t[-1]
    period = rng.uniform(3.0, 8.0) * 3600.0
    wobble = rng.uniform(100.0, 300.0) * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
    f = F_BASELINE + drift + wobble + rng.normal(0.0, 20.0, t.size)
    return FrequencyTimeSeries(t, f, F_BASELINE)


WORKLOADS = {w.name: w for w in (TuneSessions(), FitBatch(), CliSession())}


# --------------------------------------------------------------------------
# layer probe


def layer_probe(seed, workdir, src, sizing):
    """Touch every layer boundary once on fixed inputs: one in-process CLI
    round and one fit at each batch point count.  A traced run ends with this,
    so a layer its workload never calls still has timings.  Returns the
    outcomes, checked like any other operation."""
    probe_dir = workdir / "probe"
    probe_dir.mkdir(exist_ok=True)
    ctx = cli_inputs(seed, probe_dir, src)
    outcomes = [WORKLOADS["cli_session"].op(ctx, i, inprocess=True) for i in range(2 * len(VERBS))]
    pin = config.from_dict({}).pin
    rng = np.random.default_rng([seed, 5])
    outcomes += [fit_outcome(make_fit_case(rng, pin, n, "device")) for n in sorted(set(sizing.fit_points))]
    return outcomes


def import_seconds(src, repeats=3):
    """Median time to import pintune.cli in a fresh interpreter, start-up of
    the interpreter itself excluded."""
    code = ("import time; t = time.perf_counter(); import pintune.cli; "
            "print(time.perf_counter() - t)")
    runs = [subprocess.run([sys.executable, "-c", code], env=child_env(src), check=True,
                           capture_output=True, text=True) for _ in range(repeats)]
    return statistics.median(float(r.stdout) for r in runs)
