"""Tune-session probes: fixed sets of closed-loop sessions whose tallies show
what a change to the controller does to its outcomes and measurement counts.

Each probe prints one line: its sessions per outcome, the false `Converged`
(a `Converged` session whose twin's true f_r at the final pin height is
outside the tolerance), the total, median, 90th-percentile and largest number
of measurements per session, the `retries` (the wider sweeps taken after a
failed fit: the calls to `pintune.piezo.synthesize_sweep` during the probe
less its measurements), the total Gauss-Newton iterations of the readings'
kept fits (`fit_iterations`) and of every fit the probe ran
(`all_fit_iterations`: warm fits that were fitted again from the guess and
fits that failed count too, one damped factorisation per iteration), its `Aborted`
sessions counted by the note of their last step, and two sha256 digests
(first 16 hex digits) over its sessions in order:
`outcomes` of each session's outcome and measurement count, `logs` of its
result JSON as `pintune tune` writes it.  A change that keeps every outcome
and session length keeps `outcomes`; one that keeps every logged field keeps
`logs`.

The probes, all on the package's default config unless stated:
  matched_300, matched_600  the benchmark noise (sigma_rel 0.005, 0.1-um
      vibration) from 300 or 600 um, noise seeds SeedSequence([171, h, j]),
      j < 300.
  mismatch_grid  the plant's decay length x0.9/1.0/1.1 of the belief's,
      54/60/66-nm steps against the 60 believed, 0/5-nm backlash: every
      combination but the matched one (17 cases, numbered in that order),
      20 sessions per case and height (300, 600 um) at the benchmark noise,
      noise seeds SeedSequence([181, case, h, j]).
  noiseless_grid  the matched case and the 17 mismatched ones, one
      noise-free session per case and height.
  loud  10x the benchmark noise (sigma_rel 0.05, 1-um vibration), 200
      sessions from 300 um with noise seeds SeedSequence([11, 1, i]) and 200
      from 600 um with SeedSequence([12, 1, i]).
  near_top, near_top_noisy, near_top_66nm  targets f_high - k*700 Hz,
      k = -2..11, where f_high is the true f_r at closest approach, from 45,
      120 and 400 um: noise-free; at the benchmark noise with seeds
      4000-4009; and the same with a 66-nm plant step against 60 believed.
  wide, wide_noisy  400 plants well outside the mismatch grid, with
      `max_steps` 200: noise-free, and at the benchmark noise with seeds
      SeedSequence([191, i]).  Case i draws, from np.random.default_rng([191])
      in turn, the decay-length factor from U(0.6, 1.6), the plant step from
      U(40, 90) nm and, when (i // 4) % 2 is 1, the backlash from U(0, 20) nm
      (0 otherwise); it starts from (150, 300, 600, 900)[i % 4] um.
  recipe (only with --recipe)  the benchmark noise, 10,000 sessions from 300
      um with noise seeds SeedSequence([21, 1, i]) and 10,000 from 600 um
      with SeedSequence([22, 1, i]).

Usage, from the repository root:
    python tools/probe_sessions.py [--recipe] [--each]
--each also prints one line per session (probe, index, outcome,
measurements, false), for a diff between two trees.  Each probe's wall
time goes to stderr as `<probe>: <seconds> s`, so stdout stays the same
from run to run.  It runs the pintune of its own tree (the src/ beside
tools/) and needs numpy.  Without --recipe the probes take about 2.5
minutes on one core (the two wide probes 1.5 of them), the recipe about
another 1.3.
"""

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pintune import config  # noqa: E402
from pintune import fitting, piezo  # noqa: E402
from pintune import io as pio  # noqa: E402
from pintune.piezo import ControllerModel, tune_to_target  # noqa: E402

NOISY = {"noise": {"sigma_rel": 0.005, "vib_amplitude_um": 0.1}}
LOUD = {"noise": {"sigma_rel": 0.05, "vib_amplitude_um": 1.0}}
OUTCOMES = ("Converged", "Unreachable", "StepBudgetExhausted", "Aborted")
# (decay-length factor, plant step nm, backlash nm), the matched case first.
CASES = [(lam, step, back) for lam in (0.9, 1.0, 1.1) for step in (54.0, 60.0, 66.0)
         for back in (0.0, 5.0)]
CASES.remove((1.0, 60.0, 0.0))
CASES.insert(0, (1.0, 60.0, 0.0))


def seed_of(*key):
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def run(cfg, start_um, seed=None, case=(1.0, 60.0, 0.0), f_target=None):
    """One session; returns (session, plant, stage).  The controller believes
    the config's own plant and 60-nm stage; the plant may differ by `case`."""
    believed = cfg.plant()
    stage = replace(cfg.stage, position=start_um * 1e-6)
    model = ControllerModel.of(believed, stage)
    lam, step_nm, backlash_nm = case
    plant = replace(believed, pin=replace(believed.pin, lam=believed.pin.lam * lam))
    if seed is not None:
        plant = replace(plant, noise=replace(cfg.noise, seed=seed))
    stage = replace(stage, step_size=step_nm * 1e-9, backlash=backlash_nm * 1e-9)
    controller = cfg.controller if f_target is None else replace(cfg.controller, f_target=f_target)
    return tune_to_target(plant, stage, controller, model), plant, stage


def matched(height):
    cfg = config.from_dict(NOISY)
    for j in range(300):
        yield run(cfg, height, seed_of(171, height, j))


def mismatch_grid():
    cfg = config.from_dict(NOISY)
    for n, case in enumerate(CASES[1:]):
        for height in (300, 600):
            for j in range(20):
                yield run(cfg, height, seed_of(181, n, height, j), case)


def noiseless_grid():
    cfg = config.from_dict({})
    for case in CASES:
        for height in (300, 600):
            yield run(cfg, height, case=case)


def tune_sessions(overrides, first_seed, count):
    cfg = config.from_dict(overrides)
    for key, height in ((first_seed, 300), (first_seed + 1, 600)):
        for i in range(count):
            yield run(cfg, height, seed_of(key, 1, i))


def near_top(overrides, seeds, step_nm=60.0):
    cfg = config.from_dict(overrides)
    plant = cfg.plant()
    f_high = plant.true_frequency(plant.pin.d_min)
    for seed in seeds:
        for height in (45, 120, 400):
            for k in range(-2, 12):
                yield run(cfg, height, seed, (1.0, step_nm, 0.0), f_high - k * 700.0)


def wide(overrides, noisy):
    cfg = config.from_dict({**overrides, "controller": {"max_steps": 200}})
    rng = np.random.default_rng([191])
    for i in range(400):
        lam, step_nm = rng.uniform(0.6, 1.6), rng.uniform(40.0, 90.0)
        backlash_nm = rng.uniform(0.0, 20.0) if (i // 4) % 2 else 0.0
        seed = seed_of(191, i) if noisy else None
        yield run(cfg, (150, 300, 600, 900)[i % 4], seed, (lam, step_nm, backlash_nm))


PROBES = {
    "matched_300": lambda: matched(300),
    "matched_600": lambda: matched(600),
    "mismatch_grid": mismatch_grid,
    "noiseless_grid": noiseless_grid,
    "loud": lambda: tune_sessions(LOUD, 11, 200),
    "near_top": lambda: near_top({}, [None]),
    "near_top_noisy": lambda: near_top(NOISY, range(4000, 4010)),
    "near_top_66nm": lambda: near_top(NOISY, range(4000, 4010), 66.0),
    "wide": lambda: wide({}, False),
    "wide_noisy": lambda: wide(NOISY, True),
    "recipe": lambda: tune_sessions(NOISY, 21, 10_000),
}


def is_false(session, plant, stage):
    true_error = plant.true_frequency(stage.position) - session.f_target
    return session.outcome == "Converged" and not abs(true_error) <= session.tolerance_hz


def probe(name, each=False):
    """Run one probe; returns its one-line tally."""
    outcomes, logs = hashlib.sha256(), hashlib.sha256()
    tally, aborted, false, lengths, iterations = Counter(), Counter(), 0, [], 0
    sweeps, synthesize = 0, piezo.synthesize_sweep
    all_iterations, cholesky = 0, fitting._cholesky

    def counted(*args, **kwargs):
        nonlocal sweeps
        sweeps += 1
        return synthesize(*args, **kwargs)

    def counted_cholesky(h, lam=0.0):
        nonlocal all_iterations
        all_iterations += lam > 0  # the damped factorisation, once per iteration
        return cholesky(h, lam)

    piezo.synthesize_sweep = counted  # every sweep a session takes
    fitting._cholesky = counted_cholesky  # every fit those sweeps take
    try:
        for i, (session, plant, stage) in enumerate(PROBES[name]()):
            n, wrong = len(session.steps), is_false(session, plant, stage)
            tally[session.outcome] += 1
            if session.outcome == "Aborted":
                aborted[session.steps[-1].note] += 1
            false += wrong
            lengths.append(n)
            iterations += sum(step.fit_iterations for step in session.steps)
            outcomes.update(f"{session.outcome} {n}\n".encode())
            logs.update(json.dumps(pio.to_jsonable(session), sort_keys=True).encode() + b"\n")
            if each:
                print(f"{name} {i} {session.outcome} {n} {'false' if wrong else 'true'}")
    finally:
        piezo.synthesize_sweep = synthesize
        fitting._cholesky = cholesky
    counts = " ".join(f"{o} {tally[o]}" for o in OUTCOMES)
    p50, p90 = np.percentile(lengths, [50, 90])
    notes = "; ".join(f"{note} {n}" for note, n in sorted(aborted.items())) or "none"
    return (f"{name}: sessions {len(lengths)}, {counts}, false {false}, "
            f"measurements {sum(lengths)} (median {p50:g}, p90 {p90:g}, max {max(lengths)}), "
            f"retries {sweeps - sum(lengths)}, fit_iterations {iterations}, "
            f"all_fit_iterations {all_iterations}, "
            f"aborted by note ({notes}), "
            f"outcomes {outcomes.hexdigest()[:16]}, logs {logs.hexdigest()[:16]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--recipe", action="store_true",
                        help="also run the 20,000-session tune_sessions recipe")
    parser.add_argument("--each", action="store_true", help="print one line per session")
    args = parser.parse_args(argv)
    for name in [n for n in PROBES if n != "recipe" or args.recipe]:
        start = time.perf_counter()
        print(probe(name, args.each), flush=True)
        print(f"{name}: {time.perf_counter() - start:.2f} s", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
