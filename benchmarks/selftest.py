"""Tiny-size self-test of the benchmark harness (under a minute):

    python3 benchmarks/selftest.py

Checks that
  - every metric named in BENCHMARK.json is emitted, with its unit, by every
    workload in the matching mode (end-to-end untraced, per-layer traced);
  - a garbage trace injected into fit_batch, and a tune target out of reach,
    are each counted as a miss, lower ok_frac and make the run incorrect, and
    the run still completes;
  - a traced run records spans at every layer boundary, and its exact-count
    fingerprint repeats when the run is repeated;
  - an untraced run records no spans.
Exits 1 if any check fails.
"""

import gzip
import json
import math
import sys

import run

run._import_package()  # before numpy loads: it limits numpy's BLAS threads

import numpy as np  # noqa: E402
import tracing  # noqa: E402  (needs the package path set up above)
from workloads import NOISY_CONFIG, WORKLOADS, FitCase, Sizing  # noqa: E402
from pintune import config  # noqa: E402
from pintune.transmission import SweepTrace  # noqa: E402

SEED = 99
TINY = Sizing(heights_um=(300.0,), fit_traces=8, fit_fingerprint=8, setup_repeats=1)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
problems = []


def check(label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}{': ' + detail if detail else ''}")
    if not ok:
        problems.append(label)


def check_metrics(name, mode, result):
    expected = {m["name"]: m["unit"] for m in SPEC[mode]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(f"{name} {mode} metric names and units", got == expected,
          f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}"
          if set(got) != set(expected) else "")
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    check(f"{name} {mode} values are finite numbers", not bad, ", ".join(bad))


def spans_of(name, seed):
    path = run.OUT / f"{name}-seed{seed}-trace1.spans.jsonl.gz"
    with gzip.open(path, "rt") as fh:
        return [json.loads(line) for line in fh]


def main():
    installs = []
    real_install = tracing.Tracer.install

    def spying_install(self, *args, **kwargs):
        installs.append(self)
        return real_install(self, *args, **kwargs)

    for name in WORKLOADS:
        tracing.Tracer.install = spying_install
        result, _ = run.run(name, SEED, 0.2, 0, sizing=TINY)
        tracing.Tracer.install = real_install
        check(f"{name} untraced run is correct", result["correct"] and result["attempted"] >= 1,
              f"{result['failed']}/{result['attempted']} failed")
        check(f"{name} untraced run installs no tracer", not installs)
        check_metrics(name, "end_to_end", result)

        first, record = run.run(name, SEED, 0.2, 1, sizing=TINY)
        check(f"{name} traced run is correct", first["correct"], f"{first['failed']} failed")
        check_metrics(name, "per_layer", first)
        layers = {s["name"].split(".")[0] for s in spans_of(name, SEED)}
        missing = sorted(set(tracing.LAYERS) - layers)
        check(f"{name} traced run has spans at every layer", not missing,
              f"missing {missing}" if missing else "")
        _, again = run.run(name, SEED, 0.2, 1, sizing=TINY)
        check(f"{name} fingerprint repeats exactly", again["fingerprint"] == record["fingerprint"],
              json.dumps(record["fingerprint"], sort_keys=True))

    def add_garbage(ctx):
        f = np.linspace(6.0e9, 6.1e9, 401)
        flat = 1.0 + 0.01 * np.random.default_rng(0).standard_normal(f.size)
        ctx.cases.append(FitCase(SweepTrace(f, flat, -131.0), 6.05e9, 1e4, 1e6))

    sizing = Sizing(fit_traces=8, fit_fingerprint=9, setup_repeats=1)
    result, record = run.run("fit_batch", SEED, 0.2, 0, sizing=sizing, prepare=add_garbage)
    expected = result["attempted"] // 9  # the garbage case is every ninth op
    counted = sum(n for miss, n in record["misses"].items() if miss.startswith("device/401:"))
    check("garbage trace counted as a miss that fails the run, run completes",
          not result["correct"] and counted >= expected >= 1
          and result["metrics"]["ok_frac"]["value"] <= (result["attempted"] - expected) / result["attempted"],
          f"{counted} garbage misses in {result['attempted']} fits: {record['failures'][:1]}")

    def unreachable_target(ctx):
        ctx.cfg = config.from_dict({**NOISY_CONFIG, "controller": {"f_target_ghz": 9.0}})

    result, record = run.run("tune_sessions", SEED, 0.2, 0, sizing=TINY, prepare=unreachable_target)
    check("unconverged tune session counted as a miss that fails the run, run completes",
          not result["correct"] and result["failed"] == 0
          and result["metrics"]["ok_frac"]["value"] == 0.0,
          f"{sum(record['misses'].values())} misses in {result['attempted']} sessions: "
          f"{record['failures'][:1]}")

    print("selftest:", "FAILED " + ", ".join(problems) if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
