"""pintune benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload tune_sessions --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed (set-up, repeated and timed), runs
operations back to back for --seconds, checks each one, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics with no instrumentation installed;
their times are scaled to a fixed machine speed (speed.py).
--trace 1 wraps every layer boundary, reports the per-layer metrics and the
exact-count fingerprint, and writes the spans under benchmarks/out/.
The package is imported from src/ of the checkout this file sits in.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"


def _import_package():
    """Import pintune from src/ of this checkout, with one thread per process,
    here and in every CLI child: numpy's BLAS would otherwise start a thread
    pool that competes for the machine's CPUs.  Runs before numpy loads."""
    if not (SRC / "pintune" / "__init__.py").is_file():
        sys.exit(f"error: no pintune package under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import pintune

    if Path(pintune.__file__).resolve().parent != SRC / "pintune":
        sys.exit(f"error: imported pintune from {pintune.__file__}, not {SRC}")


def percentile(values, q):
    """Linear-interpolated q-th percentile."""
    s = sorted(values)
    k = (len(s) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def peak_rss_mb(of):
    """Peak resident set of this process ("self") or of the largest child
    process waited for ("children")."""
    who = resource.RUSAGE_SELF if of == "self" else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(sizing):
    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "sizing": {k: list(v) if isinstance(v, tuple) else v for k, v in vars(sizing).items()},
    }


def by_class(outcomes, time=lambda o: o.seconds):
    classes = {}
    for o in outcomes:
        classes.setdefault(o.cls, []).append(time(o))
    return classes


def end_to_end(outcomes, setup_s, rss_of):
    """Metrics a user sees.  op_p50_ms is the median op time within each
    class of operation (start height, fit regime and point count, verb),
    averaged over the classes, so the class mix of a time-limited run does
    not move it.  Each op time is scaled by the machine speed measured just
    before it, as setup_s is.  ok_frac is the share of operations whose
    result was within its accuracy bounds."""
    import speed

    classes = by_class(outcomes, lambda o: speed.scaled(o.seconds, o.ref_ms)).values()
    return {
        "op_p50_ms": (1e3 * statistics.fmean(percentile(v, 50) for v in classes), "ms"),
        "ok_frac": (sum(o.hit for o in outcomes) / len(outcomes), "ratio"),
        "peak_rss_mb": (peak_rss_mb(rss_of), "MB"),
        "setup_s": (setup_s, "s"),
    }


def run_ops(do, atom, start, deadline, min_ops):
    """Call do(i) for i = start, start + 1, ...: at least up to min_ops, then
    until the deadline, always finishing a group of `atom` operations."""
    outcomes = []
    i = start
    while i < min_ops or perf_counter() < deadline or i % atom:
        outcomes.append(do(i))
        i += 1
    return outcomes


def measure_traced(workload, ctx, seed, seconds, workdir, sizing):
    import layers
    from tracing import Tracer
    from workloads import import_seconds, layer_probe

    deadline = perf_counter() + seconds
    n_fp = workload.fingerprint_ops(sizing)

    def op(i):
        return workload.op(ctx, i, inprocess=True)

    tracer = Tracer()

    def traced_op(i):
        with tracer.span("op." + workload.name, tag=i):
            return op(i)

    def timed(fn):
        nonlocal outcomes
        t0 = perf_counter()
        outcomes += run_ops(fn, workload.atom, 0, 0.0, n_fp)
        return perf_counter() - t0

    # The overhead estimate: the fingerprint ops once to warm up, then
    # untraced, traced, traced, untraced, so neither side always runs first,
    # repeated for at least a third of the run.  Only the first traced pass
    # (phase "fp") counts towards the fingerprint.
    outcomes = []
    timed(op)
    untraced_s = traced_s = 0.0
    overhead_end = perf_counter() + seconds / 3
    tracer.phase = "fp"
    try:
        while True:
            untraced_s += timed(op)
            tracer.install()
            traced_s += timed(traced_op)
            tracer.phase = "overhead"
            traced_s += timed(traced_op)
            tracer.close()
            untraced_s += timed(op)
            if perf_counter() >= overhead_end:
                break
        tracer.install()
        tracer.phase = "run"
        outcomes += run_ops(traced_op, workload.atom, n_fp, deadline, 0)
        tracer.phase = "probe"
        outcomes += layer_probe(seed, workdir, SRC, sizing)
    finally:
        tracer.close()
    overhead_pct = 100.0 * (traced_s / untraced_s - 1.0)
    fp = layers.fingerprint(tracer)
    return outcomes, layers.per_layer(tracer, fp, import_seconds(SRC), overhead_pct), fp, tracer


def fingerprint_check(workload, seed, fp):
    """Compare with the committed baseline fingerprint for this seed, if any."""
    if not BASELINE.is_file():
        return "no baseline file"
    known = json.loads(BASELINE.read_text()).get("fingerprints", {}).get(workload, {})
    if str(seed) not in known:
        return "no baseline for this seed"
    diff = sorted(k for k in set(fp) | set(known[str(seed)]) if fp.get(k) != known[str(seed)].get(k))
    return "matches baseline" if not diff else "differs from baseline in " + ", ".join(diff)


def run(workload_name, seed, seconds, trace, sizing=None, prepare=None):
    """One run; returns (result line, full record).  `prepare(ctx)` may alter
    the inputs after set-up, which the self-test uses to inject bad input."""
    import speed
    from workloads import WORKLOADS, Sizing

    sizing = sizing or Sizing()
    workload = WORKLOADS[workload_name]
    tag = f"{workload_name}-seed{seed}-trace{trace}"
    workdir = OUT / ("work-" + tag)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_times, setup_scaled = [], []
        for _ in range(sizing.setup_repeats or workload.setup_repeats):
            ctx = None  # free the last set-up's inputs, so peak_rss_mb holds one set
            ref = speed.reference_ms()
            t0 = perf_counter()
            ctx = workload.setup(seed, workdir, sizing, SRC)
            setup_times.append(perf_counter() - t0)
            setup_scaled.append(speed.scaled(setup_times[-1], ref))
        if prepare:
            prepare(ctx)
        record = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
                  "env": environment(sizing), "setup_times_s": setup_times,
                  "setup_scaled_s": setup_scaled}
        if trace:
            outcomes, metrics, fp, tracer = measure_traced(workload, ctx, seed, seconds, workdir, sizing)
            record["fingerprint"] = fp
            record["fingerprint_check"] = fingerprint_check(workload_name, seed, fp)
            record["spans"] = len(tracer.spans)
            tracer.write(OUT / f"{tag}.spans.jsonl.gz")
        else:
            machine = speed.Speed()

            def op(i):
                ref = machine.current()
                outcome = workload.op(ctx, i)
                outcome.ref_ms = ref
                return outcome

            outcomes = run_ops(op, workload.atom, 0, perf_counter() + seconds, workload.fingerprint_ops(sizing))
            metrics = end_to_end(outcomes, statistics.median(setup_scaled), workload.rss_of)
            record["unscaled"] = {
                "op_p50_ms": 1e3 * statistics.fmean(percentile(v, 50) for v in by_class(outcomes).values()),
                "setup_s": statistics.median(setup_times)}
            record["reference"] = machine.summary()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if not o.ok]
    problems = workload.check(outcomes)
    result = {
        "correct": not failed and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result)
    record["classes"] = {c: class_stats(v) for c, v in by_class(outcomes).items()}
    record["items_per_s"] = sum(o.items for o in outcomes) / sum(o.seconds for o in outcomes)
    record["misses"] = {}
    for o in outcomes:
        if not o.hit:
            key = f"{o.cls}: {o.error}"
            record["misses"][key] = record["misses"].get(key, 0) + 1
    record["failures"] = problems + [f"{o.cls}: {o.error}" for o in failed[:20]]
    return result, record


def class_stats(seconds):
    """Count, median, and the highest of p90/p99 with at least ten
    operations beyond it, if any."""
    stats = {"n": len(seconds), "p50_ms": 1e3 * percentile(seconds, 50)}
    for q in (99, 90):
        if len(seconds) * (100 - q) / 100 >= 10:
            stats[f"p{q}_ms"] = 1e3 * percentile(seconds, q)
            break
    return stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["tune_sessions", "fit_batch", "cli_session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_package()
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {record['attempted']} ops, {record['failed']} failed; "
          f"record {path.relative_to(ROOT)}")
    if "fingerprint" in record:
        print(f"fingerprint {json.dumps(record['fingerprint'], sort_keys=True)}: {record['fingerprint_check']}")
    for failure in record["failures"]:
        print("failed:", failure)
    for miss, n in record["misses"].items():
        print(f"missed {n}x:", miss)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
