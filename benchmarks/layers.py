"""Per-layer metrics and the exact-count fingerprint, derived from the spans
of a traced run.

Counts come from the first traced pass over the fingerprint ops only (phase
"fp"), which depends on the seed alone, so they repeat exactly between runs.
Per-call times come from every traced op of the workload (phases "fp",
"overhead" and "run"); a layer the workload never calls is timed from the
layer probe that ends each traced run.
"""

from tracing import ERROR, NAME, PARENT, PHASE, TAG

FIT = "fitting.fit_resonance"
SYNTH = "transmission.synthesize_sweep"
TUNE = "piezo.tune_to_target"
FIT_SIZES = (401, 1601, 6401)


def _keys(span):
    """Names a span is counted under: its own, its layer's, and for a fit
    that returned, its point count."""
    name = span[NAME]
    keys = [name, name.split(".")[0] + ".*"]
    if name == FIT and span[TAG]:
        keys.append(f"{FIT}@{span[TAG][0]}")
    return keys


def _table(spans, self_times, phases):
    table = {}
    for s, self_s in zip(spans, self_times):
        if s[PHASE] in phases:
            for key in _keys(s):
                row = table.setdefault(key, [0, 0.0])
                row[0] += 1
                row[1] += self_s
    return table


def fingerprint(tracer):
    """Exact counts over the fingerprint ops."""
    ids = [i for i, s in enumerate(tracer.spans) if s[PHASE] == "fp"]
    spans = [tracer.spans[i] for i in ids]
    sessions = [s[TAG] for s in spans if s[NAME] == TUNE and s[TAG]]
    fits = [s for s in spans if s[NAME] == FIT]
    tune_ids = {i for i, s in zip(ids, spans) if s[NAME] == TUNE}
    measurements = sum(t[0] for t in sessions)
    sweeps_in_sessions = sum(1 for s in spans if s[NAME] == SYNTH and s[PARENT] in tune_ids)
    return {
        "sessions": len(sessions),
        "measurements": measurements,
        "pulses": sum(t[1] for t in sessions),
        "lab_seconds": sum(t[0] * t[2] for t in sessions),
        "synthesize_calls": sum(1 for s in spans if s[NAME] == SYNTH),
        "wide_span_retries": sweeps_in_sessions - measurements,
        "sweeps_in_sessions": sweeps_in_sessions,
        "fits": len(fits),
        "fits_failed": sum(1 for s in fits if s[ERROR]),
        "fit_iterations": sum(s[TAG][1] for s in fits if s[TAG]),
        "piezo_steps": sum(1 for s in spans if s[NAME] == "piezo.piezo_step"),
        "resonator_calls": sum(1 for s in spans if s[NAME].startswith("resonator.")),
        "bytes_written": sum(s[TAG] for s in spans if s[NAME].startswith("io.write") and s[TAG]),
    }


def per_layer(tracer, fp, import_s, overhead_pct):
    self_times = tracer.self_times()
    own = _table(tracer.spans, self_times, {"fp", "overhead", "run"})
    probe = _table(tracer.spans, self_times, {"probe"})

    def per_call(key, scale):
        """Mean self time per call, from the workload or else the probe."""
        for table in (own, probe):
            if key in table:
                calls, self_s = table[key]
                return scale * self_s / calls
        raise KeyError(f"no span for {key}: the layer probe must reach every boundary")

    ok_fits = fp["fits"] - fp["fits_failed"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "cli.import_s": (import_s, "s"),
        "cli.main_self_ms": (per_call("cli.main", 1e3), "ms"),
        "config.load_ms": (per_call("config.*", 1e3), "ms"),
        "io.write_trace_csv_ms": (per_call("io.write_trace_csv", 1e3), "ms"),
        "io.read_trace_csv_ms": (per_call("io.read_trace_csv", 1e3), "ms"),
        "io.read_series_csv_ms": (per_call("io.read_series_csv", 1e3), "ms"),
        "io.write_result_json_ms": (per_call("io.write_result_json", 1e3), "ms"),
        "io.bytes_written": (fp["bytes_written"], "count"),
        "transmission.synthesize_sweep.calls": (fp["synthesize_calls"], "count"),
        "transmission.synthesize_sweep.us": (per_call(SYNTH, 1e6), "us"),
        "fitting.fit_resonance.calls": (fp["fits"], "count"),
        "fitting.fit_resonance.self_us": (per_call(FIT, 1e6), "us"),
        **{f"fitting.fit_resonance.self_us.{n}": (per_call(f"{FIT}@{n}", 1e6), "us") for n in FIT_SIZES},
        "fitting.initial_guess.us": (per_call("fitting.initial_guess", 1e6), "us"),
        "fitting.iterations_per_fit": (ratio(fp["fit_iterations"], ok_fits), "count"),
        "fitting.failed": (fp["fits_failed"], "count"),
        "fitting.useful_ratio": (ratio(ok_fits, fp["fits"]), "ratio"),
        "piezo.controller_self_ms": (per_call(TUNE, 1e3), "ms"),
        "piezo.piezo_step.calls": (fp["piezo_steps"], "count"),
        "piezo.piezo_step.us": (per_call("piezo.piezo_step", 1e6), "us"),
        "piezo.measurements": (fp["measurements"], "count"),
        "piezo.sweeps_per_measurement": (ratio(fp["sweeps_in_sessions"], fp["measurements"]), "ratio"),
        "piezo.sim_lab_hours": (ratio(fp["lab_seconds"] / 3600.0, fp["sessions"]), "h"),
        "resonator.calls": (fp["resonator_calls"], "count"),
        "resonator.us": (per_call("resonator.*", 1e6), "us"),
        "stability.drift_rate_ms": (per_call("stability.drift_rate", 1e3), "ms"),
        "stability.detect_oscillation_ms": (per_call("stability.detect_oscillation", 1e3), "ms"),
        "stability.allan_deviation_ms": (per_call("stability.allan_deviation", 1e3), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return metrics
