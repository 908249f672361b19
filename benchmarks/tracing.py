"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions at the module attributes their callers look
up (``pintune.piezo.synthesize_sweep`` is what the controller calls), so no
file under ``src/`` changes.  Each call records one span: name, start, end,
parent span, the phase of the run it belongs to, a tag computed from the
arguments and result of a call that returned, and the exception type of one
that raised.  Spans stay in memory until the run ends.  ``close()`` puts every
original function back, so an untraced run in the same process records
nothing.
"""

import gzip
import importlib
import json
import os
from contextlib import contextmanager
from time import perf_counter

# Span fields, by position.
NAME, START, END, PARENT, PHASE, TAG, ERROR = range(7)


def _sweep_tag(args, result):
    return args[0].n_points


def _fit_tag(args, result):
    return [int(args[0].frequencies.size), result.n_iterations]


def _session_tag(args, result):
    return [len(result.steps), result.total_pulses, args[2].duration_s]


def _file_size(args, result):
    return os.path.getsize(args[0])


# (module, attribute, span name, tag).  A function imported into several
# modules is wrapped at each attribute that some caller looks up.
BOUNDARIES = [
    ("pintune.cli", "main", "cli.main", None),
    ("pintune.piezo", "tune_to_target", "piezo.tune_to_target", _session_tag),
    ("pintune.cli", "tune_to_target", "piezo.tune_to_target", _session_tag),
    ("pintune.piezo", "piezo_step", "piezo.piezo_step", None),
    ("pintune.piezo", "synthesize_sweep", "transmission.synthesize_sweep", _sweep_tag),
    ("pintune.cli", "synthesize_sweep", "transmission.synthesize_sweep", _sweep_tag),
    ("pintune.fitting", "fit_resonance", "fitting.fit_resonance", _fit_tag),
    ("pintune.piezo", "fit_resonance", "fitting.fit_resonance", _fit_tag),
    ("pintune.cli", "fit_resonance", "fitting.fit_resonance", _fit_tag),
    ("pintune.fitting", "initial_guess", "fitting.initial_guess", None),
    ("pintune.piezo", "tuned_frequency", "resonator.tuned_frequency", None),
    ("pintune.piezo", "frequency_slope", "resonator.frequency_slope", None),
    ("pintune.piezo", "baseline_frequency", "resonator.baseline_frequency", None),
    ("pintune.transmission", "tuned_frequency", "resonator.tuned_frequency", None),
    ("pintune.transmission", "frequency_slope", "resonator.frequency_slope", None),
    ("pintune.cli", "tuned_frequency", "resonator.tuned_frequency", None),
    ("pintune.cli", "calibrate_pin_model", "resonator.calibrate_pin_model", None),
    ("pintune.cli", "load_config", "config.load_config", None),
    ("pintune.cli", "from_dict", "config.from_dict", None),
    ("pintune.io", "write_trace_csv", "io.write_trace_csv", _file_size),
    ("pintune.io", "read_trace_csv", "io.read_trace_csv", None),
    ("pintune.io", "read_series_csv", "io.read_series_csv", None),
    ("pintune.io", "write_result_json", "io.write_result_json", _file_size),
    ("pintune.cli", "drift_rate", "stability.drift_rate", None),
    ("pintune.cli", "detect_oscillation", "stability.detect_oscillation", None),
    ("pintune.cli", "allan_deviation", "stability.allan_deviation", None),
]

# Every module boundary a traced run must cover.
LAYERS = sorted({name.split(".")[0] for _, _, name, _ in BOUNDARIES})


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = None
        self._stack = []
        self._patched = []

    def install(self):
        for module_name, attr, name, tag in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, tag))
            self._patched.append((module, attr, original))
        return self

    def close(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.phase, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _wrap(self, fn, name, tag):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if tag is not None:
                span[TAG] = tag(args, result)
            return result
        return traced

    @contextmanager
    def span(self, name, tag=None):
        """A span opened by the benchmark itself, such as one workload
        operation; layer spans nest under it."""
        span = self._open(name)
        span[TAG] = tag
        try:
            yield span
        except Exception as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        """Write the spans as gzipped JSON lines, one per span in start order
        (the line number is the span id), times in us from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.writelines(
                f'{{"name": "{s[NAME]}", "parent": {s[PARENT]}, "phase": "{s[PHASE]}", '
                f'"start_us": {(s[START] - t0) * 1e6:.3f}, "end_us": {(s[END] - t0) * 1e6:.3f}, '
                f'"tag": {"null" if s[TAG] is None else json.dumps(s[TAG])}, '
                f'"error": {"null" if s[ERROR] is None else json.dumps(s[ERROR])}}}\n'
                for s in self.spans)

