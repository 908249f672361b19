"""File formats: trace CSV, time-series CSV, and result JSON.

Trace CSV: header `frequency_hz,power_ratio`, one row per point, decimal
notation with 17 significant digits so write-then-read round-trips exactly.
Lines starting with `#` before the header carry metadata (input power,
timestamp).  On ingest an optional third column `pout_dbm` is accepted and
converted to a power ratio using the recorded input power.

Time-series CSV: header `time_s,f_r_hz` plus an optional `# f0_hz = ...`
metadata line.
"""

import dataclasses
import json

import numpy as np

from .errors import ValidationError
from .stability import FrequencyTimeSeries
from .transmission import SweepTrace

TRACE_HEADER = "frequency_hz,power_ratio"
TRACE_HEADER_3COL = "frequency_hz,power_ratio,pout_dbm"
SERIES_HEADER = "time_s,f_r_hz"

TOOLKIT_VERSION = "0.1.0"


def _fmt(x):
    return f"{x:.17g}"


def write_trace_csv(path, trace):
    with open(path, "w") as fh:
        fh.write(f"# p_in_dbm = {_fmt(trace.p_in_dbm)}\n")
        fh.write(f"# timestamp_s = {_fmt(trace.timestamp)}\n")
        fh.write(TRACE_HEADER + "\n")
        for f, r in zip(trace.frequencies, trace.power_ratio):
            fh.write(f"{_fmt(f)},{_fmt(r)}\n")


def _check_finite(path, linenos, *columns):
    """Reject NaN and infinite values, naming the first offending line."""
    bad = ~np.logical_and.reduce([np.isfinite(c) for c in columns])
    if bad.any():
        raise ValidationError(f"{path}:{linenos[int(np.argmax(bad))]}: empty or non-finite value")


def _read_lines(path):
    try:
        with open(path) as fh:
            return fh.readlines()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def read_trace_csv(path, p_in_dbm=None):
    """Parse a trace file; IO/format problems raise ValidationError with the
    line number."""
    lines = _read_lines(path)
    meta = {}
    header = None
    rows, linenos = [], []
    header_cols = 2
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            if "=" in text:
                key, _, value = text.lstrip("#").partition("=")
                meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = text
            if text == TRACE_HEADER:
                header_cols = 2
            elif text == TRACE_HEADER_3COL:
                header_cols = 3
            else:
                raise ValidationError(
                    f"{path}:{lineno}: expected header '{TRACE_HEADER}', got {text!r}"
                )
            continue
        parts = text.split(",")
        if len(parts) != header_cols:
            raise ValidationError(
                f"{path}:{lineno}: expected {header_cols} columns, got {len(parts)}"
            )
        try:
            rows.append([float(p) if p != "" else None for p in parts])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric value") from None
        linenos.append(lineno)
    if header is None or not rows:
        raise ValidationError(f"{path}: no data rows")

    if p_in_dbm is None and "p_in_dbm" in meta:
        try:
            p_in_dbm = float(meta["p_in_dbm"])
        except ValueError:
            raise ValidationError(f"{path}: bad '# p_in_dbm =' metadata") from None

    freqs, ratios = [], []
    for lineno, row in zip(linenos, rows):
        freqs.append(row[0])
        ratio = row[1]
        if ratio is None:
            if len(row) < 3 or row[2] is None:
                raise ValidationError(f"{path}: empty power_ratio without pout_dbm")
            if p_in_dbm is None:
                raise ValidationError(
                    f"{path}: pout_dbm column requires a recorded input power"
                )
            try:
                ratio = 10.0 ** ((row[2] - p_in_dbm) / 10.0)
            except OverflowError:
                raise ValidationError(f"{path}:{lineno}: pout_dbm out of range") from None
        ratios.append(ratio)
    freqs, ratios = np.asarray(freqs, dtype=float), np.asarray(ratios)  # empty cell -> nan
    _check_finite(path, linenos, freqs, ratios)

    timestamp = float(meta.get("timestamp_s", 0.0))
    try:
        return SweepTrace(
            freqs, ratios,
            p_in_dbm=p_in_dbm if p_in_dbm is not None else 0.0,
            timestamp=timestamp,
        )
    except Exception as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_series_csv(path, series):
    with open(path, "w") as fh:
        fh.write(f"# f0_hz = {_fmt(series.f0)}\n")
        fh.write(SERIES_HEADER + "\n")
        for t, f in zip(series.timestamps, series.f_r):
            fh.write(f"{_fmt(t)},{_fmt(f)}\n")


def read_series_csv(path, f0=None):
    lines = _read_lines(path)
    meta = {}
    header = None
    times, freqs, linenos = [], [], []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            if "=" in text:
                key, _, value = text.lstrip("#").partition("=")
                meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = text
            if text != SERIES_HEADER:
                raise ValidationError(
                    f"{path}:{lineno}: expected header '{SERIES_HEADER}', got {text!r}"
                )
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 2 columns")
        try:
            times.append(float(parts[0]))
            freqs.append(float(parts[1]))
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric value") from None
        linenos.append(lineno)
    if header is None or not times:
        raise ValidationError(f"{path}: no data rows")
    times, freqs = np.asarray(times), np.asarray(freqs)
    _check_finite(path, linenos, times, freqs)
    if f0 is None:
        f0 = float(meta["f0_hz"]) if "f0_hz" in meta else float(np.mean(freqs))
    try:
        return FrequencyTimeSeries(times, freqs, f0=f0)
    except Exception as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def result_document(command, config_raw, seed, payload):
    """Assemble the provenance-carrying JSON document for a command's output.

    Deliberately contains no wall-clock data so identical runs produce
    bit-identical files.
    """
    return {
        "toolkit_version": TOOLKIT_VERSION,
        "command": command,
        "seed": seed,
        "config": config_raw,
        "result": payload,
    }


def write_result_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def to_jsonable(obj):
    """Dataclasses / numpy values -> plain JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return None  # JSON has no NaN/Inf
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj
