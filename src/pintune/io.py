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
import math

from . import __version__
from ._lazy import numpy as np
from .errors import DomainError, ValidationError
from .stability import FrequencyTimeSeries
from .transmission import SweepTrace

TRACE_HEADER = "frequency_hz,power_ratio"
TRACE_HEADER_3COL = "frequency_hz,power_ratio,pout_dbm"
SERIES_HEADER = "time_s,f_r_hz"


def _write_table(path, meta, header, columns):
    """Write the CSV that `_read_table` parses: `# key = value` metadata lines,
    the header, then one row per point, 17 significant digits per value."""
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.writelines(f"# {key} = {value:.17g}\n" for key, value in meta.items())
        fh.write(header + "\n")
        # Python floats: they format faster than np.float64, to the same text
        fh.writelines(row.format(*values) for values in zip(*(c.tolist() for c in columns)))


def write_trace_csv(path, trace):
    _write_table(path, {"p_in_dbm": trace.p_in_dbm, "timestamp_s": trace.timestamp},
                 TRACE_HEADER, (trace.frequencies, trace.power_ratio))


def _check_finite(path, linenos, *columns):
    """Reject NaN and infinite values, naming the first offending line."""
    bad = ~np.logical_and.reduce([np.isfinite(c) for c in columns])
    if bad.any():
        raise ValidationError(f"{path}:{linenos[int(np.argmax(bad))]}: empty or non-finite value")


def _read_table(path, headers):
    """Parse a CSV file: `# key = value` metadata lines, a header that must be
    one of `headers`, then numeric rows (an empty cell reads as nan).

    Returns (meta, header, columns, linenos), where columns has one row per
    column and linenos gives each data row's line number.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    meta, header, rows, linenos = {}, None, [], []
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
            if text not in headers:
                raise ValidationError(
                    f"{path}:{lineno}: expected header '{headers[0]}', got {text!r}"
                )
            header, n_cols = text, text.count(",") + 1
            continue
        parts = text.split(",")
        if len(parts) != n_cols:
            raise ValidationError(f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
        try:
            rows.append([float(p) if p else math.nan for p in parts])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric value") from None
        linenos.append(lineno)
    if header is None or not rows:
        raise ValidationError(f"{path}: no data rows")
    return meta, header, np.array(rows).T.copy(), linenos


def _meta_float(path, meta, key, default):
    """The finite float value of the `# key = value` line, or default."""
    if key not in meta:
        return default
    try:
        value = float(meta[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"{path}: bad '# {key} =' metadata")
    return value


def read_trace_csv(path, p_in_dbm=None):
    """Parse a trace file; IO/format problems raise ValidationError with the
    line number."""
    meta, header, columns, linenos = _read_table(path, (TRACE_HEADER, TRACE_HEADER_3COL))
    if p_in_dbm is None:
        p_in_dbm = _meta_float(path, meta, "p_in_dbm", None)
    timestamp = _meta_float(path, meta, "timestamp_s", 0.0)
    freqs, ratios = columns[0], columns[1]
    missing = np.flatnonzero(np.isnan(ratios)).tolist() if header == TRACE_HEADER_3COL else []
    if missing and p_in_dbm is None:
        raise ValidationError(f"{path}: pout_dbm column requires a recorded input power")
    if missing:
        pout = columns[2].tolist()  # Python floats: numpy's SIMD power rounds differently
        for i in missing:
            try:
                ratios[i] = 10.0 ** ((pout[i] - p_in_dbm) / 10.0)
            except OverflowError:
                raise ValidationError(f"{path}:{linenos[i]}: pout_dbm out of range") from None
    _check_finite(path, linenos, freqs, ratios)
    try:
        return SweepTrace(
            freqs, ratios,
            p_in_dbm=p_in_dbm if p_in_dbm is not None else 0.0,
            timestamp=timestamp,
        )
    except DomainError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_series_csv(path, series):
    _write_table(path, {"f0_hz": series.f0}, SERIES_HEADER, (series.timestamps, series.f_r))


def read_series_csv(path, f0=None):
    meta, _, (times, freqs), linenos = _read_table(path, (SERIES_HEADER,))
    _check_finite(path, linenos, times, freqs)
    if f0 is None:
        f0 = _meta_float(path, meta, "f0_hz", None)
    if f0 is None:
        with np.errstate(over="ignore"):  # an overflowing mean is rejected below as inf
            f0 = float(np.mean(freqs))
    try:
        return FrequencyTimeSeries(times, freqs, f0=f0)
    except DomainError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_result_json(path, command, payload, config=None, seed=None):
    """Write a command's result as its provenance-carrying JSON document.

    Deliberately contains no wall-clock data so identical runs produce
    bit-identical files.
    """
    doc = {
        "toolkit_version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "result": to_jsonable(payload),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def to_jsonable(obj):
    """Dataclasses / numpy values -> plain JSON types, NaN and infinities -> null."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if hasattr(obj, "tolist"):  # a numpy array or scalar, as Python values
        return to_jsonable(obj.tolist())
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return None  # JSON has no NaN/Inf
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj
