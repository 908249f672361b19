"""tools/probe_sessions.py, the tally every controller change is checked
against, runs here on its smallest probe.  The tool puts the checkout's src/
first on sys.path, so this test runs from the checkout only."""

import importlib.util
import sys
from pathlib import Path

from pintune import fitting, piezo

PROBE_TOOL = Path(__file__).resolve().parents[1] / "tools" / "probe_sessions.py"
NOISELESS_GRID = (
    "noiseless_grid: sessions 36, Converged 36 Unreachable 0 StepBudgetExhausted 0 Aborted 0, "
    "false 0, measurements 180 (median 5, p90 6, max 6), retries 4, fit_iterations 655, "
    "all_fit_iterations 2255, aborted by note (none), outcomes 584704392f62ba59, "
    "logs 2ea4568690470fa3")


def test_the_noiseless_grid_probe_prints_its_tally(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool inserts src/
    spec = importlib.util.spec_from_file_location("probe_sessions", PROBE_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    synthesize, cholesky = piezo.synthesize_sweep, fitting._cholesky
    assert tool.probe("noiseless_grid") == NOISELESS_GRID
    assert piezo.synthesize_sweep is synthesize  # the counters are taken off again
    assert fitting._cholesky is cholesky
