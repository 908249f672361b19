"""The noise-free near_top and wide probes of tools/probe_sessions.py against
their pinned tally lines, as test_probe_tool.py pins noiseless_grid.  They
take about a minute, so the file is not named test_*.py and the tier-1 run
does not collect it; CI runs it as its own step:

    PYTHONPATH=src python -m pytest -q tests/slow_probe_tallies.py

Neither probe draws noise it uses, so a change to how the noise is drawn
keeps both lines; a change to the fits or the controller that moves them
re-records them and says so."""

import importlib.util
import sys
from pathlib import Path

import pytest

PROBE_TOOL = Path(__file__).resolve().parents[1] / "tools" / "probe_sessions.py"
TALLIES = {
    "near_top": (
        "near_top: sessions 42, Converged 19 Unreachable 0 StepBudgetExhausted 23 Aborted 0, "
        "false 0, measurements 46057 (median 2000, p90 2000, max 2000), retries 0, "
        "fit_iterations 141955, all_fit_iterations 141955, aborted by note (none), "
        "outcomes cafefd64a5d78ec1, logs 8e4d837505ed2f25"),
    "wide": (
        "wide: sessions 400, Converged 218 Unreachable 0 StepBudgetExhausted 164 Aborted 18, "
        "false 0, measurements 34641 (median 7, p90 200, max 200), retries 1941, "
        "fit_iterations 110900, all_fit_iterations 783597, aborted by note "
        "(fit failed: ConvergenceFailure 18), outcomes d882d04ff1abfcc9, logs be890e6ffd3c4de2"),
}


@pytest.mark.parametrize("name", list(TALLIES))
def test_the_noise_free_probe_keeps_its_tally(monkeypatch, name):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool inserts src/
    spec = importlib.util.spec_from_file_location("probe_sessions", PROBE_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.probe(name) == TALLIES[name]
