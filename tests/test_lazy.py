"""The loader that gives each module its numpy on first use."""

import sys

import numpy as np
import pytest

from pintune._lazy import load

PROBE = "pintune_lazy_probe"


@pytest.fixture
def probe_module(tmp_path, monkeypatch):
    """A module not yet imported, whose body leaves a file `ran` when it runs."""
    (tmp_path / f"{PROBE}.py").write_text(
        "from pathlib import Path\nPath(__file__).with_name('ran').touch()\nVALUE = 42\n")
    monkeypatch.syspath_prepend(tmp_path)
    yield tmp_path / "ran"
    sys.modules.pop(PROBE, None)


def test_a_module_not_yet_imported_runs_at_first_attribute_access(probe_module):
    module = load(PROBE)
    assert sys.modules[PROBE] is module
    assert not probe_module.exists()
    assert module.VALUE == 42
    assert probe_module.exists()


def test_an_imported_module_is_returned_itself():
    assert load("numpy") is np


def test_a_missing_module_raises_module_not_found():
    with pytest.raises(ModuleNotFoundError) as info:
        load("pintune_no_such_module")
    assert info.value.name == "pintune_no_such_module"
