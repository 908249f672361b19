"""Whole tune sessions are pinned bit for bit.

Each session below is run on the noisy plant of acceptance criterion 9 and
its result, as `to_jsonable` writes it, is hashed.  A change to the
controller loop that should not change what it does (a refactor of how the
log is written, say) must leave every hash as it is.  Outcome, step count and
total pulses are pinned beside the hash, so a failure shows what moved.

The hashes were recorded with numpy 2.4.6 (OpenBLAS) on x86-64: the sessions
run the same sweep synthesis and fits as the golden fits in
test_fitting_exact.py, and another numpy or BLAS build may round them
differently.  A change that alters a session by design re-records the
affected rows and says so in CHANGES.md.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from pintune import config
from pintune import io as pio
from pintune.piezo import ControllerModel, tune_to_target

NOISY_CONFIG = {"noise": {"sigma_rel": 0.005, "vib_amplitude_um": 0.1}}


def seed_of(*key):
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


# (start um, seed key, plant decay-length factor, plant step nm, backlash nm):
# (outcome, steps, total pulses, sha256 of the session JSON).  The first four
# are matched; the last two differ from the controller's belief (the
# calibrated decay length, 60-nm steps, no backlash).
SESSIONS = {
    (300, (171, 300, 0), 1.0, 60.0, 0.0): (
        "Converged", 8, 2432, "94a212ca929e4920e414d1f2ac86d187a71ac948d0ea46f69b125cdbeb401db5"),
    (300, (171, 300, 1), 1.0, 60.0, 0.0): (
        "Converged", 8, 2432, "6936a922ea0c5b77a596886a204c6277b3a71e4af80334a53dec57b34ffcc1c2"),
    (600, (171, 600, 0), 1.0, 60.0, 0.0): (
        "Converged", 8, 7432, "cfaa3570982a07adaa734db265f387f9e76dad36c5dbc0d889a868de064fe229"),
    (600, (171, 600, 1), 1.0, 60.0, 0.0): (
        "Converged", 8, 7432, "2a81cb70767939a012c87693ca20f18c74a9cd24fea0f1a9d80446bcecf46148"),
    (600, (181, 10, 600, 0), 1.0, 66.0, 5.0): (
        "Converged", 15, 8606, "9e2372de08e0d3ede57d82888fce9023796d0f6ac573c8d3022b31cb54b2328a"),
    (300, (181, 2, 300, 0), 0.9, 60.0, 0.0): (
        "Converged", 8, 2624, "1d7768093596db6ff1e8ffc709dc4bfd9f665ff9f107c5f97853d8fa12d15bf9"),
}


@pytest.mark.parametrize("key", list(SESSIONS), ids=lambda key: "-".join(map(str, key[1])))
def test_session_is_bit_identical(key):
    start_um, seed_key, lam, step_nm, backlash_nm = key
    cfg = config.from_dict(NOISY_CONFIG)
    believed = cfg.plant()
    stage = replace(cfg.stage, position=start_um * 1e-6)
    model = ControllerModel.of(believed, stage)
    plant = replace(believed, pin=replace(believed.pin, lam=believed.pin.lam * lam),
                    noise=replace(cfg.noise, seed=seed_of(*seed_key)))
    stage = replace(stage, step_size=step_nm * 1e-9, backlash=backlash_nm * 1e-9)
    session = tune_to_target(plant, stage, cfg.controller, model)
    text = json.dumps(pio.to_jsonable(session), sort_keys=True)
    assert (session.outcome, len(session.steps), session.total_pulses,
            hashlib.sha256(text.encode()).hexdigest()) == SESSIONS[key]
