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
        "Converged", 4, 2432, "b39769102ee111577a8efa1251326c8115a9c0437ca0e7097d3f9cb71a762103"),
    (300, (171, 300, 1), 1.0, 60.0, 0.0): (
        "Converged", 8, 2436, "4c9992c8f20997bd853323c93b5c687c85fb82fadd458afb7cdb12b225963273"),
    (600, (171, 600, 0), 1.0, 60.0, 0.0): (
        "Converged", 4, 7432, "8a0a84442cf49adfaea266cc4439f29841685dfce188f874c2a8369d4e842b4b"),
    (600, (171, 600, 1), 1.0, 60.0, 0.0): (
        "Converged", 4, 7431, "dc699494aa161e70609813a695f91faac822e5923c85ec1ac9d58ea37f82c80e"),
    (600, (181, 10, 600, 0), 1.0, 66.0, 5.0): (
        "Converged", 5, 7502, "ba1476590279dd1282b74a5abe99396be497b07cb30cd2313779e6ec6f88355a"),
    (300, (181, 2, 300, 0), 0.9, 60.0, 0.0): (
        "Converged", 8, 2824, "c984354482cc67366db1ae73118c93be29e74228d5f1195384a90a98eb8f609f"),
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


# The noiseless grid of tools/probe_sessions.py: the default (noise-free)
# config, one session per case and start height (300, then 600 um), the
# matched case first and then the 17 mismatches in this order.  The first 16
# hex digits of the digest are the probe's `logs` digest.
GRID_CASES = [(1.0, 60.0, 0.0)] + [
    (lam, step, back) for lam in (0.9, 1.0, 1.1) for step in (54.0, 60.0, 66.0)
    for back in (0.0, 5.0) if (lam, step, back) != (1.0, 60.0, 0.0)
]
GRID_LOGS = "2ea4568690470fa3e08f248cea9438b22da24e31af4b4326958223e5c58a6e43"


def test_noiseless_grid_is_bit_identical():
    cfg = config.from_dict({})
    believed = cfg.plant()
    logs = hashlib.sha256()
    for lam, step_nm, backlash_nm in GRID_CASES:
        for start_um in (300, 600):
            stage = replace(cfg.stage, position=start_um * 1e-6)
            model = ControllerModel.of(believed, stage)
            plant = replace(believed, pin=replace(believed.pin, lam=believed.pin.lam * lam))
            stage = replace(stage, step_size=step_nm * 1e-9, backlash=backlash_nm * 1e-9)
            session = tune_to_target(plant, stage, cfg.controller, model)
            logs.update(json.dumps(pio.to_jsonable(session), sort_keys=True).encode() + b"\n")
    assert logs.hexdigest() == GRID_LOGS
