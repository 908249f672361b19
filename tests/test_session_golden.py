"""Whole tune sessions are pinned bit for bit.

Each session below is run on the noisy plant of acceptance criterion 9 and
its result, as `to_jsonable` writes it, is hashed.  A change to the
controller loop that should not change what it does (a refactor of how the
log is written, say) must leave every hash as it is.  Outcome, step count and
total pulses are pinned beside the hash, so a failure shows what moved.

A session draws every sweep's noise, retries included, from one Philox stream
keyed by its noise seed, so a change to how the stream is drawn re-records
every noisy row; the noise-free grid below draws nothing it uses.

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
        "Converged", 4, 2432, "87ed6a8a655b148056f81865124c761f3ea3da484c7222a387604ecb49405148"),
    (300, (171, 300, 1), 1.0, 60.0, 0.0): (
        "Converged", 5, 2432, "be7cf4314fdcc3618fe2df3941cc6e92542fa6a65d31df5cd9d6a581902f756f"),
    (600, (171, 600, 0), 1.0, 60.0, 0.0): (
        "Converged", 4, 7432, "0c216b5f4a3a9db3af6b1dacb5baa8323bb4f639fe79acb9e03558fe6d70ac81"),
    (600, (171, 600, 1), 1.0, 60.0, 0.0): (
        "Converged", 7, 7436, "f64dd913c3503ccb29611f5ebaf7fefac6578c693d33ddaf60a21ba369899a02"),
    (600, (181, 10, 600, 0), 1.0, 66.0, 5.0): (
        "Converged", 5, 7498, "355a970c8dc5584068642a59cac04119544e3f8a10a1cc92ee23909c4fd64091"),
    (300, (181, 2, 300, 0), 0.9, 60.0, 0.0): (
        "Converged", 7, 2858, "cb52c55757139cd78d6396399060adf06ca9039a4700ad33c75cab5257332376"),
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
GRID_LOGS = "017bac884c6433a2d0e3a7db5627158038f3f35e0bee3d78baeefff100a15217"


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
