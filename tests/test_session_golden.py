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
        "Converged", 5, 2432, "0461af30541af6e0e1188fde77ad6e369b4ba40f4551af499db4e6fdc69a2502"),
    (300, (171, 300, 1), 1.0, 60.0, 0.0): (
        "Converged", 8, 2436, "32cae3ce98cdbf47da21baedc0a009298d31011b63de002a19dc20d37ffafae4"),
    (600, (171, 600, 0), 1.0, 60.0, 0.0): (
        "Converged", 6, 7433, "eb881aaeaa6123d6d24d034abc1cb23d76176b71b938d7765cba57246cca4d3c"),
    (600, (171, 600, 1), 1.0, 60.0, 0.0): (
        "Converged", 5, 7432, "068a2534885fb3108f8a345212efd5ea50f24b47cb4d6390dc612e1ac7e1b9d2"),
    (600, (181, 10, 600, 0), 1.0, 66.0, 5.0): (
        "Converged", 13, 9114, "ff21295ed5bbf087e0a951c02715fc4bd585b5368383da70867fe5f5fd8737a3"),
    (300, (181, 2, 300, 0), 0.9, 60.0, 0.0): (
        "Converged", 8, 2626, "d055b671467ee0226c673dd823389544ed138ed62079915031feae6f899dfa57"),
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
