"""The fitter's hot path is pinned bit for bit.

`fit_resonance` evaluates the Jacobian only at accepted points, takes its
quantiles by partial sorts and walks to the half-depth points with vectorised
searches.  None of this may change a bit of a result, so these tests hold it
against golden values and against copies of the plain implementations.

The golden values were recorded with numpy 2.4.6 (OpenBLAS) on x86-64.
Another numpy or BLAS build may round the synthesized traces, the matrix
products or the covariance's SVD differently; the trace digests tell the two
cases apart.

A change that rounds differently by design, as the real-arithmetic notch
kernel did against the complex one, the closed-form Cholesky solve against
LAPACK's and the covariance diagonal from h's SVD against np.linalg.pinv, is
held against the goldens it replaces, which stay in this file
(COMPLEX_KERNEL_GOLDEN, LAPACK_SOLVE_GOLDEN, PINV_GOLDEN): the same iteration
counts, the parameters and rms residual within 1e-12 relative and the
standard errors within 1e-9 (1e-4 for the budget-exhausting fit against the
first two, whose J^T J has a condition number near 1e22).  Only once those checks pass are the new bits and trace
digests pinned, and the checks stay.  Otherwise re-record from a commit known
to be right, never from the change under test.

A change to a stopping rule moves where a converged fit stops, by design, as
the relative-offset rule did against the step and cost rules alone.  It is
held against the goldens it replaces (STEP_RULE_GOLDEN) and against every
older reference kept here: the same outcome, no more iterations, the rule
that is meant to stop each fit, every parameter within 1e-2 of the
reference's standard error and the standard errors within 1e-3 relative.  A
fit the new rule must not reach, such as the budget-exhausting one, stays
bit-exact.  The same order holds: the new bits are pinned only once those
checks pass.
"""

import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pintune import fitting
from pintune.errors import ConvergenceFailure, NonPhysicalFit, NoResonance
from pintune.fitting import InitialGuess, _baseline_and_noise, fit_resonance, initial_guess
from pintune.resonator import (
    ResonatorParams,
    TuningState,
    calibrate_pin_model,
    capacitance_for_frequency,
    tuned_frequency,
)
from pintune.transmission import NoiseModel, SweepConfig, SweepTrace, loaded_q, synthesize_sweep

PIN = calibrate_pin_model(6.8278e9, 6.8454e9, 40e-6, 8.7e3 / 60e-9)


def criterion4_trace(f_r, q_i, q_e, phi, n, seed):
    """Acceptance criterion 4's noisy trace: +-5 linewidths, 1% noise."""
    params = ResonatorParams(L0=1e-9, C=capacitance_for_frequency(f_r, 1e-9), Qi0=q_i, Qe=q_e, phi=phi)
    state = TuningState(d=0.05)  # pin far away: the bare resonance
    f_true = tuned_frequency(params, state, PIN)
    lw = f_true / loaded_q(q_i, q_e)
    sweep = SweepConfig(f_true - 5 * lw, f_true + 5 * lw, n, -131.0)
    return synthesize_sweep(sweep, params, state, PIN, NoiseModel(sigma_rel=0.01, seed=seed))


# (f_r, Q_i, Q_e, phi, points, noise seed), the digest of the trace's power
# ratios, float.hex of f_r, Q_L, Q_e, phi, the rms residual and the four
# standard errors, and the iteration count.
GOLDEN = {
    "device-401": (
        (6834683000.0, 35000.0, 500000.0, -0.222029717806419, 401, 328258452),
        "f08eda6a416214aa",
        ("0x1.9760f967ad6e0p+32", "0x1.f0586f6f5aa70p+14", "0x1.e9be5fdcebc2dp+18",
         "-0x1.c100812b5fcdcp-3", "0x1.4554bbaa994bdp-7", "0x1.9e2be959fb081p+11",
         "0x1.c8bab460673fap+9", "0x1.3ff8a21ee67c4p+13", "0x1.71afcad440749p-6"),
        3),
    "device-1601": (
        (6834683000.0, 35000.0, 500000.0, 0.43373840568325917, 1601, 955959054),
        "a9bf03484a26e248",
        ("0x1.9760f3440d556p+32", "0x1.ffef585119fa6p+14", "0x1.e340971831aebp+18",
         "0x1.c13c1c0b0813cp-2", "0x1.443684ded5cdcp-7", "0x1.7e33e397cd308p+10",
         "0x1.cad13cd198c00p+8", "0x1.368e0585200cfp+12", "0x1.5ccd0d69f7d8ep-7"),
        4),
    "device-6401": (
        (6834683000.0, 35000.0, 500000.0, -0.2206261194775878, 6401, 536393447),
        "f0584721f2e7c843",
        ("0x1.9760fbf964146p+32", "0x1.fdcd7c6f92864p+14", "0x1.e6dc00f82bd9ap+18",
         "-0x1.bfcaf422d2632p-3", "0x1.415b5b729126dp-7", "0x1.847937adb6315p+9",
         "0x1.c4c1635c934e2p+7", "0x1.32f7a4bfcb953p+11", "0x1.632b33a153633p-8"),
        3),
    "broad-401": (
        (4228100136.274949, 18784.912940901275, 633043.3010062983, 0.278446362175662, 401, 1481135592),
        "ef7557f06c3842f7",
        ("0x1.f8071d56efd51p+31", "0x1.3b7dd5f6310ebp+14", "0x1.4a1564803bc3fp+19",
         "0x1.38c259864dc67p-2", "0x1.48e500b80fc32p-7", "0x1.bf930a8fd4e20p+12",
         "0x1.472771418adfdp+10", "0x1.e71d05e299d8bp+14", "0x1.9d042905e6cb3p-5"),
        4),
    "broad-1601": (
        (7659040120.583509, 23057.581793387475, 1140880.1162411429, -0.48644385669938683, 1601, 92906558),
        "764bb77b9f2f180b",
        ("0x1.c883ee8ec829ap+32", "0x1.6a33e538d957ep+14", "0x1.0d4c1cfaff3f5p+20",
         "-0x1.1206e2d74988dp-1", "0x1.3f1fc79ff55fep-7", "0x1.cdd7270832a64p+12",
         "0x1.f5043f8dd7a80p+9", "0x1.0c90146650aa9p+15", "0x1.0e3017e3aee92p-5"),
        7),
    "broad-6401": (
        (6488750664.203288, 40015.865015532974, 126838.71963366943, 0.12928980070184704, 6401, 1862978404),
        "44f7216d1c913bb1",
        ("0x1.82c27bb9b61dfp+32", "0x1.da9e87524702ap+14", "0x1.ef2168479fcdbp+16",
         "0x1.050c8fc3ea623p-3", "0x1.358bf06665a4bp-7", "0x1.cb0b4e59eaed1p+7",
         "0x1.e655f7ac5fefbp+5", "0x1.6b489ddbf9f12p+7", "0x1.777893319ea57p-10"),
        3),
}
# A shallow dip (Q_i 45,500 against Q_e 8.2e6) that exhausts the budget: the
# ConvergenceFailure carries this best-so-far result.
GOLDEN_BEST = (
    (4863938544.864087, 45516.302988253636, 8220044.408938354, -0.4419570972957112, 401, 1987131395),
    "a96d8052a3ce7d6d",
    ("0x1.21e37ffd4380fp+32", "0x1.5f48454f5c9a3p+26", "0x1.926dc0e7c9a7dp+27",
     "0x1.db65a07cde297p-1", "0x1.5b7390d91efa9p-7", "0x1.7baadb34b00d7p+13",
     "0x1.b31c6ec81c08cp+39", "0x1.c6e4529666e4fp+39", "0x1.82eba280b203bp+12"),
    200)
GOLDEN_ALL = {**GOLDEN, "best-401": GOLDEN_BEST}

# The goldens of the fitter that solved its 4x4 systems with LAPACK
# (np.linalg.solve) before the unrolled Cholesky, by name: the fingerprint
# and the iteration count, recorded from that fitter.
LAPACK_SOLVE_GOLDEN = {
    "device-401": (
        ("0x1.9760f967ad6e0p+32", "0x1.f0586f6f5aa70p+14", "0x1.e9be5fdcebc2dp+18",
         "-0x1.c100812b5fcdep-3", "0x1.4554bbaa994bcp-7", "0x1.9e2be959fb1afp+11",
         "0x1.c8bab46067414p+9", "0x1.3ff8a21ee67a7p+13", "0x1.71afcad4407e7p-6"),
        3),
    "device-1601": (
        ("0x1.9760f3440d556p+32", "0x1.ffef585119fa6p+14", "0x1.e340971831aebp+18",
         "0x1.c13c1c0b0813cp-2", "0x1.443684ded5cdcp-7", "0x1.7e33e397cd308p+10",
         "0x1.cad13cd198c00p+8", "0x1.368e0585200cfp+12", "0x1.5ccd0d69f7d8ep-7"),
        4),
    "device-6401": (
        ("0x1.9760fbf964146p+32", "0x1.fdcd7c6f92864p+14", "0x1.e6dc00f82bd9ap+18",
         "-0x1.bfcaf422d2632p-3", "0x1.415b5b729126dp-7", "0x1.847937adb6315p+9",
         "0x1.c4c1635c934e2p+7", "0x1.32f7a4bfcb953p+11", "0x1.632b33a153634p-8"),
        3),
    "broad-401": (
        ("0x1.f8071d56efd51p+31", "0x1.3b7dd5f6310ebp+14", "0x1.4a1564803bc3fp+19",
         "0x1.38c259864dc68p-2", "0x1.48e500b80fc32p-7", "0x1.bf930a8f97c80p+12",
         "0x1.472771418acb1p+10", "0x1.e71d05e2999c7p+14", "0x1.9d042905bce26p-5"),
        4),
    "broad-1601": (
        ("0x1.c883ee8ec829ap+32", "0x1.6a33e538d957ep+14", "0x1.0d4c1cfaff3f5p+20",
         "-0x1.1206e2d74988dp-1", "0x1.3f1fc79ff55fep-7", "0x1.cdd7270832a64p+12",
         "0x1.f5043f8dd7a80p+9", "0x1.0c90146650aa9p+15", "0x1.0e3017e3aee92p-5"),
        7),
    "broad-6401": (
        ("0x1.82c27bb9b61dfp+32", "0x1.da9e87524702ap+14", "0x1.ef2168479fcdbp+16",
         "0x1.050c8fc3ea623p-3", "0x1.358bf06665a4bp-7", "0x1.cb0b4e59eaed1p+7",
         "0x1.e655f7ac5fefbp+5", "0x1.6b489ddbf9f12p+7", "0x1.777893319ea57p-10"),
        3),
    "best-401": (
        ("0x1.21e37ffd4380fp+32", "0x1.5f48454f5c9fbp+26", "0x1.926dc0e7c9a4bp+27",
         "0x1.db65a07cde250p-1", "0x1.5b7390d91efa9p-7", "0x1.7ba30de90f6c7p+13",
         "0x1.b31382f1a76bfp+39", "0x1.c6dafc9905df8p+39", "0x1.82e3b1a1faeafp+12"),
        200),
}

# The goldens of the fitter that took the covariance from np.linalg.pinv
# before the diagonal of its SVD's pseudo-inverse on Python floats, by name:
# the fingerprint and the iteration count, recorded from that fitter.
PINV_GOLDEN = {
    "device-401": (
        ("0x1.9760f967ad6e0p+32", "0x1.f0586f6f5aa70p+14", "0x1.e9be5fdcebc2dp+18",
         "-0x1.c100812b5fcdcp-3", "0x1.4554bbaa994bdp-7", "0x1.9e2be959fb081p+11",
         "0x1.c8bab460673fap+9", "0x1.3ff8a21ee67c4p+13", "0x1.71afcad440749p-6"),
        3),
    "device-1601": (
        ("0x1.9760f3440d556p+32", "0x1.ffef585119fa6p+14", "0x1.e340971831aebp+18",
         "0x1.c13c1c0b0813cp-2", "0x1.443684ded5cdcp-7", "0x1.7e33e397cd308p+10",
         "0x1.cad13cd198c00p+8", "0x1.368e0585200cfp+12", "0x1.5ccd0d69f7d8ep-7"),
        4),
    "device-6401": (
        ("0x1.9760fbf964146p+32", "0x1.fdcd7c6f92864p+14", "0x1.e6dc00f82bd9ap+18",
         "-0x1.bfcaf422d2632p-3", "0x1.415b5b729126dp-7", "0x1.847937adb6315p+9",
         "0x1.c4c1635c934e2p+7", "0x1.32f7a4bfcb953p+11", "0x1.632b33a153634p-8"),
        3),
    "broad-401": (
        ("0x1.f8071d56efd51p+31", "0x1.3b7dd5f6310ebp+14", "0x1.4a1564803bc3fp+19",
         "0x1.38c259864dc67p-2", "0x1.48e500b80fc32p-7", "0x1.bf930a8fd4e20p+12",
         "0x1.472771418adfdp+10", "0x1.e71d05e299d8bp+14", "0x1.9d042905e6cb3p-5"),
        4),
    "broad-1601": (
        ("0x1.c883ee8ec829ap+32", "0x1.6a33e538d957ep+14", "0x1.0d4c1cfaff3f5p+20",
         "-0x1.1206e2d74988dp-1", "0x1.3f1fc79ff55fep-7", "0x1.cdd7270832a64p+12",
         "0x1.f5043f8dd7a80p+9", "0x1.0c90146650aa9p+15", "0x1.0e3017e3aee92p-5"),
        7),
    "broad-6401": (
        ("0x1.82c27bb9b61dfp+32", "0x1.da9e87524702ap+14", "0x1.ef2168479fcdbp+16",
         "0x1.050c8fc3ea623p-3", "0x1.358bf06665a4bp-7", "0x1.cb0b4e59eaed1p+7",
         "0x1.e655f7ac5fefbp+5", "0x1.6b489ddbf9f12p+7", "0x1.777893319ea57p-10"),
        3),
    "best-401": (
        ("0x1.21e37ffd4380fp+32", "0x1.5f48454f5c9a3p+26", "0x1.926dc0e7c9a7dp+27",
         "0x1.db65a07cde297p-1", "0x1.5b7390d91efa9p-7", "0x1.7baadb34b00d7p+13",
         "0x1.b31c6ec81c08cp+39", "0x1.c6e4529666e4fp+39", "0x1.82eba280b203bp+12"),
        200),
}

# The goldens of the step and cost rules alone, before the relative-offset
# rule, by name: the fingerprint and the iteration count, recorded from the
# fitter without that rule.
STEP_RULE_GOLDEN = {
    "device-401": (
        ("0x1.9760f96a18e2ap+32", "0x1.f057d4863767dp+14", "0x1.e9be0bbadcc28p+18",
         "-0x1.c1070eca9af95p-3", "0x1.4554bba6b34e9p-7", "0x1.9e2c60c1d12f6p+11",
         "0x1.c8ba2873a4a5ep+9", "0x1.3ff876169fbebp+13", "0x1.71afc6a78c201p-6"),
        6),
    "device-1601": (
        ("0x1.9760f3444dafap+32", "0x1.ffef22858bb25p+14", "0x1.e3407e85fd7a4p+18",
         "0x1.c13bca0ea3610p-2", "0x1.443684dec32bbp-7", "0x1.7e3410df893d4p+10",
         "0x1.cad10c173c04dp+8", "0x1.368df48b55ac1p+12", "0x1.5ccd15c5d1f07p-7"),
        6),
    "device-6401": (
        ("0x1.9760fbf9b7afbp+32", "0x1.fdccf1525b5c6p+14", "0x1.e6dbbf9c47f2dp+18",
         "-0x1.bfcbf01f8113ap-3", "0x1.415b5b72586e3p-7", "0x1.8479a8011a867p+9",
         "0x1.c4c0e97ac292fp+7", "0x1.32f77e2da1e2ep+11", "0x1.632b4104ee23ep-8"),
        5),
    "broad-401": (
        ("0x1.f8071d595fcfcp+31", "0x1.3b7ceba21b7dep+14", "0x1.4a14ee10b0bb1p+19",
         "0x1.38c0bb151a457p-2", "0x1.48e500b7a2bf0p-7", "0x1.bf94791ede34bp+12",
         "0x1.47267ecafa385p+10", "0x1.e71c52e18d028p+14", "0x1.9d04614b1b77dp-5"),
        6),
    "broad-1601": (
        ("0x1.c883ee8bc9ad3p+32", "0x1.6a34ba9fc26c2p+14", "0x1.0d4c77394f16fp+20",
         "-0x1.12058cd4518e2p-1", "0x1.3f1fc79fa3207p-7", "0x1.cdd62c32b64acp+12",
         "0x1.f50560a831336p+9", "0x1.0c905c613d67fp+15", "0x1.0e302315d7639p-5"),
        9),
    "broad-6401": (
        ("0x1.82c27bb9b6d8ap+32", "0x1.da9e873bf3be3p+14", "0x1.ef21683f688f7p+16",
         "0x1.050c8e04f33b9p-3", "0x1.358bf06665a08p-7", "0x1.cb0b4e769449fp+7",
         "0x1.e655f79685c68p+5", "0x1.6b489dd56bf18p+7", "0x1.7778933929f8cp-10"),
        4),
}

# The goldens of the complex-arithmetic notch kernel the real one replaced,
# by name: the fingerprint and the iteration count, recorded from that kernel.
COMPLEX_KERNEL_GOLDEN = {
    "device-401": (
        ("0x1.9760f96a18e2ap+32", "0x1.f057d4863767dp+14", "0x1.e9be0bbadcc28p+18",
         "-0x1.c1070eca9af9ap-3", "0x1.4554bba6b34f2p-7", "0x1.9e2c60c1b35e7p+11",
         "0x1.c8ba2873a4957p+9", "0x1.3ff876169faabp+13", "0x1.71afc6a773346p-6"),
        6),
    "device-1601": (
        ("0x1.9760f3444dafap+32", "0x1.ffef22858bb15p+14", "0x1.e3407e85fd7a4p+18",
         "0x1.c13bca0ea3611p-2", "0x1.443684dec32bcp-7", "0x1.7e3410df88557p+10",
         "0x1.cad10c173c32bp+8", "0x1.368df48b55d15p+12", "0x1.5ccd15c5d17a5p-7"),
        6),
    "device-6401": (
        ("0x1.9760fbf9b7afbp+32", "0x1.fdccf1525b5c6p+14", "0x1.e6dbbf9c47f2dp+18",
         "-0x1.bfcbf01f8113cp-3", "0x1.415b5b72586e5p-7", "0x1.8479a8011acd9p+9",
         "0x1.c4c0e97ac28ffp+7", "0x1.32f77e2da1df5p+11", "0x1.632b4104ee48dp-8"),
        5),
    "broad-401": (
        ("0x1.f8071d595fcfcp+31", "0x1.3b7ceba21b7d4p+14", "0x1.4a14ee10b0bb1p+19",
         "0x1.38c0bb151a44ep-2", "0x1.48e500b7a2bf4p-7", "0x1.bf94791ede5a8p+12",
         "0x1.47267ecafa388p+10", "0x1.e71c52e18d03ep+14", "0x1.9d04614b1b8bap-5"),
        6),
    "broad-1601": (
        ("0x1.c883ee8bc9ad3p+32", "0x1.6a34ba9fc26b7p+14", "0x1.0d4c77394f16fp+20",
         "-0x1.12058cd4518dfp-1", "0x1.3f1fc79fa3204p-7", "0x1.cdd62c32b5ad3p+12",
         "0x1.f50560a83153ap+9", "0x1.0c905c613d864p+15", "0x1.0e302315d730ap-5"),
        9),
    "broad-6401": (
        ("0x1.82c27bb9b6d8ap+32", "0x1.da9e873bf3be3p+14", "0x1.ef21683f688f7p+16",
         "0x1.050c8e04f33b8p-3", "0x1.358bf06665a08p-7", "0x1.cb0b4e7694fb2p+7",
         "0x1.e655f79685c6ap+5", "0x1.6b489dd56bf2fp+7", "0x1.777893392a4b4p-10"),
        4),
    "best-401": (
        ("0x1.21e37ffd4380fp+32", "0x1.5f48454f5c9a3p+26", "0x1.926dc0e7c9a18p+27",
         "0x1.db65a07cde299p-1", "0x1.5b7390d91efa7p-7", "0x1.7ba6cea8a4c0bp+13",
         "0x1.b317ca1f8c967p+39", "0x1.c6df76eba2a66p+39", "0x1.82e780ab174fdp+12"),
        200),
}


def golden_trace(case, digest):
    trace = criterion4_trace(*case)
    got = hashlib.sha256(trace.power_ratio.tobytes()).hexdigest()[:16]
    assert got == digest, "the synthesized trace itself changed, not the fit"
    return trace


def fingerprint(res):
    return tuple(float(v).hex() for v in (res.f_r, res.q_l, res.q_e, res.phi, res.rms_residual,
                                          res.f_r_err, res.q_l_err, res.q_e_err, res.phi_err))


def assert_stops_within_noise(name, reference):
    """A converged golden that the relative-offset rule stops earlier than the
    reference did: still converged, in no more iterations, every parameter
    within 1e-2 of the reference's standard error and the standard errors
    within 1e-3 relative."""
    values, iterations = reference[name]
    case, digest, _, _ = GOLDEN[name]
    res = fit_resonance(golden_trace(case, digest))
    assert res.converged and res.stop == "offset"
    assert res.n_iterations <= iterations
    got, want = np.array([float.fromhex(v) for v in fingerprint(res)]), np.array(
        [float.fromhex(v) for v in values])
    params, errs = [0, 1, 2, 3], [5, 6, 7, 8]
    assert np.all(np.abs(got[params] - want[params]) <= 1e-2 * want[errs])
    np.testing.assert_allclose(got[errs], want[errs], rtol=1e-3, atol=0)


@pytest.mark.parametrize("name", sorted(GOLDEN_ALL))
def test_golden_within_tolerance_of_the_lapack_solve(name):
    """The closed-form Cholesky solve rounds differently from LAPACK's: each
    golden takes the same iterations, with the parameters and rms residual
    within 1e-12 relative and the standard errors within 1e-9 (1e-4 for the
    budget-exhausting fit)."""
    values, iterations = LAPACK_SOLVE_GOLDEN[name]
    got, got_iterations = golden_outcome(GOLDEN_ALL[name])
    assert got_iterations == iterations
    got, want = ([float.fromhex(v) for v in vs] for vs in (got, values))
    np.testing.assert_allclose(got[:5], want[:5], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got[5:], want[5:], rtol=1e-4 if name == "best-401" else 1e-9, atol=0)


@pytest.mark.parametrize("name", sorted(GOLDEN_ALL))
def test_golden_within_tolerance_of_the_pinv_covariance(name):
    """The covariance diagonal from h's SVD rounds differently from
    np.linalg.pinv's matrix product: each golden takes the same iterations,
    with the parameters and rms residual within 1e-12 relative and the
    standard errors within 1e-9."""
    values, iterations = PINV_GOLDEN[name]
    got, got_iterations = golden_outcome(GOLDEN_ALL[name])
    assert got_iterations == iterations
    got, want = ([float.fromhex(v) for v in vs] for vs in (got, values))
    np.testing.assert_allclose(got[:5], want[:5], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got[5:], want[5:], rtol=1e-9, atol=0)


@pytest.mark.parametrize("name", sorted(GOLDEN_ALL))
def test_golden_within_tolerance_of_the_complex_kernel(name):
    """The real kernel rounds differently from the complex one it replaced:
    the budget-exhausting fit takes the same iterations and differs in its
    low bits only; the converged ones stop within the noise of its results."""
    if name in GOLDEN:
        assert_stops_within_noise(name, COMPLEX_KERNEL_GOLDEN)
        return
    values, iterations = COMPLEX_KERNEL_GOLDEN[name]
    got, got_iterations = golden_outcome(GOLDEN_ALL[name])
    assert got_iterations == iterations
    got, want = ([float.fromhex(v) for v in vs] for vs in (got, values))
    np.testing.assert_allclose(got[:5], want[:5], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got[5:], want[5:], rtol=1e-4, atol=0)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_within_noise_of_the_step_rule(name):
    """The relative-offset rule stops each converged golden before the step
    and cost rules alone did, within the noise of where they stopped."""
    assert_stops_within_noise(name, STEP_RULE_GOLDEN)


@settings(max_examples=150, deadline=None)
@given(
    regime=st.sampled_from(["device", "broad"]),
    f_r=st.floats(4e9, 8e9),
    log_q_i=st.floats(4.0, 6.0),
    log_q_e=st.floats(5.0, 7.0),
    phi=st.floats(-0.5, 0.5),
    n=st.integers(401, 1601),
    seed=st.integers(0, 2**31 - 1),
)
@example(regime="device", f_r=4e9, log_q_i=4.0, log_q_e=5.0, phi=0.1, n=401, seed=7)
def test_offset_stop_leaves_no_step_beyond_the_noise(regime, f_r, log_q_i, log_q_e, phi, n, seed):
    """Criterion-4 traces: wherever the relative-offset rule stops a fit, one
    more undamped Gauss-Newton step moves no parameter by more than 1e-2 of
    its standard error."""
    if regime == "device":
        f_r, q_i, q_e = 6834683000.0, 35000.0, 500000.0
    else:
        q_i, q_e = 10**log_q_i, 10**log_q_e
    trace = criterion4_trace(f_r, q_i, q_e, phi, n, seed)
    try:
        res = fit_resonance(trace)
    except (ConvergenceFailure, NonPhysicalFit, NoResonance):
        return
    if res.stop != "offset":
        return
    theta = (res.f_r, math.log(res.q_l), math.log(res.q_e), res.phi)
    r, terms = fitting._residual(theta, trace.frequencies, trace.power_ratio)
    jac = fitting._jacobian(theta, trace.frequencies, terms)
    step = np.linalg.solve(jac.T @ jac, -(jac.T @ r))
    sigma = np.array([res.f_r_err, res.q_l_err / res.q_l, res.q_e_err / res.q_e, res.phi_err])
    assert np.all(np.abs(step) <= 1e-2 * sigma)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fit_results(name):
    case, digest, values, iterations = GOLDEN[name]
    res = fit_resonance(golden_trace(case, digest))
    assert res.converged
    assert fingerprint(res) == values
    assert res.n_iterations == iterations


def test_golden_convergence_failure_best():
    case, digest, values, iterations = GOLDEN_BEST
    with pytest.raises(ConvergenceFailure) as info:
        fit_resonance(golden_trace(case, digest))
    best = info.value.best
    assert not best.converged
    assert fingerprint(best) == values
    assert best.n_iterations == iterations


def test_best_so_far_says_the_budget_stopped_it():
    case, digest, _, _ = GOLDEN_BEST
    with pytest.raises(ConvergenceFailure) as info:
        fit_resonance(golden_trace(case, digest))
    assert info.value.best.stop == "budget"


def test_jacobian_only_at_accepted_points(monkeypatch):
    """One Jacobian at the start point and one per accepted step: a trial
    step that is rejected costs only its residual."""
    costs, jacobians = [], []
    residual, jacobian = fitting._residual, fitting._jacobian

    def counted_residual(theta, f, y, *args):
        out = residual(theta, f, y, *args)
        costs.append(float(out[0] @ out[0]))
        return out

    def counted_jacobian(theta, f, terms, *args):
        jacobians.append(theta)
        return jacobian(theta, f, terms, *args)

    monkeypatch.setattr(fitting, "_residual", counted_residual)
    monkeypatch.setattr(fitting, "_jacobian", counted_jacobian)
    rejected_total = 0
    for case, digest, _, _ in (GOLDEN["broad-1601"], GOLDEN_BEST):
        trace = golden_trace(case, digest)
        costs.clear()
        jacobians.clear()
        try:
            fit_resonance(trace)
        except ConvergenceFailure:
            pass
        # The fitter's own rule: a trial is accepted when its cost does not rise.
        accepted, current = 0, costs[0]
        for cost in costs[1:]:
            if cost <= current:
                accepted, current = accepted + 1, cost
        rejected_total += len(costs) - 1 - accepted
        assert len(jacobians) == accepted + 1
    assert rejected_total > 0  # the budget-exhausting fit rejects half its trials


# --------------------------------------------------------------------------
# Each fit writes its point-sized arrays into a workspace of its own; neither
# the order of fits nor fits running at once may change a bit.


def golden_outcome(entry):
    """The fingerprint and iteration count of a golden fit, of its best-so-far
    result when the fit exhausts its budget."""
    case, digest, _, _ = entry
    try:
        res = fit_resonance(golden_trace(case, digest))
    except ConvergenceFailure as exc:
        res = exc.best
    return fingerprint(res), res.n_iterations



def test_goldens_bit_exact_in_any_size_order():
    """Every golden fits to the same bits after a 6401-point fit, and from the
    largest trace to the smallest and back: a fit carries nothing over from
    the one before."""
    fit_resonance(golden_trace(*GOLDEN["broad-6401"][:2]))
    by_size = sorted(GOLDEN_ALL, key=lambda name: GOLDEN_ALL[name][0][4])
    for name in by_size[::-1] + by_size:
        _, _, values, iterations = GOLDEN_ALL[name]
        assert golden_outcome(GOLDEN_ALL[name]) == (values, iterations), name


def test_threads_fitting_at_once_match_the_serial_bits():
    """Fits running at once share no arrays: four threads, each fitting every
    golden in its own order, with frequent thread switches."""
    traces = {name: golden_trace(*entry[:2]) for name, entry in GOLDEN_ALL.items()}
    names = sorted(traces)
    results, errors = {}, []
    start = threading.Barrier(4)

    def fit_all(k):
        try:
            start.wait(timeout=10)
            for name in names[k:] + names[:k]:
                try:
                    res = fit_resonance(traces[name])
                except ConvergenceFailure as exc:
                    res = exc.best
                results[k, name] = (fingerprint(res), res.n_iterations)
        except Exception as exc:  # reported by the main thread's asserts
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=fit_all, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for (_, name), outcome in results.items():
        _, _, values, iterations = GOLDEN_ALL[name]
        assert outcome == (values, iterations), name
    assert len(results) == 4 * len(names)


def test_a_fit_leaves_no_point_sized_memory_behind():
    """A fit's workspace is freed with the fit: in a fresh thread, traced
    memory after a 10,001-point fit (72 bytes a point in use, about 720 KB)
    is back within a few KB of where it started."""
    trace = criterion4_trace(6834683000.0, 35000.0, 500000.0, 0.1, 10001, 7)
    outcome = {}

    def fit():
        start = tracemalloc.get_traced_memory()[0]
        outcome["converged"] = fit_resonance(trace).converged
        outcome["left"] = tracemalloc.get_traced_memory()[0] - start

    tracemalloc.start()
    try:
        thread = threading.Thread(target=fit)
        thread.start()
        thread.join(timeout=60)
    finally:
        tracemalloc.stop()
    assert not thread.is_alive()
    assert outcome["converged"]
    assert outcome["left"] < 8192


def test_standalone_residuals_do_not_alias():
    """Without a workspace, _residual and _jacobian return fresh arrays."""
    case, digest, _, _ = GOLDEN["device-401"]
    trace = golden_trace(case, digest)
    f, y = trace.frequencies, trace.power_ratio
    g = initial_guess(trace)
    theta = np.array([g.f_r, math.log(g.q_l), math.log(g.q_e), g.phi])
    first, terms = fitting._residual(theta, f, y)
    kept = first.copy()
    second, other = fitting._residual(theta + [1e3, 0.0, 0.0, 0.1], f, y)
    arrays = [first, *terms[1:], fitting._jacobian(theta, f, terms)]
    for a in arrays:
        for b in [second, *other[1:], fitting._jacobian(theta, f, other)]:
            assert not np.shares_memory(a, b)
    np.testing.assert_array_equal(first, kept)


# --------------------------------------------------------------------------
# The plain implementations the hot path replaced, kept as references.


def reference_baseline_and_noise(y):
    baseline = float(np.percentile(y, 80))
    noise = 1.4826 * float(np.median(np.abs(np.diff(y)))) / math.sqrt(2.0)
    return baseline, noise


def reference_half_width_walk(f, y, imin, half_level):
    left = right = None
    for i in range(imin, 0, -1):
        if y[i - 1] >= half_level:
            frac = (half_level - y[i]) / (y[i - 1] - y[i])
            left = f[i] + frac * (f[i - 1] - f[i])
            break
    for i in range(imin, len(y) - 1):
        if y[i + 1] >= half_level:
            frac = (half_level - y[i]) / (y[i + 1] - y[i])
            right = f[i] + frac * (f[i + 1] - f[i])
            break
    return left, right


def reference_initial_guess(trace):
    f = trace.frequencies
    y = trace.power_ratio
    if len(y) < 16:
        raise NoResonance("trace too short for a guess (< 16 points)")
    baseline, noise_floor = reference_baseline_and_noise(y)
    imin = int(np.argmin(y))
    depth = baseline - y[imin]
    if depth < 3.0 * max(noise_floor, 1e-12):
        raise NoResonance("dip depth below 3x the noise floor")
    at_edge = imin < 2 or imin > len(y) - 3
    f_r = float(f[imin])
    left, right = reference_half_width_walk(f, y, imin, baseline - depth / 2.0)
    if left is not None and right is not None:
        width = right - left
    elif left is not None:
        width = 2.0 * (f_r - left)
    elif right is not None:
        width = 2.0 * (right - f_r)
    else:
        width = (f[-1] - f[0]) / 2.0
    width = max(width, (f[-1] - f[0]) / (len(f) - 1))
    q_l = f_r / width
    min_ratio = min(max(y[imin] / baseline, 0.0), 1.0 - 1e-9)
    q_e = q_l / (1.0 - math.sqrt(min_ratio))
    return InitialGuess(f_r=f_r, q_l=q_l, q_e=q_e, phi=0.0, at_edge=at_edge)


def outcome(func, trace):
    try:
        g = func(trace)
    except NoResonance as exc:
        return "NoResonance", str(exc)
    return (float(g.f_r).hex(), float(g.q_l).hex(), float(g.q_e).hex(), g.phi, g.at_edge)


@settings(max_examples=300, deadline=None)
@given(y=st.lists(st.floats(0.0, 4.0), min_size=16, max_size=300)
       | st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60))
@example(y=[1.0] * 16)
@example(y=[float(i % 3) for i in range(17)])
def test_baseline_and_noise_matches_percentile_and_median(y):
    y = np.asarray(y)
    got = _baseline_and_noise(y)
    want = reference_baseline_and_noise(y)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def reference_notch(theta, f):
    """The complex lineshape and Jacobian the real kernel replaced:
    S = |1 - t|**2 with t = (Q_L/Q_e) e^{i phi} / (1 + 2i Q_L (f - f_r)/f_r),
    and dS/dp = -2 Re[conj(1 - t) dt/dp]."""
    f_r, lql, lqe, phi = theta
    q_l = math.exp(lql)
    denom = 1.0 + 2j * q_l * ((f - f_r) / f_r)
    t = (q_l / math.exp(lqe)) * np.exp(1j * phi) / denom
    resp = 1.0 - t
    dt = np.stack([t * (2j * q_l / denom) * (f / (f_r * f_r)),  # f_r
                   t * (1.0 - (denom - 1.0) / denom),           # ln Q_L
                   -t,                                          # ln Q_e
                   1j * t])                                     # phi
    return resp.real**2 + resp.imag**2, (-2.0 * (np.conjugate(resp) * dt).real).T


@settings(max_examples=300, deadline=None)
@given(
    f_r=st.floats(1e9, 1e10),
    log_q_l=st.floats(2.0, 8.0),
    log_coupling=st.floats(-1.0, 3.0),  # log10 Q_e/Q_L
    phi=st.floats(-fitting.PHI_LIMIT, fitting.PHI_LIMIT),
    log_span=st.floats(-1.0, 3.0),      # log10 of the span in linewidths
    offset=st.floats(-0.5, 0.5),        # of the span, from f_r to its centre
    n=st.integers(2, 200),
)
def test_real_kernel_matches_the_complex_one(f_r, log_q_l, log_coupling, phi, log_span, offset, n):
    theta = np.array([f_r, log_q_l * math.log(10), (log_q_l + log_coupling) * math.log(10), phi])
    span = 10**log_span * f_r / math.exp(theta[1])
    f = np.linspace(f_r + (offset - 0.5) * span, f_r + (offset + 0.5) * span, n)
    s, terms = fitting._residual(theta, f, np.zeros(n))
    jac = fitting._jacobian(theta, f, terms)
    s_ref, jac_ref = reference_notch(theta, f)
    q_l, eps = math.exp(theta[1]), np.finfo(float).eps
    a = q_l / math.exp(theta[2])
    assert np.max(np.abs(s - s_ref)) <= 8 * eps * (1 + a) ** 2
    # Each column within 1e-12 of its largest magnitude, plus a rounding
    # floor for a column that cancels to zero (a = 1 or 2 at phi = 0); a
    # column scales as a (1 + a), times du/d f_r for f_r.
    floor = 16 * eps * a * (1 + a) * np.array([2 * q_l * f[-1] / f_r**2, 1.0, 1.0, 1.0])
    for k in range(4):
        err = np.max(np.abs(jac[:, k] - jac_ref[:, k]))
        assert err <= 1e-12 * np.max(np.abs(jac_ref[:, k])) + floor[k], k


def dip_trace(n, u, width, depth, noise, slope, f0, df):
    """A Lorentzian dip at u * (n - 1) on a sloped baseline with deterministic
    ripple."""
    i = np.arange(n)
    centre = u * (n - 1)
    ripple = noise * np.sin(1.7 * i + 0.3) * np.cos(0.61 * i)
    y = 1.0 + slope * (i - centre) / n + ripple - depth / (1.0 + ((i - centre) / width) ** 2)
    f = f0 + df * i
    return SweepTrace(f, np.clip(y, 0.0, None), p_in_dbm=-131.0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(16, 400),
    u=st.sampled_from([0.0, 1.0]) | st.floats(-0.2, 1.2),
    width=st.floats(0.3, 300.0),
    depth=st.floats(0.0, 1.0),
    noise=st.floats(0.0, 0.05),
    slope=st.floats(-1.5, 1.5),
    f0=st.floats(1e6, 1e10),
    df=st.floats(1.0, 1e5),
)
def test_initial_guess_matches_loop_walk(n, u, width, depth, noise, slope, f0, df):
    trace = dip_trace(n, u, width, depth, noise, slope, f0, df)
    assert outcome(initial_guess, trace) == outcome(reference_initial_guess, trace)


@pytest.mark.parametrize("u, slope, missing", [
    (0.0, 0.0, "left"),     # dip at the first point: nothing to its left
    (1.0, 0.0, "right"),    # dip at the last point: nothing to its right
    (0.05, -1.5, "right"),  # the baseline falls away: the right side stays low
    (0.95, 1.5, "left"),    # the baseline rises from the left: it stays low
])
def test_initial_guess_one_sided_walks(u, slope, missing):
    trace = dip_trace(201, u, width=3.0, depth=0.9, noise=0.0, slope=slope, f0=6.8e9, df=1e3)
    f, y = trace.frequencies, trace.power_ratio
    baseline, _ = reference_baseline_and_noise(y)
    imin = int(np.argmin(y))
    left, right = reference_half_width_walk(f, y, imin, baseline - (baseline - y[imin]) / 2.0)
    assert (left is None, right is None) == (missing == "left", missing == "right")
    assert outcome(initial_guess, trace) == outcome(reference_initial_guess, trace)
