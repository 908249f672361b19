"""The fitter's hot path is pinned bit for bit.

`fit_resonance` forms the normal equations only at accepted points, takes its
quantiles by partial sorts and walks to the half-depth points with vectorised
searches.  None of this may change a bit of a result, so these tests hold it
against golden values and against copies of the plain implementations.

The golden values were recorded with numpy 2.4.6 (OpenBLAS) on x86-64.
Another numpy or BLAS build may round the synthesized traces or the matrix
products differently; the trace digests tell the two cases apart.  Every fit
takes its standard errors from the Cholesky factor of J^T J on Python floats,
with no LAPACK call, and reports them as NaN when J^T J is not positive
definite at the fitted point.  The six converged fits' pivots keep far more
than 1e-8 of their diagonal entries; the budget-exhausting fit's J^T J is
near-singular (a pivot share of 4.9e-12), and its errors are within 1e-5
relative of those of the exact inverse of the float h the fit formed.  That
h's own rounding, magnified by about eps / share, puts them 9.3e-6 relative
from the exact inverse of J^T J at the fitted point (exact_best_errors).

A change that rounds differently by design, as the real-arithmetic notch
kernel did against the complex one, the closed-form Cholesky solve against
LAPACK's, the covariance diagonal from h's SVD against np.linalg.pinv, the
Cholesky diagonal of h^-1 against the SVD's and, on the near-singular
budget-exhausting fit, against the truncated SVD pseudo-inverse, and the
kernel that multiplies by W = 1/D against the one that divided by D (and
with it every trace), and the normal equations from four basis rows against
the products of the Jacobian's columns, is held against the goldens it
replaces, which stay in this file (COMPLEX_KERNEL_GOLDEN,
LAPACK_SOLVE_GOLDEN, PINV_GOLDEN, SVD_COVARIANCE_GOLDEN,
TRUNCATED_SVD_GOLDEN, DIVIDE_KERNEL_GOLDEN, JACOBIAN_COLUMNS_GOLDEN): the
same iteration counts, the parameters and rms residual within 1e-12 relative
and the standard errors within 1e-9.  The budget-exhausting fit's J^T J is
near-singular, and each golden's standard errors carry their own h's
rounding: its errors are held within 1e-4 relative of the exact inverse's
instead, and each closer to it than every golden's but
SVD_COVARIANCE_GOLDEN's, which it is not in.  The parameters and rms residual of
SVD_COVARIANCE_GOLDEN and TRUNCATED_SVD_GOLDEN stay bit for bit those of
DIVIDE_KERNEL_GOLDEN, the fits they were held against.  Only once those
checks pass are the new bits and trace digests pinned, and the checks stay.
Otherwise re-record from a commit known to be right, never from the change
under test.

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

import functools
import hashlib
import math
from fractions import Fraction
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
        "520ac91b94307a10",
        ("0x1.9760f967ad6e0p+32", "0x1.f0586f6f5aa70p+14", "0x1.e9be5fdcebc2dp+18",
         "-0x1.c100812b5fcdep-3", "0x1.4554bbaa994bcp-7", "0x1.9e2be959804b9p+11",
         "0x1.c8bab460673acp+9", "0x1.3ff8a21ee66f6p+13", "0x1.71afcad40ed20p-6"),
        3),
    "device-1601": (
        (6834683000.0, 35000.0, 500000.0, 0.43373840568325917, 1601, 955959054),
        "f26e0d7560cb9d1f",
        ("0x1.9760f3440d556p+32", "0x1.ffef585119fa6p+14", "0x1.e340971831aebp+18",
         "0x1.c13c1c0b0813bp-2", "0x1.443684ded5cdcp-7", "0x1.7e33e397afc20p+10",
         "0x1.cad13cd1992eep+8", "0x1.368e058520687p+12", "0x1.5ccd0d69f9a01p-7"),
        4),
    "device-6401": (
        (6834683000.0, 35000.0, 500000.0, -0.2206261194775878, 6401, 536393447),
        "307f7f6a9de282b2",
        ("0x1.9760fbf964146p+32", "0x1.fdcd7c6f92864p+14", "0x1.e6dc00f82bd9ap+18",
         "-0x1.bfcaf422d2631p-3", "0x1.415b5b729126dp-7", "0x1.847937adb9f8ap+9",
         "0x1.c4c1635c937dcp+7", "0x1.32f7a4bfcbbc0p+11", "0x1.632b33a16bc3dp-8"),
        3),
    "broad-401": (
        (4228100136.274949, 18784.912940901275, 633043.3010062983, 0.278446362175662, 401, 1481135592),
        "ef7557f06c3842f7",
        ("0x1.f8071d56efd51p+31", "0x1.3b7dd5f6310ebp+14", "0x1.4a1564803bc3fp+19",
         "0x1.38c259864dc68p-2", "0x1.48e500b80fc32p-7", "0x1.bf930a8f7551bp+12",
         "0x1.472771418aeb3p+10", "0x1.e71d05e299d63p+14", "0x1.9d042905bd5e9p-5"),
        4),
    "broad-1601": (
        (7659040120.583509, 23057.581793387475, 1140880.1162411429, -0.48644385669938683, 1601, 92906558),
        "274e4a0626588e07",
        ("0x1.c883ee8ec829ap+32", "0x1.6a33e538d957ep+14", "0x1.0d4c1cfaff3f5p+20",
         "-0x1.1206e2d74988dp-1", "0x1.3f1fc79ff55fep-7", "0x1.cdd72707c9f88p+12",
         "0x1.f5043f8dd7a00p+9", "0x1.0c901466508acp+15", "0x1.0e3017e38e753p-5"),
        7),
    "broad-6401": (
        (6488750664.203288, 40015.865015532974, 126838.71963366943, 0.12928980070184704, 6401, 1862978404),
        "0861115fa2bd2e3c",
        ("0x1.82c27bb9b61dfp+32", "0x1.da9e87524702ap+14", "0x1.ef2168479fcdbp+16",
         "0x1.050c8fc3ea623p-3", "0x1.358bf06665a4cp-7", "0x1.cb0b4e5995361p+7",
         "0x1.e655f7ac5ff02p+5", "0x1.6b489ddbf9f01p+7", "0x1.777893317b02ap-10"),
        3),
}
# A shallow dip (Q_i 45,500 against Q_e 8.2e6) that exhausts the budget: the
# ConvergenceFailure carries this best-so-far result.
GOLDEN_BEST = (
    (4863938544.864087, 45516.302988253636, 8220044.408938354, -0.4419570972957112, 401, 1987131395),
    "a96d8052a3ce7d6d",
    ("0x1.21e37ffd4380fp+32", "0x1.5f48454f5c08cp+26", "0x1.926dc0e7c9e6bp+27",
     "0x1.db65a07cde98dp-1", "0x1.5b7390d91efa9p-7", "0x1.7b9930ab2ba89p+13",
     "0x1.b308070f2aa1bp+39", "0x1.c6cefbc4232e9p+39", "0x1.82d97bf428a38p+12"),
    200)
GOLDEN_ALL = {**GOLDEN, "best-401": GOLDEN_BEST}

# The goldens of the fitter that formed J^T J and J^T r from the Jacobian's
# four columns, before the normal equations from four basis rows, by name:
# the fingerprint and the iteration count, recorded from that fitter.
JACOBIAN_COLUMNS_GOLDEN = {
    "device-401": (
        ("0x1.9760f967ad6e0p+32", "0x1.f0586f6f5aa70p+14", "0x1.e9be5fdcebc2dp+18",
         "-0x1.c100812b5fcddp-3", "0x1.4554bbaa994bdp-7", "0x1.9e2be959804bap+11",
         "0x1.c8bab460673abp+9", "0x1.3ff8a21ee66f4p+13", "0x1.71afcad40ed24p-6"),
        3),
    "device-1601": (
        ("0x1.9760f3440d556p+32", "0x1.ffef585119fa6p+14", "0x1.e340971831aebp+18",
         "0x1.c13c1c0b0813bp-2", "0x1.443684ded5cdcp-7", "0x1.7e33e397afc11p+10",
         "0x1.cad13cd1992ecp+8", "0x1.368e058520685p+12", "0x1.5ccd0d69f99f4p-7"),
        4),
    "device-6401": (
        ("0x1.9760fbf964146p+32", "0x1.fdcd7c6f92864p+14", "0x1.e6dc00f82bd9ap+18",
         "-0x1.bfcaf422d2632p-3", "0x1.415b5b729126dp-7", "0x1.847937adb9f86p+9",
         "0x1.c4c1635c937ddp+7", "0x1.32f7a4bfcbbc1p+11", "0x1.632b33a16bc3bp-8"),
        3),
    "broad-401": (
        ("0x1.f8071d56efd51p+31", "0x1.3b7dd5f6310ebp+14", "0x1.4a1564803bc3fp+19",
         "0x1.38c259864dc67p-2", "0x1.48e500b80fc32p-7", "0x1.bf930a8f75514p+12",
         "0x1.472771418aeb4p+10", "0x1.e71d05e299d62p+14", "0x1.9d042905bd5e7p-5"),
        4),
    "broad-1601": (
        ("0x1.c883ee8ec829ap+32", "0x1.6a33e538d957ep+14", "0x1.0d4c1cfaff3f5p+20",
         "-0x1.1206e2d74988dp-1", "0x1.3f1fc79ff55fep-7", "0x1.cdd72707c9f8fp+12",
         "0x1.f5043f8dd7a0ap+9", "0x1.0c901466508afp+15", "0x1.0e3017e38e753p-5"),
        7),
    "broad-6401": (
        ("0x1.82c27bb9b61dfp+32", "0x1.da9e87524702ap+14", "0x1.ef2168479fcdbp+16",
         "0x1.050c8fc3ea623p-3", "0x1.358bf06665a4cp-7", "0x1.cb0b4e599536ap+7",
         "0x1.e655f7ac5fefbp+5", "0x1.6b489ddbf9f00p+7", "0x1.777893317b02fp-10"),
        3),
    "best-401": (
        ("0x1.21e37ffd4380fp+32", "0x1.5f48454f5c9a3p+26", "0x1.926dc0e7c9a96p+27",
         "0x1.db65a07cde2b1p-1", "0x1.5b7390d91efa9p-7", "0x1.7ba4b71b8b02dp+13",
         "0x1.b3156a56396fbp+39", "0x1.c6dcfa8f612b3p+39", "0x1.82e5636517036p+12"),
        200),
}

# The goldens of the kernel that divided by D = 1 + u**2 (and by f_r for u)
# where it now multiplies by W = 1/D, by name: the fingerprint and the
# iteration count, recorded from that kernel on its own traces.
DIVIDE_KERNEL_GOLDEN = {
    "device-401": (
        ("0x1.9760f967ad6e0p+32", "0x1.f0586f6f5aa70p+14", "0x1.e9be5fdcebc2dp+18",
         "-0x1.c100812b5fcdcp-3", "0x1.4554bbaa994bdp-7", "0x1.9e2be959804b7p+11",
         "0x1.c8bab460673abp+9", "0x1.3ff8a21ee66f4p+13", "0x1.71afcad40ed22p-6"),
        3),
    "device-1601": (
        ("0x1.9760f3440d556p+32", "0x1.ffef585119fa6p+14", "0x1.e340971831aebp+18",
         "0x1.c13c1c0b0813cp-2", "0x1.443684ded5cdcp-7", "0x1.7e33e397afc13p+10",
         "0x1.cad13cd1992ebp+8", "0x1.368e058520684p+12", "0x1.5ccd0d69f99f5p-7"),
        4),
    "device-6401": (
        ("0x1.9760fbf964146p+32", "0x1.fdcd7c6f92864p+14", "0x1.e6dc00f82bd9ap+18",
         "-0x1.bfcaf422d2632p-3", "0x1.415b5b729126dp-7", "0x1.847937adb9f88p+9",
         "0x1.c4c1635c937ddp+7", "0x1.32f7a4bfcbbc1p+11", "0x1.632b33a16bc3cp-8"),
        3),
    "broad-401": (
        ("0x1.f8071d56efd51p+31", "0x1.3b7dd5f6310ebp+14", "0x1.4a1564803bc3fp+19",
         "0x1.38c259864dc67p-2", "0x1.48e500b80fc32p-7", "0x1.bf930a8f75517p+12",
         "0x1.472771418aeb6p+10", "0x1.e71d05e299d64p+14", "0x1.9d042905bd5e7p-5"),
        4),
    "broad-1601": (
        ("0x1.c883ee8ec829ap+32", "0x1.6a33e538d957ep+14", "0x1.0d4c1cfaff3f5p+20",
         "-0x1.1206e2d74988dp-1", "0x1.3f1fc79ff55fep-7", "0x1.cdd72707c9f8fp+12",
         "0x1.f5043f8dd7a0cp+9", "0x1.0c901466508afp+15", "0x1.0e3017e38e753p-5"),
        7),
    "broad-6401": (
        ("0x1.82c27bb9b61dfp+32", "0x1.da9e87524702ap+14", "0x1.ef2168479fcdbp+16",
         "0x1.050c8fc3ea623p-3", "0x1.358bf06665a4bp-7", "0x1.cb0b4e599536cp+7",
         "0x1.e655f7ac5fefbp+5", "0x1.6b489ddbf9efdp+7", "0x1.777893317b030p-10"),
        3),
    "best-401": (
        ("0x1.21e37ffd4380fp+32", "0x1.5f48454f5c9a3p+26", "0x1.926dc0e7c9a7dp+27",
         "0x1.db65a07cde297p-1", "0x1.5b7390d91efa9p-7", "0x1.7ba323ecd9025p+13",
         "0x1.b313965906c61p+39", "0x1.c6db114f9564fp+39", "0x1.82e3c3403a5bcp+12"),
        200),
}

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

# The goldens of the fitter that took every covariance from h's SVD, before
# the Cholesky diagonal of h^-1, by name: the fingerprint and the iteration
# count of the six converged fits, recorded from that fitter.  The
# budget-exhausting fit's h is near-singular and still takes the SVD.
SVD_COVARIANCE_GOLDEN = {
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
         "0x1.c4c1635c934e2p+7", "0x1.32f7a4bfcb953p+11", "0x1.632b33a153633p-8"),
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
}

# The budget-exhausting golden of the fitter that took a near-singular J^T J's
# covariance (a Cholesky pivot at 1e-8 of its diagonal entry or less) from the
# SVD pseudo-inverse, truncated as np.linalg.pinv truncates, before every fit
# took it from the Cholesky factor: the fingerprint and the iteration count,
# recorded from that fitter.  The converged goldens never took that route.
TRUNCATED_SVD_GOLDEN = {
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


# A trace of the tune loop's kind: the benchmark noise (sigma_rel 0.005) on a
# pin vibrating by 0.1 um at 154 um, near the f_Rb target, where the slope
# makes a jitter of about 5.7 kHz.  The traces above all sit at d = 0.05 m,
# where the jitter is 0, so this digest is the one that pins the jittered
# synthesis: (pin height, points, span, sigma_rel, vibration, noise seed).
VIBRATING_PIN_TRACE = ((154e-6, 1201, 6e6, 0.005, 0.1e-6, 2718), "6ac5d304f4a76c5a")


def test_vibrating_pin_trace_golden():
    (d, n, span, sigma_rel, vib, seed), digest = VIBRATING_PIN_TRACE
    params = ResonatorParams.at(6.8278e9, 35000.0, 5e5, phi=0.2)
    state = TuningState(d=d)
    f_true = tuned_frequency(params, state, PIN)
    sweep = SweepConfig(f_true - span / 2, f_true + span / 2, n, -131.0)
    trace = synthesize_sweep(sweep, params, state, PIN, NoiseModel(sigma_rel, vib, seed))
    assert hashlib.sha256(trace.power_ratio.tobytes()).hexdigest()[:16] == digest
    still = synthesize_sweep(sweep, params, state, PIN, NoiseModel(sigma_rel, 0.0, seed))
    assert not np.array_equal(trace.power_ratio, still.power_ratio)


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


def full(h):
    """The symmetric 4x4 array of h given by its upper triangle by rows, as
    _normal gives h and _cholesky takes it."""
    a = np.zeros((4, 4))
    a[np.triu_indices(4)] = h
    return a + np.triu(a, 1).T


def exact_inverse_diagonal(h):
    """diag(h^-1) of a 4x4 nested list of floats or fractions, by
    Gauss-Jordan elimination in rational arithmetic."""
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(4)]
            for i, row in enumerate(h)]
    for c in range(4):
        for r in range(4):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [float(rows[i][4 + i] / rows[i][i]) for i in range(4)]


@functools.cache
def exact_best_errors():
    """The budget-exhausting fit's standard errors from the exact inverse of
    J^T J at its fitted point.  J's entries follow from the fit's float
    parameters, sin phi and cos phi in rational arithmetic, by the closed
    forms of the Jacobian's columns, not the fitter's basis rows, and are each
    rounded once to a float; J^T J and its inverse are then exact.  Rounding
    J moves that inverse by 8e-14 relative here (against J's entries to 120
    bits), where rounding h moves it by about eps / share, 5e-5."""
    case, digest, _, _ = GOLDEN_BEST
    trace = golden_trace(case, digest)
    with pytest.raises(ConvergenceFailure) as info:
        fit_resonance(trace)
    best = info.value.best
    f_r, q_l, q_e = Fraction(best.f_r), Fraction(best.q_l), Fraction(best.q_e)
    sin, cos = Fraction(math.sin(best.phi)), Fraction(math.cos(best.phi))
    a = q_l / q_e
    jac = []
    for f in trace.frequencies.tolist():
        u = (Fraction(f) - f_r) * 2 * q_l / f_r
        w = 1 / (1 + u * u)
        m = (a * a - 2 * a * cos - 2 * a * u * sin) * w
        ds_du = -2 * (a * sin + u * m) * w
        ds_lqe = -(m + a * a * w)
        jac.append([Fraction(float(v)) for v in (
            -ds_du * (u + 2 * q_l) / f_r, u * ds_du - ds_lqe, ds_lqe, 2 * a * (sin - u * cos) * w)])
    h = [[sum(row[i] * row[j] for row in jac) for j in range(4)] for i in range(4)]
    n = len(jac)
    sigma2 = best.rms_residual**2 * n / (n - 4)
    errs = [math.sqrt(sigma2 * v) for v in exact_inverse_diagonal(h)]
    return [errs[0], best.q_l * errs[1], best.q_e * errs[2], errs[3]]  # f_r, Q_L, Q_e, phi


def assert_best_errors_near_the_exact_inverse(got, golden):
    """The budget-exhausting fit's standard errors got, against a golden's:
    within 1e-4 relative of exact_best_errors, and each closer to it than
    the golden's."""
    exact = exact_best_errors()
    np.testing.assert_allclose(got, exact, rtol=1e-4, atol=0)
    for g, w, e in zip(got, golden, exact):
        assert abs(g - e) < abs(w - e)


def assert_within_tolerance(name, goldens):
    """The golden fit name takes the iterations goldens holds for it, with the
    parameters and rms residual within 1e-12 relative and the standard errors
    within 1e-9 (the budget-exhausting fit's near the exact inverse)."""
    values, iterations = goldens[name]
    got, got_iterations = golden_outcome(GOLDEN_ALL[name])
    assert got_iterations == iterations
    got, want = ([float.fromhex(v) for v in vs] for vs in (got, values))
    np.testing.assert_allclose(got[:5], want[:5], rtol=1e-12, atol=0)
    if name == "best-401":
        assert_best_errors_near_the_exact_inverse(got[5:], want[5:])
    else:
        np.testing.assert_allclose(got[5:], want[5:], rtol=1e-9, atol=0)


@pytest.mark.parametrize("name", sorted(GOLDEN_ALL))
def test_golden_within_tolerance_of_the_jacobian_columns(name):
    """The normal equations from four basis rows, C (B B^T) C^T and C (B r),
    round differently from the products of the Jacobian's columns: each
    golden takes the same iterations, with the parameters and rms residual
    within 1e-12 relative and the standard errors within 1e-9 (the
    budget-exhausting fit's within 1e-4 of the exact inverse and closer to it
    than the columns' were)."""
    assert_within_tolerance(name, JACOBIAN_COLUMNS_GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN_ALL))
def test_golden_within_tolerance_of_the_divide_kernel(name):
    """Multiplying by W = 1/D rounds differently from dividing by D, and
    the traces with it: each golden takes the same iterations on its
    re-synthesized trace, with the parameters and rms residual within 1e-12
    relative and the standard errors within 1e-9 (the budget-exhausting
    fit's within 1e-4 of the exact inverse)."""
    assert_within_tolerance(name, DIVIDE_KERNEL_GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN_ALL))
def test_golden_within_tolerance_of_the_lapack_solve(name):
    """The closed-form Cholesky solve rounds differently from LAPACK's: each
    golden takes the same iterations, with the parameters and rms residual
    within 1e-12 relative and the standard errors within 1e-9 (the
    budget-exhausting fit's within 1e-4 of the exact inverse)."""
    assert_within_tolerance(name, LAPACK_SOLVE_GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN_ALL))
def test_golden_within_tolerance_of_the_pinv_covariance(name):
    """The covariance diagonal from h's SVD rounds differently from
    np.linalg.pinv's matrix product: each golden takes the same iterations,
    with the parameters and rms residual within 1e-12 relative and the
    standard errors within 1e-9 (the budget-exhausting fit's, whose
    near-singular J^T J no longer takes an SVD, within 1e-4 of the exact
    inverse)."""
    assert_within_tolerance(name, PINV_GOLDEN)


def test_golden_within_tolerance_of_the_truncated_svd(monkeypatch):
    """The Cholesky diagonal of the budget-exhausting fit's near-singular h
    (a pivot share of 4.9e-12) rounds differently from the truncated SVD
    pseudo-inverse it replaced: the same iterations, the parameters and rms
    residual bit for bit in the divide kernel's golden and within 1e-12
    relative now, and the standard errors within 1e-4 relative of the exact
    inverse of J^T J and each closer to those of the exact inverse of the
    same h, within 1e-5 relative of them."""
    values, iterations = TRUNCATED_SVD_GOLDEN["best-401"]
    kept, kept_iterations = DIVIDE_KERNEL_GOLDEN["best-401"]
    assert (kept[:5], kept_iterations) == (values[:5], iterations)
    undamped, seen = [], []

    def counted_cholesky(h, lam=0.0):
        l = cholesky(h, lam)
        if not lam:
            undamped.append((h, l))
        return l

    def standard_errors(l, sigma2):
        seen.append((l, sigma2))
        return errors(l, sigma2)

    cholesky, errors = fitting._cholesky, fitting._standard_errors
    monkeypatch.setattr(fitting, "_cholesky", counted_cholesky)
    monkeypatch.setattr(fitting, "_standard_errors", standard_errors)
    got, got_iterations = golden_outcome(GOLDEN_BEST)
    assert got_iterations == iterations
    got, want = ([float.fromhex(v) for v in vs] for vs in (got, values))
    np.testing.assert_allclose(got[:5], want[:5], rtol=1e-12, atol=0)
    assert_best_errors_near_the_exact_inverse(got[5:], want[5:])
    (l, sigma2), = seen
    h, last = undamped[-1]  # the final point's h, factored once
    assert l is last
    exact = [math.sqrt(sigma2 * v) for v in exact_inverse_diagonal(full(h).tolist())]
    exact = [exact[0], got[1] * exact[1], got[2] * exact[2], exact[3]]  # f_r, Q_L, Q_e, phi
    np.testing.assert_allclose(got[5:], exact, rtol=1e-5, atol=0)
    for g, w, e in zip(got[5:], want[5:], exact):
        assert abs(g - e) < abs(w - e)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_within_tolerance_of_the_svd_covariance(name):
    """The Cholesky diagonal of h^-1 rounds differently from the SVD
    pseudo-inverse's: each converged golden takes the same iterations, with
    the parameters and rms residual bit for bit in the divide kernel's golden
    and within 1e-12 relative now, and the standard errors within 1e-9
    relative."""
    values, iterations = SVD_COVARIANCE_GOLDEN[name]
    kept, kept_iterations = DIVIDE_KERNEL_GOLDEN[name]
    assert (kept[:5], kept_iterations) == (values[:5], iterations)
    got, got_iterations = golden_outcome(GOLDEN[name])
    assert got_iterations == iterations
    for have in kept, got:
        have, want = ([float.fromhex(v) for v in vs] for vs in (have, values))
        np.testing.assert_allclose(have[:5], want[:5], rtol=1e-12, atol=0)
        np.testing.assert_allclose(have[5:], want[5:], rtol=1e-9, atol=0)


@pytest.mark.parametrize("name", sorted(GOLDEN_ALL))
def test_golden_within_tolerance_of_the_complex_kernel(name):
    """The real kernel rounds differently from the complex one it replaced:
    the budget-exhausting fit takes the same iterations and differs in its
    low bits only, its standard errors within 1e-4 of the exact inverse; the
    converged ones stop within the noise of its results."""
    if name in GOLDEN:
        assert_stops_within_noise(name, COMPLEX_KERNEL_GOLDEN)
        return
    assert_within_tolerance(name, COMPLEX_KERNEL_GOLDEN)


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
    ws = fitting._workspace(trace.frequencies.size)
    fitting._residual(theta, trace.frequencies, trace.power_ratio, ws)
    h, g = fitting._normal(theta, ws)
    step = np.linalg.solve(full(h), -np.array(g))
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
    """The normal equations at the start point and once per accepted step: a
    trial step that is rejected costs only its residual."""
    costs, normals = [], []
    residual, normal = fitting._residual, fitting._normal

    def counted_residual(theta, f, y, *args):
        r = residual(theta, f, y, *args)
        costs.append(float(r @ r))
        return r

    def counted_normal(theta, *args):
        normals.append(theta)
        return normal(theta, *args)

    monkeypatch.setattr(fitting, "_residual", counted_residual)
    monkeypatch.setattr(fitting, "_normal", counted_normal)
    rejected_total = 0
    for case, digest, _, _ in (GOLDEN["broad-1601"], GOLDEN_BEST):
        trace = golden_trace(case, digest)
        costs.clear()
        normals.clear()
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
        assert len(normals) == accepted + 1
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
    memory after a 10,001-point fit (56 bytes a point in use, about 560 KB)
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
    """A workspace's seven rows, r, u, W and the basis (W**2, u**2 W**2, uW,
    uW**2), are disjoint; _residual returns its workspace's row r; in two
    workspaces, _residual and _normal write separate arrays, and _normal
    leaves the residual as it was."""
    case, digest, _, _ = GOLDEN["device-401"]
    trace = golden_trace(case, digest)
    f, y = trace.frequencies, trace.power_ratio
    g = initial_guess(trace)
    theta = np.array([g.f_r, math.log(g.q_l), math.log(g.q_e), g.phi])
    ws, ws_other = fitting._workspace(f.size), fitting._workspace(f.size)
    first = fitting._residual(theta, f, y, ws)
    kept = first.copy()
    other_theta = theta + [1e3, 0.0, 0.0, 0.1]
    second = fitting._residual(other_theta, f, y, ws_other)
    fitting._normal(theta, ws)
    fitting._normal(other_theta, ws_other)
    rows = []
    for r, space in [(first, ws), (second, ws_other)]:
        assert r is space.r
        rows.append([space.r, space.u, space.w, *space.basis])
        assert len(rows[-1]) == 7 and all(row.shape == f.shape for row in rows[-1])
        for i, a in enumerate(rows[-1]):
            for b in rows[-1][i + 1:]:
                assert not np.shares_memory(a, b)
    for a in rows[0]:
        for b in rows[1]:
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
# a = 1 and a = 2 at phi = 0, where the ln Q_e and the f_r columns vanish;
# a = 1 on a 0.1-linewidth span, where ln Q_L's is 2 u**2 W**2 alone; and
# a = 0.01 and 0.001 with both points at u = +-1, near a zero of ln Q_L's
# column: its terms are about 2a W**2 and its value 2a**2 W**2
@example(f_r=6.8e9, log_q_l=4.0, log_coupling=0.0, phi=0.0, log_span=1.0, offset=0.1, n=101)
@example(f_r=6.8e9, log_q_l=2.0003, log_coupling=-math.log10(2), phi=0.0, log_span=1.0, offset=0.1, n=101)
@example(f_r=6.8e9, log_q_l=4.0, log_coupling=0.0, phi=0.0, log_span=-1.0, offset=0.0, n=5)
@example(f_r=1e9, log_q_l=2.0, log_coupling=2.0, phi=0.0, log_span=0.0, offset=0.0, n=2)
@example(f_r=1e9, log_q_l=3.0, log_coupling=3.0, phi=0.0, log_span=0.0, offset=0.0, n=2)
def test_real_kernel_matches_the_complex_one(f_r, log_q_l, log_coupling, phi, log_span, offset, n):
    theta = np.array([f_r, log_q_l * math.log(10), (log_q_l + log_coupling) * math.log(10), phi])
    span = 10**log_span * f_r / math.exp(theta[1])
    f = np.linspace(f_r + (offset - 0.5) * span, f_r + (offset + 0.5) * span, n)
    ws = fitting._workspace(n)
    s = fitting._residual(theta, f, np.zeros(n), ws)
    h, g = fitting._normal(theta, ws)
    s_ref, jac_ref = reference_notch(theta, f)
    q_l, eps = math.exp(theta[1]), np.finfo(float).eps
    a = q_l / math.exp(theta[2])
    s_err = 8 * eps * (1 + a) ** 2
    assert np.max(np.abs(s - s_ref)) <= s_err
    # h and g as a Jacobian would give them whose every column k is within
    # e_k of the reference's: 1e-12 of the column's largest magnitude, plus a
    # rounding floor for a column that cancels to zero (a = 1 or 2 at
    # phi = 0); a column scales as a (1 + a), times du/d f_r for f_r.  Then
    # |dh_ij| <= e_i |J_j|_1 + e_j |J_i|_1 + n e_i e_j, and g takes S's error
    # too.  h sums products of a column's terms over the points before they
    # cancel, so where a column has a zero, a floor meets the other column's
    # terms there, not its value: floor_i |M_j|_1 + floor_j |M_i|_1, M_k
    # being column k's own terms in magnitude, as W**k times a polynomial in u:
    #   dS/du = W**2 (beta (1 - u**2) - 2 alpha u), times -(u + 2 Q_L)/f_r
    #   dS/d ln Q_L = 2a W**2 ((a - cos phi) + cos phi u**2 - 2 sin phi u)
    #   dS/d ln Q_e = 2a W ((cos phi - a) + sin phi u)
    #   dS/d phi = 2a W (sin phi - cos phi u)
    # M_k is about |J_k| but at a column's zeros; it exceeds |J_k|_1 only
    # when every point sits near one (a = 0.001 with two points at u = +-1).
    floor = 16 * eps * a * (1 + a) * np.array([2 * q_l * f[-1] / f_r**2, 1.0, 1.0, 1.0])
    err, col = 1e-12 * np.max(np.abs(jac_ref), axis=0) + floor, np.abs(jac_ref).sum(axis=0)
    u = 2 * q_l * (f - f_r) / f_r
    w = 1 / (1 + u * u)
    cos, sin, u = math.cos(phi), abs(math.sin(phi)), np.abs(u)
    mag = np.stack([(u + 2 * q_l) / f_r * w * w * 2 * a * (sin * (1 + u * u) + abs(a - 2 * cos) * u),
                    2 * a * w * w * (abs(a - cos) + abs(cos) * u * u + 2 * sin * u),
                    2 * a * w * (abs(cos - a) + sin * u),
                    2 * a * w * (sin + abs(cos) * u)]).sum(axis=1)
    bound = (np.outer(err, col) + np.outer(col, err) + n * np.outer(err, err)
             + np.outer(floor, mag) + np.outer(mag, floor))
    assert np.all(np.abs(full(h) - jac_ref.T @ jac_ref) <= bound)
    assert np.all(np.abs(np.array(g) - jac_ref.T @ s_ref) <= err * np.abs(s_ref).sum() + col * s_err)


@pytest.mark.parametrize("a, k", [(1.0, 2), (2.0, 0)])
def test_a_vanishing_column_gives_a_zero_row(a, k):
    """At phi = 0 the ln Q_e column vanishes for a = Q_L/Q_e = 1 and the f_r
    column for a = 2: h's row and column and g's entry for it are exactly
    zero.  ln Q_e is stepped by ulps from ln(Q_L / a) until the fitter's
    a, Q_L / exp(ln Q_e), is exactly the one wanted."""
    f_r, lql = 6.8e9, 2.0003 * math.log(10)
    q_l = math.exp(lql)
    lqe = math.log(q_l / a)
    for _ in range(16):
        if q_l / math.exp(lqe) == a:
            break
        lqe = math.nextafter(lqe, math.inf)
    assert q_l / math.exp(lqe) == a
    theta = np.array([f_r, lql, lqe, 0.0])
    n = 101
    f = np.linspace(f_r - 4.5 * f_r / q_l, f_r + 5.5 * f_r / q_l, n)
    ws = fitting._workspace(n)
    fitting._residual(theta, f, np.full(n, 0.5), ws)
    h, g = fitting._normal(theta, ws)
    assert not full(h)[k].any() and g[k] == 0.0
    assert np.all(np.delete(np.diag(full(h)), k) > 0)


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
