import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pintune import config, fitting, piezo
from pintune.errors import ConvergenceFailure, FitFailure, NonPhysicalFit, NoResonance, PintuneError
from pintune.fitting import (
    FitResult,
    InitialGuess,
    _cholesky,
    _forward,
    _jacobian,
    _residual,
    _solve,
    _workspace,
    fit_resonance,
    initial_guess,
)
from pintune.piezo import ControllerModel, tune_to_target
from pintune.resonator import (
    ResonatorParams,
    TuningState,
    calibrate_pin_model,
    capacitance_for_frequency,
    tuned_frequency,
)
from pintune.transmission import (
    NoiseModel,
    SweepConfig,
    SweepTrace,
    loaded_q,
    notch_response,
    synthesize_sweep,
)


def make_trace(f_r, q_l, q_e, phi=0.0, n=801, span_linewidths=10, noise=None, seed=0):
    lw = f_r / q_l
    f = np.linspace(f_r - span_linewidths * lw / 2, f_r + span_linewidths * lw / 2, n)
    y = notch_response(f, f_r, q_l, q_e, phi)[0]
    if noise:
        rng = np.random.default_rng(seed)
        y = np.clip(y * (1 + noise * rng.standard_normal(n)), 0, None)
    return SweepTrace(f, y, p_in_dbm=-131.0)


PAPER_QL = loaded_q(35000, 5e5)
PIN = calibrate_pin_model(6.8278e9, 6.8454e9, 40e-6, 8.7e3 / 60e-9)


def criterion4_trace(f_r, q_i, q_e, phi, n, seed):
    """Acceptance criterion 4's noisy trace: +-5 linewidths, 1% noise."""
    params = ResonatorParams(L0=1e-9, C=capacitance_for_frequency(f_r, 1e-9), Qi0=q_i, Qe=q_e, phi=phi)
    state = TuningState(d=0.05)  # pin far away: the bare resonance
    f_true = tuned_frequency(params, state, PIN)
    lw = f_true / loaded_q(q_i, q_e)
    sweep = SweepConfig(f_true - 5 * lw, f_true + 5 * lw, n, -131.0)
    return synthesize_sweep(sweep, params, state, PIN, NoiseModel(sigma_rel=0.01, seed=seed))


# A shallow dip (Q_i 45,500 against Q_e 8.2e6) that exhausts the budget, the
# golden best-so-far fit of test_fitting_exact: its final h is near-singular,
# with a least pivot share (l_kk**2 / h_kk) of 4.9e-12, yet positive definite,
# so its standard errors come from the Cholesky factor like every fit's; they
# are NaN only where J^T J is not positive definite at the fitted point.
NEAR_SINGULAR_CASE = (4863938544.864087, 45516.302988253636, 8220044.408938354,
                      -0.4419570972957112, 401, 1987131395)

# Final J^T J of graded fits, upper triangle by rows (h00, h01, h02, h03, h11,
# ..., h33): NEAR_SINGULAR_CASE's, and that of a converged broad-range fit
# (case 1207 of the fit_batch recipe's rng [9, 2]: f_r 7.72 GHz, Q_i 10,800,
# Q_e 5.0e6, 6,401 points) at a pivot share of 3.2e-13 and cond(h) 4e16, whose
# f_r_err is 1,914 Hz against the exact inverse's 1,915 Hz.
NEAR_SINGULAR_H = (
    "0x1.1ddc66f5849aep-11", "0x1.29eff24de22cdp-7", "-0x1.8c985e7feb2ecp-9", "0x1.2aaad39106a3fp-6",
    "0x1.36861ac528a4cp-3", "-0x1.9d597b1ca293cp-5", "0x1.3748e07bce1f8p-2",
    "0x1.15a34ddbbd44ap-6", "-0x1.9ed5a3e464008p-4",
    "0x1.38176d9e46188p-1")
CONVERGED_GRADED_H = (
    "0x1.50f24ece969e3p-24", "0x1.721f690bcc341p-16", "-0x1.0b8bac9aa6715p-20", "0x1.da4e0de8dcb3bp-14",
    "0x1.a08480395e3b7p-8", "-0x1.1a924ac87b576p-12", "0x1.f4fad01574c6bp-6",
    "0x1.fc934fb6205cep-17", "-0x1.c2b35e59bb961p-10",
    "0x1.8f6979b59d282p-3")


def symmetric(upper):
    """The symmetric 4x4 matrix of float.hex entries of its upper triangle by rows."""
    h = np.zeros((4, 4))
    h[np.triu_indices(4)] = [float.fromhex(v) for v in upper]
    return h + np.triu(h, 1).T

# A shallow broad-range dip (Q_i 25,900 against Q_e 7.5e6), case 212 of the
# fit_batch recipe's rng [7, 2]: the fit converges to Q_L within 0.1% of Q_e
# and is refused as NonPhysicalFit.
NON_PHYSICAL_CASE = (7554729840.915373, 25890.17713456213, 7480988.525101284,
                     0.3076317838246856, 401, 2015905097)


class TestInitialGuess:
    def test_round_trip_quality(self):
        tr = make_trace(6.8278e9, PAPER_QL, 5e5)
        g = initial_guess(tr)
        bin_width = tr.frequencies[1] - tr.frequencies[0]
        assert abs(g.f_r - 6.8278e9) <= bin_width
        assert abs(g.q_l / PAPER_QL - 1) < 0.3

    def test_flat_trace(self):
        f = np.linspace(6.8e9, 6.9e9, 101)
        with pytest.raises(NoResonance):
            initial_guess(SweepTrace(f, np.ones_like(f), -131.0))

    def test_dip_at_edge_flagged(self):
        f_r = 6.8278e9
        lw = f_r / PAPER_QL
        f = np.linspace(f_r, f_r + 10 * lw, 801)  # dip exactly at span edge
        tr = SweepTrace(f, notch_response(f, f_r, PAPER_QL, 5e5, 0.0)[0], -131.0)
        g = initial_guess(tr)
        assert g.at_edge
        assert g.f_r == f[np.argmin(tr.power_ratio)]

    def test_too_short(self):
        f = np.linspace(6.8e9, 6.9e9, 8)
        with pytest.raises(NoResonance):
            initial_guess(SweepTrace(f, np.ones_like(f), -131.0))


def reference_guess(trace):
    """initial_guess in its earlier form, op for op: np.percentile's
    arithmetic on np.partition, np.diff, np.flatnonzero and numpy-scalar
    crossing and depth arithmetic."""
    f, y = trace.frequencies, trace.power_ratio
    if len(y) < fitting.MIN_POINTS:
        raise NoResonance(f"trace too short for a guess (< {fitting.MIN_POINTS} points)")
    pos = (y.size - 1) * 0.8
    k = math.floor(pos)
    w = pos - k
    part = np.partition(y, k)
    a, b = float(part[k]), float(part[k + 1:].min())
    baseline = b - (b - a) * (1 - w) if w >= 0.5 else a + (b - a) * w
    noise_floor = 1.4826 * fitting.median(np.abs(np.diff(y))) / math.sqrt(2.0)
    imin = int(np.argmin(y))
    depth = baseline - y[imin]
    if depth < 3.0 * max(noise_floor, 1e-12):
        raise NoResonance("dip depth below 3x the noise floor")
    at_edge = imin < 2 or imin > len(y) - 3
    f_r = float(f[imin])
    half_level = baseline - depth / 2.0
    left = right = None
    above = np.flatnonzero(y[:imin] >= half_level)
    if above.size:
        j = above[-1]
        frac = (half_level - y[j + 1]) / (y[j] - y[j + 1])
        left = f[j + 1] + frac * (f[j] - f[j + 1])
    above = np.flatnonzero(y[imin + 1:] >= half_level)
    if above.size:
        j = imin + 1 + above[0]
        frac = (half_level - y[j - 1]) / (y[j] - y[j - 1])
        right = f[j - 1] + frac * (f[j] - f[j - 1])
    if left is not None and right is not None:
        width = right - left
    elif left is not None:
        width = 2.0 * (f_r - left)
    else:
        width = 2.0 * (right - f_r)
    width = max(width, (f[-1] - f[0]) / (len(f) - 1))
    q_l = f_r / width
    if not q_l > 0:
        raise NoResonance("dip too wide for its frequency (Q_L underflows)")
    min_ratio = min(max(y[imin] / baseline, 0.0), 1.0 - 1e-9)
    q_e = q_l / (1.0 - math.sqrt(min_ratio))
    return InitialGuess(f_r=f_r, q_l=q_l, q_e=q_e, phi=0.0, at_edge=at_edge)


def guess_or_error(guess, trace):
    """The guess's fields as exact hex strings, or its exception and message."""
    try:
        g = guess(trace)
    except PintuneError as exc:
        return type(exc), str(exc)
    return [float(g.f_r).hex(), float(g.q_l).hex(), float(g.q_e).hex(), float(g.phi).hex(), g.at_edge]


class TestInitialGuessBits:
    @settings(deadline=None)
    @given(n=st.integers(15, 400), centre=st.floats(-0.1, 1.1), half_width=st.floats(0.3, 800.0),
           depth=st.just(0.0) | st.floats(1e-4, 1.2), noise=st.just(0.0) | st.floats(1e-4, 0.3),
           f_start=st.floats(1e6, 1e10), seed=st.integers(0, 2**32 - 1))
    # The dip at the first, last, second (at the edge) and third-from-last (not)
    # point; one-sided crossings to the right, then to the left; a flat trace
    # (NoResonance) and a 15-point one (too short).
    @example(n=101, centre=0.0, half_width=3.0, depth=0.8, noise=0.0, f_start=6.8e9, seed=0)
    @example(n=101, centre=1.0, half_width=3.0, depth=0.8, noise=0.01, f_start=6.8e9, seed=1)
    @example(n=101, centre=0.01, half_width=3.0, depth=0.8, noise=0.0, f_start=6.8e9, seed=0)
    @example(n=101, centre=0.98, half_width=3.0, depth=0.8, noise=0.0, f_start=6.8e9, seed=0)
    @example(n=101, centre=0.02, half_width=40.0, depth=0.9, noise=0.0, f_start=6.8e9, seed=0)
    @example(n=101, centre=0.98, half_width=40.0, depth=0.9, noise=0.0, f_start=6.8e9, seed=0)
    @example(n=101, centre=0.5, half_width=3.0, depth=0.0, noise=0.0, f_start=6.8e9, seed=0)
    @example(n=15, centre=0.5, half_width=2.0, depth=0.8, noise=0.0, f_start=6.8e9, seed=0)
    def test_guess_keeps_the_earlier_bits(self, n, centre, half_width, depth, noise, f_start, seed):
        # A Lorentzian dip of the given depth and half width (in points),
        # centred at a fraction of the span (outside it too), with
        # multiplicative noise clipped at 0: the guess is bit for bit the
        # earlier form's, fields and at_edge, or the same exception and message.
        i = np.arange(n, dtype=float)
        y = 1.0 - depth / (1.0 + ((i - centre * (n - 1)) / half_width) ** 2)
        if noise:
            y *= 1.0 + noise * np.random.default_rng(seed).standard_normal(n)
        f = np.linspace(f_start, 1.001 * f_start, n)
        trace = SweepTrace(f, np.clip(y, 0.0, None), -131.0)
        assert guess_or_error(initial_guess, trace) == guess_or_error(reference_guess, trace)


class TestFitResonance:
    def test_noiseless_round_trip_paper_values(self):
        f_r = 6.834683e9
        tr = make_trace(f_r, PAPER_QL, 5e5, phi=0.1, n=1601)
        res = fit_resonance(tr)
        assert res.converged
        assert res.f_r == pytest.approx(f_r, rel=1e-4)
        assert res.q_l == pytest.approx(PAPER_QL, rel=1e-4)
        assert res.q_e == pytest.approx(5e5, rel=1e-4)
        assert res.phi == pytest.approx(0.1, rel=1e-4)
        assert res.q_i == pytest.approx(35000, rel=1e-3)

    def test_randomized_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            q_i = 10 ** rng.uniform(4, 6)
            q_e = 10 ** rng.uniform(5, 7)
            phi = rng.uniform(-0.5, 0.5)
            q_l = loaded_q(q_i, q_e)
            f_r = rng.uniform(4e9, 8e9)
            tr = make_trace(f_r, q_l, q_e, phi, n=801)
            res = fit_resonance(tr)
            assert abs(res.f_r / f_r - 1) < 1e-3
            assert abs(res.q_l / q_l - 1) < 1e-3
            assert abs(res.q_e / q_e - 1) < 1e-3
            assert abs(res.phi - phi) < 1e-3

    def test_residual_never_worse_than_guess(self):
        rng = np.random.default_rng(17)
        for seed in range(10):
            tr = make_trace(6.83e9, PAPER_QL, 5e5, phi=0.2, noise=0.02, seed=seed)
            g = initial_guess(tr)
            r0 = notch_response(tr.frequencies, g.f_r, g.q_l, g.q_e, g.phi)[0] - tr.power_ratio
            res = fit_resonance(tr)
            assert res.rms_residual <= math.sqrt(float(r0 @ r0) / len(r0)) + 1e-15

    def test_scale_invariance(self):
        f_r = 6.83e9
        tr = make_trace(f_r, PAPER_QL, 5e5, phi=0.15)
        res1 = fit_resonance(tr)
        s = 3.7
        tr2 = SweepTrace(tr.frequencies * s, tr.power_ratio, tr.p_in_dbm)
        res2 = fit_resonance(tr2)
        assert res2.f_r == pytest.approx(res1.f_r * s, rel=1e-6)
        assert res2.q_l == pytest.approx(res1.q_l, rel=1e-6)
        assert res2.q_e == pytest.approx(res1.q_e, rel=1e-6)
        assert res2.phi == pytest.approx(res1.phi, abs=1e-6)

    def test_qi_consistency(self):
        tr = make_trace(6.83e9, PAPER_QL, 5e5, phi=0.1)
        res = fit_resonance(tr)
        assert abs(1 / res.q_l - 1 / res.q_e - 1 / res.q_i) < 1e-12 / res.q_l

    def test_flat_trace_propagates_no_resonance(self):
        f = np.linspace(6.8e9, 6.9e9, 201)
        with pytest.raises(NoResonance):
            fit_resonance(SweepTrace(f, np.ones_like(f), -131.0))

    def test_overflowing_trial_step_is_rejected(self):
        # A shallow broad-range dip (Q_i 13,200 against Q_e 6e6) under 1% noise:
        # a trial step once drove ln Q_L past the float range of math.exp and
        # the fit raised a bare OverflowError.
        params = ResonatorParams(L0=1e-9, C=9.234233444133278e-13, Qi0=13199.293172238959,
                                 Qe=6038046.0648326995, phi=-0.20629017649832682)
        pin = calibrate_pin_model(6.8278e9, 6.8454e9, 40e-6, 8.7e3 / 60e-9)
        sweep = SweepConfig(5235459467.747194, 5239436117.779219, 1601, -131.0)
        tr = synthesize_sweep(sweep, params, TuningState(d=0.05), pin,
                              NoiseModel(sigma_rel=0.01, seed=1561809142))
        try:
            result = fit_resonance(tr)
        except PintuneError:  # NonPhysicalFit: the dip is too shallow to resolve
            return
        assert isinstance(result, FitResult)

    def test_fit_beyond_the_span_carries_its_best(self):
        # The dip's centre half a linewidth past the sweep's end: the fit
        # stops on its own rule there, and the result comes back unconverged.
        f_r, q_l = 6.83e9, PAPER_QL
        f = np.linspace(f_r - 10 * f_r / q_l, f_r - 0.5 * f_r / q_l, 401)
        rng = np.random.default_rng(1)
        y = notch_response(f, f_r, q_l, 5e5, 0.0)[0] + 1e-4 * rng.standard_normal(f.size)
        with pytest.raises(ConvergenceFailure, match="outside the trace span") as failure:
            fit_resonance(SweepTrace(f, y, -131.0))
        best = failure.value.best
        assert best.f_r > f[-1] and not best.converged and best.stop == "offset"

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_a_dip_between_the_end_points_is_inside_the_span(self, end):
        """The span test includes the outermost intervals: a noiseless dip
        half a point spacing from either end of the axis fits to its f_r and
        comes back converged."""
        f_r, q_l = 6.83e9, PAPER_QL
        spacing = 10 * f_r / q_l / 400
        f = f_r + spacing * (np.arange(401) - (0.5 if end == "first" else 399.5))
        res = fit_resonance(SweepTrace(f, notch_response(f, f_r, q_l, 5e5, 0.0)[0], -131.0))
        assert res.converged and res.f_r == pytest.approx(f_r, abs=1e-6 * spacing)
        assert f[0] < res.f_r < f[1] if end == "first" else f[-2] < res.f_r < f[-1]

    def test_an_f_r_step_above_the_step_tolerance_keeps_the_fit_going(self):
        """The step rule weighs f_r's step relative to f_r: from a start off a
        noiseless trace's f_r alone, by 2 STEP_TOL relative, the first step
        moves f_r by that much and the other three parameters by under a
        tenth of STEP_TOL, and the fit goes on to the trace's f_r rather than
        stop after the first damped step, about 1e-3 of the offset short."""
        f_r, q_l, q_e = 6.83e9, 30.0, 90.0
        offset = 2 * fitting.STEP_TOL * f_r
        res = fit_resonance(make_trace(f_r, q_l, q_e, n=401), InitialGuess(f_r + offset, q_l, q_e))
        assert res.converged and res.n_iterations > 1
        assert abs(res.f_r - f_r) <= 1e-4 * offset

    def test_converged_is_a_plain_bool(self):
        """On a returned fit, a warm one, and the best of a fit out of its
        budget and of one beyond its span (whose span test is numpy's)."""
        trace = make_trace(6.83e9, PAPER_QL, 5e5, n=401, noise=0.01, seed=5)
        results = [fit_resonance(trace), fit_resonance(trace, initial_guess(trace))]
        f_r = 6.83e9
        f = np.linspace(f_r - 10 * f_r / PAPER_QL, f_r - 0.5 * f_r / PAPER_QL, 401)
        beyond = notch_response(f, f_r, PAPER_QL, 5e5, 0.0)[0]
        for failing in (criterion4_trace(*NEAR_SINGULAR_CASE), SweepTrace(f, beyond, -131.0)):
            with pytest.raises(ConvergenceFailure) as failure:
                fit_resonance(failing)
            results.append(failure.value.best)
        assert [type(res.converged) for res in results] == [bool] * 4
        assert [res.converged for res in results] == [True, True, False, False]

    def test_uncertainties_cover_noise_scale(self):
        tr = make_trace(6.83e9, PAPER_QL, 5e5, n=1601, noise=0.01, seed=5)
        res = fit_resonance(tr)
        # 1 sigma errors should be finite and small relative to the values
        assert 0 < res.f_r_err < 0.1 * res.f_r / res.q_l
        assert 0 < res.q_l_err < 0.1 * res.q_l


def device_reading(seed):
    """One 1,201-point reading of the paper's device on the benchmark's 0.5%
    noise, about a 6 MHz span around f_Rb, as a tune session takes it."""
    return make_trace(6.834683e9, PAPER_QL, 5e5, phi=0.1, n=1201, noise=0.005, seed=seed)


def window(trace):
    """Half the guessed linewidth: how far a start's f_r and a warm fit's may
    lie from the guessed dip."""
    guess = initial_guess(trace)
    return guess.f_r, guess.f_r / (2.0 * guess.q_l)


class TestWarmStart:
    """fit_resonance(trace, start) starts from a lineshape already known and
    keeps that fit only inside the window; otherwise it is the cold fit."""

    def test_warm_fit_lands_on_the_cold_fit_in_fewer_iterations(self):
        # Each reading starts from the last reading's lineshape at the sweep
        # centre, as a tune session does.
        last = fit_resonance(device_reading(0))
        saved = 0
        for seed in range(1, 21):
            trace = device_reading(seed)
            cold = fit_resonance(trace)
            warm = fit_resonance(trace, InitialGuess(6.834683e9, last.q_l, last.q_e, last.phi))
            assert abs(warm.f_r - cold.f_r) <= 0.01 * cold.f_r_err
            assert warm.n_iterations <= cold.n_iterations
            saved += cold.n_iterations - warm.n_iterations
            last = warm
        assert saved >= 20

    def test_start_outside_the_window_starts_at_the_guessed_dip(self):
        # With the guess's own lineshape, the warm fit is then the cold one.
        trace = device_reading(1)
        guess = initial_guess(trace)
        f_dip, half = window(trace)
        start = replace(guess, f_r=f_dip + 1.01 * half)
        assert fit_resonance(trace, start) == fit_resonance(trace)

    @pytest.mark.parametrize("rejected", ["ConvergenceFailure", "NonPhysicalFit", "FitFailure", "outside"])
    def test_a_rejected_warm_fit_gives_the_cold_fit(self, monkeypatch, rejected):
        trace = device_reading(2)
        cold = fit_resonance(trace)
        f_dip, half = window(trace)
        starts = []

        def warm_fails(f, y, theta):
            starts.append(theta)
            result = fit(f, y, theta)
            if len(starts) > 1:  # the cold fit
                return result
            if rejected == "ConvergenceFailure":
                raise ConvergenceFailure("no convergence", best=result)
            if rejected == "NonPhysicalFit":
                raise NonPhysicalFit("Q_L >= Q_e")
            if rejected == "FitFailure":  # a kind the fallback does not name
                raise type("UnnamedFitFailure", (FitFailure,), {})("no result")
            return replace(result, f_r=f_dip - 1.01 * half)

        fit = fitting._fit
        monkeypatch.setattr(fitting, "_fit", warm_fails)
        start = InitialGuess(6.834683e9, cold.q_l, cold.q_e, cold.phi)
        assert fit_resonance(trace, start) == cold
        assert [theta[0] for theta in starts] == [6.834683e9, f_dip]


@settings(max_examples=100, deadline=None)
@given(
    log_qi=st.floats(4.0, 6.0),
    log_qe=st.floats(5.0, 7.0),
    phi=st.floats(-0.5, 0.5),
    f_r=st.floats(4e9, 8e9),
    n=st.integers(401, 1601),
)
def test_fit_recovers_synthesized_parameters(log_qi, log_qe, phi, f_r, n):
    """fit(synthesize(theta)) = theta over acceptance criterion 4's ranges,
    noiseless, on a span of +-5 linewidths."""
    q_i, q_e = 10**log_qi, 10**log_qe
    params = ResonatorParams(L0=1e-9, C=capacitance_for_frequency(f_r, 1e-9), Qi0=q_i, Qe=q_e, phi=phi)
    state = TuningState(d=0.05)  # pin far away: the bare resonance
    pin = calibrate_pin_model(6.8278e9, 6.8454e9, 40e-6, 8.7e3 / 60e-9)
    f_true = tuned_frequency(params, state, pin)
    q_l = loaded_q(q_i, q_e)
    lw = f_true / q_l
    sweep = SweepConfig(f_true - 5 * lw, f_true + 5 * lw, n, -131.0)
    res = fit_resonance(synthesize_sweep(sweep, params, state, pin, NoiseModel()))
    assert abs(res.f_r / f_true - 1) < 1e-3
    assert abs(res.f_r - f_true) < 1e-3 * lw
    assert abs(res.q_l / q_l - 1) < 1e-3
    assert abs(res.q_e / q_e - 1) < 1e-3
    assert abs(res.phi - phi) < 1e-3


class TestGradientCheck:
    def test_analytic_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        f_r0 = 6.83e9
        f = np.linspace(f_r0 - 2e6, f_r0 + 2e6, 41)
        y = np.zeros_like(f)
        for _ in range(100):
            theta = np.array(
                [
                    f_r0 * rng.uniform(0.9999, 1.0001),
                    math.log(10 ** rng.uniform(4, 5.5)),
                    math.log(10 ** rng.uniform(5, 6.5)),
                    rng.uniform(-0.5, 0.5),
                ]
            )
            ws = _workspace(f.size)
            _, terms = _residual(theta, f, y, ws)
            jac = _jacobian(theta, terms, ws)
            # steps sized for truncation error: f_r varies on the linewidth
            # scale, not its absolute scale
            steps = (10.0, 1e-6, 1e-6, 1e-6)
            for j in range(4):
                h = np.zeros(4)
                h[j] = steps[j]
                rp, _ = _residual(theta + h, f, y, _workspace(f.size))
                rm, _ = _residual(theta - h, f, y, _workspace(f.size))
                fd = (rp - rm) / (2 * h[j])
                scale = np.max(np.abs(fd)) + 1e-300
                assert np.max(np.abs(jac[:, j] - fd)) / scale < 1e-6


def damped(h, lam):
    """h + lam D, D the diagonal of h with non-positive entries raised to 1e-30."""
    d = h.diagonal()
    return h + lam * np.diag(np.where(d <= 0, 1e-30, d))


def exact_pivot_share(h):
    """The least pivot share l_kk**2 / h_kk of h = L L^T, h's diagonal being
    positive, in rational arithmetic; <= 0 when h is not positive definite."""
    rows = [[Fraction(v) for v in row] for row in h.tolist()]
    shares = []
    for c in range(4):
        pivot = rows[c][c]
        shares.append(pivot / Fraction(h[c, c]))
        if pivot <= 0:
            break
        for r in range(c + 1, 4):
            f = rows[r][c] / pivot
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return float(min(shares))


@st.composite
def graded_spd(draw):
    """h = S M S, M of unit diagonal with one near-dependent pair of columns:
    column j of M's Cholesky factor is column i's times sqrt(1 - share), plus
    sqrt(share) on its own axis, share from 1e-15 to 1; every other pivot keeps
    from 10**-0.5 to 1 of its diagonal entry, and S spans 1e-10 to 1e10, as
    J^T J's columns do."""
    seed = draw(st.integers(0, 2**32 - 1))
    i, j = draw(st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    share = 10.0 ** draw(st.floats(-15.0, 0.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4)))
    rng = np.random.default_rng(seed)
    l = np.zeros((4, 4))
    l[0, 0] = 1.0
    for k in range(1, 4):
        if k == j:
            l[k, :k], l[k, k] = math.sqrt(1.0 - share) * sign * l[i, :k], math.sqrt(share)
        else:
            row_share = 10.0 ** rng.uniform(-0.5, 0.0)
            u = rng.standard_normal(k)
            l[k, :k], l[k, k] = math.sqrt(1.0 - row_share) * u / np.linalg.norm(u), math.sqrt(row_share)
    h = scales[:, None] * (l @ l.T) * scales[None, :]
    return (h + h.T) / 2


def solve(h, g, lam=0.0):
    """The fit's solve of (h + lam D) x = g and g^T (h + lam D)^-1 g:
    _cholesky's factor, then _solve and _forward; None when the factorisation
    fails."""
    l = _cholesky(h, lam)
    return None if l is None else (_solve(l, g.tolist()), _forward(l, g.tolist()))


def inverse_diagonal(h):
    """diag(h^-1) as _standard_errors takes it, entry k being |L^-1 e_k|^2
    from _forward on _cholesky(h)'s factor; None when h is not positive
    definite."""
    l = _cholesky(h)
    return None if l is None else [_forward(l, e) for e in np.eye(4).tolist()]


def exact_quadratic_form(a, g):
    """g^T a^-1 g of the float entries, solved in rational arithmetic."""
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(a.tolist(), g.tolist())]
    for c in range(4):
        pivot = next(r for r in range(c, 4) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(4):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return float(sum(Fraction(b) * row[4] / row[i] for i, (b, row) in enumerate(zip(g.tolist(), rows))))


class TestSolve:
    """The unrolled 4x4 Cholesky factorisation behind the trial step, the
    offset test and the covariance."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scales=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
        lam=st.sampled_from([0.0, 1e-15, 1e-3, 10.0, 1e6]),
    )
    @example(seed=0, log_scales=[-10.0, 10.0, -10.0, 10.0], lam=0.0)
    def test_solves_scaled_spd_systems(self, seed, log_scales, lam):
        """Symmetric positive definite h = S M S, cond(M) <= 1e3 and column
        scales S from 1e-10 to 1e10, as J^T J's columns span; g = S c."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        core = (q * 10 ** rng.uniform(0.0, 3.0, 4)) @ q.T
        s = 10.0 ** np.array(log_scales)
        h = s[:, None] * core * s[None, :]
        h = (h + h.T) / 2
        g = s * rng.standard_normal(4)
        x, got_q = solve(h, g, lam)
        a, x = damped(h, lam), np.array(x)
        eps = np.finfo(float).eps
        assert np.linalg.norm(a @ x - g) <= 4 * eps * np.linalg.norm(a, 2) * np.linalg.norm(x)
        assert got_q >= 0.0
        # LAPACK's LU loses up to about 5e-8 on these graded matrices; the
        # exact value bounds the closed form by n cond(M) eps.
        assert got_q == pytest.approx(g @ np.linalg.solve(a, g), rel=1e-6)
        assert got_q == pytest.approx(exact_quadratic_form(a, g), rel=4 * 4 * 1e3 * eps)

    @pytest.mark.parametrize("entry", [0.0, -0.0, -1e-40])
    def test_non_positive_diagonal_damped_by_1e_30(self, entry):
        """A diagonal entry <= 0 is damped by lam * 1e-30, which makes the
        pivot positive here; the other entries are damped by themselves."""
        h = np.diag([entry, 2.0, 4.0, 8.0])
        g = np.array([1e-30, 2.0, 4.0, 8.0])
        x, q = solve(h, g, 1e3)
        pivot = entry + 1e3 * 1e-30
        assert x == pytest.approx([1e-30 / pivot, 2.0 / 2002.0, 4.0 / 4004.0, 8.0 / 8008.0])
        assert q == pytest.approx(1e-60 / pivot + 4.0 / 2002.0 + 16.0 / 4004.0 + 64.0 / 8008.0)

    def test_negative_diagonal_stays_negative(self):
        assert solve(np.diag([1.0, 1.0, 1.0, -3.0]), np.ones(4), 1e3) is None

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_zero_diagonal_solves_only_when_damped(self, lam):
        h = np.diag([1.0, 0.0, 1.0, 1.0])
        assert (solve(h, np.ones(4), lam) is None) == (lam == 0.0)

    @pytest.mark.parametrize("h", [
        np.diag([1.0, 1.0, float("nan"), 1.0]),
        np.array([[1.0, 0, 0, float("nan")], [0, 1, 0, 0], [0, 0, 1, 0], [float("nan"), 0, 0, 1]]),
        np.array([[1.0, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        np.ones((4, 4)),
        -np.eye(4),
    ], ids=["nan-diagonal", "nan-off-diagonal", "indefinite", "singular", "negative-definite"])
    def test_not_positive_definite_returns_none(self, h):
        assert solve(h, np.ones(4)) is None

    def test_reads_the_upper_triangle_only(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((6, 4))
        h = b.T @ b
        g = rng.standard_normal(4)
        junk = h.copy()
        junk[np.tril_indices(4, -1)] = np.nan
        assert solve(junk, g, 1e-3) == solve(h, g, 1e-3)

    def test_inverse_diagonal_needs_every_pivot_share(self):
        """diag(h^-1) of a well-conditioned h, as the exact inverse gives it,
        and of an h whose last pivot keeps about 2 delta of its diagonal entry,
        down to a few eps; None exactly when h is not positive definite: a
        pivot that is zero, negative or NaN."""
        eps = np.finfo(float).eps
        rng = np.random.default_rng(5)
        b = rng.standard_normal((6, 4))
        h = b.T @ b
        want = [exact_quadratic_form(h, e) for e in np.eye(4)]
        assert inverse_diagonal(h) == pytest.approx(want, rel=1e-14)
        # The fit's standard errors are the square roots of this diagonal.
        errors = [math.sqrt(2.0 * v) for v in inverse_diagonal(h)]
        assert fitting._standard_errors(_cholesky(h), 2.0) == errors
        for delta in [1e-8, 1e-9, 1e-12, 1e-15]:
            h = np.eye(4)
            h[2, 3] = h[3, 2] = 1.0 - delta
            want = [exact_quadratic_form(h, e) for e in np.eye(4)]
            assert inverse_diagonal(h) == pytest.approx(want, rel=32 * eps / exact_pivot_share(h))
        singular = np.eye(4)
        singular[2, 3] = singular[3, 2] = 1.0  # the last pivot is exactly 0
        for h in [singular, np.zeros((4, 4)), -np.eye(4), np.diag([1.0, 1.0, float("nan"), 1.0]),
                  np.array([[1.0, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])]:
            assert inverse_diagonal(h) is None

    @settings(max_examples=300, deadline=None)
    @given(h=graded_spd())
    @example(h=symmetric(NEAR_SINGULAR_H))
    @example(h=symmetric(CONVERGED_GRADED_H))
    def test_inverse_diagonal_of_graded_matrices(self, h):
        """Graded positive definite h down to pivot shares of about 1e-15, as
        the near-singular J^T J of shallow dips reach: the Cholesky
        diagonal of h^-1 is within 32 eps / share relative of the exact
        inverse, share being h's least pivot share, and is refused only below
        a share of 16 eps.  Cholesky's error on a graded h depends on h scaled
        to a unit diagonal, not on h's own condition number (Demmel & Veselic,
        SIAM J. Matrix Anal. Appl. 13, 1204 (1992)).  On 15,000 draws the
        worst reached 9 eps / share, and the largest refused share 6.7 eps."""
        eps = np.finfo(float).eps
        share = exact_pivot_share(h)
        got = inverse_diagonal(h)
        if got is None:
            assert share < 16 * eps
            return
        exact = [exact_quadratic_form(h, e) for e in np.eye(4)]
        np.testing.assert_allclose(got, exact, rtol=32 * eps / share)

    @settings(max_examples=100, deadline=None)
    @given(
        regime=st.sampled_from(["device", "broad"]),
        f_r=st.floats(4e9, 8e9),
        log_q_i=st.floats(4.0, 6.0),
        log_q_e=st.floats(5.0, 7.0),
        phi=st.floats(-0.5, 0.5),
        n=st.integers(401, 1601),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(regime="device", f_r=6.8e9, log_q_i=4.0, log_q_e=5.0, phi=0.1, n=401, seed=7)
    def test_cholesky_covariance_matches_the_pseudo_inverse(
            self, regime, f_r, log_q_i, log_q_e, phi, n, seed):
        """Criterion-4 fits, at h of the fitted point: the Cholesky diagonal of
        h^-1 is within 16 eps cond(h_s) of the exact inverse, h_s being h
        scaled to a unit diagonal (Demmel & Veselic 1992), and, wherever
        np.linalg.pinv truncates no singular value (cond(h) < 1e15), within
        4 eps cond(h) relative of pinv's, the first-order error of h's SVD.
        On 3,000 such fits the worst reached 0.3% and 4% of these bounds."""
        if regime == "device":
            f_r, q_i, q_e = 6834683000.0, 35000.0, 500000.0
        else:
            q_i, q_e = 10**log_q_i, 10**log_q_e
        trace = criterion4_trace(f_r, q_i, q_e, phi, n, seed)
        try:
            res = fit_resonance(trace)
        except ConvergenceFailure as exc:
            res = exc.best
        except (NonPhysicalFit, NoResonance):
            return
        theta = (res.f_r, math.log(res.q_l), math.log(res.q_e), res.phi)
        ws = _workspace(n)
        _, terms = _residual(theta, trace.frequencies, trace.power_ratio, ws)
        jac = _jacobian(theta, terms, ws)
        h = jac.T @ jac
        got = inverse_diagonal(h)
        if got is None:  # h is not positive definite
            return
        eps, scale, cond = np.finfo(float).eps, np.sqrt(h.diagonal()), np.linalg.cond(h)
        if cond < 1e15:
            np.testing.assert_allclose(got, np.diag(np.linalg.pinv(h)), rtol=4 * eps * cond)
        exact = [exact_quadratic_form(h, e) for e in np.eye(4)]
        np.testing.assert_allclose(got, exact, rtol=16 * eps * np.linalg.cond(h / np.outer(scale, scale)))

    def test_fit_calls_no_lapack_solve(self, monkeypatch):
        """A fit's solves and covariance all use the closed form, no LAPACK
        solve and no SVD: a well-conditioned fit's, and the budget-exhausting
        near-singular one's."""
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        res = fit_resonance(make_trace(6.83e9, PAPER_QL, 5e5, n=401, noise=0.01, seed=5))
        assert res.converged and res.n_iterations > 0
        assert 0 < res.f_r_err < math.inf
        with pytest.raises(ConvergenceFailure) as failure:
            fit_resonance(criterion4_trace(*NEAR_SINGULAR_CASE))
        assert 0 < failure.value.best.f_r_err < math.inf

    def test_a_failed_damped_solve_raises_the_damping(self, monkeypatch):
        """A trial whose damped solve fails spends an iteration, and the next
        one is damped ten times harder; the fit still ends on a stopping rule
        at the undisturbed optimum."""
        trace = make_trace(6.83e9, PAPER_QL, 5e5, n=401, noise=0.01, seed=5)
        undisturbed = fit_resonance(trace)
        damped_calls = []

        def first_damped_fails(h, lam=0.0):
            if lam > 0:
                damped_calls.append(lam)
                if len(damped_calls) == 1:
                    return None
            return _cholesky(h, lam)

        monkeypatch.setattr(fitting, "_cholesky", first_damped_fails)
        res = fit_resonance(trace)
        assert damped_calls[1] == 10.0 * damped_calls[0]
        assert res.stop != "budget"
        assert res.n_iterations > undisturbed.n_iterations
        assert abs(res.f_r - undisturbed.f_r) <= 0.01 * undisturbed.f_r_err

    def test_a_trial_past_the_float_range_is_rejected(self, monkeypatch):
        """A trial at Q_L = 1e308, finite, where 2 Q_L / f_r is not, costs NaN
        (the kernel's u is NaN there): the fit rejects it and damps ten times
        harder, although the flat S = 1 that a clamped u would give there
        costs less than the start, a full-depth dip four linewidths off."""
        trace = make_trace(6.83e9, PAPER_QL, 5e5, n=401, noise=0.01, seed=5)
        f, y = trace.frequencies, trace.power_ratio
        start = (6.83e9 * (1 + 4.01 / PAPER_QL), math.log(PAPER_QL), math.log(1.001 * PAPER_QL), 0.0)
        far = (start[0], math.log(1e308), math.log(1.5e308), 0.0)
        assert 2.0 * math.exp(far[1]) == math.inf > math.exp(far[2])
        costs, lams, accepted = [], [], []
        cholesky, solve, residual, jacobian = (
            fitting._cholesky, fitting._solve, fitting._residual, fitting._jacobian)

        def counted_cholesky(h, lam=0.0):
            if lam:
                lams.append(lam)
            return cholesky(h, lam)

        def first_step_far(l, g):  # the step is -x, from the start to far
            return tuple(a - b for a, b in zip(start, far)) if len(lams) == 1 else solve(l, g)

        def counted_residual(theta, *args):
            out = residual(theta, *args)
            costs.append(float(out[0] @ out[0]))
            return out

        def counted_jacobian(theta, *args):
            accepted.append(theta)
            return jacobian(theta, *args)

        for name, spy in [("_cholesky", counted_cholesky), ("_solve", first_step_far),
                          ("_residual", counted_residual), ("_jacobian", counted_jacobian)]:
            monkeypatch.setattr(fitting, name, spy)
        try:
            fitting._fit(f, y, start)
        except FitFailure:
            pass
        assert not np.isin(start[0], f)  # no point at f_r: a clamped u is finite everywhere
        assert float(np.sum((1.0 - y) ** 2)) < costs[0]
        assert math.isnan(costs[1])
        assert lams[1] == 10.0 * lams[0]
        assert all(theta[1] < 700.0 for theta in accepted)

    def test_a_failed_undamped_solve_is_not_converged(self, monkeypatch):
        """The offset test reads a failed undamped factorisation as not
        converged, so a fit that would stop on it ends on another rule, at the
        same optimum; the same failed factor leaves it no standard errors."""
        trace = make_trace(6.83e9, PAPER_QL, 5e5, n=401, noise=0.01, seed=5)
        undisturbed = fit_resonance(trace)
        assert undisturbed.stop == "offset"
        monkeypatch.setattr(fitting, "_cholesky", lambda h, lam=0.0: _cholesky(h, lam) if lam else None)
        res = fit_resonance(trace)
        assert res.stop in ("step", "cost")
        assert abs(res.f_r - undisturbed.f_r) <= 0.01 * undisturbed.f_r_err
        assert all(math.isnan(e) for e in (res.f_r_err, res.q_l_err, res.q_e_err, res.phi_err))

    def test_a_refused_fit_computes_no_standard_errors(self, monkeypatch):
        """A converged fit with Q_L outside (0, Q_e) raises NonPhysicalFit,
        which carries no result, before its covariance is computed; a fit out
        of its budget carries its best, and pays for one diagonal of h^-1."""
        calls = []
        standard_errors = fitting._standard_errors

        def counted(l, sigma2):
            calls.append("covariance")
            return standard_errors(l, sigma2)

        monkeypatch.setattr(fitting, "_standard_errors", counted)
        with pytest.raises(NonPhysicalFit):
            fit_resonance(criterion4_trace(*NON_PHYSICAL_CASE))
        assert calls == []
        with pytest.raises(ConvergenceFailure):
            fit_resonance(criterion4_trace(*NEAR_SINGULAR_CASE))
        assert calls == ["covariance"]

    @pytest.mark.parametrize("n", [16, 404])
    def test_the_offset_test_stops_at_offset_tol(self, n):
        """(q / 4) / ((r^T r - q) / (n - 4)) <= OFFSET_TOL**2, q from the
        factor's forward substitution: a point a millionth inside the bound is converged and
        one a millionth outside is not."""
        rng = np.random.default_rng(3)
        b = rng.standard_normal((6, 4))
        l, g = _cholesky(b.T @ b), rng.standard_normal(4).tolist()
        q = _forward(l, g)
        for share, converged in [(1 - 1e-6, True), (1 + 1e-6, False)]:
            cost = q + (q / 4) / (fitting.OFFSET_TOL**2 * share) * (n - 4)
            assert fitting._offset_small(l, g, cost, n) is converged

    def test_one_undamped_factorisation_per_jacobian(self, monkeypatch):
        """Each point a fit stands on, its start and each accepted point, is
        factored undamped once, for its offset test and, at the last point,
        the standard errors: in every fit, cold, warm, refused or out of
        budget, the undamped factorisations equal the Jacobians."""
        cholesky, jacobian, fit = fitting._cholesky, fitting._jacobian, fitting._fit
        counts, fits = {}, []

        def counted_cholesky(h, lam=0.0):
            counts["undamped"] += not lam
            return cholesky(h, lam)

        def counted_jacobian(*args):
            counts["jacobian"] += 1
            return jacobian(*args)

        def counted_fit(*args):
            counts.update(undamped=0, jacobian=0)
            try:
                return fit(*args)
            finally:
                fits.append((counts["undamped"], counts["jacobian"]))

        monkeypatch.setattr(fitting, "_cholesky", counted_cholesky)
        monkeypatch.setattr(fitting, "_jacobian", counted_jacobian)
        monkeypatch.setattr(fitting, "_fit", counted_fit)
        trace = make_trace(6.83e9, PAPER_QL, 5e5, n=401, noise=0.01, seed=5)
        cold = fit_resonance(trace)
        fit_resonance(trace, InitialGuess(cold.f_r, cold.q_l, cold.q_e, cold.phi))
        fit_resonance(trace, InitialGuess(cold.f_r, 2 * cold.q_e, cold.q_e))  # refused, then cold
        with pytest.raises(NonPhysicalFit):
            fit_resonance(criterion4_trace(*NON_PHYSICAL_CASE))
        with pytest.raises(ConvergenceFailure):
            fit_resonance(criterion4_trace(*NEAR_SINGULAR_CASE))
        assert len(fits) == 6
        assert all(undamped == jacobians >= 1 for undamped, jacobians in fits)
        assert fits[-1][1] > 100  # the budget-exhausting fit accepts about half its trials

    def test_a_failed_covariance_reports_nan_errors(self):
        """An h that is not positive definite (zero, with a negative pivot,
        indefinite, singular or NaN) has no standard errors: all four are NaN,
        where a pseudo-inverse would report the zero h's as 0.0."""
        for h in [np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, -3.0]),
                  np.array([[1.0, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
                  np.ones((4, 4)), np.diag([1.0, 1.0, float("nan"), 1.0])]:
            assert _cholesky(h) is None
            assert all(math.isnan(e) for e in fitting._standard_errors(_cholesky(h), 1.0))

    def test_a_kept_reading_with_a_zero_jtj_reports_nan_errors(self, monkeypatch):
        """A loud-probe session (tools/probe_sessions.py: sigma_rel 0.05,
        1-um vibration, from 600 um, seed SeedSequence([12, 1, 193])) whose
        fourth reading starts from the third's near-degenerate lineshape and
        drives Q_e to 2e301: the model is flat there, J^T J is zero, a zero
        step stops the fit, and the reading it keeps reports NaN errors."""
        cfg = config.from_dict({"noise": {"sigma_rel": 0.05, "vib_amplitude_um": 1.0}})
        believed = cfg.plant()
        stage = replace(cfg.stage, position=600e-6)
        seed = int(np.random.SeedSequence([12, 1, 193]).generate_state(1)[0])
        plant = replace(believed, noise=replace(cfg.noise, seed=seed))
        fits = []

        def spy(trace, start=None):
            fits.append((trace, fit_resonance(trace, start)))
            return fits[-1][1]

        monkeypatch.setattr(piezo, "fit_resonance", spy)
        session = tune_to_target(plant, stage, cfg.controller, ControllerModel.of(believed, stage))
        trace, res = fits[3]
        assert session.steps[3].measured_f_r == res.f_r
        assert res.converged and res.stop == "step" and res.q_e > 1e300
        theta = (res.f_r, math.log(res.q_l), math.log(res.q_e), res.phi)
        ws = _workspace(trace.frequencies.size)
        _, terms = _residual(theta, trace.frequencies, trace.power_ratio, ws)
        jac = _jacobian(theta, terms, ws)
        assert not (jac.T @ jac).any()
        assert all(math.isnan(e) for e in (res.f_r_err, res.q_l_err, res.q_e_err, res.phi_err))
