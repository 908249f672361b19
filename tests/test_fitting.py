import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pintune.errors import NoResonance, PintuneError
from pintune.fitting import (
    FitResult,
    _jacobian,
    _residual,
    fit_resonance,
    initial_guess,
)
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
    s21_power,
    synthesize_sweep,
)


def make_trace(f_r, q_l, q_e, phi=0.0, n=801, span_linewidths=10, noise=None, seed=0):
    lw = f_r / q_l
    f = np.linspace(f_r - span_linewidths * lw / 2, f_r + span_linewidths * lw / 2, n)
    y = s21_power(f, f_r, q_l, q_e, phi)
    if noise:
        rng = np.random.default_rng(seed)
        y = np.clip(y * (1 + noise * rng.standard_normal(n)), 0, None)
    return SweepTrace(f, y, p_in_dbm=-131.0)


PAPER_QL = loaded_q(35000, 5e5)


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
        tr = SweepTrace(f, s21_power(f, f_r, PAPER_QL, 5e5), -131.0)
        g = initial_guess(tr)
        assert g.at_edge
        assert g.f_r == f[np.argmin(tr.power_ratio)]

    def test_too_short(self):
        f = np.linspace(6.8e9, 6.9e9, 8)
        with pytest.raises(NoResonance):
            initial_guess(SweepTrace(f, np.ones_like(f), -131.0))


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
            r0 = s21_power(tr.frequencies, g.f_r, g.q_l, g.q_e, g.phi) - tr.power_ratio
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

    def test_uncertainties_cover_noise_scale(self):
        tr = make_trace(6.83e9, PAPER_QL, 5e5, n=1601, noise=0.01, seed=5)
        res = fit_resonance(tr)
        # 1 sigma errors should be finite and small relative to the values
        assert 0 < res.f_r_err < 0.1 * res.f_r / res.q_l
        assert 0 < res.q_l_err < 0.1 * res.q_l


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
            _, terms = _residual(theta, f, y)
            jac = _jacobian(theta, f, terms)
            # steps sized for truncation error: f_r varies on the linewidth
            # scale, not its absolute scale
            steps = (10.0, 1e-6, 1e-6, 1e-6)
            for j in range(4):
                h = np.zeros(4)
                h[j] = steps[j]
                rp, _ = _residual(theta + h, f, y)
                rm, _ = _residual(theta - h, f, y)
                fd = (rp - rm) / (2 * h[j])
                scale = np.max(np.abs(fd)) + 1e-300
                assert np.max(np.abs(jac[:, j] - fd)) / scale < 1e-6
