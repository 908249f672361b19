import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pintune.errors import ConvergenceFailure, NoResonance, PintuneError
from pintune.fitting import (
    FitResult,
    _jacobian,
    _residual,
    _solve,
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

    def test_fit_beyond_the_span_carries_its_best(self):
        # The dip's centre half a linewidth past the sweep's end: the fit
        # stops on its own rule there, and the result comes back unconverged.
        f_r, q_l = 6.83e9, PAPER_QL
        f = np.linspace(f_r - 10 * f_r / q_l, f_r - 0.5 * f_r / q_l, 401)
        rng = np.random.default_rng(1)
        y = s21_power(f, f_r, q_l, 5e5) + 1e-4 * rng.standard_normal(f.size)
        with pytest.raises(ConvergenceFailure, match="outside the trace span") as failure:
            fit_resonance(SweepTrace(f, y, -131.0))
        best = failure.value.best
        assert best.f_r > f[-1] and not best.converged and best.stop == "offset"

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


def damped(h, lam):
    """h + lam D, D the diagonal of h with non-positive entries raised to 1e-30."""
    d = h.diagonal()
    return h + lam * np.diag(np.where(d <= 0, 1e-30, d))


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
    """The unrolled 4x4 Cholesky solve behind the trial step and the offset
    test."""

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
        x, got_q = _solve(h, g, lam)
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
        x, q = _solve(h, g, 1e3)
        pivot = entry + 1e3 * 1e-30
        assert x == pytest.approx([1e-30 / pivot, 2.0 / 2002.0, 4.0 / 4004.0, 8.0 / 8008.0])
        assert q == pytest.approx(1e-60 / pivot + 4.0 / 2002.0 + 16.0 / 4004.0 + 64.0 / 8008.0)

    def test_negative_diagonal_stays_negative(self):
        assert _solve(np.diag([1.0, 1.0, 1.0, -3.0]), np.ones(4), 1e3) is None

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_zero_diagonal_solves_only_when_damped(self, lam):
        h = np.diag([1.0, 0.0, 1.0, 1.0])
        assert (_solve(h, np.ones(4), lam) is None) == (lam == 0.0)

    @pytest.mark.parametrize("h", [
        np.diag([1.0, 1.0, float("nan"), 1.0]),
        np.array([[1.0, 0, 0, float("nan")], [0, 1, 0, 0], [0, 0, 1, 0], [float("nan"), 0, 0, 1]]),
        np.array([[1.0, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        np.ones((4, 4)),
        -np.eye(4),
    ], ids=["nan-diagonal", "nan-off-diagonal", "indefinite", "singular", "negative-definite"])
    def test_not_positive_definite_returns_none(self, h):
        assert _solve(h, np.ones(4)) is None

    def test_reads_the_upper_triangle_only(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((6, 4))
        h = b.T @ b
        g = rng.standard_normal(4)
        junk = h.copy()
        junk[np.tril_indices(4, -1)] = np.nan
        assert _solve(junk, g, 1e-3) == _solve(h, g, 1e-3)

    def test_fit_calls_no_lapack_solve(self, monkeypatch):
        """Both of a fit's solves are the closed form; only the covariance's SVD calls LAPACK."""
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        res = fit_resonance(make_trace(6.83e9, PAPER_QL, 5e5, n=401, noise=0.01, seed=5))
        assert res.converged and res.n_iterations > 0
