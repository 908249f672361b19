import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pintune.errors import DomainError, NonPhysicalFit
from pintune.resonator import (
    PinCouplingModel,
    ResonatorParams,
    TuningState,
    calibrate_pin_model,
    capacitance_for_frequency,
    frequency_slope,
    tuned_frequency,
)
from pintune.transmission import (
    U_CLAMP,
    NoiseModel,
    SweepConfig,
    SweepTrace,
    internal_q,
    loaded_q,
    notch_response,
    photon_number,
    synthesize_sweep,
)

F_BASELINE = 6.8278e9


def paper_plant():
    L0 = 1e-9
    params = ResonatorParams(
        L0=L0, C=capacitance_for_frequency(F_BASELINE, L0), Qi0=35000, Qe=5e5
    )
    pin = calibrate_pin_model(F_BASELINE, 6.8454e9, 40e-6, 8.7e3 / 60e-9)
    return params, pin


def s21(f, f_r, q_l, q_e, phi=0.0):
    """The lineshape S at the points f (an array)."""
    return notch_response(np.asarray(f, dtype=float), f_r, q_l, q_e, phi)[0]


def always_clamped(f, f_r, q_l, q_e, phi):
    """notch_response's arithmetic, op for op, with the clamp always applied."""
    a = q_l / q_e
    two_q = 2.0 * q_l
    scale = np.divide(math.nan if math.isinf(two_q) else two_q, f_r)
    u = np.maximum(np.minimum((f - f_r) * scale, U_CLAMP), -U_CLAMP)
    w = 1.0 / (u * u + 1.0)
    m = (u * (-2.0 * a * math.sin(phi)) + a * (a - 2.0 * math.cos(phi))) * w
    return m + 1.0, u, w


class TestS21Power:
    """The |S21|**2 lineshape as `notch_response` evaluates it."""

    def test_off_resonance_limit(self):
        f_r, q_l = 6.83e9, 3e4
        assert s21([f_r + 100 * f_r / q_l], f_r, q_l, 5e5) == pytest.approx([1.0], abs=1e-4)

    def test_half_coupling_quarter_power(self):
        assert s21([6.83e9], 6.83e9, 2.5e5, 5e5) == pytest.approx([0.25], abs=1e-12)

    def test_paper_dip_depth(self):
        q_l = loaded_q(35000, 5e5)
        assert s21([6.8278e9], 6.8278e9, q_l, 5e5) == pytest.approx([0.8734], abs=1e-4)

    def test_bounds_and_minimum_location(self):
        f_r, q_l, q_e = 6.83e9, 3.2e4, 5e5
        f = np.linspace(f_r - 1e6, f_r + 1e6, 4001)
        s = s21(f, f_r, q_l, q_e)
        lo = (1 - q_l / q_e) ** 2
        assert np.all(s >= lo - 1e-12)
        assert np.all(s <= 1.0 + 1e-12)
        assert f[np.argmin(s)] == pytest.approx(f_r, abs=(f[1] - f[0]))
        assert s.min() == pytest.approx(lo, rel=1e-9)

    def test_symmetry_and_asymmetry(self):
        f_r, q_l, q_e = 6.83e9, 3.2e4, 5e5
        pair = [f_r + f_r / q_l, f_r - f_r / q_l]
        above, below = s21(pair, f_r, q_l, q_e)
        assert above == pytest.approx(below, rel=1e-12)
        above, below = s21(pair, f_r, q_l, q_e, 0.3)
        assert above != pytest.approx(below, rel=1e-6)

    def test_far_wing_is_exactly_one(self):
        # |u| = 2 Q_L |f - f_r|/f_r from 1e155 to 1e303: u**2 overflows
        # unless the kernel clamps u, and the exact limit is S = 1.
        f = np.array([1e160, 1e300, 1.7e308])
        assert np.all(s21(f, 6.83e9, 3.2e4, 5e5, 0.3) == 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        f_r=st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                                           -5e-324, 2.2250738585072014e-308, -6.83e9]),
        log_q_l=st.floats(-3.0, 300.0),
        straddle=st.booleans(),
        ends=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        n=st.integers(1, 40),
        grid=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
        phi=st.floats(-1.5, 1.5),
    )
    @example(f_r=6.83e9, log_q_l=4.5, straddle=False, ends=(0.0, 0.0), n=1,
             grid=[6.82e9, 6.83e9, 6.84e9], phi=0.3)
    @example(f_r=6.83e9, log_q_l=140.0, straddle=True, ends=(-1.0, 1.0), n=5, grid=[0.0], phi=0.3)
    # 2 Q_L = 2e10 is finite and 2 Q_L / f_r overflows: numpy's warning at
    # either centre, and with warnings ignored u = +-inf clamped, NaN at f_r.
    @example(f_r=1e-300, log_q_l=10.0, straddle=False, ends=(0.0, 0.0), n=1,
             grid=[-1.0, 1e-300, 6.83e9], phi=0.3)
    def test_a_skipped_clamp_is_bit_exact(self, f_r, log_q_l, straddle, ends, n, grid, phi):
        """At a float f_r on an increasing grid the kernel skips the clamp when
        both ends are within it: it returns the bits of an array centre, which
        always clamps, and raises what that raises.  Grids straddle the clamp
        at u = +-U_CLAMP or are drawn anywhere."""
        q_l = 10.0**log_q_l
        if straddle:  # u from ends[0] to ends[1] times U_CLAMP
            centre = f_r if math.isfinite(f_r) and f_r != 0 else 6.83e9
            with np.errstate(all="ignore"):
                f = np.sort(centre + centre * (U_CLAMP / (2.0 * q_l)) * np.linspace(*sorted(ends), n))
        else:
            f = np.sort(np.array(grid))
        assume(np.isfinite(f).all())

        def outcome(kernel, centre):
            try:
                return [a.tobytes() for a in kernel(f, centre, q_l, 10.0 * q_l, phi)]
            except RuntimeWarning as exc:  # an overflow or division by zero, raised
                return repr(exc)

        for state in ({}, {"all": "ignore"}):
            with np.errstate(**state):
                want = outcome(always_clamped, f_r)
                assert outcome(notch_response, f_r) == want
                assert outcome(notch_response, np.full(f.shape, f_r)) == want

    def test_an_array_centre_keeps_the_clamp(self):
        # Both ends at their own centre, the middle point's centre near 0: its
        # u is about 1.4e153, past U_CLAMP = 1e150, and only the clamp keeps
        # u**2 finite.
        f = np.array([6.83e9, 6.83e9 + 1.0, 6.83e9 + 2.0])
        centre = np.array([6.83e9, 1e-3, 6.83e9 + 2.0])
        got = notch_response(f, centre, 1e140, 1e141, 0.3)
        assert got[1][1] == U_CLAMP
        assert [a.tobytes() for a in got] == [
            a.tobytes() for a in always_clamped(f, centre, 1e140, 1e141, 0.3)]

    def test_a_scalar_is_refused(self):
        # The kernel writes in place, so it takes arrays only.
        with pytest.raises(TypeError):
            notch_response(6.83e9, 6.83e9, 3.2e4, 5e5, 0.0)


class TestQualityFactors:
    def test_paper_values(self):
        assert loaded_q(35000, 5e5) == pytest.approx(32710, abs=1)

    def test_uncoupled_limit(self):
        assert loaded_q(35000, 1e18) == pytest.approx(35000, rel=1e-9)

    def test_a_q_below_one_composes(self):
        # Any Q_i > 0 composes: 0.5 * 1 / (0.5 + 1) is 1/3, rounded once.
        assert loaded_q(0.5, 1.0) == 1.0 / 3.0
        with pytest.raises(DomainError):
            loaded_q(0.0, 1.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            q_i = 10 ** rng.uniform(3, 7)
            q_e = 10 ** rng.uniform(3, 7)
            # conditioning of q_e - q_l amplifies rounding by ~q_i/q_e
            tol = 1e-15 * (1.0 + q_i / q_e) * 10.0
            assert internal_q(loaded_q(q_i, q_e), q_e) == pytest.approx(
                q_i, rel=max(tol, 1e-14)
            )

    def test_harmonic_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            q_i = 10 ** rng.uniform(3, 7)
            q_e = 10 ** rng.uniform(3, 7)
            q_l = loaded_q(q_i, q_e)
            assert 1 / q_l - 1 / q_e - 1 / q_i == pytest.approx(
                0.0, abs=1e-12 / q_l
            )

    def test_internal_q_non_physical(self):
        with pytest.raises(NonPhysicalFit):
            internal_q(5e5, 5e5)
        with pytest.raises(NonPhysicalFit):
            internal_q(6e5, 5e5)


class TestSynthesizeSweep:
    def sweep(self, f_r, n=801):
        lw = f_r / loaded_q(35000, 5e5)
        return SweepConfig(f_r - 5 * lw, f_r + 5 * lw, n, -131.0)

    def test_zero_noise_matches_lineshape(self):
        # Without vibration the trace is the lineshape at f_r, times 1 + sigma z
        # for the Gaussian draws that follow the n phase draws in the stream.
        params, pin = paper_plant()
        state = TuningState(d=200e-6)
        f_r = tuned_frequency(params, state, pin)
        cfg = self.sweep(f_r)
        q_l = loaded_q(params.Qi0, params.Qe)
        for sigma_rel in (0.0, 0.01):
            tr = synthesize_sweep(cfg, params, state, pin, NoiseModel(sigma_rel, 0.0, 99))
            rng = np.random.Generator(np.random.Philox(99))
            rng.uniform(size=cfg.n_points)
            z = rng.standard_normal(cfg.n_points)
            expected = notch_response(tr.frequencies, f_r, q_l, params.Qe, params.phi)[0]
            np.testing.assert_array_equal(tr.power_ratio, expected * (1.0 + sigma_rel * z))

    @staticmethod
    def per_point_form(config, params, state, pin, noise, rng=None):
        """The reference sweep in its per-point form: every point has its own
        centre f_r + jitter sin(phase), even at zero jitter; the lineshape
        there, times 1 + sigma z, clipped at 0, the phases and then the z
        drawn from rng (a fresh Philox(seed) by default).  Returns the axis
        and the ratio."""
        f_r = tuned_frequency(params, state, pin)
        jitter = abs(frequency_slope(params, state, pin)) * noise.vib_amplitude
        f = np.linspace(config.f_start, config.f_stop, config.n_points)
        rng = np.random.Generator(np.random.Philox(noise.seed)) if rng is None else rng
        centre = f_r + jitter * np.sin(rng.uniform(0.0, 2.0 * math.pi, config.n_points))
        z = rng.standard_normal(config.n_points)
        lineshape = notch_response(f, centre, loaded_q(params.Qi0, params.Qe), params.Qe, params.phi)[0]
        return f, np.clip(lineshape * (1.0 + noise.sigma_rel * z), 0.0, None)

    @settings(deadline=None)
    @given(span=st.floats(1e3, 1e9), n=st.integers(2, 3000),
           sigma_rel=st.just(0.0) | st.floats(1e-6, 10.0),
           vib=st.just(0.0) | st.floats(1e-12, 1e-5),
           coupled=st.booleans(), d=st.floats(40e-6, 2e-3),
           seed=st.integers(0, 2**64 - 1))
    @example(span=6e6, n=1201, sigma_rel=0.005, vib=0.0, coupled=True, d=154e-6, seed=1)
    @example(span=6e6, n=1201, sigma_rel=0.005, vib=0.1e-6, coupled=False, d=40e-6, seed=2)
    @example(span=6e6, n=1201, sigma_rel=0.005, vib=0.1e-6, coupled=True, d=40e-6, seed=3)
    # The jitter-free branch skips the n phase draws by reading n raw outputs,
    # four to a Philox block: one n of each residue mod 4.
    @example(span=6e6, n=2, sigma_rel=0.005, vib=0.0, coupled=True, d=154e-6, seed=4)
    @example(span=6e6, n=3, sigma_rel=0.005, vib=0.0, coupled=True, d=154e-6, seed=5)
    @example(span=6e6, n=4, sigma_rel=0.005, vib=0.0, coupled=True, d=154e-6, seed=6)
    @example(span=6e6, n=5, sigma_rel=0.005, vib=0.0, coupled=True, d=154e-6, seed=7)
    def test_a_sweep_without_jitter_keeps_the_per_point_bits(self, span, n, sigma_rel, vib,
                                                             coupled, d, seed):
        # Without vibration, or with a pin that does not couple (m_max 0), the
        # lineshape is taken at the one f_r; the trace keeps the bits of the
        # per-point form, and so does a jittered one.  The axis is
        # np.linspace's, byte for byte.
        params, pin = paper_plant()
        if not coupled:
            pin = PinCouplingModel(0.0, pin.lam, pin.d_min)
        state = TuningState(d=d)
        f_r = tuned_frequency(params, state, pin)
        args = (SweepConfig(f_r - span / 2, f_r + span / 2, n, -131.0), params, state, pin,
                NoiseModel(sigma_rel, vib, seed))
        got = synthesize_sweep(*args)
        f, ratio = self.per_point_form(*args)
        assert got.frequencies.tobytes() == f.tobytes()
        assert got.power_ratio.tobytes() == ratio.tobytes()

    def test_sweeps_on_one_stream_draw_in_turn(self):
        # A tune session's sweeps share one Generator: each takes the n phases
        # and n gains after the last sweep's, and one without vibration skips
        # its phases wherever the stream stands, mid-block included (the
        # Gaussian draws take a varying number of outputs).  Each sweep keeps
        # the bits of the per-point form drawn from the same stream.
        params, pin = paper_plant()
        state = TuningState(d=154e-6)
        f_r = tuned_frequency(params, state, pin)
        stream, reference = NoiseModel(seed=9).stream(), NoiseModel(seed=9).stream()
        for n, vib in [(5, 0.0), (3, 0.1e-6), (6, 0.0), (1201, 0.0), (7, 0.1e-6), (2, 0.0),
                       (1201, 0.1e-6), (4, 0.0), (9, 0.0)]:
            args = (SweepConfig(f_r - 3e6, f_r + 3e6, n, -131.0), params, state, pin,
                    NoiseModel(0.005, vib, 9))
            got = synthesize_sweep(*args, rng=stream)
            f, ratio = self.per_point_form(*args, rng=reference)
            assert got.power_ratio.tobytes() == ratio.tobytes()
        np.testing.assert_array_equal(stream.bit_generator.random_raw(5),
                                      reference.bit_generator.random_raw(5))

    def test_deterministic_for_fixed_seed(self):
        params, pin = paper_plant()
        state = TuningState(d=60e-6)
        cfg = self.sweep(6.84e9)
        noise = NoiseModel(0.01, 0.7e-6, 1234)
        t1 = synthesize_sweep(cfg, params, state, pin, noise)
        t2 = synthesize_sweep(cfg, params, state, pin, noise)
        assert np.array_equal(t1.power_ratio, t2.power_ratio)
        t3 = synthesize_sweep(cfg, params, state, pin, NoiseModel(0.01, 0.7e-6, 1235))
        assert not np.array_equal(t1.power_ratio, t3.power_ratio)

    def test_vibration_jitter_scale(self):
        # at 40 um the jitter amplitude ~ 1.45e11 Hz/m * 0.7 um ~ 100 kHz,
        # comparable to the ~209 kHz linewidth
        params, pin = paper_plant()
        state = TuningState(d=40e-6)
        jitter = abs(frequency_slope(params, state, pin)) * 0.7e-6
        assert jitter == pytest.approx(101.5e3, rel=0.02)
        lw = 6.8454e9 / loaded_q(35000, 5e5)
        assert lw == pytest.approx(209e3, rel=0.01)

    @given(span=st.floats(1e3, 1e9), n=st.integers(2, 3000),
           sigma_rel=st.just(0.0) | st.floats(1e-6, 10.0),
           vib=st.just(0.0) | st.floats(1e-12, 1e-5),
           seed=st.integers(0, 2**64 - 1))
    @example(span=6e6, n=1201, sigma_rel=0.0, vib=0.0, seed=0)  # noise-free
    @example(span=6e6, n=1201, sigma_rel=0.005, vib=0.0, seed=1)  # noise only
    @example(span=6e6, n=1201, sigma_rel=0.0, vib=0.1e-6, seed=2)  # vibration only
    def test_synthesized_trace_passes_the_constructor_checks(self, span, n, sigma_rel, vib, seed):
        # synthesize_sweep skips SweepTrace's checks that hold by construction.
        params, pin = paper_plant()
        state = TuningState(d=154e-6)
        f_r = tuned_frequency(params, state, pin)
        t = synthesize_sweep(SweepConfig(f_r - span / 2, f_r + span / 2, n, -131.0),
                             params, state, pin, NoiseModel(sigma_rel, vib, seed), timestamp=7.0)
        SweepTrace(t.frequencies, t.power_ratio, t.p_in_dbm, t.timestamp)
        assert t.frequencies.dtype == t.power_ratio.dtype == np.float64

    @pytest.mark.parametrize("sigma_rel,vib,lam", [
        (1e308, 0.0, None),  # the noise factor overflows
        (0.0, 1e300, None),  # the jitter amplitude overflows
        (0.0, 0.0, 1e-320),  # the slope overflows: jitter 0 * inf is nan
    ])
    def test_an_overflowing_noise_model_is_refused(self, sigma_rel, vib, lam):
        # The DomainError names the field, and numpy warns of nothing on the way.
        params, pin = paper_plant()
        if lam is not None:
            pin = PinCouplingModel(0.5, lam, pin.d_min)
        state = TuningState(d=pin.d_min)
        f_r = tuned_frequency(params, state, pin)
        sweep = SweepConfig(f_r - 1e6, f_r + 1e6, 101, -131.0)
        message = ("NoiseModel.sigma_rel times the noise draws must be finite" if sigma_rel
                   else "NoiseModel.vib_amplitude times |df/dd| must be finite")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                synthesize_sweep(sweep, params, state, pin, NoiseModel(sigma_rel, vib, 5))
        assert str(err.value) == message


class TestNoiseModel:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["sigma_rel", "vib_amplitude"])
    def test_non_finite_is_refused_naming_the_field(self, name, value):
        with pytest.raises(DomainError, match=f"NoiseModel.{name} must be >= 0 and finite"):
            NoiseModel(**{name: value})

    def test_a_negative_seed_is_refused(self):
        # The seed keys every noise stream's Philox, which takes no negative seed.
        with pytest.raises(DomainError, match="NoiseModel.seed must be >= 0"):
            NoiseModel(seed=-1)
        assert NoiseModel(seed=0).seed == 0


class TestPhotonNumber:
    def test_anchor(self):
        assert photon_number(-131.0, 6.828e9, 32710.0, 5e5) == 11.0

    def test_linear_in_watts(self):
        n1 = photon_number(-131.0, 6.828e9, 32710.0, 5e5)
        n2 = photon_number(-131.0 + 10 * math.log10(2), 6.828e9, 32710.0, 5e5)
        assert n2 == pytest.approx(2 * n1, rel=1e-12)

    def test_kappa_zero(self):
        assert photon_number(-131.0, 6.828e9, 32710.0, 5e5, kappa=0.0) == 0.0

    def test_paper_qi_value(self):
        # using Q_i = 35,000 instead of the rounded Q_L anchor
        n = photon_number(-131.0, 6.828e9, loaded_q(35000, 5e5), 5e5)
        assert n == pytest.approx(11.0, rel=1e-3)


class TestSweepTraceInvariants:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            SweepTrace(np.array([1.0, 2.0]), np.array([1.0]), -131.0)

    def test_non_increasing(self):
        with pytest.raises(DomainError):
            SweepTrace(np.array([2.0, 1.0]), np.array([1.0, 1.0]), -131.0)

    def test_a_zero_frequency_is_refused(self):
        # At the bound: the first frequency must be > 0, not >= 0.
        SweepTrace(np.array([5e-324, 1.0]), np.array([1.0, 1.0]), -131.0)
        with pytest.raises(DomainError, match="positive"):
            SweepTrace(np.array([0.0, 1.0]), np.array([1.0, 1.0]), -131.0)

    def test_negative_ratio(self):
        with pytest.raises(DomainError):
            SweepTrace(np.array([1.0, 2.0]), np.array([1.0, -0.1]), -131.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values(self, bad):
        with pytest.raises(DomainError):
            SweepTrace(np.array([1.0, 2.0]), np.array([1.0, bad]), -131.0)
        with pytest.raises(DomainError):
            SweepTrace(np.array([1.0, bad]), np.array([1.0, 1.0]), -131.0)

    def test_config_invariants(self):
        with pytest.raises(DomainError):
            SweepConfig(2e9, 1e9, 100, -131.0)
        with pytest.raises(DomainError):
            SweepConfig(1e9, 2e9, 1, -131.0)
        with pytest.raises(DomainError, match="spaced by more than 4 ulp of f_stop"):
            SweepConfig(6.8e9 - 4 * 1600 * math.ulp(6.8e9), 6.8e9, 1601, -131.0)

    @given(f_stop=st.floats(1e-300, 1e300), n_points=st.integers(2, 5000),
           ulps=st.floats(0.5, 8.0))
    def test_every_accepted_grid_strictly_increases(self, f_stop, n_points, ulps):
        # The axis synthesize_sweep builds for any sweep SweepConfig accepts.
        f_start = f_stop - ulps * math.ulp(f_stop) * (n_points - 1)
        try:
            sweep = SweepConfig(f_start, f_stop, n_points, -131.0)
        except DomainError:
            return
        params, pin = paper_plant()
        f = synthesize_sweep(sweep, params, TuningState(d=154e-6), pin, NoiseModel()).frequencies
        assert np.all(f[1:] > f[:-1])
