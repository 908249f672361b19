import numpy as np
import pytest

from pintune.errors import DomainError
from pintune.stability import (
    FrequencyTimeSeries,
    NoOscillation,
    allan_deviation,
    detect_oscillation,
    drift_rate,
    peak_to_peak_deviation,
)

F0 = 6.8278e9


def series(t, f):
    return FrequencyTimeSeries(np.asarray(t), np.asarray(f), f0=F0)


class TestDriftRate:
    def test_constant_series(self):
        t = np.linspace(0, 3600, 100)
        slope, ppb = drift_rate(series(t, np.full(100, F0)))
        assert slope == pytest.approx(0.0, abs=1e-9)
        assert ppb == pytest.approx(0.0, abs=1e-9)

    def test_paper_regime_linear_drift(self):
        # 1 kHz over 70 hours at 2-minute cadence -> 2.09 ppb/hr
        t = np.arange(0, 70 * 3600, 120.0)
        f = F0 + 1000.0 * t / (70 * 3600.0)
        slope, ppb = drift_rate(series(t, f))
        assert slope == pytest.approx(1000.0 / 70.0, rel=1e-6)
        assert ppb == pytest.approx(2.09, rel=0.01)

    def test_bounded_random_walk_under_2ppb(self):
        # bounded wander with < 1 kHz excursion over 70 h stays below the
        # 2.1 ppb/hr bound
        rng = np.random.default_rng(8)
        t = np.arange(0, 70 * 3600, 120.0)
        walk = np.cumsum(rng.normal(0, 20.0, t.size))
        walk = 400.0 * walk / np.max(np.abs(walk))
        s = series(t, F0 + walk)
        assert peak_to_peak_deviation(s) < 1000.0
        _, ppb = drift_rate(s)
        assert abs(ppb) < 2.1

    def test_offset_invariance(self):
        t = np.linspace(0, 7200, 50)
        rng = np.random.default_rng(5)
        f = F0 + rng.normal(0, 100, 50)
        _, r1 = drift_rate(series(t, f))
        _, r2 = drift_rate(series(t, f + 12345.0))
        assert r1 == pytest.approx(r2, abs=1e-9)

    def test_linear_trend_recovery(self):
        t = np.linspace(0, 10 * 3600, 500)
        for inj in (10.0, -250.0, 4000.0):  # Hz/hr
            slope, _ = drift_rate(series(t, F0 + inj * t / 3600.0))
            assert slope == pytest.approx(inj, rel=1e-3)

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            drift_rate(series([0.0, 1.0], [F0, F0]))

    @pytest.mark.parametrize("f0", [0.0, -F0, float("inf"), float("nan")])
    def test_reference_frequency_must_be_finite_and_positive(self, f0):
        with pytest.raises(DomainError):
            FrequencyTimeSeries(np.arange(3.0), np.full(3, F0), f0=f0)


class TestPeakToPeak:
    def test_constant(self):
        t = np.linspace(0, 100, 10)
        assert peak_to_peak_deviation(series(t, np.full(10, F0))) == 0.0

    def test_alternating(self):
        t = np.arange(10.0)
        f = F0 + 500.0 * (-1.0) ** np.arange(10)
        assert peak_to_peak_deviation(series(t, f)) == pytest.approx(1000.0)

    def test_time_reparameterization_invariance(self):
        rng = np.random.default_rng(2)
        f = F0 + rng.normal(0, 200, 64)
        t1 = np.arange(64.0)
        t2 = np.sort(rng.uniform(0, 1e4, 64))
        assert peak_to_peak_deviation(series(t1, f)) == peak_to_peak_deviation(
            series(t2, f)
        )


class TestDetectOscillation:
    def test_sinusoid_recovery(self):
        rng = np.random.default_rng(1)
        n, dt = 1024, 0.01
        t = np.arange(n) * dt
        nu, amp = 7.3, 2000.0
        f = F0 + amp * np.sin(2 * np.pi * nu * t + 0.4)
        nu_hat, amp_hat = detect_oscillation(series(t, f))
        assert nu_hat == pytest.approx(nu, rel=0.05)
        assert amp_hat == pytest.approx(amp, rel=0.05)

    def test_peak_refined_off_the_fft_grid(self):
        # An unrefined estimate lands on a bin centre, up to half a bin off.
        # The |DFT| maximum of a real sinusoid 1000 bins up sits within
        # 2.3e-4 bin of the true frequency (leakage of the negative-frequency
        # image), so a working refinement recovers it to 1e-3 bin.
        n, dt = 4096, 0.01
        t = np.arange(n) * dt
        bin_hz = 1.0 / (n * dt)
        for offset in (0.13, 0.3, 0.5, 0.77):
            nu = (1000 + offset) * bin_hz
            f = F0 + 2000.0 * np.sin(2 * np.pi * nu * t + 0.4)
            nu_hat, amp_hat = detect_oscillation(series(t, f))
            assert abs(nu_hat - nu) < 1e-3 * bin_hz
            assert amp_hat == pytest.approx(2000.0, rel=1e-4)

    def test_oscillation_found_under_linear_drift(self):
        # 70 h at 120 s, a 1 kHz drift (the paper's regime) and a 300 Hz tone
        # of 7000 s period.  A mean-only subtraction let the drift's leakage
        # outrank the tone: it came back at 7.5e-6 Hz with 159 Hz.
        t = np.arange(2101) * 120.0
        nu = 1.0 / 7000.0
        f = F0 + 1000.0 * t / t[-1] + 300.0 * np.sin(2 * np.pi * nu * t)
        nu_hat, amp_hat = detect_oscillation(series(t, f))
        assert nu_hat == pytest.approx(nu, rel=1e-3)
        assert amp_hat == pytest.approx(300.0, rel=0.01)

    @pytest.mark.parametrize("bins", [511.6, 511.9])
    def test_peak_next_to_nyquist_rejected(self, bins):
        # Within one bin of Nyquist (512 bins here) the sine column of the
        # amplitude fit vanishes; these tones used to come back at 512 bins
        # with amplitudes of 2.4e7 and 2.2e7 instead of 100.
        n = 1024
        t = np.arange(n) * 1.0
        f = F0 + 100.0 * np.sin(2 * np.pi * bins / n * t)
        with pytest.raises(NoOscillation):
            detect_oscillation(series(t, f))

    def test_tone_below_nyquist_band_recovered(self):
        # 23.4 bins from its negative-frequency image the |DFT| maximum is
        # biased by up to 4.0e-3 bin, depending on the phase.
        n = 1024
        t = np.arange(n) * 1.0
        for phase in np.linspace(0.0, np.pi, 7):
            f = F0 + 100.0 * np.sin(2 * np.pi * 500.3 / n * t + phase)
            nu_hat, amp_hat = detect_oscillation(series(t, f))
            assert abs(nu_hat * n - 500.3) < 5e-3
            assert amp_hat == pytest.approx(100.0, rel=0.01)

    def test_recovery_under_noise_50_seeds(self):
        n, dt = 1024, 0.01
        t = np.arange(n) * dt
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            nu = rng.uniform(5 / (n * dt), 0.4 / dt)
            amp = 1000.0
            f = (
                F0
                + amp * np.sin(2 * np.pi * nu * t + rng.uniform(0, 2 * np.pi))
                + (amp / 10.0) * rng.standard_normal(n)  # SNR = 10
            )
            nu_hat, amp_hat = detect_oscillation(series(t, f))
            if abs(nu_hat / nu - 1) < 0.05 and abs(amp_hat / amp - 1) < 0.05:
                hits += 1
        assert hits == 50

    def test_white_noise_rejected(self):
        t = np.arange(1024) * 0.01
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            with pytest.raises(NoOscillation):
                detect_oscillation(series(t, F0 + rng.normal(0, 100, 1024)))

    def test_vibration_equivalent_jitter(self):
        # pin vibration at 40 um: slope 1.45e11 Hz/m x 0.7 um ~ 100 kHz of
        # frequency jitter
        from pintune.resonator import (
            ResonatorParams,
            TuningState,
            calibrate_pin_model,
            capacitance_for_frequency,
            frequency_slope,
        )

        params = ResonatorParams(
            L0=1e-9, C=capacitance_for_frequency(F0, 1e-9), Qi0=35000, Qe=5e5
        )
        pin = calibrate_pin_model(F0, 6.8454e9, 40e-6, 8.7e3 / 60e-9)
        amp = abs(frequency_slope(params, TuningState(40e-6), pin)) * 0.7e-6
        t = np.arange(1024) * 0.001
        f = 6.8454e9 + amp * np.sin(2 * np.pi * 11.0 * t)
        _, amp_hat = detect_oscillation(FrequencyTimeSeries(t, f, 6.8454e9))
        assert amp_hat == pytest.approx(100e3, rel=0.05)

    def test_requires_uniform_sampling(self):
        t = np.sort(np.random.default_rng(3).uniform(0, 10, 128))
        with pytest.raises(DomainError, match="^detect_oscillation requires uniform sampling$"):
            detect_oscillation(series(t, np.full(128, F0)))

    def test_requires_enough_samples(self):
        t = np.arange(32) * 0.1
        with pytest.raises(DomainError):
            detect_oscillation(series(t, np.full(32, F0)))


class TestAllanDeviation:
    def test_white_noise_slope(self):
        # white frequency noise: adev ~ tau^(-1/2)
        rng = np.random.default_rng(4)
        t = np.arange(16384.0)
        f = F0 + rng.normal(0, 100.0, t.size)
        taus, adev = allan_deviation(series(t, f))
        assert len(taus) > 5
        ratio = adev[0] / adev[4]
        expected = (taus[4] / taus[0]) ** 0.5
        assert ratio == pytest.approx(expected, rel=0.3)

    def test_requires_uniform_sampling(self):
        t = np.sort(np.random.default_rng(3).uniform(0, 10, 128))
        with pytest.raises(DomainError, match="^allan_deviation requires uniform sampling$"):
            allan_deviation(series(t, np.full(128, F0)))


class TestSeriesInvariants:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            FrequencyTimeSeries(np.arange(3.0), np.arange(4.0), F0)

    def test_non_increasing_timestamps(self):
        with pytest.raises(DomainError):
            FrequencyTimeSeries(np.array([0.0, 0.0, 1.0]), np.full(3, F0), F0)

    @pytest.mark.parametrize("column", ["timestamps", "f_r"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_samples(self, column, bad):
        # The last sample: an infinite last timestamp is strictly increasing.
        values = {"timestamps": np.arange(4.0), "f_r": np.full(4, F0)}
        values[column][-1] = bad
        with pytest.raises(DomainError, match="^FrequencyTimeSeries values must be finite$"):
            FrequencyTimeSeries(values["timestamps"], values["f_r"], F0)
