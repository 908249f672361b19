import math

import numpy as np
import pytest

from pintune.errors import CalibrationError, DomainError
from pintune.resonator import (
    PinCouplingModel,
    ResonatorParams,
    TuningState,
    calibrate_pin_model,
    capacitance_for_frequency,
    coarse_trim,
    frequency_slope,
    mutual_inductance,
    resonance_frequency,
    screened_inductance,
    tuned_frequency,
)

NH = 1e-9
UM = 1e-6

# Anchors of the measured device: pre/post-trim baselines, closest approach.
F_PRETRIM = 6.8637e9
F_BASELINE = 6.8278e9
F_CLOSEST = 6.8454e9
D_MIN = 40 * UM
PEAK_SENSITIVITY = 8.7e3 / 60e-9  # Hz per meter


def paper_pin():
    return calibrate_pin_model(F_BASELINE, F_CLOSEST, D_MIN, PEAK_SENSITIVITY)


class TestResonanceFrequency:
    def test_pretrim_capacitance(self):
        # C solved by direct inversion C = 1/((2 pi f)^2 L) from the pre-trim
        # frequency with L0 fixed at 1 nH.
        assert resonance_frequency(1.0 * NH, 0.53770e-12) == pytest.approx(
            F_PRETRIM, rel=1e-4
        )

    def test_posttrim_capacitance(self):
        assert resonance_frequency(1.0 * NH, 0.54337e-12) == pytest.approx(
            F_BASELINE, rel=1e-4
        )

    def test_scaling_symmetry(self):
        f1 = resonance_frequency(1.0 * NH, 0.5e-12)
        f2 = resonance_frequency(4.0 * NH, 0.5e-12)
        assert f2 == pytest.approx(f1 / 2.0, rel=1e-14)

    def test_inverse_consistency(self):
        # f^2 (2 pi)^2 L C == 1 to machine precision
        rng = np.random.default_rng(3)
        for _ in range(100):
            L = 10 ** rng.uniform(-10, -8)
            C = 10 ** rng.uniform(-13, -11)
            f = resonance_frequency(L, C)
            assert f * f * (2 * math.pi) ** 2 * L * C == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("L,C", [(0.0, 1e-12), (-1e-9, 1e-12), (1e-9, 0.0)])
    def test_rejects_nonpositive(self, L, C):
        with pytest.raises(DomainError):
            resonance_frequency(L, C)

    def test_capacitance_inversion_round_trip(self):
        C = capacitance_for_frequency(F_BASELINE, 1.0 * NH)
        assert resonance_frequency(1.0 * NH, C) == pytest.approx(F_BASELINE, rel=1e-14)


class TestScreenedInductance:
    def test_no_screening(self):
        assert screened_inductance(1.0 * NH, 0.0) == 1.0 * NH

    def test_analytic_substitution(self):
        assert screened_inductance(1.0 * NH, 0.1 * NH) == pytest.approx(0.99 * NH)

    def test_frequency_shift_at_closest_approach(self):
        # m solved from the closest-approach shift; first-order Df/f = m^2/2
        # cross-checked against the exact evaluation.
        m = 0.0718
        L0 = 1.0 * NH
        C = capacitance_for_frequency(F_BASELINE, L0)
        L = screened_inductance(L0, m * L0)
        shift = resonance_frequency(L, C) - F_BASELINE
        assert shift == pytest.approx(17.6e6, rel=0.01)
        assert shift == pytest.approx(F_BASELINE * m * m / 2.0, rel=5e-3)

    def test_rejects_overscreening(self):
        with pytest.raises(DomainError):
            screened_inductance(1.0 * NH, 1.0 * NH)
        with pytest.raises(DomainError):
            screened_inductance(1.0 * NH, -1.5 * NH)

    def test_screening_bound(self):
        # output in (0, L0], equal to L0 iff M == 0
        L0 = 1.0 * NH
        for m in np.linspace(-0.99, 0.99, 199):
            L = screened_inductance(L0, m * L0)
            assert 0 < L <= L0
            assert (L == L0) == (m == 0)


class TestMutualInductance:
    def test_peak_at_closest_approach(self):
        pin = paper_pin()
        assert mutual_inductance(pin.d_min, pin) == pin.m_max

    def test_decay_limit(self):
        pin = paper_pin()
        assert mutual_inductance(pin.d_min + 50 * pin.lam, pin) < 1e-20

    def test_one_decay_length(self):
        pin = paper_pin()
        m = mutual_inductance(pin.d_min + pin.lam, pin)
        assert m == pytest.approx(pin.m_max / math.e, rel=1e-12)

    def test_strictly_decreasing(self):
        pin = paper_pin()
        d = np.linspace(pin.d_min, 1e-3, 1000)
        m = np.array([mutual_inductance(x, pin) for x in d])
        assert np.all(np.diff(m) < 0)

    def test_pin_touch_rejected(self):
        pin = paper_pin()
        with pytest.raises(DomainError):
            mutual_inductance(pin.d_min * 0.5, pin)


class TestCalibration:
    def test_paper_anchors(self):
        pin = paper_pin()
        assert pin.m_max == pytest.approx(0.072, abs=5e-4)
        assert pin.lam == pytest.approx(2.4e-4, rel=0.03)

    def test_round_trip_shift_and_slope(self):
        pin = paper_pin()
        shift = F_BASELINE / math.sqrt(1 - pin.m_max**2) - F_BASELINE
        assert shift == pytest.approx(F_CLOSEST - F_BASELINE, rel=1e-6)
        slope = F_BASELINE * pin.m_max**2 / (pin.lam * (1 - pin.m_max**2) ** 1.5)
        assert slope == pytest.approx(PEAK_SENSITIVITY, rel=1e-3)

    def test_oracle_root_find_on_exact_model(self):
        # Independent check: solve the exact model numerically instead of
        # using the closed forms.
        def bisect(func, lo, hi):
            # root of a sign change in [lo, hi], halved down to the last bit
            f_lo = func(lo)
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    return mid
                f_mid = func(mid)
                if (f_mid < 0) == (f_lo < 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid

        m_max = bisect(
            lambda m: F_BASELINE / math.sqrt(1 - m * m) - F_CLOSEST, 1e-6, 0.5
        )
        pin = paper_pin()
        assert pin.m_max == pytest.approx(m_max, rel=1e-9)
        lam = bisect(
            lambda l: F_BASELINE * m_max**2 / (l * (1 - m_max**2) ** 1.5)
            - PEAK_SENSITIVITY,
            1e-6,
            1e-2,
        )
        assert pin.lam == pytest.approx(lam, rel=1e-9)

    def test_zero_shift(self):
        pin = calibrate_pin_model(F_BASELINE, F_BASELINE, D_MIN, PEAK_SENSITIVITY)
        assert pin.m_max == 0.0

    def test_flat_tail_at_600um(self):
        pin = paper_pin()
        m = mutual_inductance(600 * UM, pin)
        shift = F_BASELINE / math.sqrt(1 - m * m) - F_BASELINE
        assert shift < 0.02 * (F_CLOSEST - F_BASELINE)

    def test_inconsistent_anchors(self):
        with pytest.raises(CalibrationError):
            calibrate_pin_model(F_CLOSEST, F_BASELINE, D_MIN, PEAK_SENSITIVITY)
        with pytest.raises(CalibrationError):
            calibrate_pin_model(F_BASELINE, F_CLOSEST, D_MIN, 0.0)

    @pytest.mark.parametrize("f_baseline,f_closest,peak", [
        (1e9, 1e14, 1e-310),      # the slope term underflows to 0
        (F_BASELINE, F_CLOSEST, 1e-320),  # the decay length overflows
        (1e-300, 2e-300, 1e300),  # the decay length underflows to 0
    ])
    def test_decay_length_out_of_range(self, f_baseline, f_closest, peak, monkeypatch):
        """Refused before a PinCouplingModel is built."""
        monkeypatch.setattr("pintune.resonator.PinCouplingModel", None)
        with pytest.raises(CalibrationError, match="decay length"):
            calibrate_pin_model(f_baseline, f_closest, D_MIN, peak)


class TestCoarseTrim:
    def test_100um_finger(self):
        assert coarse_trim(100 * UM) == pytest.approx(-80e6)

    def test_zero(self):
        assert coarse_trim(0.0) == 0.0

    def test_measured_trim_as_effective_finger(self):
        # the fabricated pad maps to an effective 44.9 um finger
        assert coarse_trim(44.875 * UM) == pytest.approx(-35.9e6)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.uniform(0, 200 * UM, 2)
            assert coarse_trim(a + b) == pytest.approx(
                coarse_trim(a) + coarse_trim(b), rel=1e-12
            )

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            coarse_trim(-1 * UM)


class TestTunedFrequency:
    def params(self):
        L0 = 1.0 * NH
        return ResonatorParams(
            L0=L0, C=capacitance_for_frequency(F_BASELINE, L0), Qi0=35000, Qe=5e5
        )

    def test_baseline_far_away(self):
        f = tuned_frequency(self.params(), TuningState(d=0.1), paper_pin())
        assert f == pytest.approx(F_BASELINE, rel=1e-12)

    def test_closest_approach(self):
        f = tuned_frequency(self.params(), TuningState(d=D_MIN), paper_pin())
        assert f == pytest.approx(F_CLOSEST, rel=1e-3)

    def test_full_range(self):
        pin = paper_pin()
        p = self.params()
        full = tuned_frequency(p, TuningState(d=D_MIN), pin) - tuned_frequency(
            p, TuningState(d=0.1), pin
        )
        assert full == pytest.approx(17.6e6, rel=0.01)

    def test_monotone_decreasing_in_d(self):
        pin = paper_pin()
        p = self.params()
        d = np.linspace(D_MIN, 1e-3, 1000)
        f = np.array([tuned_frequency(p, TuningState(x), pin) for x in d])
        assert np.all(np.diff(f) < 0)
        assert np.all(f >= F_BASELINE)

    def test_trim_shift_applied(self):
        p = self.params()
        f0 = tuned_frequency(p, TuningState(d=0.1), paper_pin())
        f1 = tuned_frequency(p, TuningState(d=0.1, trim_shift=-35.9e6), paper_pin())
        assert f1 - f0 == pytest.approx(-35.9e6)

    def test_slope_matches_finite_difference(self):
        pin = paper_pin()
        p = self.params()
        for d in (50 * UM, 150 * UM, 400 * UM):
            h = 1e-9
            fd = (
                tuned_frequency(p, TuningState(d + h), pin)
                - tuned_frequency(p, TuningState(d - h), pin)
            ) / (2 * h)
            assert frequency_slope(p, TuningState(d), pin) == pytest.approx(fd, rel=1e-5)


class TestInvariantValidation:
    def test_params_invariants(self):
        with pytest.raises(DomainError):
            ResonatorParams(L0=-1e-9, C=1e-12, Qi0=1e4, Qe=1e5)
        with pytest.raises(DomainError):
            ResonatorParams(L0=1e-9, C=1e-12, Qi0=1e4, Qe=1e5, phi=2.0)

    @pytest.mark.parametrize("name", ["L0", "C", "Qi0", "Qe"])
    def test_params_refuse_zero(self, name):
        # At the bound: each of L0, C, Qi0 and Qe must be > 0, not >= 0.
        values = {"L0": 1e-9, "C": 1e-12, "Qi0": 1e4, "Qe": 1e5}
        ResonatorParams(**values)
        with pytest.raises(DomainError, match=f"ResonatorParams.{name} must be > 0"):
            ResonatorParams(**{**values, name: 0.0})

    def test_pin_model_invariants(self):
        with pytest.raises(DomainError):
            PinCouplingModel(m_max=1.0, lam=1e-4, d_min=1e-5)
        with pytest.raises(DomainError):
            PinCouplingModel(m_max=0.1, lam=0.0, d_min=1e-5)
