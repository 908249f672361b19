"""Digital twin and analysis toolkit for a piezo-tunable thin-film
superconducting microwave resonator."""

__version__ = "0.1.0"

from .resonator import (
    PinCouplingModel,
    ResonatorParams,
    TuningState,
    calibrate_pin_model,
    coarse_trim,
    mutual_inductance,
    resonance_frequency,
    screened_inductance,
    tuned_frequency,
)
from .transmission import (
    NoiseModel,
    SweepConfig,
    SweepTrace,
    internal_q,
    loaded_q,
    photon_number,
    s21_power,
    synthesize_sweep,
)
from .fitting import FitResult, InitialGuess, fit_resonance, initial_guess
from .piezo import (
    ControllerConfig,
    ControllerModel,
    PiezoStage,
    Plant,
    TuningSession,
    frequency_sensitivity,
    piezo_step,
    tune_to_target,
)
from .stability import (
    FrequencyTimeSeries,
    allan_deviation,
    detect_oscillation,
    drift_rate,
    peak_to_peak_deviation,
)
from .units import F_RB
