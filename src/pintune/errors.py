"""Exception types shared across the toolkit.

The CLI maps these onto distinct exit codes; see cli.py.  A tune reading
fails on any FitFailure.
"""


class PintuneError(Exception):
    """Base class for all toolkit errors."""


class DomainError(PintuneError, ValueError):
    """An argument is outside the physically meaningful domain."""


class ValidationError(PintuneError, ValueError):
    """A config document or input file violates its schema.

    The message names the offending field or file location.
    """


class CalibrationError(PintuneError):
    """Calibration anchors are mutually inconsistent."""


class FitFailure(PintuneError):
    """A fit gave no result: NoResonance, NonPhysicalFit or ConvergenceFailure."""


class NoResonance(FitFailure):
    """No discernible dip in the trace (depth below the noise floor)."""


class NonPhysicalFit(FitFailure):
    """Fit converged to Q_L >= Q_e, implying infinite or negative Q_i, to a
    Q_L that underflows to 0, or where J^T J is not positive definite (a
    model left flat by an overflowing Q_e/Q_L)."""


class ConvergenceFailure(FitFailure):
    """Optimizer did not converge within the iteration budget.

    Carries the best-so-far result in `best`.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class StageStalled(PintuneError):
    """Drive voltage below the minimum; the stick-slip stage does not move."""


class MechanicalLimit(PintuneError):
    """A step would push the pin below the closest allowed separation.

    Carries the number of pulses the stage took before the limit in `issued`.
    """

    def __init__(self, message, issued=0):
        super().__init__(message)
        self.issued = issued
