"""Exception types shared across the toolkit.

The CLI maps these onto distinct exit codes; see cli.py.
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


class NoResonance(PintuneError):
    """No discernible dip in the trace (depth below the noise floor)."""


class NonPhysicalFit(PintuneError):
    """Fit converged to Q_L >= Q_e, implying infinite or negative Q_i."""


class ConvergenceFailure(PintuneError):
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
