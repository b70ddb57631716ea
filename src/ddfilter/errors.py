"""Exception types shared across the toolkit.

Every domain error derives from DDError so callers can catch them
together. The CLI reports any of them, config mistakes (BadConfig)
included, as a one-line JSON error with exit code 1; exit code 2 is
argparse's, for malformed command lines.

Malformed arguments that are not domain errors (a count that is not an
integer, say) raise ValueError; `_integer` is the one check for counts,
`_positive` for finite positive quantities (a time, a tolerance).
"""

import math
import numbers


def _integer(value, name, least):
    """value as an int, or ValueError unless it is an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _positive(value, name):
    """value as a float, or ValueError unless it is a finite number > 0."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


class DDError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------- sequences

class NonMonotonic(DDError):
    """Pulse positions are not strictly increasing."""


class OutOfRange(DDError):
    """Pulse positions fall outside the open interval (0, 1)."""


class GapViolation(DDError):
    """An inter-pulse free gap is not strictly positive for the given width
    (so also whenever the pulses do not fit, r*n >= 1)."""


class CollisionAfterRounding(DDError):
    """Two pulses landed on the same grid point after timing quantization."""


# ------------------------------------------------------------------ spectra

class NonIntegrableSpectrum(DDError):
    """Spectrum lacks the integrability required by the requested operation."""


# ---------------------------------------------------------------- coherence

class ToleranceNotMet(DDError):
    """Quadrature could not reach the requested tolerance.

    Carries the best value and the achieved error estimate so callers can
    decide whether the result is still usable.
    """

    def __init__(self, message, value=None, achieved=None):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


class CurveFailure(DDError):
    """One or more points of a coherence curve failed; indices attached."""

    def __init__(self, message, failures=None):
        super().__init__(message)
        # list of (grid index, underlying exception)
        self.failures = failures or []


# ------------------------------------------------------------------ metrics

class NoCrossing(DDError):
    """F never reaches 1 on the sampled grid."""


class WindowOutOfRange(DDError):
    """Requested fit window lies outside the sampled grid."""


class NumericFloor(DDError):
    """Requested fit window touches the floating-point floor of |sum|^2."""


class InsufficientSpan(DDError):
    """Sample grid does not cover the span required by the statistic."""


class NoPeak(DDError):
    """No band-pass structure found (and no plateau fallback applies)."""


# ----------------------------------------------------------------- optimize

class NotConverged(DDError):
    """No optimization start produced a usable result."""


class Infeasible(DDError):
    """The gap constraint cannot be met even at n=1."""


# ------------------------------------------------------------------- oracle

class UnderResolved(DDError):
    """Time grid too coarse for the sequence (dt > min_gap*tau/8)."""


# ---------------------------------------------------------------------- cli

class BadConfig(DDError):
    """Malformed config file or inconsistent CLI arguments (CLI exit code 1)."""
