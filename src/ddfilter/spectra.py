"""Dephasing-noise power spectral densities S(omega) and support queries.

All spectra are one-sided (omega >= 0). Units are any consistent pair:
omega in 1/time, tau in time; chi comes out dimensionless. Dimensions of
the parameters: ohmic amplitude is dimensionless, white level and
tabulated S are 1/time, supra-ohmic alpha is time^2, power-law amplitude
is time^(p-1).
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import BadConfig, NonIntegrableSpectrum

_EULER = 0.5772156649015329
# Maclaurin coefficients in x^2 (constant term first), exact to double
# precision for x <= 2, where gamma + ln x - Ci(x) and x Si(x) - (1 - cos x)
# lose digits to cancellation.
_CIN_SERIES = np.array([0.0] + [(-1.0) ** (k + 1) / (2 * k * math.factorial(2 * k))
                                 for k in range(1, 14)])
_WHITE_SERIES = np.array([0.0] + [(-1.0) ** k / ((2 * k + 1) * math.factorial(2 * k + 2))
                                   for k in range(0, 13)])
_SERIES_MAX_X = 2.0


@functools.cache
def _special():
    """scipy.special, imported on first use, so `import ddfilter` goes without it."""
    import scipy.special
    return scipy.special


def _series_or(x, coeffs, closed_form):
    """sum_k coeffs[k] x^(2k) (Horner) below _SERIES_MAX_X, closed_form above."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _SERIES_MAX_X
    x2 = x[small] ** 2
    p = coeffs[-1] + x2 * 0     # polyval's operations in its order, in place
    for c in coeffs[-2::-1]:
        p *= x2
        p += c
    out[small] = p
    if not small.all():
        out[~small] = closed_form(x[~small])
    return out


def _cin(x):
    """Cin(x) = int_0^x (1 - cos s) / s ds = gamma + ln x - Ci(x), x >= 0."""
    return _series_or(x, _CIN_SERIES, lambda y: _EULER + np.log(y) - _special().sici(y)[1])


def _white_core(x):
    """int_0^x (1 - cos s) / s^2 ds, times x: x Si(x) - (1 - cos x), x >= 0."""
    return _series_or(x, _WHITE_SERIES,
                      lambda y: y * _special().sici(y)[0] - 2.0 * np.sin(0.5 * y) ** 2)


class Spectrum:
    """Base of the spectra: the behaviour a spectrum may leave out.

    A spectrum is a frozen dataclass with a `variant` name (its key in
    from_dict and to_dict) that defines evaluate(omega),
    effective_support(epsilon) (the interval holding all but epsilon of
    the S/omega^2 mass) and rescaled(k) (the same noise with the time unit
    scaled by k). It inherits, and overrides where it knows better:
    structure_function (None: no closed-form D, chi takes quadrature),
    tail_weight (the chi weight beyond the effective support, 0),
    breakpoints (interior kinks for the panel edges, none),
    singular_exponent (p where S ~ omega^p, p < 0, reaches omega = 0,
    none) and power_support (the interval holding all but epsilon of the
    total power, the effective support).
    """

    variant = None
    structure_function = None

    def tail_weight(self, epsilon):
        """chi weight (2/pi) int S/omega^2 beyond effective_support(epsilon)."""
        return 0.0

    def breakpoints(self):
        return ()

    def singular_exponent(self):
        return None

    def power_support(self, epsilon):
        return self.effective_support(epsilon)

    def to_dict(self):
        d = {"variant": self.variant}
        for f in fields(self):
            v = getattr(self, f.name)
            d[f.name] = list(v) if type(v) is tuple else v
        return d


@dataclass(frozen=True)
class OhmicSharpCutoff(Spectrum):
    """S = A * omega for omega <= omega_d, 0 above (sharp cutoff)."""

    variant = "ohmic"
    amplitude: float
    omega_d: float

    def __post_init__(self):
        if not (0 <= self.amplitude < math.inf and 0 < self.omega_d < math.inf):
            raise BadConfig("ohmic spectrum needs finite amplitude >= 0 and omega_d > 0")

    def evaluate(self, omega):
        omega = _check_omega(omega)
        return np.where(omega <= self.omega_d, self.amplitude * omega, 0.0)

    def structure_function(self, t):
        """D(t) = (2/pi) int S (1 - cos omega t) / omega^2 domega = (2A/pi) Cin(omega_d t)."""
        return (2.0 * self.amplitude / np.pi) * _cin(self.omega_d * np.asarray(t, dtype=float))

    def effective_support(self, epsilon):
        return (0.0, self.omega_d)

    def rescaled(self, k):
        return OhmicSharpCutoff(self.amplitude, self.omega_d / k)


@dataclass(frozen=True)
class WhiteBand(Spectrum):
    """S = S0 up to omega_hi (band-limited white noise)."""

    variant = "white"
    level: float
    omega_hi: float

    def __post_init__(self):
        if not (0 <= self.level < math.inf and self.omega_hi > 0):
            raise BadConfig("white band needs a finite level >= 0 and omega_hi > 0")

    def evaluate(self, omega):
        omega = _check_omega(omega)
        return np.where(omega <= self.omega_hi, self.level, 0.0)

    def structure_function(self, t):
        """D(t) = (2 S0 / (pi omega_hi)) (x Si(x) - (1 - cos x)), x = omega_hi t."""
        if not math.isfinite(self.omega_hi):
            raise NonIntegrableSpectrum("unbounded white band has no finite support")
        x = self.omega_hi * np.asarray(t, dtype=float)
        return (2.0 * self.level / (np.pi * self.omega_hi)) * _white_core(x)

    def effective_support(self, epsilon):
        if not math.isfinite(self.omega_hi):
            raise NonIntegrableSpectrum("unbounded white band has no finite support")
        return (0.0, self.omega_hi)

    def rescaled(self, k):
        return WhiteBand(self.level / k, self.omega_hi / k)


@dataclass(frozen=True)
class PowerLaw(Spectrum):
    """S = A * omega**exponent on [omega_lo, omega_hi], 0 outside.

    Integrability of S/omega^2 at the low end is a construction-time
    contract: exponent <= -1 requires an explicit omega_lo > 0.
    omega_hi may be inf only when exponent < -1 (finite tail mass).
    """

    variant = "powerlaw"
    amplitude: float
    exponent: float
    omega_lo: float
    omega_hi: float

    def __post_init__(self):
        if not (0 <= self.amplitude < math.inf and math.isfinite(self.exponent)):
            raise BadConfig("power law needs a finite amplitude >= 0 and a finite exponent")
        if not (0 <= self.omega_lo < self.omega_hi):
            raise BadConfig("power law needs 0 <= omega_lo < omega_hi")
        if self.exponent <= -1 and self.omega_lo <= 0:
            raise NonIntegrableSpectrum(
                "power law with exponent <= -1 requires omega_lo > 0"
            )
        if not math.isfinite(self.omega_hi) and self.exponent >= -1:
            raise NonIntegrableSpectrum(
                "unbounded power law requires exponent < -1"
            )

    def evaluate(self, omega):
        omega = _check_omega(omega)
        inside = (omega >= self.omega_lo) & (omega <= self.omega_hi)
        safe = np.where(omega > 0, omega, 1.0)
        vals = self.amplitude * safe ** self.exponent
        if self.exponent > 0:
            vals = np.where(omega > 0, vals, 0.0)
        return np.where(inside, vals, 0.0)

    def effective_support(self, epsilon):
        if math.isfinite(self.omega_hi):
            return (self.omega_lo, self.omega_hi)
        # tail of S/omega^2 above W: (W/omega_lo)**(exponent-1) of the total
        hi = self.omega_lo * epsilon ** (1.0 / (self.exponent - 1.0))
        return (self.omega_lo, hi)

    def tail_weight(self, epsilon):
        """(2/pi) A W^(p-1) / (1-p) beyond W = effective_support(epsilon)[1];
        0 when omega_hi is finite (the support is the whole band)."""
        if math.isfinite(self.omega_hi):
            return 0.0
        w = self.effective_support(epsilon)[1]
        return (2.0 / np.pi) * self.amplitude * w ** (self.exponent - 1.0) / (1.0 - self.exponent)

    def singular_exponent(self):
        return self.exponent if self.omega_lo == 0 and self.exponent < 0 else None

    def power_support(self, epsilon):
        if math.isfinite(self.omega_hi):
            return (self.omega_lo, self.omega_hi)
        hi = self.omega_lo * epsilon ** (1.0 / (self.exponent + 1.0))
        return (self.omega_lo, hi)

    def rescaled(self, k):
        return PowerLaw(self.amplitude * k ** (self.exponent - 1.0), self.exponent,
                        self.omega_lo / k, self.omega_hi / k)


@dataclass(frozen=True)
class SupraOhmicExp(Spectrum):
    """S = alpha * omega^3 * exp(-omega/omega_c)."""

    variant = "supraohmic"
    alpha: float
    omega_c: float

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf and 0 < self.omega_c < math.inf):
            raise BadConfig("supra-ohmic spectrum needs finite alpha >= 0 and omega_c > 0")

    def evaluate(self, omega):
        omega = _check_omega(omega)
        return self.alpha * omega ** 3 * np.exp(-omega / self.omega_c)

    def structure_function(self, t):
        """D(t) = (2 alpha/pi) t^2 (3a^2 + t^2) / (a^2 (a^2 + t^2)^2), a = 1/omega_c.

        Written in s = omega_c t, which needs no subtraction at any t.
        """
        s2 = (self.omega_c * np.asarray(t, dtype=float)) ** 2
        return (2.0 * self.alpha * self.omega_c ** 2 / np.pi) * s2 * (3.0 + s2) / (1.0 + s2) ** 2

    def effective_support(self, epsilon):
        # S/omega^2 = alpha*omega*exp(-omega/omega_c): tail fraction of the
        # a=2 incomplete gamma drops below epsilon at x = gammainccinv(2, eps)
        return (0.0, self.omega_c * float(_special().gammainccinv(2, epsilon)))

    def tail_weight(self, epsilon):
        """epsilon of the total chi weight (2/pi) alpha omega_c^2."""
        return (2.0 / np.pi) * self.alpha * self.omega_c ** 2 * epsilon

    def power_support(self, epsilon):
        # total power integrand omega^3 exp(): a=4 gamma tail
        return (0.0, self.omega_c * float(_special().gammainccinv(4, epsilon)))

    def rescaled(self, k):
        return SupraOhmicExp(self.alpha * k ** 2, self.omega_c / k)


@dataclass(frozen=True)
class Tabulated(Spectrum):
    """Tabulated S(omega), log-log linear interpolation, 0 outside the table."""

    variant = "tabulated"
    omegas: tuple
    values: tuple

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        sv = np.asarray(self.values, dtype=float)
        if om.size < 2 or om.size != sv.size:
            raise BadConfig("tabulated spectrum needs >= 2 (omega, S) pairs")
        if not (om[0] > 0 and np.all(np.diff(om) > 0) and om[-1] < math.inf):
            raise BadConfig("tabulated abscissae must be finite, positive and strictly increasing")
        if not np.all((sv >= 0) & (sv < math.inf)):
            raise BadConfig("tabulated S values must be finite and non-negative")
        object.__setattr__(self, "omegas", tuple(float(x) for x in om))
        object.__setattr__(self, "values", tuple(float(x) for x in sv))

    def evaluate(self, omega):
        omega = _check_omega(omega)
        om = np.asarray(self.omegas)
        sv = np.maximum(np.asarray(self.values), 1e-300)  # keep log finite
        inside = (omega >= om[0]) & (omega <= om[-1])
        safe = np.where(omega > 0, omega, om[0])
        logs = np.interp(np.log(safe), np.log(om), np.log(sv))
        vals = np.exp(logs)
        vals = np.where(vals <= 1e-299, 0.0, vals)
        return np.where(inside, vals, 0.0)

    def effective_support(self, epsilon):
        return (self.omegas[0], self.omegas[-1])

    def breakpoints(self):
        return tuple(self.omegas[1:-1])

    def rescaled(self, k):
        return Tabulated(tuple(w / k for w in self.omegas), tuple(s / k for s in self.values))


def eval_spectrum(spec, omega):
    """S(omega); scalar in, scalar out; arrays pass through elementwise."""
    scalar = np.isscalar(omega)
    out = spec.evaluate(np.atleast_1d(np.asarray(omega, dtype=float)))
    return float(out[0]) if scalar else out


def effective_support(spec, epsilon):
    """Interval holding all but epsilon of the S/omega^2 mass (chi weight)."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return spec.effective_support(epsilon)


def _check_omega(omega):
    omega = np.asarray(omega, dtype=float)
    if not np.all((omega >= 0) & (omega < math.inf)):
        raise ValueError("omega must be finite and >= 0")
    return omega


def rescale_time(spec, factor):
    """Re-express a spectrum after scaling the time unit by `factor`.

    factor = (new units per old unit) for time; e.g. seconds to
    picoseconds uses factor 1e12. Frequencies scale by 1/factor and each
    parameter by its time dimension. Raises ValueError unless factor is
    finite and positive, and BadConfig when a rescaled parameter overflows.
    """
    k = float(factor)
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"time-unit factor must be finite and positive, got {k!r}")
    try:
        return spec.rescaled(k)
    except OverflowError as exc:
        raise BadConfig(f"time-unit factor {k!r} overflows a spectrum parameter") from exc


_VARIANTS = {cls.variant: cls for cls in
             (OhmicSharpCutoff, WhiteBand, PowerLaw, SupraOhmicExp, Tabulated)}


def from_dict(d):
    """Build a spectrum from a config mapping {"variant": ..., params...}."""
    if not isinstance(d, dict) or "variant" not in d:
        raise BadConfig("spectrum config must be an object with a 'variant' key")
    name = str(d["variant"]).lower()
    if name not in _VARIANTS:
        raise BadConfig(f"unknown spectrum variant: {name!r}")
    params = {k: v for k, v in d.items() if k != "variant"}
    try:
        return _VARIANTS[name](**params)
    except TypeError as exc:
        raise BadConfig(f"bad parameters for {name}: {exc}") from exc
