"""Filter-design diagnostics: crossing frequency, rolloff, passband
statistics, band-pass profile of the modified filter, and pairwise
sequence comparison.

Conventions: dB = 10*log10(F) (power), octave = factor 2 in u.
"""

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InsufficientSpan,
    NoCrossing,
    NoPeak,
    NumericFloor,
    WindowOutOfRange,
    _positive,
)
from .filters import modified_filter_value

CLEAN_LO = 1e-28   # below this the |sum|^2 floor can contaminate slopes
CLEAN_HI = 1e-2    # above this the passband curvature bends the fit
FLOOR = 1e-30      # hard numeric floor used for ratio masking

PASSBAND_LO = 100.0 * np.pi
PASSBAND_HI = 200.0 * np.pi
# F's fastest cosine, cos(u (t_j - t_k)) with |t_j - t_k| <= 1, has a period of
# at least 2 pi: these points give 400 or more per period at any n
PASSBAND_POINTS = 20001
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FilterMetrics:
    u_f1: float
    rolloff_db_per_octave: float
    passband_mean: float
    passband_ripple_db: float
    fit_window: tuple

    def to_dict(self):
        return {**asdict(self), "fit_window": list(self.fit_window)}


class PassbandStats(NamedTuple):
    mean: float
    ripple_db: float
    deviation: float  # |mean - (4n+2)| / (4n+2)


@dataclass(frozen=True)
class BandpassProfile:
    peak_omega: float
    bandwidth: float
    out_of_band_rejection_db: float
    flag: str  # "bandpass" or "plateau" (monotone low-pass profiles)

    def to_dict(self):
        return asdict(self)


def omega_f1(samples):
    """First upward crossing of F = 1, refined on the evaluator.

    Scans the sample grid from low u; bisects until |F - 1| <= 1e-6.
    FID's F = sin^2(u/2) touches 1 at u = pi without crossing, so FID
    returns pi when the grid spans it. With n >= 1 pulses F averages
    4n + 2 in the passband and crosses 1; a grid with no sampled upward
    crossing raises NoCrossing.
    """
    u, F = samples.u_grid, samples.values
    if samples.n == 0:
        if u[0] < math.pi <= u[-1]:
            return math.pi
        raise NoCrossing(f"FID touches F = 1 at pi, outside the grid [{u[0]:g}, {u[-1]:g}]")
    if F[0] >= 1.0:
        raise NoCrossing("grid starts at F >= 1; extend u_min downward")
    idx = np.nonzero((F[1:] >= 1.0) & (F[:-1] < 1.0))[0]
    if not idx.size:
        raise NoCrossing("F stays below 1 on the sampled grid")
    lo, hi = u[idx[0]], u[idx[0] + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = samples.evaluate(mid)
        if abs(fm - 1.0) <= 1e-6:
            return float(mid)
        if fm < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            return float(0.5 * (lo + hi))
    return float(0.5 * (lo + hi))


def _clean_span(samples):
    """u bounds of the contiguous low-frequency span with F in [CLEAN_LO, CLEAN_HI]."""
    u, F = samples.u_grid, samples.values
    above = np.flatnonzero(F > CLEAN_HI)
    hi = int(above[0]) if above.size else F.size
    ok = np.flatnonzero(F[:hi] >= CLEAN_LO)
    if ok.size < 2:
        raise NumericFloor("no clean stop-band span above the numeric floor")
    return u[ok[0]], u[hi - 1]


def rolloff(samples, window=None):
    """Least-squares slope of 10*log10 F versus log2 u, in dB/octave.

    window: None for the default [u_f1/32, u_f1/8] clipped to the clean
    range; "clean" for the full span where F lies in [1e-28, 1e-2]; or an
    explicit (u_lo, u_hi) pair which must sit inside the clean range.
    """
    u = samples.u_grid
    clean_lo_u, clean_hi_u = _clean_span(samples)
    if window == "clean":
        lo_u, hi_u = clean_lo_u, clean_hi_u
    elif window is None:
        lo_u, hi_u = _default_window(omega_f1(samples), clean_lo_u, clean_hi_u)
    else:
        lo_u, hi_u = float(window[0]), float(window[1])
        if lo_u < u[0] or hi_u > u[-1]:
            raise WindowOutOfRange(f"window [{lo_u:g}, {hi_u:g}] outside sampled grid")
        if lo_u < clean_lo_u:
            raise NumericFloor("window touches the numeric floor (F < 1e-28)")
        if hi_u > clean_hi_u:
            raise WindowOutOfRange("window extends above F = 1e-2")
    return _fit_slope(samples, lo_u, hi_u)


def _default_window(f1, clean_lo_u, clean_hi_u):
    """[u_f1/32, u_f1/8] clipped to the clean range."""
    return float(max(f1 / 32.0, clean_lo_u)), float(min(f1 / 8.0, clean_hi_u))


def _fit_slope(samples, lo_u, hi_u):
    """dB/octave slope of the samples on [lo_u, hi_u]."""
    u, F = samples.u_grid, samples.values
    mask = (u >= lo_u) & (u <= hi_u) & (F > 0)
    if mask.sum() < 2:
        raise WindowOutOfRange(
            f"fit window [{lo_u:g}, {hi_u:g}] holds fewer than two samples"
        )
    x = np.log2(u[mask])
    y = 10.0 * np.log10(F[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def passband_stats(samples):
    """Mean and ripple of F over u in [100*pi, 200*pi] on a linear grid.

    The log-spaced sample grid under-resolves the passband oscillation,
    so the statistic re-evaluates the same variant on PASSBAND_POINTS
    evenly spaced points. Returns (mean, ripple_db, relative deviation
    from 4n+2), n the samples' pulse count.

    ripple_db is inf when F touches 0 on that grid, that is when its
    minimum is at or below the evaluator's rounding floor 4 (eps (n + 1)
    (u + 1))^2 at u = 200*pi. F = |sum_k c_k e^(iu t_k)|^2 with
    sum_k |c_k| = 2(n + 1) (finite width too), and each phasor carries
    the argument's rounding eps u t_k <= eps u plus a few eps of its own,
    so where F vanishes the computed sum is at most 2 eps (n + 1)(u + 1).
    cpmg2 and cpmg4 touch 0 at multiples of 8*pi and 16*pi.
    """
    if samples.u_grid[-1] < PASSBAND_HI:
        raise InsufficientSpan(
            f"grid ends at {samples.u_grid[-1]:g}, below {PASSBAND_HI:g}"
        )
    uu = np.linspace(PASSBAND_LO, PASSBAND_HI, PASSBAND_POINTS)
    vals = samples.evaluate(uu)
    mean = float(np.trapezoid(vals, uu) / (PASSBAND_HI - PASSBAND_LO))
    lowest = vals.min()
    floor = 4.0 * (_EPS * (samples.n + 1) * (PASSBAND_HI + 1.0)) ** 2
    ripple_db = float(10.0 * np.log10(vals.max() / lowest)) if lowest > floor else math.inf
    target = 4.0 * samples.n + 2.0
    return PassbandStats(mean, ripple_db, abs(mean - target) / target)


def filter_metrics(samples):
    """Bundle of the scalar diagnostics for one sampled filter."""
    f1 = omega_f1(samples)
    lo_u, hi_u = _default_window(f1, *_clean_span(samples))
    stats = passband_stats(samples)
    return FilterMetrics(
        u_f1=f1,
        rolloff_db_per_octave=_fit_slope(samples, lo_u, hi_u),
        passband_mean=stats.mean,
        passband_ripple_db=stats.ripple_db,
        fit_window=(lo_u, hi_u),
    )


def bandpass_profile(seq, tau, omega_grid):
    """Dominant peak of F/omega^2: center, FWHM, out-of-band rejection.

    The main lobe is bounded by the local minima flanking the dominant
    interior maximum; rejection is the peak over the largest value
    outside that lobe, in dB. Monotone profiles (FID and other
    low-pass shapes) report the low-frequency plateau with
    flag="plateau" instead of a peak.
    """
    om = np.asarray(omega_grid, dtype=float)
    if not np.all(np.isfinite(om)):
        raise ValueError("omega_grid must be finite")
    tau = _positive(tau, "tau")
    if om.size < 5:
        raise NoPeak("need at least 5 grid points")
    vals = modified_filter_value(seq, om, tau)
    if not np.any(vals > 0):
        raise NoPeak("modified filter vanishes on the grid")
    j = int(np.argmax(vals))
    # the lobe [l, rr] falls strictly from j on each side; a plateau keeps
    # everything left of its peak
    rr = j + int(np.flatnonzero(np.append(~(vals[j + 1:] < vals[j:-1]), True))[0])
    flag, l = "plateau", 0
    if 0 < j < om.size - 1:
        flag, l = "bandpass", int(np.flatnonzero(np.r_[True, ~(vals[:j] < vals[1:j + 1])])[-1])
    peak = vals[j]
    half = peak / 2.0
    # half-max crossings inside the lobe, linearly interpolated
    left, right = om[l], om[rr]
    up = np.flatnonzero((vals[l:j] < half) & (half <= vals[l + 1:j + 1]))
    if up.size:
        k = l + 1 + up[-1]
        t = (half - vals[k - 1]) / (vals[k] - vals[k - 1])
        left = om[k - 1] + t * (om[k] - om[k - 1])
    down = np.flatnonzero((vals[j + 1:rr + 1] < half) & (half <= vals[j:rr]))
    if down.size:
        k = j + down[0]
        t = (vals[k] - half) / (vals[k] - vals[k + 1])
        right = om[k] + t * (om[k + 1] - om[k])
    rest = np.concatenate([vals[:l], vals[rr + 1:]])
    rejection = float(10.0 * np.log10(peak / rest.max())) if np.any(rest > 0) else math.inf
    return BandpassProfile(
        peak_omega=float(om[j]),
        bandwidth=float(right - left),
        out_of_band_rejection_db=max(rejection, 0.0),
        flag=flag,
    )


_FLAGS = np.array(["lt1", "gt1", "eq", "masked"], dtype=object)   # one str each, shared


@dataclass(frozen=True)
class ComparisonSamples:
    """Pointwise F_A / F_B with per-point flags (lt1 / gt1 / eq / masked)."""

    u_grid: np.ndarray
    ratio: np.ndarray
    flags: tuple


def filter_ratio(samples_a, samples_b):
    """Ratio of two filter sample sets on a shared grid.

    Points where both values sit below the 1e-30 numeric floor are
    masked (ratio NaN): neither magnitude is trustworthy there.
    """
    if samples_a.variant != samples_b.variant:
        raise ValueError("ratio requires matching evaluation variants")
    if samples_a.u_grid.shape != samples_b.u_grid.shape or not np.allclose(
        samples_a.u_grid, samples_b.u_grid, rtol=1e-12
    ):
        raise ValueError("ratio requires a shared u grid")
    fa, fb = samples_a.values, samples_b.values
    masked = (fa < FLOOR) & (fb < FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(masked, np.nan, fa / np.where(fb == 0, np.nan, fb))
    codes = np.select([masked, ~np.isfinite(ratio), ratio < 1.0, ratio == 1.0], [3, 1, 0, 2], 1)
    return ComparisonSamples(samples_a.u_grid, ratio, tuple(_FLAGS[codes]))
