"""Filter-design diagnostics: crossing frequency, rolloff, passband
statistics, band-pass profile of the modified filter, and pairwise
sequence comparison.

Conventions: dB = 10*log10(F) (power), octave = factor 2 in u.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InsufficientSpan,
    NoCrossing,
    NoPeak,
    NumericFloor,
    WindowOutOfRange,
)
from .filters import modified_filter_value

CLEAN_LO = 1e-28   # below this the |sum|^2 floor can contaminate slopes
CLEAN_HI = 1e-2    # above this the passband curvature bends the fit
FLOOR = 1e-30      # hard numeric floor used for ratio masking

PASSBAND_LO = 100.0 * np.pi
PASSBAND_HI = 200.0 * np.pi
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FilterMetrics:
    u_f1: float
    rolloff_db_per_octave: float
    passband_mean: float
    passband_ripple_db: float
    fit_window: tuple

    def to_dict(self):
        return {
            "u_f1": self.u_f1,
            "rolloff_db_per_octave": self.rolloff_db_per_octave,
            "passband_mean": self.passband_mean,
            "passband_ripple_db": self.passband_ripple_db,
            "fit_window": list(self.fit_window),
        }


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
        return {
            "peak_omega": self.peak_omega,
            "bandwidth": self.bandwidth,
            "out_of_band_rejection_db": self.out_of_band_rejection_db,
            "flag": self.flag,
        }


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


def _clean_window_indices(samples):
    """Contiguous low-frequency window with F in [CLEAN_LO, CLEAN_HI]."""
    F = samples.values
    above = np.nonzero(F > CLEAN_HI)[0]
    hi = int(above[0]) if above.size else F.size
    ok = np.nonzero(F[:hi] >= CLEAN_LO)[0]
    if ok.size < 2:
        raise NumericFloor("no clean stop-band span above the numeric floor")
    return int(ok[0]), hi  # [lo, hi) index range


def rolloff(samples, window=None):
    """Least-squares slope of 10*log10 F versus log2 u, in dB/octave.

    window: None for the default [u_f1/32, u_f1/8] clipped to the clean
    range; "clean" for the full span where F lies in [1e-28, 1e-2]; or an
    explicit (u_lo, u_hi) pair which must sit inside the clean range.
    """
    u = samples.u_grid
    ilo, ihi = _clean_window_indices(samples)
    clean_lo_u, clean_hi_u = u[ilo], u[ihi - 1]
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
    return max(f1 / 32.0, clean_lo_u), min(f1 / 8.0, clean_hi_u)


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


def passband_stats(samples, n=None, points=20001):
    """Mean and ripple of F over u in [100*pi, 200*pi] on a linear grid.

    The log-spaced sample grid under-resolves the passband oscillation,
    so the statistic re-evaluates the same variant on a dense linear
    grid. Returns (mean, ripple_db, relative deviation from 4n+2).

    ripple_db is inf when F touches 0 on that grid, that is when its
    minimum is at or below the evaluator's rounding floor 4 (eps (n + 1)
    (u + 1))^2 at u = 200*pi, n the samples' pulse count. F = |sum_k c_k e^(iu t_k)|^2 with
    sum_k |c_k| = 2(n + 1) (finite width too), and each phasor carries
    the argument's rounding eps u t_k <= eps u plus a few eps of its own,
    so where F vanishes the computed sum is at most 2 eps (n + 1)(u + 1).
    cpmg2 and cpmg4 touch 0 at multiples of 8*pi and 16*pi.
    """
    if n is None:
        n = samples.n
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points!r}")
    if samples.u_grid[-1] < PASSBAND_HI:
        raise InsufficientSpan(
            f"grid ends at {samples.u_grid[-1]:g}, below {PASSBAND_HI:g}"
        )
    uu = np.linspace(PASSBAND_LO, PASSBAND_HI, points)
    vals = samples.evaluate(uu)
    mean = float(np.trapezoid(vals, uu) / (PASSBAND_HI - PASSBAND_LO))
    lowest = vals.min()
    floor = 4.0 * (_EPS * (samples.n + 1) * (PASSBAND_HI + 1.0)) ** 2
    ripple_db = float(10.0 * np.log10(vals.max() / lowest)) if lowest > floor else math.inf
    target = 4.0 * n + 2.0
    return PassbandStats(mean, ripple_db, abs(mean - target) / target)


def filter_metrics(samples):
    """Bundle of the scalar diagnostics for one sampled filter."""
    f1 = omega_f1(samples)
    ilo, ihi = _clean_window_indices(samples)
    lo_u, hi_u = _default_window(f1, samples.u_grid[ilo], samples.u_grid[ihi - 1])
    slope = _fit_slope(samples, lo_u, hi_u)
    stats = passband_stats(samples)
    return FilterMetrics(
        u_f1=f1,
        rolloff_db_per_octave=slope,
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
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and > 0, got {tau!r}")
    if om.size < 5:
        raise NoPeak("need at least 5 grid points")
    vals = modified_filter_value(seq, om, tau)
    if not np.any(vals > 0):
        raise NoPeak("modified filter vanishes on the grid")
    j = int(np.argmax(vals))
    interior = 0 < j < om.size - 1
    if interior:
        flag = "bandpass"
        l = j
        while l > 0 and vals[l - 1] < vals[l]:
            l -= 1
        rr = j
        while rr < om.size - 1 and vals[rr + 1] < vals[rr]:
            rr += 1
        peak_omega = float(om[j])
    else:
        flag = "plateau"
        j = 0 if vals[0] >= vals[-1] else om.size - 1
        peak_omega = float(om[j])
        l = 0
        rr = j
        while rr < om.size - 1 and vals[rr + 1] < vals[rr]:
            rr += 1
    peak = vals[j]
    half = peak / 2.0
    # half-max crossings inside the lobe, linearly interpolated
    left = om[l]
    for k in range(j, l, -1):
        if vals[k - 1] < half <= vals[k]:
            t = (half - vals[k - 1]) / (vals[k] - vals[k - 1])
            left = om[k - 1] + t * (om[k] - om[k - 1])
            break
    right = om[rr]
    for k in range(j, rr):
        if vals[k + 1] < half <= vals[k]:
            t = (vals[k] - half) / (vals[k] - vals[k + 1])
            right = om[k] + t * (om[k + 1] - om[k])
            break
    bandwidth = float(right - left)
    outside = np.ones(om.size, dtype=bool)
    outside[l:rr + 1] = False
    if flag == "plateau":
        outside[: rr + 1] = False
    if outside.any() and np.any(vals[outside] > 0):
        rejection = float(10.0 * np.log10(peak / vals[outside].max()))
    else:
        rejection = float("inf")
    return BandpassProfile(
        peak_omega=peak_omega,
        bandwidth=bandwidth,
        out_of_band_rejection_db=max(rejection, 0.0),
        flag=flag,
    )


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
    flags = []
    for m, r in zip(masked, ratio):
        if m or not np.isfinite(r):
            flags.append("masked" if m else "gt1")
        elif r < 1.0:
            flags.append("lt1")
        elif r > 1.0:
            flags.append("gt1")
        else:
            flags.append("eq")
    return ComparisonSamples(samples_a.u_grid, ratio, tuple(flags))
