"""Filter-design toolkit for dynamical-decoupling pulse sequences.

Builds pulse sequences (CPMG, periodic, Uhrig, custom), evaluates their
dimensionless filter functions stably across 12+ decades, predicts
coherence decay against parametric or tabulated noise spectra by
closed-form pairwise sums or adaptive quadrature, extracts band-shape
metrics, designs sequences numerically (spectrum-matched,
area-minimizing, and gap-constrained variants), and cross-checks every
prediction with an independent time-domain oracle (covariance quadratic
form + Monte Carlo noise synthesis).
"""

from .coherence import (CoherenceCurve, chi, coherence_curve, coherence_w,
                        white_fid_chi)
from .errors import (BadConfig, CollisionAfterRounding, CurveFailure, DDError,
                     GapViolation, Infeasible, InsufficientSpan, NoCrossing,
                     NonIntegrableSpectrum, NonMonotonic, NoPeak,
                     NotConverged, NumericFloor, OutOfRange, ToleranceNotMet,
                     UnderResolved, WindowOutOfRange)
from .filters import (FilterSamples, filter_value, filter_value_finite,
                      modified_filter_value, sample_filter)
from .metrics import (BandpassProfile, ComparisonSamples, FilterMetrics,
                      PassbandStats, bandpass_profile, filter_metrics,
                      filter_ratio, omega_f1, passband_stats, rolloff)
from .optimize import (OptimizationConfig, OptimizationResult, filter_area,
                       optimize_badd, optimize_lodd, optimize_ofdd)
from .oracle import (MCResult, SamplingVector, autocovariance, grammian_chi,
                     monte_carlo_w, oracle_report, sampling_vector)
from .quadrature import QuadratureConfig, build_edges, integrate
from .sequences import (PulseSequence, canonical_deltas, make_canonical,
                        make_custom, max_order, min_gap, quantize_timing,
                        reflect)
from .spectra import (OhmicSharpCutoff, PowerLaw, Spectrum, SupraOhmicExp,
                      Tabulated, WhiteBand, effective_support, eval_spectrum,
                      from_dict, rescale_time)

__version__ = "0.1.0"

__all__ = [
    "BadConfig", "BandpassProfile", "CoherenceCurve",
    "CollisionAfterRounding", "ComparisonSamples", "CurveFailure", "DDError",
    "FilterMetrics", "FilterSamples", "GapViolation", "Infeasible",
    "InsufficientSpan", "MCResult", "NoCrossing", "NoPeak",
    "NonIntegrableSpectrum", "NonMonotonic", "NotConverged", "NumericFloor",
    "OhmicSharpCutoff", "OptimizationConfig", "OptimizationResult",
    "OutOfRange", "PassbandStats", "PowerLaw", "PulseSequence",
    "QuadratureConfig", "SamplingVector", "Spectrum", "SupraOhmicExp", "Tabulated",
    "ToleranceNotMet", "UnderResolved", "WhiteBand", "WindowOutOfRange",
    "autocovariance", "bandpass_profile", "build_edges", "canonical_deltas",
    "chi", "coherence_curve", "coherence_w",
    "effective_support", "eval_spectrum", "filter_area", "filter_metrics",
    "filter_ratio", "filter_value", "filter_value_finite", "from_dict",
    "grammian_chi", "integrate", "make_canonical", "make_custom", "max_order",
    "min_gap", "modified_filter_value", "monte_carlo_w", "omega_f1",
    "optimize_badd", "optimize_lodd", "optimize_ofdd", "oracle_report",
    "passband_stats", "quantize_timing", "reflect", "rescale_time", "rolloff",
    "sample_filter", "sampling_vector", "white_fid_chi",
    "__version__",
]
