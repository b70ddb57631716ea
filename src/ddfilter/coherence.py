"""Coherence prediction: chi(tau) and W(tau) = exp(-chi).

chi = (2/pi) * integral_0^inf S(omega) F(omega*tau) / omega^2 domega.

Three routes compute it. Because the filter's coefficients sum to zero,
the overlap has the exact pairwise form (Cywinski et al., PRB 77, 174509
(2008))

    chi = -sum_jk c_j c_k D(tau |t_j - t_k|),
    D(t) = (2/pi) * integral S(omega) (1 - cos omega t) / omega^2 domega,

over the switching times t_k of the toggling function.

1. Pairwise. Spectra with a closed-form D (a `structure_function`
   method: ohmic, white, supra-ohmic) take this route first. It costs one
   D evaluation per pair at any tau, but it cancels terms of size
   |c|^T |D| |c| down to chi, so deep in the stop band it loses every
   digit. Its rounding bound B = 64 eps |c|^T |D| |c| decides: the
   pairwise value is returned when B <= 0.1 * rel_tol * chi.
2. Direct quadrature. Otherwise, and always for power-law and tabulated
   spectra, adaptive quadrature of the cancellation-free segment sum for
   F over the spectrum's effective support, from the panel evaluator:
   transcendentals per panel, not per node, joined by complex products
   of at most 2^16 multiply-adds (filters._panel_z).
3. Series quadrature. When B >= |value| the pairwise sum has no digit
   left, so chi lies below the segment sum's rounding floor too; the same
   quadrature then takes F from the moment series in the stop band
   (filters.StopBandFilter), and from the panel evaluator above the
   crossover. The test costs nothing: B and the value come with the
   pairwise attempt.

On both quadrature routes the chi weight the support drops, times max F,
is added to the error, and the support is widened until it is within a
tenth of the tolerance (only the supra-ohmic spectrum has such a tail).

All exponent conventions are anchored to the analytic white-noise FID
result chi = S0*tau/2, which fixes the oracle calibration constants as
well.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CurveFailure, ToleranceNotMet
from .filters import (PAIR_ROUNDING, StopBandFilter, _switching_times,
                      filter_value_finite, pair_plan)
from .quadrature import NODES, QuadratureConfig, build_edges, integrate
from .sequences import make_custom
from .spectra import effective_support


def chi(seq, spec, tau, cfg=None, full_output=False):
    """Decay exponent chi for a sequence against a noise spectrum at tau.

    tau is the total sequence duration (pulse intervals included when
    seq.width_ratio > 0; the filter is then the finite-width one). The
    pairwise route runs when the spectrum has a closed-form structure
    function and its rounding bound B meets 0.1 * cfg.rel_tol; otherwise
    quadrature runs, with the stop-band series for F when B >= |value|
    (the pairwise sum has no digit left). full_output adds a dict with
    the route taken ("path": "pairwise" or "quadrature") and its
    "error_estimate"; quadrature adds "filter" ("direct" or "series"),
    "panels" and "support", and the series its "series_degree" and
    "crossover_u". Raises ToleranceNotMet with the best chi and its
    achieved error attached when quadrature refinement runs out.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {float(tau)!r}")
    return _chi(seq.deltas, seq.width_ratio, spec, tau, cfg or QuadratureConfig(),
                full_output, seq)


def _chi(deltas, width_ratio, spec, tau, cfg, full_output=False, seq=None):
    """chi at valid positions (an array from the optimizer objectives); a
    PulseSequence is built, when seq is None, only for quadrature."""
    series = False
    if spec.structure_function is not None:
        plan = pair_plan(len(deltas), width_ratio)
        total, magnitude = plan.sums(deltas, lambda lag: spec.structure_function(tau * lag))
        value = -2.0 * total + 0.0
        bound = 2.0 * PAIR_ROUNDING * magnitude
        if bound <= 0.1 * cfg.rel_tol * value:
            if full_output:
                return value, {"path": "pairwise", "error_estimate": bound}
            return value
        series = bool(bound >= abs(value))
    if seq is None:
        seq = make_custom(deltas, width_ratio)
    return _chi_quadrature(seq, spec, tau, cfg, full_output, series)


def _chi_quadrature(seq, spec, tau, cfg=None, full_output=False, series=False):
    """chi by adaptive quadrature over the spectrum's effective support.

    With series=True F comes from StopBandFilter. On either route the
    support's truncation enters the error: the chi weight of the spectrum
    beyond the support (spec.tail_weight) times max F = (sum |c|)^2. The
    support is widened until that is at most 0.1 * cfg.rel_tol * chi. A
    quadrature that gives up is retried on the wider support when the tail
    it dropped could outweigh its best value (a support that ends in the
    stop band leaves F below the rounding floor).
    """
    cfg = cfg or QuadratureConfig()
    epsilon = min(cfg.rel_tol / 10.0, 0.1)
    for widening in range(_WIDENINGS + 1):
        try:
            result, err, info = _integrate_chi(seq, spec, tau, cfg, epsilon, series)
            failed = False
        except ToleranceNotMet as exc:
            result, err, failed = exc.value, exc.achieved, True
        dropped = spec.tail_weight(epsilon)
        if dropped:
            dropped *= float(np.abs(_switching_times(seq)[2]).sum()) ** 2   # max F
        if dropped == 0.0 or dropped <= 0.1 * cfg.rel_tol * result or widening == _WIDENINGS:
            break
        epsilon *= 0.05 * cfg.rel_tol * result / dropped
        if not epsilon >= _MIN_EPSILON:
            break
    if failed or dropped > 0.1 * cfg.rel_tol * result:
        raise _tolerance_not_met(result, err + dropped)
    err += dropped
    if full_output:
        return result, {"path": "quadrature", "error_estimate": err, **info}
    return result


_WIDENINGS = 3           # support widenings allowed per chi
_MIN_EPSILON = 1e-300    # smallest support tail share asked of a spectrum


def _integrate_chi(seq, spec, tau, cfg, epsilon, series):
    """(chi, error, info) from quadrature on effective_support(spec, epsilon).
    Panels are sized to resolve the filter's passband oscillation (period
    2*pi in u = omega*tau)."""
    lo, hi = effective_support(spec, epsilon)
    if series:
        filt = StopBandFilter(seq, hi * tau)
        info = {"filter": "series", "series_degree": filt.degree,
                "crossover_u": filt.crossover}
    else:
        filt = functools.partial(filter_value_finite, seq)
        info = {"filter": "direct"}

    def integrand(om):
        return spec.evaluate(om) * filt(om * tau, nodes=NODES) / om ** 2

    max_panel = 2.0 * np.pi / (tau * cfg.oscillation_resolution)
    edges = build_edges(lo, hi, breakpoints=spec.breakpoints(), max_panel=max_panel)
    try:
        value, err, panels = integrate(integrand, edges, cfg)
    except ToleranceNotMet as exc:
        raise _tolerance_not_met((2.0 / np.pi) * exc.value,
                                 (2.0 / np.pi) * exc.achieved) from None
    info.update(panels=panels, support=(lo, hi))
    return (2.0 / np.pi) * value, (2.0 / np.pi) * err, info


def _tolerance_not_met(value, achieved):
    return ToleranceNotMet(
        f"chi quadrature error {achieved:.3e} above tolerance for chi {value:.6e}",
        value=value, achieved=achieved)


def coherence_w(seq, spec, tau, cfg=None):
    """W = exp(-chi), in [0, 1]."""
    return float(np.exp(-chi(seq, spec, tau, cfg)))


def white_fid_chi(level, tau):
    """Analytic anchor: FID under band-limited white noise, wide-band limit."""
    return 0.5 * level * tau


@dataclass(frozen=True)
class CoherenceCurve:
    """Per-tau chi and W for a sequence source against one spectrum."""

    tau_grid: np.ndarray
    chi_values: np.ndarray
    w_values: np.ndarray
    labels: tuple            # per-tau "family:n" descriptor
    pulse_counts: tuple
    diagnostics: tuple = field(default=())   # per-tau chi full_output dicts


def coherence_curve(source, spec, tau_grid, cfg=None):
    """Evaluate chi and W over a tau grid.

    source is either a fixed PulseSequence or a callable tau -> sequence
    (family at fixed n, or an optimizer output per tau). Per-point
    failures are aggregated into a single CurveFailure carrying
    (index, exception) pairs; its message names the first failure's
    exception and, for ToleranceNotMet, its best value and achieved error.
    """
    taus = np.asarray(tau_grid, dtype=float)
    if (taus.size == 0 or not np.all(np.isfinite(taus)) or np.any(taus <= 0)
            or np.any(np.diff(taus) <= 0)):
        raise ValueError("tau_grid must be finite, positive and strictly increasing")
    pick = source if callable(source) else (lambda _t: source)

    results = []
    failures = []
    for i, tau in enumerate(taus):
        try:
            seq = pick(tau)
            c, diag = chi(seq, spec, tau, cfg, full_output=True)
            results.append((c, float(np.exp(-c)), f"{seq.label}:{seq.n}", seq.n, diag))
        except Exception as exc:  # aggregated below
            failures.append((i, exc))
    if failures:
        idx = [i for i, _ in failures]
        first = failures[0][1]
        cause = f"{type(first).__name__}: {first}"
        if isinstance(first, ToleranceNotMet):
            cause += f" (value {first.value:.6e}, achieved {first.achieved:.3e})"
        raise CurveFailure(f"curve evaluation failed at indices {idx}; first at "
                           f"tau={taus[idx[0]]:.6g}: {cause}", failures)
    return CoherenceCurve(
        tau_grid=taus,
        chi_values=np.array([r[0] for r in results]),
        w_values=np.array([r[1] for r in results]),
        labels=tuple(r[2] for r in results),
        pulse_counts=tuple(r[3] for r in results),
        diagnostics=tuple(r[4] for r in results),
    )
