"""Coherence prediction: chi(tau) and W(tau) = exp(-chi).

chi = (2/pi) * integral_0^inf S(omega) F(omega*tau) / omega^2 domega.

Two routes compute it. Because the filter's coefficients sum to zero,
the overlap has the exact pairwise form (Cywinski et al., PRB 77, 174509
(2008))

    chi = -sum_jk c_j c_k D(tau |t_j - t_k|),
    D(t) = (2/pi) * integral S(omega) (1 - cos omega t) / omega^2 domega,

over the switching times t_k of the toggling function. Spectra with a
closed-form D (a `structure_function` method: ohmic, white, supra-ohmic)
take this route first. It costs one D evaluation per pair at any tau,
but it cancels terms of size |c|^T |D| |c| down to chi, so deep in the
stop band it loses every digit. Its rounding bound
B = 64 eps |c|^T |D| |c| decides: the pairwise value is returned when
B <= 0.1 * rel_tol * chi, and otherwise (and for power-law and tabulated
spectra) chi comes from adaptive quadrature of the cancellation-free
filter, truncated at the spectrum's effective support. All exponent
conventions are anchored to the analytic white-noise FID result
chi = S0*tau/2, which fixes the oracle calibration constants as well.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CurveFailure
from .filters import PAIR_ROUNDING, filter_value, filter_value_finite, pair_sums
from .quadrature import QuadratureConfig, build_edges, integrate
from .spectra import effective_support


def chi(seq, spec, tau, cfg=None, full_output=False):
    """Decay exponent chi for a sequence against a noise spectrum at tau.

    tau is the total sequence duration (pulse intervals included when
    seq.width_ratio > 0; the filter is then the finite-width one). The
    pairwise route runs when the spectrum has a closed-form structure
    function and its rounding bound meets 0.1 * cfg.rel_tol; otherwise
    quadrature runs. full_output adds a dict with the route taken
    ("path": "pairwise" or "quadrature") and its "error_estimate".
    Raises ToleranceNotMet with the best value attached when quadrature
    refinement runs out.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {float(tau)!r}")
    cfg = cfg or QuadratureConfig()
    structure = getattr(spec, "structure_function", None)
    if structure is not None:
        total, magnitude, _ = pair_sums(seq, lambda lag: structure(tau * lag))
        value = -2.0 * total + 0.0
        bound = 2.0 * PAIR_ROUNDING * magnitude
        if bound <= 0.1 * cfg.rel_tol * value:
            if full_output:
                return value, {"path": "pairwise", "error_estimate": bound}
            return value
    return _chi_quadrature(seq, spec, tau, cfg, full_output)


def _chi_quadrature(seq, spec, tau, cfg=None, full_output=False):
    """chi by adaptive quadrature. Panels are sized to resolve the filter's
    passband oscillation (period 2*pi in u = omega*tau)."""
    cfg = cfg or QuadratureConfig()
    lo, hi = effective_support(spec, min(cfg.rel_tol / 10.0, 0.1))
    if seq.width_ratio > 0:
        r = seq.width_ratio

        def integrand(om):
            u = om * tau
            return spec.evaluate(om) * filter_value_finite(seq, u, r) / om ** 2
    else:

        def integrand(om):
            u = om * tau
            return spec.evaluate(om) * filter_value(seq, u) / om ** 2

    max_panel = 2.0 * np.pi / (tau * cfg.oscillation_resolution)
    edges = build_edges(lo, hi, breakpoints=spec.breakpoints(), max_panel=max_panel)
    value, err, panels = integrate(integrand, edges, cfg)
    result = (2.0 / np.pi) * value
    if full_output:
        return result, {"path": "quadrature", "error_estimate": (2.0 / np.pi) * err,
                        "panels": panels, "support": (lo, hi)}
    return result


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
    (index, exception) pairs.
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
        raise CurveFailure(f"curve evaluation failed at indices {idx}", failures)
    return CoherenceCurve(
        tau_grid=taus,
        chi_values=np.array([r[0] for r in results]),
        w_values=np.array([r[1] for r in results]),
        labels=tuple(r[2] for r in results),
        pulse_counts=tuple(r[3] for r in results),
        diagnostics=tuple(r[4] for r in results),
    )
