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
tenth of the tolerance (only the supra-ohmic spectrum and unbounded power
laws have such a tail), or raises ToleranceNotMet when the wider support
would pass the quadrature's panel cap. A power law S ~ omega^p, p < 0, down
to omega = 0 (spec.singular_exponent) adds geometric panels toward 0.

The routes are evaluated over a tau grid; chi at one tau is the grid of
one. coherence_curve groups the taus by sequence, and the pairwise route
takes each group's taus in one structure-function call on a taus x pairs
block (pair_plan.sums broadcasts the lags against a column of taus). Every
tau left for quadrature, of any sequence and either filter, is then
integrated together by quadrature.integrate_batch: one integrand call per
refinement round (in calls of at most 2^16 nodes), each tau keeping its
own error budget, halving rule and support widening. The full panels of
every tau are 2 pi / OSCILLATION_RESOLUTION wide in u = omega tau, so the
panel evaluator builds one node table for the whole grid. LODD's chi
objective hands the rows it cannot sum pairwise to the same batch, one job
(and one filter) per row.

All exponent conventions are anchored to the analytic white-noise FID
result chi = S0*tau/2, which fixes the oracle calibration constants as
well.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CurveFailure, ToleranceNotMet, _positive
from .filters import (PAIR_ROUNDING, StopBandFilter, _switching_times,
                      filter_value_finite, pair_plan)
from .quadrature import (_MAX_PANELS, NODES, QuadratureConfig, integrate_batch, panel_width,
                         shortfall, spectrum_edges)
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
    return _chi(seq, spec, _positive(tau, "tau"), cfg or QuadratureConfig(), full_output)


def _chi(seq, spec, tau, cfg, full_output=False):
    """chi without the public entry point's check of tau."""
    series = False
    if spec.structure_function is not None:
        value, bound, done, series = _pairwise(pair_plan(seq.n, seq.width_ratio), seq.deltas,
                                               spec, tau, cfg)
        if done:
            if full_output:
                return value, {"path": "pairwise", "error_estimate": float(bound)}
            return value
    (out,) = _quadrature([(seq, tau, series)], spec, cfg)
    if isinstance(out, ToleranceNotMet):
        raise out
    return out if full_output else out[0]


def _pairwise(plan, deltas, spec, tau, cfg):
    """(chi, rounding bound B, whether the pairwise value meets the tolerance,
    whether quadrature should take the stop-band series) at a scalar tau, or
    arrays of the four at a column of taus or at rows of positions (one
    structure-function call on each taus x pairs or rows x pairs block)."""
    total, magnitude = plan.sums(deltas, lambda lag: spec.structure_function(tau * lag))
    value, bound = -2.0 * total + 0.0, 2.0 * PAIR_ROUNDING * magnitude
    return value, bound, bound <= 0.1 * cfg.rel_tol * value, bound >= abs(value)


def _quadrature(jobs, spec, cfg):
    """chi by quadrature for each (seq, tau, series) job, all integrated
    together: per job (chi, full_output dict) or the ToleranceNotMet to raise.

    With series=True F comes from StopBandFilter. On either route the
    support's truncation enters the error: the chi weight of the spectrum
    beyond the support (spec.tail_weight) times max F = (sum |c|)^2. The
    support is widened until that is at most 0.1 * cfg.rel_tol * chi, unless
    the wider support would start with more than quadrature._MAX_PANELS
    panels; the job then raises, the dropped tail in its error. A
    quadrature that gives up is retried on the wider support when the tail
    it dropped could outweigh its best value (a support that ends in the
    stop band leaves F below the rounding floor). Jobs that widen are
    integrated together again.
    """
    out = [None] * len(jobs)
    epsilon = [min(cfg.rel_tol / 10.0, 0.1)] * len(jobs)
    todo = list(range(len(jobs)))
    for widening in range(_WIDENINGS + 1):
        if not todo:
            break
        runs = _integrate_chi([jobs[i] for i in todo], [epsilon[i] for i in todo], spec, cfg)
        again = []
        for i, (result, err, failed, info) in zip(todo, runs):
            dropped = float(spec.tail_weight(epsilon[i]))
            if dropped:
                dropped *= float(np.abs(_switching_times(jobs[i][0])[2]).sum()) ** 2   # max F
            if not (dropped == 0.0 or dropped <= 0.1 * cfg.rel_tol * result
                    or widening == _WIDENINGS):
                epsilon[i] *= 0.05 * cfg.rel_tol * result / dropped
                if epsilon[i] >= _MIN_EPSILON:
                    lo, hi = effective_support(spec, epsilon[i])
                    if (hi - lo) / panel_width(jobs[i][1]) <= _MAX_PANELS:    # fits the cap
                        again.append(i)
                        continue
            if failed or dropped > 0.1 * cfg.rel_tol * result:
                out[i] = shortfall(result, err + dropped, "chi")
            else:
                out[i] = (result, {"path": "quadrature", "error_estimate": err + dropped, **info})
        todo = again
    return out


_WIDENINGS = 3           # support widenings allowed per chi
_MIN_EPSILON = 1e-300    # smallest support tail share asked of a spectrum


def _integrate_chi(jobs, epsilons, spec, cfg):
    """(chi, error, failed, info) per (seq, tau, series) job, from quadrature
    on effective_support(spec, epsilon). Every job's full panels are
    2 pi / OSCILLATION_RESOLUTION wide in u = omega * tau (the filter's
    passband period over the resolution), so one node table serves them
    all; quadrature.spectrum_edges adds the spectrum's kinks and, for a
    spectrum singular at omega = 0, geometric panels toward it."""
    filters, which, infos, edge_sets = [], [], [], []
    direct = {}         # id(seq) -> index of its direct filter
    supports = {}       # (epsilon, tau) -> (lo, hi, edges), shared by its jobs
    for (seq, tau, series), epsilon in zip(jobs, epsilons):
        if (epsilon, tau) not in supports:
            lo, hi = effective_support(spec, epsilon)
            supports[epsilon, tau] = lo, hi, spectrum_edges(spec, lo, hi, panel_width(tau))
        lo, hi, edges = supports[epsilon, tau]
        if series:
            filt = StopBandFilter(seq, hi * tau)
            which.append(len(filters))
            filters.append(filt)
            info = {"filter": "series", "series_degree": filt.degree,
                    "crossover_u": filt.crossover}
        else:
            if id(seq) not in direct:
                direct[id(seq)] = len(filters)
                filters.append(functools.partial(filter_value_finite, seq))
            which.append(direct[id(seq)])
            info = {"filter": "direct"}
        info["support"] = (lo, hi)
        infos.append(info)
        edge_sets.append(edges)
    taus, which = np.array([job[1] for job in jobs]), np.array(which)

    def integrand(om, owner):
        u = om * taus[owner, None]
        if len(filters) == 1:
            f = filters[0](u, nodes=NODES)
        else:
            f, rows_of = np.empty(u.shape), which[owner]
            for k in np.unique(rows_of):
                rows = rows_of == k
                f[rows] = filters[k](u[rows], nodes=NODES)
        return spec.evaluate(om) * f / om ** 2

    out = []
    for value, err, n_panels, converged, info in zip(
            *(a.tolist() for a in integrate_batch(integrand, edge_sets, cfg)), infos):
        info["panels"] = n_panels
        out.append(((2.0 / np.pi) * value, (2.0 / np.pi) * err, not converged, info))
    return out


def coherence_w(seq, spec, tau, cfg=None):
    """W = exp(-chi), in [0, 1]."""
    return float(np.exp(-chi(seq, spec, tau, cfg)))


def white_fid_chi(level, tau):
    """Analytic anchor: FID under band-limited white noise, wide-band limit."""
    if not 0 <= level < math.inf:      # WhiteBand's rule
        raise ValueError(f"level must be finite and >= 0, got {float(level)!r}")
    return 0.5 * level * _positive(tau, "tau")


@dataclass(frozen=True, slots=True)
class CoherenceCurve:
    """Per-tau chi and W for a sequence source against one spectrum."""

    tau_grid: np.ndarray
    chi_values: np.ndarray
    labels: tuple            # per-tau "family:n", one string per distinct sequence
    pulse_counts: tuple
    # chi's full_output fields as per-tau columns: a NumPy array per numeric
    # field ("error_estimate", "panels" and "series_degree" as int32,
    # "support" as taus x 2, "crossover_u"), a tuple per string field
    # ("path", "filter"). A column is present when some tau's route has the
    # field; taus whose route has not are filled with "" (strings), 0
    # ("panels", "series_degree") or NaN ("support", "crossover_u").
    diagnostics: dict = field(default_factory=dict)

    @property
    def w_values(self):
        """W = exp(-chi) per tau, computed on access (not stored)."""
        return np.exp(-self.chi_values)


_FILL = {"filter": "", "panels": 0, "series_degree": 0, "support": (math.nan, math.nan),
         "crossover_u": math.nan}


def coherence_curve(source, spec, tau_grid, cfg=None):
    """Evaluate chi and W over a tau grid, each tau as chi would.

    source is either a fixed PulseSequence or a callable tau -> sequence
    (family at fixed n, or an optimizer output per tau). The taus of each
    distinct sequence take the pairwise route in one structure-function
    call, and every tau left for quadrature, of any sequence, is
    integrated in one batch. A batch that raises is retried tau by tau.
    Per-point failures are aggregated into a single CurveFailure carrying
    (index, exception) pairs; its message names the first failure's
    exception and, for ToleranceNotMet, its best value and achieved error.
    """
    taus = np.asarray(tau_grid, dtype=float)
    if (taus.size == 0 or not np.all(np.isfinite(taus)) or np.any(taus <= 0)
            or np.any(np.diff(taus) <= 0)):
        raise ValueError("tau_grid must be finite, positive and strictly increasing")
    cfg = cfg or QuadratureConfig()
    pick = source if callable(source) else (lambda _t: source)

    groups, failures = {}, {}     # sequence key -> (seq, label, indices); index -> exception
    for i, tau in enumerate(taus):
        try:
            seq = pick(tau)
            key = (seq.label, seq.width_ratio, seq.deltas)
        except Exception as exc:  # aggregated below
            failures[i] = exc
            continue
        groups.setdefault(key, (seq, f"{seq.label}:{seq.n}", []))[2].append(i)

    results, jobs, job_index = {}, [], []
    for seq, _label, idx in groups.values():
        try:
            routes = _pairwise_routes(seq, spec, taus[idx], cfg)
        except Exception:  # each tau reports its own failure
            routes = [_attempt(lambda i=i: _chi(seq, spec, taus[i], cfg, True)) for i in idx]
        for i, route in zip(idx, routes):
            if isinstance(route, (tuple, Exception)):
                (failures if isinstance(route, Exception) else results)[i] = route
            else:
                jobs.append((seq, taus[i], route))
                job_index.append(i)
    try:
        outs = _quadrature(jobs, spec, cfg)
    except Exception:  # each job reports its own failure
        outs = [_attempt(lambda job=job: _quadrature([job], spec, cfg)[0]) for job in jobs]
    for i, out in zip(job_index, outs):
        (failures if isinstance(out, Exception) else results)[i] = out

    if failures:
        idx = sorted(failures)
        first = failures[idx[0]]
        cause = f"{type(first).__name__}: {first}"
        if isinstance(first, ToleranceNotMet):
            cause += f" (value {first.value:.6e}, achieved {first.achieved:.3e})"
        raise CurveFailure(f"curve evaluation failed at indices {idx}; first at "
                           f"tau={taus[idx[0]]:.6g}: {cause}", [(i, failures[i]) for i in idx])
    chi_values = np.array([results[i][0] for i in range(taus.size)])
    labels, counts = [None] * taus.size, [None] * taus.size
    for seq, label, idx in groups.values():
        for i in idx:
            labels[i], counts[i] = label, seq.n
    infos = [results[i][1] for i in range(taus.size)]
    keys = dict.fromkeys(k for info in infos for k in info)
    columns = {}
    for k in keys:
        column = [info.get(k, _FILL.get(k)) for info in infos]
        if isinstance(column[0], str):
            columns[k] = tuple(column)
        else:
            columns[k] = np.array(column, dtype=np.int32 if isinstance(column[0], int) else float)
    return CoherenceCurve(tau_grid=taus, chi_values=chi_values, labels=tuple(labels),
                          pulse_counts=tuple(counts), diagnostics=columns)


def _pairwise_routes(seq, spec, taus, cfg):
    """Per tau, (chi, full_output) where the pairwise route meets the
    tolerance, else whether quadrature should take the stop-band series.
    Taus go through the plan in chunks whose taus x pairs block stays
    within the plan's block size."""
    if spec.structure_function is None:
        return [False] * taus.size
    plan = pair_plan(seq.n, seq.width_ratio)
    step = plan.taus_per_sum
    parts = [_pairwise(plan, seq.deltas, spec, taus[i:i + step, None], cfg)
             for i in range(0, taus.size, step)]
    value, bound, done, series = (np.concatenate(p).tolist() for p in zip(*parts))
    return [(v, {"path": "pairwise", "error_estimate": b}) if d else s
            for v, b, d, s in zip(value, bound, done, series)]


def _attempt(compute):
    """compute(), or the exception it raised (aggregated by the caller)."""
    try:
        return compute()
    except Exception as exc:
        return exc
