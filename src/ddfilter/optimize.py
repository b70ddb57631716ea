"""Numerical sequence design.

LODD minimizes chi for a given spectrum and tau; OFDD minimizes the
filter-function area up to a dimensionless cutoff; BADD sweeps the pulse
count under a minimum-gap constraint and returns the best sequence.

All three share one engine: positions are parameterized by n+1 positive
gaps summing to 1 via an additive log-ratio transform (x in R^n maps
bijectively onto the open simplex interior), which removes the ordering
constraint; Nelder-Mead runs in x-space from canonical-family starts
plus seeded jitter. A minimum-gap constraint g_i >= gmin becomes an
affine squeeze of the simplex, and infeasible starting gaps are first
projected (Euclidean) onto the constrained set.

The objectives map a position array straight to a value, with no
PulseSequence per evaluation: they raise make_custom's DDError for
positions it rejects (the engine scores those inf), and the pairwise sums
run on filters.pair_plan, built once per pulse count. Only a quadrature
fallback (pairwise rounding bound too large, or a spectrum without a
structure function) and the final result build a sequence.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .coherence import _chi
from .errors import DDError, Infeasible, NotConverged, _integer
from .filters import PAIR_ROUNDING, filter_value, pair_plan
from .oracle import _grid_cos_sum
from .quadrature import QuadratureConfig, build_edges, integrate, panel_nodes
from .sequences import (PulseSequence, _validate, canonical_deltas, make_custom,
                        min_gap)


@dataclass(frozen=True)
class OptimizationConfig:
    restarts: int = 2              # jittered starts beyond the 3 canonical seeds
    max_iterations: int = None     # per-start Nelder-Mead cap (None = solver default)
    tol: float = 1e-10             # objective convergence tolerance (fatol)
    seed: int = 0
    min_gap_fraction: float = None  # optional constraint: every gap >= this

    def __post_init__(self):
        _integer(self.restarts, "restarts", 0)
        if self.max_iterations is not None:
            _integer(self.max_iterations, "max_iterations", 1)
        _positive(self.tol, "tol")
        gmin = self.min_gap_fraction
        if gmin is not None and not (isinstance(gmin, numbers.Real) and 0.0 <= gmin < 1.0):
            raise ValueError(f"min_gap_fraction must be in [0, 1), got {gmin!r}")


def _positive(value, name):
    """value as a float, or ValueError unless it is a finite number > 0."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class OptimizationResult:
    sequence: PulseSequence
    objective_value: float
    baseline_values: dict          # objective at (projected) cpmg/pdd/udd, same n
    diagnostics: dict

    def to_dict(self):
        return {
            "sequence": self.sequence.to_dict(),
            "objective_value": self.objective_value,
            "baseline_values": dict(self.baseline_values),
            "diagnostics": dict(self.diagnostics),
        }


# ------------------------------------------------------- gap parameterization

def gaps_to_deltas(gaps):
    return np.cumsum(gaps)[:-1]


def deltas_to_gaps(deltas):
    d = np.concatenate([[0.0], np.asarray(deltas, dtype=float), [1.0]])
    return np.diff(d)


def alr_to_gaps(x):
    """R^n -> interior of the (n+1)-gap simplex, shift-invariant softmax."""
    z = np.concatenate([np.asarray(x, dtype=float), [0.0]])
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def gaps_to_alr(gaps):
    g = np.maximum(np.asarray(gaps, dtype=float), 1e-12)
    return np.log(g[:-1] / g[-1])


def project_gaps(gaps, gmin):
    """Euclidean projection onto {g_i >= gmin, sum g = 1}."""
    g = np.asarray(gaps, dtype=float)
    m = g.size
    budget = 1.0 - m * gmin
    if budget < 0:
        raise Infeasible(f"{m} gaps of at least {gmin:g} exceed the unit interval")
    if budget <= 1e-15:
        return np.full(m, 1.0 / m)  # constraint consumes the whole interval
    v = g - gmin
    # project v onto the simplex scaled to `budget` (sort-based algorithm)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - budget
    rho = np.nonzero(u - css / np.arange(1, m + 1) > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return gmin + np.maximum(v - theta, 0.0)


def _squeeze(raw_gaps, gmin):
    """Map the free simplex onto {g >= gmin, sum = 1} (smooth, bijective)."""
    m = raw_gaps.size
    return gmin + (1.0 - m * gmin) * raw_gaps


def _unsqueeze(gaps, gmin):
    m = gaps.size
    scale = 1.0 - m * gmin
    return (gaps - gmin) / scale


# ------------------------------------------------------------------ objectives

_OBJ_QUAD = QuadratureConfig(rel_tol=1e-7, max_subdivisions=8)
_AREA_QUAD = QuadratureConfig(rel_tol=1e-9, max_subdivisions=6)
_RESOLUTION = 8          # panels per 2 pi of the fastest cosine: area fallback, kernel table
_KERNEL_POINTS = 40001   # uniform lags 0, 1/40000, ..., 1 of the BADD kernel table


def _chi_objective(spec, tau):
    """chi(make_custom(deltas), spec, tau, _OBJ_QUAD) from the position
    array: the pairwise route needs no PulseSequence, quadrature builds one."""
    def f(deltas):
        d = np.asarray(deltas, dtype=float)
        _validate(d, 0.0)
        return _chi(d, 0.0, spec, tau, _OBJ_QUAD)
    return f


def _area_objective(u_max):
    """Filter area on [0, u_max]: the exact pairwise sine sum

        int_0^U F(u) du = U sum_k c_k^2 + 2 sum_{j<k} c_j c_k sin(U dt_jk) / dt_jk,

    or, when its rounding bound 64 eps U (sum_k |c_k|)^2 (every kernel
    value and its argument error are bounded by U) exceeds a tenth of the
    quadrature's relative tolerance, quadrature of the cancellation-free
    filter.
    """
    u_max = _positive(u_max, "u_max")

    @functools.cache
    def edges():    # u_max / (2 pi / _RESOLUTION) panels, built on the first fallback
        return build_edges(0.0, u_max, max_panel=2.0 * np.pi / _RESOLUTION)

    def f(deltas):
        d = np.asarray(deltas, dtype=float)
        _validate(d, 0.0)
        plan = pair_plan(d.size, 0.0)
        total, _mag = plan.sums(d, lambda lag: np.sin(u_max * lag) / lag)
        value = u_max * float(plan.c @ plan.c) + 2.0 * total
        bound = PAIR_ROUNDING * u_max * float(np.abs(plan.c).sum()) ** 2
        if bound <= 0.1 * _AREA_QUAD.rel_tol * value:
            return value
        seq = make_custom(d)
        value, _err, _np_ = integrate(lambda u: filter_value(seq, u), edges(), _AREA_QUAD,
                                      raise_on_fail=False)
        return value
    return f


def filter_area(seq, u_max):
    """Area under the ideal F(u) from 0 to u_max (the OFDD objective)."""
    if seq.width_ratio != 0:
        raise ValueError("filter_area requires width_ratio 0 (the ideal filter)")
    return _area_objective(u_max)(seq.deltas)


def _kernel_chi_objective(spec, tau):
    """Pairwise-kernel form of chi, BADD's search surrogate for spectra
    without a structure function:

        chi(deltas) = K(0) sum_k c_k^2 + 2 sum_{j<k} c_j c_k K(d_jk),
        K(d) = (2/pi) integral S(omega) cos(omega tau d) / omega^2 domega,

    with c the phasor coefficients of ytilde. K is tabulated once on
    _KERNEL_POINTS uniform lags by the oracle's grid cosine sum over fixed
    GL21 panels (no error estimate) and linearly interpolated, so BADD
    re-scores every winner with chi.
    """
    lo, hi = spec.effective_support(1e-10)
    edges = build_edges(lo, hi, breakpoints=spec.breakpoints(),
                        max_panel=2.0 * np.pi / (tau * _RESOLUTION))
    om, wts = panel_nodes(edges, 21)
    lags = np.linspace(0.0, 1.0, _KERNEL_POINTS)
    table = (2.0 / np.pi) * _grid_cos_sum(spec.evaluate(om) / om ** 2 * wts, om,
                                          tau * lags[1], lags.size)

    def f(deltas):
        plan = pair_plan(len(deltas), 0.0)
        total, _mag = plan.sums(deltas, lambda lag: np.interp(lag, lags, table))
        return table[0] * float(plan.c @ plan.c) + 2.0 * total
    return f


# ---------------------------------------------------------------- core engine

_STEP_SCALE = 0.3    # initial simplex step and start jitter in log-ratio space


def _nm_start(objective_x, x0, cfg):
    n = x0.size
    simplex = np.vstack([x0] + [x0 + _STEP_SCALE * np.eye(n)[i] for i in range(n)])
    options = {"xatol": 1e-8, "fatol": cfg.tol, "initial_simplex": simplex,
               "maxiter": cfg.max_iterations if cfg.max_iterations else 200 * n,
               "maxfev": 10 ** 9}
    return minimize(objective_x, x0, method="Nelder-Mead", options=options)


def _optimize_core(objective, n, cfg, gmin=0.0):
    """Shared LODD/OFDD/BADD engine over n pulse positions.

    objective maps a delta array to a scalar. Returns (best, deltas,
    baselines): the best start across canonical starts and jittered
    copies (the first of equals), its positions, and the objective at the
    canonical starts. A constraint that leaves one feasible point returns
    the uniform gaps; a zero objective at every canonical start (zero
    spectrum) returns the UDD baseline, projected onto the constraint as
    the baselines are, with best["degenerate"] set.
    """
    if gmin > 0 and (n + 1) * gmin > 1.0:
        raise Infeasible(
            f"n={n} needs {n + 1} gaps of at least {gmin:g}; does not fit")
    if gmin > 0 and 1.0 - (n + 1) * gmin <= 1e-12:
        # constraint leaves a single feasible point: uniform gaps
        deltas = gaps_to_deltas(np.full(n + 1, 1.0 / (n + 1)))
        val = float(objective(deltas))
        best = {"objective": val, "label": "uniform", "iterations": 0,
                "function_evals": 1, "converged": True}
        return best, deltas, {"udd": val, "cpmg": val, "pdd": val}

    def to_deltas(x):
        raw = np.maximum(alr_to_gaps(x), 1e-15)
        raw = raw / raw.sum()
        return gaps_to_deltas(_squeeze(raw, gmin) if gmin > 0 else raw)

    def objective_x(x):
        try:
            return objective(to_deltas(x))
        except DDError:
            return np.inf

    starts = []
    baselines = {}
    for fam in ("udd", "cpmg", "pdd"):
        gaps = deltas_to_gaps(canonical_deltas(fam, n))
        if gmin > 0:
            gaps = project_gaps(gaps, gmin)
            raw = np.maximum(_unsqueeze(gaps, gmin), 1e-9)
            raw = raw / raw.sum()
        else:
            raw = gaps
        x0 = gaps_to_alr(raw)
        starts.append((fam, x0))
        baselines[fam] = float(objective(to_deltas(x0)))

    rng = np.random.default_rng(cfg.seed)
    for k in range(cfg.restarts):
        base = starts[k % 3][1]
        starts.append((f"jitter{k}", base + rng.normal(0.0, 1.0, n) * _STEP_SCALE))

    if all(v == 0.0 for v in baselines.values()):
        # degenerate objective (zero spectrum): retain the (projected) UDD baseline
        best = {"objective": 0.0, "label": "udd", "iterations": 0, "function_evals": 0,
                "converged": True, "degenerate": True}
        return best, to_deltas(starts[0][1]), baselines

    best = None
    for lbl, x0 in starts:
        res = _nm_start(objective_x, np.asarray(x0, dtype=float), cfg)
        if best is None or res.fun < best["objective"]:
            best = {"objective": float(res.fun), "label": lbl, "x": res.x,
                    "iterations": int(res.nit), "function_evals": int(res.nfev),
                    "converged": bool(res.success)}
    if not np.isfinite(best["objective"]):
        raise NotConverged("no optimization start produced a finite objective")
    return best, to_deltas(best["x"]), baselines


def _result(best, deltas, baselines, cfg, label, gmin=0.0, **extra):
    """The OptimizationResult of LODD, OFDD and BADD from _optimize_core's
    (best, deltas, baselines); a degenerate run keeps the UDD label."""
    degenerate = best.get("degenerate", False)
    seq = make_custom(deltas, label="udd" if degenerate else label)
    diag = {
        "converged": best["converged"],
        "iterations": best["iterations"],
        "function_evals": best["function_evals"],
        "restarts": cfg.restarts,
        "start_label": best["label"],
        "constraint_slack": float(min_gap(seq) - gmin) if gmin > 0 else None,
        **extra,
    }
    if degenerate:
        diag["degenerate"] = True
    return OptimizationResult(seq, best["objective"], baselines, diag)


def optimize_lodd(spec, n, tau, cfg=None):
    """Minimize chi over pulse positions for a fixed spectrum and tau."""
    cfg = cfg or OptimizationConfig()
    n = _integer(n, "LODD pulse count n", 1)
    tau = _positive(tau, "tau")
    gmin = cfg.min_gap_fraction or 0.0
    return _result(*_optimize_core(_chi_objective(spec, tau), n, cfg, gmin), cfg, "lodd", gmin)


def optimize_ofdd(n, u_max, cfg=None):
    """Minimize the filter-function area on [0, u_max]; spectrum-free."""
    cfg = cfg or OptimizationConfig()
    n = _integer(n, "OFDD pulse count n", 1)
    gmin = cfg.min_gap_fraction or 0.0
    return _result(*_optimize_core(_area_objective(u_max), n, cfg, gmin), cfg, "ofdd", gmin)


def optimize_badd(spec, tau, tau_switch, n_max, cfg=None):
    """Minimum-gap-constrained optimization over pulse count and positions.

    For each n up to min(n_max, floor(tau/tau_switch) - 1), runs the
    constrained position optimization and returns the overall best. The
    inner objective is chi itself (pairwise wherever the spectrum has a
    structure function), except for spectra without a closed-form D: there
    a tabulated pairwise kernel is the fast surrogate. Every per-n winner
    is scored with chi. Baselines are the projected (feasible) canonical
    sequences at the winning n.
    """
    cfg = cfg or OptimizationConfig()
    tau, tau_switch = _positive(tau, "tau"), _positive(tau_switch, "tau_switch")
    if not tau > tau_switch:
        raise ValueError("require tau > tau_switch > 0")
    n_max = _integer(n_max, "n_max", 1)
    gmin = tau_switch / tau
    n_hi = min(n_max, int(np.floor(tau / tau_switch * (1.0 + 1e-12))) - 1)
    if n_hi < 1:
        raise Infeasible(
            f"tau_switch={tau_switch:g} leaves no room for one pulse in tau={tau:g}")

    kernel = spec.structure_function is None
    true_chi = _chi_objective(spec, tau)
    inner = _kernel_chi_objective(spec, tau) if kernel else true_chi

    per_n = []
    entries = []
    for n in range(1, n_hi + 1):
        best, deltas, _ = _optimize_core(inner, n, cfg, gmin=gmin)
        value = float(true_chi(deltas))
        # the result is the best over n, labelled BADD even on a zero spectrum
        entries.append((value, n, dict(best, objective=value, degenerate=False), deltas))
        per_n.append({"n": n, "objective": value, "converged": best["converged"]})
    _, n_best, best, deltas = min(entries, key=lambda e: e[:2])

    baselines = {}
    for fam in ("udd", "cpmg", "pdd"):
        gaps = project_gaps(deltas_to_gaps(canonical_deltas(fam, n_best)), gmin)
        baselines[fam] = float(true_chi(gaps_to_deltas(gaps)))
    return _result(best, deltas, baselines, cfg, "badd", gmin, n_best=n_best, n_limit=n_hi,
                   kernel_objective=kernel, per_n=per_n)
