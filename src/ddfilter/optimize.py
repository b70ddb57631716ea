"""Numerical sequence design.

LODD minimizes chi for a given spectrum and tau; OFDD minimizes the
filter-function area up to a dimensionless cutoff; BADD sweeps the pulse
count under a minimum-gap constraint and returns the best sequence.

All three share one engine: positions are parameterized by n+1 positive
gaps summing to 1 via an additive log-ratio transform (x in R^n maps
bijectively onto the open simplex interior), which removes the ordering
constraint; Nelder-Mead runs in x-space from canonical-family starts
plus seeded jitter, all starts in lockstep (minimize): each objective call
of a simplex step takes the points of every running start that needs one.
A minimum-gap constraint g_i >= gmin becomes an affine squeeze of the
simplex, and infeasible starting gaps are first projected (Euclidean)
onto the constrained set.

The objectives map a (rows, n) position array straight to one value per
row, with no PulseSequence per evaluation: rows that make_custom would
reject score inf, and the pairwise sums run on filters.pair_plan, built
once per pulse count. The rows whose pairwise rounding bound is too large
go to quadrature in one batch per objective call: the area's straight
from their positions (filters._node_z over rows), chi's (also every row
of a spectrum without a structure function) through the coherence
quadrature, one sequence per row. Only those chi rows and the final
result build a sequence; a DDError chi raises propagates, or scores inf
in the search.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .coherence import _pairwise, _quadrature
from .errors import DDError, Infeasible, NotConverged, _integer
from .filters import PAIR_ROUNDING, _node_z, pair_plan
from .oracle import _grid_cos_sum
from .quadrature import QuadratureConfig, build_edges, integrate_batch, panel_nodes
from .sequences import PulseSequence, canonical_deltas, make_custom, min_gap


@dataclass(frozen=True)
class OptimizationConfig:
    restarts: int = 2              # jittered starts beyond the 3 canonical seeds
    max_iterations: int = None     # per-start Nelder-Mead cap (None = 200 n)
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
    return np.cumsum(gaps, axis=-1)[..., :-1]


def deltas_to_gaps(deltas):
    d = np.concatenate([[0.0], np.asarray(deltas, dtype=float), [1.0]])
    return np.diff(d)


def alr_to_gaps(x):
    """R^n -> interior of the (n+1)-gap simplex, shift-invariant softmax
    (row by row on an array of points)."""
    x = np.asarray(x, dtype=float)
    z = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    z[..., :-1] = x
    z -= z.max(-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(-1, keepdims=True)
    return z


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


def _to_deltas(x, gmin):
    """Pulse positions of the log-ratio points x (rows of x, or one point):
    the gaps alr_to_gaps(x), each raised to at least 1e-15 and renormalised,
    then, for gmin > 0, the free simplex mapped onto {g >= gmin, sum = 1} by
    the affine squeeze g -> gmin + (1 - (n+1) gmin) g (smooth, bijective),
    summed. Every step works in place on alr_to_gaps' buffer."""
    g = alr_to_gaps(x)
    np.maximum(g, 1e-15, out=g)
    g /= g.sum(-1, keepdims=True)
    if gmin > 0:
        g *= 1.0 - g.shape[-1] * gmin
        g += gmin
    return np.cumsum(g, axis=-1, out=g)[..., :-1]


def _unsqueeze(gaps, gmin):
    m = gaps.shape[-1]
    scale = 1.0 - m * gmin
    return (gaps - gmin) / scale


# ------------------------------------------------------------------ objectives

_OBJ_QUAD = QuadratureConfig(rel_tol=1e-7, max_subdivisions=8)
_AREA_QUAD = QuadratureConfig(rel_tol=1e-9, max_subdivisions=6)
_RESOLUTION = 8          # panels per 2 pi of the fastest cosine: area fallback, kernel table
_KERNEL_POINTS = 40001   # uniform lags 0, 1/40000, ..., 1 of the BADD kernel table


def _rows(score):
    """An objective over a (rows, n) position array: score(valid rows) on
    the rows make_custom accepts (0 < d_1 < ... < d_n < 1) and inf on the
    rest. A DDError from a row raises, or scores inf with
    raise_on_fail=False (the search)."""
    def f(deltas, raise_on_fail=True):
        d = np.asarray(deltas, dtype=float)
        ends = np.zeros((len(d), 1))
        p = np.concatenate([ends, d, ends + 1.0], axis=1)
        valid = (p[:, 1:] > p[:, :-1]).all(1)
        if valid.all():
            return score(d, raise_on_fail)
        out = np.full(len(d), np.inf)
        if valid.any():
            out[valid] = score(d[valid], raise_on_fail)
        return out
    return f


def _chi_objective(spec, tau):
    """chi(make_custom(d), spec, tau, _OBJ_QUAD) per row d: the pairwise
    route takes every row in one sum, and the rows it leaves go to
    quadrature together, one sequence per row."""
    def score(d, raise_on_fail):
        if spec.structure_function is None:
            value, rows, series = np.empty(len(d)), range(len(d)), [False] * len(d)
        else:
            value, _bound, done, series = _pairwise(pair_plan(d.shape[1], 0.0), d, spec, tau,
                                                    _OBJ_QUAD)
            if done.all():
                return value
            rows = np.flatnonzero(~done)
        try:
            outs = _quadrature([(make_custom(d[i]), tau, bool(series[i])) for i in rows],
                               spec, _OBJ_QUAD)
        except DDError as exc:      # the batch raised: every row fails with it
            outs = [exc] * len(rows)
        for i, out in zip(rows, outs):
            if isinstance(out, DDError) and raise_on_fail:
                raise out
            value[i] = np.inf if isinstance(out, DDError) else out[0]
        return value
    return _rows(score)


def _area_objective(u_max):
    """Filter area on [0, u_max] per row: the exact pairwise sine sum

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

    def score(d, _raise_on_fail):
        plan = pair_plan(d.shape[1], 0.0)
        total, _mag = plan.sums(d, lambda lag: np.sin(u_max * lag) / lag)
        value = u_max * float(plan.c @ plan.c) + 2.0 * total
        bound = PAIR_ROUNDING * u_max * float(np.abs(plan.c).sum()) ** 2
        rows = np.flatnonzero(~(bound <= 0.1 * _AREA_QUAD.rel_tol * value))
        if rows.size:
            def integrand(u, owner):    # F node by node, each panel at its row's positions
                if d.shape[1] == 0:     # FID: sin^2(u/2), as filters._filter
                    return np.sin(u / 2.0) ** 2
                z = _node_z(d[rows[owner]], u, 0.0)
                return 4.0 * (z.real ** 2 + z.imag ** 2)
            value[rows] = integrate_batch(integrand, [edges()] * rows.size, _AREA_QUAD)[0]
        return value
    return _rows(score)


def filter_area(seq, u_max):
    """Area under the ideal F(u) from 0 to u_max (the OFDD objective)."""
    if seq.width_ratio != 0:
        raise ValueError("filter_area requires width_ratio 0 (the ideal filter)")
    return float(_area_objective(u_max)([seq.deltas])[0])


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

    def score(d, _raise_on_fail):
        plan = pair_plan(d.shape[1], 0.0)
        total, _mag = plan.sums(d, lambda lag: np.interp(lag, lags, table))
        return table[0] * float(plan.c @ plan.c) + 2.0 * total
    return _rows(score)


# ---------------------------------------------------------------- core engine

_STEP_SCALE = 0.3    # initial simplex step and start jitter in log-ratio space
_XATOL = 1e-8        # Nelder-Mead's xatol: every vertex this close to the best
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5   # reflection, expansion, contraction, shrink


def _sort(sim, fsim):
    """Each start's vertices by value, best first (argsort per row, as SciPy)."""
    order = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, order], fsim[rows, order]


def minimize(objective, starts, cfg):
    """Nelder-Mead from every row of starts (starts x n) at once.

    Each start runs SciPy's Nelder-Mead step for step: the same
    coefficients, branch order, sorts and counts, with the initial simplex
    x0, x0 + _STEP_SCALE e_i, xatol _XATOL, fatol cfg.tol and maxiter
    cfg.max_iterations (200 n when None), iterations counted from 1. A NaN
    value fails every comparison, so it takes the else branches, as there.
    objective maps a (rows, n) array of points to one value per row; a
    step calls it once on the running starts' reflections, once on the
    expansion and contraction points they need, and once on the vertices
    of the starts that shrink. Returns per start a dict of SciPy's result
    fields x, fun, nit, nfev and success.
    """
    starts = np.asarray(starts, dtype=float)
    count, n = starts.shape
    maxiter = cfg.max_iterations or 200 * n
    sim = np.repeat(starts[:, None, :], n + 1, axis=1)
    sim[:, 1:] += _STEP_SCALE * np.eye(n)
    fsim = objective(sim.reshape(-1, n)).reshape(count, n + 1)
    for _ in range(2):          # SciPy sorts the first simplex twice
        sim, fsim = _sort(sim, fsim)
    nit, nfev = np.ones(count, dtype=int), np.full(count, n + 1)
    # s, f: the simplices of the running starts idx, which all share one
    # iteration count; a start that stops leaves them for sim and fsim
    idx, s, f, it = np.arange(count), sim, fsim, 1
    while it < maxiter:
        small = ((np.abs(s[:, 1:] - s[:, :1]).max((1, 2)) <= _XATOL)
                 & (np.abs(f[:, :1] - f[:, 1:]).max(1) <= cfg.tol))
        if small.any():
            sim[idx[small]], fsim[idx[small]], nit[idx[small]] = s[small], f[small], it
            idx, s, f = idx[~small], s[~small], f[~small]
            if not idx.size:
                break
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = objective(xr)
        expand = fxr < f[:, 0]
        reflect = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~reflect & (fxr < f[:, -1])
        inside = ~(expand | reflect | outside)
        # each start's second point: expansion, outside or inside contraction
        x2 = np.where(expand[:, None], (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
                      np.where(outside[:, None], (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst,
                               (1 - _PSI) * xbar + _PSI * worst))
        second = ~reflect
        f2 = np.full(idx.size, np.nan)
        if second.any():
            f2[second] = objective(x2[second])
        take2 = (expand & (f2 < fxr)) | (outside & (f2 <= fxr)) | (inside & (f2 < f[:, -1]))
        shrink = (outside | inside) & ~take2
        last, flast = np.where(take2[:, None], x2, xr), np.where(take2, f2, fxr)
        if shrink.any():
            keep = ~shrink
            s[keep, -1], f[keep, -1] = last[keep], flast[keep]
            v, fv = s[shrink], f[shrink]
            v[:, 1:] = v[:, :1] + _SIGMA * (v[:, 1:] - v[:, :1])
            fv[:, 1:] = objective(v[:, 1:].reshape(-1, n)).reshape(-1, n)
            s[shrink], f[shrink] = v, fv
        else:
            s[:, -1], f[:, -1] = last, flast
        nfev[idx] += 1 + second + n * shrink
        it += 1
        s, f = _sort(s, f)
    sim[idx], fsim[idx], nit[idx] = s, f, it
    fun = fsim.min(1)
    return [{"x": sim[i, 0], "fun": float(fun[i]), "nit": int(nit[i]), "nfev": int(nfev[i]),
             "success": bool(nit[i] < maxiter)} for i in range(count)]


def _optimize_core(objective, n, cfg, gmin=0.0):
    """Shared LODD/OFDD/BADD engine over n pulse positions.

    objective maps a (rows, n) position array to one value per row.
    Returns (best, deltas, baselines): the best start across canonical
    starts and jittered copies (the first of equals), its positions, and
    the objective at the canonical starts. A constraint that leaves one
    feasible point returns the uniform gaps; a zero objective at every
    canonical start (zero spectrum) returns the UDD baseline, projected
    onto the constraint as the baselines are, with best["degenerate"] set.
    """
    if gmin > 0 and (n + 1) * gmin > 1.0:
        raise Infeasible(
            f"n={n} needs {n + 1} gaps of at least {gmin:g}; does not fit")
    if gmin > 0 and 1.0 - (n + 1) * gmin <= 1e-12:
        # constraint leaves a single feasible point: uniform gaps
        deltas = gaps_to_deltas(np.full(n + 1, 1.0 / (n + 1)))
        val = float(objective([deltas])[0])
        best = {"objective": val, "label": "uniform", "iterations": 0,
                "function_evals": 1, "converged": True}
        return best, deltas, {"udd": val, "cpmg": val, "pdd": val}

    labels = ["udd", "cpmg", "pdd"]
    starts = []
    for fam in labels:
        gaps = deltas_to_gaps(canonical_deltas(fam, n))
        if gmin > 0:
            gaps = project_gaps(gaps, gmin)
            raw = np.maximum(_unsqueeze(gaps, gmin), 1e-9)
            raw = raw / raw.sum()
        else:
            raw = gaps
        starts.append(gaps_to_alr(raw))
    baselines = dict(zip(labels, objective(_to_deltas(np.array(starts), gmin)).tolist()))

    rng = np.random.default_rng(cfg.seed)
    for k in range(cfg.restarts):
        labels.append(f"jitter{k}")
        starts.append(starts[k % 3] + rng.normal(0.0, 1.0, n) * _STEP_SCALE)

    if all(v == 0.0 for v in baselines.values()):
        # degenerate objective (zero spectrum): retain the (projected) UDD baseline
        best = {"objective": 0.0, "label": "udd", "iterations": 0, "function_evals": 0,
                "converged": True, "degenerate": True}
        return best, _to_deltas(starts[0], gmin), baselines

    runs = minimize(lambda x: objective(_to_deltas(x, gmin), raise_on_fail=False), starts, cfg)
    best = None
    for lbl, res in zip(labels, runs):
        if best is None or res["fun"] < best["objective"]:
            best = {"objective": res["fun"], "label": lbl, "x": res["x"],
                    "iterations": res["nit"], "function_evals": res["nfev"],
                    "converged": res["success"]}
    if not np.isfinite(best["objective"]):
        raise NotConverged("no optimization start produced a finite objective")
    return best, _to_deltas(best["x"], gmin), baselines


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
    a tabulated pairwise kernel is the fast surrogate, and each per-n
    winner is scored with chi. Baselines are the projected (feasible)
    canonical sequences at the winning n.
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
        # the search's best value is chi's own (rows score independently)
        value = best["objective"] if inner is true_chi else float(true_chi([deltas])[0])
        # the result is the best over n, labelled BADD even on a zero spectrum
        entries.append((value, n, dict(best, objective=value, degenerate=False), deltas))
        per_n.append({"n": n, "objective": value, "converged": best["converged"]})
    _, n_best, best, deltas = min(entries, key=lambda e: e[:2])

    fams = ("udd", "cpmg", "pdd")
    gaps = [project_gaps(deltas_to_gaps(canonical_deltas(fam, n_best)), gmin) for fam in fams]
    baselines = dict(zip(fams, true_chi(gaps_to_deltas(np.array(gaps))).tolist()))
    return _result(best, deltas, baselines, cfg, "badd", gmin, n_best=n_best, n_limit=n_hi,
                   kernel_objective=kernel, per_n=per_n)
