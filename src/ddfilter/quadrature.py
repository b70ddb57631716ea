"""Composite Gauss-Legendre quadrature tuned for oscillatory integrands.

The integrands here (filter functions against noise spectra) oscillate
with a known period in u = omega*tau, so panels are sized from that
scale up front (OSCILLATION_RESOLUTION = 4 panels per period 2 pi, where GL10 still
resolves the fastest filter cosine to about 1e-21 of a panel's value)
and refined adaptively only where the 21- vs 10-point rule disagreement
says the tolerance is not met.

integrate_batch runs several integrals together (a coherence curve's tau
grid): each round calls the integrand on the new panels of every integral
still refining, on panels x 31 nodes mid + hw NODES (GL21, then GL10;
NODES[10] = 0 is the midpoint exactly), so an integrand can factor its
work per panel, as filters._panel_z does. Each integral keeps its own
error budget and halving rule; integrate is the batch of one. The panels
go to the integrand in calls of at most _CALL_NODES nodes, and a batch
stops halving at _MAX_PANELS panels in total (or its starting count, if
larger), so memory stays bounded when an integral never converges; an
integral refused a halving there is integrated again on its own, so the
cap any integral meets is the one it would meet alone.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ToleranceNotMet, _integer

_nodes = functools.cache(leggauss)     # (nodes, weights) of the n-point rule


ABS_TOL = 1e-300               # absolute error floor of every budget
OSCILLATION_RESOLUTION = 4     # panels per period 2 pi of the fastest oscillation


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-8
    max_subdivisions: int = 12

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")
        _integer(self.max_subdivisions, "max_subdivisions", 0)


_W21, _W10 = _nodes(21)[1], _nodes(10)[1]
NODES = np.concatenate([_nodes(21)[0], _nodes(10)[0]])   # one round's node offsets on [-1, 1]
_CALL_NODES = 1 << 16     # nodes per integrand call
_MAX_PANELS = 1 << 18     # panels per refinement batch, unless it starts with more


def build_edges(a, b, breakpoints=(), max_panel=None):
    """Panel edges over [a, b]: honors interior kinks and a width cap.

    Between kinks the panels are max_panel wide, but the last, which takes
    the remainder, so integrals whose caps map to one width in u share it."""
    if not -math.inf < a < b < math.inf:
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    if not (max_panel is None or 0 < max_panel < math.inf):
        raise ValueError(f"max_panel must be finite and > 0, got {max_panel!r}")
    pts = np.array([a] + sorted(p for p in breakpoints if a < p < b) + [b], dtype=float)
    if max_panel is None:
        return pts
    lo, hi = pts[:-1], pts[1:]
    counts = np.maximum(np.ceil((hi - lo) / max_panel), 1).astype(int)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    edges = np.repeat(lo, counts) + max_panel * (np.arange(first.size) - first)
    edges = edges[edges < np.repeat(hi, counts)]     # rounding may put the last at hi
    return np.append(edges, b)


def panel_nodes(edges, order):
    """Flattened nodes and weights of the order-point Gauss-Legendre rule on
    every panel of `edges`, for a fixed (non-adaptive) weighted sum."""
    xg, wg = _nodes(order)
    a, b = edges[:-1], edges[1:]
    hw, mid = 0.5 * (b - a), 0.5 * (a + b)
    nodes = (mid[:, None] + hw[:, None] * xg[None, :]).ravel()
    return nodes, (wg[None, :] * hw[:, None]).ravel()


def _panel_values(f, lo, hi, owner):
    """(GL21 value, |GL21-GL10| error) per panel, calling f on at most
    _CALL_NODES nodes at a time."""
    hw = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    step = _CALL_NODES // NODES.size
    v2, v1 = np.empty(lo.size), np.empty(lo.size)
    for i in range(0, lo.size, step):
        y = f(mid[i:i + step, None] + hw[i:i + step, None] * NODES, owner[i:i + step])
        v2[i:i + step] = np.add.reduce(y[:, :21] * _W21, 1) * hw[i:i + step]
        v1[i:i + step] = np.add.reduce(y[:, 21:] * _W10, 1) * hw[i:i + step]
    return v2, np.abs(v2 - v1)


def integrate_batch(f, edge_sets, cfg=None):
    """Integrate one elementwise integrand per edge set, all together.

    f(x, owner) gets a panels x len(NODES) node array and, per panel row,
    the index of the edge set it belongs to. Returns arrays (values,
    error_estimates, n_panels), one entry per edge set. Each integral halves
    the panels whose local error exceeds an equal share of its own budget
    max(rel_tol |value|, ABS_TOL), up to cfg.max_subdivisions rounds, until
    its error is within the budget. An error above the budget is the
    caller's to report.

    Each integral gets what integrate gives it alone. A batch stops halving
    at max(_MAX_PANELS, starting panels) in total; an integral refused a
    halving there is integrated again on its own, under its own cap.
    """
    cfg = cfg or QuadratureConfig()
    edge_sets = [np.asarray(e, dtype=float) for e in edge_sets]
    if any(e.size < 2 for e in edge_sets):
        raise ValueError("need at least two panel edges")
    if not np.isfinite(np.concatenate(edge_sets)).all():
        raise ValueError("panel edges must be finite")
    values, errors, counts, refused = _refine(f, edge_sets, cfg)
    if len(edge_sets) > 1:
        for k in np.flatnonzero(refused):
            alone = _refine(lambda x, _owner, k=k: f(x, np.full(x.shape[0], k)),
                            [edge_sets[k]], cfg)
            values[k], errors[k], counts[k] = (a[0] for a in alone[:3])
    return values, errors, counts


def _refine(f, edge_sets, cfg):
    """integrate_batch's refinement rounds under one panel cap: (values,
    errors, counts, refused), where refused marks the integrals that
    stopped because a halving would have passed the cap. Halvings are
    granted integral by integral, in order, while they fit."""
    k = len(edge_sets)
    counts = np.array([e.size - 1 for e in edge_sets])
    lo = np.concatenate([e[:-1] for e in edge_sets])
    hi = np.concatenate([e[1:] for e in edge_sets])
    owner = np.arange(k).repeat(counts)
    vals, errs = _panel_values(f, lo, hi, owner)
    cap = max(_MAX_PANELS, lo.size)
    refining, refused = np.ones(k, dtype=bool), np.zeros(k, dtype=bool)
    for rounds in range(cfg.max_subdivisions + 1):
        starts = counts.cumsum() - counts
        values, errors = np.add.reduceat(vals, starts), np.add.reduceat(errs, starts)
        budget = np.maximum(cfg.rel_tol * np.abs(values), ABS_TOL)
        refining &= errors > budget
        if rounds == cfg.max_subdivisions or not refining.any():
            break
        bad = refining[owner] & (errs > (budget / counts)[owner])
        stuck = refining & (np.bincount(owner, weights=bad, minlength=k) == 0)
        if stuck.any():     # no panel above its share: halve the worst
            worst = np.maximum.reduceat(errs, starts)
            bad |= stuck[owner] & (errs == worst[owner])
        added = np.bincount(owner[bad], minlength=k)
        fits = lo.size + added.cumsum() <= cap
        refused |= refining & ~fits
        refining &= fits
        bad &= fits[owner]
        if not bad.any():
            break
        counts = counts + added * fits
        mid = 0.5 * (lo[bad] + hi[bad])
        add_owner = np.concatenate([owner[bad], owner[bad]])
        add_v, add_e = _panel_values(f, np.concatenate([lo[bad], mid]),
                                     np.concatenate([mid, hi[bad]]), add_owner)
        # each integral's panels stay together: kept, left halves, right halves
        order = np.argsort(np.concatenate([owner[~bad], add_owner]), kind="stable")
        lo = np.concatenate([lo[~bad], lo[bad], mid])[order]
        hi = np.concatenate([hi[~bad], mid, hi[bad]])[order]
        vals = np.concatenate([vals[~bad], add_v])[order]
        errs = np.concatenate([errs[~bad], add_e])[order]
        owner = np.concatenate([owner[~bad], add_owner])[order]
    return values, errors, counts, refused


def integrate(f, edges, cfg=None):
    """Integrate an elementwise f, called on panels x len(NODES) node
    arrays, over the paneled interval.

    Returns (value, error_estimate, n_panels): integrate_batch on one edge
    set. When the error estimate is above max(rel_tol |value|, ABS_TOL)
    ToleranceNotMet carries the best value and the achieved estimate.
    """
    cfg = cfg or QuadratureConfig()
    values, errors, panels = integrate_batch(lambda x, _owner: f(x), [edges], cfg)
    value, achieved = float(values[0]), float(errors[0])
    if not achieved <= max(cfg.rel_tol * abs(value), ABS_TOL):     # NaN fails too
        raise ToleranceNotMet(
            f"quadrature error {achieved:.3e} above tolerance for value {value:.6e}",
            value=value,
            achieved=achieved,
        )
    return value, achieved, int(panels[0])
