"""Composite Gauss-Legendre quadrature tuned for oscillatory integrands.

The integrands here (filter functions against noise spectra) oscillate
with a known period in u = omega*tau, so panels are sized from that
scale up front and refined adaptively only where the 21- vs 10-point
rule disagreement says the tolerance is not met.
Each round calls the integrand once, on the panels x 31 nodes mid + hw NODES
(GL21, then GL10; NODES[10] = 0 is the midpoint exactly), so an integrand
can factor its work per panel, as filters._panel_z does.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ToleranceNotMet

_nodes = functools.cache(leggauss)     # (nodes, weights) of the n-point rule


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-300
    max_subdivisions: int = 12
    oscillation_resolution: int = 8

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.oscillation_resolution < 4:
            raise ValueError("oscillation_resolution must be >= 4")
        if self.max_subdivisions < 0:
            raise ValueError("max_subdivisions must be >= 0")


_W21, _W10 = _nodes(21)[1], _nodes(10)[1]
NODES = np.concatenate([_nodes(21)[0], _nodes(10)[0]])   # one round's node offsets on [-1, 1]


def build_edges(a, b, breakpoints=(), max_panel=None):
    """Panel edges over [a, b]: honors interior kinks and a width cap."""
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    pts = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    edges = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        if max_panel is not None and hi - lo > max_panel:
            k = int(np.ceil((hi - lo) / max_panel))
            edges.append(np.linspace(lo, hi, k + 1)[:-1])
        else:
            edges.append(np.array([lo]))
    edges.append(np.array([b]))
    return np.concatenate(edges)


def panel_nodes(edges, order):
    """Flattened nodes and weights of the order-point Gauss-Legendre rule on
    every panel of `edges`, for a fixed (non-adaptive) weighted sum."""
    xg, wg = _nodes(order)
    a, b = edges[:-1], edges[1:]
    hw, mid = 0.5 * (b - a), 0.5 * (a + b)
    nodes = (mid[:, None] + hw[:, None] * xg[None, :]).ravel()
    return nodes, (wg[None, :] * hw[:, None]).ravel()


def _panel_values(f, lo, hi):
    """(GL21 value, |GL21-GL10| error) per panel from one call of f."""
    hw = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    y = f(mid[:, None] + hw[:, None] * NODES[None, :])
    v2 = (y[:, :21] * _W21[None, :]).sum(axis=1) * hw
    v1 = (y[:, 21:] * _W10[None, :]).sum(axis=1) * hw
    return v2, np.abs(v2 - v1)


def integrate(f, edges, cfg=None, raise_on_fail=True):
    """Integrate an elementwise f, called once per round on a panels x
    len(NODES) node array, over the paneled interval.

    Returns (value, error_estimate, n_panels). Panels whose local error
    exceeds an equal share of the budget are halved, up to
    cfg.max_subdivisions rounds; afterwards ToleranceNotMet carries the
    best value and the achieved estimate.
    """
    cfg = cfg or QuadratureConfig()
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        raise ValueError("need at least two panel edges")
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _panel_values(f, lo, hi)
    for _ in range(cfg.max_subdivisions):
        total = vals.sum()
        budget = max(cfg.rel_tol * abs(total), cfg.abs_tol)
        if errs.sum() <= budget:
            break
        share = budget / len(vals)
        bad = errs > share
        if not bad.any():
            bad = errs == errs.max()
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[~bad], lo[bad], mid])
        new_hi = np.concatenate([hi[~bad], mid, hi[bad]])
        keep_v, keep_e = vals[~bad], errs[~bad]
        add_v, add_e = _panel_values(f, np.concatenate([lo[bad], mid]),
                                     np.concatenate([mid, hi[bad]]))
        lo, hi = new_lo, new_hi
        vals = np.concatenate([keep_v, add_v])
        errs = np.concatenate([keep_e, add_e])
    value = float(vals.sum())
    achieved = float(errs.sum())
    if achieved > max(cfg.rel_tol * abs(value), cfg.abs_tol) and raise_on_fail:
        raise ToleranceNotMet(
            f"quadrature error {achieved:.3e} above tolerance for value {value:.6e}",
            value=value,
            achieved=achieved,
        )
    return value, achieved, len(vals)
