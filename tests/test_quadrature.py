import tracemalloc

import numpy as np
import pytest

from ddfilter import QuadratureConfig, ToleranceNotMet, build_edges, integrate
from ddfilter import quadrature
from ddfilter.quadrature import integrate_batch, panel_nodes


def test_smooth_integral_exact():
    edges = build_edges(0.0, np.pi)
    value, err, n_panels = integrate(np.sin, edges)
    assert value == pytest.approx(2.0, rel=1e-13)
    assert err <= 1e-10
    assert n_panels >= 1


def test_oscillatory_with_panel_cap():
    # integral of cos(50 x) over [0, 4]: needs panels small enough to resolve
    cfg = QuadratureConfig(rel_tol=1e-10)
    edges = build_edges(0.0, 4.0, max_panel=2 * np.pi / (50 * 8))
    value, err, _ = integrate(lambda x: np.cos(50 * x), edges, cfg)
    assert value == pytest.approx(np.sin(200.0) / 50.0, abs=1e-12)


def test_breakpoints_isolate_kinks():
    # |x - 1/3| has a kink; an edge placed there keeps panels smooth
    edges = build_edges(0.0, 1.0, breakpoints=(1.0 / 3.0,))
    assert any(abs(e - 1.0 / 3.0) < 1e-15 for e in edges)
    value, err, _ = integrate(lambda x: np.abs(x - 1.0 / 3.0), edges)
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert value == pytest.approx(exact, rel=1e-13)


def test_adaptive_subdivision_improves():
    # sharp peak: converges only after splitting
    f = lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4)
    exact = (np.arctan(0.7 / 1e-2) - np.arctan(-0.3 / 1e-2)) / 1e-2
    edges = build_edges(0.0, 1.0)
    value, err, n_panels = integrate(f, edges, QuadratureConfig(rel_tol=1e-9))
    assert value == pytest.approx(exact, rel=1e-8)
    assert n_panels > len(edges) - 1  # subdivision actually happened


def test_tolerance_not_met_carries_payload():
    f = lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-10)
    cfg = QuadratureConfig(rel_tol=1e-14, max_subdivisions=1)
    edges = build_edges(0.0, 1.0)
    with pytest.raises(ToleranceNotMet) as ei:
        integrate(f, edges, cfg)
    assert np.isfinite(ei.value.value)
    assert ei.value.achieved > 1e-14


def test_non_finite_integral_is_not_converged():
    """A NaN error estimate is not within any budget."""
    with np.errstate(invalid="ignore"):
        with pytest.raises(ToleranceNotMet) as ei:
            integrate(lambda x: x * np.nan, [0.0, 1.0])
    assert np.isnan(ei.value.value) and np.isnan(ei.value.achieved)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=-1)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=bad)
    for bad in (2.5, True):
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=bad)


@pytest.mark.parametrize("a, b, max_panel, name", [
    (0.0, np.inf, 1.0, "finite a < b"), (np.nan, 1.0, None, "finite a < b"),
    (0.0, np.nan, None, "finite a < b"), (-np.inf, 0.0, None, "finite a < b"),
    (0.0, 1.0, 0.0, "max_panel"), (0.0, 1.0, -1.0, "max_panel"),
    (0.0, 1.0, np.inf, "max_panel"), (0.0, 1.0, np.nan, "max_panel")])
def test_build_edges_rejects_non_finite_bounds_and_widths(a, b, max_panel, name):
    with pytest.raises(ValueError, match=name):
        build_edges(a, b, max_panel=max_panel)


@pytest.mark.parametrize("edges", [[0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0, 1.0]])
def test_integrate_rejects_non_finite_edges(edges):
    with pytest.raises(ValueError, match="edges must be finite"):
        integrate(lambda x: x, edges)
    with pytest.raises(ValueError, match="edges must be finite"):
        integrate_batch(lambda x, owner: x, [[0.0, 1.0], edges])


def test_build_edges_validation():
    with pytest.raises(ValueError):
        build_edges(1.0, 1.0)
    edges = build_edges(0.0, 10.0, breakpoints=(2.0, 50.0), max_panel=3.0)
    assert edges[0] == 0.0 and edges[-1] == 10.0
    assert any(abs(e - 2.0) < 1e-15 for e in edges)  # inside breakpoint kept
    assert not any(e > 10.0 for e in edges)  # outside breakpoint dropped
    assert np.max(np.diff(edges)) <= 3.0 + 1e-12


def test_build_edges_full_panels_share_one_width():
    """Between kinks every panel is max_panel wide but the last of each
    interval, which takes the remainder."""
    edges = build_edges(0.5, 10.0, breakpoints=(2.0, 7.25), max_panel=0.4)
    for lo, hi in ((0.5, 2.0), (2.0, 7.25), (7.25, 10.0)):
        inside = edges[(edges >= lo) & (edges <= hi)]
        assert inside[0] == lo and inside[-1] == hi
        widths = np.diff(inside)
        assert np.allclose(widths[:-1], 0.4, rtol=0, atol=1e-14)
        assert 0.0 < widths[-1] <= 0.4 + 1e-14
    # a width that divides the interval exactly leaves no sliver panel
    assert np.diff(build_edges(0.0, 1.0, max_panel=0.25)).min() > 0.2


@pytest.mark.parametrize("cap", [None, 16])
def test_integrate_batch_matches_integrate_per_set(cap, monkeypatch):
    """Each integral of a batch gets what integrate gives it alone: its own
    budget, halving rule and panel count. The panel cap applies to a
    batch's panels in total; lowered to 16 it stops the batch below the 40
    panels its integrals end on, but none of them alone (14, 15 and 11)."""
    if cap is not None:
        monkeypatch.setattr(quadrature, "_MAX_PANELS", cap)
    freqs = np.array([3.0, 40.0, 0.5])
    peaks = np.array([0.3, 0.7, 0.55])

    def f(x, owner):
        k = owner[:, None]
        return np.cos(freqs[k] * x) + 1.0 / ((x - peaks[k]) ** 2 + 1e-4)

    edge_sets = [build_edges(0.0, 1.0, max_panel=0.3), build_edges(0.0, 2.0, breakpoints=(0.9,)),
                 build_edges(0.2, 1.0)]
    cfg = QuadratureConfig(rel_tol=1e-10)
    refused = quadrature._refine(f, edge_sets, cfg)[3]
    assert refused.any() == (cap is not None)
    values, errors, panels = integrate_batch(f, edge_sets, cfg)
    assert list(panels) == [14, 15, 11]
    for k, edges in enumerate(edge_sets):
        one = integrate(lambda x: f(x, np.full(x.shape[0], k)), edges, cfg)
        assert (values[k], errors[k], panels[k]) == one


def test_integrate_memory_is_capped_when_never_converging():
    """An integrand that never converges doubles its panels every round;
    refinement stops at the panel cap (2^18 here, against 2^22 after 12
    rounds), and ToleranceNotMet still carries the best value and error."""
    f = lambda x: np.sign(np.sin(1e6 * x))
    edges = build_edges(0.0, 1.0, max_panel=1.0 / 1024)
    tracemalloc.start()
    try:
        with pytest.raises(ToleranceNotMet) as ei:
            integrate(f, edges, QuadratureConfig(max_subdivisions=12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert np.isfinite(ei.value.value) and abs(ei.value.value) < 1.0
    assert ei.value.achieved > 1e-8 * abs(ei.value.value)


@pytest.mark.parametrize("order", [10, 21])
def test_panel_nodes_integrate_polynomials_exactly(order):
    edges = build_edges(0.0, 3.0, breakpoints=(1.0,), max_panel=0.5)
    nodes, weights = panel_nodes(edges, order)
    assert nodes.shape == weights.shape == ((edges.size - 1) * order,)
    assert np.all(np.diff(nodes) > 0) and 0.0 < nodes[0] and nodes[-1] < 3.0
    k = 2 * order - 1
    assert weights @ nodes ** k == pytest.approx(3.0 ** (k + 1) / (k + 1), rel=1e-13)
