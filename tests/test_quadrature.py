import numpy as np
import pytest

from ddfilter import QuadratureConfig, ToleranceNotMet, build_edges, integrate
from ddfilter.quadrature import panel_nodes


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
    assert ei.value.value is not None
    assert ei.value.achieved > 1e-14


def test_raise_on_fail_false_returns_best():
    f = lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-10)
    cfg = QuadratureConfig(rel_tol=1e-14, max_subdivisions=1)
    edges = build_edges(0.0, 1.0)
    value, achieved, _ = integrate(f, edges, cfg, raise_on_fail=False)
    assert np.isfinite(value)
    assert achieved > 1e-14


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=-1)
    with pytest.raises(ValueError):
        QuadratureConfig(oscillation_resolution=2)


def test_build_edges_validation():
    with pytest.raises(ValueError):
        build_edges(1.0, 1.0)
    edges = build_edges(0.0, 10.0, breakpoints=(2.0, 50.0), max_panel=3.0)
    assert edges[0] == 0.0 and edges[-1] == 10.0
    assert any(abs(e - 2.0) < 1e-15 for e in edges)  # inside breakpoint kept
    assert not any(e > 10.0 for e in edges)  # outside breakpoint dropped
    assert np.max(np.diff(edges)) <= 3.0 + 1e-12


@pytest.mark.parametrize("order", [10, 21])
def test_panel_nodes_integrate_polynomials_exactly(order):
    edges = build_edges(0.0, 3.0, breakpoints=(1.0,), max_panel=0.5)
    nodes, weights = panel_nodes(edges, order)
    assert nodes.shape == weights.shape == ((edges.size - 1) * order,)
    assert np.all(np.diff(nodes) > 0) and 0.0 < nodes[0] and nodes[-1] < 3.0
    k = 2 * order - 1
    assert weights @ nodes ** k == pytest.approx(3.0 ** (k + 1) / (k + 1), rel=1e-13)
