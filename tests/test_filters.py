import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddfilter import (
    GapViolation,
    filter_value,
    filter_value_finite,
    make_canonical,
    make_custom,
    min_gap,
    modified_filter_value,
    sample_filter,
)
from ddfilter import filters
from ddfilter.filters import StopBandFilter, _switching_times
from ddfilter.quadrature import NODES, build_edges


def _naive_filter(deltas, u):
    """Direct phasor sum; fine at moderate u, cancels badly at small u."""
    n = len(deltas)
    y = 1.0 + (-1.0) ** (n + 1) * np.exp(1j * u)
    for j, d in enumerate(deltas, start=1):
        y = y + 2.0 * (-1.0) ** j * np.exp(1j * d * u)
    return np.abs(y) ** 2


def test_fid_is_sin_squared():
    seq = make_canonical("fid")
    u = np.array([0.0, 0.3, np.pi, 7.0])
    assert np.allclose(filter_value(seq, u), np.sin(u / 2.0) ** 2, rtol=1e-14)
    assert filter_value(seq, np.pi) == pytest.approx(1.0, rel=1e-14)


def test_hahn_closed_form_high_precision():
    """F for a centered single pulse equals 16 sin^4(u/4) to 1e-12."""
    seq = make_canonical("cpmg", 1)
    u = np.logspace(-2, 3, 300)
    exact = 16.0 * np.sin(u / 4.0) ** 4
    rel = np.abs(filter_value(seq, u) - exact) / exact
    assert rel.max() < 1e-12


def test_matches_naive_phasor_sum_at_moderate_u():
    for fam, n in [("cpmg", 4), ("pdd", 5), ("udd", 8)]:
        seq = make_canonical(fam, n)
        u = np.linspace(0.5, 40.0, 400)
        f = filter_value(seq, u)
        g = _naive_filter(seq.deltas, u)
        assert np.allclose(f, g, rtol=1e-9, atol=1e-12)


def test_small_u_suppression_no_cancellation():
    """F(1e-8) stays at its analytic scale instead of rounding noise."""
    for fam in ("cpmg", "pdd", "udd"):
        for n in (1, 5, 20):
            val = filter_value(make_canonical(fam, n), 1e-8)
            assert val <= 1e-12
            assert val >= 0.0


def test_scalar_and_array_round_trip():
    seq = make_canonical("udd", 3)
    v = filter_value(seq, 2.0)
    assert isinstance(v, float)
    arr = filter_value(seq, np.array([2.0]))
    assert arr.shape == (1,) and arr[0] == v


def test_rejects_negative_u_and_nonzero_width():
    seq = make_canonical("cpmg", 2)
    wide = make_custom(seq.deltas, width_ratio=0.01)
    for u in (-1.0, np.nan, np.inf, [1.0, np.nan], [2.0, np.inf]):
        with pytest.raises(ValueError):
            filter_value(seq, u)
        with pytest.raises(ValueError):
            filter_value_finite(wide, u)
    with pytest.raises(ValueError):
        filter_value(wide, 1.0)


def test_finite_width_zero_is_ideal():
    seq = make_canonical("udd", 5)
    u = np.logspace(-2, 2, 50)
    zero = make_custom(seq.deltas, width_ratio=0.0)
    assert np.array_equal(filter_value_finite(zero, u), filter_value(seq, u))


def test_finite_width_matches_cos_factor_form():
    """Interior phasors pick up cos(u r / 2); compare against that form."""
    r = 1e-3
    seq = make_custom(make_canonical("udd", 4).deltas, width_ratio=r)
    u = np.linspace(0.5, 30.0, 301)
    n = seq.n
    y = 1.0 + (-1.0) ** (n + 1) * np.exp(1j * u)
    for j, d in enumerate(seq.deltas, start=1):
        y = y + 2.0 * (-1.0) ** j * np.cos(u * r / 2.0) * np.exp(1j * d * u)
    assert np.allclose(filter_value_finite(seq, u), np.abs(y) ** 2,
                       rtol=1e-8, atol=1e-12)


def test_finite_width_overflow():
    """Pulses that do not fit (r n >= 1) are refused when the sequence is built."""
    with pytest.raises(GapViolation):
        make_custom(make_canonical("cpmg", 10).deltas, width_ratio=0.11)


def test_modified_filter_requires_positive_omega():
    seq = make_canonical("cpmg", 2)
    assert modified_filter_value(seq, 2.0, 3.0) == pytest.approx(
        filter_value(seq, 6.0) / 4.0
    )
    with pytest.raises(ValueError):
        modified_filter_value(seq, 0.0, 3.0)


def test_sample_filter_grid_and_variants():
    seq = make_canonical("udd", 10)
    s = sample_filter(seq, 1e-3, 1e3, 50)
    assert s.u_grid.size == 300  # 6 decades at 50 points per decade
    assert s.variant == "ideal" and s.n == 10
    assert s.u_grid[0] == pytest.approx(1e-3) and s.u_grid[-1] == pytest.approx(1e3)
    # evaluator agrees with the sampled values
    k = 17
    assert s.evaluate(s.u_grid[k]) == pytest.approx(s.values[k], rel=1e-14)

    wide = make_custom(seq.deltas, width_ratio=1e-3)
    sw = sample_filter(wide, 1e-2, 1e2, 25, variant="finite")
    assert sw.variant.startswith("finite:")
    assert sw.evaluate(1.0) == pytest.approx(filter_value_finite(wide, 1.0), rel=1e-14)

    sq = sample_filter(seq, 0.5, 2.0, 50, variant="quantized", precision=1e-7)
    assert sq.variant == "quantized:1e-07"
    # sample sets on the same grid share one read-only array
    other = sample_filter(make_canonical("cpmg", 3), 1e-3, 1e3, 50)
    assert other.u_grid is s.u_grid and not s.u_grid.flags.writeable


@pytest.mark.parametrize("variant", ["ideal", "finite", "quantized"])
def test_samples_evaluate_reproduces_every_variant(variant):
    seq = make_custom(make_canonical("udd", 6).deltas, width_ratio=1e-3)
    s = sample_filter(seq, 1e-2, 1e2, 20, variant=variant, precision=1e-4)
    assert np.array_equal(s.evaluate(s.u_grid), s.values)


def test_sample_filter_rejects_bad_range():
    seq = make_canonical("cpmg", 2)
    with pytest.raises(ValueError):
        sample_filter(seq, 1.0, 0.5, 50)
    with pytest.raises(ValueError):
        sample_filter(seq, 0.0, 10.0, 50)
    for u_min, u_max, ppd in [(1e-3, np.inf, 50), (np.nan, 1e3, 50), (1e-3, np.nan, 50),
                              (-np.inf, 1e3, 50), (1e-3, 1e3, np.inf), (1e-3, 1e3, np.nan)]:
        with pytest.raises(ValueError):
            sample_filter(seq, u_min, u_max, ppd)


def _filter_mp(seq, u, mpmath):
    """F(u) = |sum_k c_k e^(iu t_k)|^2 in 60-digit arithmetic."""
    anchors, offsets, c = _switching_times(seq)
    with mpmath.workdps(60):
        z = sum(mpmath.mpf(float(ck)) * mpmath.expj(mpmath.mpf(float(u)) * (
            mpmath.mpf(float(a)) + mpmath.mpf(float(o))))
            for ck, a, o in zip(c, anchors, offsets))
        return float(abs(z) ** 2)


@pytest.mark.parametrize("seq, u_max", [
    (make_canonical("udd", 12), 2.5),
    (make_canonical("udd", 12), 100.0),
    (make_canonical("udd", 40), 60.0),
    (make_canonical("cpmg", 10), 50.0),
    (make_custom(make_canonical("udd", 12).deltas, width_ratio=0.01), 30.0),
])
def test_stop_band_filter_keeps_relative_precision(seq, u_max):
    """Deep in the stop band the segment sum is all rounding; the moment
    series keeps F to near machine precision relative to itself."""
    mpmath = pytest.importorskip("mpmath")
    filt = StopBandFilter(seq, u_max)
    assert seq.n + 1 <= filt.degree and 0.0 < filt.crossover <= u_max
    u = np.geomspace(1e-3 * u_max, u_max, 25)
    want = np.array([_filter_mp(seq, x, mpmath) for x in u])
    assert np.all(np.abs(filt(u) - want) <= 1e-11 * want)
    # above the crossover it is the segment sum itself
    above = u[u > filt.crossover]
    assert np.array_equal(filt(above), filter_value_finite(seq, above))


def test_stop_band_filter_deep_values_beyond_segment_sum():
    seq = make_canonical("udd", 12)
    u = np.array([0.3])
    series = StopBandFilter(seq, 2.5)(u)[0]
    direct = filter_value(seq, u)[0]
    assert series == pytest.approx(2.4e-33, rel=0.05)
    assert abs(direct - series) > 0.1 * series     # the segment sum's floor


def test_stop_band_filter_fid_is_direct():
    filt = StopBandFilter(make_canonical("fid"), 10.0)
    u = np.array([0.0, 0.1, 1.0, 5.0])     # u = 0 is at the crossover
    assert filt.degree == 0 and filt.crossover == 0.0
    assert np.array_equal(filt(u), filter_value(make_canonical("fid"), u))


def test_stop_band_filter_frozen_at_ten_thousand_pulses():
    """A deep search: the moment blocks reach degree 108 at crossover 50."""
    filt = StopBandFilter(make_canonical("udd", 10000), 50.0)
    assert (filt.degree, filt.crossover) == (108, 50.0)


def _moments_mp(seq, count, mpmath):
    """(nu_m, sum_k |c_k x_k^m|) for m < count, x_k = 2 t_k - 1, in 50-digit
    arithmetic from the switching times' anchors and offsets."""
    anchors, offsets, c = _switching_times(seq)
    with mpmath.workdps(50):
        x = [2 * (mpmath.mpf(float(a)) + mpmath.mpf(float(o))) - 1
             for a, o in zip(anchors, offsets)]
        terms = [mpmath.mpf(float(ck)) for ck in c]
        out = []
        for _ in range(count):
            out.append((sum(terms), sum(abs(t) for t in terms)))
            terms = [t * xk for t, xk in zip(terms, x)]
        return out


@settings(max_examples=12, deadline=None)
@given(family=st.sampled_from(["custom", "cpmg", "pdd", "udd"]), n=st.integers(1, 60),
       seed=st.integers(0, 2 ** 32 - 1), width=st.sampled_from([0.0, 0.5]))
@example(family="custom", n=1, seed=0, width=0.0)
@example(family="custom", n=60, seed=1, width=0.5)
@example(family="udd", n=40, seed=0, width=0.5)     # vanishing low moments
def test_moment_blocks_are_compensated_sums(family, n, seed, width):
    """Every moment is the exact sum rounded once, up to an eps^2 share of
    the magnitude sum (the powers' and the compensated tree's rounding):
    |nu_m - exact| <= eps/2 |exact| + eps^2 log2(2n + 4) sum_k |c_k x_k^m|.
    Custom positions draw at random or take a family's, whose low moments
    vanish."""
    mpmath = pytest.importorskip("mpmath")
    seq = _family(family, n, seed, width)
    blocks = list(itertools.islice(filters._moment_blocks(seq), 8))
    assert [b.size for b in blocks] == [1, 1, 2, 4, 8, 16, 32, 64]   # m < 1, [1, 2), [2, 4), ...
    nu = np.concatenate(blocks)[:70]
    eps = np.finfo(float).eps
    for m, (exact, size) in enumerate(_moments_mp(seq, 70, mpmath)):
        bound = eps / 2 * abs(exact) + eps ** 2 * np.log2(2 * n + 4) * size
        assert abs(mpmath.mpf(float(nu[m])) - exact) <= bound, (m, float(nu[m]), float(exact))


def _family(family, n, seed, width):
    """A sequence of the family (custom: n sorted uniform draws), with pulses
    of width * its minimum gap when width is nonzero and it has pulses."""
    if family == "fid":
        return make_canonical("fid")
    if family == "custom":
        seq = make_custom(np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n)))
    else:
        seq = make_canonical(family, n)
    return make_custom(seq.deltas, width_ratio=width * min_gap(seq)) if width else seq


def _panels(lo, hi, count, halve):
    """Panel node array as quadrature.integrate builds it: count equal
    panels over [lo, hi], then the panels picked by halve split in two."""
    edges = np.linspace(lo, hi, count + 1)
    a, b = edges[:-1], edges[1:]
    pick = np.array([halve[i % len(halve)] for i in range(count)])
    cut = 0.5 * (a[pick] + b[pick])
    a = np.concatenate([a[~pick], a[pick], cut])
    b = np.concatenate([b[~pick], cut, b[pick]])
    return 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * NODES


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["fid", "cpmg", "pdd", "udd", "custom"]),
       n=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1),
       width=st.sampled_from([0.0, 0.01, 0.5]), top=st.floats(1e-3, 1.0),
       start=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
       count=st.integers(1, 60), halve=st.lists(st.booleans(), min_size=1, max_size=8))
def test_panel_evaluator_matches_node_by_node(family, n, seed, width, top, start, count, halve):
    """The panel-factored F agrees with the node-by-node segment sum at the
    same nodes. Both keep z = F^(1/2)/2 to Delta = 128 eps (n + 1)(u + 1)
    with u the panel's upper end: the arguments carry eps u, the panel
    evaluator moves a node by at most 64 eps u, and |dz/du| <= n + 1.
    So |F_panel - F_node| <= 4 Delta (F^(1/2) + Delta)."""
    seq = _family(family, n, seed, width)
    u_max = top * 4.0 * np.pi * (seq.n + 1)
    u = _panels(start * u_max, u_max, count, halve)
    calls = []
    node_z = filters._node_z
    with mock.patch.object(filters, "_node_z",
                           side_effect=lambda d, uu, r: calls.append(uu.shape[0]) or node_z(d, uu, r)):
        panel = filter_value_finite(seq, u, nodes=NODES)
    node = filter_value_finite(seq, u)
    assert panel.shape == node.shape == u.shape
    delta = 128.0 * np.finfo(float).eps * (seq.n + 1) * (u[:, -1:] + 1.0)
    assert np.all(np.abs(panel - node) <= 4.0 * delta * (np.sqrt(node) + delta))
    # halving leaves at most two widths per panel size, so a large enough
    # call shares tables instead of going node by node
    if seq.n and u.shape[0] * (seq.n + 1) >= 4 * filters._SHARED_MIN:
        assert sum(calls) < u.shape[0]


def test_panel_evaluator_takes_any_array_node_by_node():
    """Rows that are not panels of the given nodes fall back to the
    segment sum instead of being factored wrongly."""
    seq = make_custom(make_canonical("udd", 20).deltas, width_ratio=0.01)
    u = _panels(0.0, 60.0, 20, [False])
    u[3] = np.linspace(1.0, 9.0, NODES.size)
    u[7, 4] += 0.5
    assert np.array_equal(filter_value_finite(seq, u, nodes=NODES)[[3, 7]],
                          filter_value_finite(seq, u[[3, 7]]))


def test_few_panels_go_node_by_node_without_grouping():
    """Under _SHARED_MIN panels x segments _panel_z is the node-by-node sum,
    decided before any sorting or grouping of the panels."""
    seq = make_canonical("udd", 4)
    u = _panels(0.0, 3.0, 2, [False])
    assert u.shape[0] * (seq.n + 1) < filters._SHARED_MIN
    with mock.patch.object(filters.np, "argsort", side_effect=AssertionError("grouped")):
        panel = filter_value_finite(seq, u, nodes=NODES)
    assert np.array_equal(panel, filter_value_finite(seq, u))


def test_panels_of_a_tau_grid_share_one_table():
    """The full panels of a coherence curve's quadrature, 2 pi / 4 wide in
    u = omega tau for 40 taus over two decades (u up to 1,800), differ in hw
    only by the rounding of u; taking h from the panel nearest u = 0 keeps
    every one of them on the shared table, within the node-by-node bound."""
    seq = make_canonical("udd", 6)
    rows = []
    for tau in np.geomspace(0.3, 30.0, 40):
        edges = build_edges(0.0, 60.0, max_panel=2.0 * np.pi / (4.0 * tau))[:-1]   # no remainder
        a, b = edges[:-1], edges[1:]
        rows.append(tau * (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * NODES))
    u = np.concatenate(rows)
    calls = []
    node_z = filters._node_z
    with mock.patch.object(filters, "_node_z",
                           side_effect=lambda d, uu, r: calls.append(uu.shape[0]) or node_z(d, uu, r)):
        panel = filter_value_finite(seq, u, nodes=NODES)
    assert calls == []
    node = filter_value_finite(seq, u)
    delta = 128.0 * np.finfo(float).eps * (seq.n + 1) * (u[:, -1:] + 1.0)
    assert np.all(np.abs(panel - node) <= 4.0 * delta * (np.sqrt(node) + delta))


class _Products(np.ndarray):
    """An array that records the shapes of each product it is the left
    operand of."""

    def __matmul__(self, other):
        _Products.calls.append((self.shape, np.shape(other)))
        return np.asarray(self) @ np.asarray(other)


def _sizes(calls):
    """Multiply-adds of each recorded product, and whether one side is a vector."""
    out = []
    for a, b in calls:
        m, k = a if len(a) == 2 else (1, a[0])
        n = b[1] if len(b) == 2 else 1
        out.append((m * k * n, min(m, n) == 1))
    return out


def test_complex_products_stay_below_the_thread_threshold():
    """A block of _product never reaches 2^16 multiply-adds, where zgemm
    threads, also when the right side's width is a power of two."""
    rng = np.random.default_rng(3)
    right = rng.standard_normal((32, 128)) + 1j * rng.standard_normal((32, 128))
    mid = rng.uniform(0.0, 5.0, 100)
    table = lambda mp: np.exp(1j * np.outer(mp, np.arange(32))).view(_Products)
    _Products.calls = []
    got = filters._product(table, mid, right)
    assert np.allclose(got, np.exp(1j * np.outer(mid, np.arange(32))) @ right,
                       rtol=0, atol=1e-12 * np.abs(right).sum())
    sizes = _sizes(_Products.calls)
    assert len(sizes) > 1 and max(s for s, _ in sizes) < 1 << 16


@pytest.mark.parametrize("a_shape, b_shape, limits, split", [
    ((37, 500), (500, 29), (1000, 64), (True, True, True)),
    ((37, 50), (50, 29), (1 << 19, 1 << 13), (False, False, False)),
    ((400, 3), (3, 500), (2000, 64), (True, False, True)),
    ((60, 700), (700,), (1000, 100), (True, True, False)),
    ((700,), (700, 60), (1000, 100), (False, True, True)),
    ((5000,), (5000,), (1000, 100), (False, True, False)),
    ((5000,), (5000,), (1 << 19, 1 << 13), (False, False, False)),
])
def test_real_product_blocks(a_shape, b_shape, limits, split, monkeypatch):
    """_real_product equals a @ b, every block stays within its limit
    (the vector limit when a block's m or n is 1), and the blocks split
    rows, contraction and columns as expected."""
    monkeypatch.setattr(filters, "_REAL_SIZE", limits[0])
    monkeypatch.setattr(filters, "_REAL_VECTOR_SIZE", limits[1])
    rng = np.random.default_rng(len(a_shape) + len(b_shape))
    a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
    _Products.calls = []
    got = filters._real_product(a.view(_Products), b)
    want = a @ b
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0, atol=1e-13 * np.abs(a).max() * np.abs(b).sum(axis=0).max())
    assert all(s <= limits[vector] for s, vector in _sizes(_Products.calls))
    m, k = a_shape if len(a_shape) == 2 else (1, a_shape[0])
    n = b_shape[1] if len(b_shape) == 2 else 1
    rows = {x[0] if len(x) == 2 else 1 for x, _ in _Products.calls}
    inner = {x[-1] for x, _ in _Products.calls}
    cols = {y[1] if len(y) == 2 else 1 for _, y in _Products.calls}
    assert (max(rows) < m, max(inner) < k, max(cols) < n) == split
    # near-equal pieces: no side of a block differs from another by more than one
    assert all(max(side) - min(side) <= 1 for side in (rows, inner, cols))


def _node_filter(seq, u):
    """F node by node at the points of a 1-D u: a 2-D array is never folded."""
    return filter_value_finite(seq, u[:, None])[:, 0]


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["fid", "cpmg", "pdd", "udd", "custom"]),
       n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       width=st.sampled_from([0.0, 0.01, 0.5]), lo=st.floats(0.0, 500.0),
       span=st.floats(1e-3, 2000.0), size=st.integers(16, 5000))
@example(family="udd", n=20, seed=0, width=0.0, lo=100.0 * np.pi, span=100.0 * np.pi,
         size=20001)    # the passband grid: 141 rows of 142, 21 points padded
def test_uniform_grid_folds_into_panels(family, n, seed, width, lo, span, size):
    """A linspace grid takes the panel evaluator (folded into rows of
    ceil(sqrt(N)) points, the last one padded) and agrees with the node
    path to the panel bound: z = F^(1/2)/2 within Delta = 128 eps (n + 1)
    (u + 1) at the grid's top u, since the fold moves a point by at most
    64 eps u and |dz/du| <= n + 1. So |F_fold - F_node| <= 4 Delta
    (F^(1/2) + Delta)."""
    seq = _family(family, n, seed, width)
    u = np.linspace(lo, lo + span, size)
    folds = filters._fold(u, seq.n + 1) is not None
    assert folds == (size * (seq.n + 1) >= filters._FOLD_MIN)
    with mock.patch.object(filters, "_panel_z", wraps=filters._panel_z) as panel_z:
        fold = filter_value_finite(seq, u)
    assert panel_z.call_count == (folds and seq.n > 0)
    node = _node_filter(seq, u)
    assert fold.shape == node.shape == u.shape
    delta = 128.0 * np.finfo(float).eps * (seq.n + 1) * (u[-1] + 1.0)
    assert np.all(np.abs(fold - node) <= 4.0 * delta * (np.sqrt(node) + delta))


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["cpmg", "pdd", "udd", "custom"]),
       n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       width=st.sampled_from([0.0, 0.01]), size=st.integers(filters._FOLD_MIN, 8000),
       where=st.floats(0.0, 1.0), shift=st.floats(1e-9, 0.4))
def test_non_uniform_grids_take_the_node_path(family, n, seed, width, size, where, shift):
    """A reversed grid, or one with a point moved by more than the fold's
    64 eps u, is evaluated node by node: bit for bit the node path."""
    seq = _family(family, n, seed, width)
    u = np.linspace(300.0, 600.0, size)
    moved = u.copy()
    moved[round(where * (size - 1))] += shift * (u[1] - u[0])
    assert filters._fold(u, seq.n + 1) is not None
    for grid in (u[::-1], moved):
        assert filters._fold(grid, seq.n + 1) is None
        assert np.array_equal(filter_value_finite(seq, grid), _node_filter(seq, grid))


def _widest(deltas):
    """The largest width ratio whose pulse windows delta_j -+ r/2 still
    leave every free segment open: r n -> 1 for evenly spaced pulses."""
    d = np.asarray(deltas)
    return float(min(2.0 * d[0], np.diff(d).min(initial=1.0), 2.0 * (1.0 - d[-1])))


def _cos_factor_mp(seq, u, mpmath):
    """F(u) = |1 + (-1)^(n+1) e^(iu) + 2 sum_j (-1)^j cos(u r/2) e^(i delta_j u)|^2
    in 40-digit arithmetic at the double positions, width and u."""
    n, r = seq.n, seq.width_ratio
    out = np.empty(np.size(u))
    with mpmath.workdps(40):
        deltas = [mpmath.mpf(float(d)) for d in seq.deltas]
        half = mpmath.mpf(r) / 2
        for i, x in enumerate(np.ravel(u)):
            x = mpmath.mpf(float(x))
            inner = sum((-1) ** j * mpmath.expj(x * d) for j, d in enumerate(deltas, start=1))
            z = 1 + (-1) ** (n + 1) * mpmath.expj(x) + 2 * mpmath.cos(x * half) * inner
            out[i] = float(abs(z) ** 2)
    return out.reshape(np.shape(u))


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(["cpmg", "pdd", "udd", "custom"]),
       n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       fill=st.one_of(st.just(0.0), st.just(0.99), st.floats(0.0, 0.99)),
       top=st.floats(1e-3, 1.0), start=st.one_of(st.just(0.0), st.floats(0.0, 0.95)))
@example(family="cpmg", n=10, seed=0, fill=0.99, top=1.0, start=0.0)    # r n = 0.99
@example(family="udd", n=40, seed=0, fill=0.99, top=0.3, start=0.5)
def test_wide_pulses_match_the_cos_factor_form(family, n, seed, fill, top, start):
    """Pulses up to 0.99 of the widest that fit, on the node path, the
    panel path and a folded linspace, against the cos-factor form in
    40-digit arithmetic. Each path keeps z = F^(1/2)/2 to Delta = 128 eps
    (n + 1)(u + 1), with u the top of the panel or grid, whose points a
    path may move by 64 eps u. So |F - F_exact| <= 4 Delta (F^(1/2) + Delta)."""
    mpmath = pytest.importorskip("mpmath")
    base = _family(family, n, seed, 0.0)
    seq = make_custom(base.deltas, width_ratio=fill * _widest(base.deltas))
    eps = np.finfo(float).eps

    def check(u, *paths):
        """Each (F, u_top) of paths against the exact F at about 1,500 / (n + 2)
        evenly picked points of u, ends included."""
        pick = np.unique(np.linspace(0, u.size - 1, max(8, 1500 // (n + 2))).round().astype(int))
        want = _cos_factor_mp(seq, u.ravel()[pick], mpmath)
        for got, u_top in paths:
            delta = 128.0 * eps * (n + 1) * (np.broadcast_to(u_top, u.shape).ravel()[pick] + 1.0)
            assert np.all(np.abs(got.ravel()[pick] - want) <= 4.0 * delta * (np.sqrt(want) + delta))

    u_max = top * 4.0 * np.pi * (n + 1)
    u = _panels(start * u_max, u_max, max(2, -(-filters._SHARED_MIN // (n + 1))), [False])
    calls = []
    node_z = filters._node_z
    with mock.patch.object(filters, "_node_z",
                           side_effect=lambda d, uu, r: calls.append(uu.shape[0]) or node_z(d, uu, r)):
        panel = filter_value_finite(seq, u, nodes=NODES)
    assert calls == []      # one panel width: every panel on the shared table
    check(u, (panel, u[:, -1:]), (filter_value_finite(seq, u), u))

    grid = np.linspace(start * u_max, u_max, max(16, -(-filters._FOLD_MIN // (n + 1))))
    assert filters._fold(grid, n + 1) is not None
    check(grid, (filter_value_finite(seq, grid), grid[-1]))


@given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 0.5]))
@settings(max_examples=60, deadline=None)
def test_node_z_over_rows_is_each_rows_node_z(n, rows, seed, fill):
    """_node_z on a (rows, n) position array, with a block of u per row,
    gives each row's one-sequence _node_z bit for bit (the OFDD area
    fallback evaluates its rows so)."""
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.05, 1.0, (rows, n + 1))
    gaps /= gaps.sum(1, keepdims=True)
    d = np.cumsum(gaps, axis=1)[:, :-1]
    r = fill * gaps.min()
    u = rng.uniform(0.0, 60.0, (rows, 3, 31))
    z = filters._node_z(d, u, r)
    assert z.shape == u.shape
    for i in range(rows):
        assert z[i].tobytes() == filters._node_z(d[i], u[i], r).tobytes()
