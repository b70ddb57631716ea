import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddfilter import (
    DDError,
    Infeasible,
    NotConverged,
    OhmicSharpCutoff,
    OptimizationConfig,
    PowerLaw,
    QuadratureConfig,
    SupraOhmicExp,
    Tabulated,
    ToleranceNotMet,
    WhiteBand,
    build_edges,
    canonical_deltas,
    chi,
    filter_area,
    filter_value,
    integrate,
    make_canonical,
    make_custom,
    max_order,
    optimize_badd,
    optimize_lodd,
    optimize_ofdd,
)
from ddfilter.optimize import (
    _AREA_QUAD,
    _OBJ_QUAD,
    _STEP_SCALE,
    _to_deltas,
    minimize,
    alr_to_gaps,
    deltas_to_gaps,
    gaps_to_alr,
    gaps_to_deltas,
    project_gaps,
    _area_objective,
    _chi_objective,
    _kernel_chi_objective,
    _optimize_core,
)
from ddfilter import filters
from ddfilter.coherence import _quadrature
from ddfilter.filters import _PAIR_BLOCK, PAIR_ROUNDING, _switching_times, pair_plan
from ddfilter.quadrature import _CALL_NODES, NODES, integrate_batch
from ddfilter.sequences import PulseSequence

OHMIC = OhmicSharpCutoff(amplitude=1.0, omega_d=1.0)
SUPRA = SupraOhmicExp(alpha=1.14e-2, omega_c=3.0)
FAST = OptimizationConfig(restarts=1, max_iterations=400, seed=5)


@given(st.lists(st.floats(-20, 20), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_alr_maps_into_simplex_interior(x):
    g = alr_to_gaps(np.array(x))
    assert g.shape == (len(x) + 1,)
    assert np.all(g > 0)
    assert g.sum() == pytest.approx(1.0, abs=1e-12)
    # round trip through the inverse
    assert np.allclose(alr_to_gaps(gaps_to_alr(g)), g, rtol=1e-9, atol=1e-12)


@given(
    st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=10),
    st.floats(0.0, 0.08),
)
@settings(max_examples=60, deadline=None)
def test_projection_feasible_and_idempotent(raw, gmin):
    v = np.array(raw)
    g = v / v.sum()
    p = project_gaps(g, gmin)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert p.min() >= gmin - 1e-12
    again = project_gaps(p, gmin)
    assert np.allclose(again, p, atol=1e-9)
    # projection of an already-feasible point is identity
    if g.min() >= gmin:
        assert np.allclose(p, g, atol=1e-9)


def _chain_to_deltas(x, gmin):
    """The position map as a chain of fresh arrays: softmax gaps (an appended
    zero), each at least 1e-15, renormalised, squeezed onto {g >= gmin},
    summed."""
    x = np.asarray(x, dtype=float)
    z = np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)
    z = z - z.max(-1, keepdims=True)
    e = np.exp(z)
    raw = np.maximum(e / e.sum(-1, keepdims=True), 1e-15)
    raw = raw / raw.sum(-1, keepdims=True)
    if gmin > 0:
        raw = gmin + (1.0 - raw.shape[-1] * gmin) * raw
    return gaps_to_deltas(raw)


@st.composite
def _log_ratio_points(draw):
    """One point or 1-6 rows of points in n = 1..8 log-ratio coordinates
    (wide enough that gaps hit the 1e-15 floor), and a minimum gap of 0 or
    one that leaves room."""
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from([(), (1,), (3,), (6,)])) + (n,)
    x = np.array(draw(st.lists(st.floats(-40.0, 40.0), min_size=math.prod(shape),
                               max_size=math.prod(shape)))).reshape(shape)
    gmin = draw(st.sampled_from([0.0, None]))
    return x, draw(st.floats(1e-6, 0.99 / (n + 1))) if gmin is None else gmin


@given(_log_ratio_points())
@example((np.array([[0.3, -0.2], [40.0, -40.0]]), 0.0))
@example((np.array([-40.0, 40.0, 0.0]), 0.2))
@settings(max_examples=150, deadline=None)
def test_position_map_is_the_gap_chain(case):
    """The optimizers' position map, in place on one buffer, gives the
    chain's positions bit for bit, row by row and for one point."""
    x, gmin = case
    got, want = _to_deltas(x, gmin), _chain_to_deltas(x, gmin)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_projection_infeasible():
    with pytest.raises(Infeasible):
        project_gaps(np.array([0.5, 0.5]), 0.6)


def test_gap_delta_round_trip():
    d = np.array([0.1, 0.33, 0.74])
    assert np.allclose(gaps_to_deltas(deltas_to_gaps(d)), d)


TAB5 = Tabulated((0.1, 0.5, 1.0, 3.0, 10.0), (1.0, 0.8, 0.5, 0.2, 0.01))


def test_kernel_objective_equals_chi():
    """The tabulated pairwise-kernel chi is the quadrature chi, reshaped: on a
    spectrum with a structure function and on the spectra BADD sends to the
    table. The unbounded power law is compared with chi of the law cut at
    1e4, whose dropped tail holds 1e-15 of the S/omega^2 mass; chi of the
    unbounded law drops more (test_unbounded_powerlaw_counts_the_dropped_tail)."""
    cases = [(SUPRA, SUPRA), (PowerLaw(0.2, 0.5, 0.01, 5.0),) * 2, (TAB5, TAB5),
             (PowerLaw(1.0, -2.0, 0.1, np.inf), PowerLaw(1.0, -2.0, 0.1, 1e4))]
    for spec, ref in cases:
        f = _kernel_chi_objective(spec, 5.0)
        for fam, n in [("cpmg", 4), ("udd", 6)]:
            d = np.asarray(make_canonical(fam, n).deltas)
            want = chi(make_custom(d), ref, 5.0)
            assert f([d])[0] == pytest.approx(want, rel=1e-6)


def test_lodd_dominates_baselines_and_is_stationary():
    res = optimize_lodd(OHMIC, 3, 4.0, FAST)
    bl = res.baseline_values
    assert set(bl) == {"udd", "cpmg", "pdd"}
    assert res.objective_value <= min(bl.values()) + 1e-12
    assert res.sequence.n == 3
    assert res.diagnostics["converged"]
    # local stationarity: nudging any gap does not materially improve chi
    gaps = deltas_to_gaps(np.asarray(res.sequence.deltas))
    base = res.objective_value
    for i in range(gaps.size):
        for sgn in (+1.0, -1.0):
            g = gaps.copy()
            g[i] = max(g[i] + sgn * 1e-4, 1e-9)
            g = g / g.sum()
            pert = chi(make_custom(gaps_to_deltas(g)), OHMIC, 4.0)
            assert pert >= base - max(1e-9, 1e-4 * base)


def test_lodd_zero_spectrum_degenerate():
    res = optimize_lodd(WhiteBand(level=0.0, omega_hi=5.0), 4, 1.0, FAST)
    assert res.objective_value == 0.0
    assert res.diagnostics.get("degenerate") is True
    assert np.allclose(res.sequence.deltas, make_canonical("udd", 4).deltas)


def test_degenerate_lodd_keeps_the_minimum_gap():
    """On a zero spectrum the result is the projected UDD baseline."""
    res = optimize_lodd(WhiteBand(0, 5), 4, 1,
                        OptimizationConfig(restarts=0, min_gap_fraction=0.15))
    assert res.diagnostics["degenerate"] is True and res.objective_value == 0.0
    gaps = deltas_to_gaps(np.asarray(res.sequence.deltas))
    assert gaps.min() >= 0.15 - 1e-12
    assert res.diagnostics["constraint_slack"] >= -1e-12
    projected = gaps_to_deltas(project_gaps(deltas_to_gaps(canonical_deltas("udd", 4)), 0.15))
    assert np.allclose(res.sequence.deltas, projected, rtol=0, atol=1e-9)


def test_zero_spectrum_keeps_labels_and_diagnostic_keys():
    zero = WhiteBand(level=0.0, omega_hi=5.0)
    lodd = optimize_lodd(zero, 3, 1.0, FAST)
    assert lodd.sequence.label == "udd" and lodd.objective_value == 0.0
    assert {"converged", "degenerate", "iterations", "function_evals", "restarts",
            "start_label"} <= lodd.diagnostics.keys()
    badd = optimize_badd(zero, 1.0, 0.3, 2, FAST)
    assert badd.sequence.label == "badd" and badd.objective_value == 0.0
    assert np.allclose(badd.sequence.deltas, [0.5])
    d = badd.diagnostics
    assert d["n_best"] == 1 and d["start_label"] == "udd" and d["function_evals"] == 0
    assert "degenerate" not in d


def test_single_feasible_point_is_uniform_for_lodd_and_ofdd():
    cfg = OptimizationConfig(restarts=0, min_gap_fraction=0.25)
    for res, label in ((optimize_lodd(OHMIC, 3, 2.0, cfg), "lodd"),
                       (optimize_ofdd(3, 4.0, cfg), "ofdd")):
        assert res.sequence.label == label
        assert np.allclose(res.sequence.deltas, [0.25, 0.5, 0.75])
        d = res.diagnostics
        assert d["start_label"] == "uniform" and d["function_evals"] == 1
        assert d["constraint_slack"] == pytest.approx(0.0, abs=1e-12)
        assert set(res.baseline_values.values()) == {res.objective_value}


def test_lodd_validates_n():
    with pytest.raises(ValueError):
        optimize_lodd(OHMIC, 0, 1.0, FAST)


def test_lodd_respects_min_gap_constraint():
    cfg = OptimizationConfig(restarts=0, max_iterations=300, seed=2,
                             min_gap_fraction=0.08)
    res = optimize_lodd(OHMIC, 4, 6.0, cfg)
    gaps = deltas_to_gaps(np.asarray(res.sequence.deltas))
    assert gaps.min() >= 0.08 - 1e-9
    assert res.diagnostics["constraint_slack"] >= -1e-9


def test_ofdd_beats_udd_area():
    res = optimize_ofdd(4, 5.0, FAST)
    udd_area = filter_area(make_canonical("udd", 4), 5.0)
    assert res.objective_value <= udd_area + 1e-15
    assert res.baseline_values["udd"] == pytest.approx(udd_area, rel=1e-6)


def test_ofdd_validates_input():
    with pytest.raises(ValueError):
        optimize_ofdd(0, 5.0, FAST)
    with pytest.raises(ValueError):
        optimize_ofdd(3, -1.0, FAST)


def test_filter_area_is_the_ideal_filter_area():
    """Finite width is refused rather than dropped; free decay keeps its
    coefficients (1/2, -1/2): area u/2 - sin(u)/2."""
    with pytest.raises(ValueError):
        filter_area(make_custom([0.3, 0.7], width_ratio=0.1), 5.0)
    assert filter_area(make_canonical("fid"), 5.0) == 2.979462137331569
    assert filter_area(make_canonical("fid"), 5.0) == pytest.approx(
        2.5 - 0.5 * math.sin(5.0), rel=1e-15)
    # below u_max ~ 0.04 the sum cancels past its bound: quadrature of sin^2(u/2)
    for u in (0.01, 0.03):
        with mock.patch("ddfilter.optimize.integrate_batch", wraps=integrate_batch) as batch:
            area = filter_area(make_canonical("fid"), u)
        assert batch.call_count == 1
        want = sum((-1) ** k * u ** (2 * k + 3) / math.factorial(2 * k + 3) for k in range(6))
        assert area == pytest.approx(0.5 * want, rel=1e-12)


def test_filter_area_builds_panel_edges_only_for_the_fallback():
    """The pairwise sum answers at u_max = 1e6 without the 1.3e6 quadrature
    panels (20 MB when they were built up front); a tiny area, where the
    sum's rounding bound is too large, builds them once per objective."""
    seq = make_canonical("udd", 4)
    filter_area(seq, 10.0)      # first-call caches out of the measurement
    tracemalloc.start()
    try:
        value = filter_area(seq, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert value == pytest.approx(18e6, rel=1e-5)
    with mock.patch("ddfilter.optimize.build_edges", wraps=build_edges) as edges:
        f = _area_objective(0.5)
        assert edges.call_count == 0
        small = [f([seq.deltas])[0] for _ in range(2)]
    assert edges.call_count == 1
    assert small[0] == small[1] == pytest.approx(1.1707408821e-12, rel=1e-9)


def test_an_unconverged_area_raises_and_is_inf_to_the_search():
    """udd30's area up to u = 3 (2.3e-31) sits below the segment sum's
    rounding floor, about eps^2 U^3 / 3, and its pair sum keeps no digit,
    so it takes chi's stop-band series. When that quadrature misses its
    budget, filter_area and OFDD's baselines raise ToleranceNotMet, and
    the search scores the row inf, beside a cpmg30 row whose direct
    quadrature converges."""
    udd, cpmg = canonical_deltas("udd", 30), canonical_deltas("cpmg", 30)
    refused = lambda jobs, spec, cfg: [ToleranceNotMet("refused")] * len(jobs)
    with mock.patch("ddfilter.optimize._quadrature", side_effect=refused):
        with pytest.raises(ToleranceNotMet, match="refused"):
            filter_area(make_canonical("udd", 30), 3.0)
        with pytest.raises(ToleranceNotMet, match="refused"):
            optimize_ofdd(30, 3.0, FAST)
        scores = _area_objective(3.0)([udd, cpmg], raise_on_fail=False)
    assert scores[0] == np.inf
    assert scores[1] == filter_area(make_canonical("cpmg", 30), 3.0) == pytest.approx(
        3.27e-6, rel=0.01)


@pytest.mark.parametrize("n, u_max, want", [
    (30, 3.0, 2.31270945175585e-31), (30, 12.0, 7.09451980854438e-28),
    (6, 0.5, 2.33118623621939e-19)])
def test_a_deep_stop_band_area_takes_the_series(n, u_max, want):
    """Areas whose pair sum keeps no digit match the 60-digit pair sum to
    1e-12 through chi's series quadrature. The segment sum's quadrature
    cannot reach them: its best udd30 values are 7.5% low at U = 3 and
    8.0% high at U = 12, and it misses its budget on all three."""
    assert filter_area(make_canonical("udd", n), u_max) == pytest.approx(want, rel=1e-12)


def test_filter_area_positive_and_increasing():
    a5 = filter_area(make_canonical("udd", 6), 5.0)
    a10 = filter_area(make_canonical("udd", 6), 10.0)
    assert 0 < a5 < a10


def test_pairwise_area_matches_quadrature():
    """The exact pairwise sine sum is the quadrature area of the filter."""
    cfg = QuadratureConfig(rel_tol=1e-9, max_subdivisions=6)
    for seq, u_max in [(make_canonical("pdd", 2), 4.0), (make_canonical("udd", 6), 10.0),
                       (make_canonical("cpmg", 6), 10.0), (make_custom([0.2, 0.3, 0.9]), 7.5)]:
        plan = pair_plan(seq.n, 0.0)
        total, _mag = plan.sums(seq.deltas, lambda lag: np.sin(u_max * lag) / lag)
        pairwise = u_max * float(plan.c @ plan.c) + 2.0 * total
        edges = build_edges(0.0, u_max, max_panel=2.0 * np.pi / 8)
        quad, _err, _panels = integrate(lambda u: filter_value(seq, u), edges, cfg)
        assert pairwise == pytest.approx(quad, rel=1e-9)
        assert filter_area(seq, u_max) == pairwise


def test_badd_infeasible_switch_time():
    with pytest.raises(Infeasible):
        optimize_badd(SUPRA, 1.0, 0.6, 10, FAST)
    with pytest.raises(ValueError):
        optimize_badd(SUPRA, 1.0, 2.0, 10, FAST)


def test_badd_small_scenario_properties():
    cfg = OptimizationConfig(restarts=0, max_iterations=150, seed=4)
    res = optimize_badd(SUPRA, 5.0, 0.5, 8, cfg)
    d = res.diagnostics
    # pulse-count cap: floor(tau/tau_switch) - 1 = 9, clipped by n_max = 8
    assert d["n_limit"] == 8
    assert len(d["per_n"]) == 8
    assert 1 <= d["n_best"] <= 8
    # winner equals the per-n minimum
    assert res.objective_value == min(e["objective"] for e in d["per_n"])
    # constraint satisfied with nonnegative slack
    assert d["constraint_slack"] >= -1e-12
    # dominance against feasible (projected) baselines at the same n
    assert res.objective_value <= min(res.baseline_values.values()) + 1e-12
    # reported objective is the quadrature chi of the returned sequence, up
    # to the optimizer's internal integration budget
    assert res.objective_value == pytest.approx(
        chi(res.sequence, SUPRA, 5.0), rel=1e-6
    )


@pytest.mark.parametrize("spec", [
    PowerLaw(0.2, 0.5, 0.01, 5.0), PowerLaw(1.0, 0.5, 0.0, 5.0),
    PowerLaw(1.0, -2.0, 0.1, np.inf), TAB5,
], ids=["powerlaw", "powerlaw-lo0", "powerlaw-unbounded", "tabulated"])
def test_badd_searches_the_kernel_table_and_scores_chi(spec):
    """Spectra without a structure function search on the kernel table
    (PowerLaw(1, 0.5, 0, 5) too, whose S/omega^2 mass is infinite), and the
    result is scored with the optimizer's chi, bit for bit."""
    res = optimize_badd(spec, 5.0, 0.8, 3, FAST)
    assert res.diagnostics["kernel_objective"] is True
    assert res.objective_value == chi(res.sequence, spec, 5.0, _OBJ_QUAD)
    assert res.objective_value <= min(res.baseline_values.values()) * (1.0 + 1e-6)


@pytest.mark.parametrize("spec, tau, tau_switch", [
    (SUPRA, 5.0, 0.8), (OHMIC, 0.5, 0.1), (WhiteBand(0.3, 4.0), 0.3, 0.05),
], ids=["supraohmic", "ohmic-quadrature", "white"])
def test_badd_with_a_structure_function_reports_the_search_chi(spec, tau, tau_switch):
    """Spectra with a structure function search on chi itself, so each n's
    best search value is its chi: the result is chi of the returned
    sequence, bit for bit (the ohmic winner takes the quadrature route)."""
    res = optimize_badd(spec, tau, tau_switch, 3, FAST)
    assert res.diagnostics["kernel_objective"] is False
    assert res.objective_value == chi(res.sequence, spec, tau, _OBJ_QUAD)
    assert res.objective_value == min(e["objective"] for e in res.diagnostics["per_n"])


def test_badd_boundary_single_feasible_point():
    """tau/tau_switch integer: at the largest n the only choice is uniform."""
    cfg = OptimizationConfig(restarts=0, max_iterations=100, seed=1)
    res = optimize_badd(SUPRA, 5.0, 1.0, 10, cfg)
    assert res.diagnostics["n_limit"] == 4
    entry = res.diagnostics["per_n"][-1]
    assert entry["n"] == 4  # five gaps of exactly tau_switch/tau = 0.2


def test_optimization_config_validation():
    with pytest.raises(ValueError):
        OptimizationConfig(tol=0.0)
    with pytest.raises(ValueError):
        OptimizationConfig(restarts=-1)


def test_result_to_dict_shape():
    res = optimize_ofdd(2, 4.0, OptimizationConfig(restarts=0, seed=0))
    doc = res.to_dict()
    assert {"sequence", "objective_value", "baseline_values", "diagnostics"} <= set(doc)
    assert doc["sequence"]["n"] == 2


@pytest.mark.parametrize("call", [
    lambda: optimize_ofdd(2, math.inf),
    lambda: optimize_ofdd(2, math.nan),
    lambda: optimize_ofdd(2.5, 4.0),
    lambda: optimize_badd(SUPRA, math.inf, 0.1, 3),
    lambda: optimize_badd(SUPRA, 1.0, math.nan, 3),
    lambda: optimize_badd(SUPRA, 1.0, 0.1, 2.5),
    lambda: optimize_lodd(OHMIC, 2.5, 1.0),
    lambda: optimize_lodd(OHMIC, 2, math.inf),
    lambda: filter_area(make_canonical("udd", 2), math.inf),
    lambda: OptimizationConfig(min_gap_fraction=math.nan),
    lambda: OptimizationConfig(min_gap_fraction=-0.1),
    lambda: OptimizationConfig(tol=math.nan),
    lambda: OptimizationConfig(restarts=1.5),
    lambda: OptimizationConfig(max_iterations=0),
], ids=["ofdd-u-inf", "ofdd-u-nan", "ofdd-n-float", "badd-tau-inf", "badd-switch-nan",
        "badd-nmax-float", "lodd-n-float", "lodd-tau-inf", "area-u-inf", "gap-nan",
        "gap-negative", "tol-nan", "restarts-float", "maxiter-0"])
def test_optimizer_entry_points_reject_bad_input(call):
    with pytest.raises(ValueError):
        call()


# --------------------------------------------- array objectives, bit for bit

def _reference_pair_sums(seq, kernel, block=_PAIR_BLOCK):
    """The pair plan's sums as np.nonzero pairs over the switching times in blocks of
    rows, each term c_j c_k K((a_k - a_j) + (o_k - o_j)): the loop the pair
    plan replaces."""
    a, o, c = _switching_times(seq)
    m = c.size
    total = magnitude = 0.0
    rows = max(1, block // m)
    for i0 in range(0, m - 1, rows):
        j, k = np.nonzero(np.arange(i0, min(i0 + rows, m - 1))[:, None] < np.arange(m))
        j += i0
        w = c[j] * c[k] * kernel((a[k] - a[j]) + (o[k] - o[j]))
        total += w.sum()
        magnitude += np.abs(w).sum()
    return float(total), float(magnitude)


def _reference_area(deltas, u_max):
    """The OFDD area as a PulseSequence, the reference pair sum and its
    quadrature fallback, which raises ToleranceNotMet when it misses its
    budget: chi's series quadrature at tau = 1 under (pi/2) omega^2 on
    [0, U] when the sum keeps no digit, else the filter's."""
    seq = make_custom(deltas)
    total, _mag = _reference_pair_sums(seq, lambda lag: np.sin(u_max * lag) / lag)
    c = _switching_times(seq)[2]
    value = u_max * float(c @ c) + 2.0 * total
    bound = PAIR_ROUNDING * u_max * float(np.abs(c).sum()) ** 2
    if bound <= 0.1 * _AREA_QUAD.rel_tol * value:
        return value
    if bound >= abs(value):
        (out,) = _quadrature([(seq, 1.0, True)], PowerLaw(np.pi / 2.0, 2.0, 0.0, u_max),
                             _AREA_QUAD)
        if isinstance(out, DDError):
            raise out
        return out[0]
    edges = build_edges(0.0, u_max, max_panel=2.0 * np.pi / 4)
    return integrate(lambda u: filter_value(seq, u), edges, _AREA_QUAD)[0]


def _outcome(f, *args):
    try:
        return f(*args)
    except DDError as exc:
        return type(exc)


def _one_row(objective, d):
    """The objective at one position array, as a one-row batch."""
    return objective([d])[0]


_supra_kernel = functools.cache(lambda tau: _kernel_chi_objective(SUPRA, tau))


_OMEGAS = np.geomspace(0.05, 20.0, 12)
_SPECTRA = [OhmicSharpCutoff(1.0, 1.0), SUPRA, WhiteBand(0.3, 4.0),
            PowerLaw(0.2, 0.5, 0.01, 5.0),
            Tabulated(tuple(_OMEGAS), tuple(1.0 / (1.0 + _OMEGAS ** 2)))]


@st.composite
def _positions(draw):
    """Random strictly increasing positions, or a canonical family (whose
    high stop-band order at small tau sends chi to the series fallback)."""
    n = draw(st.integers(1, 8))
    family = draw(st.sampled_from(["random", "udd", "cpmg", "pdd"]))
    if family != "random":
        return canonical_deltas(family, n)
    raw = draw(st.lists(st.floats(0.02, 1.0), min_size=n + 1, max_size=n + 1))
    return gaps_to_deltas(np.array(raw) / sum(raw))


@given(_positions(), st.sampled_from(range(len(_SPECTRA))), st.floats(-2.0, 1.3),
       st.floats(0.3, 12.0))
@settings(max_examples=200, deadline=None)
def test_array_objectives_are_bit_identical(d, which, log_tau, u_max):
    """The array objectives return exactly what a PulseSequence per call
    gives: chi on every route (pairwise, the direct and series quadrature
    fallbacks, quadrature for power-law and tabulated spectra) and the
    area on the reference pair sum or its quadrature."""
    if not np.all(np.diff(d) > 0):
        return              # extreme gap draws can round two positions together
    spec, tau = _SPECTRA[which], 10.0 ** log_tau
    want = _outcome(chi, make_custom(d), spec, tau, _OBJ_QUAD)
    assert _outcome(_one_row, _chi_objective(spec, tau), d) == want
    # the search scores a row whose chi raises inf
    searched = _chi_objective(spec, tau)([d], raise_on_fail=False)[0]
    assert searched == (np.inf if isinstance(want, type) else want)
    assert _outcome(_one_row, _area_objective(u_max), d) == _outcome(_reference_area, d, u_max)
    kernel = OHMIC.structure_function
    for width in (0.0, 0.5 * (np.diff(np.concatenate([[0.0], d, [1.0]])).min())):
        seq = make_custom(d, width_ratio=width)
        assert pair_plan(seq.n, seq.width_ratio).sums(seq.deltas, kernel) == \
            _reference_pair_sums(seq, kernel)
        # several blocks, rebuilt on every sum as above _PLAN_PAIRS
        with mock.patch.object(filters, "_PAIR_BLOCK", 7), \
                mock.patch.object(filters, "_PLAN_PAIRS", 0):
            plan = filters._PairPlan(seq.n, seq.width_ratio)
        assert plan.sums(seq.deltas, kernel) == _reference_pair_sums(seq, kernel, 7)


@given(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=6))
@example([0.5, math.nan])
@example([math.nan])
@example([0.0, 0.5])
@example([0.5, 1.0])
@example([0.4, 0.4])
@settings(max_examples=60, deadline=None)
def test_invalid_positions_score_inf(raw):
    """Every objective scores inf exactly where make_custom raises
    (NonMonotonic, OutOfRange), alone and in a batch with a valid row."""
    d = np.array(raw)
    rejected = _outcome(make_custom, d)
    invalid = isinstance(rejected, type)
    if invalid:
        assert issubclass(rejected, DDError)
    valid_row = canonical_deltas("udd", d.size)
    for objective in (_chi_objective(OHMIC, 2.0), _area_objective(5.0), _supra_kernel(2.0)):
        value, other = objective([d, valid_row])
        assert (value == np.inf) if invalid else np.isfinite(value)
        assert np.isfinite(other)
        assert _one_row(objective, d) == value


def test_a_failing_chi_is_inf_to_the_search_and_raises_elsewhere():
    """A chi whose quadrature batch raises, or returns a job's
    ToleranceNotMet, scores inf in the search, but the canonical baselines
    and BADD's re-scoring raise it, as chi does."""
    d = canonical_deltas("udd", 3)
    for side_effect in (ToleranceNotMet("refused"),                 # the batch raises
                        lambda jobs, spec, cfg: [ToleranceNotMet("refused")] * len(jobs)):
        with mock.patch("ddfilter.optimize._quadrature", side_effect=side_effect):
            assert _chi_objective(TAB5, 2.0)([d, d], raise_on_fail=False).tolist() == \
                [np.inf] * 2
            for call in (lambda: _one_row(_chi_objective(TAB5, 2.0), d),
                         lambda: optimize_lodd(TAB5, 3, 2.0, FAST),
                         lambda: optimize_badd(TAB5, 5.0, 0.8, 2, FAST)):
                with pytest.raises(ToleranceNotMet, match="refused"):
                    call()


@st.composite
def _batches(draw):
    """2-6 rows of positions with one pulse count, random or canonical,
    in a shuffled order."""
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(2, 6))):
        family = draw(st.sampled_from(["random", "udd", "cpmg", "pdd"]))
        if family == "random":
            raw = draw(st.lists(st.floats(0.02, 1.0), min_size=n + 1, max_size=n + 1))
            rows.append(gaps_to_deltas(np.array(raw) / sum(raw)))
        else:
            rows.append(canonical_deltas(family, n))
    return np.array(draw(st.permutations(rows)))


@given(_batches(), st.sampled_from(range(len(_SPECTRA))), st.floats(-2.0, 1.3),
       st.floats(0.3, 12.0))
@example(np.array([canonical_deltas("udd", 6), canonical_deltas("cpmg", 6),
                   canonical_deltas("pdd", 6)]), 0, -2.0, 0.5)
@settings(max_examples=150, deadline=None)
def test_objective_rows_are_independent(rows, which, log_tau, u_max):
    """Each row of a batch, quadrature fallback rows included, scores
    exactly what a one-row batch and a PulseSequence per call give: the
    order of a block of rows does not change a row's pairwise sum."""
    if not np.all(np.diff(rows, axis=1) > 0):
        return              # extreme gap draws can round two positions together
    spec, tau = _SPECTRA[which], 10.0 ** log_tau
    objectives = [(_chi_objective(spec, tau),
                   lambda d: _outcome(chi, make_custom(d), spec, tau, _OBJ_QUAD)),
                  (_area_objective(u_max), lambda d: _outcome(_reference_area, d, u_max)),
                  (_supra_kernel(2.0), None)]
    for objective, reference in objectives:
        batch = objective(rows, raise_on_fail=False)
        for d, value in zip(rows, batch):
            assert objective([d], raise_on_fail=False)[0] == value
            if reference is not None:
                want = reference(d)
                assert value == (np.inf if isinstance(want, type) else want)


def test_objective_fallback_rows_take_one_quadrature_batch(monkeypatch):
    """An objective call hands all its quadrature rows to one
    integrate_batch call, each row its own edge set, and the area fallback
    builds no PulseSequence: F comes straight from the rows' positions."""
    built = []
    real = PulseSequence.__post_init__
    monkeypatch.setattr(PulseSequence, "__post_init__",
                        lambda self: built.append(1) or real(self))
    rows = np.array([canonical_deltas(family, 6) for family in ("udd", "cpmg", "pdd")])
    area = _area_objective(2.0)         # no row keeps its digits in the pairwise sum
    with mock.patch("ddfilter.optimize.integrate_batch", wraps=integrate_batch) as batch:
        values = area(rows)
    assert batch.call_count == 1 and len(batch.call_args.args[1]) == len(rows)
    assert built == []
    assert values.tolist() == [_reference_area(d, 2.0) for d in rows]
    with mock.patch("ddfilter.coherence.integrate_batch", wraps=integrate_batch) as batch:
        values = _chi_objective(TAB5, 2.0)(rows)     # no structure function: every row
    assert batch.call_count == 1 and len(batch.call_args.args[1]) == len(rows)
    assert values.tolist() == [chi(make_custom(d), TAB5, 2.0, _OBJ_QUAD) for d in rows]


def test_objective_rows_the_pair_sum_keeps_skip_quadrature():
    """When the pairwise route meets the tolerance on every row, the chi
    objective returns its values and makes no quadrature call; otherwise
    one call takes the rows it leaves (at tau 0.5, udd4 and cpmg4)."""
    rows = np.array([canonical_deltas(family, 4) for family in ("udd", "cpmg", "pdd")])
    with mock.patch("ddfilter.optimize._quadrature", wraps=_quadrature) as quad:
        values = _chi_objective(OHMIC, 4.0)(rows)
    assert quad.call_count == 0
    assert values.tolist() == [chi(make_custom(d), OHMIC, 4.0, _OBJ_QUAD) for d in rows]
    with mock.patch("ddfilter.optimize._quadrature", wraps=_quadrature) as quad:
        _chi_objective(OHMIC, 0.5)(rows)
    assert quad.call_count == 1
    assert [job[0].deltas for job in quad.call_args.args[0]] == [tuple(d) for d in rows[:2]]


def test_chi_batch_past_one_integrand_call_is_chi_row_by_row():
    """Twelve rows at tau 400 come to about 15,000 panels, so the batch
    spans several integrand calls of _CALL_NODES nodes and rows straddle
    them. A row's panels may then meet the filter in other groups than
    alone, so each row agrees with chi alone within chi's error estimate
    plus 16 eps chi of rounding (the estimate leaves rounding out; 1 row
    in 12 here is 2 ulp off); the rows of a batch that fits one call agree
    bit for bit."""
    spec = PowerLaw(0.2, 0.5, 0.01, 5.0)
    rng = np.random.default_rng(0)
    gaps = rng.uniform(0.05, 1.0, (12, 7))
    rows = gaps_to_deltas(gaps / gaps.sum(1, keepdims=True))
    alone = [chi(make_custom(d), spec, 400.0, _OBJ_QUAD, full_output=True) for d in rows]
    assert sum(info["panels"] for _v, info in alone) > 2 * (_CALL_NODES // NODES.size)
    for value, (want, info) in zip(_chi_objective(spec, 400.0)(rows), alone):
        assert abs(value - want) <= info["error_estimate"] + 16.0 * np.finfo(float).eps * want
    alone = [chi(make_custom(d), spec, 4.0, _OBJ_QUAD, full_output=True) for d in rows]
    assert sum(info["panels"] for _v, info in alone) < _CALL_NODES // NODES.size
    assert _chi_objective(spec, 4.0)(rows).tolist() == [v for v, _info in alone]


def test_badd_on_a_power_law_singular_at_zero():
    """S ~ omega^-0.5 down to omega = 0: BADD searches on the kernel table
    and scores every per-n winner with chi, which now returns there; the
    winner beats every projected baseline."""
    res = optimize_badd(PowerLaw(1.0, -0.5, 0.0, 5.0), 5.0, 0.8, 3)
    assert res.diagnostics["kernel_objective"] and res.sequence.n == 3
    assert res.objective_value == pytest.approx(5.61651, rel=1e-5)
    assert res.objective_value < min(res.baseline_values.values())


def test_row_batches_stay_within_the_pair_block():
    """BADD at n_max 60 shrinks 5 starts x 60 vertices in one objective
    call. The plan sums those 300 rows of 1,891 pairs taus_per_sum rows at
    a time (about _PAIR_BLOCK pairs), so the peak memory is a few such
    blocks of doubles, and each row's sums are the one-row sums."""
    rng = np.random.default_rng(3)
    rows = np.sort(rng.uniform(0.0, 1.0, (300, 60)), axis=1)
    kernel = SUPRA.structure_function
    with mock.patch.object(filters, "_PAIR_BLOCK", 1 << 14):
        small = filters._PairPlan(60, 0.0)      # 8 rows a block: the chunking bites
    for plan in (filters.pair_plan(60, 0.0), small):
        block_bytes = 8 * plan.taus_per_sum * 1891
        plan.sums(rows[:1], kernel)
        tracemalloc.start()
        try:
            total, magnitude = plan.sums(rows, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * block_bytes
        for i in (0, 7, 8, 299):
            assert (total[i], magnitude[i]) == plan.sums(rows[i], kernel)


# ------------------------------------------ lockstep Nelder-Mead against SciPy

def _nm_branches(values, n, steps):
    """The branches SciPy's Nelder-Mead took in `steps` iterations, replayed
    from the objective values it asked for in order: its choices depend on
    the values alone."""
    values = iter(values)
    f = np.sort([next(values) for _ in range(n + 1)])
    taken = set()
    for _ in range(steps):
        fxr = next(values)
        if fxr < f[0]:
            fxe = next(values)
            taken.add("expand" if fxe < fxr else "expand, keep reflection")
            f[-1] = fxe if fxe < fxr else fxr
        elif fxr < f[-2]:
            taken.add("reflect")
            f[-1] = fxr
        else:
            outside = fxr < f[-1]
            fxc = next(values)
            kind = "outside contraction" if outside else "inside contraction"
            if (fxc <= fxr) if outside else (fxc < f[-1]):
                taken.add(kind)
                f[-1] = fxc
            else:
                taken.add(kind + ", shrink")
                f[1:] = [next(values) for _ in range(n)]
        f = np.sort(f)
    return taken


_COORD = st.floats(-3.0, 3.0)


@st.composite
def _nm_cases(draw):
    """Quadratic bowls, optionally rippled (local minima), floored to a
    step (plateaus: tied values and shrinks) and cut by a wall x_0 > w
    scoring inf or NaN; 1-6 starts in 1-8 dimensions."""
    n = draw(st.integers(1, 8))
    vector = st.lists(_COORD, min_size=n, max_size=n)
    # starts, center, scale, ripple, step, wall value, wall, max_iterations, tol
    return (draw(st.lists(vector, min_size=1, max_size=6)), draw(vector),
            draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)),
            draw(st.sampled_from([0.0, 1.0])), draw(st.sampled_from([0.0, 1e-3, 0.5])),
            draw(st.sampled_from([None, np.inf, np.nan])), draw(st.floats(-1.0, 3.0)),
            draw(st.sampled_from([1, 2, 20, None])), draw(st.sampled_from([1e-10, 1e-3, 0.5])))


def test_lockstep_nelder_mead_is_scipy_start_by_start():
    """The lockstep engine returns, for every start, SciPy's Nelder-Mead
    result from the same initial simplex, tolerances and iteration cap:
    x, fun, nit, nfev and success exactly. The examples reach every branch,
    the tolerance stop and the iteration cap."""
    seen = set()

    @given(_nm_cases())
    @example(([[2.0, -1.5]], [0.2, 0.3], [1.0, 2.0], 0.0, 0.0, None, 0.0, None, 1e-10))
    @example(([[1.0, 1.0, -2.0], [0.5, 0.0, 0.0]], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.0,
              0.5, None, 0.0, 20, 1e-10))
    @example(([[-0.4], [0.9]], [2.0], [1.0], 0.0, 0.0, np.inf, 0.5, 20, 1e-3))
    @example(([[-1.8, -2.0]], [0.0, 0.0], [1.0, 1.0], 1.0, 0.0, None, 0.0, 20, 1e-10))
    @example(([[0.1, 0.2]], [1.0, -1.0], [3.0, 0.2], 0.0, 1e-3, np.nan, 0.2, None, 1e-10))
    @settings(max_examples=40, deadline=None)
    def check(case):
        starts, center, scale, ripple, step, region, wall, max_iterations, tol = case
        center, scale = np.array(center), np.array(scale)

        def objective(x):
            v = ((x - center) ** 2 * scale + ripple * np.cos(4.0 * x)).sum(-1)
            if step:
                v = np.floor(v / step) * step
            if region is not None:
                v = np.where(x[:, 0] > wall, region, v)
            return v

        starts = np.array(starts)
        n = starts.shape[1]
        cfg = OptimizationConfig(max_iterations=max_iterations, tol=tol)
        with np.errstate(invalid="ignore"):
            runs = minimize(objective, starts, cfg)
            for x0, run in zip(starts, runs):
                values = []

                def scalar(x):
                    values.append(objective(x[None])[0])
                    return values[-1]

                simplex = np.vstack([x0] + [x0 + _STEP_SCALE * np.eye(n)[i] for i in range(n)])
                ref = scipy.optimize.minimize(
                    scalar, x0, method="Nelder-Mead",
                    options={"xatol": 1e-8, "fatol": tol, "initial_simplex": simplex,
                             "maxiter": max_iterations or 200 * n, "maxfev": 10 ** 9})
                assert np.array_equal(run["x"], ref.x)
                assert np.array_equal(run["fun"], ref.fun, equal_nan=True)
                assert (run["nit"], run["nfev"], run["success"]) == (ref.nit, ref.nfev, ref.success)
                seen.update(_nm_branches(values, n, ref.nit - 1))
                seen.add("tolerance stop" if ref.success else "iteration cap")

    check()
    assert seen == {"expand", "expand, keep reflection", "reflect", "outside contraction",
                    "inside contraction", "outside contraction, shrink",
                    "inside contraction, shrink", "tolerance stop", "iteration cap"}


@pytest.mark.parametrize("design", [
    lambda cfg: optimize_lodd(OHMIC, 4, 1.0, cfg), lambda cfg: optimize_ofdd(4, 5.0, cfg)],
    ids=["lodd", "ofdd"])
def test_gaps_that_cannot_fit_are_infeasible(design):
    """Five gaps of at least 0.3 overfill the unit interval."""
    with pytest.raises(Infeasible, match="n=4 needs 5 gaps of at least 0.3"):
        design(OptimizationConfig(restarts=0, min_gap_fraction=0.3))


def test_a_search_without_a_finite_value_does_not_converge():
    """Baselines that score but a search in which every row scores inf
    (as a row whose quadrature fails does) end in NotConverged."""
    def objective(d, raise_on_fail=True):
        return np.full(len(d), 1.0 if raise_on_fail else np.inf)

    # all-inf simplices make the spread test inf - inf, as in SciPy
    with np.errstate(invalid="ignore"), \
            pytest.raises(NotConverged, match="no optimization start produced a finite"):
        _optimize_core(objective, 3, OptimizationConfig(restarts=1, max_iterations=5))
