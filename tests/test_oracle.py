import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import ddfilter
from ddfilter import (
    NonIntegrableSpectrum,
    OhmicSharpCutoff,
    PowerLaw,
    QuadratureConfig,
    SupraOhmicExp,
    Tabulated,
    ToleranceNotMet,
    UnderResolved,
    WhiteBand,
    autocovariance,
    chi,
    grammian_chi,
    make_canonical,
    make_custom,
    monte_carlo_w,
    oracle_report,
    reflect,
    sampling_vector,
)
from ddfilter import filters, oracle
from ddfilter.quadrature import panel_nodes, spectrum_edges
from ddfilter.spectra import eval_spectrum

TAU = 1.0
OHMIC = OhmicSharpCutoff(amplitude=0.1, omega_d=5.0)
WHITE = WhiteBand(level=0.02, omega_hi=100.0)


def test_autocovariance_white_analytic():
    lags = np.array([0.0, 0.013, 0.21, 0.7])
    got = autocovariance(WHITE, lags)
    s0, w = WHITE.level, WHITE.omega_hi
    want = np.where(lags == 0, s0 * w / np.pi,
                    s0 * np.sin(w * lags) / (np.pi * np.where(lags == 0, 1, lags)))
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * want.max())


def test_autocovariance_ohmic_analytic():
    lags = np.array([0.013, 0.21, 0.7])
    a, wd = OHMIC.amplitude, OHMIC.omega_d
    want = (a / np.pi) * (wd * np.sin(wd * lags) / lags
                          + (np.cos(wd * lags) - 1.0) / lags ** 2)
    got = autocovariance(OHMIC, lags)
    assert np.allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())
    assert autocovariance(OHMIC, 0.0) == pytest.approx(
        a * wd ** 2 / (2 * np.pi), rel=1e-10
    )


@pytest.mark.parametrize("n", [8, 1000, 8191, 8192])
def test_grid_phasor_sums_match_dense(n, monkeypatch):
    """Factored phasors reproduce the dense cos and exp tables over several
    omega blocks, whether each block is one real product or is split into
    rows, columns and pieces of the contraction."""
    monkeypatch.setattr(oracle, "_PHASOR_BLOCK", 200)
    rng = np.random.default_rng(n)
    dt = 1.0 / n
    om = rng.uniform(0.0, 60.0, 157)
    assert len(oracle._omega_blocks(om.size, n)) > 1
    t = np.arange(n) * dt
    w = rng.standard_normal(om.size)
    y = rng.uniform(-1.0, 1.0, n)
    want_cos = w @ np.cos(np.outer(om, t))
    want_exp = np.exp(1j * np.outer(om, t)) @ y
    for limits in [(1 << 19, 1 << 13), (500, 40)]:
        monkeypatch.setattr(filters, "_REAL_SIZE", limits[0])
        monkeypatch.setattr(filters, "_REAL_VECTOR_SIZE", limits[1])
        got = oracle._grid_cos_sum(w, om, dt, n)
        assert np.abs(got - want_cos).max() <= 1e-13 * np.abs(w).sum()
        got = oracle._grid_transform(y, om, dt)
        assert np.abs(got - want_exp).max() <= 1e-13 * np.abs(y).sum()


def test_autocovariance_on_uniform_grid_closed_forms():
    lags = np.arange(8192) * (TAU / 8192)
    s0, w = WHITE.level, WHITE.omega_hi
    safe = np.where(lags == 0, 1.0, lags)
    want = np.where(lags == 0, s0 * w / np.pi, s0 * np.sin(w * lags) / (np.pi * safe))
    got = autocovariance(WHITE, lags)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * want.max())
    a, wd = OHMIC.amplitude, OHMIC.omega_d
    want = np.where(lags == 0, a * wd ** 2 / (2 * np.pi),
                    (a / np.pi) * (wd * np.sin(wd * lags) / safe
                                   + (np.cos(wd * lags) - 1.0) / safe ** 2))
    got = autocovariance(OHMIC, lags)
    assert np.allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())
    assert got[0] == pytest.approx(want[0], rel=1e-10)
    # reversed lags are not the grid: the cosine-table path on the same panels
    dense = autocovariance(OHMIC, lags[::-1])[::-1]
    assert np.allclose(got, dense, rtol=0, atol=1e-13 * np.abs(want).max())


def test_autocovariance_rejects_unbounded_band():
    with pytest.raises(NonIntegrableSpectrum):
        autocovariance(WhiteBand(level=0.1, omega_hi=np.inf), np.array([0.1]))


@pytest.mark.parametrize("lags", [[0.0, np.nan], [0.0, np.inf], np.nan, -np.inf], ids=repr)
def test_autocovariance_rejects_non_finite_lags(lags):
    with pytest.raises(ValueError, match="lags must be finite"):
        autocovariance(OHMIC, lags)


@pytest.mark.parametrize("p", [-0.5, -0.9])
def test_autocovariance_of_a_law_singular_at_zero(p):
    """S = omega^p on [0, 5], p < 0: C(0) = 5^(p+1) / ((p+1) pi). The
    panels grade toward omega = 0 as chi's do, so the first round (two
    cosine sums) converges; uniform panels ran all 13 rounds and ended
    13.7% low at p = -0.9."""
    with mock.patch("ddfilter.oracle._grid_cos_sum", wraps=oracle._grid_cos_sum) as sums:
        c = autocovariance(PowerLaw(1.0, p, 0.0, 5.0), np.arange(2048) * 0.01)
    assert c[0] == pytest.approx(5.0 ** (p + 1) / ((p + 1) * np.pi), rel=1e-12, abs=0)
    assert sums.call_count == 2


def test_autocovariance_refines_and_raises_when_rounds_run_out():
    """S = omega^1.5 on [0, 5] is not smooth at omega = 0: the first round
    misses the budget, halving every panel converges on C(0) = 5^2.5 /
    (2.5 pi), and with no halving allowed ToleranceNotMet carries the best
    C and the achieved error."""
    spec, lags = PowerLaw(1.0, 1.5, 0.0, 5.0), np.array([0.0, 1.0])
    with mock.patch("ddfilter.oracle._grid_cos_sum", wraps=oracle._grid_cos_sum) as sums:
        c = autocovariance(spec, lags)
    assert sums.call_count > 2
    assert c[0] == pytest.approx(5.0 ** 2.5 / (2.5 * np.pi), rel=1e-9)
    cfg = QuadratureConfig(max_subdivisions=0)
    with pytest.raises(ToleranceNotMet) as err:
        autocovariance(spec, lags, cfg)
    assert err.value.achieved > cfg.rel_tol * np.abs(err.value.value).max()
    assert err.value.value == pytest.approx(c, rel=1e-5)


def test_sampling_vector_invariants():
    sv = sampling_vector(make_canonical("udd", 6), TAU, 4096)
    assert sv.values.min() >= -1.0 and sv.values.max() <= 1.0
    assert sv.amplitude == 1.0
    assert sv.dt == pytest.approx(TAU / 4096)
    # only the flip cells deviate from +-1
    fractional = np.abs(np.abs(sv.values) - 1.0) > 1e-12
    assert fractional.sum() <= 6
    # alternating segments: signs swap across each pulse
    mids = np.where(np.abs(sv.values) > 1 - 1e-12, np.sign(sv.values), 0)
    changes = np.count_nonzero(np.diff(np.sign(mids[np.abs(mids) > 0])))
    assert changes == 6


def test_sampling_vector_fid_and_width():
    sv = sampling_vector(make_canonical("fid"), TAU, 64)
    assert sv.amplitude == 0.5
    assert np.all(sv.values == 1.0)
    wide = make_custom([0.5], width_ratio=0.25)
    svw = sampling_vector(wide, TAU, 4096)
    # toggling value is zero inside the pulse window
    t = (np.arange(4096) + 0.5) * svw.dt
    inside = (t > 0.375) & (t < 0.625)
    assert np.all(np.abs(svw.values[inside & (np.abs(t - 0.375) > svw.dt)
                                    & (np.abs(t - 0.625) > svw.dt)]) == 0.0)
    # total signed time: n=1 balanced sequence integrates to ~0
    ideal = sampling_vector(make_custom([0.5]), TAU, 4096)
    assert abs(ideal.values.sum() * ideal.dt) < 1e-12


def _exact_flip_cells(seq, tau, n):
    """Exact averages over the cells [k dt, (k+1) dt] holding a window edge.

    Rational arithmetic on the float edges and breakpoints: every cut
    splits a cell into pieces whose toggling value is read at their
    midpoints.
    """
    dt = tau / n
    w = seq.width_ratio * tau
    cuts = []
    for d in seq.deltas:
        cuts += [Fraction(max(d * tau - 0.5 * w, 0.0)),
                 Fraction(min(d * tau + 0.5 * w, n * dt))]

    def value(t):
        v = 1
        for j in range(seq.n):
            if cuts[2 * j] < t < cuts[2 * j + 1]:
                return 0
            if t > cuts[2 * j + 1]:
                v = (-1) ** (j + 1)
        return v

    out = {}
    for p in cuts:
        k = min(int(float(p) / dt), n - 1)
        while k > 0 and Fraction(k * dt) > p:
            k -= 1
        while k < n - 1 and Fraction((k + 1) * dt) <= p:
            k += 1
        a, b = Fraction(k * dt), Fraction((k + 1) * dt)
        pts = sorted({a, b} | {c for c in cuts if a < c < b})
        out[k] = float(sum(value((lo + hi) / 2) * (hi - lo)
                           for lo, hi in zip(pts[:-1], pts[1:])) / Fraction(dt))
    return out


@pytest.mark.parametrize("seq, tau, n", [
    (make_canonical("udd", 16), 1.0, 32768),
    (make_canonical("cpmg", 16), 0.3, 32768),
    (make_canonical("cpmg", 2), 2.7, 1000),
    # one window over 1,024 cells
    (make_custom([0.5], width_ratio=0.25), 1.0, 4096),
    # each window's start and end in one cell
    (make_custom([0.2, 0.5, 0.8], width_ratio=1e-5), 1.3, 1024),
    # windows starting in the first cell and ending in the last
    (make_custom([0.1, 0.9], width_ratio=0.199999), 1.0, 4096),
    (make_custom([0.1, 0.9], width_ratio=0.199999), 0.7, 32768),
])
def test_sampling_vector_flip_cells_are_exact_averages(seq, tau, n):
    sv = sampling_vector(seq, tau, n)
    want = _exact_flip_cells(seq, tau, n)
    flips = np.array(sorted(want))
    assert np.abs(sv.values[flips] - [want[k] for k in flips]).max() <= 1e-12
    # every other cell holds the toggling value at its midpoint
    mids = (np.arange(n) + 0.5) * sv.dt
    w = seq.width_ratio * tau
    centers = np.array(seq.deltas) * tau
    ended = (mids[:, None] > centers + 0.5 * w).sum(axis=1)
    entered = (mids[:, None] > centers - 0.5 * w).sum(axis=1)
    plain = np.where(entered > ended, 0.0, (-1.0) ** ended)
    rest = np.setdiff1d(np.arange(n), flips)
    assert np.array_equal(sv.values[rest], plain[rest])


def test_sampling_vector_under_resolved():
    with pytest.raises(UnderResolved):
        sampling_vector(make_canonical("udd", 20), TAU, 64)
    with pytest.raises(UnderResolved):
        sampling_vector(make_canonical("fid"), TAU, 4)


def test_grammian_matches_quadrature_chi():
    """Time-domain quadratic form reproduces the frequency-domain chi."""
    combos = [("fid", None), ("cpmg", 4), ("udd", 6)]
    for fam, n in combos:
        seq = make_canonical(fam) if n is None else make_canonical(fam, n)
        for spec in (WHITE, OHMIC):
            cf = chi(seq, spec, TAU)
            cg = grammian_chi(seq, spec, TAU, 4096)
            assert abs(cg - cf) / cf < 0.01, (fam, n, type(spec).__name__)


@pytest.mark.parametrize("family, n", [("fid", 0), ("pdd", 2)])
def test_grammian_matches_chi_on_a_law_singular_at_zero(family, n):
    """Under S = omega^-0.9 on [0, 5] the Grammian's autocovariance takes
    chi's graded panels and agrees with chi to 1e-6 (it read 19.9% low for
    FID on uniform panels)."""
    spec = PowerLaw(1.0, -0.9, 0.0, 5.0)
    seq = make_canonical(family, n)
    assert grammian_chi(seq, spec, TAU, 1024) == pytest.approx(chi(seq, spec, TAU), rel=1e-6)


@pytest.mark.parametrize("n", [4099, 10001, 10002])
def test_grammian_equals_the_toeplitz_form(n):
    """The FFT autocorrelation, padded to a 5-smooth length, gives the
    same quadratic form as the explicit Toeplitz matrix C[j, k] =
    c(|j - k| dt), also when 2n has a large prime factor (2 * 10,002 =
    4 * 3 * 1667)."""
    seq = make_canonical("udd", 5)
    sv = sampling_vector(seq, TAU, n)
    c = autocovariance(OHMIC, np.arange(n) * sv.dt)
    # row j of the Toeplitz matrix is a window of (c[n-1], ..., c[1], c[0], ..., c[n-1]);
    # the form is ~8,000 times smaller than its terms, so each row is summed
    # pairwise
    y = sv.values
    toeplitz = np.lib.stride_tricks.sliding_window_view(np.concatenate([c[:0:-1], c]), n)[::-1]
    cy = np.concatenate([np.add.reduce(toeplitz[i:i + 256] * y, axis=1)
                         for i in range(0, n, 256)])
    want = oracle.KAPPA * sv.amplitude ** 2 * sv.dt ** 2 * float(y @ cy)
    assert grammian_chi(seq, OHMIC, TAU, n) == pytest.approx(want, rel=1e-12, abs=0)


def test_grammian_reflection_invariance():
    seq = make_custom([0.1, 0.25, 0.7])
    g1 = grammian_chi(seq, OHMIC, TAU, 2048)
    g2 = grammian_chi(reflect(seq), OHMIC, TAU, 2048)
    assert g1 == pytest.approx(g2, rel=1e-12)


def test_grammian_converges_with_resolution():
    seq = make_canonical("cpmg", 4)
    ref = chi(seq, OHMIC, TAU)
    errs = [abs(grammian_chi(seq, OHMIC, TAU, n) - ref) / ref
            for n in (1024, 2048, 4096, 8192)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-6


def test_monte_carlo_agrees_with_prediction():
    mc = monte_carlo_w(make_canonical("fid"), WHITE, TAU, 4000, 2048, seed=1)
    w_pred = np.exp(-chi(make_canonical("fid"), WHITE, TAU))
    assert abs(mc.w - w_pred) <= 3.0 * mc.stderr
    assert 0 < mc.stderr < 0.01


@pytest.mark.parametrize("spec", [
    OHMIC, WHITE, SupraOhmicExp(1.14e-2, 3.0), PowerLaw(1.0, -0.5, 0.0, 5.0),
    Tabulated((0.1, 1.0, 3.0, 10.0), (1.0, 0.5, 0.2, 0.01)), PowerLaw(1.0, -0.9, 0.0, 5.0),
], ids=["ohmic", "white", "supraohmic", "powerlaw", "tabulated", "powerlaw-0.9"])
def test_three_routes_agree(spec):
    """chi, the Grammian and the Monte Carlo agree on every spectrum variant,
    also under 1/f-like noise singular at omega = 0, where the Monte Carlo's
    modes need chi's graded panels: uniform modes midpoint-sample the
    omega^p singularity, and at p = -0.9 read W = 0.390 for FID and 0.677
    for pdd2, 22.7 and 33.2 standard errors above exp(-chi)."""
    for seq in (make_canonical("fid"), make_canonical("pdd", 2), make_canonical("udd", 4)):
        want = chi(seq, spec, TAU)
        assert grammian_chi(seq, spec, TAU, 1024) == pytest.approx(want, rel=1e-4, abs=0)
        mc = monte_carlo_w(seq, spec, TAU, 4000, 1024, seed=0)
        assert abs(mc.w - math.exp(-want)) <= 4.0 * mc.stderr, (seq.label, mc)


def test_monte_carlo_deterministic_and_stderr_scaling():
    a = monte_carlo_w(make_canonical("cpmg", 4), OHMIC, TAU, 500, 1024, seed=7)
    b = monte_carlo_w(make_canonical("cpmg", 4), OHMIC, TAU, 500, 1024, seed=7)
    assert a.w == b.w and a.stderr == b.stderr
    big = monte_carlo_w(make_canonical("cpmg", 4), OHMIC, TAU, 2000, 1024, seed=7)
    assert big.stderr < 0.65 * a.stderr  # ~1/2 expected for 4x the sample


def _jumped_phases(seed, count, size, rows):
    """The reference substreams: a new Generator(PCG64(seed).jumped(i)) per
    i, in blocks of at most `rows` rows."""
    root = np.random.PCG64(int(seed))
    for i0 in range(0, count, rows):
        yield np.array([np.random.Generator(root.jumped(i)).uniform(0.0, 2.0 * np.pi, size)
                        for i in range(i0, min(i0 + rows, count))])


@pytest.mark.parametrize("seed", [0, 1, 3, 7, 12345])
def test_monte_carlo_phases_are_the_jumped_substreams(seed):
    """One generator advanced i jumps draws what PCG64(seed).jumped(i) does."""
    root = np.random.PCG64(seed)
    pick = {0, 1, 2, 17, 500, 4096, 9999}
    rows = (theta for block in oracle._substream_phases(seed, 10000, 8, 300) for theta in block)
    for i, theta in enumerate(rows):
        if i in pick:
            want = np.random.Generator(root.jumped(i)).uniform(0.0, 2.0 * np.pi, 8)
            assert np.array_equal(theta, want)
    assert i == 9999
    with mock.patch.object(oracle, "_substream_phases", _jumped_phases):
        want = monte_carlo_w(make_canonical("cpmg", 4), OHMIC, TAU, 300, 1024, seed)
    assert monte_carlo_w(make_canonical("cpmg", 4), OHMIC, TAU, 300, 1024, seed) == want


def _loop_monte_carlo(seq, spec, tau, m, n_steps, seed):
    """W and stderr by the per-realization formula
    phi = cos(theta) @ re - sin(theta) @ im, on a dense mode transform."""
    sv = sampling_vector(seq, tau, n_steps)
    lo, hi = spec.power_support(1e-9)
    modes = max(1024, int(np.ceil(4.0 * (hi - lo) * tau / (2.0 * np.pi))))
    om, d_om = panel_nodes(spectrum_edges(spec, lo, hi, (hi - lo) / modes), 1)
    amps = np.sqrt(eval_spectrum(spec, om) * d_om / np.pi)
    mids = (np.arange(n_steps) + 0.5) * sv.dt
    y_hat = sv.amplitude * sv.dt * (np.exp(1j * np.outer(om, mids)) @ sv.values)
    re, im = amps * y_hat.real, amps * y_hat.imag
    vals = []
    for theta in next(oracle._substream_phases(seed, m, om.size, m)):
        vals.append(np.cos(oracle.MC_PHASE * (np.cos(theta) @ re - np.sin(theta) @ im)))
    vals = np.array(vals)
    return vals.mean(), vals.std(ddof=1) / np.sqrt(m)


def test_monte_carlo_blocks_match_the_per_realization_formula(monkeypatch):
    """The blocked cosine pass reproduces the per-realization sum over
    several realization blocks with a partial last one."""
    seq, m = make_canonical("cpmg", 4), 50
    want_w, want_err = _loop_monte_carlo(seq, OHMIC, TAU, m, 1024, 5)
    full = monte_carlo_w(seq, OHMIC, TAU, m, 1024, 5)
    monkeypatch.setattr(oracle, "_PHASOR_BLOCK", 16 * 1024)   # 16 rows of 1,024 modes
    small = monte_carlo_w(seq, OHMIC, TAU, m, 1024, 5)
    for mc in (full, small):
        assert mc.w == pytest.approx(want_w, rel=1e-12, abs=0)
        assert mc.stderr == pytest.approx(want_err, rel=1e-12, abs=0)
    assert small.w == pytest.approx(full.w, rel=1e-14, abs=0)
    assert small.stderr == pytest.approx(full.stderr, rel=1e-14, abs=0)


def test_monte_carlo_quasi_static_echo():
    """Noise far slower than the sequence cannot dephase an echo."""
    slow = WhiteBand(level=0.02, omega_hi=0.01)
    mc = monte_carlo_w(make_canonical("cpmg", 1), slow, TAU, 1000, 1024, seed=3)
    assert mc.w > 0.999


def test_monte_carlo_zero_spectrum():
    mc = monte_carlo_w(make_canonical("cpmg", 1), WhiteBand(level=0.0, omega_hi=5.0),
                       TAU, 100, 1024, seed=0)
    assert mc.w == 1.0 and mc.stderr == 0.0


def test_oracle_report_keys():
    rep = oracle_report(make_canonical("cpmg", 4), OHMIC, TAU, 2048, 200, seed=2)
    assert {"chi_freq", "chi_grammian", "rel_diff", "N",
            "w_mc", "stderr", "M", "seed"} <= set(rep)
    assert rep["rel_diff"] < 0.01
    assert rep["N"] == 2048 and rep["M"] == 200 and rep["seed"] == 2
    no_mc = oracle_report(make_canonical("cpmg", 4), OHMIC, TAU, 2048)
    assert "w_mc" not in no_mc


def test_oracle_report_values_are_python_floats():
    rep = oracle_report(make_canonical("cpmg", 4), OHMIC, TAU, 2048)
    assert [type(rep[k]) for k in ("chi_freq", "chi_grammian", "rel_diff")] == [float] * 3


def test_monte_carlo_memory_does_not_grow_with_tau():
    """tau = 500 needs ~29,600 modes: a dense modes x steps table is 3.6 GB."""
    tracemalloc.start()
    try:
        mc = monte_carlo_w(make_canonical("udd", 4), SupraOhmicExp(1.14e-2, 3.0),
                           500.0, 50, 8192, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < mc.stderr and math.isfinite(mc.w)
    assert peak < 100e6


def test_monte_carlo_memory_does_not_grow_with_realizations():
    """5,000 realizations of 1,024 modes: an unblocked phase matrix is 41 MB."""
    tracemalloc.start()
    try:
        mc = monte_carlo_w(make_canonical("cpmg", 4), OHMIC, TAU, 5000, 1024, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mc.n_realizations == 5000 and 0.0 < mc.stderr
    assert peak < 20e6


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0, 0.0])
def test_oracle_rejects_bad_tau(tau):
    seq = make_canonical("cpmg", 2)
    with pytest.raises(ValueError, match="tau"):
        sampling_vector(seq, tau, 1024)
    with pytest.raises(ValueError, match="tau"):
        grammian_chi(seq, OHMIC, tau, 1024)
    with pytest.raises(ValueError, match="tau"):
        monte_carlo_w(seq, OHMIC, tau, 10, 1024, seed=0)


@pytest.mark.parametrize("m", [-1, 0, 1])
def test_monte_carlo_needs_two_realizations(m):
    with pytest.raises(ValueError, match="n_realizations"):
        monte_carlo_w(make_canonical("cpmg", 2), OHMIC, TAU, m, 1024, seed=0)


_SEQ = make_canonical("cpmg", 2)


@pytest.mark.parametrize("call, name", [
    (lambda v: sampling_vector(_SEQ, TAU, v), "n_steps"),
    (lambda v: grammian_chi(_SEQ, OHMIC, TAU, v), "n_steps"),
    (lambda v: monte_carlo_w(_SEQ, OHMIC, TAU, 10, v, seed=0), "n_steps"),
    (lambda v: monte_carlo_w(_SEQ, OHMIC, TAU, v, 1024, seed=0), "n_realizations"),
    (lambda v: monte_carlo_w(_SEQ, OHMIC, TAU, 10, 1024, seed=v), "seed"),
    (lambda v: oracle_report(_SEQ, OHMIC, TAU, v), "n_steps"),
    (lambda v: oracle_report(_SEQ, OHMIC, TAU, 1024, v), "n_realizations"),
    (lambda v: oracle_report(_SEQ, OHMIC, TAU, 1024, 10, seed=v), "seed"),
])
@pytest.mark.parametrize("value", [1024.7, 2.7, 1024.0, np.float64(16.0), True, "1024", -1])
def test_oracle_rejects_non_integer_counts(call, name, value):
    with pytest.raises(ValueError, match=name):
        call(value)


_ONE_THREAD = textwrap.dedent("""
    import time
    import numpy as np
    import scipy.special    # ddfilter imports it on first use; it loads SciPy's OpenBLAS
    from ddfilter import (OhmicSharpCutoff, SupraOhmicExp, filter_value, grammian_chi,
                          make_canonical, monte_carlo_w)
    ohmic = OhmicSharpCutoff(amplitude=0.1, omega_d=5.0)
    supra = SupraOhmicExp(alpha=1.14e-2, omega_c=3.0)
    u = np.linspace(0.1, 50.0, 16384)
    time.sleep(0.2)     # loading OpenBLAS starts its workers with a brief spin
    cpu, main, wall = time.process_time(), time.thread_time(), time.perf_counter()
    for _ in range(3):
        for n in (8192, 16384):
            grammian_chi(make_canonical("cpmg", 4), ohmic, 1.0, n)
        monte_carlo_w(make_canonical("udd", 4), supra, 25.0, 400, 8192, 7)
        filter_value(make_canonical("udd", 15), u)
    print(time.process_time() - cpu, time.thread_time() - main, time.perf_counter() - wall)
""")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: BLAS cannot thread")
def test_oracle_products_stay_on_the_calling_thread():
    """The Grammian, the Monte Carlo pass and a folded filter grid keep
    every BLAS product under the size at which OpenBLAS wakes its thread
    pool, so the process uses no more CPU time than wall time, nor than
    the calling thread (a woken pool can also stall the caller while the
    other CPU is busy, at equal CPU and wall time). A fresh process, so
    that no earlier test's BLAS workers are still spinning."""
    src = os.path.dirname(os.path.dirname(ddfilter.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _ONE_THREAD], env=env,
                          capture_output=True, text=True, check=True)
    cpu, main, wall = map(float, proc.stdout.split())
    assert cpu <= 1.3 * min(wall, main), (
        f"process CPU {cpu:.3f} s, calling thread {main:.3f} s, wall {wall:.3f} s")


def test_monte_carlo_without_a_power_support():
    """S = omega^-1e20 from omega = 1 has no power: its support is one
    point, so no mode is drawn and W is 1."""
    spec = PowerLaw(1.0, -1e20, 1.0, math.inf)
    assert spec.power_support(1e-9) == (1.0, 1.0)
    assert monte_carlo_w(make_canonical("cpmg", 1), spec, TAU, 100, 1024, seed=0) == \
        (1.0, 0.0, 100, 0)
