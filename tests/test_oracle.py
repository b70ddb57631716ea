import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ddfilter import (
    NonIntegrableSpectrum,
    OhmicSharpCutoff,
    SupraOhmicExp,
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
from ddfilter import oracle

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
    omega blocks."""
    monkeypatch.setattr(oracle, "_PHASOR_BLOCK", 200)
    rng = np.random.default_rng(n)
    dt = 1.0 / n
    om = rng.uniform(0.0, 60.0, 157)
    assert len(oracle._omega_blocks(om.size, n)) > 1
    t = np.arange(n) * dt
    w = rng.standard_normal(om.size)
    want = w @ np.cos(np.outer(om, t))
    got = oracle._grid_cos_sum(w, om, dt, n)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(w).sum()
    y = rng.uniform(-1.0, 1.0, n)
    want = np.exp(1j * np.outer(om, t)) @ y
    got = oracle._grid_transform(y, om, dt)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(y).sum()


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


def test_monte_carlo_deterministic_and_stderr_scaling():
    a = monte_carlo_w(make_canonical("cpmg", 4), OHMIC, TAU, 500, 1024, seed=7)
    b = monte_carlo_w(make_canonical("cpmg", 4), OHMIC, TAU, 500, 1024, seed=7)
    assert a.w == b.w and a.stderr == b.stderr
    big = monte_carlo_w(make_canonical("cpmg", 4), OHMIC, TAU, 2000, 1024, seed=7)
    assert big.stderr < 0.65 * a.stderr  # ~1/2 expected for 4x the sample


def _jumped_phases(seed, count, size):
    """The reference substreams: a new Generator(PCG64(seed).jumped(i)) per i."""
    root = np.random.PCG64(int(seed))
    for i in range(count):
        yield np.random.Generator(root.jumped(i)).uniform(0.0, 2.0 * np.pi, size)


@pytest.mark.parametrize("seed", [0, 1, 3, 7, 12345])
def test_monte_carlo_phases_are_the_jumped_substreams(seed):
    """One generator advanced i jumps draws what PCG64(seed).jumped(i) does."""
    root = np.random.PCG64(seed)
    pick = {0, 1, 2, 17, 500, 4096, 9999}
    for i, theta in enumerate(oracle._substream_phases(seed, 10000, 8)):
        if i in pick:
            want = np.random.Generator(root.jumped(i)).uniform(0.0, 2.0 * np.pi, 8)
            assert np.array_equal(theta, want)
    assert i == 9999
    with mock.patch.object(oracle, "_substream_phases", _jumped_phases):
        want = monte_carlo_w(make_canonical("cpmg", 4), OHMIC, TAU, 300, 1024, seed)
    assert monte_carlo_w(make_canonical("cpmg", 4), OHMIC, TAU, 300, 1024, seed) == want


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
