import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfilter import (
    InsufficientSpan,
    NoCrossing,
    WindowOutOfRange,
    bandpass_profile,
    filter_metrics,
    filter_ratio,
    make_canonical,
    make_custom,
    min_gap,
    omega_f1,
    passband_stats,
    rolloff,
    sample_filter,
)
from ddfilter import filters, metrics


def _samples(fam, n=None, lo=1e-3, hi=1e3, ppd=50, **kw):
    seq = make_canonical(fam) if n is None else make_canonical(fam, n)
    return sample_filter(seq, lo, hi, ppd, **kw)


def test_omega_f1_tangency_fid():
    """FID touches F = 1 at u = pi without crossing: u_f1 is pi exactly."""
    assert omega_f1(_samples("fid")) == math.pi


def test_omega_f1_fid_grid_without_pi():
    """An FID grid that does not span pi has no u_f1."""
    for lo, hi in ((1e-3, 3.0), (3.2, 1e3)):
        with pytest.raises(NoCrossing):
            omega_f1(_samples("fid", lo=lo, hi=hi))


def test_omega_f1_crossings():
    for fam, n in [("cpmg", 4), ("udd", 10), ("pdd", 6)]:
        s = _samples(fam, n)
        u1 = omega_f1(s)
        assert abs(s.evaluate(u1) - 1.0) <= 2e-6
        # on the way up: slightly below u1 the filter is below 1
        assert s.evaluate(0.98 * u1) < 1.0


def test_omega_f1_no_crossing():
    with pytest.raises(NoCrossing):
        omega_f1(_samples("udd", 10, lo=1e-3, hi=0.5))


def test_rolloff_clean_window_orders():
    """Stop-band slopes: ~6 dB/oct per suppression order."""
    assert rolloff(_samples("fid"), window="clean") == pytest.approx(6.02, abs=0.3)
    for n in (2, 4, 6):
        assert rolloff(_samples("pdd", n), window="clean") == pytest.approx(
            6.02, abs=0.5
        )
    for n in (4, 6, 8):
        assert rolloff(_samples("cpmg", n), window="clean") == pytest.approx(
            18.1, abs=1.0
        )
    for n in range(2, 9):
        want = 6.0 * (n + 1)
        assert rolloff(_samples("udd", n), window="clean") == pytest.approx(
            want, rel=0.05
        )


def test_rolloff_explicit_window_and_errors():
    s = _samples("cpmg", 4)
    u1 = omega_f1(s)
    val = rolloff(s, window=(u1 / 32, u1 / 8))
    assert val == pytest.approx(18.1, abs=1.5)
    with pytest.raises(WindowOutOfRange):
        rolloff(s, window=(2e3, 4e3))
    with pytest.raises(ValueError):
        rolloff(s, window="bogus")


def test_default_window_width_sweep_decreases():
    base = make_canonical("udd", 7)
    slopes = []
    for r in (0.0, 1e-4, 1e-3, 1e-2):
        seq = make_custom(base.deltas, width_ratio=r)
        s = sample_filter(seq, 1e-3, 1e3, 50, variant="finite" if r else "ideal")
        slopes.append(rolloff(s))
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    assert slopes[-1] < 12.0


def test_passband_stats_reference_deviations():
    """Plateau average vs the 4n+2 asymptote on [100*pi, 200*pi]."""
    cases = [("cpmg", 4, 0.0190), ("pdd", 20, 0.2549), ("udd", 10, 0.0059)]
    for fam, n, want in cases:
        ps = passband_stats(_samples(fam, n), n=n)
        assert ps.mean > 0
        assert ps.deviation == pytest.approx(want, abs=3e-3)
        assert ps.ripple_db > 0


def test_passband_ripple_infinite_without_warning():
    """cpmg2's F has an exact zero in the passband."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = filter_metrics(_samples("cpmg", 2, ppd=40))
    assert m.passband_ripple_db == math.inf


@pytest.mark.parametrize("fam, n", [("cpmg", 2), ("cpmg", 4)])
def test_passband_ripple_inf_at_the_rounding_floor(fam, n):
    """cpmg2 and cpmg4 vanish at multiples of 8*pi and 16*pi: F there is
    rounding noise (0.0 to 7.5e-35 by evaluator), under the floor
    4 (eps (n + 1)(u + 1))^2 whichever evaluator runs."""
    s = _samples(fam, n, ppd=40)
    floor = 4.0 * (np.finfo(float).eps * (n + 1) * (metrics.PASSBAND_HI + 1.0)) ** 2
    for fold in (filters._fold, lambda u, segments: None):
        with mock.patch.object(filters, "_fold", fold):
            assert s.evaluate(np.linspace(metrics.PASSBAND_LO, metrics.PASSBAND_HI,
                                          20001)).min() <= floor
            assert passband_stats(s).ripple_db == math.inf


def test_passband_ripple_finite_above_the_floor():
    """udd minima in the passband are resolved values, far above the floor."""
    for n in (3, 7, 11):
        ripple = passband_stats(_samples("udd", n)).ripple_db
        assert 0.0 < ripple < 100.0


@settings(max_examples=30, deadline=None)
@given(fam=st.sampled_from(["fid", "udd", "cpmg", "pdd"]), n=st.integers(1, 12),
       width=st.sampled_from([0.0, 0.01, 0.3]))
def test_passband_mean_folded_matches_node_path(fam, n, width):
    """The folded linear grid gives the node evaluator's passband mean to
    1e-12 (the filter_metrics families of the benchmark, finite width too)."""
    seq = make_canonical(fam) if fam == "fid" else make_canonical(fam, n)
    if width and seq.n:
        seq = make_custom(seq.deltas, width_ratio=width * min_gap(seq))
    s = sample_filter(seq, 1e-3, 1e3, 20, variant="finite" if width else "ideal")
    folded = passband_stats(s)
    with mock.patch.object(filters, "_fold", return_value=None):
        node = passband_stats(s)
    assert folded.mean == pytest.approx(node.mean, rel=1e-12)


def test_passband_stats_needs_two_points():
    s = _samples("udd", 4)
    with pytest.raises(ValueError):
        passband_stats(s, points=1)
    assert passband_stats(s, points=2).mean > 0


@pytest.mark.parametrize("tau, grid", [
    (np.nan, np.linspace(0.1, 30.0, 200)), (np.inf, np.linspace(0.1, 30.0, 200)),
    (0.0, np.linspace(0.1, 30.0, 200)), (-1.0, np.linspace(0.1, 30.0, 200)),
    (1.0, np.r_[np.linspace(0.1, 30.0, 200), np.nan]),
    (1.0, np.r_[np.linspace(0.1, 30.0, 200), np.inf])])
def test_bandpass_profile_rejects_non_finite_input(tau, grid):
    with pytest.raises(ValueError):
        bandpass_profile(make_canonical("cpmg", 4), tau, grid)


def test_passband_insufficient_span():
    with pytest.raises(InsufficientSpan):
        passband_stats(_samples("cpmg", 4, hi=100.0), n=4)


def test_filter_metrics_bundle():
    m = filter_metrics(_samples("udd", 4))
    d = m.to_dict()
    assert d["u_f1"] == pytest.approx(6.2198, abs=1e-3)
    assert d["rolloff_db_per_octave"] == pytest.approx(30.0, rel=0.05)
    assert d["fit_window"][0] < d["fit_window"][1]
    assert d["passband_mean"] == pytest.approx(18.0, rel=0.05)


def test_filter_metrics_refines_u_f1_once(monkeypatch):
    """The fit window reuses the bundle's u_f1: one bisection, not two."""
    s = _samples("udd", 4)
    calls = []
    real = metrics.omega_f1
    monkeypatch.setattr(metrics, "omega_f1", lambda samples: calls.append(1) or real(samples))
    m = filter_metrics(s)
    assert len(calls) == 1
    assert m.u_f1 == real(s) and m.rolloff_db_per_octave == rolloff(s)


def test_bandpass_profile_cpmg():
    """CPMG concentrates gain near omega = n*pi/tau."""
    tau = 1.0
    om = np.linspace(1e-3, 120.0, 24001)
    bp = bandpass_profile(make_canonical("cpmg", 8), tau, om)
    assert bp.flag == "bandpass"
    assert bp.peak_omega == pytest.approx(8 * np.pi, abs=0.5)
    assert bp.bandwidth > 0
    assert 5.0 < bp.out_of_band_rejection_db < 15.0


def test_bandpass_plateau_flag():
    bp = bandpass_profile(make_canonical("fid"), 1.0, np.linspace(1e-3, 3.0, 2001))
    assert bp.flag == "plateau"


def test_filter_ratio_masks_double_floor():
    a = _samples("udd", 10, ppd=100)
    b = _samples("udd", 12, ppd=100)
    comp = filter_ratio(a, b)
    flags = np.array(comp.flags)
    masked = flags == "masked"
    assert masked.any()  # both curves under 1e-30 at tiny u
    assert np.all(np.isnan(comp.ratio[masked]))
    assert not np.any(np.isnan(comp.ratio[~masked]))


def test_filter_ratio_suppression_and_gain_band():
    a = _samples("udd", 10, ppd=200)
    b = _samples("cpmg", 10, ppd=200)
    comp = filter_ratio(a, b)
    ok = (comp.u_grid < 1.0) & np.isfinite(comp.ratio)
    assert np.nanmin(comp.ratio[ok]) <= 1e-10
    # contiguous amplification band near the first unit crossing
    import itertools

    u1 = omega_f1(a)
    near = (comp.u_grid > 0.5 * u1) & (comp.u_grid < 2.0 * u1)
    gt = np.array(comp.flags)[near] == "gt1"
    longest = max((len(list(g)) for k, g in itertools.groupby(gt) if k), default=0)
    assert longest >= 5


def test_filter_ratio_requires_shared_grid_and_variant():
    a = _samples("udd", 10)
    b = _samples("cpmg", 10, lo=1e-2)
    with pytest.raises(ValueError):
        filter_ratio(a, b)
    wide = make_custom(make_canonical("cpmg", 10).deltas, width_ratio=1e-3)
    c = sample_filter(wide, 1e-3, 1e3, 50, variant="finite")
    with pytest.raises(ValueError):
        filter_ratio(a, c)
