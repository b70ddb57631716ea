import math
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfilter import (
    InsufficientSpan,
    NoCrossing,
    NoPeak,
    WindowOutOfRange,
    bandpass_profile,
    filter_metrics,
    filter_ratio,
    make_canonical,
    make_custom,
    min_gap,
    modified_filter_value,
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
        ps = passband_stats(_samples(fam, n))
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


@pytest.mark.parametrize("tau, grid", [
    (np.nan, np.linspace(0.1, 30.0, 200)), (np.inf, np.linspace(0.1, 30.0, 200)),
    (0.0, np.linspace(0.1, 30.0, 200)), (-1.0, np.linspace(0.1, 30.0, 200)),
    (1.0, np.r_[np.linspace(0.1, 30.0, 200), np.nan]),
    (1.0, np.r_[np.linspace(0.1, 30.0, 200), np.inf])])
def test_bandpass_profile_rejects_non_finite_input(tau, grid):
    with pytest.raises(ValueError):
        bandpass_profile(make_canonical("cpmg", 4), tau, grid)


def test_fit_window_is_python_floats():
    """Whichever bound sets the window: u_f1/32 and u_f1/8 (udd4), or an
    end of the clean span (udd11's low end, pdd4's and FID's high end)."""
    for fam, n in (("udd", 4), ("udd", 11), ("pdd", 4), ("fid", None)):
        assert [type(u) for u in filter_metrics(_samples(fam, n)).fit_window] == [float, float]


def test_passband_insufficient_span():
    with pytest.raises(InsufficientSpan):
        passband_stats(_samples("cpmg", 4, hi=100.0))


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


# ------------------------------------------------- loop references

def _bandpass_reference(om, vals):
    """bandpass_profile's point-by-point walks and scans, kept as the
    reference for its array version."""
    j = int(np.argmax(vals))
    if 0 < j < om.size - 1:
        flag = "bandpass"
        l = j
        while l > 0 and vals[l - 1] < vals[l]:
            l -= 1
        rr = j
        while rr < om.size - 1 and vals[rr + 1] < vals[rr]:
            rr += 1
    else:
        flag = "plateau"
        j = 0 if vals[0] >= vals[-1] else om.size - 1
        l = 0
        rr = j
        while rr < om.size - 1 and vals[rr + 1] < vals[rr]:
            rr += 1
    peak = vals[j]
    half = peak / 2.0
    left = om[l]
    for k in range(j, l, -1):
        if vals[k - 1] < half <= vals[k]:
            t = (half - vals[k - 1]) / (vals[k] - vals[k - 1])
            left = om[k - 1] + t * (om[k] - om[k - 1])
            break
    right = om[rr]
    for k in range(j, rr):
        if vals[k + 1] < half <= vals[k]:
            t = (vals[k] - half) / (vals[k] - vals[k + 1])
            right = om[k] + t * (om[k + 1] - om[k])
            break
    outside = np.ones(om.size, dtype=bool)
    outside[l:rr + 1] = False
    if flag == "plateau":
        outside[: rr + 1] = False
    if outside.any() and np.any(vals[outside] > 0):
        rejection = float(10.0 * np.log10(peak / vals[outside].max()))
    else:
        rejection = float("inf")
    return metrics.BandpassProfile(float(om[j]), float(right - left), max(rejection, 0.0), flag)


def _flags_reference(masked, ratio):
    """filter_ratio's per-point flags, one branch chain per point."""
    flags = []
    for m, r in zip(masked, ratio):
        if m or not np.isfinite(r):
            flags.append("masked" if m else "gt1")
        elif r < 1.0:
            flags.append("lt1")
        elif r > 1.0:
            flags.append("gt1")
        else:
            flags.append("eq")
    return tuple(flags)


def _bits(profile):
    return [float(v).hex() if isinstance(v, float) else v for v in profile.to_dict().values()]


@settings(max_examples=150, deadline=None)
@given(fam=st.sampled_from(["fid", "cpmg", "pdd", "udd", "custom"]), n=st.integers(1, 16),
       tau=st.floats(0.1, 20.0), kind=st.sampled_from(["linear", "log", "random"]),
       size=st.integers(5, 400), seed=st.integers(0, 2 ** 32 - 1))
def test_bandpass_profile_matches_the_loop_reference(fam, n, tau, kind, size, seed):
    """The array lobe and half-max search gives the loops' numbers bit for
    bit on real profiles: linear, log and random grids."""
    rng = np.random.default_rng(seed)
    if fam == "fid":
        seq = make_canonical("fid")
    elif fam == "custom":
        ends = np.cumsum(rng.uniform(0.5, 1.5, n + 1))
        seq = make_custom(ends[:-1] / ends[-1])
    else:
        seq = make_canonical(fam, n)
    hi = rng.uniform(5.0, 100.0) * (n + 1) / tau
    if kind == "linear":
        om = np.linspace(hi / size, hi, size)
    elif kind == "log":
        om = np.logspace(np.log10(hi) - 3.0, np.log10(hi), size)
    else:
        om = np.sort(rng.uniform(1e-3, hi, size))
    want = _bandpass_reference(om, modified_filter_value(seq, om, tau))
    assert _bits(bandpass_profile(seq, tau, om)) == _bits(want)


_TIES = st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 2.0, 3.0, 4.0]), min_size=5, max_size=40)
_RUNS = st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 8)), min_size=1,
                 max_size=8).map(lambda runs: np.maximum(np.cumsum(
                     [step for step, length in runs for _ in range(length)]), 0.0))


@settings(max_examples=400, deadline=None)
@given(values=st.one_of(_TIES, _RUNS), random_grid=st.booleans(), seed=st.integers(0, 99))
def test_bandpass_profile_matches_the_loop_reference_on_ties(values, random_grid, seed):
    """Ties, zeros, plateaus and monotone runs, fed in as the modified
    filter: lobe edges, crossings and rejection match the loops."""
    vals = np.asarray(values, dtype=float)
    if vals.size < 5:
        vals = np.concatenate([vals, np.zeros(5 - vals.size)])
    om = (np.cumsum(np.random.default_rng(seed).uniform(0.1, 2.0, vals.size))
          if random_grid else np.arange(1.0, vals.size + 1))
    with mock.patch.object(metrics, "modified_filter_value", lambda seq, omega, tau: vals):
        if not np.any(vals > 0):
            with pytest.raises(NoPeak):
                bandpass_profile(make_canonical("fid"), 1.0, om)
            return
        got = bandpass_profile(make_canonical("fid"), 1.0, om)
    assert _bits(got) == _bits(_bandpass_reference(om, vals))


@settings(max_examples=200, deadline=None)
@given(fa=st.lists(st.sampled_from([0.0, 1e-31, 1e-30, 0.5, 1.0, 2.0, math.inf]),
                   min_size=1, max_size=30),
       fb=st.lists(st.sampled_from([0.0, 1e-31, 1e-30, 0.5, 1.0, 2.0, math.inf]),
                   min_size=1, max_size=30))
def test_filter_ratio_flags_match_the_loop_reference(fa, fb):
    """Every branch of the point-by-point flags: masked, zero and infinite
    denominators, equal values, and ratios either side of 1."""
    size = min(len(fa), len(fb))
    u = np.arange(1.0, size + 1)
    a, b = (types.SimpleNamespace(variant="ideal", u_grid=u, values=np.array(v[:size]))
            for v in (fa, fb))
    comp = filter_ratio(a, b)
    masked = (a.values < metrics.FLOOR) & (b.values < metrics.FLOOR)
    assert comp.flags == _flags_reference(masked, comp.ratio)


@pytest.mark.parametrize("fa, fb", [("udd", "cpmg"), ("pdd", "udd"), ("cpmg", "cpmg")])
def test_filter_ratio_shares_four_flag_strings(fa, fb):
    """Real sample pairs match the loop flags, and the tuple holds at most
    four distinct str objects, whatever its length."""
    a, b = _samples(fa, 10, ppd=100), _samples(fb, 12, ppd=100)
    comp = filter_ratio(a, b)
    masked = (a.values < metrics.FLOOR) & (b.values < metrics.FLOOR)
    assert comp.flags == _flags_reference(masked, comp.ratio)
    assert len(comp.flags) == a.u_grid.size
    assert len({id(f) for f in comp.flags}) <= 4


def test_passband_stats_grid_resolves_the_fastest_cosine():
    """PASSBAND_POINTS on [100 pi, 200 pi] puts 400 steps in each period 2 pi
    of F's fastest cosine, cos(u (t_j - t_k)) with |t_j - t_k| <= 1."""
    step = (metrics.PASSBAND_HI - metrics.PASSBAND_LO) / (metrics.PASSBAND_POINTS - 1)
    assert 2.0 * math.pi / step == pytest.approx(400.0, rel=1e-12)
