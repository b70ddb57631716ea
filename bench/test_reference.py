"""Tests of the benchmark's reference module against textbook limits.

    python3 -m pytest bench/test_reference.py -q
"""

import math

import numpy as np
import pytest
from scipy import integrate

import reference as ref

OHMIC = {"variant": "ohmic", "amplitude": 0.1, "omega_d": 5.0}
WHITE = {"variant": "white", "level": 0.02, "omega_hi": 100.0}
SUPRA = {"variant": "supraohmic", "alpha": 1.14e-2, "omega_c": 3.0}
POWER = {"variant": "powerlaw", "amplitude": 1.0, "exponent": -2.0, "omega_lo": 0.1, "omega_hi": 10.0}
TABLE = {"variant": "tabulated", "omegas": [0.1, 1.0, 10.0], "values": [1.0, 0.5, 0.01]}
ALL = (OHMIC, WHITE, SUPRA, POWER, TABLE)


def test_white_fid_chi_is_half_level_times_tau():
    # wide-band limit: chi_FID = S0 tau / 2, approached as 1 - 2/(pi W tau)
    spec = dict(WHITE, omega_hi=1e7)
    tau = 3.0
    chi, bound = ref.chi_pairwise((), spec, tau)
    assert chi == pytest.approx(0.5 * spec["level"] * tau, rel=1e-6)
    assert bound < 1e-12 * chi


def test_hahn_echo_filter_is_16_sin4():
    u = np.geomspace(1e-2, 1e3, 200)
    want = 16.0 * np.sin(u / 4.0) ** 4
    assert np.allclose(ref.filter_exact((0.5,), u), want, rtol=1e-9, atol=1e-12)
    assert np.allclose(ref.filter_toggling((0.5,), u), want, rtol=1e-9, atol=1e-12)


def test_fid_filter_is_sin2():
    u = np.linspace(0.1, 50.0, 101)
    assert np.allclose(ref.filter_exact((), u), np.sin(u / 2.0) ** 2, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s["variant"])
def test_structure_function_vanishes_at_zero_lag(spec):
    d, err = ref.structure_function(spec, np.array([0.0, 1e-3, 0.5]))
    assert d[0] == 0.0
    assert np.all(d[1:] > 0) and np.all(err >= 0)


@pytest.mark.parametrize("spec", (OHMIC, WHITE, SUPRA), ids=lambda s: s["variant"])
def test_closed_forms_match_direct_integration(spec):
    hi = {"ohmic": 5.0, "white": 100.0, "supraohmic": 150.0}[spec["variant"]]
    s = {"ohmic": lambda w: 0.1 * w, "white": lambda w: 0.02,
         "supraohmic": lambda w: 1.14e-2 * w ** 3 * math.exp(-w / 3.0)}[spec["variant"]]
    for t in (1e-3, 0.05, 0.37, 1.9, 4.0):
        want = (2 / math.pi) * integrate.quad(
            lambda w: s(w) * 2.0 * math.sin(0.5 * w * t) ** 2 / w ** 2, 0.0, hi,
            limit=2000, epsabs=0.0, epsrel=1e-12)[0]
        got, _ = ref.structure_function(spec, np.array([t]))
        assert got[0] == pytest.approx(want, rel=1e-9)


def test_cin_series_and_sici_branches_meet():
    x = np.array([2.0 - 1e-12, 2.0])
    spec = dict(OHMIC, omega_d=1.0)
    d, _ = ref.structure_function(spec, x)
    assert d[0] == pytest.approx(d[1], rel=1e-11)


def test_power_law_quadrature_matches_white_band():
    # exponent 0 from omega 0 is a white band: both D(t) routes agree
    flat = {"variant": "powerlaw", "amplitude": 0.02, "exponent": 0.0,
            "omega_lo": 0.0, "omega_hi": 100.0}
    t = np.array([1e-3, 0.01, 0.15])
    got, err = ref.structure_function(flat, t)
    want, _ = ref.structure_function(WHITE, t)
    assert np.allclose(got, want, rtol=1e-10)
    assert np.all(err < 1e-9 * got)


@pytest.mark.parametrize("spec", (OHMIC, WHITE, SUPRA), ids=lambda s: s["variant"])
def test_extended_precision_agrees_where_double_resolves(spec):
    deltas = ref.canonical_deltas("udd", 4)
    chi, bound = ref.chi_pairwise(deltas, spec, 2.0)
    assert bound < 1e-9 * chi
    assert ref.chi_mp(deltas, spec, 2.0) == pytest.approx(chi, rel=1e-10)


def test_extended_precision_resolves_the_deep_stop_band():
    # udd12 under the ohmic bath at tau = 0.5: double precision cancels
    # every digit, 60 digits do not
    deltas = ref.canonical_deltas("udd", 12)
    chi, bound = ref.chi_pairwise(deltas, OHMIC, 0.5)
    deep = ref.chi_mp(deltas, OHMIC, 0.5)
    assert bound > 1e6 * deep > 0
    assert ref.chi_mp(deltas, OHMIC, 0.5, dps=80) == pytest.approx(deep, rel=1e-12)


def test_chi_is_invariant_under_reflection():
    deltas = np.array([0.1, 0.35, 0.4, 0.8])
    mirrored = np.sort(1.0 - deltas)
    for spec in ALL:
        a, bound = ref.chi_pairwise(deltas, spec, 1.3)
        b, _ = ref.chi_pairwise(mirrored, spec, 1.3)
        assert abs(a - b) <= 2 * bound + 1e-13 * a


def test_finite_width_pairwise_matches_toggling_transform():
    deltas = ref.canonical_deltas("udd", 6)
    u = np.geomspace(0.1, 500.0, 150)
    a = ref.filter_exact(deltas, u, 0.01)
    b = ref.filter_toggling(deltas, u, 0.01)
    assert np.allclose(a, b, rtol=1e-8, atol=ref.filter_bound(deltas, u, 0.01).max())
    # zero width reduces to the ideal filter
    assert np.allclose(ref.filter_exact(deltas, u, 0.0),
                       ref.filter_toggling(deltas, u, 0.0), rtol=1e-8, atol=1e-10)


def test_filter_area_matches_numerical_integral():
    deltas = ref.canonical_deltas("cpmg", 3)
    want = integrate.quad(lambda u: ref.filter_exact(deltas, u)[0], 0.0, 7.0,
                          limit=500, epsrel=1e-12)[0]
    assert ref.filter_area(deltas, 7.0) == pytest.approx(want, rel=1e-10)


def test_suppression_orders_of_canonical_families():
    assert ref.suppression_order(()) == 1
    assert [ref.suppression_order(ref.canonical_deltas("udd", n)) for n in range(1, 8)] == \
        list(range(2, 9))
    assert [ref.suppression_order(ref.canonical_deltas("cpmg", n)) for n in (1, 2, 3, 4)] == \
        [2, 3, 2, 3]
    assert [ref.suppression_order(ref.canonical_deltas("pdd", n)) for n in (1, 2, 3, 4)] == \
        [2, 1, 2, 1]


@pytest.mark.parametrize("family", ("cpmg", "pdd", "udd"))
def test_max_order_matches_a_scan(family):
    for tau, ts in ((1.0, 1e-3), (7.3, 0.011), (1.0, 0.25), (2.0, 0.5), (1.0, 0.6)):
        n = 0
        while ref.canonical_min_gap(family, n + 1) * tau >= ts * (1 - 1e-12):
            n += 1
        assert ref.max_order(family, tau, ts) == n
