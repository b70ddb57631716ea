import time
import tracemalloc

import numpy as np
import pytest

from ddfilter import (
    CollisionAfterRounding,
    GapViolation,
    NonMonotonic,
    OutOfRange,
    PulseSequence,
    canonical_deltas,
    make_canonical,
    make_custom,
    max_order,
    min_gap,
    quantize_timing,
    reflect,
)


def test_canonical_formulas():
    for n in (1, 4, 7, 20):
        j = np.arange(1, n + 1)
        assert np.allclose(canonical_deltas("cpmg", n), (j - 0.5) / n)
        assert np.allclose(canonical_deltas("pdd", n), j / (n + 1))
        assert np.allclose(
            canonical_deltas("udd", n), np.sin(np.pi * j / (2 * n + 2)) ** 2
        )


def test_cpmg1_pdd1_udd1_coincide_at_half():
    for fam in ("cpmg", "pdd", "udd"):
        # udd lands one ulp off 0.5 through sin^2(pi/4)
        assert make_canonical(fam, 1).deltas[0] == pytest.approx(0.5, abs=1e-15)


def test_fid_has_no_pulses():
    seq = make_canonical("fid")
    assert seq.n == 0 and seq.deltas == ()
    with pytest.raises(ValueError):
        make_canonical("fid", 3)


def test_make_canonical_rejects_bad_input():
    with pytest.raises(ValueError):
        make_canonical("xyz", 4)
    with pytest.raises(ValueError):
        make_canonical("cpmg")
    with pytest.raises(ValueError):
        make_canonical("udd", 0)


@pytest.mark.parametrize("n", [2.5, True, -3, 0, None, "4"], ids=repr)
def test_pulse_counts_must_be_integers(n):
    """n = 2.5 built udd2, True udd1, and -3 an empty placement."""
    with pytest.raises(ValueError, match="pulse count n"):
        make_canonical("udd", n)
    with pytest.raises(ValueError, match="pulse count n"):
        canonical_deltas("udd", n)
    assert make_canonical("cpmg", np.int64(3)) == make_canonical("cpmg", 3)


def test_validation_errors():
    with pytest.raises(NonMonotonic):
        make_custom([0.5, 0.4])
    with pytest.raises(NonMonotonic):
        make_custom([0.3, 0.3])
    with pytest.raises(OutOfRange):
        make_custom([0.0, 0.5])
    with pytest.raises(OutOfRange):
        make_custom([0.2, 1.0])
    with pytest.raises(OutOfRange):
        make_custom([0.5], width_ratio=-0.1)
    # width eats the leading gap: 0.1 - 0.25/2 < 0
    with pytest.raises(GapViolation):
        make_custom([0.1, 0.9], width_ratio=0.25)


@pytest.mark.parametrize("deltas, error, shown", [
    ([0.5, 0.4], NonMonotonic, "got [0.5, 0.4]"),
    ([0.2, 1.0], OutOfRange, "got [0.2, 1.0]"),
])
def test_validation_messages_show_plain_floats(deltas, error, shown):
    with pytest.raises(error) as ei:
        make_custom(deltas)
    assert shown in str(ei.value) and "np.float64" not in str(ei.value)


def test_width_fits_when_gaps_allow():
    seq = make_custom([0.5], width_ratio=0.9)
    assert seq.width_ratio == 0.9


def test_dict_round_trip():
    seq = make_custom([0.1, 0.4, 0.8], width_ratio=0.01, label="udd")
    again = PulseSequence.from_dict(seq.to_dict())
    assert again == seq


def test_quantize_snaps_to_grid():
    seq = make_custom([0.123456, 0.51])
    q = quantize_timing(seq, 1e-2)
    assert q.deltas == (0.12, 0.51)


def test_quantize_is_identity_on_grid_points():
    seq = make_canonical("cpmg", 10)  # multiples of 0.05
    q = quantize_timing(seq, 1e-2)
    assert np.allclose(q.deltas, seq.deltas, rtol=0, atol=1e-15)


def test_quantize_collision():
    with pytest.raises(CollisionAfterRounding):
        quantize_timing(make_custom([0.30, 0.32]), 0.1)


def test_quantize_revalidates():
    # udd10's first pulse rounds to 0.0, which is outside (0, 1)
    with pytest.raises(OutOfRange):
        quantize_timing(make_canonical("udd", 10), 0.1)


def test_quantize_rejects_bad_precision():
    with pytest.raises(ValueError):
        quantize_timing(make_canonical("cpmg", 2), 0.0)
    with pytest.raises(ValueError):
        quantize_timing(make_canonical("cpmg", 2), 1.5)


def test_min_gap_values():
    assert min_gap(make_canonical("fid")) == 1.0
    assert min_gap(make_canonical("cpmg", 5)) == pytest.approx(0.1, rel=1e-12)
    assert min_gap(make_canonical("pdd", 9)) == pytest.approx(0.1, rel=1e-12)
    assert min_gap(make_canonical("udd", 20)) == pytest.approx(
        5.5845868874e-03, rel=1e-9
    )


def test_reflect():
    seq = make_custom([0.1, 0.25, 0.7])
    assert np.allclose(reflect(seq).deltas, (0.3, 0.75, 0.9))
    assert np.allclose(reflect(reflect(seq)).deltas, seq.deltas, atol=1e-15)
    # udd is reflection-symmetric
    u = make_canonical("udd", 6)
    assert np.allclose(reflect(u).deltas, u.deltas)


def test_max_order_values():
    assert max_order("udd", 100.0, 0.1) == 48
    assert max_order("pdd", 1.0, 0.1) == 9
    assert max_order("cpmg", 1.0, 0.1) == 5
    # exact-ratio boundary: cpmg n gives min gap 1/(2n); tau_switch hits it
    assert max_order("cpmg", 1.0, 0.05) == 10
    for family in ("cpmg", "pdd", "udd"):    # the cap, where tau / tau_switch overflows
        assert max_order(family, 1e300, 1e-300) == max_order(family, 1e308, 1e-10) == 10_000_001


def test_max_order_rejects_bad_input():
    with pytest.raises(ValueError):
        max_order("fid", 1.0, 0.1)
    with pytest.raises(ValueError):
        max_order("udd", 0.1, 0.1)
    for family in ("cpmg", "pdd", "udd"):
        for tau, tau_switch in ((np.inf, 0.1), (np.inf, 1.0), (np.inf, np.inf), (np.nan, 0.1),
                                (1.0, np.nan)):
            with pytest.raises(ValueError):
                max_order(family, tau, tau_switch)


def _max_order_by_scan(family, tau, tau_switch):
    """The definition of max_order as a linear scan over n."""
    limit = tau_switch * (1.0 - 1e-12)
    n = 0
    while not min_gap(make_canonical(family, n + 1)) * tau < limit:
        n += 1
    return n


@pytest.mark.parametrize("family", ["cpmg", "pdd", "udd"])
def test_max_order_search_matches_linear_scan(family):
    gap = {"cpmg": lambda k: 0.5 / k, "pdd": lambda k: 1.0 / (k + 1),
           "udd": lambda k: float(np.sin(np.pi / (2 * k + 2)) ** 2)}[family]
    ratios = list(np.geomspace(1.05, 400.0, 23))
    # exact ties: tau_switch equal to the minimum gap at some n, from both sides
    ties = [(tau, tau * gap(k) * f) for k in (1, 2, 3, 7, 16, 33, 64, 100)
            for tau in (1.0, 3.7) for f in (1.0, 1.0 + 1e-13, 1.0 - 1e-13, 1.0 + 1e-9)]
    cases = [(2.5, 2.5 / r) for r in ratios] + [(t, s) for t, s in ties if t > s]
    for tau, tau_switch in cases:
        assert max_order(family, tau, tau_switch) == \
            _max_order_by_scan(family, tau, tau_switch), (family, tau, tau_switch)


_GAP = {"cpmg": lambda k: 0.5 / k, "pdd": lambda k: 1.0 / (k + 1),
        "udd": lambda k: float(np.sin(np.pi / (2 * k + 2)) ** 2)}


@pytest.mark.parametrize("family", ["cpmg", "pdd", "udd"])
def test_max_order_exact_ties(family):
    """tau_switch exactly tau times the smallest gap at k returns k, and 1e-9
    above it k - 1, up to 10^6: the built sequence's last gap 1 - delta_n
    carries delta_n's rounding, so this needs the closed-form gap."""
    ks = list(range(1, 401)) + sorted({int(k) for k in np.geomspace(401, 1e6, 60)})
    for tau in (1.0, 3.0):
        for k in ks:
            tie = tau * _GAP[family](k)
            assert max_order(family, tau, tie) == k, (family, tau, k)
            assert max_order(family, tau, tie * (1.0 + 1e-9)) == k - 1, (family, tau, k)


def test_max_order_builds_no_sequence(monkeypatch):
    """tau / tau_switch = 10^7 answers in under 0.1 s and 1 MB without
    building a PulseSequence (the search built one per probe)."""
    built = []
    real = PulseSequence.__post_init__
    monkeypatch.setattr(PulseSequence, "__post_init__",
                        lambda self: built.append(1) or real(self))
    for family, want in (("cpmg", 5_000_000), ("pdd", 9_999_999), ("udd", 4966)):
        tracemalloc.start()
        t = time.perf_counter()
        try:
            n = max_order(family, 1.0, 1e-7)
            elapsed = time.perf_counter() - t
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == want and elapsed < 0.1 and peak < 1 << 20, (family, n, elapsed, peak)
    assert built == []


def test_quantizing_fid_returns_it():
    fid = make_canonical("fid")
    assert quantize_timing(fid, 0.01) is fid


@pytest.mark.parametrize("family, tau, tau_switch, want", [
    ("cpmg", 2.9999999999969997, 0.3, 5), ("udd", 146.6415786679508, 1.0, 18),
    ("cpmg", 37.999999999962, 1.0, 18), ("udd", 14.928203230260584, 1.0, 4)])
def test_max_order_steps_across_float_edges(family, tau, tau_switch, want):
    """Within 1e-12 of a tie the closed-form inverse lands one below the
    answer (cpmg5, udd18) or one above it (cpmg18, udd4); steps of one on
    the closed-form gap settle it."""
    assert max_order(family, tau, tau_switch) == want
