import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfilter import (
    CurveFailure,
    OhmicSharpCutoff,
    PowerLaw,
    QuadratureConfig,
    SupraOhmicExp,
    ToleranceNotMet,
    WhiteBand,
    canonical_deltas,
    chi,
    coherence_curve,
    coherence_w,
    make_canonical,
    make_custom,
    min_gap,
    reflect,
    white_fid_chi,
)
from ddfilter.coherence import _chi_quadrature
from ddfilter.filters import PAIR_ROUNDING, _switching_times, pair_sums

OHMIC = OhmicSharpCutoff(amplitude=0.1, omega_d=5.0)
WHITE = WhiteBand(level=0.02, omega_hi=100.0)


def test_frozen_reference_values():
    """Cross-implementation anchors computed from the covariance quadratic
    form of the toggling function (independent time-domain route)."""
    assert chi(make_canonical("fid"), OHMIC, 1.0) == pytest.approx(
        0.07565217993098248, rel=1e-9
    )
    assert chi(make_canonical("cpmg", 4), OHMIC, 1.0) == pytest.approx(
        0.0021362736767175792, rel=1e-9
    )
    assert chi(make_canonical("udd", 6), OHMIC, 1.0) == pytest.approx(
        2.2618616549018836e-06, rel=1e-8
    )
    assert chi(make_canonical("udd", 6), WHITE, 1.0) == pytest.approx(
        0.036649671045028025, rel=1e-9
    )


def test_white_fid_analytic_anchor():
    """FID under broadband white noise reaches chi = level * tau / 2."""
    for om_hi_tau in (200.0, 400.0):
        spec = WhiteBand(level=0.02, omega_hi=om_hi_tau)
        got = chi(make_canonical("fid"), spec, 1.0)
        want = white_fid_chi(0.02, 1.0)
        assert got == pytest.approx(want, rel=5e-3)
    assert white_fid_chi(0.3, 2.0) == 0.3


def test_chi_linear_in_amplitude():
    seq = make_canonical("cpmg", 2)
    a = chi(seq, OhmicSharpCutoff(amplitude=1.0, omega_d=5.0), 1.0)
    b = chi(seq, OhmicSharpCutoff(amplitude=2.5, omega_d=5.0), 1.0)
    assert b == pytest.approx(2.5 * a, rel=1e-10)


def test_zero_spectrum_gives_zero_chi():
    assert chi(make_canonical("cpmg", 4), WhiteBand(level=0.0, omega_hi=10.0), 1.0) == 0.0
    assert coherence_w(make_canonical("cpmg", 4), WhiteBand(level=0.0, omega_hi=10.0), 1.0) == 1.0


def test_chi_rejects_bad_tau():
    with pytest.raises(ValueError):
        chi(make_canonical("fid"), OHMIC, 0.0)


def test_chi_rejects_non_finite_tau():
    for tau in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            chi(make_canonical("udd", 4), OHMIC, tau)


def test_full_output_diagnostics():
    seq = make_canonical("cpmg", 4)
    val, diag = chi(seq, OHMIC, 1.0, full_output=True)
    assert val == pytest.approx(0.0021362736767175792, rel=1e-9)
    assert diag["path"] == "pairwise"
    assert diag["error_estimate"] <= 1e-8 * val
    quad, qdiag = _chi_quadrature(seq, OHMIC, 1.0, full_output=True)
    assert qdiag["path"] == "quadrature"
    assert quad == pytest.approx(val, rel=1e-9)
    assert qdiag["error_estimate"] <= 1e-8 * quad
    assert qdiag["panels"] >= 1
    # no closed-form structure function: quadrature
    _, pdiag = chi(seq, PowerLaw(0.1, 0.5, 0.0, 5.0), 1.0, full_output=True)
    assert pdiag["path"] == "quadrature" and pdiag["panels"] >= 1
    assert qdiag["filter"] == "direct" and pdiag["filter"] == "direct"
    # the stop band: the rounding bound sends chi to quadrature, which
    # keeps the segment sum while the pairwise value has digits left ...
    _, sdiag = chi(make_canonical("udd", 6), OHMIC, 1.0, full_output=True)
    assert sdiag["path"] == "quadrature" and sdiag["filter"] == "direct"
    # ... and takes the moment series once it has none (B >= |chi|)
    deep, ddiag = chi(make_canonical("udd", 12), OHMIC, 0.5, full_output=True)
    assert ddiag["path"] == "quadrature" and ddiag["filter"] == "series"
    assert ddiag["series_degree"] > 13 and ddiag["crossover_u"] == pytest.approx(2.5)
    assert deep == pytest.approx(7.993577e-25, rel=1e-6)
    assert ddiag["error_estimate"] <= 1e-8 * deep and ddiag["panels"] >= 1


def test_finite_width_raises_chi_for_stopband_bath():
    """Pulse width lifts the deep stop-band floor, so a bath living well
    below the passband edge decoheres a wide-pulse sequence much faster."""
    from ddfilter import make_custom

    seq = make_canonical("udd", 6)
    wide = make_custom(seq.deltas, width_ratio=1e-2)
    low_bath = OhmicSharpCutoff(amplitude=0.1, omega_d=1.0)
    assert chi(wide, low_bath, 1.0) > 10.0 * chi(seq, low_bath, 1.0)


def test_coherence_w_is_exp_minus_chi():
    seq = make_canonical("cpmg", 4)
    assert coherence_w(seq, OHMIC, 1.0) == pytest.approx(
        np.exp(-chi(seq, OHMIC, 1.0)), rel=1e-12
    )


def test_curve_monotone_decay_for_white_noise():
    taus = np.geomspace(0.2, 5.0, 12)
    curve = coherence_curve(make_canonical("cpmg", 4), WHITE, taus)
    assert np.all(np.diff(curve.w_values) < 0)
    assert np.all(np.diff(curve.chi_values) > 0)
    assert curve.labels[0] == "cpmg:4"
    assert curve.pulse_counts == (4,) * 12


def test_curve_accepts_callable_source():
    taus = np.array([1.0, 2.0, 4.0])

    def pick(tau):
        return make_canonical("cpmg", 2 if tau < 3 else 8)

    curve = coherence_curve(pick, WHITE, taus)
    assert curve.pulse_counts == (2, 2, 8)


def test_curve_failure_aggregates_indices():
    taus = np.array([1.0, 2.0])
    bad = WhiteBand(level=0.02, omega_hi=np.inf)  # support query fails
    with pytest.raises(CurveFailure) as ei:
        coherence_curve(make_canonical("cpmg", 2), bad, taus)
    assert len(ei.value.failures) == 2


def test_curve_rejects_bad_grid():
    with pytest.raises(ValueError):
        coherence_curve(make_canonical("fid"), WHITE, np.array([2.0, 1.0]))


def test_curve_rejects_non_finite_grid():
    for bad in ([1.0, np.nan], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError):
            coherence_curve(make_canonical("cpmg", 2), WHITE, np.array(bad))


def test_tight_quadrature_config_still_converges():
    cfg = QuadratureConfig(rel_tol=1e-11)
    assert chi(make_canonical("udd", 6), OHMIC, 1.0, cfg) == pytest.approx(
        2.2618616549018836e-06, rel=1e-8
    )


SPECTRA = st.one_of(
    st.builds(OhmicSharpCutoff, st.floats(0.01, 1.0), st.floats(0.5, 20.0)),
    st.builds(WhiteBand, st.floats(1e-3, 0.1), st.floats(1.0, 100.0)),
    st.builds(SupraOhmicExp, st.floats(1e-3, 0.1), st.floats(0.3, 5.0)),
)


@st.composite
def pulse_sequences(draw):
    family = draw(st.sampled_from(["cpmg", "pdd", "udd", "custom"]))
    n = draw(st.integers(1, 200))
    if family == "custom":
        gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n + 1,
                                      max_size=n + 1)))
        deltas = np.cumsum(gaps / gaps.sum())[:-1]
    else:
        deltas = canonical_deltas(family, n)
    seq = make_custom(deltas)
    # ideal pulses, or windows up to 90% of the shortest gap
    width = draw(st.sampled_from([0.0, 0.0, 1e-3, 0.3, 0.9])) * min_gap(seq)
    return make_custom(deltas, width_ratio=width)


@settings(max_examples=60, deadline=None)
@given(pulse_sequences(), SPECTRA, st.floats(0.01, 2.0))
def test_pairwise_chi_matches_quadrature(seq, spec, depth):
    """Wherever chi takes the pairwise path it agrees with quadrature
    within the tolerance, the rounding bound it reports and, for the
    supra-ohmic spectrum, the mass quadrature drops beyond its support.
    The end of the spectrum's support sits at u = depth * pi * (n + 1),
    from deep in the stop band (quadrature path) to past the first
    passband peak near u = pi * n."""
    # coarse panels and few refinement rounds keep the quadrature small;
    # deep in the stop band it gives up early
    cfg = QuadratureConfig(max_subdivisions=3, oscillation_resolution=4)
    support_end = spec.effective_support(cfg.rel_tol / 10.0)[1]
    tau = max(0.3, depth * np.pi * (seq.n + 1)) / support_end
    try:
        value, info = chi(seq, spec, tau, cfg, full_output=True)
    except ToleranceNotMet:
        # Only the series route (B >= |chi|) still gives up: past its
        # crossover (n ~ 100 and more) F lies below both evaluators'
        # rounding floors, and three rounds can be too few for a widened
        # supra-ohmic support.
        total, magnitude, _ = pair_sums(seq, lambda lag: spec.structure_function(tau * lag))
        assert 2.0 * PAIR_ROUNDING * magnitude >= abs(2.0 * total)
        return
    assert value >= 0.0
    if info["path"] != "pairwise":
        return
    quad = _chi_quadrature(seq, spec, tau, cfg)
    allowed = cfg.rel_tol * value + info["error_estimate"]
    if isinstance(spec, SupraOhmicExp):
        # S/omega^2 has total mass alpha omega_c^2; quadrature drops the
        # fraction rel_tol/10 of it, where F <= (sum |c|)^2 = (4n + 2)^2
        allowed += (2.0 / np.pi) * spec.alpha * spec.omega_c ** 2 * cfg.rel_tol / 10.0 \
            * (4 * seq.n + 2) ** 2
    assert abs(value - quad) <= allowed


def test_tolerance_failure_carries_chi_not_the_raw_integral():
    """A power law with exponent 0 is the white band; deep in the stop band
    its direct quadrature gives up, and the best value it carries is chi
    (the raw integral would be pi/2 larger) next to the series route's."""
    seq = make_canonical("udd", 12)
    white, info = chi(seq, WhiteBand(0.1, 5.0), 0.5, full_output=True)
    assert info["filter"] == "series"
    with pytest.raises(ToleranceNotMet) as ei:
        chi(seq, PowerLaw(0.1, 0.0, 0.0, 5.0), 0.5)
    assert ei.value.value == pytest.approx(white, rel=1e-4)
    assert 0.0 < ei.value.achieved < 1e-4 * white


def test_curve_failure_names_its_cause():
    taus = np.array([0.5, 0.6])
    with pytest.raises(CurveFailure) as ei:
        coherence_curve(make_canonical("udd", 12), PowerLaw(0.1, 0.0, 0.0, 5.0), taus)
    msg = str(ei.value)
    assert "indices [0, 1]" in msg and "ToleranceNotMet" in msg
    first = ei.value.failures[0][1]
    assert f"value {first.value:.6e}" in msg and f"achieved {first.achieved:.3e}" in msg


def _d_mp(spec, t, mpmath):
    """Closed-form structure function D(t) in mpmath."""
    if isinstance(spec, OhmicSharpCutoff):
        x = mpmath.mpf(spec.omega_d) * t
        return 2 * mpmath.mpf(spec.amplitude) / mpmath.pi * (
            mpmath.euler + mpmath.log(x) - mpmath.ci(x))
    if isinstance(spec, WhiteBand):
        w = mpmath.mpf(spec.omega_hi)
        x = w * t
        return 2 * mpmath.mpf(spec.level) / (mpmath.pi * w) * (
            x * mpmath.si(x) - (1 - mpmath.cos(x)))
    s2 = (mpmath.mpf(spec.omega_c) * t) ** 2
    return 2 * mpmath.mpf(spec.alpha) * mpmath.mpf(spec.omega_c) ** 2 / mpmath.pi * \
        s2 * (3 + s2) / (1 + s2) ** 2


def _chi_mp(seq, spec, tau, mpmath):
    """-2 sum_{j<k} c_j c_k D(tau (t_k - t_j)) in 60-digit arithmetic, with
    the switching times exact (anchor + offset)."""
    anchors, offsets, c = _switching_times(seq)
    with mpmath.workdps(60):
        t = [mpmath.mpf(float(a)) + mpmath.mpf(float(o)) for a, o in zip(anchors, offsets)]
        tau = mpmath.mpf(float(tau))
        total = mpmath.mpf(0)
        for j in range(len(t)):
            for k in range(j + 1, len(t)):
                total += float(c[j]) * float(c[k]) * _d_mp(spec, tau * (t[k] - t[j]), mpmath)
        return float(-2 * total)


def test_series_route_counts_the_supra_ohmic_tail():
    """The supra-ohmic support is cut by S/omega^2 mass, not by the
    filter: beyond it F is in the passband. The series route widens the
    support until the dropped weight is within the tolerance."""
    mpmath = pytest.importorskip("mpmath")
    spec = SupraOhmicExp(1.14e-2, 3.0)
    seq = make_canonical("udd", 30)
    value, info = chi(seq, spec, 0.5, full_output=True)
    assert info["filter"] == "series"
    assert info["support"][1] > spec.effective_support(1e-9)[1]
    want = _chi_mp(seq, spec, 0.5, mpmath)
    assert abs(value - want) <= max(info["error_estimate"], 1e-7 * want)


def test_direct_route_counts_the_supra_ohmic_tail():
    """The direct route widens the supra-ohmic support the same way: at
    udd12, tau 0.2 the pairwise sum keeps a digit (direct quadrature), and
    the support of rel_tol / 10 of the mass ends at u = 14.9, where half
    of chi still lies beyond it."""
    mpmath = pytest.importorskip("mpmath")
    spec = SupraOhmicExp(1.14e-2, 3.0)
    seq = make_canonical("udd", 12)
    value, info = chi(seq, spec, 0.2, full_output=True)
    assert info["path"] == "quadrature" and info["filter"] == "direct"
    assert info["support"][1] > spec.effective_support(1e-9)[1]
    want = _chi_mp(seq, spec, 0.2, mpmath)
    assert abs(value - want) <= max(info["error_estimate"], 1e-7 * want)


DEEP_SPECTRA = st.one_of(
    st.builds(OhmicSharpCutoff, st.floats(0.01, 1.0), st.floats(0.5, 20.0)),
    st.builds(WhiteBand, st.floats(1e-3, 0.1), st.floats(1.0, 100.0)),
)


@st.composite
def dyadic_sequences(draw):
    """Canonical positions rounded to multiples of 2^-53, so 1 - delta is
    exact and reflect is an exact mirror; ideal or finite width."""
    family = draw(st.sampled_from(["cpmg", "pdd", "udd"]))
    n = draw(st.integers(1, 40))
    deltas = np.round(canonical_deltas(family, n) * 2.0 ** 53) / 2.0 ** 53
    width = draw(st.sampled_from([0.0, 0.0, 1e-6, 1e-3, 0.3])) * min_gap(make_custom(deltas))
    return make_custom(deltas, width_ratio=width, label=family)


@settings(max_examples=30, deadline=None)
@given(dyadic_sequences(), DEEP_SPECTRA, st.floats(-3.0, -0.5))
def test_deep_stop_band_chi_matches_extended_precision(seq, spec, log_depth):
    """With the support's end at u = 10^log_depth (n + 1), deep in the
    stop band, chi returns a value within its reported error (or ten times
    the tolerance) of the 60-digit pairwise sum, and the mirror image
    gives the same chi."""
    mpmath = pytest.importorskip("mpmath")
    rel_tol = QuadratureConfig().rel_tol
    tau = 10.0 ** log_depth * (seq.n + 1) / spec.effective_support(rel_tol / 10.0)[1]
    value, info = chi(seq, spec, tau, full_output=True)
    assert value >= 0.0
    allowed = max(info["error_estimate"], 10.0 * rel_tol * value)
    assert abs(value - _chi_mp(seq, spec, tau, mpmath)) <= allowed
    mirror, mirror_info = chi(reflect(seq), spec, tau, full_output=True)
    assert abs(mirror - value) <= allowed + max(mirror_info["error_estimate"],
                                                10.0 * rel_tol * mirror)


def test_long_tau_chi_memory_stays_bounded():
    """udd200 with finite width under a power law at tau 500 runs quadrature
    on 3,177 panels of 201 segments. The panel evaluator builds its tables
    a block of panels at a time, so the peak stays a few panel-node arrays
    (node by node it was (n + 1) x nodes complex tables: 0.5 GB)."""
    seq = make_custom(make_canonical("udd", 200).deltas, width_ratio=1e-4)
    tracemalloc.start()
    try:
        value = chi(seq, PowerLaw(0.2, 0.5, 0.01, 5.0), 500.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert value == pytest.approx(202.1883798269678, rel=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="PowerLaw has no tail_weight: the part of an unbounded support that "
    "effective_support drops is never counted, so chi comes out 26% low with a "
    "4e-20 error estimate; counting it needs the quadrature memory cap first "
    "(ROADMAP item 8)",
)
def test_unbounded_powerlaw_counts_the_dropped_tail():
    """chi on an unbounded p = -2 power law either raises or lands within its
    error estimate of the same spectrum cut at 1e4 (whose tail beyond the cut
    moves chi by about 2e-7 of its value)."""
    seq = make_canonical("udd", 40)
    ref = chi(seq, PowerLaw(1.0, -2.0, 0.1, 1e4), 1.0)
    try:
        value, info = chi(seq, PowerLaw(1.0, -2.0, 0.1, np.inf), 1.0, full_output=True)
    except ToleranceNotMet:
        return
    assert abs(value - ref) <= max(info["error_estimate"], 1e-6 * ref)
