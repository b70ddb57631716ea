import math
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
    Tabulated,
    ToleranceNotMet,
    WhiteBand,
    bandpass_profile,
    build_edges,
    canonical_deltas,
    chi,
    coherence_curve,
    coherence_w,
    make_canonical,
    make_custom,
    min_gap,
    optimize_lodd,
    reflect,
    rescale_time,
    sampling_vector,
    white_fid_chi,
)
from ddfilter.coherence import _quadrature
from ddfilter.filters import PAIR_ROUNDING, _switching_times, filter_value_finite, pair_plan
from ddfilter.quadrature import panel_nodes

OHMIC = OhmicSharpCutoff(amplitude=0.1, omega_d=5.0)
WHITE = WhiteBand(level=0.02, omega_hi=100.0)


def _quadrature_chi(seq, spec, tau, cfg=None):
    """(chi, full_output) by direct quadrature, whatever the pairwise route
    would give; raises its ToleranceNotMet."""
    (out,) = _quadrature([(seq, tau, False)], spec, cfg or QuadratureConfig())
    if isinstance(out, ToleranceNotMet):
        raise out
    return out


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


@pytest.mark.parametrize("level, tau, name", [
    (math.nan, 1.0, "level"), (1.0, math.inf, "tau"), (-1.0, 1.0, "level"),
])
def test_white_fid_chi_rejects_bad_arguments(level, tau, name):
    """A level must be finite and >= 0 (WhiteBand's rule), tau finite and
    positive (chi's)."""
    with pytest.raises(ValueError, match=name):
        white_fid_chi(level, tau)


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


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
def test_every_tau_check_is_one_check(tau):
    """chi, the oracle's sampling vector, the band-pass profile and the
    optimizers check a time with errors._positive: one rule, one message."""
    seq = make_canonical("cpmg", 2)
    for call in (lambda: chi(seq, OHMIC, tau), lambda: white_fid_chi(0.1, tau),
                 lambda: sampling_vector(seq, tau, 1024),
                 lambda: bandpass_profile(seq, tau, np.linspace(0.1, 30.0, 200)),
                 lambda: optimize_lodd(OHMIC, 2, tau)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"tau must be positive and finite, got {tau!r}"


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
    quad, qdiag = _quadrature_chi(seq, OHMIC, 1.0)
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


@pytest.mark.parametrize("spec", [PowerLaw(1e300, 5.0, 0.0, 1e5), WhiteBand(1e308, 1e5)])
def test_overflowing_chi_raises_instead_of_converging(spec):
    """A spectrum whose chi overflows gives an infinite value with a NaN
    error estimate: that is a tolerance not met, not a converged chi."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ToleranceNotMet) as ei:
            chi(make_canonical("udd", 4), spec, 1.0, full_output=True)
    assert ei.value.value == math.inf and math.isnan(ei.value.achieved)


def test_error_estimate_is_a_float_on_both_routes():
    seq = make_canonical("udd", 4)
    for spec, tau, path in ((OhmicSharpCutoff(1.0, 1.0), 5.0, "pairwise"),
                            (PowerLaw(1.0, -2.0, 0.1, np.inf), 1.0, "quadrature")):
        _, info = chi(seq, spec, tau, full_output=True)
        assert info["path"] == path and type(info["error_estimate"]) is float


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


class _SpectrumThatFails(PowerLaw):
    """A power law (no structure function) whose evaluation raises."""

    def evaluate(self, omega):
        raise FloatingPointError("spectrum unavailable")


def test_curve_failure_in_batched_quadrature_is_per_tau():
    """When the batched quadrature raises, each tau is retried alone and
    reports its own failure, as chi would."""
    taus = np.array([1.0, 2.0, 3.0])
    with pytest.raises(CurveFailure) as ei:
        coherence_curve(make_canonical("udd", 4), _SpectrumThatFails(0.1, 0.5, 0.0, 5.0), taus)
    assert [i for i, _ in ei.value.failures] == [0, 1, 2]
    assert len({id(exc) for _, exc in ei.value.failures}) == 3
    assert str(ei.value) == ("curve evaluation failed at indices [0, 1, 2]; first at tau=1: "
                             "FloatingPointError: spectrum unavailable")


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
    cfg = QuadratureConfig(max_subdivisions=3)
    support_end = spec.effective_support(cfg.rel_tol / 10.0)[1]
    tau = max(0.3, depth * np.pi * (seq.n + 1)) / support_end
    try:
        value, info = chi(seq, spec, tau, cfg, full_output=True)
    except ToleranceNotMet:
        # Only the series route (B >= |chi|) still gives up: past its
        # crossover (n ~ 100 and more) F lies below both evaluators'
        # rounding floors, and three rounds can be too few for a widened
        # supra-ohmic support.
        total, magnitude = pair_plan(seq.n, seq.width_ratio).sums(
            seq.deltas, lambda lag: spec.structure_function(tau * lag))
        assert 2.0 * PAIR_ROUNDING * magnitude >= abs(2.0 * total)
        return
    assert value >= 0.0
    if info["path"] != "pairwise":
        return
    quad = _quadrature_chi(seq, spec, tau, cfg)[0]
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


def test_unbounded_powerlaw_tail_past_the_panel_cap_raises():
    """An unbounded power law whose tail needs a support wider than the
    quadrature's panel cap raises ToleranceNotMet, the dropped tail in its
    achieved error, without building that support (p = -3 would ask for
    about 157 GiB of panel edges)."""
    seq = make_canonical("udd", 40)
    for p in (-1.5, -3.0):
        tracemalloc.start()
        try:
            with pytest.raises(ToleranceNotMet) as err:
                chi(seq, PowerLaw(1.0, p, 0.1, np.inf), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, (p, peak)
        assert err.value.achieved > 1e-9 * abs(err.value.value), p


def test_singular_powerlaw_chi_converges():
    """chi under PowerLaw(1, -0.5, 0, 5) returns for every canonical family;
    udd and cpmg, with F ~ u^4 at 0, already do."""
    spec = PowerLaw(1.0, -0.5, 0.0, 5.0)
    for seq in (make_canonical("udd", 4), make_canonical("cpmg", 4),
                make_canonical("pdd", 2), make_canonical("fid")):
        assert np.isfinite(chi(seq, spec, 1.0))


def _fid_chi_mp(p, mpmath):
    """FID chi under PowerLaw(1, p, 0, 5) at tau 1 to 40 digits: the sin^2
    form under omega = s^k, with k (p + 1) >= 1, so that no endpoint
    singularity is left for mpmath."""
    with mpmath.workdps(40):
        k = max(10, math.ceil(1.0 / (p + 1.0)))
        p = mpmath.mpf(p)
        f = lambda s: k * s ** (k * p - k - 1) * mpmath.sin(s ** k / 2) ** 2
        top = mpmath.mpf(5) ** (mpmath.mpf(1) / k)
        return float(2 / mpmath.pi * mpmath.quad(f, mpmath.linspace(0, top, 9)))


@pytest.mark.parametrize("p", [-0.1, -0.5, -0.9])
def test_singular_powerlaw_chi_against_mpmath(p):
    """S ~ omega^p (p < 0) down to omega = 0 grades the panels toward 0, so
    chi returns for sequences with F ~ u^2 at 0, agrees with a 40-digit
    reference, and is unchanged by rescale_time (the graded breakpoints
    follow the support's end). At p = -0.9 the quadrature's estimate
    understates its true error (the first graded panel's rule error is
    not in it), so there the check is the 1e-12 the grading allows."""
    mpmath = pytest.importorskip("mpmath")
    spec = PowerLaw(1.0, p, 0.0, 5.0)
    value, info = chi(make_canonical("fid"), spec, 1.0, full_output=True)
    allowed = info["error_estimate"] if p > -0.9 else 1e-12 * value
    assert abs(value - _fid_chi_mp(p, mpmath)) <= allowed
    scaled = rescale_time(spec, 1e-3)
    for seq in (make_canonical("fid"), make_canonical("pdd", 2), make_canonical("pdd", 6),
                make_canonical("udd", 4)):
        value, info = chi(seq, spec, 1.0, full_output=True)
        assert info["panels"] <= 401
        assert chi(seq, scaled, 1e-3) == pytest.approx(value, rel=1e-14, abs=0.0)


def test_nearly_non_integrable_powerlaw_raises_not_nan():
    """At p = -0.99 the 400 graded panels (the cap that keeps omega^2
    normal) leave the first panel too much of the integral: chi raises
    ToleranceNotMet with a finite best value instead of returning NaN."""
    spec = PowerLaw(1.0, -0.99, 0.0, 5.0)
    for seq in (make_canonical("fid"), make_canonical("pdd", 2)):
        with pytest.raises(ToleranceNotMet) as err:
            chi(seq, spec, 1.0)
        assert np.isfinite(err.value.value) and np.isfinite(err.value.achieved)


def test_curve_takes_every_route_tau_by_tau():
    """A supra-ohmic udd12 curve from the deep stop band into the passband
    takes the series route, the direct route on a widened support and the
    pairwise sum; each tau gets what chi gives it alone, and the columns
    hold the fill where a route has no such field."""
    spec = SupraOhmicExp(1.14e-2, 3.0)
    seq = make_canonical("udd", 12)
    taus = np.geomspace(0.05, 5.0, 12)
    curve = coherence_curve(seq, spec, taus)
    d = curve.diagnostics
    assert set(d["path"]) == {"pairwise", "quadrature"}
    assert set(d["filter"]) == {"", "direct", "series"}
    assert np.any(d["support"][:, 1] > spec.effective_support(1e-9)[1])     # widened
    assert d["panels"].dtype == np.int32 and d["series_degree"].dtype == np.int32
    for i, tau in enumerate(taus):
        value, info = chi(seq, spec, tau, full_output=True)
        assert abs(curve.chi_values[i] - value) <= max(1e-12 * value, info["error_estimate"])
        assert d["path"][i] == info["path"]
        assert d["error_estimate"][i] == pytest.approx(info["error_estimate"], rel=1e-6)
        assert d["filter"][i] == info.get("filter", "")
        assert d["panels"][i] == info.get("panels", 0)
        assert d["series_degree"][i] == info.get("series_degree", 0)
        if info["path"] == "quadrature":
            assert tuple(d["support"][i]) == info["support"]
        else:
            assert np.isnan(d["support"][i]).all()
        assert np.isnan(d["crossover_u"][i]) == ("crossover_u" not in info)
    assert curve.labels == ("udd:12",) * 12 and curve.pulse_counts == (12,) * 12


def test_curve_taus_past_the_batch_panel_cap_refine_as_chi(monkeypatch):
    """FID under a p = 0.5 power law from omega = 0 refines every tau; with
    the panel cap lowered to 32, the curve's taus start on 26 panels and
    end on 61 together, while each alone stays within 32. Each tau still
    gets chi's panels and value: the halvings the batch refuses are done
    on that tau alone."""
    monkeypatch.setattr("ddfilter.quadrature._MAX_PANELS", 32)
    seq, spec = make_canonical("fid"), PowerLaw(0.1, 0.5, 0.0, 5.0)
    taus = np.array([0.5, 1.0, 2.0, 4.0])
    curve = coherence_curve(seq, spec, taus)
    assert curve.diagnostics["panels"].sum() > 32
    for i, tau in enumerate(taus):
        value, info = chi(seq, spec, tau, full_output=True)
        assert curve.diagnostics["panels"][i] == info["panels"] <= 32
        assert abs(curve.chi_values[i] - value) <= max(1e-12 * value, info["error_estimate"])


def test_curve_of_one_route_has_only_its_columns():
    curve = coherence_curve(make_canonical("cpmg", 4), WHITE, np.geomspace(0.5, 5.0, 6))
    assert set(curve.diagnostics) == {"path", "error_estimate"}
    assert curve.diagnostics["path"] == ("pairwise",) * 6


def test_curve_label_is_one_string_per_distinct_sequence():
    """A callable source that builds equal sequences anew for every tau
    still gets one label string, shared by those taus."""
    taus = np.array([1.0, 2.0, 4.0, 8.0])
    curve = coherence_curve(lambda tau: make_canonical("cpmg", 2 if tau < 3 else 8), WHITE, taus)
    assert curve.labels == ("cpmg:2", "cpmg:2", "cpmg:8", "cpmg:8")
    assert curve.labels[0] is curve.labels[1] and curve.labels[2] is curve.labels[3]


def test_curve_retained_size():
    """A 40-tau curve keeps chi, W's source, the labels and the diagnostic
    columns in under 4 kB, for a pairwise curve and a quadrature curve
    (per-tau dicts and label strings took about 13 kB)."""
    taus = np.geomspace(0.5, 50.0, 40)
    for seq, spec in ((make_canonical("cpmg", 4), OHMIC),
                      (make_canonical("udd", 4), PowerLaw(0.1, 0.5, 0.01, 5.0))):
        coherence_curve(seq, spec, taus)    # plans and caches
        tracemalloc.start()
        try:
            kept = [coherence_curve(seq, spec, taus) for _ in range(20)]
            held = tracemalloc.get_traced_memory()[0]
            del kept
            retained = (held - tracemalloc.get_traced_memory()[0]) / 20
        finally:
            tracemalloc.stop()
        assert retained <= 4096, (spec, retained)


class _NoStructureFunction(OhmicSharpCutoff):
    """An ohmic spectrum whose structure function raises for every lag."""

    def structure_function(self, t):
        raise FloatingPointError("structure function unavailable")


@st.composite
def tabulated_spectra(draw):
    omegas = sorted(draw(st.lists(st.floats(0.1, 20.0), min_size=2, max_size=6, unique=True)))
    values = draw(st.lists(st.floats(0.01, 1.0), min_size=len(omegas), max_size=len(omegas)))
    return Tabulated(tuple(omegas), tuple(values))


ALL_SPECTRA = st.one_of(
    SPECTRA,
    st.builds(PowerLaw, st.floats(0.01, 1.0), st.floats(-0.9, 1.5), st.sampled_from([0.0, 0.05]),
              st.floats(1.0, 20.0)),
    tabulated_spectra(),
    st.builds(_NoStructureFunction, st.floats(0.01, 1.0), st.floats(0.5, 20.0)),
)


@st.composite
def small_sequences(draw):
    family = draw(st.sampled_from(["cpmg", "pdd", "udd"]))
    seq = make_canonical(family, draw(st.integers(1, 24)))
    width = draw(st.sampled_from([0.0, 0.0, 0.3])) * min_gap(seq)
    return make_custom(seq.deltas, width_ratio=width, label=family)


def _rounding_floor(seq, spec, tau, support):
    """How far two evaluations of a quadrature chi can differ by the rounding
    of F alone, which its error estimate leaves out. The panel evaluator and
    the node-by-node sum keep z to Delta = 128 eps (n + 1) u (see
    test_filters), so |dF| <= 4 Delta (F^(1/2) + Delta); integrated against
    (2/pi) S / omega^2 with GL21 on the support."""
    edges = build_edges(*support, breakpoints=spec.breakpoints(),
                        max_panel=2.0 * np.pi / (4.0 * tau))
    om, weights = panel_nodes(edges, 21)
    s = (2.0 / np.pi) * spec.evaluate(om) * weights
    root_f = np.sqrt(filter_value_finite(seq, (om * tau)[:, None])[:, 0])
    delta = 128.0 * np.finfo(float).eps * (seq.n + 1) * tau
    return 4.0 * delta * (s @ (root_f / om)) + 4.0 * delta ** 2 * s.sum()


def _curve_failure_message(taus, idx, first):
    cause = f"{type(first).__name__}: {first}"
    if isinstance(first, ToleranceNotMet):
        cause += f" (value {first.value:.6e}, achieved {first.achieved:.3e})"
    return f"curve evaluation failed at indices {idx}; first at tau={taus[idx[0]]:.6g}: {cause}"


@settings(max_examples=60, deadline=None)
@given(spec=ALL_SPECTRA, first=small_sequences(), second=small_sequences(),
       callable_source=st.booleans(), log_depth=st.floats(-2.0, -0.3), points=st.integers(2, 8),
       cfg=st.sampled_from([QuadratureConfig(), QuadratureConfig(max_subdivisions=4)]))
def test_curve_matches_chi_tau_by_tau(spec, first, second, callable_source, log_depth, points,
                                      cfg):
    """coherence_curve evaluates the tau grid in batches; each tau agrees
    with chi alone within 1e-12 relative or its error estimate. The grid
    runs from u = 10^log_depth (n + 1) at the support's end, deep in the
    stop band (series and direct quadrature, supra-ohmic widening), to 30
    times that (pairwise). A callable source alternates two sequences,
    built anew for every tau. The taus that fail and the CurveFailure
    message are chi's, with one exception: quadrature shares node tables
    across taus, so F's rounding differs, and where that rounding floor
    (which the error estimate leaves out) is within a hundredth of the
    tolerance, a value may move by it, and with it a failure's numbers or,
    at the margin, whether it fails."""
    if callable_source:
        def source(tau):
            pick = (first, second)[int(np.floor(4.0 * np.log(tau))) % 2]
            return make_custom(pick.deltas, width_ratio=pick.width_ratio, label=pick.label)
    else:
        source = first
    n = max(first.n, second.n) if callable_source else first.n
    support = spec.effective_support(min(cfg.rel_tol / 10.0, 0.1))
    t0 = 10.0 ** log_depth * (n + 1) / support[1]
    taus = np.geomspace(t0, 30.0 * t0, points)
    seqs = [source(tau) for tau in taus] if callable_source else [first] * points
    expected = []
    for seq, tau in zip(seqs, taus):
        try:
            expected.append(chi(seq, spec, tau, cfg, full_output=True))
        except Exception as exc:  # compared with the curve's failures below
            expected.append(exc)

    def floor(i, info=None):
        return _rounding_floor(seqs[i], spec, taus[i], info["support"] if info else support)

    def noisy(i):
        out = expected[i]
        if not isinstance(out, ToleranceNotMet):
            return isinstance(out, tuple) and out[1]["path"] == "quadrature" and \
                floor(i, out[1]) >= 0.01 * cfg.rel_tol * abs(out[0])
        return floor(i) >= 0.01 * cfg.rel_tol * abs(out.value)

    failed = [i for i, out in enumerate(expected) if isinstance(out, Exception)]
    try:
        curve = coherence_curve(source, spec, taus, cfg)
        got = []
    except CurveFailure as exc:
        got, curve, message = [i for i, _ in exc.failures], None, str(exc)
        best = exc.failures[0][1]
    assert all(noisy(i) for i in set(got) ^ set(failed))
    if got and got == failed:
        want = _curve_failure_message(taus, failed, expected[failed[0]])
        if noisy(failed[0]):
            head = want.split(": ")[0]
            assert message.startswith(head)
            assert abs(best.value - expected[failed[0]].value) <= 2.0 * floor(failed[0])
        else:
            assert message == want
    if curve is None:
        return
    for i, out in enumerate(expected):
        if isinstance(out, Exception):
            continue
        value, info = out
        allowed = max(1e-12 * abs(value), curve.diagnostics["error_estimate"][i])
        if info["path"] == "quadrature":
            allowed += 2.0 * floor(i, info)
        assert abs(curve.chi_values[i] - value) <= allowed
        assert curve.w_values[i] == float(np.exp(-curve.chi_values[i]))
        assert curve.diagnostics["path"][i] == info["path"]
        assert curve.labels[i] == f"{seqs[i].label}:{seqs[i].n}"
        assert curve.pulse_counts[i] == seqs[i].n


def test_a_curve_source_that_raises_fails_its_taus():
    """A source that raises at some taus fails those taus in one
    CurveFailure, after the others are evaluated."""
    def source(tau):
        if tau > 1.0:
            raise ValueError(f"no sequence at tau {tau:g}")
        return make_canonical("udd", 4)

    with pytest.raises(CurveFailure, match=r"indices \[2, 3\].*ValueError: no sequence at tau 2") \
            as err:
        coherence_curve(source, OHMIC, [0.5, 1.0, 2.0, 4.0])
    assert [(i, type(e)) for i, e in err.value.failures] == [(2, ValueError), (3, ValueError)]
