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
    white_fid_chi,
)
from ddfilter.coherence import _chi_quadrature

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
    # deep stop band: the rounding bound sends chi to quadrature
    _, sdiag = chi(make_canonical("udd", 6), OHMIC, 1.0, full_output=True)
    assert sdiag["path"] == "quadrature"


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
        return  # deep stop band: the pairwise bound failed and so did quadrature
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
