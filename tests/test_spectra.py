import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainccinv

from ddfilter import (
    BadConfig,
    DDError,
    NonIntegrableSpectrum,
    OhmicSharpCutoff,
    PowerLaw,
    Spectrum,
    SupraOhmicExp,
    Tabulated,
    WhiteBand,
    chi,
    eval_spectrum,
    from_dict,
    make_canonical,
    make_custom,
    rescale_time,
)
from ddfilter.spectra import _CIN_SERIES, _WHITE_SERIES, _cin, _white_core


@given(st.lists(st.floats(0.0, 2.0, exclude_max=True), max_size=300))
@example([])
@example([0.0])
@example([1.5])
@example(np.linspace(0.0, 2.0, 5000, endpoint=False).tolist())
@settings(max_examples=80, deadline=None)
def test_series_cores_are_polyval(x):
    """Below x = 2 the Cin and white cores are their Maclaurin series in
    x^2 by Horner's rule, bit for bit what NumPy's polyval returns."""
    x = np.array(x, dtype=float)
    for core, coeffs in ((_cin, _CIN_SERIES), (_white_core, _WHITE_SERIES)):
        want = np.polynomial.polynomial.polyval(x ** 2, coeffs)
        got = core(x)
        assert got.shape == x.shape and got.tobytes() == want.tobytes()


def test_ohmic_form():
    s = OhmicSharpCutoff(amplitude=2.0, omega_d=5.0)
    om = np.array([0.0, 1.0, 4.999, 5.0, 5.001, 50.0])
    vals = s.evaluate(om)
    assert vals[1] == pytest.approx(2.0)
    assert vals[2] == pytest.approx(2.0 * 4.999)
    assert vals[4] == 0.0 and vals[5] == 0.0
    assert s.effective_support(1e-9) == (0.0, 5.0)


def test_white_form_and_infinite_band():
    s = WhiteBand(level=0.3, omega_hi=10.0)
    assert np.allclose(s.evaluate(np.array([0.0, 9.9])), 0.3)
    assert s.evaluate(np.array([10.1]))[0] == 0.0
    unbounded = WhiteBand(level=0.3, omega_hi=np.inf)
    assert unbounded.evaluate(np.array([1e6]))[0] == 0.3
    with pytest.raises(NonIntegrableSpectrum):
        unbounded.effective_support(1e-9)


def test_powerlaw_form_and_validation():
    s = PowerLaw(amplitude=1.5, exponent=-2.0, omega_lo=0.1, omega_hi=10.0)
    om = np.array([0.05, 0.1, 1.0, 10.0, 11.0])
    vals = s.evaluate(om)
    assert vals[0] == 0.0 and vals[4] == 0.0
    assert vals[2] == pytest.approx(1.5)
    assert vals[1] == pytest.approx(1.5 * 0.1 ** -2.0)
    # divergent low end needs a positive lower cutoff
    with pytest.raises(NonIntegrableSpectrum):
        PowerLaw(amplitude=1.0, exponent=-1.5, omega_lo=0.0, omega_hi=10.0)
    # infinite band needs a decaying tail
    with pytest.raises(NonIntegrableSpectrum):
        PowerLaw(amplitude=1.0, exponent=-0.5, omega_lo=0.1, omega_hi=np.inf)
    PowerLaw(amplitude=1.0, exponent=-1.5, omega_lo=0.1, omega_hi=np.inf)
    # S/omega^2 is singular at omega = 0 only for p < 0 down to 0
    assert PowerLaw(1.0, -0.5, 0.0, 5.0).singular_exponent() == -0.5
    assert rescale_time(PowerLaw(1.0, -0.5, 0.0, 5.0), 1e3).singular_exponent() == -0.5
    for spec in (PowerLaw(1.0, -0.5, 0.1, 5.0), PowerLaw(1.0, 0.0, 0.0, 5.0), s,
                 OhmicSharpCutoff(1.0, 1.0)):
        assert spec.singular_exponent() is None


def test_supra_ohmic_form_and_supports():
    s = SupraOhmicExp(alpha=1.14e-2, omega_c=3.0)
    om = np.array([1.0, 3.0, 9.0])
    assert np.allclose(
        s.evaluate(om), 1.14e-2 * om ** 3 * np.exp(-om / 3.0)
    )
    # chi integrand S/omega^2 ~ omega e^(-omega/omega_c): a=2 gamma tail
    assert s.effective_support(1e-10)[1] == pytest.approx(
        3.0 * float(gammainccinv(2, 1e-10)), rel=1e-12
    )
    assert s.effective_support(1e-10)[1] == pytest.approx(3.0 * 26.333982, rel=1e-6)
    # raw power integrand omega^3 e^(-omega/omega_c): a=4 gamma tail
    assert s.power_support(1e-10)[1] == pytest.approx(
        3.0 * float(gammainccinv(4, 1e-10)), rel=1e-12
    )
    assert s.power_support(1e-10)[1] > s.effective_support(1e-10)[1]


def test_tabulated_loglog_interpolation():
    s = Tabulated(omegas=(1.0, 10.0, 100.0), values=(1.0, 0.1, 0.01))
    # exact slope -1 in log-log space
    assert s.evaluate(np.array([31.6227766]))[0] == pytest.approx(
        0.1 * 10.0 / 31.6227766, rel=1e-9
    )
    assert s.evaluate(np.array([0.5]))[0] == 0.0
    assert s.evaluate(np.array([200.0]))[0] == 0.0
    assert s.breakpoints() == (10.0,)
    assert s.effective_support(1e-9) == (1.0, 100.0)


def test_tabulated_validation():
    with pytest.raises(BadConfig):
        Tabulated(omegas=(1.0,), values=(1.0,))
    with pytest.raises(BadConfig):
        Tabulated(omegas=(2.0, 1.0), values=(1.0, 1.0))
    with pytest.raises(BadConfig):
        Tabulated(omegas=(1.0, 2.0), values=(1.0, -1.0))


def test_negative_frequency_rejected():
    s = WhiteBand(level=1.0, omega_hi=10.0)
    with pytest.raises(ValueError):
        s.evaluate(np.array([-1.0]))


def test_eval_spectrum_helper():
    s = OhmicSharpCutoff(amplitude=1.0, omega_d=2.0)
    assert eval_spectrum(s, np.array([1.0]))[0] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "spec",
    [
        OhmicSharpCutoff(amplitude=0.7, omega_d=5.0),
        WhiteBand(level=0.02, omega_hi=40.0),
        PowerLaw(amplitude=0.1, exponent=-1.5, omega_lo=0.5, omega_hi=30.0),
        SupraOhmicExp(alpha=1.14e-2, omega_c=3.0),
        Tabulated(omegas=(0.5, 5.0, 50.0), values=(0.01, 0.1, 0.001)),
    ],
)
def test_rescale_time_preserves_chi(spec):
    """Changing the time unit must leave the physical decay invariant."""
    seq = make_canonical("cpmg", 4)
    k = 1000.0  # e.g. microseconds -> milliseconds-scale rescale
    base = chi(seq, spec, 2.0)
    scaled = chi(seq, rescale_time(spec, k), 2.0 * k)
    assert scaled == pytest.approx(base, rel=1e-7)


def test_rescale_round_trip():
    s = SupraOhmicExp(alpha=1.14e-2, omega_c=3.0)
    back = rescale_time(rescale_time(s, 12.5), 1 / 12.5)
    assert back.alpha == pytest.approx(s.alpha, rel=1e-12)
    assert back.omega_c == pytest.approx(s.omega_c, rel=1e-12)


def test_from_dict_round_trip_all_variants():
    specs = [
        OhmicSharpCutoff(amplitude=0.7, omega_d=5.0),
        WhiteBand(level=0.02, omega_hi=40.0),
        PowerLaw(amplitude=0.1, exponent=-1.5, omega_lo=0.5, omega_hi=30.0),
        SupraOhmicExp(alpha=1.14e-2, omega_c=3.0),
        Tabulated(omegas=(0.5, 5.0), values=(0.01, 0.1)),
    ]
    for s in specs:
        assert from_dict(s.to_dict()) == s


def test_from_dict_rejects_bad_config():
    with pytest.raises(BadConfig):
        from_dict({"amplitude": 1.0})
    with pytest.raises(BadConfig):
        from_dict({"variant": "nope"})
    with pytest.raises(BadConfig):
        from_dict({"variant": "ohmic", "bogus_field": 1.0})
    with pytest.raises(BadConfig, match="values"):
        from_dict({"variant": "tabulated", "omegas": [1.0, 2.0]})
    with pytest.raises(BadConfig, match="extra"):
        from_dict({"variant": "tabulated", "omegas": [1.0, 2.0], "values": [1.0, 2.0],
                   "extra": 1})


ALL_VARIANTS = [
    OhmicSharpCutoff(amplitude=0.7, omega_d=5.0),
    WhiteBand(level=0.02, omega_hi=40.0),
    PowerLaw(amplitude=1.0, exponent=0.5, omega_lo=0.0, omega_hi=5.0),
    SupraOhmicExp(alpha=1.14e-2, omega_c=3.0),
    Tabulated(omegas=(0.5, 5.0), values=(0.01, 0.1)),
]


@pytest.mark.parametrize("factor", [0, 0.0, -2.0, math.inf, math.nan])
@pytest.mark.parametrize("spec", ALL_VARIANTS, ids=lambda s: s.variant)
def test_rescale_time_rejects_bad_factor(spec, factor):
    with pytest.raises(ValueError, match="finite and positive"):
        rescale_time(spec, factor)


@dataclass(frozen=True)
class _FlatBand(Spectrum):
    """White band without a structure function: only what a spectrum must define."""

    variant = "flat"
    level: float
    omega_hi: float

    def evaluate(self, omega):
        return np.where(np.asarray(omega) <= self.omega_hi, self.level, 0.0)

    def effective_support(self, epsilon):
        return (0.0, self.omega_hi)

    def rescaled(self, k):
        return _FlatBand(self.level / k, self.omega_hi / k)


def test_new_spectrum_inherits_the_defaults():
    flat = _FlatBand(0.02, 40.0)
    assert flat.to_dict() == {"variant": "flat", "level": 0.02, "omega_hi": 40.0}
    assert flat.structure_function is None and flat.tail_weight(1e-9) == 0.0
    assert flat.breakpoints() == () and flat.power_support(1e-9) == (0.0, 40.0)
    assert flat.singular_exponent() is None
    seq = make_canonical("cpmg", 4)
    value, info = chi(seq, flat, 2.0, full_output=True)
    assert info["path"] == "quadrature"
    assert value == pytest.approx(chi(seq, WhiteBand(0.02, 40.0), 2.0), rel=1e-7)
    assert chi(seq, rescale_time(flat, 1e3), 2e3) == pytest.approx(value, rel=1e-7)


NAN = math.nan


@pytest.mark.parametrize("build, args", [
    (OhmicSharpCutoff, (NAN, 1.0)),
    (OhmicSharpCutoff, (0.1, NAN)),
    (WhiteBand, (0.1, NAN)),
    (WhiteBand, (NAN, 1.0)),
    (SupraOhmicExp, (NAN, 1.0)),
    (SupraOhmicExp, (0.1, NAN)),
    (PowerLaw, (1.0, NAN, 0.1, 1.0)),
    (PowerLaw, (1.0, -0.5, NAN, 1.0)),
    (Tabulated, ((1.0, NAN), (1.0, 1.0))),
    (Tabulated, ((1.0, 2.0), (1.0, NAN))),
    (make_custom, ([0.2, NAN],)),
    (make_custom, ([NAN],)),
    (make_custom, ([0.5], NAN)),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_constructors_reject_nan(build, args):
    with pytest.raises(DDError):
        build(*args)


INF = math.inf


@pytest.mark.parametrize("build, args", [
    (OhmicSharpCutoff, (1.0, INF)),
    (OhmicSharpCutoff, (INF, 1.0)),
    (WhiteBand, (INF, 1.0)),
    (SupraOhmicExp, (INF, 1.0)),
    (SupraOhmicExp, (1.0, INF)),
    (PowerLaw, (INF, 0.5, 0.1, 1.0)),
    (PowerLaw, (INF, -2.0, 0.1, INF)),
    (Tabulated, ((0.1, INF), (1.0, 1.0))),
    (Tabulated, ((0.1, 1.0), (1.0, INF))),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_constructors_reject_infinite_parameters(build, args):
    """Only omega_hi of WhiteBand and PowerLaw may be infinite."""
    with pytest.raises(BadConfig):
        build(*args)


def test_rescale_time_rejects_an_overflowing_spectrum():
    """omega_d / 1e-320 overflows to inf: the rescaled spectrum is refused."""
    with pytest.raises(BadConfig):
        rescale_time(OhmicSharpCutoff(1.0, 1.0), 1e-320)
    with pytest.raises(BadConfig):
        rescale_time(PowerLaw(1.0, -0.5, 0.0, 1.0), 1e-300)     # 1e-300 ** -1.5 overflows
    with pytest.raises(BadConfig):
        rescale_time(SupraOhmicExp(1.0, 1.0), 1e300)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -1.0, [0.0, math.nan], [1.0, math.inf]],
                         ids=repr)
@pytest.mark.parametrize("spec", ALL_VARIANTS, ids=lambda s: s.variant)
def test_evaluate_rejects_omega_outside_zero_to_inf(spec, omega):
    with pytest.raises(ValueError, match="omega"):
        eval_spectrum(spec, omega)
