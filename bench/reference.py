"""Independent references for checking ddfilter outputs.

Nothing here imports ddfilter. Sequences are plain position arrays
(fractions of the total time, strictly inside (0, 1)); spectra are plain
dicts in the `variant` JSON form that ddfilter reads.

The central identity is the pairwise form of the decay exponent
(Cywinski et al., PRB 77, 174509 (2008)): with breakpoints t_k (0, the
pulse times and 1) and coefficients c_k of the toggling function's
Fourier transform, the filter is

    F(u) = sum_jk c_j c_k cos(u (t_j - t_k)),

and because sum_k c_k = 0,

    chi(tau) = -c^T D(tau |t_j - t_k|) c,
    D(t) = (2/pi) int S(omega) (1 - cos(omega t)) / omega^2 domega,

where D(t) has closed forms for the ohmic, white and supra-ohmic
spectra and is a cosine-weighted integral for the others.
"""

import math
import warnings

import mpmath
import numpy as np
from scipy import integrate, special

EPS = np.finfo(float).eps
EULER = 0.57721566490153286061


# ------------------------------------------------------------ coefficients

def breakpoints(deltas, width_ratio=0.0):
    """Times t_k and coefficients c_k with F(u) = |sum_k c_k e^(i u t_k)|^2.

    Instantaneous pulses give t = (0, deltas, 1) and c = (1, 2(-1)^j,
    (-1)^(n+1)); free decay gives (1/2, -1/2) at (0, 1). A pulse of
    width r blanks the toggling function on [delta - r/2, delta + r/2],
    which splits each interior coefficient into two halves at the window
    edges.
    """
    d = np.asarray(deltas, dtype=float)
    n = d.size
    if n == 0:
        return np.array([0.0, 1.0]), np.array([0.5, -0.5])
    signs = (-1.0) ** np.arange(1, n + 1)
    if width_ratio == 0:
        t = np.concatenate([[0.0], d, [1.0]])
        c = np.concatenate([[1.0], 2.0 * signs, [(-1.0) ** (n + 1)]])
        return t, c
    h = 0.5 * width_ratio
    t = np.concatenate([[0.0], np.column_stack([d - h, d + h]).ravel(), [1.0]])
    c = np.concatenate([[1.0], np.repeat(signs, 2), [(-1.0) ** (n + 1)]])
    return t, c


def rounding_scale(c):
    """|c|^T |1| |c|: the size of the terms a pairwise sum cancels."""
    return float(np.abs(c).sum()) ** 2


# ----------------------------------------------------------------- filters

def filter_exact(deltas, u, width_ratio=0.0):
    """F(u) = sum_jk c_j c_k cos(u dt_jk), summed pair by pair."""
    t, c = breakpoints(deltas, width_ratio)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    j, k = np.triu_indices(t.size, 1)
    dt = t[k] - t[j]
    cc = c[j] * c[k]
    out = np.empty(u.size)
    blk = max(1, 2_000_000 // max(dt.size, 1))
    for i in range(0, u.size, blk):
        uu = u[i:i + blk]
        out[i:i + blk] = (c ** 2).sum() + 2.0 * np.cos(np.outer(uu, dt)) @ cc
    return out


def filter_toggling(deltas, u, width_ratio=0.0):
    """F from the Fourier transform of the piecewise-constant toggling
    function y(s) in {+1, 0, -1}: F = |u * int_0^1 y(s) e^(i u s) ds|^2,
    integrated segment by segment."""
    d = np.asarray(deltas, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if d.size == 0:
        edges, vals = np.array([0.0, 1.0]), np.array([0.5])
    else:
        h = 0.5 * width_ratio
        inner = np.column_stack([d - h, d + h]).ravel() if h else d
        edges = np.concatenate([[0.0], inner, [1.0]])
        if h:
            vals = np.zeros(edges.size - 1)
            vals[0::2] = (-1.0) ** np.arange(d.size + 1)
        else:
            vals = (-1.0) ** np.arange(d.size + 1)
    ph = np.exp(1j * np.outer(u, edges))
    z = ((ph[:, 1:] - ph[:, :-1]) * vals[None, :]).sum(axis=1)
    return np.abs(z) ** 2


def filter_bound(deltas, u, width_ratio=0.0):
    """Rounding bound on filter_exact: eps * |c|^T|c| per unit phase."""
    _, c = breakpoints(deltas, width_ratio)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return 64.0 * EPS * rounding_scale(c) * (4.0 + u)


def filter_area(deltas, u_max):
    """int_0^U F(u) du = sum_jk c_j c_k sin(U dt_jk) / dt_jk (U on the diagonal)."""
    t, c = breakpoints(deltas)
    dt = t[:, None] - t[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        kern = np.where(dt == 0, u_max, np.sin(u_max * dt) / np.where(dt == 0, 1.0, dt))
    return float(c @ kern @ c)


def quantize(deltas, precision):
    """Round positions half away from zero onto the precision grid."""
    d = np.asarray(deltas, dtype=float)
    return np.floor(d / precision + 0.5) * precision


def suppression_order(deltas):
    """Smallest k with F(u) ~ u^(2k) as u -> 0: the first moment
    sum_k c_k t_k^k that does not vanish, summed in 60-digit arithmetic.
    Positions rounded to doubles leave moments near 1e-16 that the ideal
    sequence cancels; those count as vanishing below 1e-10 * sum |c|."""
    t, c = breakpoints(deltas)
    with mpmath.workdps(60):
        tt = [mpmath.mpf(float(x)) for x in t]
        cc = [mpmath.mpf(float(x)) for x in c]
        floor = sum(abs(x) for x in cc) * mpmath.mpf("1e-10")
        for m in range(1, len(tt) + 1):
            if abs(sum(ci * ti ** m for ci, ti in zip(cc, tt))) > floor:
                return m
    raise ValueError("no non-vanishing moment")


def rolloff_fit(u, F):
    """Least-squares slope of 10 log10 F against log2 u, dB per octave."""
    return float(np.polyfit(np.log2(u), 10.0 * np.log10(F), 1)[0])


# ------------------------------------------------------ canonical families

def canonical_deltas(family, n):
    """Pulse positions of cpmg ((j - 1/2)/n), pdd (j/(n+1)) and udd
    (sin^2(pi j / (2n + 2)))."""
    j = np.arange(1, n + 1, dtype=float)
    if family == "cpmg":
        return (j - 0.5) / n
    if family == "pdd":
        return j / (n + 1)
    if family == "udd":
        return np.sin(np.pi * j / (2 * n + 2)) ** 2
    raise ValueError(family)


def canonical_min_gap(family, n):
    """Closed-form smallest gap (end segments included) of a canonical family."""
    if family == "cpmg":
        return 0.5 / n
    if family == "pdd":
        return 1.0 / (n + 1)
    if family == "udd":
        return math.sin(math.pi / (2 * n + 2)) ** 2
    raise ValueError(family)


def max_order(family, tau, tau_switch):
    """Largest n with min_gap(n) * tau >= tau_switch (1e-12 relative slack),
    from the inverted closed forms and a local +-2 correction."""
    rho = tau_switch / tau
    if family == "cpmg":
        guess = int(0.5 / rho)
    elif family == "pdd":
        guess = int(1.0 / rho) - 1
    else:
        guess = int(math.pi / (2.0 * math.asin(math.sqrt(rho)))) - 1
    limit = tau_switch * (1.0 - 1e-12)
    fits = lambda n: n == 0 or canonical_min_gap(family, n) * tau >= limit
    n = max(guess + 2, 0)
    while not fits(n):
        n -= 1
    return n


# --------------------------------------------------------- D(t) per spectrum

def _cin_series(x):
    # Cin(x) = sum_{k>=1} (-1)^(k+1) x^(2k) / (2k (2k)!)
    out = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(1, 30):
        term = term * x * x / ((2 * k - 1) * (2 * k)) if k > 1 else x * x / 2.0
        out += (-1) ** (k + 1) * term / (2 * k)
    return out


def _cin(x):
    """Cin(x) = int_0^x (1 - cos s)/s ds, without the small-x cancellation."""
    x = np.asarray(x, dtype=float)
    small = x < 2.0
    si, ci = special.sici(np.where(small, 1.0, x))
    big = EULER + np.log(np.where(small, 1.0, x)) - ci
    return np.where(small, _cin_series(np.where(small, x, 0.0)), big)


def _white_core(x):
    """x Si(x) - (1 - cos x), series below x = 2."""
    x = np.asarray(x, dtype=float)
    small = x < 2.0
    xs = np.where(small, x, 0.0)
    series = np.zeros_like(x)
    for k in range(0, 30):
        series += (-1) ** k * xs ** (2 * k + 2) / ((2 * k + 1) * math.factorial(2 * k + 2))
    xb = np.where(small, 1.0, x)
    si, _ = special.sici(xb)
    return np.where(small, series, xb * si - (1.0 - np.cos(xb)))


def _d_ohmic(spec, t):
    a, wd = spec["amplitude"], spec["omega_d"]
    return (2.0 * a / math.pi) * _cin(wd * t)


def _d_white(spec, t):
    s0, wh = spec["level"], spec["omega_hi"]
    return (2.0 * s0 / (math.pi * wh)) * _white_core(wh * t)


def _d_supra(spec, t):
    # (2 alpha/pi) int w (1 - cos wt) e^(-w/wc) dw, rational in t
    al, wc = spec["alpha"], spec["omega_c"]
    a2 = (1.0 / wc) ** 2
    t2 = np.asarray(t, dtype=float) ** 2
    return (2.0 * al / math.pi) * t2 * (3.0 * a2 + t2) / (a2 * (a2 + t2) ** 2)


def _power_pieces(spec):
    """[(lo, hi, A, p)] with S = A w^p on each piece."""
    if spec["variant"] == "powerlaw":
        return [(spec["omega_lo"], spec["omega_hi"], spec["amplitude"], spec["exponent"])]
    om = np.asarray(spec["omegas"], dtype=float)
    sv = np.asarray(spec["values"], dtype=float)
    pieces = []
    for i in range(om.size - 1):
        p = math.log(sv[i + 1] / sv[i]) / math.log(om[i + 1] / om[i])
        pieces.append((om[i], om[i + 1], sv[i] / om[i] ** p, p))
    return pieces


def _d_quad(spec, t):
    """(D, error) by QUADPACK on each power-law piece: the 2 sin^2(w t/2)
    form while w t stays below 20 on the piece, else the total mass less
    a cosine-weighted (QAWO) integral."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t.size)
    err = np.zeros(t.size)
    with warnings.catch_warnings():
        # QUADPACK's roundoff warning: its error estimate enters the bound
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for piece in _power_pieces(spec):
            _d_quad_piece(piece, t, out, err)
    return (2.0 / math.pi) * out, (2.0 / math.pi) * err


def _d_quad_piece(piece, t, out, err):
    """Add one piece's D(t) and error estimate into out and err."""
    lo, hi, amp, p = piece
    g = lambda w: amp * w ** (p - 2.0)
    mass, mass_err = integrate.quad(g, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
    for i, ti in enumerate(t):
        if ti == 0:
            continue
        if ti * hi < 20.0:
            v, e = integrate.quad(lambda w: g(w) * 2.0 * math.sin(0.5 * w * ti) ** 2,
                                  lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
        else:
            cos_part, e = integrate.quad(g, lo, hi, weight="cos", wvar=ti,
                                         epsabs=0.0, epsrel=1e-13, limit=400)
            v, e = mass - cos_part, e + mass_err
        out[i] += v
        err[i] += e


_D = {"ohmic": _d_ohmic, "white": _d_white, "supraohmic": _d_supra,
      "powerlaw": _d_quad, "tabulated": _d_quad}


def structure_function(spec, t):
    """(D(t), error bound) for a spectrum dict; D(0) = 0. The closed forms
    carry a few ulps; the quadrature forms carry QUADPACK's estimate."""
    t = np.asarray(t, dtype=float)
    fn = _D[spec["variant"]]
    if fn is _d_quad:
        return fn(spec, t)
    d = fn(spec, t)
    return d, 16.0 * EPS * np.abs(d)


def chi_pairwise(deltas, spec, tau, width_ratio=0.0):
    """(chi, bound): chi = -c^T D c in double precision and the bound
    eps * |c|^T |D| |c| (plus |c|^T err(D) |c|) within which it cannot
    resolve chi."""
    t, c = breakpoints(deltas, width_ratio)
    j, k = np.triu_indices(t.size, 1)
    lag = tau * (t[k] - t[j])
    uniq, inv = np.unique(lag, return_inverse=True)
    dvals, derr = structure_function(spec, uniq)
    dvals, derr = dvals[inv], derr[inv]
    cc = c[j] * c[k]
    chi = -2.0 * float(cc @ dvals)
    bound = 2.0 * float(np.abs(cc) @ (64.0 * EPS * np.abs(dvals) + derr))
    return chi, bound


# ------------------------------------------------------ extended precision

def _d_mp(spec, t):
    v = spec["variant"]
    pi = mpmath.pi
    if t == 0:
        return mpmath.mpf(0)
    if v == "ohmic":
        x = mpmath.mpf(spec["omega_d"]) * t
        return 2 * mpmath.mpf(spec["amplitude"]) / pi * (mpmath.euler + mpmath.log(x) - mpmath.ci(x))
    if v == "white":
        w = mpmath.mpf(spec["omega_hi"])
        x = w * t
        return 2 * mpmath.mpf(spec["level"]) / (pi * w) * (x * mpmath.si(x) - (1 - mpmath.cos(x)))
    if v == "supraohmic":
        a2 = (1 / mpmath.mpf(spec["omega_c"])) ** 2
        t2 = t * t
        return 2 * mpmath.mpf(spec["alpha"]) / pi * t2 * (3 * a2 + t2) / (a2 * (a2 + t2) ** 2)
    raise ValueError(f"no extended-precision D(t) for {v}")


def chi_mp(deltas, spec, tau, width_ratio=0.0, dps=60):
    """The same pairwise form in `dps`-digit arithmetic, for inputs deep
    in the stop band where double precision cancels every digit."""
    t, c = breakpoints(deltas, width_ratio)
    with mpmath.workdps(dps):
        tt = [mpmath.mpf(float(x)) for x in t]
        cc = [mpmath.mpf(float(x)) for x in c]
        tau_m = mpmath.mpf(float(tau))
        cache = {}
        total = mpmath.mpf(0)
        for a in range(len(tt)):
            for b in range(a + 1, len(tt)):
                lag = tau_m * (tt[b] - tt[a])
                key = mpmath.nstr(lag, dps)
                if key not in cache:
                    cache[key] = _d_mp(spec, lag)
                total += cc[a] * cc[b] * cache[key]
        return float(-2 * total)


def supports_mp(spec):
    return spec["variant"] in ("ohmic", "white", "supraohmic")


def chi_mass(spec):
    """(2/pi) int S / omega^2: chi's weight if F were 1 everywhere."""
    v = spec["variant"]
    if v == "supraohmic":
        return (2.0 / math.pi) * spec["alpha"] * spec["omega_c"] ** 2
    raise ValueError(v)
