"""The four workloads: seeded operation lists and the check for each output.

Every workload is a list of operations built from the seed. One pass
runs the whole list; a run repeats whole passes, so every run attempts
the same operations in the same proportions. Each operation holds the
call into ddfilter and a check of its output against `reference` or
against a property the method must have.

Each workload is a fixed ladder of operation sizes (pulse counts, tau
times the spectrum's cutoff, grid sizes) with a fixed family per slot.
The seed draws the rest: custom placements, spectrum amplitudes and
shapes, widths, grids, and each size within 5% of its rung. Every seed so
gets different inputs with the same mix of costs, and the timing
quantiles move little between seeds.

Calls look ddfilter names up when they run (`dd.chi`, not a captured
function), so that the traced run sees its wrappers.
"""

import contextlib
import io as _io
import json
import math
import os

import numpy as np

import reference as ref

FAMILIES = ("cpmg", "pdd", "udd", "custom")
U_MIN, U_MAX, PPD = 1e-2, 1e3, 40


class CheckFailed(Exception):
    """An output disagrees with its reference or breaks a property."""


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


class Op:
    """One timed operation: `call()` returns the output, `check(out)`
    raises CheckFailed when the output is wrong. `expect_error` names the
    exception type of an operation that is expected to fail; when it
    returns instead, its output is checked like any other."""

    __slots__ = ("kind", "label", "call", "check", "expect_error")

    def __init__(self, kind, label, call, check, expect_error=None):
        self.kind = kind
        self.label = label
        self.call = call
        self.check = check
        self.expect_error = expect_error


# ------------------------------------------------------------ seeded draws

def jitter(rng, value, rel=0.05):
    """value moved by a seeded factor in [1 - rel, 1 + rel]."""
    return float(value) * float(rng.uniform(1.0 - rel, 1.0 + rel))


def int_jitter(rng, n, rel=0.05):
    return max(1, int(round(jitter(rng, n, rel))))


def custom_deltas(rng, n, spread=0.5):
    """n random positions whose gaps are at least (1-spread)/(n+1)."""
    w = rng.uniform(0.0, 1.0, n + 1)
    gaps = (1.0 - spread) / (n + 1) + spread * w / w.sum()
    return tuple(np.cumsum(gaps)[:-1])


def min_gap(deltas):
    d = np.concatenate([[0.0], np.asarray(deltas, dtype=float), [1.0]])
    return float(np.diff(d).min())


def sequence(dd, family, n, rng):
    """A canonical sequence, or a custom one with seeded placement."""
    if family == "fid" or n == 0:
        return dd.make_canonical("fid")
    if family == "custom":
        return dd.make_custom(custom_deltas(rng, n))
    return dd.make_canonical(family, n)


def spectrum_dict(rng, variant):
    """Seeded spectrum in the JSON form ddfilter reads. Amplitudes range
    widely; the shape (cutoffs, exponent, table span), which sets the
    quadrature's cost, stays within 5% of a fixed centre."""
    lu = lambda lo, hi: float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    if variant == "ohmic":
        return {"variant": "ohmic", "amplitude": lu(0.05, 0.2), "omega_d": jitter(rng, 5.0)}
    if variant == "white":
        return {"variant": "white", "level": lu(0.01, 0.05), "omega_hi": jitter(rng, 50.0)}
    if variant == "supraohmic":
        return {"variant": "supraohmic", "alpha": lu(5e-3, 2e-2), "omega_c": jitter(rng, 2.0)}
    if variant == "powerlaw":
        return {"variant": "powerlaw", "amplitude": lu(0.5, 2.0), "exponent": jitter(rng, -1.5),
                "omega_lo": jitter(rng, 0.1), "omega_hi": jitter(rng, 10.0)}
    om = np.geomspace(jitter(rng, 0.1), jitter(rng, 10.0), 5)
    vals = lu(0.1, 1.0) * np.exp(np.cumsum(rng.uniform(-1.5, 0.3, 5)))
    return {"variant": "tabulated", "omegas": [float(x) for x in om],
            "values": [float(x) for x in vals]}


SPECTRA = ("ohmic", "white", "supraohmic", "powerlaw", "tabulated")


def cutoff(spec):
    """The frequency above which the spectrum stops feeding chi."""
    v = spec["variant"]
    if v == "ohmic":
        return spec["omega_d"]
    if v == "white":
        return spec["omega_hi"]
    if v == "supraohmic":
        return 3.0 * spec["omega_c"]
    if v == "powerlaw":
        return spec["omega_hi"]
    return spec["omegas"][-1]


def out_of_stop_band(deltas, width_ratio, tau, spec):
    """The filter has left its stop band (F >= 1e-3) by the spectrum's
    cutoff, so chi is not a deep-stop-band value."""
    return float(ref.filter_exact(deltas, tau * cutoff(spec), width_ratio)[0]) >= 1e-3


def raise_tau(deltas, width_ratio, tau, spec):
    while not out_of_stop_band(deltas, width_ratio, tau, spec):
        tau *= 1.5
    return tau


def udd_edge(n):
    """Smallest u with F >= 1e-3 for udd(n), the family whose stop band
    is deepest at a given pulse count. A tau with tau * cutoff above it
    keeps chi out of the deep stop band for every family."""
    if n == 0:
        return 0.0
    u = np.geomspace(0.01, 10.0 * (n + 1), 400)
    F = ref.filter_toggling(ref.canonical_deltas("udd", n), u)
    return float(u[int(np.argmax(F >= 1e-3))])


# ------------------------------------------------------------ shared checks

def check_filter_values(deltas, width_ratio, u, values, what):
    want = ref.filter_exact(deltas, u, width_ratio)
    tol = 1e-9 * want + ref.filter_bound(deltas, u, width_ratio)
    bad = np.abs(np.asarray(values) - want) > tol
    expect(not bad.any(), f"{what}: F differs from the pairwise sum at u={u[bad][:3]}")


def truncation_allowance(spec, deltas, width_ratio, rtol):
    """chi's integral stops where all but rtol/10 of the S/omega^2 mass
    is covered. The supra-ohmic tail beyond it holds that share of the
    mass times the filter's mean there (sum c^2); allow ten times that."""
    if spec["variant"] != "supraohmic":
        return 0.0
    _, c = ref.breakpoints(deltas, width_ratio)
    return rtol * ref.chi_mass(spec) * 2.0 * float((c ** 2).sum())


def check_chi(value, deltas, spec, tau, width_ratio=0.0, rtol=1e-8, what="chi"):
    """chi against the pairwise reference; where double precision cannot
    resolve chi (deep stop band), against the 60-digit evaluation. rtol
    is the quadrature tolerance the call ran with; ten times it is
    allowed."""
    expect(math.isfinite(value) and value >= 0.0, f"{what}: chi={value!r} is not >= 0")
    want, bound = ref.chi_pairwise(deltas, spec, tau, width_ratio)
    trunc = truncation_allowance(spec, deltas, width_ratio, rtol)
    if bound > 1e-3 * abs(want) and ref.supports_mp(spec):
        want, bound = ref.chi_mp(deltas, spec, tau, width_ratio), 0.0
    bound += trunc
    rtol *= 10.0
    err = abs(value - want)
    expect(err <= rtol * abs(want) + bound,
           f"{what}: chi={value:.12e} vs reference {want:.12e} (bound {bound:.1e})")
    return want


# ---------------------------------------------------------------- analysis

def analysis(dd, rng, scratch):
    ops = []

    # sample_filter: 24 pulse counts from 1 to 200, the four families in
    # turn, each block of four in one of the three variants
    ladder = np.round(np.geomspace(1, 200, 24)).astype(int)
    for i, n in enumerate(ladder):
        family = FAMILIES[i % 4]
        variant = ("ideal", "finite", "quantized")[(i // 4) % 3]
        n = 200 if n == 200 else int_jitter(rng, n)  # the largest input, and peak memory, is fixed
        base = sequence(dd, family, n, rng)
        g = min_gap(base.deltas)
        r, prec = 0.0, None
        if variant == "finite":
            r = jitter(rng, 0.15 * g, 0.5)
            base = dd.make_custom(base.deltas, width_ratio=r, label=base.label)
        elif variant == "quantized":
            prec = float(g * 10.0 ** rng.uniform(-4.0, -2.0))
        ops.append(_sample_filter_op(dd, base, variant, prec, r))

    # filter_metrics where its default window sits in the asymptotic stop
    # band; the seed moves the sampling grid
    for family, n in METRICS_CASES:
        grid = (jitter(rng, 1e-3, 0.2), jitter(rng, 1e3, 0.2), jitter(rng, 50.0, 0.1))
        ops.append(_metrics_op(dd, sequence(dd, family, n, rng), grid))

    # filter_ratio of two sequences with the same pulse count
    for n, fa, fb in ((3, "pdd", "cpmg"), (6, "custom", "udd"), (10, "udd", "cpmg"),
                      (15, "custom", "pdd")):
        n = int_jitter(rng, n, 0.1)
        ops.append(_ratio_op(dd, sequence(dd, fa, n, rng), sequence(dd, fb, n, rng)))

    # bandpass_profile of the modified filter F(omega tau)/omega^2
    for n, family in zip((2, 5, 10, 18), FAMILIES):
        n = int_jitter(rng, n, 0.1)
        seq = sequence(dd, family, n, rng)
        tau = float(rng.uniform(0.5, 2.0))
        grid = np.linspace(0.05, 6.0 * math.pi * (n + 1) / tau, 400)
        ops.append(_bandpass_op(dd, seq, tau, grid))

    # max_order at tau / tau_switch from 150 to 3000 (the scan grows as
    # the square of the order it finds)
    for family, ratio in (("cpmg", 300.0), ("pdd", 150.0), ("pdd", 300.0), ("udd", 3000.0)):
        tau = float(rng.uniform(0.5, 5.0))
        ops.append(_max_order_op(dd, family, tau, tau / jitter(rng, ratio)))

    # a minority of dd subcommands through cli.main, into a scratch directory
    ops.extend(_cli_ops(dd, rng, scratch))
    return ops


# Pulse counts at which filter_metrics' default fit window [u_f1/32,
# u_f1/8] lies where F ~ u^(2k): the slope is within 5% of 6.02 k dB per
# octave there: udd up to 12, cpmg up to 4 and even counts up to 8, pdd up
# to 5. Above them the window reaches into the band edge (odd CPMG above
# 3 reads 7-9% low).
METRICS_CASES = (("fid", 0), ("udd", 3), ("udd", 7), ("udd", 11), ("cpmg", 3), ("cpmg", 6),
                 ("pdd", 1), ("pdd", 4))


def _sample_filter_op(dd, seq, variant, prec, r):
    deltas = seq.deltas

    def check(s):
        expect(s.n == seq.n, "sample_filter: wrong pulse count")
        expect(s.u_grid.size == max(2, round(PPD * math.log10(U_MAX / U_MIN))), "grid size")
        d = ref.quantize(deltas, prec) if variant == "quantized" else deltas
        check_filter_values(d, r, s.u_grid, s.values, f"sample_filter {variant} {seq.label}{seq.n}")

    return Op("sample_filter", f"{variant} {seq.label}{seq.n}",
              lambda: dd.sample_filter(seq, U_MIN, U_MAX, PPD, variant=variant, precision=prec),
              check)


def check_metrics(m, deltas, u_grid, what):
    """u_f1, rolloff and passband mean of one sequence's metrics."""
    f1 = m["u_f1"]
    F1 = float(ref.filter_exact(deltas, f1)[0])
    expect(abs(F1 - 1.0) <= 1e-5, f"{what}: F(u_f1) = {F1!r}, not 1")
    below = u_grid[u_grid < f1 * (1 - 1e-9)]
    expect(np.all(ref.filter_exact(deltas, below) <= 1.0 + 1e-9),
           f"{what}: F crosses 1 below u_f1")
    lo, hi = m["fit_window"]
    inside = u_grid[(u_grid >= lo) & (u_grid <= hi)]
    F = ref.filter_exact(deltas, inside)
    if np.all(F > 1e6 * ref.filter_bound(deltas, inside)):
        want = ref.rolloff_fit(inside, F)
        expect(abs(m["rolloff_db_per_octave"] - want) <= 1e-6 * abs(want),
               f"{what}: rolloff {m['rolloff_db_per_octave']} vs fit of exact F {want}")
    order = ref.suppression_order(deltas)
    slope = 20.0 * order * math.log10(2.0)
    expect(abs(m["rolloff_db_per_octave"] - slope) <= 0.05 * slope,
           f"{what}: rolloff {m['rolloff_db_per_octave']:.2f} vs {slope:.2f} for order {order}")
    lo_p, hi_p = 100.0 * math.pi, 200.0 * math.pi
    mean = (ref.filter_area(deltas, hi_p) - ref.filter_area(deltas, lo_p)) / (hi_p - lo_p)
    expect(abs(m["passband_mean"] - mean) <= 1e-4 * mean,
           f"{what}: passband mean {m['passband_mean']} vs {mean}")
    expect(m["passband_ripple_db"] >= 0.0, f"{what}: negative ripple")


def _metrics_op(dd, seq, grid):
    def call():
        return dd.filter_metrics(dd.sample_filter(seq, *grid))

    def check(m):
        u = dd.sample_filter(seq, *grid).u_grid
        expect(np.allclose(u, np.geomspace(grid[0], grid[1], u.size), rtol=1e-12), "metrics grid")
        check_metrics(m.to_dict(), seq.deltas, u, f"filter_metrics {seq.label}{seq.n}")

    return Op("filter_metrics", f"{seq.label}{seq.n}", call, check)


def _ratio_op(dd, a, b):
    def call():
        return dd.filter_ratio(dd.sample_filter(a, 1e-2, 1e2, 50),
                               dd.sample_filter(b, 1e-2, 1e2, 50))

    def check(c):
        u = c.u_grid
        fa, fb = ref.filter_exact(a.deltas, u), ref.filter_exact(b.deltas, u)
        ba, bb = ref.filter_bound(a.deltas, u), ref.filter_bound(b.deltas, u)
        flags = np.array(c.flags)
        resolved = (fa > 1e6 * ba) & (fb > 1e6 * bb)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = fa / fb
        expect(np.allclose(c.ratio[resolved], want[resolved], rtol=1e-6, atol=0),
               f"filter_ratio {a.label}/{b.label}: ratio differs from exact filters")
        expect(not np.any(flags[resolved] == "masked"), "filter_ratio: resolved point masked")
        ok = (flags != "lt1") | (c.ratio < 1.0)
        expect(np.all(ok & ((flags != "gt1") | ~(c.ratio < 1.0))), "filter_ratio: flag contradicts ratio")

    return Op("filter_ratio", f"{a.label}{a.n}/{b.label}{b.n}", call, check)


def _bandpass_op(dd, seq, tau, grid):
    def check(p):
        vals = ref.filter_exact(seq.deltas, grid * tau) / grid ** 2
        j = int(np.argmin(np.abs(grid - p.peak_omega)))
        expect(grid[j] == p.peak_omega, "bandpass_profile: peak not on the grid")
        expect(vals[j] >= vals.max() * (1.0 - 1e-9), "bandpass_profile: peak is not the maximum")
        interior = 0 < int(np.argmax(vals)) < grid.size - 1
        expect(p.flag == ("bandpass" if interior else "plateau"), "bandpass_profile: wrong flag")
        expect(p.bandwidth > 0.0 and p.out_of_band_rejection_db >= 0.0,
               "bandpass_profile: non-positive width or negative rejection")

    return Op("bandpass_profile", f"{seq.label}{seq.n}",
              lambda: dd.bandpass_profile(seq, tau, grid), check)


def _max_order_op(dd, family, tau, tau_switch):
    def check(n):
        want = ref.max_order(family, tau, tau_switch)
        expect(n == want, f"max_order {family} {tau}/{tau_switch}: {n} vs closed form {want}")

    return Op("max_order", f"{family} {tau / tau_switch:.0f}",
              lambda: dd.max_order(family, tau, tau_switch), check)


def run_cli(dd, argv):
    """dd <argv> in-process: (exit code, the one-line JSON summary)."""
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dd.cli.main(argv)
    return code, buf.getvalue()


def _read_csv(path):
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    return rows[0], rows[1:]


def _cli_ops(dd, rng, scratch):
    ops = []
    fam = ("cpmg", "pdd", "udd")[int(rng.integers(0, 3))]
    n = int_jitter(rng, 20, 0.1)
    out_f = os.path.join(scratch, "filter.csv")
    argv_f = ["filter", "--seq", f"{fam}:{n}", "--u-min", "1e-2", "--u-max", "1e3",
              "--ppd", "40", "--out", out_f]

    def check_filter(res):
        code, summary = res
        expect(code == 0, "dd filter: non-zero exit")
        expect(json.loads(summary)["points"] == 200, "dd filter: summary point count")
        _, rows = _read_csv(out_f)
        u = np.array([float(r[0]) for r in rows])
        F = np.array([float(r[1]) for r in rows])
        check_filter_values(ref.canonical_deltas(fam, n), 0.0, u, F, "dd filter")

    ops.append(Op("cli", "filter", lambda: run_cli(dd, argv_f), check_filter))

    mfam, mn = "udd", int(rng.integers(6, 9))
    out_m = os.path.join(scratch, "metrics.json")
    argv_m = ["metrics", "--family", mfam, "--n", str(mn), "--out", out_m]

    def check_metrics_cli(res):
        code, summary = res
        expect(code == 0, "dd metrics: non-zero exit")
        with open(out_m) as fh:
            m = json.load(fh)
        expect(m["n"] == mn, "dd metrics: wrong n")
        check_metrics(m, ref.canonical_deltas(mfam, mn), np.logspace(-3, 3, 300), "dd metrics")

    ops.append(Op("cli", "metrics", lambda: run_cli(dd, argv_m), check_metrics_cli))

    cn = int_jitter(rng, 10, 0.1)
    out_c = os.path.join(scratch, "compare.csv")
    argv_c = ["compare", "--a", f"udd:{cn}", "--b", f"cpmg:{cn}", "--out", out_c]

    def check_compare(res):
        code, summary = res
        expect(code == 0, "dd compare: non-zero exit")
        _, rows = _read_csv(out_c)
        u = np.array([float(r[0]) for r in rows])
        ratio = np.array([float(r[1]) for r in rows])
        da, db = ref.canonical_deltas("udd", cn), ref.canonical_deltas("cpmg", cn)
        fa, fb = ref.filter_exact(da, u), ref.filter_exact(db, u)
        ok = (fa > 1e6 * ref.filter_bound(da, u)) & (fb > 1e6 * ref.filter_bound(db, u))
        expect(np.allclose(ratio[ok], fa[ok] / fb[ok], rtol=1e-6), "dd compare: ratio column")
        expect(json.loads(summary)["points"] == len(rows), "dd compare: summary point count")

    ops.append(Op("cli", "compare", lambda: run_cli(dd, argv_c), check_compare))

    which = ("width", "ratio")[int(rng.integers(0, 2))]
    out_d = os.path.join(scratch, "figures")
    argv_g = ["figures", "--which", which, "--out-dir", out_d]

    def check_figures(res):
        code, summary = res
        expect(code == 0, "dd figures: non-zero exit")
        with open(os.path.join(out_d, "manifest.json")) as fh:
            files = json.load(fh)["files"]
        expect(len(files) == (4 if which == "width" else 1), "dd figures: file count")
        for name in files:
            expect(os.path.getsize(os.path.join(out_d, name)) > 0, f"dd figures: {name} empty")

    ops.append(Op("cli", f"figures {which}", lambda: run_cli(dd, argv_g), check_figures))
    return ops


# ----------------------------------------------------------------- predict

# deep-stop-band chi: ToleranceNotMet today, because abs_tol=1e-300 gives
# the refinement no absolute floor and all 12 rounds run
STOP_BAND = ({"variant": "ohmic", "amplitude": 0.1, "omega_d": 5.0},
             (("udd", 12, 0.5), ("udd", 13, 0.6), ("udd", 14, 1.0)))

# Single chi: (n, tau * cutoff) rungs per spectrum variant, from FID-like
# to n = 100 and tau * omega_c from 0.3 to a few hundred. Each tau is
# raised, where needed, past the UDD stop-band edge (see udd_edge).
CHI_LADDER = {
    "ohmic": ((1, 0.3), (3, 3.0), (8, 20.0), (20, 60.0), (45, 150.0), (100, 200.0)),
    "white": ((1, 1.0), (4, 8.0), (12, 30.0), (30, 80.0), (60, 150.0), (100, 250.0)),
    "supraohmic": ((1, 0.3), (3, 1.5), (6, 8.0), (15, 25.0), (30, 40.0), (50, 70.0)),
    "powerlaw": ((1, 0.5), (4, 4.0), (10, 15.0), (25, 50.0), (50, 100.0), (90, 150.0)),
    "tabulated": ((2, 0.8), (5, 5.0), (12, 20.0), (30, 60.0), (60, 100.0), (100, 150.0)),
}


def tau_for(rng, n, x, spec):
    """tau with tau * cutoff near x, and past the UDD stop-band edge."""
    return jitter(rng, max(x, 1.1 * udd_edge(n))) / cutoff(spec)


def rungs(ladder):
    """The ladder with the geometric midpoint of each pair of rungs."""
    out = [ladder[0]]
    for (n0, x0), (n1, x1) in zip(ladder[:-1], ladder[1:]):
        out += [(round(math.sqrt(n0 * n1)), math.sqrt(x0 * x1)), (n1, x1)]
    return out


def predict(dd, rng, scratch):
    ops = []
    for k in range(11):
        for j, variant in enumerate(SPECTRA):
            n, x = rungs(CHI_LADDER[variant])[k]
            n = int_jitter(rng, n)
            sd = spectrum_dict(rng, variant)
            seq = sequence(dd, FAMILIES[(j + k) % 4], n, rng)
            if j == k % 5 and n > 1:   # about one in five with finite pulse width
                seq = dd.make_custom(seq.deltas, width_ratio=jitter(rng, 0.15 * min_gap(seq.deltas), 0.5),
                                     label=seq.label)
            tau = raise_tau(seq.deltas, seq.width_ratio, tau_for(rng, n, x, sd), sd)
            ops.append(_chi_op(dd, seq, sd, tau))

    # light 40-point coherence curves over two decades of tau, small n
    for n, variant, family in zip(range(1, 7), SPECTRA + ("ohmic",), FAMILIES + FAMILIES):
        sd = spectrum_dict(rng, variant)
        seq = sequence(dd, family, n, rng)
        t0 = raise_tau(seq.deltas, 0.0, tau_for(rng, n, 0.3, sd), sd)
        ops.append(_curve_op(dd, seq, sd, np.geomspace(t0, 100.0 * t0, 40)))

    # long tau at n = 3: tau * omega_c near 250 (supra-ohmic) and
    # tau * omega_hi near 2500 (white); the panel count grows with tau
    for variant, family, x in (("supraohmic", "udd", 750.0), ("white", "cpmg", 2500.0)):
        sd = spectrum_dict(rng, variant)
        ops.append(_chi_op(dd, sequence(dd, family, 3, rng), sd, jitter(rng, x) / cutoff(sd)))

    sd, cases = STOP_BAND
    for fam, n, tau in cases:
        ops.append(_stop_band_op(dd, dd.make_canonical(fam, n), sd, tau))
    return ops


def _stop_band_op(dd, seq, sd, tau, rtol=1e-8):
    """A deep-stop-band chi. It raises ToleranceNotMet today and is then
    counted as failed; a value it returns must lie within the error it
    reports (or ten times the tolerance it ran with) of the 60-digit
    pairwise sum."""
    spec = dd.from_dict(dict(sd))
    label = f"{seq.label}{seq.n} tau={tau}"

    def check(out):
        value, info = out
        want = ref.chi_mp(seq.deltas, sd, tau)
        allowed = max(info["error_estimate"], 10.0 * rtol * want) + 4.0 * ref.EPS * want
        expect(math.isfinite(value) and value >= 0.0 and abs(value - want) <= allowed,
               f"chi_stop_band {label}: chi={value!r} vs 60-digit reference {want!r} "
               f"(reported error {info['error_estimate']!r})")

    return Op("chi_stop_band", label, lambda: dd.chi(seq, spec, tau, full_output=True), check,
              expect_error="ToleranceNotMet")


def _chi_op(dd, seq, sd, tau):
    spec = dd.from_dict(dict(sd))
    label = f"{sd['variant']} {seq.label}{seq.n} r={seq.width_ratio:.2g} tau={tau:.3g}"

    def check(value):
        what = "chi " + label
        check_chi(value, seq.deltas, sd, tau, seq.width_ratio, what=what)
        if seq.label == "custom":
            mirrored = dd.chi(dd.reflect(seq), spec, tau)
            expect(abs(mirrored - value) <= 1e-7 * value + 1e-300,
                   f"{what}: chi changes under reflect ({mirrored!r} vs {value!r})")

    return Op("chi", label, lambda: dd.chi(seq, spec, tau), check)


def _curve_op(dd, seq, sd, taus):
    spec = dd.from_dict(dict(sd))
    label = f"{sd['variant']} {seq.label}{seq.n}"

    def check(curve):
        expect(np.array_equal(curve.tau_grid, taus), "coherence_curve: tau grid")
        for t, c, w in zip(taus, curve.chi_values, curve.w_values):
            check_chi(float(c), seq.deltas, sd, float(t), what=f"curve {label} tau={t:.3g}")
            expect(w == float(np.exp(-c)), "coherence_curve: W != exp(-chi)")

    return Op("coherence_curve", label, lambda: dd.coherence_curve(seq, spec, taus), check)


# ------------------------------------------------------------------ design

def design(dd, rng, scratch):
    """Two seeded copies of each rung. The optimizers' own seed is fixed:
    it places the jittered Nelder-Mead starts, and a seed-dependent start
    changes an optimization's cost by up to 40%."""
    return [op for _ in range(2) for op in _design_rungs(dd, rng)]


def _design_rungs(dd, rng):
    ops = []
    for n, x in ((2, 2.0), (4, 3.5), (6, 5.0)):
        sd = spectrum_dict(rng, "ohmic")
        gmin = 0.5 / (n + 1) if n == 4 else None   # one constrained LODD
        ops.append(_lodd_op(dd, sd, n, jitter(rng, x) / sd["omega_d"], gmin))
    for n, x in ((2, 1.0), (3, 1.5), (5, 2.5)):
        sd = spectrum_dict(rng, "supraohmic")
        sd["omega_c"] = jitter(rng, 1.0)
        ops.append(_lodd_op(dd, sd, n, jitter(rng, x) / sd["omega_c"], None))
    for n, u_max in ((2, 4.0), (4, 6.0), (6, 8.0)):
        ops.append(_ofdd_op(dd, n, jitter(rng, u_max)))
    # BADD kernel table: its size follows tau * omega_c; tau_switch near
    # 0.22 tau allows n = 1..3
    for _ in range(2):
        sd = {"variant": "supraohmic", "alpha": float(rng.uniform(5e-3, 2e-2)),
              "omega_c": jitter(rng, 0.4)}
        tau = jitter(rng, 0.4) / sd["omega_c"]
        ops.append(_badd_op(dd, sd, tau, tau * jitter(rng, 0.22, 0.03), 4))
    return ops


def _opt_cfg(dd, gmin=None):
    return dd.OptimizationConfig(restarts=1, max_iterations=20, seed=0, min_gap_fraction=gmin)


def check_positions(deltas, gmin, what):
    d = np.asarray(deltas)
    expect(np.all(np.diff(d) > 0) and d[0] > 0 and d[-1] < 1, f"{what}: invalid positions")
    if gmin:
        expect(min_gap(d) >= gmin * (1.0 - 1e-9), f"{what}: gap {min_gap(d)} below {gmin}")


def check_dominance(res, what, rtol=0.0):
    best = min(res.baseline_values.values())
    expect(res.objective_value <= best * (1.0 + rtol) + 1e-300,
           f"{what}: objective {res.objective_value} worse than baseline {best}")


def _lodd_op(dd, sd, n, tau, gmin):
    spec = dd.from_dict(dict(sd))
    cfg = _opt_cfg(dd, gmin)
    label = f"{sd['variant']} n={n} tau={tau:.3g}" + (f" gmin={gmin:.3g}" if gmin else "")

    def check(res):
        what = "optimize_lodd " + label
        check_positions(res.sequence.deltas, gmin, what)
        check_dominance(res, what)
        check_chi(res.objective_value, res.sequence.deltas, sd, tau, rtol=1e-7, what=what)
        if not gmin:
            for fam, v in res.baseline_values.items():
                check_chi(v, ref.canonical_deltas(fam, n), sd, tau, rtol=1e-7, what=f"{what} {fam}")

    return Op("optimize_lodd", label, lambda: dd.optimize_lodd(spec, n, tau, cfg), check)


def _ofdd_op(dd, n, u_max):
    cfg = _opt_cfg(dd)
    label = f"n={n} u_max={u_max:.3g}"

    def check_area(value, deltas, what):
        want = ref.filter_area(deltas, u_max)
        _, c = ref.breakpoints(deltas)
        bound = 64.0 * ref.EPS * ref.rounding_scale(c) * u_max
        expect(abs(value - want) <= 1e-7 * abs(want) + bound,
               f"{what}: area {value} vs exact {want}")

    def check(res):
        what = "optimize_ofdd " + label
        check_positions(res.sequence.deltas, None, what)
        check_dominance(res, what)
        check_area(res.objective_value, res.sequence.deltas, what)
        for fam, v in res.baseline_values.items():
            check_area(v, ref.canonical_deltas(fam, n), f"{what} {fam}")

    return Op("optimize_ofdd", label, lambda: dd.optimize_ofdd(n, u_max, cfg), check)


def _badd_op(dd, sd, tau, tau_switch, n_max):
    spec = dd.from_dict(dict(sd))
    cfg = _opt_cfg(dd)
    label = f"omega_c={sd['omega_c']:.3g} tau_switch={tau_switch:.3g}"

    def check(res):
        what = "optimize_badd " + label
        check_positions(res.sequence.deltas, tau_switch / tau, what)
        expect(res.sequence.n == res.diagnostics["n_best"] <= res.diagnostics["n_limit"] <= n_max,
               f"{what}: pulse count outside the limit")
        check_dominance(res, what, rtol=1e-6)
        check_chi(res.objective_value, res.sequence.deltas, sd, tau, rtol=1e-7, what=what)

    return Op("optimize_badd", label,
              lambda: dd.optimize_badd(spec, tau, tau_switch, n_max, cfg), check)


# -------------------------------------------------------------- crosscheck

N_STEPS = 8192
MC_REALIZATIONS = 400
# Monte Carlo inputs do not depend on the seed: a three-standard-error
# check fails on about one draw in 370 with nothing wrong, so fresh draws
# per seed would fail runs at random. The modes x steps phase matrix is
# 34 MB in the first two cases and 182 MB in the last; its size, not the
# realizations, sets the cost, and the light cases keep memory-bound work
# from dominating the pass (W moves by about 2e-6 between N = 2048 and
# 8192 in them).
MC_CASES = (
    ({"variant": "ohmic", "amplitude": 0.1, "omega_d": 5.0}, "udd", 4, 2.0, 2048),
    ({"variant": "white", "level": 0.02, "omega_hi": 20.0}, "cpmg", 4, 5.0, 2048),
    ({"variant": "supraohmic", "alpha": 1.14e-2, "omega_c": 3.0}, "udd", 4, 25.0, N_STEPS),
)
MC_SEED = 7


def crosscheck(dd, rng, scratch):
    ops = []
    # sixteen light Grammian cases (n = 1..16) on the ohmic, white and
    # tabulated spectra, so that the median operation is one of them, then
    # one heavy case each on the supra-ohmic and power-law spectra
    for i in range(16):
        sd = spectrum_dict(rng, ("ohmic", "white", "tabulated")[i % 3])
        ops.append(_oracle_case(dd, rng, FAMILIES[(i + i // 4) % 4], i + 1, 6.0, sd))
    ops.append(_oracle_case(dd, rng, "udd", 3, 15.0, spectrum_dict(rng, "supraohmic")))
    ops.append(_oracle_case(dd, rng, "custom", 4, 6.0, spectrum_dict(rng, "powerlaw")))
    for sd, fam, n, tau, n_steps in MC_CASES:
        ops.append(_mc_op(dd, dd.make_canonical(fam, n), sd, tau, n_steps))
    return ops


def _oracle_case(dd, rng, family, n, x, sd):
    """oracle_report with tau times the top of the power support near x
    (31 omega_c for the supra-ohmic spectrum): the autocovariance's cost
    grows with that product."""
    seq = sequence(dd, family, n, rng)
    supra = sd["variant"] == "supraohmic"
    tau = jitter(rng, x) / (31.0 * sd["omega_c"] if supra else cutoff(sd))
    tau = max(tau, 1.1 * udd_edge(n) / cutoff(sd))
    return _oracle_op(dd, seq, sd, raise_tau(seq.deltas, 0.0, tau, sd))


def _oracle_op(dd, seq, sd, tau):
    spec = dd.from_dict(dict(sd))
    label = f"{sd['variant']} {seq.label}{seq.n} tau={tau:.3g}"

    def check(rep):
        what = "oracle_report " + label
        want = check_chi(rep["chi_freq"], seq.deltas, sd, tau, what=what)
        gram = float(rep["chi_grammian"])
        expect(abs(gram - want) <= 0.01 * want,
               f"{what}: Grammian {gram:.6e} not within 1% of {want:.6e}")
        expect(rep["N"] == N_STEPS, f"{what}: N")

    return Op("oracle_report", label, lambda: dd.oracle_report(seq, spec, tau, N_STEPS), check)


def _mc_op(dd, seq, sd, tau, n_steps):
    spec = dd.from_dict(dict(sd))
    label = f"{sd['variant']} {seq.label}{seq.n} tau={tau:g} N={n_steps}"

    def check(mc):
        want, _ = ref.chi_pairwise(seq.deltas, sd, tau)
        w = math.exp(-want)
        expect(mc.n_realizations == MC_REALIZATIONS and mc.stderr > 0, "monte_carlo_w: counts")
        expect(abs(mc.w - w) <= 3.0 * mc.stderr,
               f"monte_carlo_w {label}: W={mc.w:.5f} vs exp(-chi)={w:.5f}, "
               f"z={(mc.w - w) / mc.stderr:.2f}")

    return Op("monte_carlo_w", label,
              lambda: dd.monte_carlo_w(seq, spec, tau, MC_REALIZATIONS, n_steps, MC_SEED), check)


WORKLOADS = {"analysis": analysis, "predict": predict, "design": design,
             "crosscheck": crosscheck}


# ---------------------------------------------------------------- warm-up

def warm_up(dd, name, scratch):
    """Small calls that reach every layer the workload uses, so lazy
    imports, node caches and first-call costs land in set-up."""
    seq = dd.make_canonical("udd", 4)
    ohm = dd.OhmicSharpCutoff(0.1, 5.0)
    if name == "analysis":
        dd.filter_metrics(dd.sample_filter(seq, 1e-3, 1e3, 20))
        dd.sample_filter(dd.make_custom(seq.deltas, width_ratio=0.01), 1e-2, 1e2, 10, variant="finite")
        dd.filter_ratio(dd.sample_filter(seq, 1, 10, 5), dd.sample_filter(seq, 1, 10, 5))
        dd.bandpass_profile(seq, 1.0, np.linspace(0.1, 30.0, 50))
        dd.max_order("udd", 1.0, 0.1)
        run_cli(dd, ["filter", "--seq", "udd:4", "--ppd", "5", "--out",
                     os.path.join(scratch, "warm.csv")])
    elif name == "predict":
        for sd in (spectrum_dict(np.random.default_rng(0), v) for v in SPECTRA):
            dd.chi(seq, dd.from_dict(sd), 1.0)
        dd.coherence_curve(seq, ohm, np.geomspace(0.5, 2.0, 4))
    elif name == "design":
        cfg = dd.OptimizationConfig(restarts=0, max_iterations=2)
        dd.optimize_lodd(ohm, 2, 1.0, cfg)
        dd.optimize_ofdd(2, 3.0, cfg)
        dd.optimize_badd(dd.SupraOhmicExp(1e-2, 0.3), 1.0, 0.45, 1, cfg)
    else:
        dd.oracle_report(seq, ohm, 0.5, 1024)
        dd.monte_carlo_w(seq, ohm, 0.5, 10, 1024, 0)
