"""Command-line interface.

Subcommands: filter, coherence, metrics, compare, optimize (lodd, ofdd,
badd), oracle, figures. Every run ends with a one-line JSON summary on
stdout; file outputs are written atomically. Exit codes: 0 success, 1
domain/numeric failure, bad input value, unreadable file or failed
allocation (reported as one-line JSON on stderr), 2 usage.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import io
from .coherence import chi, coherence_curve, coherence_w
from .errors import BadConfig, DDError
from .filters import sample_filter
from .metrics import filter_metrics, filter_ratio
from .optimize import (OptimizationConfig, optimize_badd, optimize_lodd,
                       optimize_ofdd)
from .oracle import oracle_report
from .sequences import make_canonical, make_custom
from .spectra import rescale_time

_FAMILIES = ("fid", "cpmg", "pdd", "udd")


def parse_sequence_spec(text):
    """'fid' | 'cpmg:4' | 'pdd:3' | 'udd:7' | 'custom:0.1,0.25,0.7'."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "fid":
            seq = make_canonical("fid")
        elif name in ("cpmg", "pdd", "udd"):
            seq = make_canonical(name, int(arg))
        elif name == "custom":
            seq = make_custom([float(x) for x in arg.split(",")])
        else:
            raise BadConfig(f"unknown sequence spec {text!r}")
    except ValueError as exc:
        raise BadConfig(f"bad sequence spec {text!r}: {exc}") from exc
    return seq


def _resolve_sequence(args):
    fam = getattr(args, "family", None)
    if getattr(args, "seq", None):
        seq = parse_sequence_spec(args.seq)
    elif fam is None:
        raise BadConfig("provide --seq or --family")
    elif fam == "fid":
        seq = make_canonical("fid")
    elif getattr(args, "n", None) is None:
        raise BadConfig(f"--family {fam} requires --n")
    else:
        seq = make_canonical(fam, args.n)
    width = getattr(args, "width_ratio", 0.0) or 0.0
    if width:
        seq = make_custom(seq.deltas, width_ratio=width, label=seq.label)
    return seq


def _load_spectrum(args):
    spec = io.load_spectrum(args.spectrum)
    if args.rescale_time is not None:
        spec = rescale_time(spec, args.rescale_time)
    return spec


def _summary(obj):
    print(io.dumps_json(obj))


def _add_seq_options(p, default_family=None):
    p.add_argument("--seq", help="sequence spec, e.g. cpmg:4 or custom:0.1,0.5")
    p.add_argument("--family", choices=_FAMILIES, default=default_family)
    p.add_argument("--n", type=int)
    p.add_argument("--width-ratio", type=float, default=0.0,
                   help="pulse duration as a fraction of total time")


def _add_grid_options(p):
    p.add_argument("--u-min", type=float, default=1e-3)
    p.add_argument("--u-max", type=float, default=1e3)
    p.add_argument("--ppd", type=float, default=50,
                   help="grid points per decade (log spacing)")


def cmd_filter(args):
    seq = _resolve_sequence(args)
    if args.precision:
        variant = "quantized"
    elif seq.width_ratio > 0:
        variant = "finite"
    else:
        variant = "ideal"
    s = sample_filter(seq, args.u_min, args.u_max, args.ppd,
                      variant=variant, precision=args.precision)
    rows = [(u, F, s.variant, s.n) for u, F in zip(s.u_grid, s.values)]
    io.write_csv(args.out, ("u", "F", "variant", "n"), rows)
    _summary({"command": "filter", "out": args.out, "points": len(rows),
              "n": s.n, "variant": s.variant})
    return 0


def cmd_coherence(args):
    seq = _resolve_sequence(args)
    spec = _load_spectrum(args)
    if args.tau is not None:
        taus = np.array([args.tau])
    else:
        if args.tau_min is None or args.tau_max is None:
            raise BadConfig("provide --tau or both --tau-min and --tau-max")
        taus = np.geomspace(args.tau_min, args.tau_max, args.tau_points)
    curve = coherence_curve(seq, spec, taus)
    rows = [(t, c, w, n, lbl) for t, c, w, n, lbl in
            zip(curve.tau_grid, curve.chi_values, curve.w_values,
                curve.pulse_counts, curve.labels)]
    io.write_csv(args.out, ("tau", "chi", "W", "n", "family"), rows)
    _summary({"command": "coherence", "out": args.out, "points": len(rows),
              "chi_first": float(curve.chi_values[0]),
              "chi_last": float(curve.chi_values[-1])})
    return 0


def cmd_metrics(args):
    seq = _resolve_sequence(args)
    variant = "finite" if seq.width_ratio > 0 else "ideal"
    s = sample_filter(seq, args.u_min, args.u_max, args.ppd, variant=variant)
    m = filter_metrics(s).to_dict()
    m["n"] = s.n
    if args.out:
        io.write_json(args.out, m)
        m["out"] = args.out
    _summary({"command": "metrics", **m})
    return 0


def cmd_compare(args):
    sa = parse_sequence_spec(args.a)
    sb = parse_sequence_spec(args.b)
    fa = sample_filter(sa, args.u_min, args.u_max, args.ppd)
    fb = sample_filter(sb, args.u_min, args.u_max, args.ppd)
    comp = filter_ratio(fa, fb)
    rows = list(zip(comp.u_grid, comp.ratio, comp.flags))
    io.write_csv(args.out, ("u", "ratio", "flag"), rows)
    masked = sum(1 for f in comp.flags if f == "masked")
    _summary({"command": "compare", "out": args.out, "points": len(rows),
              "masked_points": masked})
    return 0


def _opt_config(args):
    return OptimizationConfig(
        restarts=args.restarts, max_iterations=args.max_iter,
        tol=args.tol, seed=args.seed,
        min_gap_fraction=getattr(args, "min_gap_fraction", None))


def _finish_optimize(args, result, extra=None):
    doc = result.to_dict()
    if extra:
        doc.update(extra)
    if args.out:
        io.write_json(args.out, doc)
    _summary({"command": f"optimize-{args.mode}",
              "objective_value": result.objective_value,
              "n": result.sequence.n,
              "baseline_values": result.baseline_values,
              "converged": result.diagnostics.get("converged"),
              "out": args.out})
    return 0


def cmd_optimize_lodd(args):
    result = optimize_lodd(_load_spectrum(args), args.n, args.tau,
                           _opt_config(args))
    return _finish_optimize(args, result, {"tau": args.tau})


def cmd_optimize_ofdd(args):
    result = optimize_ofdd(args.n, args.u_max, _opt_config(args))
    return _finish_optimize(args, result, {"u_max": args.u_max})


def cmd_optimize_badd(args):
    result = optimize_badd(_load_spectrum(args), args.tau, args.tau_switch,
                           args.n_max, _opt_config(args))
    return _finish_optimize(args, result, {"tau": args.tau,
                                           "tau_switch": args.tau_switch})


def cmd_oracle(args):
    seq = _resolve_sequence(args)
    spec = _load_spectrum(args)
    report = oracle_report(seq, spec, args.tau, args.n_steps,
                           n_realizations=args.mc, seed=args.seed)
    if args.out:
        io.write_json(args.out, report)
        report = {**report, "out": args.out}
    _summary({"command": "oracle", **report})
    return 0


def cmd_figures(args):
    os.makedirs(args.out_dir, exist_ok=True)
    files = []

    def dump(name, samples):
        path = os.path.join(args.out_dir, name)
        rows = [(u, F, samples.variant, samples.n)
                for u, F in zip(samples.u_grid, samples.values)]
        io.write_csv(path, ("u", "F", "variant", "n"), rows)
        files.append(name)

    if args.which == "ff1":
        for fam in ("cpmg", "pdd", "udd"):
            for n in range(3, 11):
                dump(f"{fam}{n}.csv",
                     sample_filter(make_canonical(fam, n), 1e-2, 1e3, 50))
    elif args.which == "width":
        base = make_canonical("udd", 7)
        for r in (0.0, 1e-4, 1e-3, 1e-2):
            seq = make_custom(base.deltas, width_ratio=r, label="udd")
            dump(f"udd7_r{r:g}.csv".replace("-", "m"),
                 sample_filter(seq, 1e-3, 1e3, 50,
                               variant="finite" if r else "ideal"))
    else:  # ratio
        fa = sample_filter(make_canonical("udd", 10), 1e-3, 1e3, 200)
        fb = sample_filter(make_canonical("cpmg", 10), 1e-3, 1e3, 200)
        comp = filter_ratio(fa, fb)
        path = os.path.join(args.out_dir, "udd10_over_cpmg10.csv")
        io.write_csv(path, ("u", "ratio", "flag"),
                     list(zip(comp.u_grid, comp.ratio, comp.flags)))
        files.append("udd10_over_cpmg10.csv")

    manifest = {"which": args.which, "files": files}
    io.write_json(os.path.join(args.out_dir, "manifest.json"), manifest)
    _summary({"command": "figures", "which": args.which,
              "out_dir": args.out_dir, "n_files": len(files)})
    return 0


@functools.cache    # parse_args keeps no state in the parser: one serves every main call
def build_parser():
    p = argparse.ArgumentParser(
        prog="dd",
        description="Dynamical-decoupling filter design: filter functions, "
                    "coherence prediction, metrics, and sequence optimization.")
    sub = p.add_subparsers(dest="command", required=True)
    spectrum = argparse.ArgumentParser(add_help=False)
    spectrum.add_argument("--spectrum", required=True, help="spectrum JSON file")
    spectrum.add_argument("--rescale-time", type=float, default=None,
                          help="convert the spectrum to a new time unit first")

    f = sub.add_parser("filter", help="sample a filter function to CSV")
    _add_seq_options(f)
    _add_grid_options(f)
    f.add_argument("--precision", type=float, default=None,
                   help="quantize pulse times to this grid before sampling")
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_filter)

    c = sub.add_parser("coherence", parents=[spectrum], help="chi and W versus total time")
    _add_seq_options(c)
    c.add_argument("--tau", type=float, default=None)
    c.add_argument("--tau-min", type=float, default=None)
    c.add_argument("--tau-max", type=float, default=None)
    c.add_argument("--tau-points", type=int, default=40)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_coherence)

    m = sub.add_parser("metrics", help="filter metrics as JSON")
    _add_seq_options(m)
    _add_grid_options(m)
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_metrics)

    cp = sub.add_parser("compare", help="pointwise ratio of two filters")
    cp.add_argument("--a", required=True, help="numerator sequence spec")
    cp.add_argument("--b", required=True, help="denominator sequence spec")
    _add_grid_options(cp)
    cp.add_argument("--out", required=True)
    cp.set_defaults(func=cmd_compare)

    o = sub.add_parser("optimize", help="numerical sequence design")
    osub = o.add_subparsers(dest="mode", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--restarts", type=int, default=2)
    common.add_argument("--max-iter", type=int, default=None)
    common.add_argument("--tol", type=float, default=1e-10)
    common.add_argument("--out", default=None)

    ol = osub.add_parser("lodd", parents=[common, spectrum],
                         help="minimize chi at fixed n and tau")
    ol.add_argument("--n", type=int, required=True)
    ol.add_argument("--tau", type=float, required=True)
    ol.add_argument("--min-gap-fraction", type=float, default=None)
    ol.set_defaults(func=cmd_optimize_lodd)

    of = osub.add_parser("ofdd", parents=[common],
                         help="minimize filter area on [0, u_max]")
    of.add_argument("--n", type=int, required=True)
    of.add_argument("--u-max", type=float, required=True)
    of.set_defaults(func=cmd_optimize_ofdd)

    ob = osub.add_parser("badd", parents=[common, spectrum],
                         help="gap-constrained design over pulse count")
    ob.add_argument("--tau", type=float, required=True)
    ob.add_argument("--tau-switch", type=float, required=True)
    ob.add_argument("--n-max", type=int, required=True)
    ob.set_defaults(func=cmd_optimize_badd)

    r = sub.add_parser("oracle", parents=[spectrum], help="time-domain cross-check of chi")
    _add_seq_options(r)
    r.add_argument("--tau", type=float, required=True)
    r.add_argument("--n-steps", type=int, default=8192)
    r.add_argument("--mc", type=int, default=0,
                   help="Monte Carlo realizations (0 = skip)")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_oracle)

    g = sub.add_parser("figures", help="write figure-data CSV bundles")
    g.add_argument("--which", choices=("ff1", "width", "ratio"), required=True)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_figures)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DDError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(io.dumps_json(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
