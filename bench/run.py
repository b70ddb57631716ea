"""Benchmark for ddfilter: one workload, one seed, one JSON line.

    python3 bench/run.py --workload analysis --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from `src/` and
called in-process. Set-up (imports, input generation, warm-up) is timed
separately; then whole passes over the workload's operation list run
until `--seconds` have passed. Every output of the first pass is
checked against `reference`, and every later pass must reproduce the
first. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when `--trace 0`, and the per-layer metrics
from a run with wrappers around each layer when `--trace 1` (spans go
to bench/out/trace-<workload>-<seed>.jsonl). Exits 1 when the program
cannot be imported.
"""

import time

T_START = time.perf_counter()  # set-up time counts the imports up to ddfilter's

import argparse
import json
import os
import resource
import shutil
import statistics
import sys

import numpy as np

sys.dont_write_bytecode = True  # every run compiles the same sources
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("analysis", "predict", "design", "crosscheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import ddfilter from src/ of this checkout; None when it is not there."""
    # the defaults the program picks for itself: its own thread pool size
    os.environ.pop("DD_THREADS", None)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ddfilter", "__init__.py")):
        sys.stderr.write(f"bench: no ddfilter sources under {src}\n")
        return None
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH)
    import ddfilter
    import ddfilter.cli  # noqa: F401  (the CLI is called in-process)
    return ddfilter


def build(dd, workloads, name, seed, scratch):
    rng = np.random.default_rng([seed, sorted(workloads.WORKLOADS).index(name)])
    ops = workloads.WORKLOADS[name](dd, rng, scratch)
    workloads.warm_up(dd, name, scratch)
    return ops


def run_pass(ops):
    """Run every operation once: (outputs, wall seconds, CPU seconds,
    number that raised), the times one per operation."""
    outputs, walls, cpus, failed = [], [], [], 0
    for op in ops:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
            failed += 1
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        outputs.append(out)
    return outputs, walls, cpus, failed


def check_outputs(ops, passes, workloads):
    """Check the first pass against the references; later passes must
    give the same outputs. Returns a list of problems."""
    problems = []
    first = passes[0]
    for op, out in zip(ops, first):
        if isinstance(out, Exception) and type(out).__name__ == op.expect_error:
            continue  # the expected failure, counted in `failed`
        if isinstance(out, Exception):
            problems.append(f"{op.kind} {op.label}: raised {type(out).__name__}: {out}")
            continue
        try:
            op.check(out)
        except workloads.CheckFailed as exc:
            problems.append(str(exc))
    for later in passes[1:]:
        for op, a, b in zip(ops, first, later):
            if not same(a, b):
                problems.append(f"{op.kind} {op.label}: output changed between passes")
    return problems


def same(a, b):
    """Outputs of two passes agree (exceptions by type and message)."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, (tuple, list)) and not hasattr(a, "_fields"):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if hasattr(a, "_fields"):
        return same(tuple(a), tuple(b))
    if hasattr(a, "to_dict"):
        return same_value(a.to_dict(), b.to_dict())
    if hasattr(a, "__dataclass_fields__"):
        return all(same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    return same_value(a, b)


def same_value(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(a, (list, tuple)):
        aa, bb = np.asarray(a), np.asarray(b)
        if aa.dtype.kind in "fc":
            return aa.shape == bb.shape and np.allclose(aa, bb, rtol=1e-12, atol=0, equal_nan=True)
        return aa.shape == bb.shape and bool(np.all(aa == bb))
    if isinstance(a, float):
        return a == b or abs(a - b) <= 1e-12 * abs(a) or (a != a and b != b)
    return a == b


def main(argv=None):
    args = parse_args(argv)
    dd = import_program()
    if dd is None:
        return 1
    import_s = time.perf_counter() - T_START  # the program's imports, not the benchmark's
    import workloads

    scratch = os.path.join(OUT, f"tmp-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = build(dd, workloads, args.workload, args.seed, scratch)
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer(dd)
            tracer.install()
            tracer.wrap_ops(ops)

        passes, walls, cpus, failed = [], [], [], 0
        wall0 = time.perf_counter()
        while True:
            outputs, op_walls, op_cpus, n_failed = run_pass(ops)
            passes.append(outputs)
            walls.append(op_walls)
            cpus.append(op_cpus)
            failed += n_failed
            if time.perf_counter() - wall0 >= args.seconds:
                break
        wall = time.perf_counter() - wall0
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = check_outputs(ops, passes, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems[:20]:
        sys.stderr.write(f"bench: check failed: {p}\n")

    attempted = len(ops) * len(passes)
    if tracer:
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
        metrics = tracer.metrics(len(passes))
    else:
        # each operation's median over the passes: a slice of a pass slowed
        # by another tenant of the machine moves it less than it moves a
        # pass's total
        op_wall = np.median(np.array(walls), axis=0)
        op_cpu = np.median(np.array(cpus), axis=0)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(ops) / op_wall.sum(), "ops/s"),
            "op_p50_ms": (1e3 * np.median(op_wall), "ms"),
            "cpu_ms_per_op": (1e3 * op_cpu.mean(), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    sys.stderr.write(f"bench: {args.workload} seed={args.seed}: {len(passes)} passes of "
                     f"{len(ops)} operations in {wall:.2f} s\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
