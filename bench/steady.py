"""Steadiness check: two sets of runs of the same code, compared.

    python3 bench/steady.py --runs 10

Runs bench/run.py once per (run, set, workload) for every workload in
BENCHMARK.json, each run as long as its `run_seconds`, alternating
workloads and sets so that drift in the machine falls on both sets
alike. Set A uses seeds 1..runs and set B seeds 101..100+runs. For every
end-to-end metric in BENCHMARK.json it prints, per workload and set, the
median and the quartiles, the spread (Q3 - Q1) / median, and whether set
B's median is within the metric's bound of set A's in the worse
direction. Each spread must be within the metric's bound too, except
that of `setup_s`: set-up is mostly the cold import of NumPy, SciPy and
ddfilter, whose time follows the machine's load, so only its medians are
compared (its spread is printed). It also compares the share of failed
operations, which must be equal. The summary goes to
bench/out/steady.json. Exits 1 when any run is incorrect or the sets
disagree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(spec, results, workloads):
    """Rows of (workload, metric, stats A, stats B, spread ok, medians ok)."""
    rows, ok = [], True
    for w in workloads:
        share = {s: {r["failed"] / r["attempted"] for r in results[w][s]} for s in "AB"}
        same_share = len(share["A"] | share["B"]) == 1
        ok &= same_share and all(r["correct"] for s in "AB" for r in results[w][s])
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            st = {s: quartiles([r["metrics"][name]["value"] for r in results[w][s]]) for s in "AB"}
            spread = {s: (st[s][2] - st[s][0]) / st[s][1] for s in "AB"}
            a, b = st["A"][1], st["B"][1]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            # setup_s: medians only, see the module docstring
            spread_ok = name == "setup_s" or max(spread.values()) <= bound
            median_ok = worse <= bound
            ok &= spread_ok and median_ok
            rows.append({"workload": w, "metric": name, "unit": m["unit"], "bound": bound,
                         "A": st["A"], "B": st["B"], "spread_A": spread["A"],
                         "spread_B": spread["B"], "worse_B_vs_A": worse,
                         "spread_ok": spread_ok, "median_ok": median_ok,
                         "failed_share": sorted(share["A"] | share["B"])})
    return rows, ok


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    p.add_argument("--runs", type=int, default=10, help="runs per set and workload (>= 4)")
    args = p.parse_args(argv)
    if args.runs < 4:
        p.error("--runs must be at least 4 for quartiles")

    results = {w: {"A": [], "B": []} for w in names}
    t0 = time.time()
    for i in range(args.runs):
        for s, base in (("A", 1), ("B", 101)):
            for w in names:
                r = run_once(w, base + i, spec["run_seconds"])
                results[w][s].append(r)
                print(f"[{time.time() - t0:7.0f} s] {w:10s} set {s} seed {base + i:3d} "
                      f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
                      file=sys.stderr, flush=True)

    rows, ok = summarise(spec, results, names)
    print(f"{'workload':10s} {'metric':14s} {'median A':>11s} {'Q1..Q3 A':>23s} "
          f"{'median B':>11s} {'spread A':>8s} {'spread B':>8s} {'B worse':>8s} {'bound':>6s}")
    for r in rows:
        print(f"{r['workload']:10s} {r['metric']:14s} {r['A'][1]:11.4g} "
              f"{r['A'][0]:11.4g}..{r['A'][2]:<10.4g} {r['B'][1]:11.4g} "
              f"{r['spread_A']:8.3f} {r['spread_B']:8.3f} {r['worse_B_vs_A']:8.3f} "
              f"{r['bound']:6.2f}{'' if r['spread_ok'] and r['median_ok'] else '  FAIL'}"
              f"{'  (spread not checked)' if r['metric'] == 'setup_s' else ''}")
    print("agree" if ok else "DISAGREE")
    os.makedirs(os.path.join(ROOT, "bench", "out"), exist_ok=True)
    with open(os.path.join(ROOT, "bench", "out", "steady.json"), "w") as fh:
        json.dump({"runs": args.runs, "seconds": spec["run_seconds"], "agree": ok, "rows": rows,
                   "results": results}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
