#!/usr/bin/env python3
"""A/A check: two sets of runs of the same code, alternating, compared per metric.

For each run index ``i`` and each workload, set A and set B each run
``run.py --seed <base+i>`` once, in alternating order (A first on even
``i``, B first on odd), so machine drift hits both sets alike.  Then it
prints, per workload and end-to-end metric, each set's median and
quartiles, its spread (quartile distance over median), and whether the
sets agree: for every metric, ``setup_s`` included, both spreads and the
distance between the two medians (in either direction, over set A's
median) stay within the metric's bound in ``BENCHMARK.json``.
``--trace`` adds one traced run per workload and reports the tracing
overhead: traced ``total_s`` minus the untraced median.

Run from the root of a checkout::

    python3 perfbench/aa.py --runs 10 --trace
    python3 perfbench/aa.py --runs 5 --workload sim-sharded
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    record = next(
        (json.loads(line[len("# record "):]) for line in lines if line.startswith("# record ")),
        {},
    )
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()}, "record": record}


def summary(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or names
    sets = ["A", "B"]
    runs: Dict[str, Dict[str, List[dict]]] = {s: {w: [] for w in workloads} for s in sets}

    for i in range(args.runs):
        order = sets if i % 2 == 0 else sets[::-1]
        for w in workloads:
            for s in order:
                out = run_once(w, args.seed_base + i, bench["run_seconds"], 0)
                runs[s][w].append(out)
                calib = out["record"].get("host.calib_s")
                print(f"# run {i} set {s} {w}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in out["metrics"].items())
                      + f" calib={calib}", flush=True)

    ok = True
    print(f"{'workload':<12} {'metric':<12} {'set':<3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6} {'drift':>7} agree")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sums = {s: summary([r["metrics"][name] for r in runs[s][w]]) for s in sets}
            a, b = sums["A"]["median"], sums["B"]["median"]
            drift = (b - a) / a if a else 0.0
            agree = abs(drift) <= bound and all(sums[s]["spread"] <= bound for s in sets)
            ok &= agree
            for s in sets:
                d = f"{drift:+.3f}" if s == "B" else ""
                print(f"{w:<12} {name:<12} {s:<3} {sums[s]['median']:>12.5g} "
                      f"{sums[s]['q1']:>12.5g} {sums[s]['q3']:>12.5g} "
                      f"{sums[s]['spread']:>7.3f} {bound:>6} {d:>7} "
                      f"{'yes' if agree else 'NO'}")
    if args.trace:
        for w in workloads:
            traced = run_once(w, args.seed_base, bench["run_seconds"], 1)
            untraced = statistics.median(r["metrics"]["total_s"] for r in runs["A"][w])
            over = traced["metrics"]["trace.total_s"] - untraced
            print(f"trace {w}: traced total_s {traced['metrics']['trace.total_s']:.3f} "
                  f"- untraced median {untraced:.3f} = overhead {over:+.3f} s")
    print("A/A: all metrics agree" if ok else "A/A: some metrics DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
