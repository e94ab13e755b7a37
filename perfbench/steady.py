#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload fastpath --seeds 1-10 --seconds 25 [--trace 1]

For every metric it prints the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them), the spread (Q3-Q1)/median
and, for the end-to-end metrics, a third of the bound BENCHMARK.json
fixes. Runs that fail, or report correct=false, are listed and counted.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values, bad = {}, []
    for seed in seeds_of(a.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", a.seconds, "--trace", a.trace]
        t0 = time.time()
        p = subprocess.run(cmd, capture_output=True, text=True)
        took = time.time() - t0
        lines = p.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            bad.append((seed, "exit %d: %s" % (p.returncode, p.stderr.strip()[-300:])))
            continue
        if p.returncode != 0 or not res["correct"] or res["failed"]:
            bad.append((seed, "exit %d correct=%s failed=%d/%d %s" % (
                p.returncode, res["correct"], res["failed"], res["attempted"],
                [l for l in lines if l.startswith("CHECK FAILED")][:3])))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done in %.1f s" % (seed, took), file=sys.stderr)
    for name in sorted(values):
        xs = values[name]
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        lim = " (bound/3 %.3f%s)" % (bounds[name] / 3, " OVER" if spread > bounds[name] / 3 else "") \
            if name in bounds else ""
        print("%-32s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.3f%s" % (name, med, q1, q3, spread, lim))
    for seed, why in bad:
        print("seed %d BAD: %s" % (seed, why))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
