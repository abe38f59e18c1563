"""Steadiness mode: two alternating sets of benchmark runs per workload.

    python3 bench/steadiness.py --runs 10 --seconds 20

Each pass runs every workload once for set A and once for set B, the set
that goes first alternating between passes, each run with its own seed.
For every end-to-end metric it prints, per workload and set, the median,
the quartiles and the spread (interquartile distance over the median),
then how far set B's median lies from set A's, against the metric's
bound in BENCHMARK.json. It also prints the share of failed operations
per set. Results are written to .bench_out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    seed = 1000
    for i in range(args.runs):
        for label in ("AB" if i % 2 == 0 else "BA"):
            for workload in workloads:
                seed += 1
                results[workload][label].append(run_once(workload, seed, args.seconds))
                print(f"pass {i + 1}/{args.runs} set {label} {workload} seed {seed}",
                      file=sys.stderr, flush=True)

    report = {}
    for workload, sets in results.items():
        print(f"\n{workload}")
        report[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = {}
            for label, runs in sets.items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                row[label] = {"median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "values": values}
            line = "  ".join(f"{label}: {s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
                             f"spread {s['spread']:.3f}" for label, s in row.items())
            a, b = row["A"]["median"], row["B"]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            row["b_worse_than_a"] = worse
            line += f"  B worse by {worse:+.3f}"
            print(f"  {name:12s} bound {bound:.2f}  {line}")
            report[workload][name] = row
        for label, runs in sets.items():
            share = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            report[workload][f"failed_share_{label}"] = share
            print(f"  failed share {label}: {share:g}  "
                  f"correct: {all(r['correct'] for r in runs)}")
    out = ROOT / ".bench_out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
