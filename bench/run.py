"""uavsearch benchmark: one workload, repeated whole rounds, checked outputs.

    python3 bench/run.py --workload mission1-simulate --seed 1 --seconds 20 --trace 0

Runs rounds of the workload until --seconds have passed (at least one
round; two in a traced run), checks every round's outputs, and prints
one JSON line last: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1
rounds alternate untraced and traced, and the metrics are the per-layer
self times and counts of the traced rounds plus trace.overhead. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The benchmark measures the uavsearch sources of the checkout it sits in,
# never an installed copy.
if not (ROOT / "src" / "uavsearch" / "__init__.py").is_file():
    sys.exit(f"bench: no uavsearch sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import TIME_METRICS, Tracer  # noqa: E402

WORKLOADS = ("mission1-simulate", "mission3-validate", "tiling-recall")
OUT = ROOT / ".bench_out"


def _end_to_end(rounds, rss_growth_mb) -> dict:
    """Step times pooled over the run's rounds; set-up, throughput and CPU
    time as the median over rounds."""
    steps_ms, throughput = [], []
    for r in rounds:
        gaps = [(b - a) * 1e3 for a, b in zip(r.stamps, r.stamps[1:])]
        steps_ms += gaps
        throughput.append(len(gaps) / (r.stamps[-1] - r.stamps[0]))
    return {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "steps_per_s": (statistics.median(throughput), "1/s"),
        "step_ms.p50": (statistics.median(steps_ms), "ms"),
        "step_ms.p90": (statistics.quantiles(steps_ms, n=10, method="inclusive")[8], "ms"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "peak_rss_growth_mb": (rss_growth_mb, "MB"),
    }


def _per_layer(tracer, traced_walls, plain_walls) -> dict:
    summary = tracer.summary()
    metrics = {name: (value, "ms" if name in TIME_METRICS else "count")
               for name, value in summary.items()}
    metrics["exports.bytes"] = (summary["exports.bytes"], "B")
    metrics["sensing.block_use"] = (summary["sensing.block_use"], "ratio")
    metrics["trace.overhead"] = (statistics.median(traced_walls)
                                 / statistics.median(plain_walls), "ratio")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    corpus = None
    if workload == "tiling-recall":
        corpus = workloads.make_corpus(seed, out / "corpus")
        one_round = lambda: workloads.tiling_round(out / "corpus")
    elif workload == "mission1-simulate":
        one_round = lambda: workloads.simulate_round(out / "artifacts")
    else:
        one_round = lambda: workloads.validate_round(out / "artifacts")

    tracer = Tracer()
    rounds, traced_walls, plain_walls, problems = [], [], [], []
    first_artifacts = None
    # The program's own memory: how far its first round lifts the peak
    # resident set above what the interpreter, the imports and the
    # benchmark's inputs already hold. One round only, so that the figure
    # does not depend on how many rounds fit in the run.
    rss_before = workloads.peak_rss_mb()
    rss_growth_mb = None
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or len(rounds) < (2 if trace else 1)):
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.round = len(rounds)
            with tracer:
                rnd = one_round()
            traced_walls.append(rnd.wall_s)
        else:
            rnd = one_round()
            plain_walls.append(rnd.wall_s)
        rounds.append(rnd)
        if rss_growth_mb is None:
            rss_growth_mb = workloads.peak_rss_mb() - rss_before
        if rnd.error is not None:
            problems.append(f"round {len(rounds)}: {rnd.error}")
        if not rnd.outputs:
            continue
        found = checks.round_problems(workload, rnd.outputs, corpus)
        artifacts = rnd.outputs.pop("artifacts")
        if first_artifacts is None:
            first_artifacts = artifacts
        found += checks.rerun_problems(first_artifacts, artifacts)
        problems += [f"round {len(rounds)}: {p}" for p in found]
        rnd.outputs.clear()

    if trace:
        tracer.write_spans(out / "spans.csv")
        metrics = _per_layer(tracer, traced_walls, plain_walls)
    else:
        metrics = _end_to_end([r for r in rounds if len(r.stamps) > 1], rss_growth_mb)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    return {
        "correct": not problems and first_artifacts is not None,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
