"""Per-layer tracing from the benchmark's side of the module boundary.

The tracer wraps the public functions of each uavsearch module at the
names their callers look them up by, records a span (name, start, end,
parent) per call in memory, and counts work at the same boundaries. A
layer's time is its self time: the span's duration minus what its
wrapped child spans cover. Spans of one round share the round number.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from uavsearch import cli, exports, hedac, mission, scenario, terrain, tiling

# Every per-layer metric, in the order it is reported.
TIME_METRICS = (
    "scenario.load_ms", "terrain.load_ms", "terrain.los_ms", "domain.build_ms",
    "sensing.footprint_ms", "hedac.solve_ms", "hedac.accumulate_ms", "hedac.steer_ms",
    "control.plan_ms", "control.kinematic_ms", "mission.prepare_ms",
    "mission.targets_ms", "mission.tracker_ms", "mission.loop_self_ms",
    "exports.write_ms", "cli.parse_ms", "tiling.plan_ms", "tiling.remap_ms",
    "tiling.match_ms",
)
COUNT_METRICS = (
    "terrain.los_calls", "terrain.los_samples", "sensing.block_cells",
    "sensing.seen_cells", "hedac.solve_iters", "control.plan_calls",
    "mission.prepare_calls", "exports.bytes", "tiling.labels_in",
    "tiling.labels_kept", "tiling.iou_pairs",
)


def _los_samples(counts, args, kwargs, result):
    grid, p_from, p_to = args[:3]
    step = kwargs.get("step", args[3] if len(args) > 3 else None) or 0.5 * grid.cell_size
    n = max(1, math.ceil(math.dist(p_from, p_to) / step))
    counts["terrain.los_calls"] += 1
    counts["terrain.los_samples"] += n - 1 if n > 1 else 0


def _footprint_cells(counts, args, kwargs, result):
    rates = result[2]
    counts["sensing.block_cells"] += rates.size
    counts["sensing.seen_cells"] += int(np.count_nonzero(rates > 0))


def _remap_labels(counts, args, kwargs, result):
    counts["tiling.labels_in"] += len(args[0])
    counts["tiling.labels_kept"] += len(result)


def _calls(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1
    return count


# (owner, attribute, span name, counter). Functions are wrapped where
# their callers resolve them: run_flight and run_mission look up their
# helpers in mission's namespace, sensing calls terrain.line_of_sight
# through the module, minres is looked up in hedac's namespace.
WRAPPED = (
    (scenario, "load_scenario", "scenario.load_ms", None),
    (scenario, "load_terrain", "terrain.load_ms", None),
    (terrain, "line_of_sight", "terrain.los_ms", _los_samples),
    (mission, "build_flight_domain", "domain.build_ms", None),
    (mission, "build_initial_density", "domain.build_ms", None),
    (hedac, "detection_rate_footprint", "sensing.footprint_ms", _footprint_cells),
    (hedac.PotentialSolver, "solve", "hedac.solve_ms", None),
    (mission, "accumulate_coverage", "hedac.accumulate_ms", None),
    (mission, "steering_gradient", "hedac.steer_ms", None),
    (mission, "mpc_plan", "control.plan_ms", _calls("control.plan_calls")),
    (mission, "kinematic_step", "control.kinematic_ms", None),
    (mission, "ramp_toward", "control.kinematic_ms", None),
    (mission, "turn_rate_toward", "control.kinematic_ms", None),
    (mission, "prepare_environment", "mission.prepare_ms", _calls("mission.prepare_calls")),
    (mission.TargetTracker, "__init__", "mission.targets_ms", None),
    (mission.TargetTracker, "__call__", "mission.tracker_ms", None),
    (mission, "run_flight", "mission.loop_self_ms", None),
    (exports, "export_mission", "exports.write_ms", None),
    (exports, "export_validation", "exports.write_ms", None),
    (cli, "read_labels", "cli.parse_ms", None),
    (cli, "read_detections", "cli.parse_ms", None),
    (tiling, "plan_tiles", "tiling.plan_ms", None),
    (tiling, "remap_labels", "tiling.remap_ms", _remap_labels),
    (tiling, "match_detections", "tiling.match_ms", None),
)


class Tracer:
    """Keeps spans and counts in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple] = []   # (round, name, start, end, parent index)
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.round = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, original, name, count):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (tracer.round, name, start, end, parent)
            counts = tracer.counts[tracer.round]
            if count is not None:
                count(counts, args, kwargs, result)
            if name == "exports.write_ms" and parent == -1:
                counts["exports.bytes"] += sum(Path(p).stat().st_size for p in set(result))
            return result

        return wrapper

    def _counted(self, original, name):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.counts[tracer.round][name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _solver(self, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts = tracer.counts[tracer.round]

            def callback(xk):
                counts["hedac.solve_iters"] += 1

            return original(*args, callback=callback, **kwargs)

        return wrapper

    def __enter__(self):
        for owner, attr, name, count in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))
        for owner, attr, wrap in ((hedac, "minres", self._solver),
                                  (tiling, "iou", lambda f: self._counted(f, "tiling.iou_pairs"))):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def round_metrics(self) -> dict[int, dict[str, float]]:
        """Per round: self time of every layer in ms and every count."""
        child = defaultdict(float)
        for rnd, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(
            lambda: dict.fromkeys(TIME_METRICS + COUNT_METRICS, 0.0))
        for index, (rnd, name, start, end, parent) in enumerate(self.spans):
            out[rnd][name] += (end - start - child[index]) * 1e3
        for rnd, counts in self.counts.items():
            for name, value in counts.items():
                out[rnd][name] += value
        return dict(out)

    def summary(self) -> dict[str, float]:
        """Median over traced rounds of each per-layer metric."""
        rounds = list(self.round_metrics().values())
        summary = {name: statistics.median(r[name] for r in rounds)
                   for name in TIME_METRICS + COUNT_METRICS}
        block = summary["sensing.block_cells"]
        summary["sensing.block_use"] = summary["sensing.seen_cells"] / block if block else 0.0
        return summary

    def write_spans(self, path: Path) -> None:
        lines = ["round,name,start_ms,end_ms,parent"]
        t0 = self.spans[0][2] if self.spans else 0.0
        lines += [f"{r},{n},{(s - t0) * 1e3:.4f},{(e - t0) * 1e3:.4f},{p}"
                  for r, n, s, e, p in self.spans]
        path.write_text("\n".join(lines) + "\n")
