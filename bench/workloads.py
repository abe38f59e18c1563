"""The benchmark's three workloads, each run as repeated whole rounds.

A round drives the same public calls as one command-line invocation:

* mission1-simulate: load_scenario -> run_mission -> export_mission
  (the ``simulate`` command), on mission1 with its three chained
  flights shortened;
* mission3-validate: load_scenario -> monte_carlo_validate ->
  export_validation (the ``validate`` command), on a shortened mission3;
* tiling-recall: read_labels/read_detections over a seeded corpus, then
  per frame plan_tiles, remap_labels into every tile and
  match_detections, and recall_per_bin over the corpus (the ``tile`` and
  ``recall`` commands).

Every round records step-boundary timestamps only; layer timing is the
tracer's job. All calls go through module attributes so that the tracer
can wrap them.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from uavsearch import cli, exports, mission, scenario, tiling
from uavsearch.errors import UavSearchError
from uavsearch.sensing import CAMERA_PRESETS

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

# Shortened only through the scenario's own dotted overrides. mission1
# keeps all three chained flights (X5S at 55 m, X5S at 75 m, Z30 at 75 m)
# so flight chaining and the camera switch stay in every round.
MISSION1_FLIGHT_S = (40, 40, 40)
MISSION3_FLIGHT_S = (150,)
VALIDATE_TARGETS = 2000

# Tiling corpus: frames at the three camera image sizes, one box per
# cell of a BOX_GRID so that no two ground-truth boxes overlap. Z30
# frames (15 tiles) are the fast ones and X5S frames (91 tiles) the slow
# ones; MavicBuiltin frames (80 tiles) fill the middle half, so the
# median frame time falls inside one camera's frames, not between two.
FRAMES = (("X5S", 30), ("Z30", 30), ("MavicBuiltin", 60))
BOX_GRID = (6, 4)
FALSE_POSITIVES = 3
TILE, OVERLAP, MIN_VISIBLE = 512, 100, 0.3
IOU, CONFIDENCE, BIN_WIDTH = 0.7, 0.5, 0.5


@dataclass
class Round:
    """What one round produced: timings, the program's outputs and the
    operations it attempted."""

    start: float
    stamps: list = field(default_factory=list)
    end: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    error: str | None = None
    outputs: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return self.stamps[0] - self.start

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@contextmanager
def _stamping(stamps: list):
    """Chain a step-boundary timestamp into the observer of every
    mission.run_mission call. monte_carlo_validate looks run_mission up
    in mission's namespace too, so both missions are stamped here."""
    original = mission.run_mission

    def stamped(config, observer=None):
        def observe(t, field_state):
            stamps.append(time.perf_counter())
            if observer is not None:
                observer(t, field_state)

        return original(config, observer=observe)

    mission.run_mission = stamped
    try:
        yield
    finally:
        mission.run_mission = original


def _hash_files(paths) -> dict[str, str]:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in sorted(set(paths)) if Path(p).name != exports.TIMING_FILE}


def _finish(rnd: Round, cpu0: float) -> Round:
    rnd.end = time.perf_counter()
    rnd.cpu_s = time.process_time() - cpu0
    return rnd


def _mission_round(out_dir: Path, name: str, flight_s, simulate, export: str) -> Round:
    """load_scenario -> simulate(config) -> exports.<export>, as one round."""
    cpu0 = time.process_time()
    rnd = Round(start=time.perf_counter(), attempted=sum(flight_s))
    try:
        config = scenario.load_scenario(SCENARIOS / f"{name}.json",
                                        overrides=[f"flights.{i}.duration_s={s}"
                                                   for i, s in enumerate(flight_s)])
        with _stamping(rnd.stamps):
            report = simulate(config)
        written = getattr(exports, export)(report, out_dir)
        exports.write_timing(out_dir, time.perf_counter() - rnd.start)
    except UavSearchError as exc:
        rnd.failed = rnd.attempted - len(rnd.stamps)
        rnd.error = f"{type(exc).__name__}: {exc}"
        return _finish(rnd, cpu0)
    _finish(rnd, cpu0)
    rnd.outputs = {"config": config, "report": report,
                   "artifacts": _hash_files(written)}
    return rnd


def simulate_round(out_dir: Path, flight_s=MISSION1_FLIGHT_S) -> Round:
    """mission1 through run_mission and export_mission."""
    def simulate(config):
        return mission.run_mission(config)

    return _mission_round(out_dir, "mission1", flight_s, simulate, "export_mission")


def validate_round(out_dir: Path, flight_s=MISSION3_FLIGHT_S,
                   targets=VALIDATE_TARGETS) -> Round:
    """mission3 through monte_carlo_validate and export_validation.

    The target seed is the scenario's own pinned monte_carlo.seed, as in
    ``uavsearch validate``: the three-sigma band is pointwise, and on this
    150 s slice 17 of 200 fresh target seeds leave it somewhere with
    correct code, so a seed-drawn target set would fail runs by chance.
    """
    def simulate(config):
        return mission.monte_carlo_validate(config, targets=targets)

    return _mission_round(out_dir, "mission3", flight_s, simulate, "export_validation")


# --- tiling corpus ---------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.9f}"


def make_corpus(seed: int, out_dir: Path, mix=FRAMES) -> dict:
    """Write a seeded frame corpus and return what was planted in it.

    Each frame gets one ground-truth box per cell of BOX_GRID, kept at
    least one box size away from the cell edges, so boxes never overlap
    and a detection built from one box cannot reach another. Each box
    is planted as a hit (a jittered detection with IoU above 0.8 and
    confidence >= 0.55) or as one kind of miss: no detection, a
    confident detection shifted to IoU below 0.5, the exact box at
    confidence below 0.45, or the exact box under another category.
    False positives sit on interior cell corners. Hit probability falls
    with the frame's GSD. Every frame has the same number of boxes, so
    its tiling work depends only on its image size.
    """
    rng = random.Random(seed)
    truth_dir, det_dir = out_dir / "truth", out_dir / "detections"
    truth_dir.mkdir(parents=True, exist_ok=True)
    det_dir.mkdir(parents=True, exist_ok=True)
    frames, planted_bins = [], {}
    index_lines = ["image_id,gsd,camera"]
    gx, gy = BOX_GRID
    for camera, count in mix:
        width, height = CAMERA_PRESETS[camera].x_image, CAMERA_PRESETS[camera].y_image
        for k in range(count):
            image_id = f"{camera}_{k:04d}"
            gsd_value = rng.uniform(0.5, 6.5)
            p_hit = 0.95 - 0.1 * gsd_value
            cw, ch = width / gx, height / gy
            truths, dets, hits = [], [], 0
            for i in range(gx):
                for j in range(gy):
                    w = rng.uniform(20.0, min(120.0, cw / 3))
                    h = rng.uniform(20.0, min(120.0, ch / 3))
                    x = rng.uniform(i * cw + w, (i + 1) * cw - w)
                    y = rng.uniform(j * ch + h, (j + 1) * ch - h)
                    truths.append((0, x / width, y / height, w / width, h / height))
                    if rng.random() < p_hit:
                        hits += 1
                        dx, dy = rng.uniform(-0.02, 0.02) * w, rng.uniform(-0.02, 0.02) * h
                        sw, sh = rng.uniform(0.98, 1.02), rng.uniform(0.98, 1.02)
                        dets.append((0, (x + dx) / width, (y + dy) / height,
                                     w * sw / width, h * sh / height,
                                     rng.uniform(0.55, 1.0)))
                        continue
                    kind = rng.randrange(4)
                    if kind == 1:
                        dets.append((0, (x + 0.45 * w) / width, y / height,
                                     w / width, h / height, rng.uniform(0.55, 1.0)))
                    elif kind == 2:
                        dets.append((0, x / width, y / height, w / width,
                                     h / height, rng.uniform(0.05, 0.45)))
                    elif kind == 3:
                        dets.append((1, x / width, y / height, w / width,
                                     h / height, rng.uniform(0.55, 1.0)))
            for n in range(FALSE_POSITIVES):
                i, j = 1 + n % (gx - 1), 1 + n % (gy - 1)
                dets.append((0, i * cw / width, j * ch / height, 24.0 / width,
                             24.0 / height, rng.uniform(0.55, 1.0)))
            (truth_dir / f"{image_id}.txt").write_text(
                "".join(" ".join([str(t[0])] + [_fmt(v) for v in t[1:]]) + "\n"
                        for t in truths))
            (det_dir / f"{image_id}.txt").write_text(
                "".join(" ".join([str(d[0])] + [_fmt(v) for v in d[1:]]) + "\n"
                        for d in dets))
            index_lines.append(f"{image_id},{gsd_value!r},{camera}")
            frames.append({"image_id": image_id, "width": width, "height": height,
                           "hits": hits})
            b = math.floor(gsd_value / BIN_WIDTH)
            total, detected = planted_bins.get(b, (0, 0))
            planted_bins[b] = (total + len(truths), detected + hits)
    (out_dir / "images.csv").write_text("\n".join(index_lines) + "\n")
    return {"frames": frames, "bins": planted_bins}


def tiling_round(corpus_dir: Path) -> Round:
    """Parse the corpus, take each frame through tiling and matching,
    then score recall per GSD bin over the whole corpus."""
    cpu0 = time.process_time()
    rnd = Round(start=time.perf_counter())
    images, sizes, truths, dets = [], {}, {}, {}
    for line in (corpus_dir / "images.csv").read_text().splitlines()[1:]:
        image_id, gsd_text, camera = line.split(",")
        images.append(tiling.ImageMeta(image_id=image_id, gsd=float(gsd_text)))
        sizes[image_id] = (CAMERA_PRESETS[camera].x_image, CAMERA_PRESETS[camera].y_image)
        truths[image_id] = cli.read_labels(corpus_dir / "truth" / f"{image_id}.txt")
        dets[image_id] = cli.read_detections(corpus_dir / "detections" / f"{image_id}.txt")
    rnd.attempted = len(images)
    frames = []
    for meta in images:
        rnd.stamps.append(time.perf_counter())
        width, height = sizes[meta.image_id]
        try:
            plan = tiling.plan_tiles(width, height, TILE, TILE, OVERLAP)
            kept = [tiling.remap_labels(truths[meta.image_id], tile, width, height,
                                        MIN_VISIBLE) for tile in plan.tiles]
            matched = tiling.match_detections(truths[meta.image_id],
                                              dets[meta.image_id], IOU, CONFIDENCE)
        except UavSearchError as exc:
            rnd.failed += 1
            rnd.error = f"{meta.image_id}: {type(exc).__name__}: {exc}"
            continue
        frames.append({"image_id": meta.image_id, "width": width, "height": height,
                       "plan": plan, "kept": kept, "matched": matched})
    rnd.stamps.append(time.perf_counter())
    try:
        bins = tiling.recall_per_bin(images, truths, dets, IOU, CONFIDENCE, BIN_WIDTH)
    except UavSearchError as exc:
        rnd.error = f"recall_per_bin: {type(exc).__name__}: {exc}"
        return _finish(rnd, cpu0)
    _finish(rnd, cpu0)
    digest = hashlib.sha256(repr((
        [(f["image_id"], f["plan"], f["kept"], f["matched"]) for f in frames],
        bins)).encode()).hexdigest()
    rnd.outputs = {"frames": frames, "truths": truths, "bins": bins,
                   "artifacts": {"tiling": digest}}
    return rnd


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
