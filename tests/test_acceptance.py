"""End-to-end checklist over the shipped scenarios and fixed points.

Each test covers one release criterion and prints a single
"ACCEPTANCE <nn> <name>: PASS/FAIL" line, so a full run reads as a
checklist. Numbered tests run in order; the multi-seed Monte Carlo
sweep is opt-in through the "extended" marker because it re-simulates
the largest mission.
"""

import itertools
import random
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from uavsearch import (CAMERA_PRESETS, UAV_PRESETS, CameraPose, DensityGrid,
                       FieldState, GridSpec, HedacParams, PotentialSolver,
                       SensingParams, TargetTracker, TerrainGrid, accumulate_coverage,
                       binomial_band, default_recall_table, detection_rate,
                       elevation_at, gsd, plan_tiles, recall_lookup,
                       recall_per_bin, remap_labels, run_mission)
from uavsearch.cli import main as cli_main
from uavsearch.tiling import BoxLabel, Detection, ImageMeta

NO_FLY_FLOOR = 35.0

# recall per 0.5 cm/px ground-sampling-distance bin, [0.5, 6.5), as
# packaged in data/recall_default.txt
EXPECTED_RECALLS = (0.95, 0.977, 0.956, 0.953, 0.897, 0.881,
                    0.781, 0.796, 0.719, 0.699, 0.621, 0.142)


@pytest.fixture
def checklist(capsys):
    def emit(number: str, name: str, failures: list):
        verdict = "PASS" if not failures else "FAIL"
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} {name}: {verdict}")
        assert not failures, f"{name}: " + "; ".join(failures)

    return emit


def test_01_potential_solver_second_order(checklist):
    # manufactured solution with a zero normal derivative on every edge;
    # halving the cell size should cut the L2 error about fourfold
    started = time.perf_counter()
    side = 320.0
    diffusion, damping = 900.0, 1.0
    errors = []
    for n in (32, 64, 128):
        grid = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=side / n,
                        ncols=n, nrows=n)
        X, Y = np.meshgrid(grid.x_centers, grid.y_centers)
        exact = np.cos(np.pi * X / side) * np.cos(np.pi * Y / side)
        source = (damping + diffusion * 2.0 * (np.pi / side) ** 2) * exact
        solver = PotentialSolver(grid, HedacParams(diffusion=diffusion, damping=damping))
        solved = solver.solve(source)
        errors.append(float(np.sqrt(np.mean((solved - exact) ** 2))))
    runtime = time.perf_counter() - started

    failures = []
    for coarse, fine in zip(errors, errors[1:]):
        ratio = coarse / fine
        if not 3.0 <= ratio <= 5.0:
            failures.append(f"error ratio per refinement {ratio:.4f} outside [3, 5]")
    if runtime >= 10.0:
        failures.append(f"convergence study took {runtime:.1f} s (limit 10 s)")
    checklist("01", "potential-solver-second-order", failures)


def test_02_sensing_fixed_points(checklist):
    failures = []
    along, across = gsd(CAMERA_PRESETS["X5S"], 55.0)
    for label, value in (("long side", along), ("short side", across)):
        if abs(value - 1.319) > 0.001:
            failures.append(f"X5S at 55 m: {label} gsd {value:.4f} cm/px, "
                            f"expected 1.319 +- 0.001")
    table = default_recall_table()
    if len(table.bins) != 12:
        failures.append(f"default recall table has {len(table.bins)} bins, expected 12")
    for k, (low, high, value) in enumerate(table.bins):
        expected_low = 0.5 + 0.5 * k
        if abs(low - expected_low) > 1e-12 or abs(high - expected_low - 0.5) > 1e-12:
            failures.append(f"bin {k} spans [{low}, {high}), "
                            f"expected [{expected_low}, {expected_low + 0.5})")
        if value != EXPECTED_RECALLS[k]:
            failures.append(f"bin {k} recall {value}, expected {EXPECTED_RECALLS[k]}")
        if recall_lookup(table, (low + high) / 2.0) != EXPECTED_RECALLS[k]:
            failures.append(f"lookup at bin {k} midpoint disagrees with the table")
    checklist("02", "sensing-fixed-points", failures)


def _flat_world(extent=200.0, cell=10.0):
    n = int(extent / cell)
    terrain = TerrainGrid(ncols=n + 4, nrows=n + 4, xllcorner=-2 * cell,
                          yllcorner=-2 * cell, cell_size=cell, nodata=-9999.0,
                          elevations=np.zeros((n + 4, n + 4)))
    grid = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=cell, ncols=n, nrows=n)
    values = np.full(grid.shape, 1.0 / (extent * extent))
    return terrain, DensityGrid(grid=grid, values=values)


def test_03_decay_law_and_monotone_accomplishment(
        checklist, mission1_run, mission2_run, mission3_run):
    failures = []

    # a steady hover: the undetected share under the camera must follow
    # exp(-rate * t) to near machine accuracy
    terrain, density = _flat_world()
    field = FieldState.from_density(density)
    camera = CAMERA_PRESETS["X5S"]
    table = default_recall_table()
    params = SensingParams()
    row, col = 10, 10
    cx = density.grid.x_centers[col]
    cy = density.grid.y_centers[row]
    pose = CameraPose(x=cx, y=cy, z=55.0, yaw=0.3)
    rate = detection_rate(pose, (cx, cy), camera, terrain, table, params)
    initial = density.values[row, col]
    probes = {}
    for tick in range(1, 101):
        accumulate_coverage(field, pose, camera, terrain, table, params, dt=1.0)
        if tick in (1, 10, 100):
            probes[tick] = field.undetected[row, col] / initial
    for t, measured in probes.items():
        expected = np.exp(-rate * t)
        rel = abs(measured - expected) / expected
        if rel > 1e-9:
            failures.append(f"hover decay at t={t}: relative error {rel:.2e}")

    # accomplishment must never decrease, over every logged sample of
    # every shipped scenario
    samples = 0
    for config, report, _ in (mission1_run, mission2_run, mission3_run):
        if np.any(np.diff(report.eta) < 0):
            failures.append(f"{report.mission_id}: accomplishment curve decreases")
        samples += report.eta.size
        logged = np.concatenate(
            [log.as_arrays()["accomplishment"] for log in report.logs])
        if np.any(np.diff(logged) < 0):
            failures.append(f"{report.mission_id}: logged accomplishment decreases")
        samples += logged.size
    if samples < 10_000:
        failures.append(f"only {samples} logged samples, need >= 10000")
    checklist("03", "decay-law-and-monotone-accomplishment", failures)


def _recheck_log(config, log, failures, mission_id):
    arrays = log.as_arrays()
    limits = UAV_PRESETS[log.uav]
    tag = f"{mission_id} flight {log.flight_index}"
    clearance = arrays["z"] - elevation_at(config.terrain, arrays["x"], arrays["y"])
    worst = float(clearance.min())
    if worst < NO_FLY_FLOOR - 1e-6:
        failures.append(f"{tag}: clearance dropped to {worst:.3f} m")
    if arrays["v_h"].min() < limits.v_h_min - 1e-9 \
            or arrays["v_h"].max() > limits.v_h_max + 1e-9:
        failures.append(f"{tag}: horizontal speed outside "
                        f"[{limits.v_h_min}, {limits.v_h_max}]")
    if arrays["v_z"].min() < limits.v_z_min - 1e-9 \
            or arrays["v_z"].max() > limits.v_z_max + 1e-9:
        failures.append(f"{tag}: vertical speed outside "
                        f"[{limits.v_z_min}, {limits.v_z_max}]")
    dt = np.diff(arrays["t"])
    ah = np.diff(arrays["v_h"]) / dt
    av = np.diff(arrays["v_z"]) / dt
    if ah.min() < limits.a_h_min - 1e-6 or ah.max() > limits.a_h_max + 1e-6:
        failures.append(f"{tag}: horizontal acceleration outside "
                        f"[{limits.a_h_min}, {limits.a_h_max}]")
    if av.min() < limits.a_v_min - 1e-6 or av.max() > limits.a_v_max + 1e-6:
        failures.append(f"{tag}: vertical acceleration outside "
                        f"[{limits.a_v_min}, {limits.a_v_max}]")


def test_04_constraints_and_runtime(checklist, mission1_run, mission2_run,
                                    mission3_run):
    failures = []
    for config, report, runtime in (mission1_run, mission2_run, mission3_run):
        for key, count in report.violations.items():
            if count != 0:
                failures.append(f"{report.mission_id}: {count} {key} violations")
        for log in report.logs:
            _recheck_log(config, log, failures, report.mission_id)
        if runtime >= 120.0:
            failures.append(f"{report.mission_id}: simulated in {runtime:.1f} s "
                            f"(limit 120 s)")
    checklist("04", "flight-constraints-and-runtime", failures)


def test_05_monte_carlo_band(checklist, mission1_validation):
    report, runtime = mission1_validation
    failures = []
    if report.target_count != 2000:
        failures.append(f"{report.target_count} targets, expected 2000")
    if report.seed != 310:
        failures.append(f"seed {report.seed}, expected the pinned 310")
    if report.times.size != report.mission.times.size:
        failures.append("validation curve not sampled at every mission second")
    low, high = binomial_band(report.predicted, report.target_count)
    inside = np.all((report.empirical >= low - 1e-12)
                    & (report.empirical <= high + 1e-12))
    if not inside or not report.within_band:
        worst = float(np.max(np.maximum(low - report.empirical,
                                        report.empirical - high)))
        failures.append(f"empirical curve leaves the three-sigma band "
                        f"(worst excess {worst:.2e})")
    if runtime >= 300.0:
        failures.append(f"validation took {runtime:.0f} s (limit 300 s)")
    checklist("05", "monte-carlo-three-sigma-band", failures)


def test_06_detection_times_exponential(checklist):
    # constant detection rate on one cell: detection times must follow
    # an exponential distribution with that rate
    terrain, _ = _flat_world()
    grid = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=10.0, ncols=1, nrows=1)
    density = DensityGrid(grid=grid, values=np.full((1, 1), 1.0 / grid.cell_area))
    camera = CAMERA_PRESETS["X5S"]
    table = default_recall_table()
    pose = CameraPose(x=grid.x_centers[0], y=grid.y_centers[0], z=55.0, yaw=0.0)
    rate = detection_rate(pose, (pose.x, pose.y), camera, terrain, table,
                          SensingParams())

    tracker = TargetTracker(density, count=2000, seed=42)
    field = FieldState.from_density(density)
    for tick in range(1, 401):
        field.coverage[0, 0] += rate
        tracker(float(tick), field)

    failures = []
    times = tracker.detect_times
    undetected = int(np.isnan(times).sum())
    if undetected:
        failures.append(f"{undetected} of 2000 targets still undetected "
                        f"after 400 s at rate {rate:.4f}")
    else:
        result = stats.kstest(times, "expon", args=(0.0, 1.0 / rate))
        if result.pvalue < 0.01:
            failures.append(f"KS test p={result.pvalue:.4f} below the 1% level")
    checklist("06", "exponential-detection-times", failures)


def test_07_tiling_plan(checklist):
    failures = []
    plan = plan_tiles(5280, 2970, 512, 512, 100)
    if len(plan) != 91 or plan.n_cols != 13 or plan.n_rows != 7:
        failures.append(f"plan is {plan.n_cols} x {plan.n_rows} "
                        f"({len(plan)} tiles), expected 13 x 7 (91)")
    xs = sorted({t.x0 for t in plan.tiles})
    ys = sorted({t.y0 for t in plan.tiles})
    for label, offsets, extent in (("x", xs, 5280), ("y", ys, 2970)):
        for a, b in zip(offsets, offsets[1:]):
            if a + 512 - b < 100:
                failures.append(f"{label} overlap {a + 512 - b} px below 100")
        covered = np.zeros(extent, dtype=bool)
        for off in offsets:
            covered[off:off + 512] = True
        if not covered.all():
            failures.append(f"{label} axis leaves pixels uncovered")
    # one less column or row cannot span the image even at minimum overlap
    if 12 * 512 - 11 * 100 >= 5280:
        failures.append("12 columns would suffice, plan is not minimal")
    if 6 * 512 - 5 * 100 >= 2970:
        failures.append("6 rows would suffice, plan is not minimal")

    # boxes survive the trip image -> hosting tile -> image within 1 px
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(300):
        w, h = rng.uniform(8, 60, size=2)
        cx = rng.uniform(w / 2, 5280 - w / 2)
        cy = rng.uniform(h / 2, 2970 - h / 2)
        label = BoxLabel(category=0, x_center=cx / 5280, y_center=cy / 2970,
                         width=w / 5280, height=h / 2970)
        hosts = [t for t in plan.tiles
                 if t.x0 <= cx - w / 2 and cx + w / 2 <= t.x0 + t.width
                 and t.y0 <= cy - h / 2 and cy + h / 2 <= t.y0 + t.height]
        if not hosts:
            failures.append(f"box at ({cx:.0f}, {cy:.0f}) fits in no tile")
            continue
        tile = hosts[0]
        kept = remap_labels([label], tile, 5280, 2970, min_visible=0.99)
        if len(kept) != 1:
            failures.append(f"fully visible box dropped by tile "
                            f"r{tile.row} c{tile.col}")
            continue
        back_x = tile.x0 + kept[0].x_center * tile.width
        back_y = tile.y0 + kept[0].y_center * tile.height
        back_w = kept[0].width * tile.width
        back_h = kept[0].height * tile.height
        worst = max(worst, abs(back_x - cx), abs(back_y - cy),
                    abs(back_w - w), abs(back_h - h))
    if worst > 1.0:
        failures.append(f"label round trip off by {worst:.3f} px")
    checklist("07", "tiling-plan-and-label-round-trip", failures)


def _best_assignment(truths, detections, iou_threshold, confidence):
    from uavsearch.tiling import iou
    usable = [d for d in detections if d.confidence >= confidence]
    best = 0
    for perm in itertools.permutations(range(len(truths)), min(len(usable), len(truths))):
        matched = sum(
            1 for d, t_index in zip(usable, perm)
            if d.category == truths[t_index].category
            and iou(d, truths[t_index]) >= iou_threshold)
        best = max(best, matched)
    return best


def test_08_recall_evaluator(checklist):
    failures = []

    # a perfect detector scores 1.0 in every bin
    rng = np.random.default_rng(4)
    images, truths, detections = [], {}, {}
    for i, gsd_value in enumerate((0.7, 1.2, 2.4, 4.9)):
        name = f"perfect{i}"
        images.append(ImageMeta(image_id=name, gsd=gsd_value))
        boxes = []
        for _ in range(5):
            w, h = rng.uniform(0.05, 0.15, size=2)
            boxes.append(BoxLabel(0, rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), w, h))
        truths[name] = boxes
        detections[name] = [Detection(b.category, b.x_center, b.y_center,
                                      b.width, b.height, 0.9) for b in boxes]
    for row in recall_per_bin(images, truths, detections, 0.7, 0.5, 0.5):
        if row.recall != 1.0:
            failures.append(f"perfect corpus: recall {row.recall} in "
                            f"bin [{row.gsd_low}, {row.gsd_high})")

    # ten hand-built boxes, seven of them detectable: recall 0.7
    def box(cat, x, y, w=0.1, h=0.1):
        return BoxLabel(cat, x, y, w, h)

    images = [ImageMeta("a", 1.2), ImageMeta("b", 1.2), ImageMeta("c", 1.2)]
    truths = {
        "a": [box(0, 0.2, 0.2), box(0, 0.5, 0.2), box(0, 0.8, 0.2), box(0, 0.2, 0.7)],
        "b": [box(0, 0.3, 0.3, 0.2, 0.2), box(0, 0.7, 0.3, 0.2, 0.2),
              box(0, 0.5, 0.8, 0.2, 0.1)],
        "c": [box(0, 0.25, 0.25, 0.1, 0.2), box(0, 0.6, 0.6), box(0, 0.85, 0.85)],
    }
    detections = {
        # fourth detection sits far from every truth box
        "a": [Detection(0, 0.2, 0.2, 0.1, 0.1, 0.9),
              Detection(0, 0.5, 0.2, 0.1, 0.1, 0.8),
              Detection(0, 0.8, 0.2, 0.1, 0.1, 0.7),
              Detection(0, 0.45, 0.7, 0.1, 0.1, 0.9)],
        # third truth box has no detection at all
        "b": [Detection(0, 0.3, 0.3, 0.2, 0.2, 0.95),
              Detection(0, 0.7, 0.3, 0.2, 0.2, 0.55)],
        # third detection falls below the confidence threshold
        "c": [Detection(0, 0.25, 0.25, 0.1, 0.2, 0.9),
              Detection(0, 0.6, 0.6, 0.1, 0.1, 0.51),
              Detection(0, 0.85, 0.85, 0.1, 0.1, 0.4)],
    }
    bins = recall_per_bin(images, truths, detections, 0.7, 0.5, 0.5)
    if len(bins) != 1 or bins[0].total != 10 or bins[0].detected != 7:
        failures.append(f"constructed corpus: got {bins}")
    elif bins[0].recall != 0.7:
        failures.append(f"constructed corpus: recall {bins[0].recall}, expected 0.7")
    oracle = sum(_best_assignment(truths[m.image_id], detections[m.image_id], 0.7, 0.5)
                 for m in images)
    if oracle != 7:
        failures.append(f"assignment oracle found {oracle} matches, expected 7")

    # shuffling detection and truth order must not change any bin
    shuffler = random.Random(11)
    for _ in range(100):
        shuffled_truth = {k: shuffler.sample(v, len(v)) for k, v in truths.items()}
        shuffled_det = {k: shuffler.sample(v, len(v)) for k, v in detections.items()}
        if recall_per_bin(images, shuffled_truth, shuffled_det, 0.7, 0.5, 0.5) != bins:
            failures.append("recall changed under input reordering")
            break
    checklist("08", "recall-evaluator", failures)


def _artifact_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "timing.txt"}


def test_09_deterministic_artifacts(checklist, scenario_dir, tmp_path):
    failures = []
    scenario = str(scenario_dir / "mission2.json")
    sim = []
    for name in ("sim_a", "sim_b"):
        out = tmp_path / name
        code = cli_main(["simulate", scenario, "--out", str(out)])
        if code != 0:
            failures.append(f"simulate exited {code}")
        sim.append(_artifact_bytes(out))
        if not (out / "timing.txt").exists():
            failures.append("timing.txt missing")
    if sim[0] != sim[1]:
        differing = [n for n in sim[0] if sim[0][n] != sim[1].get(n)]
        failures.append(f"simulate reruns differ: {differing}")

    val = []
    for name in ("val_a", "val_b"):
        out = tmp_path / name
        code = cli_main(["validate", scenario, "--out", str(out),
                         "--targets", "400"])
        if code not in (0, 1):
            failures.append(f"validate exited {code}")
        val.append(_artifact_bytes(out))
    if val[0] != val[1]:
        differing = [n for n in val[0] if val[0][n] != val[1].get(n)]
        failures.append(f"validate reruns differ: {differing}")
    checklist("09", "byte-identical-reruns", failures)


def test_10_flight_split_invariance(checklist, mission3_run):
    config, whole, _ = mission3_run
    flight = config.flights[0]
    half = flight.duration_s // 2
    split_config = replace(config, flights=(
        replace(flight, duration_s=half),
        replace(flight, duration_s=flight.duration_s - half, start=None),
    ))
    split = run_mission(split_config)
    failures = []
    if split.times.size != whole.times.size:
        failures.append("split mission covers a different time span")
    diff = abs(split.final_eta - whole.final_eta)
    if diff >= 1e-6:
        failures.append(f"final accomplishment moved by {diff:.2e} "
                        f"when the flight was split")
    checklist("10", "flight-split-invariance", failures)


@pytest.mark.extended
def test_05x_monte_carlo_twenty_seeds(checklist, mission1_run):
    # same band check as the pinned seed, across twenty target draws;
    # one marginal excursion in twenty is within its own 3-sigma budget
    config, first, _ = mission1_run
    trackers = [TargetTracker(first.density, count=2000, seed=seed)
                for seed in range(300, 320)]

    def observer(t, field):
        for tracker in trackers:
            tracker(t, field)

    report = run_mission(config, observer=observer)
    low, high = binomial_band(report.eta, 2000)
    in_band = 0
    for tracker in trackers:
        empirical = tracker.detected_fraction(report.times)
        if np.all((empirical >= low - 1e-12) & (empirical <= high + 1e-12)):
            in_band += 1
    failures = []
    if in_band < 19:
        failures.append(f"only {in_band} of 20 seeds stayed inside the band")
    checklist("05x", "monte-carlo-extended-seeds", failures)
