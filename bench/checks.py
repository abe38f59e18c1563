"""Output checks for the benchmark's workloads.

Each check returns a list of problems (empty when the output is right).
The oracles are written apart from the program: terrain clearance is
a bilinear interpolation of the raw elevation array written here, the
potential is tested against a hand-written mirrored five-point stencil,
the binomial band, the empirical curve and the tile geometry are
recomputed here, and the tiling corpus carries the recall its generator
planted. Vehicle limits come from the presets, the hard floor from the
specification.
"""

from __future__ import annotations

import numpy as np

from uavsearch.control import UAV_PRESETS
from workloads import BIN_WIDTH, MIN_VISIBLE, OVERLAP, TILE

NO_FLY_FLOOR = 35.0      # hard clearance floor above terrain, m
KINEMATIC_DT = 0.5       # seconds between flight-log rows
FLAG_EPS = 1e-9          # slack the specification allows on every limit
RESIDUAL_LIMIT = 1e-6    # relative residual any acceptable solve meets
ETA_EPS = 1e-12


def _ground(terrain, x, y) -> np.ndarray:
    """Bilinear interpolation of the elevation array between cell centers."""
    xs, ys, z = terrain.x_centers, terrain.y_centers, terrain.elevations
    if np.any((x < xs[0]) | (x > xs[-1]) | (y < ys[0]) | (y > ys[-1])):
        raise ValueError("flight leaves the terrain's cell-center hull")
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    j = np.clip(np.searchsorted(ys, y, side="right") - 1, 0, len(ys) - 2)
    tx = (x - xs[i]) / (xs[i + 1] - xs[i])
    ty = (y - ys[j]) / (ys[j + 1] - ys[j])
    return ((1 - ty) * ((1 - tx) * z[j, i] + tx * z[j, i + 1])
            + ty * ((1 - tx) * z[j + 1, i] + tx * z[j + 1, i + 1]))


def constraint_problems(config, report) -> list[str]:
    """Floor, velocity and acceleration limits, recomputed from the logs."""
    terrain = config.terrain
    uavs = dict(UAV_PRESETS)
    uavs.update(config.uavs or {})
    problems = []
    prev = None
    for log, flight in zip(report.logs, config.flights):
        rows = np.array(log.rows, dtype=float)
        t, x, y, z, v_h, v_z = (rows[:, i] for i in (0, 1, 2, 3, 5, 6))
        lim = uavs[log.uav]
        tag = f"flight {log.flight_index}"
        clearance = z - _ground(terrain, x, y)
        if np.any(clearance < NO_FLY_FLOOR - FLAG_EPS):
            problems.append(f"{tag}: clearance {clearance.min():.3f} m below the "
                            f"{NO_FLY_FLOOR:g} m floor")
        if np.any((v_h < lim.v_h_min - FLAG_EPS) | (v_h > lim.v_h_max + FLAG_EPS)
                  | (v_z < lim.v_z_min - FLAG_EPS) | (v_z > lim.v_z_max + FLAG_EPS)):
            problems.append(f"{tag}: velocity outside the {lim.name} envelope")
        if flight.start is None:
            # a chained flight continues the previous one's velocities
            v_h, v_z = np.r_[prev[0], v_h], np.r_[prev[1], v_z]
        a_h = np.diff(v_h) / KINEMATIC_DT
        a_v = np.diff(v_z) / KINEMATIC_DT
        if np.any((a_h < lim.a_h_min - FLAG_EPS) | (a_h > lim.a_h_max + FLAG_EPS)
                  | (a_v < lim.a_v_min - FLAG_EPS) | (a_v > lim.a_v_max + FLAG_EPS)):
            problems.append(f"{tag}: acceleration outside the {lim.name} envelope")
        if not np.allclose(np.diff(t), KINEMATIC_DT, rtol=0, atol=1e-9):
            problems.append(f"{tag}: log rows are not {KINEMATIC_DT:g} s apart")
        if np.any(rows[:, 11:14] != 1.0):
            problems.append(f"{tag}: the log flags a violation")
        prev = (v_h[-1], v_z[-1])
    if any(report.violations.values()):
        problems.append(f"report counts violations {report.violations}")
    return problems


def accomplishment_problems(report) -> list[str]:
    """Monotone in [0, 1], and the final value obeys the decay law."""
    eta = np.asarray(report.eta, dtype=float)
    problems = []
    if np.any(np.diff(eta) < -ETA_EPS):
        problems.append("accomplishment decreases")
    if eta.min() < -ETA_EPS or eta.max() > 1.0 + ETA_EPS:
        problems.append(f"accomplishment leaves [0, 1]: {eta.min()}..{eta.max()}")
    field = report.field
    area = field.grid.cell_size ** 2
    initial = report.density.values
    if abs(initial.sum() * area - 1.0) > 1e-9:
        problems.append("initial density does not integrate to one")
    law = 1.0 - float(np.sum(initial * np.exp(-field.coverage))) * area
    if abs(law - eta[-1]) > 1e-12:
        problems.append(f"final accomplishment {eta[-1]!r} != decay law {law!r}")
    return problems


def screened_poisson_residual(potential, source, cell_size, diffusion, damping) -> float:
    """||damping u - diffusion lap(u) - f|| / ||f|| with mirrored ghost cells."""
    u = np.asarray(potential, dtype=float)
    ghost = np.pad(u, 1, mode="edge")
    lap = (ghost[1:-1, 2:] + ghost[1:-1, :-2] + ghost[2:, 1:-1] + ghost[:-2, 1:-1]
           - 4.0 * u) / cell_size ** 2
    residual = damping * u - diffusion * lap - source
    return float(np.linalg.norm(residual) / np.linalg.norm(source))


def potential_problems(config, report) -> list[str]:
    field = report.field
    rel = screened_poisson_residual(field.potential, field.undetected,
                                    field.grid.cell_size, config.hedac.diffusion,
                                    config.hedac.damping)
    if not rel <= RESIDUAL_LIMIT:
        return [f"final potential relative residual {rel:.3e} > {RESIDUAL_LIMIT:g}"]
    return []


def validation_problems(validation) -> list[str]:
    """Band, empirical curve and per-target verdicts of a Monte Carlo run."""
    problems = []
    report = validation.mission
    times = np.asarray(report.times, dtype=float)
    predicted = np.asarray(report.eta, dtype=float)
    n = len(validation.targets)
    if n != validation.target_count:
        problems.append(f"{n} targets reported, {validation.target_count} requested")
    detect = np.array([np.nan if t.detect_time is None else t.detect_time
                       for t in validation.targets])
    found = ~np.isnan(detect)
    empirical = np.array([np.count_nonzero(detect[found] <= t) for t in times]) / n
    if not np.array_equal(empirical, np.asarray(validation.empirical)):
        problems.append("empirical curve does not follow the targets' detection times")
    sigma = np.sqrt(np.clip(predicted * (1.0 - predicted), 0.0, None) / n)
    outside = (empirical < predicted - 3 * sigma - ETA_EPS) \
        | (empirical > predicted + 3 * sigma + ETA_EPS)
    if np.any(outside):
        k = int(np.argmax(outside))
        problems.append(f"empirical {empirical[k]:.4f} outside the three-sigma band "
                        f"around {predicted[k]:.4f} at t={times[k]:g}")
    grid = report.field.grid
    xs = np.array([t.x for t in validation.targets])
    ys = np.array([t.y for t in validation.targets])
    rows = np.array([t.row for t in validation.targets])
    cols = np.array([t.col for t in validation.targets])
    exp_cols = np.minimum(np.floor((xs - grid.x_origin) / grid.cell_size), grid.ncols - 1)
    exp_rows = np.minimum(np.floor((ys - grid.y_origin) / grid.cell_size), grid.nrows - 1)
    if np.any(exp_cols != cols) or np.any(exp_rows != rows):
        problems.append("a target's cell does not contain its position")
    thresholds = np.array([t.threshold for t in validation.targets])
    coverage = report.field.coverage[rows, cols]
    end = times[-1]
    if np.any(coverage[found] < thresholds[found]):
        problems.append("a detected target's cell coverage is below its threshold")
    if np.any((detect[found] <= 0.0) | (detect[found] > end)):
        problems.append(f"a detection time lies outside (0, {end:g}]")
    if np.any(coverage[~found] >= thresholds[~found]):
        problems.append("an undetected target's coverage reached its threshold")
    return problems


def _axis_problems(offsets, extent, tile, overlap, axis) -> list[str]:
    offsets = sorted(offsets)
    problems = []
    if offsets[0] != 0 or offsets[-1] + tile != extent:
        problems.append(f"{axis}: tiles do not reach both image edges")
    for a, b in zip(offsets, offsets[1:]):
        if a + tile - b < overlap:
            problems.append(f"{axis}: tiles at {a} and {b} overlap by "
                            f"{a + tile - b} < {overlap} px")
    n = len(offsets)
    if n >= 2 and (n - 1) * tile - (n - 2) * overlap >= extent:
        problems.append(f"{axis}: {n - 1} tiles would already cover {extent} px")
    return problems


def tiling_plan_problems(plan, width, height, tile, overlap) -> list[str]:
    """Full pixel coverage, overlaps and the minimal tile count.

    The plan must be the product of its column and row offsets, so per-axis
    coverage covers every pixel."""
    xs = sorted({t.x0 for t in plan.tiles})
    ys = sorted({t.y0 for t in plan.tiles})
    cells = {(t.x0, t.y0) for t in plan.tiles}
    problems = []
    if len(plan.tiles) != len(xs) * len(ys) or cells != {(x, y) for x in xs for y in ys}:
        problems.append("tiles do not form a full grid")
    if any(t.width != tile or t.height != tile for t in plan.tiles):
        problems.append("a tile has the wrong size")
    problems += _axis_problems(xs, width, tile, overlap, "x")
    problems += _axis_problems(ys, height, tile, overlap, "y")
    return problems


def remap_problems(truths, plan, kept, width, height, min_visible) -> list[str]:
    """Each tile keeps exactly the boxes visible enough, and a box fully
    inside a tile maps back to its image position within 1 px."""
    problems = []
    for tile, labels in zip(plan.tiles, kept):
        back = [((b.x_center * tile.width + tile.x0), (b.y_center * tile.height + tile.y0),
                 b.width * tile.width, b.height * tile.height) for b in labels]
        expected, ambiguous = 0, 0
        for box in truths:
            x0 = (box.x_center - box.width / 2) * width
            x1 = (box.x_center + box.width / 2) * width
            y0 = (box.y_center - box.height / 2) * height
            y1 = (box.y_center + box.height / 2) * height
            vis_w = min(x1, tile.x0 + tile.width) - max(x0, tile.x0)
            vis_h = min(y1, tile.y0 + tile.height) - max(y0, tile.y0)
            share = max(vis_w, 0) * max(vis_h, 0) / ((x1 - x0) * (y1 - y0))
            if abs(share - min_visible) < 1e-9:
                ambiguous += 1
                continue
            if share < min_visible:
                continue
            expected += 1
            if x0 >= tile.x0 and x1 <= tile.x0 + tile.width \
                    and y0 >= tile.y0 and y1 <= tile.y0 + tile.height:
                target = (box.x_center * width, box.y_center * height,
                          box.width * width, box.height * height)
                if not any(max(abs(a - b) for a, b in zip(target, got)) <= 1.0
                           for got in back):
                    problems.append(f"tile r{tile.row} c{tile.col}: a fully contained "
                                    "box did not survive the round trip")
        if not expected <= len(labels) <= expected + ambiguous:
            problems.append(f"tile r{tile.row} c{tile.col}: kept {len(labels)} boxes, "
                            f"expected {expected}")
    return problems


def tiling_problems(rnd_outputs, corpus) -> list[str]:
    """Geometry and label checks per frame, matches and recall against
    what the corpus generator planted."""
    problems = []
    planted_hits = {f["image_id"]: f["hits"] for f in corpus["frames"]}
    for frame in rnd_outputs["frames"]:
        image_id = frame["image_id"]
        for p in tiling_plan_problems(frame["plan"], frame["width"], frame["height"],
                                      TILE, OVERLAP) \
                + remap_problems(rnd_outputs["truths"][image_id], frame["plan"],
                                 frame["kept"], frame["width"], frame["height"],
                                 MIN_VISIBLE):
            problems.append(f"{image_id}: {p}")
        if frame["matched"] != planted_hits[image_id]:
            problems.append(f"{image_id}: matched {frame['matched']} boxes, "
                            f"planted {planted_hits[image_id]}")
    if len(rnd_outputs["frames"]) != len(corpus["frames"]):
        problems.append("not every frame was processed")
    got = {round(b.gsd_low / BIN_WIDTH): (b.total, b.detected) for b in rnd_outputs["bins"]}
    if got != corpus["bins"]:
        problems.append(f"recall per bin {got} != planted {corpus['bins']}")
    return problems


def mission_problems(config, report) -> list[str]:
    return (constraint_problems(config, report) + accomplishment_problems(report)
            + potential_problems(config, report))


def round_problems(workload: str, outputs: dict, corpus=None) -> list[str]:
    """Every check that applies to one round of a workload."""
    if workload == "mission1-simulate":
        return mission_problems(outputs["config"], outputs["report"])
    if workload == "mission3-validate":
        validation = outputs["report"]
        return (mission_problems(outputs["config"], validation.mission)
                + validation_problems(validation))
    return tiling_problems(outputs, corpus)


def rerun_problems(first: dict, later: dict) -> list[str]:
    """Artifact bytes of a rerun must equal the first round's."""
    differing = sorted(k for k in first.keys() | later.keys()
                       if first.get(k) != later.get(k))
    return [f"rerun artifacts differ: {differing}"] if differing else []
