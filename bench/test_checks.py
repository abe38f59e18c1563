"""Tests of the benchmark's output checks.

Each workload must pass its checks at a tiny length, and each oracle
must reject a deliberately corrupted output. Run with

    python3 -m pytest bench/test_checks.py -q
"""

from dataclasses import replace

import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import checks
import workloads
from uavsearch.errors import UavSearchError
from uavsearch.hedac import neumann_laplacian
from uavsearch.tiling import TileRect, TilingPlan


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    rnd = workloads.simulate_round(tmp_path_factory.mktemp("sim"), flight_s=(3, 3, 3))
    assert rnd.error is None
    return rnd


@pytest.fixture(scope="module")
def validated(tmp_path_factory):
    rnd = workloads.validate_round(tmp_path_factory.mktemp("val"), flight_s=(30,),
                                   targets=400)
    assert rnd.error is None
    return rnd


@pytest.fixture(scope="module")
def tiled(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("corpus")
    corpus = workloads.make_corpus(7, corpus_dir, mix=(("X5S", 2), ("Z30", 2),
                                                       ("MavicBuiltin", 2)))
    rnd = workloads.tiling_round(corpus_dir)
    assert rnd.error is None
    return corpus, rnd


def test_tiny_simulate_passes(simulated):
    assert len(simulated.stamps) == 9
    assert checks.round_problems("mission1-simulate", simulated.outputs) == []


def test_tiny_validate_passes(validated):
    assert len(validated.stamps) == 30
    assert checks.round_problems("mission3-validate", validated.outputs) == []


def test_tiny_tiling_passes(tiled):
    corpus, rnd = tiled
    assert len(rnd.stamps) == 7
    assert checks.round_problems("tiling-recall", rnd.outputs, corpus) == []


def _copy_report(outputs):
    report = outputs["report"]
    field = replace(report.field, potential=report.field.potential.copy(),
                    coverage=report.field.coverage.copy())
    logs = [replace(log, rows=list(log.rows)) for log in report.logs]
    return replace(report, field=field, logs=logs, eta=report.eta.copy(),
                   violations=dict(report.violations))


def test_perturbed_potential_is_rejected(simulated):
    report = _copy_report(simulated.outputs)
    report.field.potential[3, 4] *= 1.001
    assert checks.potential_problems(simulated.outputs["config"], report)


def test_exact_solve_meets_the_residual_bound(simulated):
    config, report = simulated.outputs["config"], simulated.outputs["report"]
    grid = report.field.grid
    matrix = (config.hedac.damping * sp.identity(grid.ncols * grid.nrows)
              - config.hedac.diffusion * neumann_laplacian(grid)).tocsc()
    exact = spsolve(matrix, report.field.undetected.ravel()).reshape(grid.shape)
    residual = checks.screened_poisson_residual(
        exact, report.field.undetected, grid.cell_size,
        config.hedac.diffusion, config.hedac.damping)
    assert residual <= 1e-12


@pytest.mark.parametrize("column, delta, message", [
    (3, -200.0, "below"),          # z: under the floor
    (5, 30.0, "velocity"),         # v_h: over the envelope
])
def test_log_violations_are_rejected(simulated, column, delta, message):
    report = _copy_report(simulated.outputs)
    row = list(report.logs[1].rows[4])
    row[column] += delta
    report.logs[1].rows[4] = tuple(row)
    problems = checks.constraint_problems(simulated.outputs["config"], report)
    assert any(message in p for p in problems)


def test_acceleration_jump_is_rejected(simulated):
    report = _copy_report(simulated.outputs)
    rows = report.logs[2].rows
    for k in range(3, len(rows)):
        row = list(rows[k])
        row[6] = min(row[6] + 2.0, 4.9)   # v_z steps up inside the velocity limits
        rows[k] = tuple(row)
    problems = checks.constraint_problems(simulated.outputs["config"], report)
    assert any("acceleration" in p for p in problems)


def test_accomplishment_faults_are_rejected(simulated):
    report = _copy_report(simulated.outputs)
    report.eta[4] = report.eta[3] - 1e-3
    assert any("decreases" in p for p in checks.accomplishment_problems(report))
    report = _copy_report(simulated.outputs)
    report.field.coverage[10, 10] += 1.0
    assert any("decay law" in p for p in checks.accomplishment_problems(report))


def _copy_validation(outputs):
    validation = outputs["report"]
    return replace(validation, targets=list(validation.targets),
                   empirical=validation.empirical.copy(),
                   predicted=validation.predicted.copy())


def test_shifted_detection_time_is_rejected(validated):
    validation = _copy_validation(validated.outputs)
    k = next(i for i, t in enumerate(validation.targets) if t.detect_time is not None)
    end = float(validation.times[-1])
    for shifted, message in ((end + 1.0, "outside (0"),
                             (validation.targets[k].detect_time + 1.0, "empirical curve")):
        copy = _copy_validation(validated.outputs)
        copy.targets[k] = replace(copy.targets[k], detect_time=shifted)
        assert any(message in p for p in checks.validation_problems(copy))


def test_missed_detection_is_rejected(validated):
    validation = _copy_validation(validated.outputs)
    k = next(i for i, t in enumerate(validation.targets) if t.detect_time is not None)
    validation.targets[k] = replace(validation.targets[k], detect_time=None)
    problems = checks.validation_problems(validation)
    assert any("undetected target" in p for p in problems)


def test_empirical_outside_band_is_rejected(validated):
    validation = _copy_validation(validated.outputs)
    mission = validation.mission
    raised = replace(mission, eta=mission.eta + 0.1)
    problems = checks.validation_problems(replace(validation, mission=raised))
    assert any("three-sigma" in p for p in problems)


def test_dropped_tile_is_rejected(tiled):
    _, rnd = tiled
    frame = rnd.outputs["frames"][0]
    plan = frame["plan"]
    dropped = replace(plan, tiles=plan.tiles[:-1])
    assert checks.tiling_plan_problems(dropped, frame["width"], frame["height"],
                                       workloads.TILE, workloads.OVERLAP)


def test_non_minimal_tiling_is_rejected():
    offsets = [0, 282, 563, 845, 1126, 1408]    # 1920 px wide: five tiles suffice
    tiles = tuple(TileRect(row=0, col=c, x0=x, y0=0, width=512, height=512)
                  for c, x in enumerate(offsets))
    plan = TilingPlan(image_width=1920, image_height=512, tile_width=512,
                      tile_height=512, overlap=100, n_cols=6, n_rows=1, tiles=tiles)
    problems = checks.tiling_plan_problems(plan, 1920, 512, 512, 100)
    assert any("would already cover" in p for p in problems)


def test_lost_or_moved_label_is_rejected(tiled):
    _, rnd = tiled
    frame = rnd.outputs["frames"][0]
    truths = rnd.outputs["truths"][frame["image_id"]]
    # a tile holding a fully contained box: its remapped width is unclipped
    widths = {round(b.width * frame["width"], 6) for b in truths}
    k, j = next((k, j) for k, labels in enumerate(frame["kept"])
                for j, b in enumerate(labels) if round(b.width * 512, 6) in widths)
    labels = frame["kept"][k]
    moved = replace(labels[j], x_center=labels[j].x_center + 2.0 / 512)
    for corrupt in (labels[:j] + labels[j + 1:], labels[:j] + [moved] + labels[j + 1:]):
        kept = list(frame["kept"])
        kept[k] = corrupt
        assert checks.remap_problems(truths, frame["plan"], kept, frame["width"],
                                     frame["height"], workloads.MIN_VISIBLE)


def test_recall_mismatch_is_rejected(tiled):
    corpus, rnd = tiled
    outputs = dict(rnd.outputs)
    first = outputs["bins"][0]
    outputs["bins"] = [replace(first, detected=first.detected - 1)] + outputs["bins"][1:]
    assert any("recall per bin" in p for p in checks.tiling_problems(outputs, corpus))


def test_changed_artifact_is_rejected():
    assert checks.rerun_problems({"a.csv": "1", "b.csv": "2"}, {"a.csv": "1", "b.csv": "3"})
    assert checks.rerun_problems({"a.csv": "1"}, {"a.csv": "1", "extra.csv": "0"})
    assert not checks.rerun_problems({"a.csv": "1"}, {"a.csv": "1"})


def test_error_after_the_last_step_fails_the_run(monkeypatch, tmp_path):
    import run

    def broken(*args, **kwargs):
        raise UavSearchError("recall_per_bin failed")

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads.tiling, "recall_per_bin", broken)
    result = run.run("tiling-recall", 7, 0.0, False)
    assert result["failed"] == 0
    assert result["correct"] is False
