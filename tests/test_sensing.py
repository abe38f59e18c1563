import math

import numpy as np
import pytest

from uavsearch import (CAMERA_PRESETS, CameraModel, CameraPose, GridSpec,
                       RecallTable, SensingParams, TerrainGrid,
                       default_recall_table, detection_rate,
                       detection_rate_footprint, gsd, ground_under, in_fov,
                       load_recall_table, recall_lookup, to_camera_frame)
from uavsearch.sensing import SensingError

PACKAGED_RECALLS = [0.95, 0.977, 0.956, 0.953, 0.897, 0.881,
                    0.781, 0.796, 0.719, 0.699, 0.621, 0.142]


def flat_grid(value=0.0, ncols=60, nrows=60, cell=10.0, x0=-300.0, y0=-300.0):
    return TerrainGrid(ncols=ncols, nrows=nrows, xllcorner=x0, yllcorner=y0,
                       cell_size=cell, nodata=-9999.0,
                       elevations=np.full((nrows, ncols), value))


def test_camera_validation():
    with pytest.raises(SensingError):
        CameraModel("bad", fov_short_deg=0.0, fov_long_deg=60.0,
                    x_image=100, y_image=100)
    with pytest.raises(SensingError):
        CameraModel("bad", fov_short_deg=40.0, fov_long_deg=185.0,
                    x_image=100, y_image=100)
    with pytest.raises(SensingError):
        CameraModel("bad", fov_short_deg=40.0, fov_long_deg=60.0,
                    x_image=0, y_image=100)


def test_gsd_reference_value():
    h, v = gsd(CAMERA_PRESETS["X5S"], 55.0)
    assert abs(h - 1.319) <= 0.001
    # both image axes resolve the ground at nearly the same scale
    assert abs(h - v) / h < 0.01


def test_gsd_scales_linearly_and_matches_formula():
    cam = CAMERA_PRESETS["Z30"]
    h1, v1 = gsd(cam, 40.0)
    h2, v2 = gsd(cam, 80.0)
    assert h2 == pytest.approx(2 * h1) and v2 == pytest.approx(2 * v1)
    want_h = 100.0 * 2.0 * 40.0 * math.tan(math.radians(56.9) / 2) / 1920
    assert h1 == pytest.approx(want_h, rel=1e-12)
    for cam in CAMERA_PRESETS.values():
        h, v = gsd(cam, 55.0)
        assert abs(h - v) / h < 0.01, cam.name


def test_gsd_requires_positive_height():
    with pytest.raises(SensingError):
        gsd(CAMERA_PRESETS["X5S"], 0.0)
    with pytest.raises(SensingError):
        gsd(CAMERA_PRESETS["X5S"], -5.0)


def test_default_recall_table_values():
    table = default_recall_table()
    assert len(table.bins) == 12
    assert table.bin_width == 0.5
    assert table.bins[0][:2] == (0.5, 1.0)
    assert table.bins[-1][:2] == (6.0, 6.5)
    assert [b[2] for b in table.bins] == PACKAGED_RECALLS


def test_recall_lookup_bins_and_clamping():
    table = default_recall_table()
    # inside each bin, including the lower edge, the bin value applies
    for (low, high, recall) in table.bins:
        assert recall_lookup(table, low) == recall
        assert recall_lookup(table, 0.5 * (low + high)) == recall
    # an upper edge belongs to the next bin
    assert recall_lookup(table, 1.0) == PACKAGED_RECALLS[1]
    # finer than measured clamps to the finest bin, coarser cuts to zero
    assert recall_lookup(table, 0.1) == PACKAGED_RECALLS[0]
    assert recall_lookup(table, 6.5) == 0.0
    assert recall_lookup(table, 50.0) == 0.0
    out = recall_lookup(table, np.array([0.7, 3.2, 9.0]))
    assert out.tolist() == [0.95, 0.881, 0.0]


def test_recall_table_round_trip(tmp_path):
    table = default_recall_table()
    text = "".join(f"{low!r} {high!r} {recall!r}\n" for low, high, recall in table.bins)
    path = tmp_path / "recall.txt"
    path.write_text("# comment line\n\n" + text)
    back = load_recall_table(path)
    assert back.bins == table.bins
    assert back.bin_width == table.bin_width


def test_recall_table_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 1.0\n")
    with pytest.raises(SensingError):
        load_recall_table(bad)
    with pytest.raises(SensingError):
        RecallTable(bins=((0.5, 1.0, 0.9), (1.5, 2.0, 0.8)))  # gap
    with pytest.raises(SensingError):
        RecallTable(bins=((0.5, 1.0, 1.2),))  # recall outside [0, 1]
    with pytest.raises(SensingError):
        RecallTable(bins=((0.5, 1.5, 0.9),), bin_width=0.5)  # wrong width


def test_to_camera_frame_yaw_alignment():
    grid = flat_grid(0.0)
    # yaw 0 points the camera x axis along world +x
    pose = CameraPose(x=10.0, y=20.0, z=50.0, yaw=0.0)
    r = to_camera_frame(pose, (40.0, 20.0), grid)
    np.testing.assert_allclose(r, [30.0, 0.0, -50.0], atol=1e-12)
    # after a 90 degree yaw the same world offset appears on camera -y
    pose90 = CameraPose(x=10.0, y=20.0, z=50.0, yaw=math.pi / 2)
    r90 = to_camera_frame(pose90, (40.0, 20.0), grid)
    np.testing.assert_allclose(r90, [0.0, -30.0, -50.0], atol=1e-12)
    # a point ahead of the vehicle lands on camera +x for any yaw
    for yaw in (0.3, 2.0, -2.5):
        ahead = (10.0 + 25.0 * math.cos(yaw), 20.0 + 25.0 * math.sin(yaw))
        r = to_camera_frame(CameraPose(10.0, 20.0, 50.0, yaw), ahead, grid)
        np.testing.assert_allclose(r, [25.0, 0.0, -50.0], atol=1e-9)


def test_in_fov_boundaries():
    cam = CameraModel("t", fov_short_deg=60.0, fov_long_deg=90.0,
                      x_image=200, y_image=100)
    depth = 40.0
    edge_x = depth * math.tan(math.radians(45.0))
    edge_y = depth * math.tan(math.radians(30.0))
    assert in_fov(cam, np.array([0.0, 0.0, -depth]))
    assert in_fov(cam, np.array([edge_x, 0.0, -depth]))          # boundary inclusive
    assert in_fov(cam, np.array([edge_x, edge_y, -depth]))
    assert not in_fov(cam, np.array([edge_x * 1.001, 0.0, -depth]))
    assert not in_fov(cam, np.array([0.0, edge_y * 1.001, -depth]))
    assert not in_fov(cam, np.array([0.0, 0.0, 5.0]))            # above the camera
    assert not in_fov(cam, np.array([0.0, 0.0, 0.0]))


def test_detection_rate_nadir_and_falloff():
    grid = flat_grid(0.0)
    cam = CAMERA_PRESETS["X5S"]
    table = default_recall_table()
    params = SensingParams(rate_scale=0.05, falloff_exponent=2.0)
    pose = CameraPose(x=0.0, y=0.0, z=55.0, yaw=0.7)
    h, _ = gsd(cam, 55.0)
    want_nadir = 0.05 * recall_lookup(table, h)
    assert detection_rate(pose, (0.0, 0.0), cam, grid, table, params) \
        == pytest.approx(want_nadir, rel=1e-12)
    # off-nadir point straight ahead: same height, cos^2 falloff
    dist = 30.0
    ahead = (dist * math.cos(0.7), dist * math.sin(0.7))
    cos_off = 55.0 / math.hypot(dist, 55.0)
    got = detection_rate(pose, ahead, cam, grid, table, params)
    assert got == pytest.approx(want_nadir * cos_off ** 2, rel=1e-9)
    # outside the frustum the rate is exactly zero
    assert detection_rate(pose, (200.0, 0.0), cam, grid, table, params) == 0.0


def test_detection_rate_uses_height_above_target_point():
    # camera over a 40 m pedestal, target on ground 0: gsd uses the
    # camera-to-point height (95 m), not the camera's own ground clearance
    grid = flat_grid(0.0, ncols=40, nrows=40, cell=10.0, x0=-200.0, y0=-200.0)
    elev = grid.elevations.copy()
    # pedestal under the camera only (single cell block far from target)
    rows, cols = np.meshgrid(range(18, 22), range(18, 22), indexing="ij")
    elev[rows, cols] = 40.0
    bumpy = TerrainGrid(ncols=40, nrows=40, xllcorner=-200.0, yllcorner=-200.0,
                        cell_size=10.0, nodata=-9999.0, elevations=elev)
    cam = CAMERA_PRESETS["MavicBuiltin"]  # wide fov, target stays in frustum
    table = default_recall_table()
    params = SensingParams()
    pose = CameraPose(x=5.0, y=5.0, z=95.0, yaw=0.0)
    target = (60.0, 5.0)
    got = detection_rate(pose, target, cam, bumpy, table, params)
    height = 95.0  # target cell ground is 0
    h_gsd, _ = gsd(cam, height)
    cos_off = height / math.hypot(60.0 - 5.0, height)
    want = 0.05 * recall_lookup(table, h_gsd) * cos_off ** 2
    assert got == pytest.approx(want, rel=1e-9)


def test_detection_rate_occlusion():
    grid = flat_grid(0.0, ncols=40, nrows=10, cell=10.0, x0=0.0, y0=0.0)
    elev = grid.elevations.copy()
    elev[:, 15] = 60.0  # wall between camera and target
    wall = TerrainGrid(ncols=40, nrows=10, xllcorner=0.0, yllcorner=0.0,
                       cell_size=10.0, nodata=-9999.0, elevations=elev)
    # wide frustum and a fine sensor so recall stays positive at depth
    cam = CameraModel("wide", fov_short_deg=100.0, fov_long_deg=120.0,
                      x_image=20000, y_image=16000)
    table = default_recall_table()
    params = SensingParams()
    target = (180.0, 50.0)
    pose = CameraPose(x=100.0, y=50.0, z=50.0, yaw=0.0)
    # target is inside the frustum (|dx| 80 < 50 tan60 = 86.6) but walled off
    assert detection_rate(pose, target, cam, wall, table, params) == 0.0
    # high above the wall the sight line clears it
    high = CameraPose(x=100.0, y=50.0, z=200.0, yaw=0.0)
    assert detection_rate(high, target, cam, wall, table, params) > 0.0


def test_footprint_matches_scalar_rate():
    rng = np.random.default_rng(21)
    ncols, nrows, cell = 50, 44, 10.0
    X, Y = np.meshgrid((np.arange(ncols) + 0.5) * cell,
                       (np.arange(nrows) + 0.5) * cell)
    elev = 20.0 * np.sin(X / 90.0) * np.cos(Y / 70.0) + 0.02 * X
    grid = TerrainGrid(ncols=ncols, nrows=nrows, xllcorner=0.0, yllcorner=0.0,
                       cell_size=cell, nodata=-9999.0, elevations=elev)
    cells = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=cell,
                     ncols=ncols, nrows=nrows)
    table = default_recall_table()
    params = SensingParams()
    ground = ground_under(grid, cells)
    for cam in CAMERA_PRESETS.values():
        for _ in range(6):
            pose = CameraPose(x=rng.uniform(100, 400), y=rng.uniform(100, 340),
                              z=rng.uniform(60, 140), yaw=rng.uniform(-np.pi, np.pi))
            rows, cols, rates = detection_rate_footprint(
                pose, cam, grid, table, params, cells, ground)
            full = np.zeros(cells.shape)
            full[rows, cols] = rates
            xs, ys = cells.center_mesh()
            for r in range(nrows):
                for c in range(ncols):
                    if not grid.contains(xs[r, c], ys[r, c]):
                        continue
                    want = detection_rate(pose, (xs[r, c], ys[r, c]),
                                          cam, grid, table, params)
                    assert full[r, c] == pytest.approx(want, rel=1e-12, abs=1e-15), \
                        (cam.name, r, c)


def test_footprint_empty_when_underground():
    grid = flat_grid(100.0, ncols=10, nrows=10, cell=10.0, x0=0.0, y0=0.0)
    cells = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=10.0, ncols=10, nrows=10)
    pose = CameraPose(x=50.0, y=50.0, z=90.0, yaw=0.0)  # below all terrain
    rows, cols, rates = detection_rate_footprint(
        pose, CAMERA_PRESETS["X5S"], grid, default_recall_table(),
        SensingParams(), cells, ground_under(grid, cells))
    assert rates.size == 0
