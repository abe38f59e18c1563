import dataclasses

import numpy as np
import pytest

from uavsearch import (GridSpec, TerrainError, TerrainGrid, bilinear_on_grid, clear_rays,
                       elevation_at, ground_at, ground_under, line_of_sight, load_terrain,
                       save_terrain)


def flat_grid(value=100.0, ncols=12, nrows=10, cell=10.0, x0=0.0, y0=0.0):
    return TerrainGrid(ncols=ncols, nrows=nrows, xllcorner=x0, yllcorner=y0,
                       cell_size=cell, nodata=-9999.0,
                       elevations=np.full((nrows, ncols), value))


def linear_grid(a=50.0, bx=0.3, by=-0.2, ncols=15, nrows=12, cell=5.0):
    grid = flat_grid(0.0, ncols, nrows, cell)
    X, Y = np.meshgrid(grid.x_centers, grid.y_centers)
    return TerrainGrid(ncols=ncols, nrows=nrows, xllcorner=0.0, yllcorner=0.0,
                       cell_size=cell, nodata=-9999.0,
                       elevations=a + bx * X + by * Y)


def test_grid_validation():
    with pytest.raises(TerrainError):
        TerrainGrid(ncols=1, nrows=5, xllcorner=0, yllcorner=0, cell_size=10,
                    nodata=-9999.0, elevations=np.zeros((5, 1)))
    with pytest.raises(TerrainError):
        TerrainGrid(ncols=3, nrows=3, xllcorner=0, yllcorner=0, cell_size=-1,
                    nodata=-9999.0, elevations=np.zeros((3, 3)))
    with pytest.raises(TerrainError):
        TerrainGrid(ncols=3, nrows=3, xllcorner=0, yllcorner=0, cell_size=10,
                    nodata=-9999.0, elevations=np.zeros((4, 3)))
    bad = np.zeros((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(TerrainError):
        TerrainGrid(ncols=3, nrows=3, xllcorner=0, yllcorner=0, cell_size=10,
                    nodata=-9999.0, elevations=bad)


def test_describe_skips_nodata():
    elev = np.arange(16.0).reshape(4, 4)
    elev[2, 1] = -9999.0
    grid = TerrainGrid(ncols=4, nrows=4, xllcorner=0, yllcorner=0,
                       cell_size=10, nodata=-9999.0, elevations=elev)
    assert grid.describe() == ("4x4 cells at 10 m, lower-left corner (0, 0), "
                               "elevation 0..15 m, nodata -9999")
    empty = TerrainGrid(ncols=2, nrows=2, xllcorner=0, yllcorner=0,
                        cell_size=10, nodata=-9999.0,
                        elevations=np.full((2, 2), -9999.0))
    assert "no valid elevation" in empty.describe()


def test_extent_is_cell_center_hull():
    grid = flat_grid(ncols=4, nrows=3, cell=10.0, x0=100.0, y0=200.0)
    xmin, xmax, ymin, ymax = grid.extent
    assert (xmin, ymin) == (105.0, 205.0)
    assert (xmax, ymax) == (135.0, 225.0)
    assert grid.contains(105.0, 225.0)
    assert not grid.contains(104.9, 210.0)


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    elev = np.round(rng.uniform(50, 150, size=(6, 9)), 2)
    grid = TerrainGrid(ncols=9, nrows=6, xllcorner=-20.0, yllcorner=35.0,
                       cell_size=2.5, nodata=-9999.0, elevations=elev)
    path = tmp_path / "t.asc"
    save_terrain(grid, path)
    back = load_terrain(path)
    assert back.ncols == 9 and back.nrows == 6
    assert back.xllcorner == -20.0 and back.yllcorner == 35.0
    assert back.cell_size == 2.5
    np.testing.assert_array_equal(back.elevations, elev)


def test_load_orientation_first_file_row_is_north(tmp_path):
    text = "\n".join([
        "ncols 3", "nrows 2", "xllcorner 0.0", "yllcorner 0.0",
        "cellsize 10.0", "nodata_value -9999.0",
        "7 8 9",
        "1 2 3",
    ]) + "\n"
    path = tmp_path / "o.asc"
    path.write_text(text)
    grid = load_terrain(path)
    # south row (y=5) holds 1 2 3, north row (y=15) holds 7 8 9
    assert elevation_at(grid, 5.0, 5.0) == 1.0
    assert elevation_at(grid, 25.0, 15.0) == 9.0


@pytest.mark.parametrize("mutate, message_part", [
    (lambda L: L.__setitem__(0, "cols 3"), "line 1"),
    (lambda L: L.__setitem__(4, "cellsize 0"), "positive"),
    (lambda L: L.__setitem__(6, "7 8"), "values"),
    (lambda L: L.pop(), "rows"),
])
def test_load_errors(tmp_path, mutate, message_part):
    lines = ["ncols 3", "nrows 2", "xllcorner 0.0", "yllcorner 0.0",
             "cellsize 10.0", "nodata_value -9999.0", "7 8 9", "1 2 3"]
    mutate(lines)
    path = tmp_path / "bad.asc"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TerrainError) as err:
        load_terrain(path)
    assert message_part in str(err.value)


def test_elevation_bilinear_exact_on_linear_field():
    grid = linear_grid()
    rng = np.random.default_rng(3)
    xmin, xmax, ymin, ymax = grid.extent
    xs = rng.uniform(xmin, xmax, 200)
    ys = rng.uniform(ymin, ymax, 200)
    got = elevation_at(grid, xs, ys)
    want = 50.0 + 0.3 * xs - 0.2 * ys
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    # scalar agrees with vector
    assert elevation_at(grid, xs[0], ys[0]) == pytest.approx(got[0], abs=1e-12)


def test_elevation_matches_grid_interpolation_inside_hull():
    # one bilinear kernel: on a grid with a non-zero origin, elevation_at
    # equals bilinear_on_grid over the terrain's own cells, bit for bit,
    # at random points, cell centers and the hull's edges and corners
    rng = np.random.default_rng(21)
    grid = TerrainGrid(ncols=9, nrows=6, xllcorner=-20.0, yllcorner=35.0,
                       cell_size=2.5, nodata=-9999.0,
                       elevations=rng.uniform(50, 150, size=(6, 9)))
    xmin, xmax, ymin, ymax = grid.extent
    X, Y = np.meshgrid(grid.x_centers, grid.y_centers)
    xs = np.concatenate([rng.uniform(xmin, xmax, 300), X.ravel(),
                         [xmin, xmax, xmin, xmax, xmin, 0.5 * (xmin + xmax)]])
    ys = np.concatenate([rng.uniform(ymin, ymax, 300), Y.ravel(),
                         [ymin, ymin, ymax, ymax, 0.5 * (ymin + ymax), ymax]])
    np.testing.assert_array_equal(elevation_at(grid, xs, ys),
                                  bilinear_on_grid(grid.cells, grid.elevations, xs, ys))
    np.testing.assert_array_equal(elevation_at(grid, X, Y), grid.elevations)


def test_ground_at_matches_elevation_at():
    # the plain-float point query gives elevation_at's float exactly: at
    # random points, on the cell-center lines, at the centers and on the
    # hull's edges and corners
    rng = np.random.default_rng(5)
    grid = TerrainGrid(ncols=11, nrows=7, xllcorner=-13.7, yllcorner=402.3,
                       cell_size=3.3, nodata=-9999.0,
                       elevations=rng.uniform(-40, 900, size=(7, 11)))
    xmin, xmax, ymin, ymax = grid.extent
    xc, yc = grid.x_centers, grid.y_centers
    points = [(float(x), float(y)) for x, y in
              zip(rng.uniform(xmin, xmax, 400), rng.uniform(ymin, ymax, 400))]
    points += [(float(x), float(rng.uniform(ymin, ymax))) for x in xc]
    points += [(float(rng.uniform(xmin, xmax)), float(y)) for y in yc]
    points += [(float(x), float(y)) for x in xc for y in yc]
    points += [(x, y) for x in (xmin, xmax) for y in rng.uniform(ymin, ymax, 5)]
    points += [(x, y) for y in (ymin, ymax) for x in rng.uniform(xmin, xmax, 5)]
    points += [(x, y) for x in (xmin, xmax) for y in (ymin, ymax)]
    for x, y in points:
        got = ground_at(grid, float(x), float(y))
        assert type(got) is float
        assert got == elevation_at(grid, x, y), (x, y)


def test_ground_at_supported_by_nodata_raises():
    elev = np.full((10, 12), 100.0)
    elev[4, 6] = -9999.0  # center (65, 45)
    grid = TerrainGrid(ncols=12, nrows=10, xllcorner=0, yllcorner=0,
                       cell_size=10.0, nodata=-9999.0, elevations=elev)
    assert ground_at(grid, 50.0, 30.0) == 100.0
    with pytest.raises(TerrainError) as err:
        ground_at(grid, 60.0, 40.0)
    assert str(err.value) == "query point supported by a nodata cell"


def test_ground_under_matches_elevation_at_centers():
    # more than 2048 cells, so the ground is built in several row bands
    rng = np.random.default_rng(9)
    grid = TerrainGrid(ncols=80, nrows=70, xllcorner=-5.0, yllcorner=12.0,
                       cell_size=7.0, nodata=-9999.0,
                       elevations=rng.uniform(0, 500, size=(70, 80)))
    cells = GridSpec(x_origin=1.5, y_origin=18.0, cell_size=4.1, ncols=130, nrows=110)
    xs, ys = cells.center_mesh()
    np.testing.assert_array_equal(ground_under(grid, cells), elevation_at(grid, xs, ys))
    with pytest.raises(TerrainError) as err:
        ground_under(grid, GridSpec(x_origin=-20.0, y_origin=18.0, cell_size=4.1,
                                    ncols=5, nrows=5))
    assert "outside terrain extent" in str(err.value)
    elev = grid.elevations.copy()
    elev[40, 40] = grid.nodata
    with pytest.raises(TerrainError) as err:
        ground_under(dataclasses.replace(grid, elevations=elev), cells)
    assert str(err.value) == "query point supported by a nodata cell"


def test_elevation_outside_extent_raises():
    grid = flat_grid()
    with pytest.raises(TerrainError) as err:
        elevation_at(grid, -100.0, 50.0)
    assert str(err.value) == ("query point (-100, 50) outside terrain extent "
                              "(5.0, 115.0, 5.0, 95.0)")
    with pytest.raises(TerrainError) as err:
        elevation_at(grid, np.array([10.0, 1e6]), np.array([10.0, 10.0]))
    assert str(err.value) == ("query point (1e+06, 10) outside terrain extent "
                              "(5.0, 115.0, 5.0, 95.0)")


def test_elevation_supported_by_nodata_raises():
    elev = np.full((10, 12), 100.0)
    elev[4, 6] = -9999.0  # center (65, 45)
    grid = TerrainGrid(ncols=12, nrows=10, xllcorner=0, yllcorner=0,
                       cell_size=10.0, nodata=-9999.0, elevations=elev)
    assert elevation_at(grid, 50.0, 30.0) == 100.0
    for x, y in ((60.0, 40.0), (65.0, 45.0), (70.0, 50.0)):
        with pytest.raises(TerrainError) as err:
            elevation_at(grid, np.array([50.0, x]), np.array([30.0, y]))
        assert str(err.value) == "query point supported by a nodata cell"


def test_elevations_are_a_read_only_copy():
    # has_nodata and min_elevation are derived once; an in-place edit of
    # the caller's array or of the grid's must not leave them stale.
    elev = np.full((10, 12), 100.0)
    grid = TerrainGrid(ncols=12, nrows=10, xllcorner=0, yllcorner=0,
                       cell_size=10.0, nodata=-9999.0, elevations=elev)
    elev[4, 6] = -9999.0
    assert elevation_at(grid, 65.0, 45.0) == 100.0
    with pytest.raises(ValueError):
        grid.elevations[4, 6] = -9999.0
    assert not grid.has_nodata and grid.min_elevation == 100.0


def test_terrain_grid_is_frozen():
    # reassigning nodata would otherwise leave has_nodata stale
    elev = np.full((10, 12), 100.0)
    grid = TerrainGrid(ncols=12, nrows=10, xllcorner=0, yllcorner=0,
                       cell_size=10.0, nodata=-9999.0, elevations=elev)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.nodata = 100.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.elevations = np.zeros((10, 12))
    assert grid.nodata == -9999.0 and not grid.has_nodata
    assert elevation_at(grid, 65.0, 45.0) == 100.0


def test_line_of_sight_flat_always_clear():
    grid = flat_grid(100.0)
    assert line_of_sight(grid, (10.0, 10.0, 150.0), (110.0, 80.0, 140.0))


def test_line_of_sight_wall_blocks():
    grid = flat_grid(100.0, ncols=30, nrows=5, cell=10.0)
    elev = grid.elevations.copy()
    elev[:, 14] = 200.0  # wall at x ~ 145
    wall = TerrainGrid(ncols=30, nrows=5, xllcorner=0, yllcorner=0,
                       cell_size=10.0, nodata=-9999.0, elevations=elev)
    a = (50.0, 25.0, 150.0)
    b = (250.0, 25.0, 150.0)
    assert not line_of_sight(wall, a, b)
    # flying over the wall restores visibility
    assert line_of_sight(wall, (50.0, 25.0, 260.0), (250.0, 25.0, 260.0))


def test_line_of_sight_endpoint_on_ground_not_blocking():
    grid = flat_grid(100.0)
    # target on the ground: interior samples only, endpoint height ignored
    assert line_of_sight(grid, (20.0, 20.0, 150.0), (90.0, 60.0, 100.0))


def test_line_of_sight_matches_dense_oracle_outside_grazing_band():
    # Smooth ridge sweep. A dense sampling of the clearance along the
    # segment gives the true min margin; whenever |margin| exceeds the
    # worst-case excursion between default-step samples (slope bound
    # 1.71 times half the 2.5 m step, < 3 m here) the default verdict
    # must match the sign of the margin. Near-grazing cases are skipped.
    rng = np.random.default_rng(11)
    extra = np.random.default_rng(12)
    ncols, nrows, cell = 40, 30, 5.0
    X, Y = np.meshgrid((np.arange(ncols) + 0.5) * cell,
                       (np.arange(nrows) + 0.5) * cell)
    decided = 0
    for _ in range(40):
        ridge_x = rng.uniform(60, 120)
        width = rng.uniform(15, 30)
        height = rng.uniform(10, 30)
        elev = 50.0 + height * np.exp(-((X - ridge_x) / width) ** 2)
        grid = TerrainGrid(ncols=ncols, nrows=nrows, xllcorner=0, yllcorner=0,
                           cell_size=cell, nodata=-9999.0, elevations=elev)
        a = np.array([20.0, 40.0, rng.uniform(62, 95)])
        b = np.array([170.0, 100.0, rng.uniform(62, 95)])
        ts = np.linspace(0.0, 1.0, 4001)[1:-1]
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        margin = float(np.min(pts[:, 2] - elevation_at(grid, pts[:, 0], pts[:, 1])))
        verdict = line_of_sight(grid, tuple(a), tuple(b))
        # the batched verdicts over rays of many lengths equal the scalar ones
        targets = np.vstack([b, np.column_stack([extra.uniform(25, 190, 15),
                                                 extra.uniform(5, 145, 15),
                                                 extra.uniform(40, 95, 15)])])
        np.testing.assert_array_equal(
            clear_rays(grid, a, targets),
            [line_of_sight(grid, tuple(a), tuple(t)) for t in targets])
        if margin > 3.0:
            assert verdict
            decided += 1
        elif margin < -3.0:
            assert not verdict
            decided += 1
    assert decided >= 20  # the sweep must actually exercise both branches


def test_clear_rays_edge_cases():
    grid = flat_grid(100.0)
    origin = (20.0, 20.0, 150.0)
    # a ray shorter than the step has no interior sample, so it is clear
    # even with both ends under the ground
    np.testing.assert_array_equal(
        clear_rays(grid, (20.0, 20.0, 90.0), [(22.0, 21.0, 91.0)]), [True])
    # a target on the ground does not occlude itself
    np.testing.assert_array_equal(clear_rays(grid, origin, [(90.0, 60.0, 100.0)]), [True])
    np.testing.assert_array_equal(
        clear_rays(grid, origin, [(90.0, 60.0, 100.0), (90.0, 60.0, 20.0)]), [True, False])
    empty = clear_rays(grid, origin, np.empty((0, 3)))
    assert empty.shape == (0,) and empty.dtype == bool
    with pytest.raises(TerrainError):
        clear_rays(grid, origin, [(90.0, 60.0, 100.0)], step=0.0)
    with pytest.raises(TerrainError) as err:
        clear_rays(grid, origin, [(90.0, 60.0, 100.0), (200.0, 20.0, 100.0)])
    assert "outside terrain extent" in str(err.value)
