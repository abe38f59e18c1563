import numpy as np
import pytest

from uavsearch import (DomainError, GridSpec, Zone, bilinear_on_grid,
                       build_flight_domain, build_initial_density,
                       points_in_polygon, polygon_area, zone_membership)
from uavsearch.domain import gradient_on_grid

SQUARE = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
# L shape: 1020x10 foot strip plus a 650x650 upright on the left
L_SHAPE = np.array([[0.0, 0.0], [1020.0, 0.0], [1020.0, 10.0],
                    [650.0, 10.0], [650.0, 660.0], [0.0, 660.0]])


def test_polygon_area():
    assert polygon_area(SQUARE) == 100.0
    tri = np.array([[0, 0], [4, 0], [0, 3]])
    assert polygon_area(tri) == 6.0
    assert polygon_area(tri[::-1]) == 6.0  # orientation-independent
    assert polygon_area(L_SHAPE) == 650.0 * 660.0 + 370.0 * 10.0


def test_zone_validation():
    Zone("ok", SQUARE, 5)
    with pytest.raises(DomainError):
        Zone("few", SQUARE[:2], 5)
    with pytest.raises(DomainError):
        Zone("neg", SQUARE, -1)
    bowtie = np.array([[0, 0], [10, 10], [10, 0], [0, 10]])
    with pytest.raises(DomainError):
        Zone("twist", bowtie, 5)
    line = np.array([[0, 0], [5, 0], [10, 0]])
    with pytest.raises(DomainError):
        Zone("flat", line, 5)


def test_points_in_polygon_square():
    assert points_in_polygon(SQUARE, 5.0, 5.0) is True
    assert points_in_polygon(SQUARE, 15.0, 5.0) is False
    # boundary, corners and edges included
    for p in [(0.0, 0.0), (10.0, 10.0), (10.0, 3.0), (4.0, 0.0)]:
        assert points_in_polygon(SQUARE, *p)
    assert not points_in_polygon(SQUARE, 10.001, 5.0)


def test_points_in_polygon_concave():
    inside = [(5.0, 5.0), (1000.0, 5.0), (300.0, 400.0), (649.0, 650.0)]
    outside = [(700.0, 20.0), (1000.0, 11.0), (651.0, 300.0), (-1.0, 5.0)]
    for p in inside:
        assert points_in_polygon(L_SHAPE, *p), p
    for p in outside:
        assert not points_in_polygon(L_SHAPE, *p), p


def test_points_in_polygon_matches_crossing_oracle():
    # independent even-odd oracle, scalar loop over edges
    def oracle(poly, px, py):
        n = len(poly)
        hit = False
        for k in range(n):
            x1, y1 = poly[k]
            x2, y2 = poly[(k + 1) % n]
            if (y1 > py) != (y2 > py):
                xc = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
                if px < xc:
                    hit = not hit
        return hit

    rng = np.random.default_rng(5)
    pent = np.array([[2.0, 0.0], [9.0, 3.0], [7.0, 9.5], [1.0, 8.0], [-2.0, 3.0]])
    for poly in (SQUARE, L_SHAPE, pent):
        lo = poly.min(axis=0) - 5
        hi = poly.max(axis=0) + 5
        xs = rng.uniform(lo[0], hi[0], 500)
        ys = rng.uniform(lo[1], hi[1], 500)
        got = points_in_polygon(poly, xs, ys)
        want = np.array([oracle(poly, x, y) for x, y in zip(xs, ys)])
        # random points are never on the boundary, so the eps band is moot
        np.testing.assert_array_equal(got, want)


def test_points_in_polygon_shapes():
    xs = np.array([[5.0, 15.0], [5.0, 5.0]])
    got = points_in_polygon(SQUARE, xs, 5.0)
    assert got.shape == (2, 2)
    assert got.tolist() == [[True, False], [True, True]]


def test_grid_spec_indexing():
    g = GridSpec(x_origin=100.0, y_origin=50.0, cell_size=10.0, ncols=4, nrows=3)
    assert g.shape == (3, 4)
    assert g.cell_area == 100.0
    assert g.rect == (100.0, 140.0, 50.0, 80.0)
    assert g.cell_index(100.0, 50.0) == (0, 0)
    assert g.cell_index(139.999, 79.999) == (2, 3)
    # outer east/north edges map to the last cell
    assert g.cell_index(140.0, 80.0) == (2, 3)
    assert g.cell_index(110.0, 50.0) == (0, 1)
    with pytest.raises(DomainError):
        g.cell_index(140.01, 50.0)
    np.testing.assert_allclose(g.x_centers, [105.0, 115.0, 125.0, 135.0])


def test_grid_spec_window_matches_center_distances():
    g = GridSpec(x_origin=-35.0, y_origin=20.0, cell_size=7.5, ncols=23, nrows=17)
    rng = np.random.default_rng(4)
    for x, y, reach in zip(rng.uniform(-80, 200, 300), rng.uniform(-30, 200, 300),
                           rng.uniform(0, 90, 300)):
        rows, cols = g.window(x, y, reach)
        assert np.array_equal(np.arange(g.nrows)[rows],
                              np.flatnonzero(np.abs(g.y_centers - y) <= reach))
        assert np.array_equal(np.arange(g.ncols)[cols],
                              np.flatnonzero(np.abs(g.x_centers - x) <= reach))
    # centers exactly at reach are inside
    assert g.window(g.x_centers[5], g.y_centers[3], 7.5) == (slice(2, 5), slice(4, 7))


def test_build_flight_domain_offset_and_rounding():
    zone = Zone("a", SQUARE, 5)
    dom = build_flight_domain([zone], offset=75.0, cell_size=10.0)
    xmin, xmax, ymin, ymax = dom.grid.rect
    # bbox [-75, 85] both axes: span 160 = exactly 16 cells, no ghost cell
    assert (xmin, ymin) == (-75.0, -75.0)
    assert (xmax, ymax) == (85.0, 85.0)
    assert dom.grid.shape == (16, 16)
    assert dom.center == (5.0, 5.0)
    # a non-multiple span rounds the cell count up
    dom2 = build_flight_domain([zone], offset=73.0, cell_size=10.0)
    assert dom2.grid.shape == (16, 16)
    assert dom2.grid.rect[1] == pytest.approx(-73.0 + 160.0)
    with pytest.raises(DomainError):
        build_flight_domain([], offset=75.0)
    with pytest.raises(DomainError):
        build_flight_domain([zone], offset=-1.0)


def test_zone_membership_and_overlap():
    a = Zone("a", SQUARE, 5)
    b = Zone("b", SQUARE + [20.0, 0.0], 5)
    g = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=5.0, ncols=6, nrows=2)
    owner = zone_membership([a, b], g)
    assert owner.shape == (2, 6)
    assert owner[0, 0] == 0 and owner[0, 1] == 0
    assert owner[0, 2] == -1 and owner[0, 3] == -1
    assert owner[0, 4] == 1 and owner[0, 5] == 1
    clash = Zone("c", SQUARE + [5.0, 0.0], 5)
    with pytest.raises(DomainError) as err:
        zone_membership([a, clash], g)
    assert "'a'" in str(err.value) and "'c'" in str(err.value)


def test_initial_density_masses_and_integral():
    a = Zone("a", SQUARE, 30)               # 4 cells at cell 5
    b = Zone("b", SQUARE + [20.0, 0.0], 10)  # 4 cells
    g = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=5.0, ncols=6, nrows=2)
    density = build_initial_density([a, b], g, total_people=40)
    assert density.integral() == pytest.approx(1.0, abs=1e-12)
    # zone a holds 3/4 of the mass over 4 cells of 25 m^2
    assert density.values[0, 0] == pytest.approx(0.75 / (4 * 25.0))
    assert density.values[0, 4] == pytest.approx(0.25 / (4 * 25.0))
    assert density.values[0, 2] == 0.0
    with pytest.raises(DomainError):
        build_initial_density([a, b], g, total_people=41)


def test_initial_density_concave_zone_value():
    # grid centers at 5, 15, ... so no center touches the L boundary:
    # 65x66 cell block plus a 37-cell strip = 4327 cells at 10 m cells
    zone = Zone("L", L_SHAPE, 25)
    other = Zone("far", SQUARE + [900.0, 300.0], 53)
    grid = GridSpec(x_origin=-50.0, y_origin=-50.0, cell_size=10.0,
                    ncols=110, nrows=75)
    density = build_initial_density([zone, other], grid, total_people=78)
    owner = zone_membership([zone, other], grid)
    assert int((owner == 0).sum()) == 4327
    value = density.values[owner == 0]
    assert np.all(value == value[0])
    assert value[0] == pytest.approx((25.0 / 78.0) / (4327 * 100.0), rel=1e-12)
    assert abs(value[0] - 7.41e-7) < 5e-10
    assert density.integral() == pytest.approx(1.0, abs=1e-12)
    # the single-cell square zone holds its whole share in one cell
    assert int((owner == 1).sum()) == 1
    assert density.values[owner == 1][0] == pytest.approx((53.0 / 78.0) / 100.0)


def test_density_requires_cell_coverage():
    tiny = Zone("tiny", np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]), 3)
    g = GridSpec(x_origin=-50.0, y_origin=-50.0, cell_size=10.0, ncols=10, nrows=10)
    with pytest.raises(DomainError) as err:
        build_initial_density([tiny], g, total_people=3)
    assert "tiny" in str(err.value)


def test_bilinear_on_grid_linear_field_and_clamping():
    g = GridSpec(x_origin=0.0, y_origin=0.0, cell_size=2.0, ncols=12, nrows=9)
    X, Y = g.center_mesh()
    values = 3.0 + 0.5 * X - 0.25 * Y
    rng = np.random.default_rng(8)
    xs = rng.uniform(1.0, 23.0, 300)  # inside the center hull
    ys = rng.uniform(1.0, 17.0, 300)
    got = bilinear_on_grid(g, values, xs, ys)
    np.testing.assert_allclose(got, 3.0 + 0.5 * xs - 0.25 * ys, atol=1e-9)
    # outside the hull the field continues as a constant
    left = bilinear_on_grid(g, values, -100.0, 9.0)
    assert left == pytest.approx(bilinear_on_grid(g, values, 1.0, 9.0))
    corner = bilinear_on_grid(g, values, 1e6, -1e6)
    assert corner == pytest.approx(float(values[0, -1]))


def test_gradient_on_grid_matches_interpolated_full_gradient():
    # the four-node plain-float gradient equals bilinear_on_grid of
    # np.gradient bit for bit: at random points, on the cell-center
    # lines, at the centers, on the edges and in the outer half-cell ring
    rng = np.random.default_rng(17)
    for ncols, nrows in ((9, 6), (2, 5), (1, 4), (7, 1)):
        g = GridSpec(x_origin=float(rng.uniform(-80, 80)), y_origin=float(rng.uniform(-80, 80)),
                     cell_size=float(rng.uniform(1.5, 30.0)), ncols=ncols, nrows=nrows)
        values = rng.normal(size=g.shape)
        # np.gradient needs two points; an axis of one cell has none
        grad_y, grad_x = (np.gradient(values, g.cell_size, axis=axis) if g.shape[axis] > 1
                          else np.zeros(g.shape) for axis in (0, 1))
        xmin, xmax, ymin, ymax = g.rect
        xs = [float(x) for x in rng.uniform(xmin, xmax, 60)] + [float(x) for x in g.x_centers]
        ys = [float(y) for y in rng.uniform(ymin, ymax, 60)] + [float(y) for y in g.y_centers]
        points = list(zip(xs, ys))
        points += [(x, float(rng.uniform(ymin, ymax))) for x in g.x_centers]
        points += [(float(rng.uniform(xmin, xmax)), y) for y in g.y_centers]
        points += [(x, y) for x in (xmin, xmax) for y in (ymin, ymax)]
        for x, y in points:
            gx, gy = gradient_on_grid(g, values, float(x), float(y))
            assert gx == bilinear_on_grid(g, grad_x, x, y), (ncols, nrows, x, y)
            assert gy == bilinear_on_grid(g, grad_y, x, y), (ncols, nrows, x, y)
