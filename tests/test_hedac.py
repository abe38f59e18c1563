import numpy as np
import pytest
import scipy.sparse as sp

from uavsearch import (CAMERA_PRESETS, CameraPose, DensityGrid, FieldState,
                       GridSpec, HedacParams, PotentialSolver, SensingParams,
                       SolverError, TerrainGrid, accomplishment,
                       accumulate_coverage, default_recall_table,
                       bilinear_on_grid, ground_under, neumann_laplacian,
                       steering_gradient)


def small_grid(ncols=7, nrows=5, cell=10.0):
    return GridSpec(x_origin=0.0, y_origin=0.0, cell_size=cell,
                    ncols=ncols, nrows=nrows)


def uniform_state(grid, value=1e-4):
    density = DensityGrid(grid=grid, values=np.full(grid.shape, value))
    return FieldState.from_density(density)


def dense_laplacian(grid):
    # independent dense assembly: loop cells, mirror across each face
    n = grid.ncols * grid.nrows
    A = np.zeros((n, n))
    def flat(r, c):
        return r * grid.ncols + c
    for r in range(grid.nrows):
        for c in range(grid.ncols):
            i = flat(r, c)
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= rr < grid.nrows and 0 <= cc < grid.ncols:
                    A[i, flat(rr, cc)] += 1.0
                    A[i, i] -= 1.0
                # mirrored ghost: neighbor equals the cell itself, no term
    return A / grid.cell_size ** 2


def assembled_operator(grid, params):
    """The assembled screened-Poisson operator, the oracle for the solver."""
    n = grid.ncols * grid.nrows
    return (params.damping * sp.identity(n, format="csr")
            - params.diffusion * neumann_laplacian(grid)).tocsr()


def test_params_validation():
    with pytest.raises(SolverError):
        HedacParams(diffusion=0.0)
    with pytest.raises(SolverError):
        HedacParams(damping=-1.0)


def test_neumann_laplacian_matches_dense_stencil():
    # one-cell axes included: their single cell mirrors across both faces
    for ncols, nrows in ((6, 4), (1, 5), (5, 1), (1, 1)):
        grid = small_grid(ncols, nrows, cell=3.0)
        L = neumann_laplacian(grid).toarray()
        np.testing.assert_allclose(L, dense_laplacian(grid), atol=1e-13)
        # zero normal derivative conserves constants: rows sum to zero
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(L, L.T, atol=1e-13)


def test_system_matrix_is_spd():
    grid = small_grid(6, 5, cell=10.0)
    params = HedacParams(diffusion=500.0, damping=2.0)
    A = assembled_operator(grid, params).toarray()
    np.testing.assert_allclose(A, A.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= 2.0 - 1e-9  # damping is the smallest eigenvalue
    # the solver divides by exactly these eigenvalues
    solver = PotentialSolver(grid, params)
    np.testing.assert_allclose(np.sort(solver.eigenvalues.ravel()), eigs,
                               rtol=1e-12, atol=1e-12)


def test_solver_matches_dense_solution():
    rng = np.random.default_rng(12)
    for trial in range(8):
        ncols = int(rng.integers(4, 12))
        nrows = int(rng.integers(4, 10))
        cell = float(rng.uniform(5.0, 25.0))
        grid = small_grid(ncols, nrows, cell)
        params = HedacParams(diffusion=float(rng.uniform(100, 5000)),
                             damping=float(rng.uniform(0.5, 3.0)))
        solver = PotentialSolver(grid, params)
        source = rng.uniform(0.0, 1.0, size=grid.shape)
        dense = np.linalg.solve(assembled_operator(grid, params).toarray(), source.ravel())
        got = solver.solve(source)
        np.testing.assert_allclose(got.ravel(), dense, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("ncols, nrows", [(147, 49), (1, 30), (30, 1), (1, 1)])
def test_solver_residual_at_rounding_level(ncols, nrows):
    # mission1's grid and diffusion, and the degenerate one-cell axes
    grid = small_grid(ncols, nrows, cell=20.0)
    params = HedacParams(diffusion=50000.0, damping=1.0)
    source = np.random.default_rng(ncols * 1000 + nrows).uniform(0.0, 1.0, grid.shape)
    u = PotentialSolver(grid, params).solve(source)
    assert u.shape == grid.shape
    b = source.ravel()
    residual = (np.linalg.norm(b - assembled_operator(grid, params) @ u.ravel())
                / np.linalg.norm(b))
    assert residual <= 1e-12


def test_solver_zero_source_and_uniform_source():
    grid = small_grid()
    params = HedacParams(diffusion=1000.0, damping=0.5)
    solver = PotentialSolver(grid, params)
    np.testing.assert_array_equal(solver.solve(np.zeros(grid.shape)), 0.0)
    # constant source: laplacian term vanishes, u = source / damping
    u = solver.solve(np.full(grid.shape, 3.0))
    np.testing.assert_allclose(u, 3.0 / 0.5, rtol=1e-7)


def test_one_shot_solve_updates_state():
    grid = small_grid()
    state = uniform_state(grid)
    solver = PotentialSolver(grid, HedacParams())
    solver.refresh(state)
    np.testing.assert_array_equal(state.potential, solver.solve(state.undetected))
    assert np.all(state.potential > 0)


def flat_terrain():
    return TerrainGrid(ncols=30, nrows=30, xllcorner=-100.0, yllcorner=-100.0,
                       cell_size=10.0, nodata=-9999.0,
                       elevations=np.zeros((30, 30)))


def test_accumulate_coverage_exponential_decay():
    # hovering: m(t) = m0 exp(-rate t), accomplishment follows suit
    grid = small_grid(10, 10, cell=10.0)
    state = uniform_state(grid, value=1e-4)
    terrain = flat_terrain()
    cam = CAMERA_PRESETS["X5S"]
    table = default_recall_table()
    params = SensingParams()
    pose = CameraPose(x=50.0, y=50.0, z=55.0, yaw=0.3)
    from uavsearch import detection_rate
    rate00 = detection_rate(pose, (45.0, 45.0), cam, terrain, table, params)
    assert rate00 > 0
    ground = ground_under(terrain, grid)
    for _ in range(100):
        accumulate_coverage(state, pose, cam, terrain, table, params, dt=1.0,
                            ground=ground)
    r, c = grid.cell_index(45.0, 45.0)
    assert state.coverage[r, c] == pytest.approx(100.0 * rate00, rel=1e-12)
    want = 1e-4 * np.exp(-100.0 * rate00)
    assert state.undetected[r, c] == pytest.approx(want, rel=1e-12)


def test_accomplishment_monotone_under_random_sensing():
    rng = np.random.default_rng(14)
    grid = small_grid(12, 12, cell=10.0)
    state = uniform_state(grid, value=1.0 / (144 * 100.0))
    assert accomplishment(state) == pytest.approx(0.0, abs=1e-12)
    terrain = flat_terrain()
    cam = CAMERA_PRESETS["Z30"]
    table = default_recall_table()
    params = SensingParams()
    previous = 0.0
    ground = ground_under(terrain, grid)
    for _ in range(60):
        pose = CameraPose(x=rng.uniform(0, 120), y=rng.uniform(0, 120),
                          z=rng.uniform(40, 90), yaw=rng.uniform(-np.pi, np.pi))
        accumulate_coverage(state, pose, cam, terrain, table, params,
                            dt=float(rng.uniform(0.2, 2.0)), ground=ground)
        eta = accomplishment(state)
        assert eta >= previous
        assert eta <= 1.0
        previous = eta
    assert previous > 0.0
    # refreshing only the footprint blocks keeps every cell exact
    np.testing.assert_array_equal(
        state.undetected, state.initial.values * np.exp(-state.coverage))


def test_accumulate_rejects_negative_dt():
    grid = small_grid()
    state = uniform_state(grid)
    pose = CameraPose(0.0, 0.0, 50.0, 0.0)
    with pytest.raises(ValueError):
        accumulate_coverage(state, pose, CAMERA_PRESETS["X5S"], flat_terrain(),
                            default_recall_table(), SensingParams(), dt=-0.1,
                            ground=ground_under(flat_terrain(), grid))


def test_steering_gradient_points_uphill():
    grid = small_grid(20, 20, cell=5.0)
    state = uniform_state(grid)
    X, Y = grid.center_mesh()
    # analytic field rising toward +x twice as fast as +y
    state.potential = 2.0 * X + 1.0 * Y
    d = steering_gradient(state, (50.0, 50.0))
    np.testing.assert_allclose(d, np.array([2.0, 1.0]) / np.sqrt(5.0), atol=1e-9)
    assert np.linalg.norm(d) == pytest.approx(1.0)


def test_steering_gradient_flat_field_and_domain_check():
    grid = small_grid()
    state = uniform_state(grid)
    state.potential = np.full(grid.shape, 7.0)
    assert steering_gradient(state, (30.0, 30.0)) is None
    with pytest.raises(SolverError):
        steering_gradient(state, (1e4, 30.0))


def test_steering_gradient_matches_full_grid_gradient():
    # the local differences reproduce np.gradient over the whole field,
    # inside, on the edges and in the outer half-cell ring
    rng = np.random.default_rng(21)
    for trial in range(40):
        grid = GridSpec(x_origin=float(rng.uniform(-50, 50)),
                        y_origin=float(rng.uniform(-50, 50)),
                        cell_size=float(rng.uniform(2.0, 25.0)),
                        ncols=int(rng.integers(2, 12)), nrows=int(rng.integers(2, 12)))
        state = uniform_state(grid)
        state.potential = rng.normal(size=grid.shape)
        grad_y, grad_x = np.gradient(state.potential, grid.cell_size)
        xmin, xmax, ymin, ymax = grid.rect
        h = grid.cell_size
        xs = np.concatenate([rng.uniform(xmin, xmax, 10),
                             [xmin, xmax, xmin + 0.2 * h, xmax - 0.2 * h, xmin + 0.5 * h]])
        ys = np.concatenate([rng.uniform(ymin, ymax, 10),
                             [ymax, ymin, ymax - 0.3 * h, ymin + 0.4 * h, ymax - 0.5 * h]])
        for x, y in zip(xs, ys):
            gx = bilinear_on_grid(grid, grad_x, x, y)
            gy = bilinear_on_grid(grid, grad_y, x, y)
            norm = float(np.hypot(gx, gy))
            want = None if norm < 1e-12 else np.array([gx / norm, gy / norm])
            got = steering_gradient(state, (x, y))
            np.testing.assert_array_equal(got, want)
    # a one-cell axis has no gradient along it
    grid = small_grid(6, 1)
    state = uniform_state(grid)
    state.potential = np.arange(6.0)[None, :]
    np.testing.assert_array_equal(steering_gradient(state, (25.0, 5.0)), [1.0, 0.0])
