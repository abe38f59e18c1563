"""Coverage bookkeeping and the potential field that steers the search.

The field state tracks, per grid cell, the accumulated coverage (time
integral of the detection rate) and the density of still-undetected
targets, which decays as initial * exp(-coverage). Search accomplishment
is one minus the remaining probability mass.

Heading guidance comes from a screened-Poisson potential

    diffusion * laplacian(u) = damping * u - undetected

with zero normal derivative on the domain boundary, discretized with the
five-point stencil and mirrored ghost cells on the cell-centered grid.
On this rectangle the operator (damping * I - diffusion * L) is
diagonalised exactly by the 2-D DCT-II, so each solve is one forward
and one inverse transform with a division by the eigenvalues in
between: exact to rounding, with no tolerance and no state carried
from one solve to the next. Vehicles climb the interpolated gradient
of u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.fft import dctn, idctn
# Not called here: bench/tracer.py wraps this name to count Krylov iterations.
from scipy.sparse.linalg import minres  # noqa: F401

from .domain import DensityGrid, GridSpec, gradient_on_grid
from .errors import SolverError
from .sensing import (CameraModel, CameraPose, RecallTable, SensingParams,
                      detection_rate_footprint)
from .terrain import TerrainGrid


@dataclass(frozen=True)
class HedacParams:
    """Potential-field parameters.

    diffusion (m^2) sets how far influence spreads; damping (1/...) is
    the screening term that keeps the system definite. The screening
    length is sqrt(diffusion / damping).
    """

    diffusion: float = 1000.0
    damping: float = 1.0

    def __post_init__(self) -> None:
        if not self.diffusion > 0:
            raise SolverError("diffusion must be positive")
        if not self.damping > 0:
            raise SolverError("damping must be positive")


@dataclass
class FieldState:
    """Per-cell search state over the flight-domain grid."""

    grid: GridSpec
    initial: DensityGrid
    coverage: np.ndarray
    undetected: np.ndarray
    potential: np.ndarray

    @classmethod
    def from_density(cls, density: DensityGrid) -> "FieldState":
        return cls(
            grid=density.grid,
            initial=density,
            coverage=np.zeros(density.grid.shape),
            undetected=density.values.copy(),
            potential=np.zeros(density.grid.shape),
        )


def accumulate_coverage(state: FieldState, pose: CameraPose, camera: CameraModel,
                        grid: TerrainGrid, table: RecallTable,
                        params: SensingParams, dt: float, ground: np.ndarray) -> None:
    """Add dt seconds of sensing from a pose (rectangle rule).

    ground is the terrain elevation under every cell center of
    state.grid (terrain.ground_under). Coverage gains detection_rate * dt
    per visible cell; the undetected density is refreshed on the
    footprint block, the only cells whose coverage changes, to keep
    undetected = initial * exp(-coverage) exact.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    rows, cols, rates = detection_rate_footprint(
        pose, camera, grid, table, params, state.grid, ground)
    if rates.size:
        state.coverage[rows, cols] += rates * dt
        np.multiply(state.initial.values[rows, cols], np.exp(-state.coverage[rows, cols]),
                    out=state.undetected[rows, cols])


def accomplishment(state: FieldState) -> float:
    """Probability that a target of the initial density has been seen."""
    return 1.0 - float(state.undetected.sum()) * state.grid.cell_area


def neumann_laplacian(grid: GridSpec) -> sp.csr_matrix:
    """Five-point Laplacian with mirrored ghost cells, C-order flattened.

    Mirroring the ghost cell across each boundary face enforces a zero
    normal derivative there; the resulting matrix is symmetric negative
    semidefinite.
    """

    def second_difference(n: int) -> sp.csr_matrix:
        main = np.full(n, -2.0)
        main[0] += 1.0   # += so a one-cell axis, mirrored on both faces, is 0
        main[-1] += 1.0
        off = np.ones(n - 1)
        return sp.diags([off, main, off], [-1, 0, 1], format="csr")

    h2 = grid.cell_size ** 2
    tx = second_difference(grid.ncols)
    ty = second_difference(grid.nrows)
    ix = sp.identity(grid.ncols, format="csr")
    iy = sp.identity(grid.nrows, format="csr")
    return (sp.kron(iy, tx) + sp.kron(ty, ix)).tocsr() / h2


class PotentialSolver:
    """Exact screened-Poisson solve by the 2-D DCT-II.

    The DCT-II basis vectors are the eigenvectors of the second
    difference with mirrored ghost cells, with eigenvalues
    2 cos(pi k / n) - 2 per axis, so the operator's eigenvalue array is
    computed once and each solve divides by it in the transform domain.
    """

    def __init__(self, grid: GridSpec, params: HedacParams):
        h2 = grid.cell_size ** 2
        ev_rows = 2.0 * np.cos(np.pi * np.arange(grid.nrows) / grid.nrows) - 2.0
        ev_cols = 2.0 * np.cos(np.pi * np.arange(grid.ncols) / grid.ncols) - 2.0
        self.eigenvalues = params.damping - params.diffusion * (
            ev_rows[:, None] + ev_cols[None, :]) / h2

    def solve(self, source: np.ndarray) -> np.ndarray:
        """Potential u with (damping * I - diffusion * L) u = source."""
        spectrum = dctn(source, type=2, norm="ortho") / self.eigenvalues
        return idctn(spectrum, type=2, norm="ortho")

    def refresh(self, state: FieldState) -> None:
        state.potential = self.solve(state.undetected)


def solve_potential(state: FieldState, params: HedacParams) -> np.ndarray:
    """One-shot potential solve; updates and returns state.potential."""
    state.potential = PotentialSolver(state.grid, params).solve(state.undetected)
    return state.potential


def steering_gradient(state: FieldState, position) -> np.ndarray | None:
    """Unit ascent direction of the potential at an (x, y) position.

    The nodal gradient uses central differences (one-sided at the grid
    edge) and is interpolated bilinearly; positions in the outer
    half-cell ring clamp to the cell-center hull. Returns None when the
    gradient magnitude is below 1e-12, meaning the field is locally
    flat and the caller should hold its heading.
    """
    x, y = float(position[0]), float(position[1])
    xmin, xmax, ymin, ymax = state.grid.rect
    if not (xmin <= x <= xmax and ymin <= y <= ymax):
        raise SolverError(
            f"steering query ({x:g}, {y:g}) outside flight domain {state.grid.rect}")
    gx, gy = gradient_on_grid(state.grid, state.potential, x, y)
    norm = float(np.hypot(gx, gy))
    if norm < 1e-12:
        return None
    return np.array([gx / norm, gy / norm])
