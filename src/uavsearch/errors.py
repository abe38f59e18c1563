"""Exception types shared across the package."""


class UavSearchError(Exception):
    """Base class for all errors raised by this package."""


class TerrainError(UavSearchError):
    """Bad elevation grid input or an invalid terrain query."""


class ScenarioError(UavSearchError):
    """Scenario file failed validation. Message carries the path to the bad key."""


class ControlLimitError(UavSearchError):
    """A control input violates a named vehicle bound."""


class MpcInfeasibleError(UavSearchError):
    """No feasible plan exists under the current constraints."""


class SolverError(UavSearchError):
    """Invalid potential-field parameters or a steering query outside the domain."""


class MissionError(UavSearchError):
    """A flight, mission or Monte Carlo value out of range (raised by
    FlightConfig, MissionConfig and MonteCarloConfig), a mission input
    found bad before the first step, or a failure during a run."""


class TilingError(UavSearchError):
    """Image or label input cannot be tiled as requested."""
