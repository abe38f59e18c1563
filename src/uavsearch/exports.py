"""Deterministic artifact writers for mission and validation runs.

Every file written here is a pure function of the run results: floats
are rendered with repr (shortest round-trip form), JSON keys are
sorted, and grids are dumped in a fixed row order. Wall-clock runtime,
the one genuinely non-reproducible quantity, goes into its own
timing.txt so the rest of an output directory can be compared byte for
byte across reruns.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .domain import GridSpec
from .mission import FlightLog, MissionReport, ValidationReport

TIMING_FILE = "timing.txt"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if value != value:
        return ""
    return repr(value)


def csv_text(header, rows) -> str:
    """A header line, then one line per row with floats in repr form."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path: Path, header: list[str], rows) -> None:
    Path(path).write_text(csv_text(header, rows))


def _grid_geometry(grid: GridSpec) -> dict:
    """The GridSpec fields that define grid, by name."""
    return {f.name: getattr(grid, f.name) for f in fields(GridSpec) if f.init}


def write_grid_pgm(grid: GridSpec, values: np.ndarray, path: Path,
                   maxval: int = 65535) -> None:
    """ASCII PGM (P2) of a cell grid, north row first, plus a JSON
    sidecar carrying the grid geometry and the value scale."""
    path = Path(path)
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
    peak = float(values.max()) if values.size else 0.0
    if peak > 0:
        quantized = np.rint(values / peak * maxval).astype(int)
    else:
        quantized = np.zeros_like(values, dtype=int)
    top_first = np.flipud(quantized)
    lines = ["P2", f"{grid.ncols} {grid.nrows}", str(maxval)]
    lines.extend(" ".join(str(v) for v in row) for row in top_first)
    path.write_text("\n".join(lines) + "\n")
    sidecar = {**_grid_geometry(grid), "value_peak": peak, "maxval": maxval,
               "row_order": "north_first"}
    path.with_suffix(".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def _flight_summary(log: FlightLog) -> dict:
    arrays = log.as_arrays()
    return {
        "flight_index": log.flight_index,
        "uav": log.uav,
        "camera": log.camera,
        "duration_s": float(arrays["t"][-1]),
        "final_accomplishment": float(arrays["accomplishment"][-1]),
        "violations": log.violation_counts(),
        "max_speed": float(arrays["speed"].max()),
        "rows": len(log.rows),
    }


def mission_summary(report: MissionReport) -> dict:
    return {
        "mission_id": report.mission_id,
        "final_accomplishment": report.final_eta,
        "duration_s": float(report.times[-1]),
        "flights": [_flight_summary(log) for log in report.logs],
        "violations": report.violations,
        "clamp_events": report.clamp_events,
        "domain": _grid_geometry(report.field.grid),
    }


def _export_mission(report: MissionReport, out: Path, summary: dict) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    grid = report.field.grid
    written = []

    def record(path: Path) -> Path:
        written.append(path)
        return path

    for log in report.logs:
        write_csv(record(out / f"flight_{log.flight_index}_log.csv"), list(log.columns),
                  log.rows)
    write_csv(record(out / "accomplishment.csv"), ["t", "accomplishment"],
              zip(report.times, report.eta))
    write_grid_pgm(grid, report.field.coverage,
                   record(out / "coverage.pgm"))
    written.append(out / "coverage.json")
    write_grid_pgm(grid, report.field.undetected,
                   record(out / "undetected.pgm"))
    written.append(out / "undetected.json")
    (record(out / "summary.json")).write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return written


def export_mission(report: MissionReport, out_dir: Path) -> list[Path]:
    """Write all mission artifacts; returns the paths written."""
    return _export_mission(report, Path(out_dir), mission_summary(report))


def export_validation(report: ValidationReport, out_dir: Path) -> list[Path]:
    """Write the mission artifacts, summary.json with the validation
    outcome, validation.csv and targets.csv; returns the paths written."""
    out = Path(out_dir)
    summary = mission_summary(report.mission)
    summary["validation"] = {
        "targets": report.target_count,
        "seed": report.seed,
        "detected": sum(1 for t in report.targets if t.detect_time is not None),
        "empirical_final": float(report.empirical[-1]),
        "predicted_final": float(report.predicted[-1]),
        "within_band": report.within_band,
    }
    written = _export_mission(report.mission, out, summary)
    write_csv(out / "validation.csv", ["t", "predicted", "empirical", "band_low", "band_high"],
              zip(report.times, report.predicted, report.empirical,
                  report.band_low, report.band_high))
    write_csv(out / "targets.csv", ["index", "x", "y", "row", "col", "threshold", "detect_time"],
              ((i, t.x, t.y, t.row, t.col, t.threshold,
                float("nan") if t.detect_time is None else t.detect_time)
               for i, t in enumerate(report.targets)))
    written += [out / "validation.csv", out / "targets.csv"]
    return written


def write_timing(out_dir: Path, runtime_s: float) -> Path:
    """Wall-clock runtime, kept out of the deterministic artifact set."""
    path = Path(out_dir) / TIMING_FILE
    path.write_text(f"runtime_s {runtime_s:.3f}\n")
    return path
