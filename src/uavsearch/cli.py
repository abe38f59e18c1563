"""Command-line front end.

Four subcommands:

* simulate  - run a mission scenario and write its artifacts
* validate  - run a mission while tracking synthetic targets
* tile      - plan overlapping tiles for an image, optionally remapping
              ground-truth label files per tile
* recall    - evaluate detection recall per ground-sampling-distance bin

Exit codes: 0 success; 2 for usage and input problems: any scenario
key or value that fails at load (validate's --targets and --seed are
monte_carlo overrides), including each flight's vehicle and camera
preset names, its zone subset and the first flight's start, unreadable
files, invalid tiling geometry; 1 for failures during a run, including
the mission checks that need the built flight domain (a start outside
it, terrain cover, the replan period).
Errors print as a single "uavsearch: error: ..." line on stderr.

Label files use the plain text-per-image convention: one box per line,
"category x_center y_center width height" normalized to the image, with
a trailing confidence column for detection files.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .errors import UavSearchError
from .exports import export_mission, export_validation, write_timing
from .mission import monte_carlo_validate, run_mission
from .scenario import load_scenario
from .tiling import (BoxLabel, Detection, ImageMeta, plan_tiles, recall_per_bin,
                     remap_labels, tile_name)

_INPUT_ERRORS_EXIT = 2
_RUNTIME_ERRORS_EXIT = 1


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _fail_input(message: str) -> _CliError:
    return _CliError(message, _INPUT_ERRORS_EXIT)


def _load_config(args, overrides=()) -> "MissionConfig":
    """Load the scenario with the --set overrides, then overrides."""
    try:
        return load_scenario(args.scenario, overrides=[*(args.set or []), *overrides])
    except (UavSearchError, OSError) as exc:
        raise _fail_input(str(exc)) from exc


def _out_dir(args, config) -> Path:
    if args.out:
        return Path(args.out)
    return Path(f"{config.mission_id}_out")


def _read_boxes(path: Path, n_fields: int, make) -> list:
    """Read lines of an integer category and n_fields - 1 floats, skipping
    blank and '#' lines, into make(category, *floats)."""
    out = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != n_fields:
            raise _fail_input(f"{path}:{ln}: expected {n_fields} fields, got {len(parts)}")
        try:
            out.append(make(int(parts[0]), *map(float, parts[1:])))
        except ValueError as exc:
            raise _fail_input(f"{path}:{ln}: {exc}") from exc
    return out


def read_labels(path: Path) -> list[BoxLabel]:
    """Read "category x y w h" lines (normalized box per line)."""
    return _read_boxes(path, 5, BoxLabel)


def read_detections(path: Path) -> list[Detection]:
    """Read "category x y w h confidence" lines."""
    return _read_boxes(path, 6, Detection)


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    started = time.perf_counter()
    try:
        report = run_mission(config)
        export_mission(report, out)
    except UavSearchError as exc:
        raise _CliError(str(exc), _RUNTIME_ERRORS_EXIT) from exc
    write_timing(out, time.perf_counter() - started)
    print(f"mission {report.mission_id}: accomplishment {report.final_eta:.4f} "
          f"after {report.times[-1]:.0f} s")
    for key, count in sorted(report.violations.items()):
        print(f"  {key} violations: {count}")
    print(f"  artifacts in {out}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args, [f"monte_carlo.{key}={value}"
                                 for key, value in (("targets", args.targets),
                                                    ("seed", args.seed))
                                 if value is not None])
    out = _out_dir(args, config)
    started = time.perf_counter()
    try:
        report = monte_carlo_validate(config)
        export_validation(report, out)
    except UavSearchError as exc:
        raise _CliError(str(exc), _RUNTIME_ERRORS_EXIT) from exc
    write_timing(out, time.perf_counter() - started)
    verdict = "inside" if report.within_band else "OUTSIDE"
    print(f"mission {report.mission.mission_id}: predicted {report.predicted[-1]:.4f}, "
          f"empirical {report.empirical[-1]:.4f} "
          f"({report.target_count} targets, seed {report.seed})")
    print(f"  empirical curve {verdict} the three-sigma band")
    print(f"  artifacts in {out}")
    return 0 if report.within_band else _RUNTIME_ERRORS_EXIT


def _cmd_tile(args) -> int:
    try:
        plan = plan_tiles(args.width, args.height, args.tile_width,
                          args.tile_height, args.overlap)
    except UavSearchError as exc:
        raise _fail_input(str(exc)) from exc
    labels = None
    if args.labels:
        if not args.out:
            raise _fail_input("--labels needs --out to write per-tile label files")
        try:
            labels = read_labels(Path(args.labels))
        except OSError as exc:
            raise _fail_input(str(exc)) from exc
    header = "name,row,col,x0,y0,width,height"
    lines = [header]
    for tile in plan.tiles:
        lines.append(f"{tile_name(args.image_id, tile)},{tile.row},{tile.col},"
                     f"{tile.x0},{tile.y0},{tile.width},{tile.height}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "plan.csv").write_text("\n".join(lines) + "\n")
        if labels is not None:
            for tile in plan.tiles:
                kept = remap_labels(labels, tile, plan.image_width,
                                    plan.image_height, args.min_visible)
                text = "".join(
                    f"{b.category} {b.x_center:.6f} {b.y_center:.6f} "
                    f"{b.width:.6f} {b.height:.6f}\n" for b in kept)
                (out / f"{tile_name(args.image_id, tile)}.txt").write_text(text)
        print(f"{plan.n_cols} x {plan.n_rows} tiles ({len(plan)} total) in {out}")
    else:
        print("\n".join(lines))
    return 0


def _cmd_recall(args) -> int:
    images_path = Path(args.images)
    try:
        lines = images_path.read_text().splitlines()
    except OSError as exc:
        raise _fail_input(str(exc)) from exc
    images = []
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#") or (ln == 1 and line.lower().startswith("image_id")):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise _fail_input(f"{images_path}:{ln}: expected image_id,gsd")
        try:
            images.append(ImageMeta(image_id=parts[0], gsd=float(parts[1])))
        except ValueError as exc:
            raise _fail_input(f"{images_path}:{ln}: {exc}") from exc
    truth_dir = Path(args.truth)
    det_dir = Path(args.detections)
    truths, detections = {}, {}
    for meta in images:
        truth_file = truth_dir / f"{meta.image_id}.txt"
        if not truth_file.exists():
            raise _fail_input(f"missing ground truth file {truth_file}")
        truths[meta.image_id] = read_labels(truth_file)
        det_file = det_dir / f"{meta.image_id}.txt"
        detections[meta.image_id] = read_detections(det_file) if det_file.exists() else []
    try:
        bins = recall_per_bin(images, truths, detections, args.iou,
                              args.confidence, args.bin_width)
    except UavSearchError as exc:
        raise _fail_input(str(exc)) from exc
    lines = ["gsd_low,gsd_high,total,detected,recall"]
    for b in bins:
        lines.append(f"{b.gsd_low:.1f},{b.gsd_high:.1f},{b.total},{b.detected},{b.recall:.6f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(bins)} bins to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavsearch",
        description="Terrain-aware probabilistic search mission simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a mission scenario")
    sim.add_argument("scenario", help="scenario JSON file")
    sim.add_argument("--out", help="output directory (default <mission_id>_out)")
    sim.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a scenario value by dotted path")
    sim.set_defaults(func=_cmd_simulate)

    val = sub.add_parser("validate", help="Monte Carlo check of the "
                                          "accomplishment prediction")
    val.add_argument("scenario", help="scenario JSON file")
    val.add_argument("--out", help="output directory (default <mission_id>_out)")
    val.add_argument("--targets", type=int, help="number of synthetic targets "
                                                  "(sets monte_carlo.targets)")
    val.add_argument("--seed", type=int, help="target seed (sets monte_carlo.seed)")
    val.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a scenario value by dotted path")
    val.set_defaults(func=_cmd_validate)

    til = sub.add_parser("tile", help="plan overlapping detector tiles")
    til.add_argument("--width", type=int, required=True, help="image width, px")
    til.add_argument("--height", type=int, required=True, help="image height, px")
    til.add_argument("--tile-width", type=int, default=512)
    til.add_argument("--tile-height", type=int, default=512)
    til.add_argument("--overlap", type=int, default=100, help="minimum overlap, px")
    til.add_argument("--image-id", default="image", help="stem for tile names")
    til.add_argument("--labels", help="label file to remap per tile")
    til.add_argument("--min-visible", type=float, default=0.3,
                     help="minimum visible area fraction to keep a label")
    til.add_argument("--out", help="directory for plan.csv and per-tile labels")
    til.set_defaults(func=_cmd_tile)

    rec = sub.add_parser("recall", help="recall per ground-sampling-distance bin")
    rec.add_argument("--images", required=True, help="CSV of image_id,gsd")
    rec.add_argument("--truth", required=True, help="directory of ground-truth label files")
    rec.add_argument("--detections", required=True, help="directory of detection files")
    rec.add_argument("--iou", type=float, default=0.7)
    rec.add_argument("--confidence", type=float, default=0.5)
    rec.add_argument("--bin-width", type=float, default=0.5)
    rec.add_argument("--out", help="output CSV (default stdout)")
    rec.set_defaults(func=_cmd_recall)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"uavsearch: error: {exc}", file=sys.stderr)
        return exc.code
    except (UavSearchError, OSError) as exc:
        print(f"uavsearch: error: {exc}", file=sys.stderr)
        return _RUNTIME_ERRORS_EXIT


if __name__ == "__main__":
    sys.exit(main())
