"""Image tiling for detector input and recall evaluation per GSD bin.

Large aerial frames are cut into fixed-size overlapping tiles so a
detector sees objects at a workable scale. Tile counts per axis come
from ceil((extent - overlap) / (tile - overlap)), the smallest number
of tiles that can cover the extent while adjacent tiles share at least
the requested overlap; the tiles are then spread evenly, so the actual
overlaps come out at or above the requested value.

Ground-truth boxes are remapped into each tile and kept when at least a
configurable fraction of the original box area stays visible.

Recall is evaluated per ground-sampling-distance bin: images are
grouped into half-open GSD bins of fixed width and detections are
greedily matched to ground truth by descending confidence with an IoU
threshold. Sorting both sides canonically first makes the result
independent of input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TilingError


@dataclass(frozen=True)
class TileRect:
    """One tile in pixel coordinates, x right, y down, origin top-left."""

    row: int
    col: int
    x0: int
    y0: int
    width: int
    height: int

    @property
    def x1(self) -> int:
        return self.x0 + self.width

    @property
    def y1(self) -> int:
        return self.y0 + self.height


@dataclass(frozen=True)
class TilingPlan:
    image_width: int
    image_height: int
    tile_width: int
    tile_height: int
    overlap: int
    n_cols: int
    n_rows: int
    tiles: tuple[TileRect, ...]

    def __len__(self) -> int:
        return len(self.tiles)


def axis_offsets(extent: int, tile: int, overlap: int) -> list[int]:
    """Evenly spread tile offsets along one axis.

    The tile count is the smallest n with n*tile - (n-1)*overlap >=
    extent; offsets are then placed uniformly between 0 and
    extent - tile and rounded to whole pixels.
    """
    if extent < 1 or tile < 1:
        raise TilingError("extent and tile size must be positive")
    if overlap < 0 or overlap >= tile:
        raise TilingError(f"overlap must be in [0, tile), got {overlap} for tile {tile}")
    if tile > extent:
        raise TilingError(f"tile size {tile} exceeds image extent {extent}")
    if tile == extent:
        return [0]
    n = math.ceil((extent - overlap) / (tile - overlap))
    if n == 1:
        return [0]
    span = extent - tile
    return [round(i * span / (n - 1)) for i in range(n)]


def plan_tiles(image_width: int, image_height: int, tile_width: int = 512,
               tile_height: int = 512, overlap: int = 100) -> TilingPlan:
    """Lay out overlapping tiles covering the whole image."""
    xs = axis_offsets(image_width, tile_width, overlap)
    ys = axis_offsets(image_height, tile_height, overlap)
    tiles = tuple(
        TileRect(row=r, col=c, x0=x, y0=y, width=tile_width, height=tile_height)
        for r, y in enumerate(ys) for c, x in enumerate(xs))
    return TilingPlan(image_width=image_width, image_height=image_height,
                      tile_width=tile_width, tile_height=tile_height,
                      overlap=overlap, n_cols=len(xs), n_rows=len(ys),
                      tiles=tiles)


def tile_name(image_id: str, tile: TileRect) -> str:
    return f"{image_id}_r{tile.row}_c{tile.col}"


@dataclass(frozen=True)
class BoxLabel:
    """Axis-aligned box, center/size normalized to the image it is on."""

    category: int
    x_center: float
    y_center: float
    width: float
    height: float

    def corners(self) -> tuple[float, float, float, float]:
        hw, hh = 0.5 * self.width, 0.5 * self.height
        return (self.x_center - hw, self.y_center - hh,
                self.x_center + hw, self.y_center + hh)


@dataclass(frozen=True)
class Detection(BoxLabel):
    """A detector's box with its confidence score."""

    confidence: float


def remap_labels(labels: list[BoxLabel], tile: TileRect, image_width: int,
                 image_height: int, min_visible: float = 0.3) -> list[BoxLabel]:
    """Clip image-space labels to a tile and renormalize to tile coords.

    A label survives when the clipped area is at least min_visible of
    the original box area.
    """
    if not 0.0 < min_visible <= 1.0:
        raise TilingError(f"min_visible must be in (0, 1], got {min_visible:g}")
    out = []
    for label in labels:
        lx0, ly0, lx1, ly1 = label.corners()
        # label corners in absolute pixels
        ax0, ay0 = lx0 * image_width, ly0 * image_height
        ax1, ay1 = lx1 * image_width, ly1 * image_height
        area = (ax1 - ax0) * (ay1 - ay0)
        if area <= 0:
            continue
        cx0, cy0 = max(ax0, tile.x0), max(ay0, tile.y0)
        cx1, cy1 = min(ax1, tile.x1), min(ay1, tile.y1)
        if cx1 <= cx0 or cy1 <= cy0:
            continue
        if (cx1 - cx0) * (cy1 - cy0) < min_visible * area:
            continue
        out.append(BoxLabel(
            category=label.category,
            x_center=(0.5 * (cx0 + cx1) - tile.x0) / tile.width,
            y_center=(0.5 * (cy0 + cy1) - tile.y0) / tile.height,
            width=(cx1 - cx0) / tile.width,
            height=(cy1 - cy0) / tile.height))
    return out


def iou(a, b) -> float:
    """Intersection over union of two center/size boxes.

    Both boxes must be normalized to the same frame; uniform scaling
    cancels out of the ratio.
    """
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    if union <= 0:
        return 0.0
    return inter / union


def gsd_bin(gsd_value: float, bin_width: float = 0.5) -> int:
    """Index of the half-open GSD bin [i*w, (i+1)*w) containing the value."""
    if gsd_value < 0 or not math.isfinite(gsd_value):
        raise TilingError(f"GSD must be finite and non-negative, got {gsd_value!r}")
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise TilingError(f"bin width must be finite and positive, got {bin_width!r}")
    return int(math.floor(gsd_value / bin_width))


@dataclass(frozen=True)
class ImageMeta:
    image_id: str
    gsd: float


@dataclass(frozen=True)
class BinRecall:
    gsd_low: float
    gsd_high: float
    total: int
    detected: int

    @property
    def recall(self) -> float:
        return self.detected / self.total


def _canonical_box_key(box) -> tuple:
    return (box.x_center, box.y_center, box.width, box.height, box.category)


def match_detections(truths: list[BoxLabel], detections: list[Detection],
                     iou_threshold: float = 0.7,
                     confidence_threshold: float = 0.5) -> int:
    """Count ground-truth boxes matched by greedy confidence-ordered
    assignment with an IoU threshold. Order-independent: both sides are
    sorted canonically before matching."""
    kept = [d for d in detections if d.confidence >= confidence_threshold]
    kept.sort(key=lambda d: (-d.confidence,) + _canonical_box_key(d))
    ordered = sorted(truths, key=_canonical_box_key)
    taken = [False] * len(ordered)
    matched = 0
    for det in kept:
        best_j, best_iou = -1, -1.0
        for j, truth in enumerate(ordered):
            if taken[j] or truth.category != det.category:
                continue
            value = iou(truth, det)
            if value >= iou_threshold and value > best_iou:
                best_j, best_iou = j, value
        if best_j >= 0:
            taken[best_j] = True
            matched += 1
    return matched


def recall_per_bin(images: list[ImageMeta],
                   truths: dict[str, list[BoxLabel]],
                   detections: dict[str, list[Detection]],
                   iou_threshold: float = 0.7,
                   confidence_threshold: float = 0.5,
                   bin_width: float = 0.5) -> list[BinRecall]:
    """Detection recall per GSD bin across a set of images.

    Only bins that contain at least one ground-truth box appear in the
    result, ordered by increasing GSD.
    """
    totals: dict[int, int] = {}
    hits: dict[int, int] = {}
    seen = set()
    for meta in images:
        if meta.image_id in seen:
            raise TilingError(f"duplicate image id {meta.image_id!r}")
        seen.add(meta.image_id)
        image_truths = truths.get(meta.image_id, [])
        if not image_truths:
            continue
        b = gsd_bin(meta.gsd, bin_width)
        totals[b] = totals.get(b, 0) + len(image_truths)
        hits[b] = hits.get(b, 0) + match_detections(
            image_truths, detections.get(meta.image_id, []),
            iou_threshold, confidence_threshold)
    return [BinRecall(gsd_low=b * bin_width, gsd_high=(b + 1) * bin_width,
                      total=totals[b], detected=hits[b])
            for b in sorted(totals)]
