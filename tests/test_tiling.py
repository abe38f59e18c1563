import itertools
import random

import numpy as np
import pytest

from uavsearch import (BoxLabel, Detection, ImageMeta, TilingError, axis_offsets,
                       gsd_bin, iou, match_detections, plan_tiles,
                       recall_per_bin, remap_labels, tile_name)


def test_axis_offsets_counts_and_spacing():
    xs = axis_offsets(5280, 512, 100)
    assert len(xs) == 13
    assert xs[0] == 0 and xs[-1] == 5280 - 512
    ys = axis_offsets(2970, 512, 100)
    assert len(ys) == 7
    # overlap promise: adjacent tiles share at least the requested band
    for offs in (xs, ys):
        steps = np.diff(offs)
        assert np.all(steps >= 1)
        assert np.all(512 - steps >= 100)
    # 12 columns could not cover the width: 12*512 - 11*100 = 5044 < 5280
    assert 12 * 512 - 11 * 100 < 5280
    assert 13 * 512 - 12 * 100 >= 5280


def test_axis_offsets_edge_cases():
    assert axis_offsets(512, 512, 100) == [0]
    assert axis_offsets(600, 512, 100) == [0, 88]
    with pytest.raises(TilingError):
        axis_offsets(5280, 512, 512)
    with pytest.raises(TilingError):
        axis_offsets(5280, 512, -1)
    with pytest.raises(TilingError):
        axis_offsets(400, 512, 100)
    with pytest.raises(TilingError):
        axis_offsets(0, 512, 100)


def test_plan_tiles_covers_the_frame():
    plan = plan_tiles(5280, 2970, 512, 512, 100)
    assert (plan.n_cols, plan.n_rows) == (13, 7)
    assert len(plan) == 91
    covered_x = np.zeros(5280, dtype=bool)
    covered_y = np.zeros(2970, dtype=bool)
    for t in plan.tiles:
        assert 0 <= t.x0 and t.x1 <= 5280
        assert 0 <= t.y0 and t.y1 <= 2970
        covered_x[t.x0:t.x1] = True
        covered_y[t.y0:t.y1] = True
    assert covered_x.all() and covered_y.all()
    # row-major deterministic ordering
    assert [t.row * plan.n_cols + t.col for t in plan.tiles] == list(range(91))


def test_tile_name():
    plan = plan_tiles(1024, 1024, 512, 512, 100)
    names = [tile_name("IMG_0042", t) for t in plan.tiles]
    assert names[0] == "IMG_0042_r0_c0"
    assert len(set(names)) == len(names)


def test_remap_labels_round_trip_full_visibility():
    plan = plan_tiles(5280, 2970, 512, 512, 100)
    rng = np.random.default_rng(33)
    for _ in range(200):
        w = float(rng.uniform(20, 80))
        h = float(rng.uniform(20, 80))
        cx = float(rng.uniform(w / 2, 5280 - w / 2))
        cy = float(rng.uniform(h / 2, 2970 - h / 2))
        label = BoxLabel(category=0, x_center=cx / 5280, y_center=cy / 2970,
                         width=w / 5280, height=h / 2970)
        hosting = [t for t in plan.tiles
                   if t.x0 <= cx - w / 2 and cx + w / 2 <= t.x1
                   and t.y0 <= cy - h / 2 and cy + h / 2 <= t.y1]
        assert hosting, (cx, cy)  # full coverage leaves no orphan box
        for t in hosting:
            remapped = remap_labels([label], t, 5280, 2970)
            assert len(remapped) == 1
            r = remapped[0]
            # map back to frame pixels: must land within a pixel
            back_cx = r.x_center * t.width + t.x0
            back_cy = r.y_center * t.height + t.y0
            assert abs(back_cx - cx) <= 1.0
            assert abs(back_cy - cy) <= 1.0
            assert abs(r.width * t.width - w) <= 1.0
            assert abs(r.height * t.height - h) <= 1.0


def test_remap_labels_visibility_threshold():
    tile = plan_tiles(1000, 1000, 500, 500, 0).tiles[0]  # [0,500)^2
    # box 100 px wide straddling the tile's right edge at x = 500
    def box(cx):
        return BoxLabel(category=1, x_center=cx / 1000, y_center=0.25,
                        width=100 / 1000, height=100 / 1000)
    # 40% visible: kept at min_visible 0.3, dropped at 0.5
    label = box(510.0)
    assert len(remap_labels([label], tile, 1000, 1000, min_visible=0.3)) == 1
    assert len(remap_labels([label], tile, 1000, 1000, min_visible=0.5)) == 0
    # fully outside
    assert remap_labels([box(700.0)], tile, 1000, 1000) == []
    # clipped coordinates are renormalized to the tile
    kept = remap_labels([label], tile, 1000, 1000, min_visible=0.3)[0]
    assert kept.x_center == pytest.approx((0.5 * (460 + 500)) / 500)
    assert kept.width == pytest.approx(40 / 500)
    with pytest.raises(TilingError):
        remap_labels([label], tile, 1000, 1000, min_visible=0.0)


def test_iou_cases():
    a = BoxLabel(0, 0.5, 0.5, 0.2, 0.2)
    assert iou(a, a) == 1.0
    b = BoxLabel(0, 0.9, 0.9, 0.05, 0.05)
    assert iou(a, b) == 0.0
    # half-width shift: intersection 0.1x0.2, union 2*0.04 - 0.02
    c = BoxLabel(0, 0.6, 0.5, 0.2, 0.2)
    assert iou(a, c) == pytest.approx(0.02 / 0.06)
    assert iou(c, a) == pytest.approx(iou(a, c))
    degenerate = BoxLabel(0, 0.5, 0.5, 0.0, 0.2)
    assert iou(a, degenerate) == 0.0


def test_gsd_bin_edges():
    assert gsd_bin(0.0) == 0
    assert gsd_bin(0.49) == 0
    assert gsd_bin(0.5) == 1
    assert gsd_bin(1.0) == 2
    assert gsd_bin(1.3196) == 2
    assert gsd_bin(3.0, bin_width=1.0) == 3
    with pytest.raises(TilingError):
        gsd_bin(-0.1)
    with pytest.raises(TilingError):
        gsd_bin(1.0, bin_width=0.0)
    for width in (float("inf"), float("nan")):
        with pytest.raises(TilingError, match="bin width must be finite and positive"):
            gsd_bin(1.0, bin_width=width)


def det(truth, conf, jitter=0.0, category=None):
    return Detection(category=truth.category if category is None else category,
                     x_center=truth.x_center + jitter, y_center=truth.y_center,
                     width=truth.width, height=truth.height, confidence=conf)


def test_match_detections_basics():
    t1 = BoxLabel(0, 0.2, 0.2, 0.1, 0.1)
    t2 = BoxLabel(0, 0.7, 0.7, 0.1, 0.1)
    # perfect detections match both
    assert match_detections([t1, t2], [det(t1, 0.9), det(t2, 0.8)]) == 2
    # below the confidence threshold a detection is ignored
    assert match_detections([t1, t2], [det(t1, 0.9), det(t2, 0.4)]) == 1
    # duplicates on one truth count once
    assert match_detections([t1], [det(t1, 0.9), det(t1, 0.8)]) == 1
    # a category mismatch never matches
    assert match_detections([t1], [det(t1, 0.9, category=5)]) == 0
    # IoU below the threshold does not match (shift by one box width)
    assert match_detections([t1], [det(t1, 0.9, jitter=0.1)]) == 0
    assert match_detections([], [det(t1, 0.9)]) == 0
    assert match_detections([t1], []) == 0


def test_match_detections_greedy_by_confidence():
    # two truths side by side; the higher-confidence detection sits
    # between them and could claim either, the lower one only the left.
    left = BoxLabel(0, 0.300, 0.5, 0.2, 0.2)
    right = BoxLabel(0, 0.316, 0.5, 0.2, 0.2)
    middle = Detection(0, 0.308, 0.5, 0.2, 0.2, confidence=0.9)
    left_only = Detection(0, 0.296, 0.5, 0.2, 0.2, confidence=0.6)
    # middle matches 'right' (higher IoU after left is... both free: it
    # takes the best IoU = the closer truth), left_only then takes left
    assert match_detections([left, right], [middle, left_only],
                            iou_threshold=0.5) == 2
    # order of the input lists is irrelevant
    assert match_detections([right, left], [left_only, middle],
                            iou_threshold=0.5) == 2


def test_match_detections_order_invariance_sweep():
    rng = np.random.default_rng(55)
    truths = []
    for _ in range(12):
        truths.append(BoxLabel(int(rng.integers(0, 2)),
                               float(rng.uniform(0.2, 0.8)),
                               float(rng.uniform(0.2, 0.8)),
                               float(rng.uniform(0.05, 0.15)),
                               float(rng.uniform(0.05, 0.15))))
    detections = []
    for t in truths[:9]:
        detections.append(Detection(t.category,
                                    t.x_center + float(rng.uniform(-0.01, 0.01)),
                                    t.y_center + float(rng.uniform(-0.01, 0.01)),
                                    t.width, t.height,
                                    confidence=float(rng.uniform(0.3, 1.0))))
    # a few spurious detections
    for _ in range(4):
        detections.append(Detection(int(rng.integers(0, 2)),
                                    float(rng.uniform(0, 1)),
                                    float(rng.uniform(0, 1)),
                                    0.1, 0.1,
                                    confidence=float(rng.uniform(0.3, 1.0))))
    baseline = match_detections(truths, detections, iou_threshold=0.5)
    shuffler = random.Random(7)
    for _ in range(30):
        ts = truths[:]
        ds = detections[:]
        shuffler.shuffle(ts)
        shuffler.shuffle(ds)
        assert match_detections(ts, ds, iou_threshold=0.5) == baseline


def test_recall_per_bin_grouping():
    t = BoxLabel(0, 0.5, 0.5, 0.1, 0.1)
    images = [ImageMeta("a", 1.1), ImageMeta("b", 1.3), ImageMeta("c", 2.6),
              ImageMeta("empty", 0.7)]
    truths = {"a": [t, t], "b": [t], "c": [t]}
    detections = {"a": [det(t, 0.9)], "b": [det(t, 0.9)], "c": []}
    result = recall_per_bin(images, truths, detections)
    # images a and b share the [1.0, 1.5) bin; 'empty' contributes nothing
    assert [(r.gsd_low, r.gsd_high, r.total, r.detected) for r in result] \
        == [(1.0, 1.5, 3, 2), (2.5, 3.0, 1, 0)]
    assert result[0].recall == pytest.approx(2.0 / 3.0)
    assert result[1].recall == 0.0
    with pytest.raises(TilingError):
        recall_per_bin([ImageMeta("a", 1.0), ImageMeta("a", 2.0)],
                       truths, detections)


def test_recall_per_bin_perfect_detector():
    rng = np.random.default_rng(99)
    images, truths, detections = [], {}, {}
    for i in range(20):
        image_id = f"im{i:03d}"
        images.append(ImageMeta(image_id, float(rng.uniform(0.5, 6.0))))
        boxes = []
        for _ in range(int(rng.integers(1, 6))):
            boxes.append(BoxLabel(0, float(rng.uniform(0.2, 0.8)),
                                  float(rng.uniform(0.2, 0.8)), 0.08, 0.08))
        truths[image_id] = boxes
        detections[image_id] = [det(b, 0.95) for b in boxes]
    for r in recall_per_bin(images, truths, detections):
        assert r.detected == r.total
        assert r.recall == 1.0
    lows = [r.gsd_low for r in recall_per_bin(images, truths, detections)]
    assert lows == sorted(lows)


def test_recall_per_bin_against_assignment_oracle():
    # a constructed bin where greedy matching is also globally optimal;
    # compare against brute-force maximum bipartite matching
    truths = [BoxLabel(0, 0.1 + 0.08 * k, 0.5, 0.06, 0.06) for k in range(10)]
    detections = []
    rng = np.random.default_rng(4)
    for k in range(10):
        if k % 3 == 0 and k > 0:
            continue  # miss some truths entirely
        detections.append(Detection(0, 0.1 + 0.08 * k + float(rng.uniform(-0.004, 0.004)),
                                    0.5, 0.06, 0.06,
                                    confidence=float(rng.uniform(0.55, 0.95))))

    def oracle_max_matching(ts, ds, thr):
        edges = {i: [j for j, t in enumerate(ts) if iou(t, d) >= thr
                     and t.category == d.category]
                 for i, d in enumerate(ds)}
        best = 0
        for perm in itertools.permutations(range(len(ds))):
            used, count = set(), 0
            for i in perm:
                for j in edges[i]:
                    if j not in used:
                        used.add(j)
                        count += 1
                        break
            best = max(best, count)
        return best

    got = match_detections(truths, detections, iou_threshold=0.7)
    want = oracle_max_matching(truths, detections, 0.7)
    assert got == want == 7
