"""Tile planning, cropping, HBB conversion, NMS and reassembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import relation_columns
from obsg import (
    CategoryRegistry,
    Dataset,
    Detection,
    ObjectInstance,
    OrientedBox,
    SceneAnnotation,
    TileSpec,
    convert_to_hbb,
    crop_scene,
    intersection_area,
    plan_tiles,
    reassemble,
    rotated_iou,
    rotated_nms,
    tile_dataset,
)
from obsg import ingest as ingest_module
from obsg.datamodel import MAX_IMAGE_EXTENT


def scene_of(objects, relations=(), image_id="scene", width=1000, height=1000):
    return SceneAnnotation(image_id, width, height, tuple(objects), relation_columns(relations))


def test_plan_tiles_large_grid():
    tiles = plan_tiles(6000, 6000, size=800, stride=400)
    assert len(tiles) == 196
    assert tiles[0] == TileSpec(0, 0, 800)
    assert tiles[1].origin_x == 400 and tiles[1].origin_y == 0
    assert tiles[-1].origin_x == 5200 and tiles[-1].origin_y == 5200
    xs = sorted({t.origin_x for t in tiles})
    assert xs == [400 * i for i in range(13)] + [5200]


def test_plan_tiles_small_image_single_tile():
    assert plan_tiles(800, 800, size=800, stride=400) == [TileSpec(0, 0, 800)]
    assert plan_tiles(500, 300, size=800, stride=400) == [TileSpec(0, 0, 800)]


def test_plan_tiles_end_shift():
    tiles = plan_tiles(1000, 800, size=800, stride=400)
    assert [(t.origin_x, t.origin_y) for t in tiles] == [(0, 0), (200, 0)]


def test_plan_tiles_covers_every_pixel():
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = int(rng.integers(50, 3000))
        h = int(rng.integers(50, 3000))
        size = int(rng.integers(40, 900))
        stride = int(rng.integers(1, size + 1))
        tiles = plan_tiles(w, h, size=size, stride=stride)
        for _ in range(50):
            px = rng.uniform(0, w)
            py = rng.uniform(0, h)
            assert any(
                t.origin_x <= px <= t.origin_x + t.size
                and t.origin_y <= py <= t.origin_y + t.size
                for t in tiles
            )


def test_plan_tiles_validation():
    with pytest.raises(ValueError):
        plan_tiles(0, 100)
    with pytest.raises(ValueError):
        plan_tiles(100, 100, size=0)
    with pytest.raises(ValueError):
        plan_tiles(100, 100, size=100, stride=0)
    with pytest.raises(ValueError):
        plan_tiles(100, 100, size=100, stride=101)
    with pytest.raises(ValueError):
        TileSpec(-1, 0, 100)
    # Two tiles without the bound: the check comes before any origin list.
    with pytest.raises(ValueError, match=r"^extent 100001x1 outside 1\.\.100000$"):
        plan_tiles(MAX_IMAGE_EXTENT + 1, 1, size=MAX_IMAGE_EXTENT, stride=MAX_IMAGE_EXTENT)


def test_crop_rejects_a_nan_tile():
    # No tile with a NaN origin or size can be made, so none reaches crop_scene.
    nan = float("nan")
    for args, message in (
        ((nan, 0, 100), "negative tile origin"),
        ((0, nan, 100), "negative tile origin"),
        ((0, 0, nan), "bad tile size: nan"),
    ):
        with pytest.raises(ValueError, match=message):
            TileSpec(*args)


@pytest.mark.parametrize(
    "args", [(True, 0, 800), (0, False, 800), (0.5, 0, 800), (0, 0, 800.0), (np.int64(0), 0, 800)]
)
def test_tile_origin_and_size_are_exact_ints(args):
    # A bool origin cropped to a scene with id 'x@True_0', and a fractional
    # one failed later, in crop_scene, on the crop's extent.
    with pytest.raises(ValueError, match="^tile origin and size must be int, got "):
        TileSpec(*args)


def test_crop_keeps_inner_object_untouched():
    box = OrientedBox.from_params(500.0, 450.0, 30.0, 12.0, 0.7)
    scene = scene_of([ObjectInstance(3, 2, box)])
    tile = TileSpec(400, 400, 400)
    cropped = crop_scene(scene, tile)
    assert cropped.image_id == "scene@400_400"
    assert cropped.width == 400 and cropped.height == 400
    assert len(cropped.objects) == 1
    kept = cropped.objects[0]
    assert kept.id == 3 and kept.category == 2
    assert not kept.truncated
    for (vx, vy), (ox, oy) in zip(kept.box.vertices, box.vertices):
        assert abs(vx - (ox - 400)) < 1e-9
        assert abs(vy - (oy - 400)) < 1e-9


def test_crop_keeps_object_and_relation_scores():
    a = ObjectInstance(0, 0, OrientedBox.axis_aligned(10, 10, 50, 50), score=0.9)
    b = ObjectInstance(1, 1, OrientedBox.axis_aligned(60, 10, 90, 50), score=0.25)
    cropped = crop_scene(scene_of([a, b], [(0, 0, 1, 0.5)]), TileSpec(0, 0, 400))
    assert [o.score for o in cropped.objects] == [0.9, 0.25]
    assert cropped.relations.scores == (0.5,)


def test_crop_drops_object_and_relations():
    inside = ObjectInstance(0, 0, OrientedBox.axis_aligned(10, 10, 50, 50))
    # 10% of this box lies inside the tile [0, 400): dropped at 0.5.
    outside = ObjectInstance(1, 1, OrientedBox.axis_aligned(396, 10, 436, 50))
    scene = scene_of(
        [inside, outside],
        [(0, 0, 1), (1, 0, 0)],
    )
    cropped = crop_scene(scene, TileSpec(0, 0, 400))
    assert [o.id for o in cropped.objects] == [0]
    assert len(cropped.relations) == 0


def test_crop_keeps_exact_half_overlap_truncated():
    # Intersection fraction is exactly 0.5, the keep threshold.
    half = ObjectInstance(0, 0, OrientedBox.axis_aligned(395, 0, 405, 10))
    cropped = crop_scene(scene_of([half]), TileSpec(0, 0, 400))
    assert len(cropped.objects) == 1
    assert cropped.objects[0].truncated


def test_crop_marks_poking_boxes_truncated():
    poking = ObjectInstance(0, 0, OrientedBox.axis_aligned(390, 390, 405, 399))
    cropped = crop_scene(scene_of([poking]), TileSpec(0, 0, 400))
    assert cropped.objects[0].truncated


def test_crop_clips_tile_to_image_edge():
    scene = scene_of([], image_id="img", width=1000, height=900)
    cropped = crop_scene(scene, TileSpec(800, 800, 400))
    assert cropped.width == 200 and cropped.height == 100
    assert cropped.image_id == "img@800_800"


def test_crop_rejects_tile_outside_image():
    scene = scene_of([], width=100, height=100)
    with pytest.raises(ValueError):
        crop_scene(scene, TileSpec(100, 0, 50))
    with pytest.raises(ValueError):
        crop_scene(scene, TileSpec(0, 0, 50), keep_fraction=0.0)
    with pytest.raises(ValueError):
        crop_scene(scene, TileSpec(0, 0, 50), keep_fraction=1.5)


def test_crop_matches_brute_force_filter():
    rng = np.random.default_rng(41)
    tile = TileSpec(20, 30, 60)
    tile_box = OrientedBox.axis_aligned(20, 30, 80, 90)
    for _ in range(30):
        objects = [
            ObjectInstance(i, int(rng.integers(0, 3)), oracles.random_box(rng))
            for i in range(12)
        ]
        scene = scene_of(objects, width=100, height=100)
        cropped = crop_scene(scene, tile, keep_fraction=0.5)
        expected = [
            o.id
            for o in objects
            if intersection_area(o.box, tile_box) / o.box.area >= 0.5
        ]
        assert [o.id for o in cropped.objects] == expected


def test_crop_keeps_every_contained_box_at_keep_fraction_one():
    # A contained box's clipped area can come out an ulp below box.area;
    # containment alone keeps it, not truncated.  Box 40 is half outside.
    rng = np.random.default_rng(43)
    objects = [
        ObjectInstance(
            i, 0, oracles.random_box(rng, center_lo=200.0, center_hi=400.0, side_hi=60.0)
        )
        for i in range(40)
    ]
    objects.append(ObjectInstance(40, 0, OrientedBox.axis_aligned(490, 200, 510, 220)))
    relations = [(i, 0, i + 1) for i in range(40)]
    scene = scene_of(objects, relations)
    cropped = crop_scene(scene, TileSpec(100, 100, 400), keep_fraction=1.0)
    assert [o.id for o in cropped.objects] == list(range(40))
    assert not any(o.truncated for o in cropped.objects)
    assert list(cropped.relations) == list(scene.relations)[:39]


def crop_matches_reference(scene, tile, keep_fraction):
    """Assert that ``crop_scene`` equals the oracle's whole scene, float bits
    included, and clips the same boxes in the same order."""
    results, clipped = [], []
    for module, crop in ((ingest_module, crop_scene), (oracles, oracles.reference_crop_scene)):
        calls = []
        clipped.append(calls)

        def spy(a, b, calls=calls):
            calls.append(a.vertices)
            return intersection_area(a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "intersection_area", spy)
            results.append(crop(scene, tile, keep_fraction))
    got, want = results
    assert got == want and repr(got) == repr(want)
    assert clipped[0] == clipped[1]
    return got


def dense_crop_scene(rng, width=1000, height=900):
    """70 random boxes of 5 classes, boxes whose extent meets a tile edge of
    every grid below exactly (edges at multiples of 40), two wider than a
    tile, and a 1e-3 px box near 1e8 px; 120 relations."""
    boxes = [
        oracles.random_box(rng, center_lo=-20.0, center_hi=1020.0, side_hi=150.0)
        for _ in range(70)
    ]
    for edge in range(0, 1001, 40):
        along = float(rng.uniform(0, 880))
        boxes.append(OrientedBox.axis_aligned(edge - 25, along, edge, along + 15))
        boxes.append(OrientedBox.axis_aligned(along, edge, along + 15, edge + 25))
    boxes.append(OrientedBox.axis_aligned(50, 300, 950, 330))
    boxes.append(OrientedBox.from_params(500.0, 450.0, 1000.0, 40.0, 0.4))
    boxes.append(OrientedBox.axis_aligned(1e8, 50, 1e8 + 1e-3, 50 + 1e-3))
    objects = [
        ObjectInstance(i, int(rng.integers(0, 5)), box, bool(rng.integers(0, 2)))
        for i, box in enumerate(boxes)
    ]
    relations = []
    for _ in range(120):
        s, o = (int(k) for k in rng.choice(len(objects), 2, replace=False))
        relations.append((s, int(rng.integers(0, 4)), o, float(rng.uniform())))
    return scene_of(objects, relations, width=width, height=height)


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_crop_equals_per_object_reference_on_every_tile(seed):
    scene = dense_crop_scene(np.random.default_rng(seed))
    kept = 0
    for size, stride in ((800, 400), (200, 120), (100, 100)):
        for tile in plan_tiles(scene.width, scene.height, size, stride):
            for keep_fraction in (0.5, 1.0):
                kept += len(crop_matches_reference(scene, tile, keep_fraction).objects)
    assert kept > 0


def test_crop_window_reaches_a_box_far_wider_than_the_tile():
    # The rounding of x0 - eps - widest at 1e8 px exceeds eps: without the
    # ulp margin the window would start one step right of this box's xmin,
    # and the box, whose extent ends on the tile's left edge, would not be
    # clipped.  The 1e-3 px box near 1e8 px never reaches a tile.
    long = OrientedBox.axis_aligned(-134160686.05805148, 10, 99200.0, 20)
    tiny = OrientedBox.axis_aligned(1e8, 50, 1e8 + 1e-3, 50 + 1e-3)
    inner = OrientedBox.axis_aligned(99300, 10, 99400, 20)
    scene = scene_of(
        [ObjectInstance(k, k, box) for k, box in enumerate((long, tiny, inner))],
        [(0, 0, 2), (2, 0, 1)], width=MAX_IMAGE_EXTENT, height=800,
    )
    for x in (98800, 99200):
        for keep_fraction in (1e-300, 0.5, 1.0):
            crop_matches_reference(scene, TileSpec(x, 0, 800), keep_fraction)
    assert len(crop_scene(scene, TileSpec(98800, 0, 800), 1e-300).relations) == 1


def test_crop_translation_round_trip():
    rng = np.random.default_rng(42)
    tile = TileSpec(200, 200, 300)
    for _ in range(20):
        box = oracles.random_box(
            rng, center_lo=240.0, center_hi=460.0, side_lo=1.0, side_hi=40.0
        )
        scene = scene_of([ObjectInstance(0, 0, box)])
        cropped = crop_scene(scene, tile)
        assert len(cropped.objects) == 1
        back = cropped.objects[0].box.translate(tile.origin_x, tile.origin_y)
        for (ax, ay), (bx, by) in zip(back.vertices, box.vertices):
            assert abs(ax - bx) < 1e-9 and abs(ay - by) < 1e-9


def test_tile_dataset_keeps_empty_tiles():
    registry = CategoryRegistry(("a",), ("r",))
    scene = scene_of([], image_id="wide", width=1000, height=800)
    tiled = tile_dataset(Dataset(registry, "train", (scene,)), size=800, stride=400)
    assert [s.image_id for s in tiled.scenes] == ["wide@0_0", "wide@200_0"]
    assert all(s.objects == () for s in tiled.scenes)


def hbb_dataset(boxes):
    registry = CategoryRegistry(("a",), ("r",))
    objects = tuple(ObjectInstance(i, 0, b) for i, b in enumerate(boxes))
    return Dataset(registry, "train", (scene_of(objects),))


def test_convert_to_hbb_fixed_point_on_axis_aligned():
    ds = hbb_dataset([OrientedBox.axis_aligned(10, 20, 50, 60)])
    assert convert_to_hbb(ds) == ds


def test_convert_to_hbb_diagonal_square_doubles_area():
    ds = hbb_dataset([OrientedBox.from_params(50, 50, 10, 10, math.pi / 4)])
    out = convert_to_hbb(ds).scenes[0].objects[0].box
    assert abs(out.area - 200.0) < 1e-9
    theta = out.params[4]
    assert min(theta, 2 * math.pi - theta) < 1e-9


def test_convert_to_hbb_grows_and_is_idempotent():
    rng = np.random.default_rng(43)
    boxes = [oracles.random_box(rng) for _ in range(40)]
    ds = hbb_dataset(boxes)
    once = convert_to_hbb(ds)
    for before, after in zip(ds.scenes[0].objects, once.scenes[0].objects):
        assert after.box.area >= before.box.area - 1e-9
    assert convert_to_hbb(once) == once


def test_nms_suppresses_exact_duplicate():
    box = OrientedBox.axis_aligned(0, 0, 10, 10)
    kept = rotated_nms(
        [Detection(box, 0, 0.8), Detection(box, 0, 0.9)], iou_threshold=0.5
    )
    assert [d.score for d in kept] == [0.9]


def test_nms_keeps_disjoint_and_cross_category():
    near = OrientedBox.axis_aligned(0, 0, 10, 10)
    far = OrientedBox.axis_aligned(50, 50, 60, 60)
    kept = rotated_nms(
        [Detection(near, 0, 0.8), Detection(far, 0, 0.7), Detection(near, 1, 0.6)]
    )
    assert len(kept) == 3


def test_nms_matches_reference():
    rng = np.random.default_rng(44)
    for categories in (3, 5, 8):
        for _ in range(6):
            dets = [
                Detection(
                    oracles.random_box(rng, side_lo=5.0, side_hi=40.0),
                    int(rng.integers(0, categories)),
                    float(rng.uniform(0, 1)),
                )
                for _ in range(50)
            ]
            # Exact duplicates, some of them under another category, and
            # boxes whose extents touch another's.
            for det in dets[:10]:
                dets.append(Detection(det.box, int(rng.integers(0, categories)), det.score))
            for det in dets[10:20]:
                xmin, ymin, xmax, ymax = det.box.extent
                box = OrientedBox.axis_aligned(xmax, ymin, xmax + 10.0, ymax)
                dets.append(Detection(box, det.category, float(rng.uniform(0, 1))))
            for threshold in (0.05, 0.5, 1.0):
                assert rotated_nms(dets, threshold) == oracles.reference_nms(dets, threshold)


def test_nms_survivors_are_mutually_separated():
    rng = np.random.default_rng(45)
    dets = [
        Detection(
            oracles.random_box(rng, center_lo=20.0, center_hi=60.0),
            0,
            float(rng.uniform(0, 1)),
        )
        for _ in range(60)
    ]
    kept = rotated_nms(dets, 0.4)
    for i, a in enumerate(kept):
        for b in kept[i + 1 :]:
            assert rotated_iou(a.box, b.box) < 0.4


def test_nms_validation():
    box = OrientedBox.axis_aligned(0, 0, 1, 1)
    with pytest.raises(ValueError):
        rotated_nms([Detection(box, 0, float("nan"))])
    with pytest.raises(ValueError):
        rotated_nms([Detection(box, 0, 1.0)], iou_threshold=0.0)


def test_reassemble_identity_on_origin_tile():
    dets = [Detection(OrientedBox.axis_aligned(5, 5, 20, 15), 0, 0.9)]
    out = reassemble([(TileSpec(0, 0, 100), dets)])
    assert out == dets


def test_reassemble_merges_duplicate_across_tiles():
    # The same source-image box seen from two overlapping tiles.
    source = OrientedBox.axis_aligned(380, 100, 420, 140)
    tile_a = TileSpec(0, 0, 400)
    tile_b = TileSpec(200, 0, 400)
    det_a = Detection(source.translate(-0, -0), 2, 0.8)
    det_b = Detection(source.translate(-200, -0), 2, 0.6)
    out = reassemble([(tile_a, [det_a]), (tile_b, [det_b])])
    assert len(out) == 1
    assert out[0].score == 0.8
    for (vx, vy), (sx, sy) in zip(out[0].box.vertices, source.vertices):
        assert abs(vx - sx) < 1e-9 and abs(vy - sy) < 1e-9
