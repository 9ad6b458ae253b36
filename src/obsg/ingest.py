"""Tiling of large scenes, HBB conversion and detection reassembly.

Large images are processed as overlapping square tiles.  Tile origins sit at
stride multiples except the final row/column, which is shifted back so the
far edge of the last tile coincides with the image edge.  Cropping keeps an
object that lies inside the tile, or else when at least ``keep_fraction`` of
its box area does; kept boxes are translated into tile-local coordinates.
Reassembly is the inverse translation followed by per-category rotated NMS.
Cost grows with the box pairs that can meet: a crop tests only the objects
near its tile, and NMS compares a candidate only with its own category.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Sequence

from .datamodel import (
    NO_RELATIONS,
    Dataset,
    Detection,
    ObjectInstance,
    RelationColumns,
    SceneAnnotation,
    _check_extent,
    _check_ints,
    _rank,
)
from .geometry import OrientedBox, _check_iou_threshold, intersection_area, rotated_iou

TILE_SIZE = 800
TILE_STRIDE = 400
KEEP_FRACTION = 0.5
NMS_IOU_THRESHOLD = 0.5

_EDGE_EPS = 1e-9


@dataclass(frozen=True)
class TileSpec:
    """One square tile of the sliding grid, in source-image pixels; its
    origin and size are ``int``, the size > 0 and the origin >= 0."""

    origin_x: int
    origin_y: int
    size: int

    def __post_init__(self) -> None:
        if not self.size > 0:
            raise ValueError(f"bad tile size: {self.size}")
        if not (self.origin_x >= 0 and self.origin_y >= 0):
            raise ValueError(f"negative tile origin: {self}")
        if not type(self.origin_x) is type(self.origin_y) is type(self.size) is int:
            _check_ints((self.origin_x, self.origin_y, self.size), "tile origin and size")


def _grid_positions(extent: int, size: int, stride: int) -> list[int]:
    """Stride-multiple origins; the last one is shifted to end at ``extent``."""
    if extent <= size:
        return [0]
    count = math.ceil((extent - size) / stride) + 1
    return [min(i * stride, extent - size) for i in range(count)]


def _check_tile_grid(size: int, stride: int) -> None:
    if size <= 0 or not 0 < stride <= size:
        raise ValueError(f"bad tile size/stride: {size}/{stride}")


def _check_keep_fraction(keep_fraction: float) -> None:
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1]: {keep_fraction}")


def plan_tiles(
    width: int, height: int, size: int = TILE_SIZE, stride: int = TILE_STRIDE
) -> list[TileSpec]:
    """Sliding-window tile grid covering the full image, row-major order.

    Args:
        width, height: image extent in pixels, in ``1..MAX_IMAGE_EXTENT``.
        size: square tile side.
        stride: step between tile origins; must satisfy 0 < stride <= size.
    """
    _check_extent(width, height)
    _check_tile_grid(size, stride)
    xs = _grid_positions(width, size, stride)
    ys = _grid_positions(height, size, stride)
    return [TileSpec(x, y, size) for y in ys for x in xs]


def crop_scene(
    scene: SceneAnnotation, tile: TileSpec, keep_fraction: float = KEEP_FRACTION
) -> SceneAnnotation:
    """Annotations of one tile, in tile-local coordinates.

    An object survives when its box lies inside the tile, or else when
    ``intersection_area(box, tile) / box.area`` is at least
    ``keep_fraction``.  Survivors keep their ids and are translated by the
    negative tile origin; boxes that poke past the tile edge are flagged
    truncated.  A relation survives only if both endpoints do.
    Cost: two bisections of ``scene.x_index``, a test per object whose
    x-extent can reach the tile, and a relation scan if two objects survive.
    """
    _check_keep_fraction(keep_fraction)
    x0, y0 = tile.origin_x, tile.origin_y
    x1 = min(x0 + tile.size, scene.width)
    y1 = min(y0 + tile.size, scene.height)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"tile {tile} lies outside image {scene.image_id!r}")
    lo_x, lo_y, hi_x, hi_y = x0 - _EDGE_EPS, y0 - _EDGE_EPS, x1 + _EDGE_EPS, y1 + _EDGE_EPS
    # The tests below keep or clip an object only if xmin <= hi_x and
    # xmin + widest >= xmax >= lo_x; the ulp margin covers the rounding of
    # the subtractions, which eps does not far from the origin.
    xmins, order, widest = scene.x_index
    left = lo_x - widest
    left -= 4.0 * math.ulp(abs(left) + widest)
    window = sorted(order[bisect_left(xmins, left) : bisect_right(xmins, hi_x)])
    tile_box = None
    kept: list[ObjectInstance] = []
    keeps: set[int] = set()
    for k in window:
        obj = scene.objects[k]
        xmin, ymin, xmax, ymax = obj.box.extent
        # Containment is decided on the extent: the clipped area of a
        # contained box can come out an ulp below its area.  A box whose
        # extent misses the tile has no area inside it; the tile's own box
        # is built for the first one that straddles its edge.
        inside = lo_x <= xmin and xmax <= hi_x and lo_y <= ymin and ymax <= hi_y
        keep = inside
        if not inside and xmin <= x1 and x0 <= xmax and ymin <= y1 and y0 <= ymax:
            tile_box = tile_box or OrientedBox.axis_aligned(x0, y0, x1, y1)
            keep = intersection_area(obj.box, tile_box) / obj.box.area >= keep_fraction
        if keep:
            keeps.add(k)
            kept.append(ObjectInstance(
                obj.id, obj.category, obj.box.translate(-x0, -y0), obj.truncated or not inside,
                score=obj.score,
            ))
    rel = scene.relations
    n = len(rel.predicates)
    survivors = [
        k for k, i, j in zip(range(n), *scene.relation_endpoints) if i in keeps and j in keeps
    ] if len(keeps) > 1 else []
    if not survivors:
        rel = NO_RELATIONS
    elif len(survivors) < n:
        rel = RelationColumns(
            [rel.subjects[k] for k in survivors],
            [rel.predicates[k] for k in survivors],
            [rel.objects[k] for k in survivors],
            [rel.scores[k] for k in survivors],
        )
    return SceneAnnotation(
        image_id=f"{scene.image_id}@{x0}_{y0}",
        width=x1 - x0,
        height=y1 - y0,
        objects=tuple(kept),
        relations=rel,
    )


def tile_dataset(
    dataset: Dataset,
    size: int = TILE_SIZE,
    stride: int = TILE_STRIDE,
    keep_fraction: float = KEEP_FRACTION,
) -> Dataset:
    """Every scene cropped to its full tile grid; empty tiles are kept."""
    scenes = []
    for scene in dataset.scenes:
        for tile in plan_tiles(scene.width, scene.height, size, stride):
            scenes.append(crop_scene(scene, tile, keep_fraction))
    return Dataset(dataset.registry, dataset.split, tuple(scenes))


def convert_to_hbb(dataset: Dataset) -> Dataset:
    """Replace every box with its axis-aligned cover; idempotent."""
    scenes = []
    for scene in dataset.scenes:
        objects = tuple(
            replace(obj, box=OrientedBox.axis_aligned(*obj.box.extent)) for obj in scene.objects
        )
        scenes.append(replace(scene, objects=objects))
    return Dataset(dataset.registry, dataset.split, tuple(scenes))


def rotated_nms(
    detections: Sequence[Detection], iou_threshold: float = NMS_IOU_THRESHOLD
) -> list[Detection]:
    """Greedy non-maximum suppression within each category.

    Detections are visited by descending score (ties keep input order); one
    is kept unless it overlaps an already kept detection of the same
    category with rotated IoU >= ``iou_threshold``.  Returns survivors in
    visiting order.  Cost: one ``rotated_iou`` per candidate and kept box of
    its own category.
    """
    _check_iou_threshold(iou_threshold)
    kept: list[Detection] = []
    kept_boxes: dict[int, list[OrientedBox]] = {}
    for i in _rank([d.score for d in detections]):
        candidate = detections[i]
        boxes = kept_boxes.setdefault(candidate.category, [])
        if not any(rotated_iou(candidate.box, box) >= iou_threshold for box in boxes):
            boxes.append(candidate.box)
            kept.append(candidate)
    return kept


def reassemble(
    tile_detections: Sequence[tuple[TileSpec, Sequence[Detection]]],
    iou_threshold: float = NMS_IOU_THRESHOLD,
) -> list[Detection]:
    """Merge per-tile detections back into source-image coordinates.

    Each detection is translated by its tile origin; the concatenated pool
    (in the given tile order) is deduplicated with per-category rotated NMS.
    """
    pool: list[Detection] = []
    for tile, dets in tile_detections:
        dx, dy = tile.origin_x, tile.origin_y
        pool.extend(Detection(det.box.translate(dx, dy), det.category, det.score) for det in dets)
    return rotated_nms(pool, iou_threshold)
