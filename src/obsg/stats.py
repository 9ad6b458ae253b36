"""Exhaustive dataset statistics and report emission.

Everything is a plain count over the dataset: per-category object and
relation totals, per-image histograms, size-class fractions and the
log-scaled subject-to-object co-occurrence matrix.  The JSON report
carries every field of a :class:`StatsReport`; CSV mirrors the two category
tables with one count column per split.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .datamodel import Dataset, SIZE_CLASS_NAMES, SPLITS, _check_split, size_class
from .errors import DataError, RegistryMismatchError
from .metrics import _csv_cell


@dataclass(frozen=True)
class StatsReport:
    """Counting summary of one dataset split.

    Histograms map an integer per-image value to the number of images with
    that value; their masses sum to ``num_images``.  ``cooccurrence_log``
    is ``log(1 + count)`` of relations between a subject row and an object
    column, in registry order.  A split outside ``SPLITS`` is a
    :class:`DataError`, as in :class:`Dataset`.
    """

    split: str
    object_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    num_images: int
    object_counts: tuple[int, ...]
    relation_counts: tuple[int, ...]
    objects_per_image: dict[int, int]
    object_categories_per_image: dict[int, int]
    relations_per_image: dict[int, int]
    relation_categories_per_image: dict[int, int]
    size_class_fractions: dict[str, float]
    cooccurrence_log: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        _check_split(self.split)


def compute_stats(dataset: Dataset) -> StatsReport:
    """Exhaustive recount of a dataset; an empty dataset gives zeros."""
    registry = dataset.registry
    num_objects = registry.num_objects
    num_relations = registry.num_relations
    object_counts = [0] * num_objects
    relation_counts = [0] * num_relations
    size_counts = {name: 0 for name in SIZE_CLASS_NAMES}
    cooccurrence = [[0] * num_objects for _ in range(num_objects)]
    objects_hist: Counter[int] = Counter()
    object_cats_hist: Counter[int] = Counter()
    relations_hist: Counter[int] = Counter()
    relation_cats_hist: Counter[int] = Counter()
    for scene in dataset.scenes:
        for obj in scene.objects:
            object_counts[obj.category] += 1
            size_counts[size_class(obj.box.area)] += 1
        predicates = scene.relations.predicates
        for i, j, p in zip(*scene.relation_endpoints, predicates):
            relation_counts[p] += 1
            cooccurrence[scene.objects[i].category][scene.objects[j].category] += 1
        objects_hist[len(scene.objects)] += 1
        object_cats_hist[len({o.category for o in scene.objects})] += 1
        relations_hist[len(predicates)] += 1
        relation_cats_hist[len(set(predicates))] += 1
    total_objects = sum(object_counts)
    if total_objects > 0:
        fractions = {
            name: size_counts[name] / total_objects for name in SIZE_CLASS_NAMES
        }
    else:
        fractions = {name: 0.0 for name in SIZE_CLASS_NAMES}
    return StatsReport(
        split=dataset.split,
        object_names=registry.object_names,
        relation_names=registry.relation_names,
        num_images=len(dataset.scenes),
        object_counts=tuple(object_counts),
        relation_counts=tuple(relation_counts),
        objects_per_image=dict(sorted(objects_hist.items())),
        object_categories_per_image=dict(sorted(object_cats_hist.items())),
        relations_per_image=dict(sorted(relations_hist.items())),
        relation_categories_per_image=dict(sorted(relation_cats_hist.items())),
        size_class_fractions=fractions,
        cooccurrence_log=tuple(
            tuple(math.log(1 + c) for c in row) for row in cooccurrence
        ),
    )


def _hist_json(hist: dict[int, int]) -> list[list[int]]:
    return [[k, v] for k, v in sorted(hist.items())]


def report_to_json(report: StatsReport) -> str:
    doc = {
        "kind": "stats",
        "split": report.split,
        "object_categories": list(report.object_names),
        "relation_categories": list(report.relation_names),
        "num_images": report.num_images,
        "object_counts": list(report.object_counts),
        "relation_counts": list(report.relation_counts),
        "per_image_histograms": {
            "objects": _hist_json(report.objects_per_image),
            "object_categories": _hist_json(report.object_categories_per_image),
            "relations": _hist_json(report.relations_per_image),
            "relation_categories": _hist_json(report.relation_categories_per_image),
        },
        "size_class_fractions": {
            name: report.size_class_fractions[name] for name in SIZE_CLASS_NAMES
        },
        "cooccurrence_log": [list(row) for row in report.cooccurrence_log],
    }
    return json.dumps(doc, separators=(",", ":"))


def report_to_csv(reports: Sequence[StatsReport]) -> str:
    """Category count tables as CSV, one count column per split.

    A single report emits ``category,count``; several reports (one per
    split, same registry) emit one column per present split in
    train/val/test order.  Object and relation tables are separated by a
    blank line.

    Raises:
        RegistryMismatchError: the reports use different registries.
        DataError: two reports have the same split.
        ValueError: there are no reports.
    """
    if not reports:
        raise ValueError("no reports to emit")
    first = reports[0]
    for report in reports[1:]:
        if (
            report.object_names != first.object_names
            or report.relation_names != first.relation_names
        ):
            raise RegistryMismatchError("reports use different category registries")
    splits = [r.split for r in reports]
    if len(set(splits)) != len(splits):
        raise DataError(f"duplicate splits: {splits}")
    ordered = sorted(reports, key=lambda r: SPLITS.index(r.split))
    if len(ordered) == 1:
        columns = ["count"]
    else:
        columns = [r.split for r in ordered]
    lines = ["category," + ",".join(columns)]
    for idx, name in enumerate(first.object_names):
        cells = ",".join(str(r.object_counts[idx]) for r in ordered)
        lines.append(f"{_csv_cell(name)},{cells}")
    lines.append("")
    lines.append("category," + ",".join(columns))
    for idx, name in enumerate(first.relation_names):
        cells = ",".join(str(r.relation_counts[idx]) for r in ordered)
        lines.append(f"{_csv_cell(name)},{cells}")
    return "\n".join(lines) + "\n"
