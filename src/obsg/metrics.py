"""Detection and scene-graph evaluation.

Detection side: greedy score-ordered matching against ground truth at a
rotated-IoU threshold, all-point interpolated average precision per
category, and mAP over categories that have at least one ground-truth box.

Scene-graph side: a scene's relations resolved to their objects are
:class:`TripletColumns`, for predictions and ground truth alike, and triplet
matching covers the three standard subtasks.  A predicted triplet matches a
ground-truth triplet when the predicate and both endpoint class labels agree
and the endpoints correspond: by object id for ``predcls`` and ``sgcls``, by
rotated IoU at the configured threshold on both boxes for ``sgdet``.
Targets are looked up by that key, never scanned.  Each ground truth is
matched at most once.  With the graph constraint (default) only the highest
scored predicate of each ordered object pair enters the ranking.  Recall@K
counts ground truth matched by predictions inside each image's top K;
dataset numbers aggregate matched/total tallies over images, and mean
recall averages the per-predicate recalls of predicates with ground truth.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .datamodel import Dataset, Detection, ObjectInstance, SceneAnnotation, _rank
from .errors import DataError, RegistryMismatchError
from .geometry import OrientedBox, _check_iou_threshold, rotated_iou

SUBTASKS = ("predcls", "sgcls", "sgdet")
DEFAULT_K_VALUES = (20, 50, 100, 500)
# Rotated IoU at or above which a predicted box matches a ground-truth box.
IOU_THRESHOLD = 0.5
IDENTITY_SUBTASKS = ("predcls", "sgcls")


def precision(tp: int, fp: int) -> float:
    """tp / (tp + fp); requires at least one prediction."""
    if tp < 0 or fp < 0:
        raise ValueError(f"negative count: tp={tp} fp={fp}")
    if tp + fp == 0:
        raise ValueError("precision undefined without predictions")
    return tp / (tp + fp)


def recall(tp: int, fn: int) -> float:
    """tp / (tp + fn); requires at least one ground truth."""
    if tp < 0 or fn < 0:
        raise ValueError(f"negative count: tp={tp} fn={fn}")
    if tp + fn == 0:
        raise ValueError("recall undefined without ground truth")
    return tp / (tp + fn)


@dataclass(frozen=True)
class MatchConfig:
    """Knobs of scene-graph evaluation."""

    subtask: str = "predcls"
    iou_threshold: float = IOU_THRESHOLD
    k_values: tuple[int, ...] = DEFAULT_K_VALUES
    graph_constraint: bool = True

    def __post_init__(self) -> None:
        if self.subtask not in SUBTASKS:
            raise ValueError(f"subtask must be one of {SUBTASKS}: {self.subtask!r}")
        _check_iou_threshold(self.iou_threshold)
        if not self.k_values:
            raise ValueError("k_values must not be empty")
        if any(k <= 0 for k in self.k_values):
            raise ValueError(f"k values must be positive: {self.k_values}")
        if any(b <= a for a, b in zip(self.k_values, self.k_values[1:])):
            raise ValueError(
                f"k values must be strictly ascending: {self.k_values}"
            )


@dataclass(frozen=True)
class Triplet:
    """A relation resolved to its two objects.

    ``score`` is the ranking score of a predicted triplet and stays ``None``
    on ground truth.
    """

    subject: ObjectInstance
    predicate: int
    object: ObjectInstance
    score: float | None = None


@dataclass(frozen=True)
class TripletColumns:
    """A scene's relations resolved to its objects, as aligned columns.

    ``subjects`` and ``objects`` hold positions in ``instances``;
    ``scores`` holds each triplet's ranking score, ``None`` on ground
    truth.
    """

    instances: tuple[ObjectInstance, ...]
    subjects: Sequence[int]
    predicates: Sequence[int]
    objects: Sequence[int]
    scores: Sequence[float | None]

    @classmethod
    def from_rows(cls, rows: Iterable[Triplet]) -> TripletColumns:
        """Columns of :class:`Triplet` rows; each row's two objects become
        two instances."""
        rows = list(rows)
        return cls(
            tuple(obj for row in rows for obj in (row.subject, row.object)),
            range(0, 2 * len(rows), 2),
            [row.predicate for row in rows],
            range(1, 2 * len(rows), 2),
            [row.score for row in rows],
        )

    def __len__(self) -> int:
        return len(self.predicates)


_NO_TRIPLETS = TripletColumns((), (), (), (), ())


@dataclass(frozen=True)
class TripletMatchResult:
    """Ranked matching outcome for one image.

    ``ranking`` holds indices into the prediction list, best score first,
    after graph-constraint filtering.  ``matched`` is aligned with
    ``ranking`` and holds the matched ground-truth index or -1.
    """

    ranking: tuple[int, ...]
    matched: tuple[int, ...]


def _take_best(candidates: list[int], values: Sequence[float], threshold: float) -> int:
    """The greedy rule of every box matcher: remove and return the first of
    ``candidates`` with the highest of the aligned ``values`` at or above
    ``threshold``, or -1."""
    best, best_value = -1, -math.inf
    for k, value in enumerate(values):
        if value >= threshold and value > best_value:
            best, best_value = k, value
    return candidates.pop(best) if best >= 0 else -1


def match_detections(
    predictions: Sequence[ObjectInstance | Detection],
    truths: Sequence[OrientedBox],
    iou_threshold: float = IOU_THRESHOLD,
) -> list[bool]:
    """Per-prediction TP flags for one image and one category.

    A prediction is anything with a ``box`` and a ``score``: a scored
    object or a :class:`Detection`.  Predictions are visited by descending
    score, ties by input order.  A prediction is a TP iff its best-IoU
    still-unmatched ground truth reaches ``iou_threshold`` (equal IoUs
    resolve to the lowest ground-truth index); that ground truth is then
    consumed.  Flags are returned in input order.  A missing or non-finite
    score is a ``ValueError``.
    """
    _check_iou_threshold(iou_threshold)
    flags = [False] * len(predictions)
    untaken = list(range(len(truths)))
    for i in _rank([p.score for p in predictions]):
        box = predictions[i].box
        values = [rotated_iou(box, truths[g]) for g in untaken]
        flags[i] = _take_best(untaken, values, iou_threshold) >= 0
    return flags


def average_precision(flags: Sequence[bool], n_gt: int) -> float:
    """All-point interpolated AP from rank-ordered TP/FP flags.

    Precision is replaced by its monotone non-increasing envelope and
    integrated over recall.  ``flags`` must already be in ranking order.
    """
    if n_gt <= 0:
        raise ValueError("average precision undefined without ground truth")
    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    for i, flag in enumerate(flags):
        if flag:
            tp += 1
        precisions.append(tp / (i + 1))
        recalls.append(tp / n_gt)
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = 0.0
    prev_recall = 0.0
    for p, r in zip(precisions, recalls):
        ap += (r - prev_recall) * p
        prev_recall = r
    return ap


def mean_ap(per_class_ap: Sequence[float]) -> float:
    """Arithmetic mean of per-category AP values."""
    if not per_class_ap:
        raise ValueError("mean AP needs at least one category")
    return sum(per_class_ap) / len(per_class_ap)


def recall_at_k(flags: Sequence[bool], n_gt: int, k: int) -> float:
    """Matched ground-truth count within the top ``k`` ranks over ``n_gt``."""
    if n_gt <= 0:
        raise ValueError("recall undefined without ground truth")
    if k <= 0:
        raise ValueError(f"k must be positive: {k}")
    return sum(bool(f) for f in flags[:k]) / n_gt


def mean_recall_at_k(per_predicate_recall: Sequence[float]) -> float:
    """Mean of per-predicate recalls (predicates with ground truth only)."""
    if not per_predicate_recall:
        raise ValueError("mean recall needs at least one predicate")
    return sum(per_predicate_recall) / len(per_predicate_recall)


def _match_keys(triplets: TripletColumns, identity: bool) -> list[tuple]:
    """What a prediction and a target must share to match, per triplet: the
    predicate and both classes, and with ``identity`` both object ids."""
    ends = [(obj.category, obj.id) if identity else obj.category for obj in triplets.instances]
    return [
        (p, ends[i], ends[j])
        for i, p, j in zip(triplets.subjects, triplets.predicates, triplets.objects)
    ]


def match_triplets(
    predictions: TripletColumns | Sequence[Triplet],
    targets: TripletColumns | Sequence[Triplet],
    config: MatchConfig,
) -> TripletMatchResult:
    """Greedy ranked matching of predicted against ground-truth triplets.

    Either side is the column form :func:`scene_triplets` returns or a
    sequence of :class:`Triplet` rows, which is turned into columns first.
    Predictions are ranked by descending score, ties by input order; a
    missing or non-finite score is a ``ValueError``.  Under the graph
    constraint only the first-ranked predicate per ordered pair of
    object ids survives.  Matching consumes each ground truth at most once;
    among eligible ground truths a prediction takes the one with the largest
    minimum endpoint IoU (sgdet), remaining ties, and every identity match,
    to the lowest index.  A prediction visits only the targets that share
    its match key (predicate, both classes and, for predcls and sgcls, both
    object ids), in ascending index.  sgdet computes the IoU of a (predicted
    instance, target instance) pair once per call, for subject and object
    endpoints alike.
    """
    if not isinstance(predictions, TripletColumns):
        predictions = TripletColumns.from_rows(predictions)
    if not isinstance(targets, TripletColumns):
        targets = TripletColumns.from_rows(targets)
    order = _rank(predictions.scores)
    if not order:
        return TripletMatchResult((), ())
    ranking = order
    if config.graph_constraint:
        ids = [obj.id for obj in predictions.instances]
        subjects, objects = predictions.subjects, predictions.objects
        first: dict[tuple[int, int], int] = {}
        for i in order:
            first.setdefault((ids[subjects[i]], ids[objects[i]]), i)
        ranking = list(first.values())
    identity = config.subtask in IDENTITY_SUBTASKS
    # Untaken targets per key, ascending; a match removes its target.
    buckets: dict[tuple, list[int]] = {}
    for g, key in enumerate(_match_keys(targets, identity)):
        buckets.setdefault(key, []).append(g)
    keys = _match_keys(predictions, identity)
    detected, truths = predictions.instances, targets.instances
    # IoU of predicted instance a and target instance b, computed once.
    iou = functools.cache(lambda a, b: rotated_iou(detected[a].box, truths[b].box))
    threshold = config.iou_threshold
    matched: list[int] = []
    for i in ranking:
        candidates = buckets.get(keys[i])
        if not candidates:
            matched.append(-1)
        elif identity:
            matched.append(candidates.pop(0))
        else:
            # The smaller endpoint IoU; -1, without the object's, if the subject's misses.
            s, o = predictions.subjects[i], predictions.objects[i]
            values = [
                min(iou_s, iou(o, targets.objects[g]))
                if (iou_s := iou(s, targets.subjects[g])) >= threshold else -1.0
                for g in candidates
            ]
            matched.append(_take_best(candidates, values, threshold))
    return TripletMatchResult(tuple(ranking), tuple(matched))


@dataclass(frozen=True)
class EvalReport:
    """Evaluation results of one run; detection or scene-graph fields are set.

    ``counts`` maps a category (or predicate) name to its tp/fp/fn tally.
    Recall dictionaries are keyed by K.  ``coverage`` (see :func:`_paired_scenes`)
    describes the inputs, not the result: it is neither compared nor written.
    """

    kind: str
    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    per_class_ap: dict[str, float] | None = None
    mean_ap: float | None = None
    recall_at_k: dict[int, float] | None = None
    per_predicate_recall_at_k: dict[str, dict[int, float]] | None = None
    mean_recall_at_k: dict[int, float] | None = None
    coverage: dict[str, int] = field(default_factory=dict, compare=False)


def _paired_scenes(
    gt: Dataset, predictions: Dataset
) -> tuple[list[tuple[SceneAnnotation, SceneAnnotation | None]], dict[str, int]]:
    """Each ground-truth scene with its image's prediction scene or ``None``,
    and the coverage counts (``gt_images``, ``gt_without_prediction``,
    ``pred_images``, ``pred_not_in_gt``) of the two image-id sets.

    Raises:
        RegistryMismatchError: the two sides use different category lists.
        DataError: an unscored prediction or a non-finite object score.
    """
    if predictions.registry != gt.registry:
        raise RegistryMismatchError(
            "prediction file and ground truth use different category lists"
        )
    for scene in predictions.scenes:
        for obj in scene.objects:
            score = obj.score
            if score is None or not math.isfinite(score):
                problem = "no score" if score is None else f"non-finite score {score!r}"
                raise DataError(
                    f"prediction image {scene.image_id!r}: object {obj.id} has {problem}"
                )
        if None in scene.relations.scores:
            rel, k = scene.relations, scene.relations.scores.index(None)
            raise DataError(
                f"prediction image {scene.image_id!r}: relation "
                f"{rel.subjects[k]}-{rel.predicates[k]}->{rel.objects[k]} has no score"
            )
    index = {scene.image_id: scene for scene in predictions.scenes}
    pairs = [(scene, index.get(scene.image_id)) for scene in gt.scenes]
    gt_ids = {scene.image_id for scene in gt.scenes}
    coverage = {
        "gt_images": len(gt_ids),
        "gt_without_prediction": len(gt_ids - index.keys()),
        "pred_images": len(index),
        "pred_not_in_gt": len(index.keys() - gt_ids),
    }
    return pairs, coverage


def evaluate_detections(
    gt: Dataset,
    predictions: Dataset,
    iou_threshold: float = IOU_THRESHOLD,
    include_empty_classes: bool = False,
) -> EvalReport:
    """Detection mAP report over a dataset.

    Per category, detections from all images are ranked once by score
    (ties follow ground-truth scene order, then file order) and visited in
    that order; each takes the best-IoU untaken ground truth of its own
    image and category, by the rule of :func:`match_detections`.
    Categories without ground truth are excluded from the mean unless
    ``include_empty_classes`` pins their AP to 0.

    Raises:
        DataError: a prediction scene that :func:`_paired_scenes` rejects,
            or ground truth without objects.
    """
    _check_iou_threshold(iou_threshold)
    pairs, coverage = _paired_scenes(gt, predictions)
    names = gt.registry.object_names
    gt_totals = [0] * len(names)
    # Positions in ``boxes`` of the untaken truths per (scene, class), and each
    # class's (scene, prediction) pairs, in ground-truth scene order then file order.
    boxes: list[OrientedBox] = []
    untaken: dict[tuple[int, int], list[int]] = {}
    class_preds: list[list[tuple[int, ObjectInstance]]] = [[] for _ in names]
    for s, (scene, pred_scene) in enumerate(pairs):
        for obj in scene.objects:
            gt_totals[obj.category] += 1
            untaken.setdefault((s, obj.category), []).append(len(boxes))
            boxes.append(obj.box)
        for obj in pred_scene.objects if pred_scene is not None else ():
            class_preds[obj.category].append((s, obj))
    if sum(gt_totals) == 0:
        raise DataError("ground truth contains no objects")
    per_class_ap: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    for c, preds in enumerate(class_preds):
        flags = []
        for i in _rank([obj.score for _, obj in preds]):
            s, obj = preds[i]
            truths = untaken.get((s, c), [])
            values = [rotated_iou(obj.box, boxes[g]) for g in truths]
            flags.append(_take_best(truths, values, iou_threshold) >= 0)
        tp = sum(flags)
        counts[names[c]] = {"tp": tp, "fp": len(flags) - tp, "fn": gt_totals[c] - tp}
        if gt_totals[c] > 0:
            per_class_ap[names[c]] = average_precision(flags, gt_totals[c])
        elif include_empty_classes:
            per_class_ap[names[c]] = 0.0
    return EvalReport(
        kind="detection",
        counts=counts,
        per_class_ap=per_class_ap,
        mean_ap=mean_ap(list(per_class_ap.values())),
        coverage=coverage,
    )


def scene_triplets(scene: SceneAnnotation) -> TripletColumns:
    """A scene's relations resolved to its objects, in relation order: the
    endpoint positions, predicates and scores, with the scene's objects
    (one shared empty value for a scene without relations).

    A scored relation gets the composite score subject score times relation
    score times object score; an unscored (ground-truth) one keeps ``None``.

    Raises:
        DataError: a relation whose composite score is not finite.
    """
    rel = scene.relations
    if not rel.predicates:
        return _NO_TRIPLETS
    subjects, objects = scene.relation_endpoints
    instances = scene.objects
    scores = [
        None if score is None else instances[i].score * score * instances[j].score
        for i, j, score in zip(subjects, objects, rel.scores)
    ]
    scored = [score for score in scores if score is not None] if None in scores else scores
    if not all(map(math.isfinite, scored)):
        k = next(
            k for k, score in enumerate(scores)
            if score is not None and not math.isfinite(score)
        )
        raise DataError(
            f"image {scene.image_id!r}: relation {rel.subjects[k]}-{rel.predicates[k]}->"
            f"{rel.objects[k]} has non-finite composite score {scores[k]!r}"
        )
    return TripletColumns(instances, subjects, rel.predicates, objects, scores)


def evaluate_scene_graphs(
    gt: Dataset, predictions: Dataset, config: MatchConfig | None = None
) -> EvalReport:
    """Recall@K report over a dataset for one scene-graph subtask.

    Overall recall divides the ground truth matched within each image's top
    K by the total ground-truth triplet count; per-predicate recalls do the
    same per predicate, and their mean (over predicates with ground truth)
    is the mean recall.

    Raises:
        DataError: a prediction scene that :func:`_paired_scenes` rejects,
            a relation whose composite score :func:`scene_triplets` rejects,
            or ground truth without relation triplets.
    """
    config = config or MatchConfig()
    pairs, coverage = _paired_scenes(gt, predictions)
    rel_names = gt.registry.relation_names
    ks = config.k_values
    gt_per_pred = [0] * len(rel_names)
    matched_per_pred = {k: [0] * len(rel_names) for k in ks}
    tp_per_pred = [0] * len(rel_names)
    fp_per_pred = [0] * len(rel_names)
    for scene, pred_scene in pairs:
        targets = scene_triplets(scene)
        preds = _NO_TRIPLETS if pred_scene is None else scene_triplets(pred_scene)
        result = match_triplets(preds, targets, config)
        for predicate in targets.predicates:
            gt_per_pred[predicate] += 1
        predicates = preds.predicates
        for rank, (pred_idx, g) in enumerate(zip(result.ranking, result.matched)):
            predicate = predicates[pred_idx]
            if g >= 0:
                tp_per_pred[predicate] += 1
                for k in ks:
                    if rank < k:
                        matched_per_pred[k][predicate] += 1
            else:
                fp_per_pred[predicate] += 1
    gt_total = sum(gt_per_pred)
    if gt_total == 0:
        raise DataError("ground truth contains no relation triplets")
    overall = {k: sum(matched_per_pred[k]) / gt_total for k in ks}
    per_predicate: dict[str, dict[int, float]] = {}
    for p, name in enumerate(rel_names):
        if gt_per_pred[p] > 0:
            per_predicate[name] = {
                k: matched_per_pred[k][p] / gt_per_pred[p] for k in ks
            }
    mean_recall = {
        k: mean_recall_at_k([r[k] for r in per_predicate.values()]) for k in ks
    }
    counts = {
        name: {
            "tp": tp_per_pred[p],
            "fp": fp_per_pred[p],
            "fn": gt_per_pred[p] - tp_per_pred[p],
        }
        for p, name in enumerate(rel_names)
        if gt_per_pred[p] > 0 or tp_per_pred[p] + fp_per_pred[p] > 0
    }
    return EvalReport(
        kind="scene_graph",
        counts=counts,
        recall_at_k=overall,
        per_predicate_recall_at_k=per_predicate,
        mean_recall_at_k=mean_recall,
        coverage=coverage,
    )


# --- report emission ------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def report_to_json(report: EvalReport) -> str:
    doc: dict = {"kind": report.kind, "counts": report.counts}
    if report.per_class_ap is not None:
        doc["per_class_ap"] = report.per_class_ap
        doc["map"] = report.mean_ap
    if report.recall_at_k is not None:
        doc["recall_at_k"] = {str(k): v for k, v in report.recall_at_k.items()}
        doc["per_predicate_recall_at_k"] = {
            name: {str(k): v for k, v in rs.items()}
            for name, rs in (report.per_predicate_recall_at_k or {}).items()
        }
        doc["mean_recall_at_k"] = {
            str(k): v for k, v in (report.mean_recall_at_k or {}).items()
        }
    return json.dumps(doc, separators=(",", ":"))


def report_to_csv(report: EvalReport) -> str:
    """Fixed-layout CSV: category AP rows or per-predicate recall rows.

    The final row holds the mean over the listed rows.
    """
    lines: list[str] = []
    if report.kind == "detection":
        if report.per_class_ap is None:
            raise ValueError("detection report has no AP data")
        lines.append("category,ap")
        for name, ap in report.per_class_ap.items():
            lines.append(f"{_csv_cell(name)},{_fmt(ap)}")
        lines.append(f"mean,{_fmt(report.mean_ap or 0.0)}")
    else:
        if report.per_predicate_recall_at_k is None or report.recall_at_k is None:
            raise ValueError("scene-graph report has no recall data")
        ks = sorted(report.recall_at_k)
        header = "predicate," + ",".join(f"r@{k}" for k in ks)
        lines.append(header)
        for name, recalls in report.per_predicate_recall_at_k.items():
            cells = ",".join(_fmt(recalls[k]) for k in ks)
            lines.append(f"{_csv_cell(name)},{cells}")
        mean_cells = ",".join(_fmt((report.mean_recall_at_k or {})[k]) for k in ks)
        lines.append(f"mean,{mean_cells}")
    return "\n".join(lines) + "\n"


def _csv_cell(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text
