"""Independent reference implementations used to check the library.

Everything here is deliberately written from scratch with plain loops and
its own membership tests so that agreement with the library is evidence,
not tautology.  Only matching *semantics* shared by contract (greedy order,
tie rules) reuse the library's IoU values, since exact flag equality
requires identical overlap numbers.  The pair layer keeps the scalar forms
that the library replaced with index arrays: the list enumeration of
ordered pairs, per-pair geometry and feature vectors, dense-row training
of the linear scorer, the per-pair prediction loop and the pair-walking
frequency prior.  They are built on
the library's box parameters, ``rotated_iou`` and the prior row of one
class pair (``reference_prior_row``), which define the numbers that the
array paths must reproduce.  ``reference_linear_loss_and_grad`` keeps the
hot-row loss that checked, sorted and allocated its whole batch on every
call, which the library's once-per-run training batch must reproduce bit
for bit.  ``reference_rotated_iou`` keeps the IoU that divided a zero
intersection by the union, and ``reference_crop_scene`` the crop that
tested every object of the scene against the tile; the library must match
both bit for bit.  ``reference_evaluate_detections`` keeps the
per-(image, class) detection evaluation that the library replaced with one
ranking per class over the whole file;
``reference_evaluate_scene_graphs`` gates the whole scene-graph report the
same way, from ``reference_match_triplets`` per image.  ``reference_serialize_dataset`` keeps the
nested-dict ``json.dumps`` writer that the library's direct text writer
must match byte for byte, and ``reference_save_prior`` the prior writer
that visited every cell of the count table.  ``reference_parse`` keeps the located walk
over a whole decoded document, which the parser now takes per scene and only
after its fast path meets a defect; it is built on
the parser's per-value helpers, which define every message, and leaves the
rules of a scene and a dataset to the types that own them.
``reference_from_vertices`` keeps the rectangle rule as ``from_vertices``
applied it before every way of building a box did; the box must accept the
same quads, with the same vertices, and reject the rest with the same message.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from obsg import (
    DataError,
    Dataset,
    EvalReport,
    FrequencyPrior,
    LinearScorer,
    ObjectInstance,
    OrientedBox,
    RelationColumns,
    SceneAnnotation,
    Triplet,
    average_precision,
    intersection_area,
    match_detections,
    rotated_iou,
    sample_pairs,
)
from obsg.datamodel import (
    NO_RELATIONS,
    _expect,
    _get,
    _parse_box,
    _parse_header,
    _parse_score,
)
from obsg.geometry import DEGENERATE_EPS, RECTANGLE_TOL, TWO_PI
from obsg.ingest import _EDGE_EPS, _check_keep_fraction
from obsg.scorer import GEOMETRY_FEATURES, feature_count, linear_loss_and_grad


def reference_shoelace(points) -> float:
    total = 0.0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def points_in_quad(points: np.ndarray, quad) -> np.ndarray:
    """Vectorized convex-quad membership by cross-product sign consistency."""
    pos = np.ones(len(points), dtype=bool)
    neg = np.ones(len(points), dtype=bool)
    for i in range(4):
        ax, ay = quad[i]
        bx, by = quad[(i + 1) % 4]
        cross = (bx - ax) * (points[:, 1] - ay) - (by - ay) * (points[:, 0] - ax)
        pos &= cross >= 0.0
        neg &= cross <= 0.0
    return pos | neg


def mc_iou(
    a: OrientedBox, b: OrientedBox, n_samples: int, rng: np.random.Generator
) -> tuple[float, float, int]:
    """Monte-Carlo IoU estimate with its binomial standard error.

    Samples uniformly in the joint bounding rectangle.  Conditioned on the
    union hits, the intersection hits are binomial, so the standard error
    of the ratio is sqrt(q * (1 - q) / k_union).
    """
    xs = [p[0] for p in a.vertices] + [p[0] for p in b.vertices]
    ys = [p[1] for p in a.vertices] + [p[1] for p in b.vertices]
    lo = np.array([min(xs), min(ys)])
    hi = np.array([max(xs), max(ys)])
    pts = rng.uniform(lo, hi, size=(n_samples, 2))
    in_a = points_in_quad(pts, a.vertices)
    in_b = points_in_quad(pts, b.vertices)
    k_inter = int(np.count_nonzero(in_a & in_b))
    k_union = int(np.count_nonzero(in_a | in_b))
    if k_union == 0:
        return 0.0, 0.0, 0
    q = k_inter / k_union
    sigma = math.sqrt(q * (1.0 - q) / k_union)
    return q, sigma, k_union


def mc_intersection_area(
    a: OrientedBox, b: OrientedBox, n_samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo estimate of the overlap area and its standard error."""
    xs = [p[0] for p in a.vertices] + [p[0] for p in b.vertices]
    ys = [p[1] for p in a.vertices] + [p[1] for p in b.vertices]
    lo = np.array([min(xs), min(ys)])
    hi = np.array([max(xs), max(ys)])
    box_area = float((hi[0] - lo[0]) * (hi[1] - lo[1]))
    pts = rng.uniform(lo, hi, size=(n_samples, 2))
    hits = points_in_quad(pts, a.vertices) & points_in_quad(pts, b.vertices)
    p = float(np.count_nonzero(hits)) / n_samples
    estimate = p * box_area
    sigma = box_area * math.sqrt(p * (1.0 - p) / n_samples)
    return estimate, sigma


def relation_columns(rows) -> RelationColumns:
    """The :class:`RelationColumns` of ``(subject, predicate, object[,
    score])`` tuples, in row order; a row of three has no score."""
    return RelationColumns(*zip(*((*row, None)[:4] for row in rows)))


def random_box(
    rng: np.random.Generator,
    center_lo: float = 0.0,
    center_hi: float = 100.0,
    side_lo: float = 0.5,
    side_hi: float = 30.0,
) -> OrientedBox:
    return OrientedBox.from_params(
        cx=float(rng.uniform(center_lo, center_hi)),
        cy=float(rng.uniform(center_lo, center_hi)),
        w=float(rng.uniform(side_lo, side_hi)),
        h=float(rng.uniform(side_lo, side_hi)),
        theta=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def _reference_point(p):
    try:
        x, y = p
    except (TypeError, ValueError):
        raise ValueError(f"expected an (x, y) point, got {p!r}") from None
    if type(x) is float and type(y) is float:
        return (x, y)
    for v in (x, y):
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"non-numeric coordinate in point {p!r}")
    return (float(x), float(y))


def reference_from_vertices(vertices) -> tuple:
    """The vertices of the box that ``OrientedBox.from_vertices`` built when
    it alone applied the rectangle rule, or its ``ValueError``."""
    pts = [_reference_point(p) for p in vertices]
    if len(pts) != 4:
        raise ValueError(f"expected 4 points, got {pts!r}")
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts
    if not all(map(math.isfinite, (x0, y0, x1, y1, x2, y2, x3, y3))):
        raise ValueError(f"non-finite vertex in {pts!r}")
    e1x, e1y = x1 - x0, y1 - y0
    e2x, e2y = x2 - x1, y2 - y1
    e3x, e3y = x3 - x2, y3 - y2
    e4x, e4y = x0 - x3, y0 - y3
    side1, side2 = math.hypot(e1x, e1y), math.hypot(e2x, e2y)
    # Overflow makes NaN, which passes a `>` test; the corner test uses `<=`.
    if not (math.isfinite(side1) and math.isfinite(side2)):
        raise ValueError(f"non-finite side in {pts!r}")
    if side1 <= DEGENERATE_EPS or side2 <= DEGENERATE_EPS:
        raise ValueError(f"degenerate side in {pts!r}")
    tol = RECTANGLE_TOL
    if math.hypot(e1x + e3x, e1y + e3y) > tol or math.hypot(e2x + e4x, e2y + e4y) > tol:
        raise ValueError(f"opposite sides differ beyond tol={tol}: {pts!r}")
    if not abs(e1x * e2x + e1y * e2y) <= tol * max(side1, side2):
        raise ValueError(f"corners not perpendicular within tol={tol}: {pts!r}")
    # An infinite area makes the IoU of the box with itself inf - inf.
    if not math.isfinite(side1 * side2):
        raise ValueError(f"box area overflows in {pts!r}")
    return tuple(pts)


def reference_match_detections(detections, truths, iou_threshold):
    """Plain-loop greedy matcher: score order, best unmatched IoU, low index."""
    order = sorted(range(len(detections)), key=lambda i: -detections[i].score)
    flags = [False] * len(detections)
    used = [False] * len(truths)
    for i in order:
        best = -1
        best_iou = 0.0
        for g in range(len(truths)):
            if used[g]:
                continue
            value = rotated_iou(detections[i].box, truths[g])
            if value > best_iou:
                best_iou = value
                best = g
        if best >= 0 and best_iou >= iou_threshold:
            flags[i] = True
            used[best] = True
    return flags


def reference_evaluate_detections(gt, predictions, iou_threshold=0.5, include_empty_classes=False):
    """Detection report visiting every category slot of every image: the
    library's matcher runs once per (image, class), with or without
    predictions, and every prediction gets a global input counter that
    breaks score ties.  Assumes valid inputs; AP uses the library's
    ``average_precision`` so that equal flags give equal values."""
    pred_index = {scene.image_id: scene for scene in predictions.scenes}
    names = gt.registry.object_names
    num_classes = len(names)
    scored_flags = [[] for _ in range(num_classes)]
    gt_totals = [0] * num_classes
    counter = 0
    for scene in gt.scenes:
        pred_scene = pred_index.get(scene.image_id)
        scene_preds = pred_scene.objects if pred_scene is not None else ()
        for c in range(num_classes):
            truths = [o.box for o in scene.objects if o.category == c]
            gt_totals[c] += len(truths)
            dets = [o for o in scene_preds if o.category == c]
            flags = match_detections(dets, truths, iou_threshold)
            for det, flag in zip(dets, flags):
                scored_flags[c].append((det.score, counter, flag))
                counter += 1
    if sum(gt_totals) == 0:
        raise DataError("ground truth contains no objects")
    per_class_ap = {}
    counts = {}
    for c in range(num_classes):
        rows = sorted(scored_flags[c], key=lambda r: (-r[0], r[1]))
        flags = [flag for _, _, flag in rows]
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
        mean_ap=sum(per_class_ap.values()) / len(per_class_ap),
    )


def reference_average_precision(flags, n_gt) -> float:
    """All-point AP via explicit suffix-maximum precision envelope."""
    points = []
    tp = 0
    fp = 0
    for flag in flags:
        if flag:
            tp += 1
        else:
            fp += 1
        points.append((tp / n_gt, tp / (tp + fp)))
    ap = 0.0
    prev_recall = 0.0
    for i, (r, _) in enumerate(points):
        envelope = max(p for _, p in points[i:])
        ap += (r - prev_recall) * envelope
        prev_recall = r
    return ap


def reference_recall_at_k(flags, n_gt, k) -> float:
    hits = 0
    for flag in list(flags)[:k]:
        if flag:
            hits += 1
    return hits / n_gt


def reference_match_triplets(predictions, targets, config):
    """Plain-loop triplet matcher mirroring the pinned greedy semantics.

    Returns (ranking, matched) like the library, built independently.
    """
    order = sorted(range(len(predictions)), key=lambda i: -predictions[i].score)
    if config.graph_constraint:
        ranking = []
        seen = set()
        for i in order:
            p = predictions[i]
            key = (p.subject.id, p.object.id)
            if key in seen:
                continue
            seen.add(key)
            ranking.append(i)
    else:
        ranking = list(order)
    identity = config.subtask in ("predcls", "sgcls")
    used = [False] * len(targets)
    matched = []
    for i in ranking:
        p = predictions[i]
        best = -1
        best_quality = -1.0
        for g, t in enumerate(targets):
            if used[g]:
                continue
            if t.predicate != p.predicate:
                continue
            if p.subject.category != t.subject.category:
                continue
            if p.object.category != t.object.category:
                continue
            if identity:
                if p.subject.id != t.subject.id or p.object.id != t.object.id:
                    continue
                quality = 1.0
            else:
                iou_s = rotated_iou(p.subject.box, t.subject.box)
                iou_o = rotated_iou(p.object.box, t.object.box)
                if min(iou_s, iou_o) < config.iou_threshold:
                    continue
                quality = min(iou_s, iou_o)
            if quality > best_quality:
                best_quality = quality
                best = g
        if best >= 0:
            used[best] = True
        matched.append(best)
    return ranking, matched


def reference_evaluate_scene_graphs(gt, predictions, config):
    """Scene-graph report from a plain loop over ground-truth images: each
    image's relations are resolved to :class:`Triplet` rows here (a scored
    row's score is subject score times relation score times object score),
    matched by ``reference_match_triplets`` and tallied per predicate.  A
    ground-truth image without predictions has no ranked triplets; a
    prediction image not in the ground truth is ignored.  Assumes valid
    inputs."""

    def rows(scene):
        by_id = {obj.id: obj for obj in scene.objects}
        out = []
        for rel in scene.relations:
            s, o = by_id[rel.subject], by_id[rel.object]
            score = None if rel.score is None else s.score * rel.score * o.score
            out.append(Triplet(s, rel.predicate, o, score))
        return out

    pred_index = {scene.image_id: scene for scene in predictions.scenes}
    names = gt.registry.relation_names
    ks = config.k_values
    n_gt = [0] * len(names)
    tp = [0] * len(names)
    fp = [0] * len(names)
    hits = {k: [0] * len(names) for k in ks}
    for scene in gt.scenes:
        targets = rows(scene)
        pred_scene = pred_index.get(scene.image_id)
        preds = rows(pred_scene) if pred_scene is not None else []
        ranking, matched = reference_match_triplets(preds, targets, config)
        for t in targets:
            n_gt[t.predicate] += 1
        for rank, (i, g) in enumerate(zip(ranking, matched)):
            p = preds[i].predicate
            if g < 0:
                fp[p] += 1
                continue
            tp[p] += 1
            for k in ks:
                if rank < k:
                    hits[k][p] += 1
    total = sum(n_gt)
    if total == 0:
        raise DataError("ground truth contains no relation triplets")
    per_predicate = {
        names[p]: {k: hits[k][p] / n_gt[p] for k in ks}
        for p in range(len(names))
        if n_gt[p] > 0
    }
    return EvalReport(
        kind="scene_graph",
        counts={
            names[p]: {"tp": tp[p], "fp": fp[p], "fn": n_gt[p] - tp[p]}
            for p in range(len(names))
            if n_gt[p] > 0 or tp[p] + fp[p] > 0
        },
        recall_at_k={k: sum(hits[k]) / total for k in ks},
        per_predicate_recall_at_k=per_predicate,
        mean_recall_at_k={
            k: sum(r[k] for r in per_predicate.values()) / len(per_predicate) for k in ks
        },
    )


def reference_rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """The IoU that divides whatever intersection it gets, 0.0 included, by
    the union; the library returns a zero intersection at once."""
    inter = a.area if a.vertices == b.vertices else intersection_area(a, b)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def reference_crop_scene(scene, tile, keep_fraction) -> SceneAnnotation:
    """``crop_scene`` as a test of every object of the scene against the
    tile, and a scan of every relation; the library visits only the objects
    that its x-extent index puts near the tile."""
    _check_keep_fraction(keep_fraction)
    x0, y0 = tile.origin_x, tile.origin_y
    x1 = min(x0 + tile.size, scene.width)
    y1 = min(y0 + tile.size, scene.height)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"tile {tile} lies outside image {scene.image_id!r}")
    tile_box = None
    kept: list[ObjectInstance] = []
    keeps: list[bool] = []
    for obj in scene.objects:
        xmin, ymin, xmax, ymax = obj.box.extent
        # Containment is decided on the extent: the clipped area of a
        # contained box can come out an ulp below its area.  A box whose
        # extent misses the tile has no area inside it; the tile's own box
        # is built for the first one that straddles its edge.
        inside = (
            x0 - _EDGE_EPS <= xmin
            and xmax <= x1 + _EDGE_EPS
            and y0 - _EDGE_EPS <= ymin
            and ymax <= y1 + _EDGE_EPS
        )
        keep = inside
        if not inside and xmin <= x1 and x0 <= xmax and ymin <= y1 and y0 <= ymax:
            tile_box = tile_box or OrientedBox.axis_aligned(x0, y0, x1, y1)
            keep = intersection_area(obj.box, tile_box) / obj.box.area >= keep_fraction
        keeps.append(keep)
        if keep:
            kept.append(ObjectInstance(
                obj.id, obj.category, obj.box.translate(-x0, -y0), obj.truncated or not inside,
                score=obj.score,
            ))
    rel = scene.relations
    n = len(rel.predicates)
    survivors = [
        k for k, i, j in zip(range(n), *scene.relation_endpoints) if keeps[i] and keeps[j]
    ]
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


def reference_nms(detections, iou_threshold):
    """Brute-force per-category greedy suppression."""
    order = sorted(range(len(detections)), key=lambda i: -detections[i].score)
    kept = []
    for i in order:
        candidate = detections[i]
        blocked = False
        for other in kept:
            if other.category != candidate.category:
                continue
            if rotated_iou(candidate.box, other.box) >= iou_threshold:
                blocked = True
                break
        if not blocked:
            kept.append(candidate)
    return kept


def central_difference_gradient(func, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate."""
    grad = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        bump = np.zeros_like(x, dtype=np.float64)
        bump[idx] = step
        grad[idx] = (func(x + bump) - func(x - bump)) / (2.0 * step)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise |a-b| / max(|a|, |b|, 1e-8)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def reference_intersection_area(a: OrientedBox, b: OrientedBox) -> float:
    """Overlap area by Sutherland-Hodgman clipping, with no bounding-box reject.

    Clips ``a`` against every edge of ``b`` (both loops made positive) and
    returns the shoelace area of what remains.
    """
    def positive(points):
        points = list(points)
        return points if reference_shoelace(points) >= 0.0 else points[::-1]

    def side(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    poly = positive(a.vertices)
    clip = positive(b.vertices)
    for e in range(4):
        p, q = clip[e], clip[(e + 1) % 4]
        kept = []
        for v in range(len(poly)):
            cur, nxt = poly[v], poly[(v + 1) % len(poly)]
            dc, dn = side(p, q, cur), side(p, q, nxt)
            if dc >= 0.0:
                kept.append(cur)
            if dc * dn < 0.0:
                t = dc / (dc - dn)
                kept.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
        poly = kept
        if len(poly) < 3:
            return 0.0
    return abs(reference_shoelace(poly))


def reference_pairs(n: int) -> list[tuple[int, int]]:
    """All ordered pairs (i, j), i != j, lexicographic; n*(n-1) entries."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def reference_pair_features(subject, object_, scene, num_classes) -> np.ndarray:
    """Scorer feature row of one ordered pair of ``scene`` objects.

    Center distance in image units, log area ratio, both log aspects, IoU,
    the ten box parameters of subject then object divided by the image
    width (x and w), height (y and h) or 2*pi (angles), both class one-hots
    and a bias.
    """
    scx, scy, sw, sh, st = subject.box.params
    ocx, ocy, ow, oh, ot = object_.box.params
    width, height = scene.width, scene.height
    nc = (
        scx / width, scy / height, sw / width, sh / height, st / TWO_PI,
        ocx / width, ocy / height, ow / width, oh / height, ot / TWO_PI,
    )
    vec = np.zeros(feature_count(num_classes), dtype=np.float64)
    vec[0] = math.hypot(nc[0] - nc[5], nc[1] - nc[6])
    vec[1] = math.log((sw * sh) / (ow * oh))
    vec[2] = math.log(sw / sh)
    vec[3] = math.log(ow / oh)
    vec[4] = rotated_iou(subject.box, object_.box)
    vec[5:15] = nc
    vec[GEOMETRY_FEATURES + subject.category] = 1.0
    vec[GEOMETRY_FEATURES + num_classes + object_.category] = 1.0
    vec[-1] = 1.0
    return vec


def reference_train_linear(dataset, config) -> LinearScorer:
    """Linear scorer trained on dense feature rows.

    Each sampled pair becomes its ``reference_pair_features`` row, labeled
    by the first triplet of the pair (R when it has none), and the weights
    start at zero and take ``config.epochs`` full-batch steps through the
    dense ``linear_loss_and_grad``; the history holds the loss before each
    step and the final loss.  Pairs are drawn by the library's
    ``sample_pairs`` from one generator seeded with ``config.seed``, scene
    by scene, skipping scenes of fewer than two objects: the sampling
    contract shared with ``train_linear``.
    """
    num_classes = dataset.registry.num_objects
    num_relations = dataset.registry.num_relations
    rng = np.random.default_rng(config.seed)
    rows, labels = [], []
    for scene in dataset.scenes:
        if len(scene.objects) < 2:
            continue
        position = {obj.id: idx for idx, obj in enumerate(scene.objects)}
        first = {}
        for rel in scene.relations:
            first.setdefault((position[rel.subject], position[rel.object]), rel.predicate)
        pairs = reference_pairs(len(scene.objects))
        related = np.array([pair in first for pair in pairs])
        for k in sample_pairs(related, config.max_pos, config.max_neg, rng):
            i, j = pairs[k]
            rows.append(
                reference_pair_features(scene.objects[i], scene.objects[j], scene, num_classes)
            )
            labels.append(first.get((i, j), num_relations))
    features = np.array(rows)
    targets = np.array(labels)
    weights = np.zeros((feature_count(num_classes), num_relations + 1))
    history = []
    for _ in range(config.epochs):
        loss, grad = linear_loss_and_grad(weights, features, targets)
        history.append(loss)
        weights = weights - config.learning_rate * grad
    history.append(linear_loss_and_grad(weights, features, targets)[0])
    return LinearScorer(weights, dataset.registry.content_hash(), tuple(history))


def reference_linear_loss_and_grad(weights, features, labels, hot):
    """Mean cross-entropy and gradient of a hot-row batch, as
    ``linear_loss_and_grad`` defines them, built from scratch on each call:
    logits are ``features`` times the first weight rows plus the weight row
    each ``hot`` column names, and each column's gradient rows are summed by
    a stable sort of the column and ``reduceat`` over its groups."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    columns = np.asarray(hot).T
    with np.errstate(over="ignore", invalid="ignore"):
        soft = x @ weights[: x.shape[1]]
        for column in columns:
            soft += weights[column]
        rows = np.arange(len(y))
        picked = soft[rows, y]
        peak = soft.max(axis=1, keepdims=True)
        soft -= peak
        np.exp(soft, out=soft)
        total = soft.sum(axis=1, keepdims=True)
        soft /= total
        loss = float(np.mean(peak[:, 0] + np.log(total[:, 0]) - picked))
        soft[rows, y] -= 1.0
        grad = np.zeros_like(weights, dtype=np.float64)
        grad[: x.shape[1]] = x.T @ soft
        for column in columns:
            order = np.argsort(column, kind="stable")
            keys = column[order]
            starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            grad[keys[starts]] += np.add.reduceat(soft[order], starts, axis=0)
        grad /= len(y)
    return loss, grad


def reference_fit_frequency_prior(dataset, alpha) -> FrequencyPrior:
    """Frequency prior counted pair by pair: each triplet into its cell,
    each ordered pair that carries no triplet into the no-relation cell."""
    num_objects = dataset.registry.num_objects
    num_relations = dataset.registry.num_relations
    counts = np.zeros((num_objects, num_objects, num_relations + 1), dtype=np.int64)
    for scene in dataset.scenes:
        position = {obj.id: idx for idx, obj in enumerate(scene.objects)}
        classes = [obj.category for obj in scene.objects]
        related = set()
        for rel in scene.relations:
            i = position[rel.subject]
            j = position[rel.object]
            counts[classes[i], classes[j], rel.predicate] += 1
            related.add((i, j))
        for i, j in reference_pairs(len(classes)):
            if (i, j) not in related:
                counts[classes[i], classes[j], num_relations] += 1
    return FrequencyPrior(counts, alpha, dataset.registry.content_hash())


def reference_save_prior(prior) -> str:
    """Prior file text from ``np.argwhere`` over the whole count table:
    one ``[s, o, p, count]`` entry per positive cell, in C order."""
    entries = [
        [int(s), int(o), int(p), int(prior.counts[s, o, p])]
        for s, o, p in np.argwhere(prior.counts > 0)
    ]
    doc = {
        "kind": "frequency_prior",
        "version": 1,
        "registry_hash": prior.registry_hash,
        "num_objects": prior.num_objects,
        "num_relations": prior.num_relations,
        "alpha": prior.alpha,
        "counts": entries,
    }
    return json.dumps(doc, separators=(",", ":"))


def reference_prior_row(prior, subject_class, object_class) -> np.ndarray:
    """Prior probabilities over predicates plus no-relation for one class
    pair; sums to 1, and an unseen pair with alpha 0 gets the uniform row."""
    row = prior.counts[subject_class, object_class].astype(np.float64)
    smoothed = row + prior.alpha
    total = smoothed.sum()
    if total <= 0:
        return np.full(row.shape, 1.0 / row.size)
    return smoothed / total


def reference_predict_triplets(scene, prior, linear=None, top_m=None, graph_constraint=True):
    """Per-pair relation scoring: one prior row, feature vector and softmax
    per ordered pair, in enumeration order, as ``predict_triplets`` defines;
    the relations as columns."""
    if top_m is not None and top_m < 0:
        raise ValueError(f"top_m must be >= 0: {top_m}")
    num_relations = prior.num_relations
    pairs = reference_pairs(len(scene.objects))
    fused_rows = []
    relatedness = []
    for i, j in pairs:
        subj = scene.objects[i]
        obj = scene.objects[j]
        row = reference_prior_row(prior, subj.category, obj.category)
        if linear is not None:
            feats = reference_pair_features(subj, obj, scene, prior.num_objects)
            logits = feats @ linear.weights
            e = np.exp(logits - float(np.max(logits)))
            row = row * (e / e.sum())
            total = row.sum()
            if total <= 0:
                raise DataError("fused distribution collapsed to zero")
            row = row / total
        fused_rows.append(row)
        relatedness.append(1.0 - float(row[num_relations]))
    if top_m is None:
        surviving = range(len(pairs))
    else:
        order = np.argsort(-np.asarray(relatedness), kind="stable")
        surviving = sorted(int(k) for k in order[:top_m])
    out = []
    for k in surviving:
        i, j = pairs[k]
        subj = scene.objects[i]
        obj = scene.objects[j]
        predicate_probs = fused_rows[k][:num_relations]
        total = float(predicate_probs.sum())
        if total <= 0:
            continue
        predicate_probs = predicate_probs / total
        if graph_constraint:
            chosen = [int(np.argmax(predicate_probs))]
        else:
            chosen = list(range(num_relations))
        for p in chosen:
            out.append((subj.id, p, obj.id, float(predicate_probs[p])))
    return relation_columns(out)


def reference_serialize_dataset(dataset) -> str:
    """Manifest or prediction-file JSON built as one dict per object and
    relation and written by ``json.dumps``; scores wherever they are set."""

    def object_json(obj):
        doc = {
            "id": obj.id,
            "category": obj.category,
            "obb": [[x, y] for x, y in obj.box.vertices],
            "truncated": obj.truncated,
        }
        if obj.score is not None:
            doc["score"] = obj.score
        return doc

    def relation_json(rel):
        doc = {"subject": rel.subject, "predicate": rel.predicate, "object": rel.object}
        if rel.score is not None:
            doc["score"] = rel.score
        return doc

    doc = {
        "version": "1.0",
        "split": dataset.split,
        "object_categories": list(dataset.registry.object_names),
        "relation_categories": list(dataset.registry.relation_names),
        "images": [
            {
                "id": scene.image_id,
                "width": scene.width,
                "height": scene.height,
                "objects": [object_json(obj) for obj in scene.objects],
                "relations": [relation_json(rel) for rel in scene.relations],
            }
            for scene in dataset.scenes
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def reference_parse(root, scored: bool) -> Dataset:
    """Dataset of a decoded manifest, or with ``scored`` of a prediction file,
    checked field by field with the JSON path of every check at hand.

    The library walks a scene only when its fast path meets a defect; this
    walks every scene.  It raises the located :class:`ManifestError` of the
    first defect, and the parser must give the same dataset or the same
    message.  A prediction file must score every object and relation.  As in the parser, empty image ids,
    extents, repeated ids and relation endpoints are left to the
    :class:`SceneAnnotation` it builds, and the split, repeated image ids
    and indices to the :class:`Dataset`.
    """
    split, registry = _parse_header(root)
    scenes = []
    for i, raw_scene in enumerate(_get(root, "images", list, "$")):
        path = f"$.images[{i}]"
        image_id = _get(raw_scene, "id", str, path)
        width = _get(raw_scene, "width", int, path)
        height = _get(raw_scene, "height", int, path)
        objects = []
        for j, raw_obj in enumerate(_get(raw_scene, "objects", list, path)):
            opath = f"{path}.objects[{j}]"
            obj_id = _get(raw_obj, "id", int, opath)
            category = _get(raw_obj, "category", int, opath)
            box = _parse_box(raw_obj, opath)
            truncated = raw_obj.get("truncated", False)
            _expect(truncated, bool, f"{opath}.truncated")
            score = _parse_score(raw_obj, opath, image_id) if scored else None
            objects.append(ObjectInstance(obj_id, category, box, truncated, score=score))
        relations = []
        for j, raw_rel in enumerate(_get(raw_scene, "relations", list, path)):
            rpath = f"{path}.relations[{j}]"
            subject = _get(raw_rel, "subject", int, rpath)
            predicate = _get(raw_rel, "predicate", int, rpath)
            obj_ref = _get(raw_rel, "object", int, rpath)
            score = _parse_score(raw_rel, rpath, image_id) if scored else None
            relations.append((subject, predicate, obj_ref, score))
        scenes.append(
            SceneAnnotation(image_id, width, height, tuple(objects), relation_columns(relations))
        )
    return Dataset(registry, split, tuple(scenes))
