"""Independent reference implementations used to check the library.

Everything here is deliberately written from scratch with plain loops and
its own membership tests so that agreement with the library is evidence,
not tautology.  Only matching *semantics* shared by contract (greedy order,
tie rules) reuse the library's IoU values, since exact flag equality
requires identical overlap numbers.  The pair layer keeps the scalar forms
that the library replaced with index arrays: the list enumeration of
ordered pairs, per-pair geometry and feature vectors, the per-pair
prediction loop and the pair-walking frequency prior.  They are built on
the library's box parameters, ``rotated_iou`` and
``FrequencyPrior.distribution``, which define the numbers that the array
paths must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

from obsg import (
    DataError,
    Detection,
    FrequencyPrior,
    OrientedBox,
    PredictedTriplet,
    rotated_iou,
)
from obsg.geometry import TWO_PI
from obsg.scorer import GEOMETRY_FEATURES, feature_count


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
            if p.subject_id is not None and p.object_id is not None:
                key = (p.subject_id, p.object_id)
            else:
                key = (
                    p.subject.box.vertices,
                    p.subject.category,
                    p.object.box.vertices,
                    p.object.category,
                )
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
            if p.subject.category != t.subject_category:
                continue
            if p.object.category != t.object_category:
                continue
            if identity:
                if p.subject_id != t.subject_id or p.object_id != t.object_id:
                    continue
                quality = 1.0
            else:
                iou_s = rotated_iou(p.subject.box, t.subject_box)
                iou_o = rotated_iou(p.object.box, t.object_box)
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


def reference_predict_triplets(scene, prior, linear=None, top_m=None, graph_constraint=True):
    """Per-pair relation scoring: one prior row, feature vector and softmax
    per ordered pair, in enumeration order, as ``predict_triplets`` defines."""
    if top_m is not None and top_m < 0:
        raise ValueError(f"top_m must be >= 0: {top_m}")
    num_relations = prior.num_relations
    pairs = reference_pairs(len(scene.objects))
    fused_rows = []
    relatedness = []
    for i, j in pairs:
        subj = scene.objects[i]
        obj = scene.objects[j]
        row = prior.distribution(subj.category, obj.category)
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
            prob = float(predicate_probs[p])
            out.append(
                PredictedTriplet(
                    subject=Detection(subj.box, subj.category, 1.0),
                    predicate=p,
                    object=Detection(obj.box, obj.category, 1.0),
                    score=prob,
                    predicate_prob=prob,
                    subject_id=subj.id,
                    object_id=obj.id,
                )
            )
    return out
