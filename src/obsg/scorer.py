"""Relation scoring: frequency prior, linear geometric scorer, losses.

The frequency prior is a smoothed table over (subject class, object class,
predicate) with one extra no-relation cell per class pair, counted from
every ordered object pair of a training split.  The linear scorer maps pair
geometry features plus both class one-hots and a bias to logits over the
predicates plus no-relation, trained by full-batch gradient descent on
cross-entropy.  Prediction fuses the two by elementwise product of the
prior row with the scorer softmax, renormalized.

Fitted models persist as JSON pinned to a registry hash; loading against a
different registry fails instead of silently re-indexing categories.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, Detection, SceneAnnotation, _expect, _get, _load_root
from .errors import DataError, ManifestError, RegistryMismatchError, TrainingDivergenceError
from .geometry import TWO_PI, OrientedBox, rotated_iou
from .metrics import PredictedTriplet
from .pairing import pair_endpoints, relation_pairs, sample_pairs
from .registry import CategoryRegistry

DEFAULT_ALPHA = 1.0
FEATURE_VERSION = 1
GEOMETRY_FEATURES = 15
# Pairs scored per array block in predict_triplets: large enough to amortise
# the per-block numpy calls, small enough that the block's temporaries stay
# far below the memory of the scene itself.
PAIR_BLOCK = 1024
# Prior counts are stored as int64.
_MAX_COUNT = np.iinfo(np.int64).max

def ce_loss(logits: np.ndarray, true_index: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of one logit vector and its gradient.

    Stable log-sum-exp; the gradient is softmax(logits) minus the one-hot
    of ``true_index``.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"logits must be a non-empty vector: shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("logits must be finite")
    if not 0 <= true_index < x.size:
        raise ValueError(f"true_index {true_index} outside {x.size} classes")
    m = float(np.max(x))
    lse = m + math.log(float(np.sum(np.exp(x - m))))
    loss = lse - float(x[true_index])
    grad = np.exp(x - lse)
    grad[true_index] -= 1.0
    return loss, grad


@dataclass(frozen=True)
class FrequencyPrior:
    """Smoothed (subject, object, predicate-or-none) frequency table.

    ``counts[s, o, p]`` tallies triplets of that class pair; the final cell
    ``counts[s, o, R]`` tallies enumerated pairs that carry no relation.
    """

    counts: np.ndarray
    alpha: float
    registry_hash: str

    def __post_init__(self) -> None:
        if self.counts.ndim != 3 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError(f"bad counts shape {self.counts.shape}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0: {self.alpha}")

    @property
    def num_objects(self) -> int:
        return int(self.counts.shape[0])

    @property
    def num_relations(self) -> int:
        return int(self.counts.shape[2]) - 1

    def distribution(self, subject_class: int, object_class: int) -> np.ndarray:
        """Probabilities over predicates plus no-relation; sums to 1.

        With alpha == 0 a class pair never seen in training has no counts at
        all; the distribution falls back to uniform rather than dividing by
        zero.
        """
        row = self.counts[subject_class, object_class].astype(np.float64)
        smoothed = row + self.alpha
        total = smoothed.sum()
        if total <= 0:
            return np.full(row.shape, 1.0 / row.size)
        return smoothed / total


def fit_frequency_prior(dataset: Dataset, alpha: float = DEFAULT_ALPHA) -> FrequencyPrior:
    """Count every ordered object pair of every scene into a prior table.

    Each triplet adds 1 to its (subject class, object class, predicate)
    cell.  A scene with class histogram h holds h[s] * h[o] ordered pairs of
    classes (s, o), less h[s] when s == o; the no-relation cell is that
    total over scenes minus one per distinct related ordered pair.  Only
    objects and relations are visited, never the pairs themselves.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0: {alpha}")
    num_objects = dataset.registry.num_objects
    width = dataset.registry.num_relations + 1
    # Flat indices, counted by one bincount each after the scene loop.
    histogram_cells: list[int] = []
    triplet_cells: list[int] = []
    related_cells: list[int] = []
    for row, scene in enumerate(dataset.scenes):
        histogram_cells.extend(row * num_objects + obj.category for obj in scene.objects)
        category = {obj.id: obj.category for obj in scene.objects}
        distinct: dict[int, int] = {}
        for k, rel in zip(relation_pairs(scene), scene.relations):
            cell = category[rel.subject] * num_objects + category[rel.object]
            triplet_cells.append(cell * width + rel.predicate)
            distinct[k] = cell
        related_cells.extend(distinct.values())
    histograms = _bincount(histogram_cells, (len(dataset.scenes), num_objects))
    pairs = histograms.T @ histograms - np.diag(histograms.sum(axis=0))
    counts = _bincount(triplet_cells, (num_objects, num_objects, width))
    counts[:, :, -1] = pairs - _bincount(related_cells, (num_objects, num_objects))
    return FrequencyPrior(counts, alpha, dataset.registry.content_hash())


def _bincount(cells: list[int], shape: tuple[int, ...]) -> np.ndarray:
    """int64 array of ``shape`` counting each flat index in ``cells``."""
    counts = np.bincount(np.array(cells, dtype=np.intp), minlength=math.prod(shape))
    return counts.astype(np.int64, copy=False).reshape(shape)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of linear-scorer training; the seed is mandatory."""

    seed: int
    learning_rate: float = 0.5
    epochs: int = 200
    max_pos: int = 64
    max_neg: int = 192

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0: {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0: {self.epochs}")
        if self.max_pos < 0 or self.max_neg < 0:
            raise ValueError("pair caps must be >= 0")


@dataclass(frozen=True)
class LinearScorer:
    """Linear map from pair features to predicate-plus-no-relation logits."""

    weights: np.ndarray
    registry_hash: str
    loss_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")

    @property
    def num_relations(self) -> int:
        return int(self.weights.shape[1]) - 1


def feature_count(num_classes: int) -> int:
    """Length of the pair feature vector for a registry of that size."""
    return GEOMETRY_FEATURES + 2 * num_classes + 1


def linear_loss_and_grad(
    weights: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of a batch under a weight matrix, with gradient.

    ``features`` is (batch, F), ``labels`` (batch,) class indices, and the
    gradient has the shape of ``weights``.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValueError(f"bad batch shapes: features {x.shape}, labels {y.shape}")
    # Overflow surfaces as a non-finite loss, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = x @ weights
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.sum(np.exp(logits - m), axis=1))
        loss = float(np.mean(lse - logits[np.arange(len(y)), y]))
        soft = np.exp(logits - lse[:, None])
        soft[np.arange(len(y)), y] -= 1.0
        grad = x.T @ soft / len(y)
    return loss, grad


def _categories(scene: SceneAnnotation) -> np.ndarray:
    return np.array([obj.category for obj in scene.objects], dtype=np.intp)


@dataclass(frozen=True)
class _SceneArrays:
    """Columns of one scene's objects, built once and gathered per pair."""

    boxes: tuple[OrientedBox, ...]
    params: np.ndarray  # (n, 5): cx, cy, w, h, theta
    extents: np.ndarray  # (n, 4): xmin, ymin, xmax, ymax
    scale: np.ndarray  # (5,): image width, height, width, height, 2*pi

    @classmethod
    def of(cls, scene: SceneAnnotation) -> "_SceneArrays":
        if scene.width <= 0 or scene.height <= 0:
            raise ValueError(
                f"image extent must be positive: {scene.width} x {scene.height}"
            )
        boxes = tuple(obj.box for obj in scene.objects)
        return cls(
            boxes,
            np.array([box.params for box in boxes], dtype=np.float64).reshape(-1, 5),
            np.array([box.extent for box in boxes], dtype=np.float64).reshape(-1, 4),
            np.array([scene.width, scene.height, scene.width, scene.height, TWO_PI]),
        )

    def geometry(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """(k, 15) geometry block of the pairs (ii, jj): the first
        ``GEOMETRY_FEATURES`` columns of a scorer feature row.

        Columns: image-normalized center distance; log area ratio; log
        aspect (w/h) of subject and of object; rotated IoU; then the five
        parameters (cx, cy, w, h, theta) of subject and of object, divided
        by image width, height, width, height and 2*pi.

        IoU is computed only for pairs whose axis extents meet; the rest
        overlap nowhere and keep 0.0.
        """
        s = self.params[ii]
        o = self.params[jj]
        ns = s / self.scale
        no = o / self.scale
        block = np.empty((len(ii), GEOMETRY_FEATURES), dtype=np.float64)
        block[:, 0] = np.hypot(ns[:, 0] - no[:, 0], ns[:, 1] - no[:, 1])
        block[:, 1] = np.log((s[:, 2] * s[:, 3]) / (o[:, 2] * o[:, 3]))
        block[:, 2] = np.log(s[:, 2] / s[:, 3])
        block[:, 3] = np.log(o[:, 2] / o[:, 3])
        block[:, 4] = 0.0
        block[:, 5:10] = ns
        block[:, 10:15] = no
        es = self.extents[ii]
        eo = self.extents[jj]
        meet = (
            (es[:, 0] <= eo[:, 2])
            & (eo[:, 0] <= es[:, 2])
            & (es[:, 1] <= eo[:, 3])
            & (eo[:, 1] <= es[:, 3])
        )
        boxes = self.boxes
        for k, i, j in zip(
            np.flatnonzero(meet).tolist(), ii[meet].tolist(), jj[meet].tolist()
        ):
            block[k, 4] = rotated_iou(boxes[i], boxes[j])
        return block


def _scene_pair_rows(
    scene: SceneAnnotation,
    num_classes: int,
    num_relations: int,
    max_pos: int,
    max_neg: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled feature rows of one scene and their labels; R means unrelated."""
    n = len(scene.objects)
    # The first triplet of a pair sets its label.
    first: dict[int, int] = {}
    for k, rel in zip(relation_pairs(scene), scene.relations):
        first.setdefault(k, rel.predicate)
    if n < 2:
        return np.zeros((0, feature_count(num_classes))), np.zeros(0, dtype=np.int64)
    labels = np.full(n * (n - 1), num_relations, dtype=np.int64)
    labels[list(first)] = list(first.values())
    chosen = sample_pairs(labels != num_relations, max_pos, max_neg, rng)
    ii, jj = pair_endpoints(n, chosen)
    categories = _categories(scene)
    rows = np.zeros((len(chosen), feature_count(num_classes)), dtype=np.float64)
    rows[:, :GEOMETRY_FEATURES] = _SceneArrays.of(scene).geometry(ii, jj)
    rows[np.arange(len(chosen)), GEOMETRY_FEATURES + categories[ii]] = 1.0
    rows[np.arange(len(chosen)), GEOMETRY_FEATURES + num_classes + categories[jj]] = 1.0
    rows[:, -1] = 1.0
    return rows, labels[chosen]


def train_linear(dataset: Dataset, config: TrainConfig) -> LinearScorer:
    """Fit a LinearScorer by full-batch gradient descent.

    Pair subsampling uses a generator seeded from ``config.seed``, weights
    start at zero and every update is deterministic, so equal seeds and
    data reproduce the scorer exactly.  The recorded loss history has one
    entry per epoch plus the final loss.
    """
    registry = dataset.registry
    num_relations = registry.num_relations
    rng = np.random.default_rng(config.seed)
    rows: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for scene in dataset.scenes:
        scene_rows, scene_labels = _scene_pair_rows(
            scene,
            registry.num_objects,
            num_relations,
            config.max_pos,
            config.max_neg,
            rng,
        )
        rows.append(scene_rows)
        labels.append(scene_labels)
    if sum(len(r) for r in rows) == 0:
        raise DataError("dataset yields no object pairs to train on")
    features = np.concatenate(rows)
    targets = np.concatenate(labels)
    weights = np.zeros(
        (feature_count(registry.num_objects), num_relations + 1), dtype=np.float64
    )
    history: list[float] = []
    for _ in range(config.epochs):
        loss, grad = linear_loss_and_grad(weights, features, targets)
        if not math.isfinite(loss):
            raise TrainingDivergenceError(
                f"loss became non-finite after {len(history)} epochs"
            )
        history.append(loss)
        weights = weights - config.learning_rate * grad
    final_loss, _ = linear_loss_and_grad(weights, features, targets)
    if not math.isfinite(final_loss):
        raise TrainingDivergenceError("final loss is non-finite")
    history.append(final_loss)
    return LinearScorer(weights, registry.content_hash(), tuple(history))


def predict_triplets(
    scene: SceneAnnotation,
    prior: FrequencyPrior,
    linear: LinearScorer | None = None,
    top_m: int | None = None,
    graph_constraint: bool = True,
) -> list[PredictedTriplet]:
    """Score relation candidates over a scene's annotated objects.

    Every ordered object pair receives a fused predicate distribution (the
    prior row times the scorer softmax, renormalized; prior alone when no
    scorer is given).  ``top_m`` keeps only the pairs with the highest
    relatedness, defined as one minus the fused no-relation mass, ties by
    enumeration order.  With ``graph_constraint`` each surviving pair emits
    only its best predicate, otherwise every predicate.  Endpoint scores
    are 1.0 because the endpoints are annotated boxes.

    Pairs are scored as arrays, in blocks of whole subject rows of at most
    ``PAIR_BLOCK`` pairs (one row when a row is longer), so memory stays
    bounded on scenes with many objects.
    """
    if top_m is not None and top_m < 0:
        raise ValueError(f"top_m must be >= 0: {top_m}")
    num_objects = prior.num_objects
    num_relations = prior.num_relations
    if linear is not None and linear.weights.shape != (
        feature_count(num_objects),
        num_relations + 1,
    ):
        raise ValueError(
            f"scorer weights {linear.weights.shape} do not fit the prior's "
            f"{num_objects} classes and {num_relations} predicates"
        )
    n = len(scene.objects)
    num_pairs = n * (n - 1)
    arrays = _SceneArrays.of(scene) if linear is not None else None
    categories = _categories(scene)
    # Per pair: relatedness, whether any predicate mass is left, and the
    # scores of the predicates it would emit (the best one under the graph
    # constraint, whose index goes to ``best``).
    relatedness = np.empty(num_pairs, dtype=np.float64)
    emitting = np.empty(num_pairs, dtype=bool)
    scores = np.empty((num_pairs, 1 if graph_constraint else num_relations))
    best = np.empty(num_pairs, dtype=np.intp)
    rows_per_block = max(1, PAIR_BLOCK // max(n - 1, 1))
    for first in range(0, n, rows_per_block):
        block = np.arange(
            first * (n - 1), min(first + rows_per_block, n) * (n - 1), dtype=np.intp
        )
        ii, jj = pair_endpoints(n, block)
        cs = categories[ii]
        co = categories[jj]
        fused = _prior_rows(prior, cs, co)
        if arrays is not None:
            w = linear.weights
            logits = (
                arrays.geometry(ii, jj) @ w[:GEOMETRY_FEATURES]
                + w[GEOMETRY_FEATURES + cs]
                + w[GEOMETRY_FEATURES + num_objects + co]
                + w[-1]
            )
            soft = np.exp(logits - logits.max(axis=1, keepdims=True))
            fused *= soft / soft.sum(axis=1, keepdims=True)
            total = fused.sum(axis=1, keepdims=True)
            if np.any(total <= 0):
                raise DataError("fused distribution collapsed to zero")
            fused /= total
        relatedness[block] = 1.0 - fused[:, num_relations]
        mass = fused[:, :num_relations].sum(axis=1, keepdims=True)
        emitting[block] = mass[:, 0] > 0
        # Rows without predicate mass divide 0 by 0; they are never emitted.
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = fused[:, :num_relations] / mass
        if graph_constraint:
            best[block] = probs.argmax(axis=1)
            scores[block, 0] = probs[np.arange(len(block)), best[block]]
        else:
            scores[block] = probs
    if top_m is None:
        surviving = np.flatnonzero(emitting)
    else:
        surviving = np.sort(np.argsort(-relatedness, kind="stable")[:top_m])
        surviving = surviving[emitting[surviving]]
    if graph_constraint:
        chosen = best[surviving][:, None]
    else:
        chosen = np.broadcast_to(np.arange(num_relations), (len(surviving), num_relations))
    ii, jj = pair_endpoints(n, surviving)
    per_pair = chosen.shape[1]
    objects = scene.objects
    detections = [Detection(obj.box, obj.category, 1.0) for obj in objects]
    out: list[PredictedTriplet] = []
    for i, j, p, prob in zip(
        np.repeat(ii, per_pair).tolist(),
        np.repeat(jj, per_pair).tolist(),
        chosen.ravel().tolist(),
        scores[surviving].ravel().tolist(),
    ):
        out.append(
            PredictedTriplet(
                subject=detections[i],
                predicate=p,
                object=detections[j],
                score=prob,
                predicate_prob=prob,
                subject_id=objects[i].id,
                object_id=objects[j].id,
            )
        )
    return out


def _prior_rows(prior: FrequencyPrior, cs: np.ndarray, co: np.ndarray) -> np.ndarray:
    """Rows of :meth:`FrequencyPrior.distribution` for the class pairs (cs, co)."""
    rows = prior.counts[cs, co] + prior.alpha
    total = rows.sum(axis=1, keepdims=True)
    unseen = total[:, 0] <= 0
    rows[unseen] = 1.0
    total[unseen] = rows.shape[1]
    return rows / total


# --- persistence ----------------------------------------------------------


def save_prior(prior: FrequencyPrior) -> str:
    """JSON document with the sparse non-zero counts; deterministic."""
    nz = np.argwhere(prior.counts > 0)
    entries = [
        [int(s), int(o), int(p), int(prior.counts[s, o, p])] for s, o, p in nz
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


def load_prior(text: str | bytes, registry: CategoryRegistry) -> FrequencyPrior:
    """Prior saved by :func:`save_prior`, checked against ``registry``.

    Every count entry must be four integers, ``[subject, object, predicate,
    count]``, with indices inside the table and a non-negative count;
    ``alpha`` must be finite and non-negative.
    """
    doc = _load_model_doc(text, "frequency_prior")
    _check_hash(doc, registry)
    num_objects = _get(doc, "num_objects", int, "$")
    num_relations = _get(doc, "num_relations", int, "$")
    if num_objects != registry.num_objects or num_relations != registry.num_relations:
        raise RegistryMismatchError("prior table size does not match the registry")
    alpha = _get(doc, "alpha", float, "$")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ManifestError(f"$.alpha: expected a finite number >= 0, got {alpha!r}")
    shape = (num_objects, num_objects, num_relations + 1)
    counts = np.zeros(shape, dtype=np.int64)
    for k, entry in enumerate(_get(doc, "counts", list, "$")):
        path = f"$.counts[{k}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise ManifestError(f"{path}: expected [subject, object, predicate, count]")
        s, o, p, c = (_expect(v, int, f"{path}[{i}]") for i, v in enumerate(entry))
        for i, (index, size) in enumerate(zip((s, o, p), shape)):
            if not 0 <= index < size:
                raise ManifestError(f"{path}[{i}]: index {index} outside 0..{size - 1}")
        if not 0 <= c <= _MAX_COUNT:
            raise ManifestError(f"{path}[3]: count {c} outside 0..{_MAX_COUNT}")
        counts[s, o, p] = c
    return FrequencyPrior(counts, alpha, doc["registry_hash"])


def save_scorer(scorer: LinearScorer) -> str:
    doc = {
        "kind": "linear_scorer",
        "version": 1,
        "feature_version": FEATURE_VERSION,
        "registry_hash": scorer.registry_hash,
        "shape": list(scorer.weights.shape),
        "weights": scorer.weights.flatten().tolist(),
        "loss_history": list(scorer.loss_history),
    }
    return json.dumps(doc, separators=(",", ":"))


def load_scorer(text: str | bytes, registry: CategoryRegistry) -> LinearScorer:
    """Scorer saved by :func:`save_scorer`, checked against ``registry``.

    ``weights`` must hold exactly as many finite numbers as ``shape`` asks.
    """
    doc = _load_model_doc(text, "linear_scorer")
    _check_hash(doc, registry)
    if doc.get("feature_version") != FEATURE_VERSION:
        raise ManifestError(
            f"unsupported feature version {doc.get('feature_version')!r}"
        )
    raw_shape = _get(doc, "shape", list, "$")
    shape = tuple(_expect(v, int, f"$.shape[{i}]") for i, v in enumerate(raw_shape))
    expected = (feature_count(registry.num_objects), registry.num_relations + 1)
    if shape != expected:
        raise RegistryMismatchError(
            f"scorer shape {shape} does not match registry shape {expected}"
        )
    raw = _get(doc, "weights", list, "$")
    if len(raw) != shape[0] * shape[1]:
        raise ManifestError(f"$.weights: {len(raw)} values for shape {list(shape)}")
    if not set(map(type, raw)) <= {int, float}:
        for i, value in enumerate(raw):
            _expect(value, float, f"$.weights[{i}]")
    try:
        weights = np.array(raw, dtype=np.float64)
    except OverflowError:
        raise ManifestError("$.weights: integer too large for a float") from None
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise ManifestError(f"$.weights[{bad[0]}]: non-finite weight {raw[bad[0]]!r}")
    history = _get(doc, "loss_history", list, "$") if "loss_history" in doc else []
    return LinearScorer(
        weights.reshape(shape),
        doc["registry_hash"],
        tuple(_expect(v, float, f"$.loss_history[{i}]") for i, v in enumerate(history)),
    )


def _load_model_doc(text: str | bytes, kind: str) -> dict:
    doc = _load_root(text)
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ManifestError(f"expected a {kind!r} document")
    if doc.get("version") != 1:
        raise ManifestError(f"unsupported model version {doc.get('version')!r}")
    return doc


def _check_hash(doc: dict, registry: CategoryRegistry) -> None:
    if doc.get("registry_hash") != registry.content_hash():
        raise RegistryMismatchError(
            "model was fitted against a different category registry"
        )
