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

from .datamodel import Dataset, Detection, SceneAnnotation, _load_root
from .errors import DataError, ManifestError, RegistryMismatchError, TrainingDivergenceError
from .geometry import PairGeometry, pair_geometry
from .metrics import PredictedTriplet
from .pairing import enumerate_pairs, label_pairs, pair_index, sample_pairs
from .registry import CategoryRegistry

DEFAULT_ALPHA = 1.0
FEATURE_VERSION = 1
GEOMETRY_FEATURES = 15

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
    """Count every ordered object pair of every scene into a prior table."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0: {alpha}")
    num_objects = dataset.registry.num_objects
    num_relations = dataset.registry.num_relations
    counts = np.zeros((num_objects, num_objects, num_relations + 1), dtype=np.int64)
    for scene in dataset.scenes:
        position = {obj.id: idx for idx, obj in enumerate(scene.objects)}
        classes = [obj.category for obj in scene.objects]
        n = len(classes)
        related = np.zeros(n * (n - 1) if n > 1 else 0, dtype=bool)
        for rel in scene.relations:
            i = position[rel.subject]
            j = position[rel.object]
            counts[classes[i], classes[j], rel.predicate] += 1
            related[pair_index(n, i, j)] = True
        for k, (i, j) in enumerate(enumerate_pairs(n)):
            if not related[k]:
                counts[classes[i], classes[j], num_relations] += 1
    return FrequencyPrior(counts, alpha, dataset.registry.content_hash())


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

    def logits(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weights


def feature_count(num_classes: int) -> int:
    """Length of the pair feature vector for a registry of that size."""
    return GEOMETRY_FEATURES + 2 * num_classes + 1


def pair_features(
    geom: PairGeometry, subject_class: int, object_class: int, num_classes: int
) -> np.ndarray:
    """Feature vector: bounded geometry terms, both class one-hots, bias.

    Ratios enter through their logarithm; the center distance is recomputed
    in image-normalized units from the normalized coordinate block.
    """
    nc = geom.normalized_coords
    norm_distance = math.hypot(nc[0] - nc[5], nc[1] - nc[6])
    vec = np.zeros(feature_count(num_classes), dtype=np.float64)
    vec[0] = norm_distance
    vec[1] = math.log(geom.area_ratio)
    vec[2] = math.log(geom.aspect_subject)
    vec[3] = math.log(geom.aspect_object)
    vec[4] = geom.pair_iou
    vec[5 : 5 + len(nc)] = nc
    vec[GEOMETRY_FEATURES + subject_class] = 1.0
    vec[GEOMETRY_FEATURES + num_classes + object_class] = 1.0
    vec[-1] = 1.0
    return vec


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


def _scene_pair_rows(
    scene: SceneAnnotation,
    num_classes: int,
    num_relations: int,
    max_pos: int,
    max_neg: int,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], list[int]]:
    """Sampled (features, label) rows of one scene; label R means unrelated."""
    matrix = label_pairs(scene)
    if matrix.num_pairs == 0:
        return [], []
    position = {obj.id: idx for idx, obj in enumerate(scene.objects)}
    predicate_of: dict[int, int] = {}
    for rel in scene.relations:
        k = pair_index(
            len(scene.objects), position[rel.subject], position[rel.object]
        )
        predicate_of.setdefault(k, rel.predicate)
    chosen = sample_pairs(matrix, max_pos, max_neg, rng)
    pairs = enumerate_pairs(len(scene.objects))
    rows: list[np.ndarray] = []
    labels: list[int] = []
    for k in chosen:
        i, j = pairs[int(k)]
        subj = scene.objects[i]
        obj = scene.objects[j]
        geom = pair_geometry(subj.box, obj.box, scene.width, scene.height)
        rows.append(pair_features(geom, subj.category, obj.category, num_classes))
        labels.append(predicate_of.get(int(k), num_relations))
    return rows, labels


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
    labels: list[int] = []
    for scene in dataset.scenes:
        scene_rows, scene_labels = _scene_pair_rows(
            scene,
            registry.num_objects,
            num_relations,
            config.max_pos,
            config.max_neg,
            rng,
        )
        rows.extend(scene_rows)
        labels.extend(scene_labels)
    if not rows:
        raise DataError("dataset yields no object pairs to train on")
    features = np.stack(rows)
    targets = np.asarray(labels, dtype=np.int64)
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


def _softmax(x: np.ndarray) -> np.ndarray:
    m = float(np.max(x))
    e = np.exp(x - m)
    return e / e.sum()


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
    """
    if top_m is not None and top_m < 0:
        raise ValueError(f"top_m must be >= 0: {top_m}")
    num_relations = prior.num_relations
    pairs = enumerate_pairs(len(scene.objects))
    fused_rows: list[np.ndarray] = []
    relatedness: list[float] = []
    for i, j in pairs:
        subj = scene.objects[i]
        obj = scene.objects[j]
        row = prior.distribution(subj.category, obj.category)
        if linear is not None:
            geom = pair_geometry(subj.box, obj.box, scene.width, scene.height)
            feats = pair_features(geom, subj.category, obj.category, prior.num_objects)
            row = row * _softmax(linear.logits(feats))
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
    out: list[PredictedTriplet] = []
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
    doc = _load_model_doc(text, "frequency_prior")
    _check_hash(doc, registry)
    num_objects = doc["num_objects"]
    num_relations = doc["num_relations"]
    if num_objects != registry.num_objects or num_relations != registry.num_relations:
        raise RegistryMismatchError("prior table size does not match the registry")
    counts = np.zeros((num_objects, num_objects, num_relations + 1), dtype=np.int64)
    for entry in doc["counts"]:
        s, o, p, c = entry
        counts[s, o, p] = c
    return FrequencyPrior(counts, float(doc["alpha"]), doc["registry_hash"])


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
    doc = _load_model_doc(text, "linear_scorer")
    _check_hash(doc, registry)
    if doc.get("feature_version") != FEATURE_VERSION:
        raise ManifestError(
            f"unsupported feature version {doc.get('feature_version')!r}"
        )
    shape = tuple(doc["shape"])
    expected = (feature_count(registry.num_objects), registry.num_relations + 1)
    if shape != expected:
        raise RegistryMismatchError(
            f"scorer shape {shape} does not match registry shape {expected}"
        )
    weights = np.asarray(doc["weights"], dtype=np.float64).reshape(shape)
    return LinearScorer(
        weights, doc["registry_hash"], tuple(doc.get("loss_history", []))
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
