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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .datamodel import (
    NO_RELATIONS, Dataset, RelationColumns, SceneAnnotation, _expect, _get, _load_root,
    check_indices,
)
from .errors import DataError, ManifestError, RegistryMismatchError, TrainingDivergenceError
from .geometry import TWO_PI, rotated_iou
from .pairing import (
    MAX_NEGATIVE_PAIRS, MAX_POSITIVE_PAIRS, _check_caps, _check_seed, _row_endpoints,
    pair_endpoints, relation_pairs, sample_pairs,
)
from .registry import CategoryRegistry

DEFAULT_ALPHA = 1.0
FEATURE_VERSION = 1
GEOMETRY_FEATURES = 15
# Pairs per array block of predict_scenes, which packs consecutive whole scenes
# into a block and splits a scene of more pairs into blocks of whole subject
# rows: large enough to amortise the per-block numpy calls, small enough that
# the block's temporaries stay far below the memory of a large scene.
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
    soft = x[None, :].copy()
    peak, total = _softmax(soft)
    loss = float(peak[0] + np.log(total[0]) - x[true_index])
    grad = soft[0]
    grad[true_index] -= 1.0
    return loss, grad


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0: {alpha}")


@dataclass(frozen=True)
class FrequencyPrior:
    """Smoothed (subject, object, predicate-or-none) frequency table.

    ``counts[s, o, p]`` tallies triplets of that class pair; the final cell
    ``counts[s, o, R]`` tallies enumerated pairs that carry no relation.
    It needs a class and a predicate.  Every row total of ``counts + alpha``,
    summed in float64 as :func:`_prior_rows` sums it, must be finite.
    """

    counts: np.ndarray
    alpha: float
    registry_hash: str

    def __post_init__(self) -> None:
        shape = self.counts.shape
        if len(shape) != 3 or not shape[0] == shape[1] >= 1 or shape[2] < 2:
            raise ValueError(f"bad counts shape {shape}")
        _check_alpha(self.alpha)
        # A row total is at most width * (_MAX_COUNT + alpha), far from float64's
        # limit unless alpha is huge; only then is the table summed.
        if (_MAX_COUNT + self.alpha) * self.counts.shape[2] > 1e300:
            with np.errstate(over="ignore"):
                totals = (self.counts + float(self.alpha)).sum(axis=2)
            if not np.isfinite(totals).all():
                raise ValueError(f"a prior row total overflows with alpha {self.alpha}")

    @property
    def num_objects(self) -> int:
        return int(self.counts.shape[0])

    @property
    def num_relations(self) -> int:
        return int(self.counts.shape[2]) - 1


def fit_frequency_prior(dataset: Dataset, alpha: float = DEFAULT_ALPHA) -> FrequencyPrior:
    """Count every ordered object pair of every scene into a prior table.

    Each triplet adds 1 to its (subject class, object class, predicate)
    cell.  A scene with class histogram h holds h[s] * h[o] ordered pairs of
    classes (s, o), less h[s] when s == o; the no-relation cell is that
    total over scenes minus one per distinct related ordered pair.  Only
    objects and relations are visited, never the pairs themselves.

    Raises:
        ValueError: ``alpha`` is negative, not finite, or so large that a
            row total of the table overflows.
    """
    num_objects = dataset.registry.num_objects
    width = dataset.registry.num_relations + 1
    # Flat indices, counted by one bincount each after the scene loop.
    histogram_cells: list[int] = []
    triplet_cells: list[int] = []
    related_cells: list[int] = []
    for row, scene in enumerate(dataset.scenes):
        category = [obj.category for obj in scene.objects]
        histogram_cells.extend(row * num_objects + c for c in category)
        distinct: dict[int, int] = {}
        subjects, objects = scene.relation_endpoints
        predicates = scene.relations.predicates
        for k, i, j, p in zip(relation_pairs(scene), subjects, objects, predicates):
            cell = category[i] * num_objects + category[j]
            triplet_cells.append(cell * width + p)
            distinct[k] = cell
        related_cells.extend(distinct.values())
    histograms = _bincount(histogram_cells, (len(dataset.scenes), num_objects))
    pairs = _class_pair_counts(histograms)
    counts = _bincount(triplet_cells, (num_objects, num_objects, width))
    counts[:, :, -1] = pairs - _bincount(related_cells, (num_objects, num_objects))
    return FrequencyPrior(counts, alpha, dataset.registry.content_hash())


def _class_pair_counts(histograms: np.ndarray) -> np.ndarray:
    """(C, C) ordered object pairs of each class pair over scenes whose class
    histograms are the rows of ``histograms``: h[s] * h[o], less h[s] when
    s == o, summed over the rows."""
    return histograms.T @ histograms - np.diag(histograms.sum(axis=0))


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
    max_pos: int = MAX_POSITIVE_PAIRS
    max_neg: int = MAX_NEGATIVE_PAIRS

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0: {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0: {self.epochs}")
        _check_caps(self.max_pos, self.max_neg)


@dataclass(frozen=True)
class LinearScorer:
    """Linear map from pair features to predicate-plus-no-relation logits."""

    weights: np.ndarray
    registry_hash: str
    loss_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")


def feature_count(num_classes: int) -> int:
    """Length of the pair feature vector for a registry of that size."""
    return GEOMETRY_FEATURES + 2 * num_classes + 1


def linear_loss_and_grad(
    weights: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    hot: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of a batch under a weight matrix, with gradient.

    ``features`` is (batch, F), ``labels`` (batch,) class indices, and the
    gradient has the shape of ``weights``.  Without ``hot`` the rows are
    dense, F equal to the weight rows.  With ``hot``, a (batch, H) integer
    array, ``features`` fills the first F weight rows and each row's ``hot``
    entries name the weight rows whose feature is 1.0; every other feature
    is 0.0.  Training passes its pairs this way: a 15-column geometry block
    and three indices (subject class, object class, bias), 144 B a row
    against the 1,088 B of a dense row over 60 classes.  This is one step
    on a batch; ``train_linear`` checks and groups its batch once per run.

    Raises:
        ValueError: shapes that do not fit each other, an empty batch, a
            label outside 0..(weight columns - 1), or a ``hot`` index
            outside F..(weight rows - 1).
    """
    weights = np.asarray(weights, dtype=np.float64)
    return _Batch(weights, features, labels, hot).step(weights)


class _Batch:
    """A training batch, checked and grouped once for any number of steps,
    which reuse two (batch, R+1) arrays instead of allocating their own."""

    def __init__(self, weights: np.ndarray, features, labels, hot) -> None:
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
            raise ValueError(f"bad batch shapes: features {x.shape}, labels {y.shape}")
        if y.min() < 0 or y.max() >= weights.shape[1]:
            raise ValueError(f"labels must lie in 0..{weights.shape[1] - 1}")
        if hot is None:
            if x.shape[1] != weights.shape[0]:
                raise ValueError(f"features {x.shape} do not fit weights {weights.shape}")
        else:
            hot = np.asarray(hot)
            if hot.ndim != 2 or hot.shape[0] != x.shape[0] or hot.dtype.kind not in "iu":
                raise ValueError(f"bad hot indices: shape {hot.shape}, features {x.shape}")
            if hot.size and (hot.min() < x.shape[1] or hot.max() >= weights.shape[0]):
                raise ValueError(f"hot indices must lie in {x.shape[1]}..{weights.shape[0] - 1}")
        self.x, self.y, self.rows = x, y, np.arange(len(y))
        self.logits, self.work = np.empty((2, len(y), weights.shape[1]))
        # A weight row named by a hot column gets the sum of the rows of its
        # pairs: a stable sort groups equal indices, reduceat adds each group
        # (np.add.at is several times slower).  One group (the bias) is in order.
        self.hot_rows, self.groups = [], []
        for column in () if hot is None else hot.T:
            order = np.argsort(column, kind="stable")
            keys = column[order]
            starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            self.hot_rows.append(column if len(starts) > 1 else int(keys[0]))
            self.groups.append((order if len(starts) > 1 else None, keys[starts], starts))

    def step(self, weights: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and a newly allocated gradient under ``weights``."""
        # Overflow surfaces as a non-finite loss, not as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            soft = _logits(weights, self.x, self.hot_rows, self.logits, self.work)
            picked = soft[self.rows, self.y]
            peak, total = _softmax(soft)
            loss = float(np.mean(peak + np.log(total) - picked))
            soft[self.rows, self.y] -= 1.0
            grad = np.zeros_like(weights, dtype=np.float64)
            grad[: self.x.shape[1]] = self.x.T @ soft
            for order, keys, starts in self.groups:
                grouped = soft if order is None else np.take(soft, order, 0, self.work, "clip")
                grad[keys] += np.add.reduceat(grouped, starts, axis=0)
            grad /= len(self.y)
        return loss, grad


def _logits(
    weights: np.ndarray, features: np.ndarray, hot_columns, out=None, work=None
) -> np.ndarray:
    """(k, R+1) logits of k pairs, into ``out`` if given: ``features`` times
    the first weight rows, then the weight rows named by each of
    ``hot_columns`` added in turn (subject class, object class, bias).  A hot
    column is an index array with one entry per pair, or one index shared by
    every pair.  Index arrays are gathered in clip mode, into ``work`` if
    given (``take`` buffers the default mode), so they must be in range."""
    logits = np.matmul(features, weights[: features.shape[1]], out=out)
    for rows in hot_columns:
        logits += weights[rows] if np.ndim(rows) == 0 else np.take(weights, rows, 0, work, "clip")
    return logits


def _softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn each row of ``logits`` into its softmax, in place: one ``exp``
    pass after subtracting the row maximum, then a division by the row sum.

    Returns the row maxima and row sums, so a row's log-sum-exp is
    ``max + log(sum)``.
    """
    peak = logits.max(axis=1, keepdims=True)
    logits -= peak
    np.exp(logits, out=logits)
    total = logits.sum(axis=1, keepdims=True)
    logits /= total
    return peak[:, 0], total[:, 0]


def _categories(scene: SceneAnnotation) -> np.ndarray:
    return np.array([obj.category for obj in scene.objects], dtype=np.intp)


def _box_table(scenes: tuple[SceneAnnotation, ...]) -> tuple:
    """The objects of ``scenes``, in order, as :func:`_pair_geometry` reads
    them: their (n, 5) box ``params``, the same divided by their image's
    width, height, width, height and 2*pi, their (n, 4) extents, and the
    objects themselves.  ``scenes`` must not be empty."""
    columns = [scene.box_columns for scene in scenes]
    params = np.concatenate([column[0] for column in columns])
    scale = np.repeat(
        np.array([(s.width, s.height, s.width, s.height, TWO_PI) for s in scenes]),
        [len(s.objects) for s in scenes],
        axis=0,
    )
    objects = [obj for scene in scenes for obj in scene.objects]
    return params, params / scale, np.concatenate([column[1] for column in columns]), objects


def _pair_geometry(boxes: tuple, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """(k, 15) geometry block of the pairs (ii, jj) of the objects of a
    :func:`_box_table`: the first ``GEOMETRY_FEATURES`` columns of a scorer
    feature row.  Both objects of a pair are in one scene.

    Columns: image-normalized center distance; log area ratio; log
    aspect (w/h) of subject and of object; rotated IoU; then the five
    parameters (cx, cy, w, h, theta) of subject and of object, divided
    by image width, height, width, height and 2*pi.

    IoU is computed only for pairs whose axis extents meet; the rest
    overlap nowhere and keep 0.0.
    """
    params, normalized, extents, objects = boxes
    s = params[ii]
    o = params[jj]
    ns = normalized[ii]
    no = normalized[jj]
    block = np.empty((len(ii), GEOMETRY_FEATURES), dtype=np.float64)
    block[:, 0] = np.hypot(ns[:, 0] - no[:, 0], ns[:, 1] - no[:, 1])
    block[:, 1] = np.log((s[:, 2] * s[:, 3]) / (o[:, 2] * o[:, 3]))
    block[:, 2] = np.log(s[:, 2] / s[:, 3])
    block[:, 3] = np.log(o[:, 2] / o[:, 3])
    block[:, 4] = 0.0
    block[:, 5:10] = ns
    block[:, 10:15] = no
    es = extents[ii]
    eo = extents[jj]
    meet = (
        (es[:, 0] <= eo[:, 2])
        & (eo[:, 0] <= es[:, 2])
        & (es[:, 1] <= eo[:, 3])
        & (eo[:, 1] <= es[:, 3])
    )
    for k, i, j in zip(np.flatnonzero(meet).tolist(), ii[meet].tolist(), jj[meet].tolist()):
        block[k, 4] = rotated_iou(objects[i].box, objects[j].box)
    return block


def _scene_pair_rows(
    scene: SceneAnnotation,
    num_classes: int,
    num_relations: int,
    max_pos: int,
    max_neg: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled pairs of one scene as training rows: their (k, 15) geometry
    block, their (k, 3) ``hot`` weight rows (those of the subject class,
    the object class and the bias, whose feature is 1.0) and their labels;
    label R means unrelated."""
    n = len(scene.objects)
    # The first triplet of a pair sets its label.
    first: dict[int, int] = {}
    for k, p in zip(relation_pairs(scene), scene.relations.predicates):
        first.setdefault(k, p)
    labels = np.full(n * (n - 1), num_relations, dtype=np.int64)
    labels[list(first)] = list(first.values())
    chosen = sample_pairs(labels != num_relations, max_pos, max_neg, rng)
    ii, jj = pair_endpoints(n, chosen)
    categories = _categories(scene)
    hot = np.empty((len(chosen), 3), dtype=np.intp)
    hot[:, 0] = GEOMETRY_FEATURES + categories[ii]
    hot[:, 1] = GEOMETRY_FEATURES + num_classes + categories[jj]
    hot[:, 2] = feature_count(num_classes) - 1
    return _pair_geometry(_box_table((scene,)), ii, jj), hot, labels[chosen]


def train_linear(dataset: Dataset, config: TrainConfig) -> LinearScorer:
    """Fit a LinearScorer by full-batch gradient descent.

    Pair subsampling uses a generator seeded from ``config.seed``, weights
    start at zero and every update is deterministic, so equal seeds and
    data reproduce the scorer exactly.  The recorded loss history has one
    entry per epoch plus the final loss.  The batch is checked and grouped
    once per run, and every epoch takes one step on it.
    """
    registry = dataset.registry
    num_relations = registry.num_relations
    rng = np.random.default_rng(config.seed)
    geometry: list[np.ndarray] = []
    hot: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for scene in dataset.scenes:
        scene_geometry, scene_hot, scene_labels = _scene_pair_rows(
            scene,
            registry.num_objects,
            num_relations,
            config.max_pos,
            config.max_neg,
            rng,
        )
        geometry.append(scene_geometry)
        hot.append(scene_hot)
        labels.append(scene_labels)
    if sum(len(g) for g in geometry) == 0:
        raise DataError("dataset yields no object pairs to train on")
    features = np.concatenate(geometry)
    hot_rows = np.concatenate(hot)
    targets = np.concatenate(labels)
    weights = np.zeros(
        (feature_count(registry.num_objects), num_relations + 1), dtype=np.float64
    )
    batch = _Batch(weights, features, targets, hot_rows)
    history: list[float] = []
    for _ in range(config.epochs):
        loss, grad = batch.step(weights)
        if not math.isfinite(loss):
            raise TrainingDivergenceError(
                f"loss became non-finite after {len(history)} epochs"
            )
        history.append(loss)
        weights = weights - config.learning_rate * grad
    final_loss, _ = batch.step(weights)
    if not math.isfinite(final_loss):
        raise TrainingDivergenceError("final loss is non-finite")
    history.append(final_loss)
    return LinearScorer(weights, registry.content_hash(), tuple(history))


def _check_top_m(top_m: int | None) -> None:
    if top_m is not None and top_m < 0:
        raise ValueError(f"top_m must be >= 0: {top_m}")


def predict_triplets(
    scene: SceneAnnotation,
    prior: FrequencyPrior,
    linear: LinearScorer | None = None,
    top_m: int | None = None,
    graph_constraint: bool = True,
) -> RelationColumns:
    """Score relation candidates over a scene's annotated objects: the one
    scene of :func:`predict_scenes`, with its rules and errors.  A scene of
    at most ``PAIR_BLOCK`` pairs is one block, a larger one is scored in
    blocks of whole subject rows, and its class pairs' prior rows are
    computed once."""
    return next(predict_scenes((scene,), prior, linear, top_m, graph_constraint))


def predict_scenes(
    scenes: Iterable[SceneAnnotation],
    prior: FrequencyPrior,
    linear: LinearScorer | None = None,
    top_m: int | None = None,
    graph_constraint: bool = True,
) -> Iterator[RelationColumns]:
    """Score relation candidates over each scene's annotated objects: an
    iterator over each scene's relations, scene by scene.

    Every ordered object pair receives a fused predicate distribution (the
    prior row times the scorer softmax, renormalized; prior alone when no
    scorer is given).  ``top_m`` keeps only each scene's pairs with the
    highest relatedness, defined as one minus the fused no-relation mass,
    ties by enumeration order.  With ``graph_constraint`` each surviving
    pair emits only its best predicate, otherwise every predicate.  Each
    emitted relation is scored with its predicate probability.  A scene's
    relations come back as :class:`RelationColumns` of object ids, pairs in
    enumeration order and each pair's predicates ascending.

    The pairs of all scenes are scored as one stream, in blocks of at most
    ``PAIR_BLOCK`` pairs: consecutive whole scenes share a block, and a
    scene with more pairs is scored alone, in blocks of whole subject rows
    (one row when a row is longer).  :func:`_prior_rows` runs once per call,
    for the class pairs the scenes have, and with no scorer all that follows
    from a row is computed once per class pair.  Pair indices, endpoints
    and class-pair codes live for one block; across its scene a pair keeps
    only its relatedness and emit flag, and with a scorer its best
    predicate and emitted scores, which prior-only scoring gathers for the
    surviving pairs only.

    The prior rows are computed at the call, and the iterator keeps them,
    not ``prior``.

    Raises:
        DataError: while iterating, naming the first scene, in order, with a
            category or predicate outside the prior's table, or with a prior
            or fused row total that is not finite and positive, as when a
            huge ``alpha`` or scorer weight overflows.
        ValueError: at the call, for a negative ``top_m`` or scorer weights
            that do not fit the prior's table.
    """
    _check_top_m(top_m)
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
    scenes = tuple(scenes)
    failure = None
    for stop, scene in enumerate(scenes):
        try:
            check_indices(scene, num_objects, num_relations)
        except DataError as exc:
            # Raised once the scenes before it are scored, which may fail first.
            failure, scenes = exc, scenes[:stop]
            break
    return _scored(_PairStream(scenes, prior, linear, top_m, graph_constraint), failure)


def _scored(stream: _PairStream, failure: DataError | None) -> Iterator[RelationColumns]:
    """The relations of each scene of ``stream``, then ``failure`` raised."""
    for first, end, step in stream.groups:
        yield from stream.relations(first, end, step)
    if failure is not None:
        raise failure


class _PairStream:
    """Every ordered object pair of a sequence of scenes, scene after scene
    and each scene's pairs in enumeration order, scored against one prior
    and optional scorer, with the options of :func:`predict_scenes`.  A
    pair is named by its index in the stream, and an object by its position
    in the scenes' objects laid end to end."""

    def __init__(
        self,
        scenes: tuple[SceneAnnotation, ...],
        prior: FrequencyPrior,
        linear: LinearScorer | None,
        top_m: int | None,
        graph_constraint: bool,
    ) -> None:
        sizes = np.array([len(scene.objects) for scene in scenes], dtype=np.intp)
        objects = [obj for scene in scenes for obj in scene.objects]
        num_objects = prior.num_objects
        self.scenes, self.linear = scenes, linear
        self.top_m, self.graph_constraint = top_m, graph_constraint
        self.num_objects, self.num_relations = num_objects, prior.num_relations
        self.ids = [obj.id for obj in objects]
        self.categories = np.array([obj.category for obj in objects], dtype=np.intp)
        self.rows = sizes - 1
        self.first_object = np.cumsum(sizes) - sizes
        self.bounds = np.concatenate(([0], np.cumsum(sizes * self.rows)))
        self.groups = list(self._groups())
        if linear is not None and scenes:
            self.boxes = _box_table(scenes)
            # Two (block, R+1) arrays that every block's logits, prior rows and
            # fused rows reuse: fresh ones cost a page fault each 4 KiB.
            bounds = self.bounds.tolist()
            block = max(min(step, bounds[end] - bounds[first]) for first, end, step in self.groups)
            self.work = np.empty((2, block, prior.num_relations + 1))
        # A prior row depends on the class pair only: it is computed once per
        # class pair the scenes have (found from their class histograms, in
        # float64 for BLAS), each pair's code found by a dense lookup over C*C keys.
        cells = np.repeat(np.arange(len(scenes)) * num_objects, sizes) + self.categories
        histograms = np.bincount(cells, minlength=len(scenes) * num_objects)
        pairs = _class_pair_counts(histograms.reshape(-1, num_objects).astype(np.float64))
        distinct = np.flatnonzero(pairs > 0)
        self.lookup = np.empty(num_objects * num_objects, dtype=np.intp)
        self.lookup[distinct] = np.arange(len(distinct))
        # Warnings off: a row total that overflows or is not positive gives a NaN
        # row, a DataError; a 0/0 row has no predicate mass and is not emitted.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            prior_rows = _prior_rows(prior, *np.divmod(distinct, num_objects))
            if linear is None:
                self.class_columns = _emit_columns(prior_rows, graph_constraint)
            else:
                self.prior_rows = prior_rows

    def _groups(self) -> Iterator[tuple[int, int, int]]:
        """Scenes ``first..end-1`` scored together, and their block length in
        pairs: consecutive whole scenes of at most ``PAIR_BLOCK`` pairs in
        all, in one block, or one scene of more pairs alone, in blocks of
        whole subject rows."""
        bounds, rows = self.bounds.tolist(), self.rows.tolist()
        first = 0
        while first < len(rows):
            end = first
            while end < len(rows) and bounds[end + 1] - bounds[first] <= PAIR_BLOCK:
                end += 1
            if end > first:
                yield first, end, PAIR_BLOCK
            else:
                yield first, first + 1, max(1, PAIR_BLOCK // rows[first]) * rows[first]
                end = first + 1
            first = end

    def _endpoints(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the subject and the object of each of ``pairs``."""
        scene = np.searchsorted(self.bounds, pairs, side="right") - 1
        ii, jj = _row_endpoints(pairs - self.bounds[scene], self.rows[scene])
        first = self.first_object[scene]
        ii += first
        jj += first
        return ii, jj

    def _codes(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """The class-pair code of each pair (ii, jj): its row of ``prior_rows``."""
        return self.lookup[self.categories[ii] * self.num_objects + self.categories[jj]]

    def _score(self, pairs: np.ndarray) -> tuple:
        """The columns of each of ``pairs``: relatedness and emit flag, and
        with a scorer also the best predicate and emitted scores (see
        :func:`_emit_columns`; without the graph constraint these are a view
        of ``work``, valid until the next block)."""
        ii, jj = self._endpoints(pairs)
        codes = self._codes(ii, jj)
        if self.linear is None:
            columns = tuple(column[codes] for column in self.class_columns[:2])
        else:
            cs, co = self.categories[ii], self.categories[jj]
            hot = (GEOMETRY_FEATURES + cs, GEOMETRY_FEATURES + self.num_objects + co, -1)
            logits, work = self.work[:, : len(pairs)]
            geometry = _pair_geometry(self.boxes, ii, jj)
            soft = _logits(self.linear.weights, geometry, hot, logits, work)
            _softmax(soft)
            fused = np.take(self.prior_rows, codes, 0, work, "clip")
            fused *= soft
            total = fused.sum(axis=1, keepdims=True)
            fused /= np.where(total > 0, total, np.nan)
            columns = _emit_columns(fused, self.graph_constraint)
        bad = np.flatnonzero(np.isnan(columns[0]))
        if bad.size:
            scene = np.searchsorted(self.bounds, pairs[bad[0]], side="right") - 1
            raise DataError(
                f"image {self.scenes[scene].image_id!r}: "
                "a prior or fused row total is not finite and positive"
            )
        return columns

    def relations(self, first: int, end: int, step: int) -> list:
        """The :class:`RelationColumns` of scenes ``first..end-1``, their
        pairs scored in blocks of ``step``."""
        start, stop = int(self.bounds[first]), int(self.bounds[end])
        if start == stop:
            return [NO_RELATIONS] * (end - first)
        width = 1 if self.graph_constraint else self.num_relations
        # All that is kept of a pair across its blocks: its relatedness and emit
        # flag, and with a scorer its best predicate and emitted scores.
        kept = [np.empty(stop - start), np.empty(stop - start, dtype=bool)]
        if self.linear is not None:
            kept += [np.empty(stop - start, dtype=np.intp), np.empty((stop - start, width))]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for low in range(start, stop, step):
                pairs = np.arange(low, min(low + step, stop))
                for out, column in zip(kept, self._score(pairs)):
                    out[low - start : low - start + len(pairs)] = column
        relatedness, emitting = kept[:2]
        if self.top_m is None:
            rows = np.flatnonzero(emitting)
        else:
            # One stable sort ranks each scene's pairs by descending relatedness;
            # the scene key has the smallest type that holds it, so a one-scene
            # group pays 1 B a pair for it.
            counts = np.diff(self.bounds[first : end + 1])
            key = np.repeat(np.arange(end - first, dtype=np.min_scalar_type(end - first)), counts)
            order = np.lexsort((np.negative(relatedness, out=relatedness), key))
            # The first top_m places of each scene's run in ``order``.
            taken = np.minimum(counts, self.top_m)
            skip = self.bounds[first:end] - start - (np.cumsum(taken) - taken)
            rows = np.sort(order[np.arange(taken.sum()) + np.repeat(skip, taken)])
            rows = rows[emitting[rows]]
        ii, jj = self._endpoints(rows + start)
        if self.linear is None:
            codes = self._codes(ii, jj)
            best, scores = (column[codes] for column in self.class_columns[2:])
        else:
            best, scores = kept[2][rows], kept[3][rows]
        if self.graph_constraint:
            chosen = best[:, None]
        else:
            chosen = np.broadcast_to(np.arange(width), (len(rows), width))
        ids = self.ids.__getitem__
        # Lists of known length: a tuple grown from an iterator is resized again
        # and again, which raised the benchmark's peak RSS by about 3%.
        subjects = list(map(ids, np.repeat(ii, width).tolist()))
        predicates = chosen.ravel().tolist()
        objects = list(map(ids, np.repeat(jj, width).tolist()))
        scores = scores.ravel().tolist()
        cuts = (np.searchsorted(rows, self.bounds[first : end + 1] - start) * width).tolist()
        return [
            RelationColumns(subjects[a:b], predicates[a:b], objects[a:b], scores[a:b])
            for a, b in zip(cuts, cuts[1:])
        ]


def _emit_columns(fused: np.ndarray, graph_constraint: bool) -> tuple:
    """Relatedness, emit flag, best predicate and emitted scores (the best
    one's under the graph constraint) of each row of ``fused``; a NaN row
    gets a NaN relatedness.  ``fused`` is overwritten: its predicate columns
    become the predicate probabilities."""
    num_relations = fused.shape[1] - 1
    probs = fused[:, :num_relations]
    mass = probs.sum(axis=1, keepdims=True)
    probs /= mass
    relatedness = 1.0 - fused[:, num_relations]
    # Without the graph constraint every predicate is emitted and no best is read.
    if not graph_constraint:
        return relatedness, mass[:, 0] > 0, np.zeros(len(probs), np.intp), probs
    # The argmax of whole rows, whose no-relation entry can never be the
    # largest: that of the column view would copy it.
    fused[:, num_relations] = -np.inf
    best = fused.argmax(axis=1)
    return relatedness, mass[:, 0] > 0, best, probs[np.arange(len(probs)), best][:, None]


def _prior_rows(prior: FrequencyPrior, cs: np.ndarray, co: np.ndarray) -> np.ndarray:
    """Prior probabilities over predicates plus no-relation, one row per class
    pair (cs, co); each row sums to 1, or is NaN if its total overflows.

    With alpha == 0 a class pair never seen in training has no counts at
    all; its row falls back to uniform rather than dividing by zero.
    """
    rows = prior.counts[cs, co] + float(prior.alpha)
    total = rows.sum(axis=1, keepdims=True)
    unseen = total[:, 0] <= 0
    rows[unseen] = 1.0
    total[unseen] = rows.shape[1]
    return rows / np.where(total < np.inf, total, np.nan)


# --- persistence ----------------------------------------------------------


def save_prior(prior: FrequencyPrior) -> str:
    """JSON document with the sparse non-zero counts; deterministic."""
    cells = np.unravel_index(np.flatnonzero(prior.counts > 0), prior.counts.shape)
    values = prior.counts[cells].tolist()
    entries = [list(entry) for entry in zip(*(index.tolist() for index in cells), values)]
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
    ``alpha`` must pass :class:`FrequencyPrior`'s check: finite,
    non-negative, and keeping every row total of the table finite.
    """
    doc = _load_model_doc(text, "frequency_prior")
    _check_hash(doc, registry)
    num_objects = _get(doc, "num_objects", int, "$")
    num_relations = _get(doc, "num_relations", int, "$")
    if num_objects != registry.num_objects or num_relations != registry.num_relations:
        raise RegistryMismatchError("prior table size does not match the registry")
    alpha = _get(doc, "alpha", float, "$")
    shape = (num_objects, num_objects, num_relations + 1)
    counts = np.zeros(shape, dtype=np.int64)
    for k, entry in enumerate(_get(doc, "counts", list, "$")):
        if type(entry) is not list or len(entry) != 4:
            raise ManifestError(f"$.counts[{k}]: expected [subject, object, predicate, count]")
        for i, value in enumerate(entry):
            if type(value) is not int:
                _expect(value, int, f"$.counts[{k}][{i}]")
        s, o, p, c = entry
        for i, (index, size) in enumerate(zip(entry, shape)):
            if not 0 <= index < size:
                raise ManifestError(f"$.counts[{k}][{i}]: index {index} outside 0..{size - 1}")
        if not 0 <= c <= _MAX_COUNT:
            raise ManifestError(f"$.counts[{k}][3]: count {c} outside 0..{_MAX_COUNT}")
        counts[s, o, p] = c
    try:
        return FrequencyPrior(counts, alpha, doc["registry_hash"])
    except ValueError as exc:
        raise ManifestError(f"$.alpha: {exc}") from None


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

    ``weights`` must hold exactly as many finite numbers as ``shape`` asks,
    and every ``loss_history`` entry must be a finite number.
    """
    doc = _load_model_doc(text, "linear_scorer")
    _check_hash(doc, registry)
    feature_version = doc.get("feature_version")
    if type(feature_version) is not int or feature_version != FEATURE_VERSION:
        raise ManifestError(f"unsupported feature version {feature_version!r}")
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
    losses = tuple(_expect(v, float, f"$.loss_history[{i}]") for i, v in enumerate(history))
    for i, loss in enumerate(losses):
        if not math.isfinite(loss):
            raise ManifestError(f"$.loss_history[{i}]: non-finite loss {loss!r}")
    return LinearScorer(weights.reshape(shape), doc["registry_hash"], losses)


def _load_model_doc(text: str | bytes, kind: str) -> dict:
    doc = _load_root(text)
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ManifestError(f"expected a {kind!r} document")
    version = doc.get("version")
    if type(version) is not int or version != 1:
        raise ManifestError(f"unsupported model version {version!r}")
    return doc


def _check_hash(doc: dict, registry: CategoryRegistry) -> None:
    if doc.get("registry_hash") != registry.content_hash():
        raise RegistryMismatchError(
            "model was fitted against a different category registry"
        )
