"""Ordered object-pair enumeration, labeling, sampling and pair loss.

A scene with n objects yields n*(n-1) ordered pairs of object positions
(i, j), i != j, in lexicographic order.  Direction matters: (i, j) is
related iff some triplet has subject i and object j.  Training-time
subsampling caps positives and negatives with an explicitly seeded
generator; nothing here touches global random state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import SceneAnnotation

MAX_POSITIVE_PAIRS = 64
MAX_NEGATIVE_PAIRS = 192


def enumerate_pairs(n: int) -> list[tuple[int, int]]:
    """All ordered pairs (i, j), i != j, lexicographic; n*(n-1) entries."""
    if n < 0:
        raise ValueError(f"object count must be >= 0: {n}")
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def pair_index(n: int, i: int, j: int) -> int:
    """Position of (i, j) in the enumeration of ``enumerate_pairs(n)``."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"invalid pair ({i}, {j}) for n={n}")
    return i * (n - 1) + j - (1 if j > i else 0)


def pair_endpoints(n: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subject and object positions ``(ii, jj)`` of enumerated pair indices.

    The inverse of :func:`pair_index` over an index array: for ``k`` equal to
    ``arange(n * (n - 1))`` the two arrays list ``enumerate_pairs(n)``.
    """
    k = np.asarray(k, dtype=np.intp)
    if k.size == 0:
        return k, k
    if n < 2 or k.min() < 0 or k.max() >= n * (n - 1):
        raise ValueError(f"pair indices outside the {n * (n - 1)} pairs of n={n}")
    ii = k // (n - 1)
    jj = k - ii * (n - 1)
    jj += jj >= ii
    return ii, jj


@dataclass(frozen=True)
class PairLabelMatrix:
    """Relatedness labels for every ordered pair of one scene.

    ``labels[k]`` is 1 when the k-th enumerated pair carries at least one
    relation, else 0; positions index ``scene.objects``.
    """

    n: int
    labels: np.ndarray

    def __post_init__(self) -> None:
        expected = self.n * (self.n - 1) if self.n > 1 else 0
        if self.labels.shape != (expected,):
            raise ValueError(
                f"labels shape {self.labels.shape} does not fit n={self.n}"
            )

    @property
    def num_pairs(self) -> int:
        return int(self.labels.shape[0])


def label_pairs(scene: SceneAnnotation) -> PairLabelMatrix:
    """Binary relatedness of every ordered pair, from the scene's triplets."""
    n = len(scene.objects)
    position = {obj.id: idx for idx, obj in enumerate(scene.objects)}
    labels = np.zeros(n * (n - 1) if n > 1 else 0, dtype=np.int8)
    for rel in scene.relations:
        i = position[rel.subject]
        j = position[rel.object]
        labels[pair_index(n, i, j)] = 1
    return PairLabelMatrix(n, labels)


def sample_pairs(
    matrix: PairLabelMatrix,
    max_pos: int = MAX_POSITIVE_PAIRS,
    max_neg: int = MAX_NEGATIVE_PAIRS,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Capped uniform subsample of pair indices, positives and negatives.

    Uniform without replacement within each label, deterministic for a given
    seed.  A generator (or seed) is mandatory only when a cap actually
    binds.  Returns ascending pair indices into the enumeration.
    """
    if max_pos < 0 or max_neg < 0:
        raise ValueError(f"caps must be >= 0: max_pos={max_pos} max_neg={max_neg}")
    pos = np.flatnonzero(matrix.labels == 1)
    neg = np.flatnonzero(matrix.labels == 0)
    needs_rng = len(pos) > max_pos or len(neg) > max_neg
    if needs_rng:
        if rng is None:
            raise ValueError("sampling caps bind but no rng/seed was given")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
    if len(pos) > max_pos:
        pos = rng.choice(pos, size=max_pos, replace=False)
    if len(neg) > max_neg:
        neg = rng.choice(neg, size=max_neg, replace=False)
    return np.sort(np.concatenate([pos, neg]).astype(np.int64))


def relpn_loss(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy with logits and its gradient.

    Numerically stable for large magnitudes.  The gradient w.r.t. each
    logit is (sigmoid(logit) - label) / num_pairs.  Zero pairs give zero
    loss and an empty gradient.
    """
    x = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: logits {x.shape}, labels {y.shape}")
    if x.size == 0:
        return 0.0, np.zeros(0, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("logits must be finite")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("labels must be 0 or 1")
    per_pair = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    sigmoid = np.empty_like(x)
    pos = x >= 0
    sigmoid[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_neg = np.exp(x[~pos])
    sigmoid[~pos] = exp_neg / (1.0 + exp_neg)
    grad = (sigmoid - y) / x.size
    return float(np.mean(per_pair)), grad
