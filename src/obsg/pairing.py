"""Ordered object-pair enumeration, labeling, sampling and pair loss.

A scene with n objects yields n*(n-1) ordered pairs of object positions
(i, j), i != j, in lexicographic order.  Direction matters: (i, j) is
related iff some triplet has subject i and object j.  Training-time
subsampling caps positives and negatives with an explicitly seeded
generator; nothing here touches global random state.
"""

from __future__ import annotations

import numpy as np

from .datamodel import SceneAnnotation

MAX_POSITIVE_PAIRS = 64
MAX_NEGATIVE_PAIRS = 192


def pair_endpoints(n: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subject and object positions ``(ii, jj)`` of enumerated pair indices.

    Pair index ``k`` of (i, j) is ``i * (n - 1) + j - (j > i)``; for ``k``
    equal to ``arange(n * (n - 1))`` the two arrays list every ordered pair
    in lexicographic order.
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


def relation_pairs(scene: SceneAnnotation) -> list[int]:
    """Pair index of every relation of the scene, in relation order."""
    n = len(scene.objects)
    return [i * (n - 1) + j - (j > i) for i, j in zip(*scene.relation_endpoints)]


def label_pairs(scene: SceneAnnotation) -> np.ndarray:
    """int8 relatedness of every ordered pair: 1 when at least one triplet
    has that subject and object, else 0; indexed like :func:`pair_endpoints`."""
    n = len(scene.objects)
    labels = np.zeros(n * (n - 1), dtype=np.int8)
    labels[relation_pairs(scene)] = 1
    return labels


def _check_caps(max_pos: int, max_neg: int) -> None:
    if max_pos < 0 or max_neg < 0:
        raise ValueError(f"caps must be >= 0: max_pos={max_pos} max_neg={max_neg}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0: {seed}")


def sample_pairs(
    labels: np.ndarray,
    max_pos: int = MAX_POSITIVE_PAIRS,
    max_neg: int = MAX_NEGATIVE_PAIRS,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Capped uniform subsample of pair indices, positives and negatives.

    ``labels`` holds the relatedness of every pair, 1 (or True) when
    related, as :func:`label_pairs` returns it.  Uniform without replacement
    within each label, deterministic for a given generator state.  A
    generator is mandatory only when a cap actually binds.  Returns
    ascending pair indices into the enumeration.
    """
    _check_caps(max_pos, max_neg)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if rng is None and (len(pos) > max_pos or len(neg) > max_neg):
        raise ValueError("sampling caps bind but no rng was given")
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
