"""Ordered pair enumeration, labeling, sampling and the pair loss."""

import math

import numpy as np
import pytest

import oracles
from obsg import (
    ObjectInstance,
    OrientedBox,
    RelationTriplet,
    SceneAnnotation,
    label_pairs,
    relation_pairs,
    relpn_loss,
    sample_pairs,
)
from obsg.pairing import pair_endpoints


def listed_pairs(n):
    ii, jj = pair_endpoints(n, np.arange(n * (n - 1)))
    return list(zip(ii.tolist(), jj.tolist()))


def test_enumerate_pairs_small_cases():
    assert listed_pairs(0) == []
    assert listed_pairs(1) == []
    assert listed_pairs(3) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert len(listed_pairs(40)) == 1560
    with pytest.raises(ValueError):
        pair_endpoints(1, np.array([0]))


def scene_with_relations(n, relations):
    box = OrientedBox.axis_aligned(0, 0, 10, 10)
    objects = tuple(
        ObjectInstance(100 + i, 0, box.translate(12.0 * i, 0.0)) for i in range(n)
    )
    triplets = tuple(RelationTriplet(100 + s, p, 100 + o) for s, p, o in relations)
    return SceneAnnotation("s", 1000, 1000, objects, triplets)


def test_pair_index_agrees_with_enumeration():
    for n in range(2, 9):
        pairs = oracles.reference_pairs(n)
        scene = scene_with_relations(n, [(i, 0, j) for i, j in pairs])
        assert relation_pairs(scene) == list(range(len(pairs)))
    with pytest.raises(ValueError):
        relation_pairs(scene_with_relations(4, [(0, 0, 1), (2, 0, 2)]))


def test_relation_pairs_follow_relation_order():
    # Shuffled relations, parallel triplets and both directions of a pair.
    rng = np.random.default_rng(64)
    for n in range(13):
        pairs = oracles.reference_pairs(n)
        relations = [
            (*pairs[int(k)], int(p))
            for k, p in zip(
                rng.integers(0, max(len(pairs), 1), size=3 * len(pairs)),
                rng.integers(0, 3, size=3 * len(pairs)),
            )
        ]
        scene = scene_with_relations(n, [(i, p, j) for i, j, p in relations])
        assert relation_pairs(scene) == [pairs.index((i, j)) for i, j, _ in relations]


def test_pair_endpoints_list_the_enumeration():
    for n in range(13):
        assert listed_pairs(n) == oracles.reference_pairs(n)
    ii, jj = pair_endpoints(7, np.array([5, 41, 0, 18]))
    scene = scene_with_relations(7, [(i, 0, j) for i, j in zip(ii.tolist(), jj.tolist())])
    assert relation_pairs(scene) == [5, 41, 0, 18]
    for n, k in ((7, [42]), (7, [-1]), (1, [0])):
        with pytest.raises(ValueError):
            pair_endpoints(n, np.array(k))


def test_label_pairs_no_relations():
    labels = label_pairs(scene_with_relations(4, []))
    assert labels.shape == (12,)
    assert labels.dtype == np.int8
    assert not labels.any()


def test_label_pairs_collapses_parallel_triplets():
    # Two predicates on the same ordered pair still label it once.
    labels = label_pairs(scene_with_relations(3, [(0, 0, 1), (0, 1, 1)]))
    assert labels.sum() == 1
    assert labels[oracles.reference_pairs(3).index((0, 1))] == 1


def test_label_pairs_is_direction_sensitive():
    labels = label_pairs(scene_with_relations(3, [(2, 0, 0)]))
    pairs = oracles.reference_pairs(3)
    assert labels[pairs.index((2, 0))] == 1
    assert labels[pairs.index((0, 2))] == 0


def test_label_pairs_matches_brute_force():
    rng = np.random.default_rng(60)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        pairs = oracles.reference_pairs(n)
        chosen = {
            pairs[int(k)]
            for k in rng.choice(len(pairs), size=int(rng.integers(0, len(pairs))), replace=False)
        }
        labels = label_pairs(scene_with_relations(n, [(i, 0, j) for i, j in chosen]))
        for k, (i, j) in enumerate(pairs):
            assert labels[k] == int((i, j) in chosen)


def test_sample_pairs_caps_do_not_bind():
    labels = label_pairs(scene_with_relations(3, [(0, 0, 1)]))
    taken = sample_pairs(labels, max_pos=64, max_neg=192)
    assert taken.tolist() == list(range(6))
    assert taken.dtype == np.int64


def test_sample_pairs_binding_requires_rng():
    labels = label_pairs(scene_with_relations(5, [(0, 0, 1), (1, 0, 2)]))
    with pytest.raises(ValueError):
        sample_pairs(labels, max_pos=1, max_neg=100)
    with pytest.raises(ValueError):
        sample_pairs(labels, max_pos=-1, max_neg=1)


def test_sample_pairs_counts_and_label_split():
    labels = label_pairs(
        scene_with_relations(6, [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4)])
    )
    pos_set = set(np.flatnonzero(labels == 1).tolist())
    neg_set = set(np.flatnonzero(labels == 0).tolist())
    taken = sample_pairs(labels, max_pos=2, max_neg=5, rng=9)
    taken_list = taken.tolist()
    assert len(taken_list) == 7
    assert len(set(taken_list)) == 7
    assert sum(1 for k in taken_list if k in pos_set) == 2
    assert sum(1 for k in taken_list if k in neg_set) == 5
    assert taken_list == sorted(taken_list)
    only_neg = sample_pairs(labels, max_pos=0, max_neg=5, rng=9)
    assert all(k in neg_set for k in only_neg.tolist())


def test_sample_pairs_deterministic_per_seed():
    labels = label_pairs(
        scene_with_relations(7, [(i, 0, (i + 1) % 7) for i in range(7)])
    )
    draws = {
        seed: sample_pairs(labels, max_pos=3, max_neg=10, rng=seed).tolist()
        for seed in range(100)
    }
    for seed, draw in draws.items():
        again = sample_pairs(labels, max_pos=3, max_neg=10, rng=seed).tolist()
        assert draw == again
    assert len({tuple(d) for d in draws.values()}) > 1


def test_relpn_loss_known_values():
    loss, grad = relpn_loss(np.array([0.0]), np.array([1.0]))
    assert abs(loss - math.log(2.0)) < 1e-12
    assert abs(grad[0] - (-0.5)) < 1e-12
    loss, _ = relpn_loss(np.array([30.0]), np.array([1.0]))
    assert 0.0 <= loss < 1e-12
    loss, _ = relpn_loss(np.array([-30.0]), np.array([0.0]))
    assert 0.0 <= loss < 1e-12
    loss, grad = relpn_loss(np.array([1000.0]), np.array([0.0]))
    assert math.isfinite(loss) and abs(loss - 1000.0) < 1e-9
    assert np.all(np.isfinite(grad))


def test_relpn_loss_empty():
    loss, grad = relpn_loss(np.zeros(0), np.zeros(0))
    assert loss == 0.0
    assert grad.shape == (0,)


def test_relpn_loss_validation():
    with pytest.raises(ValueError):
        relpn_loss(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        relpn_loss(np.array([float("nan")]), np.array([0.0]))
    with pytest.raises(ValueError):
        relpn_loss(np.array([0.0]), np.array([0.5]))


def test_relpn_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(62)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        x = rng.normal(scale=3.0, size=n)
        y = rng.integers(0, 2, size=n).astype(np.float64)
        _, grad = relpn_loss(x, y)
        fd = oracles.central_difference_gradient(
            lambda v: relpn_loss(v, y)[0], x
        )
        assert oracles.relative_error(grad, fd) <= 1e-5


def test_relpn_loss_nonnegative():
    rng = np.random.default_rng(63)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        x = rng.normal(scale=5.0, size=n)
        y = rng.integers(0, 2, size=n).astype(np.float64)
        loss, _ = relpn_loss(x, y)
        assert loss >= 0.0
