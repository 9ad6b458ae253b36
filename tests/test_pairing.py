"""Ordered pair enumeration, labeling, sampling and the pair loss."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import relation_columns
from obsg import (
    CategoryRegistry,
    DataError,
    Dataset,
    ObjectInstance,
    OrientedBox,
    SceneAnnotation,
    TileSpec,
    TrainConfig,
    compute_stats,
    crop_scene,
    fit_frequency_prior,
    label_pairs,
    relation_pairs,
    relpn_loss,
    sample_pairs,
    scene_triplets,
    tile_dataset,
    train_linear,
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
    triplets = relation_columns((100 + s, p, 100 + o) for s, p, o in relations)
    return SceneAnnotation("s", 1000, 1000, objects, triplets)


def test_pair_index_agrees_with_enumeration():
    for n in range(2, 9):
        pairs = oracles.reference_pairs(n)
        scene = scene_with_relations(n, [(i, 0, j) for i, j in pairs])
        assert relation_pairs(scene) == list(range(len(pairs)))
    with pytest.raises(DataError, match=r"^image 's': object 102 relates to itself$"):
        relation_pairs(scene_with_relations(4, [(0, 0, 1), (2, 0, 2)]))


@pytest.mark.parametrize(
    "call",
    [
        lambda scene, dataset: relation_pairs(scene),
        lambda scene, dataset: label_pairs(scene),
        lambda scene, dataset: fit_frequency_prior(dataset),
        lambda scene, dataset: train_linear(dataset, TrainConfig(seed=0, epochs=1)),
        lambda scene, dataset: compute_stats(dataset),
        lambda scene, dataset: scene_triplets(scene),
        lambda scene, dataset: crop_scene(scene, TileSpec(0, 0, 500)),
    ],
    ids=[
        "relation_pairs",
        "label_pairs",
        "fit_frequency_prior",
        "train_linear",
        "compute_stats",
        "scene_triplets",
        "crop_scene",
    ],
)
@pytest.mark.parametrize(
    "relations, repeated, message",
    [
        ([(0, 0, 9)], False, "relation 100->109 references missing object id 109"),
        ([(9, 0, 0)], False, "relation 109->100 references missing object id 109"),
        ([(0, 0, 1), (1, 0, 1)], False, "object 101 relates to itself"),
        ([(0, 0, 1)], True, "object id 101 names two objects"),
    ],
    ids=["object", "subject", "self", "repeated-id"],
)
def test_dangling_relation_id_is_one_data_error(call, relations, repeated, message):
    # No consumer meets a malformed relation: a relation to, then from, id
    # 109 on a scene of objects 100 and 101, a self relation, or a relation
    # to id 101 when a third object reuses it, is rejected where the scene
    # is built, here by dataclasses.replace of a clean scene.  Every
    # consumer then reads the endpoints the clean scene resolved.
    clean = scene_with_relations(3 if repeated else 2, [(0, 0, 1)])
    with pytest.raises(DataError, match=f"^image 's': {message}$"):
        if repeated:
            replace(clean, objects=clean.objects[:2] + (replace(clean.objects[2], id=101),))
        else:
            triplets = relation_columns((100 + s, p, 100 + o) for s, p, o in relations)
            replace(clean, relations=triplets)
    call(clean, Dataset(CategoryRegistry(("a",), ("r",)), "train", (clean,)))


def test_relation_endpoints_are_object_positions():
    scene = scene_with_relations(3, [(2, 0, 0), (0, 1, 1), (2, 0, 0)])
    assert scene.relation_endpoints == ([2, 0, 2], [0, 1, 0])
    assert scene_with_relations(2, []).relation_endpoints == ([], [])


def test_tiling_and_prior_fit_resolve_each_scene_once(monkeypatch):
    # Each scene resolves its relations once, as it is built, and stores
    # them; no consumer resolves them again.
    built = []
    post_init = SceneAnnotation.__post_init__

    def counting(scene):
        post_init(scene)
        built.append(scene.image_id)
        assert "relation_endpoints" in vars(scene)

    monkeypatch.setattr(SceneAnnotation, "__post_init__", counting)
    registry = CategoryRegistry(("a",), ("r",))
    relations = [(0, 0, 1), (2, 0, 3), (1, 0, 0)]
    scene = scene_with_relations(4, relations)
    assert scene.relation_endpoints == ([0, 2, 1], [1, 3, 0])
    # A 1000 px scene has a 2x2 grid of 800 px tiles.
    tiled = tile_dataset(Dataset(registry, "train", (scene,)))
    assert len(tiled.scenes) == 4
    assert built == ["s"] + [tile.image_id for tile in tiled.scenes]
    fit_frequency_prior(Dataset(registry, "train", (scene,)))
    fit_frequency_prior(tiled)
    assert len(built) == 5
    # A stored field, not a descriptor that a later read could run again.
    assert "relation_endpoints" not in vars(SceneAnnotation)


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
    taken = sample_pairs(labels, max_pos=2, max_neg=5, rng=np.random.default_rng(9))
    taken_list = taken.tolist()
    assert len(taken_list) == 7
    assert len(set(taken_list)) == 7
    assert sum(1 for k in taken_list if k in pos_set) == 2
    assert sum(1 for k in taken_list if k in neg_set) == 5
    assert taken_list == sorted(taken_list)
    only_neg = sample_pairs(labels, max_pos=0, max_neg=5, rng=np.random.default_rng(9))
    assert all(k in neg_set for k in only_neg.tolist())


def test_sample_pairs_deterministic_per_seed():
    labels = label_pairs(
        scene_with_relations(7, [(i, 0, (i + 1) % 7) for i in range(7)])
    )
    draws = {
        seed: sample_pairs(labels, max_pos=3, max_neg=10, rng=np.random.default_rng(seed)).tolist()
        for seed in range(100)
    }
    for seed, draw in draws.items():
        again = sample_pairs(labels, max_pos=3, max_neg=10, rng=np.random.default_rng(seed)).tolist()
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
