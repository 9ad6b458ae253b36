"""Losses, frequency prior, linear scorer training and prediction."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from obsg import (
    CategoryRegistry,
    DataError,
    Dataset,
    FrequencyPrior,
    LinearScorer,
    ManifestError,
    ObjectInstance,
    OrientedBox,
    RegistryMismatchError,
    RelationTriplet,
    SceneAnnotation,
    SynthConfig,
    TrainConfig,
    TrainingDivergenceError,
    canonical_registry,
    ce_loss,
    fit_frequency_prior,
    generate,
    label_pairs,
    load_prior,
    load_scorer,
    predict_triplets,
    sample_pairs,
    save_prior,
    save_scorer,
    train_linear,
)
from obsg import scorer as scorer_module
from obsg.scorer import (
    _prior_rows,
    _scene_pair_rows,
    _SceneArrays,
    feature_count,
    linear_loss_and_grad,
)


def test_ce_loss_uniform_and_saturated():
    loss, grad = ce_loss(np.zeros(64), 7)
    assert abs(loss - math.log(64.0)) <= 1e-12
    assert abs(grad.sum()) < 1e-12
    loss, _ = ce_loss(np.array([30.0, 0.0]), 0)
    assert 0.0 <= loss < 1e-12
    loss, _ = ce_loss(np.array([-30.0, 0.0]), 0)
    assert loss > 29.0


def test_ce_loss_validation():
    with pytest.raises(ValueError):
        ce_loss(np.zeros(3), 3)
    with pytest.raises(ValueError):
        ce_loss(np.zeros(3), -1)
    with pytest.raises(ValueError):
        ce_loss(np.zeros(0), 0)
    with pytest.raises(ValueError):
        ce_loss(np.array([1.0, float("inf")]), 0)


def test_ce_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(70)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        x = rng.normal(scale=2.0, size=n)
        idx = int(rng.integers(0, n))
        _, grad = ce_loss(x, idx)
        fd = oracles.central_difference_gradient(lambda v: ce_loss(v, idx)[0], x)
        assert oracles.relative_error(grad, fd) <= 1e-5


def test_linear_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(71)
    for _ in range(30):
        batch, n_feat, n_cls = int(rng.integers(1, 6)), 5, 3
        w = rng.normal(size=(n_feat, n_cls))
        x = rng.normal(size=(batch, n_feat))
        y = rng.integers(0, n_cls, size=batch)
        _, grad = linear_loss_and_grad(w, x, y)
        fd = oracles.central_difference_gradient(
            lambda flat: linear_loss_and_grad(flat.reshape(w.shape), x, y)[0],
            w.flatten(),
        )
        assert oracles.relative_error(grad.flatten(), fd) <= 1e-5


def test_linear_loss_validation():
    with pytest.raises(ValueError):
        linear_loss_and_grad(np.zeros((4, 2)), np.zeros((0, 4)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        linear_loss_and_grad(np.zeros((4, 2)), np.zeros((2, 4)), np.zeros(3, dtype=int))


def test_pair_features_layout():
    a = ObjectInstance(0, 1, OrientedBox.axis_aligned(0, 0, 10, 10))
    b = ObjectInstance(1, 2, OrientedBox.axis_aligned(30, 40, 40, 50))
    scene = SceneAnnotation("s", 100, 100, (a, b), ())
    vec = oracles.reference_pair_features(a, b, scene, num_classes=4)
    assert vec.shape == (feature_count(4),)
    assert feature_count(4) == 15 + 8 + 1
    assert abs(vec[0] - 0.5) < 1e-12  # hypot(0.3, 0.4) in image units
    assert vec[1] == 0.0 and vec[2] == 0.0 and vec[3] == 0.0
    assert vec[4] == 0.0
    assert vec[5] == 0.05 and vec[10] == 0.35
    one_hots = vec[15:23]
    assert one_hots.tolist() == [0, 1, 0, 0, 0, 0, 1, 0]
    assert vec[-1] == 1.0
    block = _SceneArrays.of(scene).geometry(np.array([0]), np.array([1]))
    assert block.shape == (1, 15)
    assert np.array_equal(block[0], vec[:15])


def two_class_dataset():
    registry = CategoryRegistry(("A", "B"), ("r0",))
    a = ObjectInstance(0, 0, OrientedBox.axis_aligned(0, 0, 10, 10))
    b = ObjectInstance(1, 1, OrientedBox.axis_aligned(20, 0, 30, 10))
    scene = SceneAnnotation("s", 100, 100, (a, b), (RelationTriplet(0, 0, 1),))
    return Dataset(registry, "train", (scene,))


def test_fit_prior_unsmoothed_counts():
    prior = fit_frequency_prior(two_class_dataset(), alpha=0.0)
    assert prior.counts[0, 1].tolist() == [1, 0]
    assert prior.counts[1, 0].tolist() == [0, 1]
    dist = prior.distribution(0, 1)
    assert dist[0] == 1.0 and dist[1] == 0.0
    assert prior.distribution(1, 0).tolist() == [0.0, 1.0]
    # Class pair never seen in training: uniform fallback.
    assert prior.distribution(0, 0).tolist() == [0.5, 0.5]


def test_fit_prior_smoothed_rows_normalize():
    prior = fit_frequency_prior(two_class_dataset(), alpha=0.5)
    for s in range(2):
        for o in range(2):
            dist = prior.distribution(s, o)
            assert np.all(dist > 0)
            assert abs(dist.sum() - 1.0) <= 1e-9
    assert prior.distribution(0, 1)[0] == 1.5 / 2.0


def test_prior_rows_equal_distribution():
    # Class pair (0, 0) is never seen: with alpha 0 it takes the uniform row.
    for alpha in (0.0, 0.5):
        prior = fit_frequency_prior(two_class_dataset(), alpha=alpha)
        cs, co = np.meshgrid(np.arange(2), np.arange(2), indexing="ij")
        rows = _prior_rows(prior, cs.ravel(), co.ravel())
        expected = [prior.distribution(s, o) for s, o in zip(cs.ravel(), co.ravel())]
        assert np.array_equal(rows, np.stack(expected))


@st.composite
def prior_datasets(draw):
    registry = CategoryRegistry(("A", "B", "C"), ("r0", "r1"))
    box = OrientedBox.axis_aligned(0, 0, 10, 10)
    scenes = []
    for index in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 12))
        # Few classes, so classes repeat; object ids need not be positions.
        objects = tuple(
            ObjectInstance(7 * k + 3, draw(st.integers(0, 2)), box) for k in range(n)
        )
        relations = []
        if n >= 2:
            # Drawn with repeats: parallel triplets on one ordered pair and
            # both directions of a pair both occur.
            ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            )
            for i, j in draw(st.lists(ends, max_size=2 * n)):
                relations.append(
                    RelationTriplet(objects[i].id, draw(st.integers(0, 1)), objects[j].id)
                )
        scenes.append(SceneAnnotation(f"s{index}", 100, 100, objects, tuple(relations)))
    return Dataset(registry, "train", tuple(scenes))


@settings(max_examples=300, deadline=None)
@given(prior_datasets(), st.sampled_from([0.0, 0.5, 1.0]))
def test_fit_prior_matches_per_pair_reference(dataset, alpha):
    fast = fit_frequency_prior(dataset, alpha)
    slow = oracles.reference_fit_frequency_prior(dataset, alpha)
    assert fast.counts.dtype == slow.counts.dtype == np.int64
    assert np.array_equal(fast.counts, slow.counts)
    assert save_prior(fast) == save_prior(slow)


def test_fit_prior_rejects_self_relation():
    dataset = two_class_dataset()
    scene = dataset.scenes[0]
    looped = SceneAnnotation(
        "s", 100, 100, scene.objects, scene.relations + (RelationTriplet(1, 0, 1),)
    )
    with pytest.raises(ValueError):
        fit_frequency_prior(Dataset(dataset.registry, "train", (looped,)))


def test_fit_prior_rejects_negative_alpha():
    with pytest.raises(ValueError):
        fit_frequency_prior(two_class_dataset(), alpha=-0.1)


def test_fit_prior_on_synthetic_rules():
    registry = canonical_registry()
    dataset = generate(SynthConfig(n_images=60, seed=5))
    prior = fit_frequency_prior(dataset, alpha=1.0)
    mb = registry.object_index("motorboat")
    water = registry.object_index("water")
    sail = registry.relation_index("sail on")
    predicate_part = prior.distribution(mb, water)[: registry.num_relations]
    assert int(np.argmax(predicate_part)) == sail


def separable_dataset():
    def scene(idx, overlap):
        base = OrientedBox.axis_aligned(20, 20, 40, 40)
        if overlap:
            other = base.translate(4.0 + 0.1 * (idx % 5), 1.0)
        else:
            other = base.translate(45.0 + 0.5 * (idx % 5), 10.0)
        predicate = 0 if overlap else 1
        return SceneAnnotation(
            f"s{idx}",
            100,
            100,
            (ObjectInstance(0, 0, base), ObjectInstance(1, 0, other)),
            (RelationTriplet(0, predicate, 1), RelationTriplet(1, predicate, 0)),
        )

    registry = CategoryRegistry(("thing",), ("overlap", "apart"))
    return Dataset(registry, "train", tuple(scene(i, i % 2 == 0) for i in range(40)))


def test_train_linear_zero_rate_keeps_zero_weights():
    dataset = separable_dataset()
    scorer = train_linear(dataset, TrainConfig(seed=1, learning_rate=0.0, epochs=5))
    assert not scorer.weights.any()
    assert len(scorer.loss_history) == 6
    for loss in scorer.loss_history:
        assert abs(loss - math.log(3.0)) <= 1e-12


def test_train_linear_separates_by_geometry():
    dataset = separable_dataset()
    scorer = train_linear(dataset, TrainConfig(seed=3))
    correct = 0
    total = 0
    for scene in dataset.scenes:
        # Pairs (0, 1) and (1, 0), with the one-hots of class 0 and a bias.
        block = _SceneArrays.of(scene).geometry(np.array([0, 1]), np.array([1, 0]))
        features = np.hstack([block, np.ones((2, 3))])
        predicted = np.argmax(features @ scorer.weights, axis=1)
        for k, rel in enumerate((0, 1)):
            correct += predicted[k] == scene.relations[rel].predicate
            total += 1
    assert correct / total >= 0.95
    assert scorer.loss_history[-1] <= scorer.loss_history[0]


def test_train_linear_deterministic_per_seed():
    dataset = generate(SynthConfig(n_images=8, seed=21))
    config = TrainConfig(seed=4, epochs=10)
    first = train_linear(dataset, config)
    second = train_linear(dataset, config)
    assert np.array_equal(first.weights, second.weights)
    assert first.loss_history == second.loss_history


def test_train_linear_reduces_loss_on_synthetic_data():
    dataset = generate(SynthConfig(n_images=10, seed=22))
    for seed in (1, 2):
        scorer = train_linear(dataset, TrainConfig(seed=seed, epochs=30))
        assert scorer.loss_history[-1] <= scorer.loss_history[0] + 1e-12


def test_train_linear_requires_pairs():
    registry = CategoryRegistry(("A",), ("r0",))
    lonely = SceneAnnotation(
        "s", 50, 50, (ObjectInstance(0, 0, OrientedBox.axis_aligned(0, 0, 9, 9)),), ()
    )
    with pytest.raises(DataError):
        train_linear(Dataset(registry, "train", (lonely,)), TrainConfig(seed=1))


def divergent_dataset():
    # Identical extreme-geometry pairs with conflicting labels cannot be
    # fitted; a huge step rate then drives the logits past float range.
    def scene(idx, predicate):
        a = OrientedBox.axis_aligned(10, 10, 1000, 10.001)
        b = OrientedBox.axis_aligned(500, 500, 500.001, 501)
        return SceneAnnotation(
            f"c{idx}",
            1000,
            1000,
            (ObjectInstance(0, 0, a), ObjectInstance(1, 0, b)),
            (RelationTriplet(0, predicate, 1),),
        )

    registry = CategoryRegistry(("thing",), ("p0", "p1"))
    return Dataset(registry, "train", (scene(0, 0), scene(1, 0), scene(2, 1)))


def test_train_linear_divergence_is_detected():
    with pytest.raises(TrainingDivergenceError):
        train_linear(divergent_dataset(), TrainConfig(seed=3, learning_rate=1e307, epochs=12))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(seed=1, learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(seed=1, epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(seed=1, max_pos=-1)


def one_relation_prior():
    registry = CategoryRegistry(("A", "B"), ("r0",))
    counts = np.zeros((2, 2, 2), dtype=np.int64)
    counts[0, 1, 0] = 5
    counts[1, 0, 1] = 3
    return registry, FrequencyPrior(counts, 0.0, registry.content_hash())


def pair_scene():
    a = ObjectInstance(10, 0, OrientedBox.axis_aligned(0, 0, 10, 10))
    b = ObjectInstance(20, 1, OrientedBox.axis_aligned(20, 0, 30, 10))
    return SceneAnnotation("s", 100, 100, (a, b), ())


def test_predict_triplets_skips_zero_predicate_mass():
    _, prior = one_relation_prior()
    scene = pair_scene()
    out = predict_triplets(scene, prior)
    # Pair (B, A) carries only no-relation mass and emits nothing.
    assert len(out) == 1
    pred = out[0]
    assert pred.subject_id == 10 and pred.object_id == 20
    assert pred.predicate == 0
    assert pred.score == 1.0 and pred.predicate_prob == 1.0
    assert pred.subject.score == 1.0 and pred.object.score == 1.0


def two_relation_prior():
    registry = CategoryRegistry(("A", "B"), ("r0", "r1"))
    counts = np.zeros((2, 2, 3), dtype=np.int64)
    counts[0, 1] = [3, 1, 0]
    counts[1, 0] = [1, 1, 2]
    return registry, FrequencyPrior(counts, 0.0, registry.content_hash())


def test_predict_triplets_graph_constraint_and_top_m():
    _, prior = two_relation_prior()
    scene = pair_scene()
    constrained = predict_triplets(scene, prior)
    assert [(p.predicate, p.score) for p in constrained] == [(0, 0.75), (0, 0.5)]
    relaxed = predict_triplets(scene, prior, graph_constraint=False)
    assert [(p.predicate, round(p.score, 12)) for p in relaxed] == [
        (0, 0.75),
        (1, 0.25),
        (0, 0.5),
        (1, 0.5),
    ]
    assert predict_triplets(scene, prior, top_m=0) == []
    top = predict_triplets(scene, prior, top_m=1)
    # Pair (A, B) has relatedness 1.0 against 0.5 and survives the cut.
    assert [(p.subject_id, p.object_id) for p in top] == [(10, 20)]
    with pytest.raises(ValueError):
        predict_triplets(scene, prior, top_m=-1)


def test_predict_triplets_deterministic():
    _, prior = two_relation_prior()
    scene = pair_scene()
    assert predict_triplets(scene, prior) == predict_triplets(scene, prior)


def test_predict_triplets_zero_scorer_matches_prior_only():
    registry, prior = two_relation_prior()
    scene = pair_scene()
    zero = LinearScorer(
        np.zeros((feature_count(2), 3)), registry.content_hash()
    )
    fused = predict_triplets(scene, prior, linear=zero)
    plain = predict_triplets(scene, prior)
    assert [(p.predicate, p.subject_id, p.object_id) for p in fused] == [
        (p.predicate, p.subject_id, p.object_id) for p in plain
    ]
    for f, p in zip(fused, plain):
        assert abs(f.score - p.score) <= 1e-12


def test_prior_round_trip():
    registry = canonical_registry()
    dataset = generate(SynthConfig(n_images=10, seed=23))
    prior = fit_frequency_prior(dataset, alpha=1.0)
    loaded = load_prior(save_prior(prior), registry)
    assert np.array_equal(loaded.counts, prior.counts)
    assert loaded.alpha == prior.alpha
    assert loaded.registry_hash == prior.registry_hash


def test_scorer_round_trip():
    dataset = generate(SynthConfig(n_images=8, seed=24))
    scorer = train_linear(dataset, TrainConfig(seed=1, epochs=5))
    loaded = load_scorer(save_scorer(scorer), canonical_registry())
    assert np.array_equal(loaded.weights, scorer.weights)
    assert loaded.loss_history == scorer.loss_history


def test_load_rejects_registry_mismatch():
    registry, prior = one_relation_prior()
    other = CategoryRegistry(("A", "Z"), ("r0",))
    with pytest.raises(RegistryMismatchError):
        load_prior(save_prior(prior), other)
    scorer = LinearScorer(np.zeros((feature_count(2), 2)), registry.content_hash())
    with pytest.raises(RegistryMismatchError):
        load_scorer(save_scorer(scorer), other)


def test_load_rejects_tampered_documents():
    registry, prior = one_relation_prior()
    doc = json.loads(save_prior(prior))
    doc["num_objects"] = 3
    with pytest.raises(RegistryMismatchError):
        load_prior(json.dumps(doc), registry)

    scorer = LinearScorer(np.zeros((feature_count(2), 2)), registry.content_hash())
    doc = json.loads(save_scorer(scorer))
    doc["shape"] = [4, 2]
    doc["weights"] = [0.0] * 8
    with pytest.raises(RegistryMismatchError):
        load_scorer(json.dumps(doc), registry)

    doc = json.loads(save_scorer(scorer))
    doc["feature_version"] = 99
    with pytest.raises(ManifestError):
        load_scorer(json.dumps(doc), registry)

    doc = json.loads(save_prior(prior))
    doc["kind"] = "linear_scorer"
    with pytest.raises(ManifestError):
        load_prior(json.dumps(doc), registry)

    doc = json.loads(save_prior(prior))
    doc["version"] = 2
    with pytest.raises(ManifestError):
        load_prior(json.dumps(doc), registry)

    with pytest.raises(ManifestError):
        load_prior("{broken", registry)


# --- array scoring against the per-pair reference -------------------------

NUM_CLASSES = 3
NUM_PREDICATES = 2
SCORE_TOL = 1e-12


@st.composite
def scoring_cases(draw):
    n = draw(st.integers(0, 12))
    offset = draw(st.sampled_from([0.0, 1e3, 1e6]))
    boxes = []
    for _ in range(n):
        # Boxes of a few pixels on a 60 px field: some overlap, many do not.
        cx = draw(st.floats(0.0, 60.0)) + offset
        cy = draw(st.floats(0.0, 60.0)) + offset
        w = draw(st.floats(1.0, 20.0))
        h = draw(st.floats(1.0, 20.0))
        theta = draw(st.sampled_from([0.0, 0.5, math.pi / 2, 2.0]))
        boxes.append(OrientedBox.from_params(cx, cy, w, h, theta))
    objects = tuple(
        ObjectInstance(10 + k, draw(st.integers(0, NUM_CLASSES - 1)), box)
        for k, box in enumerate(boxes)
    )
    extent = int(offset + 100)
    scene = SceneAnnotation("s", extent, extent, objects, ())
    # Small counts with many zero cells: with alpha == 0 some class pairs
    # are unseen (uniform rows) and many rows tie on relatedness.
    counts = np.array(
        draw(
            st.lists(
                st.sampled_from([0, 0, 0, 1, 2, 5]),
                min_size=NUM_CLASSES**2 * (NUM_PREDICATES + 1),
                max_size=NUM_CLASSES**2 * (NUM_PREDICATES + 1),
            )
        ),
        dtype=np.int64,
    ).reshape(NUM_CLASSES, NUM_CLASSES, NUM_PREDICATES + 1)
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]))
    prior = FrequencyPrior(counts, alpha, "h")
    linear = None
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        weights = np.random.default_rng(seed).normal(
            size=(feature_count(NUM_CLASSES), NUM_PREDICATES + 1)
        )
        linear = LinearScorer(weights, "h")
    top_m = draw(st.sampled_from([None, 0, 1, 5]))
    graph_constraint = draw(st.booleans())
    return scene, prior, linear, top_m, graph_constraint


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_predict_triplets_matches_per_pair_reference(case):
    scene, prior, linear, top_m, graph_constraint = case
    fast = predict_triplets(scene, prior, linear, top_m, graph_constraint)
    slow = oracles.reference_predict_triplets(scene, prior, linear, top_m, graph_constraint)
    key = lambda t: (t.subject_id, t.predicate, t.object_id, t.subject, t.object)  # noqa: E731
    assert [key(t) for t in fast] == [key(t) for t in slow]
    for f, s in zip(fast, slow):
        assert abs(f.score - s.score) <= SCORE_TOL
        assert f.predicate_prob == f.score
    if linear is None:
        # Prior-only scores take the same arithmetic path: equal bits.
        assert fast == slow


@pytest.mark.parametrize("block", [scorer_module.PAIR_BLOCK, 100, 1])
def test_predict_triplets_blocks_cover_long_rows(monkeypatch, block):
    # 40 objects give 1560 pairs in rows of 39: several blocks of whole
    # rows, or one row per block when a row is longer than the block.
    monkeypatch.setattr(scorer_module, "PAIR_BLOCK", block)
    rng = np.random.default_rng(5)
    registry, prior = two_relation_prior()
    objects = tuple(
        ObjectInstance(k, k % 2, oracles.random_box(rng, 0.0, 400.0, 2.0, 30.0))
        for k in range(40)
    )
    scene = SceneAnnotation("s", 400, 400, objects, ())
    linear = LinearScorer(
        rng.normal(size=(feature_count(2), 3)), registry.content_hash()
    )
    for scorer in (None, linear):
        fast = predict_triplets(scene, prior, scorer, top_m=100)
        slow = oracles.reference_predict_triplets(scene, prior, scorer, top_m=100)
        assert [(t.subject_id, t.object_id, t.predicate) for t in fast] == [
            (t.subject_id, t.object_id, t.predicate) for t in slow
        ]
        assert max(abs(f.score - s.score) for f, s in zip(fast, slow)) <= SCORE_TOL


def test_training_rows_match_pair_features():
    dataset = generate(SynthConfig(n_images=6, seed=31, max_objects=12))
    num_classes = dataset.registry.num_objects
    for scene in dataset.scenes:
        rows, labels = _scene_pair_rows(
            scene, num_classes, dataset.registry.num_relations, 64, 192,
            np.random.default_rng(0),
        )
        pairs = oracles.reference_pairs(len(scene.objects))
        chosen = sample_pairs(label_pairs(scene), 64, 192, np.random.default_rng(0))
        assert len(rows) == len(labels) == len(chosen)
        for row, k in zip(rows, chosen):
            i, j = pairs[k]
            expected = oracles.reference_pair_features(
                scene.objects[i], scene.objects[j], scene, num_classes
            )
            assert np.allclose(row, expected, rtol=0.0, atol=1e-12)
            assert np.array_equal(row[15:], expected[15:])


def test_training_labels_take_the_first_triplet():
    # Pair (0, 1) carries predicates 2 then 0, pair (2, 0) predicate 1, and
    # pair (1, 0) predicate 0: every other pair is labeled R (unrelated).
    objects = tuple(
        ObjectInstance(10 + k, k % 2, OrientedBox.axis_aligned(20 * k, 0, 20 * k + 9, 9))
        for k in range(4)
    )
    relations = tuple(
        RelationTriplet(10 + s, p, 10 + o)
        for s, p, o in ((0, 2, 1), (2, 1, 0), (0, 0, 1), (1, 0, 0))
    )
    scene = SceneAnnotation("s", 100, 100, objects, relations)
    rows, labels = _scene_pair_rows(scene, 2, 3, 64, 192, np.random.default_rng(0))
    expected = {(0, 1): 2, (2, 0): 1, (1, 0): 0}
    pairs = oracles.reference_pairs(4)
    assert len(labels) == len(pairs)
    assert labels.tolist() == [expected.get(pair, 3) for pair in pairs]
    self_related = SceneAnnotation("s", 100, 100, objects, (RelationTriplet(11, 0, 11),))
    with pytest.raises(ValueError):
        _scene_pair_rows(self_related, 2, 3, 64, 192, np.random.default_rng(0))


def prior_doc():
    registry, prior = one_relation_prior()
    return registry, json.loads(save_prior(prior))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("num_objects"),
        lambda d: d.update(num_relations="1"),
        lambda d: d.update(counts={"0": 1}),
        lambda d: d["counts"].__setitem__(0, [999, 0, 0, 1]),
        lambda d: d["counts"].__setitem__(0, [0, 1, 2, 1]),
        lambda d: d["counts"].__setitem__(0, [0, 0, 0, -5]),
        lambda d: d["counts"].__setitem__(0, [0, 1, 0]),
        lambda d: d["counts"].__setitem__(0, [0, 1, 0, 1.5]),
        lambda d: d["counts"].__setitem__(0, [0, True, 0, 1]),
        lambda d: d["counts"].__setitem__(0, [0, 1, 0, 2**64]),
        lambda d: d["counts"].__setitem__(0, 7),
        lambda d: d.update(alpha=-0.5),
        lambda d: d.update(alpha=float("nan")),
        lambda d: d.update(alpha=float("inf")),
        lambda d: d.update(alpha="1"),
        lambda d: d.pop("alpha"),
    ],
)
def test_load_prior_rejects_malformed_documents(edit):
    registry, doc = prior_doc()
    edit(doc)
    with pytest.raises(ManifestError, match=r"\$"):
        load_prior(json.dumps(doc), registry)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["weights"].__setitem__(3, float("nan")),
        lambda d: d["weights"].__setitem__(0, float("-inf")),
        lambda d: d["weights"].pop(),
        lambda d: d["weights"].append(0.0),
        lambda d: d["weights"].__setitem__(1, "0.5"),
        lambda d: d["weights"].__setitem__(1, None),
        lambda d: d["weights"].__setitem__(1, 10**400),
        lambda d: d.update(weights={"0": 1.0}),
        lambda d: d.pop("weights"),
        lambda d: d.update(shape=["24", 2]),
        lambda d: d.update(loss_history="low"),
    ],
)
def test_load_scorer_rejects_malformed_documents(edit):
    registry, _ = one_relation_prior()
    scorer = LinearScorer(np.zeros((feature_count(2), 2)), registry.content_hash(), (1.0,))
    doc = json.loads(save_scorer(scorer))
    edit(doc)
    with pytest.raises(ManifestError, match=r"\$"):
        load_scorer(json.dumps(doc), registry)
