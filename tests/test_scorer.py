"""Losses, frequency prior, linear scorer training and prediction."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import relation_columns
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
from obsg.datamodel import MAX_IMAGE_EXTENT, NO_RELATIONS
from obsg.scorer import (
    GEOMETRY_FEATURES,
    _pair_geometry,
    _prior_rows,
    _scene_pair_rows,
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
    # Labels index the weight columns: -1 is not the last class, and the
    # class count is past the end.
    for label in (-1, 2):
        with pytest.raises(ValueError, match=r"^labels must lie in 0\.\.1$"):
            linear_loss_and_grad(np.zeros((4, 2)), np.zeros((2, 4)), [0, label])


def densify(features, hot, num_rows):
    """Dense rows equal to ``features`` followed by the one-hot ``hot`` entries."""
    rows = np.zeros((len(features), num_rows))
    rows[:, : features.shape[1]] = features
    for column in hot.T:
        np.add.at(rows, (np.arange(len(features)), column), 1.0)
    return rows


def random_hot_batch(rng, batch, n_feat, n_rows, n_cls):
    w = rng.normal(size=(n_rows, n_cls))
    x = rng.normal(size=(batch, n_feat))
    y = rng.integers(0, n_cls, size=batch)
    hot = rng.integers(n_feat, n_rows, size=(batch, 3))
    return w, x, y, hot


def test_linear_loss_with_hot_rows_matches_dense_rows():
    rng = np.random.default_rng(72)
    num_classes = 3
    n_rows = feature_count(num_classes)
    # Every pair of class 1 with itself: class 1 is both subject and object,
    # and each hot column repeats its index on every row.
    hot = np.array([[15 + 1, 15 + num_classes + 1, n_rows - 1]] * 4)
    cases = [(rng.normal(size=(n_rows, 5)), rng.normal(size=(4, 15)), rng.integers(0, 5, 4), hot)]
    # Random indices, where two columns may name one row of one pair.
    for _ in range(30):
        batch = int(rng.integers(1, 40))
        cases.append(random_hot_batch(rng, batch, 4, 9, 3))
    for w, x, y, hot in cases:
        loss, grad = linear_loss_and_grad(w, x, y, hot)
        dense_loss, dense_grad = linear_loss_and_grad(w, densify(x, hot, len(w)), y)
        assert abs(loss - dense_loss) <= 1e-12
        assert np.max(np.abs(grad - dense_grad)) <= 1e-12


def test_linear_loss_with_hot_rows_matches_finite_differences():
    rng = np.random.default_rng(73)
    for _ in range(20):
        w, x, y, hot = random_hot_batch(rng, int(rng.integers(1, 8)), 4, 8, 3)
        _, grad = linear_loss_and_grad(w, x, y, hot)
        fd = oracles.central_difference_gradient(
            lambda flat: linear_loss_and_grad(flat.reshape(w.shape), x, y, hot)[0],
            w.flatten(),
        )
        # Central differences carry about 1e-9 of rounding, which is large
        # next to the near-zero entries: bound them absolutely.
        assert np.allclose(grad.flatten(), fd, rtol=1e-5, atol=1e-8)


def test_training_batch_steps_are_independent_and_exact():
    # Weights W1, W2, W1 on one batch: both W1 steps give the bits of the
    # per-call reference, and a returned gradient is not reused by a later
    # step.  The bias column is one group, taken without a gather.
    rng = np.random.default_rng(74)
    w1, x, y, hot = random_hot_batch(rng, 40, 4, 9, 3)
    hot[:, 2] = 8
    w2 = rng.normal(size=w1.shape)
    batch = scorer_module._Batch(w1, x, y, hot)
    first = batch.step(w1)
    kept = first[1].copy()
    steps = [first, batch.step(w2), batch.step(w1)]
    assert first[1].tobytes() == kept.tobytes()
    assert steps[2][0] == first[0] and steps[2][1].tobytes() == kept.tobytes()
    for (loss, grad), w in zip(steps, (w1, w2, w1)):
        expected_loss, expected_grad = oracles.reference_linear_loss_and_grad(w, x, y, hot)
        assert loss == expected_loss
        assert grad.tobytes() == expected_grad.tobytes()


@pytest.mark.parametrize(
    "hot",
    [
        np.full((3, 3), 5),  # one row fewer than the batch
        np.full((4,), 5),  # not 2-D
        np.full((4, 3), 5.0),  # not integers
        np.array([[5, 6, 3]] * 4),  # below F = 4, a geometry row
        np.array([[5, 6, 8]] * 4),  # at the number of weight rows
        np.array([[5, 6, -1]] * 4),  # negative
    ],
)
def test_linear_loss_rejects_malformed_hot(hot):
    with pytest.raises(ValueError, match="hot"):
        linear_loss_and_grad(np.zeros((8, 2)), np.zeros((4, 4)), np.zeros(4, dtype=int), hot)


def test_pair_features_layout():
    a = ObjectInstance(0, 1, OrientedBox.axis_aligned(0, 0, 10, 10))
    b = ObjectInstance(1, 2, OrientedBox.axis_aligned(30, 40, 40, 50))
    scene = SceneAnnotation("s", 100, 100, (a, b), NO_RELATIONS)
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
    block = _pair_geometry(scene, np.array([0]), np.array([1]))
    assert block.shape == (1, 15)
    assert np.array_equal(block[0], vec[:15])
    # A scene whose extent would scale the block wrongly cannot be built.
    for width in (0, MAX_IMAGE_EXTENT + 1, 2**64):
        message = rf"^image 's': extent {width}x100 outside 1\.\.100000$"
        with pytest.raises(DataError, match=message):
            SceneAnnotation("s", width, 100, (a, b), NO_RELATIONS)


def two_class_dataset():
    registry = CategoryRegistry(("A", "B"), ("r0",))
    a = ObjectInstance(0, 0, OrientedBox.axis_aligned(0, 0, 10, 10))
    b = ObjectInstance(1, 1, OrientedBox.axis_aligned(20, 0, 30, 10))
    scene = SceneAnnotation("s", 100, 100, (a, b), relation_columns([(0, 0, 1)]))
    return Dataset(registry, "train", (scene,))


def test_fit_prior_unsmoothed_counts():
    prior = fit_frequency_prior(two_class_dataset(), alpha=0.0)
    assert prior.counts[0, 1].tolist() == [1, 0]
    assert prior.counts[1, 0].tolist() == [0, 1]
    dist = oracles.reference_prior_row(prior, 0, 1)
    assert dist[0] == 1.0 and dist[1] == 0.0
    assert oracles.reference_prior_row(prior, 1, 0).tolist() == [0.0, 1.0]
    # Class pair never seen in training: uniform fallback.
    assert oracles.reference_prior_row(prior, 0, 0).tolist() == [0.5, 0.5]


def test_fit_prior_smoothed_rows_normalize():
    prior = fit_frequency_prior(two_class_dataset(), alpha=0.5)
    for s in range(2):
        for o in range(2):
            dist = oracles.reference_prior_row(prior, s, o)
            assert np.all(dist > 0)
            assert abs(dist.sum() - 1.0) <= 1e-9
    assert oracles.reference_prior_row(prior, 0, 1)[0] == 1.5 / 2.0


def test_prior_rows_equal_distribution():
    # Class pair (0, 0) is never seen: with alpha 0 it takes the uniform row.
    for alpha in (0.0, 0.5):
        prior = fit_frequency_prior(two_class_dataset(), alpha=alpha)
        cs, co = np.meshgrid(np.arange(2), np.arange(2), indexing="ij")
        rows = _prior_rows(prior, cs.ravel(), co.ravel())
        expected = [
            oracles.reference_prior_row(prior, s, o) for s, o in zip(cs.ravel(), co.ravel())
        ]
        assert np.array_equal(rows, np.stack(expected))


def test_prior_rows_add_an_integer_alpha_in_float():
    # A count of int64 max plus an int alpha must not wrap to a negative
    # total and take the unseen-pair uniform row.
    counts = np.zeros((1, 1, 3), dtype=np.int64)
    counts[0, 0, 0] = np.iinfo(np.int64).max
    cs = co = np.zeros(1, dtype=np.intp)
    as_int, as_float = (_prior_rows(FrequencyPrior(counts, a, "h"), cs, co) for a in (1, 1.0))
    assert np.array_equal(as_int, as_float)
    assert as_float[0, 0] == 1.0


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
                relations.append((objects[i].id, draw(st.integers(0, 1)), objects[j].id))
        relations = relation_columns(relations)
        scenes.append(SceneAnnotation(f"s{index}", 100, 100, objects, relations))
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
    rel = scene.relations
    rows = [*zip(rel.subjects, rel.predicates, rel.objects), (1, 0, 1)]
    # No self relation reaches the fit: the scene cannot be built.
    with pytest.raises(DataError, match="^image 's': object 1 relates to itself$"):
        SceneAnnotation("s", 100, 100, scene.objects, relation_columns(rows))


def test_fit_prior_rejects_negative_alpha():
    with pytest.raises(ValueError):
        fit_frequency_prior(two_class_dataset(), alpha=-0.1)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_prior_rejects_non_finite_alpha(alpha):
    # save_prior would write NaN or Infinity, which load_prior rejects.
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        fit_frequency_prior(two_class_dataset(), alpha=alpha)
    counts = np.zeros((2, 2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        FrequencyPrior(counts, alpha, "h")


def test_prior_rejects_alpha_that_overflows_a_row():
    # Summed in float64: an int64 sum of counts near its maximum would wrap.
    counts = np.full((2, 2, 3), np.iinfo(np.int64).max, dtype=np.int64)
    assert FrequencyPrior(counts, 1e306, "h").alpha == 1e306
    with pytest.raises(ValueError, match="a prior row total overflows with alpha 1e[+]308"):
        FrequencyPrior(counts, 1e308, "h")
    with pytest.raises(ValueError, match="overflows"):
        fit_frequency_prior(two_class_dataset(), alpha=1e308)


def test_fit_prior_on_synthetic_rules():
    registry = canonical_registry()
    dataset = generate(SynthConfig(n_images=60, seed=5))
    prior = fit_frequency_prior(dataset, alpha=1.0)
    mb = registry.object_index("motorboat")
    water = registry.object_index("water")
    sail = registry.relation_index("sail on")
    predicate_part = oracles.reference_prior_row(prior, mb, water)[: registry.num_relations]
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
            relation_columns([(0, predicate, 1), (1, predicate, 0)]),
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
        block = _pair_geometry(scene, np.array([0, 1]), np.array([1, 0]))
        features = np.hstack([block, np.ones((2, 3))])
        predicted = np.argmax(features @ scorer.weights, axis=1)
        for k, rel in enumerate((0, 1)):
            correct += predicted[k] == scene.relations.predicates[rel]
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
        "s", 50, 50, (ObjectInstance(0, 0, OrientedBox.axis_aligned(0, 0, 9, 9)),),
        NO_RELATIONS,
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
            relation_columns([(0, predicate, 1)]),
        )

    registry = CategoryRegistry(("thing",), ("p0", "p1"))
    return Dataset(registry, "train", (scene(0, 0), scene(1, 0), scene(2, 1)))


def test_train_linear_divergence_is_detected():
    with pytest.raises(TrainingDivergenceError):
        train_linear(divergent_dataset(), TrainConfig(seed=3, learning_rate=1e307, epochs=12))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(seed=1, learning_rate=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(seed=1, learning_rate=bad)
    assert TrainConfig(seed=1, learning_rate=1e307).learning_rate == 1e307
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
    return SceneAnnotation("s", 100, 100, (a, b), NO_RELATIONS)


def test_predict_triplets_skips_zero_predicate_mass():
    _, prior = one_relation_prior()
    scene = pair_scene()
    out = predict_triplets(scene, prior)
    # Pair (B, A) carries only no-relation mass and emits nothing.
    assert len(out) == 1
    assert list(out) == [RelationTriplet(10, 0, 20, 1.0)]


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
    assert len(predict_triplets(scene, prior, top_m=0)) == 0
    top = predict_triplets(scene, prior, top_m=1)
    # Pair (A, B) has relatedness 1.0 against 0.5 and survives the cut.
    assert [(p.subject, p.object) for p in top] == [(10, 20)]
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
    assert [(p.predicate, p.subject, p.object) for p in fused] == [
        (p.predicate, p.subject, p.object) for p in plain
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
    # The largest offset puts the field at the far corner of the largest
    # image a manifest may describe.
    offset = draw(st.sampled_from([0.0, 1e3, MAX_IMAGE_EXTENT - 100.0]))
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
    scene = SceneAnnotation("s", extent, extent, objects, NO_RELATIONS)
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
    key = lambda t: (t.subject, t.predicate, t.object)  # noqa: E731
    assert [key(t) for t in fast] == [key(t) for t in slow]
    for f, s in zip(fast, slow):
        assert abs(f.score - s.score) <= SCORE_TOL
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
    scene = SceneAnnotation("s", 400, 400, objects, NO_RELATIONS)
    linear = LinearScorer(
        rng.normal(size=(feature_count(2), 3)), registry.content_hash()
    )
    for scorer in (None, linear):
        fast = predict_triplets(scene, prior, scorer, top_m=100)
        slow = oracles.reference_predict_triplets(scene, prior, scorer, top_m=100)
        assert [(t.subject, t.object, t.predicate) for t in fast] == [
            (t.subject, t.object, t.predicate) for t in slow
        ]
        assert max(abs(f.score - s.score) for f, s in zip(fast, slow)) <= SCORE_TOL


def _with_class(prior, linear):
    """``prior`` and ``linear`` with one more class, which no object has: its
    counts are zero and its one-hot weight rows too, so every score is kept."""
    c = prior.num_objects
    counts = np.zeros((c + 1, c + 1, prior.counts.shape[2]), dtype=np.int64)
    counts[:c, :c] = prior.counts
    wider = FrequencyPrior(counts, prior.alpha, "h")
    if linear is None:
        return wider, None
    zero = np.zeros((1, linear.weights.shape[1]))
    geometry, subject, obj, bias = np.split(
        linear.weights, [GEOMETRY_FEATURES, GEOMETRY_FEATURES + c, GEOMETRY_FEATURES + 2 * c]
    )
    return wider, LinearScorer(np.concatenate([geometry, subject, zero, obj, zero, bias]), "h")


@settings(max_examples=200, deadline=None)
@given(scoring_cases(), st.data())
def test_predict_triplets_ignore_class_pairs_the_scene_lacks(case, data):
    scene, prior, linear, top_m, graph_constraint = case
    prior, linear = _with_class(prior, linear)
    c = prior.num_objects
    classes = [obj.category for obj in scene.objects]
    present = {(classes[i], classes[j]) for i, j in oracles.reference_pairs(len(classes))}
    absent = sorted({(s, o) for s in range(c) for o in range(c)} - present)
    s, o = data.draw(st.sampled_from(absent))
    counts = prior.counts.copy()
    width = NUM_PREDICATES + 1
    cell = st.lists(st.sampled_from([0, 1, 7, 2**62]), min_size=width, max_size=width)
    counts[s, o] = data.draw(cell)
    changed = FrequencyPrior(counts, prior.alpha, "h")
    expected = predict_triplets(scene, prior, linear, top_m, graph_constraint)
    assert predict_triplets(scene, changed, linear, top_m, graph_constraint) == expected
    if len(classes) >= 2:
        # Weights this large overflow every pair's logits to a NaN row.
        huge = LinearScorer(np.full((feature_count(c), width), 1e308), "h")
        named = SceneAnnotation("img 9", scene.width, scene.height, scene.objects, NO_RELATIONS)
        message = "^image 'img 9': a prior or fused row total is not finite and positive$"
        with pytest.raises(DataError, match=message):
            predict_triplets(named, changed, huge, top_m, graph_constraint)


def test_predict_triplets_on_a_large_two_class_scene():
    # The large-sgdet shape: 64 objects in 2 of 60 classes, 4,032 pairs over
    # 4 class pairs.  With alpha 0, two of them were never seen in training
    # (uniform rows) and many predicate cells are empty.
    rng = np.random.default_rng(17)
    num_classes, num_predicates = 60, 64
    shape = (num_classes, num_classes, num_predicates + 1)
    counts = rng.integers(0, 5, size=shape) * (rng.random(shape) < 0.3)
    a, b = 7, 41
    counts[a, b] = 0
    counts[b, b] = 0
    prior = FrequencyPrior(counts.astype(np.int64), 0.0, "h")
    objects = tuple(
        ObjectInstance(100 + k, (a, b)[k % 2], oracles.random_box(rng, 0.0, 6000.0, 50.0, 600.0))
        for k in range(64)
    )
    scene = SceneAnnotation("grid", 6000, 6000, objects, NO_RELATIONS)
    linear = LinearScorer(rng.normal(size=(feature_count(num_classes), num_predicates + 1)), "h")
    for top_m, graph_constraint in ((None, True), (100, False)):
        fast = predict_triplets(scene, prior, None, top_m, graph_constraint)
        slow = oracles.reference_predict_triplets(scene, prior, None, top_m, graph_constraint)
        assert fast == slow
        fast = predict_triplets(scene, prior, linear, top_m, graph_constraint)
        slow = oracles.reference_predict_triplets(scene, prior, linear, top_m, graph_constraint)
        assert len(fast) > 0
        assert (fast.subjects, fast.predicates, fast.objects) == (
            slow.subjects, slow.predicates, slow.objects
        )
        assert max(abs(f - s) for f, s in zip(fast.scores, slow.scores)) <= SCORE_TOL


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(1, 2 * scorer_module.PAIR_BLOCK), st.booleans())
def test_predict_triplets_computes_prior_rows_once(n, block, fused):
    registry, prior = two_relation_prior()
    rng = np.random.default_rng(n)
    objects = tuple(
        ObjectInstance(k, k % 2, oracles.random_box(rng, 0.0, 400.0, 2.0, 30.0)) for k in range(n)
    )
    scene = SceneAnnotation("s", 400, 400, objects, NO_RELATIONS)
    linear = LinearScorer(rng.normal(size=(feature_count(2), 3)), registry.content_hash())
    calls = []

    def spy(*args):
        calls.append(args)
        return _prior_rows(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scorer_module, "_prior_rows", spy)
        patch.setattr(scorer_module, "PAIR_BLOCK", block)
        predict_triplets(scene, prior, linear if fused else None)
    assert len(calls) == 1


def test_prior_without_a_predicate_or_class_is_rejected():
    # Under the graph constraint predict takes each pair's best predicate; a
    # table without a predicate cell left it numpy's bare argmax error.
    for shape in ((2, 2, 1), (2, 2, 0), (0, 0, 3), (2, 3, 3), (2, 2)):
        with pytest.raises(ValueError, match=rf"^bad counts shape {re.escape(str(shape))}$"):
            FrequencyPrior(np.zeros(shape, dtype=np.int64), 1.0, "h")
    assert FrequencyPrior(np.zeros((1, 1, 2), dtype=np.int64), 1.0, "h").num_relations == 1


def test_training_rows_match_pair_features():
    dataset = generate(SynthConfig(n_images=6, seed=31, max_objects=12))
    num_classes = dataset.registry.num_objects
    for scene in dataset.scenes:
        geometry, hot, labels = _scene_pair_rows(
            scene, num_classes, dataset.registry.num_relations, 64, 192,
            np.random.default_rng(0),
        )
        pairs = oracles.reference_pairs(len(scene.objects))
        chosen = sample_pairs(label_pairs(scene), 64, 192, np.random.default_rng(0))
        assert geometry.shape == (len(chosen), 15) and hot.shape == (len(chosen), 3)
        assert len(labels) == len(chosen)
        rows = densify(geometry, hot, feature_count(num_classes))
        for row, k in zip(rows, chosen):
            i, j = pairs[k]
            expected = oracles.reference_pair_features(
                scene.objects[i], scene.objects[j], scene, num_classes
            )
            assert np.allclose(row, expected, rtol=0.0, atol=1e-12)
            assert np.array_equal(row[15:], expected[15:])


def test_training_rows_of_a_scene_without_pairs():
    for n in (0, 1):
        box = OrientedBox.axis_aligned(0, 0, 9, 9)
        objects = tuple(ObjectInstance(k, 0, box) for k in range(n))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        geometry, hot, labels = _scene_pair_rows(
            SceneAnnotation("s", 100, 100, objects, NO_RELATIONS), 2, 3, 64, 192, rng
        )
        assert (geometry.shape, geometry.dtype) == ((0, 15), np.float64)
        assert (hot.shape, hot.dtype) == ((0, 3), np.intp)
        assert (labels.shape, labels.dtype) == ((0,), np.int64)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "synth, train",
    [
        (dict(n_images=12, seed=41), dict(seed=1, epochs=40)),
        (dict(n_images=6, seed=31, max_objects=12), dict(seed=7, epochs=40)),
        (dict(n_images=5, seed=43, max_objects=12), dict(seed=2, epochs=25, max_pos=3, max_neg=5)),
    ],
)
def test_train_linear_matches_dense_reference_trainer(synth, train):
    dataset = generate(SynthConfig(**synth))
    config = TrainConfig(**train)
    fast = train_linear(dataset, config)
    slow = oracles.reference_train_linear(dataset, config)
    assert fast.weights.shape == slow.weights.shape
    assert np.max(np.abs(fast.weights - slow.weights)) <= 1e-12
    assert len(fast.loss_history) == len(slow.loss_history) == config.epochs + 1
    assert np.max(np.abs(np.subtract(fast.loss_history, slow.loss_history))) <= 1e-12


def reference_descent(dataset, config):
    """Weights and loss history of ``train_linear``'s rows stepped through
    the per-call reference loss, which checks and sorts on every call."""
    num_classes, num_relations = dataset.registry.num_objects, dataset.registry.num_relations
    rng = np.random.default_rng(config.seed)
    rows = [
        _scene_pair_rows(scene, num_classes, num_relations, config.max_pos, config.max_neg, rng)
        for scene in dataset.scenes
    ]
    geometry, hot, labels = (np.concatenate(part) for part in zip(*rows))
    weights = np.zeros((feature_count(num_classes), num_relations + 1))
    history = []
    for _ in range(config.epochs):
        loss, grad = oracles.reference_linear_loss_and_grad(weights, geometry, labels, hot)
        history.append(loss)
        weights = weights - config.learning_rate * grad
    history.append(oracles.reference_linear_loss_and_grad(weights, geometry, labels, hot)[0])
    return weights, tuple(history)


@pytest.mark.parametrize(
    "dataset, config",
    [
        (lambda: generate(SynthConfig(n_images=12, seed=41)), TrainConfig(seed=1, epochs=40)),
        # One class: the subject and the object column each name one weight
        # row for every pair, as the bias does.
        (separable_dataset, TrainConfig(seed=3, epochs=40)),
    ],
    ids=["synth", "one-class"],
)
def test_train_linear_is_bit_identical_to_per_call_descent(dataset, config):
    dataset = dataset()
    fast = train_linear(dataset, config)
    weights, history = reference_descent(dataset, config)
    assert fast.weights.tobytes() == weights.tobytes()
    assert fast.loss_history == history


def test_training_labels_take_the_first_triplet():
    # Pair (0, 1) carries predicates 2 then 0, pair (2, 0) predicate 1, and
    # pair (1, 0) predicate 0: every other pair is labeled R (unrelated).
    objects = tuple(
        ObjectInstance(10 + k, k % 2, OrientedBox.axis_aligned(20 * k, 0, 20 * k + 9, 9))
        for k in range(4)
    )
    relations = relation_columns(
        (10 + s, p, 10 + o) for s, p, o in ((0, 2, 1), (2, 1, 0), (0, 0, 1), (1, 0, 0))
    )
    scene = SceneAnnotation("s", 100, 100, objects, relations)
    _, _, labels = _scene_pair_rows(scene, 2, 3, 64, 192, np.random.default_rng(0))
    expected = {(0, 1): 2, (2, 0): 1, (1, 0): 0}
    pairs = oracles.reference_pairs(4)
    assert len(labels) == len(pairs)
    assert labels.tolist() == [expected.get(pair, 3) for pair in pairs]
    with pytest.raises(DataError, match="^image 's': object 11 relates to itself$"):
        SceneAnnotation("s", 100, 100, objects, relation_columns([(11, 0, 11)]))


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


# The exact text of each located check; a type error is reported before a
# range error.
@pytest.mark.parametrize(
    "entry, message",
    [
        (7, ": expected [subject, object, predicate, count]"),
        ({"a": 1}, ": expected [subject, object, predicate, count]"),
        ([0, 1, 0], ": expected [subject, object, predicate, count]"),
        ([0, 1, 0, 1, 1], ": expected [subject, object, predicate, count]"),
        ([999, 0, 0, 1], "[0]: index 999 outside 0..1"),
        ([-1, 0, 0, 1], "[0]: index -1 outside 0..1"),
        ([0, 2, 0, 1], "[1]: index 2 outside 0..1"),
        ([0, 1, 2, 1], "[2]: index 2 outside 0..1"),
        ([0, 0, 0, -5], "[3]: count -5 outside 0..9223372036854775807"),
        ([0, 1, 0, 2**63],
         "[3]: count 9223372036854775808 outside 0..9223372036854775807"),
        (["0", 1, 0, 1], "[0]: expected integer, got '0'"),
        ([0, True, 0, 1], "[1]: expected integer, got True"),
        ([0, 1, None, 1], "[2]: expected integer, got None"),
        ([0, 1, 0, 1.5], "[3]: expected integer, got 1.5"),
        ([0, 1, 0, False], "[3]: expected integer, got False"),
        ([999, 0, 0, 1.5], "[3]: expected integer, got 1.5"),
    ],
)
@pytest.mark.parametrize("first", [True, False])
def test_load_prior_locates_each_bad_entry(entry, message, first):
    registry, doc = prior_doc()
    k = 0 if first else len(doc["counts"])
    doc["counts"].insert(k, entry)
    with pytest.raises(ManifestError, match=f"^{re.escape(f'$.counts[{k}]{message}')}$"):
        load_prior(json.dumps(doc), registry)


def test_load_prior_keeps_the_last_entry_for_a_cell():
    registry, doc = prior_doc()
    doc["counts"].append([0, 1, 0, 2])
    assert load_prior(json.dumps(doc), registry).counts[0, 1, 0] == 2


def count_table(shape, fill=0, cells=()):
    counts = np.full(shape, fill, dtype=np.int64)
    for cell in cells:
        counts[cell] = 1
    return counts


@st.composite
def count_tables(draw):
    """Count tables of 1-4 classes and 1-4 predicates, mixing zero, small,
    negative and maximal counts."""
    n = draw(st.integers(1, 4))
    width = draw(st.integers(2, 5))
    top = scorer_module._MAX_COUNT
    cell = st.sampled_from([0, 0, 0, -3, 1, 7, top]) | st.integers(0, top)
    values = draw(st.lists(cell, min_size=n * n * width, max_size=n * n * width))
    return np.array(values, dtype=np.int64).reshape(n, n, width)


@settings(max_examples=60, deadline=None)
@given(count_tables())
@example(count_table((1, 1, 2)))
@example(count_table((4, 4, 5)))
@example(count_table((3, 3, 4), cells=[(2, 0, 3)]))
@example(count_table((2, 2, 3), fill=scorer_module._MAX_COUNT))
def test_save_prior_matches_the_whole_table_scan(counts):
    n, _, width = counts.shape
    registry = CategoryRegistry(
        tuple(f"c{i}" for i in range(n)), tuple(f"r{i}" for i in range(width - 1))
    )
    prior = FrequencyPrior(counts, 0.5, registry.content_hash())
    text = save_prior(prior)
    assert text == oracles.reference_save_prior(prior)
    expected = np.where(counts > 0, counts, 0).astype(np.int64)
    assert np.array_equal(load_prior(text, registry).counts, expected)


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_load_scorer_rejects_non_finite_loss_history(value):
    # Loaded, it would be written back by save_scorer as NaN or Infinity,
    # which is not JSON.
    registry, _ = one_relation_prior()
    scorer = LinearScorer(np.zeros((feature_count(2), 2)), registry.content_hash(), (1.0, 0.5))
    doc = json.loads(save_scorer(scorer))
    doc["loss_history"][1] = value
    with pytest.raises(ManifestError, match=rf"^\$\.loss_history\[1\]: non-finite loss {value!r}$"):
        load_scorer(json.dumps(doc), registry)


@pytest.mark.parametrize("value", [True, 1.0, "1", 2, None])
@pytest.mark.parametrize(
    "kind, key", [("prior", "version"), ("scorer", "version"), ("scorer", "feature_version")]
)
def test_load_requires_integer_version_one(kind, key, value):
    registry, prior = one_relation_prior()
    if kind == "prior":
        doc, load = json.loads(save_prior(prior)), load_prior
    else:
        scorer = LinearScorer(np.zeros((feature_count(2), 2)), registry.content_hash())
        doc, load = json.loads(save_scorer(scorer)), load_scorer
    doc[key] = value
    label = "feature" if key == "feature_version" else "model"
    with pytest.raises(ManifestError, match=re.escape(f"unsupported {label} version {value!r}")):
        load(json.dumps(doc), registry)
