"""Synthetic scene generation: determinism, rule entailment, class skew."""

import math

import numpy as np
import pytest

from obsg import (
    CategoryRegistry,
    OrientedBox,
    Rule,
    SynthConfig,
    default_rules,
    generate,
    rotated_iou,
    serialize_dataset,
    validate,
)
from obsg.synth import class_weights


def tiny_registry():
    return CategoryRegistry(("A", "B"), ("touch",))


def test_unconditional_rule_entails_every_class_pair():
    config = SynthConfig(
        n_images=1,
        seed=8,
        registry=tiny_registry(),
        rules=(Rule(0, 1, 0),),
        min_objects=5,
        max_objects=5,
    )
    scene = generate(config).scenes[0]
    expected = {
        (a.id, 0, b.id)
        for a in scene.objects
        for b in scene.objects
        if a.id != b.id and a.category == 0 and b.category == 1
    }
    assert {(r.subject, r.predicate, r.object) for r in scene.relations} == expected


def test_generate_deterministic_per_seed():
    config = SynthConfig(n_images=20, seed=99)
    first = serialize_dataset(generate(config))
    second = serialize_dataset(generate(config))
    assert first == second
    other = serialize_dataset(generate(SynthConfig(n_images=20, seed=100)))
    assert first != other


def test_generated_datasets_validate_clean():
    configs = [
        SynthConfig(n_images=25, seed=1),
        SynthConfig(n_images=10, seed=2, image_size=600, max_side=64.0, split="val"),
        SynthConfig(
            n_images=15,
            seed=3,
            registry=tiny_registry(),
            rules=(Rule(0, 1, 0, min_iou=0.0),),
            max_objects=6,
        ),
    ]
    for config in configs:
        assert validate(generate(config)) == []


def vertex_center(box):
    return (
        sum(p[0] for p in box.vertices) / 4.0,
        sum(p[1] for p in box.vertices) / 4.0,
    )


def test_relations_match_independent_rederivation():
    config = SynthConfig(n_images=40, seed=12)
    dataset = generate(config)
    by_pair = {(r.subject, r.object): r for r in config.rules}
    total = 0
    for scene in dataset.scenes:
        rederived = set()
        for a in scene.objects:
            for b in scene.objects:
                if a.id == b.id:
                    continue
                rule = by_pair.get((a.category, b.category))
                if rule is None:
                    continue
                if rule.min_iou is not None and not rotated_iou(a.box, b.box) > rule.min_iou:
                    continue
                (ax, ay), (bx, by) = vertex_center(a.box), vertex_center(b.box)
                if (
                    rule.max_center_distance is not None
                    and not math.hypot(ax - bx, ay - by) < rule.max_center_distance
                ):
                    continue
                rederived.add((a.id, rule.predicate, b.id))
        emitted = {(r.subject, r.predicate, r.object) for r in scene.relations}
        assert emitted == rederived
        total += len(emitted)
    assert total > 0


def test_scene_naming_and_object_ids():
    dataset = generate(SynthConfig(n_images=3, seed=4))
    assert [s.image_id for s in dataset.scenes] == [
        "synth-000000",
        "synth-000001",
        "synth-000002",
    ]
    for scene in dataset.scenes:
        assert [o.id for o in scene.objects] == list(range(len(scene.objects)))
        assert 2 <= len(scene.objects) <= 8


def test_boxes_stay_inside_the_image():
    dataset = generate(SynthConfig(n_images=50, seed=14))
    for scene in dataset.scenes:
        for obj in scene.objects:
            for x, y in obj.box.vertices:
                assert -1e-9 <= x <= scene.width + 1e-9
                assert -1e-9 <= y <= scene.height + 1e-9
            assert not obj.truncated


def test_empty_generation():
    dataset = generate(SynthConfig(n_images=0, seed=5))
    assert dataset.scenes == ()


def test_tail_skew_concentrates_head_class():
    dataset = generate(SynthConfig(n_images=1500, seed=2025))
    counts = np.zeros(60, dtype=np.int64)
    for scene in dataset.scenes:
        for obj in scene.objects:
            counts[obj.category] += 1
    head = counts.max()
    median = float(np.median(counts))
    assert counts.argmax() == 0
    assert head >= 10 * max(median, 1.0)


def test_class_weights_shape():
    weights = class_weights(60, 1.5)
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(weights) < 0)
    flat = class_weights(10, 0.0)
    assert np.allclose(flat, 0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_images=-1, seed=1)
    with pytest.raises(ValueError):
        SynthConfig(n_images=1, seed=1, min_objects=5, max_objects=4)
    with pytest.raises(ValueError):
        SynthConfig(n_images=1, seed=1, min_objects=0)
    with pytest.raises(ValueError):
        SynthConfig(n_images=1, seed=1, min_side=10.0, max_side=9.0)
    with pytest.raises(ValueError):
        SynthConfig(n_images=1, seed=1, image_size=100, max_side=96.0)
    with pytest.raises(ValueError):
        SynthConfig(n_images=1, seed=1, tail_skew=-0.5)
    with pytest.raises(ValueError):
        SynthConfig(n_images=1, seed=1, split="holdout")


def test_rule_table_validation():
    registry = tiny_registry()
    with pytest.raises(ValueError):
        SynthConfig(
            n_images=1,
            seed=1,
            registry=registry,
            rules=(Rule(0, 1, 0), Rule(0, 1, 0)),
        )
    with pytest.raises(ValueError):
        SynthConfig(n_images=1, seed=1, registry=registry, rules=(Rule(0, 2, 0),))
    with pytest.raises(ValueError):
        SynthConfig(n_images=1, seed=1, registry=registry, rules=(Rule(0, 1, 7),))


def test_rule_thresholds_must_be_finite_numbers():
    for bad in ("0.5", float("nan"), float("inf"), True, [0.5]):
        with pytest.raises(ValueError, match="min_iou"):
            Rule(0, 1, 0, min_iou=bad)
        with pytest.raises(ValueError, match="max_center_distance"):
            Rule(0, 1, 0, max_center_distance=bad)
    for good in (0, 0.25, 10**400, np.float64(3.0)):
        assert Rule(0, 1, 0, min_iou=good, max_center_distance=good).min_iou is good


def test_rule_condition_bounds_are_strict():
    box = OrientedBox.axis_aligned(0, 0, 10, 10)
    far = box.translate(30.0, 40.0)  # IoU 0, centers 50 px apart
    assert Rule(0, 1, 0).condition(box, far)
    assert not Rule(0, 1, 0, min_iou=0.0).condition(box, far)
    assert Rule(0, 1, 0, min_iou=0.0).condition(box, box.translate(5.0, 0.0))
    assert not Rule(0, 1, 0, max_center_distance=50.0).condition(box, far)
    assert Rule(0, 1, 0, max_center_distance=50.5).condition(box, far)


def test_default_rules_reference_canonical_names():
    rules = default_rules()
    assert len(rules) == 6
    pairs = {(r.subject, r.object) for r in rules}
    assert len(pairs) == 6
