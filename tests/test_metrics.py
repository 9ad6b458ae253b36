"""Detection and scene-graph evaluation metrics."""

import json
import math

import numpy as np
import pytest

import oracles
from obsg import (
    CategoryRegistry,
    DataError,
    Dataset,
    Detection,
    MatchConfig,
    ObjectInstance,
    OrientedBox,
    PredictedTriplet,
    RegistryMismatchError,
    RelationTriplet,
    SceneAnnotation,
    SynthConfig,
    TripletTarget,
    average_precision,
    evaluate_detections,
    evaluate_scene_graphs,
    generate,
    match_detections,
    match_triplets,
    mean_ap,
    mean_recall_at_k,
    precision,
    recall,
    recall_at_k,
)
from obsg.metrics import report_to_csv, report_to_json


def test_precision_recall_examples():
    assert precision(3, 1) == 0.75
    assert recall(1, 1) == 0.5
    assert precision(0, 5) == 0.0
    assert recall(4, 0) == 1.0


def test_precision_recall_validation():
    with pytest.raises(ValueError):
        precision(0, 0)
    with pytest.raises(ValueError):
        recall(0, 0)
    with pytest.raises(ValueError):
        precision(-1, 2)
    with pytest.raises(ValueError):
        recall(1, -1)


def test_match_detections_score_order_consumes_gt():
    gt = OrientedBox.axis_aligned(0, 0, 10, 10)
    good = Detection(gt, 0, 0.6)
    also_good = Detection(OrientedBox.axis_aligned(1, 0, 11, 10), 0, 0.9)
    # The higher-scored detection takes the only ground truth.
    assert match_detections([good, also_good], [gt]) == [False, True]
    assert match_detections([good], [gt]) == [True]
    assert match_detections([Detection(gt, 0, 1.0)], []) == [False]


def test_match_detections_threshold_validation():
    with pytest.raises(ValueError):
        match_detections([], [], iou_threshold=0.0)
    with pytest.raises(ValueError):
        match_detections([], [], iou_threshold=1.5)


def test_match_detections_matches_reference():
    rng = np.random.default_rng(50)
    for _ in range(100):
        truths = [
            oracles.random_box(rng, center_lo=10, center_hi=90, side_lo=4, side_hi=25)
            for _ in range(int(rng.integers(0, 6)))
        ]
        dets = []
        for _ in range(int(rng.integers(0, 9))):
            if truths and rng.uniform() < 0.6:
                base = truths[int(rng.integers(0, len(truths)))]
                box = base.translate(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
            else:
                box = oracles.random_box(
                    rng, center_lo=10, center_hi=90, side_lo=4, side_hi=25
                )
            dets.append(Detection(box, 0, float(rng.uniform())))
        expected = oracles.reference_match_detections(dets, truths, 0.5)
        assert match_detections(dets, truths, 0.5) == expected


def test_average_precision_frozen_values():
    assert average_precision([True], 1) == 1.0
    assert average_precision([False, True], 1) == 0.5
    assert average_precision([], 3) == 0.0
    assert average_precision([False, False], 2) == 0.0
    with pytest.raises(ValueError):
        average_precision([True], 0)


def test_average_precision_matches_reference():
    rng = np.random.default_rng(51)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        flags = [bool(rng.uniform() < 0.5) for _ in range(n)]
        n_gt = sum(flags) + int(rng.integers(0, 4)) + (0 if sum(flags) else 1)
        got = average_precision(flags, n_gt)
        want = oracles.reference_average_precision(flags, n_gt)
        assert abs(got - want) <= 1e-12


def test_average_precision_appended_fp_never_helps():
    rng = np.random.default_rng(52)
    for _ in range(200):
        n = int(rng.integers(1, 15))
        flags = [bool(rng.uniform() < 0.5) for _ in range(n)]
        n_gt = max(1, sum(flags))
        assert average_precision(flags + [False], n_gt) <= average_precision(
            flags, n_gt
        ) + 1e-15


def test_mean_ap():
    assert mean_ap([1.0, 0.5]) == 0.75
    assert mean_ap([0.3]) == 0.3
    with pytest.raises(ValueError):
        mean_ap([])


def test_match_config_validation():
    MatchConfig("sgdet", 0.5, (20, 50))
    with pytest.raises(ValueError):
        MatchConfig(subtask="detcls")
    with pytest.raises(ValueError):
        MatchConfig(iou_threshold=0.0)
    with pytest.raises(ValueError):
        MatchConfig(k_values=())
    with pytest.raises(ValueError):
        MatchConfig(k_values=(50, 20))
    with pytest.raises(ValueError):
        MatchConfig(k_values=(20, 20))
    with pytest.raises(ValueError):
        MatchConfig(k_values=(0, 20))


def boxed_triplet(subject_box, object_box, predicate, score, s_cat=0, o_cat=0, **ids):
    return PredictedTriplet(
        subject=Detection(subject_box, s_cat, 1.0),
        predicate=predicate,
        object=Detection(object_box, o_cat, 1.0),
        score=score,
        **ids,
    )


def test_match_triplets_predcls_single_hit():
    a = OrientedBox.axis_aligned(0, 0, 10, 10)
    b = OrientedBox.axis_aligned(20, 0, 30, 10)
    target = TripletTarget(0, 1, 2, 0, 0, a, b)
    pred = boxed_triplet(a, b, 2, 0.9, subject_id=0, object_id=1)
    result = match_triplets([pred], [target], MatchConfig("predcls"))
    assert result.ranking == (0,)
    assert result.matched == (0,)
    assert result.flags() == [True]


def test_match_triplets_sgdet_needs_both_endpoints_over_threshold():
    a = OrientedBox.axis_aligned(0, 0, 10, 10)
    b = OrientedBox.axis_aligned(20, 0, 30, 10)
    target = TripletTarget(0, 1, 0, 0, 0, a, b)
    # Subject box IoU 60/140 < 0.5: no match even though the object is exact.
    off = OrientedBox.axis_aligned(4, 0, 14, 10)
    miss = boxed_triplet(off, b, 0, 0.9)
    hit = boxed_triplet(a, b, 0, 0.8)
    config = MatchConfig("sgdet")
    assert match_triplets([miss], [target], config).matched == (-1,)
    assert match_triplets([hit], [target], config).matched == (0,)


def test_match_triplets_identity_requires_ids():
    a = OrientedBox.axis_aligned(0, 0, 10, 10)
    b = OrientedBox.axis_aligned(20, 0, 30, 10)
    target = TripletTarget(0, 1, 0, 0, 0, a, b)
    pred = boxed_triplet(a, b, 0, 0.9)
    with pytest.raises(DataError):
        match_triplets([pred], [target], MatchConfig("predcls"))


def test_match_triplets_graph_constraint_keeps_top_predicate():
    a = OrientedBox.axis_aligned(0, 0, 10, 10)
    b = OrientedBox.axis_aligned(20, 0, 30, 10)
    target = TripletTarget(0, 1, 1, 0, 0, a, b)
    strong = boxed_triplet(a, b, 0, 0.9, subject_id=0, object_id=1)
    weak_correct = boxed_triplet(a, b, 1, 0.5, subject_id=0, object_id=1)
    config = MatchConfig("predcls")
    result = match_triplets([strong, weak_correct], [target], config)
    assert result.ranking == (0,)
    assert result.matched == (-1,)
    relaxed = MatchConfig("predcls", graph_constraint=False)
    result = match_triplets([strong, weak_correct], [target], relaxed)
    assert result.ranking == (0, 1)
    assert result.matched == (-1, 0)


def random_triplet_instance(rng, identity):
    n_obj = int(rng.integers(2, 6))
    boxes = [
        oracles.random_box(rng, center_lo=10, center_hi=90, side_lo=5, side_hi=30)
        for _ in range(n_obj)
    ]
    cats = [int(rng.integers(0, 3)) for _ in range(n_obj)]
    pairs = [(i, j) for i in range(n_obj) for j in range(n_obj) if i != j]
    order = rng.permutation(len(pairs))
    targets = []
    for idx in order[: int(rng.integers(1, 7))]:
        i, j = pairs[int(idx)]
        targets.append(
            TripletTarget(i, j, int(rng.integers(0, 4)), cats[i], cats[j], boxes[i], boxes[j])
        )
    predictions = []
    for _ in range(int(rng.integers(0, 11))):
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        if identity:
            s_box, o_box = boxes[i], boxes[j]
            ids = {"subject_id": i, "object_id": j}
        else:
            s_box = boxes[i].translate(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            o_box = boxes[j].translate(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            ids = {}
        predictions.append(
            boxed_triplet(
                s_box,
                o_box,
                int(rng.integers(0, 4)),
                float(rng.uniform()),
                s_cat=cats[i],
                o_cat=cats[j],
                **ids,
            )
        )
    return predictions, targets


def test_match_triplets_matches_reference():
    rng = np.random.default_rng(53)
    for trial in range(120):
        identity = trial % 2 == 0
        constraint = (trial // 2) % 2 == 0
        config = MatchConfig(
            "predcls" if identity else "sgdet", graph_constraint=constraint
        )
        predictions, targets = random_triplet_instance(rng, identity)
        result = match_triplets(predictions, targets, config)
        ref_ranking, ref_matched = oracles.reference_match_triplets(
            predictions, targets, config
        )
        assert list(result.ranking) == list(ref_ranking)
        assert list(result.matched) == list(ref_matched)


def test_recall_at_k_basics():
    flags = [True, False, True, True]
    assert recall_at_k(flags, 4, 1) == 0.25
    assert recall_at_k(flags, 4, 3) == 0.5
    assert recall_at_k(flags, 4, 100) == 0.75
    assert recall_at_k(flags, 4, 100) == oracles.reference_recall_at_k(flags, 4, 100)
    with pytest.raises(ValueError):
        recall_at_k(flags, 0, 5)
    with pytest.raises(ValueError):
        recall_at_k(flags, 4, 0)


def test_recall_at_k_monotone_in_k():
    rng = np.random.default_rng(54)
    for _ in range(200):
        flags = [bool(rng.uniform() < 0.4) for _ in range(int(rng.integers(0, 30)))]
        n_gt = max(1, sum(flags) + int(rng.integers(0, 3)))
        values = [recall_at_k(flags, n_gt, k) for k in (20, 50, 100, 500)]
        assert values == sorted(values)


def test_mean_recall_at_k():
    assert mean_recall_at_k([1.0, 0.5]) == 0.75
    with pytest.raises(ValueError):
        mean_recall_at_k([])


def grid_box(idx):
    x = 12.0 * (idx % 20)
    y = 12.0 * (idx // 20)
    return OrientedBox.axis_aligned(x + 1, y + 1, x + 11, y + 11)


def long_tail_fixture():
    registry = CategoryRegistry(("thing",), ("common", "rare"))
    objects = tuple(ObjectInstance(i, 0, grid_box(i)) for i in range(202))
    relations = tuple(RelationTriplet(2 * i, 0, 2 * i + 1) for i in range(100))
    relations += (RelationTriplet(200, 1, 201),)
    scene = SceneAnnotation("tail", 300, 200, objects, relations)
    gt = Dataset(registry, "val", (scene,))
    scored = tuple(ObjectInstance(o.id, 0, o.box, score=1.0) for o in objects)
    pred_rels = tuple(
        RelationTriplet(2 * i, 0, 2 * i + 1, 1.0) for i in range(100)
    )
    preds = Dataset(
        registry, "val", (SceneAnnotation("tail", 300, 200, scored, pred_rels),)
    )
    return gt, preds


def test_long_tail_recall_vs_mean_recall():
    gt, preds = long_tail_fixture()
    report = evaluate_scene_graphs(gt, preds, MatchConfig("predcls"))
    assert report.recall_at_k[500] == 100 / 101
    assert report.recall_at_k[20] == 20 / 101
    assert report.per_predicate_recall_at_k["common"][500] == 1.0
    assert report.per_predicate_recall_at_k["rare"][500] == 0.0
    assert report.mean_recall_at_k[500] == 0.5
    assert report.counts["common"] == {"tp": 100, "fp": 0, "fn": 0}
    assert report.counts["rare"] == {"tp": 0, "fp": 0, "fn": 1}


def det_fixture():
    registry = CategoryRegistry(("a", "b"), ("r",))
    box = OrientedBox.axis_aligned(10, 10, 30, 30)
    scene = SceneAnnotation("i0", 100, 100, (ObjectInstance(0, 0, box),), ())
    gt = Dataset(registry, "val", (scene,))
    preds = Dataset(
        registry,
        "val",
        (
            SceneAnnotation(
                "i0",
                100,
                100,
                (
                    ObjectInstance(0, 0, box, score=0.9),
                    ObjectInstance(
                        1, 1, OrientedBox.axis_aligned(50, 50, 70, 70), score=0.8
                    ),
                ),
                (),
            ),
        ),
    )
    return gt, preds


def test_evaluate_detections_excludes_empty_classes_by_default():
    gt, preds = det_fixture()
    report = evaluate_detections(gt, preds)
    assert set(report.per_class_ap) == {"a"}
    assert report.mean_ap == 1.0
    assert report.counts["a"] == {"tp": 1, "fp": 0, "fn": 0}
    assert report.counts["b"] == {"tp": 0, "fp": 1, "fn": 0}


def test_evaluate_detections_include_empty_pins_zero():
    gt, preds = det_fixture()
    report = evaluate_detections(gt, preds, include_empty_classes=True)
    assert report.per_class_ap == {"a": 1.0, "b": 0.0}
    assert report.mean_ap == 0.5


def test_evaluate_detections_registry_mismatch():
    gt, preds = det_fixture()
    renamed = Dataset(CategoryRegistry(("x", "b"), ("r",)), "val", preds.scenes)
    with pytest.raises(RegistryMismatchError):
        evaluate_detections(gt, renamed)
    # Only names must agree: a prediction file without a relation_kinds key
    # parses to canonical kinds, whatever kinds the ground truth declares.
    retagged = Dataset(
        CategoryRegistry(("a", "b"), ("r",), ("spatial",)), "val", preds.scenes
    )
    assert evaluate_detections(gt, retagged).mean_ap == 1.0


def test_evaluate_detections_duplicate_image_id():
    gt, preds = det_fixture()
    doubled = Dataset(preds.registry, "val", (preds.scenes[0], preds.scenes[0]))
    with pytest.raises(DataError):
        evaluate_detections(gt, doubled)


def test_evaluate_detections_requires_ground_truth():
    registry = CategoryRegistry(("a",), ("r",))
    gt = Dataset(registry, "val", (SceneAnnotation("i0", 10, 10, (), ()),))
    preds = Dataset(registry, "val", ())
    with pytest.raises(DataError):
        evaluate_detections(gt, preds)


def predictions_from_gt(dataset):
    scenes = []
    for scene in dataset.scenes:
        objects = tuple(
            ObjectInstance(o.id, o.category, o.box, score=1.0) for o in scene.objects
        )
        relations = tuple(
            RelationTriplet(r.subject, r.predicate, r.object, 1.0)
            for r in scene.relations
        )
        scenes.append(
            SceneAnnotation(scene.image_id, scene.width, scene.height, objects, relations)
        )
    return Dataset(dataset.registry, dataset.split, tuple(scenes))


def synth_with_relations(seed, n_images=30):
    dataset = generate(SynthConfig(n_images=n_images, seed=seed))
    assert any(s.relations for s in dataset.scenes)
    return dataset


def test_ground_truth_predictions_reach_full_recall():
    gt = synth_with_relations(77)
    report = evaluate_scene_graphs(gt, predictions_from_gt(gt), MatchConfig("predcls"))
    for k, value in report.recall_at_k.items():
        if k >= 100:
            assert value == 1.0
    assert report.mean_recall_at_k[500] == 1.0
    for rows in report.per_predicate_recall_at_k.values():
        assert rows[500] == 1.0


def test_ground_truth_detections_reach_full_map():
    gt = synth_with_relations(78)
    report = evaluate_detections(gt, predictions_from_gt(gt))
    assert report.mean_ap == 1.0
    assert all(ap == 1.0 for ap in report.per_class_ap.values())


def test_evaluation_rejects_unscored_predictions():
    gt = synth_with_relations(79, n_images=5)
    with pytest.raises(DataError, match=repr(gt.scenes[0].image_id)):
        evaluate_detections(gt, gt)
    with pytest.raises(DataError, match=repr(gt.scenes[0].image_id)):
        evaluate_scene_graphs(gt, gt)
    # Scored objects but an unscored relation.
    scored = predictions_from_gt(gt)
    scene = next(s for s in scored.scenes if s.relations)
    unscored = tuple(
        RelationTriplet(r.subject, r.predicate, r.object) for r in scene.relations
    )
    scenes = tuple(
        SceneAnnotation(s.image_id, s.width, s.height, s.objects, unscored)
        if s is scene
        else s
        for s in scored.scenes
    )
    with pytest.raises(DataError, match=repr(scene.image_id)):
        evaluate_scene_graphs(gt, Dataset(gt.registry, gt.split, scenes))


def test_evaluate_scene_graphs_requires_triplets():
    registry = CategoryRegistry(("a",), ("r",))
    box = OrientedBox.axis_aligned(0, 0, 10, 10)
    scene = SceneAnnotation("i0", 20, 20, (ObjectInstance(0, 0, box),), ())
    gt = Dataset(registry, "val", (scene,))
    with pytest.raises(DataError):
        evaluate_scene_graphs(gt, predictions_from_gt(gt))


def test_report_json_layout():
    gt, preds = long_tail_fixture()
    doc = json.loads(report_to_json(evaluate_scene_graphs(gt, preds)))
    assert doc["kind"] == "scene_graph"
    assert doc["recall_at_k"]["500"] == 100 / 101
    assert doc["mean_recall_at_k"]["500"] == 0.5
    det_gt, det_preds = det_fixture()
    doc = json.loads(report_to_json(evaluate_detections(det_gt, det_preds)))
    assert doc["kind"] == "detection"
    assert doc["map"] == 1.0
    assert doc["per_class_ap"] == {"a": 1.0}


def test_report_csv_layout():
    det_gt, det_preds = det_fixture()
    text = report_to_csv(evaluate_detections(det_gt, det_preds))
    lines = text.splitlines()
    assert lines[0] == "category,ap"
    assert lines[-1] == "mean,1"
    gt, preds = long_tail_fixture()
    text = report_to_csv(evaluate_scene_graphs(gt, preds))
    lines = text.splitlines()
    assert lines[0] == "predicate,r@20,r@50,r@100,r@500"
    assert lines[1].startswith("common,")
    assert lines[-1].startswith("mean,")
    assert lines[-1].endswith("0.5")
