"""Detection and scene-graph evaluation metrics."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import relation_columns
from obsg import (
    CategoryRegistry,
    DataError,
    Dataset,
    Detection,
    MatchConfig,
    ObjectInstance,
    OrientedBox,
    RegistryMismatchError,
    SceneAnnotation,
    SynthConfig,
    Triplet,
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
    rotated_iou,
    scene_triplets,
)
from obsg.datamodel import NO_RELATIONS
from obsg.metrics import SUBTASKS, _take_best, report_to_csv, report_to_json


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


@pytest.mark.parametrize("score", [math.nan, math.inf, None])
def test_match_detections_rejects_non_finite_scores(score):
    t = OrientedBox.axis_aligned(0, 0, 10, 10)
    preds = [Detection(t, 0, score), Detection(t.translate(1, 0), 0, 0.9)]
    with pytest.raises(ValueError, match="non-finite detection score"):
        match_detections(preds, [t])


def test_take_best_picks_the_first_highest_value_at_the_threshold():
    candidates = [3, 5, 8, 9]
    assert _take_best(candidates, [0.5, 0.7, 0.7, 0.2], 0.5) == 5
    assert candidates == [3, 8, 9]
    # A value exactly at the threshold qualifies.
    assert _take_best(candidates, [0.5, 0.4, 0.1], 0.5) == 3
    assert candidates == [8, 9]
    assert _take_best(candidates, [0.49, -1.0], 0.5) == -1
    assert candidates == [8, 9]
    assert _take_best([], [], 0.5) == -1


def test_match_detections_threshold_validation():
    with pytest.raises(ValueError):
        match_detections([], [], iou_threshold=0.0)
    with pytest.raises(ValueError):
        match_detections([], [], iou_threshold=1.5)


def test_match_detections_matches_reference():
    # Every other case puts boxes on a row of 10 px cells, so that a
    # detection moved by half a cell has the same IoU with two truths.  In
    # every case some truths repeat an earlier truth, some detections equal
    # a truth and scores are eighths, so IoUs and scores tie exactly.
    rng = np.random.default_rng(50)
    exact = 0
    for case in range(300):
        grid = case % 2 == 1

        def new_box():
            if grid:
                theta = float(rng.choice([0.0, 0.0, 0.0, 0.5]))
                return OrientedBox.from_params(
                    20.0 + 10.0 * int(rng.integers(0, 4)), 30.0, 12.0, 12.0, theta
                )
            return oracles.random_box(rng, center_lo=10, center_hi=90, side_lo=4, side_hi=25)

        def moved(box):
            if grid:
                return box.translate(5.0 * float(rng.choice([-1, 1])), 0.0)
            return box.translate(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))

        truths = []
        for _ in range(int(rng.integers(0, 7))):
            if truths and rng.uniform() < 0.3:
                truths.append(truths[int(rng.integers(0, len(truths)))])
            else:
                truths.append(new_box())
        dets = []
        for _ in range(int(rng.integers(0, 9))):
            draw = rng.uniform()
            if truths and draw < 0.8:
                box = truths[int(rng.integers(0, len(truths)))]
                if draw < 0.4:
                    box = moved(box)
            else:
                box = new_box()
            dets.append(Detection(box, 0, int(rng.integers(0, 9)) / 8))
        for threshold in (0.3, 0.5, 1.0):
            expected = oracles.reference_match_detections(dets, truths, threshold)
            assert match_detections(dets, truths, threshold) == expected
        exact += sum(expected)
    # Some detections match at IoU exactly 1.
    assert exact > 0


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


def triplet(subject_box, object_box, predicate, score=None, s_cat=0, o_cat=0, ids=(0, 1)):
    subject = ObjectInstance(ids[0], s_cat, subject_box)
    object_ = ObjectInstance(ids[1], o_cat, object_box)
    return Triplet(subject, predicate, object_, score)


def test_match_triplets_predcls_single_hit():
    a = OrientedBox.axis_aligned(0, 0, 10, 10)
    b = OrientedBox.axis_aligned(20, 0, 30, 10)
    target = triplet(a, b, 2)
    pred = triplet(a, b, 2, 0.9)
    result = match_triplets([pred], [target], MatchConfig("predcls"))
    assert result.ranking == (0,)
    assert result.matched == (0,)


def test_match_triplets_sgdet_needs_both_endpoints_over_threshold():
    a = OrientedBox.axis_aligned(0, 0, 10, 10)
    b = OrientedBox.axis_aligned(20, 0, 30, 10)
    target = triplet(a, b, 0)
    # Subject box IoU 60/140 < 0.5: no match even though the object is exact.
    off = OrientedBox.axis_aligned(4, 0, 14, 10)
    miss = triplet(off, b, 0, 0.9, ids=(7, 8))
    hit = triplet(a, b, 0, 0.8, ids=(7, 8))
    config = MatchConfig("sgdet")
    assert match_triplets([miss], [target], config).matched == (-1,)
    assert match_triplets([hit], [target], config).matched == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, None])
def test_match_triplets_rejects_a_missing_or_non_finite_score(bad):
    a = OrientedBox.axis_aligned(0, 0, 10, 10)
    b = OrientedBox.axis_aligned(20, 0, 30, 10)
    # Listed first, an unchecked NaN would take the match from the 0.9 duplicate.
    preds = [triplet(a, b, 0, bad), triplet(a, b, 0, 0.9)]
    with pytest.raises(ValueError, match=rf"^non-finite detection score: {bad!r}$"):
        match_triplets(preds, [triplet(a, b, 0)], MatchConfig("predcls"))


def test_match_triplets_graph_constraint_keeps_top_predicate():
    a = OrientedBox.axis_aligned(0, 0, 10, 10)
    b = OrientedBox.axis_aligned(20, 0, 30, 10)
    target = triplet(a, b, 1)
    strong = triplet(a, b, 0, 0.9)
    weak_correct = triplet(a, b, 1, 0.5)
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
    objects = [ObjectInstance(k, cats[k], boxes[k]) for k in range(n_obj)]
    pairs = [(i, j) for i in range(n_obj) for j in range(n_obj) if i != j]
    order = rng.permutation(len(pairs))
    targets = []
    for idx in order[: int(rng.integers(1, 7))]:
        i, j = pairs[int(idx)]
        targets.append(Triplet(objects[i], int(rng.integers(0, 4)), objects[j]))
    predictions = []
    for k in range(int(rng.integers(0, 11))):
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        if identity:
            subject, object_ = objects[i], objects[j]
        else:
            # Every jittered prediction is a pair of detections of its own.
            s_box = boxes[i].translate(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            o_box = boxes[j].translate(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            subject = ObjectInstance(n_obj + 2 * k, cats[i], s_box)
            object_ = ObjectInstance(n_obj + 2 * k + 1, cats[j], o_box)
        predictions.append(
            Triplet(subject, int(rng.integers(0, 4)), object_, float(rng.uniform()))
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


@st.composite
def matching_cases(draw):
    """Instances beyond criterion 03's, up to 30 objects, 60 targets and 120
    predictions, for every subtask with and without the graph constraint.

    About a quarter of the targets repeat an earlier one.  sgcls and sgdet
    predictions relabel about 30% of the objects.  Boxes sit on a 6 x 6 grid
    of 10 px cells with two sizes and two angles, and sgdet jitter is whole
    pixels, so boxes often coincide and IoU qualities tie exactly.
    """
    config = MatchConfig(draw(st.sampled_from(SUBTASKS)), graph_constraint=draw(st.booleans()))
    n_obj = draw(st.integers(2, 30))
    n_targets = draw(st.integers(1, 60))
    n_preds = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def jitter(box):
        return box.translate(float(rng.integers(-3, 4)), float(rng.integers(-3, 4)))

    objects = [
        ObjectInstance(
            k,
            int(rng.integers(0, 2)),
            OrientedBox.from_params(
                20.0 + 10.0 * int(rng.integers(0, 6)),
                20.0 + 10.0 * int(rng.integers(0, 6)),
                float(rng.choice([12.0, 16.0])),
                12.0,
                float(rng.choice([0.0, 0.5])),
            ),
        )
        for k in range(n_obj)
    ]
    targets = []
    for _ in range(n_targets):
        if targets and rng.uniform() < 0.25:
            targets.append(targets[int(rng.integers(0, len(targets)))])
        else:
            i, j = rng.choice(n_obj, size=2, replace=False).tolist()
            targets.append(Triplet(objects[i], int(rng.integers(0, 3)), objects[j]))
    # detected[k] stands for objects[k]; sgdet adds stray detections.
    detected = []
    for k, obj in enumerate(objects):
        category = obj.category
        if config.subtask != "predcls" and rng.uniform() < 0.3:
            category = 1 - category
        if config.subtask == "sgdet":
            detected.append(ObjectInstance(100 + k, category, jitter(obj.box)))
        else:
            detected.append(ObjectInstance(k, category, obj.box))
    if config.subtask == "sgdet":
        for m in range(int(rng.integers(0, 11))):
            source = objects[int(rng.integers(0, n_obj))]
            detected.append(ObjectInstance(200 + m, source.category, jitter(source.box)))
    predictions = []
    for _ in range(n_preds):
        predicate = int(rng.integers(0, 3))
        if rng.uniform() < 0.5:
            target = targets[int(rng.integers(0, n_targets))]
            a, b = target.subject.id, target.object.id
            if rng.uniform() < 0.7:
                predicate = target.predicate
        else:
            a, b = rng.choice(len(detected), size=2, replace=False).tolist()
        score = int(rng.integers(1, 9)) / 8
        predictions.append(Triplet(detected[a], predicate, detected[b], score))
    return predictions, targets, config


def as_scene(triplets, scored):
    """The scene whose relations are these triplets; with ``scored`` its
    objects score 1.0, so each composite score is the relation's score."""
    objects = {}
    for t in triplets:
        for obj in (t.subject, t.object):
            objects.setdefault(obj.id, replace(obj, score=1.0 if scored else None))
    relations = [(t.subject.id, t.predicate, t.object.id, t.score) for t in triplets]
    return SceneAnnotation("s", 100, 100, tuple(objects.values()), relation_columns(relations))


@settings(max_examples=200, deadline=None)
@given(matching_cases())
def test_keyed_match_triplets_matches_reference(case):
    predictions, targets, config = case
    result = match_triplets(predictions, targets, config)
    ref_ranking, ref_matched = oracles.reference_match_triplets(predictions, targets, config)
    assert list(result.ranking) == list(ref_ranking)
    assert list(result.matched) == list(ref_matched)
    # The column form scene_triplets returns matches as its rows do.
    columns = (scene_triplets(as_scene(predictions, True)), scene_triplets(as_scene(targets, False)))
    assert match_triplets(*columns, config) == result


def test_sgdet_rows_match_by_their_own_boxes_when_an_id_names_two():
    near = OrientedBox.axis_aligned(0, 0, 10, 10)
    far = OrientedBox.axis_aligned(200, 200, 210, 210)
    b = OrientedBox.axis_aligned(20, 0, 30, 10)
    # Subject id 7 names a far box in the first row and `near` in the second.
    targets = [triplet(far, b, 0, ids=(7, 8)), triplet(near, b, 0, ids=(7, 8))]
    predictions = [triplet(near, b, 0, 0.9, ids=(1, 2))]
    config = MatchConfig("sgdet")
    result = match_triplets(predictions, targets, config)
    assert result.matched == (1,)
    ranking, matched = oracles.reference_match_triplets(predictions, targets, config)
    assert (list(result.ranking), list(result.matched)) == (list(ranking), list(matched))


def test_sgdet_computes_each_object_pair_iou_at_most_once(monkeypatch):
    import obsg.metrics

    boxes = [OrientedBox.axis_aligned(20 * k, 0, 20 * k + 10, 10) for k in range(4)]
    truth = tuple(ObjectInstance(k, 0, box) for k, box in enumerate(boxes))
    detected = tuple(
        ObjectInstance(10 + k, 0, box.translate(1, 0), score=1.0) for k, box in enumerate(boxes)
    )
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    gt = SceneAnnotation("s", 100, 100, truth, relation_columns((i, 0, j) for i, j in pairs))
    # Every prediction shares each endpoint with five others, under two predicates.
    relations = relation_columns(
        (10 + i, p, 10 + j, 1.0 - 0.01 * k)
        for k, (i, j) in enumerate(pairs)
        for p in (0, 1)
    )
    pred = SceneAnnotation("s", 100, 100, detected, relations)
    owner = {id(obj.box): obj.id for obj in truth + detected}
    calls = []

    def counting_iou(a, b):
        calls.append((owner[id(a)], owner[id(b)]))
        return rotated_iou(a, b)

    monkeypatch.setattr(obsg.metrics, "rotated_iou", counting_iou)
    config = MatchConfig("sgdet", graph_constraint=False)
    result = match_triplets(scene_triplets(pred), scene_triplets(gt), config)
    assert sorted(g for g in result.matched if g >= 0) == list(range(len(pairs)))
    assert calls and len(calls) == len(set(calls))
    assert {a for a, _ in calls} <= {obj.id for obj in detected}


def test_scene_triplets_resolve_objects_and_scores():
    box = OrientedBox.axis_aligned(0, 0, 10, 10)
    a = ObjectInstance(4, 0, box, score=0.5)
    b = ObjectInstance(7, 1, box.translate(20, 0), score=0.25)

    def rows(scene):
        t = scene_triplets(scene)
        return [
            Triplet(t.instances[i], p, t.instances[j], score)
            for i, p, j, score in zip(t.subjects, t.predicates, t.objects, t.scores)
        ]

    scored = SceneAnnotation("i0", 50, 50, (a, b), relation_columns([(7, 2, 4, 0.5)]))
    assert rows(scored) == [Triplet(b, 2, a, 0.0625)]
    truth = SceneAnnotation("i0", 50, 50, (a, b), relation_columns([(4, 0, 7)]))
    assert rows(truth) == [Triplet(a, 0, b)]
    # A relation to a missing id never reaches scene_triplets: ids are
    # resolved where the scene is built, so it cannot be.
    for rel in ((4, 0, 9), (9, 0, 4)):
        with pytest.raises(DataError, match=r"^image 'i0': relation .* missing object id 9$"):
            SceneAnnotation("i0", 50, 50, (a, b), relation_columns([rel]))


def test_scene_triplets_reject_non_finite_composite_score():
    box = OrientedBox.axis_aligned(0, 0, 10, 10)
    a = ObjectInstance(4, 0, box, score=1e300)
    b = ObjectInstance(7, 1, box.translate(20, 0), score=0.0)
    c = ObjectInstance(9, 1, box.translate(40, 0), score=1e300)
    # 1e300 ** 3 overflows to inf, and inf times a 0.0 object score is NaN.
    for obj, score in ((9, "inf"), (7, "nan")):
        relations = relation_columns([(9, 0, 7, 0.5), (4, 2, obj, 1e300)])
        scene = SceneAnnotation("i0", 50, 50, (a, b, c), relations)
        message = f"'i0': relation 4-2->{obj} has non-finite composite score {score}$"
        with pytest.raises(DataError, match=message):
            scene_triplets(scene)


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
    relations = [(2 * i, 0, 2 * i + 1) for i in range(100)] + [(200, 1, 201)]
    scene = SceneAnnotation("tail", 300, 200, objects, relation_columns(relations))
    gt = Dataset(registry, "val", (scene,))
    scored = tuple(ObjectInstance(o.id, 0, o.box, score=1.0) for o in objects)
    pred_rels = relation_columns((2 * i, 0, 2 * i + 1, 1.0) for i in range(100))
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
    scene = SceneAnnotation("i0", 100, 100, (ObjectInstance(0, 0, box),), NO_RELATIONS)
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
                NO_RELATIONS,
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


def test_evaluate_detections_duplicate_image_id():
    # A prediction or ground-truth set that names one image twice cannot be
    # built, so the evaluator never pairs an image twice.
    gt, preds = det_fixture()
    for dataset in (gt, preds):
        with pytest.raises(DataError, match=r"^image id 'i0' names two scenes$"):
            Dataset(dataset.registry, "val", (dataset.scenes[0], dataset.scenes[0]))


def test_evaluate_detections_rejects_dangling_relation():
    # Detection AP reads no relation, and no prediction set reaches it with
    # a dangling one: the scene that would hold it cannot be built, so
    # eval-det rejects the file that eval-sgg rejects.
    gt, preds = det_fixture()
    for rel in ((0, 0, 9, 0.5), (9, 0, 1, 0.5)):
        with pytest.raises(DataError, match=r"^image 'i0': relation .* missing object id 9$"):
            replace(preds.scenes[0], relations=relation_columns([rel]))


def test_evaluate_detections_requires_ground_truth():
    registry = CategoryRegistry(("a",), ("r",))
    gt = Dataset(registry, "val", (SceneAnnotation("i0", 10, 10, (), NO_RELATIONS),))
    preds = Dataset(registry, "val", ())
    with pytest.raises(DataError):
        evaluate_detections(gt, preds)


def test_evaluate_detections_checks_threshold_without_predictions():
    # No prediction object reaches the matcher, so only the up-front check
    # can reject the threshold.
    gt, preds = det_fixture()
    empty = Dataset(preds.registry, "val", (SceneAnnotation("i0", 100, 100, (), NO_RELATIONS),))
    for bad in (0.0, -0.5, 1.5):
        for predictions in (empty, Dataset(preds.registry, "val", ())):
            with pytest.raises(ValueError, match="iou_threshold"):
                evaluate_detections(gt, predictions, iou_threshold=bad)


def test_evaluate_detections_rejects_category_outside_registry():
    gt, preds = det_fixture()
    box = OrientedBox.axis_aligned(10, 10, 30, 30)
    for category in (2, -1):
        stray = ObjectInstance(5, category, box, score=0.5)
        scene = preds.scenes[0]
        message = rf"^image 'i0': object 5 has category {category}, outside the registry"
        # Neither side can be built: the Dataset checks its scenes.
        with pytest.raises(DataError, match=message):
            Dataset(
                preds.registry,
                "val",
                (SceneAnnotation("i0", 100, 100, scene.objects + (stray,), NO_RELATIONS),),
            )
        with pytest.raises(DataError, match=message):
            Dataset(
                gt.registry,
                "val",
                (
                    SceneAnnotation(
                        "i0", 100, 100, gt.scenes[0].objects + (stray,), NO_RELATIONS
                    ),
                ),
            )


def test_evaluate_detections_rejects_predicate_outside_registry():
    gt, preds = det_fixture()
    stray = relation_columns([(0, gt.registry.num_relations, 1)])
    other = ObjectInstance(1, 1, OrientedBox.axis_aligned(50, 50, 70, 70))
    objects = gt.scenes[0].objects + (other,)
    # The ground truth cannot be built: the Dataset checks its scenes.
    with pytest.raises(DataError, match=r"^image 'i0': relation 0->1 has predicate 1"):
        Dataset(gt.registry, "val", (SceneAnnotation("i0", 100, 100, objects, stray),))


def random_detection_case(rng):
    """Ground truth and predictions over five classes: classes 0-2 on both
    sides, class 3 only predicted and class 4 only annotated.  Some ground
    truth images have no prediction scene, some prediction scenes name no
    ground-truth image, and scores come from a set of three so that they
    tie within and across images."""
    registry = CategoryRegistry(("a", "b", "c", "pred-only", "gt-only"), ("r",))
    gt_scenes = []
    pred_scenes = []
    for index in range(int(rng.integers(1, 6))):
        image_id = f"img{index}"
        truths = []
        for k in range(int(rng.integers(0, 7))):
            box = oracles.random_box(rng, center_lo=10, center_hi=90, side_lo=6, side_hi=30)
            truths.append(ObjectInstance(k, int(rng.choice([0, 1, 2, 4])), box))
        gt_scenes.append(SceneAnnotation(image_id, 100, 100, tuple(truths), NO_RELATIONS))
        if rng.uniform() < 0.2:
            continue
        preds = []
        for k in range(int(rng.integers(0, 9))):
            if truths and rng.uniform() < 0.6:
                base = truths[int(rng.integers(0, len(truths)))]
                box = base.box.translate(*rng.uniform(-5, 5, size=2).tolist())
                category = base.category if rng.uniform() < 0.8 else int(rng.integers(0, 4))
            else:
                box = oracles.random_box(rng, center_lo=10, center_hi=90, side_lo=6, side_hi=30)
                category = int(rng.integers(0, 4))
            if category == 4:
                category = 3
            score = float(rng.choice([0.25, 0.5, 0.75]))
            preds.append(ObjectInstance(k, category, box, score=score))
        pred_scenes.append(SceneAnnotation(image_id, 100, 100, tuple(preds), NO_RELATIONS))
    for index in range(int(rng.integers(0, 3))):
        box = oracles.random_box(rng, center_lo=10, center_hi=90, side_lo=6, side_hi=30)
        stray = ObjectInstance(0, int(rng.integers(0, 4)), box, score=0.5)
        pred_scenes.append(SceneAnnotation(f"unknown{index}", 100, 100, (stray,), NO_RELATIONS))
    order = rng.permutation(len(pred_scenes))
    return (
        Dataset(registry, "val", tuple(gt_scenes)),
        Dataset(registry, "val", tuple(pred_scenes[i] for i in order)),
    )


def test_evaluate_detections_matches_per_class_reference():
    rng = np.random.default_rng(61)
    compared = 0
    for _ in range(300):
        gt, preds = random_detection_case(rng)
        threshold = float(rng.choice([0.3, 0.5, 0.7]))
        for include_empty in (False, True):
            try:
                expected = oracles.reference_evaluate_detections(
                    gt, preds, threshold, include_empty
                )
            except DataError:
                with pytest.raises(DataError, match="no objects"):
                    evaluate_detections(gt, preds, threshold, include_empty)
                continue
            report = evaluate_detections(gt, preds, threshold, include_empty)
            assert report == expected
            gt_ids = {scene.image_id for scene in gt.scenes}
            pred_ids = {scene.image_id for scene in preds.scenes}
            assert report.coverage == {
                "gt_images": len(gt_ids),
                "gt_without_prediction": len(gt_ids - pred_ids),
                "pred_images": len(pred_ids),
                "pred_not_in_gt": len(pred_ids - gt_ids),
            }
            compared += 1
    assert compared > 500


def predictions_from_gt(dataset):
    scenes = []
    for scene in dataset.scenes:
        objects = tuple(
            ObjectInstance(o.id, o.category, o.box, score=1.0) for o in scene.objects
        )
        rel = scene.relations
        relations = relation_columns(
            (s, p, o, 1.0) for s, p, o in zip(rel.subjects, rel.predicates, rel.objects)
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
    rel = scene.relations
    unscored = relation_columns(zip(rel.subjects, rel.predicates, rel.objects))
    scenes = tuple(
        SceneAnnotation(s.image_id, s.width, s.height, s.objects, unscored)
        if s is scene
        else s
        for s in scored.scenes
    )
    with pytest.raises(DataError, match=repr(scene.image_id)):
        evaluate_scene_graphs(gt, Dataset(gt.registry, gt.split, scenes))


@pytest.mark.parametrize("score", [math.nan, math.inf])
def test_evaluation_rejects_non_finite_object_scores(score):
    gt, preds = det_fixture()
    scene = preds.scenes[0]
    objects = (replace(scene.objects[0], score=score), scene.objects[1])
    broken = replace(preds, scenes=(replace(scene, objects=objects),))
    message = f"^prediction image 'i0': object 0 has non-finite score {score!r}$"
    for evaluate in (evaluate_detections, evaluate_scene_graphs):
        with pytest.raises(DataError, match=message):
            evaluate(gt, broken)


def test_evaluate_scene_graphs_requires_triplets():
    registry = CategoryRegistry(("a",), ("r",))
    box = OrientedBox.axis_aligned(0, 0, 10, 10)
    scene = SceneAnnotation("i0", 20, 20, (ObjectInstance(0, 0, box),), NO_RELATIONS)
    gt = Dataset(registry, "val", (scene,))
    with pytest.raises(DataError):
        evaluate_scene_graphs(gt, predictions_from_gt(gt))


def predicted_scene(rng, image_id, objects, relations, subtask):
    """A scored prediction scene over ground-truth ``objects`` (ids are
    positions): predcls keeps them, sgcls relabels about 30%, sgdet detects
    each under a new id with whole-pixel jitter and adds stray detections.
    About half of the relations restate a ground-truth one."""
    detected = []
    for k, obj in enumerate(objects):
        category = obj.category
        if subtask != "predcls" and rng.uniform() < 0.3:
            category = 1 - category
        obj_id, box = k, obj.box
        if subtask == "sgdet":
            obj_id = 100 + k
            box = box.translate(float(rng.integers(-3, 4)), float(rng.integers(-3, 4)))
        detected.append(ObjectInstance(obj_id, category, box, score=float(rng.choice([0.5, 1.0]))))
    if subtask == "sgdet":
        for m in range(int(rng.integers(0, 4))):
            source = objects[int(rng.integers(0, len(objects)))]
            box = source.box.translate(float(rng.integers(-3, 4)), 0.0)
            detected.append(ObjectInstance(200 + m, source.category, box, score=0.5))
    predicted = []
    for _ in range(int(rng.integers(0, 16))):
        predicate = int(rng.integers(0, 4))
        if relations and rng.uniform() < 0.5:
            a, rel_predicate, b = relations[int(rng.integers(0, len(relations)))]
            if rng.uniform() < 0.7:
                predicate = rel_predicate
        else:
            a, b = rng.choice(len(detected), size=2, replace=False).tolist()
        score = float(rng.choice([0.25, 0.5, 1.0]))
        predicted.append((detected[a].id, predicate, detected[b].id, score))
    return SceneAnnotation(image_id, 100, 100, tuple(detected), relation_columns(predicted))


@st.composite
def scene_graph_cases(draw):
    """Ground truth, predictions and a config of any subtask, with or
    without the graph constraint.

    Boxes sit on a 4 x 4 grid of 10 px cells, so sgdet IoU qualities tie;
    object and relation scores come from small sets, so composite scores
    tie within and across images.  About one ground-truth image in five has
    no prediction scene, up to two prediction scenes name no ground-truth
    image, and predicate 3 occurs only in predictions.
    """
    config = MatchConfig(
        draw(st.sampled_from(SUBTASKS)),
        k_values=draw(st.sampled_from([(1, 3), (2, 5, 50)])),
        graph_constraint=draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    registry = CategoryRegistry(("a", "b"), ("r0", "r1", "r2", "r3"))
    gt_scenes, pred_scenes = [], []
    n_images = int(rng.integers(1, 5))
    for index in range(n_images + 2):
        n = int(rng.integers(2, 9))
        objects = tuple(
            ObjectInstance(
                k,
                int(rng.integers(0, 2)),
                OrientedBox.from_params(
                    20.0 + 10.0 * int(rng.integers(0, 4)),
                    20.0 + 10.0 * int(rng.integers(0, 4)),
                    float(rng.choice([12.0, 16.0])),
                    12.0,
                    float(rng.choice([0.0, 0.5])),
                ),
            )
            for k in range(n)
        )
        relations = []
        for _ in range(int(rng.integers(0, 8))):
            i, j = rng.choice(n, size=2, replace=False).tolist()
            relations.append((i, int(rng.integers(0, 3)), j))
        image_id = f"img{index}"
        if index < n_images:
            gt_scenes.append(
                SceneAnnotation(image_id, 100, 100, objects, relation_columns(relations))
            )
            if rng.uniform() < 0.2:
                continue
        elif rng.uniform() < 0.5:
            continue
        pred_scenes.append(predicted_scene(rng, image_id, objects, relations, config.subtask))
    order = rng.permutation(len(pred_scenes)).tolist()
    return (
        Dataset(registry, "val", tuple(gt_scenes)),
        Dataset(registry, "val", tuple(pred_scenes[i] for i in order)),
        config,
    )


@settings(max_examples=150, deadline=None)
@given(scene_graph_cases())
def test_evaluate_scene_graphs_matches_reference(case):
    gt, predictions, config = case
    try:
        expected = oracles.reference_evaluate_scene_graphs(gt, predictions, config)
    except DataError:
        with pytest.raises(DataError, match="no relation triplets"):
            evaluate_scene_graphs(gt, predictions, config)
        return
    assert evaluate_scene_graphs(gt, predictions, config) == expected


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
