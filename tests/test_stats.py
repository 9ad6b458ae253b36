"""Dataset statistics: exact recounts, histograms, JSON/CSV emission."""

import json
import math
from collections import Counter
from dataclasses import asdict, fields, replace

import pytest

from oracles import relation_columns
from obsg import (
    CategoryRegistry,
    DataError,
    Dataset,
    ObjectInstance,
    OrientedBox,
    RegistryMismatchError,
    SceneAnnotation,
    StatsReport,
    SynthConfig,
    compute_stats,
    generate,
    size_class,
)
from obsg.stats import report_to_csv, report_to_json


def small_dataset():
    registry = CategoryRegistry(("A", "B"), ("near",))
    box = OrientedBox.axis_aligned(0, 0, 10, 10)
    scene = SceneAnnotation(
        "s0",
        100,
        100,
        (ObjectInstance(0, 0, box), ObjectInstance(1, 0, box.translate(20, 0))),
        relation_columns([(0, 0, 1)]),
    )
    return Dataset(registry, "train", (scene,))


def test_small_dataset_counts():
    report = compute_stats(small_dataset())
    assert report.split == "train"
    assert report.num_images == 1
    assert report.object_counts == (2, 0)
    assert report.relation_counts == (1,)
    assert report.objects_per_image == {2: 1}
    assert report.object_categories_per_image == {1: 1}
    assert report.relations_per_image == {1: 1}
    assert report.relation_categories_per_image == {1: 1}
    # Two 100 px boxes, both small.
    assert report.size_class_fractions == {
        "tiny": 0.0,
        "small": 1.0,
        "medium": 0.0,
        "large": 0.0,
    }
    assert report.cooccurrence_log[0][0] == math.log(2.0)
    assert report.cooccurrence_log[0][1] == 0.0


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o, r: ((replace(o[0], category=-1), o[1]), r), "object 0 has category -1"),
        (lambda o, r: ((o[0], replace(o[1], category=99)), r), "object 1 has category 99"),
        (lambda o, r: (o, replace(r, objects=(7,))), "0->7 references missing object id 7"),
        (lambda o, r: (o, replace(r, predicates=(1,))), "0->1 has predicate 1"),
    ],
    ids=["category-1", "category-99", "missing-object", "predicate-1"],
)
def test_compute_stats_rejects_inconsistent_datasets(edit, message):
    dataset = small_dataset()
    scene = dataset.scenes[0]
    objects, relations = edit(scene.objects, scene.relations)
    # A category or predicate outside the registry fails where the dataset
    # is built; the other defects fail in compute_stats.
    with pytest.raises(DataError, match=f"image 's0': .*{message}"):
        compute_stats(
            replace(dataset, scenes=(replace(scene, objects=objects, relations=relations),))
        )


def test_empty_dataset_is_all_zeros():
    registry = CategoryRegistry(("A",), ("r",))
    report = compute_stats(Dataset(registry, "val", ()))
    assert report.num_images == 0
    assert report.object_counts == (0,)
    assert report.relation_counts == (0,)
    assert report.objects_per_image == {}
    assert all(v == 0.0 for v in report.size_class_fractions.values())
    assert report.cooccurrence_log == ((0.0,),)


def naive_recount(dataset):
    """Independent recount with plain dict arithmetic."""
    reg = dataset.registry
    obj_counts = [0] * reg.num_objects
    rel_counts = [0] * reg.num_relations
    size_counts = Counter()
    co = [[0] * reg.num_objects for _ in range(reg.num_objects)]
    hists = {key: Counter() for key in ("o", "oc", "r", "rc")}
    for scene in dataset.scenes:
        cats = {}
        for obj in scene.objects:
            obj_counts[obj.category] += 1
            size_counts[size_class(obj.box.area)] += 1
            cats[obj.id] = obj.category
        for rel in scene.relations:
            rel_counts[rel.predicate] += 1
            co[cats[rel.subject]][cats[rel.object]] += 1
        hists["o"][len(scene.objects)] += 1
        hists["oc"][len({o.category for o in scene.objects})] += 1
        hists["r"][len(scene.relations)] += 1
        hists["rc"][len({r.predicate for r in scene.relations})] += 1
    total = sum(obj_counts)
    fractions = {
        name: (size_counts[name] / total if total else 0.0)
        for name in ("tiny", "small", "medium", "large")
    }
    co_log = tuple(tuple(math.log(1 + c) for c in row) for row in co)
    return obj_counts, rel_counts, hists, fractions, co_log


def test_compute_stats_equals_naive_recount():
    dataset = generate(SynthConfig(n_images=120, seed=31))
    report = compute_stats(dataset)
    obj_counts, rel_counts, hists, fractions, co_log = naive_recount(dataset)
    assert report.object_counts == tuple(obj_counts)
    assert report.relation_counts == tuple(rel_counts)
    assert report.objects_per_image == dict(hists["o"])
    assert report.object_categories_per_image == dict(hists["oc"])
    assert report.relations_per_image == dict(hists["r"])
    assert report.relation_categories_per_image == dict(hists["rc"])
    assert report.size_class_fractions == fractions
    assert report.cooccurrence_log == co_log


def test_totals_and_mass_invariants():
    dataset = generate(SynthConfig(n_images=80, seed=32))
    report = compute_stats(dataset)
    total_objects = sum(
        len(scene.objects) for scene in dataset.scenes
    )
    total_relations = sum(len(scene.relations) for scene in dataset.scenes)
    assert sum(report.object_counts) == total_objects
    assert sum(report.relation_counts) == total_relations
    for hist in (
        report.objects_per_image,
        report.object_categories_per_image,
        report.relations_per_image,
        report.relation_categories_per_image,
    ):
        assert sum(hist.values()) == report.num_images
    assert abs(sum(report.size_class_fractions.values()) - 1.0) <= 1e-12


def fields_from_json(text: str) -> dict:
    """Every ``StatsReport`` field read back from a JSON report, by name."""
    doc = json.loads(text)
    hists = doc["per_image_histograms"]

    def hist(key: str) -> dict[int, int]:
        return {k: v for k, v in hists[key]}

    return {
        "split": doc["split"],
        "object_names": tuple(doc["object_categories"]),
        "relation_names": tuple(doc["relation_categories"]),
        "num_images": doc["num_images"],
        "object_counts": tuple(doc["object_counts"]),
        "relation_counts": tuple(doc["relation_counts"]),
        "objects_per_image": hist("objects"),
        "object_categories_per_image": hist("object_categories"),
        "relations_per_image": hist("relations"),
        "relation_categories_per_image": hist("relation_categories"),
        "size_class_fractions": doc["size_class_fractions"],
        "cooccurrence_log": tuple(tuple(row) for row in doc["cooccurrence_log"]),
    }


def test_stats_json_carries_every_field():
    for report in (
        compute_stats(generate(SynthConfig(n_images=40, seed=33))),
        compute_stats(small_dataset()),
    ):
        got = fields_from_json(report_to_json(report))
        assert set(got) == {f.name for f in fields(StatsReport)}
        # Floats compare exactly: JSON writes their round-tripping repr.
        assert got == asdict(report)


def test_stats_csv_single_split():
    text = report_to_csv([compute_stats(small_dataset())])
    lines = text.splitlines()
    assert lines[0] == "category,count"
    assert lines[1] == "A,2"
    assert lines[2] == "B,0"
    assert lines[3] == ""
    assert lines[4] == "category,count"
    assert lines[5] == "near,1"


def test_stats_csv_multi_split_column_order():
    base = small_dataset()
    train = compute_stats(base)
    val = compute_stats(Dataset(base.registry, "val", ()))
    twice = (base.scenes[0], replace(base.scenes[0], image_id="s1"))
    test = compute_stats(Dataset(base.registry, "test", twice))
    # Input order should not matter; columns come out train,val,test.
    text = report_to_csv([test, train, val])
    lines = text.splitlines()
    assert lines[0] == "category,train,val,test"
    assert lines[1] == "A,2,0,4"
    assert lines[2] == "B,0,0,0"
    assert lines[5] == "near,1,0,2"


def test_stats_csv_validation():
    train = compute_stats(small_dataset())
    with pytest.raises(DataError, match="duplicate splits"):
        report_to_csv([train, train])
    other = compute_stats(
        Dataset(CategoryRegistry(("X",), ("r",)), "val", ())
    )
    with pytest.raises(RegistryMismatchError):
        report_to_csv([train, other])
    with pytest.raises(ValueError):
        report_to_csv([])


def test_stats_report_rejects_split_outside_splits():
    # report_to_csv orders reports by their position in SPLITS, which
    # raised a bare ValueError for a report built with any other split.
    report = compute_stats(small_dataset())
    for split in ("holdout", "trainx"):
        with pytest.raises(DataError, match=f"^split '{split}' is not one of train, val, test$"):
            replace(report, split=split)
