"""Manifest parsing, validation codes, size classes and registries."""

import ast
import importlib
import inspect
import json
import pkgutil
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import obsg
from oracles import relation_columns
from obsg import (
    CategoryRegistry,
    DataError,
    Dataset,
    ManifestError,
    ObjectInstance,
    OrientedBox,
    RelationTriplet,
    SceneAnnotation,
    SynthConfig,
    TrainConfig,
    canonical_registry,
    compute_stats,
    evaluate_scene_graphs,
    fit_frequency_prior,
    generate,
    parse_dataset,
    parse_predictions,
    plan_tiles,
    predict_triplets,
    serialize_dataset,
    size_class,
    train_linear,
    validate,
)
from obsg.datamodel import MAX_IMAGE_EXTENT, NO_RELATIONS, RelationColumns, _rank


def unit_box(x=0.0, y=0.0, s=10.0):
    return OrientedBox.axis_aligned(x, y, x + s, y + s)


def small_registry():
    return CategoryRegistry(("cat-a", "cat-b", "cat-c"), ("rel-x", "rel-y"))


def minimal_manifest():
    return {
        "version": "1.0",
        "split": "train",
        "object_categories": ["cat-a", "cat-b", "cat-c"],
        "relation_categories": ["rel-x", "rel-y"],
        "images": [
            {
                "id": "img-1",
                "width": 100,
                "height": 100,
                "objects": [
                    {
                        "id": 0,
                        "category": 0,
                        "obb": [[0, 0], [10, 0], [10, 10], [0, 10]],
                        "truncated": False,
                    },
                    {
                        "id": 1,
                        "category": 2,
                        "obb": [[20, 20], [30, 20], [30, 30], [20, 30]],
                        "truncated": False,
                    },
                ],
                "relations": [{"subject": 0, "predicate": 1, "object": 1}],
            }
        ],
    }


def scored_manifest():
    """``minimal_manifest`` as a prediction file: every item scored."""
    doc = minimal_manifest()
    scene = doc["images"][0]
    for item in scene["objects"] + scene["relations"]:
        item["score"] = 0.5
    return doc


# Each parser with a document it accepts.
PARSERS = ((parse_dataset, minimal_manifest), (parse_predictions, scored_manifest))


def test_box_columns_are_params_and_extents_in_object_order():
    boxes = (OrientedBox.from_params(30.0, 20.0, 12.0, 5.0, 0.4), unit_box(50.0, 60.0))
    objects = tuple(ObjectInstance(9 - k, 0, box) for k, box in enumerate(boxes))
    scene = SceneAnnotation("s", 100, 100, objects, NO_RELATIONS)
    params, extents = scene.box_columns
    assert params.dtype == extents.dtype == np.float64
    assert params.tolist() == [list(box.params) for box in boxes]
    assert extents.tolist() == [list(box.extent) for box in boxes]
    assert scene.box_columns is scene.box_columns
    empty = SceneAnnotation("e", 100, 100, (), NO_RELATIONS)
    assert [column.shape for column in empty.box_columns] == [(0, 5), (0, 4)]


def test_parse_minimal_manifest():
    dataset = parse_dataset(json.dumps(minimal_manifest()))
    assert dataset.split == "train"
    assert len(dataset.scenes) == 1
    scene = dataset.scenes[0]
    assert scene.image_id == "img-1"
    assert len(scene.objects) == 2
    assert len(scene.relations) == 1
    assert list(scene.relations) == [RelationTriplet(0, 1, 1)]
    assert scene.objects[0].box.vertices[0] == (0.0, 0.0)


def test_parse_rejects_dangling_reference():
    # The parser leaves relation ids to the scene it builds, which rejects
    # a dangling one in a manifest, checked or not, and in a prediction file.
    unchecked = (lambda text: parse_dataset(text, check=False), minimal_manifest)
    for parse, make_doc in (*PARSERS, unchecked):
        doc = make_doc()
        doc["images"][0]["relations"][0]["object"] = 99
        with pytest.raises(
            DataError, match="^image 'img-1': relation 0->99 references missing object id 99$"
        ):
            parse(json.dumps(doc))


def test_parse_rejects_empty_image_id():
    # The parser checks that an id is a string; the scene it builds rejects
    # an empty one.
    for parse, make_doc in PARSERS:
        doc = make_doc()
        doc["images"][0]["id"] = ""
        with pytest.raises(DataError, match="^image id '' is not a non-empty string$"):
            parse(json.dumps(doc))


def test_parse_rejects_bad_box_with_path():
    doc = minimal_manifest()
    doc["images"][0]["objects"][1]["obb"] = [[0, 0], [1, 0], [5, 9], [0, 1]]
    with pytest.raises(ManifestError) as err:
        parse_dataset(json.dumps(doc))
    assert "$.images[0].objects[1].obb" in str(err.value)
    # An integer literal beyond float range.
    doc["images"][0]["objects"][1]["obb"] = [[0, 0], [10**400, 0], [1, 1], [0, 1]]
    with pytest.raises(ManifestError) as err:
        parse_dataset(json.dumps(doc))
    assert "$.images[0].objects[1].obb[1][0]" in str(err.value)


def test_parse_rejects_dropped_box_as_a_missing_field():
    for parse, make_doc in PARSERS:
        doc = make_doc()
        del doc["images"][0]["objects"][1]["obb"]
        with pytest.raises(
            ManifestError, match=r"^\$\.images\[0\]\.objects\[1\]: missing required field 'obb'$"
        ):
            parse(json.dumps(doc))


def test_parse_rejects_unknown_version_and_split():
    doc = minimal_manifest()
    doc["version"] = "2.0"
    with pytest.raises(ManifestError):
        parse_dataset(json.dumps(doc))
    for parse, make_doc in PARSERS:
        doc = make_doc()
        doc["split"] = "training"
        with pytest.raises(DataError, match="^split 'training' is not one of train, val, test$"):
            parse(json.dumps(doc))


def test_parse_rejects_category_out_of_range():
    # The Dataset the parser builds runs check_indices, the one range check.
    for parse, make_doc in PARSERS:
        doc = make_doc()
        doc["images"][0]["objects"][0]["category"] = 3
        with pytest.raises(
            DataError, match="^image 'img-1': object 0 has category 3, outside the registry's 3"
        ):
            parse(json.dumps(doc))
        doc = make_doc()
        doc["images"][0]["relations"][0]["predicate"] = 2
        with pytest.raises(
            DataError, match="^image 'img-1': relation 0->1 has predicate 2, outside the registry's 2"
        ):
            parse(json.dumps(doc))


def test_parse_rejects_malformed_json():
    for parse, _ in PARSERS:
        for data in ("{not json", b"\xff{}", "[" * 100_000 + "]" * 100_000):
            with pytest.raises(ManifestError):
                parse(data)


def test_serialize_parse_identity():
    dataset = parse_dataset(json.dumps(minimal_manifest()))
    text = serialize_dataset(dataset)
    again = parse_dataset(text)
    assert again == dataset
    assert serialize_dataset(again) == text


def test_synthetic_round_trip():
    dataset = generate(SynthConfig(n_images=100, seed=2024))
    text = serialize_dataset(dataset)
    parsed = parse_dataset(text)
    assert parsed == dataset
    assert serialize_dataset(parsed) == text


def test_parse_check_rejects_validation_violations():
    # Counter-clockwise vertices parse as boxes but fail dataset validation.
    doc = minimal_manifest()
    doc["images"][0]["objects"][0]["obb"] = [[0, 10], [10, 10], [10, 0], [0, 0]]
    with pytest.raises(ManifestError) as err:
        parse_dataset(json.dumps(doc))
    assert "VERTEX_ORDER" in str(err.value)
    dataset = parse_dataset(json.dumps(doc), check=False)
    codes = {v.code for v in validate(dataset)}
    assert codes == {"VERTEX_ORDER"}


def make_scene(objects, relations, image_id="img", width=100, height=100):
    return SceneAnnotation(image_id, width, height, tuple(objects), relation_columns(relations))


def test_validate_clean_scene_is_empty():
    scene = make_scene(
        [ObjectInstance(0, 0, unit_box()), ObjectInstance(1, 1, unit_box(20, 20))],
        [(0, 0, 1)],
    )
    dataset = Dataset(small_registry(), "val", (scene,))
    assert validate(dataset) == []


def test_validate_self_relation():
    # A self relation never reaches validate: the scene cannot be built.
    with pytest.raises(DataError, match="^image 'img': object 0 relates to itself$"):
        make_scene([ObjectInstance(0, 0, unit_box())], [(0, 0, 0)])


def test_validate_duplicate_triplet_and_dangling():
    objects = [ObjectInstance(0, 0, unit_box()), ObjectInstance(1, 1, unit_box(20, 20))]
    scene = make_scene(objects, [(0, 0, 1), (0, 0, 1)])
    dataset = Dataset(small_registry(), "train", (scene,))
    assert [v.code for v in validate(dataset)] == ["DUPLICATE_TRIPLET"]
    # A dangling id never reaches validate: the scene cannot be built.
    with pytest.raises(DataError, match="^image 'img': relation 0->5 references missing"):
        make_scene(objects, [(0, 0, 1), (0, 1, 5)])


def test_validate_id_and_range_codes():
    scene = make_scene(
        [
            ObjectInstance(-1, 0, unit_box()),
            ObjectInstance(2, 2, unit_box(20, 20)),
            ObjectInstance(3, 0, unit_box(40, 40)),
        ],
        [(2, 1, 3)],
    )
    dataset = Dataset(small_registry(), "train", (scene,))
    codes = sorted(v.code for v in validate(dataset))
    # Repeated ids, relation endpoints, categories and predicates outside
    # the registry never reach validate: building the scene or Dataset
    # rejects them (test_scene_rejects_extent_and_reused_object_id,
    # test_dangling_relation_id_is_one_data_error,
    # test_out_of_registry_index_is_one_data_error).
    assert codes == ["NEGATIVE_OBJECT_ID"]


def test_validate_degenerate_box():
    # Four equal vertices: no box can be built from them.
    with pytest.raises(ValueError, match="degenerate side"):
        OrientedBox(((1.0, 1.0),) * 4)
    # A collinear quad far below the rectangle check's absolute tolerances
    # parses, and only validate names it.
    doc = minimal_manifest()
    doc["images"][0]["objects"][1]["obb"] = [[0, 0], [1e-8, 0], [2e-8, 0], [1e-8, 0]]
    violations = validate(parse_dataset(json.dumps(doc), check=False))
    assert [(v.code, v.detail) for v in violations] == [
        ("DEGENERATE_BOX", "object 1: no enclosed area")
    ]


@pytest.mark.parametrize(
    "x, side",
    [(99_999.0, 1e-3), (99_999.0, 1e-4), (140_000.0, 1e-4), (140_000.0, 1e-3), (50_000.0, 1e-4)],
)
def test_validate_winding_does_not_depend_on_position(x, side):
    # Sub-pixel boxes far from the origin: a shoelace sum in absolute
    # coordinates cancels to the wrong sign or to zero there.
    box = OrientedBox.axis_aligned(x, x, x + side, x + side)
    reversed_box = OrientedBox(tuple(reversed(box.vertices)))
    extent = MAX_IMAGE_EXTENT
    codes = {}
    for name, b in (("clockwise", box), ("reversed", reversed_box)):
        scene = make_scene([ObjectInstance(0, 0, b)], [], width=extent, height=extent)
        codes[name] = [v.code for v in validate(Dataset(small_registry(), "train", (scene,)))]
    assert codes == {"clockwise": [], "reversed": ["VERTEX_ORDER"]}


def test_validate_box_bounds_slack():
    # 100x100 image: slack allows vertices down to -50 and up to 150.
    inside = ObjectInstance(0, 0, unit_box(-50, 0))
    outside = ObjectInstance(1, 0, unit_box(145, 0))
    dataset = Dataset(
        small_registry(), "train", (make_scene([inside, outside], []),)
    )
    violations = validate(dataset)
    assert [v.code for v in violations] == ["BOX_BOUNDS"]
    assert "object 1" in violations[0].detail


def test_validate_image_extent_and_duplicate_image():
    # A manifest with a bad extent or a repeated id never reaches validate:
    # parsing builds the scene and Dataset, which reject it, with or
    # without ``check``.
    bad_extent = minimal_manifest()
    bad_extent["images"][0]["width"] = 0
    reused_object = minimal_manifest()
    reused_object["images"][0]["objects"][1]["id"] = 0
    repeated_image = minimal_manifest()
    repeated_image["images"].append(repeated_image["images"][0])
    for doc, message in (
        (bad_extent, r"^image 'img-1': extent 0x100 outside 1\.\.100000$"),
        (reused_object, r"^image 'img-1': object id 0 names two objects$"),
        (repeated_image, r"^image id 'img-1' names two scenes$"),
    ):
        for check in (False, True):
            with pytest.raises(DataError, match=message):
                parse_dataset(json.dumps(doc), check=check)


def test_validate_codes_agree_with_its_docstring_and_readme():
    # A rule that moves out of validate must take its code out of the docs.
    emitted = set(re.findall(r'Violation\(\s*"([A-Z_]+)"', inspect.getsource(validate)))
    listed = validate.__doc__.split("Codes:")[1].split(".")[0]
    documented = set(re.findall(r"[A-Z][A-Z_]+", listed))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    constants = set()
    for module in pkgutil.iter_modules(obsg.__path__):
        constants.update(vars(importlib.import_module(f"obsg.{module.name}")))
    named = set(re.findall(r"`([A-Z][A-Z0-9_]*)`", readme)) - constants
    assert emitted
    assert emitted == documented == named


@pytest.mark.parametrize(
    "text",
    [
        "references missing object id",
        "relates to itself",
        "names two objects",
        "names two scenes",
        "is not one of",
        "is not a non-empty string",
        "outside 1..",
    ],
)
def test_each_container_rule_is_raised_from_one_place(text):
    # A scene or dataset checks these rules where it is built; a second
    # f-string with the same text would be a second owner of the rule.
    found = []
    for path in sorted(Path(obsg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                literal = "".join(v.value for v in node.values if isinstance(v, ast.Constant))
                if text in literal:
                    found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1, found


def test_validate_split_name():
    # A split outside SPLITS never reaches validate or report_to_csv: the
    # Dataset cannot be built, nor replaced into.
    dataset = Dataset(small_registry(), "test", ())
    for split in ("holdout", "trainx"):
        with pytest.raises(DataError, match=f"^split '{split}' is not one of train, val, test$"):
            Dataset(small_registry(), split, ())
        with pytest.raises(DataError, match=f"^split '{split}' is not one of train, val, test$"):
            replace(dataset, split=split)


def test_size_class_boundaries():
    assert size_class(2048.0) == "large"
    assert size_class(2047.0) == "medium"
    assert size_class(144.0) == "medium"
    assert size_class(143.0) == "small"
    assert size_class(11.0) == "small"
    assert size_class(10.0) == "tiny"
    assert size_class(0.25) == "tiny"
    with pytest.raises(ValueError):
        size_class(0.0)
    with pytest.raises(ValueError):
        size_class(-4.0)


def test_size_class_total_partition():
    import numpy as np

    rng = np.random.default_rng(16)
    names = {"large", "medium", "small", "tiny"}
    for area in rng.uniform(1e-6, 10000.0, size=500):
        assert size_class(float(area)) in names


def test_canonical_registry_shape():
    reg = canonical_registry()
    assert reg.num_objects == 60
    assert reg.num_relations == 64
    assert reg.relation_kinds.count("spatial") == 20
    assert reg.relation_kinds.count("semantic") == 44


def test_registry_lookups_bijective():
    reg = canonical_registry()
    for idx, name in enumerate(reg.object_names):
        assert reg.object_index(name) == idx
    for idx, name in enumerate(reg.relation_names):
        assert reg.relation_index(name) == idx
    with pytest.raises(KeyError):
        reg.object_index("no such thing")


def test_registry_rejects_bad_names():
    with pytest.raises(ValueError):
        CategoryRegistry(("a", "a"), ("r",))
    with pytest.raises(ValueError):
        CategoryRegistry(("a",), ("r", ""))
    with pytest.raises(ValueError):
        CategoryRegistry((), ("r",))
    # A str would read as one name per letter.
    with pytest.raises(ValueError, match="not a str"):
        CategoryRegistry("abc", ("near",))
    with pytest.raises(ValueError, match="not a str"):
        CategoryRegistry(("a",), "near")


def test_registry_content_hash_tracks_names():
    a = CategoryRegistry(("x", "y"), ("r",))
    b = CategoryRegistry(("x", "y"), ("r",))
    c = CategoryRegistry(("x", "z"), ("r",))
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_registry_stores_list_names_as_tuples():
    canonical = canonical_registry()
    built = CategoryRegistry(list(canonical.object_names), list(canonical.relation_names))
    assert type(built.object_names) is tuple and type(built.relation_names) is tuple
    assert built == canonical
    assert hash(built) == hash(canonical)
    assert built.content_hash() == canonical.content_hash()


def test_relation_kinds_key_is_ignored():
    # Kinds follow from the relation names; a stored list is not read.
    for parse, make_doc in PARSERS:
        doc = make_doc()
        doc["relation_kinds"] = ["bogus-kind"]
        parsed = parse(json.dumps(doc))
        assert parsed == parse(json.dumps(make_doc()))
        assert "relation_kinds" not in json.loads(serialize_dataset(parsed))


def test_prediction_round_trip():
    scene = SceneAnnotation(
        image_id="img-1",
        width=100,
        height=100,
        objects=(
            ObjectInstance(0, 0, unit_box(), score=0.9),
            ObjectInstance(1, 1, unit_box(20, 20), True, score=0.7),
        ),
        relations=relation_columns([(0, 1, 1, 0.5)]),
    )
    preds = Dataset(small_registry(), "val", (scene,))
    text = serialize_dataset(preds)
    assert '"truncated":true,"score":0.7' in text
    assert '"object":1,"score":0.5' in text
    again = parse_predictions(text)
    assert again == preds
    assert serialize_dataset(again) == text
    # score is keyword-only, so a positional fifth argument cannot land in it
    with pytest.raises(TypeError):
        ObjectInstance(0, 0, unit_box(), False, 0.9)


def test_prediction_requires_scores():
    for kind in ("objects", "relations"):
        doc = scored_manifest()
        del doc["images"][0][kind][0]["score"]
        with pytest.raises(ManifestError) as err:
            parse_predictions(json.dumps(doc))
        assert "score" in str(err.value)


def test_prediction_rejects_non_finite_score():
    doc = scored_manifest()
    doc["images"][0]["objects"][0]["score"] = float("nan")
    with pytest.raises(ManifestError):
        parse_predictions(json.dumps(doc).replace("NaN", "1e999"))


def scored_with(scores):
    """``scored_manifest`` text with ``scores`` on its objects, then relations."""
    doc = scored_manifest()
    scene = doc["images"][0]
    for item, score in zip(scene["objects"] + scene["relations"], scores, strict=True):
        item["score"] = score
    return json.dumps(doc)


def test_integer_scores_stay_on_the_fast_path(monkeypatch):
    # JSON integers, as other tools may write scores; 2**53 is exact as a float.
    integers = scored_with([1, 0, 2**53])
    floats = scored_with([1.0, 0.0, float(2**53)])
    assert '"score": 1}' in integers and '"score": 1.0}' in floats
    expected = parse_predictions(floats)

    def walk(*args):
        raise AssertionError("a scene left the fast path")

    monkeypatch.setattr(obsg.datamodel, "_walk_scene", walk)
    parsed = parse_predictions(integers)
    assert parsed == expected
    scene = parsed.scenes[0]
    scores = [obj.score for obj in scene.objects] + list(scene.relations.scores)
    assert scores == [1.0, 0.0, float(2**53)]
    assert all(type(score) is float for score in scores)


@pytest.mark.parametrize(
    "scores, path",
    [
        ([10**400, 0.5, 0.5], "$.images[0].objects[0].score: integer too large for a float"),
        ([0.5, 0.5, -(10**400)], "$.images[0].relations[0].score: integer too large for a float"),
        ([0.5, True, 0.5], "$.images[0].objects[1].score: expected number, got True"),
    ],
)
def test_a_score_the_fast_path_cannot_take_is_located(scores, path):
    text = scored_with(scores)
    with pytest.raises(ManifestError, match=f"^{re.escape(path)}$"):
        parse_predictions(text)


def test_prediction_rejects_reused_object_id():
    doc = scored_manifest()
    doc["images"][0]["objects"][1]["id"] = 0
    with pytest.raises(DataError) as err:
        parse_predictions(json.dumps(doc))
    assert str(err.value) == "image 'img-1': object id 0 names two objects"


def test_prediction_rejects_non_positive_extent():
    for key, value, extent in (("width", 0, "0x100"), ("height", -5, "100x-5")):
        doc = scored_manifest()
        doc["images"][0][key] = value
        for parse in (parse_predictions, parse_dataset):
            with pytest.raises(DataError) as err:
                parse(json.dumps(doc))
            assert str(err.value) == f"image 'img-1': extent {extent} outside 1..100000"


def test_image_extent_above_the_maximum():
    for key, value, extent in (
        ("width", MAX_IMAGE_EXTENT + 1, f"{MAX_IMAGE_EXTENT + 1}x100"),
        ("height", 2**64, f"100x{2**64}"),
    ):
        doc = scored_manifest()
        doc["images"][0][key] = value
        for parse in (parse_predictions, parse_dataset):
            with pytest.raises(DataError) as err:
                parse(json.dumps(doc))
            assert str(err.value) == f"image 'img-1': extent {extent} outside 1..100000"
    scene = make_scene([], [], width=MAX_IMAGE_EXTENT, height=MAX_IMAGE_EXTENT)
    assert validate(Dataset(small_registry(), "val", (scene,))) == []


@pytest.mark.parametrize("extent", [0, MAX_IMAGE_EXTENT + 1, 2**64, 800.5, True, None, "800"])
def test_scene_rejects_extent_and_reused_object_id(extent):
    # An extent must be an int, not a bool, in range; plan_tiles checks the
    # same rule before any scene exists.
    good = make_scene([ObjectInstance(0, 0, unit_box()), ObjectInstance(1, 1, unit_box(20))], [])
    reused = (good.objects[0], replace(good.objects[1], id=0))
    text = re.escape(repr(extent))
    with pytest.raises(ValueError, match=rf"^extent {text}x100 outside 1\.\.100000$"):
        plan_tiles(extent, 100)
    for change, message in (
        ({"width": extent}, rf"extent {text}x100 outside 1\.\.100000"),
        ({"height": extent}, rf"extent 100x{text} outside 1\.\.100000"),
        ({"objects": reused}, "object id 0 names two objects"),
    ):
        fields = {"width": 100, "height": 100, "objects": good.objects, **change}
        with pytest.raises(DataError, match=f"^image 'img': {message}$"):
            SceneAnnotation("img", relations=NO_RELATIONS, **fields)
        with pytest.raises(DataError, match=f"^image 'img': {message}$"):
            replace(good, **change)


@pytest.mark.parametrize("image_id", ["", 5, None, b"img"])
def test_scene_rejects_an_image_id_that_is_not_a_non_empty_string(image_id):
    # serialize_dataset wrote such a scene, which parse_dataset then rejected.
    good = make_scene([ObjectInstance(0, 0, unit_box())], [])
    message = rf"^image id {re.escape(repr(image_id))} is not a non-empty string$"
    with pytest.raises(DataError, match=message):
        make_scene(good.objects, [], image_id=image_id)
    with pytest.raises(DataError, match=message):
        replace(good, image_id=image_id)


@pytest.mark.parametrize(
    "relations",
    [(RelationTriplet(0, 0, 1),), [RelationTriplet(0, 0, 1)], (), None],
    ids=["rows", "list", "empty-tuple", "none"],
)
def test_scene_takes_relations_as_columns_only(relations):
    # RelationColumns is the one input form; iterating it is a row view.
    good = make_scene([ObjectInstance(0, 0, unit_box()), ObjectInstance(1, 1, unit_box(20))], [])
    message = rf"^relations must be RelationColumns, got {type(relations).__name__}$"
    with pytest.raises(TypeError, match=message):
        SceneAnnotation("img", 100, 100, good.objects, relations)
    with pytest.raises(TypeError, match=message):
        replace(good, relations=relations)


@pytest.mark.parametrize("value", [True, 0.0, np.int64(0), "0", None])
def test_ids_categories_and_predicates_are_exact_ints(value):
    # An object id of True was written as `"id":True`, which is not JSON, and
    # a relation subject of 0.0 resolved to object 0.
    message = rf"must be int, got {re.escape(repr(value))}$"
    for fields in ((value, 0), (0, value)):
        with pytest.raises(ValueError, match="^object id and category " + message):
            ObjectInstance(*fields, unit_box())
    with pytest.raises(ValueError, match=message):
        replace(ObjectInstance(0, 0, unit_box()), id=value)
    for k in range(3):
        columns = [[0], [0], [1], [None]]
        columns[k] = [value]
        with pytest.raises(ValueError, match="^relation ids and predicates " + message):
            RelationColumns(*columns)
    with pytest.raises(ValueError, match=message):
        replace(RelationColumns([0], [0], [1], [None]), subjects=(value,))


def test_scene_stores_objects_as_a_tuple():
    objects = (ObjectInstance(0, 0, unit_box()), ObjectInstance(1, 1, unit_box(20, 20)))
    scene = make_scene(objects, [(0, 0, 1)])
    assert scene.objects is objects
    for given_objects in (list(objects), (obj for obj in objects)):
        built = SceneAnnotation("img", 100, 100, given_objects, scene.relations)
        assert type(built.objects) is tuple
        assert built == scene and hash(built) == hash(scene)
        assert built.relation_endpoints == scene.relation_endpoints


def test_dataset_rejects_repeated_image_id():
    # Evaluating against a ground truth that held one scene twice counted
    # one matching prediction as two true positives.
    scene = make_scene([ObjectInstance(0, 0, unit_box())], [])
    other = replace(scene, image_id="other")
    dataset = Dataset(small_registry(), "val", (scene, other))
    for scenes in ((scene, scene), (scene, other, scene)):
        with pytest.raises(DataError, match=r"^image id 'img' names two scenes$"):
            Dataset(small_registry(), "val", scenes)
        with pytest.raises(DataError, match=r"^image id 'img' names two scenes$"):
            replace(dataset, scenes=scenes)


def index_scene(category=1, predicate=0, scored=False):
    score = 0.5 if scored else None
    objects = (
        ObjectInstance(0, 0, unit_box(), score=score),
        ObjectInstance(1, category, unit_box(20, 20), score=score),
    )
    return make_scene(objects, [(0, predicate, 1, score)], image_id="s")


def index_callers():
    registry = CategoryRegistry(("a", "b"), ("r", "q"))
    clean = Dataset(registry, "train", (index_scene(),))
    prior = fit_frequency_prior(clean)
    predictions = Dataset(registry, "train", (index_scene(scored=True),))
    return {
        "dataset": lambda scene: Dataset(registry, "train", (scene,)),
        "replace_scenes": lambda scene: replace(
            clean, scenes=(replace(index_scene(), image_id="t"), scene)
        ),
        "compute_stats": lambda scene: compute_stats(Dataset(registry, "train", (scene,))),
        "fit_frequency_prior": lambda scene: fit_frequency_prior(
            Dataset(registry, "train", (scene,))
        ),
        "train_linear": lambda scene: train_linear(
            Dataset(registry, "train", (scene,)), TrainConfig(seed=0, epochs=1)
        ),
        "predict_triplets": lambda scene: predict_triplets(scene, prior),
        "eval_sgg_gt": lambda scene: evaluate_scene_graphs(
            Dataset(registry, "train", (scene,)), predictions
        ),
        "eval_sgg_predictions": lambda scene: evaluate_scene_graphs(
            clean, Dataset(registry, "train", (scene,))
        ),
    }


@pytest.mark.parametrize("caller", sorted(index_callers()))
@pytest.mark.parametrize(
    "edit, message",
    [
        ({"category": 2}, "object 1 has category 2, outside the registry's 2 classes"),
        ({"category": -1}, "object 1 has category -1, outside the registry's 2 classes"),
        ({"predicate": 2}, "relation 0->1 has predicate 2, outside the registry's 2 predicates"),
        ({"predicate": -1}, "relation 0->1 has predicate -1, outside the registry's 2 predicates"),
    ],
    ids=["category-C", "category-1", "predicate-R", "predicate-1"],
)
def test_out_of_registry_index_is_one_data_error(caller, edit, message):
    # Parsing builds a Dataset, so a file's index fails with this same error.
    scene = index_scene(**edit, scored=caller == "eval_sgg_predictions")
    with pytest.raises(DataError, match=f"^image 's': {message}$"):
        index_callers()[caller](scene)


def test_dataset_stores_scenes_as_a_tuple():
    scenes = [index_scene(), replace(index_scene(), image_id="t")]
    dataset = Dataset(CategoryRegistry(("a", "b"), ("r",)), "train", (s for s in scenes))
    assert dataset.scenes == tuple(scenes)
    assert dataset == Dataset(dataset.registry, "train", tuple(scenes))


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
    )
)
def test_rank_orders_by_descending_score_ties_in_input_order(scores):
    assert _rank(scores) == sorted(range(len(scores)), key=lambda i: -scores[i])
