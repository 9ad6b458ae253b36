"""Manifest and prediction-file reading and writing against their references.

The one-pass parser is checked against the located walk it replaced,
``oracles.reference_parse``, on valid documents and on mutated ones; the
direct text writer is checked against the nested-dict ``json.dumps`` writer
in ``oracles``.
"""

import copy
import json
import math
from dataclasses import replace
from functools import partial

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
    ObjectInstance,
    OrientedBox,
    SceneAnnotation,
    SynthConfig,
    generate,
    parse_dataset,
    parse_predictions,
    serialize_dataset,
)
from obsg.datamodel import SPLITS

# --- documents as JSON values ----------------------------------------------


def _box_json(draw):
    """Four vertices: whole-pixel axis-aligned ints, or a rotated float box."""
    if draw(st.booleans()):
        x, y = draw(st.integers(-50, 400)), draw(st.integers(-50, 400))
        w, h = draw(st.integers(1, 60)), draw(st.integers(1, 60))
        return [[x, y], [x + w, y], [x + w, y + h], [x, y + h]]
    box = OrientedBox.from_params(
        draw(st.floats(-50, 400)),
        draw(st.floats(-50, 400)),
        draw(st.floats(0.5, 60)),
        draw(st.floats(0.5, 60)),
        draw(st.floats(0, 7)),
    )
    return [list(v) for v in box.vertices]


def _score_json(draw):
    return draw(st.floats(0, 1) | st.integers(0, 3))


def _two_ids(draw, ids):
    """Two different ids of ``ids``: a relation's subject and object."""
    return draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))


@st.composite
def documents(draw):
    """A valid manifest (``scored`` False) or prediction file (True)."""
    scored = draw(st.booleans())
    num_objects = draw(st.integers(1, 3))
    num_relations = draw(st.integers(1, 3))
    doc = {
        "version": "1.0",
        "split": draw(st.sampled_from(SPLITS)),
        "object_categories": [f"obj-{i}" for i in range(num_objects)],
        "relation_categories": [f"rel-{i}" for i in range(num_relations)],
        "images": [],
    }
    for s in range(draw(st.integers(0, 3))):
        # Small ids, so a bool where an id belongs can equal one.
        ids = draw(st.lists(st.integers(-2, 6), max_size=4, unique=True))
        objects = []
        for obj_id in ids:
            obj = {
                "id": obj_id,
                "category": draw(st.integers(0, num_objects - 1)),
                "obb": _box_json(draw),
            }
            # truncated is optional and defaults to false.
            if draw(st.booleans()):
                obj["truncated"] = draw(st.booleans())
            if scored:
                obj["score"] = _score_json(draw)
            objects.append(obj)
        relations = []
        for _ in range(draw(st.integers(0, 5)) if len(ids) > 1 else 0):
            subject, object_ = _two_ids(draw, ids)
            rel = {
                "subject": subject,
                "predicate": draw(st.integers(0, num_relations - 1)),
                "object": object_,
            }
            if scored:
                rel["score"] = _score_json(draw)
            relations.append(rel)
        scene = {
            "id": f"img-{s}",
            "width": draw(st.integers(1, 500)),
            "height": draw(st.integers(1, 500)),
            "objects": objects,
            "relations": relations,
        }
        if draw(st.booleans()):
            scene["note"] = "unknown keys are ignored"
        doc["images"].append(scene)
    return doc, scored


def _paths(doc):
    """Key path from the root of every value of a document, by field name."""
    paths = {}
    add = lambda field, *path: paths.setdefault(field, []).append(path)  # noqa: E731
    for key in doc:
        add(f"$.{key}", key)
    for key in ("object_categories", "relation_categories"):
        for k in range(len(doc[key])):
            add(f"$.{key}[]", key, k)
    for i, scene in enumerate(doc["images"]):
        for key in scene:
            add(f"image.{key}", "images", i, key)
        for j, obj in enumerate(scene["objects"]):
            for key in obj:
                add(f"object.{key}", "images", i, "objects", j, key)
            for k in range(4):
                add("object.obb[]", "images", i, "objects", j, "obb", k)
                for c in (0, 1):
                    add("object.obb[][]", "images", i, "objects", j, "obb", k, c)
        for j, rel in enumerate(scene["relations"]):
            for key in rel:
                add(f"relation.{key}", "images", i, "relations", j, key)
    return paths


_DROP = object()
_INT_FIELDS = ("image.width", "image.height", "object.id", "object.category",
               "relation.subject", "relation.predicate", "relation.object")
_NUMBER_FIELDS = ("object.obb[][]", "object.score", "relation.score")

# Each defect: the fields it goes into (None: every field) and the values
# it puts there; a callable value maps the old one.  Registries have at most
# three names and ids lie in [-2, 6], so 3 is out of range and 999 dangles.
MUTATIONS = {
    "dropped key": (None, [_DROP]),
    "wrong type": (None, [None, "7", "", [], {}, 1.5, 7, True, [[0, 0]], [1, 2]]),
    "bool where an int belongs": (_INT_FIELDS + _NUMBER_FIELDS, [True, False]),
    "number written as a string": (_INT_FIELDS + _NUMBER_FIELDS, [str]),
    "bad score": (("object.score", "relation.score"),
                  [math.nan, math.inf, -math.inf, "0.5", None, _DROP]),
    "index out of range": (("object.category", "relation.predicate"), [3, -1]),
    "dangling id": (("relation.subject", "relation.object"), [999]),
    "empty image id": (("image.id",), [""]),
    "non-rectangular box": (("object.obb[][]",),
                            [lambda v: v + 3, lambda v: v + 1e-3, lambda v: v + 1e-9]),
    "non-finite coordinate": (("object.obb[][]",), [math.nan, math.inf, -math.inf]),
    "sheared box": (("object.obb",), [[[0, 0], [10, 0], [15, 10], [5, 10]]]),
    "overflowing side": (("object.obb",), [[[-1e308, 0], [1e308, 0], [1e308, 10], [-1e308, 10]]]),
    "integer beyond float range": (_NUMBER_FIELDS, [10**400, -(10**400)]),
    "non-positive extent": (("image.width", "image.height"), [0, -5]),
    "extent above the maximum": (("image.width", "image.height"), [100_001, 2**64]),
}


def _with(doc, path, value):
    out = copy.deepcopy(doc)
    *head, last = path
    container = out
    for key in head:
        container = container[key]
    if value is _DROP:
        del container[last]
    else:
        container[last] = value(container[last]) if callable(value) else value
    return out


def _mutants(doc, rnd):
    """(label, document) for every defect at one drawn place of every field
    it fits, a reused object id in every scene with two objects, and a self
    relation in every scene with a relation."""
    paths = _paths(doc)
    for name, (fields, values) in MUTATIONS.items():
        for field in sorted(paths) if fields is None else fields:
            if field not in paths or (name == "dropped key" and field.endswith("]")):
                continue
            path = rnd.choice(paths[field])
            for value in values:
                yield f"{name} at {path}: {value!r}", _with(doc, path, value)
    for i, scene in enumerate(doc["images"]):
        objects = scene["objects"]
        if len(objects) >= 2:
            a, b = rnd.sample(range(len(objects)), 2)
            path = ("images", i, "objects", b, "id")
            yield f"reused id at {path}", _with(doc, path, objects[a]["id"])
        relations = scene["relations"]
        if relations:
            j = rnd.randrange(len(relations))
            path = ("images", i, "relations", j, "object")
            yield f"self relation at {path}", _with(doc, path, relations[j]["subject"])


def _public_parser(scored):
    return parse_predictions if scored else partial(parse_dataset, check=False)


def _outcome(parse, *args):
    """``repr`` of the dataset, which tells 1 from 1.0, or the error type
    and text: a range error comes from the ``Dataset`` both build."""
    try:
        return repr(parse(*args))
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


# --- the parser against the reference walk --------------------------------


@settings(max_examples=100, deadline=None)
@given(documents(), st.randoms(use_true_random=False))
def test_parser_agrees_with_reference_parse(case, rnd):
    doc, scored = case
    for label, mutant in [("unmutated", doc), *_mutants(doc, rnd)]:
        text = json.dumps(mutant)
        reference = _outcome(oracles.reference_parse, json.loads(text), scored)
        assert _outcome(_public_parser(scored), text) == reference, label


@settings(max_examples=200, deadline=None)
@given(documents())
def test_valid_documents_parse_as_reference(case):
    doc, scored = case
    text = json.dumps(doc)
    dataset = _public_parser(scored)(text)
    assert repr(dataset) == repr(oracles.reference_parse(json.loads(text), scored))


def test_pipeline_files_round_trip():
    dataset = generate(SynthConfig(n_images=30, seed=5))
    scored = replace(
        dataset,
        scenes=tuple(
            replace(
                s,
                objects=tuple(replace(o, score=0.5) for o in s.objects),
                relations=replace(s.relations, scores=(0.25,) * len(s.relations)),
            )
            for s in dataset.scenes
        ),
    )
    assert parse_dataset(serialize_dataset(dataset)) == dataset
    assert parse_predictions(serialize_dataset(scored)) == scored


# --- the direct writer against json.dumps ----------------------------------

_NAMES = st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3, unique=True)


def _number(draw, finite):
    value = draw(
        st.floats(allow_nan=not finite, allow_infinity=not finite)
        | st.integers(-(10**6), 10**6)
    )
    if isinstance(value, float) and draw(st.booleans()):
        value = np.float64(value)  # numpy scores are float subclasses
    return value


@st.composite
def datasets(draw, finite=True):
    """A dataset built in Python; ``finite`` keeps it parseable.

    Scored datasets score everything, as a prediction file must.  Image
    ids, object ids within a scene and the two ids of a relation are drawn
    as unique lists, and extents in ``1..MAX_IMAGE_EXTENT``, as every
    dataset must have them.
    """
    registry = CategoryRegistry(tuple(draw(_NAMES)), tuple(draw(_NAMES)))
    scored = draw(st.booleans())
    scenes = []
    for image_id in draw(st.lists(st.text(min_size=1, max_size=8), max_size=3, unique=True)):
        ids = draw(st.lists(st.integers(-(10**6), 10**6), max_size=4, unique=True))
        objects = []
        for obj_id in ids:
            if draw(st.booleans()):
                x, y = draw(st.integers(-500, 500)), draw(st.integers(-500, 500))
                w, h = draw(st.integers(1, 300)), draw(st.integers(1, 300))
                box = OrientedBox(((x, y), (x + w, y), (x + w, y + h), (x, y + h)))
            else:
                box = OrientedBox.from_params(
                    draw(st.floats(-1e4, 1e4)),
                    draw(st.floats(-1e4, 1e4)),
                    draw(st.floats(0.01, 1e3)),
                    draw(st.floats(0.01, 1e3)),
                    draw(st.floats(-10, 10)),
                )
            if not finite and draw(st.booleans()):
                (x1, y1), *rest = box.vertices
                box = OrientedBox(((draw(st.sampled_from([math.nan, math.inf, -math.inf])), y1), *rest))
            objects.append(
                ObjectInstance(
                    obj_id,
                    draw(st.integers(0, registry.num_objects - 1)),
                    box,
                    draw(st.booleans()),
                    score=_number(draw, finite) if scored else None,
                )
            )
        relations = []
        for _ in range(draw(st.integers(0, 4)) if len(ids) > 1 else 0):
            subject, object_ = _two_ids(draw, ids)
            relations.append((
                subject,
                draw(st.integers(0, registry.num_relations - 1)),
                object_,
                _number(draw, finite) if scored else None,
            ))
        scenes.append(
            SceneAnnotation(
                image_id,
                draw(st.integers(1, 10**5)),
                draw(st.integers(1, 10**5)),
                tuple(objects),
                relation_columns(relations),
            )
        )
    return Dataset(registry, draw(st.sampled_from(SPLITS)), tuple(scenes)), scored


@settings(max_examples=300, deadline=None)
@given(datasets(finite=False))
def test_writer_is_byte_identical_to_json_dumps(case):
    dataset, _ = case
    assert serialize_dataset(dataset) == oracles.reference_serialize_dataset(dataset)


@pytest.mark.parametrize(
    "scores",
    [
        [np.float64(0.25), np.float64(1 / 3), np.float64(1e-300)],
        [0.25, 1 / 3, 7],
        [0.25, 1 / 3, math.nan],
        [0.25, 1 / 3, -math.inf],
    ],
    ids=["float64", "int-last", "nan-last", "neg-inf-last"],
)
def test_writer_score_column_falls_back_per_score(scores):
    # A column of finite floats (float64 included) is formatted in one pass;
    # a last score that is not one sends the whole scene to the per-score path.
    box = OrientedBox.axis_aligned(0, 0, 10, 10)
    objects = tuple(ObjectInstance(k, k % 2, box, score=1.0) for k in range(4))
    rows = [(k, k % 2, k + 1, score) for k, score in enumerate(scores)]
    scenes = (
        SceneAnnotation("a", 100, 100, objects, relation_columns(rows)),
        SceneAnnotation("b", 100, 100, objects, relation_columns(rows[:2])),
    )
    dataset = Dataset(CategoryRegistry(("A", "B"), ("r0", "r1")), "test", scenes)
    assert serialize_dataset(dataset) == oracles.reference_serialize_dataset(dataset)


@settings(max_examples=300, deadline=None)
@given(datasets())
def test_parse_of_serialize_is_identity(case):
    dataset, scored = case
    assert _public_parser(scored)(serialize_dataset(dataset)) == dataset
