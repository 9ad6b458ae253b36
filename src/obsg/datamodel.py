"""Dataset model, manifest parsing/serialization and validation.

A manifest is a single JSON document::

    {"version": "1.0", "split": "train",
     "object_categories": [...], "relation_categories": [...],
     "images": [{"id": "...", "width": W, "height": H,
                 "objects": [{"id": 0, "category": 3,
                              "obb": [[x1,y1],[x2,y2],[x3,y3],[x4,y4]],
                              "truncated": false}],
                 "relations": [{"subject": 0, "predicate": 12, "object": 1}]}]}

Prediction files use the same skeleton and parse to the same types, with a
finite ``score`` on every object (after ``truncated``) and relation (after
``object``); ``serialize_dataset`` writes a score wherever one is set.

The containers own the rules that make them usable, however they are
built: a :class:`SceneAnnotation` rejects an empty or non-``str`` image
id, an extent not an ``int`` in ``1..MAX_IMAGE_EXTENT``, an object id named
twice and a relation that does not name two different objects of the
scene, and a :class:`Dataset` rejects a split outside ``SPLITS``, an image
id named twice and, through :func:`check_indices`, a category or predicate
outside its registry.
Each raises a :class:`DataError`, naming the image where there is one.
Parsing is strict: ``parse_dataset`` either returns a dataset that passes
``validate`` with zero violations, or raises :class:`ManifestError`
naming the offending path, or one of those container errors.
``validate`` itself never raises on bad content; it reports coded
violations of the rules a dataset can break and still be built.

Parsing builds each scene straight from its decoded JSON on a fast path
that formats no path and no message, and leaves the box, ``int`` and
scene rules to the containers.  Only a scene in which something raises is
read again, field by field, by a walk that raises the
:class:`ManifestError` naming the JSON path of its first defect.
``serialize_dataset`` writes the document text directly, with no dict per
record, byte-identical to ``json.dumps`` of the nested dicts.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DataError, ManifestError
from .geometry import OrientedBox, _cached, _winding
from .registry import CategoryRegistry

MANIFEST_VERSION = "1.0"
SPLITS = ("train", "val", "test")
# Largest image width or height in pixels.  FAIR1M images, ReCon1M's source,
# are about 10^4 px a side at most; the bound keeps every array and tile
# grid built from an extent small (800/400 tiles: at most 249 x 249).
MAX_IMAGE_EXTENT = 100_000

SIZE_CLASS_NAMES = ("large", "medium", "small", "tiny")

# Vertices may exceed the image extent by half its larger side in every
# direction; this tolerates truncation at tile edges.
BOUNDS_SLACK = 0.5


def _check_extent(width: int, height: int) -> None:
    """Raise ``ValueError`` unless width and height are both ``int`` (not
    ``bool``) in ``1..MAX_IMAGE_EXTENT``."""
    if not (
        type(width) is int and type(height) is int
        and 0 < width <= MAX_IMAGE_EXTENT and 0 < height <= MAX_IMAGE_EXTENT
    ):
        raise ValueError(f"extent {width!r}x{height!r} outside 1..{MAX_IMAGE_EXTENT}")


def _check_ints(values: Sequence[Any], what: str) -> None:
    """Raise ``ValueError`` naming the first of ``values`` whose type is not ``int``."""
    if operator.countOf(map(type, values), int) < len(values):
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{what} must be int, got {bad!r}")


def _repeated(values: Iterable[Any]) -> Any:
    """The first of ``values`` equal to an earlier one, or ``None``."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


def size_class(area: float) -> str:
    """Size class of a box area in square pixels.

    large: >= 2048, medium: >= 144, small: >= 11, tiny: below 11.
    """
    if not area > 0:
        raise ValueError(f"area must be positive: {area!r}")
    if area >= 2048:
        return "large"
    if area >= 144:
        return "medium"
    if area >= 11:
        return "small"
    return "tiny"


@dataclass(frozen=True)
class ObjectInstance:
    """One object: scene-unique id, category index, oriented box.

    ``score`` is the detection confidence of a predicted object and stays
    ``None`` on ground truth.  An id or category whose type is not ``int``
    is a ``ValueError``.
    """

    id: int
    category: int
    box: OrientedBox
    truncated: bool = False
    score: float | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        if not type(self.id) is type(self.category) is int:
            _check_ints((self.id, self.category), "object id and category")


@dataclass(frozen=True)
class RelationTriplet:
    """Directed relation (subject, predicate, object) between object ids.

    ``score`` is the confidence of a predicted relation and stays ``None``
    on ground truth.
    """

    subject: int
    predicate: int
    object: int
    score: float | None = None


@dataclass(frozen=True, init=False)
class RelationColumns:
    """A scene's relations as four aligned tuples: subject and object ids,
    predicates, and scores (``None`` on ground truth).

    It is the one form in which a scene takes and stores its relations;
    iteration is a read-only view of :class:`RelationTriplet` rows, which
    acceptance criterion 09 reads.  Any iterable is stored as a tuple; an
    id or predicate whose type is not ``int`` is a ``ValueError``.
    """

    subjects: tuple[int, ...]
    predicates: tuple[int, ...]
    objects: tuple[int, ...]
    scores: tuple[float | None, ...]

    def __init__(
        self,
        subjects: Iterable[int] = (),
        predicates: Iterable[int] = (),
        objects: Iterable[int] = (),
        scores: Iterable[float | None] = (),
    ) -> None:
        columns = (tuple(subjects), tuple(predicates), tuple(objects), tuple(scores))
        if not len(columns[0]) == len(columns[1]) == len(columns[2]) == len(columns[3]):
            raise ValueError(
                f"relation columns differ in length: {', '.join(str(len(c)) for c in columns)}"
            )
        _check_ints(columns[0] + columns[1] + columns[2], "relation ids and predicates")
        set_field = object.__setattr__
        set_field(self, "subjects", columns[0])
        set_field(self, "predicates", columns[1])
        set_field(self, "objects", columns[2])
        set_field(self, "scores", columns[3])

    def __len__(self) -> int:
        return len(self.predicates)

    def __iter__(self) -> Iterator[RelationTriplet]:
        return map(RelationTriplet, self.subjects, self.predicates, self.objects, self.scores)


# The columns of a scene without relations, shared: they never change.
NO_RELATIONS = RelationColumns()


@dataclass(frozen=True)
class Detection:
    """A scored box hypothesis of one category."""

    box: OrientedBox
    category: int
    score: float


def _rank(scores: Sequence[float | None]) -> list[int]:
    """Positions of ``scores`` by descending score, ties in input order; a
    missing or non-finite score is a ``ValueError``."""
    for score in scores:
        if score is None or not math.isfinite(score):
            raise ValueError(f"non-finite detection score: {score!r}")
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)


@dataclass(frozen=True)
class SceneAnnotation:
    """All annotations, or all predictions, of a single image.

    ``objects`` is stored as a tuple; ``relations`` must be
    :class:`RelationColumns`, else a ``TypeError``.  ``relation_endpoints``
    holds the positions in ``objects`` of each relation's subject and
    object, in relation order, resolved once as the scene is built.  An
    empty or non-``str`` id, a bad extent, a repeated object id or a bad
    relation (see the module docstring) is a :class:`DataError` when the
    scene is built, ``dataclasses.replace`` included.
    """

    image_id: str
    width: int
    height: int
    objects: tuple[ObjectInstance, ...]
    relations: RelationColumns
    relation_endpoints: tuple[list[int], list[int]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if type(self.image_id) is not str or not self.image_id:
            raise DataError(f"image id {self.image_id!r} is not a non-empty string")
        try:
            _check_extent(self.width, self.height)
        except ValueError as exc:
            raise DataError(f"image {self.image_id!r}: {exc}") from None
        objects = tuple(self.objects)
        object.__setattr__(self, "objects", objects)
        position = {obj.id: k for k, obj in enumerate(objects)}
        if len(position) < len(objects):
            raise DataError(
                f"image {self.image_id!r}: object id "
                f"{_repeated(obj.id for obj in objects)} names two objects"
            )
        rel = self.relations
        if type(rel) is not RelationColumns:
            raise TypeError(f"relations must be RelationColumns, got {type(rel).__name__}")
        try:
            endpoints = (
                list(map(position.__getitem__, rel.subjects)),
                list(map(position.__getitem__, rel.objects)),
            )
            valid = all(map(operator.ne, rel.subjects, rel.objects))
        except KeyError:
            valid = False
        if not valid:
            for s, o in zip(rel.subjects, rel.objects):
                for x in (s, o):
                    if x not in position:
                        raise DataError(
                            f"image {self.image_id!r}: relation {s}->{o} "
                            f"references missing object id {x}"
                        )
                if s == o:
                    raise DataError(f"image {self.image_id!r}: object {s} relates to itself")
        object.__setattr__(self, "relation_endpoints", endpoints)

    @_cached
    def box_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The objects' box ``params`` as an (n, 5) and their ``extent`` as
        an (n, 4) float64 array, in object order, built once per scene."""
        boxes = [obj.box for obj in self.objects]
        return (
            np.array([box.params for box in boxes], dtype=np.float64).reshape(-1, 5),
            np.array([box.extent for box in boxes], dtype=np.float64).reshape(-1, 4),
        )

    @_cached
    def x_index(self) -> tuple[list[float], list[int], float]:
        """The objects' ``xmin`` ascending, their positions in that order
        (ties in object order) and the widest ``xmax - xmin``, built once."""
        extents = [obj.box.extent for obj in self.objects]
        xmins = [e[0] for e in extents]
        order = sorted(range(len(xmins)), key=xmins.__getitem__)
        widest = max([e[2] - e[0] for e in extents], default=0.0)
        return [xmins[k] for k in order], order, widest


@dataclass(frozen=True)
class Dataset:
    """A split worth of scenes sharing one category registry.

    ``scenes`` is stored as a tuple.  A split outside ``SPLITS``, an image
    id named by two scenes, or a scene with a category or predicate outside
    ``registry`` (see :func:`check_indices`), is a :class:`DataError` when
    the dataset is built, ``dataclasses.replace`` included.
    """

    registry: CategoryRegistry
    split: str
    scenes: tuple[SceneAnnotation, ...]

    def __post_init__(self) -> None:
        _check_split(self.split)
        scenes = tuple(self.scenes)
        object.__setattr__(self, "scenes", scenes)
        if len({scene.image_id for scene in scenes}) < len(scenes):
            raise DataError(
                f"image id {_repeated(scene.image_id for scene in scenes)!r} names two scenes"
            )
        for scene in scenes:
            check_indices(scene, self.registry.num_objects, self.registry.num_relations)


def _check_split(split: str) -> None:
    """Raise :class:`DataError` unless ``split`` is one of ``SPLITS``."""
    if split not in SPLITS:
        raise DataError(f"split {split!r} is not one of {', '.join(SPLITS)}")


def check_indices(scene: SceneAnnotation, num_objects: int, num_relations: int) -> None:
    """Raise :class:`DataError` at the first object category or predicate
    outside a table of ``num_objects`` classes and ``num_relations`` predicates."""
    for obj in scene.objects:
        if not 0 <= obj.category < num_objects:
            raise DataError(
                f"image {scene.image_id!r}: object {obj.id} has category "
                f"{obj.category}, outside the registry's {num_objects} classes"
            )
    rel = scene.relations
    if rel.predicates and not (
        0 <= min(rel.predicates) and max(rel.predicates) < num_relations
    ):
        for s, p, o in zip(rel.subjects, rel.predicates, rel.objects):
            if not 0 <= p < num_relations:
                raise DataError(
                    f"image {scene.image_id!r}: relation {s}->{o} has predicate {p}, "
                    f"outside the registry's {num_relations} predicates"
                )


@dataclass(frozen=True)
class Violation:
    """A single validation finding; ``code`` is machine-matchable."""

    code: str
    image_id: str
    detail: str


def validate(dataset: Dataset) -> list[Violation]:
    """Check every type invariant; an empty list means the dataset is clean.

    Codes: NEGATIVE_OBJECT_ID, DEGENERATE_BOX, VERTEX_ORDER, BOX_BOUNDS,
    DUPLICATE_TRIPLET.  A vertex loop's winding is taken relative to its
    first vertex, so where a box sits does not change its code; a loop that
    encloses no area is DEGENERATE_BOX rather than VERTEX_ORDER.  A parsed
    box can be one: the rectangle check's tolerances are absolute, so a
    quad with sides below about 1e-6 px passes it whatever its shape.  The
    split, extents, repeated image and object ids, relation endpoints,
    categories and predicates have no code: a :class:`SceneAnnotation` or
    :class:`Dataset` with one wrong cannot be built.
    """
    violations: list[Violation] = []
    for scene in dataset.scenes:
        img = scene.image_id
        slack = BOUNDS_SLACK * max(scene.width, scene.height)
        lo_x, hi_x = -slack, scene.width + slack
        lo_y, hi_y = -slack, scene.height + slack
        for obj in scene.objects:
            if obj.id < 0:
                violations.append(
                    Violation("NEGATIVE_OBJECT_ID", img, f"object id {obj.id}")
                )
            winding = _winding(obj.box.vertices)
            if winding == 0.0:
                violations.append(
                    Violation("DEGENERATE_BOX", img, f"object {obj.id}: no enclosed area")
                )
            elif not winding > 0.0:
                violations.append(
                    Violation(
                        "VERTEX_ORDER",
                        img,
                        f"object {obj.id}: counter-clockwise vertex loop",
                    )
                )
            for x, y in obj.box.vertices:
                if not (lo_x <= x <= hi_x and lo_y <= y <= hi_y):
                    violations.append(
                        Violation(
                            "BOX_BOUNDS",
                            img,
                            f"object {obj.id}: vertex ({x}, {y}) outside slack bounds",
                        )
                    )
                    break
        seen_triplets: set[tuple[int, int, int]] = set()
        rel = scene.relations
        for key in zip(rel.subjects, rel.predicates, rel.objects):
            if key in seen_triplets:
                violations.append(
                    Violation("DUPLICATE_TRIPLET", img, f"triplet {key} repeated")
                )
            seen_triplets.add(key)
    return violations


# --- parsing -------------------------------------------------------------


def _expect(value: Any, kind: type, path: str) -> Any:
    if kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                raise ManifestError(f"{path}: integer too large for a float") from None
        raise ManifestError(f"{path}: expected number, got {value!r}")
    if kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ManifestError(f"{path}: expected integer, got {value!r}")
    if not isinstance(value, kind):
        raise ManifestError(
            f"{path}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _get(mapping: Any, key: str, kind: type, path: str) -> Any:
    _expect(mapping, dict, path)
    if key not in mapping:
        raise ManifestError(f"{path}: missing required field {key!r}")
    return _expect(mapping[key], kind, f"{path}.{key}")


def _parse_names(raw: Any, key: str) -> tuple[str, ...]:
    items = _get(raw, key, list, "$")
    for i, name in enumerate(items):
        if type(name) is not str:
            _expect(name, str, f"$.{key}[{i}]")
    return tuple(items)


def _parse_box(raw: Any, path: str) -> OrientedBox:
    """The box of the ``obb`` field of object ``raw`` at ``path``."""
    pts = _get(raw, "obb", list, path)
    path = f"{path}.obb"
    if len(pts) != 4:
        raise ManifestError(f"{path}: expected 4 vertices, got {len(pts)}")
    coords = []
    for i, pt in enumerate(pts):
        pair = _expect(pt, list, f"{path}[{i}]")
        if len(pair) != 2:
            raise ManifestError(f"{path}[{i}]: expected [x, y]")
        x = _expect(pair[0], float, f"{path}[{i}][0]")
        y = _expect(pair[1], float, f"{path}[{i}][1]")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ManifestError(f"{path}[{i}]: non-finite coordinate")
        coords.append((x, y))
    try:
        return OrientedBox.from_vertices(coords)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def _parse_header(root: Any) -> tuple[str, CategoryRegistry]:
    version = _get(root, "version", str, "$")
    if version != MANIFEST_VERSION:
        raise ManifestError(f"$.version: unsupported version {version!r}")
    split = _get(root, "split", str, "$")
    object_names = _parse_names(root, "object_categories")
    relation_names = _parse_names(root, "relation_categories")
    try:
        registry = CategoryRegistry(object_names, relation_names)
    except ValueError as exc:
        raise ManifestError(f"$: bad category lists: {exc}") from None
    return split, registry


def _load_root(data: str | bytes) -> Any:
    """The decoded JSON document of a manifest, prediction or model file.

    Bytes that are not UTF-8, malformed JSON and nesting too deep to decode
    all raise :class:`ManifestError`.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ManifestError("invalid JSON: nested too deeply") from None


def _parse_score(raw: Any, path: str, image_id: str) -> float:
    score = _get(raw, "score", float, path)
    if not math.isfinite(score):
        raise ManifestError(f"{path}.score: non-finite score (image {image_id!r})")
    return score


def _scores(records: list[Any], scored: bool) -> Sequence[float | None]:
    """The ``score`` of each of ``records``, or ``None`` each without
    ``scored``.  An exact ``int`` score becomes a ``float``; one too large
    for a float is an ``OverflowError``, any other type a ``TypeError`` and
    a score that is not finite a ``ValueError``."""
    if not scored:
        return (None,) * len(records)
    scores = [record["score"] for record in records]
    if operator.countOf(map(type, scores), float) != len(scores):
        if not set(map(type, scores)) <= {int, float}:
            raise TypeError("a score is not a number")
        scores = list(map(float, scores))
    if all(map(math.isfinite, scores)):
        return scores
    raise ValueError("a score is not finite")


def _walk_scene(raw: Any, i: int, scored: bool) -> SceneAnnotation:
    """Scene ``i`` of a document read field by field, in document order."""
    path = f"$.images[{i}]"
    image_id = _get(raw, "id", str, path)
    width = _get(raw, "width", int, path)
    height = _get(raw, "height", int, path)
    objects = []
    for j, raw_obj in enumerate(_get(raw, "objects", list, path)):
        item = f"{path}.objects[{j}]"
        obj_id = _get(raw_obj, "id", int, item)
        category = _get(raw_obj, "category", int, item)
        box = _parse_box(raw_obj, item)
        truncated = _expect(raw_obj.get("truncated", False), bool, f"{item}.truncated")
        score = _parse_score(raw_obj, item, image_id) if scored else None
        objects.append(ObjectInstance(obj_id, category, box, truncated, score=score))
    rows = []
    for j, raw_rel in enumerate(_get(raw, "relations", list, path)):
        item = f"{path}.relations[{j}]"
        ids = [_get(raw_rel, key, int, item) for key in ("subject", "predicate", "object")]
        rows.append((*ids, _parse_score(raw_rel, item, image_id) if scored else None))
    relations = RelationColumns(*zip(*rows)) if rows else NO_RELATIONS
    return SceneAnnotation(image_id, width, height, tuple(objects), relations)


def _parse_scene(raw: Any, i: int, scored: bool) -> SceneAnnotation:
    """Scene ``i`` of a document on the fast path, or on a defect by the walk."""
    try:
        image_id, width, height = raw["id"], raw["width"], raw["height"]
        raw_objects, raw_relations = raw["objects"], raw["relations"]
        truncated = [obj.get("truncated", False) for obj in raw_objects]
        if not (type(image_id) is str and type(width) is type(height) is int
                and type(raw_objects) is type(raw_relations) is list
                and operator.countOf(map(type, truncated), bool) == len(truncated)):
            raise TypeError("a scene field has the wrong type")
        objects = tuple([
            ObjectInstance(obj["id"], obj["category"], OrientedBox(obj["obb"]), cut, score=score)
            for obj, cut, score in zip(raw_objects, truncated, _scores(raw_objects, scored))
        ])
        relations = NO_RELATIONS
        if raw_relations:
            ids = [(rel["subject"], rel["predicate"], rel["object"]) for rel in raw_relations]
            relations = RelationColumns(*zip(*ids), _scores(raw_relations, scored))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError):
        return _walk_scene(raw, i, scored)
    return SceneAnnotation(image_id, width, height, objects, relations)


def _parse(data: str | bytes, scored: bool) -> Dataset:
    """Dataset of a manifest, or with ``scored`` of a prediction file.

    The header is read field by field.  Each scene is built straight from
    its fields on a fast path, which checks only what no container owns:
    the scene's ``str`` id, ``int`` extents and ``list`` fields, ``bool``
    truncation and finite scores (JSON integers made floats).  The boxes,
    the ``int`` rule of ids, categories and predicates, and the rules of a
    scene and a dataset are left to the containers it builds.  Any defect
    makes the fast path raise, and the scene is read again by
    ``_walk_scene`` with ``_get``, ``_expect``, ``_parse_box`` and
    ``_parse_score``, which raise the located :class:`ManifestError` of the
    first defect in document order.
    """
    root = _load_root(data)
    split, registry = _parse_header(root)
    images = enumerate(_get(root, "images", list, "$"))
    return Dataset(registry, split, tuple([_parse_scene(raw, i, scored) for i, raw in images]))


def parse_dataset(data: str | bytes, check: bool = True) -> Dataset:
    """Parse a manifest document.

    Args:
        data: JSON text or UTF-8 bytes.
        check: run :func:`validate` on the result and reject violations.

    Raises:
        ManifestError: malformed syntax, a non-rectangular box or, with
            ``check``, any validation violation.
        DataError: a rule of :class:`SceneAnnotation` or :class:`Dataset`
            (see the module docstring), as the scenes and dataset are built.
    """
    dataset = _parse(data, scored=False)
    if check:
        violations = validate(dataset)
        if violations:
            head = "; ".join(
                f"{v.code}[{v.image_id}]: {v.detail}" for v in violations[:5]
            )
            raise ManifestError(
                f"manifest has {len(violations)} validation violation(s): {head}"
            )
    return dataset


def parse_predictions(data: str | bytes) -> Dataset:
    """Parse a prediction file: the manifest skeleton with a finite score
    on every object and relation.

    Raises:
        ManifestError: as :func:`parse_dataset` without ``check``, and for
            a missing or non-finite score.
        DataError: as :func:`parse_dataset`.
    """
    return _parse(data, scored=True)


# --- serialization -------------------------------------------------------

# ``json.dumps`` writes a float through ``float.__repr__`` (float subclasses
# included), which never puts an "n" in a finite float; "nan", "inf" and
# "-inf" each have one and are written NaN, Infinity and -Infinity.
_float_repr = float.__repr__
_dumps = json.dumps
_SCORE_FIELD = ',"score":'


def _number_text(value: Any) -> str:
    """``value`` as ``json.dumps`` writes it, through ``float.__repr__``
    for a finite float."""
    try:
        text = _float_repr(value)
        if "n" not in text:
            return text
    except TypeError:
        pass
    return _dumps(value)


def _box_text(box: OrientedBox) -> str:
    """A box's vertices as JSON; a box holds only finite floats."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = box.vertices
    return (
        f"[[{_float_repr(x1)},{_float_repr(y1)}],[{_float_repr(x2)},{_float_repr(y2)}],"
        f"[{_float_repr(x3)},{_float_repr(y3)}],[{_float_repr(x4)},{_float_repr(y4)}]]"
    )


def _scene_text(scene: SceneAnnotation) -> str:
    objects = []
    for obj in scene.objects:
        truncated = "true" if obj.truncated else "false"
        score = "" if obj.score is None else f',"score":{_number_text(obj.score)}'
        objects.append(
            f'{{"id":{obj.id},"category":{obj.category},"obb":{_box_text(obj.box)},'
            f'"truncated":{truncated}{score}}}'
        )
    rel = scene.relations
    try:  # one pass when every score is a finite float, as in a prediction file
        scores = map(_float_repr, rel.scores)
        relations = ",".join([
            f'{{"subject":{s},"predicate":{p},"object":{o},"score":{t}}}'
            for s, p, o, t in zip(rel.subjects, rel.predicates, rel.objects, scores)
        ])
        one_pass = "n" not in relations  # a nan or inf score: no key or int has an "n"
    except TypeError:  # an int or None score
        one_pass = False
    if not one_pass:
        relations = ",".join([
            f'{{"subject":{s},"predicate":{p},"object":{o}'
            f'{"" if score is None else _SCORE_FIELD + _number_text(score)}}}'
            for s, p, o, score in zip(rel.subjects, rel.predicates, rel.objects, rel.scores)
        ])
    return (
        f'{{"id":{_dumps(scene.image_id)},"width":{scene.width},'
        f'"height":{scene.height},"objects":[{",".join(objects)}],'
        f'"relations":[{relations}]}}'
    )


def serialize_dataset(dataset: Dataset) -> str:
    """Manifest or prediction-file JSON; deterministic byte-for-byte.

    Scores are written wherever they are set.  The text is written
    directly, with no dict per record.  For fields of the declared types
    (``int`` ids, categories, predicates and extents, ``bool`` truncation,
    ``int`` or ``float`` scores, ``str`` names) it is
    byte-identical to ``json.dumps(doc, separators=(",", ":"))`` of the
    nested-dict document.
    """
    names = _dumps(
        {
            "object_categories": list(dataset.registry.object_names),
            "relation_categories": list(dataset.registry.relation_names),
        },
        separators=(",", ":"),
    )
    scenes = ",".join(_scene_text(scene) for scene in dataset.scenes)
    return (
        f'{{"version":{_dumps(MANIFEST_VERSION)},"split":{_dumps(dataset.split)},'
        f'{names[1:-1]},"images":[{scenes}]}}'
    )
