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

Parsing is strict: ``parse_dataset`` either returns a dataset that passes
``validate`` with zero violations or raises :class:`ManifestError` naming
the offending path.  ``validate`` itself never raises on bad content; it
reports coded violations so programmatically built datasets can be checked.

Parsing makes one fast pass over the decoded JSON (``_parse_fast``): inline
exact-type checks, no path strings, no error text.  At its first failed
check, whatever it is, the located walk (``_parse_located``) re-runs from
the start of the document and raises its :class:`ManifestError`, so every
message is the walk's by construction.  A prediction file must also give
every image a positive extent.  ``serialize_dataset`` writes the document
text directly, with no dict per record, byte-identical to ``json.dumps`` of
the nested dicts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import ManifestError
from .geometry import OrientedBox
from .registry import CategoryRegistry

MANIFEST_VERSION = "1.0"
SPLITS = ("train", "val", "test")

SIZE_CLASS_NAMES = ("large", "medium", "small", "tiny")

# Vertices may exceed the image extent by half its larger side in every
# direction; this tolerates truncation at tile edges.
BOUNDS_SLACK = 0.5


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
    ``None`` on ground truth.
    """

    id: int
    category: int
    box: OrientedBox
    truncated: bool = False
    score: float | None = field(default=None, kw_only=True)


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


@dataclass(frozen=True)
class Detection:
    """A scored box hypothesis of one category."""

    box: OrientedBox
    category: int
    score: float

    def translate(self, dx: float, dy: float) -> "Detection":
        return replace(self, box=self.box.translate(dx, dy))


@dataclass(frozen=True)
class SceneAnnotation:
    """All annotations, or all predictions, of a single image."""

    image_id: str
    width: int
    height: int
    objects: tuple[ObjectInstance, ...]
    relations: tuple[RelationTriplet, ...]


@dataclass(frozen=True)
class Dataset:
    """A split worth of scenes sharing one category registry."""

    registry: CategoryRegistry
    split: str
    scenes: tuple[SceneAnnotation, ...]


@dataclass(frozen=True)
class Violation:
    """A single validation finding; ``code`` is machine-matchable."""

    code: str
    image_id: str | None
    detail: str


def validate(dataset: Dataset) -> list[Violation]:
    """Check every type invariant; an empty list means the dataset is clean.

    Codes: SPLIT_NAME, IMAGE_EXTENT, DUPLICATE_IMAGE_ID, NEGATIVE_OBJECT_ID,
    DUPLICATE_OBJECT_ID, CATEGORY_RANGE, VERTEX_ORDER, BOX_BOUNDS,
    PREDICATE_RANGE, DANGLING_REFERENCE, SELF_RELATION, DUPLICATE_TRIPLET.
    """
    violations: list[Violation] = []
    num_objects = dataset.registry.num_objects
    num_relations = dataset.registry.num_relations
    if dataset.split not in SPLITS:
        violations.append(
            Violation("SPLIT_NAME", None, f"unknown split {dataset.split!r}")
        )
    seen_images: set[str] = set()
    for scene in dataset.scenes:
        img = scene.image_id
        if img in seen_images:
            violations.append(Violation("DUPLICATE_IMAGE_ID", img, "image id reused"))
        seen_images.add(img)
        if scene.width <= 0 or scene.height <= 0:
            violations.append(
                Violation(
                    "IMAGE_EXTENT", img, f"extent {scene.width}x{scene.height}"
                )
            )
            continue
        slack = BOUNDS_SLACK * max(scene.width, scene.height)
        lo_x, hi_x = -slack, scene.width + slack
        lo_y, hi_y = -slack, scene.height + slack
        ids: set[int] = set()
        for obj in scene.objects:
            if obj.id < 0:
                violations.append(
                    Violation("NEGATIVE_OBJECT_ID", img, f"object id {obj.id}")
                )
            if obj.id in ids:
                violations.append(
                    Violation("DUPLICATE_OBJECT_ID", img, f"object id {obj.id} reused")
                )
            ids.add(obj.id)
            if not 0 <= obj.category < num_objects:
                violations.append(
                    Violation(
                        "CATEGORY_RANGE",
                        img,
                        f"object {obj.id}: category {obj.category}",
                    )
                )
            if not obj.box.is_clockwise:
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
        for rel in scene.relations:
            if not 0 <= rel.predicate < num_relations:
                violations.append(
                    Violation("PREDICATE_RANGE", img, f"predicate {rel.predicate}")
                )
            for endpoint in (rel.subject, rel.object):
                if endpoint not in ids:
                    violations.append(
                        Violation(
                            "DANGLING_REFERENCE",
                            img,
                            f"relation references missing object id {endpoint}",
                        )
                    )
            if rel.subject == rel.object:
                violations.append(
                    Violation(
                        "SELF_RELATION", img, f"object id {rel.subject} relates to itself"
                    )
                )
            key = (rel.subject, rel.predicate, rel.object)
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
    names = []
    for i, name in enumerate(items):
        names.append(_expect(name, str, f"$.{key}[{i}]"))
    return tuple(names)


def _parse_box(raw: Any, path: str) -> OrientedBox:
    pts = _expect(raw, list, path)
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
    if split not in SPLITS:
        raise ManifestError(f"$.split: expected one of {SPLITS}, got {split!r}")
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


def _parse_located(root: Any, scored: bool) -> Dataset:
    """Dataset of a decoded manifest, or with ``scored`` of a prediction file,
    checked field by field with the JSON path of every check at hand.

    This is the diagnosis walk: :func:`_parse` runs it only after the fast
    pass has rejected the document, and it raises the located
    :class:`ManifestError` of the first defect.  A prediction file must
    score every object and relation and give the image a positive extent,
    and since it never passes through :func:`validate`, duplicate object
    ids are rejected here.
    """
    split, registry = _parse_header(root)
    scenes = []
    for i, raw_scene in enumerate(_get(root, "images", list, "$")):
        path = f"$.images[{i}]"
        image_id = _get(raw_scene, "id", str, path)
        if not image_id:
            raise ManifestError(f"{path}.id: empty image id")
        width = _get(raw_scene, "width", int, path)
        height = _get(raw_scene, "height", int, path)
        if scored and (width <= 0 or height <= 0):
            raise ManifestError(
                f"{path}: non-positive extent {width}x{height} (image {image_id!r})"
            )
        objects = []
        ids: set[int] = set()
        for j, raw_obj in enumerate(_get(raw_scene, "objects", list, path)):
            opath = f"{path}.objects[{j}]"
            obj_id = _get(raw_obj, "id", int, opath)
            if scored and obj_id in ids:
                raise ManifestError(
                    f"{opath}.id: object id {obj_id} reused (image {image_id!r})"
                )
            category = _get(raw_obj, "category", int, opath)
            if not 0 <= category < registry.num_objects:
                raise ManifestError(
                    f"{opath}.category: index {category} outside registry"
                    f" of {registry.num_objects} (image {image_id!r})"
                )
            box = _parse_box(raw_obj.get("obb"), f"{opath}.obb")
            truncated = raw_obj.get("truncated", False)
            _expect(truncated, bool, f"{opath}.truncated")
            score = _parse_score(raw_obj, opath, image_id) if scored else None
            objects.append(ObjectInstance(obj_id, category, box, truncated, score=score))
            ids.add(obj_id)
        relations = []
        for j, raw_rel in enumerate(_get(raw_scene, "relations", list, path)):
            rpath = f"{path}.relations[{j}]"
            subject = _get(raw_rel, "subject", int, rpath)
            predicate = _get(raw_rel, "predicate", int, rpath)
            obj_ref = _get(raw_rel, "object", int, rpath)
            if not 0 <= predicate < registry.num_relations:
                raise ManifestError(
                    f"{rpath}.predicate: index {predicate} outside registry"
                    f" of {registry.num_relations} (image {image_id!r})"
                )
            for endpoint in (subject, obj_ref):
                if endpoint not in ids:
                    raise ManifestError(
                        f"{rpath}: dangling object id {endpoint} (image {image_id!r})"
                    )
            score = _parse_score(raw_rel, rpath, image_id) if scored else None
            relations.append(RelationTriplet(subject, predicate, obj_ref, score))
        scenes.append(
            SceneAnnotation(image_id, width, height, tuple(objects), tuple(relations))
        )
    return Dataset(registry, split, tuple(scenes))


class _Rejected(Exception):
    """A failed check of the fast pass; :func:`_parse` never lets it out."""


# What the fast pass raises at its first failed check: its own rejection, a
# missing key, an operation on the wrong JSON type, a bad box or category
# list, and an integer beyond float range.
_FAST_FAILURES = (_Rejected, KeyError, TypeError, ValueError, OverflowError)


def _fast_number(value: Any) -> float:
    """``value`` as a float when JSON holds a number there, else rejected."""
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise _Rejected


def _parse_fast(root: Any, scored: bool) -> Dataset:
    """The dataset :func:`_parse_located` builds, from one pass of inline
    exact-type checks that formats no path and no message.

    It makes every check of the walk, and raises one of ``_FAST_FAILURES``
    at the first that fails.  JSON decodes to exact ``dict``, ``list``,
    ``str``, ``int``, ``float`` and ``bool``, so ``type(v) is int`` is the
    walk's integer check, bools excluded.  A box unpacks as four pairs; any
    other shape fails to unpack or leaves a non-number where a coordinate
    belongs.
    """
    if root["version"] != MANIFEST_VERSION or root["split"] not in SPLITS:
        raise _Rejected
    names = []
    for key in ("object_categories", "relation_categories"):
        items = root[key]
        if type(items) is not list or any(type(name) is not str for name in items):
            raise _Rejected
        names.append(tuple(items))
    registry = CategoryRegistry(*names)
    num_objects = registry.num_objects
    num_relations = registry.num_relations
    raw_scenes = root["images"]
    if type(raw_scenes) is not list:
        raise _Rejected
    isfinite = math.isfinite
    from_vertices = OrientedBox.from_vertices
    scenes = []
    for raw_scene in raw_scenes:
        image_id = raw_scene["id"]
        width = raw_scene["width"]
        height = raw_scene["height"]
        raw_objects = raw_scene["objects"]
        raw_relations = raw_scene["relations"]
        if not (
            type(image_id) is str
            and image_id
            and type(width) is int
            and type(height) is int
            and type(raw_objects) is list
            and type(raw_relations) is list
        ):
            raise _Rejected
        if scored and (width <= 0 or height <= 0):
            raise _Rejected
        objects = []
        ids: set[int] = set()
        score = None
        for raw in raw_objects:
            obj_id = raw["id"]
            category = raw["category"]
            if not (type(obj_id) is int and type(category) is int):
                raise _Rejected
            if not 0 <= category < num_objects or (scored and obj_id in ids):
                raise _Rejected
            (x1, y1), (x2, y2), (x3, y3), (x4, y4) = raw.get("obb")
            if not (
                type(x1) is float and type(y1) is float
                and type(x2) is float and type(y2) is float
                and type(x3) is float and type(y3) is float
                and type(x4) is float and type(y4) is float
            ):
                x1, y1, x2, y2, x3, y3, x4, y4 = map(
                    _fast_number, (x1, y1, x2, y2, x3, y3, x4, y4)
                )
            box = from_vertices(((x1, y1), (x2, y2), (x3, y3), (x4, y4)))
            truncated = raw.get("truncated", False)
            if type(truncated) is not bool:
                raise _Rejected
            if scored:
                score = raw["score"]
                if type(score) is not float:
                    score = _fast_number(score)
                if not isfinite(score):
                    raise _Rejected
            objects.append(ObjectInstance(obj_id, category, box, truncated, score=score))
            ids.add(obj_id)
        relations = []
        for raw in raw_relations:
            subject = raw["subject"]
            predicate = raw["predicate"]
            obj_ref = raw["object"]
            if not (
                type(subject) is int
                and type(predicate) is int
                and type(obj_ref) is int
                and 0 <= predicate < num_relations
                and subject in ids
                and obj_ref in ids
            ):
                raise _Rejected
            if scored:
                score = raw["score"]
                if type(score) is not float:
                    score = _fast_number(score)
                if not isfinite(score):
                    raise _Rejected
            relations.append(RelationTriplet(subject, predicate, obj_ref, score))
        scenes.append(
            SceneAnnotation(image_id, width, height, tuple(objects), tuple(relations))
        )
    return Dataset(registry, root["split"], tuple(scenes))


def _parse(data: str | bytes, scored: bool) -> Dataset:
    """Dataset of a manifest, or with ``scored`` of a prediction file.

    The fast pass builds the dataset of every document the walk accepts.
    At its first failed check the walk re-runs from the start of the
    decoded document and raises its located :class:`ManifestError`, so
    messages are the walk's by construction.
    """
    root = _load_root(data)
    try:
        return _parse_fast(root, scored)
    except _FAST_FAILURES:
        pass
    return _parse_located(root, scored)


def parse_dataset(data: str | bytes, check: bool = True) -> Dataset:
    """Parse a manifest document.

    Args:
        data: JSON text or UTF-8 bytes.
        check: run :func:`validate` on the result and reject violations.

    Raises:
        ManifestError: malformed syntax, a structural defect (unknown
            category index, dangling object reference, non-rectangular
            box) or, with ``check``, any validation violation.
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
            a missing or non-finite score, a reused object id or an image
            whose width or height is not positive.
    """
    return _parse(data, scored=True)


# --- serialization -------------------------------------------------------

# ``json.dumps`` writes a float through ``float.__repr__`` (float subclasses
# included), which never puts an "n" in a finite float; "nan", "inf" and
# "-inf" each have one and are written NaN, Infinity and -Infinity.
_float_repr = float.__repr__
_dumps = json.dumps


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
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = box.vertices
    try:
        text = (
            f"[[{_float_repr(x1)},{_float_repr(y1)}],[{_float_repr(x2)},{_float_repr(y2)}],"
            f"[{_float_repr(x3)},{_float_repr(y3)}],[{_float_repr(x4)},{_float_repr(y4)}]]"
        )
        if "n" not in text:
            return text
    except TypeError:
        pass
    # An int or a non-finite coordinate: json.dumps has the rules for it.
    return _dumps([list(p) for p in box.vertices], separators=(",", ":"))


def _scene_text(scene: SceneAnnotation) -> str:
    objects = []
    for obj in scene.objects:
        truncated = "true" if obj.truncated else "false"
        score = "" if obj.score is None else f',"score":{_number_text(obj.score)}'
        objects.append(
            f'{{"id":{obj.id},"category":{obj.category},"obb":{_box_text(obj.box)},'
            f'"truncated":{truncated}{score}}}'
        )
    relations = []
    for rel in scene.relations:
        score = "" if rel.score is None else f',"score":{_number_text(rel.score)}'
        relations.append(
            f'{{"subject":{rel.subject},"predicate":{rel.predicate},'
            f'"object":{rel.object}{score}}}'
        )
    return (
        f'{{"id":{_dumps(scene.image_id)},"width":{scene.width},'
        f'"height":{scene.height},"objects":[{",".join(objects)}],'
        f'"relations":[{",".join(relations)}]}}'
    )


def serialize_dataset(dataset: Dataset) -> str:
    """Manifest or prediction-file JSON; deterministic byte-for-byte.

    Scores are written wherever they are set.  The text is written
    directly, with no dict per record.  For fields of the declared types
    (``int`` ids, categories, predicates and extents, ``bool`` truncation,
    ``int`` or ``float`` coordinates and scores, ``str`` names) it is
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
