"""Seeded synthetic scene generator with rule-entailed relations.

Scenes are drawn independently per image from sub-seeds spawned off the
master seed, so the same configuration always reproduces the same dataset
byte for byte.  Object classes follow a Zipf-like distribution over the
registry order (``tail_skew`` steers how heavy the head is).  Relations are
exactly the entailed set: an ordered pair (i, j) carries a triplet iff the
rule table has an entry for its class pair and that rule's geometric
condition holds for the pair.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .datamodel import (
    MAX_IMAGE_EXTENT,
    SPLITS,
    Dataset,
    ObjectInstance,
    RelationColumns,
    SceneAnnotation,
)
from .geometry import OrientedBox, rotated_iou
from .pairing import _check_seed, pair_endpoints
from .registry import CategoryRegistry, canonical_registry


@dataclass(frozen=True)
class Rule:
    """Class-pair rule: relation holds when every stated condition does.

    ``min_iou`` demands the rotated IoU of the two boxes strictly above the
    bound; ``max_center_distance`` demands the distance of their centers
    strictly below the bound.  A rule with neither condition always fires.
    """

    subject: int
    object: int
    predicate: int
    min_iou: float | None = None
    max_center_distance: float | None = None

    def __post_init__(self) -> None:
        for name in ("min_iou", "max_center_distance"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, numbers.Real)
                and not isinstance(value, bool)
                and (isinstance(value, numbers.Integral) or math.isfinite(value))
            ):
                raise ValueError(f"{name}: expected a finite number, got {value!r}")

    def condition(self, subject: OrientedBox, object_: OrientedBox) -> bool:
        if self.min_iou is not None and not rotated_iou(subject, object_) > self.min_iou:
            return False
        if self.max_center_distance is not None:
            scx, scy = subject.params[:2]
            ocx, ocy = object_.params[:2]
            if not math.hypot(scx - ocx, scy - ocy) < self.max_center_distance:
                return False
        return True


def default_rules(registry: CategoryRegistry | None = None) -> tuple[Rule, ...]:
    """A small built-in rule table over the canonical vocabulary."""
    reg = registry or canonical_registry()
    o = reg.object_index
    r = reg.relation_index
    return (
        Rule(o("motorboat"), o("water"), r("sail on")),
        Rule(o("small car"), o("road"), r("drive on")),
        Rule(o("van"), o("parking lot"), r("park at")),
        Rule(o("airplane"), o("runway"), r("taxi on")),
        Rule(o("building"), o("road"), r("close to"), max_center_distance=300.0),
        Rule(o("crane"), o("container"), r("hoist"), min_iou=0.0),
    )


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; every stochastic choice flows from ``seed``."""

    n_images: int
    seed: int
    registry: CategoryRegistry = field(default_factory=canonical_registry)
    rules: tuple[Rule, ...] | None = None
    image_size: int = 1024
    min_objects: int = 2
    max_objects: int = 8
    min_side: float = 8.0
    max_side: float = 96.0
    tail_skew: float = 1.5
    split: str = "train"

    def __post_init__(self) -> None:
        if self.n_images < 0:
            raise ValueError(f"n_images must be >= 0: {self.n_images}")
        _check_seed(self.seed)
        if not 0 < self.image_size <= MAX_IMAGE_EXTENT:
            raise ValueError(
                f"image_size must be in 1..{MAX_IMAGE_EXTENT}: {self.image_size}"
            )
        if not 0 < self.min_objects <= self.max_objects:
            raise ValueError(
                f"need 0 < min_objects <= max_objects:"
                f" {self.min_objects}/{self.max_objects}"
            )
        if not 0 < self.min_side <= self.max_side:
            raise ValueError(
                f"need 0 < min_side <= max_side: {self.min_side}/{self.max_side}"
            )
        if math.hypot(self.max_side, self.max_side) >= self.image_size:
            raise ValueError(
                f"max_side {self.max_side} cannot fit rotated inside"
                f" a {self.image_size} px image"
            )
        if not self.tail_skew >= 0:
            raise ValueError(f"tail_skew must be >= 0: {self.tail_skew}")
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r}")
        rules = default_rules(self.registry) if self.rules is None else self.rules
        seen: set[tuple[int, int]] = set()
        for i, rule in enumerate(rules):
            for kind, index, size in (
                ("object", rule.subject, self.registry.num_objects),
                ("object", rule.object, self.registry.num_objects),
                ("relation", rule.predicate, self.registry.num_relations),
            ):
                if not 0 <= index < size:
                    raise ValueError(f"rules[{i}]: {kind} index {index} out of range")
            key = (rule.subject, rule.object)
            if key in seen:
                raise ValueError(f"rules[{i}]: duplicate rule for class pair {key}")
            seen.add(key)
        object.__setattr__(self, "rules", rules)


def class_weights(num_classes: int, tail_skew: float) -> np.ndarray:
    """Zipf-like sampling weights over registry order; head class first."""
    ranks = np.arange(1, num_classes + 1, dtype=np.float64)
    weights = ranks ** -tail_skew
    return weights / weights.sum()


def _sample_box(rng: np.random.Generator, config: SynthConfig) -> OrientedBox:
    w = float(rng.uniform(config.min_side, config.max_side))
    h = float(rng.uniform(config.min_side, config.max_side))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    # Keep the whole rotated box inside the image regardless of theta.
    radius = math.hypot(w, h) / 2.0
    cx = float(rng.uniform(radius, config.image_size - radius))
    cy = float(rng.uniform(radius, config.image_size - radius))
    return OrientedBox.from_params(cx, cy, w, h, theta)


def _generate_scene(
    image_id: str,
    rng: np.random.Generator,
    config: SynthConfig,
    weights: np.ndarray,
    rule_map: dict[tuple[int, int], Rule],
) -> SceneAnnotation:
    n = int(rng.integers(config.min_objects, config.max_objects + 1))
    classes = rng.choice(config.registry.num_objects, size=n, p=weights)
    objects = tuple(
        ObjectInstance(id=i, category=int(classes[i]), box=_sample_box(rng, config))
        for i in range(n)
    )
    subject_ids, predicates, object_ids = [], [], []
    ii, jj = pair_endpoints(n, np.arange(n * (n - 1)))
    for i, j in zip(ii.tolist(), jj.tolist()):
        rule = rule_map.get((objects[i].category, objects[j].category))
        if rule is not None and rule.condition(objects[i].box, objects[j].box):
            subject_ids.append(i)
            predicates.append(rule.predicate)
            object_ids.append(j)
    return SceneAnnotation(
        image_id=image_id,
        width=config.image_size,
        height=config.image_size,
        objects=objects,
        relations=RelationColumns(
            subject_ids, predicates, object_ids, (None,) * len(predicates)
        ),
    )


def generate(config: SynthConfig) -> Dataset:
    """Deterministic dataset for a configuration; same seed, same bytes."""
    assert config.rules is not None
    rule_map = {(r.subject, r.object): r for r in config.rules}
    weights = class_weights(config.registry.num_objects, config.tail_skew)
    children = np.random.SeedSequence(config.seed).spawn(config.n_images)
    scenes = tuple(
        _generate_scene(
            f"synth-{index:06d}",
            np.random.default_rng(child),
            config,
            weights,
            rule_map,
        )
        for index, child in enumerate(children)
    )
    return Dataset(config.registry, config.split, scenes)
