"""Category registries for objects and relation predicates.

A registry fixes the integer encoding used throughout manifests, priors and
reports: category indices are positions in these name lists.  The canonical
registry ships 60 object categories and 64 relation predicates; each
predicate is tagged as ``spatial`` (decidable from layout alone) or
``semantic`` by its name, so a name outside the canonical vocabulary is
semantic.  Custom registries of any size are allowed as long as names are
unique and non-empty.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

SPATIAL = "spatial"
SEMANTIC = "semantic"

CANONICAL_OBJECT_NAMES: tuple[str, ...] = (
    "van",
    "small car",
    "building",
    "road",
    "airplane",
    "block",
    "parking lot",
    "motorboat",
    "dump truck",
    "cargo truck",
    "dry cargo ship",
    "runway",
    "container",
    "water",
    "intersection",
    "fishing boat",
    "other vehicle",
    "storage tank",
    "airport",
    "other ship",
    "harbor",
    "engineering ship",
    "tennis court",
    "pool",
    "solar panel",
    "liquid cargo ship",
    "crane",
    "bus",
    "passenger ship",
    "warship",
    "storage tank group",
    "excavator",
    "bridge",
    "tugboat",
    "basketball court",
    "trailer",
    "train carriage",
    "football field",
    "cargo",
    "baseball field",
    "exhaust fan",
    "truck tractor",
    "factory",
    "roundabout",
    "construction site",
    "chimney",
    "stadium",
    "smoke",
    "railway",
    "boarding bridge",
    "farmland",
    "helipad",
    "tractor",
    "greenbelt",
    "control tower",
    "dam",
    "typhoon spiral",
    "typhoon eye",
    "locomotive",
    "gas-station",
)

CANONICAL_RELATION_NAMES: tuple[str, ...] = (
    "park at",
    "park next to",
    "close to",
    "accessible",
    "drive on",
    "moor",
    "serve",
    "parallel",
    "adjacent",
    "sail on",
    "belong to",
    "pile up",
    "inside",
    "cross",
    "supplement",
    "supply",
    "slow",
    "contain",
    "taxi on",
    "cooperate",
    "power",
    "link",
    "preparation",
    "above",
    "hoist",
    "under",
    "ventilate",
    "on",
    "transport",
    "construction",
    "sail by",
    "tow",
    "block",
    "connect",
    "drive away from",
    "enter",
    "away from",
    "dock alone at",
    "park alone at",
    "drive at the same lane",
    "drive at the different lane",
    "typhoon impact",
    "load",
    "pass under",
    "intersect",
    "around",
    "emit",
    "own",
    "stick to",
    "separate",
    "transfer passenger",
    "mirror symmetry",
    "symmetry",
    "converge",
    "border",
    "dock at",
    "support",
    "manage",
    "shuttle",
    "command",
    "dig",
    "cultivate",
    "forest fire",
    "pull",
)

# Predicates decidable from scene layout alone; the remaining 44 are semantic.
_SPATIAL_RELATION_NAMES: frozenset[str] = frozenset(
    {
        "close to",
        "park next to",
        "adjacent",
        "on",
        "above",
        "under",
        "inside",
        "moor",
        "park at",
        "cross",
        "accessible",
        "parallel",
        "enter",
        "around",
        "stick to",
        "mirror symmetry",
        "symmetry",
        "drive at the same lane",
        "drive at the different lane",
        "pass under",
    }
)


@dataclass(frozen=True)
class CategoryRegistry:
    """Ordered category names defining the integer encoding of a dataset."""

    object_names: tuple[str, ...]
    relation_names: tuple[str, ...]

    def __post_init__(self) -> None:
        # A str would split into one-letter names.
        if isinstance(self.object_names, str) or isinstance(self.relation_names, str):
            raise ValueError("category names must be a sequence of str, not a str")
        # Names given as lists are stored as tuples, so equal names compare equal.
        object.__setattr__(self, "object_names", tuple(self.object_names))
        object.__setattr__(self, "relation_names", tuple(self.relation_names))
        for names, label in (
            (self.object_names, "object"),
            (self.relation_names, "relation"),
        ):
            if not names:
                raise ValueError(f"empty {label} name list")
            if any(not isinstance(n, str) or not n for n in names):
                raise ValueError(f"blank {label} name in {names!r}")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {label} names in {names!r}")

    @property
    def relation_kinds(self) -> tuple[str, ...]:
        """Spatial/semantic tag of each predicate, by canonical name lookup."""
        return tuple(
            SPATIAL if n in _SPATIAL_RELATION_NAMES else SEMANTIC for n in self.relation_names
        )

    @property
    def num_objects(self) -> int:
        return len(self.object_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def object_index(self, name: str) -> int:
        try:
            return self.object_names.index(name)
        except ValueError:
            raise KeyError(f"unknown object category: {name!r}") from None

    def relation_index(self, name: str) -> int:
        try:
            return self.relation_names.index(name)
        except ValueError:
            raise KeyError(f"unknown relation category: {name!r}") from None

    def content_hash(self) -> str:
        """Stable hash of the name lists, used to pin fitted models to a registry."""
        payload = json.dumps(
            {"objects": list(self.object_names), "relations": list(self.relation_names)},
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def canonical_registry() -> CategoryRegistry:
    """The built-in 60-object, 64-relation registry (20 spatial predicates)."""
    return CategoryRegistry(
        object_names=CANONICAL_OBJECT_NAMES,
        relation_names=CANONICAL_RELATION_NAMES,
    )
