"""Seeded inputs of the benchmark workloads.

Each workload is a ground-truth manifest ``gt.json`` plus a jittered
prediction file ``pred_jitter.json`` that feeds ``eval-det`` and
``eval-sgg --task sgdet``.  Everything is drawn from the ``--seed``
argument; the same seed writes the same bytes.

``many-small`` uses ``obsg.synth`` with its defaults, except that every
object count from 2 to 8 gets the same number of scenes: its 112 scenes
average the seed-to-seed spread of the class draws away.  ``large-sgdet``
puts 64 objects in one scene, where those draws would move the work of the
matching stages by a quarter from one seed to the next.  Its scene is
therefore laid out here on a full grid, with a checkerboard of classes and
relations between grid neighbours, and only the geometry follows the seed.

Run as a script, it writes one workload's inputs into a directory and
prints one JSON line with the seconds that took, importing obsg included,
and the sha256 of each file::

    python3 perfbench/inputs.py --workload large-sgdet --seed 1 --out DIR
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Shapes of the workloads; ``tiny`` overrides them for the smoke test.
WORKLOADS = {
    "many-small": {
        "layout": "synth",
        "images": 112,
        "min_objects": 2,
        "max_objects": 8,
        "size": 1024,
        "distractors": 4,
        "tiny": {"images": 21},
    },
    "large-sgdet": {
        "layout": "grid",
        "images": 1,
        "objects": 64,
        "size": 6000,
        "classes": 2,
        "distractors": 4,
        "tiny": {"images": 1, "objects": 30, "size": 2000},
    },
}

# Box sides of the grid scenes.  The synth defaults are 8 to 96 px; grid
# boxes are at least 24 px a side, so the prediction jitter below keeps every
# box above IoU 0.5 with its ground truth and every seed matches all ground
# truth.  With 8 px sides the jitter left 0 to 19 ground-truth relations
# unmatched, each of which sgdet matching scans again for every later
# prediction: one seed made 40% more IoU calls than another.
MIN_SIDE, MAX_SIDE = 24.0, 96.0
# Centers keep this far from their grid cell's edge, so two centers are at
# least 50 px apart.  Boxes with sides up to 96 px then never reach IoU 0.5
# with each other, and tiling followed by NMS must give every box back once.
CELL_MARGIN = 25.0
# Jitter of the prediction boxes: center sigma in px, side scale range,
# angle sigma in radians, and the object score range.
CENTER_SIGMA, SIDE_SCALE, ANGLE_SIGMA, SCORE_RANGE = 2.0, (0.93, 1.07), 0.05, (0.3, 1.0)


def shape_of(workload: str, tiny: bool = False) -> dict:
    shape = {k: v for k, v in WORKLOADS[workload].items() if k != "tiny"}
    if tiny:
        shape.update(WORKLOADS[workload]["tiny"])
    return shape


def _grid_scene(rng, image_id: str, shape: dict, spatial: list[int], num_classes: int):
    from obsg.geometry import OrientedBox

    n, size, k = shape["objects"], shape["size"], shape["classes"]
    side = math.ceil(math.sqrt(n))
    cell = size / side
    cells = sorted(int(c) for c in rng.permutation(side * side)[:n])
    objects, index_of = [], {}
    for index, c in enumerate(cells):
        row, col = divmod(c, side)
        w, h = rng.uniform(MIN_SIDE, MAX_SIDE, 2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        radius = math.hypot(w, h) / 2.0
        cx = rng.uniform(
            max(col * cell + CELL_MARGIN, radius),
            min((col + 1) * cell - CELL_MARGIN, size - radius),
        )
        cy = rng.uniform(
            max(row * cell + CELL_MARGIN, radius),
            min((row + 1) * cell - CELL_MARGIN, size - radius),
        )
        box = OrientedBox.from_params(cx, cy, float(w), float(h), theta)
        objects.append(
            {
                "id": index,
                # A checkerboard of classes: on a full grid every seed gives
                # the same count of each class and of each class pair below.
                "category": (row + col) % k,
                "obb": [list(v) for v in box.vertices],
                "truncated": False,
            }
        )
        index_of[(row, col)] = index
    # Each object relates to its right and lower grid neighbours, with a
    # predicate fixed by the class pair, so the prior can learn the predicate
    # and the linear scorer the distance.
    relations = []
    for (row, col), i in index_of.items():
        for j in (index_of.get((row, col + 1)), index_of.get((row + 1, col))):
            if j is None:
                continue
            a, b = objects[i]["category"], objects[j]["category"]
            relations.append(
                {"subject": i, "predicate": spatial[(a * num_classes + b) % len(spatial)], "object": j}
            )
    return {"id": image_id, "width": size, "height": size, "objects": objects, "relations": relations}


def ground_truth(workload: str, seed: int, tiny: bool = False) -> str:
    """Manifest text of a workload's ground truth."""
    import numpy as np
    from obsg.datamodel import serialize_dataset
    from obsg.registry import SPATIAL, canonical_registry
    from obsg.synth import SynthConfig, generate

    shape = shape_of(workload, tiny)
    registry = canonical_registry()
    if shape["layout"] == "synth":
        # One synth run per object count, interleaved, so that every seed
        # gives the same number of scenes of each size.
        counts = range(shape["min_objects"], shape["max_objects"] + 1)
        runs = []
        for index, n in enumerate(counts):
            config = SynthConfig(
                n_images=shape["images"] // len(counts),
                seed=seed * len(counts) + index,
                image_size=shape["size"],
                min_objects=n,
                max_objects=n,
            )
            runs.append(json.loads(serialize_dataset(generate(config))))
        doc = runs[0]
        doc["images"] = [scene for group in zip(*(r["images"] for r in runs)) for scene in group]
        for index, scene in enumerate(doc["images"]):
            scene["id"] = f"synth-{index:06d}"
        return json.dumps(doc, separators=(",", ":"))
    rng = np.random.default_rng([seed, 0])
    spatial = [i for i, kind in enumerate(registry.relation_kinds) if kind == SPATIAL]
    doc = {
        "version": "1.0",
        "split": "train",
        "object_categories": list(registry.object_names),
        "relation_categories": list(registry.relation_names),
        "images": [
            _grid_scene(rng, f"{workload}-{i:04d}", shape, spatial, registry.num_objects)
            for i in range(shape["images"])
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def jittered_predictions(gt_text: str, seed: int, distractors: int) -> str:
    """Prediction file: every ground-truth box jittered and scored, every
    ground-truth relation, and up to ``distractors`` wrong triplets per
    ground-truth relation that swap the object for another of its class."""
    import numpy as np
    from obsg.geometry import OrientedBox

    rng = np.random.default_rng([seed, 1])
    doc = json.loads(gt_text)
    for scene in doc["images"]:
        by_category: dict[int, list[int]] = {}
        category_of = {}
        for obj in scene["objects"]:
            cx, cy, w, h, theta = OrientedBox.from_vertices(obj["obb"]).params
            box = OrientedBox.from_params(
                cx + rng.normal(0.0, CENTER_SIGMA),
                cy + rng.normal(0.0, CENTER_SIGMA),
                w * rng.uniform(*SIDE_SCALE),
                h * rng.uniform(*SIDE_SCALE),
                theta + rng.normal(0.0, ANGLE_SIGMA),
            )
            obj["obb"] = [list(v) for v in box.vertices]
            obj["score"] = float(rng.uniform(*SCORE_RANGE))
            by_category.setdefault(obj["category"], []).append(obj["id"])
            category_of[obj["id"]] = obj["category"]
        truth = scene["relations"]
        used = {(r["subject"], r["predicate"], r["object"]) for r in truth}
        relations = [dict(r, score=float(rng.uniform(0.5, 1.0))) for r in truth]
        for r in truth:
            peers = [
                p for p in by_category[category_of[r["object"]]]
                if p != r["subject"] and (r["subject"], r["predicate"], p) not in used
            ]
            for swap in rng.permutation(peers)[:distractors]:
                used.add((r["subject"], r["predicate"], int(swap)))
                relations.append(
                    {"subject": r["subject"], "predicate": r["predicate"], "object": int(swap),
                     "score": float(rng.uniform(0.0, 1.0))}
                )
        scene["relations"] = relations
    return json.dumps(doc, separators=(",", ":"))


def write_inputs(workload: str, seed: int, out: Path, tiny: bool = False) -> dict[str, str]:
    """Write ``gt.json`` and ``pred_jitter.json``; returns their sha256."""
    gt = ground_truth(workload, seed, tiny)
    pred = jittered_predictions(gt, seed, shape_of(workload, tiny)["distractors"])
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in (("gt.json", gt), ("pred_jitter.json", pred)):
        data = text.encode("utf-8")
        (out / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import obsg  # noqa: F401  (importing obsg is part of set-up)

    digests = write_inputs(args.workload, args.seed, Path(args.out), args.tiny)
    print(json.dumps({"seconds": time.perf_counter() - _STARTED, "sha256": digests}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
