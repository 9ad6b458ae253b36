"""Compare the CLI outputs of two obsg source trees, byte for byte.

    python3 tools/compare_outputs.py BASE_TREE NEW_TREE --workload large-sgdet --seed 1

Each tree is a checkout with ``src/obsg`` and ``perfbench/inputs.py``.  The
workload's inputs (``gt.json`` and ``pred_jitter.json``) are built once per
tree with ``python3 perfbench/inputs.py``; a difference between the two
trees' inputs is reported, and both trees then run on BASE_TREE's inputs.
Every invocation in ``INVOCATIONS`` runs in its own interpreter against
each tree, and a later step reads the earlier outputs of the same tree (for
example ``predict`` reads that tree's ``fit-prior`` output).

Every difference in output sha256, exit code or standard error is printed.
When an output's sha256 differs and both files parse as JSON, an indented
line under it gives the largest absolute and relative difference of their
numbers, and whether everything else (keys, strings, list lengths and order)
is identical.  The exit code is 1 if there is any difference, else 0.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Input files by name, written as JSON into each tree's work directory.
# "rules" holds a distance rule and an IoU rule, so synth exercises both
# conditions; "rules_range" and "rules_pair" are rejected, one for a class
# index out of range and one for a repeated class pair.  "int_gt" is a
# manifest whose coordinates are JSON integers (one box mixes in floats), as
# annotation tools write pixel corners: axis-aligned, 45-degree and 3-4-5
# rotated boxes, one across a tile edge.
FILES = {
    "rules": [
        {"subject": "van", "object": "van", "predicate": "park at", "max_center_distance": 150},
        {"subject": "small car", "object": "van", "predicate": "close to", "min_iou": 0.0},
    ],
    "rules_range": [{"subject": 999, "object": "van", "predicate": "park at"}],
    "rules_pair": [
        {"subject": "van", "object": "road", "predicate": "drive on"},
        {"subject": "van", "object": "road", "predicate": "park at"},
    ],
    "int_gt": {
        "version": "1.0",
        "split": "train",
        "object_categories": ["plane", "ship"],
        "relation_categories": ["near", "beside"],
        "images": [
            {
                "id": "int-1", "width": 1000, "height": 900,
                "objects": [
                    {"id": 0, "category": 0,
                     "obb": [[100, 100], [300, 100], [300, 200], [100, 200]]},
                    {"id": 1, "category": 1,
                     "obb": [[500, 300], [600, 400], [500, 500], [400, 400]]},
                    {"id": 2, "category": 1,
                     "obb": [[350, 600], [450, 600], [450, 650], [350, 650]]},
                    {"id": 3, "category": 0, "truncated": True,
                     "obb": [[700.5, 100], [900, 100], [900, 300.25], [700.5, 300.25]]},
                    {"id": 4, "category": 0,
                     "obb": [[600, 500], [680, 560], [620, 640], [540, 580]]},
                ],
                "relations": [
                    {"subject": 0, "predicate": 0, "object": 1},
                    {"subject": 2, "predicate": 1, "object": 4},
                    {"subject": 1, "predicate": 0, "object": 3},
                ],
            },
            {
                "id": "int-2", "width": 500, "height": 400,
                "objects": [
                    {"id": 7, "category": 1, "obb": [[10, 20], [30, 20], [30, 60], [10, 60]]},
                    {"id": 9, "category": 1, "obb": [[40, 20], [60, 20], [60, 60], [40, 60]]},
                ],
                "relations": [{"subject": 7, "predicate": 1, "object": 9}],
            },
        ],
    },
}


def _scored(doc: dict) -> dict:
    """A copy of ``doc`` that scores its objects and relations with JSON
    integers, 1 and 0 in turn."""
    out = copy.deepcopy(doc)
    for scene in out["images"]:
        for k, record in enumerate(scene["objects"] + scene["relations"]):
            record["score"] = 1 - k % 2
    return out


def _changed(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with ``value`` at the key path ``path``."""
    out = copy.deepcopy(doc)
    *head, last = path
    target = out
    for key in head:
        target = target[key]
    target[last] = value
    return out


# "int_pred" is a valid prediction file of int_gt whose scores are JSON
# integers, which the parser converts to floats.  Each of the others holds
# one defect whose located error names its path: an object id of true, a
# relation subject of 1.0 (which hashes as the id 1) and a truncation of 1.
FILES["int_pred"] = _scored(FILES["int_gt"])
FILES["bool_id_gt"] = _changed(FILES["int_gt"], ("images", 0, "objects", 2, "id"), True)
FILES["float_subject_pred"] = _changed(
    FILES["int_pred"], ("images", 0, "relations", 1, "subject"), 1.0
)
FILES["int_truncated_gt"] = _changed(
    FILES["int_gt"], ("images", 1, "objects", 0, "truncated"), 1
)

# (output name, argv); ``{gt}``, ``{jitter}``, ``{seed}``, ``{<FILES name>}``
# and ``{<name>}`` of an earlier output are substituted, and ``--output`` is
# added.
INVOCATIONS = (
    ("validate.txt", ["validate", "--input", "{gt}"]),
    ("stats.json", ["stats", "--input", "{gt}"]),
    ("stats.csv", ["stats", "--input", "{gt}", "--format", "csv"]),
    ("prior.json", ["fit-prior", "--input", "{gt}"]),
    ("linear.json", ["train-linear", "--input", "{gt}", "--seed", "{seed}", "--epochs", "50"]),
    # A step rate that saturates the softmax after one step: the weights and
    # losses reach about 1e298 without overflowing.
    ("linear_saturated.json", [
        "train-linear", "--input", "{gt}", "--seed", "{seed}", "--epochs", "5", "--lr", "1e300",
    ]),
    ("pred_prior.json", ["predict", "--input", "{gt}", "--prior", "{prior.json}"]),
    # Prior-only predict under each option that changes which relations it
    # emits.
    ("pred_prior_top.json", [
        "predict", "--input", "{gt}", "--prior", "{prior.json}", "--top-m", "30",
    ]),
    ("pred_prior_all.json", [
        "predict", "--input", "{gt}", "--prior", "{prior.json}", "--no-graph-constraint",
    ]),
    # Every predicate score of the top pairs, each gathered from its class
    # pair's row.
    ("pred_prior_top_all.json", [
        "predict", "--input", "{gt}", "--prior", "{prior.json}", "--top-m", "30",
        "--no-graph-constraint",
    ]),
    ("pred_fused.json", [
        "predict", "--input", "{gt}", "--prior", "{prior.json}", "--linear", "{linear.json}",
    ]),
    ("pred_fused_all.json", [
        "predict", "--input", "{gt}", "--prior", "{prior.json}", "--linear", "{linear.json}",
        "--top-m", "30", "--no-graph-constraint",
    ]),
    ("predcls.json", [
        "eval-sgg", "--gt", "{gt}", "--pred", "{pred_prior.json}", "--task", "predcls",
    ]),
    ("sgcls.json", ["eval-sgg", "--gt", "{gt}", "--pred", "{jitter}", "--task", "sgcls"]),
    ("sgdet.json", ["eval-sgg", "--gt", "{gt}", "--pred", "{jitter}", "--task", "sgdet"]),
    ("predcls_all.json", [
        "eval-sgg", "--gt", "{gt}", "--pred", "{pred_fused_all.json}", "--task", "predcls",
        "--no-graph-constraint",
    ]),
    ("sgcls_all.json", [
        "eval-sgg", "--gt", "{gt}", "--pred", "{jitter}", "--task", "sgcls",
        "--no-graph-constraint",
    ]),
    ("sgdet_all.json", [
        "eval-sgg", "--gt", "{gt}", "--pred", "{jitter}", "--task", "sgdet",
        "--no-graph-constraint",
    ]),
    ("det.json", ["eval-det", "--gt", "{gt}", "--pred", "{jitter}"]),
    ("det.csv", ["eval-det", "--gt", "{gt}", "--pred", "{jitter}", "--format", "csv"]),
    # Every object score of a prior-only prediction file is 1.0, so each class
    # ranks on ties alone.
    ("det_prior.json", ["eval-det", "--gt", "{gt}", "--pred", "{pred_prior.json}"]),
    ("det_strict.csv", [
        "eval-det", "--gt", "{gt}", "--pred", "{jitter}", "--iou-threshold", "0.7",
        "--include-empty", "--format", "csv",
    ]),
    # Near-zero IoUs decide the matches.
    ("det_loose.json", [
        "eval-det", "--gt", "{gt}", "--pred", "{jitter}", "--iou-threshold", "0.05",
    ]),
    ("tiled.json", ["tile", "--input", "{gt}"]),
    # Most objects straddle a tile edge on this grid, so the tile box that
    # crop_scene builds only for such an object is built and used.
    ("tiled_200.json", ["tile", "--input", "{gt}", "--size", "200", "--stride", "120"]),
    # Only containment keeps a box.
    ("tiled_contained.json", ["tile", "--input", "{gt}", "--keep-fraction", "1.0"]),
    # Nearly every object that straddles a tile edge is kept.
    ("tiled_200_straddle.json", [
        "tile", "--input", "{gt}", "--size", "200", "--stride", "120", "--keep-fraction", "0.05",
    ]),
    ("hbb.json", ["convert-hbb", "--input", "{gt}"]),
    ("pairs.json", [
        "pairs", "--input", "{gt}", "--max-pos", "4", "--max-neg", "8", "--seed", "{seed}",
    ]),
    ("synth.json", [
        "synth", "--images", "20", "--seed", "{seed}", "--rules", "{rules}",
        "--min-objects", "4", "--max-objects", "12",
    ]),
    # Scenes of 1 to 45 objects (0 to 1,980 pairs): predict packs the small
    # ones into shared pair blocks and splits the large ones by subject rows,
    # which neither workload mixes in one file.
    ("mixed.json", [
        "synth", "--images", "24", "--seed", "{seed}", "--size", "2048",
        "--min-objects", "1", "--max-objects", "45",
    ]),
    ("mixed_prior.json", ["predict", "--input", "{mixed.json}", "--prior", "{prior.json}"]),
    ("mixed_prior_top.json", [
        "predict", "--input", "{mixed.json}", "--prior", "{prior.json}", "--top-m", "30",
    ]),
    ("mixed_fused.json", [
        "predict", "--input", "{mixed.json}", "--prior", "{prior.json}",
        "--linear", "{linear.json}",
    ]),
    ("mixed_fused_top.json", [
        "predict", "--input", "{mixed.json}", "--prior", "{prior.json}",
        "--linear", "{linear.json}", "--top-m", "30",
    ]),
    ("synth_rule_range.json", [
        "synth", "--images", "2", "--seed", "{seed}", "--rules", "{rules_range}",
    ]),
    ("synth_rule_pair.json", [
        "synth", "--images", "2", "--seed", "{seed}", "--rules", "{rules_pair}",
    ]),
    # Integer coordinates, which the parser converts to floats point by point.
    ("int_validate.txt", ["validate", "--input", "{int_gt}"]),
    ("int_stats.json", ["stats", "--input", "{int_gt}"]),
    ("int_prior.json", ["fit-prior", "--input", "{int_gt}"]),
    ("int_tiled.json", ["tile", "--input", "{int_gt}"]),
    ("int_hbb.json", ["convert-hbb", "--input", "{int_gt}"]),
    # Integer scores, which the parser makes floats on its fast path.
    ("int_pred_sgg.json", [
        "eval-sgg", "--gt", "{int_gt}", "--pred", "{int_pred}", "--task", "predcls",
    ]),
    ("int_pred_det.json", ["eval-det", "--gt", "{int_gt}", "--pred", "{int_pred}"]),
    # One defect each: exit code 1 and the located error on stderr.
    ("bool_id_validate.txt", ["validate", "--input", "{bool_id_gt}"]),
    ("float_subject_sgg.json", [
        "eval-sgg", "--gt", "{int_gt}", "--pred", "{float_subject_pred}", "--task", "predcls",
    ]),
    ("int_truncated_validate.txt", ["validate", "--input", "{int_truncated_gt}"]),
)


def _environment(tree: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    # One BLAS thread: both trees sum in the same order, and memory stays small.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def build_inputs(tree: Path, workload: str, seed: int, out: Path) -> dict[str, str]:
    """Write the workload's inputs with ``tree``'s ``perfbench/inputs.py``;
    returns the sha256 of each file it reports."""
    out.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True, cwd=tree, env=_environment(tree), check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"inputs.py failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["sha256"]


def _substitute(arg: str, names: dict[str, str]) -> str:
    for key, value in names.items():
        arg = arg.replace("{" + key + "}", value)
    return arg


def run_invocations(tree: Path, inputs: Path, seed: int, work: Path) -> dict[str, tuple]:
    """Output name -> (exit code, stderr, sha256 of the output or None)."""
    work.mkdir(parents=True)
    names = {
        "gt": str(inputs / "gt.json"),
        "jitter": str(inputs / "pred_jitter.json"),
        "seed": str(seed),
    }
    for name, doc in FILES.items():
        names[name] = str(work / f"{name}.json")
        (work / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    results = {}
    for output, argv in INVOCATIONS:
        path = work / output
        args = [_substitute(arg, names) for arg in argv] + ["--output", str(path)]
        proc = subprocess.run(
            [sys.executable, "-m", "obsg.cli", *args],
            capture_output=True, text=True, cwd=work, env=_environment(tree), check=False,
        )
        # Paths differ between the two work directories; stderr may name them.
        stderr = proc.stderr.replace(str(work), "<work>").replace(str(inputs), "<inputs>")
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        results[output] = (proc.returncode, stderr, digest)
        names[output] = str(path)
    return results


def _split_numbers(value, numbers: list[float]):
    """``value`` with every number replaced by ``None`` and appended to
    ``numbers`` in document order; ``bool`` is not a number here."""
    if isinstance(value, dict):
        return [[key, _split_numbers(item, numbers)] for key, item in value.items()]
    if isinstance(value, list):
        return [_split_numbers(item, numbers) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.append(value)
        return None
    return value


def json_difference(a: Path, b: Path) -> str | None:
    """The numeric and structural comparison of two JSON files, or None
    when either does not parse as JSON."""
    numbers_a: list[float] = []
    numbers_b: list[float] = []
    try:
        shape_a = _split_numbers(json.loads(a.read_bytes()), numbers_a)
        shape_b = _split_numbers(json.loads(b.read_bytes()), numbers_b)
    except (OSError, ValueError):
        return None
    same = shape_a == shape_b
    structure = "identical" if same else "different"
    if not same or len(numbers_a) != len(numbers_b):
        return f"json: non-numeric structure and order {structure}"
    largest_abs = largest_rel = 0.0
    for x, y in zip(numbers_a, numbers_b):
        if x == y:
            continue
        gap = abs(x - y)
        largest_abs = max(largest_abs, gap)
        largest_rel = max(largest_rel, gap / max(abs(x), abs(y)))
    return (
        f"json: {len(numbers_a)} numbers, largest difference {largest_abs:.3g} absolute, "
        f"{largest_rel:.3g} relative; non-numeric structure and order {structure}"
    )


def compare(base: Path, new: Path, workload: str, seed: int, scratch: Path) -> list[str]:
    """Every difference between the two trees, one line each."""
    differences = []
    inputs = scratch / "inputs-base"
    base_inputs = build_inputs(base, workload, seed, inputs)
    new_inputs = build_inputs(new, workload, seed, scratch / "inputs-new")
    for name in sorted(base_inputs.keys() | new_inputs.keys()):
        if base_inputs.get(name) != new_inputs.get(name):
            differences.append(
                f"inputs {name}: sha256 {base_inputs.get(name)} != {new_inputs.get(name)}"
            )
    before = run_invocations(base, inputs, seed, scratch / "base")
    after = run_invocations(new, inputs, seed, scratch / "new")
    for output, _ in INVOCATIONS:
        for field, a, b in zip(("exit code", "stderr", "sha256"), before[output], after[output]):
            if a != b:
                line = f"{output}: {field} {a!r} != {b!r}"
                detail = None
                if field == "sha256" and a is not None and b is not None:
                    detail = json_difference(scratch / "base" / output, scratch / "new" / output)
                differences.append(line if detail is None else f"{line}\n  {detail}")
    return differences


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="source tree of the reference outputs")
    parser.add_argument("new", type=Path, help="source tree to compare with it")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/inputs.py")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        differences = compare(
            args.base.resolve(), args.new.resolve(), args.workload, args.seed, Path(tmp)
        )
    for line in differences:
        print(line)
    print(
        f"{args.workload} seed {args.seed}: {len(INVOCATIONS)} invocations, "
        f"{len(differences)} difference(s)"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
