"""Byte-identity gate: the sha256 of every deterministic CLI output on a
small seeded synthetic set.

The digests pin the exact bytes of manifests, prediction files and reports,
so a change that moves a float bit, a key order or a separator fails here.
``train-linear`` and fused ``predict`` are left out: their bytes depend on
the BLAS build.  When an output is meant to change, regenerate the table
with ``python tests/test_golden_outputs.py`` and say why in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from obsg import OrientedBox, cli, rotated_iou

# Dense enough that every report has misses, ties and several predicates.
RULES = [
    {"subject": "van", "object": "van", "predicate": "park at",
     "max_center_distance": 120},
    {"subject": "van", "object": "building", "predicate": "close to",
     "max_center_distance": 200},
    {"subject": "small car", "object": "van", "predicate": "drive on"},
]

EXPECTED = {
    "det.csv": "0f3e27cfb4db412de9e851464032312bafe59a843d18ab766e41381c9fa74a5f",
    "det.json": "a7a20e0f83f9e44793e53e5c2c63378b186a1121b47510f41675d2bfe153a97f",
    "gt.json": "d9c412cc83e5b82264bdf9979fc34e5fa3bc08853c2cedbaed217dddb4a6f1e8",
    "hbb.json": "f5f20a3ff1047b5ccfe0121a9b46d50a223bfdd989edd9330c4ac370ab90a212",
    "pairs.json": "35f0c65303b7d67428201397621bbf4029988a5cf58ea9958a864c21b93ec128",
    "pred.json": "c71ba28a7dea850d02d84bb9b36589639de43983bb5463c37df636133e4806c3",
    "pred_all.json": "d04cb5c3cd19b5405bf75149edfd7f488963b8787078344d74cceda5ec31461f",
    "predcls.json": "df80a93eee354672e63ef6db8100f597a424fbb3b7df56810d69f82117d80cd8",
    "predcls_all.json": "5feedb00cdf3e8e81409affbc7d130a2c3a6b4cd9046e278df91458c9a30946f",
    "prior.json": "fa34c1c82bf42c522aa21fb00cf22c15a05644abcf86cd0fb92f2d71470c1c51",
    "report.txt": "d73a32f5b1908bee3ba56eae67062ff05a40e097409235e0ed89c3d296700e73",
    "sampled.json": "dd67ec98899f097235fcce638651460b70b752fde23c84adab04224600792307",
    "sgcls.csv": "6266c5926a68fb8c432faf19cab1f1fdfcbb62a4cc14dafe68b3ac0b82061dc5",
    "sgdet.json": "31988c78ae8c0b43a1036fd7ea2034db4a18d533f7ac48ef9fb28321ce433b5d",
    "sgdet_all.json": "901b36f7e74c367bf504df3e80251200ca7b24d1935d928e187f8b849450f916",
    "stats.csv": "ac3198d7f90871616cfd09fef005b0c8b86138b873906be5290ac1a4217bcd0d",
    "stats.json": "08b782dbd00f05f62db2b7b7d6045f77533ec9ca5a1b3fe19b515f4f23cebee7",
    "tiled.json": "0e2f621cb75e8f6483918bf2192b12571693f8b7081b70bdd266e6da8b9b5d7c",
}


def _jitter(pred: Path, out: Path) -> None:
    """Shift every predicted box by an id-dependent offset, vary object
    scores and relabel every sixth object, so sgcls, sgdet and eval-det
    see imperfect detections."""
    doc = json.loads(pred.read_text())
    for scene in doc["images"]:
        for obj in scene["objects"]:
            k = obj["id"]
            dx = ((k * 7) % 5 - 2) * 2.5
            dy = ((k * 3) % 5 - 2) * 1.5
            obj["obb"] = [[x + dx, y + dy] for x, y in obj["obb"]]
            obj["score"] = 0.5 + (k % 5) / 10
            if k % 6 == 5:
                obj["category"] = (obj["category"] + 1) % len(doc["object_categories"])
    out.write_text(json.dumps(doc))


def golden_outputs(work: Path) -> dict[str, str]:
    """Run every covered subcommand in ``work``; name -> sha256 of its output."""
    p = {name: str(work / name) for name in (
        "gt.json", "report.txt", "stats.json", "stats.csv", "prior.json",
        "pred.json", "jitter.json", "predcls.json", "sgcls.csv", "sgdet.json",
        "det.json", "det.csv", "tiled.json", "hbb.json", "pairs.json",
        "sampled.json", "pred_all.json", "predcls_all.json", "sgdet_all.json",
    )}
    gt = p["gt.json"]
    rules = work / "rules.json"
    rules.write_text(json.dumps(RULES))
    runs = [
        ["synth", "--images", "8", "--seed", "13", "--size", "320",
         "--min-objects", "5", "--max-objects", "10", "--rules", str(rules),
         "--output", gt],
        ["validate", "--input", gt, "--output", p["report.txt"]],
        ["stats", "--input", gt, "--output", p["stats.json"]],
        ["stats", "--input", gt, "--format", "csv", "--output", p["stats.csv"]],
        ["fit-prior", "--input", gt, "--alpha", "0.5", "--output", p["prior.json"]],
        ["predict", "--input", gt, "--prior", p["prior.json"],
         "--output", p["pred.json"]],
        None,  # the jittered prediction file is written here
        ["eval-sgg", "--gt", gt, "--pred", p["pred.json"], "--task", "predcls",
         "--k", "5,20,100", "--output", p["predcls.json"]],
        ["eval-sgg", "--gt", gt, "--pred", p["jitter.json"], "--task", "sgcls",
         "--format", "csv", "--output", p["sgcls.csv"]],
        ["eval-sgg", "--gt", gt, "--pred", p["jitter.json"], "--task", "sgdet",
         "--k", "5,20,100", "--output", p["sgdet.json"]],
        ["eval-det", "--gt", gt, "--pred", p["jitter.json"],
         "--output", p["det.json"]],
        ["eval-det", "--gt", gt, "--pred", p["jitter.json"], "--format", "csv",
         "--include-empty", "--output", p["det.csv"]],
        ["tile", "--input", gt, "--size", "200", "--stride", "120",
         "--output", p["tiled.json"]],
        ["convert-hbb", "--input", gt, "--output", p["hbb.json"]],
        ["pairs", "--input", gt, "--output", p["pairs.json"]],
        ["pairs", "--input", gt, "--max-pos", "2", "--max-neg", "3", "--seed", "5",
         "--output", p["sampled.json"]],
        # Every predicate of the 30 most related pairs: many equal scores.
        ["predict", "--input", gt, "--prior", p["prior.json"], "--top-m", "30",
         "--no-graph-constraint", "--output", p["pred_all.json"]],
        ["eval-sgg", "--gt", gt, "--pred", p["pred_all.json"], "--task", "predcls",
         "--no-graph-constraint", "--k", "5,20,100", "--output", p["predcls_all.json"]],
        ["eval-sgg", "--gt", gt, "--pred", p["jitter.json"], "--task", "sgdet",
         "--no-graph-constraint", "--output", p["sgdet_all.json"]],
    ]
    for argv in runs:
        if argv is None:
            _jitter(Path(p["pred.json"]), Path(p["jitter.json"]))
        else:
            assert cli.run(argv) == 0, argv
    return {
        name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for name, path in p.items()
        if name != "jitter.json"
    }


def test_cli_outputs_are_byte_identical(tmp_path):
    assert golden_outputs(tmp_path) == EXPECTED


def test_box_matchers_compute_a_pinned_number_of_ious(tmp_path, monkeypatch):
    """The IoU work of sgdet triplet matching and of detection matching on
    the golden fixture: a change to either matcher that computes more (or
    fewer) IoUs shows here before it shows in a timing."""
    import obsg.metrics

    golden_outputs(tmp_path)
    calls = []

    def counting_iou(a, b):
        calls.append(1)
        return rotated_iou(a, b)

    monkeypatch.setattr(obsg.metrics, "rotated_iou", counting_iou)
    files = ["--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "jitter.json"),
             "--output", str(tmp_path / "count.json")]
    for argv, expected in [
        (["eval-sgg", "--task", "sgdet"], 179),
        (["eval-sgg", "--task", "sgdet", "--no-graph-constraint"], 179),
        (["eval-det"], 146),
    ]:
        calls.clear()
        assert cli.run(argv + files) == 0
        assert len(calls) == expected, argv


def test_tiling_builds_a_pinned_number_of_tile_boxes(tmp_path, monkeypatch):
    """`crop_scene` builds a tile's box only for a tile whose edge some
    object's extent straddles: on the golden fixture all 32 tiles of 200 px
    at stride 120, 104 of the 128 tiles of 100 px and none of the 8
    whole-image tiles."""
    golden_outputs(tmp_path)
    built = []
    axis_aligned = OrientedBox.axis_aligned

    def counting(cls, *extent):
        built.append(extent)
        return axis_aligned(*extent)

    monkeypatch.setattr(OrientedBox, "axis_aligned", classmethod(counting))
    files = ["--input", str(tmp_path / "gt.json"), "--output", str(tmp_path / "count.json")]
    for grid, expected in [(["200", "120"], 32), (["100", "100"], 104), (["320", "320"], 0)]:
        built.clear()
        assert cli.run(["tile", "--size", grid[0], "--stride", grid[1]] + files) == 0
        assert len(built) == expected, grid


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(golden_outputs(Path(tmp)), sys.stdout, indent=4, sort_keys=True)
        print()
