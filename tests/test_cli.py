"""End-to-end CLI runs, in process, against temporary files."""

import argparse
import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from obsg import OrientedBox, cli, parse_dataset, parse_predictions, serialize_dataset
from obsg.registry import canonical_registry
from obsg.scorer import load_scorer
from test_compare_outputs import compare_outputs
from test_golden_outputs import EXPECTED, golden_outputs


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth_manifest(tmp_path, name="gt.json", images=25, seed=41, extra=()):
    path = tmp_path / name
    code = cli.run(
        [
            "synth",
            "--images",
            str(images),
            "--seed",
            str(seed),
            "--output",
            str(path),
            *extra,
        ]
    )
    assert code == 0
    return path


def test_validate_clean_manifest(tmp_path):
    gt = synth_manifest(tmp_path)
    out = tmp_path / "report.txt"
    assert cli.run(["validate", "--input", str(gt), "--output", str(out)]) == 0
    assert out.read_text().rstrip("\n").endswith("0 violations")


def test_validate_reports_violations(tmp_path):
    doc = {
        "version": "1.0",
        "split": "train",
        "object_categories": ["a"],
        "relation_categories": ["r"],
        "images": [
            {
                "id": "i0",
                "width": 100,
                "height": 100,
                "objects": [
                    {
                        "id": 0,
                        "category": 0,
                        # counter-clockwise on screen
                        "obb": [[0, 10], [10, 10], [10, 0], [0, 0]],
                        "truncated": False,
                    }
                ],
                "relations": [],
            }
        ],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "report.txt"
    assert cli.run(["validate", "--input", str(bad), "--output", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert lines[0].startswith("VERTEX_ORDER i0:")
    assert lines[-1] == "1 violations"


def test_validate_lists_dangling_reference(tmp_path, capsys):
    # A dangling or self relation cannot be built into a scene, so validate
    # stops with one error line, as every other command does.
    gt = synth_manifest(tmp_path, images=2, seed=44)
    doc = json.loads(gt.read_text())
    image = doc["images"][1]
    first = image["objects"][0]["id"]
    bad = tmp_path / "bad.json"
    out = tmp_path / "report.txt"
    for target, message in (
        (999, f"relation {first}->999 references missing object id 999"),
        (first, f"object {first} relates to itself"),
    ):
        image["relations"].append({"subject": first, "predicate": 0, "object": target})
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.run(["validate", "--input", str(bad), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: image {image['id']!r}: {message}\n"
        assert not out.exists()
        image["relations"].pop()


def test_commands_reject_dangling_relation(tmp_path, capsys):
    gt = synth_manifest(tmp_path, images=3, seed=45)
    prior = fitted_prior(tmp_path, gt)
    pred = tmp_path / "pred.json"
    assert cli.run(["predict", "--input", str(gt), "--prior", str(prior),
                    "--output", str(pred)]) == 0
    bad_gt, bad_pred = tmp_path / "bad-gt.json", tmp_path / "bad-pred.json"
    for path, bad in ((gt, bad_gt), (pred, bad_pred)):
        doc = json.loads(path.read_text())
        image = doc["images"][0]
        extra = {"subject": 999, "predicate": 0, "object": image["objects"][0]["id"]}
        if path is pred:
            extra["score"] = 0.5
        image["relations"].append(extra)
        bad.write_text(json.dumps(doc))
    capsys.readouterr()
    # Manifest and prediction file alike stop where the parser builds the
    # scene, in eval-det too, which reads no relation.
    message = (
        f"error: image {image['id']!r}: relation 999->{image['objects'][0]['id']} "
        "references missing object id 999"
    )
    for argv in (
        ["stats", "--input", str(bad_gt)],
        ["tile", "--input", str(bad_gt)],
        ["convert-hbb", "--input", str(bad_gt)],
        ["pairs", "--input", str(bad_gt), "--max-pos", "1", "--seed", "1"],
        ["fit-prior", "--input", str(bad_gt)],
        ["train-linear", "--input", str(bad_gt), "--seed", "1", "--epochs", "1"],
        ["predict", "--input", str(bad_gt), "--prior", str(prior)],
        ["eval-det", "--gt", str(bad_gt), "--pred", str(pred)],
        ["eval-sgg", "--gt", str(bad_gt), "--pred", str(pred)],
        ["eval-det", "--gt", str(gt), "--pred", str(bad_pred)],
        ["eval-sgg", "--gt", str(gt), "--pred", str(bad_pred)],
        ["eval-sgg", "--gt", str(gt), "--pred", str(bad_pred), "--task", "sgdet"],
    ):
        assert cli.run(argv + ["--output", str(tmp_path / "out")]) == 1, argv
        assert capsys.readouterr().err.splitlines() == [message], argv
    assert not (tmp_path / "out").exists()


DEEP_JSON = "[" * 200_000 + "]" * 200_000


def test_validate_unparseable_manifest(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    for content in (b"{not json", b'{"version": "1.0\xff"}', DEEP_JSON.encode()):
        bad.write_bytes(content)
        assert cli.run(["validate", "--input", str(bad)]) == 1, content[:20]
        assert "error:" in capsys.readouterr().err


def test_undecodable_model_and_prediction_files_are_data_errors(tmp_path, capsys):
    gt = synth_manifest(tmp_path, images=3, seed=37)
    prior = tmp_path / "prior.json"
    assert cli.run(["fit-prior", "--input", str(gt), "--output", str(prior)]) == 0
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(gt.read_bytes().replace(b'"train"', b'"tr\xe4in"', 1))
    capsys.readouterr()
    assert cli.run(["predict", "--input", str(gt), "--prior", str(deep)]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.run(["eval-sgg", "--gt", str(gt), "--pred", str(latin1)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_input_gives_io_exit_code(tmp_path):
    assert cli.run(["validate", "--input", str(tmp_path / "absent.json")]) == 2
    assert cli.run(["stats", "--input", str(tmp_path / "absent.json")]) == 2


def test_module_entry_point_runs_the_cli(tmp_path):
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "obsg.cli", "validate", "--input", str(tmp_path / "absent.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_unknown_subcommand_and_bad_flags(tmp_path):
    assert cli.run(["no-such-command"]) == 2
    assert cli.run(["synth", "--images", "3"]) == 2  # --seed missing


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The golden fixture's files, plus a linear scorer for fused predict."""
    work = tmp_path_factory.mktemp("golden")
    golden_outputs(work)
    argv = ["train-linear", "--input", str(work / "gt.json"), "--seed", "3",
            "--epochs", "5", "--output", str(work / "linear.json")]
    assert cli.run(argv) == 0
    return work


@pytest.fixture
def parser_builds(monkeypatch):
    """Start without a cached parser; list the prog of every
    ``argparse.ArgumentParser`` constructed from then on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    yield built
    cli._build_parser.cache_clear()


def test_importing_the_cli_builds_no_parser():
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import obsg.cli as c; print(c._build_parser.cache_info().misses)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_one_parser_serves_every_subcommand_in_any_order(golden, tmp_path, parser_builds):
    """Ten pipeline stages on the golden fixture, forward then reversed,
    through one parser: the same bytes both times, equal to the golden
    digests where those exist."""
    w = {name: str(golden / name) for name in
         ("gt.json", "prior.json", "linear.json", "pred.json", "jitter.json")}

    def stages(out):
        return [
            ["validate", "--input", w["gt.json"], "--output", f"{out}/report.txt"],
            ["stats", "--input", w["gt.json"], "--output", f"{out}/stats.json"],
            ["fit-prior", "--input", w["gt.json"], "--alpha", "0.5",
             "--output", f"{out}/prior.json"],
            ["train-linear", "--input", w["gt.json"], "--seed", "3", "--epochs", "5",
             "--output", f"{out}/linear.json"],
            ["predict", "--input", w["gt.json"], "--prior", w["prior.json"],
             "--output", f"{out}/pred.json"],
            ["predict", "--input", w["gt.json"], "--prior", w["prior.json"],
             "--linear", w["linear.json"], "--output", f"{out}/fused.json"],
            ["eval-sgg", "--gt", w["gt.json"], "--pred", w["pred.json"], "--task",
             "predcls", "--k", "5,20,100", "--output", f"{out}/predcls.json"],
            ["eval-sgg", "--gt", w["gt.json"], "--pred", w["jitter.json"], "--task",
             "sgdet", "--k", "5,20,100", "--output", f"{out}/sgdet.json"],
            ["eval-det", "--gt", w["gt.json"], "--pred", w["jitter.json"],
             "--output", f"{out}/det.json"],
            ["tile", "--input", w["gt.json"], "--size", "200", "--stride", "120",
             "--output", f"{out}/tiled.json"],
        ]

    digests = []
    for order, runs in (("forward", stages), ("reverse", lambda out: stages(out)[::-1])):
        out = tmp_path / order
        out.mkdir()
        for argv in runs(out):
            assert cli.run(argv) == 0, argv
        digests.append({path.name: sha256(path) for path in out.iterdir()})
    forward, reverse = digests
    assert len(forward) == 10
    assert forward == reverse
    golden_names = forward.keys() & EXPECTED.keys()
    assert len(golden_names) == 8
    assert {name: forward[name] for name in golden_names} == {
        name: EXPECTED[name] for name in golden_names
    }
    assert forward["linear.json"] == sha256(golden / "linear.json")
    # The top-level parser and one subparser per subcommand, built once.
    assert parser_builds.count("obsg") == 1
    assert len(parser_builds) == 12


def test_reused_parser_answers_each_call_as_a_fresh_one(golden, capsys, parser_builds):
    """No state carries from one call to the next: every call gives the
    exit code, stdout and stderr of the same call on a fresh parser."""
    gt, hbb, tiled = (str(golden / name) for name in ("gt.json", "hbb.json", "tiled.json"))
    pred_all = str(golden / "pred_all.json")
    eval_all = ["eval-sgg", "--gt", gt, "--pred", pred_all, "--task", "predcls"]
    calls = [
        ["stats", "--input", gt, "--input", hbb],
        ["stats", "--input", tiled],
        eval_all + ["--no-graph-constraint"],
        eval_all,
        ["stats", "--input", gt, "--format", "xml"],
        ["stats", "--input", tiled],
        ["--version"],
        ["stats", "--input", tiled],
    ]

    def outcome(argv):
        code = cli.run(argv)
        return (code, *capsys.readouterr())

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    cli._build_parser.cache_clear()
    parser_builds.clear()
    reused = [outcome(argv) for argv in calls]
    assert parser_builds.count("obsg") == 1
    assert reused == fresh
    # The calls themselves differ where their flags do.
    assert isinstance(json.loads(reused[0][1]), list)
    assert isinstance(json.loads(reused[1][1]), dict)
    assert reused[2][1] != reused[3][1]
    code, out, err = reused[4]
    assert (code, out) == (2, "")
    assert err.startswith("usage: obsg stats")
    assert "invalid choice: 'xml'" in err
    assert reused[6][:2] == (0, "obsg 0.1.0\n")


def test_reused_parser_formats_help_at_the_current_width(capsys, monkeypatch, parser_builds):
    def help_at(columns):
        monkeypatch.setenv("COLUMNS", columns)
        assert cli.run(["predict", "--help"]) == 0
        return capsys.readouterr().out

    fresh = {}
    for columns in ("40", "200"):
        cli._build_parser.cache_clear()
        fresh[columns] = help_at(columns)
    assert fresh["40"] != fresh["200"]
    cli._build_parser.cache_clear()
    parser_builds.clear()
    assert [help_at(c) for c in ("40", "200", "40")] == [fresh["40"], fresh["200"], fresh["40"]]
    assert parser_builds.count("obsg") == 1


def jittered_predictions(gt_text, seed):
    """A prediction file drawn as the benchmark draws its own: every box
    redrawn from noisy parameters, and numpy-drawn scores made floats."""
    rng = np.random.default_rng(seed)
    doc = json.loads(gt_text)
    for scene in doc["images"]:
        for obj in scene["objects"]:
            cx, cy, w, h, theta = OrientedBox.from_vertices(obj["obb"]).params
            box = OrientedBox.from_params(
                cx + rng.normal(0.0, 2.0), cy + rng.normal(0.0, 2.0),
                w * rng.uniform(0.9, 1.1), h * rng.uniform(0.9, 1.1), theta + rng.normal(0.0, 0.05),
            )
            obj["obb"] = [list(v) for v in box.vertices]
            obj["score"] = float(rng.uniform(0.3, 1.0))
        scene["relations"] = [
            dict(r, score=float(rng.uniform(0.0, 1.0))) for r in scene["relations"]
        ]
    return json.dumps(doc, separators=(",", ":"))


def test_valid_files_never_take_the_located_walk(golden, tmp_path, monkeypatch):
    """Every file the pipeline writes parses on the fast path alone, and so
    does a manifest of integer coordinates."""
    import obsg.datamodel

    def walk(raw, i, scored):
        raise AssertionError(f"scene {i} took the located walk")

    monkeypatch.setattr(obsg.datamodel, "_walk_scene", walk)
    gt = golden / "gt.json"
    fused = tmp_path / "fused.json"
    assert cli.run(["predict", "--input", str(gt), "--prior", str(golden / "prior.json"),
                    "--linear", str(golden / "linear.json"), "--output", str(fused)]) == 0
    assert parse_dataset(gt.read_text()).scenes
    for pred in (golden / "pred.json", golden / "pred_all.json", fused):
        assert parse_predictions(pred.read_text()).scenes
    assert parse_predictions(jittered_predictions(gt.read_text(), seed=3)).scenes
    assert parse_dataset(json.dumps(compare_outputs.FILES["int_gt"])).scenes


def test_synth_deterministic_and_parseable(tmp_path):
    a = synth_manifest(tmp_path, "a.json", images=10, seed=7)
    b = synth_manifest(tmp_path, "b.json", images=10, seed=7)
    assert a.read_bytes() == b.read_bytes()
    c = synth_manifest(tmp_path, "c.json", images=10, seed=8)
    assert a.read_bytes() != c.read_bytes()
    dataset = parse_dataset(a.read_text())
    assert len(dataset.scenes) == 10


def synth_with_rules(tmp_path, rule):
    rules = tmp_path / "rules.json"
    base = {"subject": "van", "object": "parking lot", "predicate": "park at"}
    rules.write_text(json.dumps([{**base, **rule}]))
    out = tmp_path / "gt.json"
    argv = ["synth", "--images", "20", "--seed", "1", "--min-objects", "6"]
    return cli.run(argv + ["--rules", str(rules), "--output", str(out)]), out


@pytest.mark.parametrize(
    "rule, message",
    [
        ({"min_iou": "0.5"}, "rules[0].min_iou: expected a finite number, got '0.5'"),
        ({"max_center_distance": float("nan")}, "rules[0].max_center_distance: "),
        ({"min_iou": True}, "rules[0].min_iou: expected a finite number, got True"),
        ({"min_IoU": 0.5}, "rules[0]: unknown key 'min_IoU'"),
        ({"subject": 999}, "rules[0]: object index 999 out of range"),
        ({"subject": None}, "rules[0]: expected an object name or index, got None"),
        ({"object": True}, "rules[0]: expected an object name or index, got True"),
        ({"predicate": 1.5}, "rules[0]: expected a relation name or index, got 1.5"),
        ({"predicate": "hover"}, "rules[0]: unknown relation name 'hover'"),
    ],
    ids=[
        "string", "nan", "bool", "unknown-key", "index-out-of-range", "null-class",
        "bool-class", "float-predicate", "unknown-name",
    ],
)
def test_synth_rejects_malformed_rules(tmp_path, capsys, rule, message):
    code, out = synth_with_rules(tmp_path, rule)
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        ({"subject": "van", "object": "road", "predicate": "drive on"},
         "rules file must hold a JSON list"),
        (["van"], "rules[0]: expected an object"),
    ],
    ids=["not-a-list", "entry-not-an-object"],
)
def test_synth_rejects_malformed_rules_file(tmp_path, capsys, content, message):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(content))
    out = tmp_path / "gt.json"
    argv = ["synth", "--images", "2", "--seed", "1", "--rules", str(rules)]
    assert cli.run(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_synth_accepts_class_indices_in_rules(tmp_path):
    registry = canonical_registry()
    indices = {
        "subject": registry.object_index("van"),
        "object": registry.object_index("parking lot"),
        "predicate": registry.relation_index("park at"),
    }
    outputs = []
    for name, rule in (("names", {}), ("indices", indices)):
        (tmp_path / name).mkdir()
        code, out = synth_with_rules(tmp_path / name, rule)
        assert code == 0
        outputs.append(out.read_bytes())
    # A class index names the same class as its name.
    assert outputs[0] == outputs[1]


def test_synth_rejects_repeated_rule_pair(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(
        json.dumps(
            [
                {"subject": "van", "object": "road", "predicate": "drive on"},
                {"subject": "van", "object": "road", "predicate": "park at"},
            ]
        )
    )
    out = tmp_path / "gt.json"
    argv = ["synth", "--images", "2", "--seed", "1", "--rules", str(rules)]
    assert cli.run(argv + ["--output", str(out)]) == 1
    registry = canonical_registry()
    pair = (registry.object_index("van"), registry.object_index("road"))
    assert f"error: rules[1]: duplicate rule for class pair {pair}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_accepts_numeric_rule_thresholds(tmp_path):
    code, out = synth_with_rules(tmp_path, {"max_center_distance": 100000})
    assert code == 0
    assert sum(len(s.relations) for s in parse_dataset(out.read_text()).scenes) > 0


def test_stats_json_and_csv(tmp_path):
    gt = synth_manifest(tmp_path, images=12, seed=9)
    out = tmp_path / "stats.json"
    assert cli.run(["stats", "--input", str(gt), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "stats"
    assert doc["num_images"] == 12
    assert sum(doc["object_counts"]) == sum(
        len(s.objects) for s in parse_dataset(gt.read_text()).scenes
    )
    csv_out = tmp_path / "stats.csv"
    assert (
        cli.run(
            ["stats", "--input", str(gt), "--format", "csv", "--output", str(csv_out)]
        )
        == 0
    )
    assert csv_out.read_text().splitlines()[0] == "category,count"


def test_stats_multi_split_csv(tmp_path):
    train = synth_manifest(tmp_path, "train.json", images=6, seed=1)
    val = synth_manifest(tmp_path, "val.json", images=4, seed=2, extra=["--split", "val"])
    out = tmp_path / "multi.csv"
    code = cli.run(
        [
            "stats",
            "--input",
            str(train),
            "--input",
            str(val),
            "--format",
            "csv",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "category,train,val"


def test_stats_csv_rejects_mismatched_inputs(tmp_path, capsys):
    train = synth_manifest(tmp_path, "train.json", images=3, seed=1)
    other = tmp_path / "other.json"
    other.write_text(
        json.dumps(
            {
                "version": "1.0",
                "split": "val",
                "object_categories": ["a"],
                "relation_categories": ["r"],
                "images": [],
            }
        )
    )
    out = tmp_path / "stats.csv"
    for inputs, message in (
        ([train, other], "error: reports use different category registries"),
        ([train, train], "error: duplicate splits: ['train', 'train']"),
    ):
        argv = ["stats", "--format", "csv", "--output", str(out)]
        for path in inputs:
            argv += ["--input", str(path)]
        assert cli.run(argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_tile_and_convert_hbb(tmp_path):
    gt = synth_manifest(tmp_path, images=4, seed=13)
    before = sha256(gt)
    tiled_path = tmp_path / "tiled.json"
    assert cli.run(["tile", "--input", str(gt), "--output", str(tiled_path)]) == 0
    tiled = parse_dataset(tiled_path.read_text())
    # 1024 px image, 800/400 grid: 2x2 tiles per source image.
    assert len(tiled.scenes) == 16
    assert tiled.scenes[0].image_id == "synth-000000@0_0"
    assert tiled.scenes[3].image_id == "synth-000000@224_224"

    hbb_path = tmp_path / "hbb.json"
    assert cli.run(["convert-hbb", "--input", str(gt), "--output", str(hbb_path)]) == 0
    original = parse_dataset(gt.read_text())
    converted = parse_dataset(hbb_path.read_text())
    for src, dst in zip(original.scenes, converted.scenes):
        for a, b in zip(src.objects, dst.objects):
            assert b.box.area >= a.box.area - 1e-9
    assert sha256(gt) == before


def test_tile_keep_fraction_one_keeps_every_contained_box(tmp_path):
    gt = synth_manifest(tmp_path, images=6, seed=19)
    out = tmp_path / "tiled.json"
    argv = ["tile", "--input", str(gt), "--keep-fraction", "1.0", "--output", str(out)]
    assert cli.run(argv) == 0
    source = {s.image_id: s for s in parse_dataset(gt.read_text()).scenes}
    tiles = parse_dataset(out.read_text()).scenes
    assert len(tiles) == 24
    for tile in tiles:
        image_id, origin = tile.image_id.split("@")
        x0, y0 = map(int, origin.split("_"))
        contained = [
            obj.id
            for obj in source[image_id].objects
            if all(
                x0 <= x <= x0 + tile.width and y0 <= y <= y0 + tile.height
                for x, y in obj.box.vertices
            )
        ]
        assert [obj.id for obj in tile.objects] == contained


def test_pairs_requires_seed_only_when_caps_bind(tmp_path):
    gt = synth_manifest(tmp_path, images=5, seed=17)
    assert cli.run(["pairs", "--input", str(gt), "--max-pos", "4"]) == 2
    plain = tmp_path / "pairs.json"
    assert cli.run(["pairs", "--input", str(gt), "--output", str(plain)]) == 0
    doc = json.loads(plain.read_text())
    for entry in doc["images"]:
        n = entry["objects"]
        assert entry["pairs"] == n * (n - 1)
        assert len(entry["labels"]) == entry["pairs"]
        assert "sampled_indices" not in entry

    sampled_a = tmp_path / "sampled_a.json"
    sampled_b = tmp_path / "sampled_b.json"
    argv = ["pairs", "--input", str(gt), "--max-pos", "2", "--max-neg", "6", "--seed", "3"]
    assert cli.run(argv + ["--output", str(sampled_a)]) == 0
    assert cli.run(argv + ["--output", str(sampled_b)]) == 0
    assert sampled_a.read_bytes() == sampled_b.read_bytes()
    doc = json.loads(sampled_a.read_text())
    for entry in doc["images"]:
        assert len(entry["sampled_indices"]) <= 8


def test_prior_predict_eval_pipeline(tmp_path):
    gt = synth_manifest(tmp_path, images=25, seed=41)
    prior = tmp_path / "prior.json"
    assert cli.run(["fit-prior", "--input", str(gt), "--output", str(prior)]) == 0

    pred = tmp_path / "pred.json"
    assert (
        cli.run(
            [
                "predict",
                "--input",
                str(gt),
                "--prior",
                str(prior),
                "--output",
                str(pred),
            ]
        )
        == 0
    )
    predictions = parse_predictions(pred.read_text())
    assert all(
        obj.score == 1.0 for scene in predictions.scenes for obj in scene.objects
    )
    assert (serialize_dataset(predictions) + "\n").encode() == pred.read_bytes()

    report_path = tmp_path / "sgg.json"
    code = cli.run(
        [
            "eval-sgg",
            "--gt",
            str(gt),
            "--pred",
            str(pred),
            "--task",
            "predcls",
            "--output",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["recall_at_k"]["100"] == 1.0
    assert report["recall_at_k"]["500"] == 1.0
    assert report["mean_recall_at_k"]["500"] == 1.0

    det_path = tmp_path / "det.json"
    assert (
        cli.run(
            ["eval-det", "--gt", str(gt), "--pred", str(pred), "--output", str(det_path)]
        )
        == 0
    )
    assert json.loads(det_path.read_text())["map"] == 1.0


def test_predict_top_m_limits_pairs(tmp_path):
    gt = synth_manifest(tmp_path, images=5, seed=19)
    prior = tmp_path / "prior.json"
    assert cli.run(["fit-prior", "--input", str(gt), "--output", str(prior)]) == 0
    pred = tmp_path / "pred.json"
    code = cli.run(
        [
            "predict",
            "--input",
            str(gt),
            "--prior",
            str(prior),
            "--top-m",
            "3",
            "--output",
            str(pred),
        ]
    )
    assert code == 0
    for scene in parse_predictions(pred.read_text()).scenes:
        assert len(scene.relations) <= 3


def test_train_linear_and_fused_predict(tmp_path):
    gt = synth_manifest(tmp_path, images=10, seed=23)
    scorer_path = tmp_path / "scorer.json"
    code = cli.run(
        [
            "train-linear",
            "--input",
            str(gt),
            "--seed",
            "2",
            "--epochs",
            "15",
            "--output",
            str(scorer_path),
        ]
    )
    assert code == 0
    scorer = load_scorer(scorer_path.read_text(), canonical_registry())
    assert len(scorer.loss_history) == 16
    prior = tmp_path / "prior.json"
    assert cli.run(["fit-prior", "--input", str(gt), "--output", str(prior)]) == 0
    fused = tmp_path / "fused.json"
    code = cli.run(
        [
            "predict",
            "--input",
            str(gt),
            "--prior",
            str(prior),
            "--linear",
            str(scorer_path),
            "--output",
            str(fused),
        ]
    )
    assert code == 0
    parse_predictions(fused.read_text())


def test_eval_sgg_rejects_bad_k_lists(tmp_path):
    gt = synth_manifest(tmp_path, images=5, seed=29)
    prior = tmp_path / "prior.json"
    cli.run(["fit-prior", "--input", str(gt), "--output", str(prior)])
    pred = tmp_path / "pred.json"
    cli.run(["predict", "--input", str(gt), "--prior", str(prior), "--output", str(pred)])
    for bad in ("20,20", "50,20", "abc", "0,50", ""):
        code = cli.run(["eval-sgg", "--gt", str(gt), "--pred", str(pred), "--k", bad])
        assert code == 2, bad


@pytest.mark.parametrize("bad", ["5,x", ",,"])
def test_eval_sgg_k_error_names_the_flag(tmp_path, capsys, bad):
    gt = synth_manifest(tmp_path, images=3, seed=29)
    prior = fitted_prior(tmp_path, gt)
    pred = tmp_path / "pred.json"
    cli.run(["predict", "--input", str(gt), "--prior", str(prior), "--output", str(pred)])
    capsys.readouterr()
    assert cli.run(["eval-sgg", "--gt", str(gt), "--pred", str(pred), "--k", bad]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --k: expected comma-separated integers, got {bad!r}"
    ]


def test_output_dash_writes_stdout(tmp_path, capsys):
    gt = synth_manifest(tmp_path, images=3, seed=31)
    capsys.readouterr()
    assert cli.run(["stats", "--input", str(gt), "--output", "-"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["num_images"] == 3


def fitted_prior(tmp_path, gt):
    prior = tmp_path / "prior.json"
    assert cli.run(["fit-prior", "--input", str(gt), "--output", str(prior)]) == 0
    return prior


@pytest.mark.parametrize(
    "entry", [[999, 0, 0, 1], [0, 0, 0, -5], [0, 0, 1], [0, 0, 0, 0.5]]
)
def test_predict_rejects_malformed_prior_counts(tmp_path, capsys, entry):
    gt = synth_manifest(tmp_path, images=3, seed=43)
    prior = fitted_prior(tmp_path, gt)
    doc = json.loads(prior.read_text())
    doc["counts"][0] = entry
    prior.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.run(["predict", "--input", str(gt), "--prior", str(prior)])
    assert code == 1
    assert "error: $.counts[0]" in capsys.readouterr().err


def test_predict_rejects_non_finite_scorer_weights(tmp_path, capsys):
    gt = synth_manifest(tmp_path, images=4, seed=44)
    prior = fitted_prior(tmp_path, gt)
    scorer = tmp_path / "scorer.json"
    argv = ["train-linear", "--input", str(gt), "--seed", "1", "--epochs", "2"]
    assert cli.run(argv + ["--output", str(scorer)]) == 0
    good = json.loads(scorer.read_text())
    for edit, message in (
        (lambda d: d["weights"].__setitem__(7, float("nan")), "$.weights[7]"),
        (lambda d: d["weights"].pop(), "$.weights:"),
    ):
        doc = json.loads(json.dumps(good))
        edit(doc)
        scorer.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = ["predict", "--input", str(gt), "--prior", str(prior), "--linear", str(scorer)]
        assert cli.run(argv) == 1
        assert message in capsys.readouterr().err


def test_predict_rejects_row_totals_that_overflow(tmp_path, capsys):
    # A prior alone cannot overflow a row (fit-prior and load_prior reject
    # such an alpha); fused rows under huge scorer weights still can.
    gt = synth_manifest(tmp_path, images=3, seed=43)
    scorer = tmp_path / "scorer.json"
    argv = ["train-linear", "--input", str(gt), "--seed", "1", "--epochs", "2"]
    assert cli.run(argv + ["--output", str(scorer)]) == 0
    doc = json.loads(scorer.read_text())
    doc["weights"] = [1e308] * len(doc["weights"])
    scorer.write_text(json.dumps(doc))
    prior = fitted_prior(tmp_path, gt)
    out = tmp_path / "pred.json"
    capsys.readouterr()
    argv = ["predict", "--input", str(gt), "--prior", str(prior), "--linear", str(scorer)]
    assert cli.run(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: image 'synth-000000': a prior or fused row total is not finite and positive"
    ]
    assert not out.exists()


def test_fit_prior_rejects_alpha_that_overflows_a_row(tmp_path, capsys):
    gt = synth_manifest(tmp_path, images=3, seed=43)
    out = tmp_path / "prior.json"
    capsys.readouterr()
    argv = ["fit-prior", "--input", str(gt), "--alpha", "1e308", "--output", str(out)]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: a prior row total overflows with alpha 1e+308"
    ]
    assert not out.exists()
    # An alpha whose row totals stay finite still fits and predicts.
    argv = ["fit-prior", "--input", str(gt), "--alpha", "1e306", "--output", str(out)]
    assert cli.run(argv) == 0
    pred = tmp_path / "pred.json"
    argv = ["predict", "--input", str(gt), "--prior", str(out), "--output", str(pred)]
    assert cli.run(argv) == 0


def test_predict_rejects_saved_alpha_that_overflows_a_row(tmp_path, capsys):
    gt = synth_manifest(tmp_path, images=3, seed=43)
    prior = fitted_prior(tmp_path, gt)
    doc = json.loads(prior.read_text())
    doc["alpha"] = 1e308
    prior.write_text(json.dumps(doc))
    out = tmp_path / "pred.json"
    capsys.readouterr()
    argv = ["predict", "--input", str(gt), "--prior", str(prior), "--output", str(out)]
    assert cli.run(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: $.alpha: a prior row total overflows with alpha 1e+308"
    ]
    assert not out.exists()


def test_eval_reports_images_it_skips(tmp_path, capsys):
    gt = synth_manifest(tmp_path, images=6, seed=45)
    prior = fitted_prior(tmp_path, gt)
    pred = tmp_path / "pred.json"
    argv = ["predict", "--input", str(gt), "--prior", str(prior), "--output", str(pred)]
    assert cli.run(argv) == 0
    evals = (["eval-sgg", "--task", "predcls"], ["eval-det"])
    covered = {}
    capsys.readouterr()
    for command in evals:
        out = tmp_path / "covered.json"
        code = cli.run(command + ["--gt", str(gt), "--pred", str(pred), "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        covered[command[0]] = out.read_bytes()

    doc = json.loads(pred.read_text())
    for scene in doc["images"][:4]:
        scene["id"] = "renamed-" + scene["id"]
    renamed = tmp_path / "renamed.json"
    renamed.write_text(json.dumps(doc))
    for command in evals:
        out = tmp_path / "renamed-report.json"
        code = cli.run(command + ["--gt", str(gt), "--pred", str(renamed), "--output", str(out)])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "warning: 4 of 6 ground-truth images have no prediction scene; "
            "4 of 6 prediction images are not in the ground truth"
        ]
        assert out.read_bytes() != covered[command[0]]


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "-1"])
def test_fit_prior_rejects_non_finite_or_negative_alpha(tmp_path, capsys, alpha):
    gt = synth_manifest(tmp_path, images=3, seed=46)
    out = tmp_path / "prior.json"
    capsys.readouterr()
    argv = ["fit-prior", "--input", str(gt), f"--alpha={alpha}", "--output", str(out)]
    assert cli.run(argv) == 2
    assert "error: alpha must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_non_positive_prediction_extent(tmp_path, capsys):
    gt = synth_manifest(tmp_path, images=3, seed=47)
    prior = fitted_prior(tmp_path, gt)
    pred = tmp_path / "pred.json"
    argv = ["predict", "--input", str(gt), "--prior", str(prior), "--output", str(pred)]
    assert cli.run(argv) == 0
    doc = json.loads(pred.read_text())
    doc["images"][1]["width"] = 0
    pred.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in (["eval-sgg"], ["eval-det"]):
        assert cli.run(command + ["--gt", str(gt), "--pred", str(pred)]) == 1
        err = capsys.readouterr().err
        assert err == "error: image 'synth-000001': extent 0x1024 outside 1..100000\n", err


def test_eval_rejects_prediction_box_whose_area_overflows(tmp_path, capsys):
    # Each side is finite, but the area is inf and the box's IoU with a
    # match would be NaN, which counted as a miss.
    gt = synth_manifest(tmp_path, images=3, seed=49)
    prior = fitted_prior(tmp_path, gt)
    pred = tmp_path / "pred.json"
    argv = ["predict", "--input", str(gt), "--prior", str(prior), "--output", str(pred)]
    assert cli.run(argv) == 0
    doc = json.loads(pred.read_text())
    doc["images"][1]["objects"][0]["obb"] = [
        [-5e199, -5e199], [5e199, -5e199], [5e199, 5e199], [-5e199, 5e199]
    ]
    pred.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in (["eval-sgg", "--task", "sgdet"], ["eval-det"]):
        assert cli.run(command + ["--gt", str(gt), "--pred", str(pred)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: $.images[1].objects[0].obb: box area overflows"), err


def test_commands_reject_image_wider_than_the_maximum(tmp_path, capsys):
    gt = synth_manifest(tmp_path, images=3, seed=48)
    prior = fitted_prior(tmp_path, gt)
    scorer = tmp_path / "scorer.json"
    argv = ["train-linear", "--input", str(gt), "--seed", "1", "--epochs", "2"]
    assert cli.run(argv + ["--output", str(scorer)]) == 0
    pred = tmp_path / "pred.json"
    argv = ["predict", "--input", str(gt), "--prior", str(prior), "--output", str(pred)]
    assert cli.run(argv) == 0
    wide_gt, wide_pred = tmp_path / "wide-gt.json", tmp_path / "wide-pred.json"
    for path, wide in ((gt, wide_gt), (pred, wide_pred)):
        doc = json.loads(path.read_text())
        doc["images"][0]["width"] = 2**64
        wide.write_text(json.dumps(doc))
    capsys.readouterr()
    message = "image 'synth-000000': extent 18446744073709551616x1024 outside 1..100000"
    for argv in (
        ["train-linear", "--input", str(wide_gt), "--seed", "1", "--epochs", "2"],
        ["predict", "--input", str(wide_gt), "--prior", str(prior), "--linear", str(scorer)],
        ["tile", "--input", str(wide_gt)],
        ["eval-det", "--gt", str(gt), "--pred", str(wide_pred)],
    ):
        assert cli.run(argv) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message}"], (argv, err)


def test_validate_and_eval_det_reject_bad_extent_and_repeated_ids(tmp_path, capsys):
    # None of these is a validation violation: the scene or dataset that
    # holds one cannot be built, so the file fails to load.
    gt = synth_manifest(tmp_path, images=3, seed=50)
    prior = fitted_prior(tmp_path, gt)
    pred = tmp_path / "pred.json"
    argv = ["predict", "--input", str(gt), "--prior", str(prior), "--output", str(pred)]
    assert cli.run(argv) == 0

    def bad_extent(doc):
        doc["images"][1]["height"] = 0
        return f"image {doc['images'][1]['id']!r}: extent 1024x0 outside 1..100000"

    def reused_object_id(doc):
        objects = doc["images"][1]["objects"]
        objects[1]["id"] = objects[0]["id"]
        return f"image {doc['images'][1]['id']!r}: object id {objects[0]['id']} names two objects"

    def repeated_image_id(doc):
        doc["images"][2]["id"] = doc["images"][0]["id"]
        return f"image id {doc['images'][0]['id']!r} names two scenes"

    for defect in (bad_extent, reused_object_id, repeated_image_id):
        bad_gt, bad_pred = tmp_path / "bad-gt.json", tmp_path / "bad-pred.json"
        messages = {}
        for path, bad in ((gt, bad_gt), (pred, bad_pred)):
            doc = json.loads(path.read_text())
            messages[bad] = defect(doc)
            bad.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv, message in (
            (["validate", "--input", str(bad_gt)], messages[bad_gt]),
            (["eval-det", "--gt", str(bad_gt), "--pred", str(pred)], messages[bad_gt]),
            (["eval-det", "--gt", str(gt), "--pred", str(bad_pred)], messages[bad_pred]),
        ):
            assert cli.run(argv + ["--output", str(tmp_path / "out")]) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"error: {message}"], (argv, captured.err)
            assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("train-linear", "--lr=nan", "error: learning_rate must be finite and >= 0: nan"),
        ("train-linear", "--lr=inf", "error: learning_rate must be finite and >= 0: inf"),
        ("synth", "--tail-skew=nan", "error: tail_skew must be >= 0: nan"),
    ],
)
def test_config_rejects_non_finite_setting(tmp_path, capsys, command, setting, message):
    gt = synth_manifest(tmp_path, images=3, seed=49)
    out = tmp_path / "out.json"
    argv = {
        "train-linear": ["train-linear", "--input", str(gt), "--seed", "1"],
        "synth": ["synth", "--images", "3", "--seed", "1"],
    }[command]
    capsys.readouterr()
    assert cli.run(argv + [setting, "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "pairs", "train-linear"])
def test_negative_seed_names_the_flag(tmp_path, capsys, command):
    gt = synth_manifest(tmp_path, images=3, seed=49)
    out = tmp_path / "out.json"
    argv = {
        "synth": ["synth", "--images", "3"],
        "pairs": ["pairs", "--input", str(gt), "--max-pos", "1"],
        "train-linear": ["train-linear", "--input", str(gt), "--epochs", "1"],
    }[command]
    capsys.readouterr()
    assert cli.run(argv + ["--seed", "-1", "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0: -1"]
    assert not out.exists()
    # Seeds beyond 64 bits stay valid.
    assert cli.run(argv + ["--seed", str(10**29), "--output", str(out)]) == 0


def test_eval_sgg_rejects_non_finite_composite_score(tmp_path, capsys):
    gt = synth_manifest(tmp_path, images=3, seed=50)
    prior = fitted_prior(tmp_path, gt)
    pred = tmp_path / "pred.json"
    argv = ["predict", "--input", str(gt), "--prior", str(prior), "--output", str(pred)]
    assert cli.run(argv) == 0
    # Every score is finite, but subject x relation x object overflows to inf,
    # and to NaN where the object scores 0.0.
    doc = json.loads(pred.read_text())
    image = doc["images"][0]
    first, second = image["objects"][:2]
    first["score"], second["score"] = 1e300, 0.0
    for rel in image["relations"]:
        if rel["subject"] == first["id"]:
            rel["score"] = 1e300
    pred.write_text(json.dumps(doc))
    rel = next(r for r in image["relations"] if r["subject"] == first["id"])
    located = f"error: image {image['id']!r}: relation {first['id']}-{rel['predicate']}->"
    capsys.readouterr()
    for task in ("predcls", "sgdet"):
        argv = ["eval-sgg", "--gt", str(gt), "--pred", str(pred), "--task", task]
        assert cli.run(argv) == 1, task
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(located), err
        assert "has non-finite composite score" in err[0]


def test_eval_sgg_rejects_self_relation(tmp_path, capsys):
    gt = synth_manifest(tmp_path, images=3, seed=50)
    prior = fitted_prior(tmp_path, gt)
    pred = tmp_path / "pred.json"
    argv = ["predict", "--input", str(gt), "--prior", str(prior), "--output", str(pred)]
    assert cli.run(argv) == 0
    # Prediction files are not validated, so only the relation resolver
    # stands between this triplet and the matcher.
    doc = json.loads(pred.read_text())
    image = doc["images"][0]
    looped = image["objects"][0]["id"]
    image["relations"].append({"subject": looped, "predicate": 0, "object": looped, "score": 0.5})
    pred.write_text(json.dumps(doc))
    capsys.readouterr()
    for task in ("predcls", "sgdet"):
        argv = ["eval-sgg", "--gt", str(gt), "--pred", str(pred), "--task", task]
        assert cli.run(argv) == 1, task
        assert capsys.readouterr().err.splitlines() == [
            f"error: image {image['id']!r}: object {looped} relates to itself"
        ]


# Every command form the fuzz test runs, with the input files each reads.
FUZZ_COMMANDS = (
    "validate --input {manifest}",
    "stats --input {manifest}",
    "fit-prior --input {manifest}",
    "train-linear --input {manifest} --seed 1 --epochs 2",
    "predict --input {manifest} --prior {prior}",
    "predict --input {manifest} --prior {prior} --linear {scorer}",
    "eval-sgg --gt {manifest} --pred {pred} --task predcls",
    "eval-sgg --gt {manifest} --pred {pred} --task sgdet",
    "eval-det --gt {manifest} --pred {pred}",
    "tile --input {manifest}",
    "convert-hbb --input {manifest}",
    "pairs --input {manifest}",
)
FUZZ_VALUES = (-1, 0, 2**31, 2**63, 2**64, 2**70, 1e308, math.nan, "x", None, True, [], {})


def json_leaves(value, path=()):
    """Paths to every scalar, empty list and empty object of a JSON document."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from json_leaves(item, path + (key,))
    else:
        yield path


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small valid manifest, prediction file, prior and linear scorer."""
    base = tmp_path_factory.mktemp("fuzz")
    gt = synth_manifest(base, images=2, seed=49, extra=("--max-objects", "4"))
    paths = {kind: str(base / f"{kind}.json") for kind in ("prior", "scorer", "pred")}
    paths["manifest"] = str(gt)
    for argv in (
        ["fit-prior", "--input", paths["manifest"], "--output", paths["prior"]],
        ["train-linear", "--input", paths["manifest"], "--seed", "1", "--epochs", "2",
         "--output", paths["scorer"]],
        ["predict", "--input", paths["manifest"], "--prior", paths["prior"],
         "--output", paths["pred"]],
    ):
        assert cli.run(argv) == 0
    docs = {kind: json.loads(Path(path).read_text()) for kind, path in paths.items()}
    return base, paths, docs


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_fuzz_exits_zero_or_one(fuzz_inputs, data):
    base, paths, docs = fuzz_inputs
    kind = data.draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[kind])
    # Leaves grouped by field, list positions aside, so that a field with
    # many instances, such as a box coordinate, is drawn as often as one
    # with a single instance, such as an image width.
    fields: dict[tuple, list[tuple]] = {}
    for path in json_leaves(doc):
        fields.setdefault(tuple(k for k in path if isinstance(k, str)), []).append(path)
    leaf = st.sampled_from(sorted(fields)).flatmap(lambda f: st.sampled_from(fields[f]))
    edits = st.tuples(leaf, st.sampled_from(FUZZ_VALUES))
    for path, value in data.draw(st.lists(edits, min_size=1, max_size=2)):
        *head, last = path
        container = doc
        for key in head:
            container = container[key]
        container[last] = value
    mutant = base / f"mutant-{kind}.json"
    mutant.write_text(json.dumps(doc))
    inputs = {**paths, kind: str(mutant)}
    for template in FUZZ_COMMANDS:
        if "{" + kind + "}" in template:
            argv = template.format(**inputs).split() + ["--output", str(base / "out")]
            assert cli.run(argv) in (0, 1), argv


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("eval-sgg", ["--k", "5,x"], "error: --k: expected comma-separated integers, got '5,x'"),
        ("eval-sgg", ["--iou-threshold", "2"], "error: iou_threshold must be in (0, 1]: 2.0"),
        ("train-linear", ["--lr", "nan"], "error: learning_rate must be finite and >= 0: nan"),
        ("eval-det", ["--iou-threshold", "2"], "error: iou_threshold must be in (0, 1]: 2.0"),
        ("fit-prior", ["--alpha", "nan"], "error: alpha must be finite and >= 0: nan"),
        ("predict", ["--top-m", "-1"], "error: top_m must be >= 0: -1"),
        ("tile", ["--size", "0"], "error: bad tile size/stride: 0/400"),
        ("tile", ["--stride", "0"], "error: bad tile size/stride: 800/0"),
        ("tile", ["--keep-fraction", "2"], "error: keep_fraction must be in (0, 1]: 2.0"),
        ("pairs", ["--max-pos", "-1"], "error: caps must be >= 0: max_pos=-1 max_neg=192"),
        ("pairs", ["--max-neg", "-1"], "error: caps must be >= 0: max_pos=64 max_neg=-1"),
        ("synth", ["--tail-skew", "-1"], "error: tail_skew must be >= 0: -1.0"),
    ],
    ids=[
        "k", "iou-threshold", "lr", "eval-det-iou-threshold", "alpha", "top-m", "tile-size",
        "tile-stride", "keep-fraction", "max-pos", "max-neg", "tail-skew",
    ],
)
def test_flag_errors_come_before_input_errors(tmp_path, capsys, command, setting, message):
    gt = synth_manifest(tmp_path, images=3, seed=49)
    prior = fitted_prior(tmp_path, gt)
    # A manifest lacks prediction scores, and without "split" it fails to parse.
    doc = json.loads(gt.read_text())
    del doc["split"]
    no_split = tmp_path / "no_split.json"
    no_split.write_text(json.dumps(doc))
    # Without images, no check inside a loop over scenes or tiles runs.
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({**doc, "split": "train", "images": []}))
    out = tmp_path / "out.json"
    # Each input fails: as predictions, as a manifest, or as a rules list.
    for pred, manifest in ((gt, no_split), (empty, empty)):
        argv = {
            "eval-sgg": ["eval-sgg", "--gt", str(pred), "--pred", str(pred)],
            "eval-det": ["eval-det", "--gt", str(pred), "--pred", str(pred)],
            "train-linear": ["train-linear", "--input", str(manifest), "--seed", "1"],
            "fit-prior": ["fit-prior", "--input", str(manifest)],
            "predict": ["predict", "--input", str(manifest), "--prior", str(prior)],
            "tile": ["tile", "--input", str(manifest)],
            "pairs": ["pairs", "--input", str(manifest), "--seed", "1"],
            "synth": ["synth", "--images", "3", "--seed", "1", "--rules", str(manifest)],
        }[command]
        capsys.readouterr()
        assert cli.run(argv + setting + ["--output", str(out)]) == 2, argv
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()


def quoted_manifest(path, split="train", score=None, relations=2):
    """One image of two boxes and ``relations`` relations, in a registry
    whose names need CSV quoting; ``score`` scores every entry."""
    objects = [
        {"id": k, "category": k + 1, "obb": [[x, 10], [x + 20, 10], [x + 20, 30], [x, 30]]}
        for k, x in ((0, 10), (1, 50))
    ]
    rels = [
        {"subject": 0, "predicate": 0, "object": 1},
        {"subject": 1, "predicate": 1, "object": 0},
    ][:relations]
    if score is not None:
        for entry in objects + rels:
            entry["score"] = score
    doc = {
        "version": "1.0",
        "split": split,
        "object_categories": ["plain", "a,b", 'say "hi"'],
        "relation_categories": ["near, by", 'q"x'],
        "images": [
            {"id": "i0", "width": 100, "height": 100, "objects": objects, "relations": rels}
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def test_csv_reports_quote_names(tmp_path):
    gt = quoted_manifest(tmp_path / "gt.json")
    val = quoted_manifest(tmp_path / "val.json", split="val", relations=1)
    pred = quoted_manifest(tmp_path / "pred.json", score=0.9)
    out = tmp_path / "out.csv"
    for argv, expected in (
        (
            ["eval-det", "--gt", str(gt), "--pred", str(pred)],
            'category,ap\n"a,b",1\n"say ""hi""",1\nmean,1\n',
        ),
        (
            ["eval-sgg", "--gt", str(gt), "--pred", str(pred)],
            'predicate,r@20,r@50,r@100,r@500\n"near, by",1,1,1,1\n"q""x",1,1,1,1\n'
            "mean,1,1,1,1\n",
        ),
        (
            ["stats", "--input", str(gt), "--input", str(val)],
            'category,train,val\nplain,0,0\n"a,b",1,1\n"say ""hi""",1,1\n\n'
            'category,train,val\n"near, by",1,1\n"q""x",1,0\n',
        ),
    ):
        assert cli.run(argv + ["--format", "csv", "--output", str(out)]) == 0
        assert out.read_text() == expected


def test_stats_json_of_two_inputs_lists_reports_in_input_order(tmp_path):
    val = quoted_manifest(tmp_path / "val.json", split="val", relations=1)
    train = quoted_manifest(tmp_path / "train.json")
    out = tmp_path / "stats.json"
    argv = ["stats", "--input", str(val), "--input", str(train), "--output", str(out)]
    assert cli.run(argv) == 0
    head = (
        '"object_categories":["plain","a,b","say \\"hi\\""],'
        '"relation_categories":["near, by","q\\"x"],"num_images":1,"object_counts":[0,1,1],'
    )
    sizes = '"size_class_fractions":{"large":0.0,"medium":1.0,"small":0.0,"tiny":0.0},'
    log2 = repr(math.log(2.0))
    assert out.read_text() == (
        '[{"kind":"stats","split":"val",' + head + '"relation_counts":[1,0],'
        '"per_image_histograms":{"objects":[[2,1]],"object_categories":[[2,1]],'
        '"relations":[[1,1]],"relation_categories":[[1,1]]},' + sizes
        + f'"cooccurrence_log":[[0.0,0.0,0.0],[0.0,0.0,{log2}],[0.0,0.0,0.0]]}},'
        '{"kind":"stats","split":"train",' + head + '"relation_counts":[1,1],'
        '"per_image_histograms":{"objects":[[2,1]],"object_categories":[[2,1]],'
        '"relations":[[2,1]],"relation_categories":[[2,1]]},' + sizes
        + f'"cooccurrence_log":[[0.0,0.0,0.0],[0.0,0.0,{log2}],[0.0,{log2},0.0]]}}]\n'
    )
