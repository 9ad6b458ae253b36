"""End-to-end CLI runs, in process, against temporary files."""

import hashlib
import json

import pytest

from obsg import cli, parse_dataset, parse_predictions, serialize_dataset
from obsg.registry import canonical_registry
from obsg.scorer import load_scorer


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


def test_unknown_subcommand_and_bad_flags(tmp_path):
    assert cli.run(["no-such-command"]) == 2
    assert cli.run(["synth", "--images", "3"]) == 2  # --seed missing


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
    ],
    ids=["string", "nan", "bool", "unknown-key"],
)
def test_synth_rejects_malformed_rules(tmp_path, capsys, rule, message):
    code, out = synth_with_rules(tmp_path, rule)
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
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
