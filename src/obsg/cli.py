"""Command-line interface.

Subcommands cover the full pipeline: validate, stats, synth, tile,
convert-hbb, pairs, fit-prior, train-linear, predict, eval-det, eval-sgg.
Results go to --output (or stdout), diagnostics to stderr.  Exit codes:
0 success, 1 validation or data error, 2 I/O or argument error.  File
writes are atomic (write to a temporary sibling, then rename), and every
stochastic subcommand requires an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import fields, replace
from typing import Any, Sequence

import numpy as np

from . import __version__
from .datamodel import (
    SPLITS,
    Dataset,
    ObjectInstance,
    SceneAnnotation,
    _load_root,
    parse_dataset,
    parse_predictions,
    serialize_dataset,
    validate,
)
from .errors import DataError
from .geometry import _check_iou_threshold
from .ingest import (
    KEEP_FRACTION, TILE_SIZE, TILE_STRIDE, _check_keep_fraction, _check_tile_grid,
    convert_to_hbb, tile_dataset,
)
from .metrics import (
    DEFAULT_K_VALUES,
    IOU_THRESHOLD,
    SUBTASKS,
    EvalReport,
    MatchConfig,
    evaluate_detections,
    evaluate_scene_graphs,
    report_to_csv as eval_report_to_csv,
    report_to_json as eval_report_to_json,
)
from .pairing import (
    MAX_NEGATIVE_PAIRS, MAX_POSITIVE_PAIRS, _check_caps, _check_seed, label_pairs, sample_pairs,
)
from .registry import CategoryRegistry
from .scorer import (
    DEFAULT_ALPHA,
    TrainConfig,
    _check_alpha,
    _check_top_m,
    fit_frequency_prior,
    load_prior,
    load_scorer,
    predict_triplets,
    save_prior,
    save_scorer,
    train_linear,
)
from .stats import compute_stats, report_to_csv, report_to_json
from .synth import Rule, SynthConfig, generate


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def _write_output(path: str | None, text: str) -> None:
    """Write a result atomically, or to stdout when no path is given."""
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_k_values(text: str) -> tuple[int, ...]:
    """Comma-separated integers; ``MatchConfig`` checks their values."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--k: expected comma-separated integers, got {text!r}") from None


def _load_dataset(path: str) -> Dataset:
    return parse_dataset(_read_text(path))


def _rule_class(registry: CategoryRegistry, value, kind: str, where: str) -> int:
    names = registry.object_names if kind == "object" else registry.relation_names
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return names.index(value)
        except ValueError:
            raise DataError(f"{where}: unknown {kind} name {value!r}") from None
    article = "an" if kind == "object" else "a"
    raise DataError(f"{where}: expected {article} {kind} name or index, got {value!r}")


_RULE_KEYS = ("subject", "object", "predicate", "min_iou", "max_center_distance")


def _load_rules(path: str, registry: CategoryRegistry) -> tuple[Rule, ...]:
    raw = _load_root(_read_text(path))
    if not isinstance(raw, list):
        raise DataError("rules file must hold a JSON list")
    rules = []
    for i, entry in enumerate(raw):
        where = f"rules[{i}]"
        if not isinstance(entry, dict):
            raise DataError(f"{where}: expected an object")
        unknown = sorted(set(entry) - set(_RULE_KEYS))
        if unknown:
            raise DataError(f"{where}: unknown key {unknown[0]!r}")
        subject = _rule_class(registry, entry.get("subject"), "object", where)
        object_ = _rule_class(registry, entry.get("object"), "object", where)
        predicate = _rule_class(registry, entry.get("predicate"), "relation", where)
        try:
            rules.append(
                Rule(
                    subject,
                    object_,
                    predicate,
                    min_iou=entry.get("min_iou"),
                    max_center_distance=entry.get("max_center_distance"),
                )
            )
        except ValueError as exc:
            # Rule names the offending key first: "min_iou: ...".
            raise DataError(f"{where}.{exc}") from None
    return tuple(rules)


# --- subcommand implementations --------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    dataset = parse_dataset(_read_text(args.input), check=False)
    violations = validate(dataset)
    lines = [f"{v.code} {v.image_id}: {v.detail}" for v in violations]
    lines.append(f"{len(violations)} violations")
    _write_output(args.output, "\n".join(lines))
    return 0 if not violations else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    reports = [compute_stats(_load_dataset(path)) for path in args.input]
    if args.format == "csv":
        _write_output(args.output, report_to_csv(reports))
    elif len(reports) == 1:
        _write_output(args.output, report_to_json(reports[0]))
    else:
        _write_output(args.output, "[" + ",".join(report_to_json(r) for r in reports) + "]")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        n_images=args.images,
        seed=args.seed,
        image_size=args.size,
        min_objects=args.min_objects,
        max_objects=args.max_objects,
        min_side=args.min_side,
        max_side=args.max_side,
        tail_skew=args.tail_skew,
        split=args.split,
    )
    if args.rules:
        try:
            config = replace(config, rules=_load_rules(args.rules, config.registry))
        except ValueError as exc:
            # A rule's class range or repeated class pair is a data error.
            raise DataError(str(exc)) from None
    _write_output(args.output, serialize_dataset(generate(config)))
    return 0


def _cmd_tile(args: argparse.Namespace) -> int:
    _check_tile_grid(args.size, args.stride)
    _check_keep_fraction(args.keep_fraction)
    dataset = _load_dataset(args.input)
    tiled = tile_dataset(dataset, args.size, args.stride, args.keep_fraction)
    _write_output(args.output, serialize_dataset(tiled))
    return 0


def _cmd_convert_hbb(args: argparse.Namespace) -> int:
    _write_output(args.output, serialize_dataset(convert_to_hbb(_load_dataset(args.input))))
    return 0


def _cmd_pairs(args: argparse.Namespace) -> int:
    if args.seed is not None:
        _check_seed(args.seed)
    sampling = args.max_pos is not None or args.max_neg is not None
    if sampling and args.seed is None:
        raise ValueError("--seed is required when sampling caps are given")
    max_pos = MAX_POSITIVE_PAIRS if args.max_pos is None else args.max_pos
    max_neg = MAX_NEGATIVE_PAIRS if args.max_neg is None else args.max_neg
    _check_caps(max_pos, max_neg)
    dataset = _load_dataset(args.input)
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    images = []
    for scene in dataset.scenes:
        labels = label_pairs(scene)
        entry = {
            "id": scene.image_id,
            "objects": len(scene.objects),
            "pairs": len(labels),
            "labels": labels.tolist(),
        }
        if sampling:
            entry["sampled_indices"] = sample_pairs(labels, max_pos, max_neg, rng).tolist()
        images.append(entry)
    _write_output(args.output, json.dumps({"images": images}, separators=(",", ":")))
    return 0


def _cmd_fit_prior(args: argparse.Namespace) -> int:
    _check_alpha(args.alpha)
    dataset = _load_dataset(args.input)
    prior = fit_frequency_prior(dataset, alpha=args.alpha)
    _write_output(args.output, save_prior(prior))
    return 0


def _cmd_train_linear(args: argparse.Namespace) -> int:
    config = TrainConfig(
        seed=args.seed,
        learning_rate=args.lr,
        epochs=args.epochs,
        max_pos=args.max_pos,
        max_neg=args.max_neg,
    )
    dataset = _load_dataset(args.input)
    scorer = train_linear(dataset, config)
    _write_output(args.output, save_scorer(scorer))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    _check_top_m(args.top_m)
    dataset = _load_dataset(args.input)
    prior = load_prior(_read_text(args.prior), dataset.registry)
    linear = (
        load_scorer(_read_text(args.linear), dataset.registry)
        if args.linear
        else None
    )
    scenes = []
    for scene in dataset.scenes:
        relations = predict_triplets(
            scene,
            prior,
            linear=linear,
            top_m=args.top_m,
            graph_constraint=not args.no_graph_constraint,
        )
        # The endpoints are annotated boxes: each is scored 1.0.
        objects = tuple(
            ObjectInstance(o.id, o.category, o.box, o.truncated, score=1.0)
            for o in scene.objects
        )
        scenes.append(
            SceneAnnotation(scene.image_id, scene.width, scene.height, objects, relations)
        )
    predictions = Dataset(dataset.registry, dataset.split, tuple(scenes))
    _write_output(args.output, serialize_dataset(predictions))
    return 0


def _write_report(args: argparse.Namespace, report: EvalReport) -> None:
    """Warn on stderr when evaluation skipped images, then write the report."""
    c = report.coverage
    if c["gt_without_prediction"] or c["pred_not_in_gt"]:
        print(
            f"warning: {c['gt_without_prediction']} of {c['gt_images']} ground-truth "
            f"images have no prediction scene; {c['pred_not_in_gt']} of "
            f"{c['pred_images']} prediction images are not in the ground truth",
            file=sys.stderr,
        )
    text = (
        eval_report_to_csv(report) if args.format == "csv" else eval_report_to_json(report)
    )
    _write_output(args.output, text)


def _cmd_eval_det(args: argparse.Namespace) -> int:
    _check_iou_threshold(args.iou_threshold)
    report = evaluate_detections(
        _load_dataset(args.gt),
        parse_predictions(_read_text(args.pred)),
        iou_threshold=args.iou_threshold,
        include_empty_classes=args.include_empty,
    )
    _write_report(args, report)
    return 0


def _cmd_eval_sgg(args: argparse.Namespace) -> int:
    config = MatchConfig(
        subtask=args.task,
        iou_threshold=args.iou_threshold,
        k_values=_parse_k_values(args.k),
        graph_constraint=not args.no_graph_constraint,
    )
    gt = _load_dataset(args.gt)
    predictions = parse_predictions(_read_text(args.pred))
    _write_report(args, evaluate_scene_graphs(gt, predictions, config))
    return 0


# --- parser -----------------------------------------------------------------


def _defaults(config: type) -> dict[str, Any]:
    """Field defaults of a config dataclass, by field name."""
    return {f.name: f.default for f in fields(config)}


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="result path (default: stdout)")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsg",
        description="Scene-graph benchmark tooling over oriented bounding boxes.",
    )
    parser.add_argument("--version", action="version", version=f"obsg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a manifest and list violations")
    p.add_argument("--input", required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="dataset statistics report")
    p.add_argument("--input", action="append", required=True,
                   help="manifest path; repeat for multi-split tables")
    _add_format(p)
    _add_output(p)
    p.set_defaults(func=_cmd_stats)

    synth = _defaults(SynthConfig)
    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=synth["image_size"], help="image side in pixels")
    p.add_argument("--min-objects", type=int, default=synth["min_objects"])
    p.add_argument("--max-objects", type=int, default=synth["max_objects"])
    p.add_argument("--min-side", type=float, default=synth["min_side"])
    p.add_argument("--max-side", type=float, default=synth["max_side"])
    p.add_argument("--tail-skew", type=float, default=synth["tail_skew"])
    p.add_argument("--split", choices=SPLITS, default="train")
    p.add_argument("--rules", help="JSON rule table (default: built-in rules)")
    _add_output(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("tile", help="crop every scene to a sliding tile grid")
    p.add_argument("--input", required=True)
    p.add_argument("--size", type=int, default=TILE_SIZE)
    p.add_argument("--stride", type=int, default=TILE_STRIDE)
    p.add_argument("--keep-fraction", type=float, default=KEEP_FRACTION)
    _add_output(p)
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("convert-hbb", help="replace boxes with axis-aligned covers")
    p.add_argument("--input", required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_convert_hbb)

    p = sub.add_parser("pairs", help="enumerate and label ordered object pairs")
    p.add_argument("--input", required=True)
    p.add_argument("--max-pos", type=int)
    p.add_argument("--max-neg", type=int)
    p.add_argument("--seed", type=int, help="required when sampling caps are given")
    _add_output(p)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("fit-prior", help="fit the class-pair frequency prior")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    _add_output(p)
    p.set_defaults(func=_cmd_fit_prior)

    train = _defaults(TrainConfig)
    p = sub.add_parser("train-linear", help="train the linear pair scorer")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lr", type=float, default=train["learning_rate"])
    p.add_argument("--epochs", type=int, default=train["epochs"])
    p.add_argument("--max-pos", type=int, default=MAX_POSITIVE_PAIRS)
    p.add_argument("--max-neg", type=int, default=MAX_NEGATIVE_PAIRS)
    _add_output(p)
    p.set_defaults(func=_cmd_train_linear)

    p = sub.add_parser("predict", help="score relation candidates over annotated boxes")
    p.add_argument("--input", required=True, help="manifest providing the boxes")
    p.add_argument("--prior", required=True)
    p.add_argument("--linear", help="optional linear scorer JSON")
    p.add_argument("--top-m", type=int, help="keep only the m most related pairs")
    p.add_argument("--no-graph-constraint", action="store_true",
                   help="emit every predicate per pair instead of the best one")
    _add_output(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval-det", help="detection AP/mAP report")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--iou-threshold", type=float, default=IOU_THRESHOLD)
    p.add_argument("--include-empty", action="store_true",
                   help="count zero-GT categories into the mean as AP 0")
    _add_format(p)
    _add_output(p)
    p.set_defaults(func=_cmd_eval_det)

    p = sub.add_parser("eval-sgg", help="scene-graph recall report")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--task", choices=SUBTASKS, default="predcls")
    p.add_argument("--k", default=",".join(map(str, DEFAULT_K_VALUES)),
                   help="comma-separated ascending K values")
    p.add_argument("--iou-threshold", type=float, default=IOU_THRESHOLD)
    p.add_argument("--no-graph-constraint", action="store_true")
    _add_format(p)
    _add_output(p)
    p.set_defaults(func=_cmd_eval_sgg)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point returning an exit code instead of raising SystemExit.

    The parser is built on the first call and reused for the rest of the
    process, which saves its build only for callers that run several stages
    in one process, such as the test suite and ``perfbench/run.py``.  Each
    call parses into a fresh namespace.  The ``_cmd_*`` handlers and the
    option defaults are bound at that first build.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
