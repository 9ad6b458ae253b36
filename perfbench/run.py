"""Stage-timed benchmark of the obsg pipeline.

    python3 perfbench/run.py --workload large-sgdet --seed 1 --seconds 20 --trace 0

Run from anywhere; the repository root is the parent of this directory.
Set-up generates the workload's inputs from ``--seed`` (see ``inputs.py``)
in a fresh interpreter.  The run then makes passes over the eleven stages
below for ``--seconds`` seconds, at least ``MIN_PASSES`` of them, all in
this process: ten through ``obsg.cli.run`` and ``reassemble`` through the
obsg API, which has no subcommand for it.  Every workload runs every stage;
the workloads differ in shape, and so in which layers dominate.  Set-up is
repeated after every ``SETUP_EVERY``-th pass, into a side directory, and must
write the same bytes each time.

Each timing metric is the minimum over the run's samples: ``<stage>_s``
over passes and ``setup_s`` over set-ups; ``pipeline_s`` is the sum of the
``<stage>_s``.
The CPUs this was tuned on change speed by up to a third within seconds,
so a median follows whichever speed held for most of a run; the minimum
over samples spread across the whole run is the steadier measure of the
program's own cost.  ``peak_rss_mb`` is the peak RSS of this process.

Each stage must exit 0, write the same bytes on every pass and pass the
checks in ``_check``.  A stage that does not counts as a failed operation.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (environment,
per-pass times, per-stage exit code, output sha256 and report figures) is
written to ``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``; the
working files of the run are deleted.

With ``--trace 1`` the run alternates untraced and traced passes instead,
and reports per-layer metrics from ``spans.py``: self times are medians
over traced passes, and ``trace.overhead_s`` is ``pipeline_s`` of the
traced passes minus that of the untraced ones.  Traced passes must write the same bytes as
untraced ones.  The spans of the first traced pass are saved next to the
record.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 3
# Set-up runs in a new interpreter and costs about a third of a pass; doing
# it after every fourth pass leaves more passes, and so more samples of each
# stage, in a run.
SETUP_EVERY = 4
SETUP_TIMEOUT_S = 120
# A quarter of the CLI default, to keep a many-small pass short; each epoch
# is still full-batch gradient descent over every sampled row.
TRAIN_EPOCHS = 50
# Criterion 07's floors for predcls of prior-only predictions on
# synth-default scenes.
PREDCLS_FLOORS = {"recall_at_k": 0.95, "mean_recall_at_k": 0.90}

STAGES = (
    "validate",
    "stats",
    "fit_prior",
    "train_linear",
    "predict_prior",
    "predict_fused",
    "eval_predcls",
    "eval_sgdet",
    "eval_det",
    "tile",
    "reassemble",
)

END_TO_END = (
    [("setup_s", "s")]
    + [(f"{stage}_s", "s") for stage in STAGES]
    + [("pipeline_s", "s"), ("peak_rss_mb", "MB")]
)

# Per-layer metrics come from the traced run.  Which end-to-end metric each
# layer should move, and on which workload:
#   geometry   eval_sgdet_s, tile_s, reassemble_s and predict_fused_s on
#              large-sgdet; almost nothing on many-small
#   scorer     predict_prior_s, predict_fused_s on large-sgdet and
#              train_linear_s on many-small
#   pairing    fit_prior_s, train_linear_s on many-small
#   metrics    eval_predcls_s, eval_sgdet_s on large-sgdet and eval_det_s on
#              many-small
#   datamodel  every stage on many-small, predict_*_s, eval_predcls_s and
#              tile_s on large-sgdet
#   ingest     tile_s, reassemble_s on large-sgdet
#   stats      stats_s on many-small; synth: setup_s on many-small
#   cli        predict_*_s on large-sgdet
_CALLS = (
    "geometry.rotated_iou",
    "geometry.intersection_area",
    "geometry.pair_geometry",
    "scorer.pair_features",
    "scorer.linear_loss_and_grad",
    "pairing.enumerate_pairs",
    "metrics.match_detections",
    "ingest.crop_scene",
)
_SELF = (
    "geometry.rotated_iou",
    "geometry.intersection_area",
    "geometry.pair_geometry",
    "scorer.predict_triplets",
    "scorer.pair_features",
    "scorer.linear_loss_and_grad",
    "scorer.fit_frequency_prior",
    "pairing.enumerate_pairs",
    "pairing.label_pairs",
    "pairing.sample_pairs",
    "metrics.match_triplets",
    "metrics.triplets_from_prediction_scene",
    "metrics.match_detections",
    "datamodel.parse_dataset",
    "datamodel.parse_predictions",
    "datamodel.validate",
    "datamodel.serialize_dataset",
    "datamodel.serialize_predictions",
    "ingest.crop_scene",
    "ingest.rotated_nms",
    "stats.compute_stats",
    "synth.generate",
)
_SUBCOMMANDS = (
    "validate",
    "stats",
    "fit_prior",
    "train_linear",
    "predict",
    "eval_sgg",
    "eval_det",
    "tile",
)
# (metric, numerator count, denominator count) of the per-layer ratios.
_RATIOS = (
    ("geometry.rotated_iou.nonzero_ratio", "geometry.rotated_iou.nonzero", "geometry.rotated_iou.calls"),
    ("metrics.match_triplets.match_ratio", "metrics.match_triplets.matched", "metrics.match_triplets.ranked"),
    ("ingest.crop_keep_ratio", "ingest.crop_scene.objects_kept", "ingest.crop_scene.objects_in"),
    ("ingest.nms_kept_ratio", "ingest.rotated_nms.kept", "ingest.rotated_nms.in"),
)
_COUNTS = (
    ("scorer.pairs_scored", "count"),
    ("scorer.triplets_emitted", "count"),
    ("scorer.train_rows", "count"),
    ("metrics.match_triplets.candidate_checks", "count"),
    ("datamodel.bytes_parsed", "bytes"),
    ("datamodel.bytes_serialized", "bytes"),
)
PER_LAYER = (
    [(f"{name}.calls", "count") for name in _CALLS]
    + [(f"{name}.self_s", "s") for name in _SELF]
    + [(f"cli.{name}.self_s", "s") for name in _SUBCOMMANDS]
    + [(name, "ratio") for name, _, _ in _RATIOS]
    + list(_COUNTS)
    + [("trace.overhead_s", "s")]
)


def _cap_blas_threads() -> int:
    """Cap BLAS threads at nproc through this process's environment.

    Must run before numpy is imported; set-up subprocesses inherit it.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _environment(blas_threads: int) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            git_sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "obsg").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "platform": platform.platform(),
    }


def _cli_argv(stage: str, work: Path, seed: int) -> list[str]:
    def f(name: str) -> str:
        return str(work / name)

    gt = f("gt.json")
    table = {
        "validate": ["validate", "--input", gt],
        "stats": ["stats", "--input", gt],
        "fit_prior": ["fit-prior", "--input", gt],
        "train_linear": [
            "train-linear", "--input", gt, "--seed", str(seed), "--epochs", str(TRAIN_EPOCHS)
        ],
        "predict_prior": ["predict", "--input", gt, "--prior", f("fit_prior.out")],
        "predict_fused": [
            "predict", "--input", gt, "--prior", f("fit_prior.out"),
            "--linear", f("train_linear.out"),
        ],
        "eval_predcls": ["eval-sgg", "--gt", gt, "--pred", f("predict_prior.out"), "--task", "predcls"],
        "eval_sgdet": ["eval-sgg", "--gt", gt, "--pred", f("pred_jitter.json"), "--task", "sgdet"],
        "eval_det": ["eval-det", "--gt", gt, "--pred", f("pred_jitter.json")],
        "tile": ["tile", "--input", gt],
    }
    return table[stage] + ["--output", f(f"{stage}.out")]


def _reassemble(work: Path) -> int:
    """Tile every ground-truth scene, crop it, merge the crops back and write
    the merged boxes: the stand-in for the subcommand obsg does not have."""
    import obsg

    dataset = obsg.parse_dataset((work / "gt.json").read_text(encoding="utf-8"))
    merged = []
    for scene in dataset.scenes:
        pieces = []
        for tile in obsg.plan_tiles(scene.width, scene.height):
            crop = obsg.crop_scene(scene, tile)
            pieces.append((tile, [obsg.Detection(o.box, o.category, 1.0) for o in crop.objects]))
        dets = obsg.reassemble(pieces)
        merged.append([[d.category, [list(v) for v in d.box.vertices]] for d in dets])
    (work / "reassemble.out").write_text(json.dumps(merged, separators=(",", ":")), encoding="utf-8")
    return 0


def _run_stage(stage: str, work: Path, seed: int, tracer) -> tuple[float, int, bytes, str | None]:
    """Time one stage; returns (seconds, exit code, output bytes, error)."""
    from obsg import cli

    if stage == "reassemble":
        name, call = "stage.reassemble", partial(_reassemble, work)
    else:
        argv = _cli_argv(stage, work, seed)
        name, call = "cli." + argv[0].replace("-", "_"), partial(cli.run, argv)
    out = work / f"{stage}.out"
    out.unlink(missing_ok=True)
    gc.collect()
    t0 = time.perf_counter()
    try:
        with tracer.span(name) if tracer else nullcontext():
            code = call()
    except Exception:  # a crashing stage is a failed operation, not a crashed benchmark
        return time.perf_counter() - t0, -1, b"", traceback.format_exc()
    seconds = time.perf_counter() - t0
    data = out.read_bytes() if code == 0 and out.exists() else b""
    return seconds, code, data, None


def _facts(gt_path: Path) -> dict:
    """What the checks compare stage outputs with, read from the manifest."""
    doc = json.loads(gt_path.read_text(encoding="utf-8"))
    return {
        "images": len(doc["images"]),
        "objects": sum(len(s["objects"]) for s in doc["images"]),
        "relations": sum(len(s["relations"]) for s in doc["images"]),
        "boxes": [{_box_key(o["category"], o["obb"]) for o in s["objects"]} for s in doc["images"]],
        "extents": [(s["width"], s["height"]) for s in doc["images"]],
    }


def _box_key(category: int, vertices) -> tuple:
    return (category, tuple(round(c, 4) for v in vertices for c in v))


def _tile_count(extent: int, size: int = 800, stride: int = 400) -> int:
    return 1 if extent <= size else -(-(extent - size) // stride) + 1


def _report(stage: str, data: bytes) -> dict:
    """Counts, recalls and mAP of an evaluation report, kept in the record."""
    if stage not in ("eval_predcls", "eval_sgdet", "eval_det"):
        return {}
    doc = json.loads(data)
    return {k: doc[k] for k in ("counts", "recall_at_k", "mean_recall_at_k", "map") if k in doc}


def _check(stage: str, data: bytes, facts: dict, shape: dict) -> list[str]:
    """Seed-independent invariants of one stage's output."""
    fail = []
    if stage == "validate" and data.decode("utf-8").strip() != "0 violations":
        fail.append("ground truth has violations")
    elif stage == "stats":
        doc = json.loads(data)
        if (doc["num_images"], sum(doc["object_counts"]), sum(doc["relation_counts"])) != (
            facts["images"], facts["objects"], facts["relations"]
        ):
            fail.append("stats counts differ from the ground truth")
    elif stage in ("predict_prior", "predict_fused"):
        if len(json.loads(data)["images"]) != facts["images"]:
            fail.append("prediction image count differs from the ground truth")
    elif stage in ("eval_predcls", "eval_sgdet", "eval_det"):
        doc = json.loads(data)
        truth = facts["objects"] if stage == "eval_det" else facts["relations"]
        if sum(c["tp"] + c["fn"] for c in doc["counts"].values()) != truth:
            fail.append("tp + fn differs from the ground-truth count")
        if stage == "eval_predcls" and shape["layout"] == "synth":
            for key, floor in PREDCLS_FLOORS.items():
                if doc[key]["100"] < floor:
                    fail.append(f"{key}@100 {doc[key]['100']} below {floor}")
    elif stage == "tile":
        expected = sum(_tile_count(w) * _tile_count(h) for w, h in facts["extents"])
        if len(json.loads(data)["images"]) != expected:
            fail.append(f"tile wrote other than {expected} scenes")
    elif stage == "reassemble":
        for index, (dets, truth) in enumerate(zip(json.loads(data), facts["boxes"])):
            seen = Counter(_box_key(c, v) for c, v in dets)
            if not set(seen) <= truth:
                fail.append(f"scene {index}: a merged box is no ground-truth box")
            if any(n > 1 for n in seen.values()):
                fail.append(f"scene {index}: a box was recovered twice")
            # Grid scenes keep same-class boxes below IoU 0.5, so NMS must
            # give back every one of them.
            if shape["layout"] == "grid" and len(seen) != len(truth):
                fail.append(f"scene {index}: {len(truth) - len(seen)} boxes not recovered")
    return fail


class Ledger:
    """Stage outcomes of a run: first-pass outputs, failures, counts."""

    def __init__(self, facts: dict, shape: dict) -> None:
        self.facts, self.shape = facts, shape
        self.outputs: dict[str, dict] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, stage: str, code: int, data: bytes, error: str | None, where: str) -> None:
        self.attempted += 1
        sha = hashlib.sha256(data).hexdigest()
        problems = []
        if code != 0:
            problems.append(f"exit code {code}" + (f"\n{error}" if error else ""))
        elif stage not in self.outputs:
            try:
                problems += _check(stage, data, self.facts, self.shape)
                report = _report(stage, data)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
                report = {}
            self.outputs[stage] = {"exit_code": code, "sha256": sha, "report": report}
        elif sha != self.outputs[stage]["sha256"]:
            problems.append("output bytes differ from the first pass")
        if problems:
            self.failed += 1
            self.failures += [f"{where} {stage}: {p}" for p in problems]

    def record_setup(self, index: int, same_inputs: bool) -> None:
        self.attempted += 1
        if not same_inputs:
            self.failed += 1
            self.failures.append(f"set-up {index}: other inputs for the same seed")


def _run_pass(work: Path, seed: int, ledger: Ledger, where: str, tracer=None) -> dict[str, float]:
    times = {}
    for stage in STAGES:
        seconds, code, data, error = _run_stage(stage, work, seed, tracer)
        ledger.record(stage, code, data, error, where)
        times[stage] = seconds
    return times


def _setup(workload: str, seed: int, out: Path, tiny: bool) -> tuple[float, dict]:
    """Generate the inputs into ``out`` in a new interpreter.

    Returns the seconds it took, importing obsg included, and the sha256 of
    each file written.
    """
    command = [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line["seconds"], line["sha256"]


def _layer_metrics(tracer) -> dict[str, float]:
    calls, self_s = tracer.summary()
    counts = dict(tracer.counts)
    counts["scorer.train_rows"] = sum(tracer.train_rows.values())
    counts.update({f"{name}.calls": n for name, n in calls.items()})
    metrics = {f"{name}.calls": counts.get(f"{name}.calls", 0) for name in _CALLS}
    metrics.update({f"{name}.self_s": self_s.get(name, 0.0) for name in _SELF})
    metrics.update({f"cli.{name}.self_s": self_s.get(f"cli.{name}", 0.0) for name in _SUBCOMMANDS})
    for name, top, bottom in _RATIOS:
        metrics[name] = counts.get(top, 0) / counts[bottom] if counts.get(bottom) else 0.0
    metrics.update({name: counts.get(name, 0) for name, _ in _COUNTS})
    return metrics


def _stage_minima(passes: list[dict[str, float]]) -> dict[str, float]:
    metrics = {f"{s}_s": min(p[s] for p in passes) for s in STAGES}
    metrics["pipeline_s"] = sum(metrics.values())
    return metrics


def _measure(args, work: Path, ledger: Ledger, setup: tuple[float, dict]) -> tuple[dict, dict]:
    """Untraced passes until the deadline, every ``SETUP_EVERY``-th followed
    by one more set-up."""
    passes, setups = [], [setup[0]]
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(_run_pass(work, args.seed, ledger, f"pass {len(passes)}"))
        if len(passes) % SETUP_EVERY == 0:
            seconds, digests = _setup(args.workload, args.seed, work / "setup", args.tiny)
            setups.append(seconds)
            ledger.record_setup(len(setups) - 1, digests == setup[1])
    metrics = _stage_minima(passes)
    metrics["setup_s"] = min(setups)
    return metrics, {"passes": passes, "setup_s": setups}


def _measure_traced(args, work: Path, ledger: Ledger, setup_tracer) -> tuple[dict, dict]:
    """Alternating untraced and traced passes; per-layer metrics."""
    from spans import Tracer

    plain, traced, layers, first = [], [], [], None
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(_run_pass(work, args.seed, ledger, f"untraced {len(plain)}"))
        tracer = Tracer()
        with tracer.installed():
            traced.append(_run_pass(work, args.seed, ledger, f"traced {len(traced)}", tracer))
        layers.append(_layer_metrics(tracer))
        first = first or tracer
    metrics = {name: statistics.median(m[name] for m in layers) for name, _ in PER_LAYER[:-1]}
    metrics["synth.generate.self_s"] = setup_tracer.summary()[1].get("synth.generate", 0.0)
    metrics["trace.overhead_s"] = (
        _stage_minima(traced)["pipeline_s"] - _stage_minima(plain)["pipeline_s"]
    )
    first.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
    return metrics, {"untraced_passes": plain, "traced_passes": traced, "per_pass": layers}


def main() -> int:
    parser = argparse.ArgumentParser(description="Stage-timed benchmark of the obsg pipeline.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale")
    args = parser.parse_args()
    if not (SRC / "obsg" / "__init__.py").is_file():
        print(f"error: no obsg sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import inputs
    import obsg.cli  # noqa: F401  (loads every obsg module before tracing)

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    shape = inputs.shape_of(args.workload, args.tiny)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "shape": shape,
              "stages": list(STAGES), "environment": _environment(blas_threads)}
    if args.trace:
        from spans import Tracer

        setup_tracer = Tracer()
        with setup_tracer.installed():
            digests = inputs.write_inputs(args.workload, args.seed, work, args.tiny)
        record["setup"] = {"sha256": digests}
    else:
        setup = _setup(args.workload, args.seed, work, args.tiny)
        record["setup"] = {"sha256": setup[1]}
    ledger = Ledger(_facts(work / "gt.json"), shape)
    if args.trace:
        metrics, detail = _measure_traced(args, work, ledger, setup_tracer)
        units = dict(PER_LAYER)
    else:
        metrics, detail = _measure(args, work, ledger, setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
    record.update(detail)
    record.update(outputs=ledger.outputs, failures=ledger.failures, metrics=metrics)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    for failure in ledger.failures:
        print(failure, file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
