"""Outside-in tracing of obsg for the benchmark's traced run.

``Tracer.installed`` wraps every public function of the obsg modules that do
per-call work, and rebinds the wrapper at every import site: obsg binds
names with ``from .geometry import rotated_iou``, so patching the defining
module alone would miss ``obsg.metrics.rotated_iou`` and the like.  Each
call records a span (name, start, end, parent) in flat arrays kept in
memory; ``save`` writes them out at the end.  A span's self time is its
duration minus the durations of its child spans.  Some wrappers also count
the work a call did, from its arguments and result.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("geometry", "datamodel", "pairing", "scorer", "metrics", "ingest", "stats", "synth")


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_iou(tracer, args, kwargs, result):
    tracer.counts["geometry.rotated_iou.nonzero"] += result > 0.0


def _count_predict(tracer, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "scene").objects)
    tracer.counts["scorer.pairs_scored"] += n * (n - 1)
    tracer.counts["scorer.triplets_emitted"] += len(result)


def _count_train_rows(tracer, args, kwargs, result):
    # Every epoch of one training run sees the same batch: keep its row
    # count once per calling span.
    tracer.train_rows[tracer.current()] = len(_arg(args, kwargs, 1, "features"))


def _count_match(tracer, args, kwargs, result):
    ranked = len(result.ranking)
    tracer.counts["metrics.match_triplets.candidate_checks"] += ranked * len(
        _arg(args, kwargs, 1, "targets")
    )
    tracer.counts["metrics.match_triplets.ranked"] += ranked
    tracer.counts["metrics.match_triplets.matched"] += sum(g >= 0 for g in result.matched)


def _count_parsed(tracer, args, kwargs, result):
    tracer.counts["datamodel.bytes_parsed"] += len(_arg(args, kwargs, 0, "data"))


def _count_serialized(tracer, args, kwargs, result):
    tracer.counts["datamodel.bytes_serialized"] += len(result)


def _count_crop(tracer, args, kwargs, result):
    tracer.counts["ingest.crop_scene.objects_in"] += len(_arg(args, kwargs, 0, "scene").objects)
    tracer.counts["ingest.crop_scene.objects_kept"] += len(result.objects)


def _count_nms(tracer, args, kwargs, result):
    tracer.counts["ingest.rotated_nms.in"] += len(_arg(args, kwargs, 0, "detections"))
    tracer.counts["ingest.rotated_nms.kept"] += len(result)


OBSERVERS = {
    "geometry.rotated_iou": _count_iou,
    "scorer.predict_triplets": _count_predict,
    "scorer.linear_loss_and_grad": _count_train_rows,
    "metrics.match_triplets": _count_match,
    "datamodel.parse_dataset": _count_parsed,
    "datamodel.parse_predictions": _count_parsed,
    "datamodel.serialize_dataset": _count_serialized,
    "datamodel.serialize_predictions": _count_serialized,
    "ingest.crop_scene": _count_crop,
    "ingest.rotated_nms": _count_nms,
}


class Tracer:
    """Span recorder; create one per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.train_rows: dict[int, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> int:
        return self._stack[-1]

    def _open(self, ident: int) -> int:
        index = len(self.start)
        self.name.append(ident)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        index = self._open(self._id(name))
        self.start[index] = time.perf_counter()
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        ident = self._id(name)
        observe = OBSERVERS.get(name)
        open_span, stack, start, end = self._open, self._stack, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = open_span(ident)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                start[index] = t0
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self) -> list[tuple[object, str, object]]:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"obsg.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patched = []
        modules = [m for n, m in list(sys.modules.items()) if n == "obsg" or n.startswith("obsg.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, obj))
        return patched

    @contextmanager
    def installed(self):
        """Rebind every public function of ``LAYERS`` at every obsg import
        site to a recording wrapper for the duration of the block."""
        patched = self._patch()
        try:
            yield self
        finally:
            for module, attr, obj in reversed(patched):
                setattr(module, attr, obj)

    def summary(self) -> tuple[dict[str, int], dict[str, float]]:
        """Call count and total self time per span name."""
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.intc)
        name = np.frombuffer(self.name, dtype=np.intc)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        self_time = np.bincount(name, weights=duration - children, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(self_time[i]) for i, n in enumerate(self.names)},
        )

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
