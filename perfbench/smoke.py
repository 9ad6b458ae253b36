"""Smoke test of the benchmark: every workload once, at tiny scale.

    python3 perfbench/smoke.py

Runs the command of BENCHMARK.json with ``--tiny`` on each workload, untraced
and traced.  Each run must exit 0, pass its output checks, and emit every
metric of BENCHMARK.json (end-to-end untraced, per-layer traced) with the
unit listed there, and nothing else.  Exits 1 listing what failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    key = "per_layer" if trace else "end_to_end"
    command = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: output checks failed\n{proc.stderr}")
    emitted = result["metrics"]
    for metric in spec[key]:
        got = emitted.get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{where}: {metric['name']} missing or not in {metric['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {metric['name']} is not a number")
    extra = sorted(set(emitted) - {m["name"] for m in spec[key]})
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {extra}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    for problem in problems:
        print(problem)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
