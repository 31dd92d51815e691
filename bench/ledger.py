"""Run provenance and the benchmark ledger.

Every benchmark run appends one JSON line to ``out/ledger.jsonl`` (not
committed).  ``LEDGER.jsonl`` holds committed entries: summaries of ten-seed
runs, made with ``python3 bench/ledger.py LABEL out/ledger.jsonl``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

LEDGER = Path(__file__).resolve().parent / "LEDGER.jsonl"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _library(info: dict | None) -> dict | None:
    """A BLAS/LAPACK entry of numpy's build config, without build-host paths."""
    if info is None:
        return None
    return {k: v for k, v in info.items() if "directory" not in k}


def provenance() -> dict:
    """Machine and numerical-library facts that bound what a timing means."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _library(deps.get("blas")),
        "lapack": _library(deps.get("lapack")),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def append(entry: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def summarize(label: str, entries: list[dict]) -> dict:
    """Median and quartiles of every metric, per workload, trace setting and run length."""
    groups: dict[tuple, list[dict]] = {}
    for e in entries:
        groups.setdefault((e["workload"], e["trace"], e["seconds"]), []).append(e)
    workloads = {}
    for (name, trace, seconds), runs in sorted(groups.items()):
        metrics = {}
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in runs]
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            metrics[key] = {
                "median": q[1], "q1": q[0], "q3": q[2],
                "spread": (q[2] - q[0]) / q[1] if q[1] else None,
                "unit": runs[0]["metrics"][key]["unit"],
            }
            if len(runs) > 1 and all("wall_clock" in r for r in runs):
                w = statistics.quantiles([r["wall_clock"][key] for r in runs], n=4)
                metrics[key]["wall_clock"] = {"median": w[1],
                                              "spread": (w[2] - w[0]) / w[1] if w[1] else None}
        workloads[f"{name} trace={trace} seconds={seconds:g}"] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
    return {
        "label": label,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "provenance": provenance(),
        "workloads": workloads,
    }


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 bench/ledger.py LABEL RUN_LEDGER.jsonl")
    with open(sys.argv[2], encoding="utf-8") as f:
        runs = [json.loads(line) for line in f if line.strip()]
    append(summarize(sys.argv[1], runs), LEDGER)
