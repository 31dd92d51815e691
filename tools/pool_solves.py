"""Every Krylov pool block checked against its reference, with the work of each solve.

    python3 tools/pool_solves.py

Run from any directory; the package is imported from this checkout's ``src/``
and the workloads, references and output check from its ``bench/``, which are
read, not changed.  Every block of the chain-krylov and tree-krylov pools goes
through ``load_config`` and ``run_experiment``, as the CLI drives them, and
``bench/check.py``'s ``check_block`` compares its rendered output with
``bench/reference``.  Per pool it prints each failing block, the largest
|gap - reference| over its rows and the block where it occurs, and, as
median/p90/max over the solves, the Lanczos steps, full Gram-Schmidt passes,
Ritz checks and restarts of each solve; the time each pool took goes to
standard error.  Takes about 15 s on a 2-CPU x86-64 machine with one BLAS
thread (``OPENBLAS_NUM_THREADS=1``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gapcert.harness as harness  # noqa: E402
from check import check_block, parse_output  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

POOLS = ("chain-krylov", "tree-krylov")
WORK = ("iterations", "full_passes", "ritz_checks", "restarts")


def pool_solves(workload) -> tuple[list[str], tuple[float, int], list]:
    """The failures of every block of one pool, its largest |gap - reference|
    with the block where it occurs, and the `SolverStats` of its solves."""
    reference = json.loads((ROOT / "bench" / "reference" / f"{workload.name}.json")
                           .read_text(encoding="utf-8"))["blocks"]
    mode = workload.config["mode"]
    failures, solves, inner = [], [], harness.gap_report
    worst = (-1.0, None)

    def recording(*args, **kwargs):
        rep = inner(*args, **kwargs)
        solves.append(rep.solver)
        return rep

    harness.gap_report = recording
    try:
        for block in range(workload.pool_blocks):
            cfg = harness.load_config(workload.block_config(block))
            text = harness.run_experiment(cfg).render()
            checked = check_block(mode, text, reference[block], workload.block_trials)
            failures += [f"block {block}: {msg}" for msg in checked.failures]
            gaps = {(int(ref[0]), int(ref[1])): ref[3] for ref in reference[block]}
            for row in parse_output(text)[0]:
                ref = gaps.get((int(row["trial"]), int(row["L"])))
                if row["gap"] and ref is not None and abs(float(row["gap"]) - ref) > worst[0]:
                    worst = abs(float(row["gap"]) - ref), block
    finally:
        harness.gap_report = inner
    return failures, worst, [s for s in solves if s is not None]


def main() -> None:
    for name in POOLS:
        workload = WORKLOADS[name]
        t0 = time.perf_counter()
        failures, (diff, where), stats = pool_solves(workload)
        print(f"{name}: {workload.pool_blocks} blocks, {len(failures)} failures")
        for line in failures:
            print(f"  {line}")
        print(f"  largest |gap - reference| {diff:.3g} at block {where}")
        print(f"  {len(stats)} solves, per solve median/p90/max:")
        for field in WORK:
            x = np.array([getattr(s, field) for s in stats], dtype=float)
            print(f"  {field:12s} {np.median(x):g}/{np.percentile(x, 90):g}/{x.max():g}")
        sys.stdout.flush()
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
