"""One sha256 per benchmark workload over the rendered output of its whole pool.

    python3 tools/pool_digest.py

Run from any directory; the package is imported from this checkout's ``src/``
and the workloads from its ``bench/workloads.py``, which is read, not changed.
Every block of every pool goes through ``load_config``, ``run_experiment`` and
``render``, as the CLI drives them, and the digest of a workload covers its
blocks' outputs in pool order.  Two checkouts whose standard output is the
same render the same bytes on every input the benchmark can draw; the time
each pool took goes to standard error.  Takes about a minute on a 2-CPU
x86-64 machine.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from gapcert.harness import load_config, run_experiment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def pool_digest(workload) -> str:
    h = hashlib.sha256()
    for block in range(workload.pool_blocks):
        text = run_experiment(load_config(workload.block_config(block))).render()
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def main() -> None:
    for name, workload in WORKLOADS.items():
        t0 = time.perf_counter()
        digest = pool_digest(workload)
        print(f"{name} {digest}", flush=True)
        print(f"{name}: {workload.pool_blocks} blocks in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)


if __name__ == "__main__":
    main()
