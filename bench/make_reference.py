"""Record the reference outputs of every workload's block pool.

Runs each pool block through gapcert once and stores the rows the output check
compares against.  Iterative gaps are replaced by exact values from a dense
eigensolve of the same Hamiltonian, and every Krylov/dense disagreement beyond
the check's gap tolerance is reported.  The matvec columns each block needs
are recorded as its cost, which stratifies the pool (see workloads.py).  Rerun
only when a workload definition changes:

    python3 bench/make_reference.py [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import check
import ledger
import spans
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _round(x):
    return float(f"{x:.13g}") if isinstance(x, float) else x


def _dense_gap(cfg: dict, master_seed: int, trial: int, L: int) -> float:
    from gapcert import (ChainSpec, RandomSeed, TreeSpec, construct_near_good,
                         dense_hamiltonian, projector_from_family, sample_family)

    seed = RandomSeed(master_seed, trial)
    if cfg.get("family") == "near-good":
        family = construct_near_good(cfg["d"], cfg["r"], cfg["epsilon"], seed)
    else:
        family = sample_family(cfg["d"], cfg["r"], seed)
    proj = projector_from_family(family)
    if cfg["mode"] == "tree-gap":
        spec = TreeSpec(cfg["d"], cfg["r"], cfg["k"], L)
    else:
        spec = ChainSpec(cfg["d"], cfg["r"], L)
    evals = np.linalg.eigvalsh(dense_hamiltonian(spec, proj))
    return float(evals[evals > check.RES_RTOL * spec.n_terms][0])


def make(workload, out_dir: Path, tracer: spans.Tracer) -> None:
    """Write ``out_dir/<name>.json``; `tracer` must be installed, to count matvec columns."""
    from gapcert.harness import load_config, run_experiment

    mode = workload.config["mode"]
    iterative = workload.config.get("gap_method") == "iterative"
    blocks, cost, worst, disagreements = [], [], 0.0, 0
    t0 = time.perf_counter()
    for b in range(workload.pool_blocks):
        obj = workload.block_config(b)
        tracer.spans.clear()
        result = run_experiment(load_config(obj))
        cost.append(sum(s[6]["cols"] for s in tracer.spans if s[1] in spans.MATVECS))
        rows, _ = check.parse_output(result.render())
        ref = check.reference_rows(mode, rows)
        if iterative:
            for row in ref:
                exact = _dense_gap(obj, obj["master_seed"], row[0], row[1])
                tol = 2 * check.RES_RTOL * max(1, check.n_terms(mode, row[1], obj.get("k")))
                worst = max(worst, abs(row[3] - exact))
                disagreements += abs(row[3] - exact) > tol
                row[3] = exact
        blocks.append([[_round(x) for x in row] for row in ref])
    doc = {
        "workload": workload.name,
        "config": workload.config,
        "block_trials": workload.block_trials,
        "pool_seed": workload.pool_seed,
        "provenance": ledger.provenance(),
        "krylov_dense_max_abs_diff": worst if iterative else None,
        "krylov_dense_disagreements": disagreements if iterative else None,
        "fields": ["trials", "successes"] if mode == "event-frequency" else check.ROW_FIELDS,
        "block_cost": cost,
        "blocks": blocks,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{workload.name}.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")
    print(f"{workload.name}: {len(blocks)} blocks in {time.perf_counter() - t0:.1f}s, "
          f"krylov/dense max diff {doc['krylov_dense_max_abs_diff']}, "
          f"disagreements {doc['krylov_dense_disagreements']}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help="default: all")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    tracer = spans.Tracer()
    tracer.install()
    for name in args.workloads or list(WORKLOADS):
        make(WORKLOADS[name], REFERENCE_DIR, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
