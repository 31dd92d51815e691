"""The benchmark's workloads: gapcert experiment configs cut into seeded blocks.

A workload is one CLI configuration (d=3, r=1 throughout) run as a sequence of
blocks.  A block is one ``run_experiment`` call on ``block_trials`` trials with
its own master seed.  Every workload has a fixed pool of ``pool_blocks`` blocks
whose outputs were recorded once, at the commit that defined the benchmark, in
``reference/<name>.json``.  The benchmark seed only chooses the order in which
a run walks the pool, so every row a run produces has a reference to be checked
against, and two seeds see different inputs.

Krylov trials differ widely in cost (one sampled projector can take four times
as long as another), so a run that drew its inputs at random would measure its
luck as much as the program.  The Krylov workloads therefore use one-trial
blocks, the pool is cut into groups of similar cost, by the matvec columns each
block needed at the defining commit, one group per block a run is expected to
finish, and a run takes one block from every group before it takes a second
from any: each run sees the same mix of easy and hard inputs.  Within a round
the groups are visited in a golden-ratio sequence over their cost rank, so a
run that ends mid-round has still sampled easy and hard groups evenly.  (With a
plain seeded permutation of the pool instead, ten 25 s runs of tree-krylov on a
2-CPU x86-64 machine spread 30% in trial_p90_s, IQR over median, against 10-15%
stratified.)  Dense and sampling costs do not depend on the input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_GOLDEN = (5**0.5 - 1) / 2


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # gapcert config without master_seed and trials
    block_trials: int
    pool_blocks: int
    pool_seed: int  # block b runs with master_seed = pool_seed + b
    block_s: float  # block wall time at the defining commit; sizes the traced run
    calibration: str = "python"  # calibrate.py kernel that follows this workload's speed

    def block_config(self, block: int) -> dict:
        return {**self.config, "master_seed": self.pool_seed + block, "trials": self.block_trials}

    def block_order(self, seed: int, cost: list[float], seconds: float) -> list[int]:
        """The pool walked in a seed-dependent, cost-stratified order."""
        rng = np.random.default_rng(seed)
        by_cost = np.argsort(np.asarray(cost), kind="stable")
        groups = min(self.pool_blocks, max(1, round(seconds / self.block_s)))
        strata = [list(rng.permutation(g)) for g in np.array_split(by_cost, groups)]
        order = []
        while any(strata):
            visit = np.argsort((np.arange(groups) * _GOLDEN + rng.random()) % 1.0)
            order += [int(strata[i].pop()) for i in visit if strata[i]]
        return order


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain-krylov",
            {"mode": "gap-sweep", "d": 3, "r": 1, "L": [7], "gap_method": "iterative",
             "threads": 1},
            block_trials=1, pool_blocks=480, pool_seed=11_000, block_s=0.3,
        ),
        Workload(
            "tree-krylov",
            {"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 3, "family": "near-good",
             "epsilon": 1.0 / 18.0, "gap_method": "iterative", "threads": 1},
            block_trials=1, pool_blocks=192, pool_seed=12_000, block_s=0.7,
        ),
        Workload(
            "sweep-dense",
            {"mode": "gap-sweep", "d": 3, "r": 1, "L_range": [4, 6], "threads": 2},
            block_trials=25, pool_blocks=60, pool_seed=13_000, block_s=1.4,
            calibration="lapack",
        ),
        Workload(
            "event-freq",
            {"mode": "event-frequency", "d": 3, "r": 1, "epsilon": 0.2, "threads": 1},
            block_trials=10_000, pool_blocks=200, pool_seed=14_000, block_s=0.25,
        ),
    )
}

# The same pipelines at a few trials and small sizes, for the self-test.
TINY = {
    "chain-krylov": replace(WORKLOADS["chain-krylov"], block_trials=2, pool_blocks=3,
                            config={**WORKLOADS["chain-krylov"].config, "L": [5]}, block_s=0.1),
    "tree-krylov": replace(WORKLOADS["tree-krylov"], block_trials=2, pool_blocks=3,
                           config={**WORKLOADS["tree-krylov"].config, "L": 2}, block_s=0.1),
    "sweep-dense": replace(WORKLOADS["sweep-dense"], block_trials=3, pool_blocks=3,
                           config={**WORKLOADS["sweep-dense"].config, "L_range": [4, 4]},
                           block_s=0.1),
    "event-freq": replace(WORKLOADS["event-freq"], block_trials=2000, pool_blocks=3,
                          block_s=0.1),
}
