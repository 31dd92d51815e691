"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 9 is split: 9a checks tree frustration-freeness and 9b checks
that the tree finite-size bound is a sound, non-vacuous lower bound on the
exact gap of a three-level binary tree.  A sound tree bound must cover sibling
edge pairs (two edges sharing a parent vertex) as well as paths; for a rank-1
interaction that is not a product state, the sibling overlap caps the local gap
at 1 - 1/d, so at d = 3 a positive binary-tree bound exists only for
product-state interactions.  The analysis is in the docstring of
``gapcert.certificate``.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from gapcert import (
    CapQuery,
    ChainSpec,
    RandomSeed,
    TreeSpec,
    cap_lower_bound,
    cap_measure_exact,
    certify,
    construct_near_good,
    fnw_defect,
    gap_probability_bound,
    gap_report,
    meet,
    meet_von_neumann,
    projector_from_family,
    reference_projector,
    sample_family,
    sample_sphere,
)
from gapcert.harness import load_config, run_event_frequency, run_experiment
from conftest import cli_env, random_projector_matrix


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_reference_model_exactness():
    t0 = time.perf_counter()
    worst_ground, worst_gap_err = 0.0, 0.0
    for r in (1, 2):
        proj = reference_projector(3, r)
        for L in range(4, 10):
            method = "dense" if L <= 8 else "iterative"
            rep = gap_report(ChainSpec(3, r, L), proj, method=method, seed=RandomSeed(1, L))
            worst_ground = max(worst_ground, rep.ground_energy)
            worst_gap_err = max(worst_gap_err, abs(rep.gap - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_ground <= 1e-9 and worst_gap_err <= 1e-8 and elapsed < 120.0
    _report(1, "reference-model exactness", ok,
            f"max ground {worst_ground:.2e}, max |gap-1| {worst_gap_err:.2e}, {elapsed:.1f}s")


def test_criterion_02_deterministic_gap_guarantee():
    t0 = time.perf_counter()
    eps = 0.05
    level = 1.0 - 8.0 * 1 * eps  # 0.6
    fam = construct_near_good(3, 1, eps, RandomSeed(2, 0))
    proj = projector_from_family(fam)
    cert = certify(proj)
    gaps = {
        L: gap_report(ChainSpec(3, 1, L), proj, seed=RandomSeed(2, L)).gap
        for L in range(4, 9)
    }
    elapsed = time.perf_counter() - t0
    ok = (
        all(g > level for g in gaps.values())
        and cert.chain_bound >= level - 1e-8
        and elapsed < 120.0
    )
    _report(2, "deterministic gap guarantee", ok,
            f"min gap {min(gaps.values()):.6f} > {level}, chain bound {cert.chain_bound:.6f}, "
            f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def soundness_sweep():
    """100 seeded trials per configuration with certificates and exact L=6 gaps."""
    t0 = time.perf_counter()
    data = {}
    for d, r, master in ((2, 1, 300), (3, 1, 301), (3, 2, 302)):
        trials = []
        for t in range(100):
            seed = RandomSeed(master, t)
            proj = projector_from_family(sample_family(d, r, seed))
            cert = certify(proj)
            gap6 = gap_report(ChainSpec(d, r, 6), proj, seed=seed).gap
            trials.append({"seed": seed, "proj": proj, "cert": cert, "gap6": gap6})
        data[(d, r)] = trials
    data["elapsed"] = time.perf_counter() - t0
    return data


def test_criterion_03_finite_size_soundness_sweep(soundness_sweep):
    checked, violations, worst_margin = 0, 0, float("inf")
    for key in ((2, 1), (3, 1), (3, 2)):
        for trial in soundness_sweep[key]:
            g_loc = trial["cert"].gamma_loc
            if g_loc <= 1.0:
                checked += 1
                margin = trial["gap6"] - (2.0 * (g_loc - 0.5) - 1e-8)
                worst_margin = min(worst_margin, margin)
                if margin < 0:
                    violations += 1
    elapsed = soundness_sweep["elapsed"]
    ok = violations == 0 and elapsed < 600.0
    _report(3, "finite-size criterion soundness sweep", ok,
            f"{checked} cases checked, worst margin {worst_margin:.3e}, {elapsed:.1f}s")


def test_criterion_04_certificate_soundness(soundness_sweep):
    checked, violations, worst_margin = 0, 0, float("inf")
    for key in ((2, 1), (3, 1), (3, 2)):
        d, r = key
        for trial in soundness_sweep[key]:
            cert = trial["cert"]
            if cert.verdict != "certified-gapped":
                continue
            for L in range(4, 9):
                gap = gap_report(ChainSpec(d, r, L), trial["proj"], seed=trial["seed"]).gap
                checked += 1
                margin = gap - (cert.chain_bound - 1e-8)
                worst_margin = min(worst_margin, margin)
                if margin < 0:
                    violations += 1
    ok = violations == 0 and checked > 0
    _report(4, "certificate soundness", ok,
            f"{checked} (trial, length) pairs, worst margin {worst_margin:.3e}")


def test_criterion_05_anticommutator_inequality():
    t0 = time.perf_counter()
    gen = np.random.default_rng(505)
    worst = 0.0
    for trial in range(500):
        dim = int(gen.integers(4, 28))
        r1 = int(gen.integers(1, dim))
        r2 = int(gen.integers(1, dim))
        q1 = random_projector_matrix(dim, r1, 505, 2 * trial)
        q2 = random_projector_matrix(dim, r2, 505, 2 * trial + 1)
        worst = min(worst, fnw_defect(q1, q2))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-9 and elapsed < 60.0
    _report(5, "projector anticommutator inequality", ok,
            f"500 pairs, min defect {worst:.3e}, {elapsed:.1f}s")


def test_criterion_06_meet_oracle_equivalence():
    gen = np.random.default_rng(606)
    worst = 0.0
    for trial in range(100):
        dim = int(gen.integers(4, 28))
        r1 = int(gen.integers(1, dim))
        r2 = int(gen.integers(1, dim))
        q1 = random_projector_matrix(dim, r1, 606, 2 * trial)
        q2 = random_projector_matrix(dim, r2, 606, 2 * trial + 1)
        diff = np.linalg.norm(meet(q1, q2) - meet_von_neumann(q1, q2), 2)
        worst = max(worst, diff)
    ok = worst <= 1e-8
    _report(6, "meet oracle equivalence", ok, f"100 pairs, max difference {worst:.3e}")


def test_criterion_07_cap_measure():
    # master seed frozen: the (8, 0.2) cell has measure 3.4e-7, i.e. an expected
    # hit count of 0.03 at 1e5 samples, where a single Poisson hit already
    # exceeds four normal standard errors
    samples = 100_000
    worst_sigma = 0.0
    for idx, (n, delta) in enumerate((n, d) for n in (3, 8, 15) for d in (0.2, 0.5, 1.0)):
        p = cap_measure_exact(CapQuery(n, delta))
        pts = sample_sphere(n, samples, RandomSeed(1, idx))
        freq = float(np.mean(pts[:, 0] > math.cos(delta)))
        se = math.sqrt(p * (1.0 - p) / samples)
        worst_sigma = max(worst_sigma, abs(freq - p) / se)
    mc_ok = worst_sigma < 4.0

    bound_ok = all(
        cap_measure_exact(CapQuery(n, float(delta))) > cap_lower_bound(CapQuery(n, float(delta)))
        for n in (3, 8, 15, 24)
        for delta in np.linspace(0.01, 0.24, 50)
    )
    circle_err = max(
        abs(cap_measure_exact(CapQuery(1, float(d))) - float(d) / math.pi)
        for d in np.linspace(0.01, 3.1, 40)
    )
    ok = mc_ok and bound_ok and circle_err <= 1e-10
    _report(7, "cap measure", ok,
            f"MC worst {worst_sigma:.2f} sigma, bound grid {'ok' if bound_ok else 'VIOLATED'}, "
            f"circle closed form err {circle_err:.1e}")


def test_criterion_08_landing_frequency():
    cfg = load_config({
        "mode": "event-frequency", "d": 2, "r": 1, "epsilon": 0.2,
        "trials": 1_000_000, "master_seed": 808, "threads": 1,
    })
    row = run_event_frequency(cfg).rows[0]
    p = row["exact_cap"]
    se = math.sqrt(p * (1.0 - p) / row["trials"])
    ok = (
        abs(row["frequency"] - p) < 4.0 * se
        and row["frequency"] > row["landing_bound"]
        and abs(row["landing_bound"] - 3.4435e-8) < 1e-11
    )
    _report(8, "landing frequency", ok,
            f"freq {row['frequency']:.6e} vs exact {p:.6e} "
            f"({abs(row['frequency'] - p) / se:.2f} sigma), bound {row['landing_bound']:.3e}")


def test_criterion_09a_tree_frustration_freeness():
    spec = TreeSpec(3, 1, 2, 3)
    assert spec.dim == 2187
    worst = -float("inf")
    for label, fam in (
        ("haar", sample_family(3, 1, RandomSeed(909, 0))),
        ("near-good", construct_near_good(3, 1, 1.0 / 18.0, RandomSeed(909, 1))),
    ):
        rep = gap_report(spec, projector_from_family(fam), method="dense")
        worst = max(worst, rep.ground_energy)
    ok = worst <= 1e-9
    _report(9, "tree frustration-freeness (9a)", ok, f"max ground energy {worst:.2e}, dim 2187")


def test_criterion_09b_tree_bound_soundness():
    # Soundness on the near-reference family, whose exact 3-level tree gap is
    # about 7e-5: its sibling edge pairs (sharing a parent) have a local gap of
    # about 1.7e-3, so a sound bound cannot be positive there.  Non-vacuity on
    # the reference projector, whose tree bound and exact tree gap are both 1.
    # Analysis: docstring of gapcert.certificate.
    spec = TreeSpec(3, 1, 2, 3)
    fam = construct_near_good(3, 1, 1.0 / 18.0, RandomSeed(909, 1))
    proj = projector_from_family(fam)
    bound = certify(proj, k_list=(2,)).tree_bounds[2]
    gap = gap_report(spec, proj, method="dense").gap
    ref = reference_projector(3, 1)
    ref_bound = certify(ref, k_list=(2,)).tree_bounds[2]
    ref_gap = gap_report(spec, ref, method="dense").gap
    ok = gap >= bound - 1e-8 and ref_bound > 0 and ref_gap >= ref_bound - 1e-8
    _report(9, "tree finite-size bound at three levels (9b)", ok,
            f"near-good: bound {bound:.6f}, exact tree gap {gap:.3e}; "
            f"reference: bound {ref_bound:.6f}, exact tree gap {ref_gap:.6f}")


def test_criterion_10_positive_probability_reproduction():
    cfg = load_config({
        "mode": "gap-sweep", "d": 3, "r": 1, "trials": 2000,
        "master_seed": 1010, "compute_gaps": False, "epsilon": 1.0 / 16.0,
    })
    result = run_experiment(cfg)
    s = result.summary
    bound = gap_probability_bound(3, 1, 1.0 / 16.0)
    ok = (
        s["failed_rows"] == 0
        and s["certified_rows"] >= 1
        and s["certified_fraction"] >= bound
        and abs(s["gap_probability_bound"] - bound) == 0.0
    )
    _report(10, "positive-probability reproduction", ok,
            f"certified {s['certified_rows']}/2000, fraction {s['certified_fraction']:.4f} "
            f">= bound {bound:.3e}")


def test_criterion_11_determinism_across_threads(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "mode": "gap-sweep", "d": 3, "r": 1, "trials": 20, "L": [4, 6],
        "master_seed": 1111,
    }))
    payloads = []
    for threads in (1, 8):
        out = tmp_path / f"out_{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "gapcert", "sweep", "--config", str(cfg_path),
             "--out", str(out), "--threads", str(threads)],
            capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1] and len(payloads[0]) > 0
    _report(11, "determinism across thread counts", ok,
            f"{len(payloads[0])} bytes, identical={payloads[0] == payloads[1]}")
