"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py

Runs every workload pipeline on a few trials at small sizes against a freshly
made tiny reference, with its ledger and traces in a temporary directory, checks
that each metric named in BENCHMARK.json is emitted with its unit, and that the
output check rejects perturbed rows.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for w in TINY.values():
            make_reference.make(w, out, tracer)
    finally:
        tracer.uninstall()
    return out


def test_spec_matches_workloads_and_metric_map():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)
    mapped = json.loads((BENCH / "metric_map.json").read_text(encoding="utf-8"))
    assert set(mapped["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(mapped["workloads"]) == set(WORKLOADS)


def test_committed_reference_matches_workloads():
    for w in WORKLOADS.values():
        ref = json.loads((BENCH / "reference" / f"{w.name}.json").read_text(encoding="utf-8"))
        assert (ref["config"], ref["block_trials"], ref["pool_seed"], len(ref["blocks"])) == (
            w.config, w.block_trials, w.pool_seed, w.pool_blocks)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_emits_every_metric(workload, trace, tiny_reference, tmp_path):
    run_ledger = run.OUT / "ledger.jsonl"
    before = run_ledger.read_bytes() if run_ledger.exists() else None
    result = run.run_workload(TINY[workload], 5, 0.3, bool(trace), tiny_reference, tmp_path)
    after = run_ledger.read_bytes() if run_ledger.exists() else None
    assert before == after  # tiny runs stay out of the benchmark's own ledger
    entries = (tmp_path / "ledger.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(e)["workload"] for e in entries] == [workload]
    result = json.loads(json.dumps(result))  # as main prints it
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_timings_scale_with_calibration():
    import calibrate

    ref_s = calibrate.REFERENCE_S["python"]
    blocks = [{"trials": 2, "wall_s": 1.0, "trial_wall": [0.4, 0.6], "peak_rss_mb": 50.0,
               "speed_scale": calibrate.scale(ref_s, "python")},
              {"trials": 2, "wall_s": 2.0, "trial_wall": [], "peak_rss_mb": 60.0,
               "speed_scale": calibrate.scale(2 * ref_s, "python")}]
    setup = [(0.2, 1.0), (0.4, 0.5)]
    wall = run.end_to_end(blocks, setup, scaled=False)
    ref = run.end_to_end(blocks, setup, scaled=True)
    assert wall["trials_per_s"][0] == pytest.approx(4 / 3.0)
    assert ref["trials_per_s"][0] == pytest.approx(4 / 2.0)  # block 2 ran on a host at half speed
    assert sorted(run.trial_latencies(blocks, True)) == pytest.approx([0.4, 0.5, 0.6])
    assert ref["setup_s"][0] == pytest.approx(0.2) and wall["setup_s"][0] == pytest.approx(0.3)
    assert ref["peak_rss_mb"] == wall["peak_rss_mb"] == (55.0, 2)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    shutil.copytree(BENCH / "reference", tmp_path / "bench" / "reference")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "event-freq", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


SWEEP = {"mode": "gap-sweep", "d": 3, "r": 1, "L_range": [4, 4], "trials": 3, "master_seed": 5}


@pytest.fixture(scope="module")
def sweep_block():
    from gapcert.harness import load_config, run_experiment

    text = run_experiment(load_config(SWEEP)).render()
    rows, _ = check.parse_output(text)
    return text, check.reference_rows("gap-sweep", rows)


def _edit(text: str, trial: int, column: str, value: str) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[1 + trial].rstrip("\n").split(",")
    cells[header.index(column)] = value
    lines[1 + trial] = ",".join(cells) + "\n"
    return "".join(lines)


def test_check_accepts_unchanged_block(sweep_block):
    text, ref = sweep_block
    assert check.check_block("gap-sweep", text, ref, 3).failures == []


@pytest.mark.parametrize("column,value", [
    ("gap", "0.25"), ("kernel_dim", "54"), ("verdict", "inconclusive"),
    ("coupling_norm", "0.3821"), ("status", "error"), ("frustration_free", "false"),
])
def test_check_rejects_perturbed_row(sweep_block, column, value):
    text, ref = sweep_block
    bad = _edit(text, 2, column, value)
    assert bad != text
    result = check.check_block("gap-sweep", bad, ref, 3)
    assert len(result.failures) == 1


def test_check_rejects_missing_row(sweep_block):
    text, ref = sweep_block
    lines = text.splitlines(keepends=True)
    assert len(check.check_block("gap-sweep", "".join(lines[:2] + lines[3:]), ref, 3).failures) == 1


def test_check_counts_chain_criterion_violation(sweep_block):
    text, ref = sweep_block
    row = ref[2]
    assert row[7] == "certified-gapped"  # trial 2 of this block is certified
    low = check.chain_bound(max(row[6], 1.0 - row[5])) - 0.01
    ref = [list(r) for r in ref]
    ref[2][3] = low
    result = check.check_block("gap-sweep", _edit(text, 2, "gap", repr(low)), ref, 3)
    assert result.chain_bound_violations == 1 and len(result.failures) == 1
