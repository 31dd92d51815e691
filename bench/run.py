"""gapcert benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root; the package is imported from ``src/``.  The seed
orders the workload's block pool (see workloads.py); a worker process runs the
blocks through ``load_config`` / ``run_experiment`` / ``render`` and the output
of every block is checked against the recorded reference (see check.py).

``--trace 0`` runs blocks for ``--seconds`` seconds and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of blocks twice, untraced and
traced, checks that both print the same bytes, and reports the per-layer
metrics derived from the traced run's spans plus the tracing overhead.  Metric
names and units are those of BENCHMARK.json.  The last line of the output is
one JSON object; every run also appends an entry to ``out/ledger.jsonl``.

``setup_s`` is the median wall time of fresh processes that import gapcert and
load the workload's config, sampled half before and half after the timed run.
``peak_rss_mb`` is the median, over the timed blocks, of the worker's peak
resident memory while each block ran.  The first block of a run warms the
worker up and is checked but not timed.

Every end-to-end timing is reported at the reference machine speed: it is
scaled by the calibration kernel's time measured beside it (see calibrate.py;
the workload names its kernel, ``setup_s`` uses ``python``), so a shift of the
shared host's speed between runs cancels.  The ledger entry keeps the
wall-clock values too, under ``wall_clock``.  Per-layer metrics are wall clock.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import check
import ledger
import spans
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"
SETUP_RUNS = 16
WORKER_TIMEOUT_S = 150
SETUP_CODE = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
              "from gapcert.harness import load_config; load_config(json.loads(sys.argv[2]))")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def metric_units() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_reference(workload, reference_dir: Path) -> dict:
    path = reference_dir / f"{workload.name}.json"
    try:
        with open(path, encoding="utf-8") as f:
            ref = json.load(f)
    except OSError as exc:
        raise BenchError(f"no reference for {workload.name}: {exc}") from exc
    if (ref["config"], ref["block_trials"], ref["pool_seed"], len(ref["blocks"])) != (
            workload.config, workload.block_trials, workload.pool_seed, workload.pool_blocks):
        raise BenchError(f"{path} was made for another definition of {workload.name}")
    return ref


def setup_times(config: dict, runs: int) -> list[tuple[float, float]]:
    """Wall time of fresh processes importing gapcert and loading `config`,
    each with its speed scale from the ``python`` kernel measured right after it."""
    obj = json.dumps(config)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), obj],
                              capture_output=True, text=True, timeout=60)
        times.append((time.perf_counter() - t0,
                      calibrate.scale(calibrate.sample("python"), "python")))
        if proc.returncode != 0:
            raise BenchError(f"setup process failed: {proc.stderr.strip()}")
    return times


def run_worker(blocks: list, warmup: int, seconds: float | None, calibration: str,
               trace_file: Path | None, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        job_path, result_path = Path(tmp) / "job.json", Path(tmp) / "result.json"
        job = {"src": str(SRC), "blocks": blocks, "warmup": warmup, "seconds": seconds,
               "calibration": calibration, "trace_file": str(trace_file) if trace_file else None}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path), str(result_path)],
                capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S}s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker failed:\n{proc.stderr.strip()}")
        return json.loads(result_path.read_text(encoding="utf-8"))


def check_blocks(workload, blocks: list, reference: list) -> check.BlockCheck:
    total = check.BlockCheck()
    mode = workload.config["mode"]
    for b in blocks:
        c = check.check_block(mode, b["output"], reference[b["block"]], workload.block_trials)
        total.attempted += c.attempted
        total.failures += [f"block {b['block']}: {msg}" for msg in c.failures]
        total.chain_bound_violations += c.chain_bound_violations
        total.tree_bound_violations += c.tree_bound_violations
    return total


def trial_latencies(blocks: list, scaled: bool) -> list[float]:
    """Per-trial wall times; a mode without them gives block wall / trials."""
    lat = []
    for b in blocks:
        f = b["speed_scale"] if scaled else 1.0
        lat += [t * f for t in b["trial_wall"]] or [b["wall_s"] * f / b["trials"]]
    return lat


def end_to_end(blocks: list, setup: list[tuple[float, float]], scaled: bool) -> dict:
    """End-to-end metrics, at the reference machine speed if `scaled`, else wall clock."""
    trials = sum(b["trials"] for b in blocks)
    wall = sum(b["wall_s"] * (b["speed_scale"] if scaled else 1.0) for b in blocks)
    lat = trial_latencies(blocks, scaled)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    setup_s = [t * (f if scaled else 1.0) for t, f in setup]
    return {
        "trials_per_s": (trials / wall, trials),
        "trial_p50_s": (statistics.median(lat), len(lat)),
        "trial_p90_s": (p90, len(lat)),
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in blocks), len(blocks)),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, reference_dir: Path,
                 out_dir: Path) -> dict:
    """Run one workload, print its metrics and append a ledger entry in `out_dir`."""
    ref = load_reference(workload, reference_dir)
    reference = ref["blocks"]
    e2e_units, layer_units = metric_units()
    order = workload.block_order(seed, ref["block_cost"], seconds)
    notes = {}
    if not trace:
        setup_config = workload.block_config(order[0])
        setup = setup_times(setup_config, SETUP_RUNS // 2)
        # The first block warms the process up untimed (lazy imports, BLAS start-up).
        cycled = [[b, workload.block_config(b)] for b in order * 50]
        res = run_worker(cycled, 1, seconds, workload.calibration, None, out_dir)
        setup += setup_times(setup_config, SETUP_RUNS - len(setup))
        result = check_blocks(workload, res["blocks"], reference)
        timed = [b for b in res["blocks"] if not b["warmup"]]
        values = end_to_end(timed, setup, scaled=True)
        units = e2e_units
        raw = end_to_end(timed, setup, scaled=False)
        notes["wall_clock"] = {k: raw[k][0] for k in units}
        notes["speed_scale"] = statistics.median(b["speed_scale"] for b in timed)
    else:
        n = max(1, round(seconds / 2 / workload.block_s))
        fixed = [[b, workload.block_config(b)] for b in (order * n)[:n]]
        trace_file = out_dir / f"trace-{workload.name}.jsonl"
        plain = run_worker(fixed, 0, None, workload.calibration, None, out_dir)
        traced = run_worker(fixed, 0, None, workload.calibration, trace_file, out_dir)
        result = check_blocks(workload, plain["blocks"], reference)
        traced_check = check_blocks(workload, traced["blocks"], reference)
        result.attempted += traced_check.attempted
        result.failures += traced_check.failures
        same_bytes = [p["output"] == t["output"]
                      for p, t in zip(plain["blocks"], traced["blocks"])]
        if not all(same_bytes) or len(same_bytes) != n:
            result.failures.append("traced output differs from untraced output")
        notes["traced_output_identical"] = all(same_bytes)
        plain_wall = sum(b["wall_s"] for b in plain["blocks"])
        traced_wall = sum(b["wall_s"] for b in traced["blocks"])
        layer = spans.layer_metrics(spans.load(trace_file), {
            "trial_wall": [t for b in traced["blocks"] for t in b["trial_wall"]],
            "threads": workload.config["threads"],
            "chain_bound_violations": traced_check.chain_bound_violations,
            "tree_bound_violations": traced_check.tree_bound_violations,
        })
        layer["trace_overhead"] = (traced_wall - plain_wall) / plain_wall
        values = {k: (v, len(traced["blocks"])) for k, v in layer.items()}
        units = layer_units
        notes["trace_file"] = trace_file.name
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    failed = len(result.failures)
    metrics = {k: {"value": values[k][0], "unit": units[k]} for k in units}
    entry = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "provenance": ledger.provenance(),
        "samples": {k: values[k][1] for k in units},
        "metrics": metrics,
        "attempted": result.attempted, "failed": failed,
        "failed_frac": failed / result.attempted if result.attempted else None,
        "chain_bound_violations": result.chain_bound_violations,
        "tree_bound_violations": result.tree_bound_violations,
        "failures": result.failures[:20],
        **notes,
    }
    ledger.append(entry, out_dir / "ledger.jsonl")
    for k in units:
        wall_clock = f"  wall clock {notes['wall_clock'][k]:.6g}" if "wall_clock" in notes else ""
        print(f"{workload.name:13s} {k:40s} {values[k][0]:14.6g} {units[k]:6s} "
              f"(n={values[k][1]}){wall_clock}")
    print(f"{workload.name:13s} failed_frac {entry['failed_frac']:.4g} ({failed}/{result.attempted} rows); "
          f"chain_bound_violations {result.chain_bound_violations}; "
          f"tree_bound_violations {result.tree_bound_violations} (known defect, not a failure)")
    for msg in result.failures[:5]:
        print(f"{workload.name:13s} FAILED {msg}")
    return {"correct": failed == 0 and result.attempted > 0, "attempted": result.attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gapcert benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if not (SRC / "gapcert" / "__init__.py").is_file():
            raise BenchError(f"gapcert sources not found under {SRC.relative_to(ROOT)}/")
        if args.workload != "all":
            out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), REFERENCE_DIR, OUT)
        else:
            out = {f"{name} trace={trace}": run_workload(w, args.seed, args.seconds, bool(trace),
                                                         REFERENCE_DIR, OUT)
                   for name, w in WORKLOADS.items() for trace in (0, 1)}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
