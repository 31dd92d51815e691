"""Child process of the benchmark: runs gapcert blocks and reports them.

    python3 bench/worker.py JOB.json RESULT.json

The job names the source tree, the block configs in run order, how many leading
blocks warm the process up before the optional time box (in seconds) starts,
the calibration kernel, and a span file when the run is traced.  Each block goes through the package's
public API as the CLI drives it (``load_config``, ``run_experiment``,
``render``).  The result holds, per block, the rendered output, the
``run_experiment`` wall time, the per-trial wall times, the peak resident
memory of this process while the block ran, and the factor that takes its
times to the reference machine speed (see calibrate.py).
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext

import calibrate


def reset_peak_rss() -> None:
    """Restart this process's resident-memory high-water mark (VmHWM) at its current RSS.

    Linux only.  A process's lifetime peak depends on which inputs a seed draws
    (one pool block of tree-krylov adds 10 MB), so the benchmark reports the
    peak per block instead."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from gapcert import harness

    tracer = None
    if job["trace_file"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    blocks = []
    samples = [(time.perf_counter(), calibrate.sample(job["calibration"]))]
    start = None
    for i, (block, obj) in enumerate(job["blocks"]):
        if i == job["warmup"]:
            start = time.perf_counter()
        if tracer:
            tracer.block = block
        with span("harness.load_config"):
            cfg = harness.load_config(obj)
        reset_peak_rss()
        t0 = time.perf_counter()
        with span("harness.run_experiment"):
            result = harness.run_experiment(cfg)
        t1 = time.perf_counter()
        with span("harness.render"):
            text = result.render()
        peak_mb = peak_rss_mb()
        samples.append((time.perf_counter(), calibrate.sample(job["calibration"])))
        trial_wall: dict[int, float] = {}
        for row in result.rows:
            if isinstance(row, harness.ResultRow):
                trial_wall[row.trial] = max(trial_wall.get(row.trial, 0.0), row.wall_time)
        blocks.append({"block": block, "trials": cfg.trials, "threads": cfg.threads,
                       "warmup": start is None, "wall_s": t1 - t0, "mid_s": (t0 + t1) / 2,
                       "peak_rss_mb": peak_mb, "output": text,
                       "trial_wall": list(trial_wall.values())})
        if (start is not None and job["seconds"] is not None
                and time.perf_counter() - start >= job["seconds"]):
            break
    for b in blocks:
        b["speed_scale"] = calibrate.scale(calibrate.around(samples, b.pop("mid_s")),
                                           job["calibration"])
    if tracer:
        tracer.write(job["trace_file"])
    return {"blocks": blocks}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as f:
        job = json.load(f)
    out = run(job)
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(out, f)
