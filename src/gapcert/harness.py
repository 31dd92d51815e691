"""Seeded Monte Carlo experiment harness behind the command-line interface.

Every trial's randomness comes solely from (master_seed, trial_index), trials
are independent, and rows are sorted by trial index before writing.
With ``threads > 1`` the trials (or event chunks, or cap-table cells) run in
forked worker processes, at most one per CPU the process may run on (see
`_map_indexed`).  `run_experiment` runs numpy's BLAS on one thread, in the
workers too, and restores the previous count when it returns, so the worker
processes are a run's only parallelism and no result depends on how BLAS splits
its work.  Output files are therefore a pure function of the configuration:
re-running with any worker count and any ``OPENBLAS_NUM_THREADS`` reproduces
them byte for byte.  The pin needs an OpenBLAS build of numpy (the bundled one
is); with another BLAS the run is left unpinned.  Per-row wall time is measured
for console reporting but deliberately kept out of the files for the same
reason.

Each experiment mode is declared once, as a `_Mode` record in `_MODES`: its
CLI subcommand and help line, its configuration keys, the keys its JSON output
records, its rules and its runner.  `load_config` checks each key alone, then
runs the mode's rules.  The domain rules (lattice sizes, the memory budget of
each lattice's gap route and of the certificate's overlap solve,
frustration-free ranks, the near-reference epsilon window, reference targets)
are the library's: a mode's rules build the run's lattices and ask the
functions that state the other rules, and `load_config` budgets each
lattice's route, so a run outside them is refused as a ConfigError before any
trial runs.  The budget of event-frequency's sampling chunk is stated here
(`_require_event_chunk`), next to the chunk size it depends on.  Gap sweeps
and tree runs share one trial runner over those lattices.

Output formats: CSV with a fixed header per mode (floats printed with 17
significant digits; summary statistics appended as '# key=value' comment
lines), or JSON with ``{"config", "rows", "summary"}``.  Each header is
declared once, by the rows it heads: the fields of `ResultRow` for gap sweeps
and trees (`SWEEP_HEADER` leaves out `k` and `tree_bound`) and the key order
of the row dicts of event-frequency and cap-table.  Both renderers read a
row's cells by name, ``row[name]``, whatever its type.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import sys
import threading
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import product
from typing import Any, NamedTuple

import numpy as np

from . import capgeom
from .certificate import _require_overlap, certified_gap_level, certify, construct_near_good
from .errors import ConfigError
from .haar import (
    RandomSeed,
    _check_sphere_dim,
    sample_family,
    sample_family_batch,
    sphere_blocks,
)
from .model import (
    ChainSpec,
    LocalProjector,
    TreeSpec,
    _check_reference_rank,
    _require_bytes,
    _require_ff_rank,
    projector_from_family,
    reference_targets,
)
from .spectral import _require_route, gap_report

_REQUIRED = object()


class _Key(NamedTuple):
    """A key's check on a given (non-null) value, the failure message completing
    "key 'name' must", its default (_REQUIRED: none) and the given value's conversion."""

    check: Callable[[Any], bool]
    message: str
    default: Any = None
    convert: Callable[[Any], Any] = lambda v: v


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_length(v) -> bool:
    return _is_int(v) and v >= 2


def _int(low: int, high: int | None = None, default=None) -> _Key:
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    return _Key(lambda v: _is_int(v) and low <= v and (high is None or v <= high),
                f"be an integer {bounds}", default)


def _choice(*values: str, default) -> _Key:
    return _Key(lambda v: v in values, "be one of " + "|".join(values), default)


def _list(item, what: str, default, nonempty=True, convert=tuple) -> _Key:
    return _Key(lambda v: isinstance(v, list) and (bool(v) or not nonempty)
                and all(map(item, v)),
                f"be a {'nonempty ' * nonempty}list of {what}", default, convert)


def _is_writable_path(v) -> bool:
    """Whether open(v, "w") may create or truncate the file v; asked, not tried."""
    if not isinstance(v, str) or not v or os.path.isdir(v):
        return False
    folder = os.path.dirname(v) or "."
    return os.path.isdir(folder) and os.access(v if os.path.exists(v) else folder, os.W_OK)


# NaN fails every comparison; an integer beyond the float range is refused before float()
_NUMBER = _Key(lambda v: _is_number(v) and abs(v) <= sys.float_info.max,
               "be a finite number", None, float)
_POSITIVE = _Key(lambda v: _is_number(v) and 0 < v <= sys.float_info.max,
                 "be a finite number > 0", None, float)
_COMMON_KEYS = {
    "master_seed": _int(0, 2**64 - 1, default=0), "trials": _int(0, default=0),
    "threads": _int(1, default=1),
    "out": _Key(_is_writable_path, "be the path of a writable file in an existing directory"),
    "format": _choice("csv", "json", default="csv"),
}
_SITE_KEYS = {"d": _int(2, default=_REQUIRED), "r": _int(1, default=_REQUIRED)}
_GAP_KEYS = {"gap_method": _choice("auto", "dense", "iterative", default="auto"),
             "kernel_threshold": _POSITIVE}

_WILSON_Z = 1.959963984540054  # 95% two-sided


@dataclass
class ExperimentConfig:
    """Validated parameters of one experiment run, as built by `load_config`.

    Keys outside the run's mode stay None.  `L` is the tuple of chain lengths
    of a gap sweep (an `L_range` is listed into it), or the level count of a
    tree.  `lattices` holds the specs whose gaps each trial computes;
    `loaded_projector` the interaction read from the certify-one `projector`
    file.
    """

    mode: str
    master_seed: int | None = None
    trials: int | None = None
    threads: int | None = None
    out: str | None = None
    format: str | None = None
    d: int | None = None
    r: int | None = None
    k: int | None = None
    L: tuple[int, ...] | int | None = None
    L_range: list[int] | None = None
    epsilon: float | None = None
    family: str | None = None
    gap_method: str | None = None
    kernel_threshold: float | None = None
    compute_gaps: bool | None = None
    n_list: tuple[int, ...] | None = None
    delta_list: tuple[float, ...] | None = None
    mc_samples: int | None = None
    k_list: tuple[int, ...] | None = None
    stream_index: int | None = None
    projector: str | None = None
    lattices: tuple[ChainSpec | TreeSpec, ...] = ()
    loaded_projector: LocalProjector | None = None

    def to_json_obj(self) -> dict:
        return {key: getattr(self, key) for key in _MODES[self.mode].recorded}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _read_projector(path: str) -> LocalProjector:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read projector file {path}: {exc}") from exc
    try:
        return LocalProjector.from_json(text)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"projector file {path} does not hold a projector: "
                          f"{type(exc).__name__}: {exc}") from exc


def load_config(obj: dict, mode: str | None = None) -> ExperimentConfig:
    """Validate a configuration mapping; raises ConfigError with explicit messages.

    Unknown keys are rejected so that a mistyped scientific parameter fails
    loudly instead of silently running with a default.  A key given as null
    takes its default, `mode` and the rule on 'L' and 'L_range' included.
    After each key's own check the mode's rules run (`_Mode.rules`), then the
    gap route of every lattice they built is budgeted; the library's refusal
    of a value (a ValueError) is reported as a ConfigError.
    """
    _require(isinstance(obj, dict), "configuration must be a JSON object")
    cfg_mode = mode if obj.get("mode") is None else obj["mode"]
    _require(cfg_mode in tuple(_MODES), f"mode must be one of {tuple(_MODES)}, got {cfg_mode!r}")
    if mode is not None:
        _require(cfg_mode == mode, f"config mode {cfg_mode!r} does not match subcommand {mode!r}")
    keys = _MODES[cfg_mode].keys
    unknown = set(obj) - set(keys) - {"mode"}
    _require(not unknown,
             f"unknown keys for mode {cfg_mode!r}: {sorted(unknown)} "
             f"(allowed: {sorted({'mode', *keys})})")
    values = {}
    for name, key in keys.items():
        value = obj.get(name)
        if value is None:
            _require(key.default is not _REQUIRED, f"missing required key {name!r}")
            values[name] = key.default
        else:
            _require(key.check(value), f"key {name!r} must {key.message}, got {value!r}")
            values[name] = key.convert(value)
    cfg = ExperimentConfig(mode=cfg_mode, **values)
    try:
        _MODES[cfg_mode].rules(cfg)
        for spec in cfg.lattices:  # every method but "iterative" is budgeted as dense
            _require_route(spec, cfg.gap_method)
    except ValueError as exc:  # a ConfigError of the rules keeps its message
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config_file(path: str, mode: str | None = None, overrides: dict | None = None):
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    _require(isinstance(obj, dict), f"config file {path} must hold a JSON object")
    if overrides:
        obj.update({k: v for k, v in overrides.items() if v is not None})
    return load_config(obj, mode=mode)


@dataclass
class ResultRow:
    """One experiment row; numeric fields are None when not applicable."""

    trial: int | None = None
    d: int | None = None
    r: int | None = None
    k: int | None = None
    L: int | None = None
    ground_energy: float | None = None
    kernel_dim: int | None = None
    gap: float | None = None
    gap_status: str = ""
    frustration_free: bool | None = None
    coupling_norm: float | None = None
    gamma_loc: float | None = None
    gamma_loc_lb: float | None = None
    chain_bound: float | None = None
    tree_bound: float | None = None
    verdict: str = ""
    status: str = "ok"
    error: str = ""
    wall_time: float = 0.0  # console reporting only, never serialized

    def __getitem__(self, name: str):
        """A field by name, as a row dict of the other modes is read."""
        return getattr(self, name)


# the lattice modes' CSV headers and JSON row keys: the fields of ResultRow, in order
TREE_HEADER = [f.name for f in fields(ResultRow) if f.name != "wall_time"]
SWEEP_HEADER = [name for name in TREE_HEADER if name not in ("k", "tree_bound")]


@dataclass
class RunResult:
    mode: str
    header: list[str]
    rows: list
    summary: dict
    config: ExperimentConfig
    exit_code: int = 0
    wall_time: float = 0.0

    def render(self) -> str:
        if self.mode == "certify-one":
            return json.dumps(self.summary, indent=2) + "\n"
        if self.config.format == "json":
            return render_json(self)
        return render_csv(self)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _csv_cell(s: str) -> str:
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def render_csv(result: RunResult) -> str:
    lines = [",".join(result.header)]
    for row in result.rows:
        lines.append(",".join(_csv_cell(_fmt(row[name])) for name in result.header))
    for key, value in result.summary.items():
        lines.append(f"# {key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


def render_json(result: RunResult) -> str:
    payload = {
        "config": result.config.to_json_obj(),
        "rows": [{name: row[name] for name in result.header} for row in result.rows],
        "summary": result.summary,
    }
    return json.dumps(payload, indent=2) + "\n"


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    z = _WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


# The worker of the pool this process serves.  `_serve` sets it in each forked
# pool process before the process takes its first item; the parent never sets
# it, so concurrent runs in one process do not share it.
_served: Callable | None = None


def _serve(worker: Callable) -> None:
    global _served
    _served = worker


def _call_served(i: int):
    return _served(i)


def _map_indexed(worker, count: int, threads: int) -> list:
    """Run worker(i) for i in range(count); results ordered by index.

    The items run in min(threads, count, CPUs this process may run on) worker
    processes; with one, they run here in order.  The processes are forked,
    so they receive `worker` (a closure) through the pool's initializer
    without pickling it, and they inherit the one-BLAS-thread pin of
    `run_experiment`.  Their results come back pickled.  Every worker draws
    its randomness from its own index, so neither scheduling nor the number
    of processes can affect the results.  An exception from `worker` reaches
    the caller with its type and message once the pool has shut down; no
    process outlives the call.  A fork copies only the calling thread: a lock
    that another thread holds at that moment stays held in the workers, which
    take no lock of this package.  Python 3.12+ issues a DeprecationWarning at
    a fork while other threads of the process, such as OpenBLAS's, are alive;
    3.11 forks silently.  Worker processes need ``fork`` and
    ``os.sched_getaffinity`` (Linux); the serial path needs neither.
    """
    workers = min(threads, count)
    if workers > 1:
        workers = min(workers, len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [worker(i) for i in range(count)]
    import multiprocessing  # here: a serial run needs neither, and every process start would pay
    from concurrent.futures import process

    with process.ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_serve, initargs=(worker,)) as pool:
        return list(pool.map(_call_served, range(count)))


def _error_row(trial: int, cfg: ExperimentConfig, exc: Exception) -> ResultRow:
    return ResultRow(
        trial=trial, d=cfg.d, r=cfg.r, k=cfg.k, status="error",
        error=f"{type(exc).__name__}: {exc}",
    )


def run_lattice_gaps(cfg: ExperimentConfig) -> RunResult:
    """Sample -> projector -> certificate -> exact gap on each of cfg.lattices, per trial.

    Serves gap-sweep (one row per chain length, or one certificate-only row
    when no gaps are computed; verdict from the chain bound) and tree-gap (one
    row per trial; verdict from the tree bound).
    """
    tree = cfg.mode == "tree-gap"

    def worker(trial: int) -> list[ResultRow]:
        t0 = time.perf_counter()
        try:
            seed = RandomSeed(cfg.master_seed, trial)
            if cfg.family == "near-good":
                family = construct_near_good(cfg.d, cfg.r, cfg.epsilon, seed)
            else:
                family = sample_family(cfg.d, cfg.r, seed)
            proj = projector_from_family(family)
            cert = certify(proj, k_list=(cfg.k,) if tree else ())
            tree_bound = cert.tree_bounds[cfg.k] if tree else None
            bound = tree_bound if tree else cert.chain_bound
            base = dict(
                trial=trial, d=cfg.d, r=cfg.r, k=cfg.k,
                coupling_norm=cert.coupling_norm, gamma_loc=cert.gamma_loc,
                gamma_loc_lb=cert.gamma_loc_lb, chain_bound=cert.chain_bound,
                tree_bound=tree_bound,
                verdict="certified-gapped" if bound > 0 else "inconclusive",
            )
            rows = []
            for spec in cfg.lattices:
                rep = gap_report(spec, proj, method=cfg.gap_method,
                                 kernel_threshold=cfg.kernel_threshold, seed=seed)
                rows.append(ResultRow(
                    L=spec.L, ground_energy=rep.ground_energy, kernel_dim=rep.kernel_dim,
                    gap=rep.gap, gap_status="n/a" if rep.method == "trivial" else "ok",
                    frustration_free=rep.frustration_free, **base,
                ))
            rows = rows or [ResultRow(**base)]
            for row in rows:
                row.wall_time = time.perf_counter() - t0
            return rows
        except Exception as exc:  # crash isolation: a failing trial must not abort the run
            return [_error_row(trial, cfg, exc)]

    rows = [row for group in _map_indexed(worker, cfg.trials, cfg.threads) for row in group]
    completed = sum(1 for row in rows if row.status == "ok")
    failed = len(rows) - completed
    certified = sum(1 for row in rows if row.status == "ok" and row.verdict == "certified-gapped")
    fraction = certified / completed if completed else None
    summary = {
        "trials": cfg.trials,
        "completed_rows": completed,
        "failed_rows": failed,
        "certified_rows": certified,
        "certified_fraction": fraction,
    }
    if not tree:
        bound = capgeom.gap_probability_bound(cfg.d, cfg.r, cfg.epsilon)
        summary.update(
            epsilon=cfg.epsilon,
            certified_gap_level=certified_gap_level(cfg.r, cfg.epsilon),
            gap_probability_bound=bound,
            fraction_exceeds_bound=(fraction >= bound) if fraction is not None else None,
        )
    return RunResult(
        mode=cfg.mode, header=TREE_HEADER if tree else SWEEP_HEADER, rows=rows,
        summary=summary, config=cfg, exit_code=2 if failed else 0,
    )


_EVENT_CHUNK = 4096


def _require_event_chunk(d: int, trials: int):
    """Refuse an event-frequency run whose sampling chunk, min(trials, _EVENT_CHUNK)
    Gaussian d^2 x d^2 matrices drawn at once, 8 min(trials, 4096) d^4 bytes,
    breaks MEMORY_BUDGET."""
    count, n = min(trials, _EVENT_CHUNK), d * d
    _require_bytes(8 * count * n * n, f"a sampling chunk of {count} Gaussian {n} x {n} matrices")


def run_event_frequency(cfg: ExperimentConfig) -> RunResult:
    """Frequency of all sampled vectors landing within epsilon of the targets."""
    d, r, eps = cfg.d, cfg.r, cfg.epsilon
    targets = reference_targets(d, r)

    n_chunks = (cfg.trials + _EVENT_CHUNK - 1) // _EVENT_CHUNK

    def worker(chunk: int) -> int:
        start = chunk * _EVENT_CHUNK
        count = min(_EVENT_CHUNK, cfg.trials - start)
        vecs = sample_family_batch(d, r, cfg.master_seed, start, count)
        dist = np.linalg.norm(vecs - targets[None, :, :], axis=2).max(axis=1)
        return int(np.sum(dist < eps))

    successes = sum(_map_indexed(worker, n_chunks, cfg.threads))
    freq = successes / cfg.trials if cfg.trials else None
    lo, hi = wilson_interval(successes, cfg.trials) if cfg.trials else (None, None)
    stderr = (
        math.sqrt(freq * (1.0 - freq) / cfg.trials) if cfg.trials and freq is not None else None
    )
    landing = capgeom.landing_probability_bound(d, r, eps) if eps > 0 else None
    exact = None
    if r == 1 and eps > 0:
        # Euclidean ball of radius eps meets the sphere in a cap of spherical
        # radius 2*arcsin(eps/2)
        exact = capgeom.cap_measure_exact(capgeom.CapQuery(d * d - 1, 2.0 * math.asin(eps / 2.0)))
    row = {
        "trials": cfg.trials, "successes": successes, "frequency": freq,
        "wilson_low": lo, "wilson_high": hi, "std_err": stderr,
        "landing_bound": landing, "exact_cap": exact,
    }
    summary = {
        "epsilon": eps,
        "frequency_exceeds_landing_bound": (freq >= landing)
        if (freq is not None and landing is not None) else None,
    }
    return RunResult(
        mode=cfg.mode, header=list(row), rows=[row], summary=summary, config=cfg,
    )


def run_cap_table(cfg: ExperimentConfig) -> RunResult:
    """Exact cap measures vs the closed-form bound and a Monte Carlo estimate."""
    grid = list(product(cfg.n_list, cfg.delta_list))

    def worker(idx: int) -> dict:
        n, delta = grid[idx]
        q = capgeom.CapQuery(n, delta)
        exact = capgeom.cap_measure_exact(q)
        lower = capgeom.cap_lower_bound(q) if 0 < delta < 0.25 else None
        mc = stderr = None
        if cfg.mc_samples > 0:
            # distance to the fixed center e_1 is arccos of the first coordinate;
            # counted block by block, so a draw holds one block whatever mc_samples is
            hits = sum(int(np.sum(pts[:, 0] > math.cos(delta)))
                       for pts in sphere_blocks(n, cfg.mc_samples,
                                                RandomSeed(cfg.master_seed, idx)))
            mc = hits / cfg.mc_samples
            stderr = math.sqrt(max(mc * (1.0 - mc), 1e-300) / cfg.mc_samples)
        return {"n": n, "delta": delta, "exact": exact, "lower_bound": lower,
                "monte_carlo": mc, "std_err": stderr}

    rows = _map_indexed(worker, len(grid), cfg.threads)
    summary = {"rows": len(rows), "mc_samples": cfg.mc_samples}
    return RunResult(
        mode=cfg.mode, header=list(rows[0]), rows=rows, summary=summary, config=cfg,
    )


def run_certify_one(cfg: ExperimentConfig) -> RunResult:
    """Certify a single interaction, read from a file or sampled from a seed."""
    proj = cfg.loaded_projector
    if proj is None:
        seed = RandomSeed(cfg.master_seed, cfg.stream_index)
        proj = projector_from_family(sample_family(cfg.d, cfg.r, seed))
    cert = certify(proj, k_list=cfg.k_list)
    return RunResult(
        mode=cfg.mode, header=[], rows=[], summary=cert.to_json_obj(), config=cfg,
    )


def _sweep_rules(cfg: ExperimentConfig):
    _require_ff_rank(cfg.d, cfg.r)
    _require(cfg.L is None or cfg.L_range is None, "give either 'L' or 'L_range', not both")
    if cfg.L_range is not None:
        lo, hi = cfg.L_range
        ChainSpec(cfg.d, cfg.r, hi)  # refuses a too long chain before listing the range
        cfg.L = tuple(range(lo, hi + 1))
    cfg.L = cfg.L or ()
    cfg.compute_gaps = cfg.compute_gaps and bool(cfg.L)
    if cfg.epsilon is None:
        cfg.epsilon = 1.0 / 16.0 if cfg.r == 1 else 1.0 / (9.0 * cfg.r)
    certified_gap_level(cfg.r, cfg.epsilon)
    if cfg.compute_gaps:
        cfg.lattices = tuple(ChainSpec(cfg.d, cfg.r, L) for L in cfg.L)
    _require_overlap(cfg.d)  # every trial certifies


def _event_rules(cfg: ExperimentConfig):
    _check_reference_rank(cfg.d, cfg.r)
    _require_event_chunk(cfg.d, cfg.trials)


def _tree_rules(cfg: ExperimentConfig):
    _require_ff_rank(cfg.d, cfg.r, "tree", cfg.k)
    if cfg.family == "near-good":
        _require(cfg.epsilon is not None, "near-good family requires 'epsilon'")
        certified_gap_level(cfg.r, cfg.epsilon)
    cfg.lattices = (TreeSpec(cfg.d, cfg.r, cfg.k, cfg.L),)
    _require_overlap(cfg.d)  # every trial certifies


def _cap_rules(cfg: ExperimentConfig):
    if cfg.mc_samples > 0:
        for n in cfg.n_list:
            _check_sphere_dim(n)


def _certify_rules(cfg: ExperimentConfig):
    d, r = cfg.d, cfg.r
    if cfg.projector is None:
        _require(d is not None, "missing required key 'd'")
        _require(r is not None, "missing required key 'r'")
    else:
        _require(d is None and r is None,
                 "give either 'projector' or 'd' and 'r', not both (the file sets d and r)")
        cfg.loaded_projector = _read_projector(cfg.projector)
        d, r = cfg.loaded_projector.d, cfg.loaded_projector.r
    _require_ff_rank(d, r)
    _require_overlap(d)


class _Mode(NamedTuple):
    """One experiment mode: its CLI subcommand and help line, its configuration
    keys, the keys its JSON output records as "config" (in order), the rules
    `load_config` runs on a config whose keys passed their own checks (a rule
    may complete the config, e.g. build its lattices) and its runner."""

    subcommand: str
    help: str
    keys: dict[str, _Key]
    recorded: tuple[str, ...]
    rules: Callable[[ExperimentConfig], None]
    run: Callable[[ExperimentConfig], RunResult]


# Every mode, in CLI order.  A JSON output's "config" leaves out threads and the
# output path: they are execution machinery, not experiment identity, and
# leaving them out keeps files byte-identical across runs.
_MODES = {
    "gap-sweep": _Mode(
        "sweep", "sample random interactions, certify them, optionally diagonalize chains",
        {**_COMMON_KEYS, **_SITE_KEYS, **_GAP_KEYS,
         "L": _Key(lambda v: _is_length(v) or isinstance(v, list) and all(map(_is_length, v)),
                   "be an integer >= 2 or a list of them", None,
                   lambda v: tuple(v) if isinstance(v, list) else (v,)),
         "L_range": _Key(lambda v: isinstance(v, list) and len(v) == 2
                         and all(map(_is_length, v)) and v[0] <= v[1],
                         "be [min, max] with integers 2 <= min <= max"),
         "compute_gaps": _Key(lambda v: isinstance(v, bool), "be true or false", True),
         "epsilon": _NUMBER},  # default and window depend on r
        ("mode", "master_seed", "d", "r", "trials", "L", "epsilon", "gap_method",
         "kernel_threshold", "compute_gaps", "format"),
        _sweep_rules, run_lattice_gaps),
    "event-frequency": _Mode(
        "event-freq", "frequency of sampled families landing near the reference targets",
        {**_COMMON_KEYS, **_SITE_KEYS,
         "epsilon": _Key(lambda v: _is_number(v) and 0 <= v < 0.25, "be a number in [0, 1/4)",
                         _REQUIRED, float)},
        ("mode", "master_seed", "d", "r", "trials", "epsilon", "format"),
        _event_rules, run_event_frequency),
    "tree-gap": _Mode(
        "tree", "tree certificates and exact tree gaps",
        {**_COMMON_KEYS, **_SITE_KEYS, **_GAP_KEYS,
         "k": _int(2, default=_REQUIRED), "L": _int(1, default=_REQUIRED),
         "family": _choice("haar", "near-good", default="haar"),
         "epsilon": _NUMBER},  # required by, and windowed for, the near-good family
        ("mode", "master_seed", "d", "r", "trials", "k", "L", "family", "epsilon",
         "gap_method", "kernel_threshold", "format"),
        _tree_rules, run_lattice_gaps),
    "cap-table": _Mode(
        "cap-table", "exact spherical cap measures vs closed-form bound and Monte Carlo",
        {**_COMMON_KEYS,
         "n_list": _list(lambda n: _is_int(n) and 1 <= n <= sys.float_info.max,
                         f"integers in [1, {sys.float_info.max:.4g}]", (3, 8, 15)),
         "delta_list": _list(lambda x: _is_number(x) and 0 < x < math.pi, "radii in (0, pi)",
                             (0.2, 0.5, 1.0), convert=lambda v: tuple(map(float, v))),
         "mc_samples": _int(0, default=100_000)},
        ("mode", "master_seed", "n_list", "delta_list", "mc_samples", "format"),
        _cap_rules, run_cap_table),
    "certify-one": _Mode(
        "certify", "certificate of a single interaction (from a seed or a projector file)",
        {**_COMMON_KEYS,
         "format": _Key(lambda v: v == "json",
                        "be 'json' (certify-one emits a single certificate)", "json"),
         "d": _int(2), "r": _int(1),  # required unless a projector file is given
         # 2k, the tree bound's factor, stays a finite float
         "k_list": _list(lambda k: _is_int(k) and 1 <= k <= sys.float_info.max / 2,
                         f"integers in [1, {sys.float_info.max / 2:.4g}]", (2,),
                         nonempty=False),
         "stream_index": _int(0, 2**64 - 1, default=0),
         "projector": _Key(lambda v: isinstance(v, str), "be a file path")},
        ("mode", "master_seed", "d", "r", "k_list", "stream_index", "projector", "format"),
        _certify_rules, run_certify_one),
}


# (getter, setter) names of the BLAS thread count in OpenBLAS builds: numpy's
# bundled scipy-openblas (64-bit and 32-bit integers) and plain OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the BLAS numpy loaded; None if it exports neither."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


_blas_lock = threading.Lock()
_blas_runs = 0
_blas_saved = 0


@contextmanager
def _one_blas_thread():
    """Single-threaded BLAS for the body.  The count is global to the process, so
    concurrent runs share one pin and the last to finish restores the count."""
    global _blas_runs, _blas_saved
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if _blas_runs == 0:
            _blas_saved = get()
            set_(1)
        _blas_runs += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_runs -= 1
            if _blas_runs == 0:
                set_(_blas_saved)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run a validated configuration, with BLAS on one thread (see the module docstring)."""
    with _one_blas_thread():
        t_start = time.perf_counter()
        result = _MODES[cfg.mode].run(cfg)
        result.wall_time = time.perf_counter() - t_start
    return result
