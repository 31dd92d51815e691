"""Seeded Monte Carlo experiment harness behind the command-line interface.

Every trial's randomness comes solely from (master_seed, trial_index), trials
are independent, and rows are sorted by trial index before writing, so output
files are a pure function of the configuration: re-running with a different
worker count reproduces them byte for byte.  Per-row wall time is measured for
console reporting but deliberately kept out of the files for the same reason.

Output formats: CSV with a fixed header per mode (floats printed with 17
significant digits; summary statistics appended as '# key=value' comment
lines), or JSON with ``{"config", "rows", "summary"}``.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import capgeom
from .certificate import certify, construct_near_good
from .errors import ConfigError
from .haar import RandomSeed, sample_family, sample_family_batch, sample_sphere
from .model import (
    DENSE_DIM_LIMIT,
    ChainSpec,
    LocalProjector,
    TreeSpec,
    max_ff_rank,
    pair_flat_index,
    projector_from_family,
)
from .spectral import gap_report

_MODES = ("gap-sweep", "event-frequency", "tree-gap", "cap-table", "certify-one")

_COMMON_KEYS = {"mode", "master_seed", "trials", "out", "format", "threads"}
_ALLOWED_KEYS = {
    "gap-sweep": _COMMON_KEYS
    | {"d", "r", "L", "L_range", "epsilon", "gap_method", "kernel_threshold", "compute_gaps"},
    "event-frequency": _COMMON_KEYS | {"d", "r", "epsilon"},
    "tree-gap": _COMMON_KEYS
    | {"d", "r", "k", "L", "family", "epsilon", "gap_method", "kernel_threshold"},
    "cap-table": _COMMON_KEYS | {"n_list", "delta_list", "mc_samples"},
    "certify-one": _COMMON_KEYS | {"d", "r", "k_list", "stream_index", "projector"},
}

SWEEP_HEADER = [
    "trial", "d", "r", "L", "ground_energy", "kernel_dim", "gap", "gap_status",
    "frustration_free", "coupling_norm", "gamma_loc", "gamma_loc_lb", "chain_bound",
    "verdict", "status", "error",
]
TREE_HEADER = [
    "trial", "d", "r", "k", "L", "ground_energy", "kernel_dim", "gap", "gap_status",
    "frustration_free", "coupling_norm", "gamma_loc", "gamma_loc_lb", "chain_bound",
    "tree_bound", "verdict", "status", "error",
]
EVENT_HEADER = [
    "trials", "successes", "frequency", "wilson_low", "wilson_high", "std_err",
    "landing_bound", "exact_cap",
]
CAP_HEADER = ["n", "delta", "exact", "lower_bound", "monte_carlo", "std_err"]

_WILSON_Z = 1.959963984540054  # 95% two-sided


@dataclass
class ExperimentConfig:
    """Validated parameters of one experiment run."""

    mode: str
    d: int | None = None
    r: int | None = None
    L_values: tuple[int, ...] = ()
    k: int | None = None
    trials: int = 0
    master_seed: int = 0
    epsilon: float | None = None
    family: str = "haar"
    gap_method: str = "auto"
    kernel_threshold: float | None = None
    compute_gaps: bool = True
    n_list: tuple[int, ...] = ()
    delta_list: tuple[float, ...] = ()
    mc_samples: int = 100_000
    k_list: tuple[int, ...] = (2,)
    stream_index: int = 0
    projector: str | None = None
    out: str | None = None
    format: str = "csv"
    threads: int = 1

    def to_json_obj(self) -> dict:
        obj = {"mode": self.mode, "master_seed": self.master_seed}
        if self.mode in ("gap-sweep", "event-frequency", "tree-gap"):
            obj.update(d=self.d, r=self.r, trials=self.trials)
        if self.mode == "gap-sweep":
            obj.update(L=list(self.L_values), epsilon=self.epsilon,
                       gap_method=self.gap_method, compute_gaps=self.compute_gaps)
        if self.mode == "event-frequency":
            obj.update(epsilon=self.epsilon)
        if self.mode == "tree-gap":
            obj.update(k=self.k, L=self.L_values[0] if self.L_values else None,
                       family=self.family, epsilon=self.epsilon, gap_method=self.gap_method)
        if self.mode == "cap-table":
            obj.update(n_list=list(self.n_list), delta_list=list(self.delta_list),
                       mc_samples=self.mc_samples)
        if self.mode == "certify-one":
            obj.update(d=self.d, r=self.r, k_list=list(self.k_list),
                       stream_index=self.stream_index, projector=self.projector)
        # threads and output path are execution machinery, not experiment
        # identity; leaving them out keeps files byte-identical across runs
        obj.update(format=self.format)
        return obj


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _get_int(obj, key, *, required=False, default=None, low=None, high=None):
    if key not in obj or obj[key] is None:
        _require(not required, f"missing required key {key!r}")
        return default
    v = obj[key]
    _require(isinstance(v, int) and not isinstance(v, bool), f"key {key!r} must be an integer")
    if low is not None:
        _require(v >= low, f"key {key!r} must be >= {low}, got {v}")
    if high is not None:
        _require(v <= high, f"key {key!r} must be <= {high}, got {v}")
    return v


def _get_float(obj, key, *, required=False, default=None):
    if key not in obj or obj[key] is None:
        _require(not required, f"missing required key {key!r}")
        return default
    v = obj[key]
    _require(isinstance(v, (int, float)) and not isinstance(v, bool),
             f"key {key!r} must be a number")
    return float(v)


def load_config(obj: dict, mode: str | None = None) -> ExperimentConfig:
    """Validate a configuration mapping; raises ConfigError with explicit messages.

    Unknown keys are rejected so that a mistyped scientific parameter fails
    loudly instead of silently running with a default.
    """
    _require(isinstance(obj, dict), "configuration must be a JSON object")
    obj = dict(obj)
    cfg_mode = obj.get("mode", mode)
    _require(cfg_mode in _MODES, f"mode must be one of {_MODES}, got {cfg_mode!r}")
    if mode is not None:
        _require(cfg_mode == mode, f"config mode {cfg_mode!r} does not match subcommand {mode!r}")
    unknown = set(obj) - _ALLOWED_KEYS[cfg_mode]
    _require(not unknown,
             f"unknown keys for mode {cfg_mode!r}: {sorted(unknown)} "
             f"(allowed: {sorted(_ALLOWED_KEYS[cfg_mode])})")

    cfg = ExperimentConfig(mode=cfg_mode)
    cfg.master_seed = _get_int(obj, "master_seed", default=0, low=0, high=2**64 - 1)
    cfg.trials = _get_int(obj, "trials", default=0, low=0)
    cfg.threads = _get_int(obj, "threads", default=1, low=1)
    cfg.out = obj.get("out")
    _require(cfg.out is None or isinstance(cfg.out, str), "key 'out' must be a string path")
    cfg.format = obj.get("format", "json" if cfg_mode == "certify-one" else "csv")
    _require(cfg.format in ("csv", "json"), f"format must be 'csv' or 'json', got {cfg.format!r}")

    if cfg_mode in ("gap-sweep", "event-frequency", "tree-gap"):
        cfg.d = _get_int(obj, "d", required=True, low=2)
        cfg.r = _get_int(obj, "r", required=True, low=1)
        _require(cfg.r <= cfg.d**2, f"rank r={cfg.r} exceeds d^2={cfg.d**2}")

    if cfg_mode == "gap-sweep":
        _require(cfg.r <= max_ff_rank(cfg.d, "chain"),
                 f"r={cfg.r} exceeds the frustration-free rank bound "
                 f"{max_ff_rank(cfg.d, 'chain')} for d={cfg.d}")
        _require(not ("L" in obj and "L_range" in obj), "give either 'L' or 'L_range', not both")
        if "L_range" in obj and obj["L_range"] is not None:
            rng = obj["L_range"]
            _require(isinstance(rng, list) and len(rng) == 2, "'L_range' must be [min, max]")
            lo, hi = rng
            _require(isinstance(lo, int) and isinstance(hi, int) and 2 <= lo <= hi,
                     f"'L_range' bounds must be integers with 2 <= min <= max, got {rng}")
            cfg.L_values = tuple(range(lo, hi + 1))
        elif "L" in obj and obj["L"] is not None:
            lv = obj["L"]
            if isinstance(lv, int):
                lv = [lv]
            _require(isinstance(lv, list) and all(isinstance(x, int) and x >= 2 for x in lv),
                     f"'L' must be an integer >= 2 or a list of them, got {obj['L']}")
            cfg.L_values = tuple(lv)
        cfg.compute_gaps = bool(obj.get("compute_gaps", True)) and bool(cfg.L_values)
        cfg.gap_method = obj.get("gap_method", "auto")
        _require(cfg.gap_method in ("auto", "dense", "iterative"),
                 f"gap_method must be auto|dense|iterative, got {cfg.gap_method!r}")
        cfg.kernel_threshold = _get_float(obj, "kernel_threshold")
        default_eps = 1.0 / 16.0 if cfg.r == 1 else 1.0 / (9.0 * cfg.r)
        cfg.epsilon = _get_float(obj, "epsilon", default=default_eps)
        _require(0 < cfg.epsilon < 1.0 / (8.0 * cfg.r),
                 f"epsilon must lie in (0, 1/(8r)) = (0, {1.0/(8.0*cfg.r)}), got {cfg.epsilon}")
        if cfg.compute_gaps:
            max_dim = max(cfg.d**L for L in cfg.L_values)
            _require(max_dim <= DENSE_DIM_LIMIT or cfg.gap_method == "iterative",
                     f"largest dense dimension {max_dim} exceeds {DENSE_DIM_LIMIT}; "
                     f"select gap_method='iterative' explicitly")

    elif cfg_mode == "event-frequency":
        _require(cfg.r < cfg.d, f"event-frequency requires r < d, got r={cfg.r}, d={cfg.d}")
        cfg.epsilon = _get_float(obj, "epsilon", required=True)
        _require(0 <= cfg.epsilon < 0.25,
                 f"epsilon must lie in [0, 1/4), got {cfg.epsilon}")

    elif cfg_mode == "tree-gap":
        cfg.k = _get_int(obj, "k", required=True, low=2)
        _require(cfg.r < cfg.d / cfg.k,
                 f"tree frustration-freeness requires r < d/k, got r={cfg.r}, d={cfg.d}, k={cfg.k}")
        levels = _get_int(obj, "L", required=True, low=1)
        cfg.L_values = (levels,)
        cfg.family = obj.get("family", "haar")
        _require(cfg.family in ("haar", "near-good"),
                 f"family must be 'haar' or 'near-good', got {cfg.family!r}")
        cfg.epsilon = _get_float(obj, "epsilon")
        if cfg.family == "near-good":
            _require(cfg.epsilon is not None, "near-good family requires 'epsilon'")
            _require(0 < cfg.epsilon < 1.0 / (8.0 * cfg.r),
                     f"near-good epsilon must lie in (0, 1/(8r)), got {cfg.epsilon}")
        cfg.gap_method = obj.get("gap_method", "auto")
        _require(cfg.gap_method in ("auto", "dense", "iterative"),
                 f"gap_method must be auto|dense|iterative, got {cfg.gap_method!r}")
        cfg.kernel_threshold = _get_float(obj, "kernel_threshold")

    elif cfg_mode == "cap-table":
        n_list = obj.get("n_list", [3, 8, 15])
        _require(isinstance(n_list, list) and n_list
                 and all(isinstance(n, int) and n >= 1 for n in n_list),
                 f"'n_list' must be a nonempty list of integers >= 1, got {n_list}")
        cfg.n_list = tuple(n_list)
        delta_list = obj.get("delta_list", [0.2, 0.5, 1.0])
        _require(isinstance(delta_list, list) and delta_list
                 and all(isinstance(x, (int, float)) and 0 < x < math.pi for x in delta_list),
                 f"'delta_list' must be a nonempty list of radii in (0, pi), got {delta_list}")
        cfg.delta_list = tuple(float(x) for x in delta_list)
        cfg.mc_samples = _get_int(obj, "mc_samples", default=100_000, low=0)

    elif cfg_mode == "certify-one":
        cfg.projector = obj.get("projector")
        _require(cfg.projector is None or isinstance(cfg.projector, str),
                 "'projector' must be a file path")
        if cfg.projector is None:
            cfg.d = _get_int(obj, "d", required=True, low=2)
            cfg.r = _get_int(obj, "r", required=True, low=1)
            _require(cfg.r <= cfg.d**2, f"rank r={cfg.r} exceeds d^2={cfg.d**2}")
        cfg.stream_index = _get_int(obj, "stream_index", default=0, low=0, high=2**64 - 1)
        k_list = obj.get("k_list", [2])
        _require(isinstance(k_list, list) and all(isinstance(k, int) and k >= 1 for k in k_list),
                 f"'k_list' must be a list of integers >= 1, got {k_list}")
        cfg.k_list = tuple(k_list)
        _require(cfg.format == "json", "certify-one emits a single certificate; use format 'json'")

    return cfg


def load_config_file(path: str, mode: str | None = None, overrides: dict | None = None):
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if overrides:
        obj.update({k: v for k, v in overrides.items() if v is not None})
    return load_config(obj, mode=mode)


@dataclass
class ResultRow:
    """One experiment row; numeric fields are None when not applicable."""

    trial: int | None = None
    d: int | None = None
    r: int | None = None
    L: int | None = None
    k: int | None = None
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

    def cells(self, header: list[str]) -> list[str]:
        return [_fmt(getattr(self, name)) for name in header]

    def to_json_obj(self, header: list[str]) -> dict:
        return {name: getattr(self, name) for name in header}


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
        cells = row.cells(result.header) if isinstance(row, ResultRow) else [
            _fmt(row.get(name)) for name in result.header
        ]
        lines.append(",".join(_csv_cell(c) for c in cells))
    for key, value in result.summary.items():
        lines.append(f"# {key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


def render_json(result: RunResult) -> str:
    rows = [
        row.to_json_obj(result.header) if isinstance(row, ResultRow)
        else {name: row.get(name) for name in result.header}
        for row in result.rows
    ]
    payload = {
        "config": result.config.to_json_obj(),
        "rows": rows,
        "summary": result.summary,
    }
    return json.dumps(payload, indent=2) + "\n"


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def _map_indexed(worker, count: int, threads: int) -> list:
    """Run worker(i) for i in range(count); results ordered by index.

    Work is distributed over a thread pool; every worker draws its randomness
    from its own index, so scheduling cannot affect the results.
    """
    if count == 0:
        return []
    if threads <= 1:
        return [worker(i) for i in range(count)]
    out = {}
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futures = {ex.submit(worker, i): i for i in range(count)}
        for fut in as_completed(futures):
            out[futures[fut]] = fut.result()
    return [out[i] for i in range(count)]


def _error_row(trial: int, cfg: ExperimentConfig, exc: Exception) -> ResultRow:
    return ResultRow(
        trial=trial, d=cfg.d, r=cfg.r, k=cfg.k, status="error",
        error=f"{type(exc).__name__}: {exc}",
    )


def run_gap_sweep(cfg: ExperimentConfig) -> RunResult:
    """Sample -> projector -> certificate (-> exact gaps) for each trial."""
    t_start = time.perf_counter()

    def worker(trial: int) -> list[ResultRow]:
        t0 = time.perf_counter()
        try:
            seed = RandomSeed(cfg.master_seed, trial)
            family = sample_family(cfg.d, cfg.r, seed)
            proj = projector_from_family(family)
            cert = certify(proj)
            base = dict(
                trial=trial, d=cfg.d, r=cfg.r,
                coupling_norm=cert.coupling_norm, gamma_loc=cert.gamma_loc,
                gamma_loc_lb=cert.gamma_loc_lb, chain_bound=cert.chain_bound,
                verdict=cert.verdict,
            )
            rows = []
            if cfg.compute_gaps:
                for L in cfg.L_values:
                    rep = gap_report(
                        ChainSpec(cfg.d, cfg.r, L), proj, method=cfg.gap_method,
                        kernel_threshold=cfg.kernel_threshold, seed=seed,
                    )
                    rows.append(ResultRow(
                        L=L, ground_energy=rep.ground_energy, kernel_dim=rep.kernel_dim,
                        gap=rep.gap, gap_status="ok",
                        frustration_free=rep.frustration_free, **base,
                    ))
            else:
                rows.append(ResultRow(**base))
            for row in rows:
                row.wall_time = time.perf_counter() - t0
            return rows
        except Exception as exc:  # crash isolation: a failing trial must not abort the sweep
            return [_error_row(trial, cfg, exc)]

    rows = [row for group in _map_indexed(worker, cfg.trials, cfg.threads) for row in group]
    completed = sum(1 for row in rows if row.status == "ok")
    failed = len(rows) - completed
    certified = sum(1 for row in rows if row.status == "ok" and row.verdict == "certified-gapped")
    fraction = certified / completed if completed else None
    bound = capgeom.gap_probability_bound(cfg.d, cfg.r, cfg.epsilon)
    summary = {
        "trials": cfg.trials,
        "completed_rows": completed,
        "failed_rows": failed,
        "certified_rows": certified,
        "certified_fraction": fraction,
        "epsilon": cfg.epsilon,
        "certified_gap_level": 1.0 - 8.0 * cfg.r * cfg.epsilon,
        "gap_probability_bound": bound,
        "fraction_exceeds_bound": (fraction >= bound) if fraction is not None else None,
    }
    return RunResult(
        mode=cfg.mode, header=SWEEP_HEADER, rows=rows, summary=summary, config=cfg,
        exit_code=2 if failed else 0, wall_time=time.perf_counter() - t_start,
    )


_EVENT_CHUNK = 4096


def run_event_frequency(cfg: ExperimentConfig) -> RunResult:
    """Frequency of all sampled vectors landing within epsilon of the targets."""
    t_start = time.perf_counter()
    d, r, eps = cfg.d, cfg.r, cfg.epsilon
    targets = np.zeros((r, d * d))
    for i in range(1, r + 1):
        targets[i - 1, pair_flat_index(1, i + 1, d)] = 1.0

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
        mode=cfg.mode, header=EVENT_HEADER, rows=[row], summary=summary, config=cfg,
        exit_code=0, wall_time=time.perf_counter() - t_start,
    )


def run_tree_gap(cfg: ExperimentConfig) -> RunResult:
    """Tree certificate plus exact tree gap (where the dimension permits) per trial."""
    t_start = time.perf_counter()
    levels = cfg.L_values[0]
    k = cfg.k

    def worker(trial: int) -> list[ResultRow]:
        t0 = time.perf_counter()
        try:
            seed = RandomSeed(cfg.master_seed, trial)
            if cfg.family == "near-good":
                family = construct_near_good(cfg.d, cfg.r, cfg.epsilon, seed)
            else:
                family = sample_family(cfg.d, cfg.r, seed)
            proj = projector_from_family(family)
            cert = certify(proj, k_list=(k,))
            tb = cert.tree_bounds[k]
            row = ResultRow(
                trial=trial, d=cfg.d, r=cfg.r, k=k, L=levels,
                coupling_norm=cert.coupling_norm, gamma_loc=cert.gamma_loc,
                gamma_loc_lb=cert.gamma_loc_lb, chain_bound=cert.chain_bound,
                tree_bound=tb, verdict="certified-gapped" if tb > 0 else "inconclusive",
            )
            spec = TreeSpec(cfg.d, cfg.r, k, levels)
            if spec.dim <= DENSE_DIM_LIMIT or cfg.gap_method == "iterative":
                rep = gap_report(spec, proj, method=cfg.gap_method,
                                 kernel_threshold=cfg.kernel_threshold, seed=seed)
                row.ground_energy = rep.ground_energy
                row.kernel_dim = rep.kernel_dim
                row.gap = rep.gap
                row.gap_status = "n/a" if rep.method == "trivial" else "ok"
                row.frustration_free = rep.frustration_free
            else:
                row.gap_status = "skipped"
            row.wall_time = time.perf_counter() - t0
            return [row]
        except Exception as exc:  # crash isolation: a failing trial must not abort the run
            return [_error_row(trial, cfg, exc)]

    rows = [row for group in _map_indexed(worker, cfg.trials, cfg.threads) for row in group]
    completed = sum(1 for row in rows if row.status == "ok")
    failed = len(rows) - completed
    certified = sum(1 for row in rows if row.status == "ok" and row.verdict == "certified-gapped")
    summary = {
        "trials": cfg.trials,
        "completed_rows": completed,
        "failed_rows": failed,
        "certified_rows": certified,
        "certified_fraction": certified / completed if completed else None,
    }
    return RunResult(
        mode=cfg.mode, header=TREE_HEADER, rows=rows, summary=summary, config=cfg,
        exit_code=2 if failed else 0, wall_time=time.perf_counter() - t_start,
    )


def run_cap_table(cfg: ExperimentConfig) -> RunResult:
    """Exact cap measures vs the closed-form bound and a Monte Carlo estimate."""
    t_start = time.perf_counter()
    grid = list(product(cfg.n_list, cfg.delta_list))

    def worker(idx: int) -> dict:
        n, delta = grid[idx]
        q = capgeom.CapQuery(n, delta)
        exact = capgeom.cap_measure_exact(q)
        lower = capgeom.cap_lower_bound(q) if 0 < delta < 0.25 else None
        mc = stderr = None
        if cfg.mc_samples > 0:
            pts = sample_sphere(n, cfg.mc_samples, RandomSeed(cfg.master_seed, idx))
            # distance to the fixed center e_1 is arccos of the first coordinate
            hits = int(np.sum(pts[:, 0] > math.cos(delta)))
            mc = hits / cfg.mc_samples
            stderr = math.sqrt(max(mc * (1.0 - mc), 1e-300) / cfg.mc_samples)
        return {"n": n, "delta": delta, "exact": exact, "lower_bound": lower,
                "monte_carlo": mc, "std_err": stderr}

    rows = _map_indexed(worker, len(grid), cfg.threads)
    summary = {"rows": len(rows), "mc_samples": cfg.mc_samples}
    return RunResult(
        mode=cfg.mode, header=CAP_HEADER, rows=rows, summary=summary, config=cfg,
        exit_code=0, wall_time=time.perf_counter() - t_start,
    )


def run_certify_one(cfg: ExperimentConfig) -> RunResult:
    """Certify a single interaction, read from a file or sampled from a seed."""
    t_start = time.perf_counter()
    if cfg.projector is not None:
        with open(cfg.projector, "r", encoding="utf-8") as f:
            proj = LocalProjector.from_json(f.read())
    else:
        seed = RandomSeed(cfg.master_seed, cfg.stream_index)
        proj = projector_from_family(sample_family(cfg.d, cfg.r, seed))
    cert = certify(proj, k_list=cfg.k_list)
    return RunResult(
        mode=cfg.mode, header=[], rows=[], summary=cert.to_json_obj(), config=cfg,
        exit_code=0, wall_time=time.perf_counter() - t_start,
    )


_RUNNERS = {
    "gap-sweep": run_gap_sweep,
    "event-frequency": run_event_frequency,
    "tree-gap": run_tree_gap,
    "cap-table": run_cap_table,
    "certify-one": run_certify_one,
}


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    return _RUNNERS[cfg.mode](cfg)
