"""Experiment harness: config validation, determinism, crash isolation, CLI."""

import argparse
import concurrent.futures.process
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

import gapcert.cli as cli
import gapcert.haar as haar
import gapcert.harness as harness
from gapcert import (
    ConfigError,
    RandomSeed,
    projector_from_family,
    reference_projector,
    sample_family,
)
from gapcert.harness import (
    load_config,
    load_config_file,
    run_cap_table,
    run_certify_one,
    run_event_frequency,
    run_experiment,
    wilson_interval,
)
from conftest import cli_env


def _sweep_cfg(**kw):
    base = {"mode": "gap-sweep", "d": 2, "r": 1, "trials": 4, "L": [4], "master_seed": 7}
    base.update(kw)
    return load_config(base)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config({"mode": "gap-sweep", "d": 2, "r": 1, "trails": 10})


def test_mode_mismatch_rejected():
    with pytest.raises(ConfigError, match="does not match"):
        load_config({"mode": "gap-sweep", "d": 2, "r": 1}, mode="tree-gap")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key 'r'"):
        load_config({"mode": "gap-sweep", "d": 2})


def test_rank_bound_enforced_for_sweep():
    with pytest.raises(ConfigError, match="frustration-free rank bound"):
        load_config({"mode": "gap-sweep", "d": 2, "r": 2})


def test_tree_rank_bound_enforced():
    with pytest.raises(ConfigError, match="r < d/k"):
        load_config({"mode": "tree-gap", "d": 3, "r": 2, "k": 2, "L": 2})
    for d in range(2, 10):
        for k in range(2, 5):
            for r in range(1, d + 1):
                obj = {"mode": "tree-gap", "d": d, "r": r, "k": k, "L": 1}
                if r < d / k:
                    assert load_config(obj).r == r
                else:
                    with pytest.raises(ConfigError, match="r < d/k"):
                        load_config(obj)


# d=2 chains are frustration-free only at r=1; this r=3 sample would print a
# chain bound of 0.428 above its exact gaps 0.290 (L=5) and 0.298 (L=7)
_FRUSTRATED = {"mode": "certify-one", "d": 2, "r": 3, "master_seed": 77, "stream_index": 265}


def test_certify_one_refuses_ranks_above_the_chain_bound(tmp_path):
    with pytest.raises(ConfigError, match="frustration-free rank bound 1 for d=2"):
        load_config(_FRUSTRATED)
    path = tmp_path / "frustrated.json"
    seed = RandomSeed(_FRUSTRATED["master_seed"], _FRUSTRATED["stream_index"])
    path.write_text(projector_from_family(sample_family(2, 3, seed)).to_json())
    with pytest.raises(ConfigError, match="frustration-free rank bound 1 for d=2"):
        load_config({"mode": "certify-one", "projector": str(path)})
    assert load_config(dict(_FRUSTRATED, r=1)).r == 1


@pytest.mark.parametrize("value", [-1.0, 0.0, 0, math.nan, math.inf, -math.inf,
                                   pytest.param(10**400, id="int-1e400")])
def test_kernel_threshold_must_be_finite_and_positive(value):
    with pytest.raises(ConfigError, match="finite number > 0"):
        load_config({"mode": "gap-sweep", "d": 3, "r": 1, "L": [4], "kernel_threshold": value})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_kernel_threshold_json_tokens_refused(tmp_path, token):
    # json.load accepts these tokens as floats
    path = tmp_path / "cfg.json"
    path.write_text('{"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 2, '
                    f'"kernel_threshold": {token}}}')
    with pytest.raises(ConfigError, match="finite number > 0"):
        load_config_file(str(path))


_HUGE = 10**400  # an integer beyond the float range; float() would overflow
_NEAR_GOOD = {"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 2, "family": "near-good"}


@pytest.mark.parametrize("value", [pytest.param(_HUGE, id="int-1e400"),
                                   pytest.param(-_HUGE, id="int-minus-1e400"),
                                   math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("base", [{"mode": "gap-sweep", "d": 3, "r": 1}, _NEAR_GOOD,
                                  dict(_NEAR_GOOD, family="haar")],
                         ids=["gap-sweep", "tree-near-good", "tree-haar"])
def test_epsilon_must_be_finite(base, value):
    with pytest.raises(ConfigError, match="'epsilon' must be a finite number"):
        load_config(dict(base, epsilon=value))


def test_n_list_must_fit_a_float():
    # cap_measure_exact raises sin(phi) to the power n - 1, a float power
    with pytest.raises(ConfigError, match="'n_list' must be a nonempty list of integers in"):
        load_config({"mode": "cap-table", "n_list": [3, _HUGE]})
    largest = int(sys.float_info.max)  # exact measures only: no point of S^n is drawn
    assert load_config({"mode": "cap-table", "n_list": [largest],
                        "mc_samples": 0}).n_list == (largest,)


def test_certify_one_refuses_d_or_r_next_to_a_projector(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(reference_projector(3, 1).to_json())
    for extra in ({"d": 9, "r": 80}, {"d": 3}, {"r": 1}):
        with pytest.raises(ConfigError, match="either 'projector' or 'd' and 'r'"):
            load_config({"mode": "certify-one", "projector": str(path), **extra})
    assert load_config({"mode": "certify-one", "projector": str(path)}).loaded_projector.d == 3


def test_event_epsilon_window():
    with pytest.raises(ConfigError, match="epsilon"):
        load_config({"mode": "event-frequency", "d": 2, "r": 1, "epsilon": 0.25})
    cfg = load_config({"mode": "event-frequency", "d": 2, "r": 1, "epsilon": 0.0})
    assert cfg.epsilon == 0.0


def test_L_and_range_exclusive():
    with pytest.raises(ConfigError, match="not both"):
        load_config({"mode": "gap-sweep", "d": 2, "r": 1, "L": 4, "L_range": [4, 6]})
    cfg = load_config({"mode": "gap-sweep", "d": 2, "r": 1, "L_range": [4, 6]})
    assert cfg.L == (4, 5, 6)


@pytest.mark.parametrize("obj, mode", [
    ({"mode": "gap-sweep", "d": 3, "r": 1, "L": None, "L_range": [4, 6]}, None),
    ({"mode": "gap-sweep", "d": 3, "r": 1, "L": [5], "L_range": None}, None),
    ({"mode": None, "d": 3, "r": 1, "L": [5]}, "gap-sweep"),
])
def test_null_keys_take_their_defaults(obj, mode):
    cfg = load_config(obj, mode=mode)
    assert cfg.mode == "gap-sweep"
    assert cfg.L == ((4, 5, 6) if obj["L"] is None else (5,))


def test_dense_budget_requires_explicit_iterative():
    with pytest.raises(ConfigError, match="iterative"):
        load_config({"mode": "gap-sweep", "d": 3, "r": 1, "L": [10]})
    cfg = load_config({"mode": "gap-sweep", "d": 3, "r": 1, "L": [10], "gap_method": "iterative"})
    assert cfg.gap_method == "iterative"
    tree = {"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 4}  # dimension 3^15
    with pytest.raises(ConfigError, match="iterative"):
        load_config(tree)
    # the Lanczos basis and its restart block at dimension 3^15 need 7.3 GB
    with pytest.raises(ConfigError, match="memory budget"):
        load_config(dict(tree, gap_method="iterative"))


def test_flag_and_list_types_are_strict():
    with pytest.raises(ConfigError, match="compute_gaps"):
        load_config({"mode": "gap-sweep", "d": 2, "r": 1, "L": 4, "compute_gaps": "false"})
    for key, value in (("n_list", [1, True]), ("delta_list", [0.2, True])):
        with pytest.raises(ConfigError, match=key):
            load_config({"mode": "cap-table", key: value})
    with pytest.raises(ConfigError, match="k_list"):
        load_config({"mode": "certify-one", "d": 3, "r": 1, "k_list": [True]})


def test_lattices_above_the_state_limit_rejected():
    iterative = {"gap_method": "iterative"}
    for obj in (
        {"mode": "gap-sweep", "d": 3, "r": 1, "L": [20], **iterative},
        {"mode": "gap-sweep", "d": 3, "r": 1, "L_range": [4, 40], **iterative},
        # the range's upper end is refused before the range is listed
        {"mode": "gap-sweep", "d": 3, "r": 1, "L_range": [2, 10**12], "compute_gaps": False},
        {"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 5, **iterative},
        {"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 10**12, **iterative},
    ):
        with pytest.raises(ConfigError, match="memory budget"):
            load_config(obj)


def test_kernel_threshold_recorded_in_json_config():
    for base in ({"mode": "gap-sweep", "d": 2, "r": 1, "L": 4},
                 {"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 2}):
        assert load_config(dict(base, format="json")).to_json_obj()["kernel_threshold"] is None
        cfg = load_config(dict(base, format="json", kernel_threshold=1e-6, trials=1))
        assert json.loads(run_experiment(cfg).render())["config"]["kernel_threshold"] == 1e-6


def test_certify_one_requires_json():
    with pytest.raises(ConfigError, match="json"):
        load_config({"mode": "certify-one", "d": 3, "r": 1, "format": "csv"})


def test_sweep_empty_run():
    result = run_experiment(_sweep_cfg(trials=0))
    assert result.rows == []
    assert result.summary["certified_fraction"] is None
    assert result.exit_code == 0
    text = result.render()
    assert text.startswith("trial,")
    assert "# certified_fraction=\n" in text


def test_sweep_rows_and_summary():
    result = run_experiment(_sweep_cfg(trials=5))
    assert len(result.rows) == 5
    for row in result.rows:
        assert row.status == "ok"
        assert row.gap > 0
        assert row.verdict in ("certified-gapped", "inconclusive")
        assert row.gamma_loc >= row.gamma_loc_lb - 1e-8
    s = result.summary
    assert s["completed_rows"] == 5
    assert s["certified_rows"] == sum(r.verdict == "certified-gapped" for r in result.rows)
    assert math.isclose(s["certified_fraction"], s["certified_rows"] / 5)
    assert s["gap_probability_bound"] > 0


def test_sweep_rows_per_length():
    result = run_experiment(_sweep_cfg(trials=2, L=[4, 5, 6]))
    assert len(result.rows) == 6
    assert [r.L for r in result.rows] == [4, 5, 6, 4, 5, 6]


@pytest.fixture
def two_cpus(monkeypatch):
    """Let a run use two worker processes even on a one-CPU host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_crash_isolation(monkeypatch, two_cpus):
    # keyed on the trial's seed: a counter here would not be shared with worker processes
    real = harness.certify

    def flaky(p, k_list=()):
        if p.seed.stream_index == 1:
            raise RuntimeError("synthetic trial failure, with a comma")
        return real(p, k_list)

    monkeypatch.setattr(harness, "certify", flaky)
    for threads in (1, 2):
        result = run_experiment(_sweep_cfg(trials=4, threads=threads))
        errors = [r for r in result.rows if r.status == "error"]
        assert [r.trial for r in errors] == [1]
        assert "synthetic trial failure" in errors[0].error
        assert result.exit_code == 2
        assert result.summary["failed_rows"] == 1
        assert result.summary["completed_rows"] == 3
    # a comma in the error message must not break the CSV row structure
    import csv
    import io

    data_lines = [l for l in result.render().splitlines() if not l.startswith("#")]
    parsed = list(csv.reader(io.StringIO("\n".join(data_lines))))
    assert all(len(row) == len(parsed[0]) for row in parsed)


def test_worker_process_exception_reaches_the_caller(monkeypatch, two_cpus):
    # cap-table cells are not crash-isolated: a failing cell fails the run
    real = harness.capgeom.cap_measure_exact

    def failing(q):
        if q.n == 3:
            raise ValueError("synthetic cell failure")
        return real(q)

    monkeypatch.setattr(harness.capgeom, "cap_measure_exact", failing)
    cfg = load_config({"mode": "cap-table", "n_list": [1, 3, 5], "delta_list": [0.2, 0.5],
                       "mc_samples": 0, "threads": 2})
    with pytest.raises(ValueError, match="synthetic cell failure"):
        run_experiment(cfg)
    assert multiprocessing.active_children() == []


class _InlinePool:
    """Stands in for the process pool: records its size, runs the items here."""

    sizes: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus", [3, 8])
def test_pool_size_is_capped_by_items_and_cpus(monkeypatch, cpus):
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(harness, "_served", None)  # the inline initializer sets it here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert harness._map_indexed(lambda i: i * i, 5, 10_000) == [0, 1, 4, 9, 16]
    assert _InlinePool.sizes == [min(5, cpus)]
    # one item: the serial path, no pool
    assert harness._map_indexed(lambda i: i + 7, 1, 4) == [7]
    assert _InlinePool.sizes == [min(5, cpus)]


def test_render_deterministic_across_threads():
    cfg1 = _sweep_cfg(trials=8, L=[4, 5], threads=1)
    cfg3 = _sweep_cfg(trials=8, L=[4, 5], threads=3)
    assert run_experiment(cfg1).render() == run_experiment(cfg3).render()
    cfg_json1 = _sweep_cfg(trials=6, threads=1, format="json")
    cfg_json3 = _sweep_cfg(trials=6, threads=3, format="json")
    assert run_experiment(cfg_json1).render() == run_experiment(cfg_json3).render()


def test_csv_floats_roundtrip():
    result = run_experiment(_sweep_cfg(trials=1))
    text = result.render()
    header, row = text.splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["gap"]) == result.rows[0].gap
    assert float(cells["gamma_loc"]) == result.rows[0].gamma_loc


def test_event_frequency_run():
    cfg = load_config({
        "mode": "event-frequency", "d": 2, "r": 1, "epsilon": 0.2,
        "trials": 4096, "master_seed": 5,
    })
    result = run_event_frequency(cfg)
    row = result.rows[0]
    assert row["trials"] == 4096
    assert 0 <= row["frequency"] <= 1
    assert row["wilson_low"] <= row["frequency"] <= row["wilson_high"]
    assert row["landing_bound"] > 0
    assert row["exact_cap"] > 0
    assert result.exit_code == 0


def test_event_frequency_epsilon_zero():
    cfg = load_config({
        "mode": "event-frequency", "d": 2, "r": 1, "epsilon": 0.0, "trials": 256,
    })
    result = run_event_frequency(cfg)
    row = result.rows[0]
    assert row["successes"] == 0 and row["frequency"] == 0.0
    assert row["landing_bound"] is None and row["exact_cap"] is None


def test_event_frequency_deterministic_across_chunk_threads():
    base = {"mode": "event-frequency", "d": 2, "r": 1, "epsilon": 0.2,
            "trials": 10000, "master_seed": 3}
    r1 = run_event_frequency(load_config(dict(base, threads=1)))
    r4 = run_event_frequency(load_config(dict(base, threads=4)))
    assert r1.render() == r4.render()


def test_tree_run_no_edges_marker():
    cfg = load_config({"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 1, "trials": 1})
    row = run_experiment(cfg).rows[0]
    assert row.gap_status == "n/a"
    assert row.gap is None
    assert row.ground_energy == 0.0
    assert row.frustration_free


def test_tree_run_haar_and_near_good():
    cfg = load_config({"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 2, "trials": 2,
                       "master_seed": 11})
    result = run_experiment(cfg)
    for row in result.rows:
        assert row.status == "ok" and row.gap_status == "ok"
        assert row.frustration_free and row.gap > 0
        assert row.gap >= row.tree_bound - 1e-8
    near = load_config({"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 2, "trials": 2,
                        "family": "near-good", "epsilon": 1.0 / 18.0})
    res2 = run_experiment(near)
    for row in res2.rows:
        # near-reference families are chain-certified only: their sibling
        # overlaps (two edges from one parent) bound the tree gap near zero
        assert row.status == "ok" and row.gap_status == "ok"
        assert row.verdict == "inconclusive"
        assert row.frustration_free and row.gap > 0
        assert row.gap >= row.tree_bound - 1e-8


def test_cap_table_rows():
    cfg = load_config({"mode": "cap-table", "n_list": [1, 3], "delta_list": [0.2, math.pi / 2.0],
                       "mc_samples": 20000, "master_seed": 4})
    result = run_cap_table(cfg)
    rows = {(row["n"], row["delta"]): row for row in result.rows}
    assert abs(rows[(1, 0.2)]["exact"] - 0.2 / math.pi) < 1e-10
    assert abs(rows[(3, math.pi / 2.0)]["exact"] - 0.5) < 1e-12
    assert rows[(1, math.pi / 2.0)]["lower_bound"] is None
    row = rows[(3, 0.2)]
    assert row["exact"] > row["lower_bound"]
    assert abs(row["monte_carlo"] - row["exact"]) < 6.0 * max(row["std_err"], 1e-4)


def test_cap_table_draw_stays_a_few_blocks():
    # 100000 points on S^199 are 160 MB at once; the hits are counted over
    # row blocks of haar.SPHERE_BLOCK_BYTES (8 MB): the block being drawn, the
    # last one and a norm temporary make about three
    cfg = load_config({"mode": "cap-table", "n_list": [199], "delta_list": [1.4],
                       "mc_samples": 100_000, "master_seed": 4})
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        row, = run_cap_table(cfg).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4 * haar.SPHERE_BLOCK_BYTES
    assert abs(row["monte_carlo"] - row["exact"]) < 6.0 * row["std_err"]


# Every output's layout: the CSV header line of each table mode, the certificate's
# JSON keys and each mode's JSON "config" keys, in order
_LAYOUTS = {
    "gap-sweep": ({"d": 3, "r": 1, "L": [4]},
                  "trial,d,r,L,ground_energy,kernel_dim,gap,gap_status,frustration_free,"
                  "coupling_norm,gamma_loc,gamma_loc_lb,chain_bound,verdict,status,error",
                  ["mode", "master_seed", "d", "r", "trials", "L", "epsilon", "gap_method",
                   "kernel_threshold", "compute_gaps", "format"]),
    "tree-gap": ({"d": 3, "r": 1, "k": 2, "L": 2},
                 "trial,d,r,k,L,ground_energy,kernel_dim,gap,gap_status,frustration_free,"
                 "coupling_norm,gamma_loc,gamma_loc_lb,chain_bound,tree_bound,verdict,status,"
                 "error",
                 ["mode", "master_seed", "d", "r", "trials", "k", "L", "family", "epsilon",
                  "gap_method", "kernel_threshold", "format"]),
    "event-frequency": ({"d": 3, "r": 1, "epsilon": 0.1},
                        "trials,successes,frequency,wilson_low,wilson_high,std_err,"
                        "landing_bound,exact_cap",
                        ["mode", "master_seed", "d", "r", "trials", "epsilon", "format"]),
    "cap-table": ({"n_list": [3], "delta_list": [0.2], "mc_samples": 10},
                  "n,delta,exact,lower_bound,monte_carlo,std_err",
                  ["mode", "master_seed", "n_list", "delta_list", "mc_samples", "format"]),
}


@pytest.mark.parametrize("mode", _LAYOUTS)
def test_table_layouts(mode):
    obj, header, config_keys = _LAYOUTS[mode]
    obj = {"mode": mode, "trials": 1, **obj}
    assert run_experiment(load_config(obj)).render().splitlines()[0] == header
    payload = json.loads(run_experiment(load_config(dict(obj, format="json"))).render())
    assert list(payload["config"]) == config_keys
    assert [list(row) for row in payload["rows"]] == [header.split(",")]


def test_certificate_layout():
    cfg = load_config({"mode": "certify-one", "d": 3, "r": 1, "k_list": [1, 2]})
    assert list(cfg.to_json_obj()) == ["mode", "master_seed", "d", "r", "k_list",
                                       "stream_index", "projector", "format"]
    cert = json.loads(run_experiment(cfg).render())
    assert list(cert) == ["d", "r", "coupling_norm", "gamma_loc", "gamma_loc_lb", "meet_rank",
                          "chain_bound", "sibling_coupling_norm", "sibling_gamma_loc",
                          "tree_bounds", "verdict", "seed", "tolerances"]
    assert list(cert["tree_bounds"]) == ["1", "2"]
    assert list(cert["seed"]) == ["master_seed", "stream_index"]
    assert list(cert["tolerances"]) == ["meet_eigtol", "kernel_threshold"]


def test_certify_one_from_seed_and_file(tmp_path):
    cfg = load_config({"mode": "certify-one", "d": 3, "r": 1, "master_seed": 42})
    result = run_certify_one(cfg)
    assert result.summary["verdict"] in ("certified-gapped", "inconclusive")
    path = tmp_path / "ref.json"
    path.write_text(reference_projector(3, 1).to_json())
    cfg2 = load_config({"mode": "certify-one", "projector": str(path)})
    result2 = run_certify_one(cfg2)
    assert result2.summary["verdict"] == "certified-gapped"
    assert result2.summary["chain_bound"] == 1.0
    payload = json.loads(result2.render())
    assert payload["coupling_norm"] < 1e-12


_needs_openblas = pytest.mark.skipif(harness._blas_threads() is None,
                                     reason="numpy's BLAS exports no OpenBLAS thread count")


@_needs_openblas
def test_run_experiment_pins_blas_and_restores(monkeypatch):
    get, set_ = harness._blas_threads()
    original = get()
    seen = []

    def runner(cfg):
        seen.append(get())
        if cfg.trials == 1:
            raise RuntimeError("runner failed")
        return harness.run_lattice_gaps(cfg)

    monkeypatch.setitem(harness._MODES, "gap-sweep",
                        harness._MODES["gap-sweep"]._replace(run=runner))
    try:
        set_(2)
        result = run_experiment(_sweep_cfg())
        assert result.exit_code == 0 and get() == 2
        with pytest.raises(RuntimeError, match="runner failed"):
            run_experiment(_sweep_cfg(trials=1))
        assert get() == 2
        assert seen == [1, 1]
    finally:
        set_(original)


@_needs_openblas
def test_concurrent_runs_share_one_pin(monkeypatch):
    # more callers than cores, switching often: every run must see one BLAS
    # thread, and the count must come back only after the last run ends
    get, set_ = harness._blas_threads()
    original, interval = get(), sys.getswitchinterval()
    seen = []

    def runner(cfg):
        seen.append(get())
        time.sleep(0.001)
        seen.append(get())
        return harness.RunResult(mode=cfg.mode, header=[], rows=[], summary={}, config=cfg)

    monkeypatch.setitem(harness._MODES, "gap-sweep",
                        harness._MODES["gap-sweep"]._replace(run=runner))
    cfg = _sweep_cfg()
    try:
        set_(2)
        sys.setswitchinterval(1e-5)
        with ThreadPoolExecutor(max_workers=8) as ex:
            for fut in [ex.submit(run_experiment, cfg) for _ in range(200)]:
                fut.result(timeout=60)
        assert len(seen) == 400 and set(seen) == {1}
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(original)


def test_concurrent_runs_with_worker_processes(two_cpus):
    # runs in several threads of one process, each forking its own pool, give
    # the bytes of serial runs
    want = {seed: run_experiment(_sweep_cfg(master_seed=seed)).render() for seed in range(8)}
    with ThreadPoolExecutor(max_workers=4) as ex:
        futures = {seed: ex.submit(run_experiment, _sweep_cfg(master_seed=seed, threads=2))
                   for seed in range(8)}
        got = {seed: fut.result(timeout=60).render() for seed, fut in futures.items()}
    assert got == want
    assert multiprocessing.active_children() == []


@_needs_openblas
def test_worker_processes_run_one_blas_thread(monkeypatch, two_cpus):
    get, set_ = harness._blas_threads()
    original = get()

    def runner(cfg):
        counts = harness._map_indexed(lambda i: (os.getpid(), harness._blas_threads()[0]()),
                                      4, cfg.threads)
        return harness.RunResult(mode=cfg.mode, header=[], rows=counts, summary={}, config=cfg)

    monkeypatch.setitem(harness._MODES, "gap-sweep",
                        harness._MODES["gap-sweep"]._replace(run=runner))
    try:
        set_(2)
        rows = run_experiment(_sweep_cfg(threads=2)).rows
        assert [count for _, count in rows] == [1, 1, 1, 1]
        assert os.getpid() not in {pid for pid, _ in rows}
        assert get() == 2
    finally:
        set_(original)


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def _run_cli(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "-m", "gapcert", *args],
        capture_output=True, text=True, cwd=cwd, env=env or cli_env(),
    )


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mode": "gap-sweep", "d": 2, "r": 1, "bogus": 1}))
    proc = _run_cli(["sweep", "--config", str(cfg)], tmp_path)
    assert proc.returncode == 1
    assert "configuration error" in proc.stderr


def test_cli_unreadable_inputs_are_config_errors(tmp_path):
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    bad = tmp_path / "bad_projector.json"
    bad.write_text(json.dumps({"d": 3, "r": 1, "matrix": [1, 2]}))
    negative = tmp_path / "negative_d.json"  # d^2 = 9 fits the matrix, d does not
    negative.write_text(json.dumps({"d": -3, "r": 1, "matrix": reference_projector(3, 1)
                                    .matrix.ravel().tolist()}))
    infinite = tmp_path / "infinite_d.json"
    infinite.write_text('{"d": 1e400, "r": 1, "matrix": [1]}')
    for args in (
        ["sweep", "--config", str(array)],
        ["certify", "--projector", str(tmp_path / "missing.json")],
        ["certify", "--projector", str(bad)],
        ["certify", "--projector", str(negative)],
        ["certify", "--projector", str(infinite)],
    ):
        proc = _run_cli(args, tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("configuration error: ")
        assert "Traceback" not in proc.stderr


def test_cli_refuses_out_of_range_epsilon_and_projector_with_d(tmp_path):
    huge = tmp_path / "huge_epsilon.json"
    huge.write_text('{"mode": "gap-sweep", "d": 3, "r": 1, "epsilon": 1' + "0" * 400 + "}")
    ref = tmp_path / "ref.json"
    ref.write_text(reference_projector(3, 1).to_json())
    for args, message in (
        (["sweep", "--config", str(huge)], "'epsilon' must be a finite number"),
        (["certify", "--projector", str(ref), "-d", "9", "-r", "80"], "not both"),
    ):
        proc = _run_cli(args, tmp_path)
        assert proc.returncode == 1, proc.stdout
        assert proc.stderr.startswith("configuration error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_cap_table_refuses_n_beyond_the_float_range(tmp_path):
    cfg = tmp_path / "huge_n.json"
    cfg.write_text('{"mode": "cap-table", "n_list": [1' + "0" * 400 + '], "mc_samples": 0}')
    proc = _run_cli(["cap-table", "--config", str(cfg)], tmp_path)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith("configuration error: ")
    assert "'n_list' must be" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_cap_table_refuses_sphere_points_beyond_the_coordinate_limit(tmp_path):
    cfg = tmp_path / "huge_points.json"
    cfg.write_text('{"mode": "cap-table", "n_list": [1' + "0" * 300 + '], "mc_samples": 1}')
    proc = _run_cli(["cap-table", "--config", str(cfg)], tmp_path)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith("configuration error: ")
    assert "sphere dimension must be <=" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_certify_refuses_ranks_above_the_chain_bound(tmp_path):
    cfg = tmp_path / "frustrated.json"
    cfg.write_text(json.dumps(_FRUSTRATED))
    proc = _run_cli(["certify", "--config", str(cfg)], tmp_path)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith("configuration error: ")
    assert "frustration-free rank bound" in proc.stderr


@pytest.mark.parametrize("rank", ["1.7", "true"])
def test_cli_projector_rank_must_be_an_integer(tmp_path, rank):
    # the reference matrix has rank 1, so only the type of "r" is wrong
    path = tmp_path / "projector.json"
    matrix = json.dumps(reference_projector(3, 1).matrix.ravel().tolist())
    path.write_text(f'{{"d": 3, "r": {rank}, "matrix": {matrix}}}')
    proc = _run_cli(["certify", "--projector", str(path)], tmp_path)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith("configuration error: ")
    assert "'r' must be an integer" in proc.stderr


def test_projector_file_of_rank_zero_is_refused(tmp_path):
    # the zero matrix is a projector, but no edge term has rank 0
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps({"d": 3, "r": 0, "matrix": [0.0] * 81}))
    with pytest.raises(ConfigError, match="rank must satisfy 1 <= r <= d"):
        load_config({"mode": "certify-one", "projector": str(path)})
    proc = _run_cli(["certify", "--projector", str(path)], tmp_path)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith("configuration error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_projector_file_with_non_finite_entries_is_refused(tmp_path, value):
    # json.dumps writes NaN and Infinity tokens, which json.loads reads back
    m = reference_projector(3, 1).matrix.copy()
    m[0, 1] = m[1, 0] = value  # the trace stays 1
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps({"d": 3, "r": 1, "matrix": m.ravel().tolist()}))
    with pytest.raises(ConfigError, match="does not hold a projector: NotAProjectorError"):
        load_config({"mode": "certify-one", "projector": str(path)})
    proc = _run_cli(["certify", "--projector", str(path)], tmp_path)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith("configuration error: ")
    assert "Traceback" not in proc.stderr


def test_k_list_entries_keep_the_tree_bound_finite():
    # tree_bound multiplies by 2k, which must stay a finite float
    largest = int(sys.float_info.max / 2)
    for big in (10**308, largest + 1, 10**400):
        with pytest.raises(ConfigError, match="'k_list' must be a list of integers in"):
            load_config({"mode": "certify-one", "d": 3, "r": 1, "k_list": [2, big]})
    cfg = load_config({"mode": "certify-one", "d": 3, "r": 1, "k_list": [10**307, largest]})

    def refuse(token):
        raise AssertionError(f"{token} in the certificate")

    bounds = json.loads(run_experiment(cfg).render(), parse_constant=refuse)["tree_bounds"]
    assert list(bounds) == [str(10**307), str(largest)]


def test_out_must_be_writable(tmp_path):
    (tmp_path / "plain.txt").write_text("x")
    for out in ("", str(tmp_path), str(tmp_path / "missing" / "c.json"),
                str(tmp_path / "plain.txt" / "c.json")):
        with pytest.raises(ConfigError, match="'out' must be the path of a writable file"):
            load_config({"mode": "cap-table", "out": out})
    new, kept = tmp_path / "new.csv", tmp_path / "plain.txt"
    for out in (new, kept):  # neither created nor truncated
        assert load_config({"mode": "cap-table", "out": str(out)}).out == str(out)
    assert not new.exists() and kept.read_text() == "x"
    proc = _run_cli(["certify", "--seed", "1", "-d", "3", "-r", "1",
                     "--out", str(tmp_path / "missing" / "c.json")], tmp_path)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith("configuration error: key 'out' must")
    assert "Traceback" not in proc.stderr


def test_cli_surface():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert [(a.dest, sub.choices[a.dest].get_default("mode"), a.help)
            for a in sub._choices_actions] == [
        ("sweep", "gap-sweep",
         "sample random interactions, certify them, optionally diagonalize chains"),
        ("event-freq", "event-frequency",
         "frequency of sampled families landing near the reference targets"),
        ("tree", "tree-gap", "tree certificates and exact tree gaps"),
        ("cap-table", "cap-table",
         "exact spherical cap measures vs closed-form bound and Monte Carlo"),
        ("certify", "certify-one",
         "certificate of a single interaction (from a seed or a projector file)"),
    ]


def test_cli_sweep_writes_file_and_exit_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "gap-sweep", "d": 2, "r": 1, "trials": 3, "L": [4]}))
    out = tmp_path / "rows.csv"
    proc = _run_cli(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "9"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("trial,")
    assert len([l for l in lines if l and not l.startswith("#")]) == 4  # header + 3 rows
    assert "certified_fraction" in proc.stdout


def test_cli_threads_byte_identical_output(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"mode": "gap-sweep", "d": 3, "r": 1, "trials": 6, "L": [4], "master_seed": 21}
    ))
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"rows_{threads}.csv"
        proc = _run_cli(
            ["sweep", "--config", str(cfg), "--out", str(out), "--threads", str(threads)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_output_independent_of_blas_threads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"mode": "gap-sweep", "d": 3, "r": 1, "trials": 6, "L": [6], "master_seed": 21}
    ))
    outs = []
    for blas_threads in (None, "1", "2"):
        env = cli_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        out = tmp_path / f"rows_{blas_threads}.csv"
        proc = _run_cli(["sweep", "--config", str(cfg), "--out", str(out)], tmp_path, env)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_cli_certify_from_seed_stdout(tmp_path):
    proc = _run_cli(["certify", "--seed", "5", "-d", "3", "-r", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["seed"] == {"master_seed": 5, "stream_index": 0}
    assert "chain_bound" in payload


def test_cli_cap_table_defaults(tmp_path):
    proc = _run_cli(["cap-table", "--trials", "0"], tmp_path)
    # default grid runs on stdout; trials flag is accepted but unused here
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n,delta,")


def test_import_and_load_config_stay_numpy_only():
    # importing scipy costs a fresh process about a quarter second; the runtime is numpy only.
    # The process pool's modules are imported by the first run that uses it.
    code = ("import json, sys; import gapcert, gapcert.harness; "
            "gapcert.harness.load_config(json.loads(sys.argv[1])); "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy' "
            "or m in ('multiprocessing', 'concurrent.futures.process')))")
    cfg = {"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 3, "family": "near-good",
           "epsilon": 1.0 / 18.0, "gap_method": "iterative"}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(cfg)],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
