"""Each domain rule is refused alike by every entry point that depends on it.

A rule is stated once, by the module that owns it; the other library
functions and `load_config` ask that statement.  Each test walks one rule's
entry points with values on both sides of its boundary: the library raises
its own type, a configuration raises ConfigError.
"""

import math
import tracemalloc

import numpy as np
import pytest

import gapcert.model as model
from gapcert import (
    ChainSpec,
    ConfigError,
    DomainError,
    InvalidDimensionError,
    InvalidRankError,
    LocalProjector,
    NotAProjectorError,
    OrthonormalFamily,
    RandomSeed,
    TreeSpec,
    certified_gap_level,
    certify,
    construct_near_good,
    dense_hamiltonian,
    dense_spectrum,
    gap_report,
    max_ff_rank,
    meet,
    range_gram,
    reference_distance,
    reference_projector,
    sample_family,
    sample_family_batch,
    sample_sphere,
)
from gapcert.haar import MAX_SPHERE_COORDS
from gapcert.harness import load_config
from gapcert.model import reference_targets
from conftest import random_projector

# --- site space: d >= 2 and 1 <= r <= d^2 -----------------------------------

_SITE_ENTRIES = {
    "OrthonormalFamily": lambda d, r: OrthonormalFamily(d, r, np.eye(d * d)[:r]),
    "sample_family_batch": lambda d, r: sample_family_batch(d, r, 0, 0, 1),
    "ChainSpec": lambda d, r: ChainSpec(d, r, 3),
    "TreeSpec": lambda d, r: TreeSpec(d, r, 2, 2),
    "LocalProjector": lambda d, r: LocalProjector(d, r, np.diag(np.arange(d * d) < r) * 1.0),
}
# entry points that take d alone
_DIM_ENTRIES = {
    "LocalProjector": lambda d: LocalProjector(d, 1, np.diag(np.arange(d * d) == 1) * 1.0),
    "max_ff_rank": max_ff_rank,
}


@pytest.mark.parametrize("entry", _SITE_ENTRIES)
@pytest.mark.parametrize("d, r, error", [
    (1, 1, InvalidDimensionError), (2, 0, InvalidRankError), (2, 5, InvalidRankError),
    (3, 10, InvalidRankError), (2, 1, None), (2, 4, None), (3, 9, None),
])
def test_site_space_rule(entry, d, r, error):
    if error is None:
        _SITE_ENTRIES[entry](d, r)
    else:
        with pytest.raises(error):
            _SITE_ENTRIES[entry](d, r)


@pytest.mark.parametrize("entry", _DIM_ENTRIES)
def test_site_dimension_rule(entry):
    _DIM_ENTRIES[entry](2)
    with pytest.raises(InvalidDimensionError, match="local dimension must be >= 2"):
        _DIM_ENTRIES[entry](1)


# --- finite entries: a NaN or infinite entry fails the check it reaches ------
# Each input below is valid with x = 0.  With a NaN or inf x its checked defect
# would be NaN (inf - inf, inf * 0), which fails no comparison, or, for the
# one-sided entry, |H - H^T| and the scale it is measured against both inf.


def _paired(x):
    """reference_projector(3, 1) with x at (0, 1) and (1, 0), its trace kept."""
    m = reference_projector(3, 1).matrix.copy()
    m[0, 1] = m[1, 0] = x
    return m


def _rows(x):
    """Two orthonormal rows, with x at (0, 2)."""
    v = np.eye(9)[:2].copy()
    v[0, 2] = x
    return v


def _one_sided(x):
    h = np.eye(4)
    h[0, 1] = x
    return h


_FINITE_ENTRIES = {  # name: (call(x), error)
    "LocalProjector": (lambda x: LocalProjector(3, 1, _paired(x)), NotAProjectorError),
    "OrthonormalFamily": (lambda x: OrthonormalFamily(3, 2, _rows(x)), ValueError),
    "meet": (lambda x: meet(_paired(x), _paired(x)), NotAProjectorError),
    "dense_spectrum": (lambda x: dense_spectrum(_one_sided(x)), DomainError),
}


@pytest.mark.parametrize("entry", _FINITE_ENTRIES)
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_finite_entry_rule(entry, x):
    call, error = _FINITE_ENTRIES[entry]
    call(0.0)
    with pytest.raises(error, match="NaN or infinite entry"):
        call(x)


def test_nan_filled_inputs_are_refused():
    nan = np.full((9, 9), math.nan)
    with pytest.raises(NotAProjectorError, match="P has a NaN or infinite entry"):
        LocalProjector(3, 1, nan)
    with pytest.raises(ValueError, match="family has a NaN or infinite entry"):
        OrthonormalFamily(3, 1, np.full((1, 9), math.nan))
    with pytest.raises(NotAProjectorError, match="q1 has a NaN or infinite entry"):
        meet(nan, nan)
    with pytest.raises(DomainError, match="matrix has a NaN or infinite entry"):
        dense_spectrum(np.full((4, 4), math.nan))


# --- frustration-free rank: r <= max_ff_rank(d, lattice, k) ------------------


def _projector_file(tmp_path, d, r):
    path = tmp_path / f"projector_{d}_{r}.json"
    path.write_text(random_projector(d, r, master=31).to_json())
    return {"mode": "certify-one", "projector": str(path)}


_FF_ENTRIES = {  # name: (call(d, r, tmp_path), lattice, error)
    "certify": (lambda d, r, tmp: certify(random_projector(d, r, master=31)),
                "chain", DomainError),
    "gap-sweep": (lambda d, r, tmp: load_config({"mode": "gap-sweep", "d": d, "r": r}),
                  "chain", ConfigError),
    "certify-one": (lambda d, r, tmp: load_config({"mode": "certify-one", "d": d, "r": r}),
                    "chain", ConfigError),
    "certify-one-file": (lambda d, r, tmp: load_config(_projector_file(tmp, d, r)),
                         "chain", ConfigError),
    "tree-gap": (lambda d, r, tmp: load_config({"mode": "tree-gap", "d": d, "r": r, "k": 2,
                                                "L": 2}),
                 "tree", ConfigError),
}


@pytest.mark.parametrize("entry", _FF_ENTRIES)
@pytest.mark.parametrize("d", [2, 3, 5])
def test_frustration_free_rank_rule(entry, d, tmp_path):
    call, lattice, error = _FF_ENTRIES[entry]
    bound = max_ff_rank(d, lattice, 2 if lattice == "tree" else None)
    if bound >= 1:  # a binary tree at d=2 has no frustration-free rank
        call(d, bound, tmp_path)
    with pytest.raises(error, match=f"frustration-free rank bound {bound} for d={d}"):
        call(d, bound + 1, tmp_path)


# --- near-reference window: 0 < epsilon < 1/(8r) -----------------------------

_WINDOW_ENTRIES = {  # name: (call(r, epsilon) at d=5, error)
    "certified_gap_level": (certified_gap_level, DomainError),
    "construct_near_good": (lambda r, eps: construct_near_good(5, r, eps, RandomSeed(3, r)),
                            DomainError),
    "gap-sweep": (lambda r, eps: load_config({"mode": "gap-sweep", "d": 5, "r": r,
                                              "epsilon": eps}), ConfigError),
    "tree-gap-near-good": (lambda r, eps: load_config({"mode": "tree-gap", "d": 5, "r": r,
                                                       "k": 2, "L": 2, "family": "near-good",
                                                       "epsilon": eps}), ConfigError),
}


@pytest.mark.parametrize("entry", _WINDOW_ENTRIES)
@pytest.mark.parametrize("r", [1, 2])
def test_near_reference_window_rule(entry, r):
    call, error = _WINDOW_ENTRIES[entry]
    edge = 1.0 / (8.0 * r)
    call(r, float(np.nextafter(edge, 0.0)))
    for eps in (edge, 0.0):
        with pytest.raises(error, match="epsilon must lie in"):
            call(r, eps)


# --- reference targets: 1 <= r < d -------------------------------------------

_REFERENCE_ENTRIES = {  # name: (call(d, r), error)
    "reference_targets": (reference_targets, InvalidRankError),
    "reference_projector": (reference_projector, InvalidRankError),
    "construct_near_good": (lambda d, r: construct_near_good(d, r, 1.0 / (16.0 * r),
                                                             RandomSeed(4, d)),
                            InvalidRankError),
    "reference_distance": (lambda d, r: reference_distance(sample_family(d, r, RandomSeed(4, d))),
                           InvalidRankError),
    "event-frequency": (lambda d, r: load_config({"mode": "event-frequency", "d": d, "r": r,
                                                  "epsilon": 0.1}), ConfigError),
}


@pytest.mark.parametrize("entry", _REFERENCE_ENTRIES)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_reference_target_rule(entry, d):
    call, error = _REFERENCE_ENTRIES[entry]
    call(d, d - 1)
    with pytest.raises(error, match="1 <= r < d"):
        call(d, d)


# --- sphere points: S^n has n + 1 <= MAX_SPHERE_COORDS coordinates -----------

_SPHERE_ENTRIES = {  # name: (call(n), error); no point is drawn
    "sample_sphere": (lambda n: sample_sphere(n, 0, RandomSeed(5, 0)), InvalidDimensionError),
    "cap-table": (lambda n: load_config({"mode": "cap-table", "n_list": [3, n],
                                         "mc_samples": 1}), ConfigError),
}


@pytest.mark.parametrize("entry", _SPHERE_ENTRIES)
def test_sphere_point_size_rule(entry):
    call, error = _SPHERE_ENTRIES[entry]
    call(1)
    call(MAX_SPHERE_COORDS - 1)
    for n in (MAX_SPHERE_COORDS, 10**300):
        with pytest.raises(error, match=f"sphere dimension must be <= {MAX_SPHERE_COORDS - 1}"):
            call(n)


# --- memory budget: each route's bytes, refused before they are allocated ----


def _traced(call):
    """call()'s result and the tracemalloc peak of the call."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()


_SPEC = ChainSpec(3, 1, 5)  # dim 243; B has m = 4 * 27 = 108 columns
_P = random_projector(3, 1, master=35)
_BUDGET_ENTRIES = {  # name: (call, the bytes its route is budgeted)
    "ChainSpec": (lambda: ChainSpec(3, 1, 5), 8 * 243),
    "TreeSpec": (lambda: TreeSpec(3, 1, 2, 2), 8 * 27),
    "dense_spectrum": (lambda: dense_spectrum(np.eye(50)), 8 * 50**2),
    "dense_hamiltonian": (lambda: dense_hamiltonian(_SPEC, _P), 8 * 243**2),
    "range_gram": (lambda: range_gram(_SPEC, _P), 8 * 108**2),
    # the Gram matrix and LAPACK's copy; the diagonal route is budgeted alike
    "gap_report-dense": (lambda: gap_report(_SPEC, _P, method="dense"), 16 * 108**2),
    "gap_report-diagonal": (lambda: gap_report(_SPEC, reference_projector(3, 1),
                                               method="dense"), 16 * 108**2),
    # 48 basis rows and a restart block of 16
    "gap_report-iterative": (lambda: gap_report(_SPEC, _P, method="iterative",
                                                seed=RandomSeed(35, 0)), 8 * 243 * 64),
    # each overlap's 27 x 27 sum and LAPACK's copy; the sibling one too
    "certify": (lambda: certify(_P, k_list=(2,)), 16 * 27**2),
}


@pytest.mark.parametrize("entry", _BUDGET_ENTRIES)
def test_memory_budget_rule(entry, monkeypatch):
    call, nbytes = _BUDGET_ENTRIES[entry]
    monkeypatch.setattr(model, "MEMORY_BUDGET", nbytes)
    call()
    monkeypatch.setattr(model, "MEMORY_BUDGET", nbytes - 1)
    with pytest.raises(InvalidDimensionError, match=f"needs at least {nbytes} bytes"):
        call()


_SPEC8 = ChainSpec(3, 1, 8)  # dim 6561, m = 5103
_BEYOND_BUDGET = {  # name: a call whose route breaks a 1 MiB budget
    "ChainSpec": lambda: ChainSpec(3, 1, 12),  # 4.3 MB state vector
    "TreeSpec": lambda: TreeSpec(3, 1, 2, 4),  # 115 MB state vector
    "dense_spectrum": lambda h=np.zeros((400, 400)): dense_spectrum(h),  # 1.3 MB copy
    "dense_hamiltonian": lambda: dense_hamiltonian(_SPEC8, _P),  # 344 MB
    "range_gram": lambda: range_gram(_SPEC8, _P),  # 208 MB
    "gap_report-dense": lambda: gap_report(_SPEC8, _P, method="dense"),  # 417 MB
    "gap_report-iterative": lambda: gap_report(_SPEC8, _P, method="iterative"),  # 3.4 MB
    # a 512 x 512 overlap sum and LAPACK's copy: 4.2 MB
    "certify": lambda p=random_projector(8, 1, master=36): certify(p),
}


@pytest.mark.parametrize("entry", _BEYOND_BUDGET)
def test_memory_budget_refuses_before_allocating(entry, monkeypatch):
    monkeypatch.setattr(model, "MEMORY_BUDGET", 2**20)

    def refused():
        with pytest.raises(InvalidDimensionError, match="memory budget"):
            _BEYOND_BUDGET[entry]()

    assert _traced(refused)[1] < 2**20


# configs the budget refuses at load time, with the bytes of their route
_CONFIGS_BEYOND_BUDGET = {
    "d3-L15-iterative": ({"mode": "gap-sweep", "d": 3, "r": 1, "L": [15],
                          "gap_method": "iterative"}, 7_346_640_384),  # basis and restart block
    "tree-d3-k2-L4-iterative": ({"mode": "tree-gap", "d": 3, "r": 1, "k": 2, "L": 4,
                                 "gap_method": "iterative"}, 7_346_640_384),
    "d2-L24-iterative": ({"mode": "gap-sweep", "d": 2, "r": 1, "L": [24],
                          "gap_method": "iterative"}, 8_589_934_592),
    "d3-r1-L9-dense": ({"mode": "gap-sweep", "d": 3, "r": 1, "L": [9],
                        "gap_method": "dense"}, 16 * 17496**2),  # Gram matrix and LAPACK's copy
    "d3-r2-L9-dense": ({"mode": "gap-sweep", "d": 3, "r": 2, "L": [9],
                        "gap_method": "dense"}, 16 * 19683**2),  # H and LAPACK's copy
    # the certificate's d^3 x d^3 overlap sum and LAPACK's copy, 16 d^6 bytes
    "certify-one-d40": ({"mode": "certify-one", "d": 40, "r": 1}, 65_536_000_000),
    "sweep-d26-L2": ({"mode": "gap-sweep", "d": 26, "r": 1, "L": [2]}, 4_942_652_416),
    "tree-d26-k2-L2": ({"mode": "tree-gap", "d": 26, "r": 1, "k": 2, "L": 2}, 4_942_652_416),
    # event-frequency's sampling chunk: 4096 Gaussian 900 x 900 matrices
    "event-frequency-d30": ({"mode": "event-frequency", "d": 30, "r": 1, "epsilon": 0.1,
                             "trials": 10000}, 26_542_080_000),
}


@pytest.mark.parametrize("name", _CONFIGS_BEYOND_BUDGET)
def test_memory_budget_refuses_configs_at_load_time(name):
    obj, nbytes = _CONFIGS_BEYOND_BUDGET[name]

    def refused():
        with pytest.raises(ConfigError, match=f"needs at least {nbytes} bytes"):
            load_config(obj)

    assert _traced(refused)[1] < 5e6


@pytest.mark.parametrize("d, budget", [(8, 2**20), (7, 10**6)])
def test_memory_budget_refuses_the_certificate_at_load_time(d, budget, monkeypatch):
    # the chain's dense route fits; the certificate's 16 d^6 bytes do not.  At
    # d = 7, L = 4 (dimension 2401) "auto" runs Lanczos, whose basis breaks the
    # budget too, but is budgeted as dense: the certificate refuses the run
    monkeypatch.setattr(model, "MEMORY_BUDGET", budget)
    obj = {"mode": "gap-sweep", "d": d, "r": 1, "L": [4], "trials": 2}
    with pytest.raises(ConfigError, match=f"needs at least {16 * d**6} bytes"):
        load_config(obj)
    assert load_config(dict(obj, L=[2], compute_gaps=False, d=d - 2)).d == d - 2


def test_memory_budget_accepts_configs_within_it():
    for obj in ({"mode": "gap-sweep", "d": 3, "r": 1, "L": [14], "gap_method": "iterative"},
                {"mode": "gap-sweep", "d": 3, "r": 1, "L": [10], "gap_method": "iterative"},
                # the 6480 x 6480 Gram matrix and LAPACK's copy: 0.67 GB
                {"mode": "gap-sweep", "d": 6, "r": 1, "L": [6]}):
        assert load_config(obj).lattices


# --- Haar sign convention: the triangular factor has a nonnegative diagonal ---


def _near_good_oracle(d, r, epsilon, seed):
    """The near-good construction with its QR sign fix written out."""
    targets = reference_targets(d, r).T
    rng = seed.generator()
    scale = 0.9 * epsilon
    for _ in range(20):
        noise = rng.standard_normal((d * d, r))
        noise /= np.linalg.norm(noise, axis=0)
        q, rr = np.linalg.qr(targets + scale * noise)
        q = q * np.where(np.diagonal(rr) >= 0, 1.0, -1.0)
        if float(np.linalg.norm(q - targets, axis=0).max()) < epsilon:
            return q.T
        scale *= 0.5
    return None


@pytest.mark.parametrize("d, r", [(d, r) for d in (3, 4, 5) for r in range(1, d)])
def test_near_good_sign_convention_matches_the_written_out_qr(d, r):
    for master in (0, 7, 909):
        for share in (0.05, 0.5, 0.99):
            eps = share / (8.0 * r)
            seed = RandomSeed(master, 10 * d + r)
            fam = construct_near_good(d, r, eps, seed)
            assert np.array_equal(fam.vectors, _near_good_oracle(d, r, eps, seed))
