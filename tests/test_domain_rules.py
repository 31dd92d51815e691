"""Each domain rule is refused alike by every entry point that depends on it.

A rule is stated once, by the module that owns it; the other library
functions and `load_config` ask that statement.  Each test walks one rule's
entry points with values on both sides of its boundary: the library raises
its own type, a configuration raises ConfigError.
"""

import numpy as np
import pytest

from gapcert import (
    ChainSpec,
    ConfigError,
    DomainError,
    InvalidDimensionError,
    InvalidRankError,
    LocalProjector,
    OrthonormalFamily,
    RandomSeed,
    TreeSpec,
    certified_gap_level,
    certify,
    construct_near_good,
    max_ff_rank,
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
