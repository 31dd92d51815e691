"""Dense oracle vs iterative eigensolver, gap reports, kernel handling."""

import tracemalloc

import numpy as np
import pytest

import gapcert.model as model
import gapcert.spectral as spectral
from gapcert import (
    ChainSpec,
    DomainError,
    InvalidDimensionError,
    LocalProjector,
    RandomSeed,
    SolverConvergenceError,
    TreeSpec,
    construct_near_good,
    default_kernel_threshold,
    dense_hamiltonian,
    dense_spectrum,
    gap_report,
    hamiltonian_matvec,
    projector_from_family,
    reference_projector,
    sample_family,
    smallest_eig_above,
)
from conftest import random_projector


def test_single_term_spectrum_is_projector_spectrum():
    p = random_projector(3, 2, master=60)
    evals = dense_spectrum(dense_hamiltonian(ChainSpec(3, 2, 2), p))
    expected = np.array([0.0] * 7 + [1.0] * 2)
    assert np.abs(evals - expected).max() < 1e-10


def test_reference_chain_spectrum_is_integer():
    # adjacent reference terms commute (orthogonal ranges), so the spectrum
    # consists of occurrence counts: nonnegative integers with ground 0, gap 1
    p = reference_projector(3, 1)
    evals = dense_spectrum(dense_hamiltonian(ChainSpec(3, 1, 4), p))
    assert np.abs(evals - np.round(evals)).max() < 1e-12
    assert evals[0] >= 0.0
    assert abs(evals[0]) < 1e-12
    positive = evals[evals > 0.5]
    assert abs(positive[0] - 1.0) < 1e-12


def test_three_site_trace_identity():
    p = random_projector(2, 1, master=61)
    h = dense_hamiltonian(ChainSpec(2, 1, 3), p)
    evals = dense_spectrum(h)
    assert evals.size == 8
    assert abs(evals.sum() - 2 * 1 * 2) < 1e-8


def test_dense_spectrum_validation(monkeypatch):
    with pytest.raises(InvalidDimensionError):
        dense_spectrum(np.zeros((3, 4)))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(DomainError):
        dense_spectrum(skew)
    assert dense_spectrum(np.zeros((0, 0))).shape == (0,)
    monkeypatch.setattr(model, "MEMORY_BUDGET", 8 * 4**2)
    with pytest.raises(InvalidDimensionError):
        dense_spectrum(np.eye(5))


def test_solver_hands_matvec_c_ordered_blocks():
    # the edge kernel reshapes its input; a Fortran-ordered block would be
    # copied once per edge instead of once per call.  A step applies H to one
    # 1-D vector, the acceptance residuals of the two targets to one
    # (dim, 2) block.
    p = random_projector(2, 1, master=62)
    spec = ChainSpec(2, 1, 8)
    inner = hamiltonian_matvec(spec, p)
    seen = []

    def matvec(x):
        seen.append((x.shape, x.flags.c_contiguous))
        return inner(x)

    thr = default_kernel_threshold(spec.n_terms)
    spectral._lanczos(matvec, spec.dim, RandomSeed(0, 1).generator(substream=1),
                      spectral._ground_and_gap(thr))
    smallest_eig_above(matvec, spec.dim, 1e-8, seed=RandomSeed(0, 1))
    assert {shape for shape, _ in seen} == {(spec.dim,), (spec.dim, 2)}
    assert all(contiguous for _, contiguous in seen)


def test_lowest_eigs_explicit_failure_on_iteration_cap():
    # the error says how far the solve got: its restarts (a 24-row basis fills
    # after 24 steps and again 16 steps later) and its residual estimates
    p = random_projector(2, 1, master=63)
    spec = ChainSpec(2, 1, 6)
    thr = default_kernel_threshold(spec.n_terms)
    for max_iter, max_basis, restarts in ((1, spectral._MAX_BASIS, 0), (40, 24, 2)):
        with pytest.raises(SolverConvergenceError,
                           match=rf"after {max_iter} iterations \(dim=64\): {restarts} restarts, "
                                 r"2 of 2 targets found, largest residual estimate \S+ "
                                 r"against tolerance"):
            spectral._lanczos(hamiltonian_matvec(spec, p), spec.dim,
                              RandomSeed().generator(substream=1), spectral._ground_and_gap(thr),
                              max_iter=max_iter, max_basis=max_basis)


def test_smallest_eig_above_reference_chain():
    p = reference_projector(3, 1)
    spec = ChainSpec(3, 1, 7)
    thr = default_kernel_threshold(spec.n_terms)
    gap = smallest_eig_above(hamiltonian_matvec(spec, p), spec.dim, thr)
    assert abs(gap - 1.0) < 1e-8


def test_smallest_eig_above_matches_dense():
    p = random_projector(2, 1, master=64)
    spec = ChainSpec(2, 1, 8)
    evals = dense_spectrum(dense_hamiltonian(spec, p))
    thr = default_kernel_threshold(spec.n_terms)
    expected = evals[np.searchsorted(evals, thr, side="right")]
    got = smallest_eig_above(hamiltonian_matvec(spec, p), spec.dim, thr)
    assert abs(got - expected) < 1e-8


def test_smallest_eig_above_zero_operator_returns_none():
    assert smallest_eig_above(lambda x: np.zeros_like(x), 6, 1e-9) is None


def test_smallest_eig_above_sees_a_degenerate_level_once():
    # a 5-fold level at 0.3 and the next level at 0.5: a single-vector Krylov
    # space holds the 5-fold level once, so above 0.3 the solve finds 0.5
    levels = np.concatenate([np.full(5, 0.3), np.full(3, 0.5), np.linspace(0.7, 2.0, 52)])
    q, _ = np.linalg.qr(RandomSeed(9, 9).generator().standard_normal((60, 60)))
    h = (q * levels) @ q.T
    got = smallest_eig_above(lambda x: h @ x, 60, 0.3 + 1e-9, seed=RandomSeed(9, 1))
    assert abs((got - 0.3) - 0.2) < 1e-9


def test_skipped_passes_keep_the_basis_orthonormal():
    # without restarts every basis row is a vector the solve handed to matvec;
    # steps that skip the full pass keep it orthonormal to the pass tolerance
    p = random_projector(3, 1, master=71)
    spec = ChainSpec(3, 1, 6)
    inner = hamiltonian_matvec(spec, p)
    rows = []

    def matvec(x):
        if x.ndim == 1:
            rows.append(x.copy())
        return inner(x)

    stats = spectral.SolverStats()
    spectral._lanczos(matvec, spec.dim, RandomSeed(3, 1).generator(substream=1),
                      spectral._ground_and_gap(default_kernel_threshold(spec.n_terms)),
                      max_basis=400, stats=stats)
    assert stats.restarts == 0 and 0 < stats.full_passes < stats.iterations // 2
    q = np.array(rows)
    assert len(rows) == stats.iterations
    assert np.abs(q @ q.T - np.eye(len(rows))).max() <= 1e-10


def test_solve_holds_one_basis():
    # the basis is the one (cap, dim) array of a solve, and a restart forms its
    # kept rows in one (cap // 3, dim) block: the images H V are not stored
    spec = ChainSpec(3, 1, 8)
    matvec = hamiltonian_matvec(spec, random_projector(3, 1, master=90))
    thr = default_kernel_threshold(spec.n_terms)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        smallest_eig_above(matvec, spec.dim, thr, seed=RandomSeed(0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    cap = spectral._MAX_BASIS
    assert peak < 1.25 * (cap + cap // 3) * spec.dim * 8


def test_gap_report_reference_chain():
    rep = gap_report(ChainSpec(3, 1, 5), reference_projector(3, 1), method="dense")
    assert rep.frustration_free
    assert rep.ground_energy <= rep.kernel_threshold
    assert abs(rep.gap - 1.0) < 1e-8
    assert rep.kernel_dim > 0
    assert rep.method == "dense"


def test_gap_report_random_chain_is_gapped_ff():
    rep = gap_report(ChainSpec(2, 1, 6), random_projector(2, 1, master=65))
    assert rep.frustration_free
    assert rep.gap > rep.kernel_threshold


def test_gap_report_single_edge():
    rep = gap_report(ChainSpec(3, 2, 2), random_projector(3, 2, master=66))
    assert rep.frustration_free
    assert abs(rep.gap - 1.0) < 1e-10
    assert rep.kernel_dim == 7


def test_gap_report_tree_no_edges():
    spec, p = TreeSpec(3, 1, 2, 1), random_projector(3, 1, master=67)
    rep = gap_report(spec, p)
    assert rep.gap is None and rep.frustration_free and rep.ground_energy == 0.0
    assert rep.kernel_dim == rep.dim
    # the method is checked before the lattice is found to have no edges
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        gap_report(spec, p, method="bogus")


@pytest.mark.parametrize("method", ["dense", "iterative"])
def test_gap_report_no_level_above_the_floor(method):
    # H = I: every level is the ground, so there is no gap to report; the
    # iterative basis spans the 4 states and its Ritz values are exact
    rep = gap_report(ChainSpec(2, 4, 2), LocalProjector(2, 4, np.eye(4)), method=method)
    assert rep.ground_energy == pytest.approx(1.0, abs=1e-12)
    assert rep.gap is None and not rep.frustration_free and rep.kernel_dim == 0
    assert rep.method == method


@pytest.mark.parametrize(
    "spec,p",
    [pytest.param(spec, random_projector(spec.d, spec.r, master=68), id=str(spec)) for spec in
     [ChainSpec(3, r, L) for r in (1, 2) for L in range(3, 7)]
     + [ChainSpec(4, 2, L) for L in range(3, 6)]
     + [TreeSpec(3, 1, 2, 2), TreeSpec(3, 1, 3, 2), TreeSpec(4, 1, 3, 2)]
     + [ChainSpec(2, 2, 3)]]  # m = dim: assembled and solved as H, not frustration-free
    # a diagonal 0/1 P: H 1 sorted, equal to the sorted diagonal of H bit for bit, since
    # every diagonal sum is exact in whatever order the matvec adds its terms
    + [pytest.param(spec, reference_projector(3, 1), id=f"reference-{spec}")
       for spec in (ChainSpec(3, 1, 6), TreeSpec(3, 1, 3, 2))],
)
def test_dense_levels_match_the_hamiltonian(spec, p, monkeypatch):
    levels = spectral._dense_levels(spec, p)
    h = dense_hamiltonian(spec, p)
    if np.array_equal(p.matrix, np.diag(np.diagonal(p.matrix))):
        assert np.array_equal(levels, np.sort(np.diagonal(h)))
    exact = dense_spectrum(h)
    thr = default_kernel_threshold(spec.n_terms)
    assert np.searchsorted(levels, thr, side="right") == np.searchsorted(exact, thr, side="right")
    assert np.abs(levels - exact).max() < 1e-12
    rep = gap_report(spec, p, method="dense")
    monkeypatch.setattr(spectral, "_dense_levels",
                        lambda spec, p: dense_spectrum(dense_hamiltonian(spec, p)))
    ref = gap_report(spec, p, method="dense")
    assert (rep.kernel_dim, rep.frustration_free) == (ref.kernel_dim, ref.frustration_free)
    assert rep.frustration_free == (spec.d > 2)
    assert abs(rep.ground_energy - ref.ground_energy) < 1e-12
    assert abs(rep.gap - ref.gap) < 1e-12


def test_dense_gap_report_refuses_above_dense_limit():
    # d=4, L=8 would take the Gram route (m = 28672 < dim = 65536), d=2 L=15
    # the Hamiltonian route, the diagonal reference P at d=3 L=10 the sorted
    # H 1; all break the memory budget with the matrix of order min(m, dim)
    # and LAPACK's copy of it
    for spec, p in ((ChainSpec(4, 1, 8), random_projector(4, 1, master=69)),
                    (ChainSpec(2, 1, 15), random_projector(2, 1, master=69)),
                    (ChainSpec(3, 1, 10), reference_projector(3, 1))):
        with pytest.raises(InvalidDimensionError, match="memory budget"):
            gap_report(spec, p, method="dense")


def test_dense_gap_report_solves_the_range_gram(monkeypatch):
    # d=3, r=1, L=6: one eigensolve of the 405 x 405 Gram matrix, H never formed
    shapes = []
    inner = spectral.dense_spectrum

    def counting(h, *args, **kwargs):
        shapes.append(h.shape)
        return inner(h, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("dense_hamiltonian called")

    monkeypatch.setattr(spectral, "dense_spectrum", counting)
    monkeypatch.setattr(spectral, "dense_hamiltonian", refuse)
    rep = gap_report(ChainSpec(3, 1, 6), random_projector(3, 1, master=71), method="dense")
    assert shapes == [(405, 405)]
    assert rep.frustration_free and rep.kernel_dim >= 729 - 405


def test_dense_gap_report_sorts_a_diagonal_hamiltonian(monkeypatch):
    # the reference projector is diagonal, so is H: its levels are H 1, sorted.
    # No LAPACK round, also at L=8 where the Gram matrix would be 5103 x 5103,
    # and no 6561 x 6561 H (344 MB)
    def refuse(*args, **kwargs):
        raise AssertionError("dense solve or assembly called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(spectral, "dense_hamiltonian", refuse)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        rep = gap_report(ChainSpec(3, 1, 8), reference_projector(3, 1), method="dense")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert rep.frustration_free and rep.gap == 1.0
    assert peak < 5e6


def _near_good(seed):
    """Near-reference rank-1 projector: on a 3-level binary tree its gap of
    1e-7 to 1e-4 sits just above a kernel of about 2000 states."""
    return projector_from_family(construct_near_good(3, 1, 1.0 / 18.0, seed))


@pytest.mark.parametrize(
    "spec,master",
    [(ChainSpec(2, 1, 8), 70), (ChainSpec(3, 1, 6), 71), (ChainSpec(3, 2, 6), 72),
     (TreeSpec(3, 1, 2, 3), 73)]
    + [pytest.param(TreeSpec(3, 1, 2, 3), RandomSeed(12000 + t, 0), id=f"near-good-{12000 + t}")
       for t in range(3)],
)
def test_iterative_and_dense_gap_agree(spec, master):
    if isinstance(master, RandomSeed):
        p, seed = _near_good(master), master
    else:
        p, seed = random_projector(spec.d, spec.r, master=master), RandomSeed(master, 1)
    dense = gap_report(spec, p, method="dense")
    iterative = gap_report(spec, p, method="iterative", seed=seed)
    assert abs(dense.gap - iterative.gap) < 1e-8
    assert abs(dense.ground_energy - iterative.ground_energy) < 1e-8
    assert dense.frustration_free == iterative.frustration_free


def test_iterative_gap_report_is_one_solve(monkeypatch):
    # ground and gap come from one random-start Krylov space
    calls = []
    inner = spectral._lanczos

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(spectral, "_lanczos", counting)
    spec = ChainSpec(3, 1, 6)
    p = random_projector(3, 1, master=71)
    rep = gap_report(spec, p, method="iterative", seed=RandomSeed(71, 1))
    assert len(calls) == 1
    dense = gap_report(spec, p, method="dense")
    assert abs(rep.gap - dense.gap) < 1e-8


def test_iterative_gap_report_solves_on_the_solver_plan(monkeypatch):
    # the 3-level binary tree's sibling blocks lie on adjacent sites of the
    # solver's order, so no step moves state axes
    plans, inner = [], model.tree_matvec

    def recording(P, k, L, x, *, plan=None):
        plans.append(plan)
        return inner(P, k, L, x, plan=plan)

    monkeypatch.setattr(model, "tree_matvec", recording)
    spec = TreeSpec(3, 1, 2, 3)
    p = _near_good(RandomSeed(12000, 0))
    rep = gap_report(spec, p, method="iterative", seed=RandomSeed(12000, 0))
    assert len(plans) >= rep.solver.iterations
    assert all(perm is None for plan in plans for *_, perm in plan[1])


def test_iterative_tiny_gap_above_a_huge_kernel():
    # the tree-krylov benchmark pool's smallest gap: 1.77e-7 above a kernel of
    # 946 states, resolved to the benchmark's tolerance
    spec = TreeSpec(3, 1, 2, 3)
    seed = RandomSeed(12173, 0)
    p = _near_good(seed)
    dense = gap_report(spec, p, method="dense")
    assert dense.kernel_dim == 946 and abs(dense.gap - 1.7705e-7) < 1e-11
    it = gap_report(spec, p, method="iterative", seed=seed)
    assert it.frustration_free and it.ground_energy <= it.kernel_threshold
    assert abs(it.gap - dense.gap) <= 2 * spectral.DEFAULT_RES_RTOL * spec.n_terms


def test_iterative_kernel_dim_resolution():
    p = random_projector(2, 1, master=74)
    spec = ChainSpec(2, 1, 8)
    lazy = gap_report(spec, p, method="iterative")
    assert lazy.kernel_dim is None


def test_kernel_dim_stable_under_threshold_scaling():
    cases = [
        (ChainSpec(3, 1, 5), reference_projector(3, 1)),
        (ChainSpec(2, 1, 6), random_projector(2, 1, master=75)),
        (TreeSpec(3, 1, 2, 3), random_projector(3, 1, master=76)),
    ]
    for spec, p in cases:
        thr = default_kernel_threshold(spec.n_terms)
        dims = {
            gap_report(spec, p, method="dense", kernel_threshold=t).kernel_dim
            for t in (thr / 10.0, thr, thr * 10.0)
        }
        assert len(dims) == 1


@pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (3, 2), (4, 4)])
def test_ff_consistency_for_admissible_ranks(d, r):
    for trial in range(3):
        p = random_projector(d, r, master=80, trial=trial)
        rep = gap_report(ChainSpec(d, r, 4), p, method="dense")
        assert rep.frustration_free


def test_non_ff_fallback_reports_level_spacing():
    # rank above the guarantee: generically no zero mode; the report flags it
    # and falls back to the spacing of the two lowest distinct levels
    p = random_projector(2, 2, master=81)
    spec = ChainSpec(2, 2, 4)
    rep = gap_report(spec, p, method="dense")
    if rep.frustration_free:
        pytest.skip("sampled interaction happened to be frustration-free")
    assert rep.kernel_dim == 0
    evals = dense_spectrum(dense_hamiltonian(spec, p))
    assert abs(rep.ground_energy - evals[0]) < 1e-12
    assert rep.gap > 0
    it = gap_report(spec, p, method="iterative")
    assert not it.frustration_free
    assert abs(it.ground_energy - rep.ground_energy) < 1e-8
    assert abs(it.gap - rep.gap) < 1e-7


@pytest.mark.parametrize("d,r,L", [(2, 2, 6), (2, 3, 8), (3, 5, 5), (4, 9, 4)])
def test_non_ff_gap_matches_dense(d, r, L):
    # above the frustration-free rank, the iterative gap is the distance from
    # the ground energy to the next distinct level, as on the dense path
    p = random_projector(d, r, master=81)
    spec = ChainSpec(d, r, L)
    dense = gap_report(spec, p, method="dense")
    it = gap_report(spec, p, method="iterative")
    assert not dense.frustration_free and not it.frustration_free
    assert it.kernel_dim == 0
    assert abs(it.ground_energy - dense.ground_energy) < 1e-8
    assert abs(it.gap - dense.gap) < 1e-8


def test_gap_report_deterministic_given_seed():
    p = random_projector(3, 1, master=82)
    spec = ChainSpec(3, 1, 6)
    a = gap_report(spec, p, method="iterative", seed=RandomSeed(1, 2))
    b = gap_report(spec, p, method="iterative", seed=RandomSeed(1, 2))
    assert a.gap == b.gap and a.ground_energy == b.ground_energy
    c = gap_report(spec, p, method="iterative", seed=RandomSeed(1, 3))
    assert abs(c.gap - a.gap) < 1e-8


def test_gap_report_solver_stats():
    p = random_projector(3, 1, master=83)
    spec = ChainSpec(3, 1, 7)
    a = gap_report(spec, p, method="iterative", seed=RandomSeed(4, 5))
    b = gap_report(spec, p, method="iterative", seed=RandomSeed(4, 5))
    stats = a.solver
    assert stats == b.solver
    assert stats.iterations > 0 and stats.matvec_columns > stats.iterations
    assert stats.restarts >= 1
    # the residual estimates schedule the checks: fewer than one per _RITZ_INTERVAL steps
    assert 0 < stats.ritz_checks < stats.iterations // spectral._RITZ_INTERVAL
    # the bound on lost orthogonality lets most steps skip the full Gram-Schmidt pass
    assert 0 < stats.full_passes < stats.iterations // 2
    # Ritz values lie in [0, ||H||] and ||H|| <= n_terms, which bounds the spectral scale
    assert 0.0 < stats.max_residual <= spectral.DEFAULT_RES_RTOL * spec.n_terms
    assert len(stats.residuals) == 2 and max(stats.residuals) == stats.max_residual
    dense = gap_report(spec, p, method="dense")
    assert dense.solver is None


@pytest.mark.parametrize(
    "spec,p",
    [(ChainSpec(3, 1, 6), random_projector(3, 1, master=71)),
     (TreeSpec(3, 1, 2, 3), _near_good(RandomSeed(909, 1)))],
    ids=["chain-haar", "tree-9b-near-good"],
)
def test_thick_restart_matches_dense(spec, p):
    # a cap of 24 forces restarts on these small spaces, for either target rule:
    # the lowest Ritz value, and gap_report's rule, whose last target is the gap level
    evals = dense_spectrum(dense_hamiltonian(spec, p))
    thr = default_kernel_threshold(spec.n_terms)
    matvec = hamiltonian_matvec(spec, p)
    rng = RandomSeed(7, 7).generator(substream=1)
    for targets, expected in (
            (lambda theta: np.array([0]), evals[0]),
            (spectral._ground_and_gap(thr), evals[np.searchsorted(evals, thr, "right")])):
        stats = spectral.SolverStats()
        theta = spectral._lanczos(matvec, spec.dim, rng, targets, max_basis=24, stats=stats)
        assert abs(theta[-1] - expected) < 1e-8
        assert stats.restarts >= 1


@pytest.mark.parametrize(
    "spec,p",
    [(TreeSpec(3, 1, 2, 3), _near_good(RandomSeed(909, 1))),
     (ChainSpec(3, 5, 5), random_projector(3, 5, master=81))],
    ids=["tree-9b-near-good", "chain-non-ff"],
)
def test_gap_report_targets_through_thick_restarts(spec, p):
    # the two targets of gap_report (ground, and the lowest level above its
    # floor) survive restarts that keep the ground Ritz vector
    dense = gap_report(spec, p, method="dense")
    thr = default_kernel_threshold(spec.n_terms)
    stats = spectral.SolverStats()
    theta = spectral._lanczos(hamiltonian_matvec(spec, p), spec.dim,
                              RandomSeed(7, 7).generator(substream=1),
                              spectral._ground_and_gap(thr), max_basis=24, stats=stats)
    assert stats.restarts >= 1
    ground, above = theta
    assert abs(ground - dense.ground_energy) < 1e-8
    gap = above if dense.frustration_free else above - ground
    assert abs(gap - dense.gap) < 1e-8


def test_restart_drops_repeated_kernel_copies():
    # chain-krylov benchmark pool block 279: a gap of 0.48 above a kernel of
    # 987 states.  A restart that kept every Ritz vector from the ground up
    # took one more copy of the kernel each time, until the kept window held
    # nothing else, and stalled at a 24-row basis.
    spec = ChainSpec(3, 1, 7)
    seed = RandomSeed(11279, 0)
    p = projector_from_family(sample_family(3, 1, seed))
    dense = gap_report(spec, p, method="dense")
    assert dense.frustration_free and dense.kernel_dim == 987
    thr = default_kernel_threshold(spec.n_terms)
    stats = spectral.SolverStats()
    ground, above = spectral._lanczos(hamiltonian_matvec(spec, p), spec.dim,
                                      seed.generator(substream=1), spectral._ground_and_gap(thr),
                                      max_basis=24, stats=stats)
    assert stats.restarts >= 1
    assert abs(ground - dense.ground_energy) < 1e-8
    assert abs(above - dense.gap) < 1e-8


@pytest.mark.parametrize(
    "spec,seed",
    [pytest.param(TreeSpec(3, 1, 2, 3), RandomSeed(12173, 0), id="tree-krylov-173"),
     pytest.param(ChainSpec(3, 1, 7), RandomSeed(11279, 0), id="chain-krylov-279")],
)
def test_hard_pool_inputs_at_the_default_cap(spec, seed):
    # the benchmark pools' hardest inputs, solved as gap_report solves them:
    # tree-krylov block 173 has a gap of 1.77e-7 above 946 kernel states and
    # took the most steps of its pool (624), chain-krylov block 279 a kernel
    # of 987 states
    if isinstance(spec, TreeSpec):
        p = _near_good(seed)
    else:
        p = projector_from_family(sample_family(3, 1, seed))
    dense = gap_report(spec, p, method="dense")
    iterative = gap_report(spec, p, method="iterative", seed=seed)
    assert abs(iterative.gap - dense.gap) < 1e-8
    assert abs(iterative.ground_energy - dense.ground_energy) < 1e-8
    assert iterative.solver.iterations < 1000  # max_iter is 3000
