"""Meet, coupling norm, finite-size bounds, near-good construction, soundness."""

import json
import math

import numpy as np
import pytest

from gapcert import (
    Certificate,
    ChainSpec,
    DomainError,
    TreeSpec,
    InvalidRankError,
    LocalProjector,
    NotAProjectorError,
    RandomSeed,
    certified_gap_level,
    certify,
    chain_bound,
    construct_near_good,
    coupling_norm,
    default_kernel_threshold,
    dense_spectrum,
    fnw_defect,
    gap_report,
    local_gap,
    max_ff_rank,
    meet,
    meet_von_neumann,
    projector_from_family,
    reference_distance,
    reference_projector,
    sample_family,
    tree_bound,
)
from gapcert import certificate
from gapcert.harness import load_config, run_certify_one
from conftest import kron_edge_oracle, random_projector, random_projector_matrix


def _pair(master, trial=0, dim=None, ranks=None):
    gen = np.random.default_rng((master, trial))
    dim = dim or int(gen.integers(4, 28))
    r1, r2 = ranks or (int(gen.integers(1, dim)), int(gen.integers(1, dim)))
    q1 = random_projector_matrix(dim, r1, master, 2 * trial)
    q2 = random_projector_matrix(dim, r2, master, 2 * trial + 1)
    return q1, q2


def test_meet_of_identical_projectors():
    q = random_projector_matrix(6, 2, master=90)
    assert np.abs(meet(q, q) - q).max() < 1e-10


def test_meet_of_orthogonal_ranges_is_zero():
    q1 = np.diag([1.0, 0.0, 0.0])
    q2 = np.diag([0.0, 1.0, 0.0])
    assert np.abs(meet(q1, q2)).max() == 0.0


def test_meet_line_pair_at_45_degrees():
    q1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    q2 = np.full((2, 2), 0.5)
    assert np.abs(meet(q1, q2)).max() == 0.0
    assert abs(np.linalg.norm(q1 @ q2, 2) - math.cos(math.pi / 4.0)) < 1e-12


def test_meet_rejects_non_projectors():
    with pytest.raises(NotAProjectorError):
        meet(np.eye(3) * 0.5, np.eye(3))
    with pytest.raises(NotAProjectorError):
        meet(np.eye(3), np.eye(4))


def test_meet_idempotent_and_absorbing():
    for trial in range(20):
        q1, q2 = _pair(91, trial)
        m = meet(q1, q2)
        assert np.abs(m @ m - m).max() < 1e-10
        assert np.abs(q1 @ m - m).max() < 1e-10
        assert np.abs(q2 @ m - m).max() < 1e-10


def test_meet_matches_von_neumann_iteration():
    for trial in range(30):
        q1, q2 = _pair(92, trial)
        m_eig = meet(q1, q2)
        m_vn = meet_von_neumann(q1, q2)
        assert np.linalg.norm(m_eig - m_vn, 2) < 1e-8


def test_meet_with_guaranteed_intersection():
    # force a common range vector by sharing a column
    o = random_projector_matrix(8, 8, master=93)  # orthogonal-ish; use eigvectors
    w, u = np.linalg.eigh(o)
    v_shared, v1, v2 = u[:, 0], u[:, 1], u[:, 2]
    q1 = np.outer(v_shared, v_shared) + np.outer(v1, v1)
    q2 = np.outer(v_shared, v_shared) + np.outer(v2, v2)
    m = meet(q1, q2)
    assert abs(np.trace(m) - 1.0) < 1e-9
    assert np.abs(m @ v_shared - v_shared).max() < 1e-9
    assert np.linalg.norm(m - meet_von_neumann(q1, q2), 2) < 1e-8


def test_coupling_norm_reference_is_zero():
    assert coupling_norm(reference_projector(3, 1)) < 1e-12
    assert coupling_norm(reference_projector(4, 2)) < 1e-12
    # Q1 = Q2 = identity: every eigenvalue of the sum is 2, none is left for c
    full = LocalProjector(2, 4, np.eye(4))
    assert coupling_norm(full) == 0.0 and local_gap(full) == 2.0


@pytest.mark.parametrize("d,r,eps", [(3, 1, 0.05), (3, 2, 0.03), (4, 1, 0.1)])
def test_coupling_norm_near_good_is_small(d, r, eps):
    fam = construct_near_good(d, r, eps, RandomSeed(94, d))
    p = projector_from_family(fam)
    assert coupling_norm(p) < 4.0 * r * eps


def test_coupling_norm_triangle_inequality():
    for trial in range(5):
        p = random_projector(3, 1, master=95, trial=trial)
        eye = np.eye(3)
        p12, p23 = np.kron(p.matrix, eye), np.kron(eye, p.matrix)
        m = meet(p12, p23)
        c = coupling_norm(p)
        assert c <= np.linalg.norm(p12 @ p23, 2) + np.linalg.norm(m, 2) + 1e-12


def _kron_terms(P, geometry):
    """The two edge terms as Kronecker products (test oracle): P on sites (0, 1)
    and (1, 2), or (0, 1) and (0, 2) as the (0, 2, 1) site permutation of the first."""
    d, eye = P.d, np.eye(P.d)
    p01 = np.kron(P.matrix, eye)
    if geometry == "path":
        return p01, np.kron(eye, P.matrix)
    swap = np.arange(d**3).reshape(d, d, d).transpose(0, 2, 1).ravel()
    return p01, p01[np.ix_(swap, swap)]


@pytest.fixture
def built_terms(monkeypatch):
    """Every edge-term sum the certificate assembles, in order."""
    built, real = [], certificate._edge_dense

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(certificate, "_edge_dense", spy)
    return built


@pytest.mark.parametrize("geometry", ["path", "sibling"])
@pytest.mark.parametrize("d,r,master", [(3, 1, 110), (3, 2, 111), (4, 3, 112), (2, 1, 113)])
def test_overlap_terms_equal_the_kron_construction(built_terms, geometry, d, r, master):
    for p in (random_projector(d, r, master), reference_projector(d, 1)):
        built_terms.clear()
        coupling_norm(p, geometry=geometry)
        # Q1 + Q2 in one assembly, every entry the sum of the two terms
        q1, q2 = _kron_terms(p, geometry)
        assert len(built_terms) == 1
        assert np.array_equal(built_terms[0], q1 + q2)
        # exactly symmetric, so the overlap solve skips the symmetry scan
        assert np.array_equal(built_terms[0], built_terms[0].T)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_certify_one_bytes_are_those_of_kron_terms(d, monkeypatch):
    # the certificate's edge terms come from _edge_dense, which the matvec's
    # oriented edges share; its output is that of the same terms built as
    # Kronecker products, entry for entry
    cfg = load_config({"mode": "certify-one", "d": d, "r": 1, "master_seed": 115 + d})
    text = run_certify_one(cfg).render()

    def kron_terms(P, sites, edges):
        return sum(kron_edge_oracle(P.matrix, P.d, sites, a, b) for a, b in edges)

    monkeypatch.setattr(certificate, "_edge_dense", kron_terms)
    assert run_certify_one(cfg).render() == text


def test_certify_builds_each_pair_once(built_terms):
    p = random_projector(3, 1, master=114)
    path, sibling = [sum(_kron_terms(p, "path"))], [sum(_kron_terms(p, "sibling"))]
    for k_list, want in (((), path), ((1,), path), ((1, 2, 3), path + sibling)):
        built_terms.clear()
        certify(p, k_list=k_list)
        assert len(built_terms) == len(want)
        assert all(np.array_equal(got, w) for got, w in zip(built_terms, want))


# Haar samples at every frustration-free rank, the reference projector (whose
# sibling meet has rank 1) and a near-good family, for d = 2..5
_ORACLE_PROJECTORS = {
    **{f"haar-{d}-{r}": random_projector(d, r, master=119, trial=10 * d + r)
       for d in range(2, 6) for r in range(1, max_ff_rank(d, "chain") + 1)},
    **{f"reference-{d}-1": reference_projector(d, 1) for d in range(2, 6)},
    **{f"near-good-{d}-1": projector_from_family(construct_near_good(d, 1, 0.1, RandomSeed(120, d)))
       for d in range(2, 6)},
}


@pytest.mark.parametrize("geometry", ["path", "sibling"])
@pytest.mark.parametrize("name", _ORACLE_PROJECTORS)
def test_one_spectrum_matches_the_three_factorizations(name, geometry):
    # the meet rank, coupling norm and local gap read from the spectrum of
    # Q1 + Q2 against the meet's eigenvectors, a 2-norm and the local gap of
    # the same spectrum
    p = _ORACLE_PROJECTORS[name]
    q1, q2 = _kron_terms(p, geometry)
    m = meet(q1, q2)
    evals = dense_spectrum(q1 + q2)
    want_gap = evals[evals > default_kernel_threshold(2)][0]
    cert = certify(p, k_list=(2,))
    if geometry == "path":
        rank, c, gap = cert.meet_rank, cert.coupling_norm, cert.gamma_loc
    else:
        rank = certificate._overlap(p, "sibling")[0]
        c, gap = cert.sibling_coupling_norm, cert.sibling_gamma_loc
    assert rank == round(float(np.trace(m)))
    assert abs(c - np.linalg.norm(q1 @ q2 - m, 2)) < 1e-13
    assert gap == want_gap
    if name.startswith("reference"):
        assert rank == (1 if geometry == "sibling" else 0)


@pytest.mark.parametrize("p", [random_projector(3, 1, 115), random_projector(3, 2, 116),
                               random_projector(4, 3, 117), reference_projector(3, 1)],
                         ids=["haar-3-1", "haar-3-2", "haar-4-3", "reference-3-1"])
def test_local_gap_is_the_gap_of_the_overlap_lattice(p):
    # the certificate's three-site data and the spectral module agree on the
    # 3-site chain and the 3-vertex star
    for geometry, spec in (("path", ChainSpec(p.d, p.r, 3)),
                           ("sibling", TreeSpec(p.d, p.r, 2, 2))):
        gap = gap_report(spec, p, method="dense").gap
        assert abs(local_gap(p, geometry=geometry) - gap) < 1e-12


def test_certify_refuses_ranks_above_the_chain_bound():
    # d=2, r=3 chains are frustrated: this sample's exact gaps are 0.290 (L=5)
    # and 0.298 (L=7), below the 0.428 a chain bound would print
    p = projector_from_family(sample_family(2, 3, RandomSeed(77, 265)))
    with pytest.raises(DomainError, match="frustration-free rank"):
        certify(p)
    assert certify(random_projector(2, 1, master=118)).d == 2  # r=1 is within the bound


def test_local_gap_reference_model():
    assert abs(local_gap(reference_projector(3, 1)) - 1.0) < 1e-10
    assert abs(local_gap(reference_projector(3, 2)) - 1.0) < 1e-10


def test_local_gap_dominates_coupling_bound():
    # Jordan's lemma: gamma_loc >= 1 - c, with equality when gamma_loc < 1
    for d, r in [(2, 1), (3, 1), (3, 2)]:
        for trial in range(8):
            p = random_projector(d, r, master=96, trial=trial)
            g, c = local_gap(p), coupling_norm(p)
            assert g >= 1.0 - c - 1e-8
            if g < 1.0:
                assert abs(g - (1.0 - c)) < 1e-13


def test_local_gap_degenerate_alignment_case():
    # family aligned with the pair state (1,1): both translates share weight on
    # the all-ones configuration; cross-check against an assembly done here
    from gapcert import OrthonormalFamily

    vecs = np.zeros((1, 4))
    vecs[0, 0] = 1.0
    p = projector_from_family(OrthonormalFamily(d=2, r=1, vectors=vecs))
    eye = np.eye(2)
    h = np.kron(p.matrix, eye) + np.kron(eye, p.matrix)
    evals = np.linalg.eigvalsh(h)
    expected = evals[evals > 2e-9][0]
    assert abs(local_gap(p) - expected) < 1e-10


def test_chain_bound_values():
    assert chain_bound(1.0) == 1.0
    assert chain_bound(1.3) == 1.0
    assert chain_bound(0.5) == 0.0
    assert abs(chain_bound(0.75) - 0.5) < 1e-15
    with pytest.raises(DomainError):
        chain_bound(-0.1)


def test_tree_bound_values():
    assert tree_bound(1.0, 2) == 1.0
    assert abs(tree_bound(0.75, 2)) < 1e-15
    assert abs(tree_bound(0.9, 2) - 0.6) < 1e-12
    with pytest.raises(DomainError):
        tree_bound(0.5, 0)


def test_tree_bound_at_k1_reproduces_chain_bound():
    for g in np.linspace(0.0, 1.2, 25):
        assert abs(tree_bound(float(g), 1) - chain_bound(float(g))) < 1e-15


def test_certify_reference_projector():
    cert = certify(reference_projector(3, 1), k_list=(2, 3))
    assert cert.coupling_norm < 1e-12
    assert abs(cert.gamma_loc - 1.0) < 1e-10
    assert cert.chain_bound == 1.0
    assert cert.verdict == "certified-gapped"
    assert cert.meet_rank == 0
    assert cert.tree_bounds[2] == 1.0 and cert.tree_bounds[3] == 1.0


def test_certify_near_good_meets_deterministic_level():
    # max distance 0.05 with r = 1 gives coupling norm < 0.2 and a certified
    # chain gap of at least 0.6
    fam = construct_near_good(3, 1, 0.05, RandomSeed(97, 0))
    cert = certify(projector_from_family(fam))
    assert cert.coupling_norm <= 0.2
    assert cert.chain_bound >= certified_gap_level(1, 0.05) - 1e-8
    assert cert.verdict == "certified-gapped"


def test_certify_tree_verdict_requires_smaller_coupling():
    fam = construct_near_good(3, 1, 1.0 / 18.0, RandomSeed(98, 0))
    cert = certify(projector_from_family(fam), k_list=(2,))
    # the path coupling is small enough for k = 2, but the sibling coupling of a
    # rank-1 interaction is sigma_max(A)^2 >= 1/d (see gapcert.certificate)
    assert cert.coupling_norm < 1.0 / 4.0
    assert cert.sibling_coupling_norm >= 1.0 / 3.0
    assert cert.tree_bounds[2] <= 0.0
    assert not cert.tree_certified(2)


def test_certify_sibling_geometry():
    # rank-1 range vector psi = sum A_ij e_i e_j: the sibling coupling norm is
    # sigma_max(A)^2, and the meet is zero unless A has rank 1
    p = random_projector(3, 1, master=105)
    psi = np.linalg.eigh(p.matrix)[1][:, -1]
    sigma = np.linalg.svd(psi.reshape(3, 3), compute_uv=False)
    assert abs(coupling_norm(p, geometry="sibling") - sigma[0] ** 2) < 1e-10
    assert abs(local_gap(p, geometry="sibling") - (1.0 - sigma[0] ** 2)) < 1e-10
    ref = certify(reference_projector(3, 1), k_list=(2,))
    assert ref.sibling_coupling_norm < 1e-12 and abs(ref.sibling_gamma_loc - 1.0) < 1e-10
    with pytest.raises(DomainError):
        coupling_norm(p, geometry="star")


def test_certify_k1_tree_bound_is_chain_bound():
    fam = construct_near_good(3, 1, 1.0 / 18.0, RandomSeed(909, 1))
    cert = certify(projector_from_family(fam), k_list=(1,))
    assert cert.tree_bounds[1] == cert.chain_bound > 0.0
    assert cert.sibling_coupling_norm is None and cert.sibling_gamma_loc is None
    cert2 = certify(projector_from_family(fam), k_list=(1, 2))
    assert cert2.tree_bounds[1] == cert.chain_bound
    assert cert2.tree_bounds[2] <= 0.0


@pytest.mark.parametrize("k,levels", [(2, 3), (3, 2)])
def test_tree_bound_soundness_small_sample(k, levels):
    # the printed tree bound must never exceed the exact tree gap
    spec = TreeSpec(3, 1, k, levels)
    families = [sample_family(3, 1, RandomSeed(106, t)) for t in range(2)]
    families += [construct_near_good(3, 1, 1.0 / 18.0, RandomSeed(107, t)) for t in range(2)]
    projectors = [projector_from_family(f) for f in families] + [reference_projector(3, 1)]
    for p in projectors:
        bound = certify(p, k_list=(k,)).tree_bounds[k]
        gap = gap_report(spec, p, method="dense").gap
        assert gap >= bound - 1e-8


def test_certificate_consistency_enforced():
    with pytest.raises(ValueError):
        Certificate(
            d=2, r=1, coupling_norm=0.1, gamma_loc=0.9, gamma_loc_lb=0.9, meet_rank=0,
            chain_bound=0.8, verdict="inconclusive",
        )
    with pytest.raises(ValueError):
        Certificate(
            d=2, r=1, coupling_norm=0.1, gamma_loc=0.5, gamma_loc_lb=0.9, meet_rank=0,
            chain_bound=0.8, verdict="certified-gapped",
        )


def test_certificate_json_serialization():
    p = random_projector(3, 1, master=99)
    cert = certify(p, k_list=(2,))
    obj = json.loads(cert.to_json())
    assert obj["d"] == 3 and obj["r"] == 1
    assert obj["seed"] == {"master_seed": 99, "stream_index": 0}
    assert "tolerances" in obj and "meet_eigtol" in obj["tolerances"]
    assert set(obj["tree_bounds"]) == {"2"}
    assert obj["sibling_coupling_norm"] == cert.sibling_coupling_norm
    assert obj["sibling_gamma_loc"] == cert.sibling_gamma_loc


@pytest.mark.parametrize("d,r,eps", [(3, 1, 0.05), (3, 2, 0.01), (4, 3, 0.02), (2, 1, 0.1)])
def test_construct_near_good_distances_and_gram(d, r, eps):
    fam = construct_near_good(d, r, eps, RandomSeed(100, d * 10 + r))
    assert reference_distance(fam) < eps
    assert fam.gram_error < 1e-12


def test_construct_near_good_projector_norm_perturbation():
    for d, r, eps in [(3, 1, 0.05), (3, 2, 0.02)]:
        fam = construct_near_good(d, r, eps, RandomSeed(101, r))
        p = projector_from_family(fam)
        ref = reference_projector(d, r)
        assert np.linalg.norm(p.matrix - ref.matrix, 2) <= 2.0 * r * eps + 1e-10


def test_construct_near_good_tiny_epsilon_recovers_reference():
    fam = construct_near_good(3, 1, 1e-9, RandomSeed(102, 0))
    p = projector_from_family(fam)
    assert np.abs(p.matrix - reference_projector(3, 1).matrix).max() < 1e-8


def test_construct_near_good_domain_errors():
    with pytest.raises(DomainError):
        construct_near_good(3, 1, 0.2, RandomSeed())  # >= 1/(8r)
    with pytest.raises(DomainError):
        construct_near_good(3, 1, 0.0, RandomSeed())
    with pytest.raises(InvalidRankError):
        construct_near_good(3, 3, 0.01, RandomSeed())


def test_fnw_defect_commuting_pair():
    q1 = np.diag([1.0, 1.0, 0.0, 0.0])
    q2 = np.diag([0.0, 1.0, 1.0, 0.0])
    assert fnw_defect(q1, q2) >= -1e-12


def test_fnw_defect_line_pair():
    q1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    q2 = np.full((2, 2), 0.5)
    assert fnw_defect(q1, q2) >= -1e-12


def test_fnw_defect_random_pairs():
    worst = 0.0
    for trial in range(60):
        q1, q2 = _pair(103, trial)
        worst = min(worst, fnw_defect(q1, q2))
    assert worst >= -1e-9


def test_finite_size_soundness_small_sample():
    # certified verdicts must be honored by exact diagonalization, and the raw
    # finite-size inequality must hold whenever the local gap is below one
    for trial in range(10):
        p = random_projector(2, 1, master=104, trial=trial)
        cert = certify(p)
        g6 = gap_report(ChainSpec(2, 1, 6), p, method="dense").gap
        if cert.gamma_loc <= 1.0:
            assert g6 >= 2.0 * (cert.gamma_loc - 0.5) - 1e-8
        if cert.verdict == "certified-gapped":
            for L in (4, 5):
                gl = gap_report(ChainSpec(2, 1, L), p, method="dense").gap
                assert gl >= cert.chain_bound - 1e-8
