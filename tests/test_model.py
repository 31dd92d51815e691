"""Projector construction, basis indexing, and matvec-vs-dense equivalence."""

import numpy as np
import pytest

import gapcert.model as model
from gapcert import (
    ChainSpec,
    InvalidDimensionError,
    InvalidRankError,
    LocalProjector,
    NotAProjectorError,
    OrthonormalFamily,
    TreeSpec,
    chain_matvec,
    dense_hamiltonian,
    hamiltonian_matvec,
    max_ff_rank,
    pair_flat_index,
    projector_from_family,
    range_gram,
    reference_projector,
    tree_edges,
    tree_matvec,
    tree_vertex_count,
)
from conftest import kron_chain_oracle, kron_edge_oracle, kron_tree_oracle, random_projector


def test_pair_flat_index():
    assert pair_flat_index(1, 1, 2) == 0
    assert pair_flat_index(1, 2, 3) == 1
    assert pair_flat_index(2, 2, 3) == 4
    with pytest.raises(InvalidDimensionError):
        pair_flat_index(0, 1, 2)


def test_tree_layout():
    assert tree_vertex_count(2, 1) == 1
    assert tree_vertex_count(2, 2) == 3
    assert tree_vertex_count(2, 3) == 7
    assert tree_vertex_count(3, 3) == 13
    assert tree_edges(2, 2) == [(0, 1), (0, 2)]
    assert tree_edges(2, 3) == [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]


def test_projector_from_canonical_family():
    vecs = np.eye(4)[:2]
    fam = OrthonormalFamily(d=2, r=2, vectors=vecs)
    p = projector_from_family(fam)
    assert np.array_equal(p.matrix, np.diag([1.0, 1.0, 0.0, 0.0]))


def test_projector_hand_outer_product():
    phi = np.array([[1.0, 1.0, 0.0, 0.0]]) / np.sqrt(2.0)
    p = projector_from_family(OrthonormalFamily(d=2, r=1, vectors=phi))
    expected = np.zeros((4, 4))
    expected[:2, :2] = 0.5
    assert np.abs(p.matrix - expected).max() < 1e-15


@pytest.mark.parametrize("d,r", [(2, 1), (3, 2), (3, 4)])
def test_projector_eigenvalues_are_zero_one(d, r):
    p = random_projector(d, r, master=5)
    evals = np.linalg.eigvalsh(p.matrix)
    assert np.abs(evals[-r:] - 1.0).max() < 1e-10
    assert np.abs(evals[: d * d - r]).max() < 1e-10
    assert abs(np.trace(p.matrix) - r) < 1e-10
    assert np.array_equal(p.matrix, p.matrix.T)


def test_projector_validation():
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0
    with pytest.raises(NotAProjectorError):
        LocalProjector(d=2, r=1, matrix=bad)
    with pytest.raises(NotAProjectorError):
        LocalProjector(d=2, r=1, matrix=0.5 * np.eye(4))
    with pytest.raises(NotAProjectorError):
        LocalProjector(d=2, r=2, matrix=np.diag([1.0, 0, 0, 0]))  # trace != r
    with pytest.raises(InvalidRankError, match="1 <= r <= d"):
        LocalProjector(d=3, r=0, matrix=np.zeros((9, 9)))  # the zero matrix is a projector


def test_reference_projector_layout():
    p = reference_projector(3, 1)
    assert np.array_equal(np.diagonal(p.matrix), [0, 1, 0, 0, 0, 0, 0, 0, 0])
    p2 = reference_projector(3, 2)
    assert np.array_equal(np.diagonal(p2.matrix), [0, 1, 1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(InvalidRankError):
        reference_projector(3, 3)


@pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (3, 2), (4, 3)])
def test_reference_translates_are_orthogonal(d, r):
    # adjacent translates clash on the middle site label, so their product vanishes
    p = reference_projector(d, r).matrix
    eye = np.eye(d)
    p12 = np.kron(p, eye)
    p23 = np.kron(eye, p)
    assert np.abs(p12 @ p23).max() == 0.0


def test_chain_matvec_two_sites_equals_projector():
    p = random_projector(3, 2, master=1)
    x = np.random.default_rng(0).standard_normal(9)
    assert np.allclose(chain_matvec(p, 2, x), p.matrix @ x, atol=1e-14)


def test_chain_matvec_reference_kernel_vector():
    p = reference_projector(3, 1)
    x = np.zeros(3**5)
    x[0] = 1.0  # the configuration (1, 1, 1, 1, 1)
    assert np.abs(chain_matvec(p, 5, x)).max() == 0.0


def test_chain_matvec_dimension_mismatch():
    p = random_projector(2, 1, master=2)
    with pytest.raises(InvalidDimensionError):
        chain_matvec(p, 3, np.zeros(7))


def test_chain_matvec_vs_kron_oracle():
    p = random_projector(2, 1, master=3)
    h = kron_chain_oracle(p.matrix, 2, 4)
    x = np.random.default_rng(4).standard_normal(16)
    assert np.abs(chain_matvec(p, 4, x) - h @ x).max() < 1e-12
    assert np.abs(dense_hamiltonian(ChainSpec(2, 1, 4), p) - h).max() < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_chain_matvec_vector_vs_kron_oracle(d):
    # a vector's last bond is one 2-D product, the other bonds batched products
    p = random_projector(d, 1, master=20 + d)
    L = 5 if d < 4 else 4
    h = kron_chain_oracle(p.matrix, d, L)
    x = np.random.default_rng(d).standard_normal(d**L)
    y = chain_matvec(p, L, x)
    assert y.shape == x.shape
    assert np.abs(y - h @ x).max() < 1e-12
    assert np.abs(chain_matvec(p, L, np.column_stack([x, -x]))[:, 0] - y).max() < 1e-14


@pytest.mark.parametrize("d,r,L", [(2, 1, 6), (2, 1, 12), (3, 2, 5), (3, 1, 7), (4, 3, 5)])
def test_chain_matvec_vs_dense_assembly(d, r, L):
    p = random_projector(d, r, master=10 + L)
    spec = ChainSpec(d, r, L)
    h = dense_hamiltonian(spec, p)
    assert np.array_equal(h, h.T)  # gap_report skips the symmetry check on it
    x = np.random.default_rng(L).standard_normal(spec.dim)
    assert np.abs(chain_matvec(p, L, x) - h @ x).max() < 1e-12
    # block application agrees with per-column application
    xb = np.random.default_rng(L + 1).standard_normal((spec.dim, 3))
    yb = chain_matvec(p, L, xb)
    for col in range(3):
        assert np.abs(yb[:, col] - chain_matvec(p, L, xb[:, col])).max() < 1e-14


@pytest.mark.parametrize("d,k,L", [(2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 3, 2)])
def test_tree_matvec_vs_elementary_oracle(d, k, L):
    p = random_projector(d, 1, master=20 + d + k + L)
    h = kron_tree_oracle(p.matrix, d, k, L)
    spec = TreeSpec(d, 1, k, L)
    x = np.random.default_rng(6).standard_normal(spec.dim)
    assert np.abs(tree_matvec(p, k, L, x) - h @ x).max() < 1e-12
    assert np.abs(dense_hamiltonian(spec, p) - h).max() < 1e-12
    # block application agrees with the oracle column by column
    xb = np.random.default_rng(7).standard_normal((spec.dim, 3))
    yb = tree_matvec(p, k, L, xb)
    for col in range(3):
        assert np.abs(yb[:, col] - h @ xb[:, col]).max() < 1e-12


def test_tree_matvec_two_edges_is_sum_of_pair_terms():
    # 3 vertices: H x = P_{01} x + P_{02} x with the parent on the first factor
    d, k, L = 3, 2, 2
    p = random_projector(d, 1, master=33)
    eye = np.eye(d)
    h01 = np.kron(p.matrix, eye)
    pt = p.matrix.reshape(d, d, d, d)
    h02 = np.einsum("abce,ij->aibcje", pt, eye).reshape(27, 27)
    x = np.random.default_rng(7).standard_normal(27)
    assert np.abs(tree_matvec(p, k, L, x) - (h01 + h02) @ x).max() < 1e-12


def test_tree_matvec_vs_dense_at_scale():
    # three-level binary tree on qutrits: the largest in-suite tree dimension
    p = random_projector(3, 1, master=29)
    spec = TreeSpec(3, 1, 2, 3)
    h = dense_hamiltonian(spec, p)
    assert np.abs(h - h.T).max() == 0.0
    x = np.random.default_rng(9).standard_normal(spec.dim)
    assert np.abs(tree_matvec(p, 2, 3, x) - h @ x).max() < 1e-12


def test_tree_matvec_single_vertex_is_zero():
    p = random_projector(2, 1, master=8)
    x = np.random.default_rng(8).standard_normal(2)
    assert np.array_equal(tree_matvec(p, 2, 1, x), np.zeros(2))


def test_tree_reference_kernel_vector():
    p = reference_projector(3, 1)
    dim = 3**7
    x = np.zeros(dim)
    x[0] = 1.0  # all-sites-label-1 configuration
    assert np.abs(tree_matvec(p, 2, 3, x)).max() == 0.0


def test_tree_matvec_dimension_checks():
    p = random_projector(2, 1, master=9)
    with pytest.raises(InvalidDimensionError):
        tree_matvec(p, 2, 2, np.zeros(9))
    with pytest.raises(InvalidDimensionError):
        TreeSpec(3, 1, 2, 20)  # d^V far beyond any feasible state vector


def _site_axes_oracle(p_matrix, d, sites, edges, x):
    """H x edge by edge: P contracted with the two site axes of x by einsum."""
    t = x.reshape((d,) * sites + (-1,))
    pt = p_matrix.reshape(d, d, d, d)
    y = np.zeros(t.shape)
    for a, b in edges:
        moved = np.einsum("ijkl,kl...->ij...", pt, np.moveaxis(t, (a, b), (0, 1)))
        y += np.moveaxis(moved, (0, 1), (a, b))
    return y.reshape(x.shape)


def _block_sizes(p, sites, edges):
    """Matrix dimension of each block of the matvec's plan, in order."""
    return [M.shape[0] for M, _, _, _ in model._edge_plan(p, sites, edges)[1]]


@pytest.mark.parametrize("d,L", [(2, 2), (2, 5), (2, 6), (3, 2), (3, 4), (3, 5), (4, 3), (4, 4)])
def test_paired_chain_matvec_vs_kron_oracle(d, L):
    # bonds (j, j+1), (j+1, j+2) form one block; an odd bond count leaves the last alone
    p = random_projector(d, 1, master=50 + 10 * d + L)
    pairs, single = divmod(L - 1, 2)
    assert _block_sizes(p, L, ChainSpec(d, 1, L).edges) == [d**3] * pairs + [d**2] * single
    h = kron_chain_oracle(p.matrix, d, L)
    gen = np.random.default_rng(L)
    for x in (gen.standard_normal(d**L), gen.standard_normal((d**L, 3))):
        y = chain_matvec(p, L, x)
        assert y.shape == x.shape
        assert np.abs(y - h @ x).max() < 1e-12


@pytest.mark.parametrize("d,k,L,pattern", [
    (2, 2, 3, [3, 3, 3]), (3, 2, 3, [3, 3, 3]), (4, 2, 2, [3]), (3, 3, 2, [3, 2]),
    # (0, 3) and (1, 4) share no site: each edge (v, 3v + 3) stays alone
    (2, 3, 3, [3, 2] * 4), (2, 2, 1, []),
])
def test_paired_tree_matvec_vs_site_axes_oracle(d, k, L, pattern):
    # sibling edges (v, c1), (v, c2) form one block; blocks are d^3 or d^2 square
    p = random_projector(d, 1, master=60 + d + k + L)
    spec = TreeSpec(d, 1, k, L)
    assert _block_sizes(p, spec.sites, spec.edges) == [d**n for n in pattern]
    gen = np.random.default_rng(k + L)
    for x in (gen.standard_normal(spec.dim), gen.standard_normal((spec.dim, 3))):
        y = tree_matvec(p, k, L, x)
        assert y.shape == x.shape
        assert np.abs(y - _site_axes_oracle(p.matrix, d, spec.sites, spec.edges, x)).max() < 1e-12


_PLANNED = [ChainSpec(2, 1, 7), ChainSpec(3, 1, 6), ChainSpec(5, 1, 4), TreeSpec(3, 1, 2, 3),
            TreeSpec(2, 1, 3, 3), TreeSpec(5, 1, 2, 3)]


@pytest.mark.parametrize("spec", _PLANNED, ids=str)
def test_planned_closure_equals_the_public_call(spec):
    # hamiltonian_matvec plans the blocks once; the public call plans them per call
    p = random_projector(spec.d, spec.r, master=70)
    mv = hamiltonian_matvec(spec, p)
    gen = np.random.default_rng(71)
    for x in (gen.standard_normal(spec.dim), gen.standard_normal((spec.dim, 2))):
        if isinstance(spec, ChainSpec):
            public = chain_matvec(p, spec.L, x)
        else:
            public = tree_matvec(p, spec.k, spec.L, x)
        assert np.array_equal(mv(x), public)


@pytest.mark.parametrize("spec", [s for s in _PLANNED if s.d == 5] + [TreeSpec(5, 1, 3, 2)],
                         ids=str)
def test_matvec_above_d4_adds_edge_by_edge(spec):
    # for d >= 5 every block is one edge, added in edge order
    p = random_projector(5, 1, master=72)
    assert _block_sizes(p, spec.sites, spec.edges) == [25] * spec.n_terms
    gen = np.random.default_rng(73)
    for x in (gen.standard_normal(spec.dim), gen.standard_normal((spec.dim, 2))):
        expected = np.zeros(x.shape)
        for edge in spec.edges:
            expected += model._edge_matvec(model._edge_plan(p, spec.sites, [edge]), x)
        assert np.array_equal(hamiltonian_matvec(spec, p)(x), expected)


def _swap(d):
    """SWAP on the pair basis: |i, j> to |j, i>."""
    return np.eye(d * d)[np.arange(d * d).reshape(d, d).T.ravel()]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("sites, edges", [
    # one reversed edge: the last sites, adjacent inside, apart
    (2, [(1, 0)]), (3, [(1, 0)]), (4, [(3, 1)]),
    # a pair with one or both edges reversed, on adjacent sites or apart
    (3, [(1, 0), (1, 2)]), (3, [(2, 0), (2, 1)]), (4, [(0, 3), (2, 0)]),
], ids=str)
def test_reversed_edges_vs_kron_oracle(d, sites, edges):
    # an edge (b, a) with a < b puts P's first factor on b: SWAP P SWAP on (a, b)
    p = random_projector(d, 1, master=80 + d)
    swapped = _swap(d) @ p.matrix @ _swap(d)
    h = sum(kron_edge_oracle(p.matrix, d, sites, a, b) if a < b
            else kron_edge_oracle(swapped, d, sites, b, a) for a, b in edges)
    assert np.abs(model._edge_dense(p, sites, edges) - h).max() < 1e-12
    paired = d <= model._PAIR_MAX_D and len(edges) == 2
    assert _block_sizes(p, sites, edges) == ([d**3] if paired else [d**2] * len(edges))
    plan = model._edge_plan(p, sites, edges)
    gen = np.random.default_rng(d + sites)
    for x in (gen.standard_normal(d**sites), gen.standard_normal((d**sites, 3))):
        y = model._edge_matvec(plan, x)
        assert y.shape == x.shape
        assert np.abs(y - h @ x).max() < 1e-12


def _adjacent_blocks(plan):
    """Number of blocks of a plan whose sites are adjacent (no axis moves)."""
    return sum(perm is None for *_, perm in plan[1])


_ORDERED = [TreeSpec(d, 1, k, L) for d in (2, 3, 4) for k, L in ((2, 2), (2, 3), (3, 2))]


@pytest.mark.parametrize("spec", _ORDERED + [TreeSpec(2, 1, 2, 4)], ids=str)
def test_solver_plan_is_the_hamiltonian_on_relabeled_sites(spec):
    p = random_projector(spec.d, 1, master=90 + spec.d)
    order = model._site_order(spec.d, spec.sites, spec.edges)
    assert sorted(order) == list(range(spec.sites))
    plan = model._solver_plan(spec, p)
    own = model._edge_plan(p, spec.sites, spec.edges)
    assert _adjacent_blocks(plan) >= _adjacent_blocks(own)
    # place i of the solver's state is site order[i]: a permutation of the axes
    axes = (*order, spec.sites)

    def relabel(x):
        return x.reshape((spec.d,) * spec.sites + (-1,)).transpose(axes).reshape(x.shape)

    x = np.random.default_rng(91).standard_normal((spec.dim, 2))
    y = model._edge_matvec(plan, relabel(x))
    assert np.abs(y - relabel(hamiltonian_matvec(spec, p)(x))).max() < 1e-12
    if spec.dim <= 3**7:  # np.eye takes 2 GB at 4^7 and 8 GB at 2^15
        h = model._edge_matvec(plan, np.eye(spec.dim))
        levels = np.linalg.eigvalsh(dense_hamiltonian(spec, p))
        assert np.abs(np.linalg.eigvalsh(h) - levels).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_solver_plan_of_the_binary_tree_has_only_adjacent_blocks(d):
    # blocks {1, 3, 4}, {0, 1, 2}, {2, 5, 6} laid end to end
    spec = TreeSpec(d, 1, 2, 3)
    assert model._site_order(d, spec.sites, spec.edges) == [3, 4, 1, 0, 2, 5, 6]
    plan = model._solver_plan(spec, random_projector(d, 1, master=92))
    assert _adjacent_blocks(plan) == len(plan[1]) == 3


def test_site_order_comes_from_the_edge_list():
    # blocks {0, 1, 2}, {0, 3}: a path; a star of three single edges is not one
    assert model._site_order(3, 4, [(0, 1), (0, 2), (0, 3)]) == [1, 2, 0, 3]
    assert model._site_order(5, 4, [(0, 1), (0, 2), (0, 3)]) == [0, 1, 2, 3]
    # the edges in another order pair otherwise: blocks {0, 1, 3}, {0, 2}
    assert model._site_order(3, 4, [(0, 3), (0, 1), (0, 2)]) == [1, 3, 0, 2]
    # blocks sharing two sites, or missing a site, keep the lattice's order
    assert model._site_order(3, 3, [(0, 1), (1, 2), (0, 2)]) == [0, 1, 2]
    assert model._site_order(3, 4, [(0, 1), (1, 2)]) == [0, 1, 2, 3]
    assert model._site_order(3, 1, []) == [0]


@pytest.mark.parametrize("spec", [ChainSpec(2, 1, 7), ChainSpec(3, 1, 6), ChainSpec(4, 1, 5),
                                  ChainSpec(5, 1, 4), ChainSpec(3, 1, 2)], ids=str)
def test_chain_solver_plan_is_the_hamiltonian_plan(spec):
    p = random_projector(spec.d, 1, master=93)
    assert model._site_order(spec.d, spec.sites, spec.edges) == list(range(spec.L))
    solver, own = model._solver_plan(spec, p), model._edge_plan(p, spec.sites, spec.edges)
    assert solver[0] == own[0] and len(solver[1]) == len(own[1])
    for (M, MT, shape, perm), (M0, MT0, shape0, perm0) in zip(solver[1], own[1]):
        assert np.array_equal(M, M0) and np.array_equal(MT, MT0)
        assert (shape, perm) == (shape0, perm0)


def _edge_factor_oracle(phi, sites, a, b):
    """Phi on sites a < b times the identity elsewhere, one column per range
    index k and configuration y of the other sites (k major, y in site order),
    each column set entry by entry."""
    r, d = phi.shape[:2]
    others = [s for s in range(sites) if s not in (a, b)]
    cols = []
    for k in range(r):
        for y in np.ndindex(*(d,) * len(others)):
            x = np.zeros((d,) * sites)
            index = [slice(None)] * sites
            for s, label in zip(others, y):
                index[s] = label
            x[tuple(index)] = phi[k]
            cols.append(x.ravel())
    return np.array(cols).T


@pytest.mark.parametrize(
    "spec",
    [ChainSpec(3, 1, 4), ChainSpec(2, 2, 4), TreeSpec(2, 1, 2, 3), TreeSpec(2, 1, 3, 2)],
)
def test_range_gram_is_gram_of_edge_factors(spec):
    # H = B B^T, and range_gram fills the lower triangle of B^T B
    p = random_projector(spec.d, spec.r, master=45)
    phi = model._range_factor(p)
    b = np.hstack([_edge_factor_oracle(phi, spec.sites, a, c) for a, c in spec.edges])
    assert b.shape[1] == spec.n_terms * spec.r * spec.d ** (spec.sites - 2)
    assert np.abs(b @ b.T - dense_hamiltonian(spec, p)).max() < 1e-14
    g = range_gram(spec, p)
    assert np.abs(g - np.tril(b.T @ b)).max() < 1e-14
    with pytest.raises(InvalidDimensionError):
        range_gram(spec, random_projector(spec.d + 1, 1, master=45))


@pytest.mark.parametrize(
    "spec",
    [ChainSpec(2, 1, 8), ChainSpec(3, 2, 5), TreeSpec(3, 1, 2, 3)],
)
def test_hamiltonian_symmetry_and_positivity(spec):
    p = random_projector(spec.d, spec.r, master=40)
    gen = np.random.default_rng(11)
    mv = hamiltonian_matvec(spec, p)
    for _ in range(5):
        x = gen.standard_normal(spec.dim)
        y = gen.standard_normal(spec.dim)
        assert abs(y @ mv(x) - mv(y) @ x) < 1e-10
        xu = x / np.linalg.norm(x)
        assert xu @ mv(xu) >= -1e-10


def test_max_ff_rank_values():
    assert max_ff_rank(2, "chain") == 1
    assert max_ff_rank(3, "chain") == 2
    assert max_ff_rank(4, "chain") == 4
    assert max_ff_rank(5, "chain") == 6
    assert max_ff_rank(3, "tree", 2) == 1
    assert max_ff_rank(4, "tree", 2) == 1
    assert max_ff_rank(5, "tree", 2) == 2
    assert max_ff_rank(9, "tree", 3) == 2
    with pytest.raises(ValueError):
        max_ff_rank(3, "honeycomb")


def test_spec_invariants():
    spec = ChainSpec(3, 2, 4)
    assert spec.dim == 81 and spec.n_terms == 3
    with pytest.raises(InvalidDimensionError):
        ChainSpec(2, 1, 1)
    tree = TreeSpec(3, 1, 2, 3)
    assert tree.sites == 7 and tree.n_terms == 6


def test_projector_json_roundtrip_is_exact():
    p = random_projector(3, 2, master=55)
    q = LocalProjector.from_json(p.to_json())
    assert q.d == p.d and q.r == p.r
    assert np.array_equal(q.matrix, p.matrix)
