"""Local projectors and chain/tree Hamiltonians with matrix-free matvec.

Both lattices are edge lists: a chain of L sites is the path graph with bonds
(j, j+1), a tree lists its (parent, child) edges, and one edge-list matvec,
one dense assembler of H and one assembler of the Gram matrix of the
interaction ranges (`range_gram`) serve both.

An edge (a, b) is oriented: P's first tensor factor acts on site a, the
second on site b, in either order of a and b.  The lattices list their edges
with a < b; a reversed edge (a > b) is the term SWAP P SWAP on (b, a).

The matvec applies H as a sequence of blocks, planned once per Hamiltonian by
`hamiltonian_matvec`.  For d <= 4, two consecutive edges that share a site
(the bonds (j, j+1), (j+1, j+2) of a chain, the sibling edges (v, c1),
(v, c2) of a tree) are one block: the d^3 x d^3 matrix of their summed terms,
applied in one product.  That is d^3 flops per state entry against 2 d^2 for
the two edges alone, but one pass over the state against two.  For d >= 5
the flops dominate, and every block is one edge.  A block on adjacent sites
is a product on plain reshapes of the state; any other block first copies its
sites to the front.  The eigensolver therefore applies H on a site order of
its own (`_site_order`, `_solver_plan`), one on which every block lies on
adjacent sites where a simple rule finds one, as for the sibling blocks of a
3-level binary tree; its edges keep their orientation and may come reversed.
The relabeling is a permutation similarity, so the spectrum is unchanged.

Basis convention (of every public routine in this package):

* pair basis: the product state with 1-based site labels (i, j) maps to the
  0-based flat index ``(i-1)*d + (j-1)`` (lexicographic);
* chain: a configuration (i_1, ..., i_L) maps to ``sum_s (i_s - 1) * d**(L-s)``,
  i.e. site 1 is the most significant digit, matching a C-order reshape of the
  state vector to shape (d,)*L with site s on axis s-1;
* tree: vertices are numbered breadth-first starting at 0 (the root); vertex v
  has children k*v + 1, ..., k*v + k; the state vector reshapes to (d,)*V with
  vertex v on axis v.  The root is level 1, so L levels hold
  (k**L - 1)/(k - 1) vertices.  On every edge the interaction's first tensor
  factor acts on the parent (smaller index), the second on the child; on a path
  this reproduces the chain convention.

`hamiltonian_matvec`, `dense_hamiltonian`, `range_gram` and the certificate
use these conventions; only the iterative solver's states are in its own site
order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidDimensionError, InvalidRankError, NotAProjectorError
from .haar import OrthonormalFamily, RandomSeed, _check_site_space

#: bytes one solve may hold: a lattice's state vector, a dense matrix and
#: LAPACK's copy of it, or the Lanczos basis and its restart block.  4 GiB is
#: half the memory of the 8 GB machine the benchmark figures come from
MEMORY_BUDGET = 2**32

#: largest entry of |Q - Q^T| and of |Q^2 - Q| in a matrix accepted as a projector
_PROJECTOR_TOL = 1e-10


def _require_bytes(nbytes: int, what: str):
    """Refuse, with an InvalidDimensionError, ``what`` needing more than
    MEMORY_BUDGET bytes; every route calls this before it allocates."""
    if nbytes > MEMORY_BUDGET:
        raise InvalidDimensionError(
            f"{what} needs at least {nbytes} bytes, above the memory budget of "
            f"{MEMORY_BUDGET} bytes")


def _check_projector(q, name: str) -> np.ndarray:
    """``q`` as a float array, refused with a NotAProjectorError unless it is a
    square matrix of finite entries that is symmetric and idempotent within
    _PROJECTOR_TOL."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise NotAProjectorError(f"{name} must be a square matrix, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise NotAProjectorError(f"{name} has a NaN or infinite entry")
    for prop, defect in (("symmetric", q - q.T), ("idempotent", q @ q - q)):
        worst = np.abs(defect).max()
        if worst > _PROJECTOR_TOL:
            raise NotAProjectorError(f"{name} is not {prop}: largest defect {worst:.3e}")
    return q


def pair_flat_index(i: int, j: int, d: int) -> int:
    """Flat index of the pair basis state with 1-based site labels (i, j)."""
    if not (1 <= i <= d and 1 <= j <= d):
        raise InvalidDimensionError(f"labels must lie in 1..{d}, got ({i}, {j})")
    return (i - 1) * d + (j - 1)


def tree_vertex_count(k: int, levels: int) -> int:
    """Number of vertices of the k-ary tree with the given number of levels."""
    if k < 2:
        raise InvalidDimensionError(f"branching factor must be >= 2, got {k}")
    if levels < 1:
        raise InvalidDimensionError(f"level count must be >= 1, got {levels}")
    return (k**levels - 1) // (k - 1)


def tree_edges(k: int, levels: int) -> list[tuple[int, int]]:
    """Directed (parent, child) edges of the k-ary tree in breadth-first order."""
    v_count = tree_vertex_count(k, levels)
    edges = []
    for v in range(v_count):
        for c in range(k * v + 1, k * v + k + 1):
            if c >= v_count:
                break
            edges.append((v, c))
    return edges


def max_ff_rank(d: int, lattice: str = "chain", k: int | None = None) -> int:
    """Largest interaction rank for which frustration-freeness is guaranteed.

    Chains admit r <= max(d-1, floor(d^2/4)); k-ary trees admit r < d/k.
    """
    _check_site_space(d)
    if lattice == "chain":
        return max(d - 1, d * d // 4)
    if lattice == "tree":
        if k is None or k < 2:
            raise InvalidDimensionError("tree lattice requires a branching factor k >= 2")
        return -(-d // k) - 1  # ceil(d/k) - 1: largest integer strictly below d/k
    raise ValueError(f"unknown lattice {lattice!r}")


def _require_ff_rank(d: int, r: int, lattice: str = "chain", k: int | None = None):
    """Refuse, with a DomainError, a rank above max_ff_rank(d, lattice, k)."""
    bound = max_ff_rank(d, lattice, k)
    if r > bound:
        where = f"d={d}, k={k} (a tree needs r < d/k)" if lattice == "tree" else f"d={d}"
        raise DomainError(f"r={r} exceeds the frustration-free rank bound {bound} for {where}")


@dataclass(frozen=True)
class LocalProjector:
    """Rank-r orthogonal projector on the two-site space, as a d^2 x d^2 matrix."""

    d: int
    r: int
    matrix: np.ndarray = field(repr=False)
    seed: RandomSeed | None = None

    def __post_init__(self):
        _check_site_space(self.d, self.r)
        d2 = self.d**2
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (d2, d2):
            raise InvalidDimensionError(f"expected a {d2} x {d2} matrix, got shape {m.shape}")
        _check_projector(m, "P")
        m = 0.5 * (m + m.T)  # exact symmetry
        tr = float(np.trace(m))
        if abs(tr - self.r) > _PROJECTOR_TOL * d2:
            raise NotAProjectorError(f"trace {tr!r} does not match rank {self.r}")
        object.__setattr__(self, "matrix", m)

    def to_json_obj(self) -> dict:
        """JSON object {d, r, matrix: row-major list of d^4 floats}."""
        return {"d": self.d, "r": self.r, "matrix": self.matrix.ravel().tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LocalProjector":
        d, r = obj["d"], obj["r"]
        for name, v in (("d", d), ("r", r)):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"'{name}' must be an integer, got {v!r}")
        m = np.asarray(obj["matrix"], dtype=float).reshape(d**2, d**2)
        return cls(d=d, r=r, matrix=m)

    @classmethod
    def from_json(cls, text: str) -> "LocalProjector":
        return cls.from_json_obj(json.loads(text))


def projector_from_family(family: OrthonormalFamily) -> LocalProjector:
    """Rank-r projector onto the span of the family, P = sum_i |phi_i><phi_i|."""
    v = family.vectors
    return LocalProjector(d=family.d, r=family.r, matrix=v.T @ v, seed=family.seed)


def _check_reference_rank(d: int, r: int):
    """The reference targets (1, 2), ..., (1, r+1) exist for 1 <= r < d."""
    if not (1 <= r < d):
        raise InvalidRankError(f"reference targets require 1 <= r < d, got r={r}, d={d}")


def reference_targets(d: int, r: int) -> np.ndarray:
    """Rows are the reference target vectors: the pair states (1, 2), ..., (1, r+1)."""
    _check_reference_rank(d, r)
    targets = np.zeros((r, d * d))
    for i in range(1, r + 1):
        targets[i - 1, pair_flat_index(1, i + 1, d)] = 1.0
    return targets


def reference_projector(d: int, r: int) -> LocalProjector:
    """Diagonal projector onto the reference targets (1, 2), ..., (1, r+1).

    These target states carry the label 1 on the first site and labels >= 2 on
    the second, so adjacent translates have orthogonal ranges: a middle site
    would need a label >= 2 for the left copy and the label 1 for the right one.
    """
    return LocalProjector(d=d, r=r, matrix=np.diag(reference_targets(d, r).sum(axis=0)))


def _path_edges(L: int) -> list[tuple[int, int]]:
    """Bonds (j, j+1) of the open L-site chain: the path graph on sites 0..L-1."""
    return [(j, j + 1) for j in range(L - 1)]


def _state_dim(d: int, sites: int) -> int:
    """d**sites, refused when a state vector of 8 d**sites bytes breaks MEMORY_BUDGET.

    For d >= 2, 8 d**MEMORY_BUDGET.bit_length() already exceeds the budget, so
    the capped exponent keeps the test exact without raising d to the vertex
    count of a deep tree.
    """
    _require_bytes(8 * d ** min(sites, MEMORY_BUDGET.bit_length()),
                   f"a state vector of d^{sites} entries with d={d}")
    return d**sites


class _Lattice:
    """Checks and sizes shared by lattices with fields d, r and properties
    ``sites`` and ``edges``: oriented pairs (a, b), P's first factor on a,
    which both lattices list with a < b."""

    def __post_init__(self):
        sites = self.sites  # a tree's vertex count checks k and L first
        _check_site_space(self.d, self.r)
        _state_dim(self.d, sites)

    @property
    def dim(self) -> int:
        return self.d**self.sites

    @property
    def n_terms(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ChainSpec(_Lattice):
    """Chain of L sites with open boundaries and one interaction per bond."""

    d: int
    r: int
    L: int

    def __post_init__(self):
        if self.L < 2:
            raise InvalidDimensionError(f"chain length must be >= 2, got {self.L}")
        super().__post_init__()

    @property
    def sites(self) -> int:
        return self.L

    @property
    def edges(self) -> list[tuple[int, int]]:
        return _path_edges(self.L)


@dataclass(frozen=True)
class TreeSpec(_Lattice):
    """k-ary tree with L levels (root = level 1) and one interaction per edge."""

    d: int
    r: int
    k: int
    L: int

    def __post_init__(self):
        # L levels hold at least L vertices, so this refuses a deep tree before
        # its vertex count, an integer of about L bits, is formed
        _state_dim(self.d, self.L)
        super().__post_init__()

    @property
    def sites(self) -> int:
        return tree_vertex_count(self.k, self.L)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return tree_edges(self.k, self.L)


def _check_projector_dim(P: LocalProjector, d: int):
    if P.d != d:
        raise InvalidDimensionError(f"projector has d={P.d} but the lattice has d={d}")


#: largest local dimension at which the matvec pairs edges that share a site:
#: up to d = 4 a pair's d^3 flops per state entry are at most twice the 2 d^2
#: of its two edges, for half the passes over the state
_PAIR_MAX_D = 4


def _edge_blocks(d: int, edges) -> list[list[tuple[int, int]]]:
    """The edges of each block of the plan, in order.

    For d <= _PAIR_MAX_D the edges are taken in their order and each one that
    shares a site with the next forms a block with it: a chain pairs bonds
    (j, j+1), (j+1, j+2), a breadth-first tree sibling edges (v, c1), (v, c2).
    Every other edge is a block of its own.
    """
    blocks, i = [], 0
    while i < len(edges):
        pair = d <= _PAIR_MAX_D and i + 1 < len(edges) and set(edges[i]) & set(edges[i + 1])
        n = 2 if pair else 1
        blocks.append(edges[i:i + n])
        i += n
    return blocks


def _edge_plan(P: LocalProjector, sites: int, edges) -> tuple[int, list[tuple]]:
    """The state dimension and the blocks `_edge_matvec` applies, in order.

    The blocks are the edge groups of `_edge_blocks`.  An edge (a, b) puts P's
    first tensor factor on site a, also when a > b.  A block is
    (M, MT, shape, perm): M is the sum of its terms on its sites in ascending
    order, P itself for one edge (a, b) with a < b and `_edge_dense` of its
    terms otherwise (a reversed edge (b, a) is SWAP P SWAP on (a, b)).  On
    adjacent sites MT is M^T in C order, ``shape`` is (left, M's dimension,
    rest) and ``perm`` is None; otherwise MT is None, ``shape`` puts each
    block site on an axis of its own and ``perm`` moves those axes to the
    front.
    """
    d = P.d
    dim = _state_dim(d, sites)
    blocks = []
    for group in _edge_blocks(d, edges):
        own = sorted(set().union(*group))
        local = [(own.index(a), own.index(b)) for a, b in group]
        M = P.matrix if local == [(0, 1)] else _edge_dense(P, len(own), local)
        if own[-1] - own[0] == len(own) - 1:
            shape = (d ** own[0], M.shape[0], d ** (sites - own[-1] - 1))
            blocks.append((M, np.ascontiguousarray(M.T), shape, None))
            continue
        shape, front, back, lo = [], [], [], 0
        for s in own:
            if s > lo:
                back.append(len(shape))
                shape.append(d ** (s - lo))
            front.append(len(shape))
            shape.append(d)
            lo = s + 1
        if lo < sites:
            back.append(len(shape))
            shape.append(d ** (sites - lo))
        blocks.append((M, None, tuple(shape), tuple(front + back)))
    return dim, blocks


def _site_order(d: int, sites: int, edges) -> list[int]:
    """A site order on which every block of `_edge_blocks` lies on adjacent sites.

    Entry i is the site that goes to place i.  When the blocks' overlap graph
    (two blocks meet when they share a site) is a path and each block shares
    exactly one site with the next, the blocks are laid end to end, starting
    from the end block that comes first in plan order: each block contributes
    its sites not shared with a neighbour in ascending order, then the site it
    shares with the next block, which the next block then starts with.  For
    the k=2, L=3 tree, blocks {0, 1, 2}, {1, 3, 4}, {2, 5, 6}, that is
    3, 4, 1, 0, 2, 5, 6.  Otherwise, or when the blocks miss a site, it is the
    lattice's own order 0, ..., sites-1, which a chain's blocks also give.
    """
    own = list(range(sites))
    blocks = [set().union(*group) for group in _edge_blocks(d, edges)]
    meets = [[j for j, other in enumerate(blocks) if j != i and block & other]
             for i, block in enumerate(blocks)]
    ends = [i for i, m in enumerate(meets) if len(m) <= 1]
    if not ends or any(len(m) > 2 for m in meets):
        return own
    walk = [ends[0]]
    while len(walk) < len(blocks):
        ahead = [j for j in meets[walk[-1]] if j not in walk]
        if len(ahead) != 1 or len(blocks[walk[-1]] & blocks[ahead[0]]) != 1:
            return own  # not connected, or two blocks share more than one site
        walk.append(ahead[0])
    order = []
    for t, i in enumerate(walk):
        before = blocks[walk[t - 1]] & blocks[i] if t else set()
        after = blocks[walk[t + 1]] & blocks[i] if t + 1 < len(walk) else set()
        order += sorted(blocks[i] - before - after) + sorted(after)
    return order if sorted(order) == own else own


def _edge_matvec(plan, x: np.ndarray) -> np.ndarray:
    """Apply the Hamiltonian that `_edge_plan` planned to x.

    x may be a vector of dimension d**sites or a (d**sites, m) block.  Each
    block is one product with its matrix M: over the block's sites, on plain
    reshapes when they are adjacent, after a copy that moves them to the front
    otherwise; the last sites of a vector are one row-major product by MT.
    When the first block's sites are adjacent its product is the result so
    far; every other block is added to the result in the plan's order, so the
    result is reproducible.  For d > _PAIR_MAX_D every block is one edge,
    added edge by edge.  A plan without blocks gives zeros.
    """
    dim, blocks = plan
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if x.shape[0] != dim:
        raise InvalidDimensionError(f"state dimension {x.shape[0]} does not match {dim}")
    xb = x.reshape(dim, -1)
    m = xb.shape[1]
    y = None  # C order, so that the views of y below never copy
    for M, MT, shape, perm in blocks:
        n = M.shape[0]
        if perm is None and shape[2] * m == 1:  # the last sites of a vector: one 2-D product
            shape = (shape[0], n)
            z = xb.reshape(shape) @ MT
        elif perm is None:  # adjacent sites: one product per left index, on plain reshapes
            shape = (shape[0], n, shape[2] * m)
            z = M @ xb.reshape(shape)
        else:  # the block's sites move to the front (a copy) for one wide product
            shape, perm = shape + (m,), perm + (len(shape),)
            z = M @ xb.reshape(shape).transpose(perm).reshape(n, -1)
        if y is None and perm is None:  # the first block writes y: a product in y's order
            y = z.reshape(xb.shape)
            continue
        y = np.zeros(xb.shape) if y is None else y
        ye = y.reshape(shape) if perm is None else y.reshape(shape).transpose(perm)
        ye += z.reshape(ye.shape)
    y = np.zeros(xb.shape) if y is None else y  # no blocks: H = 0
    return y.reshape(dim) if single else y


def _edge_dense(P: LocalProjector, sites: int, edges) -> np.ndarray:
    """Dense sum over edges (a, b) of P on sites a and b, in the matvec's view.

    P's first tensor factor acts on site a: on a reversed edge (a > b) the
    term is SWAP P SWAP on sites b < a, the pair-basis tensor of P with its
    two sites exchanged.
    """
    d = P.d
    dim = d**sites
    h = np.zeros((dim, dim))
    pt = P.matrix.reshape(d, d, d, d)
    for a, b in edges:
        term = pt if a < b else pt.transpose(1, 0, 3, 2)
        a, b = min(a, b), max(a, b)
        left, mid, right = d**a, d ** (b - a - 1), d ** (sites - b - 1)
        shape = (left, d, mid, d, right)
        ia = np.arange(left)[:, None, None]
        im = np.arange(mid)[None, :, None]
        ib = np.arange(right)[None, None, :]
        h.reshape(shape + shape)[ia, :, im, :, ib, ia, :, im, :, ib] += term
    return h


def chain_matvec(P: LocalProjector, L: int, x: np.ndarray, *, plan=None) -> np.ndarray:
    """Apply the L-site chain Hamiltonian to x without materializing it.

    x may be a vector of dimension d**L or a (d**L, m) block of columns.
    ``plan``, the `_edge_plan` of this chain and P, saves rebuilding it on
    every call (`hamiltonian_matvec` passes it).
    """
    if plan is None:
        if L < 2:
            raise InvalidDimensionError(f"chain length must be >= 2, got {L}")
        plan = _edge_plan(P, L, _path_edges(L))
    return _edge_matvec(plan, x)


def tree_matvec(P: LocalProjector, k: int, L: int, x: np.ndarray, *, plan=None) -> np.ndarray:
    """Apply the k-ary tree Hamiltonian (one projector per edge) to x.

    x may be a vector of dimension d**V or a (d**V, m) block.  The projector's
    first tensor factor acts on the parent vertex, the second on the child.
    ``plan`` is as for `chain_matvec`; the solver's plan (`_solver_plan`) is
    that of the tree on another site order, and x is then in that order.
    """
    if plan is None:
        plan = _edge_plan(P, tree_vertex_count(k, L), tree_edges(k, L))
    return _edge_matvec(plan, x)


def _range_factor(P: LocalProjector) -> np.ndarray:
    """Phi^T as an (r, d, d) array: the r leading eigenvectors of P, scaled by
    the square roots of their eigenvalues, as pair-basis coefficient matrices."""
    w, v = np.linalg.eigh(P.matrix)
    assert np.count_nonzero(w > 0.5) == P.r, "a rank-r projector has r eigenvalues near 1"
    lead = slice(w.size - P.r, None)
    return (v[:, lead] * np.sqrt(w[lead])).T.reshape(P.r, P.d, P.d)


def _gram_axes(label: str, edge, special: list[int], sites: int, r: int, d: int):
    """einsum subscripts and axis sizes of one side of a Gram block.

    The side's index is (label, configuration of the sites off ``edge``).  The
    sorted sites ``special`` cut the sites into runs, run t named "klmno"[t];
    a special site off ``edge`` gets its own axis, named "ABCD" by its place
    in ``special``.  Returns the subscripts, the same without the runs, and
    the axis sizes.
    """
    subs, own, shape = label, label, [r]
    for t, (lo, hi) in enumerate(zip([-1, *special], [*special, sites])):
        subs, shape = subs + "klmno"[t], shape + [d ** (hi - lo - 1)]
        if hi < sites and hi not in edge:
            subs, own, shape = subs + "ABCD"[t], own + "ABCD"[t], shape + [d]
    return subs, own, shape


def _edge_gram(phi: np.ndarray, sites: int, edges) -> np.ndarray:
    """Lower block triangle of G = B^T B for the range factor ``phi`` (r, d, d).

    The block G[e, f] = B_e^T B_f, f <= e, has rows (k, y) and columns (l, z):
    range indices k, l and configurations y, z of the sites off e and off f,
    in site order.  The sites of e and f cut the other sites into at most
    five runs; viewed per side as (r, run, site, run, ..., run), as
    `_edge_matvec` views a state as (left, d, mid, d, rest), the block is the
    product of phi on e and phi on f, summed over a shared site, on the
    diagonal y = z of every run.  One einsum forms that product and another
    the writable diagonal view it is added to.
    """
    r, d = phi.shape[:2]
    w = r * d ** (sites - 2)
    n = len(edges)
    g = np.zeros((n, w, n, w))
    for e, (a, b) in enumerate(edges):
        for f, (c, c2) in enumerate(edges[: e + 1]):
            special = sorted({a, b, c, c2})
            letter = dict(zip(special, "ABCD"))
            runs = "klmno"[: len(special) + 1]
            row, row_own, row_shape = _gram_axes("i", (a, b), special, sites, r, d)
            col, col_own, col_shape = _gram_axes("j", (c, c2), special, sites, r, d)
            block = g[e, :, f, :].reshape(row_shape + col_shape, copy=False)
            diagonal = np.einsum(f"{row}{col}->{runs}{row_own}{col_own}", block)
            diagonal += np.einsum(f"i{letter[a]}{letter[b]},j{letter[c]}{letter[c2]}"
                                  f"->{row_own}{col_own}", phi, phi)
    return g.reshape(n * w, n * w)


def _gram_order(spec: ChainSpec | TreeSpec, r: int) -> int:
    """m = n_terms r d^(sites-2), the order of `range_gram`'s matrix for rank r."""
    return spec.n_terms * r * (spec.dim // spec.d**2)


def dense_hamiltonian(spec: ChainSpec | TreeSpec, P: LocalProjector) -> np.ndarray:
    """Materialize the Hamiltonian as a dense symmetric matrix.

    Refuses, before allocating, a dim x dim matrix of 8 dim^2 bytes above
    MEMORY_BUDGET; use the matvec routines there.
    """
    _check_projector_dim(P, spec.d)
    _require_bytes(8 * spec.dim**2, f"the dense Hamiltonian of {spec}")
    return _edge_dense(P, spec.sites, spec.edges)


def range_gram(spec: ChainSpec | TreeSpec, P: LocalProjector) -> np.ndarray:
    """Gram matrix G = B^T B of the interaction ranges, whose nonzero spectrum
    is that of the Hamiltonian H = B B^T.  Only its lower triangle is filled.

    Let P = sum_k w_k v_k v_k^T (ascending w) and take Phi = [sqrt(w_k) v_k]
    over the r leading k, a d^2 x r matrix.  On an edge e = (a, b), Phi_e is
    Phi on sites a, b times the identity on the other sites: a dim x m_e
    matrix, m_e = r d^(sites-2), with columns phi_k (x) |y>, y a configuration
    of the other sites.  Then Phi_e Phi_e^T = (Phi Phi^T)_e, and with
    B = [Phi_e for e in edges]

        H = sum_e P_e = sum_e Phi_e Phi_e^T = B B^T,   m = n_terms r d^(sites-2)

    columns in all.  B B^T and B^T B have the same nonzero eigenvalues with
    multiplicity (an SVD of B), so for m < dim the spectrum of H is that of
    the m x m matrix G plus dim - m exact zeros: H has a kernel of dimension
    at least dim - m, and small r makes it frustration-free.

    Phi Phi^T equals P up to the discarded eigenvalues: ||Phi Phi^T - P|| is at
    most the largest |w_k| outside the r leading ones (rounding, for a
    projector that passed LocalProjector's checks), so by Weyl's inequality
    each level of B B^T lies within n_terms times that bound of the same
    level of H.

    Refuses, before allocating, an m x m matrix of 8 m^2 bytes above
    MEMORY_BUDGET, as `dense_hamiltonian` refuses H.
    """
    _check_projector_dim(P, spec.d)
    m = _gram_order(spec, P.r)
    _require_bytes(8 * m * m, f"the {m} x {m} Gram matrix of {spec}")
    return _edge_gram(_range_factor(P), spec.sites, spec.edges)


def _planned_matvec(spec: ChainSpec | TreeSpec, P: LocalProjector, plan):
    """A closure applying the Hamiltonian that ``plan`` planned to vectors or blocks."""
    # by keyword, and through the module's names, so that a wrapper patched
    # over chain_matvec or tree_matvec sees the state as the last argument
    if isinstance(spec, ChainSpec):
        return lambda x: chain_matvec(P, spec.L, x, plan=plan)
    return lambda x: tree_matvec(P, spec.k, spec.L, x, plan=plan)


def hamiltonian_matvec(spec: ChainSpec | TreeSpec, P: LocalProjector):
    """Return a closure applying the Hamiltonian of ``spec`` to vectors or blocks.

    The blocks of the matvec are planned here, once per Hamiltonian.
    """
    _check_projector_dim(P, spec.d)
    return _planned_matvec(spec, P, _edge_plan(P, spec.sites, spec.edges))


def _solver_plan(spec: ChainSpec | TreeSpec, P: LocalProjector):
    """The plan of the Hamiltonian of ``spec`` with its sites relabeled to
    `_site_order`, which keeps each edge's orientation.

    The relabeling is a permutation similarity of H, so the spectrum is
    that of `hamiltonian_matvec`'s H; only the coordinates of a state move.
    A chain keeps its own order, and this is `hamiltonian_matvec`'s plan.
    """
    _check_projector_dim(P, spec.d)
    place = {s: i for i, s in enumerate(_site_order(P.d, spec.sites, spec.edges))}
    return _edge_plan(P, spec.sites, [(place[a], place[b]) for a, b in spec.edges])


def _solver_matvec(spec: ChainSpec | TreeSpec, P: LocalProjector):
    """The closure the iterative eigensolver applies: `_solver_plan`'s Hamiltonian."""
    return _planned_matvec(spec, P, _solver_plan(spec, P))
