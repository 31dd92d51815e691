"""Deterministic finite-size gap certificates for chain and tree Hamiltonians.

The certificate machinery works entirely on three-site spaces.  For a pair of
overlapping edge projectors Q1, Q2 it reads

* the meet rank, the dimension of ran(Q1) & ran(Q2), the range of the meet Q1 ^ Q2,
* the coupling norm c = ||Q1 Q2 - Q1 ^ Q2||,
* the local gap of Q1 + Q2 (its smallest strictly positive eigenvalue),

all three from the one spectrum of Q1 + Q2.  Two projections split the space
into invariant blocks of dimension 1 and 2 (Jordan's lemma; Halmos, "Two
subspaces", Trans. AMS 144, 1969).  A 1-dimensional block lies in the range or
the kernel of each projector, so Q1 + Q2 is 2 there (a common range vector),
1 (in one range, in the other kernel) or 0 (in both kernels), and
Q1 Q2 - Q1 ^ Q2 vanishes on it.  On a 2-dimensional block Q1 and Q2 project
onto two lines at a principal angle 0 < theta < pi/2: Q1 + Q2 has eigenvalues
1 +- cos theta there, Q1 Q2 has norm cos theta, and the meet is zero.  Hence

* the meet rank is the number of eigenvalues at 2 (within MEET_EIGTOL),
* c is the largest cos theta, max(0, largest eigenvalue below 2 - 1),
* the local gap is the smallest eigenvalue above the kernel threshold, and it
  equals 1 - c when below 1: only a 2-dimensional block puts a positive
  eigenvalue below 1, and the block of largest cos theta puts the smallest.

The certificate turns the effective local gap max(gamma_loc, 1 - c) into lower
bounds on the gap of arbitrarily long chains (gamma_L >= 2*(gamma_loc - 1/2)
for gamma_loc <= 1, else >= 1, any L >= 4) and of k-ary trees
(gamma >= 2k*(gamma_loc - 1 + 1/(2k))).  Since the local gap equals 1 - c when
below 1, a coupling norm below 1/2 (resp. 1/(2k)) certifies a gap.  The chain
criterion bounds the gap above a zero ground energy, so a chain bound needs
r <= max_ff_rank(d, "chain"); `certify` refuses a larger rank through the
rank rule of `gapcert.model`, the one the experiment harness asks too.

Two edges overlap in one of two geometries, each taken from the smallest
lattice of the edge-list model (`gapcert.model`) that has it, with each edge
term assembled as the Hamiltonian assembles it:

* path, P_01 + P_12 on the 3-site chain ChainSpec(d, r, 3): the shared site
  is the second tensor factor of one edge and the first of the other.  These
  are the only overlaps on a chain; on a tree they join a vertex's parent
  edge to one of its child edges.
* sibling, P_01 + P_02 on the 3-vertex star TreeSpec(d, r, 2, 2): two child
  edges of one parent, with the first tensor factor on the parent in both
  terms.  Only trees with k >= 2 have them.

A tree bound must hold for every overlap, so for k >= 2 it is evaluated on the
smaller of the two effective local gaps; k = 1 is the chain and uses the path
geometry alone.  The sibling geometry is the binding one for near-reference
interactions.  For construct_near_good(3, 1, 1/18, RandomSeed(909, 1)):

    geometry   gamma_loc   coupling norm
    path       0.963       0.037
    sibling    0.00168     0.998

and the exact gap of the 3-level binary tree is 7.13e-5, far below the 0.850
that the path geometry alone would certify.  The sibling data are small for a
structural reason.  Write a rank-1 interaction's range vector as
psi = sum_ij A_ij e_i (x) e_j with a d x d coefficient matrix A, ||A||_F = 1.
The sibling ranges are {psi_{v,c1} (x) phi_{c2}} and {psi_{v,c2} (x) chi_{c1}},
and the overlap of two unit members is chi^T A^T A phi, so the coupling norm is
sigma_max(A)^2 >= 1/rank(A) >= 1/d.  A common range vector needs
sigma_max(A) = 1, i.e. rank A = 1 (a product state); for rank A >= 2 the meet is
zero and the sibling local gap is 1 - sigma_max(A)^2 <= 1 - 1/d.  A positive
k-ary tree bound needs a local gap above 1 - 1/(2k), which at d = 3 and k = 2
is 3/4 > 2/3: a sound tree bound is positive only for product-state
interactions such as reference_projector(3, 1), whose sibling meet has rank 1,
coupling norm 0 and local gap 1.  The near-reference construction promises a
chain gap, not a tree gap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DomainError, NotAProjectorError, SolverConvergenceError
from .haar import OrthonormalFamily, RandomSeed, _qr_orthogonal
from .model import (
    ChainSpec,
    LocalProjector,
    TreeSpec,
    _check_projector,
    _edge_dense,
    _require_ff_rank,
    reference_targets,
)
from .spectral import dense_spectrum, default_kernel_threshold

MEET_EIGTOL = 1e-8
_RETRIES = 20  # scale halvings of construct_near_good


def meet(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto ran(q1) & ran(q2).

    Computed as the eigenspace of q1 + q2 with eigenvalues within MEET_EIGTOL of 2
    (the sum reaches 2 exactly on common range vectors and stays strictly below
    elsewhere).  `meet_von_neumann` provides an independent cross-check.
    """
    q1 = _check_projector(q1, "q1")
    q2 = _check_projector(q2, "q2")
    if q1.shape != q2.shape:
        raise NotAProjectorError(f"shape mismatch: {q1.shape} vs {q2.shape}")
    w, u = np.linalg.eigh(q1 + q2)
    sel = w >= 2.0 - MEET_EIGTOL
    if not sel.any():
        return np.zeros_like(q1)
    us = u[:, sel]
    m = us @ us.T
    return 0.5 * (m + m.T)


def meet_von_neumann(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Meet via the power limit of q1 q2, used as an oracle for `meet`.

    The powers are walked by repeated squaring, so small principal angles
    (slow linear convergence of the plain power sequence) stay cheap.
    """
    q1 = _check_projector(q1, "q1")
    q2 = _check_projector(q2, "q2")
    a = q1 @ q2
    for _ in range(200):
        nxt = a @ a
        if np.linalg.norm(nxt - a) < 1e-10:
            return nxt
        a = nxt
    raise SolverConvergenceError("projector power iteration did not converge")


#: the smallest lattice of each overlap geometry, whose two edges share one site
_OVERLAP_LATTICES = {
    "path": lambda d, r: ChainSpec(d, r, 3),  # edges (0, 1), (1, 2)
    "sibling": lambda d, r: TreeSpec(d, r, 2, 2),  # edges (0, 1), (0, 2)
}


def _overlap(P: LocalProjector, geometry: str) -> tuple[int, float, float]:
    """Meet rank, coupling norm and local gap of the two edge terms of `geometry`,
    P on each edge of the geometry's lattice, assembled as the Hamiltonian is.

    All three are read from one spectrum of Q1 + Q2 (see the module docstring).
    """
    if geometry not in _OVERLAP_LATTICES:
        raise DomainError(f"geometry must be one of {tuple(_OVERLAP_LATTICES)}, got {geometry!r}")
    spec = _OVERLAP_LATTICES[geometry](P.d, P.r)
    # Q1 + Q2 in one assembly; ascending, so the meet's eigenvalues come last
    w = dense_spectrum(_edge_dense(P, spec.sites, spec.edges))
    rank = int(np.count_nonzero(w >= 2.0 - MEET_EIGTOL))
    c = max(0.0, float(w[-rank - 1]) - 1.0) if rank < w.size else 0.0
    return rank, c, float(w[w > default_kernel_threshold(2)][0])


def coupling_norm(P: LocalProjector, geometry: str = "path") -> float:
    """Operator norm of Q1 Q2 - Q1 ^ Q2 for the edge pair of `geometry`: the
    largest eigenvalue of Q1 + Q2 below 2, less 1 (0 when there is none)."""
    return _overlap(P, geometry)[1]


def local_gap(P: LocalProjector, geometry: str = "path") -> float:
    """Smallest strictly positive eigenvalue of Q1 + Q2 (dense, d^3 space);
    it equals 1 - coupling_norm(P, geometry) when below 1."""
    return _overlap(P, geometry)[2]


def chain_bound(gamma_loc: float) -> float:
    """Uniform-in-length gap lower bound of the chain criterion (valid for L >= 4)."""
    if gamma_loc < 0:
        raise DomainError(f"gamma_loc must be >= 0, got {gamma_loc}")
    return 1.0 if gamma_loc >= 1.0 else 2.0 * (gamma_loc - 0.5)


def tree_bound(gamma_loc: float, k: int) -> float:
    """Gap lower bound of the k-ary tree criterion; k = 1 reproduces the chain bound.

    For k >= 2, `gamma_loc` must cover both the path and the sibling overlaps of
    the tree; `certify` passes the smaller of the two effective local gaps.
    """
    if gamma_loc < 0:
        raise DomainError(f"gamma_loc must be >= 0, got {gamma_loc}")
    if k < 1:
        raise DomainError(f"branching factor must be >= 1, got {k}")
    return 1.0 if gamma_loc >= 1.0 else 2.0 * k * (gamma_loc - 1.0 + 1.0 / (2.0 * k))


def fnw_defect(q1: np.ndarray, q2: np.ndarray) -> float:
    """Slack of the projector anticommutator inequality.

    Smallest eigenvalue of {q1, q2} + ||q1 q2 - q1^q2|| (q1 + q2); the
    inequality asserts this is never below zero (up to rounding).
    """
    q1 = _check_projector(q1, "q1")
    q2 = _check_projector(q2, "q2")
    c = float(np.linalg.norm(q1 @ q2 - meet(q1, q2), 2))
    a = q1 @ q2 + q2 @ q1 + c * (q1 + q2)
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])


@dataclass(frozen=True)
class Certificate:
    """Gap certificate of one local interaction, uniform in the system size."""

    d: int
    r: int
    coupling_norm: float
    gamma_loc: float
    gamma_loc_lb: float
    meet_rank: int
    chain_bound: float
    tree_bounds: dict[int, float] = field(default_factory=dict)
    verdict: str = "inconclusive"
    sibling_coupling_norm: float | None = None
    sibling_gamma_loc: float | None = None
    seed: RandomSeed | None = None
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.gamma_loc < self.gamma_loc_lb - 1e-8:
            raise ValueError(
                f"local gap {self.gamma_loc} fell below its coupling-norm bound "
                f"{self.gamma_loc_lb}; projector data is inconsistent"
            )
        if (self.sibling_gamma_loc is not None
                and self.sibling_gamma_loc < 1.0 - self.sibling_coupling_norm - 1e-8):
            raise ValueError(
                f"sibling local gap {self.sibling_gamma_loc} fell below its coupling-norm "
                f"bound {1.0 - self.sibling_coupling_norm}; projector data is inconsistent"
            )
        expected = "certified-gapped" if self.chain_bound > 0 else "inconclusive"
        if self.verdict != expected:
            raise ValueError(f"verdict {self.verdict!r} inconsistent with chain bound")

    def tree_certified(self, k: int) -> bool:
        return self.tree_bounds.get(k, 0.0) > 0.0

    def to_json_obj(self) -> dict:
        seed = None
        if self.seed is not None:
            seed = {"master_seed": self.seed.master_seed, "stream_index": self.seed.stream_index}
        return {
            "d": self.d,
            "r": self.r,
            "coupling_norm": self.coupling_norm,
            "gamma_loc": self.gamma_loc,
            "gamma_loc_lb": self.gamma_loc_lb,
            "meet_rank": self.meet_rank,
            "chain_bound": self.chain_bound,
            "sibling_coupling_norm": self.sibling_coupling_norm,
            "sibling_gamma_loc": self.sibling_gamma_loc,
            "tree_bounds": {str(k): v for k, v in self.tree_bounds.items()},
            "verdict": self.verdict,
            "seed": seed,
            "tolerances": self.tolerances,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def certify(P: LocalProjector, k_list: tuple[int, ...] = ()) -> Certificate:
    """Compute the full certificate of one interaction.

    The effective local gap of a geometry is the better of the exact dense value
    and the 1 - c bound implied by its coupling norm (both are recorded; they
    agree to rounding when the local gap is below 1).  The
    chain bound, and the tree bound for k = 1, evaluate the finite-size
    criterion on the path geometry; a positive chain bound certifies every
    length L >= 4 at once.  Tree bounds for k >= 2 use the smaller of the path
    and sibling effective local gaps, since a k-ary tree has both overlaps (see
    the module docstring); the sibling data are computed and recorded only when
    such a k is requested, and are None otherwise.  Each geometry's edge pair
    is built once and its sum solved once.  Raises DomainError for a rank above
    max_ff_rank(d, "chain"), where the chain criterion does not apply.
    """
    _require_ff_rank(P.d, P.r)
    meet_rank, c, g_loc = _overlap(P, "path")
    g_lb = 1.0 - c
    best = max(g_loc, g_lb)
    cb = chain_bound(best)
    c_sib = g_sib = None
    tree_best = best
    if any(int(k) >= 2 for k in k_list):
        _, c_sib, g_sib = _overlap(P, "sibling")
        tree_best = min(best, max(g_sib, 1.0 - c_sib))
    tb = {int(k): tree_bound(best if int(k) == 1 else tree_best, int(k)) for k in k_list}
    return Certificate(
        d=P.d,
        r=P.r,
        coupling_norm=c,
        gamma_loc=g_loc,
        gamma_loc_lb=g_lb,
        meet_rank=meet_rank,
        chain_bound=cb,
        tree_bounds=tb,
        verdict="certified-gapped" if cb > 0 else "inconclusive",
        sibling_coupling_norm=c_sib,
        sibling_gamma_loc=g_sib,
        seed=P.seed,
        tolerances={
            "meet_eigtol": MEET_EIGTOL,
            "kernel_threshold": default_kernel_threshold(2),
        },
    )


def construct_near_good(d: int, r: int, epsilon: float, seed: RandomSeed) -> OrthonormalFamily:
    """Orthonormal family within distance `epsilon` of the reference targets.

    Perturbs each target vector by a scaled random direction (initial scale
    0.9 * epsilon) and re-orthonormalizes; the scale is halved until the
    distance condition verifies.  The resulting projector certifies a chain
    gap above 1 - 8*r*epsilon.
    """
    targets = reference_targets(d, r).T
    certified_gap_level(r, epsilon)  # refuses epsilon outside (0, 1/(8r))
    rng = seed.generator()
    scale = 0.9 * epsilon
    for _ in range(_RETRIES):
        noise = rng.standard_normal((d * d, r))
        noise /= np.linalg.norm(noise, axis=0)
        q = _qr_orthogonal(targets + scale * noise)
        dist = float(np.linalg.norm(q - targets, axis=0).max())
        if dist < epsilon:
            return OrthonormalFamily(d=d, r=r, vectors=q.T.copy(), seed=seed)
        scale *= 0.5
    raise ConstructionError(
        f"could not place the family within {epsilon} of the targets after {_RETRIES} retries"
    )


def certified_gap_level(r: int, epsilon: float) -> float:
    """Gap level 1 - 8*r*epsilon guaranteed by a near-good family.

    Raises DomainError outside the window 0 < epsilon < 1/(8r); the near-good
    construction and the experiment harness check epsilon through this call.
    """
    if not (0 < epsilon < 1.0 / (8.0 * r)):
        raise DomainError(f"epsilon must lie in (0, 1/(8r)) = (0, {1.0/(8.0*r)}), got {epsilon}")
    return 1.0 - 8.0 * r * epsilon


def reference_distance(family: OrthonormalFamily) -> float:
    """max_i distance of the family from the reference targets (requires r < d)."""
    targets = reference_targets(family.d, family.r)
    return float(np.linalg.norm(family.vectors - targets, axis=1).max())
