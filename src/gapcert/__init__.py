"""Numerical toolkit for spectral gaps of random-projector spin chains and trees.

Builds translation-invariant Hamiltonians from Haar-random small-rank
projectors, computes their spectral gaps (dense oracle and matrix-free
single-vector thick-restart Lanczos on a preallocated basis), certifies
gappedness through three-site finite-size criteria, and checks the
quantitative spherical-cap probability bounds behind the positive-probability
gap statements.
"""

from .capgeom import (
    CapQuery,
    cap_lower_bound,
    cap_measure_exact,
    gap_probability_bound,
    landing_exponent,
    landing_probability_bound,
    step_bounds,
)
from .certificate import (
    Certificate,
    certified_gap_level,
    certify,
    chain_bound,
    construct_near_good,
    coupling_norm,
    fnw_defect,
    local_gap,
    meet,
    meet_von_neumann,
    reference_distance,
    tree_bound,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    GapcertError,
    InvalidDimensionError,
    InvalidRankError,
    NotAProjectorError,
    SolverConvergenceError,
)
from .haar import (
    OrthonormalFamily,
    RandomSeed,
    haar_orthogonal,
    sample_family,
    sample_family_batch,
    sample_sphere,
    sphere_blocks,
)
from .model import (
    DENSE_DIM_LIMIT,
    ChainSpec,
    LocalProjector,
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
from .spectral import (
    AUTO_DENSE_LIMIT,
    SolverStats,
    SpectralReport,
    default_kernel_threshold,
    dense_spectrum,
    gap_report,
    smallest_eig_above,
)

__version__ = "0.1.0"
