"""Ground energy, kernel dimension, and spectral gap computation.

Two routes are provided and cross-validated in the test suite:

* a dense oracle (`dense_spectrum`) for dimensions up to DENSE_DIM_LIMIT;
* a matrix-free thick-restart (block) Lanczos iteration with full
  reorthogonalization (`lowest_eigs`, `smallest_eig_above`).

The Lanczos core allocates the basis V, its images W = H V (row-major, one
row per vector) and T = V W^T once per solve.  Each step expands V by the
newest rows of W, orthogonalized twice against V by classical Gram-Schmidt;
the first pass's coefficients are the new column of T.  Rayleigh-Ritz runs
every _RITZ_INTERVAL steps and tests the explicit residuals ||W y - theta V y||.

For frustration-free operators the kernel can be huge (thousands of states for
moderate chains), so the gap is not reached by enumerating low eigenvalues.
`smallest_eig_above` instead starts the Krylov basis inside the range of the
operator (start vector = H applied to a random vector).  The range is invariant
under H and orthogonal to the kernel, so the iteration converges to the
smallest *positive* eigenvalue directly; rounding-level kernel leakage is
ignored via the kernel threshold, and a restart keeps only Ritz vectors above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDimensionError, SolverConvergenceError
from .haar import RandomSeed
from .model import (
    DENSE_DIM_LIMIT,
    ChainSpec,
    LocalProjector,
    TreeSpec,
    dense_hamiltonian,
    hamiltonian_matvec,
)

#: `gap_report(method="auto")` goes dense at or below this dimension
AUTO_DENSE_LIMIT = 2048

#: per-interaction-term kernel threshold (||H|| <= #terms, so rounding scales with it)
KERNEL_EPS_PER_TERM = 1e-9

#: residual tolerance of the iterative solver, relative to the spectral scale
DEFAULT_RES_RTOL = 1e-9

#: block widths of `_growing_solves`, doubling from the start up to the cap
_GROWING_START = 8
_GROWING_CAP = 128

#: Lanczos steps between Rayleigh-Ritz checks (an eigh of T costs far more than a step)
_RITZ_INTERVAL = 8

#: basis rows of one solve (at least three blocks, at most dim); a restart keeps a third
_MAX_BASIS = 480

#: a new direction whose norm fell below this share of its input is dropped
_DROP_RTOL = 1e-10


def default_kernel_threshold(n_terms: int) -> float:
    return KERNEL_EPS_PER_TERM * max(1, n_terms)


@dataclass
class SolverStats:
    """Work of the iterative solver, summed over the solves it is passed to."""

    iterations: int = 0  # Lanczos steps
    matvec_columns: int = 0  # vectors H was applied to
    restarts: int = 0
    max_residual: float = 0.0  # largest explicit residual of a returned Ritz pair


@dataclass(frozen=True)
class SpectralReport:
    """Spectral summary of one Hamiltonian instance.

    `solver` holds the work of the iterative path (None on the dense path);
    `to_json_obj` omits it.
    """

    ground_energy: float
    kernel_dim: int | None
    gap: float | None
    frustration_free: bool
    method: str
    kernel_threshold: float
    solver_tolerance: float
    dim: int
    n_terms: int
    solver: SolverStats | None = None

    def to_json_obj(self) -> dict:
        return {
            "ground_energy": self.ground_energy,
            "kernel_dim": self.kernel_dim,
            "gap": self.gap,
            "frustration_free": self.frustration_free,
            "method": self.method,
            "kernel_threshold": self.kernel_threshold,
            "solver_tolerance": self.solver_tolerance,
            "dim": self.dim,
            "n_terms": self.n_terms,
        }


def dense_spectrum(h: np.ndarray, check_symmetry: bool = True) -> np.ndarray:
    """Full ascending spectrum of a dense symmetric matrix.

    Refuses dimensions above DENSE_DIM_LIMIT.  Exactly diagonal matrices are
    sorted directly (the reference model is diagonal in the product basis, and
    a LAPACK round on a 20k matrix costs minutes for no accuracy benefit).
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {h.shape}")
    n = h.shape[0]
    if n > DENSE_DIM_LIMIT:
        raise InvalidDimensionError(
            f"dimension {n} exceeds the dense limit {DENSE_DIM_LIMIT}; use the iterative path"
        )
    if check_symmetry:
        scale = max(1.0, float(np.abs(h).max()))
        asym = float(np.abs(h - h.T).max())
        if asym > 1e-10 * scale:
            raise DomainError(f"matrix is not symmetric: max |H - H^T| = {asym:.3e}")
    diag = np.diagonal(h)
    if np.count_nonzero(h) == np.count_nonzero(diag):
        return np.sort(diag.copy())
    return np.linalg.eigvalsh(h)


def _new_directions(block: np.ndarray, basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning `block` projected off the rows of `basis`.

    Classical Gram-Schmidt twice, the first pass with `coeffs` = basis @ block.T;
    directions below _DROP_RTOL of the largest input row norm are dropped.
    """
    ref = float(np.linalg.norm(block, axis=1).max())
    block = block - coeffs.T @ basis
    block -= (basis @ block.T).T @ basis
    if block.shape[0] == 1:
        norm = float(np.linalg.norm(block))
        return block / norm if norm > _DROP_RTOL * ref else block[:0]
    _, s, vt = np.linalg.svd(block, full_matrices=False)
    return vt[s > _DROP_RTOL * ref]


def _lanczos(matvec, dim: int, nev: int, rng: np.random.Generator, *,
             threshold: float | None = None, res_rtol: float = DEFAULT_RES_RTOL,
             max_iter: int = 3000, max_basis: int = _MAX_BASIS,
             stats: SolverStats | None = None):
    """Thick-restart block Lanczos with full reorthogonalization.

    Converges the `nev` lowest Ritz pairs, expanding by a block of `nev`
    vectors per step (so multiplicities up to `nev` are resolved).  Given a
    `threshold`, it converges the `nev` lowest above it instead, and the
    basis starts inside the range of H.  Returns (values, exhausted):
    `exhausted` is True when the reachable invariant subspace was spanned
    completely (values are then exact for that subspace).
    """
    stats = SolverStats() if stats is None else stats
    floor = -np.inf if threshold is None else threshold
    cap = min(dim, max(max_basis, 3 * nev))  # room for the kept vectors and a block
    keep = max(nev, cap // 3)
    V = np.empty((cap, dim))
    W = np.empty((cap, dim))
    T = np.empty((cap, cap))

    def apply(rows):
        stats.matvec_columns += rows.shape[0]
        return np.asarray(matvec(np.ascontiguousarray(rows.T)), dtype=float).T

    def fresh(n):
        z = rng.standard_normal((nev, dim))
        if threshold is not None:
            z = apply(z)
        return _new_directions(z, V[:n], V[:n] @ z.T)

    def append(n, q):
        """Store rows q at n with their images and their columns of T; the new size."""
        m = n + q.shape[0]
        V[n:m] = q
        W[n:m] = apply(q)
        T[:m, n:m] = V[:m] @ W[n:m].T
        T[n:m, :n] = T[:n, n:m].T
        return m

    def ritz(n):
        theta, y = np.linalg.eigh(T[:n, :n])
        targets = np.flatnonzero(theta > floor)[:nev]
        yt = y[:, targets].T
        res = np.linalg.norm(yt @ W[:n] - theta[targets, None] * (yt @ V[:n]), axis=1)
        return theta, y, targets, res

    q = fresh(0)
    if q.shape[0] == 0:
        return np.empty(0), True  # the operator's range is (numerically) trivial
    n, newest = append(0, q), q.shape[0]
    for step in range(max_iter + 1):
        full = cap < dim and n + nev > cap
        if step % _RITZ_INTERVAL == 0 or step == max_iter or full:
            theta, y, targets, res = ritz(n)
            scale = max(1.0, float(np.abs(theta).max()))
            if targets.size >= nev and np.all(res <= res_rtol * scale):
                exhausted = n >= dim
                break
            if step == max_iter:
                raise SolverConvergenceError(f"no convergence after {max_iter} iterations "
                                             f"(dim={dim}, nev={nev}, threshold={threshold})")
        q = _new_directions(W[n - newest : n], V[:n], T[:n, n - newest : n])
        if q.shape[0] == 0:
            q = fresh(n)
        if q.shape[0] == 0:
            theta, y, targets, res = ritz(n)  # invariant subspace spanned: exact on it
            exhausted = True
            break
        if n + q.shape[0] <= cap:
            n = append(n, q)
        else:
            # thick restart: the lowest Ritz vectors (above the threshold, so
            # resolved kernel leakage is dropped), then the next Lanczos block q,
            # which holds all of their residuals.  Restarting through W y instead
            # multiplies the error of the Lanczos relation by residual / theta
            # and stalls on a gap of 1e-4 above a kernel.
            kept = np.flatnonzero(theta > floor)[:keep]
            k = kept.size
            y = y[:, kept].T
            V[:k], W[:k] = y @ V[:n], y @ W[:n]
            T[:k, :k] = V[:k] @ W[:k].T
            n = append(k, q)
            stats.restarts += 1
        newest = q.shape[0]
        stats.iterations += 1
    stats.max_residual = max(stats.max_residual, float(res.max(initial=0.0)))
    return theta[targets], exhausted


def lowest_eigs(
    matvec,
    dim: int,
    count: int,
    *,
    seed: RandomSeed | None = None,
    res_rtol: float = DEFAULT_RES_RTOL,
    max_iter: int = 3000,
) -> np.ndarray:
    """The `count` lowest eigenvalues of a symmetric PSD operator, ascending.

    `matvec` must map a (dim, b) block of columns to the (dim, b) block of
    their images.  Block Lanczos with block width `count` (so degenerate
    levels are resolved up to that multiplicity), full reorthogonalization,
    and a deterministic start block drawn from `seed`.  Raises
    SolverConvergenceError at the iteration cap.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if dim < count:
        raise InvalidDimensionError(f"dim={dim} is smaller than count={count}")
    rng = (seed or RandomSeed()).generator(substream=1)
    theta, _ = _lanczos(matvec, dim, count, rng, res_rtol=res_rtol, max_iter=max_iter)
    if theta.size < count:
        raise SolverConvergenceError(f"resolved only {theta.size} of {count} requested eigenvalues")
    return theta[:count]


def smallest_eig_above(
    matvec,
    dim: int,
    threshold: float,
    *,
    seed: RandomSeed | None = None,
    res_rtol: float = DEFAULT_RES_RTOL,
    max_iter: int = 3000,
    stats: SolverStats | None = None,
) -> float | None:
    """Smallest eigenvalue strictly above `threshold` of a symmetric PSD operator.

    `matvec` must map a (dim, b) block of columns to the (dim, b) block of
    their images.  The Krylov basis starts inside ran(H), which deflates the
    kernel without ever resolving its dimension.  Returns None when the
    reachable range holds no eigenvalue above the threshold (zero operator).
    The solver's work is added to `stats` when one is given.
    """
    rng = (seed or RandomSeed()).generator(substream=2)
    theta, _ = _lanczos(matvec, dim, 1, rng, threshold=threshold, res_rtol=res_rtol,
                        max_iter=max_iter, stats=stats)
    return float(theta[0]) if theta.size else None


def _growing_solves(matvec, dim, rng, res_rtol, stats):
    """Solves for the lowest m = 8, 16, ... eigenvalues (block width m), up to the cap."""
    m = _GROWING_START
    while m <= min(_GROWING_CAP, dim):
        yield _lanczos(matvec, dim, m, rng, res_rtol=res_rtol, stats=stats)
        m *= 2


def gap_report(
    spec: ChainSpec | TreeSpec,
    P: LocalProjector,
    *,
    method: str = "auto",
    kernel_threshold: float | None = None,
    seed: RandomSeed | None = None,
    res_rtol: float = DEFAULT_RES_RTOL,
) -> SpectralReport:
    """Ground energy, kernel dimension, and spectral gap of one Hamiltonian.

    method: "dense" (full spectrum, refuses dim > DENSE_DIM_LIMIT),
    "iterative" (matrix-free), or "auto" (dense at or below AUTO_DENSE_LIMIT).
    The gap is the smallest eigenvalue above the kernel threshold; if the ground
    energy itself exceeds the threshold the instance is flagged non-frustration-
    free and the gap falls back to the spacing between the two lowest distinct
    levels.  On the iterative path the kernel dimension of a frustration-free
    instance is not resolved (it can run to thousands of states) and comes
    back None; the report also carries the solver's work (iterations, matvec
    columns, restarts) and the largest residual of a converged Ritz pair.
    """
    dim = spec.dim
    n_terms = spec.n_terms
    thr = default_kernel_threshold(n_terms) if kernel_threshold is None else kernel_threshold
    if n_terms == 0:
        return SpectralReport(
            ground_energy=0.0, kernel_dim=dim, gap=None, frustration_free=True,
            method="trivial", kernel_threshold=thr, solver_tolerance=0.0,
            dim=dim, n_terms=0,
        )
    if method == "auto":
        method = "dense" if dim <= AUTO_DENSE_LIMIT else "iterative"
    if method == "dense":
        # dense_hamiltonian is exactly symmetric; the check is for caller matrices
        evals = dense_spectrum(dense_hamiltonian(spec, P), check_symmetry=False)
        ground = float(evals[0])
        kd = int(np.searchsorted(evals, thr, side="right"))
        ff = ground <= thr
        if ff:
            gap = float(evals[kd]) if kd < dim else None
        else:
            kd = 0
            idx = int(np.searchsorted(evals, ground + thr, side="right"))
            gap = float(evals[idx] - ground) if idx < dim else None
        return SpectralReport(
            ground_energy=ground, kernel_dim=kd, gap=gap, frustration_free=ff,
            method="dense", kernel_threshold=thr, solver_tolerance=1e-10,
            dim=dim, n_terms=n_terms,
        )
    if method != "iterative":
        raise ValueError(f"unknown method {method!r}")

    matvec = hamiltonian_matvec(spec, P)
    rng = (seed or RandomSeed()).generator(substream=1)
    stats = SolverStats()
    theta, _ = _lanczos(matvec, dim, 1, rng, res_rtol=res_rtol, stats=stats)
    ground = float(theta[0])
    ff = ground <= thr
    if ff:
        gap = smallest_eig_above(matvec, dim, thr, seed=seed, res_rtol=res_rtol, stats=stats)
        if gap is None:
            raise SolverConvergenceError("no eigenvalue found above the kernel threshold")
        kd = None
    else:
        kd = 0
        for vals, _ in _growing_solves(matvec, dim, rng, res_rtol, stats):
            distinct = vals[vals > ground + thr]
            if distinct.size:
                gap = float(distinct[0] - ground)
                break
        else:
            raise SolverConvergenceError(
                "could not resolve a second level above the (non-frustration-free) ground energy"
            )
    return SpectralReport(
        ground_energy=ground, kernel_dim=kd, gap=gap, frustration_free=ff,
        method="iterative", kernel_threshold=thr, solver_tolerance=res_rtol,
        dim=dim, n_terms=n_terms, solver=stats,
    )
