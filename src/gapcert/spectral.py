"""Ground energy, kernel dimension, and spectral gap computation.

Two routes are provided and cross-validated in the test suite:

* a dense oracle (`dense_spectrum`) for dimensions up to DENSE_DIM_LIMIT.
  The Hamiltonian is H = B B^T, B holding the n_terms r d^(sites-2) = m
  columns of the interaction ranges on every edge (`range_gram`), so when
  m < dim the dense path of `gap_report` solves the m x m Gram matrix
  G = B^T B and adds the dim - m zeros of the kernel that B leaves; H is
  assembled and solved when m >= dim or P is diagonal;
* a matrix-free thick-restart Lanczos iteration with full reorthogonalization
  (the iterative path of `gap_report`, and `smallest_eig_above`).

The Lanczos core expands a single vector per step.  It stores the basis V
(row-major, one row per vector) and the projected matrix T, and no images
H V: the image of the newest vector q lives for one step.  A step is the
three-term recurrence, H q minus its components on q and on the rows that T
couples to q (the previous vector, or every kept Ritz vector right after a
restart), followed by one classical Gram-Schmidt pass against all of V.  A
vector that this pass cut below 1/sqrt(2) of its norm gets a second pass
(Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976).  Rayleigh-Ritz
runs every _RITZ_INTERVAL steps.  The recurrence gives each Ritz pair's
residual norm as |beta y_last|, where beta couples the newest vector to the
next and y_last is the Ritz vector's last entry; pairs whose estimates are
all within tolerance are accepted only after one explicit residual
||H x - theta x|| each confirms them.  The basis holds at most _MAX_BASIS = 64
rows, so a step's Gram-Schmidt pass and a Rayleigh-Ritz eigh stay small; a
full basis is thick-restarted onto a third of its rows, Ritz vectors formed as
V y with T diagonal on them (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000).
A restart keeps each target below the last as its one Ritz vector and the
Ritz vectors from the last target up.  Rounding lets a converged kernel
reappear in the Krylov space as further Ritz values near 0; keeping them would
fill the kept window with copies of the kernel, so the restart purges them
(the purging of Lehoucq & Sorensen, SIAM J. Matrix Anal. Appl. 17, 1996).

A solve converges the targets that its caller's rule picks among the
ascending Ritz values.  For frustration-free operators the kernel can be huge
(thousands of states for moderate chains), so the gap is not reached by
enumerating low eigenvalues.  A single-vector Krylov space holds each distinct
level once (Parlett, The Symmetric Eigenvalue Problem, ch. 12): started from a
random vector it resolves the whole reachable kernel as one Ritz value, the
ground energy, and the gap level as the next one.  `gap_report` therefore runs
one solve with two targets, the lowest Ritz value and the lowest above a floor:
the kernel threshold when the lowest is at or below it (frustration-free), and
the lowest plus the threshold otherwise (the next distinct level).
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
    range_gram,
)

#: `gap_report(method="auto")` goes dense at or below this dimension
AUTO_DENSE_LIMIT = 2048

#: per-interaction-term kernel threshold (||H|| <= #terms, so rounding scales with it)
KERNEL_EPS_PER_TERM = 1e-9

#: residual tolerance of the iterative solver, relative to the spectral scale
DEFAULT_RES_RTOL = 1e-9

#: Lanczos steps between Rayleigh-Ritz checks (an eigh of T costs far more than a step)
_RITZ_INTERVAL = 8

#: basis rows of one solve (at most dim): bounds the Gram-Schmidt pass and the
#: Ritz eigh of every step; a thick restart keeps a third
_MAX_BASIS = 64

#: a new direction whose norm fell below this share of its input is dropped
_DROP_RTOL = 1e-10

#: a row that one Gram-Schmidt pass cut below this share of its norm gets a second pass
_DGKS_RATIO = 2**-0.5


def default_kernel_threshold(n_terms: int) -> float:
    return KERNEL_EPS_PER_TERM * max(1, n_terms)


@dataclass
class SolverStats:
    """Work of one iterative solve (an iterative `gap_report` runs one)."""

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
    Otherwise LAPACK reads only the lower triangle, so with
    ``check_symmetry=False`` a matrix filled only there, as `range_gram`
    fills the Gram matrix, is solved as its symmetric completion.
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


def _dense_levels(spec: ChainSpec | TreeSpec, P: LocalProjector) -> np.ndarray:
    """Ascending spectrum of the Hamiltonian H = B B^T (`range_gram`).

    When B has m < dim columns and P is not diagonal, this is the spectrum of
    the m x m Gram matrix G = B^T B plus dim - m exact zeros; otherwise H is
    assembled and solved (a diagonal P gives a diagonal H, sorted without
    LAPACK).  H is exactly symmetric and G is read from its lower triangle,
    so neither is checked for symmetry.
    """
    m = spec.n_terms * P.r * P.d ** (spec.sites - 2)
    if m >= spec.dim or np.count_nonzero(P.matrix) == np.count_nonzero(np.diagonal(P.matrix)):
        return dense_spectrum(dense_hamiltonian(spec, P), check_symmetry=False)
    levels = dense_spectrum(range_gram(spec, P), check_symmetry=False)
    return np.sort(np.concatenate([np.zeros(spec.dim - m), levels]))


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _orthonormalize(r: np.ndarray, basis: np.ndarray, ref: float):
    """The row `r` projected off the orthonormal rows of `basis`, normalized.

    One classical Gram-Schmidt pass with coefficients c = basis @ r.T, and a
    second pass when this one cut r below 1/sqrt(2) of its input norm (Daniel,
    Gragg, Kaufman & Stewart).  Returns (q, c, beta) with the projected
    r = beta @ q; q is empty when the projected r falls below _DROP_RTOL * ref.
    """
    before = _row_norms(r)
    c = basis @ r.T
    r = r - c.T @ basis
    norms = _row_norms(r)
    if norms[0] < before[0] * _DGKS_RATIO:
        c2 = basis @ r.T
        r -= c2.T @ basis
        c += c2
        norms = _row_norms(r)
    if norms[0] > _DROP_RTOL * ref:
        return r / norms[0], c, norms[:, None]
    return r[:0], c, np.empty((1, 0))


def _above(threshold: float):
    """Target rule of `smallest_eig_above`: the lowest Ritz value above `threshold`."""
    return lambda theta: np.array([np.searchsorted(theta, threshold, side="right")])


def _ground_and_gap(threshold: float):
    """Target rule of `gap_report`: the lowest Ritz value and the lowest above
    the floor, which is `threshold` when the lowest is at or below it and the
    lowest plus `threshold` otherwise."""
    def targets(theta):
        floor = threshold if theta[0] <= threshold else theta[0] + threshold
        return np.array([0, np.searchsorted(theta, floor, side="right")])
    return targets


def _lanczos(matvec, dim: int, rng: np.random.Generator, targets, *,
             res_rtol: float = DEFAULT_RES_RTOL, max_iter: int = 3000,
             max_basis: int = _MAX_BASIS, stats: SolverStats | None = None) -> np.ndarray:
    """Thick-restart Lanczos with full reorthogonalization, from a random start.

    The start vector is one row drawn from `rng`.  `targets(theta)` picks the
    wanted Ritz values among the ascending `theta` as a strictly ascending
    index array of fixed length; an index equal to theta.size marks a target
    not (yet) among them.  Returns the targets' Ritz values, all of them once
    converged; when the basis spans the whole space first (values are then
    exact), only those that are present.

    Only the basis V and the lower triangle of the projected matrix T are
    stored; the image H q of the newest vector q lives for one step.  A step:

    1. stores q and applies H to it; alpha = q (H q)^T is T's diagonal entry;
    2. subtracts from H q its components on q (alpha) and on the rows that T
       couples to q: the previous vector, or every kept Ritz vector right
       after a restart (an arrowhead);
    3. makes one classical Gram-Schmidt pass against all of V, whose
       coefficient on q is added to alpha, and a second pass only when this
       pass cut the vector below 1/sqrt(2) of its norm (DGKS);
    4. normalizes the result into the next vector; its norm beta is the next
       vector's coupling to q in T.  A result below _DROP_RTOL of ||H q||
       means the Krylov space is invariant: the iteration goes on from a new
       random vector orthogonal to V, coupled to nothing, until V spans the
       space.

    Rayleigh-Ritz runs every _RITZ_INTERVAL steps on eigh(T).  A target's
    residual estimate is |beta y_last|, y_last being its Ritz vector's entry
    on the newest vector.  The targets are accepted when all are present,
    every estimate is within tolerance and then every explicit residual
    ||H x - theta x|| (one matvec per target) is too; otherwise the
    iteration goes on, and after `max_iter` steps it raises a
    SolverConvergenceError naming its restarts and the largest target
    residual estimate of the last check.  When the basis holds `max_basis`
    rows, a thick restart keeps `max_basis // 3` Ritz vectors: each target
    below the last as its one Ritz vector, then the Ritz vectors from the
    last target up, or from the first target up while the last is not yet
    among the Ritz values.  Kernel leakage below a threshold and repeated
    copies of a converged level below the last target are thus dropped.  The
    kept vectors are V[:k] = y^T V, with T diagonal on them and coupled to the
    next vector by y_last beta.
    """
    stats = SolverStats() if stats is None else stats
    cap = min(dim, max_basis)
    keep = cap // 3
    V = np.empty((cap, dim))
    T = np.empty((cap, cap))  # kept current: the lower triangle and the diagonal

    def apply(rows):
        stats.matvec_columns += rows.shape[0]
        return np.asarray(matvec(np.ascontiguousarray(rows.T)), dtype=float).T

    def fresh(n):
        z = rng.standard_normal((1, dim))
        return _orthonormalize(z, V[:n], _row_norms(z)[0])[0]

    def residuals(values, y, n):
        if values.size == 0:
            return values
        x = y.T @ V[:n]
        return _row_norms(apply(x) - values[:, None] * x)

    q = fresh(0)
    # rows [lo:n] are coupled to the next vector q by T[n, lo:n] = coupling.T
    n = lo = 0
    coupling = np.empty((0, 1))
    for step in range(max_iter + 1):
        m = n + 1
        V[n:m] = q
        T[n:m, :lo] = 0.0
        T[n:m, lo:n] = coupling.T
        hq = apply(q)
        T[n:m, n:m] = q @ hq.T
        r = hq - T[n:m, lo:m] @ V[lo:m]
        q, c, coupling = _orthonormalize(r, V[:m], _row_norms(hq)[0])
        T[n:m, n:m] += c[n:m]
        lo, n = n, m
        stats.iterations += 1
        if q.shape[0] == 0:
            q = fresh(n)  # Krylov space invariant: continue from a new direction
            coupling = np.zeros((n - lo, q.shape[0]))
        spanned = q.shape[0] == 0  # V spans the whole space
        full = not spanned and n == cap
        if spanned or full or step % _RITZ_INTERVAL == 0 or step == max_iter:
            theta, y = np.linalg.eigh(T[:n, :n], UPLO="L")
            want = targets(theta)
            found = want[want < n]
            tol = res_rtol * max(1.0, float(np.abs(theta).max()))
            estimate = _row_norms(y[lo:n, found].T @ coupling)
            if spanned or (found.size == want.size and np.all(estimate <= tol)):
                res = residuals(theta[found], y[:, found], n)
                if spanned or np.all(res <= tol):
                    break
            if step == max_iter:
                worst = f"{estimate.max():.3e}" if estimate.size else "none"
                raise SolverConvergenceError(
                    f"no convergence after {max_iter} iterations (dim={dim}): "
                    f"{stats.restarts} restarts, {found.size} of {want.size} targets "
                    f"found, largest residual estimate {worst} against tolerance {tol:.3e}")
        if full:
            # thick restart: each target below the last as its one Ritz vector,
            # then Ritz vectors from the last target up (from the first target
            # up while the last is not among them), `keep` in all; then the
            # next vector q, which holds all of their residuals
            start = want[-1] if want[-1] < n else want[0]
            below = want[want < start]
            kept = np.concatenate([below, np.arange(start, min(start + keep - below.size, n))])
            k = kept.size
            V[:k] = y[:, kept].T @ V[:n]
            T[:k, :k] = np.diag(theta[kept])
            coupling = y[lo:n, kept].T @ coupling
            n, lo = k, 0
            stats.restarts += 1
    stats.max_residual = max(stats.max_residual, float(res.max(initial=0.0)))
    return theta[found]


def smallest_eig_above(
    matvec,
    dim: int,
    threshold: float,
    *,
    seed: RandomSeed | None = None,
    res_rtol: float = DEFAULT_RES_RTOL,
    max_iter: int = 3000,
) -> float | None:
    """Smallest eigenvalue strictly above `threshold` of a symmetric PSD operator.

    `matvec` must map a (dim, b) block of columns to the (dim, b) block of
    their images.  One Lanczos solve from a random start (substream 2 of
    `seed`): its Krylov space holds the kernel as one Ritz value below the
    threshold, and a restart keeps only Ritz vectors from the target up.
    Returns None only when the basis spans the whole space, which needs
    dim <= _MAX_BASIS = 64, without an eigenvalue above the threshold, as for
    a zero operator.
    """
    rng = (seed or RandomSeed()).generator(substream=2)
    theta = _lanczos(matvec, dim, rng, _above(threshold), res_rtol=res_rtol, max_iter=max_iter)
    return float(theta[0]) if theta.size else None


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
    The dense spectrum comes from one eigensolve of the Gram matrix of the
    interaction ranges when it is the smaller matrix, with the kernel that its
    size leaves added as exact zeros, and from H otherwise (`_dense_levels`).
    The gap is the smallest eigenvalue above the kernel threshold; if the ground
    energy itself exceeds the threshold the instance is flagged non-frustration-
    free and the gap falls back to the spacing between the two lowest distinct
    levels.  The iterative path runs one Lanczos solve from a random start
    (substream 1 of `seed`) that converges two Ritz values: the lowest, which
    is the ground energy, and the lowest above the kernel threshold (or, when
    the lowest exceeds it, above ground energy + threshold), which is the gap
    level.  There the kernel dimension of a frustration-free instance is not
    resolved (it can run to thousands of states) and comes back None; the
    report also carries the solve's work (iterations, matvec columns,
    restarts) and the largest explicit residual of an accepted Ritz pair.
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
        evals = _dense_levels(spec, P)
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

    rng = (seed or RandomSeed()).generator(substream=1)
    stats = SolverStats()
    theta = _lanczos(hamiltonian_matvec(spec, P), dim, rng, _ground_and_gap(thr),
                     res_rtol=res_rtol, stats=stats)
    if theta.size < 2:
        raise SolverConvergenceError(f"no eigenvalue found above the floor (threshold {thr:.3e})")
    ground, above = float(theta[0]), float(theta[1])
    ff = ground <= thr
    gap = above if ff else above - ground
    kd = None if ff else 0
    return SpectralReport(
        ground_energy=ground, kernel_dim=kd, gap=gap, frustration_free=ff,
        method="iterative", kernel_threshold=thr, solver_tolerance=res_rtol,
        dim=dim, n_terms=n_terms, solver=stats,
    )
