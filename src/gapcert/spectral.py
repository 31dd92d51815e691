"""Ground energy, kernel dimension, and spectral gap computation.

Two routes are provided and cross-validated in the test suite:

* a dense oracle (`dense_spectrum`) for dimensions up to DENSE_DIM_LIMIT.
  The Hamiltonian is H = B B^T, B holding the n_terms r d^(sites-2) = m
  columns of the interaction ranges on every edge (`range_gram`), so when
  m < dim the dense path of `gap_report` solves the m x m Gram matrix
  G = B^T B and adds the dim - m zeros of the kernel that B leaves; H is
  assembled and solved when m >= dim.  A diagonal P gives a diagonal H,
  read off as H 1 from the matvec and sorted;
* a matrix-free thick-restart Lanczos iteration with partial
  reorthogonalization (the iterative path of `gap_report`, and
  `smallest_eig_above`).

The Lanczos core expands a single vector per step.  It stores the basis V
(row-major, one row per vector) and the projected matrix T, and no images
H V: the image of the newest vector q lives for one step.  A step is the
three-term recurrence, H q minus its components on q and on the rows that T
couples to q (the previous vector, or every kept Ritz vector right after a
restart).  A classical Gram-Schmidt pass against all of V follows only on the
steps that owe it, and a vector that this pass cut below 1/sqrt(2) of its norm
gets a second pass (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976).
The other steps update a scalar bound on the new vector's loss of
orthogonality to V, which the full pass resets to the unit roundoff; once the
bound passes _REORTH_TOL, this step and the next owe the pass, as in the
partial reorthogonalization of Simon (Math. Comp. 42, 1984).  `SolverStats`
counts the full passes.  The recurrence gives each Ritz pair's residual norm
as |beta y_last|, where beta couples the newest vector to the next and y_last
is the Ritz vector's last entry; pairs whose estimates are all within
tolerance are accepted only after one explicit residual ||H x - theta x||
each confirms them.  Rayleigh-Ritz runs
_RITZ_INTERVAL steps after the last check, or sooner or later where the
estimates say they can pass: once two checks have found every target and the
worst estimate fell between them, the next check comes at the step where that
fall, extrapolated geometrically, reaches the tolerance.  The basis holds at
most _MAX_BASIS = 48 rows, so a full Gram-Schmidt pass and a Rayleigh-Ritz
eigh stay small; a full basis is thick-restarted onto a third of its rows,
Ritz vectors formed as V y with T diagonal on them (Wu & Simon, SIAM J.
Matrix Anal. Appl. 22, 2000).  A restart keeps each target below the last as
its one Ritz vector and the Ritz vectors from the last target up.  Rounding lets a converged kernel
reappear in the Krylov space as further Ritz values near 0; keeping them would
fill the kept window with copies of the kernel, so the restart purges them
(the purging of Lehoucq & Sorensen, SIAM J. Matrix Anal. Appl. 17, 1996).

`_ground_and_gap` picks the ground and the gap level among ascending values,
the dense levels and a solve's Ritz values alike: the lowest, and the lowest
above a floor, which is the kernel threshold when the lowest is at or below it
(frustration-free) and the lowest plus the threshold otherwise (the next
distinct level).  For frustration-free operators the kernel can be huge
(thousands of states for moderate chains), so the gap is not reached by
enumerating low eigenvalues.  A single-vector Krylov space holds each distinct
level once (Parlett, The Symmetric Eigenvalue Problem, ch. 12): started from a
random vector it resolves the whole reachable kernel as one Ritz value, the
ground energy, and the gap level as the next one, so `gap_report` runs one
solve that converges both targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDimensionError, SolverConvergenceError
from .haar import RandomSeed
from .model import (
    DENSE_DIM_LIMIT,
    ChainSpec,
    LocalProjector,
    TreeSpec,
    _check_dense,
    _solver_matvec,
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

#: Lanczos steps between Rayleigh-Ritz checks while the residual estimates
#: give no schedule (an eigh of T costs far more than a step)
_RITZ_INTERVAL = 8

#: basis rows of one solve (at most dim): bounds the Gram-Schmidt pass and the
#: Ritz eigh of every check; a thick restart keeps a third.  Of the caps 32 to 64,
#: 48 solves d=3 trees of dim 2187 fastest and d=3 chains of that dim within 9%
#: of the fastest (32, which loses trees)
_MAX_BASIS = 48

#: a new direction whose norm fell below this share of its input is dropped
_DROP_RTOL = 1e-10

#: a vector that one Gram-Schmidt pass cut below this share of its norm gets a second pass
_DGKS_RATIO = 2**-0.5

#: a step skips the full Gram-Schmidt pass while the bound on the new vector's
#: loss of orthogonality stays at or below this
_REORTH_TOL = 1e-10

_EPS = float(np.finfo(float).eps)


def default_kernel_threshold(n_terms: int) -> float:
    return KERNEL_EPS_PER_TERM * max(1, n_terms)


@dataclass
class SolverStats:
    """Work of one iterative solve (an iterative `gap_report` runs one)."""

    iterations: int = 0  # Lanczos steps
    matvec_columns: int = 0  # vectors H was applied to
    restarts: int = 0
    ritz_checks: int = 0  # Rayleigh-Ritz checks (eigh of T)
    full_passes: int = 0  # steps that ran the full Gram-Schmidt pass against the basis
    max_residual: float = 0.0  # largest explicit residual of a returned Ritz pair
    residuals: tuple[float, ...] = ()  # explicit residual of each returned Ritz pair


@dataclass(frozen=True)
class SpectralReport:
    """Spectral summary of one Hamiltonian instance.

    `solver` holds the work of the iterative path (None on the dense path).
    """

    ground_energy: float
    kernel_dim: int | None
    gap: float | None
    frustration_free: bool
    method: str
    kernel_threshold: float
    dim: int
    n_terms: int
    solver: SolverStats | None = None


def dense_spectrum(h: np.ndarray, check_symmetry: bool = True) -> np.ndarray:
    """Full ascending spectrum of a dense symmetric matrix (LAPACK `eigvalsh`).

    Refuses dimensions above DENSE_DIM_LIMIT; a 0 x 0 matrix has the empty
    spectrum.  LAPACK reads only the lower triangle, so with
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
        scale = float(np.abs(h).max(initial=1.0))
        asym = float(np.abs(h - h.T).max(initial=0.0))
        if asym > 1e-10 * scale:
            raise DomainError(f"matrix is not symmetric: max |H - H^T| = {asym:.3e}")
    return np.linalg.eigvalsh(h)


def _dense_levels(spec: ChainSpec | TreeSpec, P: LocalProjector) -> np.ndarray:
    """Ascending spectrum of the Hamiltonian H = B B^T (`range_gram`).

    A diagonal P gives a diagonal H, whose diagonal is H 1, read off without
    a dim^2 array or LAPACK.  The matvec sums a pair of edges into one block
    before it adds the block to the state, in another order than
    `dense_hamiltonian` adds the same entries; the sorted H 1 equals the
    sorted diagonal of H bit for bit where each diagonal sum is exact, as for
    the 0/1 entries of `reference_projector`.  Otherwise, when B has m < dim
    columns, this is the spectrum of the m x m Gram matrix G = B^T B plus
    dim - m exact zeros, and for m >= dim H is assembled and solved.  H is
    exactly symmetric and G is read from its lower triangle, so neither is
    checked for symmetry.  Every route refuses dimensions above
    DENSE_DIM_LIMIT.
    """
    if np.count_nonzero(P.matrix) == np.count_nonzero(np.diagonal(P.matrix)):
        _check_dense(spec, P)
        return np.sort(hamiltonian_matvec(spec, P)(np.ones(spec.dim)))
    m = spec.n_terms * P.r * P.d ** (spec.sites - 2)
    if m >= spec.dim:
        return dense_spectrum(dense_hamiltonian(spec, P), check_symmetry=False)
    levels = dense_spectrum(range_gram(spec, P), check_symmetry=False)
    return np.sort(np.concatenate([np.zeros(spec.dim - m), levels]))


def _orthonormalize(r: np.ndarray, basis: np.ndarray, ref: float):
    """The vector `r` projected off the orthonormal rows of `basis`, normalized.

    One classical Gram-Schmidt pass with coefficients c = basis @ r, and a
    second pass when this one cut r below 1/sqrt(2) of its input norm (Daniel,
    Gragg, Kaufman & Stewart).  Returns (q, c, beta) with the projected
    r = beta q; when that falls below _DROP_RTOL * ref, q is None and beta 0.
    """
    before = math.sqrt(r @ r)
    c = basis @ r
    r = r - c @ basis
    beta = math.sqrt(r @ r)
    if beta < before * _DGKS_RATIO:
        c2 = basis @ r
        r -= c2 @ basis
        c += c2
        beta = math.sqrt(r @ r)
    if beta > _DROP_RTOL * ref:
        return r / beta, c, beta
    return None, c, 0.0


def _ground_and_gap(threshold: float):
    """Target rule of every solve and of the dense levels: the lowest value and
    the lowest above the floor, which is `threshold` when the lowest is at or
    below it and the lowest plus `threshold` otherwise."""
    def targets(theta):
        floor = threshold if theta[0] <= threshold else theta[0] + threshold
        return np.array([0, np.searchsorted(theta, floor, side="right")])
    return targets


def _lanczos(matvec, dim: int, rng: np.random.Generator, targets, *, max_iter: int = 3000,
             max_basis: int = _MAX_BASIS, stats: SolverStats | None = None) -> np.ndarray:
    """Thick-restart Lanczos with partial reorthogonalization, from a random start.

    The start vector is drawn from `rng`.  `targets(theta)` picks the wanted
    Ritz values among the ascending `theta` as a strictly ascending index
    array of fixed length; an index equal to theta.size marks a target not
    (yet) among them.  Returns the targets' Ritz values, all of them once
    converged; when the basis spans the whole space first (values are then
    exact), only those that are present.

    Only the basis V and the lower triangle of the projected matrix T are
    stored; the image H q of the newest vector q lives for one step.  Vectors
    are 1-D and `matvec` gets them one at a time; T's row n, that of the next
    vector, holds its coupling T[n, lo:n] to the rows [lo:n].  A step:

    1. stores q and applies H to it; alpha = q . H q is T's diagonal entry;
    2. subtracts from H q its components on q (alpha) and on the rows that T
       couples to q: the previous vector, or every kept Ritz vector right
       after a restart (an arrowhead);
    3. makes the full pass, when the step owes it: one classical
       Gram-Schmidt pass against all of V, whose coefficient on q is added to
       alpha, and a second pass only when this pass cut the vector below
       1/sqrt(2) of its norm (DGKS).  Steps 0 and 1 owe it, as do the two
       steps after each thick restart, from the arrowhead row on, and a step
       whose recurrence left less than _DROP_RTOL of ||H q||.  Every other
       step updates m, a bound on the largest overlap of the next vector with
       V, from m and m_prev of the vector before (Simon's omega recurrence
       reduced to one scalar per vector, and larger than it):

           m_next = ((2 b + max(a_hi - alpha, alpha - a_lo)) m
                     + beta_prev m_prev + eps ||H q||) / beta,

       b being the largest coupling so far (each beta, and each |T[k, i]| of
       a restart's arrowhead) and [a_lo, a_hi] the range of the alphas and
       kept Ritz values so far.  Once m_next passes _REORTH_TOL, this step
       and the next owe the full pass; the pass sets the bound of its vector
       to eps.  `stats.full_passes` counts the steps that made it;
    4. normalizes the result into the next vector; its norm beta is the next
       vector's coupling to q in T.  A result below _DROP_RTOL of ||H q||
       after the full pass means the Krylov space is invariant: the
       iteration goes on from a new random vector orthogonal to V, coupled to
       nothing, until V spans the space.

    Rayleigh-Ritz runs on eigh(T) at step 0, when the basis is full or spans
    the space, at `max_iter`, and at a scheduled step.  A target's residual
    estimate is |beta y_last|, y_last being its Ritz vector's entry on the
    newest vector.  The targets are accepted when all are present, every
    estimate is within tolerance and then every explicit residual
    ||H x - theta x|| is too, H applied to the targets' Ritz vectors as one
    (dim, k) block.  Otherwise the next check is scheduled: with w the worst
    estimate in units of the tolerance, a check that found every target with
    w_prev > w > 1, w_prev that of the last check before it that found every
    target, schedules the step where the geometric fall from w_prev to w
    reaches 1, step + max(1, ceil(log(w) / rate)) with rate = log(w_prev / w)
    per step; every other check schedules step + _RITZ_INTERVAL.  The
    iteration goes on, and after `max_iter` steps it raises a
    SolverConvergenceError naming its restarts and the largest target residual
    estimate of the last check.  When the basis holds
    `max_basis` rows, a thick restart keeps `max_basis // 3` Ritz vectors:
    each target below the last as its one Ritz vector, then the Ritz vectors
    from the last target up, or from the first target up while the last is
    not yet among the Ritz values.  Kernel leakage below a threshold and
    repeated copies of a converged level below the last target are thus
    dropped.  The kept vectors are V[:k] = y^T V, with T diagonal on them and
    coupled to the next vector by y_last beta; they keep the orthogonality of
    the rows they are formed from and are not orthonormalized again.
    """
    stats = SolverStats() if stats is None else stats
    cap = min(dim, max_basis)
    keep = cap // 3
    V = np.empty((cap, dim))
    T = np.empty((cap + 1, cap))  # kept current: the lower triangle, the diagonal, row n

    def apply(x):
        stats.matvec_columns += x.size // dim
        return np.asarray(matvec(x), dtype=float)

    def fresh(n):
        z = rng.standard_normal(dim)
        return _orthonormalize(z, V[:n], math.sqrt(z @ z))[0]

    q = fresh(0)
    n = lo = 0
    check = 0  # step of the next scheduled Rayleigh-Ritz check
    last = None  # (step, w) of the last check that found every target
    owed = 2  # steps that owe a full pass: the first two, and two after each restart
    m = m_prev = _EPS  # loss-of-orthogonality bounds of the newest vector and the one before
    b, a_lo, a_hi = 0.0, math.inf, -math.inf  # largest coupling; range of alpha and kept theta
    for step in range(max_iter + 1):
        V[n] = q
        hq = apply(q)
        alpha = T[n, n] = q @ hq
        ref = math.sqrt(hq @ hq)
        r = hq - T[n, lo:n + 1] @ V[lo:n + 1]
        if not owed:
            beta_prev, beta = beta, math.sqrt(r @ r)
            if beta <= _DROP_RTOL * ref:
                owed = 1  # the drop test fires: a full pass decides
            else:
                bound = ((2.0 * b + max(a_hi - alpha, alpha - a_lo)) * m
                         + beta_prev * m_prev + _EPS * ref) / beta
                if bound > _REORTH_TOL:
                    owed = 2  # this step and the next (Simon)
                else:
                    q, m, m_prev = r / beta, bound, m
        if owed:
            q, c, beta = _orthonormalize(r, V[:n + 1], ref)
            alpha += c[n]
            T[n, n] = alpha
            m, m_prev = _EPS, m
            owed -= 1
            stats.full_passes += 1
        b, a_lo, a_hi = max(b, beta), min(a_lo, alpha), max(a_hi, alpha)
        lo, n = n, n + 1
        stats.iterations += 1
        if q is None:
            q = fresh(n)  # Krylov space invariant: continue from a new direction
        spanned = q is None  # V spans the whole space
        full = not spanned and n == cap
        T[n, :n] = 0.0
        T[n, lo] = beta
        if spanned or full or step == check or step == max_iter:
            stats.ritz_checks += 1
            theta, y = np.linalg.eigh(T[:n, :n], UPLO="L")
            want = targets(theta)
            found = want[want < n]
            tol = DEFAULT_RES_RTOL * max(1.0, float(np.abs(theta).max()))
            estimate = np.abs(T[n, lo:n] @ y[lo:n, found])
            if spanned or (found.size == want.size and np.all(estimate <= tol)):
                x = V[:n].T @ y[:, found]
                res = np.linalg.norm(apply(x) - theta[found] * x, axis=0)
                if spanned or np.all(res <= tol):
                    break
            if step == max_iter:
                worst = f"{estimate.max():.3e}" if estimate.size else "none"
                raise SolverConvergenceError(
                    f"no convergence after {max_iter} iterations (dim={dim}): "
                    f"{stats.restarts} restarts, {found.size} of {want.size} targets "
                    f"found, largest residual estimate {worst} against tolerance {tol:.3e}")
            check = step + _RITZ_INTERVAL
            if found.size == want.size:
                w = float(estimate.max()) / tol
                if last is not None and last[1] > w > 1.0:
                    rate = math.log(last[1] / w) / (step - last[0])
                    check = step + max(1, math.ceil(math.log(w) / rate))
                last = step, w
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
            T[k, :k] = T[n, lo:n] @ y[lo:n, kept]
            T[:k, :k] = np.diag(theta[kept])
            n, lo = k, 0
            stats.restarts += 1
            owed = 2
            b = max(b, float(np.abs(T[k, :k]).max()))
            a_lo, a_hi = min(a_lo, theta[kept[0]]), max(a_hi, theta[kept[-1]])
    stats.max_residual = max(stats.max_residual, float(res.max(initial=0.0)))
    stats.residuals += tuple(res.tolist())
    return theta[found]


def smallest_eig_above(
    matvec,
    dim: int,
    threshold: float,
    *,
    seed: RandomSeed | None = None,
) -> float | None:
    """Smallest eigenvalue strictly above `threshold` of a symmetric PSD operator.

    `matvec` maps a vector to its image, and a (dim, b) block of columns to
    the block of their images.  One Lanczos solve with `gap_report`'s target
    rule `_ground_and_gap(threshold)` from a random start (substream 2 of
    `seed`) returns the ground and the lowest level above its floor; the
    result is the lowest of them above the threshold.  Returns None only when
    the basis spans the whole space, which needs dim <= _MAX_BASIS = 48,
    without an eigenvalue above the threshold, as for a zero operator.
    """
    rng = (seed or RandomSeed()).generator(substream=2)
    theta = _lanczos(matvec, dim, rng, _ground_and_gap(threshold))
    above = theta[theta > threshold]
    return float(above[0]) if above.size else None


def gap_report(
    spec: ChainSpec | TreeSpec,
    P: LocalProjector,
    *,
    method: str = "auto",
    kernel_threshold: float | None = None,
    seed: RandomSeed | None = None,
) -> SpectralReport:
    """Ground energy, kernel dimension, and spectral gap of one Hamiltonian.

    method: "dense" (full spectrum, refuses dim > DENSE_DIM_LIMIT),
    "iterative" (matrix-free), or "auto" (dense at or below AUTO_DENSE_LIMIT).
    The dense levels come from `_dense_levels`; the iterative path runs one
    Lanczos solve from a random start (substream 1 of `seed`), on the
    solver's site order (`_solver_matvec`): a permutation similarity of H that
    moves only the coordinates of the start vector.  Both pick the
    ground energy and the gap level with `_ground_and_gap`: the lowest value,
    and the lowest above the kernel threshold.  If the ground energy itself
    exceeds the threshold the instance is flagged non-frustration-free, its
    kernel dimension is 0 and the gap is the spacing to the next distinct
    level, the lowest above ground energy + threshold.  The dense kernel
    dimension counts the levels at or below the threshold; the iterative one
    of a frustration-free instance is not resolved (it can run to thousands
    of states) and comes back None.  The gap is None when no level lies above
    the floor, as for H = I; the iterative path then has spanned the whole
    space, so both methods report it alike.  An iterative report also carries
    the solve's work (`SolverStats`).

    An iterative gap is a Ritz value within its residual of an eigenvalue, but
    a Lanczos solve cannot rule out a missed level: a level whose eigenspace
    the start vector barely touches may converge after the targets, or never
    (an eigenspace orthogonal to the start vector is never seen), and the
    reported gap is then a higher level.  The dense path sees every level.
    """
    dim = spec.dim
    n_terms = spec.n_terms
    thr = default_kernel_threshold(n_terms) if kernel_threshold is None else kernel_threshold
    if method == "auto":
        method = "dense" if dim <= AUTO_DENSE_LIMIT else "iterative"
    if method not in ("dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if n_terms == 0:
        return SpectralReport(
            ground_energy=0.0, kernel_dim=dim, gap=None, frustration_free=True,
            method="trivial", kernel_threshold=thr, dim=dim, n_terms=0,
        )
    stats = None
    if method == "dense":
        levels = _dense_levels(spec, P)
        want = _ground_and_gap(thr)(levels)
        theta = levels[want[want < dim]]
        kd = int(np.searchsorted(levels, thr, side="right"))
    else:
        rng = (seed or RandomSeed()).generator(substream=1)
        stats = SolverStats()
        theta = _lanczos(_solver_matvec(spec, P), dim, rng, _ground_and_gap(thr), stats=stats)
        kd = None
    ground = float(theta[0])
    ff = ground <= thr
    gap = None if theta.size < 2 else float(theta[1] if ff else theta[1] - theta[0])
    return SpectralReport(
        ground_energy=ground, kernel_dim=kd if ff else 0, gap=gap, frustration_free=ff,
        method=method, kernel_threshold=thr, dim=dim, n_terms=n_terms, solver=stats,
    )
