"""Seeded sampling of Haar-distributed orthogonal matrices and orthonormal families.

Sampling recipe: fill an n x n matrix with i.i.d. standard normals, take its QR
factorization, and flip column signs so the triangular factor has a nonnegative
diagonal.  The sign fix is required: without it the QR output is not uniform on
the orthogonal group (Mezzadri, Notices AMS 54, 592, 2007).

A family keeps only the first r columns.  Householder reflector k of a QR
touches columns k and later only, so the first r columns of the orthogonal
factor, and the first r diagonal entries of the triangular one, depend on the
first r Gaussian columns alone.  A family is therefore the sign-fixed Q of the
thin QR of those n x r columns: the same Haar (uniform Stiefel) sample, at a
fraction of the cost.  The full n x n Gaussian is still drawn, so each trial
consumes the same stream.  At r = 1 the vector is bit-identical to the first
column of the full QR (LAPACK builds it from reflector 1 alone), and so is the
whole family at r = n; in between the two differ by rounding, a few ulps
times the condition number of the kept columns.

Randomness is counter based.  Every sample is drawn from a Philox-4x64 stream
keyed by ``(master_seed, stream_index)``, so a given seed pair always yields a
bit-identical sample, independent of process, thread count, or call order.
Normal variates come from numpy's ``Generator.standard_normal`` (ziggurat
transform), which is deterministic for a pinned numpy version.  Since a
stream is fixed by its key alone, a batch re-keys one generator in place for
each trial (key set, counter zero, buffer empty) and draws exactly what a
freshly built generator would.  The state it writes holds Python ints, not
uint64 arrays: numpy's ``Philox.state`` setter reads the key, counter and
buffer one entry at a time, and 4096 re-keys of one state take 1.6 ms from
lists against 4.1 ms from arrays (numpy 2.4.6, 2-CPU x86-64).  The 0.6 us
saved per re-key is an eighth of a 4.9 us event-frequency trial at d = 3.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimensionError, InvalidRankError

_U64 = np.uint64
_GRAM_TOL = 1e-12

#: most coordinates of a sampled sphere point: 128 MB of doubles.  It bounds
#: one sampled point, not a solve, so `model.MEMORY_BUDGET` does not set it
MAX_SPHERE_COORDS = 2**24

#: bytes of the row blocks `sphere_blocks` draws a sample in (at least one point each)
SPHERE_BLOCK_BYTES = 2**23


@dataclass(frozen=True)
class RandomSeed:
    """Key of one random stream: a master seed plus a stream (trial) index.

    Each field is an integer (numpy integers pass `operator.index`, a float is
    refused with a TypeError) in [0, 2**64), stored as a Python int.
    """

    master_seed: int = 0
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            v = operator.index(getattr(self, name))
            if not 0 <= v < 2**64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")
            object.__setattr__(self, name, v)

    def generator(self, substream: int = 0) -> np.random.Generator:
        """Generator for this stream; ``substream`` selects a jumped side stream.

        Substream 0 is the sampling stream.  Nonzero substreams (obtained via
        ``Philox.jumped``) are reserved for auxiliary randomness such as
        eigensolver start vectors, so they never perturb the sample sequence.
        """
        bg = np.random.Philox(key=np.array([self.master_seed, self.stream_index], dtype=_U64))
        if substream:
            bg = bg.jumped(substream)
        return np.random.Generator(bg)


def _check_site_space(d: int, r: int | None = None):
    """The site space C^d needs d >= 2, and a two-site rank, if given, 1 <= r <= d^2."""
    if d < 2:
        raise InvalidDimensionError(f"local dimension must be >= 2, got {d}")
    if r is not None and not (1 <= r <= d * d):
        raise InvalidRankError(f"rank must satisfy 1 <= r <= d^2, got r={r}, d={d}")


@dataclass(frozen=True)
class OrthonormalFamily:
    """r orthonormal real vectors in dimension d**2, stored as rows of ``vectors``."""

    d: int
    r: int
    vectors: np.ndarray = field(repr=False)
    seed: RandomSeed | None = None

    def __post_init__(self):
        _check_site_space(self.d, self.r)
        v = np.asarray(self.vectors, dtype=float)
        if v.shape != (self.r, self.d**2):
            raise InvalidDimensionError(
                f"expected vectors of shape ({self.r}, {self.d**2}), got {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("family has a NaN or infinite entry")
        gram = v @ v.T
        err = np.abs(gram - np.eye(self.r)).max()
        if err > _GRAM_TOL:
            raise ValueError(f"family is not orthonormal: max Gram deviation {err:.3e}")
        object.__setattr__(self, "vectors", v)

    @property
    def gram_error(self) -> float:
        v = self.vectors
        return float(np.abs(v @ v.T - np.eye(self.r)).max())


def haar_orthogonal(n: int, seed: RandomSeed) -> np.ndarray:
    """Draw an n x n orthogonal matrix from the Haar measure on O(n)."""
    if n < 1:
        raise InvalidDimensionError(f"matrix dimension must be >= 1, got {n}")
    a = seed.generator().standard_normal((n, n))
    return _qr_orthogonal(a)


def _qr_orthogonal(a: np.ndarray) -> np.ndarray:
    """QR with the positive-diagonal sign convention; works on stacked matrices."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    signs = np.where(diag >= 0.0, 1.0, -1.0)
    return q * signs[..., None, :]


def sample_family(d: int, r: int, seed: RandomSeed) -> OrthonormalFamily:
    """Sample a random orthonormal family: the first r columns of a Haar O(d^2) matrix."""
    vectors = sample_family_batch(d, r, seed.master_seed, seed.stream_index, 1)[0]
    return OrthonormalFamily(d=d, r=r, vectors=vectors, seed=seed)


def _check_sphere_dim(n: int):
    """S^n needs n >= 1, and its points' n + 1 coordinates at most MAX_SPHERE_COORDS."""
    if n < 1:
        raise InvalidDimensionError(f"sphere dimension must be >= 1, got {n}")
    if n + 1 > MAX_SPHERE_COORDS:
        raise InvalidDimensionError(f"sphere dimension must be <= {MAX_SPHERE_COORDS - 1} "
                                    f"(n + 1 coordinates per point), got {n}")


def sample_sphere(n: int, count: int, seed: RandomSeed) -> np.ndarray:
    """`count` independent uniform points on the sphere S^n, shape (count, n+1).

    Normalized standard normals from one stream.  This matches the marginal
    distribution of a sampled family's first vector: with the positive-diagonal
    sign convention, the first column of the orthogonal factor is exactly the
    normalized first Gaussian column.  Refuses n + 1 > MAX_SPHERE_COORDS.
    """
    _check_sphere_dim(n)
    return _sphere_rows(n, count, seed.generator())


def sphere_blocks(n: int, count: int, seed: RandomSeed):
    """The points of `sample_sphere(n, count, seed)` as consecutive row blocks.

    Yields arrays of shape (rows, n+1) of about SPHERE_BLOCK_BYTES each, drawn
    in turn from one generator: the stream is consumed in the order of the
    one-shot draw, so the blocks stacked are its points bit for bit, while
    the generator holds one block at a time.
    """
    _check_sphere_dim(n)
    gen = seed.generator()
    rows = max(1, SPHERE_BLOCK_BYTES // (8 * (n + 1)))
    for start in range(0, count, rows):
        yield _sphere_rows(n, min(rows, count - start), gen)


def _sphere_rows(n: int, count: int, gen: np.random.Generator) -> np.ndarray:
    pts = gen.standard_normal((count, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def sample_family_batch(d: int, r: int, master_seed: int, start: int, count: int) -> np.ndarray:
    """Vectors of ``sample_family(d, r, RandomSeed(master_seed, t))`` for a trial range.

    Returns an array of shape (count, r, d**2): row i is the family of stream
    index ``start + i``.  One Philox generator is re-keyed in place for each
    trial and draws that trial's n x n Gaussian; the thin QR factorizations of
    the kept columns then run as one stacked LAPACK call.  The state it is
    re-keyed from holds Python ints (see the module docstring): the same state
    as uint64 arrays, at less than half the cost of setting it.  `master_seed`
    and `start` must be integers (`operator.index`; a float is a TypeError).
    """
    _check_site_space(d, r)
    master_seed, start = operator.index(master_seed), operator.index(start)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not (0 <= master_seed < 2**64 and 0 <= start <= 2**64 - max(count, 1)):
        raise ValueError(f"master_seed and stream indices must be 64-bit unsigned integers, "
                         f"got master_seed={master_seed}, start={start}, count={count}")
    n = d**2
    key = [master_seed, 0]
    empty = [0, 0, 0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": empty, "key": key},
             "buffer": empty, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bg = np.random.Philox(key=0)
    gen = np.random.Generator(bg)
    gauss = np.empty((count, n, n))
    for i in range(count):
        key[1] = start + i
        bg.state = state
        gen.standard_normal(out=gauss[i])
    q = _qr_orthogonal(gauss[..., :r])
    return np.swapaxes(q, 1, 2).copy()
