"""Seeded sampling of Haar-distributed orthogonal matrices and orthonormal families.

Sampling recipe: fill an n x n matrix with i.i.d. standard normals, take its QR
factorization, and flip column signs so the triangular factor has a nonnegative
diagonal.  The sign fix is required: without it the QR output is not uniform on
the orthogonal group.

Randomness is counter based.  Every sample is drawn from a Philox-4x64 stream
keyed by ``(master_seed, stream_index)``, so a given seed pair always yields a
bit-identical sample, independent of process, thread count, or call order.
Normal variates come from numpy's ``Generator.standard_normal`` (ziggurat
transform), which is deterministic for a pinned numpy version.  Since a
stream is fixed by its key alone, a batch re-keys one generator in place for
each trial (key set, counter zero, buffer empty) and draws exactly what a
freshly built generator would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimensionError, InvalidRankError

_U64 = np.uint64
_GRAM_TOL = 1e-12


@dataclass(frozen=True)
class RandomSeed:
    """Key of one random stream: a master seed plus a stream (trial) index."""

    master_seed: int = 0
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            v = getattr(self, name)
            if not (0 <= int(v) < 2**64):
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")

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


@dataclass(frozen=True)
class OrthonormalFamily:
    """r orthonormal real vectors in dimension d**2, stored as rows of ``vectors``."""

    d: int
    r: int
    vectors: np.ndarray = field(repr=False)
    seed: RandomSeed | None = None

    def __post_init__(self):
        if self.d < 2:
            raise InvalidDimensionError(f"local dimension must be >= 2, got {self.d}")
        if not (1 <= self.r <= self.d**2):
            raise InvalidRankError(f"rank must satisfy 1 <= r <= d^2, got r={self.r}, d={self.d}")
        v = np.asarray(self.vectors, dtype=float)
        if v.shape != (self.r, self.d**2):
            raise InvalidDimensionError(
                f"expected vectors of shape ({self.r}, {self.d**2}), got {v.shape}"
            )
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
    if d < 2:
        raise InvalidDimensionError(f"local dimension must be >= 2, got {d}")
    if not (1 <= r <= d**2):
        raise InvalidRankError(f"rank must satisfy 1 <= r <= d^2, got r={r}, d={d}")
    o = haar_orthogonal(d**2, seed)
    return OrthonormalFamily(d=d, r=r, vectors=o[:, :r].T.copy(), seed=seed)


def sample_sphere(n: int, count: int, seed: RandomSeed) -> np.ndarray:
    """`count` independent uniform points on the sphere S^n, shape (count, n+1).

    Normalized standard normals from one stream.  This matches the marginal
    distribution of a sampled family's first vector: with the positive-diagonal
    sign convention, the first column of the orthogonal factor is exactly the
    normalized first Gaussian column.
    """
    if n < 1:
        raise InvalidDimensionError(f"sphere dimension must be >= 1, got {n}")
    pts = seed.generator().standard_normal((count, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def sample_family_batch(d: int, r: int, master_seed: int, start: int, count: int) -> np.ndarray:
    """Vectors of ``sample_family(d, r, RandomSeed(master_seed, t))`` for a trial range.

    Returns an array of shape (count, r, d**2), bit-identical to looping over
    ``sample_family`` one trial at a time (stream indices start .. start+count-1).
    One Philox generator is re-keyed for each trial, the per-trial Gaussian
    draws are collected first, and the full QR factorizations run as one
    stacked LAPACK call, which is considerably faster.
    """
    n = d**2
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count:
        RandomSeed(master_seed, start)  # refuses a range outside the 64-bit stream indices
        RandomSeed(master_seed, start + count - 1)
    bg = np.random.Philox(key=0)
    gen = np.random.Generator(bg)
    empty = np.zeros(4, dtype=_U64)
    gauss = np.empty((count, n, n))
    for i in range(count):
        bg.state = {"bit_generator": "Philox",
                    "state": {"counter": empty, "key": np.array([master_seed, start + i], dtype=_U64)},
                    "buffer": empty, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        gauss[i] = gen.standard_normal((n, n))
    q = _qr_orthogonal(gauss)
    return np.swapaxes(q[:, :, :r], 1, 2).copy()
