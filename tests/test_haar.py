"""Sampling correctness: orthogonality, reproducibility, and Haar statistics."""

import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest

import gapcert.haar as haar
from gapcert import (
    CapQuery,
    InvalidDimensionError,
    InvalidRankError,
    OrthonormalFamily,
    RandomSeed,
    cap_measure_exact,
    haar_orthogonal,
    sample_family,
    sample_family_batch,
    sample_sphere,
    sphere_blocks,
)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
def test_orthogonality(n):
    o = haar_orthogonal(n, RandomSeed(7, n))
    assert np.abs(o.T @ o - np.eye(n)).max() < 1e-12


def test_one_dimensional_sign_coverage():
    vals = [haar_orthogonal(1, RandomSeed(1, t))[0, 0] for t in range(200)]
    assert all(abs(abs(v) - 1.0) < 1e-12 for v in vals)
    assert any(v > 0 for v in vals) and any(v < 0 for v in vals)


def test_zero_dimension_rejected():
    with pytest.raises(InvalidDimensionError):
        haar_orthogonal(0, RandomSeed())


def test_seed_validation():
    with pytest.raises(ValueError):
        RandomSeed(-1, 0)
    with pytest.raises(ValueError):
        RandomSeed(0, 2**64)
    # int() would truncate 1.5 to seed 1's stream
    for fields in ((1.5, 0), (0, 2.0), (1.0, 1)):
        with pytest.raises(TypeError):
            RandomSeed(*fields)
    seed = RandomSeed(np.uint64(2**64 - 1), np.int32(3))
    assert seed == RandomSeed(2**64 - 1, 3) and type(seed.master_seed) is int


def test_bit_reproducible_same_process():
    a = haar_orthogonal(6, RandomSeed(123, 45))
    b = haar_orthogonal(6, RandomSeed(123, 45))
    assert np.array_equal(a, b)
    c = haar_orthogonal(6, RandomSeed(123, 46))
    assert not np.array_equal(a, c)


def test_bit_reproducible_across_processes():
    fam = sample_family(3, 2, RandomSeed(99, 5))
    digest = hashlib.sha256(fam.vectors.tobytes()).hexdigest()
    code = (
        "from gapcert import sample_family, RandomSeed; import hashlib;"
        "f = sample_family(3, 2, RandomSeed(99, 5));"
        "print(hashlib.sha256(f.vectors.tobytes()).hexdigest())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == digest


def test_substreams_do_not_collide():
    seed = RandomSeed(5, 9)
    a = seed.generator().standard_normal(8)
    b = seed.generator(substream=1).standard_normal(8)
    assert not np.allclose(a, b)


def test_entry_mean_is_haar_symmetric():
    # entries of a Haar orthogonal matrix have mean 0 and variance 1/n
    n, trials = 4, 10_000
    cols = sample_family_batch(2, 1, master_seed=11, start=0, count=trials)
    entries = cols[:, 0, 0]  # O_{11} of each sample
    se = math.sqrt(1.0 / n / trials)
    assert abs(entries.mean()) < 4.0 * se


def test_family_gram_identity():
    fam = sample_family(3, 2, RandomSeed(3, 3))
    assert np.abs(fam.vectors @ fam.vectors.T - np.eye(2)).max() < 1e-12
    single = sample_family(2, 1, RandomSeed(3, 4))
    assert abs(np.linalg.norm(single.vectors[0]) - 1.0) < 1e-12


def test_family_rank_validation():
    with pytest.raises(InvalidRankError):
        sample_family(2, 5, RandomSeed())
    with pytest.raises(InvalidRankError):
        sample_family(2, 0, RandomSeed())
    with pytest.raises(InvalidDimensionError):
        sample_family(1, 1, RandomSeed())


def test_family_constructor_rejects_non_orthonormal():
    vecs = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        OrthonormalFamily(d=2, r=2, vectors=vecs)


def _oracle(d, r, master, trial):
    """First r columns of a full sign-fixed QR of a fresh generator's draw, as rows,
    and the condition number of the Gaussian columns they come from."""
    n = d * d
    gen = np.random.Generator(np.random.Philox(key=np.array([master, trial], dtype=np.uint64)))
    gauss = gen.standard_normal((n, n))
    q, tri = np.linalg.qr(gauss)
    q = q * np.where(np.diag(tri) >= 0.0, 1.0, -1.0)
    return q[:, :r].T, np.linalg.cond(gauss[:, :r])


def _assert_matches_oracle(vectors, d, r, master, trial):
    # the thin QR reproduces the full one bit for bit at r = 1 and r = d^2; in
    # between the two differ by rounding, which grows with the conditioning of
    # the kept columns (measured: at most 1.5 eps x cond, and 2.2e-14 at worst,
    # over 1000 trials of every d = 2..5 and 1 < r < d^2)
    expected, cond = _oracle(d, r, master, trial)
    if r in (1, d * d):
        assert np.array_equal(vectors, expected)
    diff = np.abs(vectors - expected).max()
    assert diff <= 4.0 * np.finfo(float).eps * cond
    return diff


def test_batch_matches_per_trial_loop():
    batch = sample_family_batch(2, 1, master_seed=17, start=3, count=6)
    for i in range(6):
        fam = sample_family(2, 1, RandomSeed(17, 3 + i))
        assert np.array_equal(batch[i], fam.vectors)
        _assert_matches_oracle(batch[i], 2, 1, 17, 3 + i)


@pytest.mark.parametrize("d, r, count", [(3, 1, 200), (3, 2, 200), (3, 9, 200)])
def test_batch_matches_per_trial_loop_large(d, r, count):
    batch = sample_family_batch(d, r, master_seed=17, start=3, count=count)
    assert batch.shape == (count, r, d * d)
    for i in range(count):
        fam = sample_family(d, r, RandomSeed(17, 3 + i))
        assert np.array_equal(batch[i], fam.vectors)
        _assert_matches_oracle(batch[i], d, r, 17, 3 + i)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_batch_matches_full_qr_oracle_at_every_rank(d):
    for r in range(1, d * d + 1):
        batch = sample_family_batch(d, r, master_seed=29, start=1000 * r, count=40)
        worst = max(_assert_matches_oracle(batch[i], d, r, 29, 1000 * r + i) for i in range(40))
        assert worst <= 1e-14  # this sample's draws are well conditioned


def test_second_vector_entry_moments():
    # every column of a Haar orthogonal matrix is uniform on the sphere, so the
    # second vector's entries also have mean 0 and variance 1/n
    d, n, trials = 2, 4, 20_000
    second = sample_family_batch(d, 2, master_seed=13, start=0, count=trials)[:, 1, :]
    se_mean = math.sqrt(1.0 / n / trials)
    se_var = math.sqrt((3.0 / (n * (n + 2)) - 1.0 / n**2) / trials)
    for coord in range(n):
        assert abs(second[:, coord].mean()) < 4.0 * se_mean
        assert abs((second[:, coord] ** 2).mean() - 1.0 / n) < 4.0 * se_var


def test_batch_validates_dimension_and_rank():
    with pytest.raises(InvalidRankError):
        sample_family_batch(2, 5, master_seed=0, start=0, count=1)
    with pytest.raises(InvalidRankError):
        sample_family_batch(2, 0, master_seed=0, start=0, count=0)
    with pytest.raises(InvalidDimensionError):
        sample_family_batch(1, 1, master_seed=0, start=0, count=1)
    assert sample_family_batch(3, 2, master_seed=0, start=0, count=0).shape == (0, 2, 9)


def test_batch_stream_range_validated():
    last = sample_family_batch(2, 1, master_seed=5, start=2**64 - 1, count=1)
    assert np.array_equal(last[0], sample_family(2, 1, RandomSeed(5, 2**64 - 1)).vectors)
    _assert_matches_oracle(last[0], 2, 1, 5, 2**64 - 1)
    tail = sample_family_batch(2, 1, master_seed=5, start=2**64 - 3, count=3)
    for i in range(3):
        _assert_matches_oracle(tail[i], 2, 1, 5, 2**64 - 3 + i)
    with pytest.raises(ValueError):
        sample_family_batch(2, 1, master_seed=5, start=2**64 - 2, count=3)
    with pytest.raises(ValueError):
        sample_family_batch(2, 1, master_seed=2**64, start=0, count=1)
    # the Python-int state reaches the top of the key range in both words
    top = 2**64 - 1
    last = sample_family_batch(2, 1, master_seed=top, start=top, count=1)
    _assert_matches_oracle(last[0], 2, 1, top, top)
    tail = sample_family_batch(3, 1, master_seed=top, start=top - 3, count=3)
    for i in range(3):
        _assert_matches_oracle(tail[i], 3, 1, top, top - 3 + i)
    for master_seed, start in ((1.5, 0), (1, 0.0)):
        with pytest.raises(TypeError):
            sample_family_batch(3, 1, master_seed, start, 1)
    numpy_ints = sample_family_batch(2, 1, np.uint64(5), np.int64(3), 2)
    assert np.array_equal(numpy_ints, sample_family_batch(2, 1, 5, 3, 2))


def test_first_column_is_normalized_gaussian_column():
    # with the positive-diagonal convention the first orthogonal column equals
    # the normalized first Gaussian column, which justifies sample_sphere
    seed = RandomSeed(31, 2)
    gauss = seed.generator().standard_normal((9, 9))
    o = haar_orthogonal(9, seed)
    expected = gauss[:, 0] / np.linalg.norm(gauss[:, 0])
    assert np.abs(o[:, 0] - expected).max() < 1e-13


def test_sphere_coordinate_moments():
    # coordinates of a uniform point on S^(m-1) have mean 0 and variance 1/m
    m, trials = 4, 100_000
    pts = sample_sphere(m - 1, trials, RandomSeed(23, 0))
    se_mean = math.sqrt(1.0 / m / trials)
    var_x2 = 3.0 / (m * (m + 2)) - 1.0 / m**2
    se_var = math.sqrt(var_x2 / trials)
    for coord in range(m):
        assert abs(pts[:, coord].mean()) < 4.0 * se_mean
        assert abs((pts[:, coord] ** 2).mean() - 1.0 / m) < 4.0 * se_var


def test_cap_frequency_matches_exact_measure():
    # Euclidean ball of radius 1/2 around a fixed unit vector is a spherical
    # cap of radius 2*arcsin(1/4); frequencies must match the exact measure
    trials = 100_000
    vecs = sample_family_batch(2, 1, master_seed=8, start=0, count=trials)[:, 0, :]
    target = np.array([1.0, 0.0, 0.0, 0.0])
    freq = float(np.mean(np.linalg.norm(vecs - target, axis=1) < 0.5))
    p = cap_measure_exact(CapQuery(3, 2.0 * math.asin(0.25)))
    se = math.sqrt(p * (1.0 - p) / trials)
    assert abs(freq - p) < 4.0 * se


@pytest.mark.parametrize("n,count,block_bytes", [(3, 1000, 8 * 4 * 37), (40, 257, 8 * 41 * 16),
                                                 (999, 5, 8 * 500)])
def test_sphere_blocks_are_the_one_shot_draw(monkeypatch, n, count, block_bytes):
    # blocks of 37 and 16 points with a short last block, and one point per
    # block when a point outgrows the block size: stacked, they are the
    # one-shot draw bit for bit, so cap-table's hit counts do not change
    monkeypatch.setattr(haar, "SPHERE_BLOCK_BYTES", block_bytes)
    seed = RandomSeed(41, n)
    blocks = list(sphere_blocks(n, count, seed))
    rows = max(1, block_bytes // (8 * (n + 1)))
    assert [b.shape[0] for b in blocks] == [min(rows, count - i) for i in range(0, count, rows)]
    one_shot = sample_sphere(n, count, seed)
    assert np.array_equal(np.concatenate(blocks), one_shot)
    cos = math.cos(1.2)
    assert sum(int(np.sum(b[:, 0] > cos)) for b in blocks) == int(np.sum(one_shot[:, 0] > cos))
