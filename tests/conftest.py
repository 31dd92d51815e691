"""Shared test helpers: seeded projector generation, small dense oracles, and
the environment for CLI subprocesses."""

import os
from pathlib import Path

import numpy as np
import pytest

import gapcert
from gapcert import RandomSeed, haar_orthogonal, projector_from_family, sample_family


def cli_env():
    """Environment for a `python -m gapcert` subprocess.

    PYTHONPATH starts with the absolute directory that holds the imported
    `gapcert`, so the child runs the package under test from any working
    directory, also when the parent found it through a relative entry such as
    `PYTHONPATH=src`.
    """
    env = dict(os.environ)
    root = str(Path(gapcert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    return env


def random_projector(d, r, master, trial=0):
    """Projector sampled through the library path, seeded."""
    return projector_from_family(sample_family(d, r, RandomSeed(master, trial)))


def random_projector_matrix(dim, rank, master, trial=0):
    """Plain rank-`rank` projector matrix in the given dimension (not two-site)."""
    o = haar_orthogonal(dim, RandomSeed(master, trial))
    v = o[:, :rank]
    m = v @ v.T
    return 0.5 * (m + m.T)


def kron_chain_oracle(p_matrix, d, L):
    """Literal Kronecker-product assembly of the chain Hamiltonian (test oracle)."""
    dim = d**L
    h = np.zeros((dim, dim))
    for j in range(1, L):
        h += np.kron(np.kron(np.eye(d ** (j - 1)), p_matrix), np.eye(d ** (L - j - 1)))
    return h


def kron_edge_oracle(q_matrix, d, sites, first, second):
    """Elementary-matrix Kronecker assembly of one edge term (test oracle): the
    d^2 x d^2 matrix q with its first tensor factor on site ``first`` and its
    second on site ``second``, in either order, and the identity elsewhere.

    The term is built as a sum over d^4 elementary single-site factors,
    independent of the production tensor routines.
    """
    qt = q_matrix.reshape(d, d, d, d)
    h = np.zeros((d**sites, d**sites))
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    coeff = qt[a, b, c, e]
                    if coeff == 0.0:
                        continue
                    term = np.ones((1, 1))
                    for site in range(sites):
                        if site == first:
                            factor = np.zeros((d, d))
                            factor[a, c] = 1.0
                        elif site == second:
                            factor = np.zeros((d, d))
                            factor[b, e] = 1.0
                        else:
                            factor = np.eye(d)
                        term = np.kron(term, factor)
                    h += coeff * term
    return h


def kron_tree_oracle(p_matrix, d, k, L):
    """Kronecker assembly of the tree Hamiltonian, edge by edge (test oracle)."""
    from gapcert import tree_edges, tree_vertex_count

    v_count = tree_vertex_count(k, L)
    h = np.zeros((d**v_count, d**v_count))
    for parent, child in tree_edges(k, L):
        h += kron_edge_oracle(p_matrix, d, v_count, parent, child)
    return h


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
