"""Seeded random states, isometries, POVMs, and classical-quantum states.

All draws use a counter-based Philox generator keyed by a 64-bit seed, so
every sample is reproducible from its seed alone and independent streams
can be derived cheaply by offsetting seeds.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import block_diag

from .errors import UsageError
from .spaces import LabeledOperator, SystemSpace


def generator(seed: int) -> np.random.Generator:
    """Counter-based PRNG keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(int(seed) & 0xFFFFFFFFFFFFFFFF))


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_state_matrix(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Ginibre-induced random density matrix, full rank by default."""
    rank = dim if rank is None else rank
    g = ginibre(rng, dim, rank)
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_state(space: SystemSpace, seed: int, rank: int | None = None) -> LabeledOperator:
    rng = generator(seed)
    return LabeledOperator.square(space, random_state_matrix(rng, space.dim, rank))


def random_pure_state(space: SystemSpace, seed: int) -> LabeledOperator:
    rng = generator(seed)
    v = ginibre(rng, space.dim, 1)[:, 0]
    v /= np.linalg.norm(v)
    return LabeledOperator.square(space, np.outer(v, v.conj()))


def haar_isometry_matrix(rng: np.random.Generator, dim_out: int, dim_in: int) -> np.ndarray:
    """Haar-random isometry via QR with the R-diagonal phase fixed."""
    if dim_out < dim_in:
        raise UsageError(f"isometry needs dim_out >= dim_in, got {dim_out} < {dim_in}")
    g = ginibre(rng, dim_out, dim_in)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


def random_povm(dim: int, outcomes: int, seed: int) -> list[np.ndarray]:
    """Random POVM with the given outcome count, summing to the identity.

    Built by blocking a Haar isometry V: C^dim -> C^(dim*outcomes) into
    elements V†(I ⊗ |i><i|)V.
    """
    if outcomes < 1:
        raise UsageError("POVM needs at least one outcome")
    rng = generator(seed)
    v = haar_isometry_matrix(rng, dim * outcomes, dim)
    elements = []
    for i in range(outcomes):
        block = v[i::outcomes, :]
        elements.append(block.conj().T @ block)
    return elements


def random_probability_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k))


def random_cq_state(
    x_dim: int, b_dim: int, seed: int, x_label: str = "X", b_label: str = "B"
) -> LabeledOperator:
    """Classical-quantum state sum_x p_x |x><x| (x) rho_B^x.

    Weights are Dirichlet(1,...,1); conditional states are Ginibre.
    """
    rng = generator(seed)
    p = random_probability_vector(rng, x_dim)
    m = block_diag(*(p[x] * random_state_matrix(rng, b_dim) for x in range(x_dim)))
    space = SystemSpace.of((x_label, x_dim), (b_label, b_dim))
    return LabeledOperator.square(space, m)


def random_classical_state(
    x_dim: int, b_dim: int, seed: int, x_label: str = "X", b_label: str = "B"
) -> LabeledOperator:
    """Fully classical joint state: diagonal in both registers."""
    rng = generator(seed)
    p = random_probability_vector(rng, x_dim * b_dim)
    space = SystemSpace.of((x_label, x_dim), (b_label, b_dim))
    return LabeledOperator.square(space, np.diag(p.astype(complex)))

