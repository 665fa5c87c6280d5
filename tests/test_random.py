import numpy as np
from numpy.testing import assert_allclose

from renyisc.random_ensembles import (
    generator,
    ginibre,
    haar_isometry_matrix,
    random_classical_state,
    random_cq_state,
    random_povm,
    random_probability_vector,
    random_pure_state,
    random_state,
    random_state_matrix,
)


def test_generator_deterministic():
    a = generator(42).normal(size=5)
    b = generator(42).normal(size=5)
    assert_allclose(a, b, atol=0)


def test_generator_distinct_seeds():
    assert not np.allclose(generator(1).normal(size=5), generator(2).normal(size=5))


def test_generator_accepts_wide_seeds():
    # seeds are folded to 64 bits, not rejected
    generator(2**70 + 17).normal()


def test_ginibre_shape_and_complexity():
    g = ginibre(generator(0), 3, 4)
    assert g.shape == (3, 4)
    assert np.iscomplexobj(g)


def test_random_state_matrix_is_density():
    m = random_state_matrix(generator(3), 4)
    assert_allclose(np.trace(m).real, 1.0, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(m)) > -1e-12
    assert_allclose(m, m.conj().T, atol=1e-12)


def test_random_state_carries_labels():
    from renyisc.spaces import SystemSpace

    rho = random_state(SystemSpace.of(("A", 2), ("B", 3)), seed=5)
    assert rho.space.labels == ("A", "B")
    assert_allclose(np.trace(rho.matrix).real, 1.0, atol=1e-12)


def test_random_pure_state_rank_one():
    from renyisc.spaces import SystemSpace

    psi = random_pure_state(SystemSpace.of(("A", 4)), seed=6)
    evals = np.linalg.eigvalsh(psi.matrix)
    assert_allclose(np.max(evals), 1.0, atol=1e-12)
    assert_allclose(np.sum(evals), 1.0, atol=1e-12)


def test_haar_isometry():
    v = haar_isometry_matrix(generator(7), 6, 3)
    assert v.shape == (6, 3)
    assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_random_povm_complete_and_psd():
    povm = random_povm(3, 4, seed=9)
    assert len(povm) == 4
    assert_allclose(np.sum(povm, axis=0), np.eye(3), atol=1e-10)
    for e in povm:
        assert np.min(np.linalg.eigvalsh(e)) > -1e-12


def test_random_probability_vector():
    p = random_probability_vector(generator(10), 5)
    assert p.shape == (5,)
    assert np.all(p >= 0)
    assert_allclose(np.sum(p), 1.0, atol=1e-12)


def test_random_cq_state_block_diagonal():
    rho = random_cq_state(3, 2, seed=11)
    assert rho.space.labels == ("X", "B")
    m = rho.matrix.reshape(3, 2, 3, 2)
    for x in range(3):
        for y in range(3):
            if x != y:
                assert np.max(np.abs(m[x, :, y, :])) < 1e-14


def test_random_classical_state_diagonal():
    rho = random_classical_state(2, 2, seed=12)
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.max(np.abs(off)) < 1e-14
    assert_allclose(np.trace(rho.matrix).real, 1.0, atol=1e-12)
