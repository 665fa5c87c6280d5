import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from renyisc.errors import NotPositiveSemidefiniteError, UsageError
from renyisc.linalg import (
    fidelity,
    fidelity_matrix,
    fractional_power_matrix,
    purify,
    schatten_norm,
    spectrum,
    trace_norm,
)
from renyisc.spaces import LabeledOperator, SystemSpace, partial_trace


def _rand_psd(rng, d, rank=None):
    g = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
    return g @ g.conj().T


def _rand_state(rng, d, rank=None):
    m = _rand_psd(rng, d, rank)
    return m / np.trace(m).real


def test_fractional_power_diagonal():
    m = np.diag([4.0, 9.0]).astype(complex)
    assert_allclose(fractional_power_matrix(m, 0.5), np.diag([2.0, 3.0]), atol=1e-12)
    assert_allclose(fractional_power_matrix(m, -1.0), np.diag([0.25, 1 / 9]), atol=1e-12)


def test_fractional_power_support_convention():
    # negative powers act on the support only; the kernel stays the kernel
    m = np.diag([2.0, 0.0]).astype(complex)
    out = fractional_power_matrix(m, -0.5)
    assert_allclose(out, np.diag([2.0**-0.5, 0.0]), atol=1e-12)


def test_fractional_power_rejects_negative_matrix():
    with pytest.raises(NotPositiveSemidefiniteError):
        fractional_power_matrix(np.diag([1.0, -1.0]).astype(complex), 0.5)


def test_fractional_power_composes():
    rng = np.random.default_rng(3)
    m = _rand_psd(rng, 4)
    half = fractional_power_matrix(m, 0.5)
    assert_allclose(half @ half, m, atol=1e-10)


def test_schatten_norm_values():
    m = np.diag([3.0, -4.0]).astype(complex)
    assert_allclose(schatten_norm(m, 1), 7.0, atol=1e-12)
    assert_allclose(schatten_norm(m, 2), 5.0, atol=1e-12)
    assert_allclose(schatten_norm(m, np.inf), 4.0, atol=1e-12)
    assert_allclose(trace_norm(m), 7.0, atol=1e-12)


def test_schatten_norm_rejects_nonpositive_order():
    with pytest.raises(UsageError):
        schatten_norm(np.eye(2), 0.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=50))
def test_schatten_holder_property(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    n = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert schatten_norm(m @ n, 1) <= schatten_norm(m, 2) * schatten_norm(n, 2) + 1e-10


def test_fidelity_extremes():
    rng = np.random.default_rng(5)
    rho = _rand_state(rng, 3)
    assert_allclose(fidelity_matrix(rho, rho), 1.0, atol=1e-10)
    # orthogonal pure states
    assert_allclose(
        fidelity_matrix(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        0.0,
        atol=1e-12,
    )


def test_fidelity_pure_state_overlap():
    # for pure states F = |<psi|phi>|
    v = np.array([1.0, 0.0])
    w = np.array([1.0, 1.0]) / np.sqrt(2)
    f = fidelity_matrix(np.outer(v, v).astype(complex), np.outer(w, w).astype(complex))
    assert_allclose(f, abs(v @ w), atol=1e-12)


def test_fidelity_symmetric():
    rng = np.random.default_rng(6)
    rho, sigma = _rand_state(rng, 4), _rand_state(rng, 4)
    assert_allclose(fidelity_matrix(rho, sigma), fidelity_matrix(sigma, rho), atol=1e-10)


def test_purify_marginal_recovers_state():
    rng = np.random.default_rng(7)
    rho = LabeledOperator.square(SystemSpace.of(("A", 3)), _rand_state(rng, 3))
    psi = purify(rho, "R")
    assert psi.space.labels == ("A", "R")
    assert_allclose(partial_trace(psi, {"A"}).matrix, rho.matrix, atol=1e-12)
    # purification of a full-rank state is pure and rank |A|
    assert psi.space.dim_of("R") == 3
    evals = np.linalg.eigvalsh(psi.matrix)
    assert_allclose(sorted(evals)[-1], 1.0, atol=1e-10)


def test_purify_rank_deficient_uses_small_reference():
    rho = LabeledOperator.square(SystemSpace.of(("A", 3)), np.diag([0.5, 0.5, 0.0]).astype(complex))
    psi = purify(rho)
    assert psi.space.dim_of("R") == 2


def test_purify_deterministic():
    rng = np.random.default_rng(8)
    rho = LabeledOperator.square(SystemSpace.of(("A", 2)), _rand_state(rng, 2))
    assert_allclose(purify(rho).matrix, purify(rho).matrix, atol=0)


def test_fidelity_labeled_operators():
    rng = np.random.default_rng(9)
    space = SystemSpace.of(("A", 2), ("B", 2))
    rho = LabeledOperator.square(space, _rand_state(rng, 4))
    sigma = LabeledOperator.square(space, _rand_state(rng, 4))
    assert 0.0 < fidelity(rho, sigma) < 1.0


def test_spectrum_clips_and_marks_support():
    m = np.diag([2.0, -1e-13, 1e-13]).astype(complex)
    vals, vecs, support = spectrum(m)
    assert_allclose(vals, [0.0, 1e-13, 2.0], atol=0)
    assert support.tolist() == [False, False, True]
    assert_allclose((vecs * vals) @ vecs.conj().T, np.diag([2.0, 0.0, 1e-13]), atol=1e-15)
    vals2, vecs2, support2 = spectrum(m, vectors=False)
    assert vecs2 is None
    assert_allclose(vals2, vals, atol=0)
    assert (support2 == support).all()


def test_spectrum_hermitizes():
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    assert_allclose(spectrum(m)[0], [0.5, 1.5], atol=1e-12)


def test_spectrum_rejects_negative_eigenvalue():
    with pytest.raises(NotPositiveSemidefiniteError):
        spectrum(np.diag([1.0, -1e-6]).astype(complex), vectors=False)


def test_purify_rejects_non_psd():
    rho = LabeledOperator.square(SystemSpace.of(("A", 2)), np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(NotPositiveSemidefiniteError):
        purify(rho)


# every eigendecomposition in the package goes through linalg.spectrum, except
# the optimizer's hot loop and spaces (which linalg imports)
EIG_ALLOWED = {
    ("linalg", "spectrum"),
    ("entropies", "_divergence_objective"),
    ("spaces", "min_eigenvalue"),
}


def _eig_sites(path: Path):
    """(module, outermost function) of every eigh/eigvalsh use in a file."""
    names = {"eigh", "eigvalsh"}
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            hit = (
                (isinstance(child, ast.Attribute) and child.attr in names)
                or (isinstance(child, ast.Name) and child.id in names)
                or (isinstance(child, ast.alias) and child.name in names)
            )
            if hit:
                sites.append((path.stem, inner))
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_eigendecompositions_go_through_spectrum():
    src = Path(__file__).resolve().parent.parent / "src" / "renyisc"
    sites = [site for path in sorted(src.glob("*.py")) for site in _eig_sites(path)]
    assert ("linalg", "spectrum") in sites
    assert set(sites) <= EIG_ALLOWED, sorted(set(sites) - EIG_ALLOWED)
