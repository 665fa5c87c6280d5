import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from renyisc import entropies
from renyisc.entropies import (
    OptimizerConfig,
    _divergence_objective,
    alpha_params,
    classical_conditional_entropy,
    classical_renyi_entropy,
    conditional_entropy,
    mutual_information,
    quantum_relative_entropy,
    renyi_entropy,
    sandwiched_divergence,
    sandwiched_divergence_matrix,
    von_neumann_entropy,
)
from renyisc.errors import ConvergenceError, UsageError
from renyisc.linalg import _kron, fractional_power_matrix, purify
from renyisc.random_ensembles import (
    generator,
    haar_isometry_matrix,
    random_state,
    random_state_matrix,
)
from renyisc.spaces import (
    LabeledOperator,
    SystemSpace,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
)

CFG = OptimizerConfig(starts=3)


def test_alpha_params_conjugate_relation():
    for a in (0.6, 0.75, 1.5, 2.0, 5.0):
        p = alpha_params(a)
        # 1/alpha + 1/beta = 2
        assert_allclose(1 / p.alpha + 1 / p.beta, 2.0, atol=1e-12)
        assert_allclose(p.kappa, (1 - a) / (2 * a), atol=1e-12)


def test_alpha_params_rejects_half():
    with pytest.raises(UsageError):
        alpha_params(0.5)


def test_divergence_pure_vs_mixed_qubit():
    rho = np.diag([1.0, 0.0]).astype(complex)
    pi = np.eye(2, dtype=complex) / 2
    for a in (0.6, 1.0, 2.0):
        assert_allclose(sandwiched_divergence_matrix(rho, pi, a), 1.0, atol=1e-10)


def test_divergence_zero_iff_equal():
    rng = generator(1)
    rho = random_state_matrix(rng, 3)
    for a in (0.6, 1.0, 2.0):
        assert_allclose(sandwiched_divergence_matrix(rho, rho, a), 0.0, atol=1e-9)
    sigma = random_state_matrix(rng, 3)
    assert sandwiched_divergence_matrix(rho, sigma, 2.0) > 1e-4


def test_divergence_commuting_matches_classical():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.5, 0.3])
    for a in (0.6, 2.0):
        expected = math.log2(float(np.sum(p**a * q ** (1 - a)))) / (a - 1)
        got = sandwiched_divergence_matrix(np.diag(p).astype(complex), np.diag(q).astype(complex), a)
        assert_allclose(got, expected, atol=1e-10)


def test_divergence_alpha_one_is_relative_entropy():
    p = np.diag([0.5, 0.3, 0.2]).astype(complex)
    q = np.diag([0.2, 0.5, 0.3]).astype(complex)
    kl = float(np.sum(np.diag(p).real * np.log2(np.diag(p).real / np.diag(q).real)))
    assert_allclose(sandwiched_divergence_matrix(p, q, 1.0), kl, atol=1e-10)
    # inside the guard band the closed form takes over smoothly
    assert_allclose(sandwiched_divergence_matrix(p, q, 1.0 + 1e-8), kl, atol=1e-6)


def test_divergence_alpha_zero():
    # -log2 tr(Pi_rho sigma) with Pi_rho the support projector
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.25, 0.75]).astype(complex)
    assert_allclose(sandwiched_divergence_matrix(rho, sigma, 0.0), 2.0, atol=1e-10)


def test_divergence_support_condition_above_one():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert sandwiched_divergence_matrix(rho, sigma, 2.0) == math.inf


def test_divergence_disjoint_support_below_one():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert sandwiched_divergence_matrix(rho, sigma, 0.7) == math.inf


def test_divergence_monotone_in_alpha():
    rng = generator(2)
    rho, sigma = random_state_matrix(rng, 3), random_state_matrix(rng, 3)
    vals = [sandwiched_divergence_matrix(rho, sigma, a) for a in (0.5, 0.8, 1.0, 1.5, 3.0)]
    assert all(v2 >= v1 - 1e-9 for v1, v2 in zip(vals, vals[1:]))


def test_renyi_entropy_closed_forms():
    pi3 = maximally_mixed(SystemSpace.of(("A", 3)))
    for a in (0.0, 0.5, 1.0, 2.0):
        assert_allclose(renyi_entropy(pi3, a), math.log2(3), atol=1e-10)
    p = np.array([0.7, 0.3])
    rho = LabeledOperator.square(SystemSpace.of(("A", 2)), np.diag(p).astype(complex))
    assert_allclose(renyi_entropy(rho, 2.0), -math.log2(float(np.sum(p**2))), atol=1e-12)
    assert_allclose(renyi_entropy(rho, 0.0), 1.0, atol=1e-12)  # log2 rank


def test_von_neumann_entropy_binary():
    p = 0.3
    rho = LabeledOperator.square(SystemSpace.of(("A", 2)), np.diag([p, 1 - p]).astype(complex))
    h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    assert_allclose(von_neumann_entropy(rho), h, atol=1e-12)
    assert_allclose(renyi_entropy(rho, 1.0), h, atol=1e-12)


def test_quantum_relative_entropy_labeled():
    space = SystemSpace.of(("A", 2))
    rho = LabeledOperator.square(space, np.diag([0.9, 0.1]).astype(complex))
    assert_allclose(quantum_relative_entropy(rho, maximally_mixed(space)),
                    1.0 - von_neumann_entropy(rho), atol=1e-12)


def test_conditional_entropy_product_state():
    # for rho_A (x) sigma_B the optimum is sigma_B and the value is S_alpha(A)
    rng = generator(3)
    ra = random_state_matrix(rng, 2)
    sb = random_state_matrix(rng, 2)
    rho = LabeledOperator.square(SystemSpace.of(("A", 2), ("B", 2)), np.kron(ra, sb))
    for a in (0.6, 2.0):
        out = conditional_entropy(rho, ["B"], a, CFG)
        assert_allclose(out.value, renyi_entropy_of(ra, a), atol=1e-7)


def renyi_entropy_of(m, a):
    from renyisc.entropies import renyi_entropy_matrix

    return renyi_entropy_matrix(m, a)


def test_conditional_entropy_mes():
    mes = maximally_entangled(2, "A", "B")
    for a in (0.6, 1.0, 2.0):
        assert_allclose(conditional_entropy(mes, ["B"], a, CFG).value, -1.0, atol=1e-7)


def test_conditional_entropy_alpha_one_closed_form():
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=4)
    out = conditional_entropy(rho, ["B"], 1.0, CFG)
    expected = von_neumann_entropy(rho) - von_neumann_entropy(partial_trace(rho, {"B"}))
    assert_allclose(out.value, expected, atol=1e-10)
    assert out.method == "von-neumann"
    assert out.residual == 0.0


def test_conditional_entropy_requires_half_or_more():
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=5)
    with pytest.raises(UsageError):
        conditional_entropy(rho, ["B"], 0.3, CFG)


def test_conditional_entropy_warm_start_consistent():
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=6)
    cold = conditional_entropy(rho, ["B"], 0.7, CFG)
    warm = conditional_entropy(rho, ["B"], 0.7, CFG, warm_starts=(cold.optimizer.matrix,))
    assert_allclose(warm.value, cold.value, atol=1e-8)


def _count_minimize_runs(monkeypatch):
    """Record the final value of every L-BFGS run the optimizer starts."""
    runs = []
    real = entropies.scipy.optimize.minimize

    def counting(*args, **kwargs):
        res = real(*args, **kwargs)
        runs.append(float(res.fun))
        return res

    monkeypatch.setattr(entropies.scipy.optimize, "minimize", counting)
    return runs


def test_warm_start_at_optimum_needs_one_run(monkeypatch):
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=6)
    cold = conditional_entropy(rho, ["B"], 0.7, CFG)
    runs = _count_minimize_runs(monkeypatch)
    warm = conditional_entropy(rho, ["B"], 0.7, CFG, warm_starts=(cold.optimizer.matrix,))
    assert len(runs) == 1
    assert warm.residual <= CFG.tol
    assert_allclose(warm.value, cold.value, atol=1e-8)


def test_unmet_tol_runs_every_start_and_keeps_the_best(monkeypatch):
    rho = random_state(SystemSpace.of(("A", 2), ("B", 3)), seed=13)
    runs = _count_minimize_runs(monkeypatch)
    out = conditional_entropy(rho, ["B"], 1.5, OptimizerConfig(starts=3, tol=0.0))
    assert len(runs) == 3
    assert out.value == -min(runs)


def test_failure_sentinel_is_never_accepted(monkeypatch):
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=14)
    expected = conditional_entropy(rho, ["B"], 2.0, CFG)
    real = entropies._divergence_objective

    def failing_first_start(*args):
        objective = real(*args)
        evals = []

        def wrapped(x):
            evals.append(1)
            # the first start ends at once: sentinel value, zero gradient
            return (entropies._FAILED, np.zeros_like(x)) if len(evals) == 1 else objective(x)

        return wrapped

    monkeypatch.setattr(entropies, "_divergence_objective", failing_first_start)
    runs = _count_minimize_runs(monkeypatch)
    out = conditional_entropy(rho, ["B"], 2.0, CFG)
    assert runs[0] == entropies._FAILED
    assert len(runs) == 2
    assert out.residual <= CFG.tol
    assert_allclose(out.value, expected.value, atol=1e-9)


def test_converged_start_reports_its_own_residual(monkeypatch):
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=15)
    real = entropies.scipy.optimize.minimize
    runs = []

    def first_start_unconverged(*args, **kwargs):
        res = real(*args, **kwargs)
        if not runs:
            # lower than the optimum, but with a residual above tol
            res.fun = res.fun - 1e-9
            res.jac = np.full_like(res.jac, 10 * CFG.tol)
        runs.append(float(res.fun))
        return res

    monkeypatch.setattr(entropies.scipy.optimize, "minimize", first_start_unconverged)
    out = conditional_entropy(rho, ["B"], 2.0, CFG)
    assert len(runs) == 2
    assert out.residual <= CFG.tol
    assert out.value == -runs[1]


def test_mutual_information_mes():
    mes = maximally_entangled(2, "A", "B")
    for a in (1.0, 2.0):
        assert_allclose(mutual_information(mes, ["B"], a, CFG).value, 2.0, atol=1e-6)


def test_mutual_information_product_is_zero():
    rng = generator(7)
    rho = LabeledOperator.square(
        SystemSpace.of(("A", 2), ("B", 2)),
        np.kron(random_state_matrix(rng, 2), random_state_matrix(rng, 2)),
    )
    for a in (0.6, 1.0, 2.0):
        assert abs(mutual_information(rho, ["B"], a, CFG).value) < 1e-6


def test_mutual_information_nonnegative():
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=8)
    for a in (0.6, 2.0):
        assert mutual_information(rho, ["B"], a, CFG).value > -1e-8


def _factor(rho, d_a, d_b):
    """A (d_a, d_b, d_a d_b) factor W of rho = W W†."""
    vals, vecs = np.linalg.eigh(rho)
    return (vecs * np.sqrt(np.clip(vals, 0, None))).reshape(d_a, d_b, -1)


def test_optimizer_gradient_matches_finite_differences():
    rng = generator(9)
    rho = random_state_matrix(rng, 4)
    for alpha in (0.6, 0.75, 1.5, 2.0):
        obj = _divergence_objective(_factor(rho, 2, 2), alpha)
        l0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x0 = l0.view(float).ravel()
        assert len(x0) == 8
        _, grad = obj(x0)
        eps = 1e-6
        for i in range(len(x0)):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = (obj(xp)[0] - obj(xm)[0]) / (2 * eps)
            assert abs(fd - grad[i]) < 1e-5, (alpha, i, fd, grad[i])


def _mutual_transform(rho, rho_a, d_b, alpha):
    """(rho_A^c (x) I) rho (rho_A^c (x) I) with c = (1 - alpha)/(2 alpha)."""
    ac = np.kron(fractional_power_matrix(rho_a, (1 - alpha) / (2 * alpha)), np.eye(d_b))
    return ac @ rho @ ac


def _sigma_of(x, d_b):
    l = x.view(complex).reshape(d_b, d_b)
    s = l @ l.conj().T
    return s / np.trace(s).real


@pytest.mark.parametrize("rank_a", [3, 2])
def test_mutual_objective_is_the_divergence_from_rho_a_times_sigma(rank_a):
    # the conditional-entropy objective on the transformed state against an
    # independent reference D~(rho || rho_A (x) sigma), with rho_A full rank
    # or supported on a 2-dimensional subspace of A = C^3
    rng = generator(16)
    v = haar_isometry_matrix(rng, 3, rank_a)
    w = np.kron(v, np.eye(2))
    rho = w @ random_state_matrix(rng, 2 * rank_a) @ w.conj().T
    rho_a = np.trace(rho.reshape(3, 2, 3, 2), axis1=1, axis2=3)
    for alpha in (0.6, 0.8, 1.5, 2.0):
        obj = _divergence_objective(_factor(_mutual_transform(rho, rho_a, 2, alpha), 3, 2), alpha)

        def reference(x):
            return sandwiched_divergence_matrix(rho, np.kron(rho_a, _sigma_of(x, 2)), alpha)

        x0 = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))).view(float).ravel()
        value, grad = obj(x0)
        assert_allclose(value, reference(x0), atol=1e-10)
        eps = 1e-6
        for i in range(len(x0)):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = (reference(xp) - reference(xm)) / (2 * eps)
            assert abs(fd - grad[i]) < 1e-5, (alpha, i, fd, grad[i])


def test_mutual_information_invariant_under_local_isometry():
    # (V (x) I) rho (V (x) I)† with V: C^2 -> C^3 has a rank-deficient rho_A
    rng = generator(17)
    rho = random_state_matrix(rng, 4)
    w = np.kron(haar_isometry_matrix(rng, 3, 2), np.eye(2))
    small = LabeledOperator.square(SystemSpace.of(("A", 2), ("B", 2)), rho)
    big = LabeledOperator.square(SystemSpace.of(("A", 3), ("B", 2)), w @ rho @ w.conj().T)
    for alpha in (0.6, 0.8, 1.5, 2.0):
        assert_allclose(mutual_information(big, ["B"], alpha, CFG).value,
                        mutual_information(small, ["B"], alpha, CFG).value, atol=1e-9)


def test_kron_matches_numpy():
    rng = generator(15)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for a in (np.eye(2), rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))):
        assert np.array_equal(_kron(a, b), np.kron(a, b))


def test_optimizer_gradient_mutual_variant():
    rng = generator(10)
    rho = random_state_matrix(rng, 4)
    rho_a = np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    obj = _divergence_objective(_factor(_mutual_transform(rho, rho_a, 2, 0.8), 2, 2), 0.8)
    l0 = np.array([[0.7, 0.2 - 0.1j], [0.3j, 0.5]])
    x0 = l0.view(float).ravel()
    assert len(x0) == 8
    _, grad = obj(x0)
    eps = 1e-6
    for i in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (obj(xp)[0] - obj(xm)[0]) / (2 * eps)
        assert abs(fd - grad[i]) < 1e-5


def test_classical_renyi_entropy():
    p = np.array([0.5, 0.25, 0.25])
    assert_allclose(classical_renyi_entropy(p, 2.0), -math.log2(float(np.sum(p**2))), atol=1e-12)
    assert_allclose(classical_renyi_entropy(p, 1.0), 1.5, atol=1e-12)


def test_classical_conditional_entropy_product():
    # independent joint: conditional equals unconditional
    px = np.array([0.7, 0.3])
    pb = np.array([0.4, 0.6])
    joint = np.outer(px, pb)
    for a in (0.6, 0.9, 2.0):
        assert_allclose(
            classical_conditional_entropy(joint, a), classical_renyi_entropy(px, a), atol=1e-10
        )


def test_classical_conditional_entropy_matches_optimizer():
    rng = generator(11)
    joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
    rho = LabeledOperator.square(
        SystemSpace.of(("X", 2), ("B", 2)), np.diag(joint.reshape(-1)).astype(complex)
    )
    for a in (0.6, 0.8):
        fast = classical_conditional_entropy(joint, a)
        full = conditional_entropy(rho, ["B"], a, OptimizerConfig(starts=4)).value
        assert_allclose(fast, full, atol=1e-6)


def test_duality_on_random_pure_tripartite():
    from renyisc.random_ensembles import random_pure_state

    psi = random_pure_state(SystemSpace.of(("A", 2), ("B", 2), ("C", 2)), seed=12)
    rab = partial_trace(psi, {"A", "B"})
    rac = partial_trace(psi, {"A", "C"})
    for a in (0.6, 2.0):
        b = alpha_params(a).beta
        s1 = conditional_entropy(rab, ["B"], a, CFG).value
        s2 = conditional_entropy(rac, ["C"], b, CFG).value
        assert abs(s1 + s2) < 1e-6


def test_divergence_labeled_wrapper():
    space = SystemSpace.of(("A", 2))
    rho = LabeledOperator.square(space, np.diag([1.0, 0.0]).astype(complex))
    assert_allclose(sandwiched_divergence(rho, maximally_mixed(space), 2.0), 1.0, atol=1e-10)


@pytest.mark.parametrize("d_b", [3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_copy_additivity_on_rank_one_states(d_b, seed):
    # S~_alpha(A|B) and I~_alpha(A;B) are additive on rho (x) rho; on a rank-1
    # state rho_B is rank deficient and the optimal sigma_B lives on its support.
    # With d_B = 4, rank-2 states at alpha = 0.51 have a nearly rank-deficient
    # optimal sigma on the two copies.
    cases = [(1, (1.5, 2.0), 1e-6)] + ([(2, (0.51,), 1e-9)] if d_b == 4 else [])
    for rank, alphas, bound in cases:
        rho = random_state(SystemSpace.of(("A", 2), ("B", d_b)), seed=seed, rank=rank)
        copy = LabeledOperator.square(SystemSpace.of(("A2", 2), ("B2", d_b)), rho.matrix)
        pair = rho.tensor(copy)
        for quantity in (conditional_entropy, mutual_information):
            for alpha in alphas:
                one = quantity(rho, ["B"], alpha, CFG)
                two = quantity(pair, ["B", "B2"], alpha, CFG)
                assert abs(two.value - 2 * one.value) <= bound, (quantity, alpha, two.value,
                                                                 one.value)
                assert one.residual <= CFG.tol and two.residual <= CFG.tol, (
                    quantity, rank, alpha, one.residual, two.residual)


@pytest.mark.parametrize("quantity", [conditional_entropy, mutual_information])
def test_objective_decomposes_only_the_rank_sized_matrix(monkeypatch, quantity):
    # rho_RAB of a purified full-rank (2,2,2) state: 32-dimensional, rank 2,
    # with d_B = 2; only the factor of rho (and rho_A, for the mutual
    # information) needs a decomposition larger than 2 x 2
    psi = purify(random_state(SystemSpace.of(("A", 2), ("B", 2), ("C", 2)), seed=18))
    rho = partial_trace(psi, {"R", "A", "B"})
    assert rho.matrix.shape == (32, 32) and np.linalg.matrix_rank(rho.matrix) == 2
    real, sizes = np.linalg.eigh, []

    def counting_eigh(m, *args, **kwargs):
        sizes.append(m.shape[0])
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    out = quantity(rho, ["B"], 0.75, CFG)
    assert out.residual <= CFG.tol
    large = sorted(n for n in sizes if n > 2)
    assert large == ([16, 32] if quantity is mutual_information else [32]), large
    assert sizes.count(2) > 4  # a d_B x d_B and an r x r one per evaluation


def test_every_start_failing_raises(monkeypatch):
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=19)

    def always_failing(*args):
        return lambda x: (entropies._FAILED, np.zeros_like(x))

    monkeypatch.setattr(entropies, "_divergence_objective", always_failing)
    runs = _count_minimize_runs(monkeypatch)
    with pytest.raises(ConvergenceError):
        conditional_entropy(rho, ["B"], 2.0, CFG)
    assert runs == [entropies._FAILED] * CFG.starts


def test_non_finite_state_raises_convergence_error():
    # NaN off-diagonals make every start end on the failure value
    m = np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex)
    rho = LabeledOperator.square(SystemSpace.of(("A", 2), ("B", 1)), m)
    with pytest.raises(ConvergenceError):
        conditional_entropy(rho, ["B"], 2.0, CFG)
