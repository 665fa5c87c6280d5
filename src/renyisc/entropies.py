"""Sandwiched Renyi divergence and derived entropic quantities.

All values are in bits (logarithms base 2).  The optimized quantities
(conditional entropy, mutual information) minimize over the conditioning
state with a quasi-Newton descent on the unconstrained parametrization
sigma = L L† / tr(L L†), L a full complex d_B x d_B matrix, with analytic
gradients; B is first restricted to the support of rho_B.  The problem is
convex for alpha >= 1/2 (Frank-Lieb, Beigi), so the descent stops at the
first start (warm start, then rho_B, then seeded random ones) whose
gradient residual meets ``OptimizerConfig.tol``.
``OptimizerConfig`` holds the only two settings a caller can change, the
residual ``tol`` and the cap on ``starts`` (3 by default); L-BFGS-B's own
stopping rules, its iteration cap and the seed of the random starts are
fixed constants of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import ConvergenceError, DimensionMismatchError, UsageError
from .linalg import (
    SUPPORT_TOL,
    _kron,
    fractional_power_matrix,
    schatten_norm,
    spectral_power,
    spectrum,
)
from .random_ensembles import generator, ginibre
from .spaces import LabeledOperator, partial_trace, permute_systems

LN2 = math.log(2.0)
ALPHA_ONE_BAND = 1e-6


@dataclass(frozen=True)
class AlphaParams:
    """A Renyi order with its conjugate order and exponent prefactor.

    beta = alpha/(2 alpha - 1) satisfies 1/alpha + 1/beta = 2;
    kappa = (1 - alpha)/(2 alpha) is positive exactly on alpha in (0,1).
    """

    alpha: float
    beta: float
    kappa: float


def alpha_params(alpha: float) -> AlphaParams:
    alpha = float(alpha)
    if alpha <= 0.5:
        raise UsageError(f"beta(alpha) requires alpha > 1/2, got {alpha}")
    beta = alpha / (2.0 * alpha - 1.0)
    kappa = (1.0 - alpha) / (2.0 * alpha)
    return AlphaParams(alpha, beta, kappa)


# ---------------------------------------------------------------------------
# divergences


def quantum_relative_entropy_matrix(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho||sigma) = tr rho (log2 rho - log2 sigma), +inf off-support."""
    svals, svecs, _ = spectrum(sigma)
    # weights of rho on sigma's eigenvectors
    w = np.real(np.einsum("ij,jk,ki->i", svecs.conj().T, rho, svecs))
    w = np.clip(w, 0.0, None)
    zero = svals <= SUPPORT_TOL * max(svals[-1], 1.0)
    if np.sum(w[zero]) > SUPPORT_TOL:
        return math.inf
    mask = (~zero) & (w > 0)
    term2 = float(np.sum(w[mask] * np.log2(svals[mask])))
    return -von_neumann_entropy_matrix(rho) - term2


def sandwiched_divergence_matrix(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Sandwiched Renyi divergence of order alpha, in bits."""
    alpha = float(alpha)
    if alpha < 0:
        raise UsageError(f"alpha must be >= 0, got {alpha}")
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError("divergence arguments live on different spaces")
    if alpha == 0.0:
        _, rvecs, support = spectrum(rho)
        v = rvecs[:, support]
        overlap = float(np.trace(v.conj().T @ sigma @ v).real)
        if overlap <= 0:
            return math.inf
        return -math.log2(overlap)
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        return quantum_relative_entropy_matrix(rho, sigma)
    c = (1.0 - alpha) / (2.0 * alpha)
    sspec = spectrum(sigma)
    if alpha > 1.0:
        # support condition: supp rho within supp sigma
        svals, svecs, _ = sspec
        kernel = svals <= SUPPORT_TOL * max(svals[-1], 1.0)
        if np.any(kernel):
            pk = svecs[:, kernel]
            leak = float(np.real(np.trace(pk.conj().T @ rho @ pk)))
            if leak > SUPPORT_TOL:
                return math.inf
    k = spectral_power(sspec, c)
    vals, _, support = spectrum(k @ rho @ k, vectors=False)
    t = float(np.sum(vals[support] ** alpha))
    if t <= 0:
        return math.inf
    return math.log2(t) / (alpha - 1.0)


def sandwiched_divergence(rho: LabeledOperator, sigma: LabeledOperator, alpha: float) -> float:
    if rho.space_out.dim != sigma.space_out.dim:
        raise DimensionMismatchError("divergence arguments live on different spaces")
    return sandwiched_divergence_matrix(rho.matrix, sigma.matrix, alpha)


def quantum_relative_entropy(rho: LabeledOperator, sigma: LabeledOperator) -> float:
    return quantum_relative_entropy_matrix(rho.matrix, sigma.matrix)


# ---------------------------------------------------------------------------
# unconditional entropies


def von_neumann_entropy_matrix(rho: np.ndarray) -> float:
    vals, _, support = spectrum(rho, vectors=False)
    vals = vals[support]
    return float(-np.sum(vals * np.log2(vals)))


def von_neumann_entropy(rho: LabeledOperator) -> float:
    return von_neumann_entropy_matrix(rho.matrix)


def renyi_entropy_matrix(rho: np.ndarray, alpha: float) -> float:
    """S_alpha(rho) = (1/(1-alpha)) log2 tr rho^alpha; log-rank at alpha=0."""
    alpha = float(alpha)
    if alpha < 0:
        raise UsageError(f"alpha must be >= 0, got {alpha}")
    vals, _, support = spectrum(rho, vectors=False)
    vals = vals[support]
    if alpha == 0.0:
        return math.log2(len(vals))
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        return float(-np.sum(vals * np.log2(vals)))
    return float(math.log2(np.sum(vals**alpha)) / (1.0 - alpha))


def renyi_entropy(rho: LabeledOperator, alpha: float) -> float:
    return renyi_entropy_matrix(rho.matrix, alpha)


# ---------------------------------------------------------------------------
# optimized quantities


@dataclass(frozen=True)
class OptimizerConfig:
    """Inner-minimization settings.

    A start is accepted once its gradient residual max|jac| is at most
    ``tol``; ``starts`` caps how many starts are tried before the best
    value seen is returned.
    """

    starts: int = 3
    tol: float = 1e-6


DEFAULT_CONFIG = OptimizerConfig()

# L-BFGS-B stopping rules and iteration cap, and the seed of the random starts
_GTOL = 1e-9
_FTOL = 1e-13
_MAXITER = 10000
_START_SEED = 0


@dataclass(frozen=True)
class OptimizedValue:
    """Result of an inner minimization over a conditioning state."""

    value: float
    optimizer: LabeledOperator
    residual: float
    method: str


# objective value reported where sigma(x) or the sandwiched trace degenerates
_FAILED = 1e6


def _power_adjoint(u: np.ndarray, lam: np.ndarray, c: float, h: np.ndarray) -> np.ndarray:
    """Adjoint of the Frechet derivative of x -> x**c at sigma = U diag(lam) U†."""
    lc = lam**c
    diff = lam[:, None] - lam[None, :]
    close = np.abs(diff) < 1e-12 * max(lam[-1], 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = (lc[:, None] - lc[None, :]) / diff
    deriv = c * lam ** (c - 1.0)
    rows, cols = np.where(close)
    phi[rows, cols] = deriv[rows]
    hu = u.conj().T @ h @ u
    return u @ (phi * hu) @ u.conj().T


def _divergence_objective(
    rho_ab: np.ndarray,
    d_a: int,
    d_b: int,
    a_factor: np.ndarray | None,
    alpha: float,
):
    """Objective x -> (D(rho_AB || X_A (x) sigma(x)), gradient).

    ``x`` holds the real and imaginary parts of a full complex d_B x d_B
    factor L, interleaved (``L.view(float)``), of the unnormalized
    conditioning state sigma(x) = L L†.
    """
    c = (1.0 - alpha) / (2.0 * alpha)
    if a_factor is None:
        ac = np.eye(d_a)
        ac_full = None
    else:
        ac = fractional_power_matrix(a_factor, c)
        ac_full = _kron(ac, np.eye(d_b))
    pref = alpha / (alpha - 1.0) / LN2

    def objective(x):
        l = x.view(complex).reshape(d_b, d_b)
        s = l @ l.conj().T
        trs = float(np.trace(s).real)
        if trs <= 0 or not np.isfinite(trs):
            return _FAILED, np.zeros_like(x)
        sigma = s / trs
        lam, u = np.linalg.eigh(sigma)
        lam = np.clip(lam, 1e-30, None)
        sc = (u * lam**c) @ u.conj().T
        k = _kron(ac, sc)
        m = k @ rho_ab @ k
        mvals, mvecs = np.linalg.eigh((m + m.conj().T) / 2)
        mtop = max(mvals[-1], 0.0)
        clip = mtop * 1e-14
        pos = mvals > clip
        t = float(np.sum(mvals[pos] ** alpha))
        if t <= 0 or not np.isfinite(t):
            return _FAILED, np.zeros_like(x)
        f = math.log2(t) / (alpha - 1.0)
        mpow_vals = np.zeros_like(mvals)
        mpow_vals[pos] = mvals[pos] ** (alpha - 1.0)
        mpow = (mvecs * mpow_vals) @ mvecs.conj().T
        g = rho_ab @ k @ mpow + mpow @ k @ rho_ab
        if ac_full is not None:
            g = g @ ac_full
        h_b = np.trace(g.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)
        h_b = (h_b + h_b.conj().T) / 2
        g_sigma = (pref / t) * _power_adjoint(u, lam, c, h_b)
        gs = (g_sigma - float(np.trace(g_sigma @ sigma).real) * np.eye(d_b)) / trs
        return f, (2.0 * (gs @ l)).view(float).ravel()

    return objective


def _min_divergence(
    rho_ab: np.ndarray,
    d_a: int,
    d_b: int,
    a_factor: np.ndarray | None,
    alpha: float,
    config: OptimizerConfig,
    warm_starts=(),
) -> tuple[float, np.ndarray, float]:
    """min over sigma_B of D(rho_AB || X_A (x) sigma_B) for alpha != 1.

    ``a_factor`` is X_A (None means the identity).  Starts run in order
    (warm starts, rho_B, then seeded random ones, ``config.starts`` in
    all) until one ends with a finite value and a gradient residual of
    at most ``config.tol``.  Returns (value, sigma, gradient-norm
    residual) of that start, or of the lowest-value start when none
    converges.
    """
    objective = _divergence_objective(rho_ab, d_a, d_b, a_factor, alpha)
    rng = generator(_START_SEED)
    # warm starts, then a deterministic start at rho_B
    starts = [np.asarray(s0, dtype=complex) for s0 in warm_starts]
    starts.append(np.trace(rho_ab.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2))
    while len(starts) < max(config.starts, len(warm_starts) + 1):
        g0 = ginibre(rng, d_b, d_b)
        m0 = g0 @ g0.conj().T
        starts.append(m0 / np.trace(m0).real)

    best = (math.inf, None, math.inf)
    for sigma0 in starts:
        s0 = (sigma0 + sigma0.conj().T) / 2 + 1e-9 * np.eye(d_b)
        s0 /= np.trace(s0).real
        l0 = np.linalg.cholesky(s0)
        res = scipy.optimize.minimize(
            objective,
            l0.view(float).ravel(),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": _MAXITER, "ftol": _FTOL, "gtol": _GTOL},
        )
        gnorm = float(np.max(np.abs(res.jac)))
        converged = gnorm <= config.tol and np.isfinite(res.fun) and res.fun != _FAILED
        if converged or res.fun < best[0]:
            l = res.x.view(complex).reshape(d_b, d_b)
            s = l @ l.conj().T
            best = (float(res.fun), s / np.trace(s).real, gnorm)
        if converged:
            break
    if best[1] is None:
        raise ConvergenceError("all optimizer starts failed", best_value=None, residual=None)
    return best


def _split_bipartite(rho: LabeledOperator, b_labels) -> tuple[np.ndarray, int, int, list, list]:
    space = rho.space
    b_labels = list(b_labels)
    for l in b_labels:
        if not space.has(l):
            raise UsageError(f"unknown label {l!r} in {space.labels}")
    a_labels = [l for l in space.labels if l not in b_labels]
    ordered = permute_systems(rho, a_labels + b_labels)
    d_b = math.prod(space.dim_of(l) for l in b_labels)
    d_a = space.dim // d_b if d_b else space.dim
    return ordered.matrix, d_a, d_b, a_labels, b_labels


def _optimized(rho, labels, alpha, config, warm_starts, mutual: bool) -> OptimizedValue:
    """min over sigma_B of D~_alpha(rho_AB || X_A (x) sigma_B), signed as the quantity.

    X_A is rho_A for the mutual information and I_A for the conditional
    entropy, whose value is the negated minimum.  When rho_B is rank
    deficient, B is first restricted to supp rho_B: pinching onto it leaves
    rho unchanged, so by data processing the optimal sigma_B lives there.
    """
    alpha = float(alpha)
    if alpha < 0.5:
        what = "mutual information" if mutual else "conditional entropy"
        raise UsageError(f"optimized {what} needs alpha >= 1/2, got {alpha}")
    mat, d_a, d_b, _, b_labels = _split_bipartite(rho, labels)
    b_space = rho.space.restrict(b_labels)
    t = mat.reshape(d_a, d_b, d_a, d_b)
    rho_a = np.trace(t, axis1=1, axis2=3) if mutual else None
    rho_b = np.trace(t, axis1=0, axis2=2)
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        s_ab, s_b = von_neumann_entropy_matrix(mat), von_neumann_entropy_matrix(rho_b)
        value = von_neumann_entropy_matrix(rho_a) + s_b - s_ab if mutual else s_ab - s_b
        return OptimizedValue(value, LabeledOperator.square(b_space, rho_b), 0.0, "von-neumann")
    _, vecs, support = spectrum(rho_b)
    if support.all():
        val, sigma, resid = _min_divergence(mat, d_a, d_b, rho_a, alpha, config, warm_starts)
    else:
        p = vecs[:, support]
        ip = _kron(np.eye(d_a), p)
        warm = [p.conj().T @ s0 @ p for s0 in warm_starts]
        val, sigma, resid = _min_divergence(ip.conj().T @ mat @ ip, d_a, p.shape[1], rho_a,
                                            alpha, config, warm)
        sigma = p @ sigma @ p.conj().T
    return OptimizedValue(val if mutual else -val, LabeledOperator.square(b_space, sigma), resid,
                          "lbfgs")


def conditional_entropy(
    rho: LabeledOperator,
    given,
    alpha: float,
    config: OptimizerConfig = DEFAULT_CONFIG,
    warm_starts=(),
) -> OptimizedValue:
    """S~_alpha(A|B) = -min over sigma_B of the divergence from I_A (x) sigma_B.

    ``given`` lists the conditioning labels B; A is everything else.
    """
    return _optimized(rho, given, alpha, config, warm_starts, mutual=False)


def mutual_information(
    rho: LabeledOperator,
    minimize_over,
    alpha: float,
    config: OptimizerConfig = DEFAULT_CONFIG,
    warm_starts=(),
) -> OptimizedValue:
    """I~_alpha(A;B) = min over sigma_B of D~_alpha(rho_AB || rho_A (x) sigma_B).

    ``minimize_over`` lists the labels B carrying the optimized state.
    """
    return _optimized(rho, minimize_over, alpha, config, warm_starts, mutual=True)


# ---------------------------------------------------------------------------
# conditional mutual information


def von_neumann_cmi(rho: LabeledOperator, a: str, b: str, c: str) -> float:
    """I(A;B|C) = S(AC) + S(BC) - S(C) - S(ABC)."""
    keep = set(rho.space.labels)
    sac = von_neumann_entropy(partial_trace(rho, keep - {b}))
    sbc = von_neumann_entropy(partial_trace(rho, keep - {a}))
    sc = von_neumann_entropy(partial_trace(rho, keep - {a, b}))
    sabc = von_neumann_entropy(rho)
    return sac + sbc - sc - sabc


def conditional_mutual_information(
    rho: LabeledOperator, a: str, b: str, c: str, alpha: float
) -> float:
    """Schatten-norm Renyi conditional mutual information.

    (2 alpha/(alpha-1)) log2 || rho_ABC^{1/2} rho_AC^{(1-a)/2a}
    rho_C^{(a-1)/2a} rho_BC^{(1-a)/2a} ||_{2 alpha}; converges to the von
    Neumann I(A;B|C) as alpha -> 1.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise UsageError(f"alpha must be positive, got {alpha}")
    if set(rho.space.labels) != {a, b, c}:
        rho = partial_trace(rho, {a, b, c})
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        return von_neumann_cmi(rho, a, b, c)
    rho = permute_systems(rho, [a, b, c])
    space = rho.space
    e = (1.0 - alpha) / (2.0 * alpha)
    full = rho.matrix
    root = fractional_power_matrix(full, 0.5)

    def marg_power(keep, p):
        red = partial_trace(rho, keep)
        m = fractional_power_matrix(red.matrix, p)
        from .spaces import embed

        return embed(LabeledOperator.square(red.space, m), space).matrix

    pac = marg_power({a, c}, e)
    pc = marg_power({c}, -e)
    pbc = marg_power({b, c}, e)
    prod = root @ pac @ pc @ pbc
    nrm = schatten_norm(prod, 2.0 * alpha)
    if nrm <= 0:
        return math.inf
    return (2.0 * alpha / (alpha - 1.0)) * math.log2(nrm)


def cmi_generalizations(
    rho: LabeledOperator,
    a: str,
    b: str,
    c: str,
    alpha: float,
    config: OptimizerConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Two difference-form Renyi conditional mutual informations.

    First: S~_alpha(A|C) - S~_beta(A|BC).  Second: I~_alpha(A;BC) -
    I~_beta(A;C), with beta the conjugate order.  Both reduce to I(A;B|C)
    at alpha = 1.
    """
    alpha = float(alpha)
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        v = von_neumann_cmi(rho, a, b, c)
        return v, v
    params = alpha_params(alpha)
    keep = set(rho.space.labels)
    rho_abc = partial_trace(rho, {a, b, c}) if keep != {a, b, c} else rho
    rho_ac = partial_trace(rho, {a, c})
    i1 = (
        conditional_entropy(rho_ac, [c], alpha, config).value
        - conditional_entropy(rho_abc, [b, c], params.beta, config).value
    )
    i2 = (
        mutual_information(rho_abc, [b, c], alpha, config).value
        - mutual_information(rho_ac, [c], params.beta, config).value
    )
    return i1, i2


# ---------------------------------------------------------------------------
# classical (diagonal) fast paths


def classical_renyi_entropy(p: np.ndarray, alpha: float) -> float:
    p = np.asarray(p, dtype=float).reshape(-1)
    p = p[p > 0]
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        return float(-np.sum(p * np.log2(p)))
    if alpha == 0.0:
        return math.log2(len(p))
    return float(math.log2(np.sum(p**alpha)) / (1.0 - alpha))


def classical_conditional_entropy(joint: np.ndarray, alpha: float) -> float:
    """Arimoto conditional entropy of a joint table p(x, b), in bits.

    For diagonal states this is the closed form of the optimized
    S~_alpha(X|B); the minimizing sigma_B is diagonal.
    """
    joint = np.asarray(joint, dtype=float)
    alpha = float(alpha)
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        p_b = joint.sum(axis=0)
        tot = 0.0
        for b in range(joint.shape[1]):
            if p_b[b] <= 0:
                continue
            cond = joint[:, b] / p_b[b]
            cond = cond[cond > 0]
            tot += p_b[b] * float(-np.sum(cond * np.log2(cond)))
        return tot
    inner = np.sum(joint**alpha, axis=0) ** (1.0 / alpha)
    return float((alpha / (1.0 - alpha)) * math.log2(np.sum(inner)))
