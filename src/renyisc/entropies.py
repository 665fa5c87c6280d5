"""Sandwiched Renyi divergence and derived entropic quantities.

All values are in bits (logarithms base 2).  The optimized quantities
(conditional entropy, mutual information) minimize over the conditioning
state with a quasi-Newton descent on the unconstrained parametrization
sigma = L L† / tr(L L†), L a full complex d_B x d_B matrix, with analytic
gradients.  It works on a factor rho = W W†, W the (d_A, d_B, r) support
columns sqrt(lambda_j) v_j of rho: with c = (1-alpha)/(2alpha),
(I (x) sigma^c) rho (I (x) sigma^c) has the nonzero spectrum of the r x r
W† (I (x) sigma^{2c}) W, and B is always taken in the eigenbasis of supp
rho_B.  One objective serves both quantities: (rho_A (x) sigma)^c =
(rho_A^c (x) I)(I (x) sigma^c) with commuting factors, so the mutual
information runs it on (rho_A^c (x) I) W.
The orders of one quantity are minimized together: the factors of all of
them form one stack of independent blocks, and one L-BFGS-B run minimizes
the sum of the block values, with each block's gradient residual read from
its own slice.  The problem is convex for alpha >= 1/2 (Frank-Lieb, Beigi),
so a block is done at its first start (Tr_A of the minimized state, then
seeded random ones, run only for the blocks not yet done) whose residual
meets ``OptimizerConfig.tol``.
``OptimizerConfig`` holds the only two settings a caller can change, the
residual ``tol`` and the cap on ``starts`` (3 by default); L-BFGS-B's own
stopping rules (its relative-reduction tolerance divided among the blocks
of a run), its iteration cap and the seed of the random starts are fixed
constants of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import ConvergenceError, DimensionMismatchError, UsageError
from .linalg import (
    SUPPORT_TOL,
    _entrywise,
    _orders,
    _scalar,
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
#
# The closed-form quantities take one matrix or a stack (..., d, d) of them,
# and one order or a tuple of orders; a tuple adds a last axis over the orders
# to the result, and one matrix at one order gives a float.  Each operator is
# decomposed once for all the orders.  Powers take scalar exponents and the
# last logarithm is ``_log2``, so a value in a stack is rounded as in a
# one-matrix call.


def _log2(t) -> np.ndarray:
    """log2 of every entry, -inf where it is <= 0, rounded as in a one-matrix call."""
    return _entrywise(lambda x: math.log2(x) if x > 0 else -math.inf, t)


def _weights(m: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """<v_i|m|v_i> for every column v_i of ``vecs``, matrix by matrix."""
    return np.real(np.sum(vecs.conj() * (m @ vecs), axis=-2))


def _kernel(rho: np.ndarray, sspec) -> tuple[np.ndarray, np.ndarray]:
    """(kernel, outside) for ``spectrum(sigma)``, matrix by matrix.

    ``kernel`` masks sigma's kernel, the complement of its support;
    ``outside`` marks the matrices where rho has more than ``SUPPORT_TOL``
    weight there (supp rho not within supp sigma).
    """
    _, svecs, support = sspec
    kernel = ~support
    outside = np.zeros(kernel.shape[:-1], dtype=bool)
    if kernel.any():
        weight = np.sum(np.where(kernel, _weights(rho, svecs), 0.0), axis=-1)
        outside = weight > SUPPORT_TOL
    return kernel, outside


def _relative_entropy(rho: np.ndarray, sspec, kernel: np.ndarray) -> np.ndarray:
    """tr rho (log2 rho - log2 sigma) from sigma's spectrum, ignoring the support."""
    svals, svecs, _ = sspec
    # weights of rho on sigma's eigenvectors
    w = _weights(rho, svecs)
    mask = (~kernel) & (w > 0)
    term2 = np.sum(np.where(mask, w * np.log2(np.where(mask, svals, 1.0)), 0.0), axis=-1)
    return -von_neumann_entropy_matrix(rho) - term2


def quantum_relative_entropy_matrix(rho: np.ndarray, sigma: np.ndarray):
    """D(rho||sigma) = tr rho (log2 rho - log2 sigma), +inf off-support."""
    sspec = spectrum(sigma)
    kernel, outside = _kernel(rho, sspec)
    return _scalar(np.where(outside, math.inf, _relative_entropy(rho, sspec, kernel)))


def sandwiched_divergence_matrix(rho: np.ndarray, sigma: np.ndarray, alpha):
    """Sandwiched Renyi divergence in bits, of order ``alpha`` or of each order
    of a tuple, for one pair or matrix by matrix over stacks that broadcast.

    sigma is decomposed once for all the orders, and each order's
    sigma^c rho sigma^c is formed from that one spectrum.  supp rho not within
    supp sigma gives +inf above 1 and in the von Neumann band, for that pair
    only.
    """
    orders, alone = _orders(alpha)
    for a in orders:
        if a < 0:
            raise UsageError(f"alpha must be >= 0, got {a}")
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape[-2:] != sigma.shape[-2:]:
        raise DimensionMismatchError("divergence arguments live on different spaces")
    out = np.empty(np.broadcast_shapes(rho.shape[:-2], sigma.shape[:-2]) + orders.shape)
    zero = orders == 0.0
    band = np.abs(orders - 1.0) < ALPHA_ONE_BAND
    sandwiched = ~zero & ~band
    if zero.any():
        # -log2 tr(Pi_rho sigma), Pi_rho the support projector of rho
        _, rvecs, support = spectrum(rho)
        overlap = np.sum(np.where(support, _weights(sigma, rvecs), 0.0), axis=-1)
        out[..., zero] = -_log2(overlap)[..., None]
    if zero.all():
        return _scalar(out[..., 0]) if alone else out
    sspec = spectrum(sigma)
    kernel, outside = _kernel(rho, sspec)
    if band.any():
        d = np.where(outside, math.inf, _relative_entropy(rho, sspec, kernel))
        out[..., band] = d[..., None]
    picked = np.flatnonzero(sandwiched)
    if picked.size:
        cs = [(1.0 - a) / (2.0 * a) for a in orders[picked].tolist()]
        ks = np.stack([spectral_power(sspec, c) for c in cs], axis=-3)
        vals, _, support = spectrum(ks @ rho[..., None, :, :] @ ks, vectors=False)
        for j, i in enumerate(picked):
            a = float(orders[i])
            t = np.sum(np.where(support[..., j, :], vals[..., j, :] ** a, 0.0), axis=-1)
            d = np.where(t > 0, _log2(t) / (a - 1.0), math.inf)
            out[..., i] = np.where(outside, math.inf, d) if a > 1.0 else d
    return _scalar(out[..., 0]) if alone else out


def sandwiched_divergence(rho: LabeledOperator, sigma: LabeledOperator, alpha):
    if rho.space_out.dim != sigma.space_out.dim:
        raise DimensionMismatchError("divergence arguments live on different spaces")
    return sandwiched_divergence_matrix(rho.matrix, sigma.matrix, alpha)


def quantum_relative_entropy(rho: LabeledOperator, sigma: LabeledOperator) -> float:
    return quantum_relative_entropy_matrix(rho.matrix, sigma.matrix)


# ---------------------------------------------------------------------------
# unconditional entropies


def von_neumann_entropy_matrix(rho: np.ndarray):
    return renyi_entropy_matrix(rho, 1.0)


def von_neumann_entropy(rho: LabeledOperator) -> float:
    return von_neumann_entropy_matrix(rho.matrix)


def renyi_entropy_matrix(rho: np.ndarray, alpha):
    """S_alpha(rho) = (1/(1-alpha)) log2 tr rho^alpha; log-rank at alpha=0.

    ``rho`` may be a stack and ``alpha`` a tuple of orders, as for the
    divergence; the spectrum is taken once.
    """
    orders, _ = _orders(alpha)
    for a in orders:
        if a < 0:
            raise UsageError(f"alpha must be >= 0, got {a}")
    vals, _, support = spectrum(rho, vectors=False)
    return classical_renyi_entropy(np.where(support, vals, 0.0), alpha)


def renyi_entropy(rho: LabeledOperator, alpha):
    return renyi_entropy_matrix(rho.matrix, alpha)


# ---------------------------------------------------------------------------
# optimized quantities


@dataclass(frozen=True)
class OptimizerConfig:
    """Inner-minimization settings.

    A block's start is accepted once its gradient residual max|jac| is at
    most ``tol``; ``starts`` caps how many starts a block gets before the
    best value seen is returned.
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


def _power_adjoint(lam: np.ndarray, c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Adjoint of the Frechet derivative of x -> x**c_k at sigma_k = U_k diag(lam_k) U_k†.

    Every argument is a stack over blocks k: ``lam`` is (K, n) ascending,
    ``c`` is (K,) and ``h`` is (K, n, n), each H_k given in the eigenbasis as
    U_k† H_k U_k.  The result is in the same basis.
    """
    c = c[:, None]
    lc = lam**c
    diff = lam[:, :, None] - lam[:, None, :]
    close = np.abs(diff) < 1e-12 * np.maximum(lam[:, -1], 1e-300)[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = (lc[:, :, None] - lc[:, None, :]) / diff
    deriv = c * lam ** (c - 1.0)
    return np.where(close, deriv[:, :, None], phi) * h


def _divergence_objective(w: np.ndarray, alphas):
    """Objective x -> (D(W_k W_k† || I_A (x) sigma_k(x)) for every block k, gradient).

    ``w`` is a stack of K factors, (K, d_A, d_B, r), of states W_k W_k†, which
    need not have unit trace, and ``alphas`` holds the K orders (none of them
    1).  ``x`` holds the real and imaginary parts of K full complex d_B x d_B
    factors L_k, interleaved (``L.view(float)``), of the unnormalized
    conditioning states sigma_k(x) = L_k L_k†.  The blocks are independent:
    block k's value depends only on L_k, and its gradient is exactly L_k's
    slice of x.  A block whose sigma or sandwiched trace degenerates gets the
    value ``_FAILED`` and a zero gradient.
    """
    k, d_a, d_b, r = w.shape
    alphas = np.asarray(alphas, dtype=float)
    # W with B as the row index: sigma's eigenbasis acts by one product from the left
    wb = w.transpose(0, 2, 1, 3).reshape(k, d_b, d_a * r)
    c = (1.0 - alphas) / (2.0 * alphas)
    pref = alphas / (alphas - 1.0) / LN2

    def objective(x):
        l = x.view(complex).reshape(k, d_b, d_b)
        # tr L L† is the sum of the squares of L's real and imaginary parts
        trs = np.square(x).reshape(k, -1).sum(axis=1)
        ok = (trs > 0) & np.isfinite(trs)
        trs = np.where(ok, trs, 1.0)
        lam, u = np.linalg.eigh((l @ l.conj().swapaxes(1, 2)) / trs[:, None, None])
        lam = np.clip(lam, 1e-30, None)
        uh = u.conj().swapaxes(1, 2)
        # in sigma's eigenbasis V = U† W, and M = W† (I (x) sigma^{2c}) W = Z† Z
        # with Z = lam^c V
        v = uh @ wb
        zf = ((lam ** c[:, None])[:, :, None] * v).reshape(k, d_b * d_a, r)
        mvals, mvecs = np.linalg.eigh(zf.conj().swapaxes(1, 2) @ zf)
        clip = mvals.max(axis=1, initial=0.0) * 1e-14
        pos = mvals > clip[:, None]
        powered = np.zeros_like(mvals)
        np.power(mvals, alphas[:, None], out=powered, where=pos)
        t = powered.sum(axis=1)
        ok &= (t > 0) & np.isfinite(t)
        t = np.where(ok, t, 1.0)
        values = np.where(ok, np.log2(t) / (alphas - 1.0), _FAILED)
        mpow_vals = np.zeros_like(mvals)
        np.power(mvals, (alphas - 1.0)[:, None], out=mpow_vals, where=pos)
        # U† Tr_A[W M^(alpha-1) W†] U, the derivative of Tr M^alpha / alpha in
        # sigma^{2c}, from Y = V Q with M = Q diag(mvals) Q†
        y = v.reshape(k, d_b * d_a, r) @ mvecs
        h = ((y * mpow_vals[:, None, :]).reshape(k, d_b, d_a * r)
             @ y.reshape(k, d_b, d_a * r).conj().swapaxes(1, 2))
        h = (h + h.conj().swapaxes(1, 2)) / 2
        g = (pref / t)[:, None, None] * _power_adjoint(lam, 2.0 * c, h)
        # the gradient in L of the value at sigma = L L† / tr(L L†): with G the
        # gradient in sigma, 2 (G - tr(G sigma)) L / tr(L L†)
        g_trace = (np.diagonal(g, axis1=1, axis2=2).real * lam).sum(axis=1)
        grad = (u @ (g @ (uh @ l)) - g_trace[:, None, None] * l) * (2.0 / trs)[:, None, None]
        grad = np.where(ok[:, None, None], grad, 0.0)
        return values, grad.view(float).ravel()

    return objective


def _min_divergence(
    w: np.ndarray, alphas, config: OptimizerConfig
) -> list[tuple[float, np.ndarray, float]]:
    """min over sigma_B of D(W_k W_k† || I_A (x) sigma_B) for every block k.

    ``w`` stacks K factors, (K, d_A, d_B, r), and ``alphas`` their K orders
    (none of them 1).  The first start, Tr_A W_k W_k†, runs for every block
    in one L-BFGS-B minimization of the sum of the block values; a block's
    gradient residual is max|jac| over its own slice.  Seeded random starts
    then run, again jointly, only for the blocks whose residual is still above
    ``config.tol``, up to ``config.starts`` starts in all.  Returns (value,
    sigma, residual) per block: of its first start that meets ``tol``, or of
    its lowest-value start when none does.  A start that ends on
    ``_FAILED`` is skipped; ConvergenceError when every start of a block does.
    """
    k, _, d_b, _ = w.shape
    alphas = np.asarray(alphas, dtype=float)
    rng = generator(_START_SEED)
    best: list = [(math.inf, None, math.inf)] * k
    todo = np.arange(k)
    objective = _divergence_objective(w, alphas)
    last = []

    def summed(x):
        # L-BFGS-B sees the sum; the block values of the last evaluation are kept
        values, grad = objective(x)
        last[:] = [values]
        return float(np.sum(values)), grad

    # the deterministic start Tr_A W W†, then seeded random ones
    wb = w.transpose(0, 2, 1, 3).reshape(k, d_b, -1)
    sigma0 = wb @ wb.conj().swapaxes(1, 2)
    for start in range(max(config.starts, 1)):
        if start:
            g0 = ginibre(rng, d_b, d_b)
            m0 = g0 @ g0.conj().T
            sigma0 = np.broadcast_to(m0 / np.trace(m0).real, (todo.size, d_b, d_b))
        s0 = (sigma0 + sigma0.conj().swapaxes(1, 2)) / 2 + 1e-9 * np.eye(d_b)
        s0 /= np.trace(s0, axis1=1, axis2=2).real[:, None, None]
        # the relative-reduction test sees the sum of the block values, so its
        # tolerance is divided among the blocks
        res = scipy.optimize.minimize(
            summed,
            np.linalg.cholesky(s0).view(float).ravel(),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": _MAXITER, "ftol": _FTOL / todo.size, "gtol": _GTOL},
        )
        # res.fun is the sum of these values
        values = last[0]
        resid = np.max(np.abs(res.jac).reshape(todo.size, -1), axis=1)
        ls = res.x.view(complex).reshape(todo.size, d_b, d_b)
        converged = np.zeros(todo.size, dtype=bool)
        for j, block in enumerate(todo):
            value = float(values[j])
            if not np.isfinite(value) or value == _FAILED:
                continue
            converged[j] = resid[j] <= config.tol
            if converged[j] or value < best[block][0]:
                s = ls[j] @ ls[j].conj().T
                best[block] = (value, s / np.trace(s).real, float(resid[j]))
        if converged.any():
            todo = todo[~converged]
            if not todo.size:
                break
            objective = _divergence_objective(w[todo], alphas[todo])
    if any(sigma is None for _, sigma, _ in best):
        raise ConvergenceError("all optimizer starts failed", best_value=None, residual=None)
    return best


def _split_bipartite(rho: LabeledOperator, b_labels) -> tuple[np.ndarray, int, int, list]:
    space = rho.space
    b_labels = list(b_labels)
    for l in b_labels:
        if not space.has(l):
            raise UsageError(f"unknown label {l!r} in {space.labels}")
    a_labels = [l for l in space.labels if l not in b_labels]
    ordered = permute_systems(rho, a_labels + b_labels)
    d_b = math.prod(space.dim_of(l) for l in b_labels)
    d_a = space.dim // d_b if d_b else space.dim
    return ordered.matrix, d_a, d_b, b_labels


def _optimized(rho, labels, alphas, config, mutual: bool) -> tuple[OptimizedValue, ...]:
    """min over sigma_B of D~_alpha(rho_AB || X_A (x) sigma_B) at each order of ``alphas``,
    signed as the quantity.

    X_A is I_A for the conditional entropy, whose value is the negated
    minimum, and rho_A for the mutual information, folded into W as in the
    module docstring.  B is taken in the eigenbasis P of supp rho_B (unitary
    at full rank): pinching onto it leaves rho unchanged, so by data
    processing the optimal sigma_B lives there.  rho, rho_B and rho_A are
    decomposed once; the orders inside ``ALPHA_ONE_BAND`` take the von
    Neumann values, and the others are minimized together as one stack.
    """
    alphas = [float(a) for a in alphas]
    for alpha in alphas:
        if alpha < 0.5:
            what = "mutual information" if mutual else "conditional entropy"
            raise UsageError(f"optimized {what} needs alpha >= 1/2, got {alpha}")
    mat, d_a, d_b, b_labels = _split_bipartite(rho, labels)
    b_space = rho.space.restrict(b_labels)
    t = mat.reshape(d_a, d_b, d_a, d_b)
    rho_a = np.trace(t, axis1=1, axis2=3) if mutual else None
    rho_b = np.trace(t, axis1=0, axis2=2)
    band = [abs(a - 1.0) < ALPHA_ONE_BAND for a in alphas]
    vn = None
    if any(band):
        s_ab, s_b = von_neumann_entropy_matrix(mat), von_neumann_entropy_matrix(rho_b)
        value = von_neumann_entropy_matrix(rho_a) + s_b - s_ab if mutual else s_ab - s_b
        vn = OptimizedValue(value, LabeledOperator.square(b_space, rho_b), 0.0, "von-neumann")
    out = [vn if in_band else None for in_band in band]
    renyi = [i for i, in_band in enumerate(band) if not in_band]
    if renyi:
        orders = [alphas[i] for i in renyi]
        vals, vecs, support = spectrum(mat)
        w = (vecs[:, support] * np.sqrt(vals[support])).reshape(d_a, d_b, -1)
        if mutual:
            # support-only power: the pseudo-inverse one for a rank-deficient rho_A at alpha > 1
            spec_a = spectrum(rho_a)
            w = np.stack([np.tensordot(spectral_power(spec_a, (1.0 - a) / (2.0 * a)), w, axes=1)
                          for a in orders])
        else:
            w = np.broadcast_to(w, (len(orders),) + w.shape)
        _, vecs, support = spectrum(rho_b)
        p = vecs[:, support]
        blocks = _min_divergence(np.matmul(p.conj().T, w), orders, config)
        for i, (val, sigma, resid) in zip(renyi, blocks):
            out[i] = OptimizedValue(val if mutual else -val,
                                    LabeledOperator.square(b_space, p @ sigma @ p.conj().T),
                                    resid, "lbfgs")
    return tuple(out)


def conditional_entropy(
    rho: LabeledOperator,
    given,
    alpha: float,
    config: OptimizerConfig = DEFAULT_CONFIG,
) -> OptimizedValue:
    """S~_alpha(A|B) = -min over sigma_B of the divergence from I_A (x) sigma_B.

    ``given`` lists the conditioning labels B; A is everything else.
    """
    return _optimized(rho, given, (alpha,), config, mutual=False)[0]


def mutual_information(
    rho: LabeledOperator,
    minimize_over,
    alpha: float,
    config: OptimizerConfig = DEFAULT_CONFIG,
) -> OptimizedValue:
    """I~_alpha(A;B) = min over sigma_B of D~_alpha(rho_AB || rho_A (x) sigma_B).

    ``minimize_over`` lists the labels B carrying the optimized state.
    """
    return _optimized(rho, minimize_over, (alpha,), config, mutual=True)[0]


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


def classical_renyi_entropy(p: np.ndarray, alpha):
    """Renyi entropy in bits of the distribution ``p`` over its last axis.

    Entries <= 0 are outside the support.  ``p`` may stack distributions on
    its leading axes, and ``alpha`` may be a tuple of orders (a last axis of
    the result); one distribution at one order gives a float.
    """
    p = np.asarray(p, dtype=float)
    pos = p > 0
    orders, alone = _orders(alpha)
    out = np.empty(p.shape[:-1] + orders.shape)
    q = np.where(pos, p, 1.0)
    for j, a in enumerate(orders.tolist()):
        if abs(a - 1.0) < ALPHA_ONE_BAND:
            out[..., j] = -np.sum(np.where(pos, q * np.log2(q), 0.0), axis=-1)
        elif a == 0.0:
            out[..., j] = _log2(np.count_nonzero(pos, axis=-1))
        else:
            t = np.sum(np.where(pos, q**a, 0.0), axis=-1)
            out[..., j] = _log2(t) / (1.0 - a)
    return _scalar(out[..., 0]) if alone else out


def classical_conditional_entropy(joint: np.ndarray, alpha: float) -> float:
    """Arimoto conditional entropy of a joint table p(x, b), in bits.

    For diagonal states this is the closed form of the optimized
    S~_alpha(X|B); the minimizing sigma_B is diagonal.
    """
    joint = np.asarray(joint, dtype=float)
    alpha = float(alpha)
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        # chain rule H(X|B) = H(XB) - H(B)
        h_xb = classical_renyi_entropy(joint.reshape(-1), 1.0)
        return h_xb - classical_renyi_entropy(joint.sum(axis=0), 1.0)
    inner = np.sum(joint**alpha, axis=0) ** (1.0 / alpha)
    return float((alpha / (1.0 - alpha)) * math.log2(np.sum(inner)))
