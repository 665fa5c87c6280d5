"""Matrix functions, Schatten norms, fidelity, and purification.

``spectrum``, ``schatten_norm`` and ``fidelity_matrix`` take one matrix or a
stack (..., d, d) and work matrix by matrix, so a caller with many small
operators (the inequality suites, over a chunk of trials) decomposes them
in one call; a single matrix is the one-matrix case of the same code.  The
PSD check, the support and the fidelity cap are always per matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, NotPositiveSemidefiniteError, UsageError
from .spaces import LabeledOperator, SystemSpace

# eigenvalues at or below CLIP_REL times the largest are exact zeros
CLIP_REL = 1e-12
# a lowest eigenvalue below -PSD_REL * max(top, 1) is an error, not rounding
PSD_REL = 1e-8
# allowed weight of rho on the kernel of sigma (its eigenvalues outside the
# CLIP_REL support) for the support condition supp rho within supp sigma
SUPPORT_TOL = 1e-9


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + _dagger(m)) / 2


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _scalar(x):
    """A 0-d result as a plain float; a stacked one as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _entrywise(fn, x) -> np.ndarray:
    """``fn`` of every entry of ``x`` as a Python float.

    The last scalar step of a stacked value goes through here, so that it is
    rounded as in a one-matrix call (numpy's vector loops for log and pow can
    differ from the scalar ones in the last bit).
    """
    x = np.asarray(x, dtype=float)
    return np.reshape([fn(v) for v in x.ravel().tolist()], x.shape)


def _orders(orders) -> tuple[np.ndarray, bool]:
    """(1-d float array of the orders, whether one order was given alone)."""
    alone = np.ndim(orders) == 0
    return np.atleast_1d(np.asarray(orders, dtype=float)), alone


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b, matrix by matrix over any leading stack axes, as a broadcast
    outer product; cheaper per call than np.kron."""
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * p, n * q))


def spectrum(m: np.ndarray, vectors: bool = True):
    """(vals, vecs, support) of a Hermitian PSD matrix, or of each matrix of a
    stack (..., d, d).

    ``vals`` ascend and are clipped at 0; ``vecs`` is None unless
    ``vectors``; ``support`` marks the eigenvalues above ``CLIP_REL`` times
    the largest of the same matrix.  Raises NotPositiveSemidefiniteError when
    any matrix has an eigenvalue below ``-PSD_REL * max(top, 1)``.
    """
    m = _herm(np.asarray(m, dtype=complex))
    if vectors:
        vals, vecs = np.linalg.eigh(m)
    else:
        vals, vecs = np.linalg.eigvalsh(m), None
    # -PSD_REL is the loosest threshold a matrix can have, so the per-matrix
    # test runs only when some eigenvalue is below it
    if vals.min(initial=0.0) < -PSD_REL:
        low = vals[..., 0]
        bad = low < -PSD_REL * np.maximum(vals[..., -1], 1.0)
        if bad.any():
            raise NotPositiveSemidefiniteError(
                f"eigenvalue {low[bad][0]} below PSD tolerance"
            )
    vals = np.maximum(vals, 0.0)
    return vals, vecs, vals > CLIP_REL * vals[..., -1:]


def spectral_power(spec, p: float) -> np.ndarray:
    """m**p from ``spectrum(m)``, on the support only (zeros map to zero)."""
    vals, vecs, support = spec
    powered = np.zeros_like(vals)
    np.power(vals, p, out=powered, where=support)
    return (vecs * powered[..., None, :]) @ _dagger(vecs)


def fractional_power_matrix(m: np.ndarray, p: float) -> np.ndarray:
    """m**p for a Hermitian PSD matrix, on the support only.

    Negative ``p`` is applied on the support; the kernel stays the kernel.
    """
    return spectral_power(spectrum(m), p)


def schatten_norm(m, p):
    """Schatten p-(quasi)norm, (sum of singular values**p)**(1/p).

    Accepts a LabeledOperator, a raw matrix or a stack (..., d, d); p = inf
    gives the operator norm.  ``p`` may be a tuple of orders, read from one
    SVD per matrix: the result then has a last axis over them.  A single
    matrix at a single order gives a float.
    """
    if isinstance(m, LabeledOperator):
        m = m.matrix
    ps, alone = _orders(p)
    for order in ps:
        if not order > 0:
            raise UsageError(f"Schatten norm requires p > 0, got {order}")
    m = np.asarray(m, dtype=complex)
    s = np.linalg.svd(m, compute_uv=False)
    out = np.empty(s.shape[:-1] + ps.shape)
    for j, order in enumerate(ps.tolist()):
        if order == math.inf:
            out[..., j] = s[..., 0] if s.shape[-1] else 0.0
        else:
            out[..., j] = _entrywise(lambda t: t ** (1.0 / order), np.sum(s**order, axis=-1))
    return _scalar(out[..., 0]) if alone else out


def trace_norm(m) -> float:
    return schatten_norm(m, 1)


def fidelity_matrix(rho: np.ndarray, sigma: np.ndarray):
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1, capped at 1 + 1e-9.

    ``rho`` and ``sigma`` may be stacks that broadcast against each other;
    each is decomposed once whatever it is paired with.
    """
    sr = fractional_power_matrix(rho, 0.5)
    ss = fractional_power_matrix(sigma, 0.5)
    s = np.linalg.svd(sr @ ss, compute_uv=False)
    return _scalar(np.minimum(np.sum(s, axis=-1), 1.0 + 1e-9))


def fidelity(rho: LabeledOperator, sigma: LabeledOperator) -> float:
    if rho.space_out.dim != sigma.space_out.dim:
        raise DimensionMismatchError("fidelity requires operators on the same space")
    return fidelity_matrix(rho.matrix, sigma.matrix)


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero component is real positive."""
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            ph = col[nz[0]] / abs(col[nz[0]])
            vecs[:, j] = col / ph
    return vecs


def purification_vector(m: np.ndarray) -> np.ndarray:
    """Canonical purification of a PSD matrix as a unit (d, rank) array.

    Column j is sqrt(lambda_j) v_j over the support.  Eigenvalues descend
    and each eigenvector is rotated so that its first nonzero component is
    real positive, making the output deterministic.
    """
    vals, vecs, support = spectrum(m)
    vals, vecs = vals[support][::-1], _phase_fix(vecs[:, support][:, ::-1])
    psi = vecs * np.sqrt(vals)
    return psi / np.linalg.norm(psi)


def purify(rho: LabeledOperator, ref_label: str = "R") -> LabeledOperator:
    """Canonical purification of ``rho`` with a fresh reference system.

    The reference dimension equals the rank of ``rho``; the vector is
    ``purification_vector(rho.matrix)``.
    """
    space = rho.space
    if space.has(ref_label):
        raise UsageError(f"label {ref_label!r} already present")
    psi = purification_vector(rho.matrix)
    big = space.tensor(SystemSpace.of((ref_label, psi.shape[1])))
    psi = psi.reshape(-1)
    return LabeledOperator.square(big, np.outer(psi, psi.conj()))
