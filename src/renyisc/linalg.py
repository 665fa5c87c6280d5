"""Matrix functions, Schatten norms, fidelity, and purification."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotPositiveSemidefiniteError, UsageError
from .spaces import LabeledOperator, SystemSpace

# eigenvalues at or below CLIP_REL times the largest are exact zeros
CLIP_REL = 1e-12
# a lowest eigenvalue below -PSD_REL * max(top, 1) is an error, not rounding
PSD_REL = 1e-8
# kernel threshold (relative to max(top, 1)) and allowed weight of rho there
# for the support condition supp rho within supp sigma
SUPPORT_TOL = 1e-9


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b as a broadcast outer product; cheaper per call than np.kron."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def spectrum(m: np.ndarray, vectors: bool = True):
    """(vals, vecs, support) of a Hermitian PSD matrix.

    ``vals`` ascend and are clipped at 0; ``vecs`` is None unless
    ``vectors``; ``support`` marks the eigenvalues above ``CLIP_REL`` times
    the largest.  Raises NotPositiveSemidefiniteError on an eigenvalue below
    ``-PSD_REL * max(top, 1)``.
    """
    m = _herm(np.asarray(m, dtype=complex))
    if vectors:
        vals, vecs = np.linalg.eigh(m)
    else:
        vals, vecs = np.linalg.eigvalsh(m), None
    top = max(vals[-1], 0.0)
    if vals[0] < -PSD_REL * max(top, 1.0):
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {vals[0]} below PSD tolerance"
        )
    vals = np.clip(vals, 0.0, None)
    return vals, vecs, vals > CLIP_REL * top


def spectral_power(spec, p: float) -> np.ndarray:
    """m**p from ``spectrum(m)``, on the support only (zeros map to zero)."""
    vals, vecs, support = spec
    powered = np.zeros_like(vals)
    np.power(vals, p, out=powered, where=support)
    return (vecs * powered) @ vecs.conj().T


def fractional_power_matrix(m: np.ndarray, p: float) -> np.ndarray:
    """m**p for a Hermitian PSD matrix, on the support only.

    Negative ``p`` is applied on the support; the kernel stays the kernel.
    """
    return spectral_power(spectrum(m), p)


def fractional_power(op: LabeledOperator, p: float) -> LabeledOperator:
    return LabeledOperator.square(op.space, fractional_power_matrix(op.matrix, p))


def schatten_norm(m, p: float) -> float:
    """Schatten p-(quasi)norm, (sum of singular values**p)**(1/p).

    Accepts a LabeledOperator or a raw matrix; p = inf gives the operator
    norm.
    """
    if isinstance(m, LabeledOperator):
        m = m.matrix
    m = np.asarray(m, dtype=complex)
    s = np.linalg.svd(m, compute_uv=False)
    if p == np.inf:
        return float(s[0]) if s.size else 0.0
    if not p > 0:
        raise UsageError(f"Schatten norm requires p > 0, got {p}")
    return float(np.sum(s**p) ** (1.0 / p))


def trace_norm(m) -> float:
    return schatten_norm(m, 1)


def fidelity_matrix(rho: np.ndarray, sigma: np.ndarray) -> float:
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1."""
    sr = fractional_power_matrix(rho, 0.5)
    ss = fractional_power_matrix(sigma, 0.5)
    s = np.linalg.svd(sr @ ss, compute_uv=False)
    return float(min(np.sum(s), 1.0 + 1e-9))


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
