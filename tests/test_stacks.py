"""Stacked spectral primitives against a per-matrix numpy reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyisc.entropies import (
    ALPHA_ONE_BAND,
    renyi_entropy_matrix,
    sandwiched_divergence_matrix,
)
from renyisc.errors import NotPositiveSemidefiniteError, UsageError
from renyisc.linalg import CLIP_REL, SUPPORT_TOL, fidelity_matrix, schatten_norm, spectrum

# alpha = 0, an order inside ALPHA_ONE_BAND, orders below and above 1
ORDERS = (0.0, 0.5, 0.7, 1.0 + ALPHA_ONE_BAND / 4, 1.5, 2.0)
TOL = 1e-9


def _states(rng, shape, d, rank=None):
    """A stack of random density matrices of the given rank (full by default)."""
    r = d if rank is None else rank
    g = rng.normal(size=shape + (d, r)) + 1j * rng.normal(size=shape + (d, r))
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def _ref_eigvalsh(m):
    vals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return np.clip(vals, 0.0, None)


def _ref_entropy(m, a):
    vals = _ref_eigvalsh(m)
    p = vals[vals > CLIP_REL * vals[-1]]
    if abs(a - 1.0) < ALPHA_ONE_BAND:
        return float(-np.sum(p * np.log2(p)))
    if a == 0.0:
        return math.log2(len(p))
    return math.log2(np.sum(p**a)) / (1.0 - a)


def _ref_divergence(rho, sigma, a):
    lam, u = np.linalg.eigh((sigma + sigma.conj().T) / 2)
    lam = np.clip(lam, 0.0, None)
    sup = lam > CLIP_REL * lam[-1]
    ker = u[:, ~sup]
    outside = np.trace(ker.conj().T @ rho @ ker).real > SUPPORT_TOL
    if a == 0.0:
        rv, rvec = np.linalg.eigh((rho + rho.conj().T) / 2)
        p = rvec[:, rv > CLIP_REL * rv[-1]]
        overlap = np.trace(p.conj().T @ sigma @ p).real
        return math.inf if overlap <= 0 else -math.log2(overlap)
    if abs(a - 1.0) < ALPHA_ONE_BAND:
        if outside:
            return math.inf
        w = np.real(np.diag(u.conj().T @ rho @ u))
        keep = sup & (w > 0)
        return -_ref_entropy(rho, 1.0) - float(np.sum(w[keep] * np.log2(lam[keep])))
    if a > 1.0 and outside:
        return math.inf
    c = (1.0 - a) / (2.0 * a)
    k = (u[:, sup] * lam[sup] ** c) @ u[:, sup].conj().T
    vals = _ref_eigvalsh(k @ rho @ k)
    t = np.sum(vals[vals > CLIP_REL * vals[-1]] ** a)
    return math.inf if t <= 0 else math.log2(t) / (a - 1.0)


def _ref_fidelity(rho, sigma):
    def root(m):
        lam, u = np.linalg.eigh((m + m.conj().T) / 2)
        lam = np.clip(lam, 0.0, None)
        return (u * np.sqrt(np.where(lam > CLIP_REL * lam[-1], lam, 0.0))) @ u.conj().T

    return min(float(np.sum(np.linalg.svd(root(rho) @ root(sigma), compute_uv=False))), 1 + 1e-9)


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isinf(got), np.isinf(want)), (got, want)
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=0, atol=TOL), (got, want)


stack_shapes = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple)
dims = st.integers(1, 8)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(stack_shapes, dims, seeds, st.booleans())
def test_spectrum_matches_eigvalsh(shape, d, seed, deficient):
    rng = np.random.default_rng(seed)
    m = _states(rng, shape, d, rank=max(1, d // 2) if deficient else None)
    vals, vecs, support = spectrum(m)
    assert vals.shape == support.shape == shape + (d,)
    for idx in np.ndindex(shape):
        want = _ref_eigvalsh(m[idx])
        assert np.allclose(vals[idx], want, rtol=0, atol=1e-12)
        assert support[idx].tolist() == (vals[idx] > CLIP_REL * vals[idx][-1]).tolist()
        assert np.allclose((vecs[idx] * vals[idx]) @ vecs[idx].conj().T, m[idx], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(stack_shapes, dims, seeds, st.integers(1, 8))
def test_renyi_entropy_stack_matches_reference(shape, d, seed, rank):
    rng = np.random.default_rng(seed)
    m = _states(rng, shape, d, rank=min(rank, d))
    got = renyi_entropy_matrix(m, ORDERS)
    assert got.shape == shape + (len(ORDERS),)
    for idx in np.ndindex(shape):
        _close(got[idx], [_ref_entropy(m[idx], a) for a in ORDERS])
        # one matrix at one order is the same code: a float
        one = renyi_entropy_matrix(m[idx], ORDERS[2])
        assert isinstance(one, float) and one == got[idx][2]


@settings(max_examples=40, deadline=None)
@given(stack_shapes, dims, seeds, st.integers(1, 8), st.integers(1, 8))
def test_divergence_stack_matches_reference(shape, d, seed, rank_rho, rank_sigma):
    rng = np.random.default_rng(seed)
    rho = _states(rng, shape, d, rank=min(rank_rho, d))
    sigma = _states(rng, shape, d, rank=min(rank_sigma, d))
    got = sandwiched_divergence_matrix(rho, sigma, ORDERS)
    assert got.shape == shape + (len(ORDERS),)
    for idx in np.ndindex(shape):
        _close(got[idx], [_ref_divergence(rho[idx], sigma[idx], a) for a in ORDERS])
        one = sandwiched_divergence_matrix(rho[idx], sigma[idx], ORDERS[4])
        assert one == got[idx][4] or (math.isinf(one) and math.isinf(got[idx][4]))


@settings(max_examples=30, deadline=None)
@given(stack_shapes, dims, seeds, st.integers(0, 8))
def test_off_support_is_infinite_for_that_matrix_only(shape, d, seed, pick):
    # at alpha > 1, supp rho not within supp sigma gives +inf; only one matrix
    # of the stack has a rank-deficient sigma
    if d < 2:
        return
    rng = np.random.default_rng(seed)
    rho = _states(rng, shape, d)
    sigma = _states(rng, shape, d)
    bad = np.unravel_index(pick % math.prod(shape), shape)
    sigma[bad] = _states(rng, (), d, rank=d - 1)
    orders = (0.7, 1.0, 1.5, 2.0)
    got = sandwiched_divergence_matrix(rho, sigma, orders)
    for idx in np.ndindex(shape):
        if idx == bad:
            assert math.isfinite(got[idx][0])
            assert np.isinf(got[idx][1:]).all()
        else:
            assert np.isfinite(got[idx]).all()
            _close(got[idx], [_ref_divergence(rho[idx], sigma[idx], a) for a in orders])


@settings(max_examples=30, deadline=None)
@given(stack_shapes, dims, seeds, st.booleans())
def test_fidelity_stack_matches_reference(shape, d, seed, deficient):
    rng = np.random.default_rng(seed)
    rho = _states(rng, shape, d, rank=max(1, d // 2) if deficient else None)
    sigma = _states(rng, shape, d)
    got = fidelity_matrix(rho, sigma)
    assert np.shape(got) == shape
    for idx in np.ndindex(shape):
        assert abs(got[idx] - _ref_fidelity(rho[idx], sigma[idx])) <= TOL
    # rho paired with two sigmas by broadcasting
    both = fidelity_matrix(rho[..., None, :, :], np.stack([sigma, rho], axis=-3))
    assert np.allclose(both[..., 0], got, rtol=0, atol=1e-12)
    assert np.allclose(both[..., 1], 1.0, rtol=0, atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(stack_shapes, st.integers(2, 8), seeds, st.integers(0, 8))
def test_one_non_psd_matrix_in_a_stack_raises(shape, d, seed, pick):
    rng = np.random.default_rng(seed)
    m = _states(rng, shape, d)
    bad = np.unravel_index(pick % math.prod(shape), shape)
    m[bad] = m[bad] - 0.5 * np.eye(d)
    for call in (lambda: spectrum(m), lambda: renyi_entropy_matrix(m, ORDERS),
                 lambda: sandwiched_divergence_matrix(m, m, ORDERS),
                 lambda: fidelity_matrix(m, m)):
        with pytest.raises(NotPositiveSemidefiniteError):
            call()


def test_schatten_norm_of_a_stack_at_many_orders():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 2, 4, 5)) + 1j * rng.normal(size=(3, 2, 4, 5))
    ps = (0.5, 1.0, 3.0, math.inf)
    got = schatten_norm(m, ps)
    assert got.shape == (3, 2, 4)
    for idx in np.ndindex(3, 2):
        for j, p in enumerate(ps):
            assert got[idx][j] == schatten_norm(m[idx], p)


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan])
def test_schatten_norm_rejects_a_bad_order_before_any_svd(p, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD ran before the order was checked")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for m in (np.eye(2), np.stack([np.eye(2)] * 3)):
        with pytest.raises(UsageError, match="p > 0"):
            schatten_norm(m, p)
        with pytest.raises(UsageError, match="p > 0"):
            schatten_norm(m, (2.0, p))
