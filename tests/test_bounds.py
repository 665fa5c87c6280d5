import numpy as np
import pytest
from numpy.testing import assert_allclose

from renyisc.bounds import (
    DEFAULT_GRID,
    converse_bound,
    exponent_curve,
    vn_limit_check,
)
from renyisc.entropies import OptimizerConfig, alpha_params
from renyisc.errors import UsageError
from renyisc.protocols import (
    DATA_COMPRESSION,
    MERGING,
    RANDOMNESS_EXTRACTION,
    REDISTRIBUTION,
    SPLITTING,
)
from renyisc.random_ensembles import random_cq_state, random_state
from renyisc.spaces import SystemSpace

CFG = OptimizerConfig(starts=2)


def _abc(seed=0):
    return random_state(SystemSpace.of(("A", 2), ("B", 2), ("C", 2)), seed=seed)


def test_alpha_domain_enforced():
    with pytest.raises(UsageError):
        converse_bound(REDISTRIBUTION, _abc(), {"q": 1.0, "e": 0.0}, alpha=1.2, config=CFG)
    with pytest.raises(UsageError):
        converse_bound(REDISTRIBUTION, _abc(), {"q": 1.0, "e": 0.0}, alpha=0.5, config=CFG)


def test_empty_grid_rejected():
    with pytest.raises(UsageError, match="alphas"):
        exponent_curve(DATA_COMPRESSION, random_cq_state(2, 2, 2), {"m": 1.0}, (), config=CFG)


def test_copies_domain_enforced():
    cq = random_cq_state(2, 2, 2)
    for copies in (0, -3):
        with pytest.raises(UsageError, match="copies"):
            converse_bound(DATA_COMPRESSION, cq, {"m": 1.0}, alpha=0.8, copies=copies, config=CFG)
        with pytest.raises(UsageError, match="copies"):
            exponent_curve(DATA_COMPRESSION, cq, {"m": 1.0}, (0.8,), copies=copies, config=CFG)


def test_redistribution_report_structure():
    rep = converse_bound(REDISTRIBUTION, _abc(1), {"q": 1.0, "e": 0.0}, alpha=0.8, config=CFG)
    ids = [e.bound_id for e in rep.entries]
    assert ids == ["redistribution-q+e", "redistribution-2q-cond", "redistribution-2q-mutual"]
    for e in rep.entries:
        p = alpha_params(0.8)
        assert_allclose(e.beta, p.beta, atol=1e-12)
        assert_allclose(e.kappa, p.kappa, atol=1e-12)
        assert_allclose(e.log2_merit_bound, -e.exponent, atol=1e-12)
        assert_allclose(e.exponent, e.kappa * (e.expression_bits - e.rate_bits), atol=1e-12)


def test_copies_scale_the_merit_bound():
    rep1 = converse_bound(DATA_COMPRESSION, random_cq_state(2, 2, 2), {"m": 1.0},
                          alpha=0.8, copies=1, config=CFG)
    rep3 = converse_bound(DATA_COMPRESSION, random_cq_state(2, 2, 2), {"m": 1.0},
                          alpha=0.8, copies=3, config=CFG)
    for e1, e3 in zip(rep1.entries, rep3.entries):
        assert_allclose(e3.log2_merit_bound, 3 * e1.log2_merit_bound, atol=1e-9)


def test_randomness_extraction_exponent_orientation():
    # extracting above the entropy of the source forces decay: a high rate
    # must give a positive exponent, a zero rate must not
    cq = random_cq_state(2, 2, 3)
    high = converse_bound(RANDOMNESS_EXTRACTION, cq, {"l": 5.0}, alpha=0.8, config=CFG)
    low = converse_bound(RANDOMNESS_EXTRACTION, cq, {"l": 0.0}, alpha=0.8, config=CFG)
    for e in high.entries:
        assert e.exponent > 0
    for e in low.entries:
        assert e.exponent <= 1e-12
    # the prefactor is half the usual kappa
    p = alpha_params(0.8)
    assert_allclose(high.entries[0].kappa, p.kappa / 2, atol=1e-12)


def test_data_compression_exponent_orientation():
    # compressing below the entropy forces decay: zero rate gives a
    # positive exponent, a generous rate does not
    cq = random_cq_state(2, 2, 4)
    none = converse_bound(DATA_COMPRESSION, cq, {"m": 0.0}, alpha=0.8, config=CFG)
    ample = converse_bound(DATA_COMPRESSION, cq, {"m": 5.0}, alpha=0.8, config=CFG)
    for e in none.entries:
        assert e.exponent > 0
    for e in ample.entries:
        assert e.exponent < 0


def test_exponent_curve_grid_and_sup():
    cq = random_cq_state(2, 2, 5)
    curve = exponent_curve(DATA_COMPRESSION, cq, {"m": 0.0}, alphas=(0.6, 0.75, 0.9),
                           config=CFG)
    assert curve.alphas == (0.6, 0.75, 0.9)
    assert len(curve.entries) == 6
    for bid, (sup, at) in curve.sup_exponent.items():
        assert at in curve.alphas
        assert sup >= max(e.exponent for e in curve.entries if e.bound_id == bid) - 1e-12


def test_default_grid_inside_open_interval():
    assert len(DEFAULT_GRID) == 25
    assert 0.5 < min(DEFAULT_GRID) and max(DEFAULT_GRID) < 1.0


def test_merging_expressions_match_specialization():
    # merging uses the same first expression as redistribution
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=6)
    rep = converse_bound(MERGING, rho, {"q_csm": 1.0, "e_csm": 0.5}, alpha=0.8, config=CFG)
    ids = [e.bound_id for e in rep.entries]
    assert ids == ["merging-q-e", "merging-2q"]
    assert_allclose(rep.entries[0].rate_bits, 0.5, atol=1e-12)


def test_splitting_needs_a_and_c():
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=7)
    with pytest.raises(UsageError):
        converse_bound(SPLITTING, rho, {"q": 1.0, "e": 0.0}, alpha=0.8, config=CFG)


def test_vn_limit_gap_shrinks():
    state = _abc(8)
    far = vn_limit_check(REDISTRIBUTION, state, eps=0.04, config=CFG)
    near = vn_limit_check(REDISTRIBUTION, state, eps=0.02, config=CFG)
    for bid in far:
        assert near[bid]["gap"] < far[bid]["gap"] + 1e-9
        assert_allclose(near[bid]["limit"], far[bid]["limit"], atol=1e-12)


def test_vn_limit_eps_domain():
    with pytest.raises(UsageError):
        vn_limit_check(REDISTRIBUTION, _abc(9), eps=0.5, config=CFG)


def test_vn_limits_classical_values():
    # uniform classical bit with trivial side information: S(X|B) = 1
    cq = SystemSpace.of(("X", 2), ("B", 1))
    from renyisc.spaces import LabeledOperator

    rho = LabeledOperator.square(cq, np.eye(2, dtype=complex) / 2)
    rep = vn_limit_check(DATA_COMPRESSION, rho, eps=0.01, config=CFG)
    for bid, row in rep.items():
        assert_allclose(row["limit"], 1.0, atol=1e-10)
        assert row["gap"] < 1e-6
