import numpy as np
import pytest
from numpy.testing import assert_allclose

from renyisc.bounds import (
    _BOUNDS,
    DEFAULT_GRID,
    _BoundEvaluator,
    _vn_limits,
    converse_bound,
    exponent_curve,
    vn_limit_check,
)
from renyisc.entropies import OptimizerConfig, alpha_params
from renyisc.errors import UsageError
from renyisc.protocols import (
    DATA_COMPRESSION,
    FEEDBACK,
    KINDS,
    MEASUREMENT_COMPRESSION,
    MERGING,
    RANDOMNESS_EXTRACTION,
    REDISTRIBUTION,
    SPLITTING,
    ideal_measurement_state,
)
from renyisc.random_ensembles import random_cq_state, random_povm, random_state
from renyisc.spaces import SystemSpace, partial_trace

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


def _kind_states():
    """One input state per protocol kind, in the labels its bounds expect."""
    ab = SystemSpace.of(("A", 2), ("B", 2))
    return {
        REDISTRIBUTION: _abc(11),
        FEEDBACK: _abc(12),
        MERGING: random_state(ab, seed=13),
        SPLITTING: random_state(SystemSpace.of(("A", 2), ("C", 2)), seed=14),
        MEASUREMENT_COMPRESSION: ideal_measurement_state(random_state(ab, seed=15),
                                                         random_povm(2, 2, 15)),
        RANDOMNESS_EXTRACTION: random_cq_state(2, 2, 16),
        DATA_COMPRESSION: random_cq_state(3, 2, 17),
    }


# distinct rates, so that every coefficient of every rate form shows
RATES = {"q": 0.7, "e": 0.3, "q_fw": 0.4, "q_tot": 0.9, "q_csm": 0.6, "e_csm": 0.25,
         "c": 0.55, "l": 0.45, "m": 0.15}
EXPECTED_RATE_BITS = {
    REDISTRIBUTION: {"redistribution-q+e": 1.0, "redistribution-2q-cond": 1.4,
                     "redistribution-2q-mutual": 1.4},
    FEEDBACK: {"feedback-q+e": 1.2, "feedback-2q-cond": 0.8, "feedback-2q-mutual": 0.8},
    MERGING: {"merging-q-e": 0.35, "merging-2q": 1.2},
    SPLITTING: {"splitting-q+e": 1.0, "splitting-2q-cond": 1.4, "splitting-2q-mutual": 1.4},
    MEASUREMENT_COMPRESSION: {"measurement-compression-c": 0.55},
    RANDOMNESS_EXTRACTION: {"randomness-extraction-linear": 0.45,
                            "randomness-extraction-cond": 0.45},
    DATA_COMPRESSION: {"data-compression-linear": 0.15, "data-compression-cond": 0.15},
}


def test_rate_bits_of_every_bound():
    assert set(EXPECTED_RATE_BITS) == set(KINDS)
    states = _kind_states()
    for kind, expected in EXPECTED_RATE_BITS.items():
        rep = converse_bound(kind, states[kind], RATES, alpha=0.8, config=CFG)
        assert [e.bound_id for e in rep.entries] == list(expected), kind
        for e in rep.entries:
            assert_allclose(e.rate_bits, expected[e.bound_id], atol=1e-12, err_msg=e.bound_id)


def _spectral_entropy(rho, alpha):
    """Renyi entropy from the eigenvalues alone."""
    lam = np.linalg.eigvalsh(rho.matrix)
    lam = lam[lam > 1e-14]
    return float(np.log2(np.sum(lam**alpha)) / (1.0 - alpha))


def test_closed_form_rows_match_eigenvalue_entropies():
    p = alpha_params(0.8)
    a, b = p.alpha, p.beta
    states = _kind_states()

    def h(kind, keep, order):
        return _spectral_entropy(partial_trace(states[kind], keep), order)

    expected = {
        "redistribution-q+e": h(REDISTRIBUTION, "AB", b) - h(REDISTRIBUTION, "B", a),
        "feedback-q+e": h(FEEDBACK, "AB", b) - h(FEEDBACK, "B", a),
        "merging-q-e": h(MERGING, "AB", b) - h(MERGING, "B", a),
        "splitting-q+e": h(SPLITTING, "A", b),
        "randomness-extraction-linear": (h(RANDOMNESS_EXTRACTION, "XB", a)
                                         - h(RANDOMNESS_EXTRACTION, "B", b)),
        "data-compression-linear": h(DATA_COMPRESSION, "XB", b) - h(DATA_COMPRESSION, "B", a),
    }
    got = {}
    for kind, state in states.items():
        for e in converse_bound(kind, state, RATES, alpha=0.8, config=CFG).entries:
            got[e.bound_id] = e.expression_bits
    for bound_id, want in expected.items():
        assert_allclose(got[bound_id], want, atol=1e-10, err_msg=bound_id)


@pytest.mark.parametrize("kind", [RANDOMNESS_EXTRACTION, DATA_COMPRESSION])
def test_cq_register_labels_do_not_matter(kind):
    xb = random_cq_state(3, 2, 18)
    ze = random_cq_state(3, 2, 18, x_label="Z", b_label="E")
    assert ze.space.labels == ("Z", "E")
    assert (exponent_curve(kind, ze, RATES, (0.6, 0.9), config=CFG).entries
            == exponent_curve(kind, xb, RATES, (0.6, 0.9), config=CFG).entries)
    assert vn_limit_check(kind, ze, 0.01, CFG) == vn_limit_check(kind, xb, 0.01, CFG)


def test_non_numeric_rate_rejected():
    cq = random_cq_state(2, 2, 1)
    for rate in ("0.5", None, [0.5]):
        with pytest.raises(UsageError, match="finite rate 'm'"):
            exponent_curve(DATA_COMPRESSION, cq, {"m": rate}, (0.8,), config=CFG)


@pytest.mark.parametrize("kind", [REDISTRIBUTION, MEASUREMENT_COMPRESSION])
def test_curve_entries_equal_single_order_bounds(kind):
    # a curve minimizes each optimized term over the whole grid as one batch;
    # every order must come out as it does alone (redistribution has optimized
    # terms at alpha and at beta, conditional entropies and mutual informations)
    state = _kind_states()[kind]
    curve = exponent_curve(kind, state, RATES)
    single = {}
    for a in curve.alphas:
        for e in converse_bound(kind, state, RATES, alpha=a).entries:
            single[e.bound_id, e.alpha] = e
    assert len(single) == len(curve.entries) == len(DEFAULT_GRID) * len(_BOUNDS[kind][3])
    for e in curve.entries:
        one = single[e.bound_id, e.alpha]
        assert abs(e.expression_bits - one.expression_bits) <= 1e-10, (e, one)
        assert abs(e.exponent - one.exponent) <= 1e-10, (e, one)


def test_table_and_von_neumann_limits_name_the_same_bounds():
    assert set(_BOUNDS) == set(KINDS)
    for kind, state in _kind_states().items():
        prefix, _, _, bounds = _BOUNDS[kind]
        limits = _vn_limits(_BoundEvaluator(kind, state, CFG))
        assert set(limits) == {f"{prefix}-{suffix}" for suffix, _, _ in bounds}, kind


@pytest.mark.parametrize("kind", KINDS)
def test_vn_limit_gap_shrinks_for_every_kind(kind):
    state = _kind_states()[kind]
    far = vn_limit_check(kind, state, eps=0.02, config=CFG)
    near = vn_limit_check(kind, state, eps=0.01, config=CFG)
    assert set(near) == set(far)
    for bid in far:
        assert near[bid]["gap"] < far[bid]["gap"], (bid, near[bid], far[bid])
        assert_allclose(near[bid]["limit"], far[bid]["limit"], atol=1e-12)


def test_vn_limit_eps_inside_von_neumann_band_rejected():
    state = random_state(SystemSpace.of(("A", 2), ("B", 2), ("C", 2)), seed=8)
    for eps in (5e-7, 1e-9):
        with pytest.raises(UsageError, match="von Neumann band"):
            vn_limit_check(REDISTRIBUTION, state, eps=eps, config=CFG)
    # just outside the band the closed-form row still sees alpha != 1
    edge = vn_limit_check(REDISTRIBUTION, state, eps=1e-6, config=CFG)
    assert edge["redistribution-q+e"]["gap"] > 1e-8
