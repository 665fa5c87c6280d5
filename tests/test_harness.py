import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import renyisc.bounds
from renyisc import harness
from renyisc.entropies import (
    OptimizerConfig,
    _split_bipartite,
    conditional_entropy,
    mutual_information,
    sandwiched_divergence_matrix,
)
from renyisc.errors import UsageError
from renyisc.harness import (
    SUITE_IDS,
    _trial_seed,
    brute_force_min_divergence,
    check_protocol_bounds,
    falsify_bound_comparison,
    run_inequality_suite,
    verify_counterexample,
)
from renyisc.random_ensembles import generator, ginibre, random_state, random_state_matrix
from renyisc.spaces import SystemSpace


def test_unknown_suite_rejected():
    with pytest.raises(UsageError):
        run_inequality_suite("no-such-suite", 1)


@pytest.mark.parametrize("dims", [(2,), (2, 3, 4), (0, 3)])
def test_suite_dims_checked(dims):
    with pytest.raises(UsageError, match="additivity"):
        run_inequality_suite("additivity", 1, dims=dims)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: run_inequality_suite("holder", 1, tol=float("nan")), "tol"),
        (lambda: run_inequality_suite("holder", 1, tol=-1.0), "tol"),
        (lambda: run_inequality_suite("holder", 0), "trials"),
        (lambda: run_inequality_suite("holder", -1), "trials"),
        (lambda: check_protocol_bounds("data-compression", 0, alphas=(0.6, 0.9)), "trials"),
        (lambda: check_protocol_bounds("data-compression", -1, alphas=(0.6, 0.9)), "trials"),
        (lambda: check_protocol_bounds("data-compression", 2, alphas=()), "alphas"),
        (lambda: falsify_bound_comparison(0), "trials"),
        (lambda: falsify_bound_comparison(-5), "trials"),
    ],
    ids=["suite-tol-nan", "suite-tol-negative", "suite-trials-0", "suite-trials-negative",
         "protocol-trials-0", "protocol-trials-negative", "protocol-alphas-empty",
         "falsify-trials-0", "falsify-trials-negative"],
)
def test_vacuous_runs_rejected(call, name):
    with pytest.raises(UsageError, match=name):
        call()


def test_random_channel_pads_environment_for_large_input():
    # a purifier of dimension 5 into B of dimension 2 needs an environment of 4
    report = run_inequality_suite("fidelity-bounds", 1, dims=(5, 2))
    assert report.passed


def test_all_suites_registered():
    expected = {
        "holder",
        "mccarthy",
        "divergence-monotonicity",
        "entropy-bounds",
        "additivity",
        "isometric-invariance",
        "entropy-duality",
        "conditional-duality",
        "dpi",
        "subadditivity",
        "dimension-bounds",
        "fidelity-bounds",
        "cq-monotonicity",
        "cmi-generalizations",
        "fidelity-product",
    }
    assert set(SUITE_IDS) == expected


def test_suite_report_shape():
    rep = run_inequality_suite("holder", 4, seed=5)
    assert rep.suite_id == "holder"
    assert rep.trials == 4
    assert rep.passed
    assert rep.tol == 1e-8


def test_suite_replay_deterministic():
    a = run_inequality_suite("entropy-duality", 6, seed=9)
    b = run_inequality_suite("entropy-duality", 6, seed=9)
    assert a.failures == b.failures
    assert a.max_violation == b.max_violation


def test_brute_force_dominates_optimizer():
    # the random net can only overshoot a convergent descent
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=1)
    for alpha in (0.6, 2.0):
        opt = -conditional_entropy(rho, ["B"], alpha, OptimizerConfig(starts=4)).value
        bf = brute_force_min_divergence(rho, ["B"], alpha, budget=800, seed=1)
        assert bf >= opt - 1e-9
        assert abs(bf - opt) < 1e-4


def test_brute_force_mutual_variant():
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=2)
    opt = mutual_information(rho, ["B"], 2.0, OptimizerConfig(starts=4)).value
    bf = brute_force_min_divergence(rho, ["B"], 2.0, budget=800, seed=2, mutual=True)
    assert bf >= opt - 1e-9
    assert abs(bf - opt) < 1e-4


def test_brute_force_dimension_limit():
    rho = random_state(SystemSpace.of(("A", 2), ("B", 4)), seed=3)
    with pytest.raises(UsageError):
        brute_force_min_divergence(rho, ["B"], 2.0)


def test_falsifier_finds_both_directions():
    ces = falsify_bound_comparison(2000, seed=0)
    directions = {ce.direction for ce in ces}
    assert directions == {"left-violated", "right-violated"}
    for ce in ces:
        assert ce.margin > 1e-6
        assert verify_counterexample(ce)


def test_falsifier_deterministic():
    a = falsify_bound_comparison(500, seed=4, verify=False)
    b = falsify_bound_comparison(500, seed=4, verify=False)
    assert [(x.direction, x.alpha, x.seed) for x in a] == [
        (x.direction, x.alpha, x.seed) for x in b
    ]
    for x, y in zip(a, b):
        assert_allclose(x.joint, y.joint, atol=0)


def test_protocol_check_runs_clean():
    rep = check_protocol_bounds("data-compression", 3, seed=6, alphas=(0.6, 0.9))
    assert rep.passed
    assert rep.trials == 3


def test_protocol_check_unknown_kind():
    with pytest.raises(UsageError):
        check_protocol_bounds("no-such-protocol", 1)


@pytest.mark.parametrize("kind", ["redistribution", "data-compression",
                                  "measurement-compression"])
def test_protocol_check_reports_violations(kind, monkeypatch):
    # every bound lowered by 3 bits, so the sweep must report failures
    exponent_curve = renyisc.bounds.exponent_curve

    def lowered(*args, **kwargs):
        curve = exponent_curve(*args, **kwargs)
        entries = tuple(dataclasses.replace(e, log2_merit_bound=e.log2_merit_bound - 3.0)
                        for e in curve.entries)
        return dataclasses.replace(curve, entries=entries)

    monkeypatch.setattr(renyisc.bounds, "exponent_curve", lowered)
    alphas = (0.6, 0.75, 0.9)
    rep = check_protocol_bounds(kind, 3, seed=3, alphas=alphas)
    assert not rep.passed
    assert rep.tol == 1e-8
    for f in rep.failures:
        assert f.seed == _trial_seed(3, f.trial)
        assert set(f.values) == {"merit", "bound", "alpha"}
        assert f.slack == f.values["bound"] - math.log2(max(f.values["merit"], 1e-300))
        assert f.slack < -1e-8
        assert f.check.startswith(kind)
        assert f.check.endswith(f"-a{f.values['alpha']:.4f}")
        assert f.values["alpha"] in alphas
    assert rep.max_violation == max(-f.slack for f in rep.failures)
    replay = check_protocol_bounds(kind, 3, seed=3, alphas=alphas)
    assert replay.failures == rep.failures
    assert replay.max_violation == rep.max_violation


# ---------------------------------------------------------------------------
# closed-form suites over chunks of trials

CLOSED_FORM = {
    "holder": (36,),
    "mccarthy": (36,),
    "divergence-monotonicity": (36,),
    "entropy-bounds": (36,),
    "additivity": (6, 6),
    "isometric-invariance": (36,),
    "entropy-duality": (6, 6),
    "subadditivity": (6, 6),
    "fidelity-product": (6, 6),
}


def _margins(monkeypatch, suite, trials, dims, seed, tol=None):
    """Every (trial, check, margin, values) of a run, through the real trial loop."""
    body, default, suite_tol, op_dim = harness._SUITES[suite]
    rows = []

    def recording(rngs, d):
        out = body(rngs, d)
        rows.extend(out)
        return out

    monkeypatch.setitem(harness._SUITES, suite, (recording, default, suite_tol, op_dim))
    report = run_inequality_suite(suite, trials, dims=dims, seed=seed, tol=tol)
    monkeypatch.setitem(harness._SUITES, suite, (body, default, suite_tol, op_dim))
    assert len(rows) == trials
    return report, rows


def _alone(suite, dims, seed, trial):
    body = harness._SUITES[suite][0]
    return body([generator(_trial_seed(seed, trial))], dims)[0]


def _assert_same_rows(a, b, atol):
    assert [r[0] for r in a] == [r[0] for r in b]
    for (_, m1, v1), (_, m2, v2) in zip(a, b):
        assert abs(m1 - m2) <= atol
        assert v1.keys() == v2.keys()
        assert all(abs(v1[k] - v2[k]) <= atol or v1[k] == v2[k] for k in v1)


@pytest.mark.parametrize("size", ["default", "large"])
@pytest.mark.parametrize("suite", sorted(CLOSED_FORM))
def test_chunked_margins_equal_each_trial_alone(suite, size, monkeypatch):
    dims = harness.suite_dims(suite) if size == "default" else CLOSED_FORM[suite]
    _, rows = _margins(monkeypatch, suite, 25, dims, seed=13)
    for trial, trial_rows in enumerate(rows):
        _assert_same_rows(trial_rows, _alone(suite, dims, 13, trial), atol=1e-12)
        for _, margin, values in trial_rows:
            assert type(margin) is float
            assert all(type(v) is float for v in values.values())


@pytest.mark.parametrize("size", ["default", "large"])
@pytest.mark.parametrize("suite", sorted(CLOSED_FORM))
def test_chunk_boundaries_change_no_margin(suite, size, monkeypatch):
    dims = harness.suite_dims(suite) if size == "default" else CLOSED_FORM[suite]
    _, whole = _margins(monkeypatch, suite, 25, dims, seed=14)
    # a cap that gives chunks of 4 trials, so 25 trials cross six boundaries
    op_dim = harness._SUITES[suite][3](dims)
    monkeypatch.setattr(harness, "_STACK_ENTRIES", 4 * op_dim**2)
    _, split = _margins(monkeypatch, suite, 25, dims, seed=14)
    for a, b in zip(whole, split):
        _assert_same_rows(a, b, atol=1e-12)


def test_chunk_holds_at_most_the_stack_cap(monkeypatch):
    sizes = []
    body, default, tol, op_dim = harness._SUITES["isometric-invariance"]

    def recording(rngs, dims):
        sizes.append(len(rngs))
        return body(rngs, dims)

    monkeypatch.setitem(harness._SUITES, "isometric-invariance", (recording, default, tol, op_dim))
    run_inequality_suite("isometric-invariance", 12, dims=(36,), seed=1)
    # 38 x 38 operators: 5 trials hold 7,220 entries, within 2**13
    assert sizes == [5, 5, 2]
    assert harness._STACK_ENTRIES == 2**13


@pytest.mark.parametrize("suite, dims", [("additivity", (6, 6)), ("entropy-duality", (3, 4)),
                                         ("isometric-invariance", (36,)),
                                         ("entropy-bounds", (4,))])
def test_failure_replays_from_suite_seed_and_trial(suite, dims):
    # at tol = 0 every equality check with a nonzero rounding defect fails
    report = run_inequality_suite(suite, 13, dims=dims, seed=21, tol=0.0)
    assert report.failures
    assert report.max_violation == max(-f.slack for f in report.failures)
    order = [(f.trial, f.check) for f in report.failures]
    names = {t: [r[0] for r in _alone(suite, dims, 21, t)] for t, _ in order}
    assert order == sorted(order, key=lambda tc: (tc[0], names[tc[0]].index(tc[1])))
    for f in report.failures:
        assert f.seed == _trial_seed(21, f.trial)
        replay = {r[0]: r for r in _alone(suite, dims, 21, f.trial)}
        _, margin, values = replay[f.check]
        assert margin == f.slack
        assert values == f.values
        assert type(f.slack) is float


def test_suite_runtime_is_measured():
    assert run_inequality_suite("holder", 3, seed=1).runtime > 0.0


def _sequential_oracle(rho, alpha, budget, seed, mutual):
    """The oracle's search, one candidate at a time."""
    mat, d_a, d_b, _ = _split_bipartite(rho, ["B"])
    t = mat.reshape(d_a, d_b, d_a, d_b)
    factor = np.trace(t, axis1=1, axis2=3) if mutual else np.eye(d_a)

    def value(sigma):
        return sandwiched_divergence_matrix(mat, np.kron(factor, sigma), alpha)

    rng = generator(seed)
    best_sigma = np.trace(t, axis1=0, axis2=2)
    best = value(best_sigma)
    for _ in range(budget):
        s = random_state_matrix(rng, d_b)
        v = value(s)
        if v < best:
            best, best_sigma = v, s
    radius = 0.5
    for _ in range(12):
        for _ in range(120):
            g = ginibre(rng, d_b, d_b)
            s = best_sigma + radius * (g @ g.conj().T) / d_b
            s = (s + s.conj().T) / 2
            s /= np.trace(s).real
            v = value(s)
            if v < best:
                best, best_sigma = v, s
        radius *= 0.6
    return best


@pytest.mark.parametrize("alpha, mutual, shape", [(0.6, False, (2, 2)), (2.0, True, (2, 2)),
                                                  (1.0, False, (2, 3)), (1.5, True, (3, 2))])
def test_batched_oracle_matches_the_sequential_search(alpha, mutual, shape):
    rho = random_state(SystemSpace.of(("A", shape[0]), ("B", shape[1])), seed=40)
    got = brute_force_min_divergence(rho, ["B"], alpha, budget=150, seed=3, mutual=mutual)
    assert abs(got - _sequential_oracle(rho, alpha, 150, 3, mutual)) <= 1e-12
