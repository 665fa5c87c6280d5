import dataclasses
import math

import pytest
from numpy.testing import assert_allclose

import renyisc.bounds
from renyisc.entropies import OptimizerConfig, conditional_entropy, mutual_information
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
from renyisc.random_ensembles import random_state
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
