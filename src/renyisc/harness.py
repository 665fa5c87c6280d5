"""Randomized verification suites, brute-force oracles, and the falsifier.

Each suite draws states from seeded ensembles and checks one family of
inequalities.  A check passes when its signed margin (left side minus
right side in the "must be nonnegative" orientation) stays above minus
the suite tolerance.  Suites never abort early; all failures are
collected for diagnosis and replay from (suite id, seed, trial index).

A protocol soundness sweep is a suite whose trial draws a random instance
of one kind, runs it, and yields the slack of log2 merit under each of the
kind's bounds; both run on the one trial loop, ``_run_trials``.

The loop hands out chunks of trials.  The closed-form suites take a whole
chunk (at most ``_STACK_ENTRIES`` matrix entries per operator stack) and
evaluate it as stacks; the optimizer suites and the sweeps take one trial
at a time.  Every trial draws from its own generator, keyed by (seed, trial
index), so its margins do not depend on the chunk it falls in and replay
from (suite id, seed, trial index) is unchanged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .channels import ChannelSpec, apply_channels
from .entropies import (
    alpha_params,
    classical_conditional_entropy,
    classical_renyi_entropy,
    conditional_entropy,
    conditional_mutual_information,
    cmi_generalizations,
    mutual_information,
    renyi_entropy,
    renyi_entropy_matrix,
    sandwiched_divergence,
    sandwiched_divergence_matrix,
    von_neumann_cmi,
)
from .errors import UsageError
from .linalg import _kron, fidelity, fidelity_matrix, schatten_norm
from .random_ensembles import (
    generator,
    ginibre,
    haar_isometry_matrix,
    random_cq_state,
    random_povm,
    random_probability_vector,
    random_state_matrix,
)
from .spaces import (
    LabeledOperator,
    SystemSpace,
    partial_trace,
    partial_trace_matrix,
    permute_systems,
)

CLOSED_FORM_TOL = 1e-8
OPTIMIZER_TOL = 1e-6
SOUNDNESS_TOL = 1e-8  # slack of log2 merit against each protocol bound


@dataclass(frozen=True)
class Failure:
    trial: int
    seed: int
    check: str
    values: dict
    slack: float


@dataclass(frozen=True)
class SuiteReport:
    suite_id: str
    trials: int
    failures: tuple
    max_violation: float
    runtime: float
    tol: float

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Counterexample:
    direction: str
    joint: np.ndarray
    alpha: float
    lhs: float
    rhs: float
    seed: int

    @property
    def margin(self) -> float:
        return abs(self.lhs - self.rhs)


def _trial_seed(seed: int, trial: int) -> int:
    return (int(seed) * 1_000_003 + trial * 7919 + 1) & 0xFFFFFFFFFFFFFFFF


def _state(rng, space: SystemSpace) -> LabeledOperator:
    return LabeledOperator.square(space, random_state_matrix(rng, space.dim))


def _pure(rng, space: SystemSpace) -> LabeledOperator:
    return LabeledOperator.square(space, _pure_matrix(rng, space.dim))


def _pure_matrix(rng, dim: int) -> np.ndarray:
    v = ginibre(rng, dim, 1)[:, 0]
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _cq(rng, space: SystemSpace, classical_label: str) -> LabeledOperator:
    """Random state, classical on one label, random blocks elsewhere."""
    d_cl = space.dim_of(classical_label)
    rest = [s for s in space.subsystems if s[0] != classical_label]
    d_rest = math.prod(d for _, d in rest) if rest else 1
    p = random_probability_vector(rng, d_cl)
    m = block_diag(*(p[i] * random_state_matrix(rng, d_rest) for i in range(d_cl)))
    cl_space = SystemSpace.of((classical_label, d_cl)).tensor(SystemSpace(tuple(rest)))
    op = LabeledOperator.square(cl_space, m)
    return permute_systems(op, space.labels)


def _random_channel(rng, space_in: SystemSpace, outputs, env_label: str) -> ChannelSpec:
    """Haar-random Stinespring channel from ``space_in`` onto ``outputs``.

    The environment ``env_label`` starts at dimension 2 and doubles until
    the isometry fits.
    """
    env = 2
    while math.prod(d for _, d in outputs) * env < space_in.dim:
        env *= 2
    space_out = SystemSpace(tuple(outputs) + ((env_label, env),))
    v = haar_isometry_matrix(rng, space_out.dim, space_in.dim)
    return ChannelSpec(LabeledOperator(space_out, space_in, v), frozenset({env_label}))


# ---------------------------------------------------------------------------
# individual suites
#
# A closed-form suite takes the generators of a chunk of trials, draws each
# trial from its own generator in a fixed order, evaluates the whole chunk as
# stacks and returns one list of (check name, margin, values) per trial.  An
# optimizer suite is a per-trial body that yields those rows for one trial.


def _draw(rngs, draw) -> tuple:
    """``draw(rng)``, a tuple of matrices, for each trial's generator; returns
    one stack over the trials per position of the tuple."""
    return tuple(np.stack(column) for column in zip(*(draw(rng) for rng in rngs)))


def _suite_holder(rngs, dims):
    d = dims[0]
    m, n = _draw(rngs, lambda rng: (ginibre(rng, d, d), ginibre(rng, d, d)))
    ps = (1.25, 2.0, 4.0)
    norm_m = schatten_norm(m, ps).tolist()
    norm_n = schatten_norm(n, [p / (p - 1.0) for p in ps]).tolist()
    norm_mn = schatten_norm(m @ n, 1.0).tolist()
    out = []
    for nm, nn, rhs in zip(norm_m, norm_n, norm_mn):
        rows = []
        for j, p in enumerate(ps):
            lhs = nm[j] * nn[j]
            rows.append((f"holder-p{p}", lhs - rhs, {"p": p, "lhs": lhs, "rhs": rhs}))
        out.append(rows)
    return out


def _suite_mccarthy(rngs, dims):
    d = dims[0]
    m, n = _draw(rngs, lambda rng: tuple(random_state_matrix(rng, d) * rng.uniform(0.5, 2.0)
                                         for _ in range(2)))
    sub, sup = (0.3, 0.7), (1.5, 2.0, 3.0)
    ps = sub + sup
    norms = zip(*(schatten_norm(x, ps).tolist() for x in (m, n, m + n)))
    out = []
    for nm, nn, nmn in norms:
        rows = []
        for j, p in enumerate(ps):
            parts = nm[j] ** p + nn[j] ** p
            whole = nmn[j] ** p
            if p in sub:
                lhs, rhs, name = parts, whole, f"mccarthy-sub-p{p}"
            else:
                lhs, rhs, name = whole, parts, f"mccarthy-super-p{p}"
            rows.append((name, lhs - rhs, {"p": p, "lhs": lhs, "rhs": rhs}))
        out.append(rows)
    return out


def _suite_divergence_monotonicity(rngs, dims):
    d = dims[0]
    rho, sigma = _draw(rngs, lambda rng: tuple(random_state_matrix(rng, d) for _ in range(2)))
    orders = (0.5, 0.6, 0.8, 1.0, 1.3, 2.0)
    out = []
    for vals in sandwiched_divergence_matrix(rho, sigma, orders).tolist():
        out.append([(f"monotone-{a1}-{a2}", v2 - v1,
                     {"alpha": a1, "alpha'": a2, "D": v1, "D'": v2})
                    for (a1, v1), (a2, v2) in zip(zip(orders, vals), list(zip(orders, vals))[1:])])
    return out


def _suite_entropy_bounds(rngs, dims):
    d = dims[0]
    rho, pure = _draw(rngs, lambda rng: (random_state_matrix(rng, d), _pure_matrix(rng, d)))
    orders, pure_orders = (0.0, 0.5, 1.0, 2.0, 5.0), (0.5, 1.0, 2.0)
    s_mixed = renyi_entropy_matrix(rho, orders).tolist()
    s_pure = renyi_entropy_matrix(pure, pure_orders).tolist()
    out = []
    for sm, sp in zip(s_mixed, s_pure):
        rows = []
        for a, s in zip(orders, sm):
            rows.append((f"nonneg-a{a}", s, {"alpha": a, "S": s}))
            rows.append((f"dim-a{a}", math.log2(d) - s, {"alpha": a, "S": s}))
        rows += [(f"pure-a{a}", -abs(s), {"alpha": a}) for a, s in zip(pure_orders, sp)]
        out.append(rows)
    return out


def _suite_additivity(rngs, dims):
    d1, d2 = dims[0], dims[1]
    r1, r2, g1, g2 = _draw(rngs, lambda rng: tuple(random_state_matrix(rng, d)
                                                   for d in (d1, d2, d1, d2)))
    orders = (0.6, 1.0, 2.0)
    joint = sandwiched_divergence_matrix(_kron(r1, r2), _kron(g1, g2), orders).tolist()
    div1 = sandwiched_divergence_matrix(r1, g1, orders).tolist()
    div2 = sandwiched_divergence_matrix(r2, g2, orders).tolist()
    s_joint = renyi_entropy_matrix(_kron(r1, r2), orders).tolist()
    s1 = renyi_entropy_matrix(r1, orders).tolist()
    s2 = renyi_entropy_matrix(r2, orders).tolist()
    out = []
    for t in range(len(rngs)):
        rows = []
        for j, a in enumerate(orders):
            lhs, rhs = joint[t][j], div1[t][j] + div2[t][j]
            rows.append((f"div-add-a{a}", -abs(lhs - rhs), {"alpha": a, "joint": lhs, "sum": rhs}))
            se = s_joint[t][j] - s1[t][j] - s2[t][j]
            rows.append((f"ent-add-a{a}", -abs(se), {"alpha": a, "defect": se}))
        out.append(rows)
    return out


def _suite_isometric_invariance(rngs, dims):
    d = dims[0]
    rho, sigma, v = _draw(rngs, lambda rng: (random_state_matrix(rng, d),
                                             random_state_matrix(rng, d),
                                             haar_isometry_matrix(rng, d + 2, d)))
    vh = v.conj().swapaxes(1, 2)
    vrho = v @ rho @ vh
    orders = (0.6, 1.0, 2.0)
    div_big = sandwiched_divergence_matrix(vrho, v @ sigma @ vh, orders)
    div = sandwiched_divergence_matrix(rho, sigma, orders)
    ent = renyi_entropy_matrix(vrho, orders) - renyi_entropy_matrix(rho, orders)
    out = []
    for dd, de in zip((div_big - div).tolist(), ent.tolist()):
        rows = []
        for a, diff, se in zip(orders, dd, de):
            rows.append((f"div-isom-a{a}", -abs(diff), {"alpha": a, "defect": diff}))
            rows.append((f"ent-isom-a{a}", -abs(se), {"alpha": a, "defect": se}))
        out.append(rows)
    return out


def _suite_entropy_duality(rngs, dims):
    (psi,) = _draw(rngs, lambda rng: (_pure_matrix(rng, dims[0] * dims[1]),))
    orders = (0.0, 0.5, 1.0, 2.0, 4.0)
    diff = (renyi_entropy_matrix(partial_trace_matrix(psi, dims, [0]), orders)
            - renyi_entropy_matrix(partial_trace_matrix(psi, dims, [1]), orders))
    return [[(f"duality-a{a}", -abs(x), {"alpha": a, "defect": x}) for a, x in zip(orders, row)]
            for row in diff.tolist()]


def _suite_conditional_duality(rng, dims):
    space = SystemSpace.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
    psi = _pure(rng, space)
    rab = partial_trace(psi, {"A", "B"})
    rac = partial_trace(psi, {"A", "C"})
    for a in (0.6, 0.75, 1.5, 2.0):
        b = alpha_params(a).beta
        s1 = conditional_entropy(rab, ["B"], a).value
        s2 = conditional_entropy(rac, ["C"], b).value
        yield f"cond-duality-a{a}", -abs(s1 + s2), {"alpha": a, "S(A|B)": s1, "S(A|C)": s2}


def _suite_dpi(rng, dims):
    d_a, d_b = dims[0], dims[1]
    space = SystemSpace.of(("A", d_a), ("B", d_b))
    rho, sigma = _state(rng, space), _state(rng, space)
    ch = _random_channel(rng, SystemSpace.of(("B", d_b)), [("B", d_b)], "Ech")
    rho2, sigma2 = apply_channels([ch], rho), apply_channels([ch], sigma)
    for a in (0.6, 1.0, 2.0):
        pre = sandwiched_divergence(rho, sigma, a)
        post = sandwiched_divergence(rho2, sigma2, a)
        yield f"dpi-div-a{a}", pre - post, {"alpha": a, "pre": pre, "post": post}
    for a in (0.6, 2.0):
        pre = conditional_entropy(rho, ["B"], a).value
        post = conditional_entropy(rho2, ["B"], a).value
        yield f"dpi-cond-a{a}", post - pre, {"alpha": a, "pre": pre, "post": post}
        pre = mutual_information(rho, ["B"], a).value
        post = mutual_information(rho2, ["B"], a).value
        yield f"dpi-mutual-a{a}", pre - post, {"alpha": a, "pre": pre, "post": post}


def _suite_subadditivity(rngs, dims):
    (rho,) = _draw(rngs, lambda rng: (random_state_matrix(rng, dims[0] * dims[1]),))
    orders = (0.0, 0.5, 1.0, 2.0, 4.0)
    logb = math.log2(dims[1])
    s_ab = renyi_entropy_matrix(rho, orders).tolist()
    s_a = renyi_entropy_matrix(partial_trace_matrix(rho, dims, [0]), orders).tolist()
    out = []
    for row_ab, row_a in zip(s_ab, s_a):
        rows = []
        for a, sab, sa in zip(orders, row_ab, row_a):
            values = {"alpha": a, "S(AB)": sab, "S(A)": sa}
            rows.append((f"sub-lower-a{a}", sab - (sa - logb), values))
            rows.append((f"sub-upper-a{a}", (sa + logb) - sab, values))
        out.append(rows)
    return out


def _suite_dimension_bounds(rng, dims):
    space = SystemSpace.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
    rho = _state(rng, space)
    rab = partial_trace(rho, {"A", "B"})
    logc = math.log2(dims[2])
    for a in (0.6, 2.0):
        lhs = conditional_entropy(rho, ["B", "C"], a).value + 2 * logc
        rhs = conditional_entropy(rab, ["B"], a).value
        yield f"dim-cond-a{a}", lhs - rhs, {"alpha": a, "lhs": lhs, "rhs": rhs}
        lhs = mutual_information(rab, ["B"], a).value + 2 * logc
        rhs = mutual_information(rho, ["B", "C"], a).value
        yield f"dim-mutual-a{a}", lhs - rhs, {"alpha": a, "lhs": lhs, "rhs": rhs}
    # product decoupling equalities
    sc = _state(rng, SystemSpace.of(("C", dims[2])))
    prod = rab.tensor(sc)
    for a in (0.6, 2.0):
        d1 = conditional_entropy(prod, ["B", "C"], a).value
        d2 = conditional_entropy(rab, ["B"], a).value
        yield f"prod-cond-a{a}", -abs(d1 - d2), {"alpha": a, "joint": d1, "base": d2}
        m1 = mutual_information(prod, ["B", "C"], a).value
        m2 = mutual_information(rab, ["B"], a).value
        yield f"prod-mutual-a{a}", -abs(m1 - m2), {"alpha": a, "joint": m1, "base": m2}


def _constrained_pair(rng, d_a: int, d_b: int):
    """Pair of AB states with equal A marginals.

    Purifies a shared A marginal and sends the purifier through two
    independent random channels into B.
    """
    from .linalg import purify

    rho_a = LabeledOperator.square(SystemSpace.of(("A", d_a)), random_state_matrix(rng, d_a))
    psi = purify(rho_a, "R")
    out = []
    for _ in range(2):
        ch = _random_channel(rng, psi.space.restrict({"R"}), [("B", d_b)], "Ech")
        out.append(apply_channels([ch], psi))
    return out[0], out[1]


def _classical_mix(p, blocks) -> np.ndarray:
    """sum_c p_c block_c (x) |c><c|, with the classical register last."""
    return sum(pc * np.kron(b, np.diag(e)) for pc, b, e in zip(p, blocks, np.eye(len(p))))


def _suite_fidelity_bounds(rng, dims):
    d_a, d_b = dims[0], dims[1]
    space = SystemSpace.of(("A", d_a), ("B", d_b))
    rho, sigma = _state(rng, space), _state(rng, space)
    f = fidelity(rho, sigma)
    logf = math.log2(max(f, 1e-300))
    for a in (0.6, 0.75, 0.9):
        b = alpha_params(a).beta
        coef = 2 * a / (1 - a)
        lhs = renyi_entropy(partial_trace(rho, {"A"}), a) - renyi_entropy(
            partial_trace(sigma, {"A"}), b
        )
        fa = fidelity(partial_trace(rho, {"A"}), partial_trace(sigma, {"A"}))
        yield f"fid-entropy-a{a}", lhs - coef * math.log2(max(fa, 1e-300)), {"alpha": a}
        lhs = (
            conditional_entropy(rho, ["B"], a).value
            - conditional_entropy(sigma, ["B"], b).value
        )
        yield f"fid-cond-a{a}", lhs - coef * logf, {"alpha": a, "lhs": lhs, "logF": logf}
    # mutual-information bound needs equal A marginals
    rho2, sigma2 = _constrained_pair(rng, d_a, d_b)
    f2 = math.log2(max(fidelity(rho2, sigma2), 1e-300))
    for a in (0.6, 0.75):
        b = alpha_params(a).beta
        coef = 2 * a / (1 - a)
        lhs = (
            mutual_information(rho2, ["B"], b).value
            - mutual_information(sigma2, ["B"], a).value
        )
        yield f"fid-mutual-a{a}", lhs - coef * f2, {"alpha": a, "lhs": lhs, "logF": f2}
    # cmi bound: classical C blocks with equal-marginal interpolation
    d_c = 2
    lam = rng.uniform(0.2, 0.8)
    p_c = random_probability_vector(rng, d_c)
    blocks_r, blocks_s = [], []
    for _ in range(d_c):
        rab = random_state_matrix(rng, d_a * d_b)
        t = rab.reshape(d_a, d_b, d_a, d_b)
        ra = np.trace(t, axis1=1, axis2=3)
        rb = np.trace(t, axis1=0, axis2=2)
        blocks_r.append(rab)
        blocks_s.append(lam * rab + (1 - lam) * np.kron(ra, rb))
    space3 = SystemSpace.of(("A", d_a), ("B", d_b), ("C", d_c))
    rho3 = LabeledOperator.square(space3, _classical_mix(p_c, blocks_r))
    sig3 = LabeledOperator.square(space3, _classical_mix(p_c, blocks_s))
    f3 = math.log2(max(fidelity(rho3, sig3), 1e-300))
    for a in (0.6, 0.75):
        b = alpha_params(a).beta
        coef = 2 * a / (1 - a)
        lhs = conditional_mutual_information(rho3, "A", "B", "C", b) - \
            conditional_mutual_information(sig3, "A", "B", "C", a)
        yield f"fid-cmi-a{a}", lhs - coef * f3, {"alpha": a, "lhs": lhs, "logF": f3}


def _suite_cq_monotonicity(rng, dims):
    d_a, d_b, d_x = dims[0], dims[1], dims[2]
    space = SystemSpace.of(("A", d_a), ("B", d_b), ("X", d_x))
    rho = _cq(rng, space, "X")
    rab = partial_trace(rho, {"A", "B"})
    logx = math.log2(d_x)
    for a in (0.6, 2.0):
        s_axb = conditional_entropy(rho, ["B"], a).value
        s_ab = conditional_entropy(rab, ["B"], a).value
        yield f"cq-discard-a{a}", s_axb - s_ab, {"alpha": a, "S(AX|B)": s_axb, "S(A|B)": s_ab}
        s_abx = conditional_entropy(rho, ["B", "X"], a).value
        yield f"cq-dim-cond-a{a}", s_abx + logx - s_ab, {"alpha": a, "S(A|BX)": s_abx}
        i_abx = mutual_information(rho, ["B", "X"], a).value
        i_ab = mutual_information(rab, ["B"], a).value
        yield f"cq-dim-mutual-a{a}", logx + i_ab - i_abx, {"alpha": a, "I(A;BX)": i_abx}


def _suite_cmi_generalizations(rng, dims):
    space = SystemSpace.of(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
    rho = _state(rng, space)
    vn = von_neumann_cmi(rho, "A", "B", "C")
    i1_1, i2_1 = cmi_generalizations(rho, "A", "B", "C", 1.0)
    yield "alpha1-first", -abs(i1_1 - vn), {"value": i1_1, "vn": vn}
    yield "alpha1-second", -abs(i2_1 - vn), {"value": i2_1, "vn": vn}
    grid = (0.6, 0.8, 1.0, 1.3, 2.0)
    vals = [cmi_generalizations(rho, "A", "B", "C", a) for a in grid]
    for (a1, (x1, y1)), (a2, (x2, y2)) in zip(zip(grid, vals), list(zip(grid, vals))[1:]):
        yield f"mono-first-{a1}-{a2}", x1 - x2, {"alpha": a1, "alpha'": a2, "I1": x1, "I1'": x2}
        yield f"mono-second-{a1}-{a2}", y2 - y1, {"alpha": a1, "alpha'": a2, "I2": y1, "I2'": y2}
    # duality on a four-party pure state
    psi = _pure(rng, SystemSpace.of(("A", 2), ("B", 2), ("C", 2), ("D", 2)))
    for a in (0.75, 1.5):
        i1c, _ = cmi_generalizations(psi, "A", "B", "C", a)
        i1d, _ = cmi_generalizations(psi, "A", "B", "D", a)
        yield f"duality-a{a}", -abs(i1c - i1d), {"alpha": a, "I1|C": i1c, "I1|D": i1d}


def _suite_fidelity_product(rngs, dims):
    d_a, d_b = dims[0], dims[1]
    rho, sigma_a, chi_b = _draw(rngs, lambda rng: tuple(random_state_matrix(rng, d)
                                                        for d in (d_a * d_b, d_a, d_b)))
    rho_b = partial_trace_matrix(rho, dims, [1])
    # rho is decomposed once for both fidelities
    f = fidelity_matrix(rho[:, None], _kron(sigma_a[:, None], np.stack([rho_b, chi_b], axis=1)))
    return [[("lemma-product", lhs - chi**2, {"F(rho_B)": lhs, "F^2(chi)": chi**2})]
            for lhs, chi in f.tolist()]


# suite id -> (body, default dims, tolerance, largest operator dimension at
# given dims); a closed-form suite has the last and runs over chunks of trials,
# an optimizer suite has None and runs one trial at a time
_SUITES = {
    "holder": (_suite_holder, (4,), CLOSED_FORM_TOL, math.prod),
    "mccarthy": (_suite_mccarthy, (4,), CLOSED_FORM_TOL, math.prod),
    "divergence-monotonicity": (_suite_divergence_monotonicity, (3,), CLOSED_FORM_TOL, math.prod),
    "entropy-bounds": (_suite_entropy_bounds, (4,), CLOSED_FORM_TOL, math.prod),
    "additivity": (_suite_additivity, (2, 3), CLOSED_FORM_TOL, math.prod),
    "isometric-invariance": (_suite_isometric_invariance, (3,), CLOSED_FORM_TOL,
                             lambda dims: dims[0] + 2),
    "entropy-duality": (_suite_entropy_duality, (3, 4), CLOSED_FORM_TOL, math.prod),
    "conditional-duality": (_suite_conditional_duality, (2, 3, 2), OPTIMIZER_TOL, None),
    "dpi": (_suite_dpi, (2, 3), OPTIMIZER_TOL, None),
    "subadditivity": (_suite_subadditivity, (2, 3), CLOSED_FORM_TOL, math.prod),
    "dimension-bounds": (_suite_dimension_bounds, (2, 2, 2), OPTIMIZER_TOL, None),
    "fidelity-bounds": (_suite_fidelity_bounds, (2, 2), OPTIMIZER_TOL, None),
    "cq-monotonicity": (_suite_cq_monotonicity, (2, 2, 2), OPTIMIZER_TOL, None),
    "cmi-generalizations": (_suite_cmi_generalizations, (2, 2, 2), OPTIMIZER_TOL, None),
    "fidelity-product": (_suite_fidelity_product, (2, 3), CLOSED_FORM_TOL, math.prod),
}

# a chunk of a closed-form suite holds as many trials as keep each operator
# stack within this many matrix entries (6 trials at dimension 36, 167 at 7)
_STACK_ENTRIES = 2**13

SUITE_IDS = tuple(_SUITES)


def suite_dims(suite_id: str, dims=None) -> tuple:
    """The subsystem dimensions ``suite_id`` runs at: ``dims`` once checked, else its default."""
    if suite_id not in _SUITES:
        raise UsageError(f"unknown suite {suite_id!r}; known: {sorted(_SUITES)}")
    default = _SUITES[suite_id][1]
    if dims is None:
        return default
    dims = tuple(dims)
    if len(dims) != len(default) or min(dims) < 1:
        raise UsageError(
            f"suite {suite_id!r} takes {len(default)} dimension(s), each >= 1, got {dims}"
        )
    return dims


def _check_trials(trials):
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise UsageError(f"trials must be an integer >= 1, got {trials!r}")


def _run_trials(report_id: str, checks, trials, seed: int, tol: float,
                chunk: int = 1) -> SuiteReport:
    """Run ``checks(rngs, trial_seeds)`` over chunks of at most ``chunk`` trials
    and collect every margin below -tol.

    Each trial gets its own generator, keyed by its trial seed, so a trial's
    draws and margins do not depend on the chunk it falls in.  ``checks``
    returns the (check, margin, values) rows of each trial of the chunk.
    """
    _check_trials(trials)
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for first in range(0, trials, chunk):
        seeds = [_trial_seed(seed, t) for t in range(first, min(first + chunk, trials))]
        rows = checks([generator(ts) for ts in seeds], seeds)
        for trial, ts, trial_rows in zip(range(first, trials), seeds, rows):
            for check, margin, values in trial_rows:
                if margin < -tol:
                    failures.append(Failure(trial, ts, check, values, margin))
                    worst = max(worst, -margin)
    return SuiteReport(report_id, trials, tuple(failures), worst,
                       time.perf_counter() - start, tol)


def _per_trial(body):
    """A trial body ``body(rng, trial_seed)`` as the ``checks`` of ``_run_trials``."""
    return lambda rngs, seeds: (body(rng, ts) for rng, ts in zip(rngs, seeds))


def run_inequality_suite(
    suite_id: str,
    trials: int,
    dims=None,
    seed: int = 0,
    tol: float | None = None,
) -> SuiteReport:
    dims = suite_dims(suite_id, dims)
    if tol is not None and not 0.0 <= tol < math.inf:
        raise UsageError(f"tol must be finite and >= 0, got {tol}")
    fn, _, default_tol, op_dim = _SUITES[suite_id]
    tol = default_tol if tol is None else tol
    if op_dim is None:
        return _run_trials(suite_id, _per_trial(lambda rng, _: fn(rng, dims)), trials, seed, tol)
    chunk = max(1, _STACK_ENTRIES // op_dim(dims) ** 2)
    return _run_trials(suite_id, lambda rngs, _: fn(rngs, dims), trials, seed, tol, chunk)


# ---------------------------------------------------------------------------
# brute-force oracle


def brute_force_min_divergence(
    rho: LabeledOperator,
    minimize_over,
    alpha: float,
    budget: int = 2000,
    seed: int = 0,
    mutual: bool = False,
) -> float:
    """Minimize over a randomized net of conditioning states.

    Draws ``budget`` Ginibre states, then refines around the incumbent
    with shrinking perturbations.  The result is an upper bound on the
    true minimum, used to validate the descent optimizer.

    The search is sequential (a candidate replaces the incumbent when its
    value is strictly lower), but its values are computed in stacks: the
    whole net at once, and in each refinement round, whose draws come first,
    all the candidates not yet tried, formed around the incumbent and formed
    again after each acceptance.
    """
    from .entropies import _split_bipartite

    mat, d_a, d_b, _ = _split_bipartite(rho, minimize_over)
    if d_b > 3:
        raise UsageError("brute force oracle is limited to |B| <= 3")
    rho_a = np.trace(mat.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)
    factor = rho_a if mutual else np.eye(d_a)

    def values(sigmas):
        return sandwiched_divergence_matrix(mat, _kron(factor, sigmas), alpha)

    rng = generator(seed)
    rho_b = np.trace(mat.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)
    best_sigma, best = rho_b, values(rho_b)
    if budget:
        # the net's lowest value, at its first occurrence, if it beats the start
        net = np.stack([random_state_matrix(rng, d_b) for _ in range(budget)])
        vals = values(net)
        i = int(np.argmin(np.where(np.isnan(vals), math.inf, vals)))
        if vals[i] < best:
            best, best_sigma = float(vals[i]), net[i]
    radius = 0.5
    for _ in range(12):
        g = np.stack([ginibre(rng, d_b, d_b) for _ in range(120)])
        bumps = radius * (g @ g.conj().swapaxes(1, 2)) / d_b
        while len(bumps):
            s = best_sigma + bumps
            s = (s + s.conj().swapaxes(1, 2)) / 2
            s /= np.trace(s, axis1=1, axis2=2).real[:, None, None]
            vals = values(s)
            below = np.flatnonzero(vals < best)
            if not below.size:
                break
            # the first improvement; the later candidates are re-formed around it
            j = int(below[0])
            best, best_sigma = float(vals[j]), s[j]
            bumps = bumps[j + 1:]
        radius *= 0.6
    return best


# ---------------------------------------------------------------------------
# falsifier for the two randomness-extraction exponents


def falsify_bound_comparison(
    trials: int,
    seed: int = 0,
    alphas=(0.55, 0.6, 0.7, 0.8, 0.9, 0.95),
    margin: float = 1e-6,
    verify: bool = True,
) -> list[Counterexample]:
    """Search classical 2x2 states for violations in either direction of

        S_alpha(XB) - S_beta(B)  vs  S~_alpha(X|B).

    Returns at most one counterexample per direction, each strict-verified
    with the full optimizer when ``verify`` is set.  One sample in a
    hundred cross-checks the diagonal fast path against the full
    density-matrix optimizer; a discrepancy beyond optimizer tolerance is
    raised, never suppressed.
    """
    _check_trials(trials)
    found: dict[str, Counterexample] = {}
    for trial in range(trials):
        ts = _trial_seed(seed, trial)
        rng = generator(ts)
        joint = random_probability_vector(rng, 4).reshape(2, 2)
        for a in alphas:
            b = alpha_params(a).beta
            lhs = classical_renyi_entropy(joint.reshape(-1), a) - classical_renyi_entropy(
                joint.sum(axis=0), b
            )
            rhs = classical_conditional_entropy(joint, a)
            if trial % 100 == 0 and a == alphas[0]:
                _cross_check_fast_path(joint, a, rhs)
            if lhs > rhs + margin and "left-violated" not in found:
                found["left-violated"] = Counterexample("left-violated", joint, a, lhs, rhs, ts)
            if rhs > lhs + margin and "right-violated" not in found:
                found["right-violated"] = Counterexample("right-violated", joint, a, lhs, rhs, ts)
        if len(found) == 2:
            break
    out = list(found.values())
    if verify:
        out = [ce for ce in out if verify_counterexample(ce, margin)]
    return out


def classical_state(joint: np.ndarray) -> LabeledOperator:
    """The diagonal state sum p(x, b) |x><x| (x) |b><b| on (X, B)."""
    joint = np.asarray(joint, dtype=float)
    space = SystemSpace.of(("X", joint.shape[0]), ("B", joint.shape[1]))
    return LabeledOperator.square(space, np.diag(joint.reshape(-1)).astype(complex))


def _cross_check_fast_path(joint: np.ndarray, alpha: float, fast_value: float):
    rho = classical_state(joint)
    full = conditional_entropy(rho, ["B"], alpha).value
    if abs(full - fast_value) > 1e-4:
        raise UsageError(
            f"diagonal fast path disagrees with the full optimizer: "
            f"{fast_value} vs {full} at alpha={alpha}"
        )


def verify_counterexample(ce: Counterexample, margin: float = 1e-6) -> bool:
    """Recompute both sides with the density-matrix optimizer."""
    rho = classical_state(ce.joint)
    a = ce.alpha
    b = alpha_params(a).beta
    lhs = renyi_entropy(rho, a) - renyi_entropy(partial_trace(rho, {"B"}), b)
    rhs = conditional_entropy(rho, ["B"], a).value
    if ce.direction == "left-violated":
        return lhs > rhs + margin
    return rhs > lhs + margin


# ---------------------------------------------------------------------------
# protocol soundness sweeps


def _redistribution_channels(rng, d_a: int, d_b: int, d_c: int, k: int, m: int, q: int):
    """Random encoder {A, C, TA} -> {Cp, TAp, Q} and decoder {Q, B, TB} -> {TBp, Ap, Bp}."""
    enc_in = SystemSpace.of(("A", d_a), ("C", d_c), ("TA", k))
    enc = _random_channel(rng, enc_in, [("Cp", d_c), ("TAp", m), ("Q", q)], "E1")
    dec_in = SystemSpace.of(("Q", q), ("B", d_b), ("TB", k))
    dec = _random_channel(rng, dec_in, [("TBp", m), ("Ap", d_a), ("Bp", d_b)], "E2")
    return [enc], [dec]


def _random_redistribution_instance(rng, dims=(2, 2, 2), seed: int = 0):
    from .protocols import REDISTRIBUTION, ProtocolInstance

    d_a, d_b, d_c = dims
    space = SystemSpace.of(("A", d_a), ("B", d_b), ("C", d_c))
    rho = _state(rng, space)
    k = int(rng.integers(1, 3))
    m = 1
    q = int(rng.integers(1, d_a * k + 1))
    encoders, decoders = _redistribution_channels(rng, d_a, d_b, d_c, k, m, q)
    return ProtocolInstance(REDISTRIBUTION, rho, registers={"k": k, "m": m, "q": q},
                            encoders=encoders, decoders=decoders)


def check_protocol_bounds(kind: str, trials: int, seed: int = 0, alphas=None) -> SuiteReport:
    """Random instances of one protocol kind against all its bounds.

    Each instance's bounds come from ``exponent_curve`` over ``alphas``
    (default: its 25-point grid), which must lie in (1/2, 1).
    """
    from .bounds import exponent_curve
    from .protocols import run_protocol

    def checks(rng, trial_seed):
        inst, bound_state = _random_instance(kind, rng, trial_seed)
        out = run_protocol(inst)
        curve = exponent_curve(kind, bound_state, out.costs, alphas, copies=inst.copies)
        log_merit = math.log2(max(out.merit, 1e-300))
        for entry in curve.entries:
            yield (f"{entry.bound_id}-a{entry.alpha:.4f}", entry.log2_merit_bound - log_merit,
                   {"merit": out.merit, "bound": entry.log2_merit_bound, "alpha": entry.alpha})

    return _run_trials(f"protocol-{kind}", _per_trial(checks), trials, seed, SOUNDNESS_TOL)


def _random_instance(kind: str, rng, seed: int):
    """Build a random instance; return it with the state its bounds are evaluated on."""
    from . import protocols as prot

    if kind == prot.REDISTRIBUTION:
        inst = _random_redistribution_instance(rng, seed=seed)
        return inst, inst.input_state
    if kind == prot.FEEDBACK:
        inst = random_feedback_instance(rng, rounds=2)
        return inst, inst.input_state
    if kind == prot.MERGING:
        rho = _state(rng, SystemSpace.of(("A", 2), ("B", 2)))
        q = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        return _merging_instance(rng, rho, q, m), rho
    if kind == prot.SPLITTING:
        rho = _state(rng, SystemSpace.of(("A", 2), ("C", 2)))
        q = int(rng.integers(1, 5))
        k = int(rng.integers(1, 3))
        return _splitting_instance(rng, rho, q, k), rho
    if kind == prot.MEASUREMENT_COMPRESSION:
        return _random_measurement_compression(rng, seed)
    if kind == prot.RANDOMNESS_EXTRACTION:
        cq = random_cq_state(2, 2, seed)
        perm = rng.permutation(2)
        table = {str(x): str(int(perm[x])) for x in range(2)}
        return prot.ProtocolInstance(kind, cq, registers={"z": 2}, e_table=table), cq
    if kind == prot.DATA_COMPRESSION:
        x_dim = int(rng.integers(2, 4))
        cq = random_cq_state(x_dim, 2, seed)
        c_dim = int(rng.integers(1, x_dim + 1))
        table = {str(x): str(int(rng.integers(0, c_dim))) for x in range(x_dim)}
        # make the table surjective
        for c in range(c_dim):
            table[str(c % x_dim)] = str(c)
        return prot.ProtocolInstance(kind, cq, registers={"c": c_dim}, e_table=table), cq
    raise UsageError(f"unknown protocol kind {kind!r}")


def _merging_instance(rng, rho, q: int, m: int):
    from . import protocols as prot

    d_a, d_b = rho.space.dim_of("A"), rho.space.dim_of("B")
    encoders, decoders = _redistribution_channels(rng, d_a, d_b, 1, 1, m, q)
    return prot.specialize(
        prot.MERGING, rho, {"k": 1, "m": m, "q": q}, encoders=encoders, decoders=decoders
    )


def _splitting_instance(rng, rho, q: int, k: int):
    from . import protocols as prot

    d_a, d_c = rho.space.dim_of("A"), rho.space.dim_of("C")
    encoders, decoders = _redistribution_channels(rng, d_a, 1, d_c, k, 1, q)
    return prot.specialize(
        prot.SPLITTING, rho, {"k": k, "m": 1, "q": q}, encoders=encoders, decoders=decoders
    )


def _random_measurement_compression(rng, seed: int):
    from . import protocols as prot

    rho = _state(rng, SystemSpace.of(("A", 2), ("B", 2)))
    povm = random_povm(2, 2, seed)
    l_size = int(rng.integers(1, 4))
    ma = 1
    n_out = len(povm)
    # encoder: measure the POVM, store the outcome classically in Xb, and
    # send a (possibly lossy) classical copy through L
    from .channels import channel_from_kraus
    from .linalg import fractional_power_matrix

    enc_in = SystemSpace.of(("A", 2), ("MA", ma))
    enc_out = SystemSpace.of(("Xb", n_out), ("L", l_size))
    kraus = []
    for x in range(n_out):
        root = fractional_power_matrix(povm[x], 0.5)
        l_idx = min(x, l_size - 1)
        for j in range(2):
            k = np.zeros((enc_out.dim, enc_in.dim), dtype=complex)
            k[x * l_size + l_idx, :] = root[j, :]
            kraus.append(k)
    enc = channel_from_kraus(enc_in, enc_out, kraus, "E1")
    # decoder: copy L into the guess register, keep B
    dec_in = SystemSpace.of(("L", l_size), ("B", 2), ("MB", ma))
    dec_out = SystemSpace.of(("Xh", n_out), ("Bp", 2))
    kraus_d = []
    for l_val in range(l_size):
        k = np.zeros((dec_out.dim, dec_in.dim), dtype=complex)
        xh = min(l_val, n_out - 1)
        for bi in range(2):
            k[xh * 2 + bi, l_val * 2 + bi] = 1.0
        kraus_d.append(k)
    dec = channel_from_kraus(dec_in, dec_out, kraus_d, "E2")
    inst = prot.ProtocolInstance(
        prot.MEASUREMENT_COMPRESSION,
        rho,
        registers={"l": l_size, "ma": ma},
        encoders=[enc],
        decoders=[dec],
        povm=tuple(povm),
    )
    # the bound is evaluated on the ideal post-measurement state
    ideal = prot.ideal_measurement_state(rho, povm)
    return inst, partial_trace(ideal, {"R", "X", "Xp", "B"})


def random_feedback_instance(rng, rounds: int = 2, dims=(2, 2, 2)):
    """Random M-round feedback instance with isometric round maps."""
    from . import protocols as prot

    d_a, d_b, d_c = dims
    rho = _state(rng, SystemSpace.of(("A", d_a), ("B", d_b), ("C", d_c)))
    k = m = 1
    forward = [int(rng.integers(1, 3)) for _ in range(rounds)]
    backward = [int(rng.integers(1, 3)) for _ in range(rounds - 1)]
    encoders, decoders = [], []
    alice = [("A", d_a), ("C", d_c), ("TA", k)]
    bob = [("B", d_b), ("TB", k)]
    for i in range(rounds):
        last = i == rounds - 1
        q = forward[i]
        enc_in = SystemSpace(tuple(alice))
        if last:
            keep = [("Cp", d_c), ("TAp", m)]
        else:
            keep = [(f"A{i}", d_a), (f"C{i}", d_c)]
        encoders.append(_random_channel(rng, enc_in, keep + [(f"Q{i}", q)], f"Ea{i}"))
        alice = keep.copy()
        dec_in = SystemSpace(tuple(bob + [(f"Q{i}", q)]))
        if last:
            keep_b = [("TBp", m), ("Ap", d_a), ("Bp", d_b)]
            out_subs = keep_b
        else:
            qb = backward[i]
            keep_b = [(f"B{i}", d_b)]
            out_subs = keep_b + [(f"Qb{i}", qb)]
            alice.append((f"Qb{i}", qb))
        decoders.append(_random_channel(rng, dec_in, out_subs, f"Eb{i}"))
        bob = keep_b.copy()
    return prot.ProtocolInstance(
        prot.FEEDBACK,
        rho,
        registers={"forward": forward, "backward": backward, "k": k, "m": m},
        encoders=encoders,
        decoders=decoders,
    )
