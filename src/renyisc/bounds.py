"""Strong-converse bounds as explicit functions of the Renyi order.

Every implemented inequality has the shape

    log2(merit) <= -n * kappa(alpha) * (expression - rate)

with kappa(alpha) = (1-alpha)/(2 alpha) except for randomness extraction,
where the prefactor is (1-alpha)/(4 alpha).  The ``exponent`` field of a
report entry is kappa * (expression - rate) per copy; a positive exponent
certifies exponential decay of the merit at the given rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .entropies import (
    DEFAULT_CONFIG,
    OptimizerConfig,
    alpha_params,
    conditional_entropy,
    mutual_information,
    renyi_entropy,
    von_neumann_entropy,
)
from .errors import UsageError
from .linalg import purify
from .protocols import (
    DATA_COMPRESSION,
    FEEDBACK,
    MEASUREMENT_COMPRESSION,
    MERGING,
    RANDOMNESS_EXTRACTION,
    REDISTRIBUTION,
    SPLITTING,
    cq_components,
)
from .spaces import LabeledOperator, partial_trace

DEFAULT_GRID = tuple(np.linspace(0.51, 0.99, 25))

# the rates (in bits per copy) that the bounds of each protocol kind compare against
_RATE_KEYS = {
    REDISTRIBUTION: ("q", "e"),
    FEEDBACK: ("q_fw", "q_tot", "e"),
    MERGING: ("q_csm", "e_csm"),
    SPLITTING: ("q", "e"),
    MEASUREMENT_COMPRESSION: ("c",),
    RANDOMNESS_EXTRACTION: ("l",),
    DATA_COMPRESSION: ("m",),
}


@dataclass(frozen=True)
class BoundEntry:
    bound_id: str
    alpha: float
    beta: float
    kappa: float
    expression_bits: float
    rate_bits: float
    exponent: float
    log2_merit_bound: float


@dataclass(frozen=True)
class BoundReport:
    kind: str
    copies: int
    entries: tuple


@dataclass(frozen=True)
class ExponentCurve:
    kind: str
    alphas: tuple
    entries: tuple  # BoundEntry, grouped by bound id then alpha
    sup_exponent: dict  # bound id -> (sup, achieving alpha)


class _BoundEvaluator:
    """Evaluates the entropic expressions of one protocol kind.

    Caches marginals and warm-starts each inner optimization with the
    minimizer found at the previous grid point.
    """

    def __init__(self, kind: str, state: LabeledOperator, rates: dict, config: OptimizerConfig):
        self.kind = kind
        self.state = state
        self.rates = dict(rates)
        self.config = config
        self._marginals: dict = {}
        self._warm: dict = {}
        self._setup()

    def _setup(self):
        kind, state = self.kind, self.state
        if kind not in _RATE_KEYS:
            raise UsageError(f"unknown protocol kind {kind!r}")
        for key in _RATE_KEYS[kind]:
            if not np.isfinite(self.rates.get(key, np.nan)):
                raise UsageError(f"{kind} bounds need a finite rate {key!r}")
        if kind in (REDISTRIBUTION, FEEDBACK, MERGING, SPLITTING):
            labels = set(state.space.labels)
            if kind == SPLITTING and not labels >= {"A", "C"}:
                raise UsageError("splitting needs a state on A and C")
            if kind in (REDISTRIBUTION, FEEDBACK) and not labels >= {"A", "B", "C"}:
                raise UsageError("redistribution needs a state on A, B, C")
            if kind == MERGING and not labels >= {"A", "B"}:
                raise UsageError("merging needs a state on A and B")
            self.psi = purify(state, "R")
        elif kind == MEASUREMENT_COMPRESSION:
            if set(state.space.labels) != {"R", "X", "Xp", "B"}:
                raise UsageError("measurement compression expects the ideal state on R, X, Xp, B")
        else:  # randomness extraction and data compression take a c-q state on (X, B)
            cq_components(state)

    def marginal(self, source: LabeledOperator, keep) -> LabeledOperator:
        key = (id(source), tuple(sorted(keep)))
        if key not in self._marginals:
            self._marginals[key] = partial_trace(source, keep)
        return self._marginals[key]

    def _optimized(self, quantity, rho: LabeledOperator, labels, alpha: float) -> float:
        """``quantity``, warm-started per call site: ``rho`` is cached, so its id is stable."""
        key = (quantity, id(rho), tuple(labels))
        warm = self._warm.get(key)
        warm_starts = () if warm is None else (warm,)
        out = quantity(rho, labels, alpha, self.config, warm_starts=warm_starts)
        self._warm[key] = out.optimizer.matrix
        return out.value

    def expressions(self, alpha: float) -> list[tuple[str, float, float, float]]:
        """Per-bound (id, kappa, expression, rate) at one alpha."""
        p = alpha_params(alpha)
        a, b = p.alpha, p.beta
        kap = p.kappa
        rates = self.rates
        kind = self.kind
        out = []
        cond = partial(self._optimized, conditional_entropy)
        mut = partial(self._optimized, mutual_information)
        if kind in (REDISTRIBUTION, FEEDBACK):
            rho_ab = self.marginal(self.state, {"A", "B"})
            rho_b = self.marginal(self.state, {"B"})
            rho_rab = self.marginal(self.psi, {"R", "A", "B"})
            rho_rb = self.marginal(self.psi, {"R", "B"})
            expr1 = renyi_entropy(rho_ab, b) - renyi_entropy(rho_b, a)
            expr2 = cond(rho_rb, ["B"], b) - cond(rho_rab, ["A", "B"], a)
            expr3 = mut(rho_rab, ["A", "B"], a) - mut(rho_rb, ["B"], b)
            if kind == REDISTRIBUTION:
                q, e = rates["q"], rates["e"]
                out.append(("redistribution-q+e", kap, expr1, q + e))
                out.append(("redistribution-2q-cond", kap, expr2, 2 * q))
                out.append(("redistribution-2q-mutual", kap, expr3, 2 * q))
            else:
                q_fw, q_tot, e = rates["q_fw"], rates["q_tot"], rates["e"]
                out.append(("feedback-q+e", kap, expr1, q_tot + e))
                out.append(("feedback-2q-cond", kap, expr2, 2 * q_fw))
                out.append(("feedback-2q-mutual", kap, expr3, 2 * q_fw))
        elif kind == MERGING:
            rho_ab = self.marginal(self.state, {"A", "B"})
            rho_b = self.marginal(self.state, {"B"})
            rho_ra = self.marginal(self.psi, {"R", "A"})
            rho_r = self.marginal(self.psi, {"R"})
            q, e = rates["q_csm"], rates["e_csm"]
            expr1 = renyi_entropy(rho_ab, b) - renyi_entropy(rho_b, a)
            expr2 = renyi_entropy(rho_r, b) - cond(rho_ra, ["A"], a)
            out.append(("merging-q-e", kap, expr1, q - e))
            out.append(("merging-2q", kap, expr2, 2 * q))
        elif kind == SPLITTING:
            rho_a = self.marginal(self.state, {"A"})
            rho_ra = self.marginal(self.psi, {"R", "A"})
            rho_r = self.marginal(self.psi, {"R"})
            q, e = rates["q"], rates["e"]
            expr1 = renyi_entropy(rho_a, b)
            expr2 = renyi_entropy(rho_r, b) - cond(rho_ra, ["A"], a)
            expr3 = mut(rho_ra, ["A"], a)
            out.append(("splitting-q+e", kap, expr1, q + e))
            out.append(("splitting-2q-cond", kap, expr2, 2 * q))
            out.append(("splitting-2q-mutual", kap, expr3, 2 * q))
        elif kind == MEASUREMENT_COMPRESSION:
            phi_rb = self.marginal(self.state, {"R", "B"})
            phi_rxb = self.marginal(self.state, {"R", "X", "B"})
            c = rates["c"]
            expr = cond(phi_rb, ["B"], b) - cond(phi_rxb, ["X", "B"], a)
            out.append(("measurement-compression-c", kap, expr, c))
        elif kind == RANDOMNESS_EXTRACTION:
            rho_b = self.marginal(self.state, {self.state.space.labels[1]})
            l = rates["l"]
            kap4 = kap / 2.0
            expr1 = renyi_entropy(self.state, a) - renyi_entropy(rho_b, b)
            expr2 = cond(self.state, [self.state.space.labels[1]], a)
            out.append(("randomness-extraction-linear", kap4, expr1, l))
            out.append(("randomness-extraction-cond", kap4, expr2, l))
        elif kind == DATA_COMPRESSION:
            rho_b = self.marginal(self.state, {self.state.space.labels[1]})
            m = rates["m"]
            expr1 = renyi_entropy(self.state, b) - renyi_entropy(rho_b, a)
            expr2 = cond(self.state, [self.state.space.labels[1]], b)
            out.append(("data-compression-linear", kap, expr1, m))
            out.append(("data-compression-cond", kap, expr2, m))
        return out

    def entries(self, alpha: float, copies: int = 1) -> list[BoundEntry]:
        p = alpha_params(alpha)
        result = []
        for bound_id, kap, expr, rate in self.expressions(alpha):
            # yield-type bounds decay when the rate exceeds the expression
            if self.kind == RANDOMNESS_EXTRACTION:
                exponent = kap * (rate - expr)
            else:
                exponent = kap * (expr - rate)
            result.append(
                BoundEntry(
                    bound_id=bound_id,
                    alpha=p.alpha,
                    beta=p.beta,
                    kappa=kap,
                    expression_bits=expr,
                    rate_bits=rate,
                    exponent=exponent,
                    log2_merit_bound=-copies * exponent,
                )
            )
        return result


def _check_alpha(alpha: float):
    if not 0.5 < alpha < 1.0:
        raise UsageError(f"converse bounds require alpha in (1/2, 1), got {alpha}")


def _check_copies(copies: int):
    if copies < 1:
        raise UsageError(f"converse bounds require copies >= 1, got {copies}")


def converse_bound(
    kind: str,
    state: LabeledOperator,
    rates: dict,
    alpha: float,
    copies: int = 1,
    config: OptimizerConfig = DEFAULT_CONFIG,
) -> BoundReport:
    _check_alpha(alpha)
    _check_copies(copies)
    ev = _BoundEvaluator(kind, state, rates, config)
    return BoundReport(kind, copies, tuple(ev.entries(alpha, copies)))


def exponent_curve(
    kind: str,
    state: LabeledOperator,
    rates: dict,
    alphas=None,
    copies: int = 1,
    config: OptimizerConfig = DEFAULT_CONFIG,
) -> ExponentCurve:
    alphas = tuple(DEFAULT_GRID if alphas is None else alphas)
    if not alphas:
        raise UsageError("alphas must hold at least one order in (1/2, 1)")
    for a in alphas:
        _check_alpha(a)
    _check_copies(copies)
    ev = _BoundEvaluator(kind, state, rates, config)
    grouped: dict[str, list[BoundEntry]] = {}
    for a in sorted(alphas):
        for entry in ev.entries(a, copies):
            grouped.setdefault(entry.bound_id, []).append(entry)
    entries = tuple(e for bid in grouped for e in grouped[bid])
    sup = {
        bid: max(((e.exponent, e.alpha) for e in es), key=lambda t: t[0])
        for bid, es in grouped.items()
    }
    return ExponentCurve(kind, tuple(sorted(alphas)), entries, sup)


# ---------------------------------------------------------------------------
# von Neumann limits


def _vn_limits(ev: _BoundEvaluator) -> dict[str, float]:
    """alpha -> 1 limit of each of ``ev``'s bound expressions, in bits."""
    kind, state = ev.kind, ev.state

    def s(source, keep):
        return von_neumann_entropy(ev.marginal(source, keep))

    if kind in (REDISTRIBUTION, FEEDBACK):
        s_ab, s_b = s(state, {"A", "B"}), s(state, {"B"})
        s_rb, s_rab = s(ev.psi, {"R", "B"}), s(ev.psi, {"R", "A", "B"})
        cond = s_ab - s_b
        cmi = s_rb - s_b - s_rab + s_ab
        pre = "redistribution" if kind == REDISTRIBUTION else "feedback"
        return {f"{pre}-q+e": cond, f"{pre}-2q-cond": cmi, f"{pre}-2q-mutual": cmi}
    if kind == MERGING:
        s_ab, s_b, s_a = s(state, {"A", "B"}), s(state, {"B"}), s(state, {"A"})
        s_r, s_ra = s(ev.psi, {"R"}), s(ev.psi, {"R", "A"})
        return {"merging-q-e": s_ab - s_b, "merging-2q": s_r + s_a - s_ra}
    if kind == SPLITTING:
        s_a, s_r, s_ra = s(state, {"A"}), s(ev.psi, {"R"}), s(ev.psi, {"R", "A"})
        mi = s_r + s_a - s_ra
        return {"splitting-q+e": s_a, "splitting-2q-cond": mi, "splitting-2q-mutual": mi}
    if kind == MEASUREMENT_COMPRESSION:
        s_rb, s_b = s(state, {"R", "B"}), s(state, {"B"})
        s_rxb, s_xb = s(state, {"R", "X", "B"}), s(state, {"X", "B"})
        return {"measurement-compression-c": (s_rb - s_b) - (s_rxb - s_xb)}
    # randomness extraction and data compression: a c-q state on (X, B)
    cond = von_neumann_entropy(state) - s(state, {state.space.labels[1]})
    if kind == RANDOMNESS_EXTRACTION:
        return {"randomness-extraction-linear": cond, "randomness-extraction-cond": cond}
    return {"data-compression-linear": cond, "data-compression-cond": cond}


def vn_limit_check(
    kind: str,
    state: LabeledOperator,
    eps: float,
    config: OptimizerConfig = DEFAULT_CONFIG,
) -> dict:
    """Gap between each Renyi expression at alpha = 1 - eps and its limit.

    Returns {bound id: {"renyi": value, "limit": value, "gap": |difference|}}.
    """
    if not 0.0 < eps <= 0.1:
        raise UsageError(f"eps must lie in (0, 0.1], got {eps}")
    ev = _BoundEvaluator(kind, state, dict.fromkeys(_RATE_KEYS.get(kind, ()), 0.0), config)
    limits = _vn_limits(ev)
    values = {bound_id: expr for bound_id, _, expr, _ in ev.expressions(1.0 - eps)}
    report = {}
    for bound_id, lim in limits.items():
        val = values[bound_id]
        report[bound_id] = {"renyi": val, "limit": lim, "gap": abs(val - lim)}
    return report
