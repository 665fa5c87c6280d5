"""Strong-converse bounds as explicit functions of the Renyi order.

Every implemented inequality has the shape

    log2(merit) <= -n * kappa(alpha) * (expression - rate)

with kappa(alpha) = (1-alpha)/(2 alpha), halved for randomness extraction.
An expression is a signed sum of Renyi entropies, conditional entropies and
mutual informations of marginals of the input state or of its purification,
at alpha or its conjugate beta; a rate is a linear form in the costs.  The
``exponent`` field of a report entry is kappa * (expression - rate) per copy,
or kappa * (rate - expression) for the yield-type extraction bounds; a
positive exponent certifies exponential decay of the merit at the given rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .entropies import (
    ALPHA_ONE_BAND,
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

# kind -> (id prefix, prefactor, input state labels, bounds).  The prefactor
# multiplies kappa in the exponent; it is negative for a yield-type bound.
# A bound is (id suffix, terms, rate form {rate key: coefficient}), and a
# term is (sign, quantity, kept labels, conditioning labels, order): S is the
# Renyi entropy, H the conditional entropy and I the mutual information of
# the marginal on the kept labels, at order "a" (alpha) or "b" (beta).  Term
# labels are one character each, so a string spells a label set; R is the
# purifying reference.
_BOUNDS = {
    REDISTRIBUTION: ("redistribution", 1.0, ("A", "B", "C"), (
        ("q+e", ((+1, "S", "AB", "", "b"), (-1, "S", "B", "", "a")), {"q": 1, "e": 1}),
        ("2q-cond", ((+1, "H", "RB", "B", "b"), (-1, "H", "RAB", "AB", "a")), {"q": 2}),
        ("2q-mutual", ((+1, "I", "RAB", "AB", "a"), (-1, "I", "RB", "B", "b")), {"q": 2}),
    )),
    FEEDBACK: ("feedback", 1.0, ("A", "B", "C"), (
        ("q+e", ((+1, "S", "AB", "", "b"), (-1, "S", "B", "", "a")), {"q_tot": 1, "e": 1}),
        ("2q-cond", ((+1, "H", "RB", "B", "b"), (-1, "H", "RAB", "AB", "a")), {"q_fw": 2}),
        ("2q-mutual", ((+1, "I", "RAB", "AB", "a"), (-1, "I", "RB", "B", "b")), {"q_fw": 2}),
    )),
    MERGING: ("merging", 1.0, ("A", "B"), (
        ("q-e", ((+1, "S", "AB", "", "b"), (-1, "S", "B", "", "a")), {"q_csm": 1, "e_csm": -1}),
        ("2q", ((+1, "S", "R", "", "b"), (-1, "H", "RA", "A", "a")), {"q_csm": 2}),
    )),
    SPLITTING: ("splitting", 1.0, ("A", "C"), (
        ("q+e", ((+1, "S", "A", "", "b"),), {"q": 1, "e": 1}),
        ("2q-cond", ((+1, "S", "R", "", "b"), (-1, "H", "RA", "A", "a")), {"q": 2}),
        ("2q-mutual", ((+1, "I", "RA", "A", "a"),), {"q": 2}),
    )),
    MEASUREMENT_COMPRESSION: ("measurement-compression", 1.0, ("R", "X", "Xp", "B"), (
        ("c", ((+1, "H", "RB", "B", "b"), (-1, "H", "RXB", "XB", "a")), {"c": 1}),
    )),
    RANDOMNESS_EXTRACTION: ("randomness-extraction", -0.5, ("X", "B"), (
        ("linear", ((+1, "S", "XB", "", "a"), (-1, "S", "B", "", "b")), {"l": 1}),
        ("cond", ((+1, "H", "XB", "B", "a"),), {"l": 1}),
    )),
    DATA_COMPRESSION: ("data-compression", 1.0, ("X", "B"), (
        ("linear", ((+1, "S", "XB", "", "b"), (-1, "S", "B", "", "a")), {"m": 1}),
        ("cond", ((+1, "H", "XB", "B", "b"),), {"m": 1}),
    )),
}
_OPTIMIZED = {"H": conditional_entropy, "I": mutual_information}


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


def _table(kind: str):
    if kind not in _BOUNDS:
        raise UsageError(f"unknown protocol kind {kind!r}")
    return _BOUNDS[kind]


def _linear(pairs):
    """Sum of c * x over (c, x), folded left from the first product."""
    return reduce(add, (c * x for c, x in pairs))


class _BoundEvaluator:
    """Evaluates the bound expressions of one protocol kind.

    Caches marginals by label set and warm-starts each optimized term with
    the minimizer found at the previous grid point.
    """

    def __init__(self, kind: str, state: LabeledOperator, config: OptimizerConfig):
        self.kind = kind
        self.prefix, self.prefactor, labels, self.bounds = _table(kind)
        self.config = config
        self.psi = None
        self.state = self._checked(state, labels)
        self._marginals: dict = {}
        self._warm: dict = {}

    def _checked(self, state: LabeledOperator, labels) -> LabeledOperator:
        """``state`` checked against the table's labels; a channel kind's is purified on R."""
        kind, have = self.kind, set(state.space.labels)
        if kind in (RANDOMNESS_EXTRACTION, DATA_COMPRESSION):
            cq_components(state)  # any two registers, classical on the first
            return state.rename(dict(zip(state.space.labels, labels)))
        if kind == MEASUREMENT_COMPRESSION:
            if have != set(labels):
                raise UsageError(f"{kind} expects the ideal state on {', '.join(labels)}")
            return state
        missing = [label for label in labels if label not in have]
        if missing:
            raise UsageError(f"{kind} needs a state on {', '.join(labels)}; "
                             f"missing {', '.join(missing)}")
        self.psi = purify(state, "R")
        return state

    def marginal(self, keep) -> LabeledOperator:
        """The input state on ``keep`` if it holds every label there, else its purification."""
        keep = frozenset(keep)
        if keep not in self._marginals:
            source = self.state if keep <= set(self.state.space.labels) else self.psi
            self._marginals[keep] = partial_trace(source, keep)
        return self._marginals[keep]

    def _term(self, quantity: str, keep: str, given: str, order: str, p) -> float:
        rho, x = self.marginal(keep), p.alpha if order == "a" else p.beta
        if quantity == "S":
            return renyi_entropy(rho, x)
        key = (quantity, keep, given)
        warm = self._warm.get(key)
        out = _OPTIMIZED[quantity](rho, list(given), x, self.config,
                                   warm_starts=() if warm is None else (warm,))
        self._warm[key] = out.optimizer.matrix
        return out.value

    def expressions(self, alpha: float) -> list[tuple[str, float]]:
        """(bound id, expression) of every bound at one alpha."""
        p = alpha_params(alpha)
        return [
            (f"{self.prefix}-{suffix}",
             _linear((sign, self._term(*term, p)) for sign, *term in terms))
            for suffix, terms, _ in self.bounds
        ]

    def entries(self, alpha: float, rates: dict, copies: int = 1) -> list[BoundEntry]:
        p = alpha_params(alpha)
        scale = self.prefactor * p.kappa
        result = []
        for (bound_id, expr), (_, _, form) in zip(self.expressions(alpha), self.bounds):
            rate = _linear((c, rates[key]) for key, c in form.items())
            exponent = scale * (expr - rate)
            result.append(BoundEntry(bound_id, p.alpha, p.beta, abs(scale), expr, rate,
                                     exponent, -copies * exponent))
        return result


def converse_bound(
    kind: str,
    state: LabeledOperator,
    rates: dict,
    alpha: float,
    copies: int = 1,
    config: OptimizerConfig = DEFAULT_CONFIG,
) -> BoundReport:
    """The bounds of ``kind`` at one alpha: ``exponent_curve`` on the grid (alpha,)."""
    return BoundReport(kind, copies,
                       exponent_curve(kind, state, rates, (alpha,), copies, config).entries)


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
        if not 0.5 < a < 1.0:
            raise UsageError(f"converse bounds require alpha in (1/2, 1), got {a}")
    if copies < 1:
        raise UsageError(f"converse bounds require copies >= 1, got {copies}")
    *_, bounds = _table(kind)
    for key in dict.fromkeys(key for _, _, form in bounds for key in form):
        if not np.isfinite(rates.get(key, np.nan)):
            raise UsageError(f"{kind} bounds need a finite rate {key!r}")
    ev = _BoundEvaluator(kind, state, config)
    grouped: dict[str, list[BoundEntry]] = {}
    for a in sorted(alphas):
        for entry in ev.entries(a, rates, copies):
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
    kind = ev.kind

    def s(keep):
        return von_neumann_entropy(ev.marginal(keep))

    if kind in (REDISTRIBUTION, FEEDBACK):
        s_ab, s_b = s({"A", "B"}), s({"B"})
        s_rb, s_rab = s({"R", "B"}), s({"R", "A", "B"})
        cond = s_ab - s_b
        cmi = s_rb - s_b - s_rab + s_ab
        pre = "redistribution" if kind == REDISTRIBUTION else "feedback"
        return {f"{pre}-q+e": cond, f"{pre}-2q-cond": cmi, f"{pre}-2q-mutual": cmi}
    if kind == MERGING:
        s_ab, s_b, s_a = s({"A", "B"}), s({"B"}), s({"A"})
        s_r, s_ra = s({"R"}), s({"R", "A"})
        return {"merging-q-e": s_ab - s_b, "merging-2q": s_r + s_a - s_ra}
    if kind == SPLITTING:
        s_a, s_r, s_ra = s({"A"}), s({"R"}), s({"R", "A"})
        mi = s_r + s_a - s_ra
        return {"splitting-q+e": s_a, "splitting-2q-cond": mi, "splitting-2q-mutual": mi}
    if kind == MEASUREMENT_COMPRESSION:
        s_rb, s_b = s({"R", "B"}), s({"B"})
        s_rxb, s_xb = s({"R", "X", "B"}), s({"X", "B"})
        return {"measurement-compression-c": (s_rb - s_b) - (s_rxb - s_xb)}
    # randomness extraction and data compression: a c-q state, renamed (X, B)
    cond = s({"X", "B"}) - s({"B"})
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
    if abs((1.0 - eps) - 1.0) < ALPHA_ONE_BAND:
        # every quantity takes its von Neumann branch there, so each gap would read 0
        raise UsageError(f"eps = {eps} puts alpha = 1 - eps inside the von Neumann band "
                         f"|alpha - 1| < {ALPHA_ONE_BAND:g}; use eps >= {ALPHA_ONE_BAND:g}")
    ev = _BoundEvaluator(kind, state, config)
    values = dict(ev.expressions(1.0 - eps))
    return {bid: {"renyi": values[bid], "limit": lim, "gap": abs(values[bid] - lim)}
            for bid, lim in _vn_limits(ev).items()}
