"""Checks of every op's output against the benchmark's own computations.

Nothing here compares with stored output of the program.  Each check either
recomputes the quantity with plain numpy (eigenvalues, Arimoto's closed
form, a state-vector simulation, the pretty-good measurement) or tests a
property the method must have (the bound identities, soundness of the
bounds against a protocol's merit, an exact identity).  A failed check
raises `CheckFailed`; checks never run inside a timed region.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import renyisc

# agreement the program shows today, with head room (see README)
IDENTITY_TOL = 1e-12  # bound identities: pure arithmetic on the entries
EIG_TOL = 1e-9  # closed-form Renyi expressions vs our own eigvalsh
ARIMOTO_TOL = 1e-8  # optimized S~(X|B) of a classical state vs Arimoto
SOUNDNESS_TOL = 1e-8  # log2 merit <= log2 merit bound (as the harness)
MERIT_TOL = 1e-8  # simulated merit vs our own state-vector computation
FEEDBACK_TOL = 1e-10  # one-round feedback vs single round
IDENTITY_KRS_TOL = 1e-7  # extraction merit vs 2^{S~_1/2(Z|B)/2}/sqrt|Z|
SUITE_RENYI_ALPHAS = (0.5, 2.0)


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# spectra, purifications and fidelities from plain numpy


def _eigs(m):
    vals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return vals[vals > 1e-12 * max(vals[-1], 0.0)]


def renyi_bits(m, alpha):
    vals = _eigs(m)
    if abs(alpha - 1.0) < 1e-6:
        return float(-np.sum(vals * np.log2(vals)))
    return float(math.log2(np.sum(vals**alpha)) / (1.0 - alpha))


def marginal(op, keep):
    """Partial trace by einsum on the labeled tensor (our own, not the program's)."""
    labels, dims = op.space.labels, op.space.dims
    n = len(dims)
    t = op.matrix.reshape(dims + dims)
    kept = [i for i, l in enumerate(labels) if l in keep]
    sub_in = [n + i if i in kept else i for i in range(n)]
    out = np.einsum(t, list(range(n)) + sub_in, kept + [n + i for i in kept])
    d = math.prod(dims[i] for i in kept)
    return out.reshape(d, d)


def _sqrtm(m):
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def root_fidelity(rho, sigma):
    return float(np.sum(np.linalg.svd(_sqrtm(rho) @ _sqrtm(sigma), compute_uv=False)))


def arimoto_bits(joint, alpha):
    """Arimoto conditional entropy of a table p(x, b)."""
    inner = np.sum(joint**alpha, axis=0) ** (1.0 / alpha)
    return float(alpha / (1.0 - alpha) * math.log2(np.sum(inner)))


# ---------------------------------------------------------------------------
# a state-vector simulator that keeps every environment


class PureState:
    """A pure state as a tensor with one labeled axis per register."""

    def __init__(self, tensor, labels):
        self.t = tensor
        self.labels = list(labels)

    @classmethod
    def purification(cls, op, ref="R"):
        vals, vecs = np.linalg.eigh((op.matrix + op.matrix.conj().T) / 2)
        keep = vals > 1e-12 * vals[-1]
        vec = vecs[:, keep] * np.sqrt(vals[keep])
        return cls(vec.reshape(op.space.dims + (int(keep.sum()),)), op.space.labels + (ref,))

    @classmethod
    def maximally_entangled(cls, k, a, b):
        return cls(np.eye(k, dtype=complex) / math.sqrt(k), [a, b])

    def tensor(self, other):
        t = np.multiply.outer(self.t, other.t)
        return PureState(t, self.labels + other.labels)

    def apply(self, ch, env_tag):
        """Apply a Stinespring isometry; its environment stays as a register."""
        v = ch.isometry
        ins = list(v.space_in.labels)
        rest = [l for l in self.labels if l not in ins]
        t = np.moveaxis(self.t, [self.labels.index(l) for l in ins],
                        range(len(rest), len(self.labels)))
        t = t.reshape(t.shape[:len(rest)] + (v.space_in.dim,)) @ v.matrix.T
        t = t.reshape(t.shape[:len(rest)] + v.space_out.dims)
        outs = [f"{l}#{env_tag}" if l in ch.environment_labels else l
                for l in v.space_out.labels]
        return PureState(t, rest + outs)

    def rename(self, mapping):
        return PureState(self.t, [mapping.get(l, l) for l in self.labels])

    def overlap_norm(self, target):
        """|| (<target| (x) I) |self> || over the registers of ``target``."""
        t = np.moveaxis(self.t, [self.labels.index(l) for l in target.labels],
                        range(len(target.labels)))
        t = t.reshape(target.t.size, -1)
        return float(np.linalg.norm(target.t.reshape(-1).conj() @ t))

    def density(self, order):
        t = np.moveaxis(self.t, [self.labels.index(l) for l in order], range(len(order)))
        d = math.prod(t.shape[:len(order)])
        t = t.reshape(d, -1)
        return t @ t.conj().T


def _run_channels(state, channels):
    for i, ch in enumerate(channels):
        state = state.apply(ch, i)
    return state


def redistribution_merit(inst):
    """F = ||(<phi| (x) I_E)|Psi>|| with every environment kept."""
    regs = inst.registers
    k, m = int(regs.get("k", 1)), int(regs.get("m", 1))
    psi = PureState.purification(inst.input_state)
    state = psi.tensor(PureState.maximally_entangled(k, "TA", "TB"))
    if inst.kind == "redistribution-feedback":
        order = [c for pair in zip(inst.encoders, inst.decoders) for c in pair]
    else:
        order = list(inst.encoders) + list(inst.decoders)
    state = _run_channels(state, order)
    target = psi.rename({"A": "Ap", "B": "Bp", "C": "Cp"}).tensor(
        PureState.maximally_entangled(m, "TAp", "TBp"))
    return state.overlap_norm(target)


def measurement_compression_merit(inst):
    """F(final_RXX'B, ideal_RXX'B) from purified states."""
    _require(int(inst.registers.get("ma", 1)) == 1,
             "the measurement-compression check handles ma = 1 (no shared randomness)")
    psi = PureState.purification(inst.input_state)
    shared = PureState(np.ones((1, 1), dtype=complex), ["MA", "MB"])
    state = _run_channels(psi.tensor(shared), list(inst.encoders) + list(inst.decoders))
    final = state.density(["R", "Xb", "Xh", "Bp"])
    # ideal: sum_x |x x><x x|_{X X'} (x) tr_A[(sqrt(E_x) (x) I) psi (sqrt(E_x) (x) I)]
    n, a = len(inst.povm), psi.labels.index("A")
    r, db = psi.t.shape[psi.labels.index("R")], psi.t.shape[psi.labels.index("B")]
    ideal = np.zeros((r, n, n, db) * 2, dtype=complex)
    for x, elem in enumerate(inst.povm):
        t = np.moveaxis(np.tensordot(_sqrtm(elem), psi.t, axes=([1], [a])), 0, a)
        measured = PureState(t, psi.labels)
        ideal[:, x, x, :, :, x, x, :] = measured.density(["R", "B"]).reshape(r, db, r, db)
    d = r * n * n * db
    return min(root_fidelity(final, ideal.reshape(d, d)), 1.0)


def cq_parts(cq):
    dx, db = cq.space.dims
    m = cq.matrix.reshape(dx, db, dx, db)
    p = np.array([np.trace(m[x, :, x, :]).real for x in range(dx)])
    return p, [m[x, :, x, :] / p[x] for x in range(dx)]


def _strings(alphabet, n):
    return ["".join(map(str, s)) for s in itertools.product(range(alphabet), repeat=n)]


def _product(p, states, s):
    prob, st = 1.0, np.eye(1, dtype=complex)
    for ch in s:
        prob *= p[int(ch)]
        st = np.kron(st, states[int(ch)])
    return prob, st


def _index(s, base):
    idx = 0
    for ch in s:
        idx = idx * base + int(ch)
    return idx


def extraction_blocks(inst):
    """W_z = sum over e(x) = z of p_x rho_x for the n-fold strings."""
    p, states = cq_parts(inst.input_state)
    n, z = inst.copies, int(inst.registers["z"])
    db = states[0].shape[0] ** n
    blocks = [np.zeros((db, db), dtype=complex) for _ in range(z**n)]
    for s in _strings(len(p), n):
        prob, st = _product(p, states, s)
        blocks[_index(inst.e_table[s], z)] += prob * st
    return blocks


def pgm_success(inst):
    """Success probability of the pretty-good decoder, per codeword class."""
    p, states = cq_parts(inst.input_state)
    n, c = inst.copies, int(inst.registers["c"])
    classes = {}
    for s in _strings(len(p), n):
        classes.setdefault(_index(inst.e_table[s], c), []).append(_product(p, states, s))
    total = 0.0
    for members in classes.values():
        avg = sum(w * st for w, st in members)
        vals, vecs = np.linalg.eigh(avg)
        inv = np.where(vals > 1e-12 * vals[-1], 1.0 / np.sqrt(np.clip(vals, 1e-300, None)), 0.0)
        inv_root = (vecs * inv) @ vecs.conj().T
        for w, st in members:
            elem = inv_root @ (w * st) @ inv_root
            total += w * float(np.trace(elem @ st).real)
    return total


# ---------------------------------------------------------------------------
# curves


def _expected_rate(bound_id, rates):
    r = rates
    table = {
        "redistribution-q+e": lambda: r["q"] + r["e"],
        "redistribution-2q-cond": lambda: 2 * r["q"],
        "redistribution-2q-mutual": lambda: 2 * r["q"],
        "feedback-q+e": lambda: r["q_tot"] + r["e"],
        "feedback-2q-cond": lambda: 2 * r["q_fw"],
        "feedback-2q-mutual": lambda: 2 * r["q_fw"],
        "merging-q-e": lambda: r["q_csm"] - r["e_csm"],
        "merging-2q": lambda: 2 * r["q_csm"],
        "splitting-q+e": lambda: r["q"] + r["e"],
        "splitting-2q-cond": lambda: 2 * r["q"],
        "splitting-2q-mutual": lambda: 2 * r["q"],
        "measurement-compression-c": lambda: r["c"],
        "randomness-extraction-linear": lambda: r["l"],
        "randomness-extraction-cond": lambda: r["l"],
        "data-compression-linear": lambda: r["m"],
        "data-compression-cond": lambda: r["m"],
    }
    _require(bound_id in table, f"unexpected bound id {bound_id!r}")
    return table[bound_id]()


def _linear_expression(kind, state, alpha, beta):
    """The closed-form (eigenvalue-only) row of each kind, or None."""
    if kind in ("redistribution", "redistribution-feedback", "coherent-merging"):
        return renyi_bits(marginal(state, {"A", "B"}), beta) - renyi_bits(
            marginal(state, {"B"}), alpha)
    if kind == "state-splitting":
        return renyi_bits(marginal(state, {"A"}), beta)
    if kind == "randomness-extraction":
        return renyi_bits(state.matrix, alpha) - renyi_bits(marginal(state, {"B"}), beta)
    if kind == "data-compression":
        return renyi_bits(state.matrix, beta) - renyi_bits(marginal(state, {"B"}), alpha)
    return None


def check_curve(ci, curve, grid):
    """Identities, eigenvalue rows, Arimoto rows and soundness of one curve."""
    _require(curve.kind == ci.kind, "curve kind differs from the request")
    _require(tuple(curve.alphas) == tuple(sorted(grid)), "curve alphas differ from the grid")
    ids = {e.bound_id for e in curve.entries}
    _require(len(curve.entries) == len(ids) * len(grid), "curve is missing entries")
    extraction = ci.kind == "randomness-extraction"
    log_merit = math.log2(ci.merit)
    for e in curve.entries:
        a = e.alpha
        kappa = (1.0 - a) / (2.0 * a) / (2.0 if extraction else 1.0)
        exponent = kappa * ((e.rate_bits - e.expression_bits) if extraction
                            else (e.expression_bits - e.rate_bits))
        _require(abs(e.beta - a / (2.0 * a - 1.0)) <= IDENTITY_TOL * e.beta, f"beta of {e}")
        _require(abs(e.kappa - kappa) <= IDENTITY_TOL, f"kappa of {e}")
        _require(abs(e.rate_bits - _expected_rate(e.bound_id, ci.rates)) <= IDENTITY_TOL,
                 f"rate of {e}")
        _require(abs(e.exponent - exponent) <= IDENTITY_TOL, f"exponent of {e}")
        _require(abs(e.log2_merit_bound + ci.copies * e.exponent) <= IDENTITY_TOL,
                 f"log2 merit bound of {e}")
        _require(log_merit <= e.log2_merit_bound + SOUNDNESS_TOL,
                 f"merit {ci.merit} violates {e}")
        if e.bound_id.endswith(("-linear", "q+e", "q-e")):
            want = _linear_expression(ci.kind, ci.state, a, e.beta)
            _require(abs(e.expression_bits - want) <= EIG_TOL,
                     f"{e.bound_id} at alpha {a}: {e.expression_bits} vs eigvalsh {want}")
        if ci.classical and e.bound_id.endswith("-cond"):
            joint = np.real(np.diag(ci.state.matrix)).reshape(ci.state.space.dims)
            want = arimoto_bits(joint, e.beta)
            _require(abs(e.expression_bits - want) <= ARIMOTO_TOL,
                     f"{e.bound_id} at alpha {a}: {e.expression_bits} vs Arimoto {want}")


# ---------------------------------------------------------------------------
# spectral


def check_suite(si, report, rng):
    _require(report.suite_id == si.suite, "report names another suite")
    _require(report.trials == si.trials, "report ran another trial count")
    _require(report.passed and not report.failures,
             f"suite {si.suite} ({si.size}) failed: {report.failures[:2]}")
    _require(report.max_violation <= report.tol, "violation above the suite tolerance")
    # one state of the op's size, its entropies against our own eigvalsh
    d = math.prod(si.dims)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    op = renyisc.LabeledOperator.square(renyisc.SystemSpace.of(("A", d)), rho)
    for a in SUITE_RENYI_ALPHAS:
        got, want = renyisc.renyi_entropy(op, a), renyi_bits(rho, a)
        _require(abs(got - want) <= EIG_TOL, f"renyi_entropy({a}) {got} vs eigvalsh {want}")


# ---------------------------------------------------------------------------
# simulate


class SimulateChecker:
    """Per-instance checks; the expensive references are computed once."""

    def __init__(self):
        self._cache = {}

    def _once(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _soundness(self, si, outcome):
        inst = si.instance
        curve = self._once(("curve", si.name), lambda: renyisc.exponent_curve(
            inst.kind, si.bound_state, outcome.costs, copies=inst.copies))
        log_merit = math.log2(max(outcome.merit, 1e-300))
        for e in curve.entries:
            _require(log_merit <= e.log2_merit_bound + SOUNDNESS_TOL,
                     f"{si.name}: merit {outcome.merit} violates {e}")

    def check(self, si, outcome):
        inst = si.instance
        _require(0.0 <= outcome.merit <= 1.0, f"{si.name}: merit {outcome.merit} outside [0, 1]")
        kind = inst.kind
        if kind in ("redistribution", "redistribution-feedback", "coherent-merging",
                    "state-splitting"):
            want = self._once(("merit", si.name), lambda: redistribution_merit(inst))
            _require(abs(outcome.merit - want) <= MERIT_TOL,
                     f"{si.name}: merit {outcome.merit} vs state vector {want}")
            if kind == "coherent-merging":
                self._check_one_round_feedback(si, outcome)
        elif kind == "measurement-compression":
            want = self._once(("merit", si.name), lambda: measurement_compression_merit(inst))
            _require(abs(outcome.merit - want) <= MERIT_TOL,
                     f"{si.name}: merit {outcome.merit} vs purified simulation {want}")
            self._soundness(si, outcome)
        elif kind == "randomness-extraction":
            blocks = self._once(("blocks", si.name), lambda: extraction_blocks(inst))
            f_prime = self._once(("f'", si.name), lambda: sum(
                root_fidelity(w, sum(blocks)) for w in blocks) / math.sqrt(len(blocks)))
            _require(f_prime - MERIT_TOL <= outcome.merit <= math.sqrt(f_prime) + MERIT_TOL,
                     f"{si.name}: merit {outcome.merit} outside [{f_prime}, sqrt]")
            want = self._once(("krs", si.name), lambda: _krs_identity(blocks))
            _require(abs(outcome.merit - want) <= IDENTITY_KRS_TOL,
                     f"{si.name}: merit {outcome.merit} vs 2^(S_1/2(Z|B)/2)/sqrt|Z| {want}")
            self._soundness(si, outcome)
        elif kind == "data-compression":
            want = self._once(("merit", si.name), lambda: pgm_success(inst))
            _require(abs(outcome.merit - want) <= MERIT_TOL,
                     f"{si.name}: merit {outcome.merit} vs own pretty-good decoder {want}")
            self._soundness(si, outcome)
        else:
            raise CheckFailed(f"no check for kind {kind!r}")

    def _check_one_round_feedback(self, si, outcome):
        inst = si.instance
        fb = renyisc.ProtocolInstance(
            "redistribution-feedback", inst.input_state,
            registers={"forward": [inst.registers["q"]], "backward": [],
                       "k": inst.registers["k"], "m": inst.registers["m"]},
            encoders=inst.encoders, decoders=inst.decoders)
        looped = self._once(("feedback", si.name), lambda: renyisc.run_protocol(fb))
        _require(abs(looped.merit - outcome.merit) <= FEEDBACK_TOL,
                 f"{si.name}: one-round feedback {looped.merit} vs single round {outcome.merit}")


def _krs_identity(blocks):
    """max_sigma F(omega_ZB, pi_Z (x) sigma) = 2^{S~_1/2(Z|B)/2}/sqrt|Z| (exact)."""
    z, db = len(blocks), blocks[0].shape[0]
    m = np.zeros((z * db, z * db), dtype=complex)
    for i, w in enumerate(blocks):
        m[i * db:(i + 1) * db, i * db:(i + 1) * db] = w
    omega = renyisc.LabeledOperator.square(renyisc.SystemSpace.of(("Z", z), ("B", db)), m)
    h = renyisc.conditional_entropy(omega, ["B"], 0.5, renyisc.OptimizerConfig(starts=3)).value
    return 2.0 ** (h / 2.0) / math.sqrt(z)
