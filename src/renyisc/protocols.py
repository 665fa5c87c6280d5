"""Executable models of the six two-party protocols.

Canonical register labels (a trailing ``p`` marks a primed output system):

* redistribution and its specializations: input on A, B, C with purifier R;
  entanglement TA, TB of rank k; encoder {A, C, TA} -> {Cp, TAp, Q};
  decoder {Q, B, TB} -> {TBp, Ap, Bp}; target MES rank m on (TAp, TBp).
* measurement compression: input on A, B with purifier R; shared
  randomness MA, MB; encoder {A, MA} -> {Xb, L}; decoder {L, B, MB} ->
  {Xh, Bp}; ideal state on (R, X, Xp, B) from the measurement channel.
* randomness extraction / data compression: classical-quantum input on
  (X, B) with a classical encoding table on n-fold strings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelSpec, apply_channels, measurement_channel
from .errors import BudgetExceededError, UsageError
from .entropies import conditional_entropy
from .linalg import fidelity, fractional_power_matrix, purify, spectrum
from .spaces import (
    LabeledOperator,
    SystemSpace,
    maximally_entangled,
    partial_trace,
    permute_systems,
)

DIM_BUDGET = 4096

REDISTRIBUTION = "redistribution"
FEEDBACK = "redistribution-feedback"
MERGING = "coherent-merging"
SPLITTING = "state-splitting"
MEASUREMENT_COMPRESSION = "measurement-compression"
RANDOMNESS_EXTRACTION = "randomness-extraction"
DATA_COMPRESSION = "data-compression"

KINDS = (
    REDISTRIBUTION,
    FEEDBACK,
    MERGING,
    SPLITTING,
    MEASUREMENT_COMPRESSION,
    RANDOMNESS_EXTRACTION,
    DATA_COMPRESSION,
)


@dataclass(frozen=True)
class ProtocolInstance:
    kind: str
    input_state: LabeledOperator
    copies: int = 1
    registers: dict = field(default_factory=dict)
    encoders: tuple = ()
    decoders: tuple = ()
    povm: tuple | None = None
    e_table: dict | None = None
    decoder_povms: dict | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown protocol kind {self.kind!r}")
        if self.copies < 1:
            raise UsageError("copies must be >= 1")
        object.__setattr__(self, "encoders", tuple(self.encoders))
        object.__setattr__(self, "decoders", tuple(self.decoders))


@dataclass(frozen=True)
class ProtocolOutcome:
    final_state: LabeledOperator
    merit: float
    costs: dict


def _check_budget(dim: int):
    if dim > DIM_BUDGET:
        raise BudgetExceededError(f"composite dimension {dim} exceeds budget {DIM_BUDGET}")


def _check_purified_budget(state: LabeledOperator, extra: int):
    """Reject oversized instances before the purification is materialized.

    The purification lives on dim * rank; forming its matrix squares that,
    so the check must run before the allocation, not after.
    """
    rank = max(int(np.sum(spectrum(state.matrix, vectors=False)[2])), 1)
    _check_budget(state.space.dim * rank * extra)


def _log2_int(k: int) -> float:
    return math.log2(int(k))


# ---------------------------------------------------------------------------
# classical-quantum inputs


def cq_components(rho: LabeledOperator) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split a c-q state on (X, B) into weights and conditional states.

    The X register must be classical: off-diagonal X blocks below 1e-10.
    """
    space = rho.space
    if len(space.subsystems) != 2:
        raise UsageError("c-q state must have exactly two registers")
    dx, db = space.dims
    m = rho.matrix.reshape(dx, db, dx, db)
    off = max(
        (float(np.max(np.abs(m[x, :, y, :]))) for x in range(dx) for y in range(dx) if x != y),
        default=0.0,
    )
    if off > 1e-10:
        raise UsageError("state is not classical on its first register")
    p = np.array([float(np.trace(m[x, :, x, :]).real) for x in range(dx)])
    states = []
    for x in range(dx):
        block = m[x, :, x, :]
        states.append(block / p[x] if p[x] > 0 else np.eye(db) / db)
    return p, states


def _strings(alphabet: int, n: int):
    return itertools.product(range(alphabet), repeat=n)


def _string_key(s) -> str:
    return "".join(str(c) for c in s)


def _parse_string(val, alphabet: int, n: int) -> int:
    """Index of an n-symbol digit string over the given alphabet."""
    if isinstance(val, int):
        if not 0 <= val < alphabet**n:
            raise UsageError(f"table value {val} out of range")
        return val
    digits = [int(ch) for ch in str(val)]
    if len(digits) != n or any(d >= max(alphabet, 1) for d in digits):
        raise UsageError(f"table value {val!r} is not an n-symbol string")
    idx = 0
    for d in digits:
        idx = idx * alphabet + d
    return idx


def _product_ensemble(p: np.ndarray, states: list[np.ndarray], n: int):
    """n-fold i.i.d. ensemble over strings; yields (string, prob, state)."""
    for s in _strings(len(p), n):
        prob = float(np.prod([p[c] for c in s]))
        st = states[s[0]]
        for c in s[1:]:
            st = np.kron(st, states[c])
        yield s, prob, st


# ---------------------------------------------------------------------------
# state redistribution and specializations


def _redistribution_target(psi: LabeledOperator, m: int) -> LabeledOperator:
    target = psi.rename({"A": "Ap", "B": "Bp", "C": "Cp"})
    mes = maximally_entangled(m, "TAp", "TBp")
    return target.tensor(mes)


def _aligned(final: LabeledOperator, target: LabeledOperator) -> LabeledOperator:
    """``final`` in the system order of ``target``; their labels must agree."""
    if set(final.space.labels) != set(target.space.labels):
        raise UsageError(
            f"final labels {final.space.labels} do not match target {target.space.labels}"
        )
    return permute_systems(final, list(target.space.labels))


def _snap(f: float) -> float:
    f = min(max(f, 0.0), 1.0)
    # a perfect protocol must score exactly 1; absorb rounding noise
    return 1.0 if f > 1.0 - 1e-12 else f


def _merit_against(final: LabeledOperator, target: LabeledOperator) -> float:
    """F(final, target) for a mixed target."""
    return _snap(fidelity(_aligned(final, target), target))


def _merit_against_pure(final: LabeledOperator, target: LabeledOperator) -> float:
    """F(final, target) = sqrt tr(final target) for a pure target."""
    overlap = float(np.vdot(target.matrix, _aligned(final, target).matrix).real)
    return _snap(math.sqrt(max(overlap, 0.0)))


def run_redistribution(inst: ProtocolInstance) -> ProtocolOutcome:
    if inst.kind not in (REDISTRIBUTION, MERGING, SPLITTING):
        raise UsageError(f"expected a redistribution-like instance, got {inst.kind!r}")
    regs = inst.registers
    k, m, q = int(regs.get("k", 1)), int(regs.get("m", 1)), int(regs["q"])
    _check_purified_budget(inst.input_state, k * k)
    psi = purify(inst.input_state, "R")
    mes = maximally_entangled(k, "TA", "TB")
    state = psi.tensor(mes)
    _check_budget(state.space.dim)
    for ch in inst.encoders:
        _check_wiring(ch, {"A", "C", "TA"}, state)
        state = _apply(ch, state)
    for ch in inst.decoders:
        _check_wiring(ch, {"Q", "B", "TB"}, state)
        state = _apply(ch, state)
    merit = _merit_against_pure(state, _redistribution_target(psi, m))
    n = inst.copies
    costs = {"q": _log2_int(q) / n, "e": (_log2_int(k) - _log2_int(m)) / n}
    if inst.kind == MERGING:
        costs["q_csm"] = costs["q"]
        costs["e_csm"] = -costs["e"]
    if inst.kind == SPLITTING:
        costs["q_qss"] = costs["q"]
        costs["e_qss"] = costs["e"]
    return ProtocolOutcome(state, merit, costs)


def _apply(ch: ChannelSpec, state: LabeledOperator) -> LabeledOperator:
    out = apply_channels([ch], state)
    _check_budget(out.space.dim)
    return out


def _check_wiring(ch: ChannelSpec, allowed: set, state: LabeledOperator):
    inputs = set(ch.input_labels)
    if not inputs <= allowed:
        raise UsageError(f"channel inputs {sorted(inputs)} outside allowed {sorted(allowed)}")
    missing = inputs - set(state.space.labels)
    if missing:
        raise UsageError(f"channel inputs {sorted(missing)} absent from state")


def specialize(kind: str, input_state: LabeledOperator, registers: dict,
               encoders=(), decoders=()) -> ProtocolInstance:
    """Embed coherent merging or state splitting into redistribution form.

    Merging: no system C and no pre-shared entanglement (k = 1); the
    produced MES rank m is the entanglement gain.  Splitting: no system B
    and no MES produced (m = 1); the consumed rank k is the entanglement
    cost.
    """
    regs = dict(registers)
    labels = set(input_state.space.labels)
    if kind == MERGING:
        if input_state.space.has("C") and input_state.space.dim_of("C") != 1:
            raise UsageError("coherent merging requires a trivial C system")
        if int(regs.get("k", 1)) != 1:
            raise UsageError("coherent merging starts without entanglement (k = 1)")
        if not labels >= {"A", "B"}:
            raise UsageError("merging input must carry A and B")
    elif kind == SPLITTING:
        if input_state.space.has("B") and input_state.space.dim_of("B") != 1:
            raise UsageError("state splitting requires a trivial B system")
        if int(regs.get("m", 1)) != 1:
            raise UsageError("state splitting produces no entanglement (m = 1)")
        if not labels >= {"A", "C"}:
            raise UsageError("splitting input must carry A and C")
    else:
        raise UsageError(f"specialize handles merging and splitting, not {kind!r}")
    state = input_state
    for missing in ("A", "B", "C"):
        if not state.space.has(missing):
            state = state.tensor(
                LabeledOperator.square(SystemSpace.of((missing, 1)), np.eye(1))
            )
    state = permute_systems(state, ["A", "B", "C"])
    return ProtocolInstance(kind, state, registers=regs, encoders=encoders, decoders=decoders)


def run_feedback_redistribution(inst: ProtocolInstance) -> ProtocolOutcome:
    """M rounds of alternating encoder/decoder channels.

    ``registers`` carries ``forward`` (sizes of Q_1..Q_M), ``backward``
    (sizes of the M-1 back registers), ``k`` and ``m``.  Channels are
    applied in the order E_1, D_1, ..., E_M, D_M.
    """
    if inst.kind != FEEDBACK:
        raise UsageError(f"expected a feedback instance, got {inst.kind!r}")
    regs = inst.registers
    forward = [int(x) for x in regs["forward"]]
    backward = [int(x) for x in regs.get("backward", [])]
    rounds = len(forward)
    if len(inst.encoders) != rounds or len(inst.decoders) != rounds:
        raise UsageError("encoder/decoder count must equal the round count")
    if len(backward) != rounds - 1:
        raise UsageError("need exactly M-1 backward register sizes")
    k, m = int(regs.get("k", 1)), int(regs.get("m", 1))
    _check_purified_budget(inst.input_state, k * k)
    psi = purify(inst.input_state, "R")
    state = psi.tensor(maximally_entangled(k, "TA", "TB"))
    _check_budget(state.space.dim)
    for i in range(rounds):
        state = _apply(inst.encoders[i], state)
        state = _apply(inst.decoders[i], state)
    merit = _merit_against_pure(state, _redistribution_target(psi, m))
    n = inst.copies
    q_fw = sum(_log2_int(x) for x in forward) / n
    q_tot = q_fw + sum(_log2_int(x) for x in backward) / n
    costs = {
        "q_fw": q_fw,
        "q_tot": q_tot,
        "e": (_log2_int(k) - _log2_int(m)) / n,
    }
    return ProtocolOutcome(state, merit, costs)


# ---------------------------------------------------------------------------
# measurement compression with quantum side information


def uniform_shared_randomness(size: int) -> LabeledOperator:
    space = SystemSpace.of(("MA", size), ("MB", size))
    m = np.zeros((size * size, size * size), dtype=complex)
    for i in range(size):
        idx = i * size + i
        m[idx, idx] = 1.0 / size
    return LabeledOperator.square(space, m)


def ideal_measurement_state(rho_ab: LabeledOperator, povm) -> LabeledOperator:
    """Apply the measurement channel to A of the purified input."""
    psi = purify(rho_ab, "R")
    ch = measurement_channel(povm, psi.space.restrict({"A"}), "X", "Xp", "Em")
    return apply_channels([ch], psi)


def run_measurement_compression(inst: ProtocolInstance) -> ProtocolOutcome:
    if inst.kind != MEASUREMENT_COMPRESSION:
        raise UsageError(f"expected a measurement-compression instance, got {inst.kind!r}")
    if inst.povm is None:
        raise UsageError("measurement compression needs a POVM")
    povm = [np.asarray(e, dtype=complex) for e in inst.povm]
    total = np.sum(povm, axis=0)
    if np.max(np.abs(total - np.eye(total.shape[0]))) > 1e-8:
        raise UsageError("POVM elements do not sum to the identity")
    regs = inst.registers
    l_size, ma_size = int(regs["l"]), int(regs.get("ma", 1))
    _check_purified_budget(inst.input_state, ma_size * ma_size)
    ideal = ideal_measurement_state(inst.input_state, povm)
    psi = purify(inst.input_state, "R")
    state = psi.tensor(uniform_shared_randomness(ma_size))
    _check_budget(state.space.dim)
    for ch in inst.encoders:
        _check_wiring(ch, {"A", "MA"}, state)
        state = _apply(ch, state)
    for ch in inst.decoders:
        _check_wiring(ch, {"L", "B", "MB"}, state)
        state = _apply(ch, state)
    state = partial_trace(state, {"R", "Xb", "Xh", "Bp"})
    final = state.rename({"Xb": "X", "Xh": "Xp", "Bp": "B"})
    merit = _merit_against(final, permute_systems(ideal, list(final.space.labels)))
    n = inst.copies
    costs = {"c": _log2_int(l_size) / n, "r": _log2_int(ma_size) / n}
    return ProtocolOutcome(final, merit, costs)


# ---------------------------------------------------------------------------
# randomness extraction


def _cq_blocks_from_table(p, states, e_table, n, z_per_copy, z_size):
    """Blocks W_z = sum over e(x)=z of p_x rho_B^x for n-fold strings."""
    db = states[0].shape[0]
    blocks = [np.zeros((db**n, db**n), dtype=complex) for _ in range(z_size)]
    seen = set()
    for s, prob, st in _product_ensemble(p, states, n):
        key = _string_key(s)
        if key not in e_table:
            raise UsageError(f"encoding table missing input {key!r}")
        z = _parse_string(e_table[key], z_per_copy, n)
        seen.add(z)
        blocks[z] += prob * st
    if len(seen) < z_size:
        raise UsageError("encoding table is not surjective onto the output alphabet")
    return blocks


def _block_fidelity(blocks, sigma: np.ndarray) -> float:
    """F(omega_ZB, pi_Z (x) sigma) for block-diagonal omega."""
    z = len(blocks)
    rs = fractional_power_matrix(sigma, 0.5)
    tot = 0.0
    for w in blocks:
        rw = fractional_power_matrix(w, 0.5)
        s = np.linalg.svd(rw @ rs, compute_uv=False)
        tot += float(np.sum(s))
    return min(tot / math.sqrt(z), 1.0 + 1e-9)


def run_randomness_extraction(inst: ProtocolInstance) -> ProtocolOutcome:
    if inst.kind != RANDOMNESS_EXTRACTION:
        raise UsageError(f"expected a randomness-extraction instance, got {inst.kind!r}")
    p, states = cq_components(inst.input_state)
    n = inst.copies
    if "z" not in inst.registers:
        raise UsageError("registers must carry the per-copy output size 'z'")
    z_per_copy = int(inst.registers["z"])
    z_size = z_per_copy**n
    db = states[0].shape[0]
    _check_budget(z_size * db**n)
    blocks = _cq_blocks_from_table(p, states, inst.e_table, n, z_per_copy, z_size)
    space = SystemSpace.of(("Z", z_size), ("Bn", db**n))
    m = np.zeros((z_size * db**n,) * 2, dtype=complex)
    for z, w in enumerate(blocks):
        m[z * db**n : (z + 1) * db**n, z * db**n : (z + 1) * db**n] = w
    final = LabeledOperator.square(space, m)
    f_prime = _block_fidelity(blocks, np.sum(blocks, axis=0))
    if db**n > 1:
        # max over sigma of F(omega_ZB, pi_Z (x) sigma) = 2^{S~_1/2(Z|B)/2} / sqrt|Z|
        # (Konig-Renner-Schaffner)
        merit = 2 ** (conditional_entropy(final, ["Bn"], 0.5).value / 2) / math.sqrt(z_size)
    else:
        merit = f_prime
    merit = max(merit, f_prime)
    upper = math.sqrt(max(f_prime, 0.0))
    if merit > upper + 1e-8:
        raise UsageError("merit escaped its fidelity bracket; optimizer defect")
    merit = min(merit, upper, 1.0)
    costs = {"l": _log2_int(z_size) / n}
    return ProtocolOutcome(final, merit, costs)


# ---------------------------------------------------------------------------
# data compression


def pretty_good_decoder(ensemble: list[tuple[float, np.ndarray]]) -> list[np.ndarray]:
    """Square-root measurement for a weighted ensemble.

    Any kernel weight of the ensemble average is routed to the first
    outcome so that the POVM is complete.
    """
    db = ensemble[0][1].shape[0]
    avg = np.zeros((db, db), dtype=complex)
    for w, st in ensemble:
        avg += w * st
    inv_root = fractional_power_matrix(avg, -0.5)
    elements = [inv_root @ (w * st) @ inv_root for w, st in ensemble]
    defect = np.eye(db) - np.sum(elements, axis=0)
    elements[0] = elements[0] + defect
    return elements


def run_data_compression(inst: ProtocolInstance) -> ProtocolOutcome:
    if inst.kind != DATA_COMPRESSION:
        raise UsageError(f"expected a data-compression instance, got {inst.kind!r}")
    p, states = cq_components(inst.input_state)
    n = inst.copies
    if "c" not in inst.registers:
        raise UsageError("registers must carry the per-copy codebook size 'c'")
    c_per_copy = int(inst.registers["c"])
    c_size = c_per_copy**n
    db = states[0].shape[0]
    _check_budget(c_size * db**n)
    # group the string ensemble by codeword
    classes: dict[int, list[tuple[tuple, float, np.ndarray]]] = {c: [] for c in range(c_size)}
    for s, prob, st in _product_ensemble(p, states, n):
        key = _string_key(s)
        if key not in inst.e_table:
            raise UsageError(f"encoding table missing input {key!r}")
        c = _parse_string(inst.e_table[key], c_per_copy, n)
        classes[c].append((s, prob, st))
    p_succ = 0.0
    for c, members in classes.items():
        if not members:
            continue
        if inst.decoder_povms is not None:
            povm = {k: np.asarray(v, dtype=complex) for k, v in inst.decoder_povms[c].items()}
            total = np.sum(list(povm.values()), axis=0)
            if np.max(np.abs(total - np.eye(db**n))) > 1e-8:
                raise UsageError(f"decoder POVM for codeword {c} is incomplete")
            for s, prob, st in members:
                elem = povm.get(_string_key(s))
                if elem is None:
                    continue
                p_succ += prob * float(np.trace(elem @ st).real)
        else:
            decoder = pretty_good_decoder([(prob, st) for _, prob, st in members])
            for (s, prob, st), elem in zip(members, decoder):
                p_succ += prob * float(np.trace(elem @ st).real)
    p_succ = min(max(p_succ, 0.0), 1.0)
    costs = {"m": _log2_int(c_size) / n}
    return ProtocolOutcome(inst.input_state, p_succ, costs)


def run_protocol(inst: ProtocolInstance) -> ProtocolOutcome:
    if inst.kind in (REDISTRIBUTION, MERGING, SPLITTING):
        return run_redistribution(inst)
    if inst.kind == FEEDBACK:
        return run_feedback_redistribution(inst)
    if inst.kind == MEASUREMENT_COMPRESSION:
        return run_measurement_compression(inst)
    if inst.kind == RANDOMNESS_EXTRACTION:
        return run_randomness_extraction(inst)
    if inst.kind == DATA_COMPRESSION:
        return run_data_compression(inst)
    raise UsageError(f"unknown protocol kind {inst.kind!r}")
