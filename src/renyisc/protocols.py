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

The five channel kinds (redistribution, its specializations and feedback,
and measurement compression) run on state vectors: every channel is a
Stinespring isometry and its environment is kept rather than traced out,
so a state is a factor M with rho = M M^dagger.  Mixed states are factors
too (the shared randomness, the measured ideal state), and the merit of
rho = A A^dagger against sigma = B B^dagger is F = ||B^dagger A||_1, which
for a pure target is an overlap norm.  Systems the merit does not use are
folded into the environment.  The n-fold string ensembles are summed one
codeword class at a time from a stacked table of (n-1)-fold prefix
products, and data compression scores the pretty-good decoder from those
sums without forming its POVM (``pretty_good_decoder`` is the reference
construction).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .channels import ChannelSpec, bystander_space, check_povm, measurement_channel
from .errors import BudgetExceededError, DimensionMismatchError, UsageError
from .entropies import conditional_entropy
from .linalg import _kron, fidelity_matrix, fractional_power_matrix, purification_vector, trace_norm
from .spaces import LabeledOperator, SystemSpace, permute_systems

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

# (required, optional) registers of each kind; "forward" and "backward" are
# lists of sizes, every other register is one size
_REGISTERS = {
    **dict.fromkeys((REDISTRIBUTION, MERGING, SPLITTING), (("q",), ("k", "m"))),
    FEEDBACK: (("forward",), ("backward", "k", "m")),
    MEASUREMENT_COMPRESSION: (("l",), ("ma",)),
    RANDOMNESS_EXTRACTION: (("z",), ()),
    DATA_COMPRESSION: (("c",), ()),
}


def _size(value, name: str) -> int:
    try:
        size = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if size < 1:
        raise UsageError(f"{name} must be >= 1, got {size}")
    return size


def _check_register(name: str, value):
    if name not in ("forward", "backward"):
        _size(value, f"register {name!r}")
    elif isinstance(value, (list, tuple)):
        for v in value:
            _size(v, f"register {name!r} entry")
    else:
        raise UsageError(f"register {name!r} must be a list of sizes, got {value!r}")


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
        object.__setattr__(self, "copies", _size(self.copies, "copies"))
        object.__setattr__(self, "encoders", tuple(self.encoders))
        object.__setattr__(self, "decoders", tuple(self.decoders))
        if not isinstance(self.registers, dict):
            raise UsageError(f"registers must map names to sizes, got {self.registers!r}")
        required, optional = _REGISTERS[self.kind]
        for name in required + optional:
            if name in self.registers:
                _check_register(name, self.registers[name])
            elif name in required:
                raise UsageError(f"{self.kind} needs the register {name!r}")
        if self.kind in (RANDOMNESS_EXTRACTION, DATA_COMPRESSION):
            self._check_tables()

    def _check_tables(self):
        if not isinstance(self.e_table, dict):
            raise UsageError(f"{self.kind} needs an e_table from input strings to codewords, "
                             f"got {self.e_table!r}")
        if self.kind != DATA_COMPRESSION or self.decoder_povms is None:
            return
        per_copy = int(self.registers["c"])
        codes = _codes(self.e_table, self.input_state.space.dims[0], per_copy, self.copies)
        missing = sorted(set(codes.tolist()) - set(self.decoder_povms))
        if missing:
            raise UsageError(f"decoder_povms has no POVM for codeword {missing[0]}")


@dataclass(frozen=True)
class ProtocolOutcome:
    final_state: LabeledOperator
    merit: float
    costs: dict


def _check_budget(dim: int):
    if dim > DIM_BUDGET:
        raise BudgetExceededError(f"composite dimension {dim} exceeds budget {DIM_BUDGET}")


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


def _parse_string(val, alphabet: int, n: int) -> int:
    """Index of an n-symbol digit string over the given alphabet."""
    if isinstance(val, int):
        if not 0 <= val < alphabet**n:
            raise UsageError(f"table value {val} out of range")
        return val
    digits = [int(ch) for ch in val] if val.isascii() and val.isdigit() else []
    if len(digits) != n or any(d >= max(alphabet, 1) for d in digits):
        raise UsageError(f"table value {val!r} is not an n-symbol string")
    idx = 0
    for d in digits:
        idx = idx * alphabet + d
    return idx


def _string_probs(p: np.ndarray, n: int) -> np.ndarray:
    """p_{s_1} ... p_{s_n} of every n-symbol string, in lexicographic order."""
    probs = np.ones(1)
    for _ in range(n):
        probs = np.multiply.outer(probs, p).reshape(-1)
    return probs


def _prefix_products(states: list[np.ndarray], n: int) -> np.ndarray:
    """rho_{s_1} (x) ... (x) rho_{s_{n-1}} of every (n-1)-symbol prefix, stacked.

    A (|X|^{n-1}, d^{n-1}, d^{n-1}) array in lexicographic order, so string
    ``i`` of n symbols over |X| letters has the state
    ``table[i // |X|] (x) states[i % |X|]``.
    """
    stack = np.asarray(states, dtype=complex)
    table = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n - 1):
        dim = table.shape[1] * stack.shape[1]
        table = (table[:, None, :, None, :, None] * stack[None, :, None, :, None, :]).reshape(
            -1, dim, dim
        )
    return table


def _codeword(table: dict, key: str):
    if key not in table:
        raise UsageError(f"encoding table missing input {key!r}")
    val = table[key]
    if not isinstance(val, (int, str)):
        raise UsageError(f"table value {val!r} is not an n-symbol string")
    return val


def _codes(table: dict, alphabet: int, per_copy: int, n: int) -> np.ndarray:
    """The codeword index of every n-symbol string, in lexicographic order."""
    digits = [str(c) for c in range(alphabet)]
    values = [_codeword(table, "".join(s)) for s in itertools.product(digits, repeat=n)]
    # each distinct value once, in first-seen order (the first bad one is reported)
    parsed = {v: _parse_string(v, per_copy, n) for v in dict.fromkeys(values)}
    return np.array([parsed[v] for v in values], dtype=np.intp)


def _classes(codes: np.ndarray) -> list[np.ndarray]:
    """The strings of each codeword that occurs, ascending by codeword.

    Each class lists its strings in lexicographic order (a stable sort).
    """
    order = np.argsort(codes, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(codes[order])) + 1)


def _by_last_letter(members: np.ndarray, alphabet: int):
    """(letter, the members ending in it) for every letter that occurs."""
    for b in range(alphabet):
        sel = members[members % alphabet == b]
        if sel.size:
            yield b, sel


def _class_sum(members, probs, prefixes, states) -> np.ndarray:
    """sum over the member strings i of probs[i] A_i (x) B_i.

    A_i is the prefix product of string i and B_i the state of its last
    letter; the members that share a last letter are summed on the prefix
    factor first, so this is one tensordot and one ``_kron`` per letter.
    """
    x = len(states)
    total = 0
    for b, sel in _by_last_letter(members, x):
        total = total + _kron(np.tensordot(probs[sel], prefixes[sel // x], axes=1), states[b])
    return total


# ---------------------------------------------------------------------------
# state vectors for the channel protocols


def _snap(f: float) -> float:
    f = min(max(f, 0.0), 1.0)
    # a perfect protocol must score exactly 1; absorb rounding noise
    return 1.0 if f > 1.0 - 1e-12 else f


@dataclass(frozen=True)
class _PureState:
    """|Psi> as a (system x environment) matrix ``m``; rho_system = m m^dagger.

    ``space`` labels the rows.  The environments of the channels applied so
    far share the one unlabeled column index, so a later channel can neither
    take one as input nor clash with its label.
    """

    space: SystemSpace
    m: np.ndarray

    def tensor(self, other: "_PureState") -> "_PureState":
        return _PureState(self.space.tensor(other.space), np.kron(self.m, other.m))

    def rename(self, mapping: dict) -> "_PureState":
        return _PureState(self.space.rename(mapping), self.m)

    def rows(self, order) -> np.ndarray:
        """``m`` with its rows in the system order ``order``."""
        space = self.space
        perm = [space.position(l) for l in order] + [len(space.dims)]
        return self.m.reshape(space.dims + (-1,)).transpose(perm).reshape(self.m.shape)

    def keep(self, labels) -> "_PureState":
        """The same |Psi> with every system outside ``labels`` moved into the environment."""
        kept = self.space.restrict(labels)
        gone = [l for l in self.space.labels if not kept.has(l)]
        return _PureState(kept, _fold(self.rows(kept.labels + tuple(gone)).reshape(kept.dim, -1)))

    def density(self) -> LabeledOperator:
        return LabeledOperator.square(self.space, self.m @ self.m.conj().T)


def _merit(state: _PureState, target: _PureState) -> float:
    """F(rho, sigma) = ||B^dagger A||_1 for rho = A A^dagger, sigma = B B^dagger.

    The rows of A are put in the label order of B first.  For a pure
    target (one column b) this is the overlap norm ||b^dagger A||.
    """
    labels = target.space.labels
    if set(state.space.labels) != set(labels):
        raise UsageError(f"final labels {state.space.labels} do not match target {labels}")
    if state.space.reorder(labels) != target.space:
        raise DimensionMismatchError("final and target dimensions differ")
    return _snap(trace_norm(target.m.conj().T @ state.rows(labels)))


def _purified(rho: LabeledOperator, extra: int) -> _PureState:
    """Canonical purification of ``rho`` on reference R (as ``linalg.purify``).

    The budget check on dim * rank * ``extra`` (the dimension once the
    ``extra`` registers are added) runs before the vector is built.
    """
    psi = purification_vector(rho.matrix)
    _check_budget(psi.size * extra)
    space = rho.space.tensor(SystemSpace.of(("R", psi.shape[1])))
    return _PureState(space, psi.reshape(-1, 1))


def _mes(rank: int, label_a: str, label_b: str) -> _PureState:
    """Rank-``rank`` maximally entangled vector on two fresh systems."""
    space = SystemSpace.of((label_a, rank), (label_b, rank))
    return _PureState(space, np.eye(rank, dtype=complex).reshape(-1, 1) / math.sqrt(rank))


def _fold(m: np.ndarray) -> np.ndarray:
    """An environment of at most the system dimension with the same m m^dagger.

    For m^dagger = QR, m m^dagger = R^dagger R, so R^dagger replaces m.
    """
    if m.shape[1] <= m.shape[0]:
        return m
    return np.linalg.qr(m.conj().T, mode="r").conj().T


def _apply_isometry(ch: ChannelSpec, state: _PureState) -> _PureState:
    """(V (x) I)|Psi> for the channel's Stinespring isometry V.

    The channel's environment joins the column index, which is folded once
    it outgrows the system.  The budget is checked on the new system
    dimension before anything is computed.
    """
    space, v = state.space, ch.isometry
    ins = list(ch.input_labels)
    rest = bystander_space(ch, space)
    outs = v.space_out.subsystems
    keep = [i for i, (l, _) in enumerate(outs) if l not in ch.environment_labels]
    env = [i for i, (l, _) in enumerate(outs) if l in ch.environment_labels]
    new_space = SystemSpace(rest.subsystems + tuple(outs[i] for i in keep))
    _check_budget(new_space.dim)
    nr, e = len(rest.dims), state.m.shape[1]
    perm = [space.position(l) for l in rest.labels + tuple(ins)]
    t = state.m.reshape(space.dims + (e,)).transpose(perm[:nr] + [len(space.dims)] + perm[nr:])
    t = t.reshape(rest.dim * e, v.space_in.dim) @ v.matrix.T
    t = t.reshape(rest.dims + (e,) + v.space_out.dims)
    t = t.transpose(list(range(nr)) + [nr + 1 + i for i in keep] + [nr] + [nr + 1 + i for i in env])
    return _PureState(new_space, _fold(t.reshape(new_space.dim, -1)))


def _run_channels(state: _PureState, steps) -> _PureState:
    """``state`` after ``steps``: (channel, allowed inputs or None) in order."""
    for ch, allowed in steps:
        inputs = set(ch.input_labels)
        if allowed is not None and not inputs <= allowed:
            raise UsageError(f"channel inputs {sorted(inputs)} outside allowed {sorted(allowed)}")
        state = _apply_isometry(ch, state)
    return state


def _run_isometric(rho: LabeledOperator, k: int, m: int, steps):
    """(final state, merit) of ``steps`` on |psi>|Phi_k>, against psi (x) Phi_m."""
    psi = _purified(rho, k * k)
    state = _run_channels(psi.tensor(_mes(k, "TA", "TB")), steps)
    target = psi.rename({"A": "Ap", "B": "Bp", "C": "Cp"}).tensor(_mes(m, "TAp", "TBp"))
    return state.density(), _merit(state, target)


# ---------------------------------------------------------------------------
# state redistribution and specializations


def run_redistribution(inst: ProtocolInstance) -> ProtocolOutcome:
    if inst.kind not in (REDISTRIBUTION, MERGING, SPLITTING):
        raise UsageError(f"expected a redistribution-like instance, got {inst.kind!r}")
    regs = inst.registers
    k, m, q = int(regs.get("k", 1)), int(regs.get("m", 1)), int(regs["q"])
    steps = [(ch, {"A", "C", "TA"}) for ch in inst.encoders]
    steps += [(ch, {"Q", "B", "TB"}) for ch in inst.decoders]
    final, merit = _run_isometric(inst.input_state, k, m, steps)
    n = inst.copies
    costs = {"q": _log2_int(q) / n, "e": (_log2_int(k) - _log2_int(m)) / n}
    if inst.kind == MERGING:
        costs["q_csm"] = costs["q"]
        costs["e_csm"] = -costs["e"]
    if inst.kind == SPLITTING:
        costs["q_qss"] = costs["q"]
        costs["e_qss"] = costs["e"]
    return ProtocolOutcome(final, merit, costs)


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
    steps = [(ch, None) for pair in zip(inst.encoders, inst.decoders) for ch in pair]
    final, merit = _run_isometric(inst.input_state, k, m, steps)
    n = inst.copies
    q_fw = sum(_log2_int(x) for x in forward) / n
    q_tot = q_fw + sum(_log2_int(x) for x in backward) / n
    costs = {
        "q_fw": q_fw,
        "q_tot": q_tot,
        "e": (_log2_int(k) - _log2_int(m)) / n,
    }
    return ProtocolOutcome(final, merit, costs)


# ---------------------------------------------------------------------------
# measurement compression with quantum side information


def _shared_randomness(size: int) -> _PureState:
    """sum_i |ii><ii| / size on (MA, MB); the environment column holds a third copy of i."""
    m = np.zeros((size * size, size), dtype=complex)
    m[np.arange(size) * (size + 1), np.arange(size)] = 1.0 / math.sqrt(size)
    return _PureState(SystemSpace.of(("MA", size), ("MB", size)), m)


def uniform_shared_randomness(size: int) -> LabeledOperator:
    return _shared_randomness(size).density()


def _measured(psi: _PureState, povm) -> _PureState:
    """The measurement channel on A of the purified input ``psi``."""
    ch = measurement_channel(povm, psi.space.restrict({"A"}), "X", "Xp", "Em")
    return _apply_isometry(ch, psi)


def ideal_measurement_state(rho_ab: LabeledOperator, povm) -> LabeledOperator:
    """Apply the measurement channel to A of the purified input."""
    return _measured(_purified(rho_ab, 1), povm).density()


def run_measurement_compression(inst: ProtocolInstance) -> ProtocolOutcome:
    if inst.kind != MEASUREMENT_COMPRESSION:
        raise UsageError(f"expected a measurement-compression instance, got {inst.kind!r}")
    if inst.povm is None:
        raise UsageError("measurement compression needs a POVM")
    regs = inst.registers
    l_size, ma_size = int(regs["l"]), int(regs.get("ma", 1))
    psi = _purified(inst.input_state, ma_size * ma_size)
    ideal = _measured(psi, [np.asarray(e, dtype=complex) for e in inst.povm])
    steps = [(ch, {"A", "MA"}) for ch in inst.encoders]
    steps += [(ch, {"L", "B", "MB"}) for ch in inst.decoders]
    state = _run_channels(psi.tensor(_shared_randomness(ma_size)), steps)
    state = state.keep({"R", "Xb", "Xh", "Bp"}).rename({"Xb": "X", "Xh": "Xp", "Bp": "B"})
    final, merit = state.density(), _merit(state, ideal)
    n = inst.copies
    costs = {"c": _log2_int(l_size) / n, "r": _log2_int(ma_size) / n}
    return ProtocolOutcome(final, merit, costs)


# ---------------------------------------------------------------------------
# randomness extraction


def _cq_blocks_from_table(p, states, e_table, n, z_per_copy, z_size):
    """Blocks W_z = sum over e(x)=z of p_x rho_B^x for n-fold strings."""
    codes = _codes(e_table, len(p), z_per_copy, n)
    if np.unique(codes).size < z_size:
        raise UsageError("encoding table is not surjective onto the output alphabet")
    prefixes, probs = _prefix_products(states, n), _string_probs(p, n)
    return [_class_sum(members, probs, prefixes, states) for members in _classes(codes)]


def _block_fidelity(blocks, sigma: np.ndarray) -> float:
    """F(omega_ZB, pi_Z (x) sigma) for block-diagonal omega."""
    return sum(fidelity_matrix(w, sigma) for w in blocks) / math.sqrt(len(blocks))


def run_randomness_extraction(inst: ProtocolInstance) -> ProtocolOutcome:
    if inst.kind != RANDOMNESS_EXTRACTION:
        raise UsageError(f"expected a randomness-extraction instance, got {inst.kind!r}")
    p, states = cq_components(inst.input_state)
    n = inst.copies
    z_per_copy = int(inst.registers["z"])
    z_size = z_per_copy**n
    db = states[0].shape[0]
    _check_budget(z_size * db**n)
    blocks = _cq_blocks_from_table(p, states, inst.e_table, n, z_per_copy, z_size)
    space = SystemSpace.of(("Z", z_size), ("Bn", db**n))
    final = LabeledOperator.square(space, block_diag(*blocks))
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


def _pgm_success(members, probs, prefixes, states) -> float:
    """sum_i w_i tr(Lambda_i rho_i) of the pretty-good decoder of one class.

    Lambda_i = R w_i rho_i R with R = avg^{-1/2} on the support of the class
    average, so the sum is sum_i w_i^2 tr((R rho_i)^2).  The kernel projector
    I - R avg R that ``pretty_good_decoder`` adds to the first element scores
    nothing: for a kernel vector v, w_i <v|rho_i|v> <= <v|avg|v>, which is 0
    (or below ``CLIP_REL`` times the top eigenvalue where the spectrum was
    clipped).  No Lambda_i is formed: with rho_i = A_i (x) B (prefix product, last letter),
    R rho_i = R (I (x) B) (A_i (x) I), whose blocks over the last copy are
    [R (I (x) B)]_be A_i, one batched product for all members ending in B.
    """
    x, d, dp = len(states), states[0].shape[0], prefixes.shape[1]
    r = fractional_power_matrix(_class_sum(members, probs, prefixes, states), -0.5)
    total = 0.0
    for b, sel in _by_last_letter(members, x):
        # rows (b, e, a) and columns a' of [R (I (x) B)][(a, b), (a', e)]
        rb = (r.reshape(-1, d) @ states[b]).reshape(dp, d, dp, d).transpose(1, 3, 0, 2)
        y = np.matmul(rb.reshape(d * d * dp, dp), prefixes[sel // x]).reshape(-1, d, d, dp, dp)
        total += float(probs[sel] ** 2 @ np.einsum("kbeay,kebya->k", y, y).real)
    return total


def run_data_compression(inst: ProtocolInstance) -> ProtocolOutcome:
    if inst.kind != DATA_COMPRESSION:
        raise UsageError(f"expected a data-compression instance, got {inst.kind!r}")
    p, states = cq_components(inst.input_state)
    n = inst.copies
    c_per_copy = int(inst.registers["c"])
    c_size = c_per_copy**n
    db = states[0].shape[0]
    _check_budget(c_size * db**n)
    x = len(p)
    codes = _codes(inst.e_table, x, c_per_copy, n)
    prefixes, probs = _prefix_products(states, n), _string_probs(p, n)
    p_succ = 0.0
    for members in _classes(codes):
        if inst.decoder_povms is None:
            p_succ += _pgm_success(members, probs, prefixes, states)
            continue
        c = int(codes[members[0]])
        povm = {k: np.asarray(v, dtype=complex) for k, v in inst.decoder_povms[c].items()}
        check_povm(list(povm.values()), db**n, f"decoder POVM for codeword {c} is incomplete")
        for i in members:
            elem = povm.get("".join(map(str, np.unravel_index(i, (x,) * n))))
            if elem is not None:
                st = _kron(prefixes[i // x], states[i % x])
                # tr(elem st) without the matrix product
                p_succ += probs[i] * float(np.sum(elem * st.T).real)
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
