"""Seeded inputs of the three workloads.

Everything here is built from the benchmark's own random draws and from
public renyisc names (data types, `specialize`, `run_protocol`,
`ideal_measurement_state`), so the program under test only ever sees the
finished states, channels and instance files.  The same seed gives the same
inputs; the structure (dimensions, ranks, copies, register sizes) is fixed
and only the numbers change with the seed.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

import renyisc
from renyisc import io as rio

# workload ids mixed into every seed so the workloads draw unrelated inputs
_STREAMS = {"curves": 1, "spectral": 2, "simulate": 3}


def rng_for(workload: str, seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAMS[workload], int(tag)])


# ---------------------------------------------------------------------------
# random objects, drawn without the program's own ensembles


def ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def state_matrix(rng, dim, rank=None):
    g = ginibre(rng, dim, dim if rank is None else rank)
    m = g @ g.conj().T
    return m / np.trace(m).real


def haar_isometry(rng, dim_out, dim_in):
    q, r = np.linalg.qr(ginibre(rng, dim_out, dim_in))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def labeled_state(rng, subsystems, rank=None):
    space = renyisc.SystemSpace(tuple(subsystems))
    return renyisc.LabeledOperator.square(space, state_matrix(rng, space.dim, rank))


def cq_state(rng, x_dim, b_dim, classical=False):
    """sum_x p_x |x><x| (x) rho_x on (X, B); diagonal rho_x when ``classical``."""
    p = rng.dirichlet(np.ones(x_dim))
    m = np.zeros((x_dim * b_dim,) * 2, dtype=complex)
    for x in range(x_dim):
        if classical:
            block = np.diag(rng.dirichlet(np.ones(b_dim))).astype(complex)
        else:
            block = state_matrix(rng, b_dim)
        m[x * b_dim:(x + 1) * b_dim, x * b_dim:(x + 1) * b_dim] = p[x] * block
    space = renyisc.SystemSpace.of(("X", x_dim), ("B", b_dim))
    return renyisc.LabeledOperator.square(space, m)


def isometric_channel(rng, inputs, outputs, env_label):
    """Haar Stinespring isometry with the smallest power-of-two environment."""
    space_in = renyisc.SystemSpace(tuple(inputs))
    env = 2
    while renyisc.SystemSpace(tuple(outputs)).dim * env < space_in.dim:
        env *= 2
    space_out = renyisc.SystemSpace(tuple(outputs) + ((env_label, env),))
    v = haar_isometry(rng, space_out.dim, space_in.dim)
    return renyisc.ChannelSpec(renyisc.LabeledOperator(space_out, space_in, v),
                               frozenset({env_label}))


def povm(rng, dim, outcomes):
    v = haar_isometry(rng, dim * outcomes, dim)
    return [v[i::outcomes, :].conj().T @ v[i::outcomes, :] for i in range(outcomes)]


# ---------------------------------------------------------------------------
# protocol instances


def redistribution_instance(rng, dims, rank, k, q):
    d_a, d_b, d_c = dims
    rho = labeled_state(rng, (("A", d_a), ("B", d_b), ("C", d_c)), rank)
    enc = isometric_channel(rng, (("A", d_a), ("C", d_c), ("TA", k)),
                            (("Cp", d_c), ("TAp", 1), ("Q", q)), "E1")
    dec = isometric_channel(rng, (("Q", q), ("B", d_b), ("TB", k)),
                            (("TBp", 1), ("Ap", d_a), ("Bp", d_b)), "E2")
    inst = renyisc.ProtocolInstance("redistribution", rho, registers={"k": k, "m": 1, "q": q},
                                    encoders=[enc], decoders=[dec])
    return inst, rho


def feedback_instance(rng, dims, rank, forward, backward):
    """Two-round feedback: E_0, D_0 (with a back message), E_1, D_1."""
    d_a, d_b, d_c = dims
    rho = labeled_state(rng, (("A", d_a), ("B", d_b), ("C", d_c)), rank)
    q0, q1 = forward
    (qb,) = backward
    enc0 = isometric_channel(rng, (("A", d_a), ("C", d_c), ("TA", 1)),
                             (("A0", d_a), ("C0", d_c), ("Q0", q0)), "Ea0")
    dec0 = isometric_channel(rng, (("B", d_b), ("TB", 1), ("Q0", q0)),
                             (("B0", d_b), ("Qb0", qb)), "Eb0")
    enc1 = isometric_channel(rng, (("A0", d_a), ("C0", d_c), ("Qb0", qb)),
                             (("Cp", d_c), ("TAp", 1), ("Q1", q1)), "Ea1")
    dec1 = isometric_channel(rng, (("B0", d_b), ("Q1", q1)),
                             (("TBp", 1), ("Ap", d_a), ("Bp", d_b)), "Eb1")
    inst = renyisc.ProtocolInstance(
        "redistribution-feedback", rho,
        registers={"forward": list(forward), "backward": list(backward), "k": 1, "m": 1},
        encoders=[enc0, enc1], decoders=[dec0, dec1])
    return inst, rho


def merging_instance(rng, d_a, d_b, rank, q, m):
    rho = labeled_state(rng, (("A", d_a), ("B", d_b)), rank)
    enc = isometric_channel(rng, (("A", d_a), ("C", 1), ("TA", 1)),
                            (("Cp", 1), ("TAp", m), ("Q", q)), "E1")
    dec = isometric_channel(rng, (("Q", q), ("B", d_b), ("TB", 1)),
                            (("TBp", m), ("Ap", d_a), ("Bp", d_b)), "E2")
    inst = renyisc.specialize("coherent-merging", rho, {"k": 1, "m": m, "q": q},
                              encoders=[enc], decoders=[dec])
    return inst, rho


def splitting_instance(rng, d_a, d_c, rank, q, k):
    rho = labeled_state(rng, (("A", d_a), ("C", d_c)), rank)
    enc = isometric_channel(rng, (("A", d_a), ("C", d_c), ("TA", k)),
                            (("Cp", d_c), ("TAp", 1), ("Q", q)), "E1")
    dec = isometric_channel(rng, (("Q", q), ("B", 1), ("TB", k)),
                            (("TBp", 1), ("Ap", d_a), ("Bp", 1)), "E2")
    inst = renyisc.specialize("state-splitting", rho, {"k": k, "m": 1, "q": q},
                              encoders=[enc], decoders=[dec])
    return inst, rho


def measurement_compression_instance(rng, d_a, d_b, rank, outcomes, l_size):
    """Measure a random POVM on A, send a lossy copy of the outcome through L."""
    rho = labeled_state(rng, (("A", d_a), ("B", d_b)), rank)
    elems = povm(rng, d_a, outcomes)
    enc_in = renyisc.SystemSpace.of(("A", d_a), ("MA", 1))
    enc_out = renyisc.SystemSpace.of(("Xb", outcomes), ("L", l_size))
    kraus = []
    for x, e in enumerate(elems):
        vals, vecs = np.linalg.eigh(e)
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        for j in range(d_a):
            kr = np.zeros((enc_out.dim, enc_in.dim), dtype=complex)
            kr[x * l_size + min(x, l_size - 1), :] = root[j, :]
            kraus.append(kr)
    enc = renyisc.channel_from_kraus(enc_in, enc_out, kraus, "E1")
    dec_in = renyisc.SystemSpace.of(("L", l_size), ("B", d_b), ("MB", 1))
    dec_out = renyisc.SystemSpace.of(("Xh", outcomes), ("Bp", d_b))
    kraus_d = []
    for l_val in range(l_size):
        kr = np.zeros((dec_out.dim, dec_in.dim), dtype=complex)
        for bi in range(d_b):
            kr[min(l_val, outcomes - 1) * d_b + bi, l_val * d_b + bi] = 1.0
        kraus_d.append(kr)
    dec = renyisc.channel_from_kraus(dec_in, dec_out, kraus_d, "E2")
    inst = renyisc.ProtocolInstance(
        "measurement-compression", rho, registers={"l": l_size, "ma": 1},
        encoders=[enc], decoders=[dec], povm=tuple(elems))
    ideal = renyisc.ideal_measurement_state(rho, elems)
    return inst, renyisc.partial_trace(ideal, {"R", "X", "Xp", "B"})


def _surjective_table(rng, alphabet, n, out_per_copy):
    """Random n-symbol encoding table that hits every output string."""
    inputs = ["".join(map(str, s)) for s in itertools.product(range(alphabet), repeat=n)]
    outputs = ["".join(map(str, s)) for s in itertools.product(range(out_per_copy), repeat=n)]
    order = rng.permutation(len(inputs))
    table = {}
    for i, idx in enumerate(order):
        table[inputs[idx]] = outputs[i % len(outputs)]
    return table


def extraction_instance(rng, x_dim, b_dim, copies, z):
    cq = cq_state(rng, x_dim, b_dim)
    table = _surjective_table(rng, x_dim, copies, z)
    inst = renyisc.ProtocolInstance("randomness-extraction", cq, copies=copies,
                                    registers={"z": z}, e_table=table)
    return inst, cq


def compression_instance(rng, x_dim, b_dim, copies, c, classical=False):
    cq = cq_state(rng, x_dim, b_dim, classical=classical)
    table = _surjective_table(rng, x_dim, copies, c)
    inst = renyisc.ProtocolInstance("data-compression", cq, copies=copies,
                                    registers={"c": c}, e_table=table)
    return inst, cq


# ---------------------------------------------------------------------------
# workload inputs


@dataclass(frozen=True)
class CurveInput:
    """One `exponent_curve` op, with the protocol run that made its rates."""

    kind: str
    state: object
    rates: dict
    copies: int
    merit: float
    classical: bool


def curves_inputs(seed: int) -> list[CurveInput]:
    """Seven small curves, one per protocol kind.

    The quantum inputs are rank-deficient (rank 2: marginals of a pure state
    with a two-level purifier), so every purification the bounds take is
    small; extraction gets a full-rank c-q state and data compression a fully
    classical one.  Rates are the costs of a seeded instance of the same
    kind, and its merit is kept for the soundness check.
    """
    builders = [
        lambda r: redistribution_instance(r, (2, 2, 2), 2, k=2, q=2),
        lambda r: feedback_instance(r, (2, 2, 2), 2, forward=(2, 2), backward=(2,)),
        lambda r: merging_instance(r, 2, 2, 2, q=2, m=2),
        lambda r: splitting_instance(r, 2, 2, 2, q=2, k=2),
        lambda r: measurement_compression_instance(r, 2, 2, 2, outcomes=2, l_size=1),
        lambda r: extraction_instance(r, 2, 2, copies=1, z=2),
        lambda r: compression_instance(r, 3, 2, copies=1, c=2, classical=True),
    ]
    out = []
    for tag, build in enumerate(builders):
        inst, state = build(rng_for("curves", seed, tag))
        outcome = renyisc.run_protocol(inst)
        out.append(CurveInput(inst.kind, state, dict(outcome.costs), inst.copies,
                              outcome.merit, tag == len(builders) - 1))
    return out


# the suites of `renyisc.harness` that need no optimizer (CLOSED_FORM_TOL),
# with the two sizes of acceptance criterion 1: (default dims, trials) and
# (enlarged dims, trials)
SPECTRAL_SUITES = {
    "holder": ((4,), (36,)),
    "mccarthy": ((4,), (36,)),
    "divergence-monotonicity": ((3,), (36,)),
    "entropy-bounds": ((4,), (36,)),
    "additivity": ((2, 3), (6, 6)),
    "isometric-invariance": ((3,), (36,)),
    "entropy-duality": ((3, 4), (6, 6)),
    "subadditivity": ((2, 3), (6, 6)),
    "fidelity-product": ((2, 3), (6, 6)),
}
SPECTRAL_TRIALS = {"default": 150, "large": 50}


@dataclass(frozen=True)
class SuiteInput:
    suite: str
    size: str  # "default" or "large"
    dims: tuple
    trials: int
    seed: int


def spectral_inputs(seed: int) -> list[SuiteInput]:
    rng = rng_for("spectral", seed, 0)
    out = []
    for suite, (default, large) in SPECTRAL_SUITES.items():
        for size, dims in (("default", default), ("large", large)):
            out.append(SuiteInput(suite, size, dims, SPECTRAL_TRIALS[size],
                                  int(rng.integers(0, 2**31))))
    return out


@dataclass(frozen=True)
class SimInput:
    name: str
    path: str
    instance: object  # the ProtocolInstance written to ``path``
    bound_state: object


SIMULATE_BUILDERS = {
    "redistribution-333": lambda r: redistribution_instance(r, (3, 3, 3), None, k=2, q=2),
    "feedback-2round": lambda r: feedback_instance(r, (2, 2, 2), None, forward=(2, 2),
                                                   backward=(2,)),
    "merging": lambda r: merging_instance(r, 2, 3, None, q=2, m=2),
    "splitting": lambda r: splitting_instance(r, 3, 2, None, q=2, k=2),
    "measurement-compression": lambda r: measurement_compression_instance(
        r, 3, 2, None, outcomes=3, l_size=2),
    "extraction-n3": lambda r: extraction_instance(r, 4, 2, copies=3, z=2),
    "compression-n6": lambda r: compression_instance(r, 4, 2, copies=6, c=2),
}


def simulate_inputs(seed: int, directory: str) -> list[SimInput]:
    """Write one instance file per simulate op into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    out = []
    for tag, (name, build) in enumerate(SIMULATE_BUILDERS.items()):
        inst, state = build(rng_for("simulate", seed, tag))
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as f:
            f.write(rio.dump_json(rio.instance_to_dict(inst)))
        out.append(SimInput(name, path, inst, state))
    return out
