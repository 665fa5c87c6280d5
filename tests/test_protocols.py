import dataclasses
import itertools
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

from renyisc.channels import ChannelSpec, apply_channels, identity_channel
from renyisc.entropies import conditional_entropy
from renyisc.errors import BudgetExceededError, ConvergenceError, UsageError
from renyisc.harness import (
    _merging_instance,
    _random_channel,
    _random_measurement_compression,
    _random_redistribution_instance,
    _splitting_instance,
    random_feedback_instance,
)
from renyisc.linalg import fidelity, purify
from renyisc.protocols import (
    DATA_COMPRESSION,
    FEEDBACK,
    MEASUREMENT_COMPRESSION,
    MERGING,
    RANDOMNESS_EXTRACTION,
    REDISTRIBUTION,
    SPLITTING,
    ProtocolInstance,
    _cq_blocks_from_table,
    cq_components,
    ideal_measurement_state,
    pretty_good_decoder,
    run_data_compression,
    run_feedback_redistribution,
    run_measurement_compression,
    run_protocol,
    run_randomness_extraction,
    run_redistribution,
    specialize,
)
from renyisc.random_ensembles import (
    generator,
    random_classical_state,
    random_cq_state,
    random_state,
    random_state_matrix,
)
from renyisc.spaces import (
    LabeledOperator,
    SystemSpace,
    maximally_entangled,
    partial_trace,
    permute_systems,
)


def _identity_redistribution(seed=0, q=2):
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2), ("C", 2)), seed=seed)
    enc = identity_channel(
        SystemSpace.of(("A", 2), ("C", 2), ("TA", 1)),
        rename={"A": "Q", "C": "Cp", "TA": "TAp"},
    )
    dec = identity_channel(
        SystemSpace.of(("Q", 2), ("B", 2), ("TB", 1)),
        rename={"Q": "Ap", "B": "Bp", "TB": "TBp"},
    )
    return ProtocolInstance(
        REDISTRIBUTION, rho, registers={"k": 1, "m": 1, "q": q}, encoders=[enc], decoders=[dec]
    )


def test_identity_redistribution_perfect():
    out = run_redistribution(_identity_redistribution())
    assert out.merit == 1.0
    assert out.costs == {"q": 1.0, "e": 0.0}


def test_redistribution_merit_drops_under_noise():
    from renyisc.random_ensembles import haar_isometry_matrix

    inst = _identity_redistribution(seed=1)
    rng = generator(2)
    noisy_dec = ChannelSpec(
        LabeledOperator(
            SystemSpace.of(("TBp", 1), ("Ap", 2), ("Bp", 2), ("E", 2)),
            SystemSpace.of(("Q", 2), ("B", 2), ("TB", 1)),
            haar_isometry_matrix(rng, 8, 4),
        ),
        frozenset({"E"}),
    )
    noisy = ProtocolInstance(
        REDISTRIBUTION,
        inst.input_state,
        registers=inst.registers,
        encoders=inst.encoders,
        decoders=[noisy_dec],
    )
    assert run_redistribution(noisy).merit < 1.0


ISOMETRIC_KINDS = (REDISTRIBUTION, FEEDBACK, MERGING, SPLITTING)


def _dense_target(inst):
    """psi (x) Phi_m on the primed labels, from the public purify."""
    psi = purify(inst.input_state, "R").rename({"A": "Ap", "B": "Bp", "C": "Cp"})
    return psi.tensor(maximally_entangled(int(inst.registers.get("m", 1)), "TAp", "TBp"))


def _channel_order(inst):
    if inst.kind == FEEDBACK:
        return [ch for pair in zip(inst.encoders, inst.decoders) for ch in pair]
    return list(inst.encoders) + list(inst.decoders)


def _dense_merit(inst):
    """The merit on density matrices through the public apply_channels."""
    k = int(inst.registers.get("k", 1))
    start = purify(inst.input_state, "R").tensor(maximally_entangled(k, "TA", "TB"))
    final = apply_channels(_channel_order(inst), start)
    target = _dense_target(inst)
    return fidelity(permute_systems(final, list(target.space.labels)), target)


def _random_isometric_instance(kind, seed):
    rng = generator(seed)
    if kind == REDISTRIBUTION:
        return _random_redistribution_instance(rng)
    if kind == FEEDBACK:
        return random_feedback_instance(rng, rounds=2)
    if kind == MERGING:
        rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=seed)
        return _merging_instance(rng, rho, q=2, m=2)
    rho = random_state(SystemSpace.of(("A", 2), ("C", 2)), seed=seed)
    return _splitting_instance(rng, rho, q=2, k=2)


def _shared_env(inst):
    """The same instance with every channel's environment labeled "E"."""

    def relabel(ch):
        (env,) = ch.environment_labels
        return ChannelSpec(ch.isometry.rename({env: "E"}), frozenset({"E"}))

    return dataclasses.replace(
        inst,
        encoders=[relabel(ch) for ch in inst.encoders],
        decoders=[relabel(ch) for ch in inst.decoders],
    )


# each channel's own environment label (as the harness draws them), or "E" for
# all of them (as channel_from_kraus names it); the shared-label ids carry no prefix
_DENSE_CASES = [
    pytest.param(shared, seed, kind, id=f"{'' if shared else 'own-'}{seed}-{kind}")
    for shared in (True, False)
    for seed in range(3)
    for kind in ISOMETRIC_KINDS
]


@pytest.mark.parametrize("shared, seed, kind", _DENSE_CASES)
def test_shared_environment_label_matches_dense_reference(shared, seed, kind):
    inst = _random_isometric_instance(kind, seed)
    if shared:
        inst = _shared_env(inst)
    out = run_protocol(inst)
    assert 0.0 < out.merit < 1.0
    assert_allclose(out.merit, _dense_merit(inst), atol=1e-12)


def test_feedback_environment_fold_matches_dense_reference(monkeypatch):
    from renyisc import protocols

    inst = random_feedback_instance(generator(5), rounds=4)
    shapes = []
    fold = protocols._fold

    def recording(m):
        shapes.append(m.shape)
        return fold(m)

    monkeypatch.setattr(protocols, "_fold", recording)
    out = run_feedback_redistribution(inst)
    # the kept environments outgrew the system, so some step folded them
    assert any(env > system for system, env in shapes)
    assert_allclose(out.merit, _dense_merit(inst), atol=1e-12)


def test_specialize_merging_pads_c():
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=3)
    inst = specialize(MERGING, rho, {"k": 1, "m": 1, "q": 2})
    assert inst.input_state.space.labels == ("A", "B", "C")
    assert inst.input_state.space.dim_of("C") == 1


def test_specialize_merging_rejects_entanglement_consumption():
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=4)
    with pytest.raises(UsageError):
        specialize(MERGING, rho, {"k": 2, "m": 1, "q": 2})


def test_specialize_splitting_rejects_mes_production():
    rho = random_state(SystemSpace.of(("A", 2), ("C", 2)), seed=5)
    with pytest.raises(UsageError):
        specialize(SPLITTING, rho, {"k": 1, "m": 2, "q": 2})


def test_identity_splitting_perfect():
    rho = random_state(SystemSpace.of(("A", 2), ("C", 2)), seed=6)
    enc = identity_channel(
        SystemSpace.of(("A", 2), ("C", 2), ("TA", 1)),
        rename={"A": "Q", "C": "Cp", "TA": "TAp"},
    )
    dec = identity_channel(
        SystemSpace.of(("Q", 2), ("B", 1), ("TB", 1)),
        rename={"Q": "Ap", "B": "Bp", "TB": "TBp"},
    )
    inst = specialize(SPLITTING, rho, {"k": 1, "m": 1, "q": 2}, encoders=[enc], decoders=[dec])
    out = run_redistribution(inst)
    assert out.merit == 1.0
    assert out.costs["q_qss"] == 1.0


def test_budget_enforced():
    rho = random_state(SystemSpace.of(("A", 8), ("B", 8), ("C", 8)), seed=7)
    inst = ProtocolInstance(REDISTRIBUTION, rho, registers={"k": 8, "m": 1, "q": 8})
    with pytest.raises(BudgetExceededError):
        run_redistribution(inst)


def test_cq_components_round_trip():
    cq = random_cq_state(3, 2, seed=8)
    p, states = cq_components(cq)
    assert_allclose(np.sum(p), 1.0, atol=1e-12)
    for s in states:
        assert_allclose(np.trace(s).real, 1.0, atol=1e-10)


def test_cq_components_rejects_coherent_x():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = LabeledOperator.square(
        SystemSpace.of(("X", 2), ("B", 1)), plus
    )
    with pytest.raises(UsageError):
        cq_components(rho)


def test_ideal_measurement_state_classical_copies():
    from renyisc.random_ensembles import random_povm

    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=9)
    povm = random_povm(2, 2, seed=9)
    ideal = ideal_measurement_state(rho, povm)
    assert set(ideal.space.labels) == {"R", "X", "Xp", "B"}
    # X statistics match the Born rule on rho_A
    rho_a = partial_trace(rho, {"A"}).matrix
    px = np.real(np.diag(partial_trace(ideal, {"X"}).matrix))
    expected = [np.trace(e @ rho_a).real for e in povm]
    assert_allclose(px, expected, atol=1e-10)


def test_randomness_extraction_identity_single_bit():
    # uniform classical bit, no side information, identity extractor
    space = SystemSpace.of(("X", 2), ("B", 1))
    rho = LabeledOperator.square(space, np.eye(2, dtype=complex) / 2)
    inst = ProtocolInstance(
        RANDOMNESS_EXTRACTION, rho, registers={"z": 2}, e_table={"0": "0", "1": "1"}
    )
    out = run_randomness_extraction(inst)
    assert_allclose(out.merit, 1.0, atol=1e-12)
    assert out.costs == {"l": 1.0}


def test_randomness_extraction_biased_bit_closed_form():
    # extracting one bit from a p-biased bit leaves fidelity (sqrt(p)+sqrt(1-p))/sqrt(2)
    p = 0.8
    space = SystemSpace.of(("X", 2), ("B", 1))
    rho = LabeledOperator.square(space, np.diag([p, 1 - p]).astype(complex))
    inst = ProtocolInstance(
        RANDOMNESS_EXTRACTION, rho, registers={"z": 2}, e_table={"0": "0", "1": "1"}
    )
    out = run_randomness_extraction(inst)
    assert_allclose(out.merit, (math.sqrt(p) + math.sqrt(1 - p)) / math.sqrt(2), atol=1e-12)


@pytest.mark.parametrize("d_b", [2, 3])
@pytest.mark.parametrize("z", [2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomness_extraction_merit_classical_closed_form(d_b, z, seed):
    # classical side information: max over sigma of F(omega_ZB, pi_Z (x) sigma) is
    # sqrt(sum_b (sum_z sqrt p(z,b))^2) / sqrt|Z| by Cauchy-Schwarz
    rho = random_classical_state(z, d_b, seed)
    inst = ProtocolInstance(
        RANDOMNESS_EXTRACTION, rho, registers={"z": z}, e_table={str(x): str(x) for x in range(z)}
    )
    p = np.real(np.diag(rho.matrix)).reshape(z, d_b)
    expected = math.sqrt(np.sum(np.sum(np.sqrt(p), axis=0) ** 2)) / math.sqrt(z)
    assert_allclose(run_randomness_extraction(inst).merit, expected, atol=1e-9)


def test_randomness_extraction_table_must_be_surjective():
    space = SystemSpace.of(("X", 2), ("B", 1))
    rho = LabeledOperator.square(space, np.eye(2, dtype=complex) / 2)
    inst = ProtocolInstance(
        RANDOMNESS_EXTRACTION, rho, registers={"z": 2}, e_table={"0": "0", "1": "0"}
    )
    with pytest.raises(UsageError):
        run_randomness_extraction(inst)


def test_randomness_extraction_merit_outside_bracket_is_convergence_error(monkeypatch):
    from renyisc import protocols

    # S~_1/2(Z|B) = 4 bits is impossible for |Z| = 2, so the merit 2^2 / sqrt(2)
    # lies above sqrt(F') <= 1: the optimizer, not the input, is at fault
    monkeypatch.setattr(
        protocols, "conditional_entropy", lambda *args, **kwargs: SimpleNamespace(value=4.0)
    )
    inst = ProtocolInstance(
        RANDOMNESS_EXTRACTION, random_classical_state(2, 2, 0), registers={"z": 2},
        e_table={"0": "0", "1": "1"},
    )
    with pytest.raises(ConvergenceError, match="fidelity bracket") as info:
        run_randomness_extraction(inst)
    assert info.value.best_value == pytest.approx(2 * math.sqrt(2))


def test_data_compression_identity_table_perfect():
    cq = random_cq_state(2, 2, seed=10)
    inst = ProtocolInstance(
        DATA_COMPRESSION, cq, registers={"c": 2}, e_table={"0": "0", "1": "1"}
    )
    out = run_data_compression(inst)
    assert_allclose(out.merit, 1.0, atol=1e-10)
    assert out.costs == {"m": 1.0}


def test_data_compression_single_codeword_helstrom():
    # |C| = 1 forces a guess between the two conditional states; the
    # optimal two-outcome decoder achieves the Helstrom probability
    cq = random_cq_state(2, 2, seed=11)
    p, states = cq_components(cq)
    m = p[0] * states[0] - p[1] * states[1]
    helstrom = 0.5 * (1.0 + float(np.sum(np.abs(np.linalg.eigvalsh(m)))))
    evals, evecs = np.linalg.eigh(m)
    pos = evecs[:, evals > 0] @ evecs[:, evals > 0].conj().T
    povm = {"0": pos, "1": np.eye(2) - pos}
    inst = ProtocolInstance(
        DATA_COMPRESSION,
        cq,
        registers={"c": 1},
        e_table={"0": "0", "1": "0"},
        decoder_povms={0: povm},
    )
    out = run_data_compression(inst)
    assert_allclose(out.merit, helstrom, atol=1e-10)


def test_data_compression_pretty_good_below_helstrom():
    cq = random_cq_state(2, 2, seed=12)
    p, states = cq_components(cq)
    m = p[0] * states[0] - p[1] * states[1]
    helstrom = 0.5 * (1.0 + float(np.sum(np.abs(np.linalg.eigvalsh(m)))))
    inst = ProtocolInstance(
        DATA_COMPRESSION, cq, registers={"c": 1}, e_table={"0": "0", "1": "0"}
    )
    out = run_data_compression(inst)
    assert out.merit <= helstrom + 1e-10


def test_pretty_good_decoder_complete():
    rng = generator(13)
    from renyisc.random_ensembles import random_state_matrix

    ens = [(0.6, random_state_matrix(rng, 3)), (0.4, random_state_matrix(rng, 3))]
    povm = pretty_good_decoder(ens)
    assert_allclose(np.sum(povm, axis=0), np.eye(3), atol=1e-10)
    for e in povm:
        assert np.min(np.linalg.eigvalsh((e + e.conj().T) / 2)) > -1e-10


def test_run_protocol_dispatch():
    out = run_protocol(_identity_redistribution(seed=14))
    assert out.merit == 1.0


def test_unknown_kind_rejected():
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=15)
    with pytest.raises(UsageError):
        ProtocolInstance("teleportation", rho)


def test_measurement_compression_lossless_classical_channel():
    from renyisc.channels import channel_from_kraus
    from renyisc.linalg import fractional_power_matrix
    from renyisc.random_ensembles import random_povm

    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=16)
    povm = random_povm(2, 2, seed=16)
    # encoder measures and transmits the exact outcome through L
    enc_in = SystemSpace.of(("A", 2), ("MA", 1))
    enc_out = SystemSpace.of(("Xb", 2), ("L", 2))
    kraus = []
    for x in range(2):
        root = fractional_power_matrix(povm[x], 0.5)
        for j in range(2):
            k = np.zeros((4, 2), dtype=complex)
            k[x * 2 + x, :] = root[j, :]
            kraus.append(k)
    enc = channel_from_kraus(enc_in, enc_out, kraus, "E1")
    dec_in = SystemSpace.of(("L", 2), ("B", 2), ("MB", 1))
    dec_out = SystemSpace.of(("Xh", 2), ("Bp", 2))
    kraus_d = []
    for l_val in range(2):
        k = np.zeros((4, 4), dtype=complex)
        for bi in range(2):
            k[l_val * 2 + bi, l_val * 2 + bi] = 1.0
        kraus_d.append(k)
    dec = channel_from_kraus(dec_in, dec_out, kraus_d, "E2")
    inst = ProtocolInstance(
        MEASUREMENT_COMPRESSION,
        rho,
        registers={"l": 2, "ma": 1},
        encoders=[enc],
        decoders=[dec],
        povm=tuple(povm),
    )
    out = run_measurement_compression(inst)
    assert out.costs == {"c": 1.0, "r": 0.0}
    # sending the full outcome reproduces the ideal state exactly
    assert out.merit > 1.0 - 1e-8


def _shared_randomness_dense(ma):
    space = SystemSpace.of(("MA", ma), ("MB", ma))
    return LabeledOperator.square(space, np.diag(np.eye(ma).reshape(-1)).astype(complex) / ma)


def _dense_measurement_compression(inst):
    """(ideal, merit) on density matrices through the public apply_channels and fidelity."""
    from renyisc.channels import measurement_channel

    psi = purify(inst.input_state, "R")
    povm = [np.asarray(e, dtype=complex) for e in inst.povm]
    ideal = apply_channels([measurement_channel(povm, psi.space.restrict({"A"}))], psi)
    start = psi.tensor(_shared_randomness_dense(int(inst.registers.get("ma", 1))))
    final = apply_channels(list(inst.encoders) + list(inst.decoders), start)
    final = partial_trace(final, {"R", "Xb", "Xh", "Bp"})
    final = final.rename({"Xb": "X", "Xh": "Xp", "Bp": "B"})
    return ideal, fidelity(permute_systems(final, list(ideal.space.labels)), ideal)


def _random_mc_with_shared_randomness(seed, decoder_inputs):
    """|A| = |B| = 2, 3 outcomes, l = 2, ma = 2, Haar encoder and decoder."""
    from renyisc.random_ensembles import random_povm

    rng = generator(seed)
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2)), seed=seed)
    enc = _random_channel(rng, SystemSpace.of(("A", 2), ("MA", 2)), [("Xb", 3), ("L", 2)], "E1")
    dec_in = SystemSpace(tuple((l, 2) for l in decoder_inputs))
    dec = _random_channel(rng, dec_in, [("Xh", 3), ("Bp", 2)], "E2")
    return ProtocolInstance(
        MEASUREMENT_COMPRESSION, rho, registers={"l": 2, "ma": 2}, encoders=[enc],
        decoders=[dec], povm=tuple(random_povm(2, 3, seed=seed)),
    )


_MC_CASES = {
    **{f"harness-{seed}": (lambda s=seed: _random_measurement_compression(generator(s), s)[0])
       for seed in (0, 3, 4, 7)},
    "shared-randomness": lambda: _random_mc_with_shared_randomness(31, ("L", "B", "MB")),
    "mb-unconsumed": lambda: _random_mc_with_shared_randomness(32, ("L", "B")),
}


@pytest.mark.parametrize("case", list(_MC_CASES))
def test_measurement_compression_matches_dense_reference(case, monkeypatch):
    from renyisc import protocols

    inst = _MC_CASES[case]()
    kept = []
    keep = protocols._PureState.keep

    def recording(self, labels):
        kept.append(set(self.space.labels) - set(labels))
        return keep(self, labels)

    monkeypatch.setattr(protocols._PureState, "keep", recording)
    out = run_measurement_compression(inst)
    # only the unconsumed MB is left to fold into the environment
    assert kept == [{"MB"} if case == "mb-unconsumed" else set()]
    ideal, merit = _dense_measurement_compression(inst)
    assert 0.0 < out.merit
    assert_allclose(out.merit, merit, atol=1e-12)
    got = ideal_measurement_state(inst.input_state, inst.povm)
    assert got.space == ideal.space
    assert_allclose(got.matrix, ideal.matrix, atol=1e-12)


def test_measurement_compression_rejects_incomplete_povm():
    inst = _random_measurement_compression(generator(3), 3)[0]
    bad = dataclasses.replace(inst, povm=(inst.povm[0], 0.5 * inst.povm[1]))
    with pytest.raises(UsageError, match="do not sum to the identity"):
        run_measurement_compression(bad)


def test_data_compression_incomplete_decoder_names_codeword():
    cq = random_cq_state(2, 2, seed=11)
    inst = ProtocolInstance(
        DATA_COMPRESSION, cq, registers={"c": 1}, e_table={"0": "0", "1": "0"},
        decoder_povms={0: {"0": np.eye(2) / 2, "1": np.eye(2) / 4}},
    )
    with pytest.raises(UsageError, match="codeword 0 is incomplete"):
        run_data_compression(inst)


def test_measurement_compression_decomposes_input_once(monkeypatch):
    from renyisc import linalg

    inst = _random_measurement_compression(generator(17), 17)[0]
    rho = inst.input_state.matrix
    seen = []
    spectrum = linalg.spectrum

    def counting(m, vectors=True):
        seen.append(np.array(m))
        return spectrum(m, vectors)

    for name, mod in list(sys.modules.items()):
        if name.startswith("renyisc") and getattr(mod, "spectrum", None) is spectrum:
            monkeypatch.setattr(mod, "spectrum", counting)
    run_measurement_compression(inst)
    assert sum(m.shape == rho.shape and np.array_equal(m, rho) for m in seen) == 1


# ---------------------------------------------------------------------------
# n-copy ensembles against a per-string np.kron reference


def _table(rng, alphabet, n, out_per_copy):
    """Random encoding table on n-symbol strings that hits every output string."""
    inputs = ["".join(map(str, s)) for s in itertools.product(range(alphabet), repeat=n)]
    outputs = ["".join(map(str, s)) for s in itertools.product(range(out_per_copy), repeat=n)]
    order = rng.permutation(len(inputs))
    return {inputs[j]: outputs[i % len(outputs)] for i, j in enumerate(order)}


def _kron_ensemble(cq, n):
    """(key, probability, state) of every n-symbol string, state by np.kron."""
    p, states = cq_components(cq)
    out = []
    for s in itertools.product(range(len(p)), repeat=n):
        prob, st = 1.0, np.eye(1)
        for c in s:
            prob, st = prob * p[c], np.kron(st, states[c])
        out.append(("".join(map(str, s)), prob, st))
    return out


def _index(word, base):
    return sum(int(ch) * base**j for j, ch in enumerate(reversed(word)))


def _pure_letters_cq(x, seed):
    """c-q state with pure conditional states, so class averages can be rank-deficient."""
    rng = generator(seed)
    p = rng.dirichlet(np.ones(x))
    m = np.zeros((2 * x, 2 * x), dtype=complex)
    for a in range(x):
        m[2 * a : 2 * a + 2, 2 * a : 2 * a + 2] = p[a] * random_state_matrix(rng, 2, rank=1)
    return LabeledOperator.square(SystemSpace.of(("X", x), ("B", 2)), m)


def _isolate_first(table):
    """The same table with the all-zero string alone in its class."""
    first = min(table)
    out = dict(table)
    spare = next(v for v in sorted(set(table.values())) if v != table[first])
    for key, val in table.items():
        if key != first and val == table[first]:
            out[key] = spare
    return out


def _pgm_classes(cq, table, n):
    classes = {}
    for key, prob, st in _kron_ensemble(cq, n):
        classes.setdefault(table[key], []).append((prob, st))
    return classes


@pytest.mark.parametrize(
    "x, n, c, letters, one_member",
    [
        pytest.param(2, 3, 2, "mixed", False, id="2-3-2"),
        pytest.param(3, 2, 2, "mixed", False, id="3-2-2"),
        pytest.param(4, 3, 2, "mixed", False, id="4-3-2"),
        pytest.param(3, 1, 2, "mixed", False, id="n1"),
        pytest.param(3, 3, 2, "pure", False, id="pure-letters"),
        pytest.param(3, 2, 2, "mixed", True, id="one-member-class"),
    ],
)
def test_data_compression_matches_kron_reference(x, n, c, letters, one_member):
    rng = generator(20 + x)
    if letters == "pure":
        cq = _pure_letters_cq(x, 20 + x)
    else:
        cq = random_cq_state(x, 2, seed=20 + x)
    table = _table(rng, x, n, c)
    if one_member:
        table = _isolate_first(table)
    inst = ProtocolInstance(DATA_COMPRESSION, cq, copies=n, registers={"c": c}, e_table=table)
    classes = _pgm_classes(cq, table, n)
    if letters == "pure":
        # rank-deficient class averages: R is zero on their kernels
        assert any(
            np.linalg.matrix_rank(sum(w * st for w, st in members), tol=1e-9) < 2**n
            for members in classes.values()
        )
    if one_member:
        assert min(len(members) for members in classes.values()) == 1
    want = 0.0
    for members in classes.values():
        for (prob, st), elem in zip(members, pretty_good_decoder(members)):
            want += prob * float(np.trace(elem @ st).real)
    assert_allclose(run_data_compression(inst).merit, want, atol=1e-12)


def test_data_compression_decoder_povms_n2():
    # the pretty-good elements, passed as custom POVMs, give the same merit
    x, n, c = 3, 2, 2
    cq = random_cq_state(x, 2, seed=25)
    table = _table(generator(25), x, n, c)
    povms = {}
    for word, members in _pgm_classes(cq, table, n).items():
        keys = [key for key in sorted(table) if table[key] == word]
        povms[_index(word, c)] = dict(zip(keys, pretty_good_decoder(members)))
    inst = ProtocolInstance(DATA_COMPRESSION, cq, copies=n, registers={"c": c}, e_table=table)
    want = run_data_compression(inst).merit
    custom = dataclasses.replace(inst, decoder_povms=povms)
    assert_allclose(run_data_compression(custom).merit, want, atol=1e-12)


def test_data_compression_one_decomposition_per_class(monkeypatch):
    from renyisc import linalg, protocols

    x, n, c = 4, 3, 2
    cq = random_cq_state(x, 2, seed=26)
    table = _table(generator(26), x, n, c)
    inst = ProtocolInstance(DATA_COMPRESSION, cq, copies=n, registers={"c": c}, e_table=table)
    spectra, krons = [], []
    spectrum, kron = linalg.spectrum, linalg._kron

    def counting_spectrum(m, vectors=True):
        spectra.append(m.shape)
        return spectrum(m, vectors)

    def counting_kron(a, b):
        krons.append(a.shape)
        return kron(a, b)

    for name, mod in list(sys.modules.items()):
        if name.startswith("renyisc") and getattr(mod, "spectrum", None) is spectrum:
            monkeypatch.setattr(mod, "spectrum", counting_spectrum)
    monkeypatch.setattr(protocols, "_kron", counting_kron)
    run_data_compression(inst)
    assert spectra == [(2**n, 2**n)] * len(set(table.values()))
    # one class sum per (codeword, last letter), never one state per string
    per_letter = {(word, key[-1]) for key, word in table.items()}
    assert len(krons) == len(per_letter) < x**n


@pytest.mark.parametrize("x, n, z", [(2, 3, 2), (3, 2, 2), (4, 2, 3)])
def test_randomness_extraction_matches_kron_reference(x, n, z):
    rng = generator(30 + x)
    cq = random_cq_state(x, 2, seed=30 + x)
    table = _table(rng, x, n, z)
    inst = ProtocolInstance(RANDOMNESS_EXTRACTION, cq, copies=n, registers={"z": z}, e_table=table)
    db = 2**n
    omega = np.zeros((z**n * db,) * 2, dtype=complex)
    for key, prob, st in _kron_ensemble(cq, n):
        b = _index(table[key], z) * db
        omega[b : b + db, b : b + db] += prob * st
    p, states = cq_components(cq)
    blocks = _cq_blocks_from_table(p, states, table, n, z, z**n)
    assert_allclose(block_diag(*blocks), omega, atol=1e-12)
    out = run_randomness_extraction(inst)
    ref = LabeledOperator.square(SystemSpace.of(("Z", z**n), ("Bn", db)), omega)
    want = 2 ** (conditional_entropy(ref, ["Bn"], 0.5).value / 2) / math.sqrt(z**n)
    assert_allclose(out.merit, want, atol=1e-12)


# ---------------------------------------------------------------------------
# memory: the isometric kinds hold vectors, compression one codeword class


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_redistribution_333_memory():
    rng = generator(40)
    rho = random_state(SystemSpace.of(("A", 3), ("B", 3), ("C", 3)), seed=40)
    enc_in = SystemSpace.of(("A", 3), ("C", 3), ("TA", 2))
    enc = _random_channel(rng, enc_in, [("Cp", 3), ("TAp", 1), ("Q", 2)], "E1")
    dec_in = SystemSpace.of(("Q", 2), ("B", 3), ("TB", 2))
    dec = _random_channel(rng, dec_in, [("TBp", 1), ("Ap", 3), ("Bp", 3)], "E2")
    inst = ProtocolInstance(
        REDISTRIBUTION, rho, registers={"k": 2, "m": 1, "q": 2}, encoders=[enc], decoders=[dec]
    )
    # the density-matrix path peaked near 960 MiB here, the dense final state 16.3 MiB
    assert _peak_mib(lambda: run_redistribution(inst)) < 4


def test_data_compression_n6_memory():
    cq = random_cq_state(4, 2, seed=41)
    table = _table(generator(41), 4, 6, 2)
    inst = ProtocolInstance(DATA_COMPRESSION, cq, copies=6, registers={"c": 2}, e_table=table)
    # holding all 4096 six-fold states peaked near 270 MiB
    assert _peak_mib(lambda: run_data_compression(inst)) < 64
