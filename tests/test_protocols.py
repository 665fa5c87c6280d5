import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from renyisc.channels import ChannelSpec, identity_channel
from renyisc.errors import BudgetExceededError, UsageError
from renyisc.protocols import (
    DATA_COMPRESSION,
    MEASUREMENT_COMPRESSION,
    MERGING,
    RANDOMNESS_EXTRACTION,
    REDISTRIBUTION,
    SPLITTING,
    ProtocolInstance,
    cq_components,
    ideal_measurement_state,
    pretty_good_decoder,
    run_data_compression,
    run_measurement_compression,
    run_protocol,
    run_randomness_extraction,
    run_redistribution,
    specialize,
    uniform_shared_randomness,
)
from renyisc.random_ensembles import (
    generator,
    random_classical_state,
    random_cq_state,
    random_state,
)
from renyisc.spaces import LabeledOperator, SystemSpace, partial_trace, permute_systems


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_redistribution_pure_target_merit_matches_fidelity(seed):
    from renyisc.harness import _random_redistribution_instance
    from renyisc.linalg import fidelity, purify
    from renyisc.protocols import _redistribution_target

    inst = _random_redistribution_instance(generator(seed))
    out = run_redistribution(inst)
    target = _redistribution_target(purify(inst.input_state, "R"), inst.registers["m"])
    final = permute_systems(out.final_state, list(target.space.labels))
    assert 0.0 < out.merit < 1.0
    assert_allclose(out.merit, fidelity(final, target), atol=1e-12)


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


def test_uniform_shared_randomness_correlated():
    omega = uniform_shared_randomness(3)
    p_ma = np.real(np.diag(partial_trace(omega, {"MA"}).matrix))
    assert_allclose(p_ma, np.full(3, 1 / 3), atol=1e-12)


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
