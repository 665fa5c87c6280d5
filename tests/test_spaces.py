import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from renyisc.errors import DimensionMismatchError, UsageError
from renyisc.spaces import (
    LabeledOperator,
    SystemSpace,
    density_operator,
    embed,
    identity,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    permute_systems,
    pure_state,
    tensor_power,
)


def test_space_basics():
    space = SystemSpace.of(("A", 2), ("B", 3))
    assert space.labels == ("A", "B")
    assert space.dims == (2, 3)
    assert space.dim == 6
    assert space.dim_of("B") == 3
    assert space.position("B") == 1
    assert space.has("A") and not space.has("C")


def test_space_duplicate_label_rejected():
    with pytest.raises(UsageError):
        SystemSpace.of(("A", 2), ("A", 3))


def test_space_tensor_and_restrict():
    space = SystemSpace.of(("A", 2), ("B", 3)).tensor(SystemSpace.of(("C", 4)))
    assert space.labels == ("A", "B", "C")
    assert space.restrict({"C", "A"}).labels == ("A", "C")


def test_space_reorder_and_rename():
    space = SystemSpace.of(("A", 2), ("B", 3))
    assert space.reorder(["B", "A"]).dims == (3, 2)
    renamed = space.rename({"A": "X"})
    assert renamed.labels == ("X", "B")


def test_operator_requires_matching_shape():
    space = SystemSpace.of(("A", 2))
    with pytest.raises(DimensionMismatchError):
        LabeledOperator.square(space, np.zeros((3, 3)))


def test_operator_matrix_read_only():
    op = maximally_mixed(SystemSpace.of(("A", 2)))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
@pytest.mark.parametrize("wrap", [np.asarray, np.asmatrix, lambda a: a.reshape(2, 2)])
def test_operator_does_not_alias_callers_array(wrap):
    # the caller's complex array, an np.matrix over it, or a view of it
    data = np.arange(4, dtype=complex).reshape(2, 2)
    op = LabeledOperator.square(SystemSpace.of(("A", 2)), wrap(data))
    data[0, 0] = 5.0
    assert op.matrix[0, 0] == 0.0
    assert op.matrix.flags.owndata


def test_operator_converts_real_input_once():
    data = np.eye(2)
    op = LabeledOperator.square(SystemSpace.of(("A", 2)), data)
    data[0, 0] = 5.0
    assert op.matrix[0, 0] == 1.0 and op.matrix.dtype == complex


def test_density_operator_validation():
    space = SystemSpace.of(("A", 2))
    with pytest.raises(UsageError):
        density_operator(space, np.diag([1.5, -0.5]))
    with pytest.raises(UsageError):
        density_operator(space, np.diag([0.4, 0.4]))  # trace != 1


def test_maximally_entangled_marginals():
    mes = maximally_entangled(3, "A", "B")
    ma = partial_trace(mes, {"A"})
    assert_allclose(ma.matrix, np.eye(3) / 3, atol=1e-14)


def test_pure_state_normalizes():
    psi = pure_state(SystemSpace.of(("A", 2)), [3.0, 4.0])
    assert_allclose(np.trace(psi.matrix), 1.0, atol=1e-14)
    assert_allclose(psi.matrix[0, 0], 9 / 25, atol=1e-14)


def test_partial_trace_keeps_original_order():
    space = SystemSpace.of(("A", 2), ("B", 3), ("C", 2))
    rho = maximally_mixed(space)
    kept = partial_trace(rho, {"C", "A"})
    assert kept.space.labels == ("A", "C")
    assert_allclose(np.trace(kept.matrix), 1.0, atol=1e-14)


def test_partial_trace_product_state():
    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.diag([0.2, 0.3, 0.5]).astype(complex)
    space = SystemSpace.of(("A", 2), ("B", 3))
    rho = LabeledOperator.square(space, np.kron(a, b))
    assert_allclose(partial_trace(rho, {"A"}).matrix, a, atol=1e-14)
    assert_allclose(partial_trace(rho, {"B"}).matrix, b, atol=1e-14)


def test_permute_systems_round_trip():
    rng = np.random.default_rng(0)
    space = SystemSpace.of(("A", 2), ("B", 3))
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = LabeledOperator.square(space, m)
    back = permute_systems(permute_systems(rho, ["B", "A"]), ["A", "B"])
    assert_allclose(back.matrix, m, atol=1e-14)


def test_permute_matches_kron_swap():
    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.diag([0.2, 0.3, 0.5]).astype(complex)
    rho = LabeledOperator.square(SystemSpace.of(("A", 2), ("B", 3)), np.kron(a, b))
    swapped = permute_systems(rho, ["B", "A"])
    assert_allclose(swapped.matrix, np.kron(b, a), atol=1e-14)


def test_embed_adds_identity_factor():
    rho = maximally_mixed(SystemSpace.of(("A", 2)))
    big = embed(rho, SystemSpace.of(("A", 2), ("B", 3)))
    assert big.space.labels == ("A", "B")
    assert_allclose(big.matrix, np.kron(rho.matrix, np.eye(3)), atol=1e-14)


def test_tensor_power_copies():
    rho = LabeledOperator.square(SystemSpace.of(("A", 2)), np.diag([0.9, 0.1]).astype(complex))
    sq = tensor_power(rho, 2)
    assert sq.space.dim == 4
    assert_allclose(sq.matrix, np.kron(rho.matrix, rho.matrix), atol=1e-14)


def test_identity_operator():
    op = identity(SystemSpace.of(("A", 3)))
    assert_allclose(op.matrix, np.eye(3), atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4))
def test_partial_trace_preserves_trace(da, db):
    rng = np.random.default_rng(da * 10 + db)
    g = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    m = g @ g.conj().T
    m /= np.trace(m).real
    rho = LabeledOperator.square(SystemSpace.of(("A", da), ("B", db)), m)
    assert abs(np.trace(partial_trace(rho, {"A"}).matrix) - 1.0) < 1e-12
