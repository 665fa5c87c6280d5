"""Quantum channels in Stinespring form and their action on labeled states.

A channel is stored as an isometry V from its input space to the tensor
product of output and environment systems; applying it means conjugating by
V on the input subsystems (identity elsewhere) and tracing the environment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidChannelError, UsageError
from .spaces import LabeledOperator, SystemSpace, partial_trace, permute_systems

ISOMETRY_TOL = 1e-10
# largest entry of sum(elements) - I that a complete POVM may show
POVM_TOL = 1e-8


@dataclass(frozen=True)
class ChannelSpec:
    """A CPTP map given by a Stinespring isometry and environment labels."""

    isometry: LabeledOperator
    environment_labels: frozenset

    def __post_init__(self):
        object.__setattr__(self, "environment_labels", frozenset(self.environment_labels))
        v = self.isometry.matrix
        defect = np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1])))
        if defect > ISOMETRY_TOL:
            raise InvalidChannelError(f"V†V differs from identity by {defect}")
        unknown = self.environment_labels - set(self.isometry.space_out.labels)
        if unknown:
            raise InvalidChannelError(f"environment labels {sorted(unknown)} not in output")

    @property
    def input_labels(self) -> tuple[str, ...]:
        return self.isometry.space_in.labels


def isometry_channel(
    space_in: SystemSpace, space_out: SystemSpace, matrix, environment_labels=()
) -> ChannelSpec:
    return ChannelSpec(LabeledOperator(space_out, space_in, matrix), frozenset(environment_labels))


def identity_channel(space: SystemSpace, rename: dict | None = None) -> ChannelSpec:
    """Identity map, optionally relabeling its subsystems."""
    out = space.rename(rename) if rename else space
    return ChannelSpec(LabeledOperator(out, space, np.eye(space.dim)), frozenset())


def channel_from_kraus(
    space_in: SystemSpace, space_out: SystemSpace, kraus, env_label: str = "E"
) -> ChannelSpec:
    """Stack Kraus operators into a Stinespring isometry with a fresh env."""
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    n = len(kraus)
    if any(k.shape != (space_out.dim, space_in.dim) for k in kraus):
        raise DimensionMismatchError("Kraus operator shape mismatch")
    v = np.zeros((space_out.dim * n, space_in.dim), dtype=complex)
    for j, k in enumerate(kraus):
        # env index least significant: row = a_out * n + j
        v[j::n, :] = k
    big = space_out.tensor(SystemSpace.of((env_label, n)))
    return ChannelSpec(LabeledOperator(big, space_in, v), frozenset({env_label}))


def dephasing_channel(space: SystemSpace, env_label: str = "E") -> ChannelSpec:
    """Fully dephase in the computational basis."""
    d = space.dim
    kraus = [np.zeros((d, d), dtype=complex) for _ in range(d)]
    for i in range(d):
        kraus[i][i, i] = 1.0
    return channel_from_kraus(space, space, kraus, env_label)


def check_povm(elements, dim: int, message: str = "POVM elements do not sum to the identity"):
    """Raise UsageError(``message``) unless the elements sum to the dim x dim identity."""
    total = np.sum(elements, axis=0)
    if np.max(np.abs(total - np.eye(dim))) > POVM_TOL:
        raise UsageError(message)


def measurement_channel(
    povm, space_in: SystemSpace, x_label: str = "X", xp_label: str = "Xp", env_label: str = "Em"
) -> ChannelSpec:
    """Measure a POVM and write the outcome to two classical copies.

    Maps rho to sum_x tr(L_x rho) |x><x|_X (x) |x><x|_X'.  The
    environment records the outcome alongside the measured system, so the
    output really is classical on both copies (no residual coherence
    between outcome blocks).
    """
    from .linalg import fractional_power_matrix

    n = len(povm)
    d = space_in.dim
    check_povm(povm, d)
    space_out = SystemSpace.of((x_label, n), (xp_label, n))
    kraus = []
    for x in range(n):
        root = fractional_power_matrix(povm[x], 0.5)
        for j in range(d):
            k = np.zeros((n * n, d), dtype=complex)
            k[x * n + x, :] = root[j, :]
            kraus.append(k)
    return channel_from_kraus(space_in, space_out, kraus, env_label)


def bystander_space(ch: ChannelSpec, space: SystemSpace) -> SystemSpace:
    """The systems of ``space`` the channel leaves alone, in their order.

    Raises if an input is missing or has another dimension in ``space``, or
    if an output label is already taken by a bystander.
    """
    for l in ch.input_labels:
        if not space.has(l):
            raise UsageError(f"channel input {l!r} missing from state {space.labels}")
        if space.dim_of(l) != ch.isometry.space_in.dim_of(l):
            raise DimensionMismatchError(f"dimension mismatch on channel input {l!r}")
    rest = space.restrict(set(space.labels) - set(ch.input_labels))
    clash = set(rest.labels) & set(ch.isometry.space_out.labels)
    if clash:
        raise UsageError(f"channel output labels {sorted(clash)} clash with state")
    return rest


def apply_channel(ch: ChannelSpec, rho: LabeledOperator) -> LabeledOperator:
    """Apply the channel to its input subsystems of ``rho``, identity elsewhere."""
    rest = bystander_space(ch, rho.space)
    ordered = permute_systems(rho, list(rest.labels) + list(ch.input_labels))
    d_in = ch.isometry.space_in.dim
    t = ordered.matrix.reshape(rest.dim, d_in, rest.dim, d_in)
    v = ch.isometry.matrix
    out = np.einsum("xa,iajb,yb->ixjy", v, t, v.conj(), optimize=True)
    new_space = rest.tensor(ch.isometry.space_out)
    full = LabeledOperator.square(new_space, out.reshape(new_space.dim, new_space.dim))
    keep = [l for l in new_space.labels if l not in ch.environment_labels]
    if len(keep) < len(new_space.labels):
        full = partial_trace(full, keep)
    return full


def apply_channels(channels, rho: LabeledOperator) -> LabeledOperator:
    for ch in channels:
        rho = apply_channel(ch, rho)
    return rho
