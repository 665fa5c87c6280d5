"""Labeled composite Hilbert spaces and operators acting on them.

The composite index convention is fixed throughout: the first listed
subsystem is the most significant digit, i.e. a basis index decomposes as
``index = sum_k i_k * prod_{j>k} d_j``.  This matches the row-major layout
of ``numpy.kron`` and of the on-disk state files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, UsageError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class SystemSpace:
    """An ordered list of labeled finite-dimensional subsystems."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        subs = tuple((str(l), int(d)) for l, d in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        labels = [l for l, _ in subs]
        if len(set(labels)) != len(labels):
            raise UsageError(f"duplicate labels in {labels}")
        for l, d in subs:
            if d < 1:
                raise UsageError(f"subsystem {l!r} has non-positive dim {d}")

    @classmethod
    def of(cls, *subsystems: tuple[str, int]) -> "SystemSpace":
        return cls(tuple(subsystems))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def dim_of(self, label: str) -> int:
        for l, d in self.subsystems:
            if l == label:
                return d
        raise UsageError(f"unknown label {label!r} in {self.labels}")

    def position(self, label: str) -> int:
        for i, (l, _) in enumerate(self.subsystems):
            if l == label:
                return i
        raise UsageError(f"unknown label {label!r} in {self.labels}")

    def has(self, label: str) -> bool:
        return any(l == label for l, _ in self.subsystems)

    def tensor(self, other: "SystemSpace") -> "SystemSpace":
        clash = set(self.labels) & set(other.labels)
        if clash:
            raise UsageError(f"label clash {sorted(clash)} in tensor product")
        return SystemSpace(self.subsystems + other.subsystems)

    def restrict(self, labels) -> "SystemSpace":
        """Sub-space of the given labels, keeping the original order."""
        labels = set(labels)
        unknown = labels - set(self.labels)
        if unknown:
            raise UsageError(f"unknown labels {sorted(unknown)} in {self.labels}")
        return SystemSpace(tuple(s for s in self.subsystems if s[0] in labels))

    def reorder(self, order) -> "SystemSpace":
        order = list(order)
        if sorted(order) != sorted(self.labels):
            raise UsageError(f"{order} is not a permutation of {list(self.labels)}")
        return SystemSpace(tuple((l, self.dim_of(l)) for l in order))

    def rename(self, mapping: dict) -> "SystemSpace":
        return SystemSpace(tuple((mapping.get(l, l), d) for l, d in self.subsystems))


@dataclass(frozen=True)
class LabeledOperator:
    """A complex matrix attached to output and input SystemSpaces."""

    space_out: SystemSpace
    space_in: SystemSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise DimensionMismatchError(f"matrix must be 2-D, got shape {m.shape}")
        if m.shape != (self.space_out.dim, self.space_in.dim):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match spaces "
                f"({self.space_out.dim}, {self.space_in.dim})"
            )
        if m is self.matrix or m.base is not None:
            # the caller's array (or a view of it, e.g. of an np.matrix);
            # a converted one is already private
            m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def square(cls, space: SystemSpace, matrix) -> "LabeledOperator":
        return cls(space, space, matrix)

    @property
    def space(self) -> SystemSpace:
        if self.space_out != self.space_in:
            raise UsageError("operator is not square on a single space")
        return self.space_out

    @property
    def is_square(self) -> bool:
        return self.space_out == self.space_in

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    def dagger(self) -> "LabeledOperator":
        return LabeledOperator(self.space_in, self.space_out, self.matrix.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def tensor(self, other: "LabeledOperator") -> "LabeledOperator":
        return LabeledOperator(
            self.space_out.tensor(other.space_out),
            self.space_in.tensor(other.space_in),
            np.kron(self.matrix, other.matrix),
        )

    def compose(self, other: "LabeledOperator") -> "LabeledOperator":
        """Matrix product self @ other; input space of self must match."""
        if self.space_in.dims != other.space_out.dims:
            raise DimensionMismatchError("composition dimension mismatch")
        return LabeledOperator(self.space_out, other.space_in, self.matrix @ other.matrix)

    def rename(self, mapping: dict) -> "LabeledOperator":
        return LabeledOperator(
            self.space_out.rename(mapping), self.space_in.rename(mapping), self.matrix
        )

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        h = (self.matrix + self.matrix.conj().T) / 2
        return float(np.linalg.eigvalsh(h)[0])

    def is_density(self, tol: float = TRACE_TOL) -> bool:
        if not self.is_square:
            return False
        if self.hermiticity_defect() > HERMITICITY_TOL:
            return False
        if self.min_eigenvalue() < -PSD_TOL:
            return False
        return abs(self.trace() - 1.0) <= tol


def density_operator(space: SystemSpace, matrix) -> LabeledOperator:
    """Build a density operator, validating its invariants."""
    op = LabeledOperator.square(space, matrix)
    if op.hermiticity_defect() > HERMITICITY_TOL:
        raise UsageError("density operator is not Hermitian within tolerance")
    if op.min_eigenvalue() < -PSD_TOL:
        raise UsageError("density operator has a negative eigenvalue")
    if abs(op.trace() - 1.0) > TRACE_TOL:
        raise UsageError(f"density operator trace {op.trace()} is not 1")
    return op


def identity(space: SystemSpace) -> LabeledOperator:
    return LabeledOperator.square(space, np.eye(space.dim))


def maximally_mixed(space: SystemSpace) -> LabeledOperator:
    return LabeledOperator.square(space, np.eye(space.dim) / space.dim)


def maximally_entangled(rank: int, label_a: str, label_b: str) -> LabeledOperator:
    """Rank-``rank`` maximally entangled state on two fresh systems."""
    # |i>|i> has flat index i*rank + i
    psi = np.zeros(rank * rank, dtype=complex)
    for i in range(rank):
        psi[i * rank + i] = 1.0 / math.sqrt(rank)
    space = SystemSpace.of((label_a, rank), (label_b, rank))
    return LabeledOperator.square(space, np.outer(psi, psi.conj()))


def pure_state(space: SystemSpace, vector) -> LabeledOperator:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.shape[0] != space.dim:
        raise DimensionMismatchError("vector length does not match space")
    v = v / np.linalg.norm(v)
    return LabeledOperator.square(space, np.outer(v, v.conj()))


def partial_trace(op: LabeledOperator, keep) -> LabeledOperator:
    """Trace out every subsystem not in ``keep`` (order preserved)."""
    space = op.space
    keep = set(keep)
    unknown = keep - set(space.labels)
    if unknown:
        raise UsageError(f"unknown labels {sorted(unknown)} in {space.labels}")
    n = len(space.subsystems)
    dims = space.dims
    keep_idx = [i for i, l in enumerate(space.labels) if l in keep]
    t = op.matrix.reshape(dims + dims)
    subs_out = list(range(n))
    subs_in = [i if i not in keep_idx else n + i for i in range(n)]
    out_subs = keep_idx + [n + i for i in keep_idx]
    reduced = np.einsum(t, subs_out + subs_in, out_subs)
    new_space = space.restrict(keep)
    return LabeledOperator.square(new_space, reduced.reshape(new_space.dim, new_space.dim))


def permute_systems(op: LabeledOperator, order) -> LabeledOperator:
    """Reorder the subsystems of a square operator."""
    space = op.space
    new_space = space.reorder(order)
    n = len(space.subsystems)
    perm = [space.position(l) for l in new_space.labels]
    t = op.matrix.reshape(space.dims + space.dims)
    t = t.transpose(perm + [n + p for p in perm])
    return LabeledOperator.square(new_space, t.reshape(space.dim, space.dim))


def embed(op: LabeledOperator, target: SystemSpace) -> LabeledOperator:
    """Tensor identity on the missing subsystems and reorder to ``target``."""
    missing = [s for s in target.subsystems if s[0] not in op.space.labels]
    for l, d in op.space.subsystems:
        if target.dim_of(l) != d:
            raise DimensionMismatchError(f"dim mismatch for label {l!r}")
    big = op
    if missing:
        big = op.tensor(identity(SystemSpace(tuple(missing))))
    return permute_systems(big, target.labels)


def tensor_power(op: LabeledOperator, n: int) -> LabeledOperator:
    """n-fold tensor power with per-label grouping.

    The result keeps the original labels; each subsystem dimension is raised
    to the n-th power, with the n copies of one label contiguous (copy 0 most
    significant).
    """
    if n < 1:
        raise UsageError("tensor power requires n >= 1")
    if n == 1:
        return op
    out_dims, in_dims = op.space_out.dims, op.space_in.dims
    ko, ki = len(out_dims), len(in_dims)
    m = op.matrix
    cur = m
    for _ in range(n - 1):
        cur = np.kron(cur, m)
    t = cur.reshape(out_dims * n + in_dims * n)
    perm_out = [c * ko + j for j in range(ko) for c in range(n)]
    perm_in = [n * ko + c * ki + j for j in range(ki) for c in range(n)]
    t = t.transpose(perm_out + perm_in)
    new_out = SystemSpace(tuple((l, d**n) for l, d in op.space_out.subsystems))
    new_in = SystemSpace(tuple((l, d**n) for l, d in op.space_in.subsystems))
    return LabeledOperator(new_out, new_in, t.reshape(new_out.dim, new_in.dim))
