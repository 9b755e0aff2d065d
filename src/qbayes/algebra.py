"""Multi-matrix algebras, their elements, and standard-form embeddings.

A multi-matrix algebra is a finite direct sum of full complex matrix blocks.
Elements carry one block per factor. Unital *-homomorphisms between two such
algebras are stored in standard form via their multiplicity matrix: block i
of the image is the block-diagonal stack of (identity_{c_ij} (x) B_j) in
ascending j, using the multiplicity-left Kronecker convention of `np.kron`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ShapeMismatch
from .linalg import dagger, frobenius


def memo(owner, key, build: Callable):
    """build(), computed once per key and kept on the immutable owner.

    The value lives exactly as long as the owner. It must not refer back to
    the owner: a cycle would outlive the last outside reference until the
    cyclic collector runs. A result per map is keyed by the map itself: a
    `LinearMap` hashes by identity and the key holds it, so its id cannot be
    reused while the result lives, and a `HomSpec` hashes by value, so equal
    homs share one result.
    """
    cache = owner.__dict__.setdefault("_memo", {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """Shape descriptor of a direct sum of matrix blocks."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_dims) == 0:
            raise ShapeMismatch("algebra needs at least one block")
        if any(int(d) <= 0 for d in self.block_dims):
            raise ShapeMismatch(f"block dims must be positive, got {self.block_dims}")
        object.__setattr__(self, "block_dims", tuple(int(d) for d in self.block_dims))

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    def to_dict(self) -> dict:
        return {"blocks": list(self.block_dims)}


def _as_blocks(alg: MultiMatrixAlgebra, blocks: Sequence[np.ndarray]) -> tuple:
    if len(blocks) != alg.n_blocks:
        raise ShapeMismatch(
            f"expected {alg.n_blocks} blocks, got {len(blocks)}"
        )
    out = []
    for d, b in zip(alg.block_dims, blocks):
        b = np.asarray(b, dtype=complex)
        if b.shape != (d, d):
            raise ShapeMismatch(f"block of shape {b.shape} does not match dim {d}")
        out.append(b)
    return tuple(out)


@dataclass(frozen=True)
class AlgebraElement:
    """One complex matrix per block; arithmetic is blockwise."""

    algebra: MultiMatrixAlgebra
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", _as_blocks(self.algebra, self.blocks))

    def _check_peer(self, other: "AlgebraElement") -> None:
        if other.algebra.block_dims != self.algebra.block_dims:
            raise ShapeMismatch("elements live in different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_peer(other)
        return AlgebraElement(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_peer(other)
        return AlgebraElement(self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(scalar * b for b in self.blocks))

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_peer(other)
        return AlgebraElement(self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(dagger(b) for b in self.blocks))

    def norm(self) -> float:
        return float(np.sqrt(sum(frobenius(b) ** 2 for b in self.blocks)))

    def trace(self) -> complex:
        return complex(sum(np.trace(b) for b in self.blocks))


def unit(alg: MultiMatrixAlgebra) -> AlgebraElement:
    return AlgebraElement(alg, tuple(np.eye(d, dtype=complex) for d in alg.block_dims))


def zero(alg: MultiMatrixAlgebra) -> AlgebraElement:
    return AlgebraElement(alg, tuple(np.zeros((d, d), dtype=complex) for d in alg.block_dims))


def matrix_unit(alg: MultiMatrixAlgebra, x: int, i: int, j: int) -> AlgebraElement:
    """E_ij in block x, zero elsewhere."""
    blocks = [np.zeros((d, d), dtype=complex) for d in alg.block_dims]
    blocks[x][i, j] = 1.0
    return AlgebraElement(alg, tuple(blocks))


def matrix_units(alg: MultiMatrixAlgebra) -> Iterator[AlgebraElement]:
    """The sum_x m_x^2 matrix units, a Hilbert-Schmidt orthonormal basis."""
    for x, d in enumerate(alg.block_dims):
        for i in range(d):
            for j in range(d):
                yield matrix_unit(alg, x, i, j)


@dataclass(frozen=True)
class HomSpec:
    """Standard-form unital *-homomorphism, given by its multiplicity matrix.

    multiplicities[i][j] = c_ij copies of source block j inside target block
    i; unitality demands m_i = sum_j c_ij * n_j for every i.
    """

    source: MultiMatrixAlgebra
    target: MultiMatrixAlgebra
    multiplicities: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        mult = tuple(tuple(int(c) for c in row) for row in self.multiplicities)
        object.__setattr__(self, "multiplicities", mult)
        s, t = self.target.n_blocks, self.source.n_blocks
        if len(mult) != s or any(len(row) != t for row in mult):
            raise ShapeMismatch(
                f"multiplicity matrix must be {s} x {t}, got {len(mult)} rows"
            )
        if any(c < 0 for row in mult for c in row):
            raise ShapeMismatch("multiplicities must be nonnegative")
        for i, m_i in enumerate(self.target.block_dims):
            total = sum(c * n for c, n in zip(mult[i], self.source.block_dims))
            if total != m_i:
                raise ShapeMismatch(
                    f"unitality fails in target block {i}: "
                    f"sum_j c_ij n_j = {total} != {m_i}"
                )

    def sub_block_layout(self, i: int) -> list[tuple[int, int, int]]:
        """(j, offset, size) of each source sub-block inside target block i.

        Blocks are laid out in ascending j; size = c_ij * n_j. Entries with
        c_ij = 0 are omitted. The layout is fixed so that offsets are
        byte-for-byte reproducible in serialized output.
        """
        out = []
        offset = 0
        for j, n_j in enumerate(self.source.block_dims):
            size = self.multiplicities[i][j] * n_j
            if size > 0:
                out.append((j, offset, size))
            offset += size
        return out

    def to_dict(self) -> dict:
        return {
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "mult": [list(row) for row in self.multiplicities],
        }


def apply_hom(h: HomSpec, B: AlgebraElement) -> AlgebraElement:
    """Standard-form image: block i is the stack of (1_{c_ij} (x) B_j)."""
    if B.algebra.block_dims != h.source.block_dims:
        raise ShapeMismatch("element does not belong to the hom's source algebra")
    blocks = []
    for i, m_i in enumerate(h.target.block_dims):
        out = np.zeros((m_i, m_i), dtype=complex)
        for j, offset, size in h.sub_block_layout(i):
            c = h.multiplicities[i][j]
            out[offset : offset + size, offset : offset + size] = np.kron(np.eye(c), B.blocks[j])
        blocks.append(out)
    return AlgebraElement(h.target, tuple(blocks))
