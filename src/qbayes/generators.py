"""Seeded generators for states, channels and embeddings.

Everything is deterministic given the numpy Generator passed in; the CLI
and the test suites rely on byte-stable regeneration from a seed.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .algebra import HomSpec, MultiMatrixAlgebra
from .channel import Channel, from_kraus
from .errors import ShapeMismatch
from .linalg import dagger
from .state import State, state_from_weighted


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_psd(rng: np.random.Generator, d: int, rank: Optional[int] = None) -> np.ndarray:
    rank = d if rank is None else rank
    if rank == 0:
        return np.zeros((d, d), dtype=complex)
    G = random_complex(rng, d, rank)
    return G @ dagger(G)


def random_density(rng: np.random.Generator, d: int, rank: Optional[int] = None) -> np.ndarray:
    M = random_psd(rng, d, rank)
    return M / np.trace(M).real


def random_state(
    rng: np.random.Generator,
    alg: MultiMatrixAlgebra,
    ranks: Optional[Sequence[int]] = None,
    zero_blocks: Sequence[int] = (),
) -> State:
    """Random state; ranks below the block dimension make it non-faithful."""
    weights = rng.random(alg.n_blocks) + 0.1
    for x in zero_blocks:
        weights[x] = 0.0
    weights = weights / weights.sum()
    densities = []
    for x, d in enumerate(alg.block_dims):
        if weights[x] == 0.0:
            densities.append(None)
            continue
        rank = d if ranks is None else min(max(int(ranks[x]), 1), d)
        densities.append(random_density(rng, d, rank))
    return State(alg, tuple(weights), tuple(densities))


def random_kraus_channel(
    rng: np.random.Generator,
    source: MultiMatrixAlgebra,
    target: MultiMatrixAlgebra,
    n_kraus: int = 2,
) -> Channel:
    """Haar-ish random UCP channel: Gaussian Kraus grid, renormalized to be
    unital by conjugating with the inverse square root of the unit image,
    which is singular unless n_kraus * sum_y n_y >= m_x for every x."""
    if n_kraus * sum(source.block_dims) < max(target.block_dims):
        raise ShapeMismatch(f"{n_kraus} Kraus operators per block pair are too few")
    grids = []
    for x, m_x in enumerate(target.block_dims):
        row = []
        for y, n_y in enumerate(source.block_dims):
            row.append([random_complex(rng, m_x, n_y) for _ in range(n_kraus)])
        grids.append(row)
    normalized = []
    for x, m_x in enumerate(target.block_dims):
        S = sum(K @ dagger(K) for ops in grids[x] for K in ops)
        w, V = np.linalg.eigh((S + dagger(S)) / 2)
        S_inv_half = (V * (1.0 / np.sqrt(w))) @ dagger(V)
        normalized.append([[S_inv_half @ K for K in ops] for ops in grids[x]])
    return from_kraus(source, target, normalized)


def random_hom(
    rng: np.random.Generator,
    source_dims: Sequence[int],
    max_mult: int = 2,
) -> HomSpec:
    """Random Bratteli matrix with entries 0..max_mult; target dims derived
    from unitality. Rows are resampled until nonzero."""
    source = MultiMatrixAlgebra(tuple(source_dims))
    t = source.n_blocks
    n_rows = int(rng.integers(1, 3))
    rows = []
    for _ in range(n_rows):
        while True:
            row = rng.integers(0, max_mult + 1, size=t)
            if row.sum() > 0:
                rows.append(tuple(int(c) for c in row))
                break
    target = MultiMatrixAlgebra(
        tuple(sum(c * n for c, n in zip(row, source_dims)) for row in rows)
    )
    return HomSpec(source, target, tuple(rows))


def product_state_for_hom(
    rng: np.random.Generator,
    h: HomSpec,
    tau_ranks: Optional[dict] = None,
    sigma_ranks: Optional[Sequence[int]] = None,
) -> State:
    """State built to factorize along the embedding: the weighted target
    blocks are stacks of q_j tau_ij (x) sigma_j."""
    t = h.source.n_blocks
    q = rng.random(t) + 0.1
    q = q / q.sum()
    sigmas = []
    for j, n_j in enumerate(h.source.block_dims):
        rank = None if sigma_ranks is None else sigma_ranks[j]
        sigmas.append(random_density(rng, n_j, rank))
    taus = {}
    for j in range(t):
        raw = {}
        mass = 0.0
        for i in range(h.target.n_blocks):
            c = h.multiplicities[i][j]
            if c == 0:
                continue
            rank = None if tau_ranks is None else tau_ranks.get((i, j))
            M = random_psd(rng, c, rank)
            raw[i] = M
            mass += float(np.trace(M).real)
        for i, M in raw.items():
            taus[(i, j)] = M / mass
    weighted = []
    for i, m_i in enumerate(h.target.block_dims):
        W = np.zeros((m_i, m_i), dtype=complex)
        for j, offset, size in h.sub_block_layout(i):
            W[offset : offset + size, offset : offset + size] = q[j] * np.kron(
                taus[(i, j)], sigmas[j]
            )
        weighted.append(W)
    return state_from_weighted(h.target, weighted)


def inclusion_hom(k: int, n: int) -> HomSpec:
    """The standard multiplicity-k embedding of one matrix block."""
    return HomSpec(
        MultiMatrixAlgebra((n,)), MultiMatrixAlgebra((k * n,)), ((k,),)
    )
