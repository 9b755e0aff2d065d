"""Seeded generators for states, channels, embeddings, and named fixtures.

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


def epr_instance() -> tuple[HomSpec, State]:
    """Antisymmetric pure state on a 4x4 block over the multiplicity-2
    embedding; the canonical 'intertwining holds, corner map is no
    homomorphism' example."""
    h = inclusion_hom(2, 2)
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2)
    psi[2] = -1.0 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    omega = State(h.target, (1.0,), (rho,))
    return h, omega


def product_instance() -> tuple[HomSpec, State]:
    """diag(0.3, 0.7) (x) diag(0.6, 0.4) over the multiplicity-2 embedding."""
    h = inclusion_hom(2, 2)
    rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4])).astype(complex)
    omega = State(h.target, (1.0,), (rho,))
    return h, omega


def rankdef_product_instance() -> tuple[HomSpec, State]:
    """Rank-deficient product state diag(1, 0) (x) diag(0.6, 0.4)."""
    h = inclusion_hom(2, 2)
    rho = np.kron(np.diag([1.0, 0.0]), np.diag([0.6, 0.4])).astype(complex)
    omega = State(h.target, (1.0,), (rho,))
    return h, omega


def nonproduct_faithful_instance() -> tuple[HomSpec, State]:
    """Faithful non-product state on the 4x4 block: the reverse
    counterexample (corner map is a homomorphism, intertwining fails)."""
    h = inclusion_hom(2, 2)
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    omega = State(h.target, (1.0,), (rho,))
    return h, omega


def nonsubalgebra_deterministic_instance() -> tuple[Channel, State]:
    """UCP map B -> diag(B, (B + B^T + tr(B) 1)/4) with a pure target state.

    The image is not a subalgebra, yet the map is deterministic almost
    everywhere for this state. The scalar factor applies tr(B): the only
    type-correct reading of the construction. Kraus form: [1; 0] places B,
    and [0; L] with L in {1/sqrt(2), Z/2, X/2} give the lower block, whose
    Choi matrix (|Omega><Omega| + 2 P_sym)/4 lives on the symmetric subspace.
    """
    source = MultiMatrixAlgebra((2,))
    target = MultiMatrixAlgebra((4,))
    place = np.vstack([np.eye(2), np.zeros((2, 2))])
    lower = (np.eye(2) / np.sqrt(2), np.diag([0.5, -0.5]), np.array([[0.0, 0.5], [0.5, 0.0]]))
    F = from_kraus(source, target, [place] + [np.vstack([np.zeros((2, 2)), L]) for L in lower])
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    omega = State(target, (1.0,), (rho,))
    return F, omega
