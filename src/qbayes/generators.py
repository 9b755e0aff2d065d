"""Seeded generators for states, channels, embeddings, and named fixtures.

Everything is deterministic given the numpy Generator passed in; the CLI
and the test suites rely on byte-stable regeneration from a seed.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .algebra import HomSpec, MultiMatrixAlgebra
from .channel import Channel, LinearMap, from_kraus
from .errors import ShapeMismatch
from .linalg import DEFAULT_TOL, Tolerances, dagger, pseudoinverse
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


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(random_complex(rng, d, d))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


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
    type-correct reading of the construction.
    """
    source = MultiMatrixAlgebra((2,))
    target = MultiMatrixAlgebra((4,))

    def fn(x, y, E):
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = E
        out[2:, 2:] = (E + E.T + np.trace(E) * np.eye(2)) / 4.0
        return out

    lm = LinearMap.from_block_fn(source, target, fn)
    F = Channel(source, target, lm.tensors)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    omega = State(target, (1.0,), (rho,))
    return F, omega


def random_battery_pass_instance(
    rng: np.random.Generator,
    n: int,
    m: int,
    rho_rank: int,
    sigma_rank: int,
    max_iterations: int = 60000,
    tol: Tolerances = DEFAULT_TOL,
    rho: Optional[np.ndarray] = None,
    sigma: Optional[np.ndarray] = None,
) -> tuple[Channel, State]:
    """Random instance on the battery-pass manifold for prescribed ranks.

    Samples rank-deficient states, then alternates projections between the
    UCP Choi cone and the affine set cut out by unitality, Hermiticity,
    state preservation, and the linear battery constraints, until the two
    projections coincide. Used to mint fixtures where the battery passes
    while the existence inequality is a genuine question. Raises
    ShapeMismatch when the iteration budget runs out before convergence.
    """
    source = MultiMatrixAlgebra((n,))
    target = MultiMatrixAlgebra((m,))
    if rho is None:
        rho = random_density(rng, m, rho_rank)
    if sigma is None:
        sigma = random_density(rng, n, sigma_rank)

    w_r, V_r = np.linalg.eigh(rho)
    keep_r = w_r > tol.eps_rank * w_r.max()
    P_om = V_r[:, keep_r] @ dagger(V_r[:, keep_r])
    w_s, V_s = np.linalg.eigh(sigma)
    keep_s = w_s > tol.eps_rank * w_s.max()
    P_xi = V_s[:, keep_s] @ dagger(V_s[:, keep_s])
    shat = pseudoinverse(sigma, tol)
    Vo = V_r[:, keep_r]
    Vx = V_s[:, keep_s]
    rho_c = dagger(Vo) @ rho @ Vo
    sig_c = dagger(Vx) @ sigma @ Vx

    # real-linear constraint rows: sum(C * T) + sum(D * conj(T)) = val
    cons: list[tuple[np.ndarray, np.ndarray, complex]] = []
    Z = np.zeros((n, m, n, m), dtype=complex)

    for a in range(m):
        for b in range(m):
            C = Z.copy()
            for i in range(n):
                C[i, a, i, b] = 1.0
            cons.append((C, Z, 1.0 if a == b else 0.0))
    for i in range(n):
        for a in range(m):
            for j in range(n):
                for b in range(m):
                    C = Z.copy()
                    D = Z.copy()
                    C[i, a, j, b] = 1.0
                    D[j, b, i, a] = -1.0
                    cons.append((C, D, 0.0))
    for k in range(n):
        for l in range(n):
            D = Z.copy()
            D[k, :, l, :] = rho
            cons.append((Z, D, sigma[k, l]))
    Pop = np.eye(m) - P_om
    for i in range(m):
        for j in range(m):
            E = np.zeros((m, m), dtype=complex)
            E[i, j] = 1.0
            X = rho @ E @ Pop
            for u in range(n):
                for v in range(n):
                    D = Z.copy()
                    for p in range(n):
                        for q in range(n):
                            D[p, :, q, :] += shat[u, p] * P_xi[q, v] * X
                    cons.append((Z, D, 0.0))
    for k in range(n):
        for l in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[k, l] = 1.0
            B = P_xi @ E @ P_xi
            L1 = sigma @ B
            L2 = B @ sigma
            for a in range(m):
                for b in range(m):
                    C = Z.copy()
                    for c in range(m):
                        C[:, a, :, c] += L1 * rho[c, b]
                        C[:, c, :, b] -= L2 * rho[a, c]
                    cons.append((C, Z, 0.0))
    rc = Vo.shape[1]
    xc = Vx.shape[1]
    for k in range(xc):
        for l in range(xc):
            E = np.zeros((xc, xc), dtype=complex)
            E[k, l] = 1.0
            Y1 = Vx @ (sig_c @ E) @ dagger(Vx)
            Y2 = Vx @ (E @ sig_c) @ dagger(Vx)
            for u in range(rc):
                for v in range(rc):
                    C = Z.copy()
                    for a in range(m):
                        for b in range(m):
                            c1 = sum(
                                np.conj(Vo[a, u]) * Vo[b, w] * rho_c[w, v]
                                for w in range(rc)
                            )
                            c2 = sum(
                                rho_c[u, w] * np.conj(Vo[a, w]) * Vo[b, v]
                                for w in range(rc)
                            )
                            C[:, a, :, b] += Y1 * c1 - Y2 * c2
                    cons.append((C, Z, 0.0))

    dim = (n * m) ** 2
    L = np.zeros((2 * len(cons), 2 * dim))
    rhs = np.zeros(2 * len(cons))
    for r, (C, D, val) in enumerate(cons):
        c = C.reshape(-1)
        d = D.reshape(-1)
        L[2 * r, :dim] = c.real + d.real
        L[2 * r, dim:] = -c.imag + d.imag
        L[2 * r + 1, :dim] = c.imag + d.imag
        L[2 * r + 1, dim:] = c.real - d.real
        rhs[2 * r] = np.real(val)
        rhs[2 * r + 1] = np.imag(val)
    L_pinv = np.linalg.pinv(L, rcond=1e-10)
    # affine(x) = x - L+(Lx - rhs); precompute the nullspace projector so the
    # inner loop is a single matmul
    nullproj = np.eye(2 * dim) - L_pinv @ L
    x_part = L_pinv @ rhs

    def affine(x):
        return nullproj @ x + x_part

    def vec(T):
        flat = T.reshape(-1)
        return np.concatenate([flat.real, flat.imag])

    def unvec(x):
        return (x[:dim] + 1j * x[dim:]).reshape(n, m, n, m)

    def psd(T):
        Cm = T.reshape(n * m, n * m)
        Cm = (Cm + dagger(Cm)) / 2
        w, V = np.linalg.eigh(Cm)
        return ((V * np.clip(w, 0.0, None)) @ dagger(V)).reshape(n, m, n, m)

    x = vec(random_complex(rng, 1, dim).reshape(n, m, n, m) * 2.0)
    distance = np.inf
    for it in range(max_iterations):
        xa = affine(x)
        xp = vec(psd(unvec(xa)))
        distance = float(np.linalg.norm(xp - xa))
        x = xp
        if distance < 1e-13:
            break
    if distance >= 1e-13:
        raise ShapeMismatch(
            f"battery-pass projection did not converge (distance {distance:.2e})"
        )
    T = unvec(affine(x))

    F = Channel(source, target, [[T]])
    omega = State(target, (1.0,), (rho,))
    return F, omega
