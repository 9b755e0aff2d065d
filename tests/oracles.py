"""Reference helpers that only the tests need.

Each one is small and independent of the library's kernels: the matrix
units of an algebra, the standard-form image of an element under a hom,
nullspace membership under a state, the dense Hilbert-Schmidt adjoint of a
map, the support and Petz maps of a Bayes battery, the Hilbert-Schmidt
pairing of two algebra elements, the imaginary power of a PSD matrix
through the support functional calculus, a Haar-like random unitary, the
dense UCP verdict that reads every Choi block's least eigenvalue, the
reference for `is_ucp`'s certificate, the dense Bayes battery that reads
F's block tensors through einsum, the reference for the battery read from
the factor, and the dense Bayes maps, corner blocks, forced rows and
extension read from the dense adjoint, the references for those
`bayesinv` builds from the factor.
"""

import math
from typing import Iterator

import numpy as np

from qbayes.algebra import AlgebraElement, HomSpec, MultiMatrixAlgebra
from qbayes.channel import LinearMap, UcpVerdict
from qbayes.errors import ShapeMismatch
from qbayes.generators import random_complex
from qbayes.linalg import (
    DEFAULT_TOL,
    Tolerances,
    dagger,
    herm_fun,
    hermitian_split,
    partial_trace_left,
)
from qbayes.state import State, evaluate, pullback, support


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


def in_nullspace(
    omega: State,
    A: AlgebraElement,
    tol: Tolerances = DEFAULT_TOL,
    scale: float = 0.0,
) -> bool:
    """Nullspace membership: omega(A* A) vanishes relative to ||A||^2.

    `scale` optionally widens the reference when A itself is a residual of
    a larger computation (so numerical noise is not misclassified).
    """
    value = evaluate(omega, A.adjoint() @ A).real
    return tol.nullspace(value, max(A.norm(), scale)).ok


def hs_inner(a: AlgebraElement, b: AlgebraElement) -> complex:
    """Hilbert-Schmidt pairing sum_x tr(a_x^* b_x)."""
    a._check_peer(b)
    return complex(sum(np.trace(dagger(x) @ y) for x, y in zip(a.blocks, b.blocks)))


def matrix_power_it(M: np.ndarray, t: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """M^{it} = exp(it log M) on the support; zero off the support."""
    return herm_fun(M, lambda w: np.exp(1j * t * np.log(w)), tol)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(random_complex(rng, d, d))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def hermitian_floor(C: np.ndarray) -> tuple[float, float]:
    """(low, radius): the least eigenvalue of the Hermitian part of C (at most
    0) less the Hermiticity defect, and the largest |eigenvalue|, from one
    dense decomposition of C. Both are NaN when C is not finite, so that a
    PSD test against them fails."""
    H, defect = hermitian_split(C)
    if not math.isfinite(defect):
        return np.nan, np.nan
    w = np.linalg.eigvalsh(H)
    return float(w.min(initial=0.0)) - defect, float(np.abs(w).max(initial=0.0))


def dense_ucp(F: LinearMap, tol: Tolerances = DEFAULT_TOL) -> UcpVerdict:
    """The UCP verdict of F from one dense eigendecomposition of each Choi
    block, not kept on F: cp judges the least eigenvalue of each block less
    its Hermiticity defect (`hermitian_floor`) against the largest
    |eigenvalue| of the blocks, and unital the largest ||sum_y F_xy(1) - 1||,
    at the thresholds `is_ucp` applies."""
    blocks = [(x, y) for x in range(F.target.n_blocks) for y in range(F.source.n_blocks)]
    floors = [hermitian_floor(F.choi_block(x, y)) for x, y in blocks]
    lows = np.array([low for low, _ in floors])
    # argmin picks the first NaN if there is one, and then cp fails
    k = int(np.argmin(lows))
    cp = tol.psd(float(lows[k]), max([0.0, *(radius for _, radius in floors)]))
    unital_res = max(
        np.linalg.norm(sum(np.einsum("iaib->ab", T) for T in row) - np.eye(m))
        for row, m in zip(F.tensors, F.target.block_dims)
    )
    unital = tol.close(float(unital_res), max(1.0, max(F.target.block_dims) ** 0.5))
    return UcpVerdict(cp=cp, unital=unital, witness_block=blocks[k])


def hs_adjoint(F: LinearMap) -> LinearMap:
    """The adjoint F* of F for the Hilbert-Schmidt pairing, from F's block
    tensors: F*_yx(E_ab)_ij = conj(F_xy(E_ij)_ab), so tr(X* F(B)) =
    tr(F*(X)* B) for all X and B, and tr(X F(B)) = tr(F*(X) B) for a
    *-preserving F."""
    tensors = [
        [np.conj(F.tensors[x][y].transpose(1, 0, 3, 2)) for x in range(F.target.n_blocks)]
        for y in range(F.source.n_blocks)
    ]
    return LinearMap(F.target, F.source, tensors)


def dense_bayes_maps(F: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL):
    """(GL, GR, choi_A, choi_B), read from the dense adjoint `hs_adjoint(F)` by
    einsum: the left and right Bayes maps G^L = sigma-hat F*(rho .) and
    G^R = F*(. rho) sigma-hat, with sigma-hat the pseudoinverse of the
    pulled-back weighted density, and per pair (x, y) the Choi matrices of
    the corner block G^L(E) P_xi and of the forced rows G^L(E)(1 - P_xi)."""
    xi = pullback(omega, F, tol)
    sup_x = support(xi, tol)
    Fs = hs_adjoint(F)
    GL = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    GR = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    choi_A, choi_B = {}, {}
    for x, m in enumerate(F.target.block_dims):
        rho = omega.weighted_density(x)
        for y, n in enumerate(F.source.block_dims):
            Ta, shat, P = Fs.tensors[y][x], sup_x.calculus(y, np.reciprocal), sup_x.projection.blocks[y]
            # [p, a, q, b] = G(E_pq)_ab, and rho E_pq = sum_r rho[r, p] E_rq
            GL[y][x] = np.einsum("rp,ac,rcqb->paqb", rho, shat, Ta)
            GR[y][x] = np.einsum("qr,pcrd,db->pcqb", rho, Ta, shat)
            choi_A[(x, y)] = np.einsum("paqd,db->paqb", GL[y][x], P).reshape(m * n, m * n)
            choi_B[(x, y)] = np.einsum("paqd,db->paqb", GL[y][x], np.eye(n) - P).reshape(m * n, m * n)
    return (LinearMap(F.target, F.source, GL), LinearMap(F.target, F.source, GR),
            choi_A, choi_B)


def dense_extension(F: LinearMap, omega: State, choi_A, choi_B, tol: Tolerances = DEFAULT_TOL):
    """(trace_blocks, tensors): the compressed masses sum_x tr_x(B* A-hat B)
    of the forced rows, Hermitian, per weighted source block, and the block
    tensors of the uniform-split extension built from the per-pair Choi
    blocks (`dense_bayes_maps`), each A-hat the pseudoinverse of the
    Hermitian part of A as a dense (m n) x (m n) matrix, which inverts its
    eigenvalues above the rank cutoff of its largest."""
    xi = pullback(omega, F, tol)
    P_xi = support(xi, tol).projection.blocks
    tgt_dims = F.target.block_dims
    w_x = np.array(tgt_dims, dtype=float)
    w_x /= w_x.sum()
    trace_blocks = {}
    tensors = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    for y, n_y in enumerate(F.source.block_dims):
        if xi.weights[y] <= 0.0:
            for x, m_x in enumerate(tgt_dims):
                tensors[y][x] = np.einsum("ij,ab->iajb", np.eye(m_x), np.eye(n_y)) * (w_x[x] / m_x)
            continue
        total = np.zeros((n_y, n_y), dtype=complex)
        sandwich = {}
        for x, m_x in enumerate(tgt_dims):
            # the eigenvalues of A's Hermitian part above its rank cutoff, inverted
            w, V = np.linalg.eigh((choi_A[(x, y)] + dagger(choi_A[(x, y)])) / 2)
            keep = w > tol.rank_cutoff(float(w.max(initial=0.0)))
            A_hat = (V[:, keep] / w[keep]) @ dagger(V[:, keep])
            sandwich[x] = dagger(choi_B[(x, y)]) @ A_hat @ choi_B[(x, y)]
            total += partial_trace_left(sandwich[x], m_x, n_y)
        trace_blocks[y] = (total + dagger(total)) / 2
        delta = np.eye(n_y) - P_xi[y] - trace_blocks[y]
        dw, dV = np.linalg.eigh((delta + dagger(delta)) / 2)
        delta_psd = (dV * np.clip(dw, 0.0, None)) @ dagger(dV)
        for x, m_x in enumerate(tgt_dims):
            D_mat = sandwich[x] + np.kron(np.diag(np.full(m_x, 1.0 / m_x) * w_x[x]), delta_psd)
            B_mat = choi_B[(x, y)]
            C = choi_A[(x, y)] + B_mat + dagger(B_mat) + D_mat
            tensors[y][x] = C.reshape(m_x, n_y, m_x, n_y)
    return trace_blocks, tensors


def support_map(analysis) -> LinearMap:
    """Ad_{P_xi} o G^L of a battery, read from the dense adjoint of its map
    (`dense_bayes_maps`)."""
    F = analysis.F
    choi_A = dense_bayes_maps(F, analysis.omega, analysis.tol)[2]
    tensors = [
        [choi_A[(x, y)].reshape(m, n, m, n) for x, m in enumerate(F.target.block_dims)]
        for y, n in enumerate(F.source.block_dims)
    ]
    return LinearMap(F.target, F.source, tensors)


def petz_map(F: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL) -> LinearMap:
    """The Petz map Ad_sqrt(sigma-hat) o F* o Ad_sqrt(rho) of F and omega,
    sigma-hat the pseudoinverse of the pulled-back weighted density:
    G_yx(E_pq) = s F*_yx(r E_pq r) s with r = (p_x rho_x)^{1/2} and
    s = sigma-hat_y^{1/2}, where F*_yx(X)_ij = tr(F_xy(E_ij)* X)."""
    xi = pullback(omega, F, tol)
    tensors = []
    for y, n in enumerate(F.source.block_dims):
        s = herm_fun(xi.weighted_density(y), lambda w: 1.0 / np.sqrt(w), tol)
        row = []
        for x, m in enumerate(F.target.block_dims):
            r = herm_fun(omega.weighted_density(x), np.sqrt, tol)
            row.append(np.einsum("iajb,ap,qb,ki,jl->pkql", F.tensors[x][y].conj(), r, r, s, s))
        tensors.append(row)
    return LinearMap(F.target, F.source, tensors)


def dense_battery(F: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL):
    """(residuals, scale) of the Bayes battery read from F's block
    tensors by einsum, each pair's map E |-> L F*(A E B) R (L F(A E B) R for
    (v)) built whole: by condition name, the residuals of (i) to (v) and of
    the forced-row part of (vi) as the battery judges them against scale,
    and (-low, radius) of the dense CP floor (vii)."""
    xi = pullback(omega, F, tol)
    sup_o, sup_x = support(omega, tol), support(xi, tol)
    res = dict.fromkeys((
        "right_map_star_preserving", "left_equals_right", "choi_hermitian",
        "adjoint_sandwich_symmetry", "density_intertwining", "off_support_vanishing",
    ), 0.0)
    scale, low, radius = 1.0, 0.0, 0.0
    for x, m in enumerate(F.target.block_dims):
        for y, n in enumerate(F.source.block_dims):
            T, rho, P_om = F.tensors[x][y], omega.weighted_density(x), sup_o.projection.blocks[x]
            sig, P = xi.weighted_density(y), sup_x.projection.blocks[y]
            shat, one = sup_x.calculus(y, np.reciprocal), np.eye(m)

            def adj(A, B, L, R):   # the Choi matrix of E |-> L F*(A E B) R
                G = np.einsum("ki,jl,ac,ckdl,db->iajb", A, B, L, T.conj(), R)
                return G.reshape(m * n, m * n)

            def fwd(A, B, L, R):   # [i, j] = L F(A E_ij B) R
                return np.einsum("ki,jl,ac,kcld,db->ijab", A, B, L, T, R)

            KL, KR = adj(rho, one, shat, P), adj(one, rho, P, shat)
            lhs5, rhs5 = fwd(sig @ P, P, one, rho), fwd(P, P @ sig, rho, one)
            unit_norms = [np.linalg.norm(M, axis=(2, 3)).max() for M in (lhs5, rhs5, lhs5 - rhs5)]
            scale = max(scale, np.abs(KL).max(), np.abs(KR).max(), *unit_norms[:2])
            for name, value in (
                ("right_map_star_preserving", np.abs(KR.conj().T - KR).max()),
                ("left_equals_right", np.abs(KL - KR).max()),
                ("choi_hermitian", np.linalg.norm(KL - KL.conj().T)),
                ("adjoint_sandwich_symmetry",
                 np.abs(adj(rho, one, P, sig) - adj(one, rho, sig, P)).max()),
                ("density_intertwining", unit_norms[2]),
                ("off_support_vanishing", np.abs(adj(rho, one - P_om, shat, P)).max()),
            ):
                res[name] = max(res[name], float(value))
            floor, top = hermitian_floor(KR)
            low, radius = min(low, floor), max(radius, top)
    res["right_map_cp"] = (0.0 - low, radius)
    return res, float(scale)
