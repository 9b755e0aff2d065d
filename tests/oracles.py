"""Reference helpers that only the tests need.

Each one is small and independent of the library's kernels: the matrix
units of an algebra, the standard-form image of an element under a hom,
nullspace membership under a state, the support and Petz maps of a
Bayes battery, the Hilbert-Schmidt pairing of two algebra elements, the imaginary power of a PSD matrix through the support
functional calculus, a Haar-like random unitary, and the dense UCP verdict
that reads every Choi block's least eigenvalue, the reference for
`is_ucp`'s certificate.
"""

from typing import Iterator

import numpy as np

from qbayes.algebra import AlgebraElement, HomSpec, MultiMatrixAlgebra
from qbayes.channel import LinearMap, UcpVerdict, _ucp_verdict
from qbayes.errors import ShapeMismatch
from qbayes.generators import random_complex
from qbayes.linalg import DEFAULT_TOL, Tolerances, dagger, herm_fun, hermitian_floor
from qbayes.state import State, evaluate, pullback


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


def dense_ucp(F: LinearMap, tol: Tolerances = DEFAULT_TOL) -> UcpVerdict:
    """The UCP verdict of F from one dense eigendecomposition of each Choi
    block (`hermitian_floor`: its least eigenvalue less its Hermiticity
    defect), not kept on F."""
    floors = [
        hermitian_floor(F.choi_block(x, y))
        for x in range(F.target.n_blocks)
        for y in range(F.source.n_blocks)
    ]
    return _ucp_verdict(F, tol, floors)


def support_map(analysis) -> LinearMap:
    """Ad_{P_xi} o G^L of a battery, read from its corner Choi blocks."""
    F = analysis.F
    tensors = [
        [analysis.choi_A[(x, y)].reshape(m, n, m, n) for x, m in enumerate(F.target.block_dims)]
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
