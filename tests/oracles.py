"""Reference helpers that only the tests need.

Each one is small and independent of the library's kernels: the
Hilbert-Schmidt pairing of two algebra elements, the imaginary power of a
PSD matrix through the support functional calculus, a Haar-like random
unitary, and the dense UCP verdict that reads every Choi block's least
eigenvalue, the reference for `is_ucp`'s certificate.
"""

import numpy as np

from qbayes.algebra import AlgebraElement
from qbayes.channel import LinearMap, UcpVerdict, _ucp_verdict
from qbayes.generators import random_complex
from qbayes.linalg import DEFAULT_TOL, Tolerances, dagger, herm_fun, hermitian_floor


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
