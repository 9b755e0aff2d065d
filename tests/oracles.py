"""Reference helpers that only the tests need.

Each one is small and independent of the library's kernels: the
Hilbert-Schmidt pairing of two algebra elements, the imaginary power of a
PSD matrix through the support functional calculus, and a Haar-like random
unitary.
"""

import numpy as np

from qbayes.algebra import AlgebraElement
from qbayes.generators import random_complex
from qbayes.linalg import DEFAULT_TOL, Tolerances, dagger, herm_fun


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
