"""Dense complex-matrix kernel.

Hermitian spectral decomposition, support-restricted functional calculus,
Moore-Penrose pseudoinverse, Kronecker products, and partial traces. All
functions take and return plain complex numpy arrays and never modify their
inputs.

Index convention for Kronecker products and partial traces: the LEFT factor
is the multiplicity factor, kron(A, B)[(i, k), (j, l)] = A[i, j] * B[k, l].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NoConvergence,
    NotHermitian,
)

# Absolute fallback used whenever a relative threshold has a ~zero reference.
ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class Verdict:
    """One tolerance rule applied: ok iff residual <= threshold, so that a NaN
    fails. Where a rule is applied unit by unit, residual and threshold are
    arrays and ok is the conjunction of their comparisons."""

    residual: float
    threshold: float

    @property
    def ok(self) -> bool:
        passed = self.residual <= self.threshold
        return bool(passed.all() if isinstance(passed, np.ndarray) else passed)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the library, and the rules that
    judge a residual against them; each rule returns a Verdict.

    eps_rank : relative cutoff below which an eigenvalue counts as zero
    eps_eq   : relative Frobenius threshold for matrix equality
    eps_recon: spectral reconstruction bound for eigendecompositions
    """

    eps_rank: float = 1e-9
    eps_eq: float = 1e-8
    eps_recon: float = 1e-10

    def __post_init__(self):
        for name in ("eps_rank", "eps_eq", "eps_recon"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value}")

    def close(self, residual, scale=1.0, factor=1) -> Verdict:
        """A residual that should vanish, at eps_eq * scale * factor. A defect
        quadratic in a map of scale s is judged at close(r, s, s)."""
        return Verdict(residual, self.eps_eq * scale * factor)

    def rank_cutoff(self, lam_max: float) -> float:
        """The eigenvalue or block mass at or below which a value counts as zero,
        relative to the largest one, lam_max."""
        return self.eps_rank * max(lam_max, ABS_FLOOR)

    def psd(self, low, radius, factor=1) -> Verdict:
        """A matrix with least eigenvalue `low` and spectral radius `radius`
        counts as PSD while low >= -(factor * rank_cutoff(radius)) - ABS_FLOOR.
        The residual is 0.0 - low, which reads 0.0, never -0.0, for a zero."""
        return Verdict(0.0 - low, self.rank_cutoff(radius) * factor + ABS_FLOOR)

    def nullspace(self, value, norm) -> Verdict:
        """value = omega(A* A) against ||A|| = norm, floored at ABS_FLOOR:
        close(value, ref, ref) with ref the floored norm."""
        ref = np.maximum(norm, ABS_FLOOR)
        return self.close(value, ref, ref)

    def support_psd(self, low, lam_max) -> Verdict:
        """The PSD bound of the support calculus (`herm_fun`): a least eigenvalue
        `low` passes down to -max(eps_rank * lam_max, ABS_FLOOR), lam_max the
        largest eigenvalue or 0."""
        return Verdict(0.0 - low, max(self.eps_rank * max(lam_max, 0.0), ABS_FLOOR))


DEFAULT_TOL = Tolerances()


def dagger(A: np.ndarray) -> np.ndarray:
    return A.conj().T


def frobenius(A: np.ndarray) -> float:
    """np.linalg.norm(A) bit for bit: its dot products on the same flattening,
    without its dispatch over orders and axes."""
    x = np.asarray(A).ravel(order="K")
    sq = x.real.dot(x.real) + x.imag.dot(x.imag) if x.dtype.kind == "c" else x.dot(x)
    return float(np.sqrt(sq))


def _sq_frobenius(X: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of the matrices X[..., :, :]: one dot product
    per row of the float64 view of X, so no temporary the size of X is made.
    The last axis of X must be contiguous."""
    V = X.view(np.float64) if X.dtype.kind == "c" else X
    return (V[..., None, :] @ V[..., :, None])[..., 0, 0].sum(axis=-1)


def hermitian_split(C: np.ndarray) -> tuple[np.ndarray, float]:
    """The Hermitian part (C + C*)/2 and the defect ||C - C*||_F, built in one
    temporary the size of C. The defect is NaN when C holds a NaN."""
    D = C.conj().T
    D -= C
    defect = frobenius(D)
    D *= 0.5
    D += C
    return D, defect


def hermitian_floor(C: np.ndarray) -> tuple[float, float]:
    """(low, radius): the least eigenvalue of the Hermitian part of C (at most
    0) less the Hermiticity defect, and the largest |eigenvalue|. Both are NaN
    when C is not finite, so that a PSD test against them fails."""
    H, defect = hermitian_split(C)
    if not math.isfinite(defect):
        return np.nan, np.nan
    w = np.linalg.eigvalsh(H)
    return float(w.min(initial=0.0)) - defect, float(np.abs(w).max(initial=0.0))


def is_hermitian(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """||M - M*|| within eps_eq of ||M||, with an absolute fallback near zero."""
    diff = frobenius(M - dagger(M))
    return diff <= tol.eps_eq * frobenius(M) or diff <= ABS_FLOOR


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral data V diag(w) V* of a Hermitian matrix, w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ dagger(self.eigenvectors)


def hermitian_eigen(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix with validated reconstruction."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains NaN or Inf entries")
    if not is_hermitian(M, tol):
        raise NotHermitian(
            f"matrix deviates from Hermitian by {frobenius(M - dagger(M)):.3e}"
        )
    H = (M + dagger(M)) / 2
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(str(exc)) from exc
    eig = HermitianEigen(eigenvalues=w, eigenvectors=V)
    scale = max(frobenius(M), ABS_FLOOR)
    if frobenius(eig.reconstruct() - H) > tol.eps_recon * scale:
        raise NoConvergence("spectral reconstruction exceeded eps_recon")
    n = M.shape[0]
    if frobenius(dagger(V) @ V - np.eye(n)) > tol.eps_recon * n:
        raise NoConvergence("eigenvector matrix is not unitary within eps_recon")
    return eig


def herm_fun(
    M: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Apply f to the spectrum of a PSD matrix, restricted to its support.

    Eigenvalues at or below eps_rank * max(eigenvalue) are mapped to zero,
    so f is never evaluated off the support. Realizes sqrt(M), M^{it},
    and general complex powers M^z on the support.
    """
    eig = hermitian_eigen(M, tol)
    w, V = eig.eigenvalues, eig.eigenvectors
    wmax = max(float(w.max(initial=0.0)), 0.0)
    cutoff = tol.eps_rank * wmax
    if not tol.support_psd(float(w.min(initial=0.0)), wmax):
        raise NegativeEigenvalue(
            f"eigenvalue {w.min():.3e} below -eps_rank * lambda_max = {-cutoff:.3e}"
        )
    keep = w > cutoff
    fw = np.zeros(len(w), dtype=complex)
    if np.any(keep):
        fw[keep] = f(w[keep])
    return (V * fw) @ dagger(V)


def pseudoinverse(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a Hermitian PSD matrix via support calculus."""
    return herm_fun(M, lambda w: 1.0 / w, tol)


def matrix_sqrt(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    return herm_fun(M, np.sqrt, tol)


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor = multiplicity factor."""
    return np.kron(np.asarray(A), np.asarray(B))


def _split_indices(M: np.ndarray, k: int, n: int) -> np.ndarray:
    M = np.asarray(M)
    if M.shape != (k * n, k * n):
        raise DimensionMismatch(
            f"matrix of shape {M.shape} does not factor as ({k}*{n}, {k}*{n})"
        )
    return M.reshape(k, n, k, n)


def partial_trace_left(M: np.ndarray, k: int, n: int) -> np.ndarray:
    """Trace out the left (multiplicity, size-k) factor of a kn x kn matrix."""
    return np.einsum("iaib->ab", _split_indices(M, k, n))


def partial_trace_right(M: np.ndarray, k: int, n: int) -> np.ndarray:
    """Trace out the right (size-n) factor of a kn x kn matrix."""
    return np.einsum("iaja->ij", _split_indices(M, k, n))

