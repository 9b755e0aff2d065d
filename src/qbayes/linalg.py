"""Dense complex-matrix kernel.

Hermitian spectral decomposition, support-restricted functional calculus,
Moore-Penrose pseudoinverse, and partial traces. All functions take and
return plain complex numpy arrays and never modify their inputs.

Kronecker products are `np.kron`'s, and the partial traces follow its index
convention: the LEFT factor is the multiplicity factor,
np.kron(A, B)[(i, k), (j, l)] = A[i, j] * B[k, l].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NegativeEigenvalue, NoConvergence, NotHermitian, ShapeMismatch

# Absolute fallback used whenever a relative threshold has a ~zero reference.
ABS_FLOOR = 1e-12
# Relative bound on the reconstruction defect of an eigendecomposition.
EPS_RECON = 1e-10


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


def failing(verdicts: dict[str, Verdict]) -> str:
    """The failing verdicts as 'name residual > threshold', or 'none'."""
    parts = [f"{k} {v.residual:.3e} > {v.threshold:.3e}" for k, v in verdicts.items() if not v.ok]
    return ", ".join(parts) or "none"


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the library, and the rules that
    judge a residual against them; each rule returns a Verdict.

    eps_rank : relative cutoff below which an eigenvalue counts as zero
    eps_eq   : relative Frobenius threshold for matrix equality
    """

    eps_rank: float = 1e-9
    eps_eq: float = 1e-8

    def __post_init__(self):
        for name in ("eps_rank", "eps_eq"):
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

    def negligible(self, n: int) -> float:
        """The eigenvalue at or below which any of n orthonormal eigen-directions
        together hold at most ABS_FLOOR / 2 in Frobenius norm, half the absolute
        floor of every rule: ABS_FLOOR / (2 sqrt(n)), for n >= 1."""
        return ABS_FLOOR / (2 * math.sqrt(max(n, 1)))

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
        """The PSD bound of the support calculus (`state.support`, `herm_fun`): a
        least eigenvalue `low` passes down to -max(eps_rank * lam_max,
        ABS_FLOOR), lam_max the largest eigenvalue or 0."""
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


def is_hermitian(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """||M - M*|| within eps_eq of ||M||, with an absolute fallback near zero."""
    diff = frobenius(M - dagger(M))
    return diff <= tol.eps_eq * frobenius(M) or diff <= ABS_FLOOR


def hermitian_eigen(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with M = V diag(w) V*, w ascending, for a Hermitian matrix M, with
    validated reconstruction."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {M.shape}")
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
    scale = max(frobenius(M), ABS_FLOOR)
    if frobenius((V * w) @ dagger(V) - H) > EPS_RECON * scale:
        raise NoConvergence("spectral reconstruction exceeded EPS_RECON")
    n = M.shape[0]
    if frobenius(dagger(V) @ V - np.eye(n)) > EPS_RECON * n:
        raise NoConvergence("eigenvector matrix is not unitary within EPS_RECON")
    return w, V


def support_eigen(
    M: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, V, keep): the eigenpairs of a PSD matrix M, as `hermitian_eigen`
    gives them, and the mask of its support (`support_mask`). A least
    eigenvalue below the support calculus' PSD bound raises
    NegativeEigenvalue."""
    w, V = hermitian_eigen(M, tol)
    psd = tol.support_psd(float(w.min(initial=0.0)), max(float(w.max(initial=0.0)), 0.0))
    if not psd:
        raise NegativeEigenvalue(
            f"eigenvalue {w.min():.3e} below the PSD bound -{psd.threshold:.3e}"
        )
    return w, V, support_mask(w, tol)


def support_mask(w: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The support of a PSD matrix with eigenvalues w: those above the rank
    cutoff of the largest (`Tolerances.rank_cutoff`)."""
    return w > tol.rank_cutoff(float(w.max(initial=0.0)))


def herm_fun(
    M: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Apply f to the spectrum of a PSD matrix, restricted to its support.

    Eigenvalues at or below the rank cutoff of the largest
    (`Tolerances.rank_cutoff`) are mapped to zero, so f is never evaluated
    off the support. Realizes sqrt(M), M^{it}, and general complex powers
    M^z on the support.
    """
    w, V, keep = support_eigen(M, tol)
    fw = np.zeros(len(w), dtype=complex)
    if np.any(keep):
        fw[keep] = f(w[keep])
    return (V * fw) @ dagger(V)


def pseudoinverse(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a Hermitian PSD matrix via support calculus."""
    return herm_fun(M, lambda w: 1.0 / w, tol)


def _split_indices(M: np.ndarray, k: int, n: int) -> np.ndarray:
    M = np.asarray(M)
    if M.shape != (k * n, k * n):
        raise ShapeMismatch(
            f"matrix of shape {M.shape} does not factor as ({k}*{n}, {k}*{n})"
        )
    return M.reshape(k, n, k, n)


def partial_trace_left(M: np.ndarray, k: int, n: int) -> np.ndarray:
    """Trace out the left (multiplicity, size-k) factor of a kn x kn matrix."""
    return np.einsum("iaib->ab", _split_indices(M, k, n))


def partial_trace_right(M: np.ndarray, k: int, n: int) -> np.ndarray:
    """Trace out the right (size-n) factor of a kn x kn matrix."""
    return np.einsum("iaja->ij", _split_indices(M, k, n))

