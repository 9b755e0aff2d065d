"""Brute-force semidefinite feasibility of the Bayes constraints.

A test oracle: alternating projections between the PSD cone of the
candidate inverse's Choi matrix and the affine set carved out by the forced
support rows, Hermiticity, and unitality. The library never calls this; it
certifies, independently of the inequality criterion, whether a UCP
Bayesian inverse exists for small single-block instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from qbayes.channel import LinearMap
from qbayes.errors import ShapeMismatch
from qbayes.linalg import (
    DEFAULT_TOL,
    Tolerances,
    dagger,
    frobenius,
    pseudoinverse,
)
from qbayes.state import State, pullback, support


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: Optional[bool]        # None when the evidence is inconclusive
    converged_distance: float
    pairing_residual: float
    unitality_residual: float
    min_choi_eigenvalue: float
    iterations: int


def bayes_feasibility(
    F: LinearMap,
    omega: State,
    tol: Tolerances = DEFAULT_TOL,
    max_iterations: int = 20000,
) -> FeasibilityResult:
    """Decide feasibility of {Choi(G) >= 0, G unital, Bayes pairing} by
    alternating projections, for single-block source and target.

    Verdicts: feasible when the final candidate satisfies every constraint
    within tolerance; infeasible when the projection gap stalls well above
    it; None in the narrow band between.
    """
    if F.source.n_blocks != 1 or F.target.n_blocks != 1:
        raise ShapeMismatch("feasibility oracle handles single-block algebras only")
    n = F.source.block_dims[0]
    m = F.target.block_dims[0]
    if max(m, n) > 5:
        raise ShapeMismatch("feasibility oracle is restricted to blocks of size <= 5")

    T = F.tensors[0][0]
    rho = omega.weighted_density(0)
    xi = pullback(omega, F, tol)
    sigma = xi.weighted_density(0)
    shat = pseudoinverse(sigma, tol)
    P_xi = np.asarray(support(xi, tol).projection.blocks[0])

    # forced rows: P_xi G(E_ij) = shat F*(rho E_ij)
    forced = np.einsum("uk,kalj,ai->ijul", shat, np.conj(T), rho)

    def affine_step(S: np.ndarray) -> np.ndarray:
        C = S.reshape(m * n, m * n)
        C = (C + dagger(C)) / 2
        S = C.reshape(m, n, m, n)
        for _ in range(2):  # row forcing breaks Hermiticity; interleave both
            for i in range(m):
                for j in range(m):
                    G_ij = S[i, :, j, :]
                    S[i, :, j, :] = G_ij - P_xi @ G_ij + forced[i, j]
            C = S.reshape(m * n, m * n)
            C = (C + dagger(C)) / 2
            S = C.reshape(m, n, m, n)
        for i in range(m):
            for j in range(m):
                G_ij = S[i, :, j, :]
                S[i, :, j, :] = G_ij - P_xi @ G_ij + forced[i, j]
        # unitality correction on the free rows
        unital_defect = sum(S[i, :, i, :] for i in range(m)) - np.eye(n)
        correction = (np.eye(n) - P_xi) @ unital_defect / m
        for i in range(m):
            S[i, :, i, :] = S[i, :, i, :] - correction
        return S

    def psd_step(S: np.ndarray) -> np.ndarray:
        C = S.reshape(m * n, m * n)
        C = (C + dagger(C)) / 2
        w, V = np.linalg.eigh(C)
        return ((V * np.clip(w, 0.0, None)) @ dagger(V)).reshape(m, n, m, n)

    rng = np.random.default_rng(0)
    S = 0.1 * (
        rng.standard_normal((m, n, m, n)) + 1j * rng.standard_normal((m, n, m, n))
    )
    distance = np.inf
    it = 0
    for it in range(1, max_iterations + 1):
        Sa = affine_step(S)
        Sp = psd_step(Sa)
        distance = frobenius((Sp - Sa).reshape(-1, 1))
        S = Sp
        if distance < tol.eps_eq * 1e-2:
            break

    # certify the PSD candidate directly against the defining constraints
    worst = 0.0
    for i in range(m):
        for j in range(m):
            E = np.zeros((m, m), dtype=complex)
            E[i, j] = 1.0
            for k in range(n):
                for l in range(n):
                    B = np.zeros((n, n), dtype=complex)
                    B[k, l] = 1.0
                    lhs = np.trace(sigma @ S[i, :, j, :] @ B)
                    rhs = np.trace(rho @ E @ np.einsum("iajb,ij->ab", T, B))
                    worst = max(worst, abs(lhs - rhs))
    unital_res = frobenius(sum(S[i, :, i, :] for i in range(m)) - np.eye(n))
    C = S.reshape(m * n, m * n)
    min_eig = float(np.linalg.eigvalsh((C + dagger(C)) / 2).min())

    satisfied = worst <= tol.eps_eq * 10 and unital_res <= tol.eps_eq * 10 and min_eig >= -tol.eps_eq
    if satisfied:
        verdict: Optional[bool] = True
    elif distance > 1e-4:
        verdict = False
    else:
        verdict = None
    return FeasibilityResult(
        feasible=verdict,
        converged_distance=float(distance),
        pairing_residual=float(worst),
        unitality_residual=float(unital_res),
        min_choi_eigenvalue=min_eig,
        iterations=it,
    )
