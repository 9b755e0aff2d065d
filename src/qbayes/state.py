"""States on multi-matrix algebras and their support (corner) reductions.

A state is a convex combination of block states: weights p_x >= 0 summing
to one, and one unit-trace PSD density per block with p_x > 0. Blocks with
p_x = 0 carry no density. The support projection, the compressed corner
algebra, and the compress/lift maps between them live here.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import AlgebraElement, MultiMatrixAlgebra, memo
from .errors import NegativeEigenvalue, NotHermitian, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    dagger,
    frobenius,
    hermitian_eigen,
    is_hermitian,
)


@dataclass(frozen=True)
class State:
    """The functional A -> sum_x p_x tr(rho_x A_x). The weights (nonnegative,
    summing to one), the densities' Hermiticity and their traces are judged
    at tol, which is not kept."""

    algebra: MultiMatrixAlgebra
    weights: tuple[float, ...]
    densities: tuple[Optional[np.ndarray], ...]
    tol: InitVar[Tolerances] = DEFAULT_TOL

    def __post_init__(self, tol: Tolerances):
        if len(self.weights) != self.algebra.n_blocks:
            raise ShapeMismatch("one weight per block required")
        if len(self.densities) != self.algebra.n_blocks:
            raise ShapeMismatch("one density slot per block required")
        weights = tuple(float(p) for p in self.weights)
        object.__setattr__(self, "weights", weights)
        # written with the rule, so that a NaN weight fails
        if not tol.close(np.negative(weights)):
            raise ShapeMismatch(f"negative or NaN weight in {weights}")
        if not tol.close(abs(sum(weights) - 1.0)):
            raise ShapeMismatch(f"weights sum to {sum(weights)}, expected 1")
        dens = []
        for x, (d, p, rho) in enumerate(
            zip(self.algebra.block_dims, weights, self.densities)
        ):
            if p <= 0.0:
                dens.append(None)
                continue
            if rho is None:
                raise ShapeMismatch(f"block {x} has weight {p} but no density")
            rho = np.asarray(rho, dtype=complex)
            if rho.shape != (d, d):
                raise ShapeMismatch(f"density shape {rho.shape} != ({d}, {d})")
            if not is_hermitian(rho, tol):
                raise NotHermitian(f"density in block {x} is not Hermitian", block=x)
            if not tol.close(abs(np.trace(rho).real - 1.0)):
                raise ShapeMismatch(
                    f"density in block {x} has trace {np.trace(rho).real}"
                )
            dens.append(rho)
        object.__setattr__(self, "densities", tuple(dens))

    def weighted_density(self, x: int) -> np.ndarray:
        """p_x * rho_x, the zero matrix when the block carries no weight."""
        d = self.algebra.block_dims[x]
        if self.densities[x] is None:
            return np.zeros((d, d), dtype=complex)
        return self.weights[x] * self.densities[x]


def evaluate(omega: State, A: AlgebraElement) -> complex:
    """omega(A) = sum_x p_x tr(rho_x A_x)."""
    if A.algebra.block_dims != omega.algebra.block_dims:
        raise ShapeMismatch("element does not belong to the state's algebra")
    total = 0.0 + 0.0j
    for x, rho in enumerate(omega.densities):
        if rho is not None:
            total += omega.weights[x] * np.trace(rho @ A.blocks[x])
    return complex(total)


@dataclass(frozen=True)
class SupportData:
    """Support projection plus the compressed corner algebra of a state.

    isometries[x] is an m_x x r_x matrix whose columns span the support of
    p_x rho_x (None when the block is cut entirely); for full-rank blocks it
    is the identity, so compress is literally a re-indexing for faithful
    states. kept[k] is the ambient block index of corner block k.
    spectra[x] holds the kept eigenpairs (eigenvalues descending, eigenvector
    columns) of p_x rho_x, both empty when the block is cut. Every function
    of a density is read from them, so the support is decided here alone.
    """

    state: State
    projection: AlgebraElement
    corner_algebra: MultiMatrixAlgebra
    isometries: tuple[Optional[np.ndarray], ...]
    kept: tuple[int, ...]
    spectra: tuple[tuple[np.ndarray, np.ndarray], ...]

    def calculus(self, x: int, f) -> np.ndarray:
        """V f(w) V* on the kept eigenpairs (w, V) of block x: f of p_x rho_x on
        its support, the zero matrix off it. f may add leading axes to w, and
        the result carries them."""
        w, V = self.spectra[x]
        return (V * f(w)[..., None, :]) @ dagger(V)

    def is_full(self) -> bool:
        return len(self.kept) == self.state.algebra.n_blocks and all(
            V.shape[0] == V.shape[1] for V in self.isometries if V is not None
        )

    def compress(self, A: AlgebraElement) -> AlgebraElement:
        """Corner coordinates of P A P."""
        if A.algebra.block_dims != self.state.algebra.block_dims:
            raise ShapeMismatch("element does not belong to the ambient algebra")
        blocks = tuple(
            dagger(self.isometries[x]) @ A.blocks[x] @ self.isometries[x]
            for x in self.kept
        )
        return AlgebraElement(self.corner_algebra, blocks)

    def lift(self, C: AlgebraElement) -> AlgebraElement:
        """Non-unital inclusion of a corner element back into the ambient algebra."""
        if C.algebra.block_dims != self.corner_algebra.block_dims:
            raise ShapeMismatch("element does not belong to the corner algebra")
        blocks = [
            np.zeros((d, d), dtype=complex) for d in self.state.algebra.block_dims
        ]
        for k, x in enumerate(self.kept):
            V = self.isometries[x]
            blocks[x] = V @ C.blocks[k] @ dagger(V)
        return AlgebraElement(self.state.algebra, tuple(blocks))

    def restricted_state(self) -> State:
        """The induced faithful state on the corner algebra."""
        weights = []
        densities = []
        for x in self.kept:
            V = self.isometries[x]
            rho_c = dagger(V) @ self.state.densities[x] @ V
            mass = float(np.trace(rho_c).real)
            weights.append(self.state.weights[x] * mass)
            densities.append(rho_c / mass)
        total = sum(weights)
        weights = [w / total for w in weights]
        return State(self.corner_algebra, tuple(weights), tuple(densities))


def support(omega: State, tol: Tolerances = DEFAULT_TOL) -> SupportData:
    """Support projection and corner data of a state.

    The rank cutoff is relative to the global maximum eigenvalue of the
    weighted densities p_x rho_x, so comparisons between blocks are
    meaningful. Each block is eigendecomposed once per state and tolerance;
    its kept eigenpairs are the spectra that `SupportData.calculus` reads.
    A block whose least eigenvalue lies below -max(eps_rank * its own largest,
    ABS_FLOOR) raises NegativeEigenvalue.
    """
    return SupportData(omega, *memo(omega, ("support", tol), lambda: _support(omega, tol)))


def _support(omega: State, tol: Tolerances) -> tuple:
    """The SupportData fields after `state`, which refer only to arrays."""
    alg = omega.algebra
    eigs = [hermitian_eigen(omega.weighted_density(x), tol) for x in range(alg.n_blocks)]
    lam_max = max(float(w.max(initial=0.0)) for w, _ in eigs)
    cutoff = tol.rank_cutoff(lam_max)

    proj_blocks = []
    isometries: list[Optional[np.ndarray]] = []
    spectra: list[tuple[np.ndarray, np.ndarray]] = []
    kept = []
    corner_dims = []
    for x, (d, (w, V)) in enumerate(zip(alg.block_dims, eigs)):
        psd = tol.support_psd(float(w.min(initial=0.0)), float(w.max(initial=0.0)))
        if not psd:
            raise NegativeEigenvalue(
                f"density in block {x} has eigenvalue {w.min():.3e} below {-psd.threshold:.3e}",
                block=x,
            )
        keep = w > cutoff
        V = V[:, keep][:, ::-1]
        spectra.append((w[keep][::-1], V))
        rank = V.shape[1]
        if rank == 0:
            proj_blocks.append(np.zeros((d, d), dtype=complex))
            isometries.append(None)
            continue
        if rank == d:
            V = np.eye(d, dtype=complex)  # faithful block: identity embedding
        proj_blocks.append(V @ dagger(V))
        isometries.append(V)
        kept.append(x)
        corner_dims.append(rank)
    if not kept:
        raise ShapeMismatch("state has empty support")
    return (
        AlgebraElement(alg, tuple(proj_blocks)),
        MultiMatrixAlgebra(tuple(corner_dims)),
        tuple(isometries),
        tuple(kept),
        tuple(spectra),
    )


def pullback(omega: State, F, tol: Tolerances = DEFAULT_TOL) -> State:
    """The state omega o F on the source of the map F.

    Computed through the predual action on weighted densities; weights and
    densities are renormalized per block, and blocks whose induced weight
    vanishes are dropped. Computed once per state, map and tolerance.
    """
    if F.target.block_dims != omega.algebra.block_dims:
        raise ShapeMismatch("state does not live on the channel's target")
    return memo(omega, ("pullback", F, tol), lambda: _pullback(omega, F, tol))


def _pullback(omega: State, F, tol: Tolerances) -> State:
    src = F.source
    raw = []
    for y, n_y in enumerate(src.block_dims):
        acc = np.zeros((n_y, n_y), dtype=complex)
        for x in range(F.target.n_blocks):
            rho_w = omega.weighted_density(x)
            if frobenius(rho_w) == 0.0:
                continue
            # predual component: tr(rho_w F_xy(B)) = tr(acc_xy B), with
            # acc[k, l] = sum_ab conj(T[k, a, l, b]) rho_w[a, b]: one product
            T = F.tensors[x][y].transpose(0, 2, 1, 3).reshape(n_y * n_y, -1)
            acc += (T @ rho_w.conj().reshape(-1)).conj().reshape(n_y, n_y)
        raw.append((acc + dagger(acc)) / 2)
    return state_from_weighted(src, raw, tol)


def state_from_weighted(
    alg: MultiMatrixAlgebra,
    weighted: Sequence[np.ndarray],
    tol: Tolerances = DEFAULT_TOL,
) -> State:
    """Build a State from unnormalized per-block PSD mass matrices."""
    masses = [max(float(np.trace(W).real), 0.0) for W in weighted]
    total = sum(masses)
    weights = []
    densities: list[Optional[np.ndarray]] = []
    for W, mass in zip(weighted, masses):
        if mass <= tol.rank_cutoff(max(masses)):
            weights.append(0.0)
            densities.append(None)
        else:
            weights.append(mass / total)
            densities.append(np.asarray(W, dtype=complex) / mass)
    return State(alg, tuple(weights), tuple(densities))
