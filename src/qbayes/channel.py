"""Linear maps and UCP channels between multi-matrix algebras.

A map F from B = (+)_y M_{n_y} to A = (+)_x M_{m_x} is stored blockwise as
tensors[x][y] of shape (n_y, m_x, n_y, m_x) with

    tensors[x][y][i, a, j, b] = F_xy(E_ij)_{ab},

where E_ij are the source matrix units of block y and F_xy is the component
of F from source block y into target block x. The Choi block of (x, y) puts
the source units on the left:

    choi(x, y) = sum_ij E_ij (x) F_xy(E_ij),

reshaped from the tensor with row index (i, a) and column index (j, b). The
map is completely positive iff every Choi block is PSD, and unital iff
sum_y F_xy(1_{n_y}) = 1_{m_x} for every x.

Maps are built in Kraus form (`from_kraus`, which also backs `from_hom` and
the identity) or by placing tensors directly, and tests over matrix units
are contractions of the stored tensors. `LinearMap.from_block_fn`, which
evaluates a callback on one matrix unit at a time, is the per-unit reference
constructor that the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import AlgebraElement, HomSpec, MultiMatrixAlgebra, memo
from .errors import (
    InternalInconsistency,
    NotCP,
    NotHermitian,
    ShapeMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    Verdict,
    _sq_frobenius,
    dagger,
    frobenius,
    hermitian_eigen,
    hermitian_floor,
    hermitian_split,
    partial_trace_left,
)
from .state import State, support


def _unit_rows(T: np.ndarray) -> np.ndarray:
    """The (n, m, n, m) tensor as an (n^2, m^2) matrix, unit (i, j) per row."""
    n, m = T.shape[:2]
    return T.transpose(0, 2, 1, 3).reshape(n * n, m * m)


class LinearMap:
    """A linear map between multi-matrix algebras, stored blockwise.

    No positivity or unitality is assumed; see `Channel` for validated UCP
    carriers. Instances are immutable by convention.
    """

    __slots__ = ("source", "target", "tensors")

    def __init__(self, source: MultiMatrixAlgebra, target: MultiMatrixAlgebra, tensors):
        self.source = source
        self.target = target
        checked = []
        for x, m_x in enumerate(target.block_dims):
            row = []
            for y, n_y in enumerate(source.block_dims):
                T = np.ascontiguousarray(tensors[x][y], dtype=complex)
                if T.shape != (n_y, m_x, n_y, m_x):
                    raise ShapeMismatch(
                        f"tensor ({x},{y}) has shape {T.shape}, "
                        f"expected {(n_y, m_x, n_y, m_x)}"
                    )
                row.append(T)
            checked.append(row)
        self.tensors = checked

    # -- construction -----------------------------------------------------

    @classmethod
    def from_block_fn(
        cls,
        source: MultiMatrixAlgebra,
        target: MultiMatrixAlgebra,
        fn: Callable[[int, int, np.ndarray], np.ndarray],
    ) -> "LinearMap":
        """Build tensors by evaluating fn(x, y, E_ij) on all source units."""
        tensors = []
        for x, m_x in enumerate(target.block_dims):
            row = []
            for y, n_y in enumerate(source.block_dims):
                T = np.zeros((n_y, m_x, n_y, m_x), dtype=complex)
                for i in range(n_y):
                    for j in range(n_y):
                        E = np.zeros((n_y, n_y), dtype=complex)
                        E[i, j] = 1.0
                        T[i, :, j, :] = fn(x, y, E)
                row.append(T)
            tensors.append(row)
        return cls(source, target, tensors)

    @classmethod
    def identity(cls, alg: MultiMatrixAlgebra) -> "LinearMap":
        return cls(alg, alg, identity_channel(alg).tensors)

    # -- basic operations --------------------------------------------------

    def apply(self, B: AlgebraElement) -> AlgebraElement:
        if B.algebra.block_dims != self.source.block_dims:
            raise ShapeMismatch("element does not belong to the map's source")
        blocks = []
        for x, m_x in enumerate(self.target.block_dims):
            out = np.zeros((m_x, m_x), dtype=complex)
            for y in range(self.source.n_blocks):
                out += np.einsum("iajb,ij->ab", self.tensors[x][y], B.blocks[y])
            blocks.append(out)
        return AlgebraElement(self.target, tuple(blocks))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self o other; other feeds into self."""
        if other.target.block_dims != self.source.block_dims:
            raise ShapeMismatch("maps are not composable")
        tensors = []
        for x in range(self.target.n_blocks):
            row = []
            for z in range(other.source.n_blocks):
                # out[(k, l), (a, b)] = sum_y other_yz[(k, l), (j, c)] self_xy[(j, c), (a, b)],
                # one gemm per intermediate block y
                out = _unit_rows(other.tensors[0][z]) @ _unit_rows(self.tensors[x][0])
                for y in range(1, self.source.n_blocks):
                    out += _unit_rows(other.tensors[y][z]) @ _unit_rows(self.tensors[x][y])
                n = other.source.block_dims[z]
                m = self.target.block_dims[x]
                out = out.reshape(n, n, m, m).transpose(0, 2, 1, 3)
                row.append(np.ascontiguousarray(out))
            tensors.append(row)
        return LinearMap(other.source, self.target, tensors)

    def hs_adjoint(self) -> "LinearMap":
        """Adjoint for the Hilbert-Schmidt / trace pairing.

        For a *-preserving map this is also the bilinear trace adjoint:
        tr(X F(B)) = tr(F*(X) B) for all X and B.
        """
        tensors = []
        for y in range(self.source.n_blocks):
            row = []
            for x in range(self.target.n_blocks):
                T = self.tensors[x][y]
                row.append(np.conj(np.transpose(T, (1, 0, 3, 2))))
            tensors.append(row)
        return LinearMap(self.target, self.source, tensors)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        if (
            other.source.block_dims != self.source.block_dims
            or other.target.block_dims != self.target.block_dims
        ):
            raise ShapeMismatch("maps have different shapes")
        tensors = [
            [self.tensors[x][y] - other.tensors[x][y] for y in range(self.source.n_blocks)]
            for x in range(self.target.n_blocks)
        ]
        return LinearMap(self.source, self.target, tensors)

    # -- Choi data ----------------------------------------------------------

    def choi_block(self, x: int, y: int) -> np.ndarray:
        n_y = self.source.block_dims[y]
        m_x = self.target.block_dims[x]
        return self.tensors[x][y].reshape(n_y * m_x, n_y * m_x)

    def choi_hermiticity_defect(self) -> float:
        """Largest ||C - C*||_F over the Choi blocks; NaN if any block holds a NaN."""
        return float(np.max([
            hermitian_split(self.choi_block(x, y))[1]
            for x in range(self.target.n_blocks)
            for y in range(self.source.n_blocks)
        ]))

    def distance(self, other: "LinearMap") -> tuple[float, float]:
        """The largest Frobenius norm of a block tensor of self - other, and the
        scale it is judged against: the largest of self's, or 1 if larger.
        The maps must have the same shape."""
        pairs = [(x, y) for x in range(self.target.n_blocks) for y in range(self.source.n_blocks)]
        diff = max(frobenius(self.tensors[x][y] - other.tensors[x][y]) for x, y in pairs)
        return diff, max(max(frobenius(self.tensors[x][y]) for x, y in pairs), 1.0)

    def close_to(self, other: "LinearMap", eps: float) -> bool:
        if (
            other.source.block_dims != self.source.block_dims
            or other.target.block_dims != self.target.block_dims
        ):
            return False
        diff, scale = self.distance(other)
        return diff <= eps * scale


class Channel(LinearMap):
    """A blockwise linear map whose Choi blocks are Hermitian.

    Hermitian Choi blocks are exactly the *-preserving maps; complete
    positivity and unitality are checked separately by `is_ucp`, so that
    non-UCP carriers (adjoints, differences) can still be worked with.
    """

    def __init__(self, source, target, tensors, *, tol: Tolerances = DEFAULT_TOL):
        super().__init__(source, target, tensors)
        defect = self.choi_hermiticity_defect()
        scale = max(
            (
                frobenius(self.tensors[x][y])
                for x in range(target.n_blocks)
                for y in range(source.n_blocks)
            ),
            default=1.0,
        )
        hermitian = tol.close(defect, max(scale, 1.0))
        # written so that a NaN or infinite entry fails
        if not (hermitian.ok and hermitian.threshold < np.inf):
            raise NotHermitian(
                f"Choi blocks deviate from Hermitian by {defect:.3e} "
                f"(threshold {hermitian.threshold:.3e})"
            )


def identity_channel(alg: MultiMatrixAlgebra) -> Channel:
    """The identity channel: one identity Kraus operator per diagonal block."""
    kraus = [
        [[np.eye(d)] if x == y else [] for y in range(alg.n_blocks)]
        for x, d in enumerate(alg.block_dims)
    ]
    return from_kraus(alg, alg, kraus)


def from_hom(h: HomSpec) -> Channel:
    """The channel of a standard-form unital *-homomorphism, built once per
    hom. Its Kraus operators are the slot isometries: copy r of source block
    j fills rows offset + r * n_j onwards of target block i, offset that of
    j in i."""
    return memo(h, "channel", lambda: _from_hom(h))


def _from_hom(h: HomSpec) -> Channel:
    kraus = [[[] for _ in h.source.block_dims] for _ in h.target.block_dims]
    for i, m_i in enumerate(h.target.block_dims):
        for j, offset, _ in h.sub_block_layout(i):
            n_j = h.source.block_dims[j]
            kraus[i][j] = [
                np.eye(m_i, n_j, -(offset + r * n_j))
                for r in range(h.multiplicities[i][j])
            ]
    return from_kraus(h.source, h.target, kraus)


def from_kraus(
    source: MultiMatrixAlgebra,
    target: MultiMatrixAlgebra,
    kraus,
) -> Channel:
    """Channel from Kraus operators, F_xy(B) = sum_k K B K^*.

    `kraus` is either a flat list of m x n matrices (both algebras single
    blocks) or a grid kraus[x][y] of lists of (m_x x n_y) matrices.
    """
    if source.n_blocks == 1 and target.n_blocks == 1 and kraus and isinstance(
        kraus[0], np.ndarray
    ):
        kraus = [[list(kraus)]]
    tensors = []
    for x, m_x in enumerate(target.block_dims):
        row = []
        for y, n_y in enumerate(source.block_dims):
            Ks = [np.asarray(K, dtype=complex) for K in kraus[x][y]]
            for K in Ks:
                if K.shape != (m_x, n_y):
                    raise ShapeMismatch(
                        f"Kraus operator shape {K.shape} != ({m_x}, {n_y})"
                    )
            # T[i, a, j, b] = sum_k K_k[a, i] conj(K_k[b, j]), one product over k
            A = np.array(Ks).reshape(len(Ks), m_x, n_y).transpose(0, 2, 1)
            A = A.reshape(len(Ks), n_y * m_x)                      # [k, (i, a)]
            row.append((A.T @ A.conj()).reshape(n_y, m_x, n_y, m_x))
        tensors.append(row)
    return Channel(source, target, tensors)


def compose(F: LinearMap, G: LinearMap) -> LinearMap:
    """F o G. Preserves Channel-ness when both are channels."""
    out = F.compose(G)
    if isinstance(F, Channel) and isinstance(G, Channel):
        return Channel(out.source, out.target, out.tensors)
    return out


def hs_adjoint(F: LinearMap) -> LinearMap:
    return F.hs_adjoint()


@dataclass(frozen=True)
class UcpVerdict:
    """Outcome of the UCP test: cp judges the least Choi eigenvalue, found in
    witness_block, and unital the largest ||sum_y F_xy(1) - 1||."""

    cp: Verdict
    unital: Verdict
    witness_block: Optional[tuple[int, int]]

    ok = property(lambda self: self.cp.ok and self.unital.ok)
    cp_ok = property(lambda self: self.cp.ok)
    unital_ok = property(lambda self: self.unital.ok)
    min_choi_eigenvalue = property(lambda self: 0.0 - self.cp.residual)

    def __bool__(self) -> bool:
        return self.ok


def is_ucp(F: LinearMap, tol: Tolerances = DEFAULT_TOL) -> UcpVerdict:
    """Complete positivity (all Choi blocks PSD) plus unitality."""
    blocks = [(x, y) for x in range(F.target.n_blocks) for y in range(F.source.n_blocks)]
    lows = np.empty(len(blocks))
    lam_max = 0.0
    for k, (x, y) in enumerate(blocks):
        lows[k], radius = hermitian_floor(F.choi_block(x, y))
        lam_max = max(lam_max, radius)
    # argmin picks the first NaN if there is one, and then cp fails
    k = int(np.argmin(lows))
    cp = tol.psd(float(lows[k]), lam_max)

    unital_res = 0.0
    for x, m_x in enumerate(F.target.block_dims):
        img = sum(
            partial_trace_left(F.choi_block(x, y), n, m_x)
            for y, n in enumerate(F.source.block_dims)
        )
        unital_res = max(unital_res, frobenius(img - np.eye(m_x)))
    unital = tol.close(unital_res, max(1.0, max(F.target.block_dims) ** 0.5))
    return UcpVerdict(cp=cp, unital=unital, witness_block=blocks[k])


def _map_scale(D: LinearMap) -> float:
    """Largest image norm over matrix units; reference scale for residuals."""
    worst = max(
        float(_sq_frobenius(T.transpose(0, 2, 1, 3)).max()) for row in D.tensors for T in row
    )
    return max(float(np.sqrt(worst)), 1.0)


def ae_equal(
    F: LinearMap,
    G: LinearMap,
    omega: State,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Almost-everywhere equality of F and G with respect to omega.

    Primary check: omega(A (F - G)(B)) vanishes over all matrix-unit pairs.
    Cross-check: every (F - G)(B) lies in the nullspace of omega. The two
    are provably equivalent; a numerical disagreement raises
    InternalInconsistency.
    """
    D = F - G
    if omega.algebra.block_dims != D.target.block_dims:
        raise ShapeMismatch("state does not live on the maps' target algebra")
    scale = _map_scale(D)

    worst = 0.0
    for x in range(D.target.n_blocks):
        rho_w = omega.weighted_density(x)
        if frobenius(rho_w) == 0.0:
            continue
        for y in range(D.source.n_blocks):
            # omega(E_ij D(E_kl)) = p_x (D(E_kl) rho)_{ji}, at [k, j, l, i]
            W = D.tensors[x][y].reshape(-1, rho_w.shape[0]) @ rho_w
            worst = max(worst, float(np.abs(W).max(initial=0.0)))
    verdict_pairing = tol.close(worst, scale).ok

    # omega((D E)* (D E)) = sum_x tr((D_xy(E) p_x rho_x) D_xy(E)*) for every unit E
    # of block y, set against ||D E||^2 as `in_nullspace` does for one element
    verdict_nullspace = True
    for y in range(D.source.n_blocks):
        value = 0.0
        sq_norm = 0.0
        for x, m_x in enumerate(D.target.block_dims):
            T = D.tensors[x][y]  # [i, a, j, b] = D_xy(E_ij)_ab
            sq_norm = sq_norm + _sq_frobenius(T.swapaxes(1, 2))
            Trho = (T.reshape(-1, m_x) @ omega.weighted_density(x)).reshape(T.shape)
            dots = Trho.view(np.float64)[..., None, :] @ T.view(np.float64)[..., :, None]
            value = value + dots[..., 0, 0].sum(axis=1)
        verdict_nullspace &= tol.nullspace(value, np.maximum(np.sqrt(sq_norm), scale)).ok

    if verdict_pairing != verdict_nullspace:
        raise InternalInconsistency(
            "a.e.-equality conditions disagree: "
            f"pairing={verdict_pairing} nullspace={verdict_nullspace} "
            f"(pairing residual {worst:.3e})"
        )
    return verdict_pairing


def ae_deterministic(
    F: LinearMap,
    omega: State,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Multiplicativity of a UCP map F modulo the nullspace of omega.

    F must be UCP. Take a Stinespring form F = V* pi(.) V, Q = 1 - V V* and
    P the support of omega. Then F(B1 B2) P - F(B1) F(B2) P = V* pi(B1) Q
    pi(B2) V P, and the Kadison-Schwarz defect D(E) = F(E* E) - F(E)* F(E)
    satisfies P D(E) P = (Q pi(E) V P)* (Q pi(E) V P). So F is multiplicative
    modulo the nullspace iff P D(E) P = 0 for every matrix unit E, and
    E_ij* E_ij = E_jj. The defect is taken in the corner of each support
    isometry W: W* F(E_jj) W - (F(E_ij) W)* (F(E_ij) W), every unit at once.
    """
    if omega.algebra.block_dims != F.target.block_dims:
        raise ShapeMismatch("state does not live on the map's target algebra")
    sup = support(omega, tol)
    scale = _map_scale(F)
    worst = 0.0
    for x in sup.kept:
        W = sup.isometries[x]
        for T in F.tensors[x]:
            n = T.shape[0]
            FW = T.transpose(0, 2, 1, 3) @ W  # [i, j] = F_xy(E_ij) W
            defect = dagger(W) @ FW[range(n), range(n)] - FW.conj().swapaxes(-1, -2) @ FW
            worst = max(worst, float(_sq_frobenius(defect).max()))
    return tol.close(np.sqrt(worst), scale, scale).ok


@dataclass(frozen=True)
class StinespringFactor:
    """Dilation data of one target block: F_x = V* pi(.) V.

    pi is the standard multiplicity embedding of the source into a single
    matrix block of size d_x = sum_y r_xy n_y (r_xy = rank of the (x, y)
    Choi block), and V is a d_x x m_x isometry, V* V = identity_{m_x}.
    """

    target_index: int
    representation: HomSpec
    isometry: np.ndarray
    kraus: tuple[tuple[np.ndarray, ...], ...]


@dataclass(frozen=True)
class StinespringData:
    factors: tuple[StinespringFactor, ...]
    reconstruction_residual: float


def kraus_blocks(F: LinearMap, x: int, y: int, tol: Tolerances = DEFAULT_TOL):
    """Kraus operators of the (x, y) component from its Choi eigenbasis."""
    C = F.choi_block(x, y)
    n_y = F.source.block_dims[y]
    m_x = F.target.block_dims[x]
    eig = hermitian_eigen(C, tol)
    w, V = eig.eigenvalues, eig.eigenvectors
    lam_max = max(float(w.max(initial=0.0)), 0.0)
    if not tol.psd(float(w.min(initial=0.0)), lam_max):
        raise NotCP(f"Choi block ({x},{y}) has eigenvalue {w.min():.3e}")
    ops = []
    for idx in np.argsort(-w):
        if w[idx] <= tol.rank_cutoff(lam_max):
            continue
        vec = np.sqrt(w[idx]) * V[:, idx]
        ops.append(vec.reshape(n_y, m_x).T.copy())
    return ops


def stinespring(F: LinearMap, tol: Tolerances = DEFAULT_TOL) -> StinespringData:
    """Stinespring dilation per target block, from Choi eigendecompositions."""
    verdict = is_ucp(F, tol)
    if not verdict.cp_ok:
        raise NotCP(
            f"channel is not CP: Choi block {verdict.witness_block} has "
            f"eigenvalue {verdict.min_choi_eigenvalue:.3e}"
        )
    factors = []
    worst = 0.0
    for x, m_x in enumerate(F.target.block_dims):
        kraus_per_y = [kraus_blocks(F, x, y, tol) for y in range(F.source.n_blocks)]
        ranks = [len(ops) for ops in kraus_per_y]
        d_x = sum(r * n for r, n in zip(ranks, F.source.block_dims))
        if d_x == 0:
            raise NotCP(f"target block {x} receives the zero map")
        rep = HomSpec(F.source, MultiMatrixAlgebra((d_x,)), (tuple(ranks),))
        V = np.vstack(
            [dagger(K) for ops in kraus_per_y for K in ops]
        )
        factors.append(
            StinespringFactor(
                target_index=x,
                representation=rep,
                isometry=V,
                kraus=tuple(tuple(ops) for ops in kraus_per_y),
            )
        )
        # reconstruction on all source matrix units: pi(E_ij) = 1_r (x) E_ij in
        # the slot of block y, so V* pi(E_ij) V = sum_k Vy[k, i]^* Vy[k, j]
        offset = 0
        for y, n_y in enumerate(F.source.block_dims):
            Vy = V[offset : offset + ranks[y] * n_y].reshape(ranks[y], n_y * m_x)
            offset += ranks[y] * n_y
            recon = (dagger(Vy) @ Vy).reshape(n_y, m_x, n_y, m_x)  # [i, a, j, b]
            recon -= F.tensors[x][y]
            worst = max(worst, float(np.sqrt(_sq_frobenius(recon.swapaxes(1, 2)).max())))
    return StinespringData(factors=tuple(factors), reconstruction_residual=worst)
