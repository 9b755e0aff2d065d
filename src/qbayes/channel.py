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
the identity), from Choi blocks (`from_choi`) or by placing tensors
directly, and tests over matrix units are contractions of the stored
tensors. Every map has one signed factor, read through `_factor`: the one it
carries (`LinearMap.kraus`, `LinearMap.negative`), or else the one read
once per tolerance from its Choi blocks. `kraus_factor` gives a map's Kraus
operators from it, and `is_ucp` judges a map once per tolerance by one rule:
complete positivity certified from its factor against its Choi blocks.
Hermiticity is judged only where Choi blocks enter from outside the program,
in `from_choi`: the certificate bounds ||C - C*||_F of every map it passes,
since PSD blocks are Hermitian. No map stores its adjoint: F* = sum_s K_s* .
K_s, so `bayesinv` builds the Bayes maps and the extension as products of
the factor's stacks.
`LinearMap.from_block_fn`, which evaluates a callback on one matrix unit at
a time, is the per-unit reference constructor that the tests compare
against.
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
    failing,
    frobenius,
    hermitian_eigen,
    hermitian_split,
    partial_trace_left,
    support_mask,
)
from .state import State, support


def _unit_rows(T: np.ndarray) -> np.ndarray:
    """The (n, m, n, m) tensor as an (n^2, m^2) matrix, unit (i, j) per row."""
    n, m = T.shape[:2]
    return T.transpose(0, 2, 1, 3).reshape(n * n, m * m)


def _sandwich(T: np.ndarray, A=None, B=None, L=None, R=None) -> np.ndarray:
    """The block tensor of E |-> L F(A E B) R, in the layout of T:

        [i, a, j, b] = sum_{k, l} A[k, i] B[j, l] (L F(E_kl) R)_ab,

    from the (n, m, n, m) block tensor T of F. A is (n, n'), B (n', n), L
    (m', m) and R (m, m'); None stands for the identity. The factors may
    carry matching leading axes, which the result carries in front. Each
    given factor is one matrix product on a reshaped view, applied in the
    order A, R, L, B, so at most two arrays the size of the result are alive
    at once. B contracts the third axis: it acts on a copy with the last two
    axes swapped, and its product is swapped back.
    """
    n1, m1, n2, m2 = T.shape
    lead = ()
    X = T
    if A is not None:   # [k, c, l, d] -> [i, c, l, d]
        X = A.swapaxes(-1, -2) @ X.reshape(n1, -1)
        lead, n1 = X.shape[:-2], X.shape[-2]
    if R is not None:   # [..., d] -> [..., b]
        X = X.reshape(*lead, -1, m2) @ R
        lead, m2 = X.shape[:-2], X.shape[-1]
    if L is not None:   # [i, c, ...] -> [i, a, ...]
        X = L[..., None, :, :] @ X.reshape(*lead, n1, m1, -1)
        lead, m1 = X.shape[:-3], X.shape[-2]
    if B is None:
        return X.reshape(*lead, n1, m1, n2, m2)
    X = X.reshape(*lead, n1, m1, n2, m2).swapaxes(-1, -2).reshape(*lead, -1, n2)  # [(i, a, b), l]
    X = X @ B.swapaxes(-1, -2)
    lead, n2 = X.shape[:-2], X.shape[-1]
    return np.ascontiguousarray(np.swapaxes(X.reshape(*lead, n1, m1, m2, n2), -1, -2))


class LinearMap:
    """A linear map between multi-matrix algebras, stored blockwise.

    No Hermiticity, positivity or unitality is assumed, so that non-UCP maps
    (adjoints, differences) can still be worked with: `is_ucp` judges a map,
    and `from_choi` judges whether Choi blocks given from outside are
    Hermitian.
    `kraus` and `negative` are the map's signed factor, from which `is_ucp`
    certifies it: read-only (r, m_x, n_y) stacks in the grid [x][y], each
    Choi block being sum K K* - sum N N*, passed by a constructor that knows
    one (else None). `negative`, None for a factor given without one, holds
    the negative eigen-directions of a map read from Choi blocks
    (`from_choi`), carried into the maps built from it. Instances are
    immutable by convention, and what is derived from one (the factor of a
    map that carries none, its Kraus operators, its UCP verdict) is kept on
    it through `memo`.
    """

    def __init__(
        self, source: MultiMatrixAlgebra, target: MultiMatrixAlgebra, tensors, *,
        kraus=None, negative=None,
    ):
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
        kraus, negative = (
            None if grid is None
            else [[np.ascontiguousarray(K, dtype=complex) for K in row] for row in grid]
            for grid in (kraus, negative)
        )
        _read_only(*(grid for grid in (kraus, negative) if grid is not None))
        self.kraus, self.negative = kraus, negative

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

    def distance(self, other: "LinearMap") -> tuple[float, float]:
        """The largest Frobenius norm of a block tensor of self - other, and the
        scale it is judged against: the largest of self's, or 1 if larger.
        The maps must have the same shape."""
        pairs = [(x, y) for x in range(self.target.n_blocks) for y in range(self.source.n_blocks)]
        diff = max(frobenius(self.tensors[x][y] - other.tensors[x][y]) for x, y in pairs)
        return diff, max(max(frobenius(self.tensors[x][y]) for x, y in pairs), 1.0)


def _read_only(*grids) -> None:
    """Mark every array of the given grids (iterables of rows of arrays)
    read-only: what is kept for later callers must not be written to."""
    for grid in grids:
        for row in grid:
            for T in row:
                T.setflags(write=False)


def _exact_zeros(C: np.ndarray, tol: Tolerances) -> None:
    """Set to 0.0, in place, each real or imaginary part (a -0.0 too) of a
    constructed channel's complex Choi block or block tensor C at or below
    `Tolerances.negligible` of its part count: the roundoff of the map's
    zeros, at most ABS_FLOOR / 2 of the block in Frobenius norm."""
    parts = C.view(np.float64)
    parts[np.abs(parts) <= tol.negligible(parts.size)] = 0.0


def identity_channel(alg: MultiMatrixAlgebra) -> LinearMap:
    """The identity channel: one identity Kraus operator per diagonal block."""
    kraus = [
        [[np.eye(d)] if x == y else [] for y in range(alg.n_blocks)]
        for x, d in enumerate(alg.block_dims)
    ]
    return from_kraus(alg, alg, kraus)


def from_hom(h: HomSpec) -> LinearMap:
    """The channel of a standard-form unital *-homomorphism, built once per
    hom. Its Kraus operators are the slot isometries: copy r of source block
    j fills rows offset + r * n_j onwards of target block i, offset that of
    j in i."""
    return memo(h, "channel", lambda: _from_hom(h))


def _from_hom(h: HomSpec) -> LinearMap:
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
) -> LinearMap:
    """The channel of Kraus operators, F_xy(B) = sum_k K B K^*, given as a grid
    kraus[x][y] of lists of (m_x x n_y) matrices."""
    tensors = []
    stacks = []
    for x, m_x in enumerate(target.block_dims):
        row = []
        stack_row = []
        for y, n_y in enumerate(source.block_dims):
            Ks = [np.asarray(K, dtype=complex) for K in kraus[x][y]]
            for K in Ks:
                if K.shape != (m_x, n_y):
                    raise ShapeMismatch(
                        f"Kraus operator shape {K.shape} != ({m_x}, {n_y})"
                    )
            stack = np.array(Ks, dtype=complex).reshape(len(Ks), m_x, n_y)
            stack_row.append(stack)
            # T[i, a, j, b] = sum_k K_k[a, i] conj(K_k[b, j]), one product over k
            A = stack.transpose(0, 2, 1).reshape(len(Ks), n_y * m_x)   # [k, (i, a)]
            row.append((A.T @ A.conj()).reshape(n_y, m_x, n_y, m_x))
        tensors.append(row)
        stacks.append(stack_row)
    return LinearMap(source, target, tensors, kraus=stacks)


def from_choi(
    source: MultiMatrixAlgebra, target: MultiMatrixAlgebra, tensors, tol: Tolerances = DEFAULT_TOL
) -> LinearMap:
    """The map of the given block tensors, judged Hermitian at tol, with the
    signed factor that `_choi_factor` reads at tol. Each Choi block is split
    into its Hermitian part once, for both: the largest ||C - C*||_F over the
    blocks must be close to 0 at the scale of their largest Frobenius norm (or
    1), and a NaN or an infinite entry fails."""
    F = LinearMap(source, target, tensors)
    parts = [
        [hermitian_split(F.choi_block(x, y)) for y in range(source.n_blocks)]
        for x in range(target.n_blocks)
    ]
    defect = float(np.max([d for row in parts for _, d in row]))
    scale = max(frobenius(T) for row in F.tensors for T in row)
    hermitian = tol.close(defect, max(scale, 1.0))
    # written so that a NaN or infinite entry fails
    if not (hermitian.ok and hermitian.threshold < np.inf):
        raise NotHermitian(
            f"Choi blocks deviate from Hermitian by {defect:.3e} "
            f"(threshold {hermitian.threshold:.3e})"
        )
    F.kraus, F.negative = _choi_factor(F, tol, parts)
    return F


def _choi_factor(F: LinearMap, tol: Tolerances, parts=None) -> tuple[list, list]:
    """(K, N), the signed factor of F read from one eigendecomposition of the
    Hermitian part of each Choi block, as read-only (r, m_x, n_y) stacks in the
    grid [x][y]: K the eigen-directions above the lesser of the rank cutoff and
    `Tolerances.negligible`, in descending eigenvalue, N those below
    -negligible, so that the directions left out hold at most ABS_FLOOR / 2 of
    a block in Frobenius norm. parts[x][y], when given, is the block's
    `hermitian_split`, else it is made here. A block that is not finite gets
    empty stacks, and its certificate reads NaN."""
    kraus, negative = ([[None] * F.source.n_blocks for _ in F.target.block_dims] for _ in range(2))
    for x, m_x in enumerate(F.target.block_dims):
        for y, n_y in enumerate(F.source.block_dims):
            H, defect = hermitian_split(F.choi_block(x, y)) if parts is None else parts[x][y]
            w, V = np.zeros(0), np.zeros((len(H), 0), dtype=complex)
            if np.isfinite(defect):
                w, V = np.linalg.eigh(H)
            negligible = tol.negligible(len(H))
            cut = min(tol.rank_cutoff(float(w.max(initial=0.0))), negligible)
            kraus[x][y] = _kraus_stack(w, V, n_y, m_x, cut)
            negative[x][y] = _kraus_stack(-w, V, n_y, m_x, negligible)
    _read_only(kraus, negative)
    return kraus, negative


def _factor(F: LinearMap, tol: Tolerances) -> tuple[list, Optional[list]]:
    """(L, N), the one signed factor of F, each Choi block being sum L L* -
    sum N N*: the map's `kraus` and `negative`, or, for a map that carries
    none, the one `_choi_factor` reads, once per tolerance and kept on F."""
    if F.kraus is not None:
        return F.kraus, F.negative
    return memo(F, ("factor", tol), lambda: _choi_factor(F, tol))


def kraus_factor(F: LinearMap, tol: Tolerances = DEFAULT_TOL):
    """The Kraus operators of each (x, y) pair of F as read-only (r, m_x, n_y)
    stacks, grid [x][y], from F's factor (`_factor`): the factor itself when
    it subtracts nothing (N is None), else, once per tolerance and kept on F,
    its operators that `_kept` keeps, those whose squared norm lies above the
    rank cutoff of the block's largest.
    Raises NotCP when the factor does not certify F CP at tol."""
    kraus, negative = _factor(F, tol)
    if negative is None:
        return kraus

    def cut():
        verdict = is_ucp(F, tol)
        if not verdict.cp:
            raise NotCP(f"the map's factor does not certify it CP: {verdict.failing()}")
        stacks = [[K[_kept(K, tol)] for K in row] for row in kraus]
        _read_only(stacks)
        return stacks

    return memo(F, ("kraus", tol), cut)


def _kept(K: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The mask of the operators of an (r, m, n) stack K that `kraus_factor`
    keeps from a factor that subtracts: those whose squared norm lies above
    the rank cutoff of the stack's largest, wherever they stand in K."""
    return support_mask(_sq_frobenius(K), tol)


def compose(F: LinearMap, G: LinearMap) -> LinearMap:
    """F o G, G feeding into F, without a factor."""
    if G.target.block_dims != F.source.block_dims:
        raise ShapeMismatch("maps are not composable")
    tensors = []
    for x in range(F.target.n_blocks):
        row = []
        for z in range(G.source.n_blocks):
            # out[(k, l), (a, b)] = sum_y G_yz[(k, l), (j, c)] F_xy[(j, c), (a, b)],
            # one gemm per intermediate block y
            out = _unit_rows(G.tensors[0][z]) @ _unit_rows(F.tensors[x][0])
            for y in range(1, F.source.n_blocks):
                out += _unit_rows(G.tensors[y][z]) @ _unit_rows(F.tensors[x][y])
            n = G.source.block_dims[z]
            m = F.target.block_dims[x]
            out = out.reshape(n, n, m, m).transpose(0, 2, 1, 3)
            row.append(np.ascontiguousarray(out))
        tensors.append(row)
    return LinearMap(G.source, F.target, tensors)


@dataclass(frozen=True)
class UcpVerdict:
    """Outcome of the UCP test: cp judges a lower bound of the least Choi
    eigenvalue, worst in witness_block, and unital the largest
    ||sum_y F_xy(1) - 1||."""

    cp: Verdict
    unital: Verdict
    witness_block: Optional[tuple[int, int]]

    ok = property(lambda self: self.cp.ok and self.unital.ok)

    def __bool__(self) -> bool:
        return self.ok

    def failing(self) -> str:
        """The failing parts as 'name residual > threshold', or 'none'."""
        return failing({
            f"complete positivity in block {self.witness_block}": self.cp,
            "unitality": self.unital,
        })


def is_ucp(F: LinearMap, tol: Tolerances = DEFAULT_TOL) -> UcpVerdict:
    """Complete positivity (all Choi blocks PSD) plus unitality, judged once per
    map and tolerance: the verdict is kept on the map.

    CP is certified from the map's one factor (`_factor`): with L and N the
    operators of a block as columns, Weyl's inequality bounds the least
    eigenvalue of the Choi block C below by lambda_min(L L* - N N*) -
    ||C - L L* + N N*||_F, so a wrong factor can only fail the test. No Choi
    block is eigendecomposed for the verdict, except once per tolerance to
    read the factor of a map that carries none."""
    return memo(F, ("ucp", tol), lambda: _ucp_verdict(F, tol))


def _ucp_verdict(F: LinearMap, tol: Tolerances) -> UcpVerdict:
    """The UCP verdict of F, its CP part from the certificate of its factor."""
    blocks = [(x, y) for x in range(F.target.n_blocks) for y in range(F.source.n_blocks)]
    lows, lam_max = _certificate(F, *_factor(F, tol), blocks)
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


def _certificate(F: LinearMap, kraus, negative, blocks) -> tuple[np.ndarray, float]:
    """(lows, radius) from the (r, m, n) stacks kraus[x][y] and negative[x][y]
    of F: for each Choi block C in blocks, low = lambda_min(L L* - N N*) -
    ||C - L L* + N N*||_F, with columns L[(i, a), k] = K_k[a, i] and N
    likewise, a lower bound of the least eigenvalue of C's Hermitian part (NaN
    when C is not finite); radius the largest eigenvalue of the blocks' L* L
    (L L* where r > m n), from one eigvalsh of the Gram matrices of each size.
    O((m n)^2 r) work a block."""
    lows, grams = [], {}
    for x, y in blocks:
        C, K = F.choi_block(x, y), kraus[x][y]
        Lt = K.transpose(0, 2, 1).reshape(len(K), len(C))   # [k, (i, a)]
        Lc = Lt.conj()
        D = Lt.T @ Lc
        gram = Lc @ Lt.T if len(K) <= len(C) else D.copy()
        grams.setdefault(len(gram), []).append(gram)
        D -= C
        floor = 0.0
        if negative is not None and len(negative[x][y]):
            Nt = negative[x][y].transpose(0, 2, 1).reshape(-1, len(C))
            D -= Nt.T @ Nt.conj()
            # L L* - N N* = Z J Z* with Z = [L, N] and J = diag(1, -1), whose
            # least eigenvalue, at most 0, is that of its compression
            J = np.diag(np.repeat([1.0, -1.0], [len(Lt), len(Nt)]))
            floor = min(float(_compressed_eigvalsh(np.vstack([Lt, Nt]).T, J).min()), 0.0)
        d = D.view(np.float64).ravel()
        lows.append(floor - float(np.sqrt(d @ d)))
    radii = [float(np.linalg.eigvalsh(np.array(g)).max(initial=0.0)) for g in grams.values()]
    return np.array(lows, dtype=float), max([0.0, *radii])


def _compressed_eigvalsh(Z: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The eigenvalues of R J R*, for Z = Q R with R of side min(Z's shape)
    by Z's column count: those of Z J Z*, J Hermitian, less zeros, from a
    matrix no wider than Z."""
    R = np.linalg.qr(Z, mode="r")
    return np.linalg.eigvalsh(R @ J @ dagger(R))


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
            W = _sandwich(D.tensors[x][y], R=rho_w)
            worst = max(worst, float(np.abs(W).max(initial=0.0)))
    verdict_pairing = tol.close(worst, scale).ok

    # omega((D E)* (D E)) = sum_x tr((D_xy(E) p_x rho_x) D_xy(E)*) for every unit E
    # of block y, set against ||D E||^2
    verdict_nullspace = True
    for y in range(D.source.n_blocks):
        value = 0.0
        sq_norm = 0.0
        for x in range(D.target.n_blocks):
            T = D.tensors[x][y]  # [i, a, j, b] = D_xy(E_ij)_ab
            sq_norm = sq_norm + _sq_frobenius(T.swapaxes(1, 2))
            Trho = _sandwich(T, R=omega.weighted_density(x))
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

    Decided once per state, map and tolerance, like `corner_map`: the verdict
    is kept on the state.
    """
    if omega.algebra.block_dims != F.target.block_dims:
        raise ShapeMismatch("state does not live on the map's target algebra")
    return memo(omega, ("deterministic", F, tol), lambda: _ae_deterministic(F, omega, tol))


def _ae_deterministic(F: LinearMap, omega: State, tol: Tolerances) -> bool:
    sup = support(omega, tol)
    scale = _map_scale(F)
    worst = 0.0
    for x in sup.kept:
        W = sup.isometries[x]
        for T in F.tensors[x]:
            n = T.shape[0]
            FW = _sandwich(T, R=W).swapaxes(1, 2)  # [i, j] = F_xy(E_ij) W
            defect = dagger(W) @ FW[range(n), range(n)] - FW.conj().swapaxes(-1, -2) @ FW
            worst = max(worst, float(_sq_frobenius(defect).max()))
    return tol.close(np.sqrt(worst), scale, scale).ok


def kraus_blocks(F: LinearMap, x: int, y: int, tol: Tolerances = DEFAULT_TOL):
    """Kraus operators of the (x, y) component from its Choi eigenbasis."""
    w, V = hermitian_eigen(F.choi_block(x, y), tol)
    w_max = max(float(w.max(initial=0.0)), 0.0)
    if not tol.psd(float(w.min(initial=0.0)), w_max):
        raise NotCP(f"Choi block ({x},{y}) has eigenvalue {w.min():.3e}")
    n_y, m_x = F.source.block_dims[y], F.target.block_dims[x]
    return list(_kraus_stack(w, V, n_y, m_x, tol.rank_cutoff(w_max)))


def _kraus_stack(w: np.ndarray, V: np.ndarray, n: int, m: int, floor: float) -> np.ndarray:
    """The (r, m, n) stack of Kraus operators sqrt(w_k) v_k, in descending w_k,
    of a Choi block with eigenpairs (w, V): K_k[a, i] = sqrt(w_k) v_k[(i, a)],
    for each w_k above floor."""
    order = np.argsort(-w)
    order = order[w[order] > floor]
    vecs = (V[:, order] * np.sqrt(w[order])).T
    return np.ascontiguousarray(vecs.reshape(len(order), n, m).swapaxes(1, 2))
