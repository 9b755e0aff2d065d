"""Bayesian inversion of state-preserving UCP maps.

`battery` evaluates seven independently computed conditions that are
provably equivalent; `existence` decides whether the support-determined
inverse extends to a full UCP Bayesian inverse and constructs it when it
does; `verify_bayes` is the brute-force oracle behind everything.

Throughout, the weighted densities p_x rho_x and q_y sigma_y are used, so
the single-block formulas extend per (target x, source y) pair without
extra bookkeeping: positive scalars cancel in every condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .algebra import MultiMatrixAlgebra, memo
from .channel import Channel, LinearMap, UcpVerdict, compose, identity_channel, is_ucp
from .errors import ExtensionFailure, InternalInconsistency, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    Verdict,
    _sq_frobenius,
    dagger,
    frobenius,
    hermitian_floor,
    matrix_sqrt,
    partial_trace_left,
    pseudoinverse,
)
from .modular import ac_condition_algebraic
from .state import State, pullback, support

BATTERY_CONDITIONS = (
    "right_map_star_preserving",
    "left_equals_right",
    "choi_hermitian",
    "adjoint_sandwich_symmetry",
    "density_intertwining",
    "off_support_vanishing",
    "right_map_cp",
)


@dataclass(frozen=True)
class PairInputs:
    """The operands of one (target x, source y) pair."""

    x: int
    y: int
    T: np.ndarray       # channel tensor of F_xy
    rho_w: np.ndarray   # p_x rho_x
    sig_w: np.ndarray   # q_y sigma_y
    shat_w: np.ndarray  # pseudoinverse of q_y sigma_y
    P_om: np.ndarray    # support projection of rho in block x
    P_xi: np.ndarray    # support projection of sigma in block y


@dataclass(frozen=True)
class PairData(PairInputs):
    """A pair's operands with its left and right Bayes tensors, indexed
    [i, j, k, l] as views of the layouts the matrix products write."""

    rawL: np.ndarray    # rawL[i,j] = F*(rho_w E_ij)
    rawR: np.ndarray    # rawR[i,j] = F*(E_ij rho_w)
    GL: np.ndarray      # GL[i,j] = shat_w rawL[i,j]
    GR: np.ndarray      # GR[i,j] = rawR[i,j] shat_w


def _pair_inputs(F: LinearMap, omega: State, xi: State, tol: Tolerances) -> Iterator[PairInputs]:
    sup_o = support(omega, tol)
    sup_x = support(xi, tol)
    P_om = [np.asarray(b) for b in sup_o.projection.blocks]
    P_xi = [np.asarray(b) for b in sup_x.projection.blocks]
    sig_ws = [xi.weighted_density(y) for y in range(F.source.n_blocks)]
    shat_ws = [pseudoinverse(sig_w, tol) for sig_w in sig_ws]
    for x in range(F.target.n_blocks):
        rho_w = omega.weighted_density(x)
        for y, (sig_w, shat_w) in enumerate(zip(sig_ws, shat_ws)):
            yield PairInputs(
                x=x, y=y, T=F.tensors[x][y], rho_w=rho_w, sig_w=sig_w, shat_w=shat_w,
                P_om=P_om[x], P_xi=P_xi[y],
            )


def _raw(p: PairInputs) -> tuple[np.ndarray, np.ndarray]:
    """rawL[i, j] = F*(rho_w E_ij) and rawR[i, j] = F*(E_ij rho_w) of a pair,
    one product each, in the unit layout of `_adjoint_on_units`."""
    n, m = p.T.shape[:2]
    Tc = p.T.conj()
    # F*(rho_w E_ij)_{kl} = sum_a conj(T[k,a,l,j]) rho_w[a,i]
    rawL = np.matmul(p.rho_w.T, Tc.reshape(n, m, n * m))   # [k, i, (l, j)]
    # F*(E_ij rho_w)_{kl} = sum_b conj(T[k,i,l,b]) rho_w[j,b]
    rawR = Tc.reshape(n * m * n, m) @ p.rho_w.T            # [(k, i, l), j]
    return tuple(Y.reshape(n, m, n, m).transpose(1, 3, 0, 2) for Y in (rawL, rawR))


def _pair_data(F: LinearMap, omega: State, xi: State, tol: Tolerances) -> list[PairData]:
    out = []
    for p in _pair_inputs(F, omega, xi, tol):
        rawL, rawR = _raw(p)
        one = np.eye(len(p.sig_w))
        GL, GR = _sandwich(p.shat_w, rawL, one), _sandwich(one, rawR, p.shat_w)
        out.append(PairData(**vars(p), rawL=rawL, rawR=rawR, GL=GL, GR=GR))
    return out


def _adjoint_on_units(T: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Y[i, j] = F*(left E_ij right) for every target unit E_ij, shape (m, m, n, n).

    F*(X)_kl = sum_ab conj(T[k, a, l, b]) X_ab with X_ab = left[a, i] right[j, b],
    contracted over a, then over b: two matrix products on the stored tensor.
    """
    n, m = T.shape[:2]
    Y = np.matmul(left.T, T.conj().reshape(n, m, n * m))  # [k, i, (l, b)]
    Y = Y.reshape(n * m * n, m) @ right.T                   # [(k, i, l), j]
    return Y.reshape(n, m, n, m).transpose(1, 3, 0, 2)


def _sandwich(L: np.ndarray, X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """L @ X[i, j] @ R for every i, j of an (m, m, n, n) stack, as two products
    over the whole stack. X is read in the unit layout [k, i, l, j] that
    `_raw` and `_adjoint_on_units` write; the result is a view of a
    Choi-layout [i, u, j, v] array."""
    m, _, n, _ = X.shape
    Y = (L @ X.transpose(2, 0, 3, 1).reshape(n, -1)).reshape(n, m, n, m)   # [u, i, l, j]
    Y = np.ascontiguousarray(Y.transpose(1, 0, 3, 2)).reshape(-1, n)       # [(i, u, j), l]
    return (Y @ R).reshape(m, n, m, n).transpose(0, 2, 1, 3)


def _source_sandwich(L: np.ndarray, T: np.ndarray, R: np.ndarray) -> np.ndarray:
    """[k, a, l, b] = F(L^T E_kl R)_ab = sum_uv L[k, u] R[l, v] T[u, a, v, b]
    on the source units of a block tensor T: one product per factor."""
    n, m = T.shape[:2]
    Y = (L @ T.reshape(n, -1)).reshape(n * m, n, m)   # [(k, a), v, b]
    return np.matmul(R, Y).reshape(n, m, n, m)


@dataclass(frozen=True)
class BayesAnalysis:
    """Battery outcome for one (channel, state) instance at tolerance tol."""

    F: LinearMap
    omega: State
    tol: Tolerances
    xi: State
    conditions: dict[str, Verdict]
    passed: bool
    choi_A: dict[tuple[int, int], np.ndarray]
    choi_B: dict[tuple[int, int], np.ndarray]
    support_map: Optional[LinearMap]   # Ad_{P_xi} o G^L when the battery passes
    petz_map: Optional[LinearMap]      # Ad_sqrt(sigma-hat) o F* o Ad_sqrt(rho)


def battery(F: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL) -> BayesAnalysis:
    """Evaluate the seven equivalent inversion conditions independently.

    The verdicts must agree; a disagreement beyond tolerance raises
    InternalInconsistency, because their equivalence is a theorem, not a
    numerical accident. The off-support condition is the conjunction of the
    forced-row vanishing with the corner intertwining test.

    Run once per state, map and tolerance, like `corner_map`: the outcome is
    kept on the state, keyed by the map's identity with the map held, and its
    arrays are read-only. A disagreement raises before anything is kept.
    """
    if omega.algebra.block_dims != F.target.block_dims:
        raise ShapeMismatch("state does not live on the channel's target algebra")
    _, fields = memo(omega, ("battery", id(F), tol), lambda: (F, _battery(F, omega, tol)))
    return BayesAnalysis(F, omega, tol, *fields)


def _battery(F: LinearMap, omega: State, tol: Tolerances) -> tuple:
    """The BayesAnalysis fields after F and omega."""
    xi = pullback(omega, F, tol)

    res = {name: 0.0 for name in BATTERY_CONDITIONS if name != "right_map_cp"}
    scale = 1.0
    choi_A: dict[tuple[int, int], np.ndarray] = {}
    choi_B: dict[tuple[int, int], np.ndarray] = {}
    cp_lam_max = 0.0
    cp_min_eig = 0.0

    # Each (m n)^2 array of a pair is dropped once the last condition that
    # reads it is scored; only the two Choi blocks outlive the pair.
    by_pair: dict[tuple[int, int], PairInputs] = {}
    for pd in _pair_inputs(F, omega, xi, tol):
        by_pair[(pd.x, pd.y)] = pd
        m = pd.rho_w.shape[0]
        n = pd.sig_w.shape[0]
        rawL, rawR = _raw(pd)
        # (iv) P F*(rho A) sigma = sigma F*(A rho) P on target units A
        lhs4 = _sandwich(pd.P_xi, rawL, pd.sig_w)
        rhs4 = _sandwich(pd.sig_w, rawR, pd.P_xi)
        lhs4 -= rhs4
        del rhs4
        res["adjoint_sandwich_symmetry"] = max(
            res["adjoint_sandwich_symmetry"], float(np.abs(lhs4).max(initial=0.0))
        )
        del lhs4
        # forced rows GL(E_ij)(1 - P) off the xi support, for the existence
        # stage, and the corner Choi matrix of GL(E_ij) P
        BB = _sandwich(pd.shat_w, rawL, np.eye(n) - pd.P_xi)
        choi_B[(pd.x, pd.y)] = BB.transpose(0, 2, 1, 3).reshape(m * n, m * n)
        KL = _sandwich(pd.shat_w, rawL, pd.P_xi)
        A_mat = choi_A[(pd.x, pd.y)] = KL.transpose(0, 2, 1, 3).reshape(m * n, m * n)
        del rawL, BB
        KR = _sandwich(pd.P_xi, rawR, pd.shat_w)   # P GR(E_ij)
        del rawR
        scale = max(scale, float(np.abs(KL).max(initial=0.0)),
                    float(np.abs(KR).max(initial=0.0)))

        # (i) *-preservation of Ad_P o G^R: K(E_ji) = K(E_ij)^*
        star = KR.transpose(1, 0, 3, 2).conj()
        star -= KR
        res["right_map_star_preserving"] = max(
            res["right_map_star_preserving"],
            float(np.abs(star).max(initial=0.0)),
        )
        del star
        # (ii) left and right corner maps coincide
        res["left_equals_right"] = max(
            res["left_equals_right"], float(np.abs(KL - KR).max(initial=0.0))
        )
        # (iii) hermiticity of the corner Choi matrix
        res["choi_hermitian"] = max(
            res["choi_hermitian"], frobenius(A_mat - dagger(A_mat))
        )
        # (vii) complete positivity of Ad_P o G^R
        choi_R = KR.transpose(0, 2, 1, 3).reshape(m * n, m * n)
        del KR
        low, radius = hermitian_floor(choi_R)
        del choi_R
        cp_lam_max = max(cp_lam_max, radius)
        cp_min_eig = float(np.minimum(cp_min_eig, low))  # a NaN block stays NaN
        # (v) F(sigma B) rho = rho F(B sigma) for B = P E_kl P in the xi-support
        # corner, all k, l at once: sigma B = (sigma P)[:, k] P[l, :] and
        # B sigma = P[:, k] (P sigma)[l, :]
        lhs5 = _source_sandwich((pd.sig_w @ pd.P_xi).T, pd.T, pd.P_xi)   # F(sigma B)
        lhs5 = (lhs5.reshape(-1, m) @ pd.rho_w).reshape(n, m, n, m)
        rhs5 = _source_sandwich(pd.P_xi.T, pd.T, pd.P_xi @ pd.sig_w)     # F(B sigma)
        rhs5 = np.matmul(pd.rho_w, rhs5.reshape(n, m, n * m)).reshape(n, m, n, m)
        largest = max(_sq_frobenius(M.swapaxes(1, 2)).max() for M in (lhs5, rhs5))
        scale = max(scale, float(np.sqrt(largest)))
        lhs5 -= rhs5
        del rhs5
        res["density_intertwining"] = max(
            res["density_intertwining"],
            float(np.sqrt(_sq_frobenius(lhs5.swapaxes(1, 2)).max())),
        )
        del lhs5
        # (vi) part 1: forced rows vanish against the omega co-support,
        # shat_w F*(rho_w E_ij P_om-perp) P_xi = 0
        Pop = np.eye(m) - pd.P_om
        V6 = _sandwich(pd.shat_w, _adjoint_on_units(pd.T, pd.rho_w, Pop), pd.P_xi)
        res["off_support_vanishing"] = max(
            res["off_support_vanishing"], float(np.abs(V6).max(initial=0.0))
        )
        del V6

    verdicts = {name: tol.close(residual, scale) for name, residual in res.items()}
    verdicts["right_map_cp"] = tol.psd(cp_min_eig, cp_lam_max)

    # (vi) part 2: corner intertwining joins the off-support condition, which
    # reports the first of its two parts that fails
    ac = ac_condition_algebraic(F, omega, tol)
    if verdicts["off_support_vanishing"].ok and not ac.ok:
        verdicts["off_support_vanishing"] = ac.verdict

    flags = [verdicts[name].ok for name in BATTERY_CONDITIONS]
    if any(flags) != all(flags):
        detail = ", ".join(
            f"{name}: ok={verdicts[name].ok} residual={verdicts[name].residual:.3e}"
            for name in BATTERY_CONDITIONS
        )
        raise InternalInconsistency(
            f"battery verdicts disagree although provably equivalent ({detail})"
        )
    passed = all(flags)

    support_map = None
    petz_map = None
    if passed:
        tensors_s = []
        tensors_p = []
        sq_rho = [matrix_sqrt(by_pair[(x, 0)].rho_w, tol) for x in range(F.target.n_blocks)]
        sq_shat = [matrix_sqrt(by_pair[(0, y)].shat_w, tol) for y in range(F.source.n_blocks)]
        for y, n in enumerate(F.source.block_dims):
            row_s = []
            row_p = []
            for x, m in enumerate(F.target.block_dims):
                pd = by_pair[(x, y)]
                row_s.append(choi_A[(x, y)].reshape(m, n, m, n))  # Ad_P o G^L
                raw = _adjoint_on_units(pd.T, sq_rho[x], sq_rho[x])
                petz = _sandwich(sq_shat[y], raw, sq_shat[y])
                del raw
                row_p.append(petz.transpose(0, 2, 1, 3))
            tensors_s.append(row_s)
            tensors_p.append(row_p)
        support_map = LinearMap(F.target, F.source, tensors_s)
        petz_map = LinearMap(F.target, F.source, tensors_p)
        if not tol.close(*support_map.distance(petz_map), 100):
            raise InternalInconsistency(
                "recovery formula does not match the corner inverse "
                "although the battery passed"
            )

    # every later caller reads the kept arrays, so none may write to them
    kept = [*choi_A.values(), *choi_B.values()]
    for M in (support_map, petz_map):
        if M is not None:
            kept += [T for row in M.tensors for T in row]
    for T in kept:
        T.setflags(write=False)
    return xi, verdicts, passed, choi_A, choi_B, support_map, petz_map


def left_right_bayes(
    F: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL
) -> tuple[LinearMap, LinearMap]:
    """The support-determined parts of the left and right Bayes maps.

    Both always exist as linear maps; each is verified against its defining
    pairing over all matrix-unit pairs at construction time.
    """
    xi = pullback(omega, F, tol)
    pairs = _pair_data(F, omega, xi, tol)
    tensors_l = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    tensors_r = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    worst = 0.0
    for pd in pairs:
        S = tensors_l[pd.y][pd.x] = pd.GL.transpose(0, 2, 1, 3)
        S_r = tensors_r[pd.y][pd.x] = pd.GR.transpose(0, 2, 1, 3)
        # omega(E_ij F(E_kl)) = xi(G^L(E_ij) E_kl), and mirrored for G^R,
        # omega(F(E_kl) E_ij) = xi(E_kl G^R(E_ij)): the same identity for the
        # transposed maps and densities
        worst = max(
            worst,
            _pairing_residual(pd.T, pd.rho_w, pd.sig_w, S),
            _pairing_residual(
                pd.T.transpose(2, 3, 0, 1), pd.rho_w.T, pd.sig_w.T, S_r.transpose(2, 3, 0, 1)
            ),
        )
    if not tol.close(worst, 1.0, 100):
        raise InternalInconsistency(
            f"left/right Bayes pairing identities failed at {worst:.3e}"
        )
    GL = LinearMap(F.target, F.source, tensors_l)
    GR = LinearMap(F.target, F.source, tensors_r)
    return GL, GR


def _pairing_residual(T: np.ndarray, rho_w: np.ndarray, sig_w: np.ndarray, S: np.ndarray) -> float:
    """max |omega(E_ij F(E_kl)) - xi(G(E_ij) E_kl)| over the units of a pair,
    i.e. (F(E_kl) rho_w)_ji against (sig_w G(E_ij))_lk, with S the block
    tensor of G; one product each."""
    n, m = T.shape[:2]
    W1 = (T.reshape(-1, m) @ rho_w).reshape(n, m, n, m)                  # [k, j, l, i]
    W2 = np.matmul(sig_w, S.reshape(m, n, m * n)).reshape(m, n, m, n)   # [i, l, j, k]
    return float(np.abs(W1 - W2.transpose(3, 2, 1, 0)).max(initial=0.0))


@dataclass(frozen=True)
class VerifyBayesReport:
    """Brute-force check of the inversion pairing plus UCP and state transport."""

    pairing: Verdict
    ucp: UcpVerdict
    state_preservation: Verdict

    ok = property(lambda self: self.pairing.ok and self.ucp.ok and self.state_preservation.ok)
    pairing_residual = property(lambda self: self.pairing.residual)


def verify_bayes(
    F: LinearMap, G: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL
) -> VerifyBayesReport:
    """Independent oracle for candidate inverses.

    Maximizes |xi(G(A) B) - omega(A F(B))| over all matrix-unit pairs, and
    additionally checks that G is UCP and pushes xi back to omega.
    """
    if (
        G.source.block_dims != F.target.block_dims
        or G.target.block_dims != F.source.block_dims
    ):
        raise ShapeMismatch("candidate inverse does not have the opposite shape")
    xi = pullback(omega, F, tol)
    worst = 0.0
    for x in range(F.target.n_blocks):
        rho_w = omega.weighted_density(x)
        for y in range(F.source.n_blocks):
            sig_w, S = xi.weighted_density(y), G.tensors[y][x]
            worst = max(worst, _pairing_residual(F.tensors[x][y], rho_w, sig_w, S))
    ucp = is_ucp(G, tol)
    omega_back = pullback(xi, G, tol)
    state_res = max(
        frobenius(omega_back.weighted_density(x) - omega.weighted_density(x))
        for x in range(omega.algebra.n_blocks)
    )
    return VerifyBayesReport(
        pairing=tol.close(worst, 1.0, 10),
        ucp=ucp,
        state_preservation=tol.close(state_res, 1.0, 10),
    )


@dataclass(frozen=True)
class ExistenceResult:
    """Decision of the off-support extension problem: the existence inequality
    judges the least eigenvalue, the margin, of the co-support projection less
    the compressed mass."""

    inequality: Verdict
    trace_blocks: dict[int, np.ndarray]
    inverse: Optional[Channel]
    verification: Optional[VerifyBayesReport]

    exists = property(lambda self: self.inequality.ok)
    margin = property(lambda self: 0.0 - self.inequality.residual)


def existence(analysis: BayesAnalysis, free_split: str = "uniform") -> ExistenceResult:
    """Decide and, when possible, construct a full UCP Bayesian inverse.

    Requires a passed battery, and runs at its tolerance. Per source block y,
    the compressed mass sum_x tr_x(B* A-hat B) must stay below the xi
    co-support projection; when it does, a Schur-complement completion of the
    forced Choi rows yields the inverse, whose Bayes pairing is then
    re-verified.

    free_split selects how the leftover co-support mass is spread over the
    free diagonal; any admissible choice yields an a.e.-equivalent inverse.

    Run once per state, map, tolerance and split, like `battery`: the result
    is kept on the state, keyed by the map's identity with the map held, and
    its arrays are read-only.
    """
    if free_split not in ("uniform", "ramp"):
        raise ValueError(f"unknown free_split {free_split!r}")
    if not analysis.passed:
        raise ValueError("existence() requires a passed battery")
    F = analysis.F
    _, result = memo(
        analysis.omega, ("existence", id(F), analysis.tol, free_split),
        lambda: (F, _frozen(_existence(analysis, free_split))),
    )
    return result


def _existence(analysis: BayesAnalysis, free_split: str) -> ExistenceResult:
    F, omega, xi, tol = analysis.F, analysis.omega, analysis.xi, analysis.tol
    P_xis = support(xi, tol).projection.blocks
    src_dims = F.source.block_dims
    tgt_dims = F.target.block_dims
    w_x = np.array(tgt_dims, dtype=float)
    w_x /= w_x.sum()

    trace_blocks: dict[int, np.ndarray] = {}
    sandwich: dict[tuple[int, int], np.ndarray] = {}
    margin = np.inf
    for y, n_y in enumerate(src_dims):
        if xi.weights[y] <= 0.0:
            continue
        Pxp = np.eye(n_y) - P_xis[y]
        total = np.zeros((n_y, n_y), dtype=complex)
        for x, m_x in enumerate(tgt_dims):
            A_mat = analysis.choi_A[(x, y)]
            B_mat = analysis.choi_B[(x, y)]
            A_mat = (A_mat + dagger(A_mat)) / 2
            Ahat = pseudoinverse(A_mat, tol)
            X = dagger(B_mat) @ Ahat @ B_mat
            sandwich[(x, y)] = X
            total += partial_trace_left(X, m_x, n_y)
            range_defect = frobenius((np.eye(m_x * n_y) - A_mat @ Ahat) @ B_mat)
            if not tol.close(range_defect, max(1.0, frobenius(B_mat)), 100):
                raise ExtensionFailure(
                    "forced off-support rows leave the corner range in block "
                    f"({x},{y}), defect {range_defect:.3e}"
                )
        total = (total + dagger(total)) / 2
        trace_blocks[y] = total
        gap = float(np.linalg.eigvalsh(Pxp - total).min(initial=0.0))
        margin = float(np.minimum(margin, gap))  # a NaN gap stays NaN
    inequality = tol.psd(margin, 1.0, 10)
    if not inequality.ok:
        return ExistenceResult(inequality, trace_blocks, inverse=None, verification=None)

    tensors = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    for y, n_y in enumerate(src_dims):
        if xi.weights[y] <= 0.0:
            # no pairing constraint: spread the normalized trace uniformly,
            # E_ij |-> delta_ij (w_x / m_x) 1
            for x, m_x in enumerate(tgt_dims):
                tensors[y][x] = np.eye(m_x * n_y).reshape(m_x, n_y, m_x, n_y) * (w_x[x] / m_x)
            continue
        Pxp = np.eye(n_y) - P_xis[y]
        delta = Pxp - trace_blocks[y]
        dw, dV = np.linalg.eigh((delta + dagger(delta)) / 2)
        delta_psd = (dV * np.clip(dw, 0.0, None)) @ dagger(dV)
        for x, m_x in enumerate(tgt_dims):
            A_mat = analysis.choi_A[(x, y)]
            B_mat = analysis.choi_B[(x, y)]
            if free_split == "uniform":
                diag = np.full(m_x, 1.0 / m_x)
            else:
                diag = np.arange(1, m_x + 1, dtype=float)
                diag /= diag.sum()
            D_mat = sandwich[(x, y)] + np.kron(np.diag(diag * w_x[x]), delta_psd)
            C = A_mat + B_mat + dagger(B_mat) + D_mat
            tensors[y][x] = C.reshape(m_x, n_y, m_x, n_y)
    inverse = Channel(F.target, F.source, tensors, tol=tol)
    verification = verify_bayes(F, inverse, omega, tol)
    if not verification.ok:
        raise ExtensionFailure(
            "constructed extension failed verification: "
            f"pairing {verification.pairing_residual:.3e}, "
            f"state transport {verification.state_preservation.residual:.3e}, "
            f"ucp ok {bool(verification.ucp)}"
        )
    return ExistenceResult(inequality, trace_blocks, inverse, verification)


def _frozen(result: ExistenceResult) -> ExistenceResult:
    """result with its arrays read-only: every later caller reads the kept one."""
    kept = list(result.trace_blocks.values())
    if result.inverse is not None:
        kept += [T for row in result.inverse.tensors for T in row]
    for T in kept:
        T.setflags(write=False)
    return result


def bayes_inverse(
    F: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, Optional[Channel], BayesAnalysis, Optional[ExistenceResult]]:
    """Battery + existence in one call; the common entry point."""
    analysis = battery(F, omega, tol)
    if not analysis.passed:
        return False, None, analysis, None
    result = existence(analysis)
    return result.exists, result.inverse, analysis, result


@dataclass(frozen=True)
class CompositionalityReport:
    identity_ok: bool
    composite_ok: bool
    composite_residual: float
    uniqueness_ae_ok: Optional[bool]
    extensions_differ: Optional[bool]


def compositionality_check(
    F: LinearMap,
    G: LinearMap,
    omega: State,
    tol: Tolerances = DEFAULT_TOL,
) -> CompositionalityReport:
    """Functoriality checks for Bayesian inverses.

    (1) the identity channel inverts itself, (2) the composite of the two
    inverses inverts the composite channel, and (3) any two inverses of the
    same pair agree almost everywhere, while exact equality may fail off
    the support.
    """
    ident = identity_channel(MultiMatrixAlgebra(omega.algebra.block_dims))
    identity_ok = verify_bayes(ident, ident, omega, tol).ok

    xi = pullback(omega, F, tol)
    ok_f, Fbar, analysis_f, _ = bayes_inverse(F, omega, tol)
    ok_g, Gbar, _, _ = bayes_inverse(G, xi, tol)
    if not (ok_f and ok_g):
        raise ValueError("compositionality check needs two invertible inputs")
    comp = compose(F, G)
    candidate = compose(Gbar, Fbar)
    report = verify_bayes(comp, candidate, omega, tol)

    uniqueness = None
    differ = None
    alt = existence(analysis_f, free_split="ramp")
    if alt.exists and alt.inverse is not None:
        from .channel import ae_equal

        uniqueness = ae_equal(Fbar, alt.inverse, xi, tol)
        differ = not tol.close(*Fbar.distance(alt.inverse))
    return CompositionalityReport(
        identity_ok=identity_ok,
        composite_ok=report.ok,
        composite_residual=report.pairing_residual,
        uniqueness_ae_ok=uniqueness,
        extensions_differ=differ,
    )
