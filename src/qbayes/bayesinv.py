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
from itertools import product
from typing import Optional

import numpy as np

from .algebra import memo
from .channel import (
    Channel,
    LinearMap,
    UcpVerdict,
    _read_only,
    _sandwich,
    is_ucp,
    kraus_factor,
)
from .errors import ExtensionFailure, InternalInconsistency, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    Verdict,
    _sq_frobenius,
    dagger,
    frobenius,
    hermitian_floor,
    partial_trace_left,
    support_eigen,
    support_mask,
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


def battery(F: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL) -> BayesAnalysis:
    """Evaluate the seven equivalent inversion conditions independently.

    The verdicts must agree; a disagreement beyond tolerance raises
    InternalInconsistency, because their equivalence is a theorem, not a
    numerical accident. The off-support condition is the conjunction of the
    forced-row vanishing with the corner intertwining test.

    Run once per state, map and tolerance, like `corner_map`: the outcome is
    kept on the state, and its arrays are read-only. A disagreement raises
    before anything is kept.
    """
    if omega.algebra.block_dims != F.target.block_dims:
        raise ShapeMismatch("state does not live on the channel's target algebra")
    fields = memo(omega, ("battery", F, tol), lambda: _battery(F, omega, tol))
    return BayesAnalysis(F, omega, tol, *fields)


def _battery(F: LinearMap, omega: State, tol: Tolerances) -> tuple:
    """The BayesAnalysis fields after F and omega."""
    xi = pullback(omega, F, tol)
    sup_o, sup_x = support(omega, tol), support(xi, tol)
    rho_ws = [omega.weighted_density(x) for x in range(F.target.n_blocks)]
    sig_ws = [xi.weighted_density(y) for y in range(F.source.n_blocks)]
    # sigma-hat from the support that P_xi projects on, so sigma-hat sigma = P_xi
    shat_ws = [sup_x.calculus(y, np.reciprocal) for y in range(F.source.n_blocks)]
    F_adj = F.hs_adjoint()

    res = {name: 0.0 for name in BATTERY_CONDITIONS if name != "right_map_cp"}
    scale = 1.0
    choi_A: dict[tuple[int, int], np.ndarray] = {}
    choi_B: dict[tuple[int, int], np.ndarray] = {}
    cp_lam_max = 0.0
    cp_min_eig = 0.0

    # Each (m n)^2 array of a pair is dropped once the last condition that
    # reads it is scored; only the two Choi blocks outlive the pair.
    for x, y in product(range(F.target.n_blocks), range(F.source.n_blocks)):
        T, rho_w, P_om = F.tensors[x][y], rho_ws[x], sup_o.projection.blocks[x]
        sig_w, shat_w, P_xi = sig_ws[y], shat_ws[y], sup_x.projection.blocks[y]
        m, n = len(rho_w), len(sig_w)
        # (vi) part 1: forced rows vanish against the omega co-support,
        # shat_w F*(rho_w E_ij P_om-perp) P_xi = 0, read from the block
        # tensor of F*, whose source units are the target's
        Ta = F_adj.tensors[y][x]
        V6 = _sandwich(Ta, A=rho_w, B=np.eye(m) - P_om, L=shat_w, R=P_xi)
        res["off_support_vanishing"] = max(
            res["off_support_vanishing"], float(np.abs(V6).max(initial=0.0))
        )
        del V6
        rawL = _sandwich(Ta, A=rho_w)   # F*(rho_w E_ij)
        rawR = _sandwich(Ta, B=rho_w)   # F*(E_ij rho_w)
        # (iv) P F*(rho A) sigma = sigma F*(A rho) P on target units A
        lhs4 = _sandwich(rawL, L=P_xi, R=sig_w)
        lhs4 -= _sandwich(rawR, L=sig_w, R=P_xi)
        res["adjoint_sandwich_symmetry"] = max(
            res["adjoint_sandwich_symmetry"], float(np.abs(lhs4).max(initial=0.0))
        )
        del lhs4
        # forced rows GL(E_ij)(1 - P) off the xi support, for the existence
        # stage, and the corner Choi matrix of GL(E_ij) P
        choi_B[(x, y)] = _sandwich(rawL, L=shat_w, R=np.eye(n) - P_xi).reshape(m * n, m * n)
        KL = _sandwich(rawL, L=shat_w, R=P_xi)
        A_mat = choi_A[(x, y)] = KL.reshape(m * n, m * n)
        del rawL
        KR = _sandwich(rawR, L=P_xi, R=shat_w)   # P GR(E_ij)
        del rawR
        scale = max(scale, float(np.abs(KL).max(initial=0.0)),
                    float(np.abs(KR).max(initial=0.0)))

        # (ii) left and right corner maps coincide
        res["left_equals_right"] = max(
            res["left_equals_right"], float(np.abs(KL - KR).max(initial=0.0))
        )
        del KL
        # (i) *-preservation of Ad_P o G^R: K(E_ji) = K(E_ij)^*
        choi_R = KR.reshape(m * n, m * n)
        del KR
        star = dagger(choi_R)
        star -= choi_R
        res["right_map_star_preserving"] = max(
            res["right_map_star_preserving"],
            float(np.abs(star).max(initial=0.0)),
        )
        del star
        # (iii) hermiticity of the corner Choi matrix
        res["choi_hermitian"] = max(
            res["choi_hermitian"], frobenius(A_mat - dagger(A_mat))
        )
        # (vii) complete positivity of Ad_P o G^R
        low, radius = hermitian_floor(choi_R)
        del choi_R
        cp_lam_max = max(cp_lam_max, radius)
        cp_min_eig = float(np.minimum(cp_min_eig, low))  # a NaN block stays NaN
        # (v) F(sigma B) rho = rho F(B sigma) for B = P E_kl P in the xi-support
        # corner, all k, l at once
        lhs5 = _sandwich(T, A=sig_w @ P_xi, B=P_xi, R=rho_w)   # F(sigma B) rho
        rhs5 = _sandwich(T, A=P_xi, B=P_xi @ sig_w, L=rho_w)   # rho F(B sigma)
        largest = max(_sq_frobenius(M.swapaxes(1, 2)).max() for M in (lhs5, rhs5))
        scale = max(scale, float(np.sqrt(largest)))
        lhs5 -= rhs5
        del rhs5
        res["density_intertwining"] = max(
            res["density_intertwining"],
            float(np.sqrt(_sq_frobenius(lhs5.swapaxes(1, 2)).max())),
        )
        del lhs5

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

    if passed:
        # the support map Ad_{P_xi} o G^L must be the Petz map
        # Ad_sqrt(sigma-hat) o F* o Ad_sqrt(rho)
        tensors_s = []
        tensors_p = []
        sq_rho = [sup_o.calculus(x, np.sqrt) for x in range(F.target.n_blocks)]
        sq_shat = [sup_x.calculus(y, lambda w: np.sqrt(1.0 / w)) for y in range(F.source.n_blocks)]
        for y, n in enumerate(F.source.block_dims):
            row_s = []
            row_p = []
            for x, m in enumerate(F.target.block_dims):
                row_s.append(choi_A[(x, y)].reshape(m, n, m, n))  # Ad_P o G^L
                Ta = F_adj.tensors[y][x]
                row_p.append(_sandwich(Ta, sq_rho[x], sq_rho[x], sq_shat[y], sq_shat[y]))
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
    _read_only([choi_A.values(), choi_B.values()])
    return xi, verdicts, passed, choi_A, choi_B


def left_right_bayes(
    F: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL
) -> tuple[LinearMap, LinearMap]:
    """The support-determined parts of the left and right Bayes maps.

    Both always exist as linear maps; each is verified against its defining
    pairing over all matrix-unit pairs at construction time.
    """
    xi = pullback(omega, F, tol)
    shat_ws = [support(xi, tol).calculus(y, np.reciprocal) for y in range(F.source.n_blocks)]
    tensors_l = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    tensors_r = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    F_adj = F.hs_adjoint()
    worst = 0.0
    for x, y in product(range(F.target.n_blocks), range(F.source.n_blocks)):
        T, rho_w, sig_w = F.tensors[x][y], omega.weighted_density(x), xi.weighted_density(y)
        Ta = F_adj.tensors[y][x]
        S = tensors_l[y][x] = _sandwich(Ta, A=rho_w, L=shat_ws[y])     # shat F*(rho E)
        S_r = tensors_r[y][x] = _sandwich(Ta, B=rho_w, R=shat_ws[y])   # F*(E rho) shat
        # omega(E_ij F(E_kl)) = xi(G^L(E_ij) E_kl), and mirrored for G^R,
        # omega(F(E_kl) E_ij) = xi(E_kl G^R(E_ij)): the same identity for the
        # transposed maps and densities
        worst = max(
            worst,
            _pairing_residual(T, rho_w, sig_w, S),
            _pairing_residual(
                T.transpose(2, 3, 0, 1), rho_w.T, sig_w.T, S_r.transpose(2, 3, 0, 1)
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
    tensor of G."""
    W1 = _sandwich(T, R=rho_w)   # [k, j, l, i]
    W2 = _sandwich(S, L=sig_w)   # [i, l, j, k]
    return float(np.abs(W1 - W2.transpose(3, 2, 1, 0)).max(initial=0.0))


@dataclass(frozen=True)
class VerifyBayesReport:
    """Brute-force check of the inversion pairing plus UCP and state transport."""

    pairing: Verdict
    ucp: UcpVerdict
    state_preservation: Verdict

    ok = property(lambda self: self.pairing.ok and self.ucp.ok and self.state_preservation.ok)


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
    xi, ucp, state = _ucp_and_transport(F, G, omega, tol)
    worst = 0.0
    for x in range(F.target.n_blocks):
        rho_w = omega.weighted_density(x)
        for y in range(F.source.n_blocks):
            sig_w, S = xi.weighted_density(y), G.tensors[y][x]
            worst = max(worst, _pairing_residual(F.tensors[x][y], rho_w, sig_w, S))
    return VerifyBayesReport(tol.close(worst, 1.0, 10), ucp, state)


def _ucp_and_transport(F: LinearMap, G: LinearMap, omega: State, tol: Tolerances) -> tuple:
    """(xi, ucp, state): xi = omega o F, the UCP verdict of G, and whether G
    carries xi back to omega, as both oracles check a candidate G."""
    xi = pullback(omega, F, tol)
    omega_back = pullback(xi, G, tol)
    state_res = max(
        frobenius(omega_back.weighted_density(x) - omega.weighted_density(x))
        for x in range(omega.algebra.n_blocks)
    )
    return xi, is_ucp(G, tol), tol.close(state_res, 1.0, 10)


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


def existence(analysis: BayesAnalysis) -> ExistenceResult:
    """Decide and, when possible, construct a full UCP Bayesian inverse.

    Requires a passed battery, and runs at its tolerance. Per source block y,
    the compressed mass sum_x tr_x(B* A-hat B) must stay below the xi
    co-support projection; when it does, a Schur-complement completion of the
    forced Choi rows yields the inverse, whose Bayes pairing is then
    re-verified.

    A-hat is the pseudoinverse of the Hermitian part A_h of the corner Choi
    block A, read from the Kraus factor of F: with F_xy = sum_s K_s . K_s*,
    A = sum_s u_s w_s^T where u_s = vec((sigma-hat K_s* rho)^T) in A's (a, i)
    row layout, so A's range lies in the span of the u_s. With Q an
    orthonormal basis of that span and C = Q* A_h Q, the r x r compression (r
    the pair's Kraus rank), A-hat = Q C^+ Q*: C^+ cuts the same nonzero
    eigenvalues at the same eps_rank rule as a pseudoinverse of A_h would.

    The leftover co-support mass is spread uniformly over the free diagonal;
    any admissible split yields an a.e.-equivalent inverse.

    The inverse carries a Kraus factor of each Choi block A + B + B* + D, which
    `is_ucp` checks as a certificate: with (S, c) the eigenpairs of C, the
    columns Q S_k c_k^{1/2} + B* Q S_k c_k^{-1/2} for every c_k the
    pseudoinverse keeps (only the first term for the other c_k >= 0) give
    the Schur completion, and the eigen-directions of the spread co-support
    mass give its Kronecker term. For a Choi-given F the factor's Q also
    spans the images of the eigen-directions that F's kept operators cut and
    of its negative ones, and (S, c) are read on that span, while C^+ stays
    that of the kept operators; the c_k below -`Tolerances.negligible` give
    the operators that the inverse subtracts (`Channel.negative`).

    Run once per state, map and tolerance, like `battery`: the result is kept
    on the state, and its arrays are read-only.
    """
    if not analysis.passed:
        raise ValueError("existence() requires a passed battery")
    return memo(
        analysis.omega, ("existence", analysis.F, analysis.tol),
        lambda: _existence(analysis),
    )


def _existence(analysis: BayesAnalysis) -> ExistenceResult:
    F, omega, xi, tol = analysis.F, analysis.omega, analysis.xi, analysis.tol
    sup_x = support(xi, tol)
    P_xis = sup_x.projection.blocks
    kraus = kraus_factor(F, tol)
    # the operators of F's signed factor beyond those kept (a Choi-given F's
    # small and negative eigen-directions), whose images the inverse's factor spans
    full, negative = (
        (kraus, None) if getattr(F, "kraus", None) is None else (F.kraus, F.negative)
    )
    src_dims = F.source.block_dims
    tgt_dims = F.target.block_dims
    w_x = np.array(tgt_dims, dtype=float)
    w_x /= w_x.sum()

    trace_blocks: dict[int, np.ndarray] = {}
    sandwich: dict[tuple[int, int], np.ndarray] = {}
    factors: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    margin = np.inf
    for y, n_y in enumerate(src_dims):
        if xi.weights[y] <= 0.0:
            continue
        shat_w = sup_x.calculus(y, np.reciprocal)
        Pxp = np.eye(n_y) - P_xis[y]
        total = np.zeros((n_y, n_y), dtype=complex)
        for x, m_x in enumerate(tgt_dims):
            A_mat = analysis.choi_A[(x, y)]
            B_mat = analysis.choi_B[(x, y)]
            A_mat = (A_mat + dagger(A_mat)) / 2
            # U[(a, i), s] = (sigma-hat K_s* rho)[i, a]
            K = kraus[x][y]
            rho_w = omega.weighted_density(x)
            U = (shat_w @ K.conj().swapaxes(1, 2) @ rho_w).transpose(2, 1, 0)
            Q = np.linalg.qr(U.reshape(m_x * n_y, len(K)))[0]
            AQ = A_mat @ Q
            QB = dagger(Q) @ B_mat
            # C^+ as `pseudoinverse` builds it, from eigenpairs kept for the factor
            c, S, keep = support_eigen(dagger(Q) @ AQ, tol)
            c_inv = np.zeros(len(c), dtype=complex)
            c_inv[keep] = 1.0 / c[keep]
            CQB = ((S * c_inv) @ dagger(S)) @ QB
            X = dagger(QB) @ CQB
            sandwich[(x, y)] = X
            extra = full[x][y][len(K):]
            if negative is not None:
                extra = np.concatenate([extra, negative[x][y]])
            if len(extra):
                # span Q and the images of the extra operators, and the
                # eigenpairs of A's compression to it
                Ue = (shat_w @ extra.conj().swapaxes(1, 2) @ rho_w).transpose(2, 1, 0)
                Q = np.linalg.qr(np.hstack([Q, Ue.reshape(m_x * n_y, len(extra))]))[0]
                QB = dagger(Q) @ B_mat
                c, S = np.linalg.eigh(dagger(Q) @ A_mat @ Q)
                c_inv = np.zeros(len(c), dtype=complex)
                keep = support_mask(c, tol)
                c_inv[keep] = 1.0 / c[keep]
            factors[(x, y)] = _schur_factor(Q, QB, c, S, c_inv, tol)
            total += partial_trace_left(X, m_x, n_y)
            range_defect = frobenius(B_mat - AQ @ CQB)
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
    _read_only([trace_blocks.values()])
    if not inequality.ok:
        return ExistenceResult(inequality, trace_blocks, inverse=None, verification=None)

    tensors = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    # Kraus operators K[a, i] = L[(i, a), k] of the factor L of each Choi block
    kraus = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    negatives = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    for y, n_y in enumerate(src_dims):
        if xi.weights[y] <= 0.0:
            # no pairing constraint: spread the normalized trace uniformly,
            # E_ij |-> delta_ij (w_x / m_x) 1, factored by the scaled identity
            for x, m_x in enumerate(tgt_dims):
                tensors[y][x] = np.eye(m_x * n_y).reshape(m_x, n_y, m_x, n_y) * (w_x[x] / m_x)
                L = np.eye(m_x * n_y) * np.sqrt(w_x[x] / m_x)
                kraus[y][x] = L.T.reshape(-1, m_x, n_y).swapaxes(1, 2)
                negatives[y][x] = np.zeros((0, n_y, m_x), dtype=complex)
            continue
        Pxp = np.eye(n_y) - P_xis[y]
        delta = Pxp - trace_blocks[y]
        dw, dV = np.linalg.eigh((delta + dagger(delta)) / 2)
        delta_psd = (dV * np.clip(dw, 0.0, None)) @ dagger(dV)
        # delta_psd = spread spread*, less the directions of negligible dw: their
        # mass in the inverse's Choi blocks, (w_x / sqrt(m_x)) ||dw|| <= ABS_FLOOR / 2
        # in Frobenius norm, is left to the certificate's residual
        big = dw > tol.negligible(n_y)
        spread = dV[:, big] * np.sqrt(dw[big])
        for x, m_x in enumerate(tgt_dims):
            A_mat = analysis.choi_A[(x, y)]
            B_mat = analysis.choi_B[(x, y)]
            diag = np.diag(np.full(m_x, 1.0 / m_x) * w_x[x])
            D_mat = sandwich[(x, y)] + np.kron(diag, delta_psd)
            C = A_mat + B_mat + dagger(B_mat) + D_mat
            tensors[y][x] = C.reshape(m_x, n_y, m_x, n_y)
            # kron(diag, delta_psd) = sum over i and k of (e_i (x) s_k)(e_i (x) s_k)*,
            # s_k the columns of sqrt(w_x / m_x) spread
            L, N = factors[(x, y)]
            if spread.size:
                E = np.zeros((m_x, n_y, m_x, spread.shape[1]), dtype=complex)   # [i, a, i', k]
                E[range(m_x), :, range(m_x)] = spread * np.sqrt(w_x[x] / m_x)
                L = np.hstack([L, E.reshape(m_x * n_y, -1)])
            kraus[y][x] = L.T.reshape(-1, m_x, n_y).swapaxes(1, 2)
            negatives[y][x] = N.T.reshape(-1, m_x, n_y).swapaxes(1, 2)
    inverse = Channel(F.target, F.source, tensors, tol=tol, kraus=kraus, negative=negatives)
    _read_only(inverse.tensors)
    verification = verify_bayes(F, inverse, omega, tol)
    if not verification.ok:
        raise ExtensionFailure(
            "constructed extension failed verification: "
            f"pairing {verification.pairing.residual:.3e}, "
            f"state transport {verification.state_preservation.residual:.3e}, "
            f"ucp ok {bool(verification.ucp)}"
        )
    return ExistenceResult(inequality, trace_blocks, inverse, verification)


def _schur_factor(Q, QB, c, S, c_inv, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """(L, N), the columns of the inverse's factor for the forced rows of a
    block: with (S, c) the eigenpairs of C = Q* A Q and c_inv the inverses
    C^+ keeps, L = Q S c^{1/2} + B* Q S c_inv^{1/2} (a negative c_k gives a
    zero column), so that L L* = Q Q* A Q Q* + B + B* + B* Q C^+ Q* B where
    A's range lies in span Q and B's in A's, and N = Q S |c|^{1/2} for every
    c_k below -`Tolerances.negligible`."""
    L = Q @ (S * np.sqrt(np.maximum(c, 0.0))) + dagger(QB) @ (S * np.sqrt(c_inv.real))
    below = c < -tol.negligible(len(c))
    return L, Q @ (S[:, below] * np.sqrt(-c[below]))


def bayes_inverse(
    F: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, Optional[Channel], BayesAnalysis, Optional[ExistenceResult]]:
    """Battery + existence in one call; the common entry point."""
    analysis = battery(F, omega, tol)
    if not analysis.passed:
        return False, None, analysis, None
    result = existence(analysis)
    return result.exists, result.inverse, analysis, result
