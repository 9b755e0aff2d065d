"""Disintegrations and state-preserving conditional expectations.

For a standard-form embedding with multiplicity matrix c and a state on the
target, a disintegration exists iff every weighted target density splits as
a block-diagonal stack of products q_j tau_ij (x) sigma_j over the source
sub-blocks. `factorize` extracts and verifies the certificate,
`build_disintegration` turns it into the recovery channel, and
`condexp_characterize` reaches the same verdict through an independent
sub-block product test. `takesaki_battery` and `bayes_disint_bridge` wire
the corner-map and Bayesian-inverse characterizations together and treat
any disagreement between these provably equivalent routes as a bug alarm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .algebra import HomSpec, MultiMatrixAlgebra, memo
from .bayesinv import _ucp_and_transport, battery, bayes_inverse
from .channel import (
    Channel,
    LinearMap,
    UcpVerdict,
    _map_scale,
    _sandwich,
    ae_deterministic,
    ae_equal,
    compose,
    from_hom,
    identity_channel,
)
from .errors import InternalInconsistency, InvalidCertificate, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    Verdict,
    _sq_frobenius,
    dagger,
    failing,
    frobenius,
    partial_trace_left,
    partial_trace_right,
)
from .modular import ac_condition_algebraic, corner_map
from .state import State, pullback


@dataclass(frozen=True)
class FactorizationCertificate:
    """Split data p_i rho_i = (+)_j (q_j tau_ij (x) sigma_j) and its residuals.

    tau[(i, j)] is the extracted multiplicity-factor matrix (unnormalized;
    its trace is the mixing coefficient lambda_ij). Verdicts: `off_diagonal`
    for cross sub-block mass, `reconstruction` for the product-form defect,
    `trace_sum` for the per-column normalization, and `mixing` for the
    lambda/weight bookkeeping.
    """

    hom: HomSpec
    xi: State
    tau: dict[tuple[int, int], np.ndarray]
    verdicts: dict[str, Verdict]

    ok = property(lambda self: all(v.ok for v in self.verdicts.values()))
    residuals = property(lambda self: {k: v.residual for k, v in self.verdicts.items()})


def factorize(
    h: HomSpec, omega: State, tol: Tolerances = DEFAULT_TOL
) -> FactorizationCertificate:
    """Extract and verify the product-form certificate of a state, once per
    hom, state and tolerance.

    The tau candidate is the right partial trace of the weighted (i, j)
    sub-block divided by q_j; columns with q_j = 0 get zero candidates and
    are excluded from the normalization constraint. Failure is a verdict
    carried by the certificate, not an exception.
    """
    if omega.algebra.block_dims != h.target.block_dims:
        raise ShapeMismatch("state does not live on the hom's target algebra")
    split = memo(omega, ("factorize", h, tol), lambda: _factorize(h, omega, tol))
    return FactorizationCertificate(h, *split)


def _factorize(h: HomSpec, omega: State, tol: Tolerances) -> tuple:
    """The certificate fields after `hom`."""
    xi = pullback(omega, from_hom(h), tol)
    tau: dict[tuple[int, int], np.ndarray] = {}
    lambdas: dict[tuple[int, int], float] = {}
    res = {"off_diagonal": 0.0, "reconstruction": 0.0, "trace_sum": 0.0, "mixing": 0.0}

    for i, m_i in enumerate(h.target.block_dims):
        W = omega.weighted_density(i)
        layout = h.sub_block_layout(i)
        # cross sub-block mass must vanish
        for a, (ja, oa, sa) in enumerate(layout):
            for b, (jb, ob, sb) in enumerate(layout):
                if a == b:
                    continue
                res["off_diagonal"] = max(
                    res["off_diagonal"], frobenius(W[oa : oa + sa, ob : ob + sb])
                )
        for j, offset, size in layout:
            c = h.multiplicities[i][j]
            n_j = h.source.block_dims[j]
            S = W[offset : offset + size, offset : offset + size]
            q_j = xi.weights[j]
            if q_j > 0.0:
                t = partial_trace_right(S, c, n_j) / q_j
                sigma_j = xi.densities[j]
                recon = q_j * np.kron(t, sigma_j)
                res["reconstruction"] = max(res["reconstruction"], frobenius(S - recon))
            else:
                t = np.zeros((c, c), dtype=complex)
                res["reconstruction"] = max(res["reconstruction"], frobenius(S))
            tau[(i, j)] = t
            lambdas[(i, j)] = float(np.trace(t).real)

    for j, n_j in enumerate(h.source.block_dims):
        if xi.weights[j] <= 0.0:
            continue
        col = sum(lambdas.get((i, j), 0.0) for i in range(h.target.n_blocks))
        res["trace_sum"] = max(res["trace_sum"], abs(col - 1.0))
    for i in range(h.target.n_blocks):
        row = sum(
            lambdas.get((i, j), 0.0) * xi.weights[j]
            for j in range(h.source.n_blocks)
        )
        res["mixing"] = max(res["mixing"], abs(row - omega.weights[i]))

    return xi, tau, {k: tol.close(v) for k, v in res.items()}


def build_disintegration(
    cert: FactorizationCertificate, tol: Tolerances = DEFAULT_TOL
) -> Channel:
    """Recovery channel from a valid certificate.

    Source sub-blocks with positive weight are recovered by the
    tau-weighted partial trace; zero-weight columns fall back to a uniform
    tau so the channel stays unital, and source blocks missed by the
    embedding entirely get the normalized-trace branch.
    """
    if not cert.ok:
        raise InvalidCertificate(
            f"certificate residuals {cert.residuals} exceed tolerance"
        )
    h = cert.hom
    s = h.target.n_blocks
    # tensors[j][i][p, a, q, b] = G_ji(E_pq)_ab, and kraus[j][i] its operators
    tensors = [
        [np.zeros((m_i, n_j, m_i, n_j), dtype=complex) for m_i in h.target.block_dims]
        for n_j in h.source.block_dims
    ]
    kraus = [
        [np.zeros((0, n_j, m_i), dtype=complex) for m_i in h.target.block_dims]
        for n_j in h.source.block_dims
    ]
    for j, n_j in enumerate(h.source.block_dims):
        stack = sum(h.multiplicities[i][j] for i in range(s))
        for i, m_i in enumerate(h.target.block_dims):
            c = h.multiplicities[i][j]
            if stack == 0:
                # block j is missed by the embedding: E |-> tr(E) 1 / (s m_i), whose
                # operators are the matrix units E_ab / sqrt(s m_i)
                tensors[j][i] = np.eye(m_i * n_j).reshape(m_i, n_j, m_i, n_j) / (s * m_i)
                units = np.eye(n_j * m_i).reshape(n_j * m_i, n_j, m_i)
                kraus[j][i] = units / np.sqrt(s * m_i)
            elif c > 0:
                # the tau-weighted partial trace E_{(w, a), (u, b)} |-> tau[u, w] E_ab
                # on the (i, j) sub-block, with a uniform tau where q_j = 0
                tau = cert.tau[(i, j)] if cert.xi.weights[j] > 0.0 else np.eye(c) / stack
                offset = next(o for jj, o, _ in h.sub_block_layout(i) if jj == j)
                size = c * n_j
                # [w, u, a, c, b, d] = tau[u, w] delta_ac delta_bd, read as [w, a, c, u, b, d]
                slot = np.multiply.outer(tau.T, np.multiply.outer(np.eye(n_j), np.eye(n_j)))
                tensors[j][i][offset : offset + size, :, offset : offset + size, :] = (
                    slot.transpose(0, 2, 3, 1, 4, 5).reshape(size, n_j, size, n_j)
                )
                # with tau = sum_k t_k t_k*, t_k = sqrt(w_k) v_k over its eigenpairs
                # (a zero t_k where w_k < 0), the slot operators
                # K_k[a, (w, b)] = conj(t_k[w]) delta_ab
                tw, tV = np.linalg.eigh((tau + dagger(tau)) / 2)
                t = tV * np.sqrt(np.maximum(tw, 0.0))
                ops = np.zeros((c, n_j, m_i), dtype=complex)
                ops[:, :, offset : offset + size] = (
                    t.conj().T[:, None, :, None] * np.eye(n_j)[None, :, None, :]
                ).reshape(-1, n_j, size)
                kraus[j][i] = ops
    return Channel(h.target, h.source, tensors, tol=tol, kraus=kraus)


@dataclass(frozen=True)
class DisintegrationReport:
    """Outcome of the independent disintegration oracle; ok requires G o F = id
    a.e., and the exact left inverse only when the source is a single block."""

    ucp: UcpVerdict
    state_preservation: Verdict
    exact_left_inverse: Verdict
    ok: bool


def verify_disintegration(
    F: LinearMap, G: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL
) -> DisintegrationReport:
    """Check (1) G UCP, (2) xi o G = omega, (3) G o F = id a.e. w.r.t. xi.

    When the source is a single matrix block, the left-inverse identity is
    additionally required to hold exactly, and the exact flag marks an
    optimal recovery in every case.
    """
    xi, ucp, state = _ucp_and_transport(F, G, omega, tol)
    ident = identity_channel(MultiMatrixAlgebra(F.source.block_dims))
    roundtrip = compose(G, F)
    ae_ok = ae_equal(roundtrip, ident, xi, tol)
    exact = tol.close(*roundtrip.distance(ident))
    ok = ucp.ok and state.ok and ae_ok and (exact.ok or F.source.n_blocks > 1)
    return DisintegrationReport(ucp, state, exact, ok)


@dataclass(frozen=True)
class CondexpReport:
    """Direct characterization of states admitting a preserving expectation."""

    off_diagonal: Verdict
    product: Verdict
    sigma_match: Verdict
    mixing: Verdict

    ok = property(lambda self: all((self.off_diagonal, self.product, self.sigma_match, self.mixing)))


def condexp_characterize(
    h: HomSpec, omega: State, tol: Tolerances = DEFAULT_TOL
) -> CondexpReport:
    """Sub-block product test for a state-preserving conditional expectation.

    Independently of `factorize`, each weighted diagonal sub-block must (a)
    carry no cross-column mass and (b) split as its own two partial traces,
    with the source factor proportional to the pulled-back density. The
    `factorize` certificate must reach the same verdict, else the two routes
    disagree and InternalInconsistency is raised, naming the failing
    residuals of each; the recovery channel and its expectation are
    `disintegrate`'s.
    """
    if omega.algebra.block_dims != h.target.block_dims:
        raise ShapeMismatch("state does not live on the hom's target algebra")
    xi = pullback(omega, from_hom(h), tol)
    off_res = 0.0
    prod_res = 0.0
    sigma_res = 0.0
    mus: dict[tuple[int, int], float] = {}

    for i in range(h.target.n_blocks):
        W = omega.weighted_density(i)
        layout = h.sub_block_layout(i)
        for a, (ja, oa, sa) in enumerate(layout):
            for b, (jb, ob, sb) in enumerate(layout):
                if a != b:
                    off_res = max(off_res, frobenius(W[oa : oa + sa, ob : ob + sb]))
        for j, offset, size in layout:
            c = h.multiplicities[i][j]
            n_j = h.source.block_dims[j]
            S = W[offset : offset + size, offset : offset + size]
            t = float(np.trace(S).real)
            p_i = omega.weights[i]
            if t <= tol.rank_cutoff(1.0):
                prod_res = max(prod_res, frobenius(S))
                mus[(i, j)] = 0.0
                continue
            tau_part = partial_trace_right(S, c, n_j)
            sigma_part = partial_trace_left(S, c, n_j)
            prod_res = max(prod_res, frobenius(S - np.kron(tau_part, sigma_part) / t))
            if xi.weights[j] > 0.0:
                sigma_res = max(
                    sigma_res, frobenius(sigma_part / t - xi.densities[j])
                )
            mus[(i, j)] = t / p_i if p_i > 0.0 else 0.0

    mixing_res = 0.0
    for i in range(h.target.n_blocks):
        if omega.weights[i] > 0.0:
            row = sum(mus.get((i, j), 0.0) for j in range(h.source.n_blocks))
            mixing_res = max(mixing_res, abs(row - 1.0))
    for j in range(h.source.n_blocks):
        col = sum(
            mus.get((i, j), 0.0) * omega.weights[i]
            for i in range(h.target.n_blocks)
        )
        mixing_res = max(mixing_res, abs(col - xi.weights[j]))

    verdicts = {
        "off_diagonal": tol.close(off_res), "product": tol.close(prod_res),
        "sigma_match": tol.close(sigma_res, 1.0, 10), "mixing": tol.close(mixing_res, 1.0, 10),
    }
    report = CondexpReport(**verdicts)
    cert = factorize(h, omega, tol)
    if cert.ok != report.ok:
        raise InternalInconsistency(
            f"sub-block characterization ({report.ok}; failing: {failing(verdicts)}) "
            f"disagrees with the factorization certificate ({cert.ok}; failing: "
            f"{failing(cert.verdicts)})"
        )
    return report


@dataclass(frozen=True)
class DisintegrationResult:
    exists: bool
    recovery: Optional[Channel]
    certificate: FactorizationCertificate
    report: Optional[DisintegrationReport]

    @cached_property
    def expectation(self) -> Optional[Channel]:
        """from_hom(h) o recovery, composed when first read."""
        if self.recovery is None:
            return None
        return compose(from_hom(self.certificate.hom), self.recovery)


def disintegrate(
    h: HomSpec, omega: State, tol: Tolerances = DEFAULT_TOL
) -> DisintegrationResult:
    """Full pipeline: factorize, build, verify."""
    cert = factorize(h, omega, tol)
    if not cert.ok:
        return DisintegrationResult(
            exists=False, recovery=None, certificate=cert, report=None,
        )
    F = from_hom(h)
    G = build_disintegration(cert, tol=tol)
    report = verify_disintegration(F, G, omega, tol)
    if not report.ok:
        raise InternalInconsistency(
            "certificate passed but the built disintegration failed the "
            f"oracle: {report}"
        )
    return DisintegrationResult(
        exists=True,
        recovery=G,
        certificate=cert,
        report=report,
    )


@dataclass(frozen=True)
class TakesakiReport:
    """Corner-map characterization of disintegrability for embeddings: tests
    (a) multiplicative and (b) intertwining, and the disintegrability of the
    corner pair and of the full pair."""

    multiplicative: Verdict
    intertwining: Verdict
    corner_disintegration: bool
    full_disintegration: bool


def takesaki_battery(
    h: HomSpec, omega: State, tol: Tolerances = DEFAULT_TOL
) -> TakesakiReport:
    """Test the corner map and assert the proven equivalence chain.

    (a) multiplicativity of the corner map, (b) the corner intertwining
    condition, (c) disintegrability of the corner pair, against the full
    factorization verdict: [(a) and (b)] iff (c) iff full. Violations raise
    InternalInconsistency.
    """
    F = from_hom(h)
    cm = corner_map(F, omega, tol)
    chan = cm.channel

    # (a) is the corner map multiplicative (hence a unital *-homomorphism)?
    # It is Ad(V_o*) o h o Ad(V_x) for the support isometries V_x, V_o, so
    # with Q_o = 1 - V_o V_o* and R(E) = Q_o h(V_x E V_x*) V_o,
    # chan(E1 E2) - chan(E1) chan(E2) = R(E1*)* R(E2): it is multiplicative iff
    # the support of omega commutes with h on the lifted corner, R(E) = 0 for
    # every corner unit E. The residual is the largest ||R(E)* R(E)|| per
    # block pair, read from the hom's tensors and the isometries, not from the
    # corner channel; it is the Kadison-Schwarz defect that corner_det judges
    # below, held to the same threshold as `ae_deterministic`.
    sup_o, sup_x = cm.omega_support, cm.xi_support
    worst = 0.0
    for y in sup_x.kept:
        V = sup_x.isometries[y]
        for x in sup_o.kept:
            W = sup_o.isometries[x]
            Q = np.eye(len(W)) - W @ dagger(W)
            R = _sandwich(F.tensors[x][y], V, dagger(V), Q, W).swapaxes(1, 2)  # [i, j] = R(E_ij)
            worst = max(worst, float(_sq_frobenius(R.conj().swapaxes(-1, -2) @ R).max()))
    scale = _map_scale(chan)
    corner_hom = tol.close(float(np.sqrt(worst)), scale, scale)

    # (b) corner intertwining condition
    ac = ac_condition_algebraic(F, omega, tol)

    # (c) corner disintegration: faithful corner states, so a Bayesian
    # inverse (battery) together with exact multiplicativity decides it
    corner_analysis = battery(chan, cm.omega_restricted, tol)
    corner_det = ae_deterministic(chan, cm.omega_restricted, tol)
    corner_disint = corner_analysis.passed and corner_det

    full = factorize(h, omega, tol).ok

    if (corner_hom.ok and ac.ok) != corner_disint:
        raise InternalInconsistency(
            f"corner hom+intertwining ({corner_hom.ok}, {ac.ok}) disagrees with "
            f"corner disintegrability ({corner_disint})"
        )
    if corner_disint != full:
        raise InternalInconsistency(
            f"corner disintegrability ({corner_disint}) disagrees with the "
            f"full factorization verdict ({full})"
        )
    return TakesakiReport(corner_hom, ac.verdict, corner_disint, full)


@dataclass(frozen=True)
class BridgeReport:
    """Disintegration exists iff a Bayesian inverse exists and the map is
    a.e. deterministic; checked per instance across modules."""

    disintegration: bool
    bayes_inverse: bool
    deterministic: bool
    consistent: bool


def bayes_disint_bridge(
    F: Union[LinearMap, HomSpec],
    omega: State,
    tol: Tolerances = DEFAULT_TOL,
) -> BridgeReport:
    hom = F if isinstance(F, HomSpec) else None
    chan = from_hom(F) if hom is not None else F

    exists_bayes, inverse, _, _ = bayes_inverse(chan, omega, tol)
    det = ae_deterministic(chan, omega, tol)
    rhs = exists_bayes and det

    if hom is not None:
        disint = factorize(hom, omega, tol).ok
        if disint != rhs:
            raise InternalInconsistency(
                f"disintegration verdict {disint} contradicts "
                f"[Bayesian inverse {exists_bayes} and deterministic {det}]"
            )
    else:
        if rhs:
            report = verify_disintegration(chan, inverse, omega, tol)
            if not report.ok:
                raise InternalInconsistency(
                    "a deterministic channel with a Bayesian inverse must be "
                    f"disintegrated by that inverse, got {report}"
                )
            disint = True
        else:
            disint = False
    return BridgeReport(
        disintegration=disint,
        bayes_inverse=exists_bayes,
        deterministic=det,
        consistent=disint == rhs,
    )
