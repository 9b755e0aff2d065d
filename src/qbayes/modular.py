"""Modular flow of states and the corner-compressed intertwining condition.

For a faithful state the flow at time t conjugates each block by the
imaginary power of its density. For non-faithful states the flow becomes a
semigroup: it agrees with the corner flow on the support algebra and kills
the off-support components.

The Accardi-Cecchini (AC) condition asks a state-preserving UCP map to
intertwine the flows of the two states. Two computable forms are provided:
an algebraic single-equation test per matrix unit (the primary method), and
a sampled-t intertwining test (an independent cross-validation). They are
provably equivalent, so a disagreement raises InternalInconsistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import AlgebraElement, memo
from .channel import Channel, LinearMap, _factor, _sandwich, _unit_rows, is_ucp
from .errors import InternalInconsistency, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    Verdict,
    dagger,
    _sq_frobenius,
)
from .state import State, SupportData, pullback, support

DEFAULT_T_SAMPLES = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0, math.pi)


def modular_flow(omega: State, tol: Tolerances = DEFAULT_TOL) -> SupportData:
    """A state's flow is read from the spectra its support decomposition keeps:
    the eigenpairs of each weighted density above the global rank cutoff,
    empty for a block that carries no support. The flow is insensitive to the
    weights (imaginary powers of positive scalars are phases that cancel
    under conjugation)."""
    return support(omega, tol)


def _flow_unitaries(flow: SupportData, times: Sequence[float]) -> list[np.ndarray]:
    """U_t = V diag(w^{it}) V* per block as a (times, d, d) stack, one broadcast
    exp per block; the zero matrix off the support."""
    ts = np.asarray(times, dtype=float)[:, None]
    return [flow.calculus(x, lambda w: np.exp(1j * ts * np.log(w)))
            for x in range(len(flow.spectra))]


def modular_at(flow: SupportData, t: float, A: AlgebraElement) -> AlgebraElement:
    """Flow at time t: density^{it} A density^{-it} on the support, zero off it."""
    if A.algebra.block_dims != flow.state.algebra.block_dims:
        raise ShapeMismatch("element does not belong to the flow's algebra")
    blocks = tuple(U[0] @ B @ dagger(U[0]) for U, B in zip(_flow_unitaries(flow, (t,)), A.blocks))
    return AlgebraElement(flow.state.algebra, blocks)


@dataclass(frozen=True)
class CornerMap:
    """The compression of a state-preserving UCP map between support algebras.

    channel maps the corner algebra of the pulled-back source state into the
    corner algebra of the target state. The commuting square (restricted
    target state composed with the corner map equals the restricted source
    state) is verified at construction. When both supports are full, the pair
    is its own corner: channel, omega_restricted and xi_restricted are the
    map, the state and its pullback themselves.
    """

    omega_support: SupportData
    xi_support: SupportData
    channel: Channel
    omega_restricted: State
    xi_restricted: State


def corner_map(F: LinearMap, omega: State, tol: Tolerances = DEFAULT_TOL) -> CornerMap:
    """compress o F o lift: lift and compress are the Kraus maps Ad(V) and
    Ad(V^*) of the support isometries of the pulled-back and target states.

    Built once per state, map and tolerance and kept on the state. The kept
    fields hold None in place of omega, their owner, when the pair is its own
    corner.
    """
    if omega.algebra.block_dims != F.target.block_dims:
        raise ShapeMismatch("state does not live on the map's target algebra")
    sup_o = support(omega, tol)
    sup_x = support(pullback(omega, F, tol), tol)
    chan, omega_r, xi_r = memo(
        omega, ("corner", F, tol), lambda: _corner_map(F, sup_o, sup_x, tol)
    )
    return CornerMap(sup_o, sup_x, chan, omega if omega_r is None else omega_r, xi_r)


def _corner_map(F: LinearMap, sup_o: SupportData, sup_x: SupportData, tol: Tolerances) -> tuple:
    """The CornerMap fields after the two supports; F, None and the pullback
    when both supports are full."""
    faithful = sup_o.is_full() and sup_x.is_full()
    if faithful:
        chan, omega_r, xi_r = F, sup_o.state, sup_x.state
    else:
        V, W = sup_x.isometries, sup_o.isometries
        tensors = [
            [_sandwich(F.tensors[x][y], V[y], dagger(V[y]), dagger(W[x]), W[x]) for y in sup_x.kept]
            for x in sup_o.kept
        ]
        # the corner is factored by W* K V and W* N V, K and N the stacks of F's factor
        kraus, negative = (
            None if grid is None
            else [[dagger(W[x]) @ grid[x][y] @ V[y] for y in sup_x.kept] for x in sup_o.kept]
            for grid in _factor(F, tol)
        )
        chan = Channel(
            sup_x.corner_algebra, sup_o.corner_algebra, tensors, tol=tol,
            kraus=kraus, negative=negative,
        )
        omega_r, xi_r = sup_o.restricted_state(), sup_x.restricted_state()

    verdict = is_ucp(chan, tol)
    if not verdict:
        raise InternalInconsistency(
            "corner compression of a state-preserving UCP map failed the UCP "
            f"test: {verdict.failing()}"
        )
    # commuting square on corner matrix units, omega_r(F'(E_ij)) = xi_r(E_ij):
    # sum_x tr(p_x rho_x F'_xy(E_ij)) = q_y sigma_y[j, i], one product per block
    worst = 0.0
    for y in range(chan.source.n_blocks):
        lhs = sum(
            _unit_rows(chan.tensors[x][y]) @ omega_r.weighted_density(x).T.reshape(-1)
            for x in range(chan.target.n_blocks)
        )
        rhs = xi_r.weighted_density(y).T.reshape(-1)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    if not tol.close(worst, 1.0, 10):
        raise InternalInconsistency(
            f"corner square does not commute, residual {worst:.3e}"
        )
    return chan, None if faithful else omega_r, xi_r


@dataclass(frozen=True)
class ACReport:
    """One AC test; a sampled report keeps the algebraic report it was
    cross-checked against, and an algebraic one holds None there."""

    verdict: Verdict
    corner: CornerMap
    algebraic: Optional["ACReport"] = None

    ok = property(lambda self: self.verdict.ok)

    def __bool__(self) -> bool:
        return self.ok


def ac_condition_algebraic(
    F: LinearMap,
    omega: State,
    tol: Tolerances = DEFAULT_TOL,
) -> ACReport:
    """Single-equation AC test on the corner data.

    For every corner matrix unit E and every block pair, the residual of
    corner(F)(sigma E) rho - rho corner(F)(E sigma) must vanish, where rho
    and sigma are the corner densities of the two restricted (faithful)
    states.

    Decided once per state, map and tolerance, like `corner_map`: the verdict
    is kept on the state, and every caller reads it with its corner map.
    """
    cm = corner_map(F, omega, tol)
    verdict = memo(omega, ("ac", F, tol), lambda: _ac_algebraic(cm, tol))
    return ACReport(verdict, cm)


def _ac_algebraic(cm: CornerMap, tol: Tolerances) -> Verdict:
    """The algebraic AC verdict on the corner map cm."""
    chan = cm.channel
    worst = 0.0
    scale = 1.0
    for y in range(chan.source.n_blocks):
        sig = cm.xi_restricted.densities[y]
        for x in range(chan.target.n_blocks):
            T = chan.tensors[x][y]
            rho = cm.omega_restricted.densities[x]
            lhs = _sandwich(T, A=sig, R=rho)   # corner(F)(sigma E) rho
            rhs = _sandwich(T, B=sig, L=rho)   # rho corner(F)(E sigma)
            largest = max(_sq_frobenius(M.swapaxes(1, 2)).max() for M in (lhs, rhs))
            scale = max(scale, float(np.sqrt(largest)))
            lhs -= rhs
            worst = max(worst, float(np.sqrt(_sq_frobenius(lhs.swapaxes(1, 2)).max())))
    return tol.close(worst, scale)


def ac_condition_sampled(
    F: LinearMap,
    omega: State,
    tol: Tolerances = DEFAULT_TOL,
) -> ACReport:
    """Sampled-t intertwining test, cross-validated against the algebraic one.

    Checks corner(F) o flow_xi^t = flow_omega^t o corner(F) on corner matrix
    units at each t of DEFAULT_T_SAMPLES, which includes an irrational time
    to avoid accidental periodicity of rational spectra.

    With U_t and U'_t the flow unitaries of xi and omega, the Frobenius norm
    is unitarily invariant, so ||C(U_t E U_t^*) - U'_t C(E) U'_t^*|| =
    ||Ad(U'_t^*) o C o Ad(U_t)(E) - C(E)||: one sandwich per time and block
    pair. A pair runs its times in batches of at most S / |T_xy|, S the size
    of all of the corner map's tensors, so no batch outgrows them.
    """
    algebraic = ac_condition_algebraic(F, omega, tol)
    cm = algebraic.corner
    chan = cm.channel
    times = DEFAULT_T_SAMPLES
    U_o = _flow_unitaries(modular_flow(cm.omega_restricted, tol), times)
    U_x = _flow_unitaries(modular_flow(cm.xi_restricted, tol), times)
    budget = sum(T.size for row in chan.tensors for T in row)
    worst = 0.0
    scale = 1.0
    for y, n_y in enumerate(chan.source.block_dims):
        # squared norms of Ad(U'_t*) C Ad(U_t)(E_ij) and of its difference
        # from C(E_ij) per time, summed over target blocks; and of C(E_ij)
        sq_t = np.zeros((2, len(times), n_y, n_y))
        sq_c = np.zeros((n_y, n_y))
        for x in range(chan.target.n_blocks):
            T = chan.tensors[x][y]
            sq_c += _sq_frobenius(T.swapaxes(1, 2))
            batch = min(len(times), max(1, budget // T.size))
            for s in range(0, len(times), batch):
                ts = slice(s, s + batch)
                Ux, Uo = U_x[y][ts], U_o[x][ts]
                X = _sandwich(T, Ux, Ux.conj().swapaxes(-1, -2), Uo.conj().swapaxes(-1, -2), Uo)
                sq_t[0, ts] += _sq_frobenius(X.swapaxes(-3, -2))
                X -= T
                sq_t[1, ts] += _sq_frobenius(X.swapaxes(-3, -2))
                del X  # a batch-size array, not to be held into the next batch
        worst = max(worst, float(np.sqrt(sq_t[1].max(initial=0.0))))
        scale = max(scale, float(np.sqrt(sq_t[0].max(initial=0.0))), float(np.sqrt(sq_c.max())))
    sampled = tol.close(worst, scale, 10)
    if sampled.ok != algebraic.ok:
        raise InternalInconsistency(
            "AC verdicts disagree: "
            f"algebraic={algebraic.ok} (residual {algebraic.verdict.residual:.3e}), "
            f"sampled={sampled.ok} (residual {worst:.3e})"
        )
    return ACReport(sampled, cm, algebraic)
