"""Functoriality of Bayesian inverses, a reference check for the tests.

`compositionality_check` checks that the identity channel inverts itself,
that the composite of two inverses inverts the composite channel, and that
a second inverse of the same pair, `ramp_split_inverse`, agrees with the
first almost everywhere while exact equality may fail off the support.
"""

from dataclasses import dataclass

import numpy as np

from qbayes.bayesinv import BayesAnalysis, ExistenceResult, bayes_inverse, verify_bayes
from qbayes.channel import Channel, ae_equal, compose, identity_channel
from qbayes.linalg import DEFAULT_TOL, Tolerances, dagger
from qbayes.state import State, pullback, support


@dataclass(frozen=True)
class CompositionalityReport:
    identity_ok: bool
    composite_ok: bool
    composite_residual: float
    second_inverse_ok: bool
    uniqueness_ae_ok: bool
    extensions_differ: bool


def ramp_split_inverse(analysis: BayesAnalysis, result: ExistenceResult) -> Channel:
    """The inverse that `existence` built, with the leftover co-support mass of
    each source block spread over the free diagonal of target block x in the
    ratio 1 : 2 : ... : m_x instead of uniformly. Read from the kept
    `trace_blocks` and inverse: any admissible split is a Bayesian inverse."""
    F, xi, tol = analysis.F, analysis.xi, analysis.tol
    P_xis = support(xi, tol).projection.blocks
    w_x = np.array(F.target.block_dims, dtype=float)
    w_x /= w_x.sum()
    tensors = [list(row) for row in result.inverse.tensors]
    for y, n_y in enumerate(F.source.block_dims):
        if xi.weights[y] <= 0.0:
            continue
        delta = np.eye(n_y) - P_xis[y] - result.trace_blocks[y]
        dw, dV = np.linalg.eigh((delta + dagger(delta)) / 2)
        delta_psd = (dV * np.clip(dw, 0.0, None)) @ dagger(dV)
        for x, m_x in enumerate(F.target.block_dims):
            ramp = np.arange(1, m_x + 1) / (m_x * (m_x + 1) / 2)
            shift = np.kron(np.diag((ramp - 1.0 / m_x) * w_x[x]), delta_psd)
            tensors[y][x] = tensors[y][x] + shift.reshape(m_x, n_y, m_x, n_y)
    return Channel(F.target, F.source, tensors, tol=tol)


def compositionality_check(
    F: Channel, G: Channel, omega: State, tol: Tolerances = DEFAULT_TOL
) -> CompositionalityReport:
    """The functoriality checks of the Bayesian inverses of F and of G, G's at
    the pullback of omega; both must exist."""
    ident = identity_channel(omega.algebra)
    identity_ok = verify_bayes(ident, ident, omega, tol).ok

    xi = pullback(omega, F, tol)
    ok_f, Fbar, analysis_f, result_f = bayes_inverse(F, omega, tol)
    ok_g, Gbar, _, _ = bayes_inverse(G, xi, tol)
    if not (ok_f and ok_g):
        raise ValueError("compositionality check needs two invertible inputs")
    report = verify_bayes(compose(F, G), compose(Gbar, Fbar), omega, tol)

    second = ramp_split_inverse(analysis_f, result_f)
    return CompositionalityReport(
        identity_ok=identity_ok,
        composite_ok=report.ok,
        composite_residual=report.pairing.residual,
        second_inverse_ok=verify_bayes(F, second, omega, tol).ok,
        uniqueness_ae_ok=ae_equal(Fbar, second, xi, tol),
        extensions_differ=not tol.close(*Fbar.distance(second)),
    )
