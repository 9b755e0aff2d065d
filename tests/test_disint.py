import dataclasses
import numpy as np
import pytest

import qbayes.disint
from qbayes.algebra import HomSpec, MultiMatrixAlgebra, unit
from qbayes.channel import LinearMap, compose, from_hom, identity_channel, is_ucp
from qbayes.disint import (
    bayes_disint_bridge,
    build_disintegration,
    condexp_characterize,
    disintegrate,
    factorize,
    takesaki_battery,
    verify_disintegration,
)
from qbayes.cli import main
from qbayes.errors import InvalidCertificate
from qbayes.linalg import Tolerances, Verdict, dagger, frobenius
from qbayes.modular import corner_map
from qbayes.generators import (
    inclusion_hom,
    product_state_for_hom,
    random_complex,
    random_hom,
    random_state,
)
from qbayes.state import State, evaluate, pullback, state_from_weighted

from conftest import fixture_path
from instances import (
    epr_instance,
    nonproduct_faithful_instance,
    nonsubalgebra_deterministic_instance,
    product_instance,
)
from oracles import matrix_units
from pair_loops import corner_hom_pairs

# the equality threshold of the expectations' identities
CLOSE = Tolerances(eps_eq=1e-9)


def test_factorize_product_extracts_tau():
    h, omega = product_instance()
    cert = factorize(h, omega)
    assert cert.ok
    np.testing.assert_allclose(cert.tau[(0, 0)], np.diag([0.3, 0.7]), atol=1e-12)
    # the mixing coefficient lambda = tr tau, and mu = lambda q / p
    assert abs(np.trace(cert.tau[(0, 0)]) - 1.0) < 1e-12
    assert abs(np.trace(cert.tau[(0, 0)]) * cert.xi.weights[0] / omega.weights[0] - 1.0) < 1e-12


def test_factorize_epr_fails_with_residual():
    h, omega = epr_instance()
    cert = factorize(h, omega)
    assert not cert.ok
    assert cert.residuals["reconstruction"] > 0.1 or cert.residuals["off_diagonal"] > 0.1


def test_factorize_perturbation_sweep():
    rng = np.random.default_rng(0)
    h = random_hom(rng, (2, 2), max_mult=2)
    omega = product_state_for_hom(rng, h)
    cert = factorize(h, omega)
    assert cert.ok
    # perturb the first density off the product manifold
    for delta, expect in ((1e-12, True), (1e-3, False)):
        weighted = []
        for i in range(h.target.n_blocks):
            W = omega.weighted_density(i).copy()
            noise = random_complex(rng, *W.shape)
            noise = (noise + noise.conj().T) / 2
            W = W + delta * noise
            w, V = np.linalg.eigh(W)
            W = (V * np.clip(w, 0, None)) @ V.conj().T
            weighted.append(W)
        perturbed = state_from_weighted(h.target, weighted)
        assert factorize(h, perturbed).ok == expect


def test_build_disintegration_product_is_weighted_partial_trace():
    h, omega = product_instance()
    cert = factorize(h, omega)
    G = build_disintegration(cert)
    tau = np.diag([0.3, 0.7])
    for E in matrix_units(h.target):
        expected = np.einsum("uw,wsut->st", tau, E.blocks[0].reshape(2, 2, 2, 2))
        np.testing.assert_allclose(G.apply(E).blocks[0], expected, atol=1e-10)
    report = verify_disintegration(from_hom(h), G, omega)
    assert report.ok
    assert report.exact_left_inverse


def _zero_weight_column_instance():
    h = HomSpec(MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((3,)), ((1, 1),))
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = np.diag([0.6, 0.4])
    return h, State(h.target, (1.0,), (rho,))


def _seeded(h, seed, **ranks):
    return lambda: (h, product_state_for_hom(np.random.default_rng(seed), h, **ranks))


DISINT_CASES = {
    "single-block": product_instance,
    "multi-block": _seeded(
        HomSpec(MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((5, 2)), ((2, 1), (1, 0))), 30
    ),
    "rank-deficient": _seeded(
        inclusion_hom(3, 2), 31, tau_ranks={(0, 0): 2}, sigma_ranks=[1]
    ),
    "zero-weight": _zero_weight_column_instance,
    "missed-source-block": _seeded(
        HomSpec(MultiMatrixAlgebra((2, 3)), MultiMatrixAlgebra((2,)), ((1, 0),)), 6
    ),
}


@pytest.mark.parametrize("case", DISINT_CASES.values(), ids=DISINT_CASES.keys())
def test_build_disintegration_matches_unit_reference(case):
    h, omega = case()
    cert = factorize(h, omega)
    assert cert.ok
    s = h.target.n_blocks

    # reference: the recovery evaluated on one target matrix unit at a time
    def fn(j, i, E):
        n_j = h.source.block_dims[j]
        stack = sum(h.multiplicities[k][j] for k in range(s))
        if stack == 0:
            return np.trace(E) * np.eye(n_j) / (s * h.target.block_dims[i])
        c = h.multiplicities[i][j]
        if c == 0:
            return np.zeros((n_j, n_j))
        tau = cert.tau[(i, j)] if cert.xi.weights[j] > 0.0 else np.eye(c) / stack
        offset = next(o for jj, o, _ in h.sub_block_layout(i) if jj == j)
        size = c * n_j
        X = E[offset : offset + size, offset : offset + size].reshape(c, n_j, c, n_j)
        return np.einsum("uw,wsut->st", tau, X)

    reference = LinearMap.from_block_fn(h.target, h.source, fn)
    G = build_disintegration(cert)
    for row, row_ref in zip(G.tensors, reference.tensors):
        for T, T_ref in zip(row, row_ref):
            np.testing.assert_allclose(T, T_ref, rtol=0.0, atol=1e-12)
    assert verify_disintegration(from_hom(h), G, omega).ok


def test_build_rejects_invalid_certificate():
    h, omega = epr_instance()
    cert = factorize(h, omega)
    with pytest.raises(InvalidCertificate):
        build_disintegration(cert)


def test_verify_disintegration_detects_wrong_tau():
    h, omega = product_instance()
    cert = factorize(h, omega)
    wrong = {(0, 0): np.diag([0.7, 0.3])}  # swapped weights
    bad_cert = dataclasses.replace(cert, tau=wrong)  # its verdicts all pass
    assert bad_cert.ok
    G_bad = build_disintegration(bad_cert)
    report = verify_disintegration(from_hom(h), G_bad, omega)
    assert not report.ok
    assert report.state_preservation.residual > 1e-3


def test_verify_disintegration_identity():
    rng = np.random.default_rng(1)
    alg = MultiMatrixAlgebra((2, 2))
    omega = random_state(rng, alg)
    ident = identity_channel(alg)
    assert verify_disintegration(ident, ident, omega).ok


def test_expectation_properties_product():
    h, omega = product_instance()
    res = disintegrate(h, omega)
    assert res.exists
    E = res.expectation
    F = from_hom(h)
    # idempotence on matrix units
    EE = compose(E, E)
    assert CLOSE.close(*EE.distance(E))
    # fixes the embedded subalgebra and is bimodular over it
    src_units = list(matrix_units(h.source))
    tgt_units = list(matrix_units(h.target))
    for B in src_units:
        FB = F.apply(B)
        assert (E.apply(FB) - FB).norm() < 1e-9
    for B1 in src_units[:2]:
        for B2 in src_units[:2]:
            FB1, FB2 = F.apply(B1), F.apply(B2)
            for A in tgt_units[:6]:
                lhs = E.apply(FB1 @ A @ FB2)
                rhs = FB1 @ E.apply(A) @ FB2
                assert (lhs - rhs).norm() < 1e-9
    # positivity and state preservation
    assert is_ucp(E)
    for A in tgt_units:
        assert abs(evaluate(omega, E.apply(A)) - evaluate(omega, A)) < 1e-9


def test_expectation_norm_one_shadow():
    rng = np.random.default_rng(2)
    h, omega = product_instance()
    E = disintegrate(h, omega).expectation
    worst = 0.0
    for _ in range(25):
        A = random_complex(rng, 4, 4)
        out = E.apply(
            type(unit(h.target))(h.target, (A,))
        )
        ratio = np.linalg.norm(out.blocks[0], 2) / np.linalg.norm(A, 2)
        worst = max(worst, ratio)
    one = E.apply(unit(h.target))
    assert abs(np.linalg.norm(one.blocks[0], 2) - 1.0) < 1e-10
    assert worst <= 1.0 + 1e-9


def test_condexp_agrees_with_factorize():
    h, omega = product_instance()
    rep = condexp_characterize(h, omega)
    assert rep.ok
    assert rep.mixing.residual < 1e-10
    h2, omega2 = epr_instance()
    rep2 = condexp_characterize(h2, omega2)
    assert not rep2.ok

    rng = np.random.default_rng(3)
    agree = 0
    for trial in range(30):
        h = random_hom(rng, (2, 2), max_mult=2)
        if trial % 2 == 0:
            omega = product_state_for_hom(rng, h)
        else:
            omega = random_state(rng, h.target)
        ok_f = factorize(h, omega).ok
        ok_c = condexp_characterize(h, omega).ok
        assert ok_f == ok_c
        agree += 1
    assert agree == 30


@pytest.mark.parametrize("fixture, certificate_ok", [("product", False), ("epr", True)])
def test_broken_factorize_route_exits_3(fixture, certificate_ok, monkeypatch, capsys):
    # condexp reads the certificate whichever verdict its sub-block test
    # reaches, so a certificate that answers the other way alarms both ways
    factorize = qbayes.disint.factorize
    verdict = Verdict(0.0, 1.0) if certificate_ok else Verdict(1.0, 0.0)

    def broken(*args):
        cert = factorize(*args)
        return dataclasses.replace(cert, verdicts=dict.fromkeys(cert.verdicts, verdict))

    monkeypatch.setattr(qbayes.disint, "factorize", broken)
    assert main(["check", str(fixture_path(f"{fixture}.json")), "--analyses", "condexp"]) == 3
    err = capsys.readouterr().err
    assert f"({not certificate_ok}; failing: " in err
    assert f"disagrees with the factorization certificate ({certificate_ok}; failing: " in err


def test_condexp_emits_expectation():
    # a passing condexp verdict comes with an expectation: disintegrate's,
    # the one route to the recovery
    h, omega = product_instance()
    assert condexp_characterize(h, omega).ok
    E = disintegrate(h, omega).expectation
    assert E is not None
    assert CLOSE.close(*compose(E, E).distance(E))


def test_certificate_arithmetic():
    rng = np.random.default_rng(4)
    for trial in range(10):
        h = random_hom(rng, (2, 3), max_mult=2)
        omega = product_state_for_hom(rng, h)
        cert = factorize(h, omega)
        assert cert.ok
        xi = cert.xi
        # the mixing coefficient lambda_ij = tr tau_ij, 0 for a missing sub-block
        lam = {key: np.trace(t).real for key, t in cert.tau.items()}
        for i in range(h.target.n_blocks):
            row = sum(
                lam.get((i, j), 0.0) * xi.weights[j]
                for j in range(h.source.n_blocks)
            )
            assert abs(row - omega.weights[i]) < 1e-8
        for j in range(h.source.n_blocks):
            if xi.weights[j] <= 0:
                continue
            col = sum(
                lam.get((i, j), 0.0) for i in range(h.target.n_blocks)
            )
            assert abs(col - 1.0) < 1e-8


def test_takesaki_epr():
    h, omega = epr_instance()
    rep = takesaki_battery(h, omega)
    assert rep.intertwining.ok
    assert not rep.multiplicative.ok
    assert not rep.corner_disintegration
    assert not rep.full_disintegration


def test_takesaki_reverse_counterexample():
    h, omega = nonproduct_faithful_instance()
    rep = takesaki_battery(h, omega)
    assert rep.multiplicative.ok
    assert not rep.intertwining.ok
    assert not rep.full_disintegration


def test_takesaki_product_all_true():
    h, omega = product_instance()
    rep = takesaki_battery(h, omega)
    assert rep.multiplicative.ok
    assert rep.intertwining.ok
    assert rep.corner_disintegration
    assert rep.full_disintegration


def test_takesaki_multiblock_randomized():
    instances = []
    rng = np.random.default_rng(5)
    for trial in range(10):
        h = random_hom(rng, (2, 2), max_mult=2)
        omega = (
            product_state_for_hom(rng, h)
            if trial % 2 == 0
            else random_state(rng, h.target)
        )
        instances.append((h, omega))
    # rank-deficient states, whose supports need not commute with the hom
    rng = np.random.default_rng(6)
    for trial in range(6):
        h = random_hom(rng, (2, 2), max_mult=2)
        ranks = [max(m - 1 - trial % 2, 1) for m in h.target.block_dims]
        instances.append((h, random_state(rng, h.target, ranks=ranks)))
    for h, omega in instances:
        rep = takesaki_battery(h, omega)  # raises on any equivalence violation
        assert rep.corner_disintegration == rep.full_disintegration

        # the verdict of test (a) against the loop over pairs of corner units
        F = from_hom(h)
        cm = corner_map(F, omega)
        assert rep.multiplicative.ok == corner_hom_pairs(cm.channel)[0]

        # its residual, unit by unit: the largest ||R(E)* R(E)|| over corner
        # units E and target blocks, with R(E) = Q_o h(V_x E V_x*) V_o
        sup_o, sup_x = cm.omega_support, cm.xi_support
        worst = 0.0
        for E in matrix_units(cm.channel.source):
            image = F.apply(sup_x.lift(E))
            for x in sup_o.kept:
                W = sup_o.isometries[x]
                R = image.blocks[x] @ W - W @ (dagger(W) @ image.blocks[x] @ W)
                worst = max(worst, frobenius(dagger(R) @ R))
        assert abs(rep.multiplicative.residual - worst) <= 1e-12


def test_bridge_fixtures():
    h, omega = product_instance()
    rep = bayes_disint_bridge(h, omega)
    assert rep.disintegration and rep.bayes_inverse and rep.deterministic

    h, omega = epr_instance()
    rep = bayes_disint_bridge(h, omega)
    assert not rep.disintegration
    assert rep.deterministic
    assert not rep.bayes_inverse
    assert rep.consistent

    F, omega = nonsubalgebra_deterministic_instance()
    rep = bayes_disint_bridge(F, omega)
    assert rep.deterministic
    assert rep.consistent


def test_bridge_pinned_counterexample_not_deterministic():
    from qbayes.jsonio import loads, problem_from_json

    problem = problem_from_json(
        loads(fixture_path("battery_pass_no_inverse.json").read_text())
    )
    rep = bayes_disint_bridge(problem["channel"], problem["state"])
    assert not rep.bayes_inverse
    assert not rep.disintegration
    assert rep.consistent


def test_uniform_branch_missed_source_block():
    # source block 2 is not hit by the embedding: the recovery channel uses
    # the normalized-trace branch there and stays UCP and state-preserving
    src = MultiMatrixAlgebra((2, 3))
    h = HomSpec(src, MultiMatrixAlgebra((2,)), ((1, 0),))
    rng = np.random.default_rng(6)
    omega = product_state_for_hom(rng, h)
    cert = factorize(h, omega)
    assert cert.ok
    G = build_disintegration(cert)
    assert is_ucp(G)
    F = from_hom(h)
    report = verify_disintegration(F, G, omega)
    assert report.ok


def test_uniform_branch_zero_weight_column():
    # the embedding hits source block 2 but the state gives it no mass:
    # tau falls back to the uniform stack so the channel stays unital
    src = MultiMatrixAlgebra((2, 1))
    h = HomSpec(src, MultiMatrixAlgebra((3,)), ((1, 1),))
    tau = np.array([[1.0]])
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = np.diag([0.6, 0.4])  # all mass on the first sub-block
    omega = State(h.target, (1.0,), (rho,))
    cert = factorize(h, omega)
    assert cert.ok
    G = build_disintegration(cert)
    assert is_ucp(G)
    xi = pullback(omega, from_hom(h))
    assert xi.weights[1] == 0.0
    report = verify_disintegration(from_hom(h), G, omega)
    assert report.ok
