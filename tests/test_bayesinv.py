import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qbayes.algebra import MultiMatrixAlgebra
from qbayes.bayesinv import (
    _pairing_residual,
    battery,
    bayes_inverse,
    existence,
    left_right_bayes,
    verify_bayes,
)
from qbayes.channel import (
    Channel,
    LinearMap,
    _sandwich,
    compose,
    from_hom,
    identity_channel,
    is_ucp,
)
from qbayes.cli import main
from qbayes.disint import bayes_disint_bridge
from qbayes.errors import ShapeMismatch
from qbayes.generators import (
    inclusion_hom,
    product_state_for_hom,
    random_hom,
    random_state,
)
from qbayes.jsonio import loads, problem_from_json
from qbayes.linalg import (
    DEFAULT_TOL,
    Tolerances,
    dagger,
    frobenius,
    herm_fun,
    partial_trace_left,
    partial_trace_right,
    pseudoinverse,
)
from qbayes.state import State, SupportData, evaluate, pullback, support

from compositionality import compositionality_check
from conftest import INSTANCE_CASES, fixture_path, two_cutoff_instance
from feasibility import bayes_feasibility
from instances import (
    epr_instance,
    nonproduct_faithful_instance,
    product_instance,
    rankdef_product_instance,
)
from oracles import matrix_units, petz_map, random_unitary, support_map


def pinned_counterexample():
    data = loads(fixture_path("battery_pass_no_inverse.json").read_text())
    problem = problem_from_json(data)
    return problem["channel"], problem["state"]


def sqrt_reciprocal(w):
    """w^{-1/2} as the battery takes it, so that sigma-hat^{1/2} is the same
    array bit for bit."""
    return np.sqrt(1.0 / w)


def pair_operands(F, omega, tol=DEFAULT_TOL):
    """The operands of every (target x, source y) pair, each read as the
    battery reads it: the densities, sigma-hat and both square roots of the
    Petz map from the two supports' spectra."""
    xi = pullback(omega, F, tol)
    sup_o, sup_x = support(omega, tol), support(xi, tol)
    for x in range(F.target.n_blocks):
        for y in range(F.source.n_blocks):
            yield SimpleNamespace(
                x=x, y=y, T=F.tensors[x][y],
                rho_w=omega.weighted_density(x), sig_w=xi.weighted_density(y),
                shat_w=sup_x.calculus(y, np.reciprocal),
                P_om=sup_o.projection.blocks[x], P_xi=sup_x.projection.blocks[y],
                sq_rho=sup_o.calculus(x, np.sqrt), sq_shat=sup_x.calculus(y, sqrt_reciprocal),
            )


def test_left_right_bayes_identity_channel():
    rng = np.random.default_rng(0)
    alg = MultiMatrixAlgebra((3,))
    omega = random_state(rng, alg, ranks=(2,))
    F = identity_channel(alg)
    GL, GR = left_right_bayes(F, omega)
    # on the support both reduce to the two-sided compression
    from qbayes.state import support

    P = support(omega).projection
    for E in matrix_units(alg):
        target = P @ E @ P
        assert ((GL.apply(E) @ P) - target).norm() < 1e-9 or (
            GL.apply(E) - target
        ).norm() < 1e-9


def test_left_right_bayes_product_partial_trace():
    h, omega = product_instance()
    F = from_hom(h)
    GL, GR = left_right_bayes(F, omega)
    tau = np.diag([0.3, 0.7])
    for E in matrix_units(h.target):
        expected = partial_trace_right(
            np.kron(tau, np.eye(2)) @ E.blocks[0], 2, 2
        ).T  # tr_k over the tau factor leaves the source block
        # direct formula: G(A) = tr_k((tau (x) 1) A)
        got = GL.apply(E).blocks[0]
        direct = np.einsum("uw,wsut->st", tau, E.blocks[0].reshape(2, 2, 2, 2))
        np.testing.assert_allclose(got, direct, atol=1e-10)
        np.testing.assert_allclose(GR.apply(E).blocks[0], direct, atol=1e-10)


def test_left_right_pairing_residual_randomized():
    rng = np.random.default_rng(1)
    for trial in range(10):
        h = random_hom(rng, (2, 2), max_mult=2)
        omega = product_state_for_hom(rng, h)
        F = from_hom(h)
        GL, GR = left_right_bayes(F, omega)  # construction verifies pairing
        xi = pullback(omega, F)
        for E_a in list(matrix_units(h.target))[:6]:
            for E_b in list(matrix_units(h.source))[:6]:
                lhs = evaluate(omega, E_a @ F.apply(E_b))
                rhs = evaluate(xi, GL.apply(E_a) @ E_b)
                assert abs(lhs - rhs) < 1e-8


def test_battery_product_passes_with_partial_trace_formula():
    h, omega = product_instance()
    F = from_hom(h)
    analysis = battery(F, omega)
    assert analysis.passed
    for name, rep in analysis.conditions.items():
        assert rep.ok, name
        assert rep.residual < 1e-10
    tau = np.diag([0.3, 0.7])
    for E in matrix_units(h.target):
        got = support_map(analysis).apply(E).blocks[0]
        direct = np.einsum("uw,wsut->st", tau, E.blocks[0].reshape(2, 2, 2, 2))
        np.testing.assert_allclose(got, direct, atol=1e-9)


def test_battery_epr_fails_every_condition_consistently():
    h, omega = epr_instance()
    analysis = battery(from_hom(h), omega)
    assert not analysis.passed
    for name, rep in analysis.conditions.items():
        assert not rep.ok, name


def test_battery_nonproduct_faithful_fails():
    h, omega = nonproduct_faithful_instance()
    analysis = battery(from_hom(h), omega)
    assert not analysis.passed
    assert analysis.conditions["density_intertwining"].residual > 1e-4
    # no UCP candidate satisfies the pairing: independent feasibility check
    feas = bayes_feasibility(from_hom(h), omega, max_iterations=4000)
    assert feas.feasible is False


def test_battery_choi_split():
    h, omega = rankdef_product_instance()
    F = from_hom(h)
    analysis = battery(F, omega)
    assert analysis.passed
    inverse = existence(analysis).inverse
    # the inverse's rows on the xi support are the forced rows A + B, the
    # unsplit G^L (support + co-support parts), and their corner is A
    GL, _ = left_right_bayes(F, omega)
    for pd in pair_operands(F, omega):
        m = pd.rho_w.shape[0]
        n = pd.sig_w.shape[0]
        rows = _sandwich(inverse.tensors[pd.y][pd.x], L=pd.P_xi)
        assert frobenius(rows - GL.tensors[pd.y][pd.x]) < 1e-12
        corner = _sandwich(rows, R=pd.P_xi).reshape(m * n, m * n)
        assert frobenius(corner - analysis.choi_A[(pd.x, pd.y)]) < 1e-12


def test_two_cutoff_identity_inverts_itself():
    # sigma-hat and P_xi read one support, so the eigenvalue that the global
    # cutoff drops from P_xi is dropped from sigma-hat too
    h, omega = two_cutoff_instance()
    F = from_hom(h)
    analysis = battery(F, omega)
    assert analysis.passed
    result = existence(analysis)
    assert result.exists and verify_bayes(F, result.inverse, omega).ok
    assert bayes_disint_bridge(h, omega).consistent


@pytest.mark.parametrize("case", INSTANCE_CASES.values(), ids=INSTANCE_CASES.keys())
def test_sigma_hat_inverts_sigma_on_the_xi_support(case):
    F, omega = case()
    for pd in pair_operands(F, omega):
        np.testing.assert_allclose(pd.shat_w @ pd.sig_w, pd.P_xi, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("case", INSTANCE_CASES.values(), ids=INSTANCE_CASES.keys())
def test_calculus_matches_herm_fun_where_the_cutoffs_agree(case):
    # `herm_fun` cuts at eps_rank times the block's own largest eigenvalue,
    # `support` at eps_rank times the state's; where both keep the same
    # eigenvalues, the two calculi agree
    F, omega = case()
    compared = 0
    for state in (omega, pullback(omega, F)):
        sup = support(state)
        cutoff = DEFAULT_TOL.rank_cutoff(max(float(w.max(initial=0.0)) for w, _ in sup.spectra))
        for x in range(state.algebra.n_blocks):
            W = state.weighted_density(x)
            w = np.linalg.eigvalsh(W)
            if np.any((w > cutoff) != (w > DEFAULT_TOL.eps_rank * max(w.max(), 0.0))):
                continue
            for f in (np.sqrt, np.reciprocal, sqrt_reciprocal):
                np.testing.assert_allclose(sup.calculus(x, f), herm_fun(W, f), rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                sup.calculus(x, np.reciprocal), pseudoinverse(W), rtol=0.0, atol=1e-12
            )
            compared += 1
    assert compared


def test_petz_formula_matches_on_faithful_instances():
    rng = np.random.default_rng(2)
    for trial in range(5):
        h, omega = product_instance()
        F = from_hom(h)
        analysis = battery(F, omega)
        assert analysis.passed
        petz = petz_map(F, omega)
        assert Tolerances(eps_eq=1e-9).close(*support_map(analysis).distance(petz))
        report = verify_bayes(F, Channel(F.target, F.source, petz.tensors), omega)
        assert report.pairing.residual < 1e-8


def test_a_support_map_off_the_petz_map_raises(monkeypatch, capsys):
    # a passed battery cross-checks its support map Ad_P o G^L against the
    # Petz map pair by pair; a distance beyond the threshold is a bug alarm.
    # Only the Petz map reads sqrt(rho): doubled, its tensors read 4 times A
    calculus = SupportData.calculus
    monkeypatch.setattr(
        SupportData, "calculus",
        lambda self, x, f: calculus(self, x, f) * (2.0 if f is np.sqrt else 1.0),
    )
    argv = ["check", str(fixture_path("product.json")), "--analyses", "bayes-battery"]
    assert main(argv) == 3
    assert "recovery formula does not match the corner inverse although the battery passed" in (
        capsys.readouterr().err
    )


def test_unitary_conjugation_battery_and_inverse():
    rng = np.random.default_rng(3)
    alg = MultiMatrixAlgebra((3,))
    U = random_unitary(rng, 3)
    F = Channel(
        alg, alg,
        LinearMap.from_block_fn(alg, alg, lambda x, y, E: U @ E @ dagger(U)).tensors,
    )
    omega = random_state(rng, alg, ranks=(2,))
    ok, inverse, analysis, result = bayes_inverse(F, omega)
    assert analysis.passed
    assert ok
    report = verify_bayes(F, inverse, omega)
    assert report.ok
    # the inverse acts as conjugation by U* on the support
    xi = pullback(omega, F)
    ident = identity_channel(alg)
    from qbayes.channel import ae_equal

    assert ae_equal(compose(inverse, F), ident, xi)


def test_existence_rankdef_product_constructs_and_verifies():
    h, omega = rankdef_product_instance()
    F = from_hom(h)
    analysis = battery(F, omega)
    result = existence(analysis)
    assert result.exists
    assert result.margin >= -1e-9
    assert result.verification.ok
    assert result.verification.pairing.residual < 1e-8
    assert is_ucp(result.inverse)
    feas = bayes_feasibility(F, omega)
    assert feas.feasible is True


def test_existence_pinned_counterexample():
    F, omega = pinned_counterexample()
    analysis = battery(F, omega)
    assert analysis.passed
    result = existence(analysis)
    assert not result.exists
    assert result.margin < -0.05
    feas = bayes_feasibility(F, omega, max_iterations=8000)
    assert feas.feasible is False


def co_support_gaps(result, xi):
    """The Hermitian part of each weighted source block's co-support gap
    (1 - P_xi) - sum_x tr_x(B* A-hat B), the one matrix that `existence`
    decomposes per block."""
    projections = support(xi).projection.blocks
    for y, total in result.trace_blocks.items():
        delta = np.eye(len(total)) - projections[y] - total
        yield (delta + dagger(delta)) / 2


def test_margin_is_read_from_the_decomposition_of_the_gap():
    F, omega = pinned_counterexample()
    analysis = battery(F, omega)
    result = existence(analysis)
    assert not result.exists
    least = min(np.linalg.eigh(gap)[0].min() for gap in co_support_gaps(result, analysis.xi))
    assert result.margin == min(least, 0.0)


def test_existence_fails_closed_on_a_nan_gap(monkeypatch):
    # a NaN least eigenvalue of the co-support gap must not read as an
    # inverse: the gap's one eigendecomposition, which gives both the margin
    # and the spread, returns NaN eigenvalues on a fresh copy of the instance
    h, omega = rankdef_product_instance()
    first = battery(from_hom(h), omega)
    gaps = list(co_support_gaps(existence(first), first.xi))
    h, omega = rankdef_product_instance()
    analysis = battery(from_hom(h), omega)
    assert analysis.passed
    eigh, hit = np.linalg.eigh, []

    def nan_gap(M):
        w, V = eigh(M)
        if any(np.array_equal(M, gap) for gap in gaps):
            hit.append(M)
            w = np.full(len(w), np.nan)
        return w, V

    monkeypatch.setattr(np.linalg, "eigh", nan_gap)
    result = existence(analysis)
    assert len(hit) == len(gaps) and not result.exists and np.isnan(result.margin)


def test_existence_requires_passed_battery():
    h, omega = epr_instance()
    analysis = battery(from_hom(h), omega)
    with pytest.raises(ValueError):
        existence(analysis)


def test_verify_bayes_rejects_corrupted_candidate():
    h, omega = product_instance()
    F = from_hom(h)
    ok, inverse, _, _ = bayes_inverse(F, omega)
    assert ok
    # corrupt: naive normalized adjoint is not the inverse
    Fs = F.hs_adjoint()
    tensors = [[0.5 * Fs.tensors[0][0]]]
    candidate = LinearMap(F.target, F.source, tensors)
    report = verify_bayes(F, candidate, omega)
    assert not report.ok
    assert report.pairing.residual > 1e-3


def test_verify_bayes_identity():
    rng = np.random.default_rng(4)
    alg = MultiMatrixAlgebra((2, 2))
    omega = random_state(rng, alg)
    ident = identity_channel(alg)
    report = verify_bayes(ident, ident, omega)
    assert report.ok
    assert report.pairing.residual < 1e-12


def test_verify_bayes_shape_check():
    h, omega = product_instance()
    F = from_hom(h)
    with pytest.raises(ShapeMismatch):
        verify_bayes(F, F, omega)


def test_compositionality_chain_of_embeddings():
    rng = np.random.default_rng(5)
    # chain M_2 -> M_4 -> M_8 with product states built backwards
    h1 = inclusion_hom(2, 2)   # M_2 -> M_4
    h2 = inclusion_hom(2, 4)   # M_4 -> M_8
    tau1 = np.diag([0.3, 0.7])
    tau2 = np.diag([0.45, 0.55])
    sigma = np.diag([0.6, 0.4])
    rho_mid = np.kron(tau1, sigma)
    rho_top = np.kron(tau2, rho_mid)
    omega = State(h2.target, (1.0,), (rho_top,))
    F = from_hom(h2)
    G = from_hom(h1)
    report = compositionality_check(F, G, omega)
    assert report.identity_ok
    assert report.composite_ok
    assert report.composite_residual < 1e-8


def test_compositionality_two_extensions_differ_off_support():
    # a collapse channel with a singular pullback leaves strict slack in the
    # existence inequality, so distinct admissible extensions exist and agree
    # only almost everywhere
    alg = MultiMatrixAlgebra((2,))
    sigma0 = np.diag([1.0, 0.0])
    F = Channel(
        alg, alg,
        LinearMap.from_block_fn(
            alg, alg, lambda x, y, E: np.trace(sigma0 @ E) * np.eye(2)
        ).tensors,
    )
    omega = State(alg, (1.0,), (np.diag([1.0, 0.0]),))
    h_inner = inclusion_hom(1, 2)  # identity-shaped embedding M_2 -> M_2
    report = compositionality_check(F, from_hom(h_inner), omega)
    assert report.identity_ok
    assert report.composite_ok
    assert report.second_inverse_ok
    assert report.uniqueness_ae_ok is True
    assert report.extensions_differ is True


def test_seven_way_agreement_randomized_ensemble():
    rng = np.random.default_rng(6)
    from qbayes.errors import InternalInconsistency
    from qbayes.generators import random_kraus_channel

    inconsistencies = 0
    passes = 0
    for trial in range(40):
        kind = trial % 4
        if kind == 0:
            h, omega = product_instance()
            F = from_hom(h)
        elif kind == 1:
            F = random_kraus_channel(
                rng, MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((3,)), 2
            )
            omega = random_state(rng, MultiMatrixAlgebra((3,)))
        elif kind == 2:
            F = random_kraus_channel(
                rng, MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((4,)), 2
            )
            omega = random_state(rng, MultiMatrixAlgebra((4,)), ranks=(2,))
        else:
            h, omega = rankdef_product_instance()
            F = from_hom(h)
        try:
            analysis = battery(F, omega)
            passes += int(analysis.passed)
        except InternalInconsistency:
            inconsistencies += 1
    assert inconsistencies == 0
    assert passes >= 20  # the constructed instances all pass


@pytest.mark.parametrize("case", INSTANCE_CASES.values(), ids=INSTANCE_CASES.keys())
def test_battery_contractions_match_einsum(case):
    # the products of the battery, `left_right_bayes` and `verify_bayes`
    # against the einsum strings they replace
    F, omega = case()
    analysis = battery(F, omega)
    GL, GR = left_right_bayes(F, omega)
    rng = np.random.default_rng(12)
    worst = dict.fromkeys(("star", "left_right", "density"), 0.0)
    for pd in pair_operands(F, omega):
        m, n = pd.rho_w.shape[0], pd.sig_w.shape[0]
        Tc = np.conj(pd.T)
        Pop = np.eye(m) - pd.P_om
        Ta = Tc.transpose(1, 0, 3, 2)   # the block tensor of F*
        rawL, rawR = _sandwich(Ta, A=pd.rho_w), _sandwich(Ta, B=pd.rho_w)
        got = {
            "V6": _sandwich(Ta, A=pd.rho_w, B=Pop, L=pd.shat_w, R=pd.P_xi),
            "lhs4": _sandwich(rawL, L=pd.P_xi, R=pd.sig_w),
            "rhs4": _sandwich(rawR, L=pd.sig_w, R=pd.P_xi),
            "rawL": rawL,
            "rawR": rawR,
            "GL": GL.tensors[pd.y][pd.x],
            "GR": GR.tensors[pd.y][pd.x],
            "KR": _sandwich(rawR, L=pd.P_xi, R=pd.shat_w),
        }
        want = {
            "V6": np.einsum(
                "kalb,ai,jb,uk,lv->ijuv", Tc, pd.rho_w, Pop, pd.shat_w, pd.P_xi
            ),
            "lhs4": np.einsum("uk,ijkl,lv->ijuv", pd.P_xi, rawL.transpose(0, 2, 1, 3), pd.sig_w),
            "rhs4": np.einsum("uk,ijkl,lv->ijuv", pd.sig_w, rawR.transpose(0, 2, 1, 3), pd.P_xi),
            "rawL": np.einsum("kalj,ai->ijkl", Tc, pd.rho_w),
            "rawR": np.einsum("kilb,jb->ijkl", Tc, pd.rho_w),
        }
        want["GL"] = np.einsum("uk,ijkl->ijul", pd.shat_w, want["rawL"])
        want["GR"] = np.einsum("ijkl,lu->ijku", want["rawR"], pd.shat_w)
        want["KR"] = np.einsum("uk,ijkl->ijul", pd.P_xi, want["GR"])
        KL = np.einsum("ijkl,lu->ijku", want["GL"], pd.P_xi)
        BB = np.einsum("ijkl,lu->ijku", want["GL"], np.eye(n) - pd.P_xi)
        got["choi_A"] = analysis.choi_A[(pd.x, pd.y)]
        # the forced rows as `existence` builds them
        forced = _sandwich(Ta, A=pd.rho_w, L=pd.shat_w, R=np.eye(n) - pd.P_xi)
        got["choi_B"] = forced.reshape(m * n, m * n)
        want["choi_A"] = KL.transpose(0, 2, 1, 3).reshape(m * n, m * n)
        want["choi_B"] = BB.transpose(0, 2, 1, 3).reshape(m * n, m * n)
        sq_rho, sq_shat = pd.sq_rho, pd.sq_shat
        got["raw"] = _sandwich(Ta, A=sq_rho, B=sq_rho)
        got["petz"] = _sandwich(Ta, A=sq_rho, B=sq_rho, L=sq_shat, R=sq_shat)
        want["raw"] = np.einsum("kalb,ai,jb->ijkl", Tc, sq_rho, sq_rho)
        want["petz"] = np.einsum("uk,ijkl,lv->ijuv", sq_shat, want["raw"], sq_shat)
        for name, value in got.items():
            # the einsums write the unit layout [i, j, k, l] = G(E_ij)_kl
            ref = want[name] if value.ndim == 2 else want[name].transpose(0, 2, 1, 3)
            np.testing.assert_allclose(value, ref, rtol=0.0, atol=1e-12, err_msg=name)

        # the residuals of conditions (i), (ii) and (v) from the einsum chains
        KR = want["KR"]
        star = KR.transpose(1, 0, 3, 2).conj() - KR
        worst["star"] = max(worst["star"], np.abs(star).max())
        worst["left_right"] = max(worst["left_right"], np.abs(KL - KR).max())
        inner = np.einsum("uk,uavb->kavb", pd.sig_w @ pd.P_xi, pd.T @ pd.rho_w)
        lhs5 = np.einsum("lv,kavb->klab", pd.P_xi, inner)
        inner = np.einsum("ac,ucvb->uavb", pd.rho_w, pd.T)
        inner = np.einsum("uk,uavb->kavb", pd.P_xi, inner)
        rhs5 = np.einsum("lv,kavb->klab", pd.P_xi @ pd.sig_w, inner)
        density = np.sqrt(np.einsum("klab,klab->kl", lhs5 - rhs5, np.conj(lhs5 - rhs5)).real)
        worst["density"] = max(worst["density"], density.max())

        # the Bayes pairings of `verify_bayes` and `left_right_bayes`, on a
        # candidate that fails them
        S = GL.tensors[pd.y][pd.x] + rng.standard_normal((m, n, m, n))
        W1 = np.einsum("kjla,ai->ijkl", pd.T, pd.rho_w)
        W2 = np.einsum("lb,ibjk->ijkl", pd.sig_w, S)
        assert abs(
            _pairing_residual(pd.T, pd.rho_w, pd.sig_w, S) - np.abs(W1 - W2).max()
        ) <= 1e-12
        S_r = S.transpose(0, 2, 1, 3)  # [i, j, l, a] = G^R(E_ij)_la
        W1r = np.einsum("ja,kali->ijkl", pd.rho_w, pd.T)
        W2r = np.einsum("ak,ijla->ijkl", pd.sig_w, S_r)
        mirrored = _pairing_residual(
            pd.T.transpose(2, 3, 0, 1), pd.rho_w.T, pd.sig_w.T, S.transpose(2, 3, 0, 1)
        )
        assert abs(mirrored - np.abs(W1r - W2r).max()) <= 1e-12
    got = {
        "star": analysis.conditions["right_map_star_preserving"].residual,
        "left_right": analysis.conditions["left_equals_right"].residual,
        "density": analysis.conditions["density_intertwining"].residual,
    }
    for name, value in got.items():
        assert abs(value - worst[name]) <= 1e-12, name


def per_pair_reference(F, omega, tol=DEFAULT_TOL):
    """The Choi blocks of the battery, with the pseudoinverse read afresh from
    the support for every (x, y) pair."""
    xi = pullback(omega, F, tol)
    sup_x = support(xi, tol)
    P_xi = sup_x.projection.blocks
    choi_A, choi_B = {}, {}
    for x, m in enumerate(F.target.block_dims):
        rho_w = omega.weighted_density(x)
        for y, n in enumerate(F.source.block_dims):
            shat_w = sup_x.calculus(y, np.reciprocal)
            T = F.tensors[x][y]
            # the battery's kernels, so that the arrays are bit for bit the same;
            # test_battery_contractions_match_einsum pins them to their einsums
            Ta = np.conj(T.transpose(1, 0, 3, 2), order="C")
            rawL = _sandwich(Ta, A=rho_w)
            KL = _sandwich(rawL, L=shat_w, R=P_xi[y])    # GL(E_ij) P
            BB = _sandwich(rawL, L=shat_w, R=np.eye(n) - P_xi[y])
            choi_A[(x, y)] = KL.reshape(m * n, m * n)
            choi_B[(x, y)] = BB.reshape(m * n, m * n)
    return xi, P_xi, choi_A, choi_B


def existence_reference(F, xi, P_xi, choi_A, choi_B, tol=DEFAULT_TOL):
    """The uniform-split extension built from per-pair Choi blocks, each
    pseudo-inverted as a dense (m n) x (m n) matrix."""
    tgt_dims = F.target.block_dims
    w_x = np.array(tgt_dims, dtype=float)
    w_x /= w_x.sum()
    tensors = [[None] * F.target.n_blocks for _ in range(F.source.n_blocks)]
    for y, n_y in enumerate(F.source.block_dims):
        if xi.weights[y] <= 0.0:
            for x, m_x in enumerate(tgt_dims):
                tensors[y][x] = np.einsum("ij,ab->iajb", np.eye(m_x), np.eye(n_y)) * (w_x[x] / m_x)
            continue
        total = np.zeros((n_y, n_y), dtype=complex)
        sandwich = {}
        for x, m_x in enumerate(tgt_dims):
            A_mat = (choi_A[(x, y)] + dagger(choi_A[(x, y)])) / 2
            sandwich[x] = dagger(choi_B[(x, y)]) @ pseudoinverse(A_mat, tol) @ choi_B[(x, y)]
            total += partial_trace_left(sandwich[x], m_x, n_y)
        delta = np.eye(n_y) - P_xi[y] - (total + dagger(total)) / 2
        dw, dV = np.linalg.eigh((delta + dagger(delta)) / 2)
        delta_psd = (dV * np.clip(dw, 0.0, None)) @ dagger(dV)
        for x, m_x in enumerate(tgt_dims):
            D_mat = sandwich[x] + np.kron(np.diag(np.full(m_x, 1.0 / m_x) * w_x[x]), delta_psd)
            B_mat = choi_B[(x, y)]
            C = choi_A[(x, y)] + B_mat + dagger(B_mat) + D_mat
            tensors[y][x] = C.reshape(m_x, n_y, m_x, n_y)
    return tensors


@pytest.mark.parametrize("case", INSTANCE_CASES.values(), ids=INSTANCE_CASES.keys())
def test_battery_and_existence_match_per_pair_reference(case):
    F, omega = case()
    analysis = battery(F, omega)
    xi, P_xi, choi_A, choi_B = per_pair_reference(F, omega)
    F_adj = F.hs_adjoint()
    for pd in pair_operands(F, omega):
        key, m, n = (pd.x, pd.y), len(pd.rho_w), len(pd.sig_w)
        # the battery builds A as one product from the Kraus factor, the
        # reference by dense contractions: they agree to rounding, at most
        # 4.6e-16 entrywise on these cases, and 1e-14 leaves a factor 20
        np.testing.assert_allclose(analysis.choi_A[key], choi_A[key], rtol=0.0, atol=1e-14)
        # `existence` builds the forced rows in one contraction, bit for bit
        # the reference's two
        Ta = F_adj.tensors[pd.y][pd.x]
        forced = _sandwich(Ta, A=pd.rho_w, L=pd.shat_w, R=np.eye(n) - pd.P_xi)
        assert np.array_equal(forced.reshape(m * n, m * n), choi_B[key])
    if not analysis.passed:
        return
    result = existence(analysis)
    assert result.exists
    # the extension reads A-hat as Q C^+ Q* from the Kraus factor, the
    # reference pseudo-inverts the dense Choi block: they agree to rounding,
    # at most 3.4e-16 here and 2e-16 on the benchmark's gated calls, and
    # 3.5e-11 relative on a 1000 x 1000 block (10 -> 100); 1e-12 leaves three
    # orders over these (m n <= 21) cases and stays four below eps_eq
    for row, row_ref in zip(
        result.inverse.tensors, existence_reference(F, xi, P_xi, choi_A, choi_B)
    ):
        for T, T_ref in zip(row, row_ref):
            np.testing.assert_allclose(T, T_ref, rtol=0.0, atol=1e-12)


def test_battery_and_existence_peak_stays_within_the_choi_footprint():
    # a reshaped transpose copies a tensor that einsum only read; one pass of
    # battery and extension at 4 -> 16 peaked at 12.6 (einsum contractions),
    # 11.6 (matrix products) and 11.0 (the extension read from the Kraus
    # factor) times the bytes of one (m n)^2 Choi block
    h = inclusion_hom(4, 4)
    F = from_hom(h)
    choi_bytes = (16 * 4) ** 2 * 16

    def one_pass():
        omega = product_state_for_hom(np.random.default_rng(0), h)
        assert existence(battery(F, omega)).exists

    one_pass()
    gc.collect()
    tracemalloc.start()
    try:
        one_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15 * choi_bytes
