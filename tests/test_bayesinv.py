import gc
import tracemalloc

import numpy as np
import pytest

from qbayes.algebra import MultiMatrixAlgebra, matrix_units
from qbayes.bayesinv import (
    PairInputs,
    _adjoint_on_units,
    _pair_data,
    _pairing_residual,
    _raw,
    _sandwich,
    battery,
    bayes_inverse,
    compositionality_check,
    existence,
    left_right_bayes,
    verify_bayes,
)
from qbayes.channel import (
    Channel,
    LinearMap,
    compose,
    from_hom,
    hs_adjoint,
    identity_channel,
    is_ucp,
)
from qbayes.errors import ShapeMismatch
from qbayes.generators import (
    epr_instance,
    inclusion_hom,
    nonproduct_faithful_instance,
    product_instance,
    product_state_for_hom,
    random_hom,
    random_state,
    rankdef_product_instance,
)
from qbayes.jsonio import loads, problem_from_json
from qbayes.linalg import (
    DEFAULT_TOL,
    dagger,
    frobenius,
    kron,
    matrix_sqrt,
    partial_trace_left,
    partial_trace_right,
    pseudoinverse,
)
from qbayes.state import State, evaluate, pullback, support

from conftest import INSTANCE_CASES, fixture_path
from feasibility import bayes_feasibility
from oracles import random_unitary


def pinned_counterexample():
    data = loads(fixture_path("battery_pass_no_inverse.json").read_text())
    problem = problem_from_json(data)
    return problem["channel"], problem["state"]


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
            kron(tau, np.eye(2)) @ E.blocks[0], 2, 2
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
        got = analysis.support_map.apply(E).blocks[0]
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
    xi = analysis.xi
    # A + B equals the unsplit forced-row Choi sum (support + co-support parts)
    from qbayes.bayesinv import _pair_data
    from qbayes.linalg import DEFAULT_TOL

    pairs = _pair_data(F, omega, xi, DEFAULT_TOL)
    for pd in pairs:
        m = pd.rho_w.shape[0]
        n = pd.sig_w.shape[0]
        full = pd.GL.transpose(0, 2, 1, 3).reshape(m * n, m * n)
        split = analysis.choi_A[(pd.x, pd.y)] + analysis.choi_B[(pd.x, pd.y)]
        assert frobenius(full - split) < 1e-12


def test_petz_formula_matches_on_faithful_instances():
    rng = np.random.default_rng(2)
    for trial in range(5):
        h, omega = product_instance()
        F = from_hom(h)
        analysis = battery(F, omega)
        assert analysis.passed
        assert analysis.petz_map is not None
        assert analysis.support_map.close_to(analysis.petz_map, 1e-9)
        report = verify_bayes(F, Channel(F.target, F.source, analysis.petz_map.tensors), omega)
        assert report.pairing_residual < 1e-8


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
    assert result.verification.pairing_residual < 1e-8
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


def test_existence_fails_closed_on_a_nan_gap(monkeypatch):
    # a NaN least eigenvalue of the co-support gap must not read as an inverse
    h, omega = rankdef_product_instance()
    analysis = battery(from_hom(h), omega)
    assert analysis.passed
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: np.full(len(M), np.nan))
    result = existence(analysis)
    assert not result.exists and np.isnan(result.margin)


def test_existence_requires_passed_battery():
    h, omega = epr_instance()
    analysis = battery(from_hom(h), omega)
    with pytest.raises(ValueError):
        existence(analysis)


def test_existence_rejects_unknown_split_before_any_work():
    # the pinned counterexample has no inverse, so the split is never read
    # while an inverse is built
    analysis = battery(*pinned_counterexample())
    assert analysis.passed and not existence(analysis).exists
    with pytest.raises(ValueError, match="unknown free_split 'bogus'"):
        existence(analysis, free_split="bogus")


def test_verify_bayes_rejects_corrupted_candidate():
    h, omega = product_instance()
    F = from_hom(h)
    ok, inverse, _, _ = bayes_inverse(F, omega)
    assert ok
    # corrupt: naive normalized adjoint is not the inverse
    Fs = hs_adjoint(F)
    tensors = [[0.5 * Fs.tensors[0][0]]]
    candidate = LinearMap(F.target, F.source, tensors)
    report = verify_bayes(F, candidate, omega)
    assert not report.ok
    assert report.pairing_residual > 1e-3


def test_verify_bayes_identity():
    rng = np.random.default_rng(4)
    alg = MultiMatrixAlgebra((2, 2))
    omega = random_state(rng, alg)
    ident = identity_channel(alg)
    report = verify_bayes(ident, ident, omega)
    assert report.ok
    assert report.pairing_residual < 1e-12


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
    xi = pullback(omega, F)
    rng = np.random.default_rng(12)
    worst = dict.fromkeys(("star", "left_right", "density"), 0.0)
    for pd in _pair_data(F, omega, xi, DEFAULT_TOL):
        m, n = pd.rho_w.shape[0], pd.sig_w.shape[0]
        Tc = np.conj(pd.T)
        Pop = np.eye(m) - pd.P_om
        got = {
            "V6": _sandwich(pd.shat_w, _adjoint_on_units(pd.T, pd.rho_w, Pop), pd.P_xi),
            "lhs4": _sandwich(pd.P_xi, pd.rawL, pd.sig_w),
            "rhs4": _sandwich(pd.sig_w, pd.rawR, pd.P_xi),
            "rawL": pd.rawL,
            "rawR": pd.rawR,
            "GL": pd.GL,
            "GR": pd.GR,
            "KR": _sandwich(pd.P_xi, pd.rawR, pd.shat_w),
        }
        want = {
            "V6": np.einsum(
                "kalb,ai,jb,uk,lv->ijuv", Tc, pd.rho_w, Pop, pd.shat_w, pd.P_xi
            ),
            "lhs4": np.einsum("uk,ijkl,lv->ijuv", pd.P_xi, pd.rawL, pd.sig_w),
            "rhs4": np.einsum("uk,ijkl,lv->ijuv", pd.sig_w, pd.rawR, pd.P_xi),
            "rawL": np.einsum("kalj,ai->ijkl", Tc, pd.rho_w),
            "rawR": np.einsum("kilb,jb->ijkl", Tc, pd.rho_w),
        }
        want["GL"] = np.einsum("uk,ijkl->ijul", pd.shat_w, want["rawL"])
        want["GR"] = np.einsum("ijkl,lu->ijku", want["rawR"], pd.shat_w)
        want["KR"] = np.einsum("uk,ijkl->ijul", pd.P_xi, want["GR"])
        KL = np.einsum("ijkl,lu->ijku", want["GL"], pd.P_xi)
        BB = np.einsum("ijkl,lu->ijku", want["GL"], np.eye(n) - pd.P_xi)
        got["choi_A"] = analysis.choi_A[(pd.x, pd.y)]
        got["choi_B"] = analysis.choi_B[(pd.x, pd.y)]
        want["choi_A"] = KL.transpose(0, 2, 1, 3).reshape(m * n, m * n)
        want["choi_B"] = BB.transpose(0, 2, 1, 3).reshape(m * n, m * n)
        sq_rho = matrix_sqrt(pd.rho_w)
        sq_shat = matrix_sqrt(pd.shat_w)
        got["raw"] = _adjoint_on_units(pd.T, sq_rho, sq_rho)
        got["petz"] = _sandwich(sq_shat, got["raw"], sq_shat)
        want["raw"] = np.einsum("kalb,ai,jb->ijkl", Tc, sq_rho, sq_rho)
        want["petz"] = np.einsum("uk,ijkl,lv->ijuv", sq_shat, want["raw"], sq_shat)
        for name, value in got.items():
            np.testing.assert_allclose(value, want[name], rtol=0.0, atol=1e-12, err_msg=name)

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
        S = pd.GL.transpose(0, 2, 1, 3) + rng.standard_normal((m, n, m, n))
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
    """Choi blocks, support map and Petz map tensors of the battery, with the
    pseudoinverse and both square roots taken afresh for every (x, y) pair."""
    xi = pullback(omega, F, tol)
    P_xi = support(xi, tol).projection.blocks
    choi_A, choi_B, support_t, petz_t = {}, {}, {}, {}
    for x, m in enumerate(F.target.block_dims):
        rho_w = omega.weighted_density(x)
        for y, n in enumerate(F.source.block_dims):
            shat_w = pseudoinverse(xi.weighted_density(y), tol)
            T = F.tensors[x][y]
            # the battery's kernels, so that the arrays are bit for bit the same;
            # test_battery_contractions_match_einsum pins them to their einsums
            rawL, _ = _raw(PairInputs(x, y, T, rho_w, None, shat_w, None, P_xi[y]))
            KL = _sandwich(shat_w, rawL, P_xi[y])    # GL(E_ij) P
            BB = _sandwich(shat_w, rawL, np.eye(n) - P_xi[y])
            choi_A[(x, y)] = KL.transpose(0, 2, 1, 3).reshape(m * n, m * n)
            choi_B[(x, y)] = BB.transpose(0, 2, 1, 3).reshape(m * n, m * n)
            sq_rho = matrix_sqrt(rho_w, tol)
            sq_shat = matrix_sqrt(shat_w, tol)
            petz = _sandwich(sq_shat, _adjoint_on_units(T, sq_rho, sq_rho), sq_shat)
            support_t[(x, y)] = KL.transpose(0, 2, 1, 3)
            petz_t[(x, y)] = petz.transpose(0, 2, 1, 3)
    return xi, P_xi, choi_A, choi_B, support_t, petz_t


def existence_reference(F, xi, P_xi, choi_A, choi_B, tol=DEFAULT_TOL):
    """The uniform-split extension built from per-pair Choi blocks."""
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
    xi, P_xi, choi_A, choi_B, support_t, petz_t = per_pair_reference(F, omega)
    for key in choi_A:
        assert np.array_equal(analysis.choi_A[key], choi_A[key])
        assert np.array_equal(analysis.choi_B[key], choi_B[key])
    if not analysis.passed:
        assert analysis.support_map is None and analysis.petz_map is None
        return
    for (x, y), T in support_t.items():
        assert np.array_equal(analysis.support_map.tensors[y][x], T)
        assert np.array_equal(analysis.petz_map.tensors[y][x], petz_t[(x, y)])
    result = existence(analysis)
    assert result.exists
    for row, row_ref in zip(
        result.inverse.tensors, existence_reference(F, xi, P_xi, choi_A, choi_B)
    ):
        for T, T_ref in zip(row, row_ref):
            assert np.array_equal(T, T_ref)


def test_battery_and_existence_peak_stays_within_the_choi_footprint():
    # a reshaped transpose copies a tensor that einsum only read; one pass of
    # battery and extension at 4 -> 16 peaked at 12.6 (einsum contractions)
    # and 11.6 (matrix products) times the bytes of one (m n)^2 Choi block
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
