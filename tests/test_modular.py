import gc
import json
import tracemalloc

import numpy as np
import pytest

import qbayes.modular
from qbayes import linalg
from qbayes.algebra import AlgebraElement, MultiMatrixAlgebra
from qbayes.channel import LinearMap, _sandwich, from_hom, is_ucp
from qbayes.cli import main
from qbayes.errors import InternalInconsistency
from qbayes.generators import (
    inclusion_hom,
    product_state_for_hom,
    random_complex,
    random_kraus_channel,
    random_state,
)
from qbayes.modular import (
    DEFAULT_T_SAMPLES,
    ac_condition_algebraic,
    ac_condition_sampled,
    corner_map,
    modular_at,
    modular_flow,
)
from qbayes.jsonio import problem_from_json
from qbayes.linalg import ABS_FLOOR, DEFAULT_TOL, dagger, hermitian_eigen
from qbayes.state import State, evaluate, pullback, support

from conftest import FIXTURES, INSTANCE_CASES
from derivations import BUILDERS, recording
from instances import (
    epr_instance,
    nonproduct_faithful_instance,
    product_instance,
    rankdef_product_instance,
)
from oracles import matrix_units


def random_element(rng, alg):
    return AlgebraElement(alg, tuple(random_complex(rng, d, d) for d in alg.block_dims))


def test_flow_identity_at_zero():
    rng = np.random.default_rng(0)
    alg = MultiMatrixAlgebra((3,))
    omega = random_state(rng, alg)
    flow = modular_flow(omega)
    A = random_element(rng, alg)
    assert (modular_at(flow, 0.0, A) - A).norm() < 1e-12


def test_flow_fixes_commuting_elements():
    alg = MultiMatrixAlgebra((3,))
    omega = State(alg, (1.0,), (np.diag([0.5, 0.3, 0.2]),))
    flow = modular_flow(omega)
    A = AlgebraElement(alg, (np.diag([1.0, 2.0, 3.0]).astype(complex),))
    for t in (0.3, -1.1, np.pi):
        assert (modular_at(flow, t, A) - A).norm() < 1e-12


def test_flow_group_law_and_invariance():
    rng = np.random.default_rng(1)
    alg = MultiMatrixAlgebra((2, 3))
    omega = random_state(rng, alg)
    flow = modular_flow(omega)
    A = random_element(rng, alg)
    t, s = 0.3, -1.1
    lhs = modular_at(flow, t + s, A)
    rhs = modular_at(flow, t, modular_at(flow, s, A))
    assert (lhs - rhs).norm() < 1e-10
    for E in matrix_units(alg):
        for tt in (0.5, -0.5, np.pi):
            assert abs(evaluate(omega, modular_at(flow, tt, E)) - evaluate(omega, E)) < 1e-10


def test_flow_multiplicative_and_star_on_support():
    rng = np.random.default_rng(2)
    alg = MultiMatrixAlgebra((3,))
    omega = random_state(rng, alg)  # faithful
    flow = modular_flow(omega)
    A = random_element(rng, alg)
    B = random_element(rng, alg)
    t = 0.7
    lhs = modular_at(flow, t, A @ B)
    rhs = modular_at(flow, t, A) @ modular_at(flow, t, B)
    assert (lhs - rhs).norm() < 1e-10
    assert (modular_at(flow, t, A.adjoint()) - modular_at(flow, t, A).adjoint()).norm() < 1e-10


def test_flow_annihilates_off_support():
    alg = MultiMatrixAlgebra((2,))
    omega = State(alg, (1.0,), (np.diag([1.0, 0.0]),))
    flow = modular_flow(omega)
    A = AlgebraElement(alg, (np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex),))
    out = modular_at(flow, 0.8, A)
    np.testing.assert_allclose(out.blocks[0], np.diag([1.0, 0.0]), atol=1e-12)


def square_residual(cm) -> float:
    """The largest entry of omega_r o chan - xi_r over the corner matrix units,
    one einsum per block pair."""
    chan = cm.channel
    worst = 0.0
    for y in range(chan.source.n_blocks):
        lhs = sum(
            np.einsum("iajb,ba->ij", chan.tensors[x][y], cm.omega_restricted.weighted_density(x))
            for x in range(chan.target.n_blocks)
        )
        worst = max(worst, np.abs(lhs - cm.xi_restricted.weighted_density(y).T).max())
    return worst


def test_corner_map_faithful_is_the_channel_itself():
    h, omega = nonproduct_faithful_instance()
    F = from_hom(h)
    cm = corner_map(F, omega)
    assert cm.channel is F
    assert cm.omega_restricted is omega
    assert cm.xi_restricted is pullback(omega, F)
    assert square_residual(cm) < 1e-10
    # kept, and read back with the state in place
    assert corner_map(F, omega).omega_restricted is omega


def test_corner_map_faithful_still_checks_ucp(monkeypatch):
    # a faithful pair is its own corner, and still passes the UCP test at the
    # run's tolerance
    h, omega = nonproduct_faithful_instance()
    seen = []
    is_ucp_ = qbayes.modular.is_ucp

    def recording_is_ucp(F, tol):
        seen.append((F, tol))
        return is_ucp_(F, tol)

    monkeypatch.setattr(qbayes.modular, "is_ucp", recording_is_ucp)
    tol = linalg.Tolerances(eps_rank=1e-7, eps_eq=1e-6)
    F = from_hom(h)
    assert corner_map(F, omega, tol).channel is F
    assert seen == [(F, tol)]


def test_corner_map_rankdef_builds_a_smaller_corner():
    h, omega = rankdef_product_instance()
    F = from_hom(h)
    cm = corner_map(F, omega)
    assert cm.channel is not F
    assert cm.omega_restricted is not omega and cm.xi_restricted is not pullback(omega, F)
    assert sum(cm.channel.target.block_dims) < sum(F.target.block_dims)
    assert is_ucp(cm.channel)


@pytest.mark.parametrize("case", INSTANCE_CASES.values(), ids=INSTANCE_CASES.keys())
def test_corner_map_matches_unit_reference(case):
    F, omega = case()
    sup_o = support(omega)
    sup_x = support(pullback(omega, F))

    # reference: compress o F o lift evaluated on one corner matrix unit at a time
    def fn(xc, yc, E):
        src = [np.zeros((d, d), dtype=complex) for d in sup_x.corner_algebra.block_dims]
        src[yc] = E
        lifted = sup_x.lift(AlgebraElement(sup_x.corner_algebra, tuple(src)))
        return sup_o.compress(F.apply(lifted)).blocks[xc]

    reference = LinearMap.from_block_fn(sup_x.corner_algebra, sup_o.corner_algebra, fn)
    cm = corner_map(F, omega)
    chan = cm.channel
    assert chan.source == reference.source and chan.target == reference.target
    for row, row_ref in zip(chan.tensors, reference.tensors):
        for T, T_ref in zip(row, row_ref):
            np.testing.assert_allclose(T, T_ref, rtol=0.0, atol=1e-12)

    # the square that the corner map checks commutes by the einsum reference
    assert square_residual(cm) < 1e-10


@pytest.mark.parametrize("case", INSTANCE_CASES.values(), ids=INSTANCE_CASES.keys())
def test_ac_residuals_match_unit_loops(case):
    F, omega = case()
    algebraic = ac_condition_algebraic(F, omega)
    chan = algebraic.corner.channel
    rho = algebraic.corner.omega_restricted.densities
    sig = algebraic.corner.xi_restricted.densities
    worst = 0.0
    for y, n_y in enumerate(chan.source.block_dims):
        for i in range(n_y):
            for j in range(n_y):
                E = np.zeros((n_y, n_y))
                E[i, j] = 1.0
                for x in range(chan.target.n_blocks):
                    T = chan.tensors[x][y]
                    lhs = np.einsum("iajb,ij->ab", T, sig[y] @ E) @ rho[x]
                    rhs = rho[x] @ np.einsum("iajb,ij->ab", T, E @ sig[y])
                    worst = max(worst, np.linalg.norm(lhs - rhs))
    assert abs(algebraic.verdict.residual - worst) <= 1e-12

    # the products of the algebraic test against the einsum strings they replace
    for y in range(chan.source.n_blocks):
        for x in range(chan.target.n_blocks):
            T = chan.tensors[x][y]
            got = _sandwich(T, A=sig[y], R=rho[x])
            want = np.einsum("ki,kajb->ijab", sig[y], T) @ rho[x]
            np.testing.assert_allclose(got.swapaxes(1, 2), want, rtol=0.0, atol=1e-12)
            got = _sandwich(T, B=sig[y], L=rho[x])
            want = rho[x] @ np.einsum("jl,ialb->ijab", sig[y], T)
            np.testing.assert_allclose(got.swapaxes(1, 2), want, rtol=0.0, atol=1e-12)

    sampled = ac_condition_sampled(F, omega)
    flow_o = modular_flow(algebraic.corner.omega_restricted)
    flow_x = modular_flow(algebraic.corner.xi_restricted)
    worst = max(
        (chan.apply(modular_at(flow_x, t, E)) - modular_at(flow_o, t, chan.apply(E))).norm()
        for t in DEFAULT_T_SAMPLES
        for E in matrix_units(chan.source)
    )
    assert abs(sampled.verdict.residual - worst) <= 1e-12


def test_corner_map_epr_compresses_to_scalar():
    h, omega = epr_instance()
    cm = corner_map(from_hom(h), omega)
    assert cm.channel.target.block_dims == (1,)
    assert cm.channel.source.block_dims == (2,)
    assert is_ucp(cm.channel)


def test_corner_map_state_preservation():
    rng = np.random.default_rng(3)
    source = MultiMatrixAlgebra((2,))
    target = MultiMatrixAlgebra((4,))
    F = random_kraus_channel(rng, source, target, 2)
    omega = random_state(rng, target, ranks=(2,))
    cm = corner_map(F, omega)
    for E in matrix_units(cm.channel.source):
        lhs = evaluate(cm.omega_restricted, cm.channel.apply(E))
        rhs = evaluate(cm.xi_restricted, E)
        assert abs(lhs - rhs) < 1e-9


def test_ac_product_true():
    h, omega = product_instance()
    report = ac_condition_algebraic(from_hom(h), omega)
    assert report.ok
    assert report.verdict.residual < 1e-12


def test_ac_epr_true_nonproduct_false():
    h, omega = epr_instance()
    assert ac_condition_algebraic(from_hom(h), omega).ok
    h2, omega2 = nonproduct_faithful_instance()
    report = ac_condition_algebraic(from_hom(h2), omega2)
    assert not report.ok
    assert report.verdict.residual > 1e-3


def test_ac_rankdef_product_true():
    h, omega = rankdef_product_instance()
    assert ac_condition_algebraic(from_hom(h), omega).ok


def test_ac_residual_linear_in_the_probe():
    # the single-equation residual is linear in the probe element, so
    # rescaling a matrix unit rescales its residual and cannot flip verdicts
    h, omega = nonproduct_faithful_instance()
    F = from_hom(h)
    cm = corner_map(F, omega)
    chan = cm.channel
    rho = cm.omega_restricted.densities[0]
    sig = cm.xi_restricted.densities[0]

    def residual(E):
        lhs = chan.apply(AlgebraElement(chan.source, (sig @ E,))).blocks[0] @ rho
        rhs = rho @ chan.apply(AlgebraElement(chan.source, (E @ sig,))).blocks[0]
        return np.linalg.norm(lhs - rhs)

    E = np.zeros((2, 2), dtype=complex)
    E[0, 1] = 1.0
    base = residual(E)
    assert base > 0
    np.testing.assert_allclose(residual(3.7 * E), 3.7 * base, rtol=1e-10)


def test_ac_sampled_agrees_product_and_epr():
    h, omega = product_instance()
    rep = ac_condition_sampled(from_hom(h), omega)
    assert rep.ok
    h2, omega2 = epr_instance()
    assert ac_condition_sampled(from_hom(h2), omega2).ok
    h3, omega3 = nonproduct_faithful_instance()
    assert not ac_condition_sampled(from_hom(h3), omega3).ok


def test_ac_sampled_t_zero_always_passes():
    h, omega = nonproduct_faithful_instance()
    F = from_hom(h)
    algebraic = ac_condition_algebraic(F, omega)
    cm = algebraic.corner
    flow_o = modular_flow(cm.omega_restricted)
    flow_x = modular_flow(cm.xi_restricted)
    worst = 0.0
    for E in matrix_units(cm.channel.source):
        lhs = cm.channel.apply(modular_at(flow_x, 0.0, E))
        rhs = modular_at(flow_o, 0.0, cm.channel.apply(E))
        worst = max(worst, (lhs - rhs).norm())
    assert worst < 1e-12


def test_ac_dual_method_agreement_randomized():
    rng = np.random.default_rng(4)
    disagreements = 0
    for trial in range(30):
        kind = trial % 3
        if kind == 0:
            h, omega = product_instance()
            F = from_hom(h)
        elif kind == 1:
            source = MultiMatrixAlgebra((2,))
            target = MultiMatrixAlgebra((3,))
            F = random_kraus_channel(rng, source, target, 2)
            omega = random_state(rng, target)
        else:
            source = MultiMatrixAlgebra((2,))
            target = MultiMatrixAlgebra((4,))
            F = random_kraus_channel(rng, source, target, 2)
            omega = random_state(rng, target, ranks=(2,))
        try:
            ac_condition_sampled(F, omega)
        except InternalInconsistency:
            disagreements += 1
    assert disagreements == 0


def _flip_omega_flow(monkeypatch) -> list:
    """Runs the omega side of the sampled test's flow backwards in time: a
    broken route. Returns the omega-side states the flip applies to."""
    omega_sides = []
    corner_map_, flow_unitaries = qbayes.modular.corner_map, qbayes.modular._flow_unitaries

    def recording_corner_map(*args, **kwargs):
        cm = corner_map_(*args, **kwargs)
        omega_sides.append(cm.omega_restricted)
        return cm

    def flipped(flow, times):
        if any(flow.state is state for state in omega_sides):
            times = [-t for t in times]
        return flow_unitaries(flow, times)

    monkeypatch.setattr(qbayes.modular, "corner_map", recording_corner_map)
    monkeypatch.setattr(qbayes.modular, "_flow_unitaries", flipped)
    return omega_sides


def test_broken_sampled_route_raises(monkeypatch):
    # the product fixture satisfies AC, and its sampled residual is tiny
    problem = problem_from_json(json.loads((FIXTURES / "product.json").read_text()))
    assert ac_condition_sampled(problem["channel"], problem["state"]).verdict.residual < 1e-12
    omega_sides = _flip_omega_flow(monkeypatch)
    with pytest.raises(InternalInconsistency, match="AC verdicts disagree"):
        ac_condition_sampled(problem["channel"], problem["state"])
    assert omega_sides


def test_broken_sampled_route_exits_3(monkeypatch, capsys):
    omega_sides = _flip_omega_flow(monkeypatch)
    assert main(["check", str(FIXTURES / "product.json"), "--analyses", "ac"]) == 3
    assert "AC verdicts disagree" in capsys.readouterr().err
    assert omega_sides


def test_sampled_ac_peak_stays_within_the_corner_footprint():
    # one block pair, so each product runs one time; a stack of all seven
    # times would hold 7x the corner tensor, and two such arrays at once
    h = inclusion_hom(4, 4)
    omega = product_state_for_hom(np.random.default_rng(0), h)
    F = from_hom(h)
    corner = corner_map(F, omega).channel
    corner_bytes = sum(T.nbytes for row in corner.tensors for T in row)
    ac_condition_sampled(F, omega)
    gc.collect()
    tracemalloc.start()
    try:
        ac_condition_sampled(F, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * corner_bytes


def two_pass_spectra(omega, tol=DEFAULT_TOL):
    """Kept eigenpairs per block, eigenvalues descending, empty for a cut block:
    one decomposition per block for the global cutoff, then a second one for
    the eigenpairs above it."""
    blocks = range(omega.algebra.n_blocks)
    lam_max = max(
        float(hermitian_eigen(omega.weighted_density(x), tol)[0].max(initial=0.0))
        for x in blocks
    )
    cutoff = tol.eps_rank * max(lam_max, ABS_FLOOR)
    spectra = []
    for x in blocks:
        w, V = hermitian_eigen(omega.weighted_density(x), tol)
        keep = w > cutoff
        spectra.append((w[keep][::-1], V[:, keep][:, ::-1]))
    return spectra


def _assert_spectra_equal(got, want):
    assert len(got) == len(want)
    for spec, spec_ref in zip(got, want):
        assert np.array_equal(spec[0], spec_ref[0]) and np.array_equal(spec[1], spec_ref[1])


@pytest.mark.parametrize("case", INSTANCE_CASES.values(), ids=INSTANCE_CASES.keys())
def test_support_and_flow_match_two_pass_reference(case):
    F, omega = case()
    for state in (omega, pullback(omega, F)):
        spectra = two_pass_spectra(state)
        sup = support(state)
        _assert_spectra_equal(sup.spectra, spectra)
        assert sup.kept == tuple(x for x, spec in enumerate(spectra) if len(spec[0]))
        assert sup.corner_algebra.block_dims == tuple(spectra[x][1].shape[1] for x in sup.kept)
        for d, spec, V, P in zip(
            state.algebra.block_dims, spectra, sup.isometries, sup.projection.blocks
        ):
            if not len(spec[0]):
                assert V is None and np.array_equal(P, np.zeros((d, d)))
                continue
            V_ref = np.eye(d, dtype=complex) if spec[1].shape[1] == d else spec[1]
            assert np.array_equal(V, V_ref)
            assert np.array_equal(P, V_ref @ dagger(V_ref))
        _assert_spectra_equal(modular_flow(state).spectra, spectra)


@pytest.mark.parametrize("case", INSTANCE_CASES.values(), ids=INSTANCE_CASES.keys())
def test_support_decomposes_each_block_once(case):
    F, omega = case()
    eigen = {"eigen": BUILDERS["linalg.hermitian_eigen"]}
    for state in (omega, pullback(omega, F)):
        with recording(eigen) as seen:
            support(state)
        assert len(seen["eigen"]) == state.algebra.n_blocks
        with recording(eigen) as seen:
            modular_flow(state)  # reads the support decomposed above
        assert seen["eigen"] == []
