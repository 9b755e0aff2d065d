import numpy as np
import pytest

from qbayes.algebra import AlgebraElement, MultiMatrixAlgebra, unit
from qbayes.bayesinv import battery
from qbayes.channel import ae_deterministic, from_hom, identity_channel
from qbayes.errors import NegativeEigenvalue, ShapeMismatch
from qbayes.generators import (
    inclusion_hom,
    random_complex,
    random_kraus_channel,
    random_state,
)
from qbayes.jsonio import loads, problem_from_json
from qbayes.modular import ac_condition_sampled
from qbayes.state import State, evaluate, pullback, support

from conftest import FIXTURES
from instances import epr_instance
from oracles import in_nullspace, matrix_unit, matrix_units


def test_state_validation():
    alg = MultiMatrixAlgebra((2,))
    with pytest.raises(ShapeMismatch):
        State(alg, (0.5,), (np.eye(2),))  # weights must sum to one
    with pytest.raises(ShapeMismatch):
        State(alg, (1.0,), (np.eye(2),))  # trace 2
    State(alg, (1.0,), (np.eye(2) / 2,))


def test_evaluate_basics():
    alg = MultiMatrixAlgebra((2,))
    omega = State(alg, (1.0,), (np.diag([1.0, 0.0]),))
    assert abs(evaluate(omega, unit(alg)) - 1.0) < 1e-14
    assert abs(evaluate(omega, matrix_unit(alg, 0, 0, 0)) - 1.0) < 1e-14
    assert abs(evaluate(omega, matrix_unit(alg, 0, 1, 1))) < 1e-14


def test_evaluate_linear():
    rng = np.random.default_rng(0)
    alg = MultiMatrixAlgebra((2, 3))
    omega = random_state(rng, alg)
    A = AlgebraElement(alg, tuple(random_complex(rng, d, d) for d in alg.block_dims))
    B = AlgebraElement(alg, tuple(random_complex(rng, d, d) for d in alg.block_dims))
    s = 1.7 - 0.3j
    lhs = evaluate(omega, A + s * B)
    rhs = evaluate(omega, A) + s * evaluate(omega, B)
    assert abs(lhs - rhs) < 1e-12


# each reader of a state's support, called as (F, omega)
SUPPORT_READERS = {
    "support": lambda F, omega: support(omega),
    "battery": battery,
    "ac_condition_sampled": ac_condition_sampled,
    "ae_deterministic": ae_deterministic,
}


@pytest.mark.parametrize("reader", SUPPORT_READERS.values(), ids=SUPPORT_READERS.keys())
def test_non_psd_state_fails_closed(reader):
    # a Hermitian unit-trace density that is not PSD builds a State; the
    # support, which every density function reads, refuses it
    alg = MultiMatrixAlgebra((2,))
    omega = State(alg, (1.0,), (np.diag([1.2, -0.2]),))
    with pytest.raises(NegativeEigenvalue, match="density in block 0 has eigenvalue -2.000e-01"):
        reader(identity_channel(alg), omega)


def test_support_faithful_is_identity_embedding():
    rng = np.random.default_rng(1)
    alg = MultiMatrixAlgebra((3,))
    omega = State(alg, (1.0,), (np.eye(3) / 3,))
    sup = support(omega)
    assert sup.is_full()
    np.testing.assert_allclose(sup.projection.blocks[0], np.eye(3))
    A = AlgebraElement(alg, (random_complex(rng, 3, 3),))
    assert (sup.compress(A) - A).norm() < 1e-14  # identity re-indexing


def test_support_epr_corner_is_one_dimensional():
    _, omega = epr_instance()
    sup = support(omega)
    assert sup.corner_algebra.block_dims == (1,)
    P = sup.projection.blocks[0]
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    np.testing.assert_allclose(P, np.outer(v, v.conj()), atol=1e-12)
    # compress is compression onto the vector: a 1x1 block v* A v
    A = AlgebraElement(omega.algebra, (np.arange(16, dtype=complex).reshape(4, 4),))
    c = sup.compress(A).blocks[0][0, 0]
    assert abs(c - v.conj() @ A.blocks[0] @ v) < 1e-12


def test_support_random_rank_deficient():
    rng = np.random.default_rng(2)
    alg = MultiMatrixAlgebra((4, 3))
    omega = random_state(rng, alg, ranks=(2, 3))
    sup = support(omega)
    P = sup.projection
    assert (P @ P - P).norm() < 1e-10
    assert (P.adjoint() - P).norm() < 1e-10
    for E in matrix_units(alg):
        lhs = evaluate(omega, P @ E @ P)
        rhs = evaluate(omega, E)
        assert abs(lhs - rhs) < 1e-10
        # lift undoes compress up to the two-sided support projection
        assert (sup.lift(sup.compress(E)) - P @ E @ P).norm() < 1e-10
    # density absorbed by the projection blockwise
    for x, rho in enumerate(omega.densities):
        np.testing.assert_allclose(rho @ P.blocks[x], rho, atol=1e-10)
        np.testing.assert_allclose(P.blocks[x] @ rho, rho, atol=1e-10)


@pytest.mark.parametrize(
    "name", [p.stem for p in sorted(FIXTURES.glob("*.json"))] + ["random-rank-deficient"]
)
def test_support_projection_is_hermitian_bit_for_bit(name):
    # each kept projection block equals its conjugate transpose exactly, so
    # that its readers may hand (1 - P) - M to eigh, which reads one triangle
    if name == "random-rank-deficient":
        alg = MultiMatrixAlgebra((4, 3, 5))
        states = [random_state(np.random.default_rng(s), alg, ranks=(2, 1, 3)) for s in range(5)]
    else:
        problem = problem_from_json(loads((FIXTURES / f"{name}.json").read_text()))
        states = [problem["state"], pullback(problem["state"], problem["channel"])]
    for omega in states:
        sup = support(omega)
        for x in sup.kept:
            P = sup.projection.blocks[x]
            assert np.array_equal(P, P.conj().T)


def test_restricted_state_is_faithful():
    rng = np.random.default_rng(3)
    alg = MultiMatrixAlgebra((4,))
    omega = random_state(rng, alg, ranks=(2,))
    sup = support(omega)
    restricted = sup.restricted_state()
    assert support(restricted).is_full()
    # compress/lift invariance on matrix units
    for E in matrix_units(alg):
        lhs = evaluate(restricted, sup.compress(E))
        rhs = evaluate(omega, E)
        assert abs(lhs - rhs) < 1e-10


def test_zero_weight_blocks_dropped():
    rng = np.random.default_rng(4)
    alg = MultiMatrixAlgebra((2, 3))
    omega = random_state(rng, alg, zero_blocks=(1,))
    assert omega.densities[1] is None
    sup = support(omega)
    assert sup.kept == (0,)
    assert sup.corner_algebra.block_dims == (2,)


def test_in_nullspace():
    alg = MultiMatrixAlgebra((2,))
    omega = State(alg, (1.0,), (np.diag([1.0, 0.0]),))
    assert in_nullspace(omega, AlgebraElement(alg, (np.zeros((2, 2)),)))
    # E_12 annihilates the support from the right
    assert in_nullspace(omega, matrix_unit(alg, 0, 0, 1))
    assert not in_nullspace(omega, matrix_unit(alg, 0, 0, 0))
    faithful = State(alg, (1.0,), (np.eye(2) / 2,))
    assert not in_nullspace(faithful, matrix_unit(alg, 0, 0, 1))


def test_nullspace_equivalent_to_support_annihilation():
    rng = np.random.default_rng(5)
    alg = MultiMatrixAlgebra((4,))
    omega = random_state(rng, alg, ranks=(2,))
    P = support(omega).projection
    for _ in range(20):
        A = AlgebraElement(alg, (random_complex(rng, 4, 4),))
        by_eval = in_nullspace(omega, A)
        by_proj = (A @ P).norm() <= 1e-8 * max(A.norm(), 1.0)
        assert by_eval == by_proj
        killed = A - A @ P  # A P = 0 by construction
        assert in_nullspace(omega, killed)


def test_pullback_product_is_partial_trace():
    h = inclusion_hom(2, 2)
    tau = np.diag([0.3, 0.7])
    sigma = np.diag([0.6, 0.4])
    omega = State(h.target, (1.0,), (np.kron(tau, sigma),))
    xi = pullback(omega, from_hom(h))
    np.testing.assert_allclose(xi.densities[0], sigma, atol=1e-12)


def test_pullback_epr_is_maximally_mixed():
    h, omega = epr_instance()
    xi = pullback(omega, from_hom(h))
    np.testing.assert_allclose(xi.densities[0], np.eye(2) / 2, atol=1e-12)


def test_pullback_consistency_on_matrix_units():
    rng = np.random.default_rng(6)
    source = MultiMatrixAlgebra((2, 2))
    target = MultiMatrixAlgebra((3, 2))
    F = random_kraus_channel(rng, source, target, 2)
    omega = random_state(rng, target)
    xi = pullback(omega, F)
    for E in matrix_units(source):
        lhs = evaluate(xi, E)
        rhs = evaluate(omega, F.apply(E))
        assert abs(lhs - rhs) < 1e-10
    # the predual as one product against the einsum it replaces
    raw = []
    for y in range(source.n_blocks):
        acc = sum(
            np.einsum("kalb,ab->kl", np.conj(F.tensors[x][y]), omega.weighted_density(x))
            for x in range(target.n_blocks)
        )
        raw.append((acc + acc.conj().T) / 2)
    total = sum(np.trace(acc).real for acc in raw)
    for y, acc in enumerate(raw):
        np.testing.assert_allclose(xi.weighted_density(y), acc / total, rtol=0.0, atol=1e-12)


def test_support_monotonicity_under_state_preserving_maps():
    rng = np.random.default_rng(7)
    for trial in range(5):
        source = MultiMatrixAlgebra((2,))
        target = MultiMatrixAlgebra((4,))
        F = random_kraus_channel(rng, source, target, 2)
        omega = random_state(rng, target, ranks=(3,))
        xi = pullback(omega, F)
        P_om = support(omega).projection
        P_xi = support(xi).projection
        img = F.apply(P_xi)
        lhs = P_om @ img @ P_om
        assert (lhs - P_om).norm() < 1e-9
