import numpy as np
import pytest

from qbayes.errors import NegativeEigenvalue, NotHermitian, ShapeMismatch
from qbayes.generators import random_complex, random_psd
from qbayes.linalg import (
    Tolerances,
    _sq_frobenius,
    dagger,
    frobenius,
    herm_fun,
    hermitian_eigen,
    partial_trace_left,
    partial_trace_right,
    pseudoinverse,
    support_mask,
)

from oracles import matrix_power_it


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(eps_rank=0.0)
    with pytest.raises(ValueError):
        Tolerances(eps_eq=1.5)


def test_eigen_diagonal():
    w, V = hermitian_eigen(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [1.0, 3.0])
    recon = (V * w) @ dagger(V)
    np.testing.assert_allclose(recon, np.diag([3.0, 1.0]), atol=1e-14)


def test_eigen_pauli_x():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    w, _ = hermitian_eigen(X)
    np.testing.assert_allclose(w, [-1.0, 1.0])


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatch):
        hermitian_eigen(np.zeros((2, 3)))


def test_eigen_reconstruction_random():
    rng = np.random.default_rng(3)
    M = random_complex(rng, 6, 6)
    M = M + dagger(M)
    w, V = hermitian_eigen(M)
    assert frobenius((V * w) @ dagger(V) - M) <= 1e-10 * frobenius(M)


def test_herm_fun_sqrt_and_power():
    out = herm_fun(np.diag([4.0, 0.0]), np.sqrt)
    np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-14)
    p = 0.3
    rho = np.diag([p, 1 - p])
    out = herm_fun(rho, lambda w: w ** 1j)
    np.testing.assert_allclose(out, np.diag([p ** 1j, (1 - p) ** 1j]), atol=1e-14)
    np.testing.assert_allclose(out @ dagger(out), np.eye(2), atol=1e-14)


def test_herm_fun_log_exp_recovers_support():
    rng = np.random.default_rng(11)
    M = random_psd(rng, 5, rank=3)
    logM = herm_fun(M, np.log)
    back = herm_fun(logM + 50 * np.eye(5), lambda w: np.exp(w - 50))
    # exp(log M) matches M on its support; the shift keeps the zero modes out
    P = herm_fun(M, lambda w: np.ones_like(w))
    np.testing.assert_allclose(P @ back @ P, M, atol=1e-9 * frobenius(M))


def test_herm_fun_identity_reproduces_support_part():
    rng = np.random.default_rng(12)
    M = random_psd(rng, 6, rank=4)
    out = herm_fun(M, lambda w: w)
    assert frobenius(out - M) <= 1e-10 * frobenius(M)


def test_herm_fun_rejects_negative():
    # the message names the bound that `support_psd` applies, floored at ABS_FLOOR
    with pytest.raises(NegativeEigenvalue, match="below the PSD bound -1.000e-09"):
        herm_fun(np.diag([1.0, -0.5]), np.sqrt)
    with pytest.raises(NegativeEigenvalue, match="below the PSD bound -1.000e-12"):
        herm_fun(np.diag([1e-14, -2e-12]), np.sqrt)


def test_support_mask_cuts_at_the_rank_cutoff():
    # the cut is floored at ABS_FLOOR like every other rank cut: eps_rank x
    # max(1e-14, 1e-12) = 1e-21 keeps 1e-14 and drops 1e-22
    tol = Tolerances()
    w = np.array([1e-22, 1e-14])
    assert support_mask(w, tol).tolist() == [False, True]
    w = np.array([-1e-3, 0.0, 1e-8, 2.0])
    assert support_mask(w, tol).tolist() == (w > tol.rank_cutoff(2.0)).tolist() == [0, 0, 1, 1]


def test_imaginary_power_unitary_on_support():
    rng = np.random.default_rng(5)
    M = random_psd(rng, 5, rank=3)
    P = herm_fun(M, lambda w: np.ones_like(w))
    for t in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0):
        U = matrix_power_it(M, t)
        np.testing.assert_allclose(dagger(U) @ U, P, atol=1e-10)


@pytest.mark.parametrize("d,rank", [(1, 0), (1, 1), (2, 1), (4, 2), (6, 6), (8, 5)])
def test_pseudoinverse_penrose(d, rank):
    rng = np.random.default_rng(d * 10 + rank)
    M = random_psd(rng, d, rank)
    Mh = pseudoinverse(M)
    scale = max(frobenius(M), 1.0)
    assert frobenius(M @ Mh @ M - M) <= 1e-8 * scale
    assert frobenius(Mh @ M @ Mh - Mh) <= 1e-8 * max(frobenius(Mh), 1.0)
    assert frobenius(M @ Mh - dagger(M @ Mh)) <= 1e-10 * scale
    assert frobenius(Mh @ M - dagger(Mh @ M)) <= 1e-10 * scale


def test_pseudoinverse_examples():
    np.testing.assert_allclose(pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    np.testing.assert_allclose(pseudoinverse(np.eye(3)), np.eye(3))


def test_pseudoinverse_is_support_projection():
    rng = np.random.default_rng(9)
    M = random_psd(rng, 4, rank=2)
    P = M @ pseudoinverse(M)
    np.testing.assert_allclose(P @ P, P, atol=1e-10)
    np.testing.assert_allclose(P @ M, M, atol=1e-10)


def test_kron_identity_block_diagonal():
    rng = np.random.default_rng(1)
    B = random_complex(rng, 2, 2)
    K = np.kron(np.eye(2), B)
    np.testing.assert_allclose(K[:2, :2], B)
    np.testing.assert_allclose(K[2:, 2:], B)
    np.testing.assert_allclose(K[:2, 2:], 0 * B, atol=0)


def test_kron_diagonal_products():
    out = np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4]))
    np.testing.assert_allclose(np.diag(out), [0.18, 0.12, 0.42, 0.28])


def test_kron_trace_and_mixed_product():
    rng = np.random.default_rng(2)
    A, B = random_complex(rng, 3, 3), random_complex(rng, 2, 2)
    C, D = random_complex(rng, 3, 3), random_complex(rng, 2, 2)
    assert abs(np.trace(np.kron(A, B)) - np.trace(A) * np.trace(B)) < 1e-12
    np.testing.assert_allclose(
        np.kron(A, B) @ np.kron(C, D), np.kron(A @ C, B @ D), atol=1e-12
    )
    E = random_complex(rng, 2, 2)
    np.testing.assert_allclose(np.kron(np.kron(A, B), E), np.kron(A, np.kron(B, E)), atol=1e-12)


def test_partial_trace_of_products():
    rng = np.random.default_rng(4)
    tau = random_psd(rng, 2)
    tau /= np.trace(tau).real
    sigma = random_complex(rng, 3, 3)
    np.testing.assert_allclose(partial_trace_left(np.kron(tau, sigma), 2, 3), sigma, atol=1e-12)
    sigma_unit = sigma / np.trace(sigma)
    np.testing.assert_allclose(
        partial_trace_right(np.kron(tau, sigma_unit), 2, 3), tau, atol=1e-12
    )


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(6)
    M = random_complex(rng, 6, 6)
    assert abs(np.trace(partial_trace_left(M, 2, 3)) - np.trace(M)) < 1e-12
    assert abs(np.trace(partial_trace_right(M, 2, 3)) - np.trace(M)) < 1e-12
    with pytest.raises(ShapeMismatch):
        partial_trace_left(M, 4, 2)


def test_partial_traces_adjoint_to_embeddings():
    rng = np.random.default_rng(7)
    M = random_complex(rng, 6, 6)
    S = random_complex(rng, 3, 3)
    lhs = np.trace(dagger(partial_trace_left(M, 2, 3)) @ S)
    rhs = np.trace(dagger(M) @ np.kron(np.eye(2), S))
    assert abs(lhs - rhs) < 1e-12
    T = random_complex(rng, 2, 2)
    lhs = np.trace(dagger(partial_trace_right(M, 2, 3)) @ T)
    rhs = np.trace(dagger(M) @ np.kron(T, np.eye(3)))
    assert abs(lhs - rhs) < 1e-12


def test_frobenius_is_norm_bit_for_bit():
    rng = np.random.default_rng(13)
    Z = random_complex(rng, 6, 8)
    cases = [
        rng.standard_normal((5, 7)),
        Z,
        Z[::2, 1::3].T,                                   # complex, not contiguous
        Z.real.T[::3],                                    # real, not contiguous
        rng.standard_normal((3, 4, 5)).transpose(2, 0, 1),
        np.zeros((0, 4), dtype=complex),
        np.zeros((0,)),
        np.array([[1.0, np.nan]]),
        np.array([1.0, np.nan * 1j]),
        np.array([np.inf, -np.inf, 1j]),
        np.array([[-np.inf, 2.0]]),
    ]
    for A in cases:
        want, got = float(np.linalg.norm(A)), frobenius(A)
        assert type(got) is float
        assert got == want or (np.isnan(got) and np.isnan(want)), A


def test_sq_frobenius_matches_einsum():
    rng = np.random.default_rng(14)
    X = random_complex(rng, 3 * 4 * 5, 6).reshape(3, 4, 5, 6)
    for Y in (X, X.swapaxes(0, 2), X.swapaxes(1, 2), X.real.copy()):
        want = np.einsum("...ab,...ab->...", Y.conj(), Y).real
        np.testing.assert_allclose(_sq_frobenius(Y), want, rtol=1e-14, atol=0.0)
