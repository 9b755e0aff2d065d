import numpy as np
import pytest

from qbayes.algebra import (
    AlgebraElement,
    HomSpec,
    MultiMatrixAlgebra,
    unit,
    zero,
)
from qbayes.errors import ShapeMismatch
from qbayes.generators import random_complex, random_hom

from oracles import apply_hom, hs_inner, matrix_units


def random_element(rng, alg):
    return AlgebraElement(alg, tuple(random_complex(rng, d, d) for d in alg.block_dims))


def test_algebra_validation():
    with pytest.raises(ShapeMismatch):
        MultiMatrixAlgebra(())
    with pytest.raises(ShapeMismatch):
        MultiMatrixAlgebra((2, 0))
    assert sum(d * d for d in MultiMatrixAlgebra((2, 3)).block_dims) == 13


def test_matrix_units_count_and_orthogonality():
    alg = MultiMatrixAlgebra((2,))
    units = list(matrix_units(alg))
    assert len(units) == 4
    alg2 = MultiMatrixAlgebra((1, 1))
    units2 = list(matrix_units(alg2))
    assert len(units2) == 2
    for a, Ea in enumerate(units):
        for b, Eb in enumerate(units):
            expected = 1.0 if a == b else 0.0
            assert abs(hs_inner(Ea, Eb) - expected) < 1e-14


def test_matrix_units_span():
    rng = np.random.default_rng(0)
    alg = MultiMatrixAlgebra((2, 3))
    A = random_element(rng, alg)
    recon = zero(alg)
    for E in matrix_units(alg):
        recon = recon + hs_inner(E, A) * E
    assert (recon - A).norm() < 1e-12


def test_homspec_unitality_enforced():
    src = MultiMatrixAlgebra((2, 3))
    HomSpec(src, MultiMatrixAlgebra((5,)), ((1, 1),))
    with pytest.raises(ShapeMismatch):
        HomSpec(src, MultiMatrixAlgebra((6,)), ((1, 1),))
    with pytest.raises(ShapeMismatch):
        HomSpec(src, MultiMatrixAlgebra((5,)), ((-1, 1),))


def test_apply_hom_identity_and_double():
    src = MultiMatrixAlgebra((3,))
    h = HomSpec(src, MultiMatrixAlgebra((3,)), ((1,),))
    rng = np.random.default_rng(1)
    B = random_element(rng, src)
    assert (apply_hom(h, B) - B).norm() < 1e-14

    h2 = HomSpec(MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((4,)), ((2,),))
    B2 = random_element(rng, MultiMatrixAlgebra((2,)))
    img = apply_hom(h2, B2).blocks[0]
    np.testing.assert_allclose(img, np.kron(np.eye(2), B2.blocks[0]), atol=1e-14)


def test_apply_hom_star_homomorphism_properties():
    rng = np.random.default_rng(2)
    for trial in range(5):
        h = random_hom(rng, (2, 3), max_mult=2)
        B1 = random_element(rng, h.source)
        B2 = random_element(rng, h.source)
        lhs = apply_hom(h, B1 @ B2)
        rhs = apply_hom(h, B1) @ apply_hom(h, B2)
        assert (lhs - rhs).norm() < 1e-10
        assert (apply_hom(h, B1.adjoint()) - apply_hom(h, B1).adjoint()).norm() < 1e-12
        assert (apply_hom(h, unit(h.source)) - unit(h.target)).norm() < 1e-12
        s = 0.3 - 1.2j
        assert (apply_hom(h, s * B1) - s * apply_hom(h, B1)).norm() < 1e-12


def central_projections(alg):
    """The minimal central projections, one per block."""
    return [
        AlgebraElement(alg, tuple(np.eye(d) * (y == x) for y, d in enumerate(alg.block_dims)))
        for x in range(alg.n_blocks)
    ]


def test_source_central_images_commute_with_target_projections():
    rng = np.random.default_rng(4)
    h = random_hom(rng, (2, 2), max_mult=2)
    q_images = [apply_hom(h, q) for q in central_projections(h.source)]
    p_projs = central_projections(h.target)
    total_q = q_images[0]
    for q in q_images[1:]:
        total_q = total_q + q
    assert (total_q - unit(h.target)).norm() < 1e-13
    for q in q_images:
        for p in p_projs:
            assert (q @ p - p @ q).norm() < 1e-13
