import numpy as np
import pytest

from qbayes.algebra import (
    AlgebraElement,
    HomSpec,
    MultiMatrixAlgebra,
    apply_hom,
    central_projections,
    central_support_pairs,
    matrix_units,
    unit,
    zero,
)
from qbayes.errors import ShapeMismatch
from qbayes.generators import random_complex, random_hom

from oracles import hs_inner


def random_element(rng, alg):
    return AlgebraElement(alg, tuple(random_complex(rng, d, d) for d in alg.block_dims))


def test_algebra_validation():
    with pytest.raises(ShapeMismatch):
        MultiMatrixAlgebra(())
    with pytest.raises(ShapeMismatch):
        MultiMatrixAlgebra((2, 0))
    assert MultiMatrixAlgebra((2, 3)).dim == 13


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


def test_central_projections():
    alg = MultiMatrixAlgebra((2, 3))
    projs = central_projections(alg)
    np.testing.assert_allclose(projs[0].blocks[0], np.eye(2))
    np.testing.assert_allclose(projs[0].blocks[1], np.zeros((3, 3)))
    total = projs[0] + projs[1]
    assert (total - unit(alg)).norm() < 1e-14
    assert (projs[0] @ projs[1]).norm() < 1e-14
    assert (projs[0] @ projs[0] - projs[0]).norm() < 1e-14


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


def test_central_support_pairs_single_block():
    h = HomSpec(MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((4,)), ((2,),))
    pairs = central_support_pairs(h)
    assert len(pairs) == 1
    assert pairs[0].size == 4
    np.testing.assert_allclose(pairs[0].projection.blocks[0], np.eye(4))


def test_central_support_pairs_diagonal():
    src = MultiMatrixAlgebra((1, 1))
    h = HomSpec(src, MultiMatrixAlgebra((2,)), ((1, 1),))
    pairs = central_support_pairs(h)
    assert [(p.i, p.j, p.offset, p.size) for p in pairs] == [(0, 0, 0, 1), (0, 1, 1, 1)]
    np.testing.assert_allclose(pairs[0].projection.blocks[0], np.diag([1.0, 0.0]))
    np.testing.assert_allclose(pairs[1].projection.blocks[0], np.diag([0.0, 1.0]))


def test_central_support_pairs_sum_to_central_projection():
    rng = np.random.default_rng(3)
    for trial in range(5):
        h = random_hom(rng, (2, 1, 3), max_mult=2)
        pairs = central_support_pairs(h)
        projs = central_projections(h.target)
        for i in range(h.target.n_blocks):
            total = zero(h.target)
            for p in pairs:
                if p.i == i:
                    total = total + p.projection
            assert (total - projs[i]).norm() < 1e-13


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
