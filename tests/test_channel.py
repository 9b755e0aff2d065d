
import numpy as np
import pytest

from qbayes.algebra import (
    AlgebraElement,
    HomSpec,
    MultiMatrixAlgebra,
    unit,
)
from qbayes.channel import (
    LinearMap,
    _sandwich,
    ae_deterministic,
    ae_equal,
    compose,
    from_choi,
    from_hom,
    from_kraus,
    identity_channel,
    is_ucp,
    kraus_blocks,
    kraus_factor,
)
from qbayes.errors import NotCP, NotHermitian, ShapeMismatch
from qbayes.jsonio import loads, problem_from_json

from conftest import INSTANCE_CASES, fixture_path
from derivations import recording
from instances import nonsubalgebra_deterministic_instance
from oracles import apply_hom, hs_adjoint, in_nullspace, matrix_units
from qbayes.generators import (
    inclusion_hom,
    random_complex,
    random_hom,
    random_kraus_channel,
    random_state,
)
import qbayes.channel
from qbayes.linalg import DEFAULT_TOL, Tolerances, dagger, partial_trace_left
from qbayes.state import State, pullback, support


# the equality threshold for maps that agree up to rounding
TIGHT = Tolerances(eps_eq=1e-12)


def random_element(rng, alg):
    return AlgebraElement(alg, tuple(random_complex(rng, d, d) for d in alg.block_dims))


def assert_same_map(F, G, atol):
    assert F.source == G.source and F.target == G.target
    for row_f, row_g in zip(F.tensors, G.tensors):
        for T_f, T_g in zip(row_f, row_g):
            if atol == 0.0:
                assert np.array_equal(T_f, T_g)
            else:
                np.testing.assert_allclose(T_f, T_g, rtol=0.0, atol=atol)


def test_identity_channel():
    rng = np.random.default_rng(0)
    for dims in ((3,), (2, 3), (2, 3, 1)):
        alg = MultiMatrixAlgebra(dims)
        F = identity_channel(alg)
        A = random_element(rng, alg)
        assert (F.apply(A) - A).norm() < 1e-14
        assert is_ucp(F)
        # reference: the identity evaluated one matrix unit at a time
        reference = LinearMap.from_block_fn(
            alg, alg, lambda x, y, E: E if x == y else np.zeros((dims[x], dims[x]))
        )
        assert_same_map(F, reference, atol=1e-12)


HOMS = {
    "single-block": inclusion_hom(3, 2),
    "multi-block": HomSpec(
        MultiMatrixAlgebra((2, 3)), MultiMatrixAlgebra((7, 4)), ((2, 1), (2, 0))
    ),
    "missed-source-block": HomSpec(
        MultiMatrixAlgebra((2, 3)), MultiMatrixAlgebra((2,)), ((1, 0),)
    ),
    "random": random_hom(np.random.default_rng(1), (2, 3), max_mult=2),
}


def test_from_hom_matches_apply_hom():
    for h in HOMS.values():
        F = from_hom(h)
        for E in matrix_units(h.source):
            assert (F.apply(E) - apply_hom(h, E)).norm() < 1e-13
        assert is_ucp(F)

        # the slot-isometry Kraus form is exact: bit-identical to the hom
        # evaluated on one matrix unit at a time
        def fn(x, y, E, h=h):
            src = [np.zeros((d, d), dtype=complex) for d in h.source.block_dims]
            src[y] = E
            return apply_hom(h, AlgebraElement(h.source, tuple(src))).blocks[x]

        assert_same_map(F, LinearMap.from_block_fn(h.source, h.target, fn), atol=0.0)


def test_from_hom_multiplicity_embedding():
    h = inclusion_hom(2, 2)
    F = from_hom(h)
    rng = np.random.default_rng(2)
    B = random_element(rng, h.source)
    np.testing.assert_allclose(
        F.apply(B).blocks[0], np.kron(np.eye(2), B.blocks[0]), atol=1e-13
    )


def test_compose_identity_and_homs():
    rng = np.random.default_rng(3)
    h = random_hom(rng, (2, 2), max_mult=2)
    F = from_hom(h)
    ident = identity_channel(h.target)
    comp = compose(ident, F)
    assert TIGHT.close(*comp.distance(F))
    # composite of embeddings carries the product multiplicity matrix
    g = random_hom(rng, tuple(h.target.block_dims), max_mult=1)
    G = from_hom(g)
    both = compose(G, F)
    prod_mult = tuple(
        tuple(int(c) for c in row)
        for row in np.array(g.multiplicities) @ np.array(h.multiplicities)
    )
    direct = from_hom(HomSpec(h.source, g.target, prod_mult))
    assert TIGHT.close(*both.distance(direct))


def test_from_kraus_dephasing():
    alg = MultiMatrixAlgebra((2,))
    ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    F = from_kraus(alg, alg, [[ops]])
    assert is_ucp(F)
    rng = np.random.default_rng(4)
    B = random_element(rng, alg)
    np.testing.assert_allclose(
        F.apply(B).blocks[0], np.diag(np.diag(B.blocks[0])), atol=1e-14
    )


def test_channel_requires_hermitian_choi():
    alg = MultiMatrixAlgebra((2,))
    T = np.zeros((2, 2, 2, 2), dtype=complex)
    T[0, 0, 1, 1] = 1.0  # not matched by its conjugate entry
    with pytest.raises(NotHermitian):
        from_choi(alg, alg, [[T]])


def test_hs_adjoint_pairing_and_involution():
    rng = np.random.default_rng(5)
    source = MultiMatrixAlgebra((2, 2))
    target = MultiMatrixAlgebra((3,))
    F = random_kraus_channel(rng, source, target, 2)
    Fs = hs_adjoint(F)
    for A in matrix_units(target):
        for B in matrix_units(source):
            lhs = sum(
                np.trace(dagger(F.apply(B).blocks[x]) @ A.blocks[x])
                for x in range(target.n_blocks)
            )
            rhs = sum(
                np.trace(dagger(B.blocks[y]) @ Fs.apply(A).blocks[y])
                for y in range(source.n_blocks)
            )
            assert abs(lhs - rhs) < 1e-11
    assert TIGHT.close(*hs_adjoint(Fs).distance(F))


def _stacks_reconstruct(F, kraus):
    """The block tensors sum_s K_s[a, i] conj(K_s[b, j]) of the stacks, against F's."""
    for x, row in enumerate(kraus):
        for y, K in enumerate(row):
            T = np.einsum("sai,sbj->iajb", K, K.conj())
            np.testing.assert_allclose(T, F.tensors[x][y], rtol=0.0, atol=1e-12)
            assert not K.flags.writeable


def test_kraus_built_channels_keep_their_operators():
    rng = np.random.default_rng(31)
    source, target = MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((3, 2))
    F = random_kraus_channel(rng, source, target, 2)
    assert kraus_factor(F) is F.kraus
    assert [[len(K) for K in row] for row in F.kraus] == [[2, 2], [2, 2]]
    _stacks_reconstruct(F, F.kraus)
    # a hom keeps its slot isometries, one per copy, and the identity its
    # identities on the diagonal blocks
    h = random_hom(rng, (2, 1), max_mult=2)
    G = from_hom(h)
    assert [[len(K) for K in row] for row in G.kraus] == [list(r) for r in h.multiplicities]
    _stacks_reconstruct(G, kraus_factor(G))
    ident = identity_channel(source)
    assert [[len(K) for K in row] for row in ident.kraus] == [[1, 0], [0, 1]]


def test_choi_given_channel_reads_its_operators_at_parse():
    problem = problem_from_json(loads(fixture_path("nonsubalgebra_pure.json").read_text()))
    F = problem["channel"]
    # the operators cut at the parse's tolerances are the first of its factor's
    kraus = kraus_factor(F)
    assert all(
        np.array_equal(K, full[: len(K)]) for row, frow in zip(kraus, F.kraus) for K, full in zip(row, frow)
    )
    _stacks_reconstruct(F, kraus)
    # the operators `kraus_blocks` extracts, up to rounding and phases
    for K, ref in zip(kraus[0][0], kraus_blocks(F, 0, 0)):
        np.testing.assert_allclose(np.abs(K), np.abs(ref), rtol=0.0, atol=1e-12)


def test_other_channels_derive_their_operators_once_per_tolerance():
    rng = np.random.default_rng(32)
    alg = MultiMatrixAlgebra((3,))
    G = random_kraus_channel(rng, alg, alg, 2)
    F = LinearMap(alg, alg, G.tensors)  # the same map, built from its tensors
    assert F.kraus is None
    target = {"_choi_factor": (qbayes.channel, "_choi_factor", lambda F, tol: tol)}
    with recording(target) as seen:
        first = kraus_factor(F)
        assert kraus_factor(F) is first
        loose = Tolerances(eps_rank=1e-6)
        assert kraus_factor(F, loose) is not first
    assert seen["_choi_factor"] == [DEFAULT_TOL, loose]
    assert len(first[0][0]) == 2
    _stacks_reconstruct(F, first)


def test_hs_adjoint_of_embedding_is_partial_trace():
    h = inclusion_hom(2, 3)
    F = from_hom(h)
    Fs = hs_adjoint(F)
    rng = np.random.default_rng(6)
    M = random_complex(rng, 6, 6)
    M = M + dagger(M)
    A = AlgebraElement(h.target, (M,))
    np.testing.assert_allclose(
        Fs.apply(A).blocks[0], partial_trace_left(M, 2, 3), atol=1e-12
    )


def test_hs_adjoint_reverses_composition():
    rng = np.random.default_rng(7)
    B = MultiMatrixAlgebra((2,))
    C = MultiMatrixAlgebra((3,))
    A = MultiMatrixAlgebra((4,))
    G = random_kraus_channel(rng, B, C, 2)
    F = random_kraus_channel(rng, C, A, 2)
    lhs = hs_adjoint(compose(F, G))
    rhs = compose(hs_adjoint(G), hs_adjoint(F))
    assert TIGHT.close(*lhs.distance(rhs))


def test_hs_adjoint_trace_preserving_iff_unital():
    rng = np.random.default_rng(8)
    F = random_kraus_channel(rng, MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((3,)), 2)
    Fs = hs_adjoint(F)
    A = random_element(rng, MultiMatrixAlgebra((3,)))
    assert abs(Fs.apply(A).trace() - A.trace()) < 1e-11


def test_is_ucp_transpose_witness():
    alg = MultiMatrixAlgebra((2,))

    def transpose_fn(x, y, E):
        return E.T

    lm = LinearMap.from_block_fn(alg, alg, transpose_fn)
    F = LinearMap(alg, alg, lm.tensors)  # Choi is the swap: Hermitian but not PSD
    verdict = is_ucp(F)
    assert not verdict
    assert not verdict.cp.ok
    assert verdict.unital.ok
    # the certificate bounds the Choi eigenvalue -1 of the swap from below
    assert verdict.cp.residual > 0.9
    assert verdict.witness_block == (0, 0)


def test_is_ucp_random_kraus():
    rng = np.random.default_rng(9)
    F = random_kraus_channel(rng, MultiMatrixAlgebra((2, 2)), MultiMatrixAlgebra((3,)), 3)
    assert is_ucp(F)


def test_from_kraus_matches_einsum():
    # one product over the stacked operators against the per-operator einsum
    # it replaces, with rectangular blocks and an empty Kraus list
    rng = np.random.default_rng(11)
    source, target = MultiMatrixAlgebra((2, 3)), MultiMatrixAlgebra((4, 1))
    kraus = [
        [[random_complex(rng, m, n) for _ in range(k)] for n, k in zip(source.block_dims, (3, 0))]
        for m in target.block_dims
    ]
    F = from_kraus(source, target, kraus)
    for x, m in enumerate(target.block_dims):
        for y, n in enumerate(source.block_dims):
            want = np.zeros((n, m, n, m), dtype=complex)
            for K in kraus[x][y]:
                want += np.einsum("ai,bj->iajb", K, np.conj(K))
            np.testing.assert_allclose(F.tensors[x][y], want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("stacked", [False, True], ids=["plain", "stacked"])
@pytest.mark.parametrize("dropped", [None, "A", "B", "L", "R"])
def test_sandwich_matches_einsum(dropped, stacked):
    # E |-> L F(A E B) R with rectangular factors of distinct sizes, each
    # factor in turn left out (the identity), on a leading stack axis or none
    rng = np.random.default_rng(13)
    n, m = 3, 4
    T = random_complex(rng, n * m, n * m).reshape(n, m, n, m)
    shapes = {"A": (n, 2), "B": (5, n), "L": (6, m), "R": (m, 7)}
    if dropped is not None:
        shapes[dropped] = None
    lead = (2,) if stacked else ()
    factors = {}
    full = {}
    for name, shape in shapes.items():
        if shape is None:
            factors[name] = None
            full[name] = np.eye(n if name in "AB" else m)
        else:
            M = random_complex(rng, int(np.prod(lead + shape[:1])), shape[1])
            factors[name] = full[name] = M.reshape(*lead, *shape)
    want = np.einsum(
        "kcld,...ki,...jl,...ac,...db->...iajb",
        T, full["A"], full["B"], full["L"], full["R"],
    )
    got = _sandwich(T, **factors)
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_random_kraus_needs_enough_operators():
    # sum_k K_k K_k^* has rank at most n_kraus * 3 < 12: it cannot be made unital
    rng = np.random.default_rng(9)
    with pytest.raises(ShapeMismatch):
        random_kraus_channel(rng, MultiMatrixAlgebra((3,)), MultiMatrixAlgebra((12,)), 2)
    F = random_kraus_channel(rng, MultiMatrixAlgebra((3,)), MultiMatrixAlgebra((12,)), 4)
    assert is_ucp(F)


def test_ae_equal_exact_and_faithful():
    rng = np.random.default_rng(10)
    alg = MultiMatrixAlgebra((2,))
    F = random_kraus_channel(rng, alg, alg, 2)
    G = random_kraus_channel(rng, alg, alg, 2)
    omega = random_state(rng, alg)
    assert ae_equal(F, F, omega)
    assert not ae_equal(F, G, omega)


def test_ae_equal_off_support_perturbation():
    alg = MultiMatrixAlgebra((2,))
    omega = State(alg, (1.0,), (np.diag([1.0, 0.0]),))
    ident = identity_channel(alg)

    def perturbed(x, y, E):
        return E + 0.5 * np.trace(E) * np.diag([0.0, 1.0])

    lm = LinearMap.from_block_fn(alg, alg, perturbed)
    G = LinearMap(alg, alg, lm.tensors)
    assert not DEFAULT_TOL.close(*G.distance(ident))
    assert ae_equal(ident, G, omega)
    faithful = State(alg, (1.0,), (np.eye(2) / 2,))
    assert not ae_equal(ident, G, faithful)


def test_ae_deterministic_homs_and_depolarizing():
    rng = np.random.default_rng(11)
    h = random_hom(rng, (2, 2), max_mult=2)
    F = from_hom(h)
    omega = random_state(rng, h.target)
    assert ae_deterministic(F, omega)

    alg = MultiMatrixAlgebra((2,))

    def depolarize(x, y, E):
        return 0.5 * E + 0.5 * np.trace(E) * np.eye(2) / 2

    lm = LinearMap.from_block_fn(alg, alg, depolarize)
    D = LinearMap(alg, alg, lm.tensors)
    faithful = random_state(rng, alg)
    assert not ae_deterministic(D, faithful)


def test_ae_deterministic_nonsubalgebra_example():
    F, omega = nonsubalgebra_deterministic_instance()
    assert is_ucp(F)
    assert ae_deterministic(F, omega)
    faithful = State(F.target, (1.0,), (np.eye(4) / 4,))
    assert not ae_deterministic(F, faithful)


def test_nonsubalgebra_kraus_form_matches_its_formula():
    def fn(x, y, E):
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = E
        out[2:, 2:] = (E + E.T + np.trace(E) * np.eye(2)) / 4.0
        return out

    F, _ = nonsubalgebra_deterministic_instance()
    assert_same_map(F, LinearMap.from_block_fn(F.source, F.target, fn), atol=1e-15)


def test_nullspace_transport():
    rng = np.random.default_rng(12)
    source = MultiMatrixAlgebra((2,))
    target = MultiMatrixAlgebra((4,))
    F = random_kraus_channel(rng, source, target, 2)
    omega = random_state(rng, target, ranks=(2,))
    xi = pullback(omega, F)
    P_xi = support(xi).projection
    perp = unit(source) - P_xi
    for E in matrix_units(source):
        B = E @ perp  # basis of the nullspace of xi
        if B.norm() < 1e-12:
            continue
        assert in_nullspace(xi, B)
        assert in_nullspace(omega, F.apply(B), scale=1.0)


def test_kraus_factor_of_a_map_given_by_its_tensors_reconstructs_it():
    # the operators are derived from the Choi blocks of a plain map; the map
    # is unital, so sum_y sum_s K_s K_s^* is the identity of each target block
    rng = np.random.default_rng(13)
    source, target = MultiMatrixAlgebra((2, 2)), MultiMatrixAlgebra((3,))
    for G in (from_hom(inclusion_hom(2, 2)), random_kraus_channel(rng, source, target, 2)):
        F = LinearMap(G.source, G.target, G.tensors)
        kraus = kraus_factor(F)
        _stacks_reconstruct(F, kraus)
        for x, row in enumerate(kraus):
            unit_image = sum(np.einsum("sai,sbi->ab", K, K.conj()) for K in row)
            np.testing.assert_allclose(unit_image, np.eye(F.target.block_dims[x]), atol=1e-10)


def test_kraus_factor_rank_matches_choi():
    rng = np.random.default_rng(14)
    G = random_kraus_channel(rng, MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((2,)), 2)
    F = LinearMap(G.source, G.target, G.tensors)
    C = F.choi_block(0, 0)
    rank = int((np.linalg.eigvalsh((C + dagger(C)) / 2) > 1e-9).sum())
    assert len(kraus_factor(F)[0][0]) == rank


def test_kraus_factor_rejects_non_cp():
    alg = MultiMatrixAlgebra((2,))
    F = LinearMap.from_block_fn(alg, alg, lambda x, y, E: E.T)
    with pytest.raises(NotCP):
        kraus_factor(F)


def _compose_by_einsum(F, G):
    """F o G by the per-block einsum string that compose replaced."""
    return [
        [
            sum(
                np.einsum("kjlc,jacb->kalb", G.tensors[y][z], F.tensors[x][y])
                for y in range(F.source.n_blocks)
            )
            for z in range(G.source.n_blocks)
        ]
        for x in range(F.target.n_blocks)
    ]


@pytest.mark.parametrize("case", INSTANCE_CASES.values(), ids=INSTANCE_CASES.keys())
def test_compose_matches_einsum(case):
    F, _ = case()
    Fs = hs_adjoint(F)
    for outer, inner in ((F, Fs), (Fs, F)):
        comp = compose(outer, inner)
        want = _compose_by_einsum(outer, inner)
        for row, row_ref in zip(comp.tensors, want):
            for T, T_ref in zip(row, row_ref):
                np.testing.assert_allclose(T, T_ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_maps_fail_closed(bad):
    F = from_hom(inclusion_hom(2, 2))
    T = F.tensors[0][0].copy()
    T[0, 1, 1, 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(NotHermitian):
        from_choi(F.source, F.target, [[T]])
    with np.errstate(invalid="ignore"):
        verdict = is_ucp(LinearMap(F.source, F.target, [[np.full_like(T, bad)]]))
    assert not verdict.ok and not verdict.cp.ok
    assert verdict.witness_block == (0, 0)
