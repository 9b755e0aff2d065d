"""`is_ucp` certifies complete positivity from a Kraus factor, soundly.

With L the operators of a block as columns, Weyl's inequality gives
lambda_min(C) >= -||C - L L*||_F for the Choi block C, so the certificate
passes only maps whose Choi blocks pass the same PSD rule that the dense
route (`oracles.dense_ucp`, one eigendecomposition per block) applies to the
least eigenvalue. The tests check it against that route: it passes wherever
the dense route passes on random Kraus channels and on every corner map,
inverse and recovery built from the fixtures and the seed-1 ladder; a
planted negative Choi eigenvalue fails both; and a forged factor fails it.
It is the one rule: a `choi` input, a map built without a factor and a
composed map are certified too, from the factor read from their Choi
blocks, and the dense route is left only to the tests.
"""

import contextlib
import io

import numpy as np
import pytest
import qbayes.channel
from hypothesis import given, settings
from hypothesis import strategies as st

from qbayes.algebra import MultiMatrixAlgebra
from qbayes.bayesinv import bayes_inverse
from qbayes.channel import (
    Channel,
    compose,
    from_choi,
    from_hom,
    from_kraus,
    identity_channel,
    is_ucp,
    kraus_factor,
)
from qbayes.cli import main
from qbayes.disint import disintegrate
from qbayes.generators import random_complex
from qbayes.jsonio import canonical_dumps, channel_to_json, loads, problem_from_json, state_to_json
from qbayes.linalg import DEFAULT_TOL
from qbayes.modular import corner_map

from conftest import FIXTURES
from derivations import eigendecompositions, recording
from instances import product_instance, rankdef_product_instance, with_small_directions
from oracles import dense_ucp

# the inclusion-ladder problems of `bench/workloads.py` at seed 1
LADDER = [
    (dims, kind, 100 + index)
    for index, (dims, kind) in enumerate(
        (d, k) for d in ("2->8", "3->9", "4->8", "4->16", "6->12")
        for k in ("product", "rankdef", "nonproduct")
    )
]


def random_kraus_map(seed: int, source_dims, target_dims) -> Channel:
    """A CP map in Kraus form with 1 to 4 Gaussian operators in block (0, 0)
    and 0 to 4 in every other block pair; not unital."""
    rng = np.random.default_rng(seed)
    kraus = [
        [[random_complex(rng, m, n) for _ in range(rng.integers(x == y == 0, 5))]
         for y, n in enumerate(source_dims)]
        for x, m in enumerate(target_dims)
    ]
    return from_kraus(MultiMatrixAlgebra(tuple(source_dims)), MultiMatrixAlgebra(tuple(target_dims)), kraus)


def with_factor(F, tensors, kraus, negative=None) -> Channel:
    return Channel(F.source, F.target, tensors, kraus=kraus, negative=negative)


maps = st.tuples(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.lists(st.integers(1, 4), min_size=1, max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(maps)
def test_certificate_passes_where_the_dense_route_passes(args):
    F = random_kraus_map(*args)
    dense, cert = dense_ucp(F), is_ucp(F)
    assert dense.cp.ok and cert.cp.ok
    assert cert.cp.residual <= dense.cp.threshold / 10


@settings(max_examples=60, deadline=None)
@given(maps)
def test_a_planted_negative_eigenvalue_fails_both_routes(args):
    F = random_kraus_map(*args)
    threshold = dense_ucp(F).cp.threshold
    # move the least eigenvalue of Choi block (0, 0) to -10 x the PSD threshold
    C = F.choi_block(0, 0)
    w, V = np.linalg.eigh(C)
    planted = C - (w[0] + 10 * threshold) * np.outer(V[:, 0], V[:, 0].conj())
    tensors = [[T for T in row] for row in F.tensors]
    tensors[0][0] = planted.reshape(F.tensors[0][0].shape)
    P = with_factor(F, tensors, F.kraus)
    assert not dense_ucp(P).cp.ok
    verdict = is_ucp(P)
    assert not verdict.cp.ok and verdict.witness_block == (0, 0)
    assert verdict.cp.residual >= 9 * threshold


@settings(max_examples=60, deadline=None)
@given(maps)
def test_a_forged_factor_fails_the_certificate(args):
    seed, source_dims, target_dims = args
    F = random_kraus_map(seed, source_dims, target_dims)
    assert dense_ucp(F).cp.ok
    # the factor of another CP map of the same shape
    G = random_kraus_map(seed + 1, source_dims, target_dims)
    assert not is_ucp(with_factor(F, F.tensors, G.kraus)).cp.ok
    # the true factor with one operator of block (0, 0) dropped
    dropped = [list(row) for row in F.kraus]
    dropped[0][0] = F.kraus[0][0][1:]
    assert not is_ucp(with_factor(F, F.tensors, dropped)).cp.ok


def test_a_choi_given_factor_keeps_every_nonnegative_direction():
    # four null directions of a rank-2 Choi block given eigenvalue 0.9 x the
    # rank cutoff: the kept operators cut them, and together (Frobenius 1.8 x
    # the cutoff) they would fail a certificate that read the cut operators
    rng = np.random.default_rng(5)
    F = from_kraus(MultiMatrixAlgebra((3,)), MultiMatrixAlgebra((4,)),
                   [[[random_complex(rng, 4, 3) for _ in range(2)]]])
    C = F.choi_block(0, 0)
    w, V = np.linalg.eigh(C)
    small = 0.9 * DEFAULT_TOL.rank_cutoff(w[-1])
    C = C + small * (V[:, :4] @ V[:, :4].conj().T)
    G = from_choi(F.source, F.target, [[C.reshape(F.tensors[0][0].shape)]])
    kraus, negative = G.kraus, G.negative
    assert len(kraus_factor(G)[0][0]) == len(F.kraus[0][0]) == 2
    assert len(kraus[0][0]) == 6 and len(negative[0][0]) == 0
    assert not is_ucp(with_factor(G, G.tensors, kraus_factor(G))).cp.ok
    certified = is_ucp(with_factor(G, G.tensors, kraus, negative)).cp
    assert certified.ok and certified.residual < 1e-3 * small
    # a map given without a factor is certified from the factor read from its
    # Choi blocks, and the dense route reaches the same verdict
    bare = Channel(G.source, G.target, G.tensors)
    assert bare.kraus is None
    dense, cert = dense_ucp(bare).cp, is_ucp(bare).cp
    assert dense.ok and cert.ok
    assert cert.residual <= dense.threshold


@pytest.mark.parametrize("fixture", ["battery_pass_no_inverse", "nonsubalgebra_pure"])
def test_every_map_is_judged_by_the_one_certificate(fixture):
    # a parsed `choi` channel, a channel built bare from its tensors and a
    # composed map are each certified once, from their factor, and no Choi
    # block is judged on its least eigenvalue: only the reading of a factor
    # decomposes a matrix of a Choi block's side
    targets = {
        "certificate": (qbayes.channel, "_certificate", lambda F, kraus, negative, blocks: id(F)),
    }
    data = loads((FIXTURES / f"{fixture}.json").read_text())
    with recording(targets) as seen, eigendecompositions() as sides:
        F = problem_from_json(data)["channel"]
        bare = Channel(F.source, F.target, F.tensors)
        composed = compose(identity_channel(F.target), F)
        for M in (F, bare, composed):
            assert is_ucp(M).ok
        assert seen["certificate"] == [id(F), id(bare), id(composed)]
    side = F.choi_block(0, 0).shape[0]
    assert {caller for caller, s in sides if s == side} == {"_choi_factor"}


@pytest.mark.parametrize(
    "instance, frac", [(product_instance, 0.9), (rankdef_product_instance, 0.5)]
)
def test_the_inverse_of_a_choi_given_channel_is_certified_over_its_cut_directions(instance, frac):
    # the inverse's Choi blocks carry the directions that F's kept operators
    # cut, scaled by sigma-hat and rho: its factor spans their images too
    h, omega = instance()
    G = with_small_directions(from_hom(h), frac, 4)
    exists, inverse, _, _ = bayes_inverse(G, omega)
    assert exists
    dense, cert = dense_ucp(inverse), is_ucp(inverse)
    assert dense.ok and cert.ok
    assert cert.cp.residual <= dense.cp.threshold


def test_the_inverse_spans_the_cut_operators_wherever_the_factor_lists_them():
    # product.json's hom factor with one operator of squared norm 3e-10,
    # below the rank cutoff, planted first in one copy and last in the other;
    # empty negative stacks make `kraus_factor` cut it, and both inverses span
    # its image beside the kept operators', so their certificates read the same
    problem = problem_from_json(loads((FIXTURES / "product.json").read_text()))
    F, omega = problem["channel"], problem["state"]
    K = F.kraus[0][0]
    planted = random_complex(np.random.default_rng(0), *K.shape[1:])
    planted *= np.sqrt(3e-10) / np.linalg.norm(planted)
    tensors = from_kraus(F.source, F.target, [[[*K, planted]]]).tensors
    none = [[np.zeros((0, *K.shape[1:]), dtype=complex)]]
    residuals = []
    for stack in ([planted, *K], [*K, planted]):
        G = with_factor(F, tensors, [[np.array(stack)]], none)
        assert len(kraus_factor(G)[0][0]) == len(K)
        exists, inverse, _, _ = bayes_inverse(G, omega)
        assert exists
        residuals.append(is_ucp(inverse).cp.residual)
    assert residuals[0] == residuals[1]


def test_the_corner_of_a_choi_given_channel_keeps_its_accepted_negative_eigenvalues(tmp_path):
    # two Choi eigenvalues at -0.9 x the PSD threshold, in the corner that the
    # rank-deficient state keeps and orthogonal to the hom's range: parsing
    # accepts them, and the corner certificate reads their least eigenvalue
    # (as the dense route does), not their Frobenius norm
    h, omega = rankdef_product_instance()
    F = from_hom(h)
    C = F.choi_block(0, 0)                      # [(i, a), (j, b)], a in 0..3
    threshold = DEFAULT_TOL.psd(0.0, np.linalg.eigvalsh(C)[-1]).threshold
    Z = np.zeros((len(C), 2))
    Z[0 * 4 + 1, 0] = Z[1 * 4 + 0, 1] = 1.0     # e_0 (x) e_1 and e_1 (x) e_0
    planted = C - 0.9 * threshold * Z @ Z.T
    G = from_choi(F.source, F.target, [[planted.reshape(F.tensors[0][0].shape)]])
    assert is_ucp(G).ok and is_ucp(G).cp.residual == pytest.approx(0.9 * threshold)
    corner = corner_map(G, omega).channel
    dense, cert = dense_ucp(corner), is_ucp(corner)
    assert dense.ok and cert.ok
    assert cert.cp.residual == pytest.approx(dense.cp.residual, rel=1e-6)
    path = tmp_path / "negative.json"
    path.write_text(canonical_dumps({
        "schema": "qbayes-problem/1", "channel": channel_to_json(G), "state": state_to_json(omega),
        "analyses": ["ac"],
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", str(path)]) == 0


def _constructed_maps(path):
    """Every corner map, inverse and recovery a check builds for the problem."""
    problem = problem_from_json(loads(path.read_text()))
    F, h, omega = problem["channel"], problem["hom"], problem["state"]
    built = {}
    cm = corner_map(F, omega)
    if cm.channel is not F:
        built["corner"] = cm.channel
    exists, inverse, _, _ = bayes_inverse(F, omega)
    if exists:
        built["inverse"] = inverse
    if h is not None:
        result = disintegrate(h, omega)
        if result.exists:
            built["recovery"] = result.recovery
    return built


@pytest.fixture(scope="module")
def ladder_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ladder")
    for dims, kind, seed in LADDER:
        argv = ["random", "--dims", dims, "--kind", kind, "--seed", str(seed),
                "--out", str(root / f"{dims.replace('->', '_')}-{kind}.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return root


def _assert_certified(built):
    for name, M in built.items():
        assert M.kraus is not None, name
        dense, cert = dense_ucp(M), is_ucp(M)
        assert dense.ok and cert.ok, name
        assert cert.cp.residual <= dense.cp.threshold


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_constructed_maps_of_the_fixtures_are_certified(fixture):
    _assert_certified(_constructed_maps(fixture))


@pytest.mark.parametrize("dims, kind, seed", LADDER, ids=[f"{d}-{k}" for d, k, _ in LADDER])
def test_constructed_maps_of_the_ladder_are_certified(ladder_dir, dims, kind, seed):
    built = _constructed_maps(ladder_dir / f"{dims.replace('->', '_')}-{kind}.json")
    if kind != "nonproduct":
        assert {"inverse", "recovery"} <= set(built)
    _assert_certified(built)
