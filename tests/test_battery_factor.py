"""The Bayes data read from the Kraus factor against the dense references.

`bayesinv.battery` builds each tensor of its seven conditions as one rank-r
product of operator stacks of F's signed factor and reads the CP floor (vii)
from a compression of side at most 2r; `oracles.dense_battery` reads the
same conditions from F's block tensors by einsum and the floor from a dense
eigendecomposition. `left_right_bayes` builds G^L and G^R, and `existence`
its corner blocks A and forced rows B, as products of the same stacks;
`oracles.dense_bayes_maps` reads them from the dense adjoint by einsum and
`oracles.dense_extension` pseudo-inverts each dense A. On every instance
both give the same seven verdicts, and each residual, each tensor of G^L and
G^R, and, where the battery passes, each compressed mass, A and B (the
corners of the inverse's Choi blocks) and each inverse tensor agree within
1e-12 of the battery's scale. The instances: multi-block homs with
zero-multiplicity pairs, Kraus channels under rank-deficient states with
zero-weight blocks, `choi` rewrites of the rank-deficient product example
and of M_2 -> M_4 under a rank-1 source state with negative directions
planted at -0.9 x the PSD threshold, whose factor subtracts, and `choi`
rewrites of multi-block homs with null directions planted at +0.9 x the
rank cutoff, which the factor lists and `existence` re-spans beside the
operators it keeps. On the last the masses and the inverse agree within
eps_rank of the scale only, as the dense pseudoinverse may keep a planted
direction that the kept operators' C^+ leaves out. Where the battery's
verdicts split and it raises, the dense verdicts split the same way.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbayes.algebra import HomSpec, MultiMatrixAlgebra
from qbayes.bayesinv import BATTERY_CONDITIONS, battery, existence, left_right_bayes
from qbayes.channel import _factor, from_hom, kraus_factor
from qbayes.errors import InternalInconsistency
from qbayes.generators import (
    inclusion_hom,
    product_state_for_hom,
    random_kraus_channel,
    random_state,
)
from qbayes.linalg import DEFAULT_TOL
from qbayes.modular import ac_condition_algebraic
from qbayes.state import support

from instances import rankdef_product_instance, with_small_directions
from oracles import dense_battery, dense_bayes_maps, dense_extension

REL = 1e-12


def _agree(F, omega, extension_rel=REL):
    """The factor battery and the dense one agree on F and omega, and so do
    the Bayes data (`_bayes_data_agree`), the masses and the inverse within
    extension_rel of the scale. Where the battery's verdicts split, it
    raises, and the dense verdicts must split the same way: the alarm names
    each verdict and its residual to 3 digits."""
    tol = DEFAULT_TOL
    try:
        analysis = battery(F, omega, tol)
    except InternalInconsistency as alarm:
        analysis = None
        split = re.findall(r"(\w+): ok=(True|False) residual=", str(alarm))
        assert [name for name, _ in split] == list(BATTERY_CONDITIONS)
    res, scale = dense_battery(F, omega, tol)
    low_res, radius = res.pop("right_map_cp")
    verdicts = {name: tol.close(value, scale) for name, value in res.items()}
    verdicts["right_map_cp"] = tol.psd(0.0 - low_res, radius)
    ac = ac_condition_algebraic(F, omega, tol)
    if verdicts["off_support_vanishing"].ok and not ac.ok:
        verdicts["off_support_vanishing"] = ac.verdict
    if analysis is None:
        assert {name: ok == "True" for name, ok in split} == {
            name: verdicts[name].ok for name in BATTERY_CONDITIONS
        }
        return
    for name in BATTERY_CONDITIONS:
        got = analysis.conditions[name]
        assert got.ok == verdicts[name].ok, name
        assert abs(got.residual - verdicts[name].residual) <= REL * scale, name
    _bayes_data_agree(analysis, REL * scale, extension_rel * scale)


def _close(got, want, atol, what):
    for row, row_ref in zip(got, want, strict=True):
        for T, T_ref in zip(row, row_ref, strict=True):
            np.testing.assert_allclose(T, T_ref, rtol=0.0, atol=atol, err_msg=what)


def _bayes_data_agree(analysis, atol, extension_atol):
    """G^L and G^R of `left_right_bayes` and, where the battery passes, the
    corner blocks A and the forced rows B of `existence` agree with the
    dense-adjoint references within atol, its compressed masses and its
    inverse within extension_atol."""
    F, omega = analysis.F, analysis.omega
    GL, GR, choi_A, choi_B = dense_bayes_maps(F, omega)
    for got, want, what in zip(left_right_bayes(F, omega), (GL, GR), ("GL", "GR")):
        _close(got.tensors, want.tensors, atol, what)
    if not analysis.passed:
        return
    result = existence(analysis)
    trace_blocks, tensors = dense_extension(F, omega, choi_A, choi_B)
    assert result.trace_blocks.keys() == trace_blocks.keys()
    for y, M in trace_blocks.items():
        np.testing.assert_allclose(result.trace_blocks[y], M, rtol=0.0, atol=extension_atol)
    if result.inverse is None:
        return
    _close(result.inverse.tensors, tensors, extension_atol, "inverse")
    # A and B are the (P, P) and (P, 1 - P) corners of each Choi block of the
    # inverse, P = 1 (x) P_xi; B* A-hat B and the spread live in (1 - P, 1 - P)
    P_xi = support(analysis.xi).projection.blocks
    for (x, y), A in choi_A.items():
        if analysis.xi.weights[y] <= 0.0:
            continue
        m, n = F.target.block_dims[x], F.source.block_dims[y]
        C = result.inverse.choi_block(y, x)
        P = np.kron(np.eye(m), P_xi[y])
        np.testing.assert_allclose(P @ C @ P, A, rtol=0.0, atol=atol, err_msg="A")
        np.testing.assert_allclose(P @ C @ (np.eye(m * n) - P), choi_B[(x, y)],
                                   rtol=0.0, atol=atol, err_msg="B")


homs = st.tuples(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 2), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=1, max_size=2),
    st.lists(st.integers(1, 2), min_size=3, max_size=3),
    st.booleans(),
)


def _hom_instance(args):
    """A multi-block hom with a zero-multiplicity pair and a state on its
    target: a product state of source ranks `ranks` passes the battery, a
    random state of target ranks `ranks` mostly fails it."""
    seed, source, rows, ranks, product_state = args
    mult = tuple(tuple(row[: len(source)]) for row in rows)
    assume(all(sum(row) for row in mult) and any(0 in row for row in mult))
    target = tuple(sum(c * n for c, n in zip(row, source)) for row in mult)
    h = HomSpec(MultiMatrixAlgebra(tuple(source)), MultiMatrixAlgebra(target), mult)
    rng = np.random.default_rng(seed)
    if product_state:
        return h, product_state_for_hom(rng, h, sigma_ranks=ranks[: len(source)])
    return h, random_state(rng, h.target, ranks=ranks[: len(target)])


@settings(max_examples=40, deadline=None)
@given(homs)
def test_factor_battery_matches_dense_on_multiblock_homs(args):
    h, omega = _hom_instance(args)
    _agree(from_hom(h), omega)


kraus_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 3), min_size=1, max_size=2),
    # per target block: its dimension, the state's rank on it, a zero weight
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.booleans()), min_size=1, max_size=3
    ),
)


@settings(max_examples=40, deadline=None)
@given(kraus_cases)
def test_factor_battery_matches_dense_on_kraus_channels(args):
    seed, source, blocks = args
    dims, ranks, zero = zip(*blocks)
    zero_blocks = [x for x, z in enumerate(zero) if z]
    assume(len(zero_blocks) < len(blocks))
    rng = np.random.default_rng(seed)
    n_kraus = max(2, -(-max(dims) // sum(source)))   # enough for a unital channel
    source, target = MultiMatrixAlgebra(tuple(source)), MultiMatrixAlgebra(dims)
    F = random_kraus_channel(rng, source, target, n_kraus)
    _agree(F, random_state(rng, F.target, ranks=ranks, zero_blocks=zero_blocks))


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 6))
def test_factor_battery_matches_dense_on_a_signed_factor(count):
    # from three planted directions on, right_map_cp fails alone on both
    # routes and the battery raises: the floor of Ad_P o G^R scales the
    # accepted negative directions by sigma-hat and rho
    h, omega = rankdef_product_instance()
    G = with_small_directions(from_hom(h), -0.9, count)
    negative = _factor(G, DEFAULT_TOL)[1]
    assert len(negative[0][0]) == count
    _agree(G, omega)


@settings(max_examples=30, deadline=None)
@given(homs, st.integers(1, 4))
def test_factor_bayes_data_match_dense_on_planted_null_directions(args, count):
    # at +0.9 x the rank cutoff the factor lists the planted directions and
    # `kraus_factor` leaves them out, so `existence` re-spans them beside the
    # operators it keeps; product states, so that the battery mostly passes
    # and `existence` runs. Its C^+ is that of the kept operators, while the
    # dense pseudoinverse may keep a planted direction: the masses and the
    # inverse agree within eps_rank of the scale (6.6e-11 seen over 180
    # passing draws, the same at the parent), A and B within 1e-12
    h, omega = _hom_instance(args[:-1] + (True,))
    G = with_small_directions(from_hom(h), 0.9, count)
    full, kept = _factor(G, DEFAULT_TOL)[0], kraus_factor(G)
    assume(any(len(K) > len(k) for row, krow in zip(full, kept) for K, k in zip(row, krow)))
    _agree(G, omega, DEFAULT_TOL.eps_rank)


@pytest.mark.parametrize("count", [1, 2])
def test_factor_bayes_data_match_dense_with_negative_directions_in_the_forced_rows(count):
    # a source state of rank 1 on M_2 -> M_4, so that the forced rows B do not
    # vanish, with directions planted at -0.9 x the PSD threshold: the factor
    # subtracts them, and their sign moves B by 5.5e-10 (one) and 9.8e-10
    # (two), far beyond the 1e-12 at which B is compared
    h = inclusion_hom(2, 2)
    omega = product_state_for_hom(np.random.default_rng(0), h, sigma_ranks=(1,))
    G = with_small_directions(from_hom(h), -0.9, count)
    assert len(_factor(G, DEFAULT_TOL)[1][0][0]) == count
    assert battery(G, omega).passed
    _agree(G, omega)
