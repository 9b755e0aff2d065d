"""The battery read from the Kraus factor against the dense battery.

`bayesinv.battery` builds each tensor of its seven conditions as one rank-r
product of operator stacks of F's signed factor and reads the CP floor (vii)
from a compression of side at most 2r; `oracles.dense_battery` reads the
same conditions from F's block tensors by einsum and the floor from a dense
eigendecomposition. On every instance both give the same seven verdicts, and
each residual and corner Choi block agrees within 1e-12 of the battery's
scale. The instances: multi-block homs with zero-multiplicity pairs, Kraus
channels under rank-deficient states with zero-weight blocks, and the
`choi` rewrite of the rank-deficient product example with negative
directions planted at -0.9 x the PSD threshold, whose factor subtracts.
Where the battery's verdicts split and it raises, the dense verdicts split
the same way.
"""

import re

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbayes.algebra import HomSpec, MultiMatrixAlgebra
from qbayes.bayesinv import BATTERY_CONDITIONS, battery
from qbayes.channel import _factor, from_hom
from qbayes.errors import InternalInconsistency
from qbayes.generators import product_state_for_hom, random_kraus_channel, random_state
from qbayes.linalg import DEFAULT_TOL
from qbayes.modular import ac_condition_algebraic

from instances import rankdef_product_instance, with_small_directions
from oracles import dense_battery

REL = 1e-12


def _agree(F, omega):
    """The factor battery and the dense one agree on F and omega. Where the
    battery's verdicts split, it raises, and the dense verdicts must split
    the same way: the alarm names each verdict and its residual to 3 digits."""
    tol = DEFAULT_TOL
    try:
        analysis = battery(F, omega, tol)
    except InternalInconsistency as alarm:
        analysis = None
        split = re.findall(r"(\w+): ok=(True|False) residual=", str(alarm))
        assert [name for name, _ in split] == list(BATTERY_CONDITIONS)
    res, scale, choi_A = dense_battery(F, omega, tol)
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
    for key, A in choi_A.items():
        np.testing.assert_allclose(analysis.choi_A[key], A, rtol=0.0, atol=REL * scale)


homs = st.tuples(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 2), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=1, max_size=2),
    st.lists(st.integers(1, 2), min_size=3, max_size=3),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(homs)
def test_factor_battery_matches_dense_on_multiblock_homs(args):
    # a product state of source ranks `ranks` passes the battery, a random
    # state of target ranks `ranks` mostly fails it
    seed, source, rows, ranks, product_state = args
    mult = tuple(tuple(row[: len(source)]) for row in rows)
    assume(all(sum(row) for row in mult) and any(0 in row for row in mult))
    target = tuple(sum(c * n for c, n in zip(row, source)) for row in mult)
    h = HomSpec(MultiMatrixAlgebra(tuple(source)), MultiMatrixAlgebra(target), mult)
    rng = np.random.default_rng(seed)
    if product_state:
        omega = product_state_for_hom(rng, h, sigma_ranks=ranks[: len(source)])
    else:
        omega = random_state(rng, h.target, ranks=ranks[: len(target)])
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
