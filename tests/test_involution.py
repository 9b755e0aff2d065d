"""Bayesian inversion is an involution.

The defining identity xi(G(A) B) = omega(A F(B)) is symmetric: if G is a
Bayesian inverse of (F, omega), then G carries xi = omega o F back to omega
and F is a Bayesian inverse of (G, xi). Inverses are unique almost
everywhere, so inverting G again gives a map a.e. equal to F. This runs the
whole pipeline a second time on a constructed map: G carries the Schur
completion as its factor, with a co-support spread and, for a Choi-given F,
operators that it subtracts. G's corner must also pass the algebraic AC
test for xi. The instances: the fixtures that have an inverse, inclusion
ladders n -> k n under product and rank-deficient product states (as
`qbayes random --kind product` and `--kind rankdef` build them), and
multi-block homs under product states. The module runs in about 2 s.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbayes.algebra import HomSpec, MultiMatrixAlgebra
from qbayes.bayesinv import bayes_inverse, verify_bayes
from qbayes.channel import ae_equal, from_hom
from qbayes.generators import inclusion_hom, product_state_for_hom
from qbayes.jsonio import loads, problem_from_json
from qbayes.modular import ac_condition_algebraic

from conftest import FIXTURES


def _assert_involution(F, omega):
    ok, G, analysis, _ = bayes_inverse(F, omega)
    assert ok
    xi = analysis.xi
    again, F2, _, _ = bayes_inverse(G, xi)
    assert again
    assert ae_equal(F2, F, omega)
    assert verify_bayes(G, F, xi).ok
    assert ac_condition_algebraic(G, xi).ok


@pytest.mark.parametrize(
    "fixture", ["multiblock_product", "nonsubalgebra_pure", "product", "rankdef_product"]
)
def test_inverting_a_fixture_inverse_gives_the_map_back(fixture):
    problem = problem_from_json(loads((FIXTURES / f"{fixture}.json").read_text()))
    _assert_involution(problem["channel"], problem["state"])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 3), st.sampled_from(["product", "rankdef"])
)
def test_inverting_a_ladder_inverse_gives_the_map_back(seed, n, k, kind):
    h = inclusion_hom(k, n)
    rng = np.random.default_rng(seed)
    if kind == "product":
        omega = product_state_for_hom(rng, h)
    else:
        omega = product_state_for_hom(
            rng, h, tau_ranks={(0, 0): max(1, k - 1)}, sigma_ranks=[max(1, n - 1)]
        )
    _assert_involution(from_hom(h), omega)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 2), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=1, max_size=2),
    st.lists(st.integers(1, 2), min_size=3, max_size=3),
)
def test_inverting_a_multiblock_inverse_gives_the_map_back(seed, source, rows, ranks):
    mult = tuple(tuple(row[: len(source)]) for row in rows)
    assume(all(sum(row) for row in mult))
    target = tuple(sum(c * n for c, n in zip(row, source)) for row in mult)
    h = HomSpec(MultiMatrixAlgebra(tuple(source)), MultiMatrixAlgebra(target), mult)
    omega = product_state_for_hom(np.random.default_rng(seed), h, sigma_ranks=ranks[: len(source)])
    F = from_hom(h)
    assume(bayes_inverse(F, omega)[0])
    _assert_involution(F, omega)
