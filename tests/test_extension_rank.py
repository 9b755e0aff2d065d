"""The off-support extension pseudo-inverts only Kraus-rank compressions.

`bayesinv.existence` reads the range of each corner Choi block A from the
Kraus factor of the map: with F_xy = sum_s K_s . K_s*, A = sum_s u_s w_s^T,
so A's range lies in the span of the r vectors u_s, r the pair's Kraus rank.
Every matrix the extension hands to `pseudoinverse` is the r x r compression
of A onto that span, never the (m n) x (m n) block itself. The factor costs
no eigendecomposition: a map built in Kraus form (a hom among them) keeps
its operators, and a channel read from Choi blocks gets them from the one
decomposition per block that parsing runs anyway, which also gives the UCP
verdict in place of `is_ucp`'s `hermitian_floor`.
"""

import contextlib
import io

import numpy as np
import pytest

import qbayes.linalg
from qbayes.bayesinv import battery
from qbayes.channel import kraus_factor
from qbayes.cli import main
from qbayes.jsonio import loads, problem_from_json
from qbayes.state import pullback

from conftest import FIXTURES
from derivations import BUILDERS, recording

# eigendecompositions of one full `check` (hermitian_eigen, hermitian_floor
# and the parse's _choi_eigen together), as counted when the extension still
# pseudo-inverted each dense Choi block, less one Choi block of each map that
# was judged UCP twice: the corner channel of epr and rankdef_product (built,
# then its own corner in takesaki's corner battery) and the inverse of
# nonsubalgebra_pure (verify_bayes, then the bridge)
DENSE_ROUTE_EIGENDECOMPOSITIONS = {
    "battery_pass_no_inverse": 8,
    "epr": 8,
    "multiblock_product": 24,
    "nonproduct_m4": 4,
    "nonsubalgebra_pure": 9,
    "product": 7,
    "rankdef_product": 11,
}
EIGEN = ("linalg.hermitian_eigen", "linalg.hermitian_floor", "channel._choi_eigen")
FIXTURE_FILES = sorted(FIXTURES.glob("*.json"))


def _check(fixture, targets):
    with recording(targets) as seen, contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", str(fixture)]) == 0
    return seen


@pytest.mark.parametrize("fixture", FIXTURE_FILES, ids=lambda p: p.stem)
def test_existence_pseudo_inverts_only_kraus_rank_compressions(fixture):
    seen = _check(fixture, {"pinv": (qbayes.linalg, "pseudoinverse", lambda M, *tol: np.shape(M))})
    problem = problem_from_json(loads(fixture.read_text()))
    F, omega = problem["channel"], problem["state"]
    kraus = kraus_factor(F)
    xi = pullback(omega, F)
    # one compression per block pair with a weighted source block, in the
    # extension's order, each of side min(r, m n)
    expected = []
    if battery(F, omega).passed:
        expected = [
            (min(len(kraus[x][y]), m * n),) * 2
            for y, n in enumerate(F.source.block_dims) if xi.weights[y] > 0.0
            for x, m in enumerate(F.target.block_dims)
        ]
    assert seen["pinv"] == expected
    for x, m in enumerate(F.target.block_dims):
        for y, n in enumerate(F.source.block_dims):
            assert kraus[x][y].shape[1:] == (m, n)


@pytest.mark.parametrize("fixture", FIXTURE_FILES, ids=lambda p: p.stem)
def test_the_kraus_factor_adds_no_eigendecomposition(fixture):
    seen = _check(fixture, {label: BUILDERS[label] for label in EIGEN})
    assert sum(len(seen[label]) for label in EIGEN) == DENSE_ROUTE_EIGENDECOMPOSITIONS[fixture.stem]
    # a Choi-given channel is decomposed once per Choi block, at parse
    data = loads(fixture.read_text())
    if data["channel"]["kind"] == "choi":
        F = problem_from_json(data)["channel"]
        blocks = [(n * m, n * m) for m in F.target.block_dims for n in F.source.block_dims]
        assert seen["channel._choi_eigen"] == blocks
    else:
        assert seen["channel._choi_eigen"] == []
