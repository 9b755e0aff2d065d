"""The off-support extension pseudo-inverts only Kraus-rank compressions.

`bayesinv.existence` reads the range of each corner Choi block A from the
Kraus factor of the map: with F_xy = sum_s K_s . K_s*, A = sum_s u_s w_s^T,
so A's range lies in the span of the r vectors u_s, r the pair's Kraus rank.
Every matrix the extension pseudo-inverts (through `support_eigen`, whose
eigenpairs also give the inverse's Kraus factor) is the r x r compression of
A onto that span, never the (m n) x (m n) block itself. The factor costs no
eigendecomposition: a map built in Kraus form (a hom among them) keeps its
operators, and a channel read from Choi blocks gets them from the one
decomposition per block that parsing runs to read its factor. Every map's
UCP verdict is certified from its factor, and the battery's CP floor (vii)
reads each Choi block of Ad_P o G^R from a compression of side at most 2r,
so past the parse no route decomposes a Choi block.
"""

import contextlib
import io
import sys
from collections import Counter

import numpy as np
import pytest

import qbayes.bayesinv
import qbayes.channel
import qbayes.linalg
from qbayes.bayesinv import battery
from qbayes.channel import _factor, kraus_factor
from qbayes.cli import main
from qbayes.jsonio import loads, problem_from_json
from qbayes.linalg import DEFAULT_TOL
from qbayes.state import pullback

from conftest import FIXTURES
from derivations import BUILDERS, eigendecompositions, recording

# eigendecompositions of one full `check` (hermitian_eigen, _compressed_eigvalsh
# and the blocks of the parse's _choi_factor together): the densities' supports,
# the extension's compressions, a Choi-given channel's parse and the battery's CP
# floor (vii), one compression per pair where the dense floor decomposed the
# pair's Choi block, so the counts did not move. No Choi block of a corner
# map, inverse or recovery is decomposed, as `is_ucp` certifies each from its
# Kraus factor; when the dense route still judged them, the counts were
# higher by the corner map's blocks (1 each; 4 for multiblock_product), the
# inverse's (1 for nonsubalgebra_pure, 1 for product and rankdef_product, 4
# for multiblock_product) and the recovery's (1 for product and
# rankdef_product, 4 for multiblock_product)
DENSE_ROUTE_EIGENDECOMPOSITIONS = {
    "battery_pass_no_inverse": 7,
    "epr": 7,
    "multiblock_product": 12,
    "nonproduct_m4": 3,
    "nonsubalgebra_pure": 7,
    "product": 4,
    "rankdef_product": 8,
}
EIGEN = ("linalg.hermitian_eigen", "channel._compressed_eigvalsh", "channel._choi_factor")
# records the function that calls _compressed_eigvalsh and the shape of its Z:
# frame 0 is this key and frame 1 the wrapper that `recording` puts in its place
FLOOR = (
    qbayes.channel, "_compressed_eigvalsh",
    lambda Z, J: (sys._getframe(2).f_code.co_name, np.shape(Z)),
)
FIXTURE_FILES = sorted(FIXTURES.glob("*.json"))


def _check(fixture, targets):
    with recording(targets) as seen, contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", str(fixture)]) == 0
    return seen


@pytest.mark.parametrize("fixture", FIXTURE_FILES, ids=lambda p: p.stem)
def test_existence_pseudo_inverts_only_kraus_rank_compressions(fixture):
    seen = _check(fixture, {"pinv": (qbayes.linalg, "support_eigen", lambda M, *tol: np.shape(M))})
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
    factor_blocks = sum(len(blocks) for blocks in seen["channel._choi_factor"])
    count = sum(len(seen[label]) for label in EIGEN[:2]) + factor_blocks
    assert count == DENSE_ROUTE_EIGENDECOMPOSITIONS[fixture.stem]
    # a Choi-given channel is decomposed once per Choi block, at parse
    data = loads(fixture.read_text())
    if data["channel"]["kind"] == "choi":
        F = problem_from_json(data)["channel"]
        blocks = [(n * m, n * m) for m in F.target.block_dims for n in F.source.block_dims]
        assert seen["channel._choi_factor"] == [blocks]
    else:
        assert seen["channel._choi_factor"] == []


@pytest.mark.parametrize("fixture", FIXTURE_FILES, ids=lambda p: p.stem)
def test_only_the_battery_floor_eigendecomposes_a_choi_block(fixture):
    # the battery's CP floor (vii) reads each pair's Choi block from its
    # compression, Z of shape (m n, 2r) with r the pair's operator count, one
    # per pair of every battery run; past the parse, which reads a Choi-given
    # channel's factor, no route decomposes a matrix of side m n where 2r < m n
    battery_runs = (qbayes.bayesinv, "_battery", lambda F, omega, tol: F)
    with eigendecompositions() as sides:
        seen = _check(fixture, {"floor": FLOOR, "battery": battery_runs})
    floors = [shape for caller, shape in seen["floor"] if caller == "_battery"]
    assert len(floors) == sum(F.target.n_blocks * F.source.n_blocks for F in seen["battery"])
    F = problem_from_json(loads(fixture.read_text()))["channel"]
    kraus, negative = _factor(F, DEFAULT_TOL)
    shapes = [
        (m * n, 2 * (len(kraus[x][y]) + (0 if negative is None else len(negative[x][y]))))
        for x, m in enumerate(F.target.block_dims) for y, n in enumerate(F.source.block_dims)
    ]
    assert not Counter(shapes) - Counter(floors)
    wide = {mn for mn, width in shapes if width < mn}
    assert not [(caller, side) for caller, side in sides
                if side in wide and caller != "_choi_factor"]
