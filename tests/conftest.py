import pathlib

import numpy as np
import pytest

from qbayes.algebra import HomSpec, MultiMatrixAlgebra
from qbayes.channel import from_hom
from qbayes.generators import (
    inclusion_hom,
    product_state_for_hom,
    random_kraus_channel,
    random_state,
)
from qbayes.state import State

from instances import epr_instance, nonproduct_faithful_instance

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


def _multiblock_hom():
    return HomSpec(MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((3, 2)), ((1, 1), (1, 0)))


def _multiblock_instance(zero_blocks=()):
    rng = np.random.default_rng(20)
    h = _multiblock_hom()
    return h, random_state(rng, h.target, zero_blocks=zero_blocks)


def _multiblock_product_instance():
    # passes the battery and has an inverse; the source state has rank 1 in
    # its 2-dimensional block
    h = _multiblock_hom()
    return h, product_state_for_hom(np.random.default_rng(23), h, sigma_ranks=[1, 1])


def _rankdef_source_instance():
    # the pulled-back state has rank 1: both corner isometries are complex
    h = inclusion_hom(2, 3)
    return h, product_state_for_hom(np.random.default_rng(22), h, sigma_ranks=[1])


def _rankdef_kraus_instance():
    rng = np.random.default_rng(21)
    F = random_kraus_channel(rng, MultiMatrixAlgebra((2, 2)), MultiMatrixAlgebra((4, 3)), 2)
    return F, random_state(rng, F.target, ranks=(2, 1))


def two_cutoff_instance():
    """The identity hom on M_2 + M_2 at weights (1 - 1e-3, 1e-3): the weighted
    eigenvalue 1e-10 of block 1 lies below the global rank cutoff (about
    6e-10) and above the block's own (about 1e-12)."""
    alg = MultiMatrixAlgebra((2, 2))
    omega = State(alg, (1 - 1e-3, 1e-3), (np.diag([0.6, 0.4]), np.diag([1 - 1e-7, 1e-7])))
    return HomSpec(alg, alg, ((1, 0), (0, 1))), omega


def _channel_instance(named):
    def build():
        h, omega = named()
        return from_hom(h), omega

    return build


# (hom, state) builders: one block, several blocks, rank-deficient states and
# zero weights
HOM_CASES = {
    "single-block": nonproduct_faithful_instance,
    "multi-block": _multiblock_instance,
    "multi-block-product": _multiblock_product_instance,
    "rank-deficient-hom": epr_instance,
    "rank-deficient-source": _rankdef_source_instance,
    "zero-weight": lambda: _multiblock_instance(zero_blocks=(1,)),
    "two-cutoff": two_cutoff_instance,
}

# (channel, state) builders covering the shapes that array kernels must get
# right: the hom cases as channels, plus a Kraus channel
INSTANCE_CASES = {
    **{name: _channel_instance(named) for name, named in HOM_CASES.items()},
    "rank-deficient": _rankdef_kraus_instance,
}
