"""The Kadison-Schwarz multiplicativity tests against the pair loops.

`ae_deterministic` and test (a) of `takesaki_battery` decide
multiplicativity with one residual per matrix unit. Each verdict here is
compared with the reference loop over pairs of units in `pair_loops`.
"""

import numpy as np
import pytest

from qbayes.algebra import MultiMatrixAlgebra
from qbayes.bayesinv import battery
from qbayes.channel import Channel, LinearMap, ae_deterministic, from_hom, from_kraus
from qbayes.disint import bayes_disint_bridge, condexp_characterize, factorize, takesaki_battery
from qbayes.errors import InternalInconsistency
from qbayes.generators import (
    product_state_for_hom,
    random_complex,
    random_density,
    random_hom,
    random_kraus_channel,
    random_state,
)
from qbayes.jsonio import loads, problem_from_json
from qbayes.linalg import dagger
from qbayes.modular import corner_map
from qbayes.state import State, state_from_weighted

from conftest import FIXTURES, HOM_CASES, INSTANCE_CASES
from instances import nonsubalgebra_deterministic_instance
from pair_loops import ae_deterministic_pairs, corner_hom_pairs

FIXTURE_NAMES = sorted(path.name for path in FIXTURES.glob("*.json"))


def assert_deterministic_matches(F, omega):
    assert ae_deterministic(F, omega) == ae_deterministic_pairs(F, omega)[0]


def assert_corner_hom_matches(h, omega):
    rep = takesaki_battery(h, omega)
    assert rep.multiplicative.ok == corner_hom_pairs(corner_map(from_hom(h), omega).channel)[0]


@pytest.mark.parametrize("case", INSTANCE_CASES.values(), ids=INSTANCE_CASES.keys())
def test_ae_deterministic_matches_pair_loop(case):
    assert_deterministic_matches(*case())


@pytest.mark.parametrize("case", HOM_CASES.values(), ids=HOM_CASES.keys())
def test_corner_hom_matches_pair_loop(case):
    assert_corner_hom_matches(*case())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_verdicts_match_pair_loops(name):
    problem = problem_from_json(loads((FIXTURES / name).read_text()))
    assert_deterministic_matches(problem["channel"], problem["state"])
    if problem["hom"] is not None:
        assert_corner_hom_matches(problem["hom"], problem["state"])


def _kraus_on_support(rng, n, m_extra, rank):
    """M_n -> M_{n + m_extra}, B |-> B (+) phi(B) with phi a random UCP map,
    and a state of the given rank on the first n rows: a.e. deterministic."""
    G = [random_complex(rng, m_extra, n) for _ in range(2)]
    w, U = np.linalg.eigh(sum(g @ dagger(g) for g in G))
    root = (U / np.sqrt(w)) @ dagger(U)  # (sum_k G_k G_k^*)^(-1/2), so phi is unital
    kraus = [np.eye(n + m_extra, n)] + [np.vstack([np.zeros((n, n)), root @ g]) for g in G]
    F = from_kraus(MultiMatrixAlgebra((n,)), MultiMatrixAlgebra((n + m_extra,)), [[kraus]])
    rho = np.zeros((n + m_extra, n + m_extra), dtype=complex)
    rho[:n, :n] = random_density(rng, n, rank)
    return F, State(F.target, (1.0,), (rho,))


@pytest.mark.parametrize("seed", range(20))
def test_kraus_rank_deficient_verdicts_match_pair_loop(seed):
    rng = np.random.default_rng(700 + seed)
    if seed % 2 == 0:
        F, omega = _kraus_on_support(rng, 2 + seed % 3, 2, 1 + seed % 2)
        assert ae_deterministic(F, omega)
    else:
        source = MultiMatrixAlgebra((2, 1))
        target = MultiMatrixAlgebra((3, 2))
        F = random_kraus_channel(rng, source, target, 1 + seed % 3)
        omega = random_state(rng, target, ranks=(1 + seed % 2, 1))
    assert_deterministic_matches(F, omega)


def test_depolarizing_and_nonsubalgebra_match_pair_loop():
    alg = MultiMatrixAlgebra((2,))
    lm = LinearMap.from_block_fn(
        alg, alg, lambda x, y, E: 0.5 * E + 0.5 * np.trace(E) * np.eye(2) / 2
    )
    D = Channel(alg, alg, lm.tensors)
    pure = State(alg, (1.0,), (np.diag([1.0, 0.0]),))
    for omega in (pure, random_state(np.random.default_rng(11), alg)):
        assert not ae_deterministic(D, omega)
        assert_deterministic_matches(D, omega)

    F, pure = nonsubalgebra_deterministic_instance()
    faithful = State(F.target, (1.0,), (np.eye(4) / 4,))
    assert ae_deterministic(F, pure) and not ae_deterministic(F, faithful)
    assert_deterministic_matches(F, pure)
    assert_deterministic_matches(F, faithful)


def noisy_product_instance(seed):
    """A product state for a random hom, mixed with noise 10**U(-10, -6)."""
    rng = np.random.default_rng(seed)
    src = [int(n) for n in rng.integers(1, 4, size=int(rng.integers(1, 3)))]
    h = random_hom(rng, src)
    omega = product_state_for_hom(rng, h)
    noise = 10 ** rng.uniform(-10, -6)
    weighted = [
        (1 - noise) * omega.weighted_density(x)
        + noise * omega.weights[x] * random_density(rng, m)
        for x, m in enumerate(h.target.block_dims)
    ]
    return h, state_from_weighted(h.target, weighted)


def rotated_product_instance(seed):
    """A product state with rank-1 multiplicity factors, so its support
    commutes with the hom, rotated by exp(i theta H) with theta = 10**U(-6, -2)."""
    rng = np.random.default_rng(seed)
    src = [int(n) for n in rng.integers(1, 4, size=int(rng.integers(1, 3)))]
    h = random_hom(rng, src)
    tau_ranks = {(i, j): 1 for i in range(h.target.n_blocks) for j in range(h.source.n_blocks)}
    omega = product_state_for_hom(rng, h, tau_ranks=tau_ranks)
    theta = 10 ** rng.uniform(-6, -2)
    weighted = []
    for x, m in enumerate(h.target.block_dims):
        G = random_complex(rng, m, m)
        w, U = np.linalg.eigh((G + dagger(G)) / 2)
        U = (U * np.exp(1j * theta * w)) @ dagger(U)
        weighted.append(U @ omega.weighted_density(x) @ dagger(U))
    return h, state_from_weighted(h.target, weighted)


# Noisy product states are faithful, so on them (a) and determinism are exact
# and every residual is 0; the pins are the first passing seeds at the
# smallest determinism threshold. On rotated supports the residuals straddle
# their thresholds: on these seeds the (a) or corner determinism residual lies
# within a factor of 4 of its threshold, on both sides.
NEAR_THRESHOLD = [(noisy_product_instance, s) for s in (5000, 5004, 5005, 5006)] + [
    (rotated_product_instance, s) for s in (4, 32, 39, 66, 96, 153, 193)
]


@pytest.mark.parametrize(
    "family, seed", NEAR_THRESHOLD, ids=[f"{f.__name__}-{s}" for f, s in NEAR_THRESHOLD]
)
def test_near_threshold_verdicts_match_pair_loops(family, seed):
    h, omega = family(seed)
    rep = takesaki_battery(h, omega)
    cm = corner_map(from_hom(h), omega)
    assert rep.multiplicative.ok == corner_hom_pairs(cm.channel)[0]
    corner_det = ae_deterministic_pairs(cm.channel, cm.omega_restricted)[0]
    assert rep.corner_disintegration == (
        battery(cm.channel, cm.omega_restricted).passed and corner_det
    )
    bridge = bayes_disint_bridge(h, omega)
    assert bridge.deterministic == ae_deterministic_pairs(from_hom(h), omega)[0]


@pytest.mark.parametrize("seed", [s for f, s in NEAR_THRESHOLD if f is rotated_product_instance])
def test_corner_hom_and_corner_det_share_one_threshold(seed):
    # (a) reads the defect C(E*E) - C(E)*C(E) of the corner map C from the
    # hom, corner_det from C itself; on seeds 32, 39 and 153 the defect lies
    # between eps max_x ||C_x(E)||^2 and eps sum_x ||C_x(E)||^2
    h, omega = rotated_product_instance(seed)
    cm = corner_map(from_hom(h), omega)
    corner_det = ae_deterministic(cm.channel, cm.omega_restricted)
    assert takesaki_battery(h, omega).multiplicative.ok == corner_det


def test_condexp_alarms_on_noise_seed_5055():
    # the one disagreement between condexp and factorize on noise seeds
    # 5000-5199 and rotated seeds 0-199: the certificate's reconstruction
    # passes at 9.92e-9 against 1e-8 while condexp's sigma_match fails at
    # 1.253e-7 against 1e-7, a near-threshold finding that is kept, not tuned
    h, omega = noisy_product_instance(5055)
    cert = factorize(h, omega)
    assert cert.ok and 9.9e-9 < cert.verdicts["reconstruction"].residual < 1e-8
    with pytest.raises(InternalInconsistency, match=r"\(False; failing: sigma_match 1\.253e-07"):
        condexp_characterize(h, omega)
