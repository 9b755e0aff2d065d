"""Choi blocks are judged Hermitian only where they enter from outside.

`from_choi` splits each given Choi block into its Hermitian part once, and
that one split serves both the Hermiticity judgment and the factor read
from it. Every map the program builds itself (the hom's channel, corner
maps, inverses, recoveries, compositions) is judged by `is_ucp`'s
certificate, which dominates a Hermiticity test: PSD blocks are Hermitian,
so a certified map's ||C - C*||_F is bounded by eps_rank x lambda_max +
ABS_FLOOR, tighter than the `eps_eq` rule of `from_choi`.
"""

import contextlib
import io
import json

import numpy as np

from qbayes.bayesinv import bayes_inverse, verify_bayes
from qbayes.channel import LinearMap, from_choi, is_ucp
from qbayes.cli import main
from qbayes.jsonio import canonical_dumps, channel_to_json, loads, problem_from_json

from conftest import FIXTURES
from derivations import BUILDERS, recording

SPLITS = {"split": BUILDERS["linalg.hermitian_split"]}


def _splits(argv) -> int:
    with recording(SPLITS) as seen, contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return len(seen["split"])


def test_only_a_choi_input_is_split_once_per_block(tmp_path):
    out = str(tmp_path / "inverse.json")
    assert _splits(["check", str(FIXTURES / "product.json")]) == 0
    assert _splits(["invert", str(FIXTURES / "rankdef_product.json"), "--mode", "bayes",
                    "--out", out]) == 0
    # the same problem with its channel written in `choi` form: one Choi block
    data = json.loads((FIXTURES / "rankdef_product.json").read_text())
    data["channel"] = channel_to_json(problem_from_json(data)["channel"])
    data.pop("analyses", None)
    path = tmp_path / "rankdef_choi.json"
    path.write_text(canonical_dumps(data))
    assert _splits(["check", str(path), "--analyses", "bayes-battery,bayes-existence"]) == 1
    assert _splits(["invert", str(path), "--mode", "bayes", "--out", out]) == 1


def test_the_certificate_refuses_what_the_hermiticity_rule_lets_pass():
    # an anti-Hermitian perturbation 5e-9 (e_01 - e_10) of the Choi block of
    # rankdef_product's inverse, its factor kept: ||C - C*||_F = 1.4e-8 lies
    # within `from_choi`'s eps_eq rule (2.0e-8 here), but the certificate's
    # residual, at least ||C - C*||_F / 2, exceeds its 2.0e-9
    problem = problem_from_json(loads((FIXTURES / "rankdef_product.json").read_text()))
    F, omega = problem["channel"], problem["state"]
    ok, G, _, _ = bayes_inverse(F, omega)
    assert ok and (G.source.n_blocks, G.target.n_blocks) == (1, 1)
    T = G.tensors[0][0].copy()
    C = T.reshape(len(G.choi_block(0, 0)), -1)
    C[0, 1] += 5e-9
    C[1, 0] -= 5e-9
    from_choi(G.source, G.target, [[T]])   # accepted as Hermitian
    perturbed = LinearMap(G.source, G.target, [[T]], kraus=G.kraus, negative=G.negative)
    cp = is_ucp(perturbed).cp
    assert not cp.ok and cp.residual >= np.sqrt(2) * 5e-9 > cp.threshold
    assert not verify_bayes(F, perturbed, omega).ok
