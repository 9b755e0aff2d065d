"""Problem sets of the three benchmark workloads.

`build(workload, seed, root, work)` writes the workload's problem files
under `work` and returns its pass: the ordered list of `qbayes` calls the
benchmark repeats. Each call has an `id` that does not depend on the seed,
so `expected.json` can hold one verdict table for every seed. The seed
only changes the numbers inside the instances; the shapes of every
workload are fixed, so that two seeds ask for the same amount of work.
WORKLOADS.md gives the reason for each workload.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from qbayes.algebra import MultiMatrixAlgebra
from qbayes.channel import kraus_blocks
from qbayes.cli import main
from qbayes.generators import (
    product_state_for_hom,
    random_hom,
    random_kraus_channel,
    random_state,
)

WORKLOADS = ("fixtures", "inclusion-ladder", "multiblock")
ANALYSES = (
    "ac",
    "takesaki",
    "disintegrate",
    "condexp",
    "bayes-battery",
    "bayes-existence",
    "bridge",
)
CHANNEL_ONLY_ANALYSES = ("ac", "bayes-battery", "bayes-existence", "bridge")

FIXTURES = (
    "battery_pass_no_inverse",
    "epr",
    "multiblock_product",
    "nonproduct_m4",
    "nonsubalgebra_pure",
    "product",
    "rankdef_product",
)
FIXTURE_INVERTS = (
    ("rankdef_product", "bayes"),
    ("product", "disint"),
    ("multiblock_product", "disint"),
)

LADDER_DIMS = ("2->8", "3->9", "4->8", "4->16", "6->12")
LADDER_KINDS = ("product", "rankdef", "nonproduct")
LADDER_POSITIVE = ("product", "rankdef")

# The multiblock shapes come from a generator seeded with this constant,
# not with the benchmark seed, so every seed runs the same shapes.
SHAPE_SEED = 2112
HOM_SOURCES = ((1, 2), (2, 1), (1, 1, 2), (2, 2), (1, 2, 1), (3, 1))
HOM_COUNT = 6
HOM_MAX_TARGET_DIM = 8
KRAUS_DIMS = (
    ((1, 2), (2, 3)),
    ((2, 1), (3, 2)),
    ((1, 1, 2), (2, 3)),
    ((2, 2), (3, 1, 2)),
)
KRAUS_STATES = ("faithful", "rankdef", "zeroweight")


class SetupError(RuntimeError):
    """A workload instance could not be built, or came out non-finite."""


def build(workload: str, seed: int, root: Path, work: Path) -> list[dict]:
    work.mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(exist_ok=True)
    if workload == "fixtures":
        calls = _fixtures(root, work)
    elif workload == "inclusion-ladder":
        calls = _ladder(seed, work)
    elif workload == "multiblock":
        calls = _multiblock(seed, work)
    else:
        raise SetupError(f"unknown workload '{workload}'")
    for path in sorted({c["problem"] for c in calls}):
        reject_non_finite(Path(path))
    return calls


def reject_non_finite(path: Path) -> None:
    """Refuse a problem file holding NaN or an infinity anywhere."""

    def refuse(token):
        raise SetupError(f"{path.name}: non-finite number {token} in the problem file")

    json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def _check(call_id: str, problem: Path, analyses) -> dict:
    return {
        "id": call_id,
        "problem": str(problem),
        "argv": ["check", str(problem)],
        "analyses": list(analyses),
    }


def _invert(call_id: str, problem: Path, mode: str, work: Path) -> dict:
    out = work / "out" / (call_id.replace("/", "__").replace(">", "") + ".json")
    return {
        "id": call_id,
        "problem": str(problem),
        "argv": ["invert", str(problem), "--mode", mode, "--out", str(out)],
    }


def _fixtures(root: Path, work: Path) -> list[dict]:
    calls = []
    for name in FIXTURES:
        path = root / "fixtures" / f"{name}.json"
        if not path.is_file():
            raise SetupError(f"missing fixture {path}")
        problem = json.loads(path.read_text(encoding="utf-8"))
        analyses = problem.get("analyses") or (
            ANALYSES if problem["channel"]["kind"] == "hom" else CHANNEL_ONLY_ANALYSES
        )
        calls.append(_check(f"fixtures/{name}/check", path, analyses))
    for name, mode in FIXTURE_INVERTS:
        path = root / "fixtures" / f"{name}.json"
        calls.append(_invert(f"fixtures/{name}/invert-{mode}", path, mode, work))
    return calls


def _ladder(seed: int, work: Path) -> list[dict]:
    calls = []
    for index, (dims, kind) in enumerate(
        (d, k) for d in LADDER_DIMS for k in LADDER_KINDS
    ):
        path = work / f"ladder-{dims.replace('->', '_')}-{kind}.json"
        argv = ["random", "--dims", dims, "--kind", kind,
                "--seed", str(seed * 100 + index), "--out", str(path)]
        if main(argv) != 0:
            raise SetupError(f"qbayes {' '.join(argv)} failed")
        base = f"ladder/{dims}/{kind}"
        calls.append(_check(f"{base}/check", path, ANALYSES))
        if kind in LADDER_POSITIVE:
            for mode in ("bayes", "disint"):
                calls.append(_invert(f"{base}/invert-{mode}", path, mode, work))
    return calls


def _multiblock(seed: int, work: Path) -> list[dict]:
    shapes = np.random.default_rng(SHAPE_SEED)
    rng = np.random.default_rng(seed)
    calls = []
    for index, h in enumerate(_hom_shapes(shapes)):
        state = product_state_for_hom(rng, h)
        channel = {
            "kind": "hom",
            "source": {"blocks": list(h.source.block_dims)},
            "target": {"blocks": list(h.target.block_dims)},
            "mult": [list(row) for row in h.multiplicities],
        }
        path = work / f"multiblock-hom{index}.json"
        _write_problem(path, channel, state)
        base = f"multiblock/hom{index}"
        calls.append(_check(f"{base}/check", path, ANALYSES))
        for mode in ("bayes", "disint"):
            calls.append(_invert(f"{base}/invert-{mode}", path, mode, work))
    for index, (src, tgt) in enumerate(KRAUS_DIMS):
        source, target = MultiMatrixAlgebra(src), MultiMatrixAlgebra(tgt)
        # Two operators per block pair leave sum K K* singular once a target
        # block is wider than twice the source's total dimension.
        n_kraus = max(2, math.ceil(max(tgt) / sum(src)))
        F = random_kraus_channel(rng, source, target, n_kraus=n_kraus)
        channel = {
            "kind": "kraus",
            "source": {"blocks": list(src)},
            "target": {"blocks": list(tgt)},
            "ops": [
                [[_matrix(K) for K in kraus_blocks(F, x, y)] for y in range(len(src))]
                for x in range(len(tgt))
            ],
        }
        for kind in KRAUS_STATES:
            if kind == "faithful":
                state = random_state(rng, target)
            elif kind == "rankdef":
                state = random_state(rng, target, ranks=[max(1, d - 1) for d in tgt])
            else:
                state = random_state(rng, target, zero_blocks=(0,))
            path = work / f"multiblock-kraus{index}-{kind}.json"
            _write_problem(path, channel, state)
            calls.append(
                _check(f"multiblock/kraus{index}/{kind}/check", path, CHANNEL_ONLY_ANALYSES)
            )
    return calls


def _hom_shapes(shapes: np.random.Generator) -> list:
    """The first HOM_COUNT draws of `random_hom` that are injective and small."""
    homs = []
    draw = 0
    while len(homs) < HOM_COUNT:
        source = HOM_SOURCES[draw % len(HOM_SOURCES)]
        draw += 1
        h = random_hom(shapes, source)
        injective = all(any(row[j] for row in h.multiplicities) for j in range(len(source)))
        if injective and max(h.target.block_dims) <= HOM_MAX_TARGET_DIM:
            homs.append(h)
    return homs


def _matrix(M) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(M, dtype=complex).reshape(-1)]


def _write_problem(path: Path, channel: dict, state) -> None:
    problem = {
        "schema": "qbayes-problem/1",
        "channel": channel,
        "state": {
            "weights": [float(p) for p in state.weights],
            "densities": [None if rho is None else _matrix(rho) for rho in state.densities],
        },
    }
    path.write_text(json.dumps(problem, sort_keys=True), encoding="utf-8")
