"""JSON schemas for algebras, states, homs, channels, and problems.

Matrices are serialized as flat row-major lists of [re, im] pairs; shapes
are always implied by the algebras involved. Serialization round-trips
binary64 exactly (shortest round-trip float representation), and
`canonical_dumps` is byte-stable: sorted keys, fixed separators, trailing
newline.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .algebra import HomSpec, MultiMatrixAlgebra
from .channel import Channel, from_hom, from_kraus
from .errors import ParseError, SchemaError
from .state import State

PROBLEM_SCHEMA = "qbayes-problem/1"
REPORT_SCHEMA = "qbayes-report/1"

ALL_ANALYSES = (
    "ac",
    "takesaki",
    "disintegrate",
    "condexp",
    "bayes-battery",
    "bayes-existence",
    "bridge",
)
HOM_ONLY_ANALYSES = ("takesaki", "disintegrate", "condexp")


def matrix_to_json(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=complex)
    return [[float(z.real), float(z.imag)] for z in M.reshape(-1)]


def matrix_from_json(data, rows: int, cols: int, field: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(
            f"{field}: expected {rows * cols} [re, im] pairs, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    out = np.zeros(rows * cols, dtype=complex)
    for idx, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{field}[{idx}]: expected an [re, im] pair")
        out[idx] = float(pair[0]) + 1j * float(pair[1])
    return out.reshape(rows, cols)


def _require(data: dict, key: str, field: str):
    if not isinstance(data, dict) or key not in data:
        raise SchemaError(f"{field}: missing required key '{key}'")
    return data[key]


def algebra_from_json(data, field: str) -> MultiMatrixAlgebra:
    blocks = _require(data, "blocks", field)
    if not isinstance(blocks, list) or not blocks:
        raise SchemaError(f"{field}.blocks: expected a nonempty list of dimensions")
    try:
        return MultiMatrixAlgebra(tuple(int(b) for b in blocks))
    except Exception as exc:
        raise SchemaError(f"{field}.blocks: {exc}") from exc


def state_to_json(state: State) -> dict:
    return {
        "weights": [float(p) for p in state.weights],
        "densities": [
            None if rho is None else matrix_to_json(rho) for rho in state.densities
        ],
    }


def state_from_json(data, alg: MultiMatrixAlgebra, field: str) -> State:
    weights = _require(data, "weights", field)
    densities = _require(data, "densities", field)
    if len(weights) != alg.n_blocks or len(densities) != alg.n_blocks:
        raise SchemaError(
            f"{field}: expected {alg.n_blocks} weights and densities, got "
            f"{len(weights)} and {len(densities)}"
        )
    mats = []
    for x, (d, rho) in enumerate(zip(alg.block_dims, densities)):
        if rho is None:
            mats.append(None)
        else:
            mats.append(matrix_from_json(rho, d, d, f"{field}.densities[{x}]"))
    try:
        return State(alg, tuple(float(p) for p in weights), tuple(mats))
    except Exception as exc:
        raise SchemaError(f"{field}: {exc}") from exc


def hom_to_json(h: HomSpec) -> dict:
    """The channel of kind 'hom' given by a standard-form embedding."""
    return {**h.to_dict(), "kind": "hom"}


def hom_from_json(data, field: str) -> HomSpec:
    source = algebra_from_json(_require(data, "source", field), f"{field}.source")
    target = algebra_from_json(_require(data, "target", field), f"{field}.target")
    mult = _require(data, "mult", field)
    try:
        return HomSpec(source, target, tuple(tuple(int(c) for c in row) for row in mult))
    except Exception as exc:
        raise SchemaError(f"{field}.mult: {exc}") from exc


def channel_to_json(F: Channel, kind: str = "choi") -> dict:
    if kind != "choi":
        raise ValueError("channels serialize in Choi form")
    return {
        "source": F.source.to_dict(),
        "target": F.target.to_dict(),
        "kind": "choi",
        "blocks": [
            [matrix_to_json(F.choi_block(x, y)) for y in range(F.source.n_blocks)]
            for x in range(F.target.n_blocks)
        ],
    }


def channel_from_json(data, field: str) -> tuple[Channel, Optional[HomSpec]]:
    """Parse a channel in hom, Choi, or Kraus form.

    Returns the channel together with the HomSpec when the input carried
    one (embedding-only analyses need it).
    """
    kind = _require(data, "kind", field)
    if kind not in ("hom", "choi", "kraus"):
        raise SchemaError(f"{field}.kind: unknown kind '{kind}'")
    if kind == "hom":
        h = hom_from_json(data, field)
        return from_hom(h), h
    source = algebra_from_json(_require(data, "source", field), f"{field}.source")
    target = algebra_from_json(_require(data, "target", field), f"{field}.target")
    if kind == "choi":
        blocks = _require(data, "blocks", field)
        if len(blocks) != target.n_blocks:
            raise SchemaError(f"{field}.blocks: expected {target.n_blocks} rows")
        tensors = []
        for x, m_x in enumerate(target.block_dims):
            if len(blocks[x]) != source.n_blocks:
                raise SchemaError(
                    f"{field}.blocks[{x}]: expected {source.n_blocks} entries"
                )
            row = []
            for y, n_y in enumerate(source.block_dims):
                C = matrix_from_json(
                    blocks[x][y], n_y * m_x, n_y * m_x, f"{field}.blocks[{x}][{y}]"
                )
                row.append(C.reshape(n_y, m_x, n_y, m_x))
            tensors.append(row)
        try:
            return Channel(source, target, tensors), None
        except Exception as exc:
            raise SchemaError(f"{field}: {exc}") from exc
    else:
        ops = _require(data, "ops", field)
        grid = []
        for x, m_x in enumerate(target.block_dims):
            row = []
            for y, n_y in enumerate(source.block_dims):
                row.append(
                    [
                        matrix_from_json(K, m_x, n_y, f"{field}.ops[{x}][{y}]")
                        for K in ops[x][y]
                    ]
                )
            grid.append(row)
        try:
            return from_kraus(source, target, grid), None
        except Exception as exc:
            raise SchemaError(f"{field}: {exc}") from exc


def _check_analyses(analyses, has_hom: bool, field: str) -> None:
    """Every name is a known analysis, and hom-only ones come with a hom."""
    for a in analyses:
        if a not in ALL_ANALYSES:
            raise SchemaError(f"{field}: unknown analysis '{a}'")
        if a in HOM_ONLY_ANALYSES and not has_hom:
            raise SchemaError(f"{field}: '{a}' needs a channel of kind 'hom'")


def problem_from_json(data) -> dict:
    """Validated problem dict: channel, optional hom, state, analyses, tolerances."""
    if not isinstance(data, dict):
        raise SchemaError("problem: expected a JSON object")
    schema = data.get("schema")
    if schema != PROBLEM_SCHEMA:
        raise SchemaError(f"problem.schema: expected '{PROBLEM_SCHEMA}', got {schema!r}")
    channel, hom = channel_from_json(_require(data, "channel", "problem"), "problem.channel")
    state = state_from_json(
        _require(data, "state", "problem"), channel.target, "problem.state"
    )
    analyses = data.get("analyses")
    if analyses is None:
        analyses = [
            a
            for a in ALL_ANALYSES
            if hom is not None or a not in HOM_ONLY_ANALYSES
        ]
    _check_analyses(analyses, hom is not None, "problem.analyses")
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise SchemaError("problem.tolerances: expected an object")
    return {
        "channel": channel,
        "hom": hom,
        "state": state,
        "analyses": list(analyses),
        "tolerances": tolerances,
    }


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
