"""JSON schemas for algebras, states, homs, channels, and problems.

Matrices are serialized as flat row-major lists of [re, im] pairs; shapes
are always implied by the algebras involved. The documents built here
hold each matrix as a flat complex array, which `canonical_dumps` writes
as that list. Serialization round-trips binary64 exactly (shortest
round-trip float representation), and `canonical_dumps` is byte-stable:
sorted keys, fixed separators, trailing newline.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional

import numpy as np

from .algebra import HomSpec, MultiMatrixAlgebra
from .channel import Channel, from_hom, from_kraus, is_ucp
from .errors import ParseError, SchemaError
from .linalg import DEFAULT_TOL, dagger
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


def _flat(M) -> np.ndarray:
    return np.ascontiguousarray(M, dtype=complex).reshape(-1)


def matrix_to_json(M: np.ndarray) -> list:
    """Row-major [re, im] pairs, read in one pass from the float view."""
    return _flat(M).view(float).reshape(-1, 2).tolist()


def matrix_from_json(data, rows: int, cols: int, field: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(
            f"{field}: expected {rows * cols} [re, im] pairs, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    # JSON numbers parse to int or float; bool, str and the rest are refused
    if (
        set(map(type, data)) <= {list}
        and set(map(len, data)) <= {2}
        and set(map(type, chain.from_iterable(data))) <= {int, float}
    ):
        with suppress(OverflowError):  # an int too large for a float
            flat = np.fromiter(chain.from_iterable(data), dtype=float, count=2 * len(data))
            pairs = flat.reshape(-1, 2)
            if np.isfinite(pairs).all():
                # the pairs' bits as they are, signed zeros included
                return pairs.view(complex).reshape(rows, cols)
    # the per-entry loop names the first offending entry
    out = np.zeros(rows * cols, dtype=complex)
    for idx, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{field}[{idx}]: expected an [re, im] pair")
        re, im = pair
        if type(re) not in (int, float) or type(im) not in (int, float):
            raise SchemaError(f"{field}[{idx}]: expected two numbers, got {pair!r}")
        try:
            out[idx] = complex(re, im)
        except OverflowError:
            raise SchemaError(f"{field}[{idx}]: entry {pair!r} is not finite") from None
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        idx = int(bad[0])
        raise SchemaError(f"{field}[{idx}]: entry {data[idx]!r} is not finite")
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
            None if rho is None else _flat(rho) for rho in state.densities
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
        state = State(alg, tuple(float(p) for p in weights), tuple(mats))
    except Exception as exc:
        raise SchemaError(f"{field}: {exc}") from exc
    # PSD within the bound that support calculus (linalg.herm_fun) tolerates
    for x, rho in enumerate(state.densities):
        if rho is None:
            continue
        w = np.linalg.eigvalsh((rho + dagger(rho)) / 2)
        psd = DEFAULT_TOL.support_psd(w[0], float(w[-1]))
        if not psd:
            raise SchemaError(
                f"{field}.densities[{x}]: density is not PSD: least eigenvalue "
                f"{w[0]:.3e} below {-psd.threshold:.3e}"
            )
    return state


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


def channel_to_json(F: Channel) -> dict:
    """The channel in Choi form."""
    return {
        "source": F.source.to_dict(),
        "target": F.target.to_dict(),
        "kind": "choi",
        "blocks": [
            [_flat(F.choi_block(x, y)) for y in range(F.source.n_blocks)]
            for x in range(F.target.n_blocks)
        ],
    }


def channel_from_json(data, field: str) -> tuple[Channel, Optional[HomSpec]]:
    """Parse a channel in hom, Choi, or Kraus form.

    Returns the channel together with the HomSpec when the input carried
    one (embedding-only analyses need it). Choi and Kraus inputs must be
    UCP; a hom is UCP by construction.
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
            channel = Channel(source, target, tensors)
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
            channel = from_kraus(source, target, grid)
        except Exception as exc:
            raise SchemaError(f"{field}: {exc}") from exc
    verdict = is_ucp(channel)
    if not verdict:
        raise SchemaError(
            f"{field}: channel is not UCP: min Choi eigenvalue "
            f"{verdict.min_choi_eigenvalue:.3e} in block {verdict.witness_block}, "
            f"unitality residual {verdict.unital.residual:.3e}"
        )
    return channel, None


def _check_analyses(analyses, has_hom: bool, field: str) -> None:
    """A non-empty list of known analyses; hom-only ones come with a hom."""
    if not isinstance(analyses, list) or not analyses:
        raise SchemaError(f"{field}: expected a non-empty list of analysis names")
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
    """`json.dumps(obj, indent=2, sort_keys=True) + "\n"`, byte for byte,
    where each numpy array in obj stands for its `matrix_to_json` list.

    With an indent, the json module falls back to its pure-Python encoder,
    which makes one string per token; this emitter writes each array with
    one string per distinct float instead.
    """
    out: list[str] = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _float_str(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_str(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_str(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit_array(a: np.ndarray, nl: str, out: list) -> None:
    """Append the [re, im] pair list of an array, formatting each distinct
    float once; an empty array, NaN or an infinity takes the general path."""
    f = _flat(a).view(float)
    if not f.size or not np.isfinite(f).all():
        return _emit(matrix_to_json(a), nl, out)
    inner = nl + "  "
    head, mid, tail = f"[{inner}  %s,{inner}  %s{inner}]".split("%s")
    # keyed by bit pattern, so that -0.0 and 0.0 keep their own strings
    bits, index = np.unique(f.view(np.int64), return_inverse=True)
    strs = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)
    parts = np.empty(2 * f.size - 1, dtype=object)
    parts[0::2] = strs[index]
    parts[1::4] = mid
    parts[3::4] = f"{tail},{inner}{head}"
    out.append(f"[{inner}{head}{''.join(parts.tolist())}{tail}{nl}]")


def _emit(obj, nl: str, out: list) -> None:
    """Append obj's indented JSON to out; nl is a newline plus its indent."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_str(obj))
    elif isinstance(obj, np.ndarray):
        _emit_array(obj, nl, out)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _emit(value, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(f"{sep}{_encode_str(_key_str(key))}: ")
            _emit(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
