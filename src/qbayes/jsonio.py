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
from .channel import Channel, from_choi, from_hom, from_kraus, is_ucp
from .errors import NotHermitian, ParseError, SchemaError
from .linalg import DEFAULT_TOL, Tolerances
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
    # some entry is refused: name the first malformed one, else the first one
    # that is not finite
    for idx, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{field}[{idx}]: expected an [re, im] pair")
        if type(pair[0]) not in (int, float) or type(pair[1]) not in (int, float):
            raise SchemaError(f"{field}[{idx}]: expected two numbers, got {pair!r}")
        try:
            complex(*pair)
        except OverflowError:
            raise SchemaError(f"{field}[{idx}]: entry {pair!r} is not finite") from None
    idx = next(i for i, pair in enumerate(data) if not all(map(math.isfinite, pair)))
    raise SchemaError(f"{field}[{idx}]: entry {data[idx]!r} is not finite")


def _list(value, n: Optional[int], field: str) -> list:
    """value itself when it is a list of n entries, or of any length when n
    is None."""
    if not isinstance(value, list):
        raise SchemaError(f"{field}: expected a list, got {type(value).__name__}")
    if n is not None and len(value) != n:
        raise SchemaError(f"{field}: expected {n} entries, got {len(value)}")
    return value


def _entries(values: list, kinds: tuple, expected: str, field: str) -> tuple:
    """values as a tuple, each entry's type one of kinds: by type, not
    isinstance, since a bool is an int."""
    for k, value in enumerate(values):
        if type(value) not in kinds:
            raise SchemaError(f"{field}[{k}]: expected {expected}, got {value!r}")
    return tuple(values)


def _require(data: dict, key: str, field: str):
    if not isinstance(data, dict) or key not in data:
        raise SchemaError(f"{field}: missing required key '{key}'")
    return data[key]


def algebra_from_json(data, field: str) -> MultiMatrixAlgebra:
    blocks = _require(data, "blocks", field)
    if not isinstance(blocks, list) or not blocks:
        raise SchemaError(f"{field}.blocks: expected a nonempty list of dimensions")
    dims = _entries(blocks, (int,), "an integer", f"{field}.blocks")
    try:
        return MultiMatrixAlgebra(dims)
    except Exception as exc:
        raise SchemaError(f"{field}.blocks: {exc}") from exc


def state_to_json(state: State) -> dict:
    return {
        "weights": [float(p) for p in state.weights],
        "densities": [
            None if rho is None else _flat(rho) for rho in state.densities
        ],
    }


def state_from_json(
    data, alg: MultiMatrixAlgebra, field: str, tol: Tolerances = DEFAULT_TOL
) -> State:
    """The state, its weights, Hermiticity and traces judged at tol."""
    # State itself refuses a count other than one weight per block
    weights = _list(_require(data, "weights", field), None, f"{field}.weights")
    weights = _entries(weights, (int, float), "a number", f"{field}.weights")
    densities = _list(_require(data, "densities", field), alg.n_blocks, f"{field}.densities")
    mats = []
    for x, (d, rho) in enumerate(zip(alg.block_dims, densities)):
        if rho is None:
            mats.append(None)
        else:
            mats.append(matrix_from_json(rho, d, d, f"{field}.densities[{x}]"))
    try:
        return State(alg, weights, tuple(mats), tol)
    except NotHermitian as exc:
        raise SchemaError(f"{field}.densities[{exc.block}]: {exc}") from exc
    except Exception as exc:
        raise SchemaError(f"{field}: {exc}") from exc


def hom_to_json(h: HomSpec) -> dict:
    """The channel of kind 'hom' given by a standard-form embedding."""
    return {**h.to_dict(), "kind": "hom"}


def hom_from_json(data, field: str) -> HomSpec:
    source = algebra_from_json(_require(data, "source", field), f"{field}.source")
    target = algebra_from_json(_require(data, "target", field), f"{field}.target")
    rows = _list(_require(data, "mult", field), None, f"{field}.mult")
    mult = tuple(
        _entries(_list(row, None, f"{field}.mult[{i}]"), (int,), "an integer", f"{field}.mult[{i}]")
        for i, row in enumerate(rows)
    )
    try:
        return HomSpec(source, target, mult)
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


def channel_from_json(
    data, field: str, tol: Tolerances = DEFAULT_TOL
) -> tuple[Channel, Optional[HomSpec]]:
    """Parse a channel in hom, Choi, or Kraus form.

    Returns the channel together with the HomSpec when the input carried
    one (embedding-only analyses need it). Choi and Kraus inputs must be
    UCP at tol, the verdict kept on the channel; a hom is UCP by
    construction.
    """
    kind = _require(data, "kind", field)
    if kind not in ("hom", "choi", "kraus"):
        raise SchemaError(f"{field}.kind: unknown kind '{kind}'")
    if kind == "hom":
        h = hom_from_json(data, field)
        return from_hom(h), h
    source = algebra_from_json(_require(data, "source", field), f"{field}.source")
    target = algebra_from_json(_require(data, "target", field), f"{field}.target")
    # per block pair, one Choi block or a list of Kraus operators
    key = "blocks" if kind == "choi" else "ops"
    rows = _list(_require(data, key, field), target.n_blocks, f"{field}.{key}")
    grid = []
    for x, m_x in enumerate(target.block_dims):
        row_json = _list(rows[x], source.n_blocks, f"{field}.{key}[{x}]")
        row = []
        for y, n_y in enumerate(source.block_dims):
            entry = f"{field}.{key}[{x}][{y}]"
            if kind == "choi":
                C = matrix_from_json(row_json[y], n_y * m_x, n_y * m_x, entry)
                row.append(C.reshape(n_y, m_x, n_y, m_x))
            else:
                Ks = _list(row_json[y], None, entry)
                row.append([
                    matrix_from_json(K, m_x, n_y, f"{entry}[{k}]") for k, K in enumerate(Ks)
                ])
        grid.append(row)
    try:
        if kind == "choi":
            channel = from_choi(source, target, grid, tol)
        else:
            channel = from_kraus(source, target, grid)
    except Exception as exc:
        raise SchemaError(f"{field}: {exc}") from exc
    verdict = is_ucp(channel, tol)
    if not verdict:
        raise SchemaError(f"{field}: channel is not UCP: {verdict.failing()}")
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


def problem_from_json(data, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Validated problem dict: channel, optional hom, state and analyses. The
    channel's UCP test and the state's weights and traces are judged at tol;
    the problem's own tolerances are read by `tolerances_from_json`."""
    if not isinstance(data, dict):
        raise SchemaError("problem: expected a JSON object")
    schema = data.get("schema")
    if schema != PROBLEM_SCHEMA:
        raise SchemaError(f"problem.schema: expected '{PROBLEM_SCHEMA}', got {schema!r}")
    channel, hom = channel_from_json(_require(data, "channel", "problem"), "problem.channel", tol)
    state = state_from_json(
        _require(data, "state", "problem"), channel.target, "problem.state", tol
    )
    analyses = data.get("analyses")
    if analyses is None:
        analyses = [
            a
            for a in ALL_ANALYSES
            if hom is not None or a not in HOM_ONLY_ANALYSES
        ]
    _check_analyses(analyses, hom is not None, "problem.analyses")
    return {
        "channel": channel,
        "hom": hom,
        "state": state,
        "analyses": list(analyses),
    }


def tolerances_from_json(data) -> dict:
    """The problem's `tolerances` object, {} when absent or when the problem is
    not an object: each entry is eps_eq or eps_rank, given as a JSON number."""
    tolerances = data.get("tolerances", {}) if isinstance(data, dict) else {}
    if not isinstance(tolerances, dict):
        raise SchemaError("problem.tolerances: expected an object")
    for key, value in tolerances.items():
        if key not in ("eps_eq", "eps_rank"):
            raise SchemaError(f"problem.tolerances.{key}: unknown tolerance, "
                              "expected eps_eq or eps_rank")
        # by type, not isinstance: a bool is an int
        if type(value) not in (int, float):
            raise SchemaError(f"problem.tolerances.{key}: expected a number, "
                              f"got {type(value).__name__}")
    return tolerances


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def canonical_dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\n"`, byte for byte,
    where each numpy array in obj stands for its `matrix_to_json` list. obj
    is built of dicts with string keys, lists, strings, numbers, booleans,
    None and arrays; anything else, a tuple or a key that is not a string,
    raises TypeError.

    With an indent, the json module falls back to its pure-Python encoder,
    which makes one string per token. This emitter formats each distinct
    [re, im] pair of an array once and appends one reference per element
    (see `_emit_array`), so that the final join is the only copy of the
    text.
    """
    out: list[str] = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _float_str(x: float) -> str:
    if x - x == 0.0:   # finite
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0.0 else "-Infinity"


def _emit_array(a: np.ndarray, nl: str, out: list) -> None:
    """Append the [re, im] pair list of an array, one string per element
    and each distinct pair formatted once (NaN and the infinities as
    `_float_str` writes them); an empty array writes [].

    A pair is keyed by the bit patterns of its two floats, so that -0.0 and
    0.0 keep their own strings, and the distinct pairs are numbered by one
    stable lexsort of those keys. Each distinct pair's string carries the
    separator before it, which the first element trades for the opening
    bracket: out gains one reference per element, and the join in
    `canonical_dumps` is the one copy of the text."""
    f = _flat(a).view(float)
    if not f.size:
        out.append("[]")
        return
    bits = f.view(np.int64)
    order = np.lexsort((bits[1::2], bits[0::2]))
    re, im = bits[0::2][order], bits[1::2][order]
    new = np.empty(order.size, dtype=bool)
    new[0] = True
    np.not_equal(re[1:], re[:-1], out=new[1:])
    new[1:] |= im[1:] != im[:-1]
    which = np.empty(order.size, dtype=np.int64)
    which[order] = np.cumsum(new) - 1
    inner = nl + "  "
    head, mid, tail = f",{inner}[{inner}  %s,{inner}  %s{inner}]".split("%s")
    texts = np.array([f"{head}{_float_str(x)}{mid}{_float_str(y)}{tail}"
                      for x, y in f.reshape(-1, 2)[order[new]].tolist()], dtype=object)
    parts = texts[which].tolist()
    parts[0] = "[" + parts[0][1:]
    out += parts
    out.append(nl + "]")


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
    elif isinstance(obj, list):
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
            out.append(f"{sep}{_encode_str(key)}: ")
            _emit(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
