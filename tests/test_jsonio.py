import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbayes.cli import main
from qbayes.errors import SchemaError
from qbayes.jsonio import canonical_dumps, matrix_from_json, matrix_to_json

from conftest import FIXTURES

ALL_FIXTURES = sorted(FIXTURES.glob("*.json"))


def reference_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


floats = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, -1.1125369292536007e-308, 1e16, -1e16, 1e-7, float("nan"),
     float("inf"), float("-inf")]
)
texts = st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é中\U0001f600')
scalars = st.none() | st.booleans() | st.integers() | floats | texts
pair_lists = st.lists(st.lists(floats, min_size=2, max_size=2), max_size=6)
values = st.recursive(
    scalars | pair_lists,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(texts, children, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_canonical_dumps_matches_json_module(obj):
    assert canonical_dumps(obj) == reference_dumps(obj)


@pytest.mark.parametrize("obj", [(1.0, 2.0), {"a": [(1, 2)]}, {1: "one"}, {"a": {None: 0}}])
def test_canonical_dumps_refuses_tuples_and_keys_that_are_not_strings(obj):
    # no document that qbayes writes holds either
    with pytest.raises(TypeError):
        canonical_dumps(obj)


# beside the fixtures, a generated instance whose Choi blocks (72 x 72) are
# of the size that the benchmark's inclusion ladder prints
GENERATED = {"random-6-12-rankdef": ["random", "--dims", "6->12", "--kind", "rankdef",
                                     "--seed", "1"]}


@pytest.mark.parametrize("fixture", [*ALL_FIXTURES, *GENERATED], ids=lambda p: getattr(p, "stem", p))
def test_canonical_dumps_on_fixture_reports(fixture, tmp_path, capsys):
    # the problem, its report, and every channel that invert writes: the
    # report and the channels as the CLI wrote them from arrays, and each
    # document again from its parse
    if fixture in GENERATED:
        argv, fixture = GENERATED[fixture], tmp_path / "problem.json"
        assert main([*argv, "--out", str(fixture)]) == 0
    texts = [fixture.read_text()]
    assert main(["check", str(fixture)]) == 0
    written = capsys.readouterr().out
    docs = [json.loads(texts[0]), json.loads(written)]
    assert written == reference_dumps(docs[1])
    for mode in ("bayes", "disint"):
        out = tmp_path / f"{mode}.json"
        main(["invert", str(fixture), "--mode", mode, "--out", str(out)])
        capsys.readouterr()
        if out.exists():
            written = out.read_text()
            docs.append(json.loads(written))
            assert written == reference_dumps(docs[-1])
    for doc in docs:
        assert canonical_dumps(doc) == reference_dumps(doc)


def test_matrix_to_json_matches_per_entry_list():
    special = [-0.0, 0.0, 5e-324, -1.1125369292536007e-308, 1e16, -1e16, 1.7976931348623157e308,
               -1e300, 1e-7, 0.1, 1 / 3]
    rng = np.random.default_rng(0)
    values = np.concatenate([special, rng.standard_normal(25) * 10.0 ** rng.integers(-20, 20, 25)])
    M = np.empty((6, 6), dtype=complex)  # set parts directly: x + 1j * y loses -0.0
    M.real = values.reshape(6, 6)
    M.imag = values[::-1].reshape(6, 6)
    assert np.signbit(M[0, 0].real)
    for A in (M, M.T, M[::2, 1::2], M.real, np.zeros((0, 0))):
        want = [[float(z.real), float(z.imag)] for z in np.asarray(A, dtype=complex).reshape(-1)]
        got = matrix_to_json(A)
        # repr tells -0.0 from 0.0 and a numpy scalar from a float
        assert repr(got) == repr(want)
        assert all(type(v) is float for pair in got for v in pair)


# -0.0 and 0.0 in one array, subnormals, 1e16 and the largest finite floats
# (1.8e308 itself rounds to infinity and sits with the non-finite values)
FINITE_SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, -1.1125369292536007e-308, 1e16, -1e16,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
finite_floats = st.sampled_from(FINITE_SPECIALS) | st.floats(allow_nan=False,
                                                             allow_infinity=False)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf, 1.8e308, -1.8e308])
ARRAY_SHAPES = [(0,), (0, 0), (1,), (2,), (7,), (3, 3), (2, 5), (4, 4), (12, 12)]


def complex_arrays(pairs):
    """Complex arrays of several shapes, each entry an (re, im) drawn from
    pairs, with their transposes and real parts."""
    def fill(shape):
        size = math.prod(shape)
        return st.lists(pairs, min_size=size, max_size=size).map(
            lambda v: np.array(v, dtype=float).reshape(shape + (2,)).view(complex)[..., 0]
        )
    arrays = st.sampled_from(ARRAY_SHAPES).flatmap(fill)
    return arrays | arrays.map(lambda a: a.T) | arrays.map(lambda a: a.real)


def swapped_and_signed(a, b):
    """[a, b] beside [b, a], and -0.0 beside 0.0 in both slots: a pair key
    that confuses the order of a pair or the sign of a zero writes one
    pair's text for another."""
    return [(a, b), (b, a), (0.0, a), (-0.0, a), (a, 0.0), (a, -0.0)]


def both(elements):
    return st.tuples(elements, elements)


# few distinct values per array (a pool of floats, or of pairs that differ
# only by order or by the sign of a zero), any finite ones, or some non-finite
arrays = (
    st.lists(finite_floats, min_size=1, max_size=3).flatmap(
        lambda pool: complex_arrays(both(st.sampled_from(pool))))
    | both(finite_floats).flatmap(
        lambda ab: complex_arrays(st.sampled_from(swapped_and_signed(*ab))))
    | complex_arrays(both(finite_floats))
    | complex_arrays(both(finite_floats | non_finite))
)
documents = st.recursive(
    scalars | arrays,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(texts, children, max_size=4),
    max_leaves=12,
)


def arrays_as_lists(obj):
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    if isinstance(obj, dict):
        return {k: arrays_as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [arrays_as_lists(v) for v in obj]
    return obj


@settings(max_examples=300, deadline=None)
@given(documents)
@example({"m": np.array([0.0, -0.0, -0.0, 0.0, 0.0, 0.0]).view(complex)})
def test_canonical_dumps_writes_arrays_as_pair_lists(doc):
    assert canonical_dumps(doc) == reference_dumps(arrays_as_lists(doc))


def per_entry_matrix(data, rows, cols, field):
    """matrix_from_json as one loop over the entries."""
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(
            f"{field}: expected {rows * cols} [re, im] pairs, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
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


json_numbers = finite_floats | st.integers() | st.integers(-(2**80), 2**80)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(json_numbers, min_size=2, max_size=2), max_size=30))
@example([[-0.0, -0.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, -1.0], [2**53 + 1, -(2**64) - 1]])
def test_matrix_from_json_matches_per_entry_loop(data):
    got = matrix_from_json(data, len(data), 1, "m")
    want = per_entry_matrix(data, len(data), 1, "m")
    assert np.array_equal(got, want)
    # the same bits, signed zeros included
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got.dtype == complex and got.shape == (len(data), 1)


def test_matrix_from_json_keeps_signed_zeros():
    data = [[-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0]]
    got = matrix_from_json(data, 3, 1, "m").ravel()
    assert np.signbit(got.real).tolist() == [True, False, True]
    assert np.signbit(got.imag).tolist() == [False, True, True]


@pytest.mark.parametrize(
    "data",
    [
        [[1, 0], [0, 1], [0, 0]],
        {"re": 1},
        [[1, 0], [1, 2, 3], [0, 0], [0, 0]],
        [[1, 0], 5, [0, 0], [0, 0]],
        [[1, 0], [0, 1], [True, 0], [0, 0]],
        [[1, 0], [0, 1], [0, "x"], [0, 0]],
        [[1, 0], [10**400, 0], [0, 0], [0, 0]],
        [[1, 0], [0, -(10**400)], [0, 0], [0, 0]],
        [[1, 0], [math.nan, 0], [0, 0], [0, 0]],
        [[1, 0], [0, 0], [0, math.inf], [-math.inf, 0]],
        # a non-finite entry is named only after every entry has the right type
        [[math.nan, 0], [0, 0], ["x", 0], [0, 0]],
        [[math.inf, 0], [10**400, 0], [0, 0], [0, 0]],
        [["x", 0], [math.nan, 0], [0, 0], [0, 0]],
    ],
    ids=["length", "not-a-list", "triple", "scalar", "bool", "str", "big-int-re", "big-int-im",
         "nan", "inf", "nan-then-str", "inf-then-big-int", "str-then-nan"],
)
def test_matrix_from_json_names_the_first_bad_entry(data):
    with pytest.raises(SchemaError) as want:
        per_entry_matrix(data, 2, 2, "m")
    with pytest.raises(SchemaError) as got:
        matrix_from_json(data, 2, 2, "m")
    assert str(got.value) == str(want.value)
