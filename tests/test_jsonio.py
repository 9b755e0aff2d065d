import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbayes.cli import main
from qbayes.jsonio import canonical_dumps, matrix_to_json

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
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(texts, children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=3)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_canonical_dumps_matches_json_module(obj):
    assert canonical_dumps(obj) == reference_dumps(obj)


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.stem)
def test_canonical_dumps_on_fixture_reports(fixture, tmp_path, capsys):
    # the problem, its report, and every channel that invert writes
    docs = [json.loads(fixture.read_text())]
    assert main(["check", str(fixture)]) == 0
    docs.append(json.loads(capsys.readouterr().out))
    for mode in ("bayes", "disint"):
        out = tmp_path / f"{mode}.json"
        main(["invert", str(fixture), "--mode", mode, "--out", str(out)])
        capsys.readouterr()
        if out.exists():
            docs.append(json.loads(out.read_text()))
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
