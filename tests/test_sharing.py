"""Each state-side input is derived once per instance, and dies with it.

A `qbayes check` runs several analyses on one parsed problem. They share
the support of each state, the pulled-back states, the hom's channel and
the factorization of the state along the hom; each analysis still computes
its own verdict. The caches live on the parsed objects, so nothing of a
call outlives `cli.main`.
"""

import gc
import json
import pathlib
import sys
import weakref
from collections import Counter

import pytest

import qbayes.channel
import qbayes.cli
import qbayes.disint
import qbayes.modular
import qbayes.state
from qbayes.cli import main
from qbayes.disint import condexp_characterize, disintegrate
from qbayes.generators import product_instance

from conftest import FIXTURES

ROOT = pathlib.Path(__file__).resolve().parent.parent
HOM_FIXTURES = [
    path for path in sorted(FIXTURES.glob("*.json"))
    if json.loads(path.read_text())["channel"]["kind"] == "hom"
]


def _record(monkeypatch, module, name, key):
    """Wrap module.name at every qbayes module that binds it; each call
    appends key(*args), and the arguments are held so that no id in a key
    is reused during the test."""
    seen = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        seen.append((key(*args), args))
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "qbayes" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recording)
    return seen


def _repeats(seen) -> list:
    return [k for k, n in Counter(k for k, _ in seen).items() if n > 1]


@pytest.mark.parametrize("fixture", HOM_FIXTURES, ids=lambda p: p.stem)
def test_full_check_derives_each_state_input_once(fixture, monkeypatch, capsys):
    supports = _record(monkeypatch, qbayes.state, "_support",
                       lambda omega, tol: (id(omega), tol))
    pullbacks = _record(monkeypatch, qbayes.state, "_pullback",
                        lambda omega, F, tol: (id(omega), id(F), tol))
    channels = _record(monkeypatch, qbayes.channel, "_from_hom", id)
    factorizations = _record(monkeypatch, qbayes.disint, "_factorize",
                             lambda h, omega, tol: (id(h), id(omega), tol))
    assert main(["check", str(fixture)]) == 0
    capsys.readouterr()
    assert supports and pullbacks
    assert _repeats(supports) == [] and _repeats(pullbacks) == []
    assert len(channels) == 1
    assert len(factorizations) == 1


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_ac_runs_its_algebraic_test_once(fixture, monkeypatch, capsys):
    calls = _record(monkeypatch, qbayes.modular, "ac_condition_algebraic", lambda *a: None)
    assert main(["check", str(fixture), "--analyses", "ac"]) == 0
    report = json.loads(capsys.readouterr().out)["analyses"]["ac"]
    assert len(calls) == 1
    assert set(report) == {"verdict", "max_residual", "sampled_residual"}


@pytest.mark.parametrize("argv", [["check"], ["invert", "--mode", "disint"]])
def test_parsed_problem_dies_with_the_call(argv, monkeypatch, capsys, tmp_path):
    refs = []
    parse = qbayes.cli.problem_from_json

    def parse_and_watch(data):
        problem = parse(data)
        refs.extend(weakref.ref(problem[k]) for k in ("state", "hom", "channel"))
        return problem

    monkeypatch.setattr(qbayes.cli, "problem_from_json", parse_and_watch)
    argv = [argv[0], str(FIXTURES / "multiblock_product.json")] + argv[1:]
    if argv[0] == "invert":
        argv += ["--out", str(tmp_path / "out.json")]
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        # reference counting alone frees them: the caches hold no cycle
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
    capsys.readouterr()
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_expectation_is_composed_only_when_read(monkeypatch):
    h, omega = product_instance()
    composed = _record(monkeypatch, qbayes.disint, "compose", lambda F, G: None)
    rep = condexp_characterize(h, omega)
    assert rep.ok and composed == []
    E = rep.expectation
    assert len(composed) == 1 and rep.expectation is E
    res = disintegrate(h, omega)
    before = len(composed)  # the verification's round trip G o F
    assert res.exists and res.expectation is res.expectation
    assert len(composed) == before + 1


def _fixture_argv(call_id: str, tmp_path) -> list:
    _, name, call = call_id.split("/")
    path = str(FIXTURES / f"{name}.json")
    if call == "check":
        return ["check", path]
    mode = call.removeprefix("invert-")
    return ["invert", path, "--mode", mode, "--out", str(tmp_path / f"{name}-{mode}.json")]


def _flat_bools(node, prefix=""):
    out = {}
    for key, value in node.items():
        if isinstance(value, bool):
            out[prefix + key] = value
        elif isinstance(value, dict):
            out.update(_flat_bools(value, f"{prefix}{key}."))
    return out


EXPECTED = json.loads((ROOT / "bench" / "expected.json").read_text())["fixtures"]


@pytest.mark.parametrize("call_id", sorted(EXPECTED))
def test_fixture_verdicts_match_the_benchmark_table(call_id, capsys, tmp_path):
    # the verdict table every benchmark call is checked against
    assert main(_fixture_argv(call_id, tmp_path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert _flat_bools(report["analyses"]) == EXPECTED[call_id]
