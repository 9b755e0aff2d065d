"""Each shared input is derived once per instance, and dies with it.

A `qbayes check` runs several analyses on one parsed problem. They share
the support of each state, the pulled-back states, the hom's channel, the
factorization of the state along the hom, and the corner map, the Bayes
battery and the off-support extension of each map and state. A map and state
whose supports are both full are their own corner, so takesaki's corner
battery is then the problem's battery. The algebraic AC verdict and the
determinism verdict of a map and state are decided once as well, and read by
every analysis that needs them: the battery's off-support condition, `ac` and
takesaki (b) read one AC verdict; takesaki (c) and `bridge` one determinism
verdict when the pair is its own corner. Each dual pair still compares two
separate computations (algebraic against sampled AC, the battery's (vi)
against its other six conditions, takesaki (b) against `factorize`). The
caches live on the parsed objects, so nothing of a call outlives `cli.main`.
"""

import argparse
import gc
import json
import pathlib
import weakref

import numpy as np
import pytest

import qbayes.bayesinv
import qbayes.cli
import qbayes.disint
import qbayes.modular
from qbayes.algebra import HomSpec
from qbayes.bayesinv import battery, bayes_inverse, existence
from qbayes.channel import from_hom, identity_channel
from qbayes.cli import main
from qbayes.disint import disintegrate, factorize
from qbayes.errors import InternalInconsistency
from qbayes.generators import inclusion_hom, product_state_for_hom, random_hom
from qbayes.jsonio import (
    PROBLEM_SCHEMA,
    canonical_dumps,
    hom_to_json,
    loads,
    problem_from_json,
    state_to_json,
)
from qbayes.linalg import DEFAULT_TOL, Tolerances

from compositionality import compositionality_check
from conftest import FIXTURES, INSTANCE_CASES
from derivations import BUILDERS, recording, repeats
from instances import product_instance, rankdef_product_instance
from test_cli import _kraus_identity

ROOT = pathlib.Path(__file__).resolve().parent.parent
HOM_FIXTURES = [
    path for path in sorted(FIXTURES.glob("*.json"))
    if json.loads(path.read_text())["channel"]["kind"] == "hom"
]
# the hom fixtures whose state and pulled-back state are both faithful: each
# is its own corner
OWN_CORNER = {"multiblock_product", "nonproduct_m4", "product"}


@pytest.mark.parametrize("fixture", HOM_FIXTURES, ids=lambda p: p.stem)
def test_full_check_derives_each_state_input_once(fixture, capsys):
    with recording() as seen:
        assert main(["check", str(fixture)]) == 0
    capsys.readouterr()
    supports, pullbacks = seen["state._support"], seen["state._pullback"]
    assert supports and pullbacks
    assert repeats(supports) == [] and repeats(pullbacks) == []
    assert len(seen["channel._from_hom"]) == 1
    assert len(seen["disint._factorize"]) == 1
    # ac, takesaki and the batteries read the corner map of the problem's map
    # and state; a smaller corner is a new pair, whose battery builds the
    # (trivial) corner map of its own
    corners = seen["modular._corner_map"]
    assert len(corners) == (1 if fixture.stem in OWN_CORNER else 2)
    assert repeats(corners) == []


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_full_check_runs_each_battery_once(fixture, capsys):
    # bayes-battery, bayes-existence and bridge read the battery of the
    # problem's map and state, and so does takesaki's corner battery when the
    # pair is its own corner
    with recording() as seen:
        assert main(["check", str(fixture)]) == 0
    capsys.readouterr()
    batteries = seen["bayesinv._battery"]
    own = fixture not in HOM_FIXTURES or fixture.stem in OWN_CORNER
    assert len(batteries) == (1 if own else 2)
    assert repeats(batteries) == []


def _kraus_identity_file(tmp_path):
    data = json.loads((FIXTURES / "product.json").read_text())
    _kraus_identity(1.0)(data)
    path = tmp_path / "kraus_identity.json"
    path.write_text(json.dumps(data))
    return path


def _random_kraus_file(tmp_path):
    # written in Choi form
    path = tmp_path / "random_kraus.json"
    argv = ["random", "--dims", "2,2->3", "--kind", "kraus", "--seed", "7", "--out", str(path)]
    assert main(argv) == 0
    return path


UCP_CASES = {
    **{path.stem: lambda tmp_path, path=path: path for path in sorted(FIXTURES.glob("*.json"))},
    "kraus_identity": _kraus_identity_file,
    "random_kraus": _random_kraus_file,
}


@pytest.mark.parametrize("case", UCP_CASES.values(), ids=UCP_CASES.keys())
def test_full_check_judges_each_map_ucp_once(case, tmp_path, capsys):
    # a Kraus or Choi input is judged at parse and read again as its own
    # corner, a corner channel is judged when built and read again as the
    # corner pair's own corner, and a constructed inverse is judged by
    # verify_bayes and read again by the bridge
    path = case(tmp_path)
    with recording() as seen:
        assert main(["check", str(path)]) == 0
    capsys.readouterr()
    verdicts = seen["channel._ucp_verdict"]
    assert verdicts and repeats(verdicts) == []


@pytest.mark.parametrize("case", INSTANCE_CASES.values(), ids=INSTANCE_CASES.keys())
def test_battery_decomposes_each_density_once(case):
    # sigma-hat and the Petz square roots are read from the spectra of the
    # two supports: one eigendecomposition per block of omega and of xi
    F, omega = case()
    with recording({"eigen": BUILDERS["linalg.hermitian_eigen"]}) as seen:
        analysis = battery(F, omega)
    dims = (*omega.algebra.block_dims, *analysis.xi.algebra.block_dims)
    assert sorted(seen["eigen"]) == sorted((d, d) for d in dims)


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_full_check_builds_each_extension_once(fixture, capsys):
    # bayes-existence and bridge (through bayes_inverse) read one extension,
    # built when the battery passes
    with recording() as seen:
        assert main(["check", str(fixture)]) == 0
    capsys.readouterr()
    problem = _fixture_problem(fixture.stem)
    passed = battery(problem["channel"], problem["state"]).passed
    assert len(seen["bayesinv._existence"]) == (1 if passed else 0)


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_full_check_decides_ac_and_determinism_once(fixture, capsys):
    # the AC verdict of the problem's pair, read by the battery, `ac` and
    # takesaki (b), and its determinism verdict, read by takesaki (c) and
    # `bridge`; a smaller corner is a new pair, whose corner battery decides
    # its own AC verdict and whose determinism takesaki (c) decides
    with recording() as seen:
        assert main(["check", str(fixture)]) == 0
    capsys.readouterr()
    own = fixture not in HOM_FIXTURES or fixture.stem in OWN_CORNER
    for label in ("modular._ac_algebraic", "channel._ae_deterministic"):
        assert len(seen[label]) == (1 if own else 2), label
        assert repeats(seen[label]) == [], label


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_ac_runs_its_algebraic_test_once(fixture, capsys):
    target = {"ac": (qbayes.modular, "ac_condition_algebraic", lambda *a: None)}
    with recording(target) as seen:
        assert main(["check", str(fixture), "--analyses", "ac"]) == 0
    calls = seen["ac"]
    report = json.loads(capsys.readouterr().out)["analyses"]["ac"]
    assert len(calls) == 1
    assert set(report) == {"verdict", "max_residual", "sampled_residual"}


@pytest.mark.parametrize("argv", [["check"], ["invert", "--mode", "disint"]])
def test_parsed_problem_dies_with_the_call(argv, monkeypatch, capsys, tmp_path):
    refs = []
    parse = qbayes.cli.problem_from_json
    build_corner = qbayes.modular._corner_map
    build_battery = qbayes.bayesinv._battery
    build_extension = qbayes.bayesinv._existence

    def parse_and_watch(*args):
        problem = parse(*args)
        refs.extend(weakref.ref(problem[k]) for k in ("state", "hom", "channel"))
        return problem

    def build_and_watch(*args):
        fields = build_corner(*args)
        # the channel and both states; a pair that is its own corner keeps
        # None in place of its state
        refs.extend(weakref.ref(f) for f in fields[:3] if f is not None)
        return fields

    def battery_and_watch(*args):
        fields = build_battery(*args)
        _, _, _, choi_A, choi_B = fields
        battery_refs.extend(weakref.ref(T) for T in [*choi_A.values(), *choi_B.values()])
        return fields

    def extension_and_watch(*args):
        result = build_extension(*args)
        arrays = [*result.trace_blocks.values()]
        arrays += [T for row in result.inverse.tensors for T in row]  # an inverse exists
        battery_refs.extend(weakref.ref(T) for T in arrays)
        return result

    battery_refs = []
    monkeypatch.setattr(qbayes.cli, "problem_from_json", parse_and_watch)
    monkeypatch.setattr(qbayes.modular, "_corner_map", build_and_watch)
    monkeypatch.setattr(qbayes.bayesinv, "_battery", battery_and_watch)
    monkeypatch.setattr(qbayes.bayesinv, "_existence", extension_and_watch)
    argv = [argv[0], str(FIXTURES / "multiblock_product.json")] + argv[1:]
    if argv[0] == "invert":
        argv += ["--out", str(tmp_path / "out.json")]
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        # reference counting alone frees them: the caches hold no cycle
        # the pair is its own corner: one corner map, holding the problem's
        # channel and the pulled-back state
        assert len(refs) == (5 if argv[0] == "check" else 3)
        # the problem's battery, which takesaki's corner battery reads, keeps
        # two Choi blocks per each of 2 x 2 block pairs; its extension keeps a
        # mass block per weighted source block and the inverse's 2 x 2 tensors
        assert len(battery_refs) == (14 if argv[0] == "check" else 0)
        refs += battery_refs
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
    capsys.readouterr()
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_two_calls_share_one_parser(monkeypatch, capsys):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def parse_and_record(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_and_record)
    for _ in range(2):
        assert main(["check", str(FIXTURES / "epr.json"), "--analyses", "ac"]) == 0
    capsys.readouterr()
    assert len(parsers) == 2 and parsers[0] is parsers[1]


# seeded generated problems: (dims, kind) for `qbayes random`, and one
# product state on a random multi-block hom
GENERATED = [
    (dims, kind) for dims in ("2->8", "3->9") for kind in ("product", "rankdef", "nonproduct")
] + [("2,1->3,2", "kraus"), ("2,1", "multiblock-hom")]


def _generated_problem(dims, kind, path) -> str:
    if kind == "multiblock-hom":
        rng = np.random.default_rng(8)
        h = random_hom(rng, [int(n) for n in dims.split(",")])
        problem = {
            "schema": PROBLEM_SCHEMA,
            "channel": hom_to_json(h),
            "state": state_to_json(product_state_for_hom(rng, h)),
        }
        path.write_text(canonical_dumps(problem))
    else:
        argv = ["random", "--dims", dims, "--kind", kind, "--seed", "8", "--out", str(path)]
        assert main(argv) == 0
    return str(path)


def _analyses(argv, capsys) -> dict:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["analyses"]


@pytest.mark.parametrize("dims, kind", GENERATED, ids=[f"{d}-{k}" for d, k in GENERATED])
def test_check_does_not_depend_on_analysis_order(dims, kind, capsys, tmp_path):
    # a kept corner map must not make one analysis depend on another having run
    path = _generated_problem(dims, kind, tmp_path / "problem.json")
    order = problem_from_json(loads(pathlib.Path(path).read_text()))["analyses"]
    full = canonical_dumps(_analyses(["check", path], capsys))
    union = {}
    for name in order:
        union.update(_analyses(["check", path, "--analyses", name], capsys))
    assert canonical_dumps(union) == full
    reverse = ",".join(reversed(order))
    assert canonical_dumps(_analyses(["check", path, "--analyses", reverse], capsys)) == full


def _fixture_problem(name: str) -> dict:
    return problem_from_json(loads((FIXTURES / f"{name}.json").read_text()))


def _right_map_cp_fails(monkeypatch):
    # every Choi block of Ad_P o G^R reads as indefinite, so right_map_cp
    # alone fails on an instance where the other six conditions pass
    monkeypatch.setattr(qbayes.bayesinv, "hermitian_floor", lambda choi: (-1.0, 1.0))


@pytest.mark.parametrize(
    "analyses",
    ["bayes-battery", "bayes-existence", "bridge", "bayes-battery,bayes-existence,bridge"],
)
def test_disagreeing_battery_alarms_every_reader(analyses, monkeypatch, capsys):
    _right_map_cp_fails(monkeypatch)
    assert main(["check", str(FIXTURES / "product.json"), "--analyses", analyses]) == 3
    assert "battery verdicts disagree" in capsys.readouterr().err


def test_broken_corner_route_exits_3(monkeypatch, capsys):
    # takesaki (c) reads the problem's battery, as the product fixture is its
    # own corner; a corner determinism test that answers wrongly must still
    # trip the [(a) and (b)] iff (c) alarm
    ae_deterministic = qbayes.disint.ae_deterministic
    monkeypatch.setattr(qbayes.disint, "ae_deterministic", lambda *a: not ae_deterministic(*a))
    assert main(["check", str(FIXTURES / "product.json"), "--analyses", "takesaki"]) == 3
    err = capsys.readouterr().err
    assert "corner hom+intertwining (True, True) disagrees" in err


def test_disagreeing_battery_raises_on_every_call(monkeypatch):
    _right_map_cp_fails(monkeypatch)
    problem = _fixture_problem("product")
    for _ in range(2):
        with pytest.raises(InternalInconsistency, match="battery verdicts disagree"):
            battery(problem["channel"], problem["state"])


def _kept_arrays(analysis) -> list:
    return [*analysis.choi_A.values(), *analysis.choi_B.values()]


def test_battery_is_kept_per_map_and_tolerance():
    h, omega = rankdef_product_instance()
    maps = (from_hom(h), identity_channel(h.target))
    tols = (DEFAULT_TOL, Tolerances(eps_rank=1e-7, eps_eq=1e-6))
    cases = [(k, tol) for k in range(2) for tol in tols]
    with recording() as seen:
        kept = [battery(maps[k], omega, tol) for k, tol in cases + cases]
    assert len(seen["bayesinv._battery"]) == 4
    for (k, tol), first, again in zip(cases, kept, kept[4:]):
        assert again.choi_A is first.choi_A and again.conditions is first.conditions
        # the same outcome as on fresh copies of the map and state, which share nothing
        h_fresh, omega_fresh = rankdef_product_instance()
        fresh_map = (from_hom(h_fresh), identity_channel(h_fresh.target))[k]
        unshared = battery(fresh_map, omega_fresh, tol)
        assert first.conditions == unshared.conditions
        assert first.passed == unshared.passed
        assert first.choi_A.keys() == unshared.choi_A.keys()
        assert first.choi_B.keys() == unshared.choi_B.keys()
        pairs = zip(_kept_arrays(first), _kept_arrays(unshared), strict=True)
        assert all(np.array_equal(a, b) for a, b in pairs)


def test_results_are_keyed_by_the_map_itself():
    # a HomSpec is keyed by value, so an equal hom reads the kept certificate;
    # a LinearMap by identity, so the equal channel of the twin has its own battery
    h, omega = product_instance()
    twin = HomSpec(h.source, h.target, h.multiplicities)
    with recording() as seen:
        first, again = factorize(h, omega), factorize(twin, omega)
        battery(from_hom(h), omega)
        battery(from_hom(twin), omega)
    assert len(seen["disint._factorize"]) == 1
    assert again.hom is twin and again.tau is first.tau
    assert len(seen["bayesinv._battery"]) == 2


def test_kept_battery_is_read_only(capsys, tmp_path):
    h, omega = rankdef_product_instance()
    F = from_hom(h)
    analysis = battery(F, omega)
    assert analysis.passed
    assert not any(T.flags.writeable for T in _kept_arrays(analysis))
    # the readers of the kept arrays write to none of them
    assert existence(analysis).exists
    report = compositionality_check(F, from_hom(inclusion_hom(1, 2)), omega)
    assert report.composite_ok and report.second_inverse_ok and report.uniqueness_ae_ok
    out = str(tmp_path / "inverse.json")
    argv = ["invert", str(FIXTURES / "rankdef_product.json"), "--mode", "bayes", "--out", out]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["analyses"]["invert"]["exists"] is True


def test_extension_is_kept_at_the_battery_tolerance():
    h, omega = rankdef_product_instance()
    F = from_hom(h)
    analysis = battery(F, omega)
    with recording() as seen:
        first = existence(analysis)
        assert existence(analysis) is first
        assert bayes_inverse(F, omega)[3] is first
    assert len(seen["bayesinv._existence"]) == 1
    # a battery at another tolerance has its own extension
    tol = Tolerances(eps_rank=1e-7, eps_eq=1e-6)
    assert existence(battery(F, omega, tol)) is not first


@pytest.mark.parametrize("name", ["rankdef_product", "battery_pass_no_inverse"])
def test_kept_extension_is_read_only(name):
    problem = _fixture_problem(name)
    result = existence(battery(problem["channel"], problem["state"]))
    arrays = list(result.trace_blocks.values())
    if result.inverse is not None:
        arrays += [T for row in result.inverse.tensors for T in row]
    assert arrays and not any(T.flags.writeable for T in arrays)


def test_expectation_is_composed_only_when_read():
    h, omega = product_instance()
    with recording({"compose": (qbayes.disint, "compose", lambda F, G: None)}) as seen:
        composed = seen["compose"]
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
