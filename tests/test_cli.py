import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from qbayes.cli import main
from qbayes.errors import SchemaError
from qbayes.jsonio import (
    PROBLEM_SCHEMA,
    canonical_dumps,
    hom_to_json,
    loads,
    problem_from_json,
    state_to_json,
)
from qbayes.linalg import Tolerances

from conftest import FIXTURES, two_cutoff_instance

ALL_FIXTURES = sorted(FIXTURES.glob("*.json"))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(report_text: str) -> dict:
    report = json.loads(report_text)
    report.pop("timing", None)
    return report


def test_check_product(capsys, tmp_path):
    code, out, err = run_cli(["check", str(FIXTURES / "product.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "qbayes-report/1"
    a = report["analyses"]
    assert a["ac"]["verdict"] is True
    assert a["disintegrate"]["exists"] is True
    assert a["bayes-existence"]["exists"] is True
    assert a["bridge"]["consistent"] is True


def test_check_epr_verdicts(capsys):
    code, out, _ = run_cli(["check", str(FIXTURES / "epr.json")], capsys)
    assert code == 0
    a = json.loads(out)["analyses"]
    assert a["ac"]["verdict"] is True
    assert a["takesaki"]["corner_hom"] is False
    assert a["disintegrate"]["exists"] is False
    assert a["condexp"]["exists"] is False


@pytest.mark.parametrize(
    "analysis, verdict",
    [("bayes-battery", "passed"), ("bayes-existence", "exists"), ("bridge", "consistent")],
)
def test_check_two_cutoff_identity_inverts_itself(analysis, verdict, tmp_path, capsys):
    # block 1 holds a weighted eigenvalue between the global rank cutoff and
    # the block's own: the identity still inverts itself, with no alarm
    h, omega = two_cutoff_instance()
    path = tmp_path / "problem.json"
    path.write_text(canonical_dumps(
        {"schema": PROBLEM_SCHEMA, "channel": hom_to_json(h), "state": state_to_json(omega)}
    ))
    code, out, err = run_cli(["check", str(path), "--analyses", analysis], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["analyses"][analysis][verdict] is True


def test_check_subset_of_analyses(capsys):
    code, out, _ = run_cli(
        ["check", str(FIXTURES / "epr.json"), "--analyses", "ac,takesaki"], capsys
    )
    assert code == 0
    a = json.loads(out)["analyses"]
    assert set(a.keys()) == {"ac", "takesaki"}


def test_check_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert "line" in err and "column" in err


def _utf16_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")  # a UTF-16 byte-order mark, no UTF-8 text
    return ["check", str(path)], path


@pytest.mark.parametrize(
    "case",
    [
        lambda tmp_path: (["check", str(tmp_path)], tmp_path),
        _utf16_file,
        lambda tmp_path: (["invert", str(FIXTURES / "product.json"), "--mode", "bayes",
                           "--out", str(tmp_path)], tmp_path),
        lambda tmp_path: (["random", "--dims", "2->4", "--kind", "product", "--seed", "1",
                           "--out", str(tmp_path)], tmp_path),
    ],
    ids=["check-directory", "check-not-utf8", "invert-out-directory", "random-out-directory"],
)
def test_unusable_paths_fail_closed(tmp_path, capsys, case):
    argv, path = case(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and str(path) in err
    assert out == ""


def test_missing_problem_file_fails_closed(tmp_path, capsys):
    path = tmp_path / "missing.json"
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and str(path) in err


def test_check_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "qbayes-problem/1", "channel": {"kind": "nope"}}))
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert "kind" in err


def test_check_hom_only_analysis_on_choi_channel(capsys):
    code, out, err = run_cli(
        ["check", str(FIXTURES / "nonsubalgebra_pure.json"), "--analyses", "takesaki"],
        capsys,
    )
    assert code == 2
    assert "hom" in err


def test_pretty_output(capsys):
    code, out, _ = run_cli(["check", str(FIXTURES / "product.json"), "--pretty"], capsys)
    assert code == 0
    assert "[disintegrate]" in out


def test_pretty_output_prints_matrices_as_lists(capsys):
    # the recovery channel's Choi blocks print as Python lists of floats
    code, out, _ = run_cli(["check", str(FIXTURES / "product.json"), "--pretty"], capsys)
    assert code == 0
    report = json.loads(run_cli(["check", str(FIXTURES / "product.json")], capsys)[1])
    blocks = report["analyses"]["disintegrate"]["recovery"]["blocks"]
    assert f"    blocks: {blocks}\n" in out
    assert "array(" not in out


@pytest.mark.parametrize("analyses", [None, "condexp,ac", "bayes-battery"])
def test_check_times_each_analysis(capsys, analyses):
    flags = [] if analyses is None else ["--analyses", analyses]
    code, out, _ = run_cli(["check", str(FIXTURES / "product.json")] + flags, capsys)
    assert code == 0
    report = json.loads(out)
    seconds = report["timing"]["analyses"]
    assert set(seconds) == set(report["analyses"])
    if analyses is not None:
        assert set(seconds) == set(analyses.split(","))
    assert all(math.isfinite(s) and s >= 0 for s in seconds.values())
    assert math.isfinite(report["timing"]["seconds"])


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.stem)
def test_full_check_is_union_of_single_analyses(fixture, capsys):
    # analyses run together report exactly what each reports alone
    _, out, _ = run_cli(["check", str(fixture)], capsys)
    full = json.loads(out)["analyses"]
    union = {}
    for name in full:
        code, out, _ = run_cli(["check", str(fixture), "--analyses", name], capsys)
        assert code == 0
        union.update(json.loads(out)["analyses"])
    assert canonical_dumps(union) == canonical_dumps(full)


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.stem)
def test_determinism_across_runs(fixture, capsys):
    _, out1, _ = run_cli(["check", str(fixture)], capsys)
    _, out2, _ = run_cli(["check", str(fixture)], capsys)
    assert strip_timing(out1) == strip_timing(out2)
    assert canonical_dumps(strip_timing(out1)) == canonical_dumps(strip_timing(out2))


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.stem)
def test_fixture_round_trip(fixture):
    text = fixture.read_text()
    data = loads(text)
    problem = problem_from_json(data)  # parse
    # serialize the channel and state back and reparse
    from qbayes.jsonio import channel_to_json, state_to_json

    reserialized = {
        "schema": "qbayes-problem/1",
        "channel": channel_to_json(problem["channel"]),
        "state": state_to_json(problem["state"]),
    }
    reparsed = problem_from_json(loads(canonical_dumps(reserialized)))
    for x in range(problem["channel"].target.n_blocks):
        for y in range(problem["channel"].source.n_blocks):
            np.testing.assert_array_equal(
                problem["channel"].tensors[x][y], reparsed["channel"].tensors[x][y]
            )
    for x, rho in enumerate(problem["state"].densities):
        if rho is None:
            assert reparsed["state"].densities[x] is None
        else:
            np.testing.assert_array_equal(rho, reparsed["state"].densities[x])


def test_invert_bayes_round_trip(tmp_path, capsys):
    out_path = tmp_path / "inverse.json"
    code, out, _ = run_cli(
        ["invert", str(FIXTURES / "product.json"), "--mode", "bayes", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    entry = json.loads(out)["analyses"]["invert"]
    assert entry["exists"] is True
    assert out_path.exists()
    residual1 = entry["pairing_residual"]

    # verify the written channel reproduces the residual bit-for-bit
    from qbayes.bayesinv import verify_bayes
    from qbayes.jsonio import channel_from_json

    problem = problem_from_json(loads((FIXTURES / "product.json").read_text()))
    written, _ = channel_from_json(loads(out_path.read_text()), "channel")
    report = verify_bayes(problem["channel"], written, problem["state"])
    assert report.pairing.residual == residual1


def test_invert_disint_epr_no_file(tmp_path, capsys):
    out_path = tmp_path / "never.json"
    code, out, _ = run_cli(
        ["invert", str(FIXTURES / "epr.json"), "--mode", "disint", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    entry = json.loads(out)["analyses"]["invert"]
    assert entry["exists"] is False
    assert not out_path.exists()


def test_invert_disint_product(tmp_path, capsys):
    out_path = tmp_path / "recovery.json"
    code, out, _ = run_cli(
        ["invert", str(FIXTURES / "product.json"), "--mode", "disint", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out_path.exists()
    from qbayes.disint import verify_disintegration
    from qbayes.jsonio import channel_from_json

    problem = problem_from_json(loads((FIXTURES / "product.json").read_text()))
    written, _ = channel_from_json(loads(out_path.read_text()), "channel")
    assert verify_disintegration(problem["channel"], written, problem["state"]).ok


def test_random_deterministic_per_seed(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            ["random", "--dims", "2->4", "--kind", "product", "--seed", "42",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_random_generator_contracts(tmp_path, capsys):
    from qbayes.disint import factorize
    from qbayes.state import support

    prod = tmp_path / "prod.json"
    run_cli(["random", "--dims", "2->4", "--kind", "product", "--seed", "7",
             "--out", str(prod)], capsys)
    problem = problem_from_json(loads(prod.read_text()))
    assert factorize(problem["hom"], problem["state"]).ok

    nonprod = tmp_path / "nonprod.json"
    run_cli(["random", "--dims", "2->4", "--kind", "nonproduct", "--seed", "7",
             "--out", str(nonprod)], capsys)
    problem = problem_from_json(loads(nonprod.read_text()))
    assert not factorize(problem["hom"], problem["state"]).ok

    rankdef = tmp_path / "rankdef.json"
    run_cli(["random", "--dims", "2->4", "--kind", "rankdef", "--seed", "7",
             "--out", str(rankdef)], capsys)
    problem = problem_from_json(loads(rankdef.read_text()))
    sup = support(problem["state"])
    full = sum(d * d for d in problem["state"].algebra.block_dims)
    corner = sum(d * d for d in sup.corner_algebra.block_dims)
    assert corner < full

    kraus = tmp_path / "kraus.json"
    run_cli(["random", "--dims", "2,2->3", "--kind", "kraus", "--seed", "7",
             "--out", str(kraus)], capsys)
    problem = problem_from_json(loads(kraus.read_text()))
    from qbayes.channel import is_ucp

    assert is_ucp(problem["channel"])


def test_random_check_pipeline(tmp_path, capsys):
    path = tmp_path / "p.json"
    run_cli(["random", "--dims", "2->4", "--kind", "product", "--seed", "3",
             "--out", str(path)], capsys)
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["analyses"]["disintegrate"]["exists"] is True


def test_random_kraus_more_outputs_than_operators(tmp_path, capsys):
    # 3 -> 12 needs four Kraus operators for sum_k K_k K_k^* to be invertible
    path = tmp_path / "kraus.json"
    code, _, _ = run_cli(["random", "--dims", "3->12", "--kind", "kraus", "--seed", "1",
                          "--out", str(path)], capsys)
    assert code == 0
    text = path.read_text()
    assert "NaN" not in text and "Infinity" not in text
    problem = problem_from_json(loads(text))
    from qbayes.channel import is_ucp

    assert is_ucp(problem["channel"])


@pytest.mark.parametrize(
    "tolerances, flags, env, code, named",
    [
        ({"eps_eq": 5}, [], None, 2, "problem.tolerances.eps_eq"),
        ({"eps_rank": "abc"}, [], None, 2, "problem.tolerances.eps_rank"),
        ({"eps_eq": [1e-9]}, [], None, 2, "problem.tolerances.eps_eq"),
        ({}, ["--eps-eq", "5"], None, 2, "--eps-eq"),
        ({}, ["--eps-rank", "0"], None, 2, "--eps-rank"),
        ({}, [], "abc", 0, None),
        ({}, [], "5", 0, None),
        ({"eps_eq": 5}, ["--eps-eq", "1e-9"], None, 0, None),
        ({"eps_eq": 1e-9}, [], "abc", 0, None),
        # an entry that no rule reads, and a value that is not a JSON number,
        # are refused even where a flag would win
        ({"eps_rnak": 1e-3}, [], None, 2, "problem.tolerances.eps_rnak"),
        ({"eps_recon": 1e-3}, [], None, 2, "problem.tolerances.eps_recon"),
        ({"eps_eq": "1e-6"}, [], None, 2, "problem.tolerances.eps_eq"),
        ({"eps_eq": "1e-6"}, ["--eps-eq", "1e-9"], None, 2, "problem.tolerances.eps_eq"),
        ({"eps_rank": True}, ["--eps-rank", "1e-9"], None, 2, "problem.tolerances.eps_rank"),
        ({"eps_eq": None}, [], None, 2, "problem.tolerances.eps_eq"),
    ],
)
def test_tolerances_fail_closed(
    tmp_path, capsys, monkeypatch, tolerances, flags, env, code, named
):
    # the flag wins over the problem file; QBAYES_EPS_EQ is not read
    data = json.loads((FIXTURES / "product.json").read_text())
    data["tolerances"] = tolerances
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    if env is None:
        monkeypatch.delenv("QBAYES_EPS_EQ", raising=False)
    else:
        monkeypatch.setenv("QBAYES_EPS_EQ", env)
    got, out, err = run_cli(["check", str(path), "--analyses", "ac"] + flags, capsys)
    assert got == code
    if named is not None:
        assert err.startswith(f"error: {named}: ")
    else:
        eps_eq = float(flags[1]) if flags[:1] == ["--eps-eq"] else tolerances.get("eps_eq", Tolerances().eps_eq)
        assert json.loads(out)["tolerances"]["eps_eq"] == eps_eq


def _scaled_choi(factor):
    def edit(data):
        blocks = data["channel"]["blocks"]
        data["channel"]["blocks"] = [
            [[[factor * re, factor * im] for re, im in C] for C in row] for row in blocks
        ]
    return edit


def _kraus_identity(scale):
    # the identity channel on the problem's target algebra, Kraus operators
    # scaled; the file's hom-only analyses go with the hom
    def edit(data):
        data.pop("analyses", None)
        dims = data["channel"]["target"]["blocks"]
        eye = lambda d: [[scale * (r == c), 0.0] for r in range(d) for c in range(d)]
        data["channel"] = {
            "kind": "kraus",
            "source": {"blocks": dims},
            "target": {"blocks": dims},
            "ops": [[[eye(d)] if x == y else [] for y in range(len(dims))]
                    for x, d in enumerate(dims)],
        }
    return edit


def _density_diagonal(*diag):
    # a diagonal density for the product fixture's 4 x 4 target block
    def edit(data):
        d = len(diag)
        data["state"]["densities"][0] = [
            [diag[r] if r == c else 0.0, 0.0] for r in range(d) for c in range(d)
        ]
    return edit


def _set_entry(path, value):
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _analyses_flag(text):
    # leaves the file as it is and passes text as --analyses
    return lambda data: text


def _kraus_ops(ops):
    # the identity channel in Kraus form, its ops field replaced by ops
    def edit(data):
        _kraus_identity(1.0)(data)
        data["channel"]["ops"] = ops
    return edit


@pytest.mark.parametrize(
    "fixture, edit, code, named",
    [
        ("product", _set_entry(["state", "densities", 0, 0], ["x", 0]), 2,
         "problem.state.densities[0][0]"),
        ("product", _set_entry(["state", "densities", 0, 1], [0.0, True]), 2,
         "problem.state.densities[0][1]"),
        ("product", _set_entry(["state", "densities", 0, 2], [float("nan"), 0.0]), 2,
         "problem.state.densities[0][2]"),
        ("product", _set_entry(["state", "densities", 0, 0], [float("inf"), 0.0]), 2,
         "problem.state.densities[0][0]"),
        ("battery_pass_no_inverse",
         _set_entry(["channel", "blocks", 0, 0, 3], [float("-inf"), 0.0]), 2,
         "problem.channel.blocks[0][0][3]"),
        ("battery_pass_no_inverse", _scaled_choi(2.0), 2, "problem.channel"),
        ("battery_pass_no_inverse", _scaled_choi(-1.0), 2, "problem.channel"),
        ("battery_pass_no_inverse", _scaled_choi(1.0), 0, None),
        ("product", _kraus_identity(2.0), 2, "problem.channel"),
        ("product", _kraus_identity(1.0), 0, None),
        ("product", _density_diagonal(0.48, 0.12, 0.42, -0.02), 2,
         "problem.state.densities[0]"),
        ("product", _density_diagonal(0.6, 0.0, 0.4, 0.0), 0, None),
        ("product", _analyses_flag(","), 2, "--analyses"),
        ("product", _analyses_flag(" "), 2, "--analyses"),
        ("product", _analyses_flag(""), 2, "--analyses"),
        ("product", _set_entry(["analyses"], []), 2, "problem.analyses"),
        ("product", _set_entry(["analyses"], {"ac": 1}), 2, "problem.analyses"),
        ("product", _set_entry(["analyses"], "ac"), 2, "problem.analyses"),
        # json reads NaN and Infinity as numbers; the weight checks must fail on them
        ("product", _set_entry(["state", "weights"], [float("nan")]), 2, "problem.state"),
        ("product", _set_entry(["state", "weights"], [float("inf"), float("-inf")]), 2,
         "problem.state"),
        ("multiblock_product", _set_entry(["state", "weights"], [1.0, float("nan")]), 2,
         "problem.state"),
        # a field that must be a list, given as a number or a list of the wrong shape
        ("product", _set_entry(["state", "weights"], 5), 2, "problem.state.weights"),
        ("product", _set_entry(["state", "densities"], 5), 2, "problem.state.densities"),
        ("product", lambda data: data["state"]["densities"].append(None), 2,
         "problem.state.densities"),
        ("battery_pass_no_inverse", _set_entry(["channel", "blocks"], 3), 2,
         "problem.channel.blocks"),
        ("battery_pass_no_inverse", _set_entry(["channel", "blocks", 0], 3), 2,
         "problem.channel.blocks[0]"),
        ("product", _kraus_ops(3), 2, "problem.channel.ops"),
        ("product", _kraus_ops([3]), 2, "problem.channel.ops[0]"),
        ("product", _kraus_ops([[3]]), 2, "problem.channel.ops[0][0]"),
        ("product", _kraus_ops([]), 2, "problem.channel.ops"),
        ("product", _kraus_ops([[[[[1.0, 0.0]] * 16, [[1.0, 0.0]]]]]), 2,
         "problem.channel.ops[0][0][1]"),
        # integers and weights by JSON type: a float, a string or a bool is refused
        ("product", _set_entry(["channel", "source", "blocks"], [2.7]), 2,
         "problem.channel.source.blocks[0]"),
        ("product", _set_entry(["channel", "source", "blocks"], ["2"]), 2,
         "problem.channel.source.blocks[0]"),
        ("product", _set_entry(["channel", "source", "blocks"], [True]), 2,
         "problem.channel.source.blocks[0]"),
        ("product", _set_entry(["channel", "mult"], [[2.9]]), 2, "problem.channel.mult[0][0]"),
        ("product", _set_entry(["channel", "mult"], [["2"]]), 2, "problem.channel.mult[0][0]"),
        ("product", _set_entry(["channel", "mult"], [2]), 2, "problem.channel.mult[0]"),
        ("product", _set_entry(["state", "weights"], ["1.0"]), 2, "problem.state.weights[0]"),
        ("product", _set_entry(["state", "weights"], [True]), 2, "problem.state.weights[0]"),
    ],
    ids=["string", "bool", "nan", "inf-density", "inf-choi", "choi-x2", "choi-negated",
         "choi-as-is", "kraus-x2", "kraus-as-is", "density-not-psd", "density-rank-deficient",
         "analyses-flag-comma", "analyses-flag-blank", "analyses-flag-empty",
         "analyses-empty", "analyses-object", "analyses-string",
         "weights-nan", "weights-inf", "weights-nan-second-block",
         "weights-number", "densities-number", "densities-too-many", "choi-blocks-number",
         "choi-row-number", "kraus-ops-number", "kraus-row-number", "kraus-entry-number",
         "kraus-ops-empty", "kraus-op-short", "blocks-float", "blocks-string", "blocks-bool",
         "mult-float", "mult-string", "mult-row-number", "weights-string", "weights-bool"],
)
def test_malformed_input_fails_closed(tmp_path, capsys, fixture, edit, code, named):
    data = json.loads((FIXTURES / f"{fixture}.json").read_text())
    analyses = edit(data)
    if analyses is None:
        analyses = "bayes-battery"
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    got, _, err = run_cli(["check", str(path), "--analyses", analyses], capsys)
    assert got == code
    if named is not None:
        assert err.startswith(f"error: {named}: ")
    if named in ("--analyses", "problem.analyses"):
        assert "expected a non-empty list of analysis names" in err


@pytest.mark.parametrize(
    "fixture, edit, named",
    [("product", _kraus_identity(2.0), "unitality"),
     ("battery_pass_no_inverse", _scaled_choi(-1.0), "complete positivity in block (0, 0)")],
    ids=["kraus-not-unital", "choi-not-cp"],
)
def test_ucp_refusal_names_only_the_failing_part(tmp_path, capsys, fixture, edit, named):
    # the identity with Kraus operator 2: CP, so only unitality is named; a
    # negated Choi block is not CP, and its unit image -1 is not unital either
    data = json.loads((FIXTURES / f"{fixture}.json").read_text())
    edit(data)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(["check", str(path), "--analyses", "bayes-battery"], capsys)
    assert code == 2
    number = r"\d\.\d{3}e[+-]\d{2}"
    assert re.fullmatch(
        rf"error: problem\.channel: channel is not UCP: {re.escape(named)} {number} > {number}"
        rf"(, unitality {number} > {number})?\n",
        err,
    )
    assert err.count("unitality") == 1
    if named == "unitality":
        assert "complete positivity" not in err


@pytest.mark.parametrize("analysis", ["ac", "takesaki", "bayes-battery", "disintegrate"])
def test_density_below_the_run_psd_bound_fails_closed(tmp_path, capsys, analysis):
    # -5e-10 passes the PSD bound at the default eps_rank, not at 1e-11: every
    # analysis refuses the density before it runs, and names its field
    density = [[1.0 + 5e-10, 0.0], [0.0, 0.0], [0.0, 0.0], [-5e-10, 0.0]]
    problem = {
        "schema": "qbayes-problem/1",
        "channel": {"kind": "hom", "source": {"blocks": [2]}, "target": {"blocks": [2]},
                    "mult": [[1]]},
        "state": {"weights": [1.0], "densities": [density]},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    argv = ["check", str(path), "--analyses", analysis]
    assert run_cli(argv, capsys)[0] == 0
    code, _, err = run_cli(argv + ["--eps-rank", "1e-11"], capsys)
    assert code == 2
    assert err.startswith("error: problem.state.densities[0]: ")


@pytest.mark.parametrize("entry", ["weights", "densities"])
def test_state_normalization_is_judged_at_the_run_tolerances(tmp_path, capsys, entry):
    # weights summing to, or a density of trace, 1 + 1e-6 break eps_eq at its
    # default 1e-8 and pass at 1e-4
    data = json.loads((FIXTURES / "product.json").read_text())
    state = data["state"]
    if entry == "weights":
        state["weights"] = [p * (1 + 1e-6) for p in state["weights"]]
    else:
        rho = state["densities"][0]
        state["densities"][0] = [[re * (1 + 1e-6), im * (1 + 1e-6)] for re, im in rho]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2 and err.startswith("error: problem.state: ")
    code, out, _ = run_cli(["check", str(path), "--eps-eq", "1e-4"], capsys)
    assert code == 0
    assert json.loads(out)["analyses"]["bayes-battery"]["passed"] is True


def test_density_hermiticity_is_judged_at_the_run_tolerances(tmp_path, capsys):
    # an imaginary 1e-7 on one off-diagonal entry of product's density breaks
    # Hermiticity at the default eps_eq of 1e-8, and the state is read at 1e-5
    data = json.loads((FIXTURES / "product.json").read_text())
    data["state"]["densities"][0][1][1] += 1e-7  # entry [0, 1] of the 4 x 4 density
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: problem.state.densities[0]: density in block 0 is not Hermitian")
    with pytest.raises(SchemaError, match=r"^problem\.state\.densities\[0\]: "):
        problem_from_json(data)
    rho = problem_from_json(data, Tolerances(eps_eq=1e-5))["state"].densities[0]
    assert rho[0, 1] == 0.0 + 1e-7j and rho[1, 0] == 0.0


@pytest.mark.parametrize("wider", ["flag", "file"])
@pytest.mark.parametrize(
    "fixture, edit",
    [
        ("product", _kraus_identity(1 + 1e-7)),
        ("battery_pass_no_inverse", _scaled_choi(1 + 1e-7)),
        ("nonsubalgebra_pure", _scaled_choi(1 + 1e-7)),
    ],
    ids=["kraus", "choi-battery-pass-no-inverse", "choi-nonsubalgebra-pure"],
)
def test_channel_is_judged_ucp_at_the_run_tolerances(tmp_path, capsys, fixture, edit, wider):
    # a channel scaled by 1 + 1e-7 misses unitality by a few 1e-7 (4.0e-7 for
    # the Kraus identity on M_4): refused at the default eps_eq of 1e-8, and
    # accepted at 1e-5, given by the flag or by the problem file
    data = json.loads((FIXTURES / f"{fixture}.json").read_text())
    edit(data)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2 and err.startswith("error: problem.channel: channel is not UCP")
    argv = ["check", str(path)]
    if wider == "flag":
        argv += ["--eps-eq", "1e-5"]
    else:
        data["tolerances"] = {"eps_eq": 1e-5}
        path.write_text(json.dumps(data))
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["analyses"]["bayes-battery"]["passed"] is True


def test_eps_env_override(capsys, monkeypatch):
    # the variable QBAYES_EPS_EQ no longer overrides the eps_eq default
    monkeypatch.setenv("QBAYES_EPS_EQ", "1e-6")
    code, out, _ = run_cli(["check", str(FIXTURES / "product.json"),
                            "--analyses", "ac"], capsys)
    assert code == 0
    assert json.loads(out)["tolerances"]["eps_eq"] == Tolerances().eps_eq


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qbayes.cli", "check", str(FIXTURES / "product.json"),
         "--analyses", "ac"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["analyses"]["ac"]["verdict"] is True
