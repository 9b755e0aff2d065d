"""Every map's factor is read through one accessor.

A map's signed factor (L, N) is the map's `kraus` and `negative` fields,
or the one read from its Choi blocks for a map that carries none, and
`channel._factor` is the one way to reach it. So outside channel.py no code
reads `kraus` or `negative` from a map, as an attribute or through
`getattr`, and inside channel.py only the functions below do, each for the
reason given. A factor that no longer matches the map's tensors cannot
yield an inverse: the checks against the tensors stop it.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import qbayes
import qbayes.cli
from qbayes.channel import _factor
from qbayes.cli import main
from qbayes.linalg import DEFAULT_TOL

from conftest import FIXTURES

FACTOR_NAMES = {"kraus", "negative"}

ALLOWED = {
    ("channel.py", "__init__"): "the LinearMap constructor stores the factor it is given",
    ("channel.py", "from_choi"): "stores the factor read from the channel's Choi blocks",
    ("channel.py", "_factor"): "the one accessor",
}


def factor_reads():
    """(file, enclosing function, name, line) of every access to a map's
    `kraus` or `negative`, as an attribute or by `getattr` (`hasattr`,
    `setattr`); code outside any function reads as None."""
    found = []
    for path in sorted(Path(qbayes.__file__).parent.glob("*.py")):

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            name = None
            # numpy's own `np.negative` is not a map's field
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) != "np":
                name = node.attr
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr", "setattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                name = node.args[1].value
            if name in FACTOR_NAMES:
                found.append((path.name, function, name, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_the_factor_is_read_only_through_the_accessor():
    found = factor_reads()
    stray = [
        f"{name}:{line} {function}() reads {what}"
        for name, function, what, line in found
        if (name, function) not in ALLOWED
    ]
    assert not stray, "factor read outside the accessor: " + ", ".join(stray)
    # each allowed site still reads the factor, so the list names no dead entry
    assert {(name, function) for name, function, _, _ in found} == set(ALLOWED)


BREAKS = {
    # a factor of the map (1 + 1e-3)^2 F, consistent in itself
    "scaled": lambda K, rng: K * (1 + 1e-3),
    "random": lambda K, rng: K + 1e-3 * (rng.standard_normal(K.shape)
                                         + 1j * rng.standard_normal(K.shape)),
}


@pytest.mark.parametrize("brk", BREAKS)
@pytest.mark.parametrize("fixture", ["product", "rankdef_product", "nonsubalgebra_pure"])
def test_a_broken_factor_yields_no_inverse(fixture, brk, monkeypatch, capsys):
    # the factor is perturbed after the parse and the tensors are left alone:
    # the battery, the Bayes maps and the extension read the broken factor,
    # and the checks against the tensors (the corner map's certificate, the
    # pairings of `left_right_bayes` and `verify_bayes`) stop a full check
    # before it reports an inverse. Without the certificate and
    # `verify_bayes`, the scaled factor of `product` and `rankdef_product`
    # exits 0 with an inverse
    parse = qbayes.cli.problem_from_json
    rng = np.random.default_rng(0)

    def parse_and_break(*args):
        problem = parse(*args)
        F = problem["channel"]
        F.kraus = [[BREAKS[brk](K, rng) for K in row] for row in _factor(F, DEFAULT_TOL)[0]]
        return problem

    monkeypatch.setattr(qbayes.cli, "problem_from_json", parse_and_break)
    code = main(["check", str(FIXTURES / f"{fixture}.json")])
    out = capsys.readouterr().out
    assert code != 0 or not json.loads(out)["analyses"]["bayes-existence"]["exists"]
