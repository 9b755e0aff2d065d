"""Every map's factor is read through one accessor.

A map's signed factor (L, N) is the channel's `kraus` and `negative` fields,
or the one read from its Choi blocks for a map that carries none, and
`channel._factor` is the one way to reach it. So outside channel.py no code
reads `kraus` or `negative` from a map, as an attribute or through
`getattr`, and inside channel.py only the functions below do, each for the
reason given.
"""

import ast
from pathlib import Path

import qbayes

FACTOR_NAMES = {"kraus", "negative"}

ALLOWED = {
    ("channel.py", "__init__"): "the Channel constructor stores the factor it is given",
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
