"""Every tolerance rule is written once, in linalg.

A residual or an eigenvalue is judged by a rule of `Tolerances` (`close`,
`psd`, `support_psd`, `nullspace`, `rank_cutoff`), each of which returns
or builds a `Verdict` threshold. So outside linalg.py no code reads
eps_eq, eps_rank or ABS_FLOOR, except the functions below, each for the
reason given.
"""

import ast
from pathlib import Path

import qbayes

TOLERANCE_NAMES = {"eps_eq", "eps_rank", "ABS_FLOOR"}

ALLOWED = {
    ("cli.py", "_report"): "prints the tolerances a run used in its report",
}


def tolerance_reads():
    """(file, enclosing function, name, line) of every read of a tolerance
    outside linalg.py; code outside any function reads as None."""
    found = []
    for path in sorted(Path(qbayes.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            name = None
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            if name in TOLERANCE_NAMES:
                found.append((path.name, function, name, getattr(node, "lineno", 0)))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_tolerances_are_read_only_through_the_rules():
    found = tolerance_reads()
    stray = [
        f"{name}:{line} {function}() reads {what}"
        for name, function, what, line in found
        if (name, function) not in ALLOWED
    ]
    assert not stray, "tolerance read outside the rules: " + ", ".join(stray)
    # each allowed site still reads a tolerance, so the list names no dead entry
    assert {(name, function) for name, function, _, _ in found} == set(ALLOWED)
