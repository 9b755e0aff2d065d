"""No block-tensor contraction in the library runs through np.einsum.

Without a path search, np.einsum contracts in its own loops rather than
BLAS; every contraction of a block tensor with a matrix is written as a
matrix product on a reshaped view instead. The subscripts below are the
only ones left, each for the reason given.
"""

import ast
from pathlib import Path

import qbayes

ALLOWED = {
    ("linalg.py", "iaib->ab"): "partial_trace_left, the reference partial trace",
    ("linalg.py", "iaja->ij"): "partial_trace_right, the reference partial trace",
    ("channel.py", "iajb,ij->ab"): "LinearMap.apply, the per-element reference the tests use",
}


def einsum_subscripts():
    """(file, subscripts, line) of every einsum call in the package; a
    subscript that is not a string literal reads as None."""
    found = []
    for path in sorted(Path(qbayes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "einsum":
                continue
            first = node.args[0] if node.args else None
            subscripts = first.value if isinstance(first, ast.Constant) else None
            found.append((path.name, subscripts, node.lineno))
    return found


def test_only_allowlisted_einsum_calls_remain():
    found = einsum_subscripts()
    stray = [f"{name}:{line} {subs!r}" for name, subs, line in found if (name, subs) not in ALLOWED]
    assert not stray, "np.einsum outside the allowlist: " + ", ".join(stray)
    # each allowed subscript is still used, so the list names no dead entry
    assert {(name, subs) for name, subs, _ in found} == set(ALLOWED)
