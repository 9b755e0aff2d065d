"""Every name that the benchmark tracer wraps still resolves.

`bench/run.py --trace 1` reports per-function metrics through
`bench/tracer.py`, which wraps each name in its `TRACED` table: a module
attribute, or a method found in its class `__dict__`. The table is read
from the source, so the tracer is neither imported nor edited.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names():
    tree = ast.parse(TRACER.read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    return [
        (module, name) for module, names in ast.literal_eval(table).items() for name in names
    ]


NAMES = traced_names()


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_traced_name_resolves(module, name):
    home = importlib.import_module(f"qbayes.{module}")
    if "." in name:
        class_name, method = name.split(".")
        assert method in vars(getattr(home, class_name))
    else:
        assert callable(getattr(home, name))
