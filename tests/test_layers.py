"""The modules of `qbayes` form layers: each imports only from the modules
below it, function-local imports included, so that no import cycle can form."""

import ast
from pathlib import Path

import pytest

import qbayes

LAYERS = (
    "errors",
    "linalg",
    "algebra",
    "state",
    "channel",
    "modular",
    "bayesinv",
    "disint",
    "generators",
    "jsonio",
    "cli",
)
SRC = Path(qbayes.__file__).parent


def _imports(tree: ast.AST):
    """(line, module, names) of each import from qbayes in tree: the module
    read from, '' for the package itself, and the names taken from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level > 0:
                yield node.lineno, node.module or "", names
            elif (node.module or "").split(".")[0] == "qbayes":
                yield node.lineno, node.module.partition(".")[2], names
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qbayes":
                    yield node.lineno, alias.name.partition(".")[2], []


def test_every_module_has_a_layer():
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_lower_layers(module):
    path = SRC / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    below = LAYERS[: LAYERS.index(module)]
    for line, name, names in _imports(tree):
        if name == "":
            assert names == ["__version__"], f"{module}:{line} imports {names} from the package"
        else:
            assert name in below, f"{module}:{line} imports from {name}, which is not below it"
