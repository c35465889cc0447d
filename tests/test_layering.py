"""Import direction between grr modules: the solver sits below scoring, and
scoring below the simulator and the CLI."""

import ast
import pathlib

import pytest

import grr

SRC = pathlib.Path(grr.__file__).parent

# module -> grr modules it must not import
FORBIDDEN = {
    "metrics": {"simulator", "cli"},
    "solver": {"metrics", "simulator", "losses", "solver_grad", "cli"},
}


def grr_imports(module: str) -> set[str]:
    """Names of the grr modules that src/grr/<module>.py imports from."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "grr":  # from . / grr import x
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("grr."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("grr."))
    return found


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_no_upward_imports(module):
    imported = grr_imports(module)
    assert "geometry" in imported  # the parser sees the imports that are allowed
    assert imported & FORBIDDEN[module] == set()
