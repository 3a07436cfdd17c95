"""The package imports nothing but itself and the standard library, and
its modules import one another without a cycle."""

import ast
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "sphere_forge"


def _imports(path):
    """(level, module) of every import in the file, wherever it stands:
    inside functions and ``if TYPE_CHECKING:`` blocks as well."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module


def _absolute_imports(path):
    return (module for level, module in _imports(path) if level == 0)


def _intra_package_modules(path):
    for level, module in _imports(path):
        if level:
            yield module or "__init__"
        elif module.split(".")[0] == "sphere_forge":
            yield module.partition(".")[2] or "__init__"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_intra_package(path):
    foreign = {
        name
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"sphere_forge"}
    }
    assert not foreign


def test_intra_package_imports_form_no_cycle():
    graph = {path.stem: set(_intra_package_modules(path)) for path in PACKAGE.glob("*.py")}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
