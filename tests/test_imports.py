"""The package imports nothing but itself and the standard library, its
modules import one another without a cycle, and its records are built
without generated code: only the bundle, which the benchmark copies
with ``dataclasses.replace``, is a dataclass."""

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


def _decorator_name(node):
    """``dataclass`` for ``@dataclass``, ``@dataclass(...)`` and
    ``@dataclasses.dataclass(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_only_the_replace_targets_are_dataclasses():
    """Each dataclass costs start-up time in generated code, so value
    records are NamedTuples or plain classes; the one left is the bundle,
    because the benchmark copies it with ``dataclasses.replace``."""
    decorated = {
        f"{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
    }
    assert decorated == {"simplicial_map.ConstructionBundle"}


def test_only_the_bundle_module_imports_dataclasses():
    """Importing ``dataclasses`` costs several milliseconds of start-up,
    so the module that defines the one dataclass is the only one that
    imports it; a stray import, unused by any decorator, would still pay."""
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if any(name.split(".")[0] == "dataclasses" for name in _absolute_imports(path))
    }
    assert importers == {"simplicial_map"}


def test_records_refuse_attribute_assignment():
    from sphere_forge.complex_core import make_complex
    from sphere_forge.constructions import BundleVerification
    from sphere_forge.disc_delta import build_delta
    from sphere_forge.homology import CheckItem, boundary_matrix, sphere_check
    from sphere_forge.labels import v_label
    from sphere_forge.orientation import coherent_orientation

    K = make_complex([[v_label(1), v_label(2)], [v_label(2), v_label(3)]])
    M = boundary_matrix(K, 1)
    item = CheckItem("pure", True)
    oriented = coherent_orientation(K, K.facets[0])
    disc = build_delta(1)
    verification = BundleVerification((item,), sphere_check(K, 1), None, None, True)
    for record, name in (
        (K, "facets"),
        (M, "columns"),
        (item, "ok"),
        (item, "detail"),
        (oriented, "signs"),
        (disc, "polygons"),
        (verification, "passed"),
    ):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, ())
        assert getattr(record, name) == before
