"""Bad input never escapes as a traceback.

Arbitrary JSON values, and valid files with one field replaced by an
arbitrary JSON value, are fed to every command that reads a file.  Each
run must end with exit code 0, 1 or 2 and at most one line on stderr.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sphere_forge import build_join_cone_sphere
from sphere_forge.cli import main
from sphere_forge.formats import bundle_to_json_obj, complex_to_json_obj, map_to_text

BUNDLE = build_join_cone_sphere(2, 2)
VALID = {
    "bundle": bundle_to_json_obj(BUNDLE),
    "complex": complex_to_json_obj(BUNDLE.source),
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False)
    | st.sampled_from(["", "v1", "v2", "u1_1", "a", "V1", "v1 v2 v3"])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _paths(obj, prefix=()):
    """Every key or index path into a JSON document."""
    yield prefix
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(obj))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def documents(kind):
    valid = VALID[kind]
    mutated = st.builds(
        _replaced, st.just(valid), st.sampled_from(list(_paths(valid))), json_values
    )
    return st.one_of(json_values, mutated).map(json.dumps)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "K.json").write_text(json.dumps(VALID["complex"]))
    (d / "f.map").write_text(map_to_text(BUNDLE.vertex_map))
    return d


fuzz = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@given(text=documents("bundle"))
@fuzz
def test_bundle_commands_fuzz(workdir, text):
    path = workdir / "bundle.json"
    path.write_text(text)
    run(["degree", "--bundle", str(path)])
    run(["verify", "bundle", "--in", str(path)])


@given(text=documents("complex"))
@fuzz
def test_complex_commands_fuzz(workdir, text):
    path = workdir / "fuzzed.json"
    path.write_text(text)
    run(["verify", "sphere", "--in", str(path)])
    run(["degree", "--in", str(path), "--map", str(workdir / "f.map")])


@given(text=json_values.map(json.dumps))
@fuzz
def test_map_file_fuzz(workdir, text):
    path = workdir / "fuzzed.map"
    path.write_text(text)
    run(["degree", "--in", str(workdir / "K.json"), "--map", str(path)])


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "null",
        '{"source": 5}',
        json.dumps({**VALID["bundle"], "source": {"facets": [[1, 2, 3]]}}),
        "[" * 100000 + "]" * 100000,
        # a 1-dimensional source against the 2-sphere target
        json.dumps({**VALID["bundle"], "source": {"facets": [["v1", "v2"], ["v2", "v3"]]}}),
    ],
)
def test_malformed_bundle_exits_2(tmp_path, text):
    path = tmp_path / "bundle.json"
    path.write_text(text)
    assert run(["degree", "--bundle", str(path)]) == 2


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("map", [["u4"]], "each 'map' entry must be a [from, to] label pair"),
        ("map", [["u4", "v4", "v1"]], "each 'map' entry must be a [from, to] label pair"),
        ("label", {"x": 1}, "bundle needs a valid 'label' field"),
        (
            "map",
            VALID["bundle"]["map"] + [["zz", "v1"]],
            "map entry for vertex zz, which is not in the source",
        ),
    ],
)
def test_malformed_bundle_names_the_field(tmp_path, field, value, message):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({**VALID["bundle"], field: value}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["degree", "--bundle", str(path)])
    assert (code, err.getvalue()) == (2, f"error: {message}\n")


FACET = str(BUNDLE.source.facets[0])
SWAPPED = " ".join(reversed(FACET.split()))


@pytest.mark.parametrize(
    "document",
    [
        {"dimension": True, "facets": [["v1", "v2"], ["v1", "v3"], ["v2", "v3"]]},
        {**VALID["complex"], "orientation": {FACET: True}},
        {**VALID["complex"], "orientation": {"v1 v2": -1}},
        {**VALID["complex"], "orientation": {FACET: 1, SWAPPED: -1}},
        {"facets": []},
        # u01 and u1 would read as one vertex
        {
            "facets": [
                ["u01", "u2", "u3"],
                ["u1", "u2", "u4"],
                ["u1", "u3", "u4"],
                ["u2", "u3", "u4"],
            ]
        },
    ],
)
def test_malformed_complex_exits_2(tmp_path, document):
    path = tmp_path / "K.json"
    path.write_text(json.dumps(document))
    assert run(["verify", "sphere", "--in", str(path)]) == 2
