import json

import pytest
from hypothesis import example, given, settings, strategies as st

from sphere_forge import (
    build_delta,
    build_join_cone_sphere,
    build_stacked_sphere,
    coherent_orientation,
    make_complex,
    standard_sphere,
    swap_map,
)
from sphere_forge.formats import (
    bundle_from_json,
    bundle_to_json,
    complex_from_json,
    complex_to_json,
    dumps_canonical,
    map_from_text,
    map_to_text,
)
from sphere_forge.complex_core import simplex
from sphere_forge.labels import u_label, u_pair, v_label

from fixtures import labels


def test_complex_json_round_trip_with_orientation():
    S = standard_sphere(2)
    oriented = coherent_orientation(S, S.facets[0], 1)
    text = complex_to_json(S, oriented.signs)
    K, signs = complex_from_json(text)
    assert K == S
    assert signs == dict(oriented.signs)
    # canonical writer is stable
    assert complex_to_json(K, signs) == text


def test_complex_json_validation():
    S = standard_sphere(2)
    obj = json.loads(complex_to_json(S))
    obj["dimension"] = 5
    with pytest.raises(ValueError):
        complex_from_json(dumps_canonical(obj))
    obj = json.loads(complex_to_json(S))
    obj["vertices"] = obj["vertices"][:-1]
    with pytest.raises(ValueError):
        complex_from_json(dumps_canonical(obj))
    obj = json.loads(complex_to_json(S))
    obj["orientation"] = {"v1 v2 v3": 2}
    with pytest.raises(ValueError):
        complex_from_json(dumps_canonical(obj))


@pytest.mark.parametrize(
    "n,field,value,message",
    [
        (1, "dimension", True, "'dimension' field"),
        (2, "dimension", 2.0, "'dimension' field"),
        (2, "orientation", {"v1 v2 v3": True}, "sign must be 1 or -1"),
        (2, "orientation", {"v1 v2 v3": 1.0}, "sign must be 1 or -1"),
        (2, "orientation", {"v1 v2": -1}, "'v1 v2' is not a facet"),
        (2, "orientation", {"v1 v2 v5": 1}, "'v1 v2 v5' is not a facet"),
        (2, "orientation", {"v1 v2 v3": 1, "v2 v1 v3": 1}, "facet \\[v1 v2 v3\\] twice"),
    ],
)
def test_complex_json_refuses_bad_dimension_and_orientation(n, field, value, message):
    obj = json.loads(complex_to_json(standard_sphere(n)))
    obj[field] = value
    with pytest.raises(ValueError, match=message):
        complex_from_json(json.dumps(obj))


def test_map_file_round_trip():
    bundle = build_join_cone_sphere(3, 2)
    text = map_to_text(bundle.vertex_map)
    back = map_from_text(text)
    assert back.assignment == bundle.vertex_map.assignment


def test_map_file_skips_blank_and_comment_lines():
    text = "# a swap\n\nv1 v2\n   \n  # indented comment\nv2 v1\n"
    assert map_from_text(text).assignment == {
        v_label(1): v_label(2),
        v_label(2): v_label(1),
    }


def test_map_file_errors():
    with pytest.raises(ValueError):
        map_from_text("v1\n")
    with pytest.raises(ValueError):
        map_from_text("v1 v2\nv1 v3\n")


@pytest.mark.parametrize(
    "bundle",
    [
        build_join_cone_sphere(3, 4),
        build_join_cone_sphere(2, 2),
        build_stacked_sphere(3),
        swap_map(4),
    ],
    ids=lambda b: b.label,
)
def test_bundle_json_round_trip_bytes(bundle):
    text = bundle_to_json(bundle)
    loaded = bundle_from_json(text)
    assert bundle_to_json(loaded) == text
    assert loaded.source == bundle.source
    assert loaded.target == bundle.target
    assert loaded.expected_degree == bundle.expected_degree
    assert loaded.source_base == bundle.source_base
    assert loaded.target_base == bundle.target_base


def test_delta_disc_json_round_trip():
    disc = build_delta(3)
    text = complex_to_json(disc.complex, disc.signs)
    K, signs = complex_from_json(text)
    assert K == disc.complex
    assert signs == disc.signs


simple_labels = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])


@given(st.lists(st.sets(simple_labels, min_size=1, max_size=3), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_json_round_trip_property(facet_sets):
    K = make_complex([labels(" ".join(sorted(f))) for f in facet_sets])
    K2, _ = complex_from_json(complex_to_json(K))
    assert K2 == K


def test_bundle_json_keeps_flipped_target_base():
    """A target base written against the canonical order flips the degree;
    the file must carry that convention through a round trip."""
    from dataclasses import replace

    from sphere_forge import degree_by_counting, degree_by_cycle, verify_bundle
    from sphere_forge.labels import v_label

    bundle = replace(
        build_join_cone_sphere(2, 2),
        target_base=(v_label(2), v_label(1), v_label(3)),
        expected_degree=-2,
    )
    loaded = bundle_from_json(bundle_to_json(bundle))
    assert loaded.target_base == bundle.target_base
    assert degree_by_counting(loaded).degree == -2
    assert degree_by_cycle(loaded) == -2
    assert verify_bundle(loaded).passed


def test_bundle_json_without_target_base_reads_least_target_facet():
    from sphere_forge import degree_by_counting

    obj = json.loads(bundle_to_json(build_join_cone_sphere(2, 2)))
    del obj["target_base"]
    loaded = bundle_from_json(json.dumps(obj))
    assert loaded.target_base == loaded.target.facets[0].vertices
    assert degree_by_counting(loaded).degree == 2


def test_bundle_json_keeps_expected_vertices():
    obj = json.loads(bundle_to_json(build_join_cone_sphere(2, 2)))
    assert obj["expected_vertices"] == 7
    obj["expected_vertices"] = 8
    assert bundle_from_json(json.dumps(obj)).expected_vertices == 8
    for bad in ("8", 8.0, True):
        obj["expected_vertices"] = bad
        with pytest.raises(ValueError, match="expected_vertices"):
            bundle_from_json(json.dumps(obj))


def test_bundle_json_without_expected_vertices_reads_vertex_count():
    from sphere_forge import verify_bundle

    obj = json.loads(bundle_to_json(build_join_cone_sphere(2, 2)))
    del obj["expected_vertices"]
    loaded = bundle_from_json(json.dumps(obj))
    assert loaded.expected_vertices == len(loaded.source.vertices) == 7
    assert verify_bundle(loaded).passed


def test_bundle_json_refuses_a_vertex_mapped_twice():
    obj = json.loads(bundle_to_json(build_join_cone_sphere(2, 2)))
    assert ["u1_1", "v1"] in obj["map"]
    obj["map"].insert(0, ["u1_1", "v4"])
    with pytest.raises(ValueError, match="^vertex u1_1 mapped twice$"):
        bundle_from_json(json.dumps(obj))


def test_bundle_json_refuses_mismatched_dimensions():
    obj = json.loads(bundle_to_json(swap_map(2)))
    obj["source"] = {"facets": [["v1", "v2"], ["v2", "v3"], ["v3", "v4"], ["v1", "v4"]]}
    obj["source_base"] = ["v1", "v2"]
    with pytest.raises(
        ValueError, match="^source has dimension 1 but target has dimension 2$"
    ):
        bundle_from_json(json.dumps(obj))


# JSON-like values as the program's payloads hold them: str or int keys,
# tuples beside lists, and every scalar json.dumps writes
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**200), 2**200)
    | st.floats()  # nan, inf and -0.0 included
    | st.text()  # control characters and non-ASCII included
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.text(max_size=3), max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.integers(-100, 100), inner, max_size=4),
    max_leaves=20,
)


@given(_json_values)
@example({})
@example([])
@example([[]])
@example({"a": {}})
@example({2: 1, 10: 0})
@example({True: "yes", 2: None})
@settings(max_examples=300, deadline=None)
def test_dumps_canonical_is_indented_sorted_json_dumps(value):
    assert dumps_canonical(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_dumps_canonical_writes_a_label_value_as_it_prints():
    """A label is a str whose text is its sort key; the emitter writes
    the text it prints as, alone, in a list, in a tuple and in a simplex."""
    assert dumps_canonical({"x": u_label(4)}) == '{\n  "x": "u4"\n}\n'
    mixed = [u_pair(1, 3), "u4", (v_label(2),), simplex([u_label(4, True), v_label(10)]), 7]
    assert dumps_canonical(mixed) == json.dumps(
        ["u1_3", "u4", ["v2"], ["u4p", "v10"], 7], indent=2
    ) + "\n"


def test_dumps_canonical_writes_a_label_key_as_it_prints():
    """Label keys sort in label order, before they become text, as int
    keys sort numerically."""
    payload = {v_label(10): 2, u_label(4): 1, v_label(9): [v_label(1)]}
    assert dumps_canonical(payload) == (
        '{\n  "u4": 1,\n  "v9": [\n    "v1"\n  ],\n  "v10": 2\n}\n'
    )
