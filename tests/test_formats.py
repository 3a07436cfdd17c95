import json

import pytest
from hypothesis import given, settings, strategies as st

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
    complex_from_text,
    complex_to_json,
    complex_to_text,
    dumps_canonical,
    map_from_text,
    map_to_text,
)

from fixtures import complex_of, labels, PROJECTIVE_PLANE


def test_text_round_trip():
    K = complex_of(PROJECTIVE_PLANE)
    assert complex_from_text(complex_to_text(K)) == K


def test_text_comments_and_blanks():
    text = "# comment line\n\nv1 v2 v3\nv1 v2 v4\n  # indented comment\n"
    K = complex_from_text(text)
    assert len(K.facets) == 2


def test_text_bad_label():
    with pytest.raises(ValueError):
        complex_from_text("v1 V2 v3\n")


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


def test_map_file_round_trip():
    bundle = build_join_cone_sphere(3, 2)
    text = map_to_text(bundle.vertex_map)
    back = map_from_text(text)
    assert back.assignment == bundle.vertex_map.assignment


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
