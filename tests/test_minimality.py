import pytest

from sphere_forge import (
    enumerate_2spheres,
    max_abs_degree,
    sphere_check,
    verify_small_sphere_bounds,
)
from sphere_forge.errors import OutOfRange
from sphere_forge.minimality import degree_survey


@pytest.mark.parametrize("v,count", [(4, 1), (5, 1), (6, 2), (7, 5)])
def test_census_sizes(v, count):
    assert len(enumerate_2spheres(v)) == count


def test_census_two_orders_agree():
    for v in range(4, 8):
        ascending = {e.canonical_key for e in enumerate_2spheres(v)}
        descending = {e.canonical_key for e in enumerate_2spheres(v, descending=True)}
        assert ascending == descending


def test_census_entries_are_spheres():
    for v in range(4, 8):
        for entry in enumerate_2spheres(v):
            assert entry.vertex_count == v == len(entry.complex.vertices)
            report = sphere_check(entry.complex, 2, "certify_low_dim")
            assert report.passed
            # closed-surface identities
            from sphere_forge import f_vector_and_euler

            fv, euler = f_vector_and_euler(entry.complex)
            assert fv[2] == 2 * fv[0] - 4
            assert 2 * fv[1] == 3 * fv[2]
            assert euler == 2


def test_census_out_of_range():
    with pytest.raises(OutOfRange):
        enumerate_2spheres(8)
    with pytest.raises(OutOfRange):
        enumerate_2spheres(3)


def test_tetrahedron_degrees():
    tetra = enumerate_2spheres(4)[0]
    best, witness = max_abs_degree(tetra.complex)
    assert best == 1
    assert witness is not None
    # the witness really is a bijective relabelling
    assert len(set(witness.assignment.values())) == 4


def test_small_spheres_cap_at_one():
    for v in (5, 6):
        for entry in enumerate_2spheres(v):
            best, _ = max_abs_degree(entry.complex)
            assert best <= 1


def test_degree_distribution_symmetric():
    for v in (4, 5, 6):
        for entry in enumerate_2spheres(v):
            survey = degree_survey(entry.complex)
            assert all(
                survey.degrees[d] == survey.degrees[-d] for d in survey.degrees
            )


def test_seven_vertex_construction_attains_two():
    from sphere_forge import build_join_cone_sphere

    bundle = build_join_cone_sphere(2, 2)
    assert len(bundle.source.vertices) == 7
    best, witness = max_abs_degree(bundle.source)
    assert best == 2 and witness is not None


def test_verify_report_restricted():
    report = verify_small_sphere_bounds(max_v=6)
    assert report.census_sizes == {4: 1, 5: 1, 6: 2}
    assert report.degree2_bound_ok
    assert report.passed


def test_census_exports_in_standard_formats():
    from sphere_forge.formats import complex_from_text, complex_to_json, complex_to_text, complex_from_json

    for entry in enumerate_2spheres(6):
        assert complex_from_text(complex_to_text(entry.complex)) == entry.complex
        loaded, _ = complex_from_json(complex_to_json(entry.complex))
        assert loaded == entry.complex


def test_single_thread_matches_threaded(monkeypatch):
    entry = enumerate_2spheres(6)[0]
    monkeypatch.setenv("SPHERE_FORGE_THREADS", "1")
    serial = degree_survey(entry.complex)
    monkeypatch.setenv("SPHERE_FORGE_THREADS", "4")
    threaded = degree_survey(entry.complex)
    assert serial.degrees == threaded.degrees
    assert serial.max_abs == threaded.max_abs
