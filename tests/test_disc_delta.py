import pytest

from sphere_forge import (
    boundary_complex,
    build_delta,
    f_vector_and_euler,
    disc_sign_census,
)
from sphere_forge.errors import PreconditionFailed
from sphere_forge.labels import u_pair

from fixtures import (
    DELTA2_NEGATIVE,
    DELTA2_POSITIVE,
    DELTA3_NEGATIVE,
    DELTA3_POSITIVE,
    DELTA4_NEGATIVE,
    DELTA4_POSITIVE,
    simplex_of,
)


def outer_ring(disc):
    """The triangles outside the first inner polygon, with their signs."""
    inner = set(disc.polygons[1])
    return {f: s for f, s in disc.signs.items() if not inner.issuperset(f)}


def test_single_triangle_is_terminal():
    disc = build_delta(1)
    assert disc.polygons == ((u_pair(1, 1), u_pair(2, 1), u_pair(3, 1)),)
    assert disc.signs == {simplex_of("u1_1 u2_1 u3_1"): 1}


def test_even_six_gon_ring():
    disc = build_delta(2)
    assert outer_ring(disc) == {simplex_of(t): 1 for t in DELTA2_POSITIVE}
    assert disc.polygons[1] == (u_pair(1, 1), u_pair(3, 1), u_pair(2, 2))


def test_odd_nine_gon_ring():
    disc = build_delta(3)
    ring = outer_ring(disc)
    # (c0, c2, c4) takes the inner sign; (c0, c4, c8) closes the ring
    assert ring[simplex_of("u1_1 u2_2 u3_1")] == -1
    assert ring[simplex_of("u1_1 u2_2 u3_3")] == 1
    assert disc.polygons[1] == (u_pair(2, 2), u_pair(1, 3), u_pair(3, 3))


@pytest.mark.parametrize(
    "d,positive,negative",
    [
        (2, DELTA2_POSITIVE, DELTA2_NEGATIVE),
        (3, DELTA3_POSITIVE, DELTA3_NEGATIVE),
        (4, DELTA4_POSITIVE, DELTA4_NEGATIVE),
    ],
)
def test_build_delta_exact_signs(d, positive, negative):
    disc = build_delta(d)
    assert {f for f, s in disc.signs.items() if s == 1} == {
        simplex_of(t) for t in positive
    }
    assert {f for f, s in disc.signs.items() if s == -1} == {
        simplex_of(t) for t in negative
    }


def test_build_delta_base_case():
    disc = build_delta(1)
    assert len(disc.complex.facets) == 1
    assert disc_sign_census(disc) == (1, 0, True, True)
    with pytest.raises(PreconditionFailed):
        build_delta(0)


@pytest.mark.parametrize("d,expected", [(2, (3, 1)), (1, (1, 0)), (12, (23, 11))])
def test_sign_census_examples(d, expected):
    counts = disc_sign_census(build_delta(d))
    assert (counts.positives, counts.negatives) == expected
    assert counts.boundary_in_positive and counts.sign_agrees_with_orientation


def test_sign_census_notices_a_flipped_sign():
    """An interior triangle turned positive keeps the boundary positive
    but breaks the agreement with the propagated orientation."""
    disc = build_delta(12)
    flipped = next(t for t, s in disc.signs.items() if s < 0)
    census = disc_sign_census(disc._replace(signs={**disc.signs, flipped: 1}))
    assert census == (24, 10, True, False)


def test_sweep_structure():
    for d in range(1, 17):
        disc = build_delta(d)
        fv, euler = f_vector_and_euler(disc.complex)
        assert fv[2] == 3 * d - 2
        assert fv[0] == 3 * d
        assert euler == 1
        counts = disc_sign_census(disc)
        assert counts.positives == 2 * d - 1
        assert counts.negatives == d - 1
        assert counts.boundary_in_positive
        assert counts.sign_agrees_with_orientation
        # boundary is the original 3d-gon
        boundary = boundary_complex(disc.complex)
        assert len(boundary.facets) == 3 * d
        assert set(boundary.vertices) == set(disc.complex.vertices)
        # one vertex of each class per triangle
        for facet in disc.complex.facets:
            assert {v.class_index for v in facet.vertices} == {1, 2, 3}


def test_polygons_shrink_by_thirds():
    """Every polygon has a multiple of 3 vertices, the last one 3."""
    for d in range(1, 41):
        lengths = [len(p) for p in build_delta(d).polygons]
        assert lengths[0] == 3 * d
        assert all(length % 3 == 0 for length in lengths)
        assert lengths[-1] == 3
        for a, b in zip(lengths, lengths[1:]):
            m = a // 3
            assert b == (3 * (m // 2) if m % 2 == 0 else 3 * ((m - 1) // 2))


def test_inner_subdisc():
    disc = build_delta(4)
    inner = disc.inner_subdisc()
    assert len(inner.facets) == 4
    # bounded by the first inner polygon
    assert set(boundary_complex(inner).vertices) == set(disc.polygons[1])
    with pytest.raises(PreconditionFailed):
        build_delta(1).inner_subdisc()


def test_inner_subdisc_is_bounded_by_the_first_inner_polygon():
    """Its boundary edges are the cyclic consecutive pairs of the first
    inner polygon, and every later polygon lies on that polygon."""
    for d in range(2, 41):
        disc = build_delta(d)
        inner = disc.polygons[1]
        cycle = {frozenset(pair) for pair in zip(inner, inner[1:] + inner[:1])}
        edges = boundary_complex(disc.inner_subdisc()).facets
        assert {frozenset(e) for e in edges} == cycle
        assert all(set(p) <= set(inner) for p in disc.polygons[2:])
