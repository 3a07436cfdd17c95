import pytest

from sphere_forge import (
    boundary_complex,
    build_delta,
    f_vector_and_euler,
    disc_sign_census,
    reduction_step,
)
from sphere_forge.disc_delta import PolygonCycle
from sphere_forge.errors import PreconditionFailed
from sphere_forge.labels import parse_label, u_pair

from fixtures import (
    DELTA2_NEGATIVE,
    DELTA2_POSITIVE,
    DELTA3_NEGATIVE,
    DELTA3_POSITIVE,
    DELTA4_NEGATIVE,
    DELTA4_POSITIVE,
    simplex_of,
)


def outer_cycle(d):
    return PolygonCycle(tuple(u_pair(j, i) for i in range(1, d + 1) for j in (1, 2, 3)))


def test_reduction_step_terminal():
    rec = reduction_step(PolygonCycle(tuple(parse_label(x) for x in "a b c".split())))
    assert rec.strip == ((parse_label("a"), parse_label("b"), parse_label("c")),)
    assert rec.extras == () and rec.inner is None


def test_reduction_step_bad_length():
    with pytest.raises(
        PreconditionFailed, match="^polygon length 4 is not a multiple of 3$"
    ):
        reduction_step(PolygonCycle(tuple(parse_label(x) for x in "a b c d".split())))


def test_reduction_step_even_six():
    rec = reduction_step(outer_cycle(2))
    strips = {frozenset(t) for t in rec.strip}
    assert strips == {
        frozenset(simplex_of(t).vertices) for t in DELTA2_POSITIVE
    }
    assert rec.extras == ()
    assert rec.inner.vertices == (u_pair(1, 1), u_pair(3, 1), u_pair(2, 2))


def test_reduction_step_odd_nine():
    rec = reduction_step(outer_cycle(3))
    triangles = {frozenset(t) for t in rec.triangles}
    assert frozenset((u_pair(1, 1), u_pair(2, 2), u_pair(3, 1))) in triangles
    assert frozenset((u_pair(1, 1), u_pair(2, 2), u_pair(3, 3))) in triangles
    assert rec.inner.vertices == (u_pair(2, 2), u_pair(1, 3), u_pair(3, 3))


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


def test_trace_levels_shrink_by_thirds():
    disc = build_delta(12)
    lengths = [len(rec.cycle) for rec in disc.trace]
    assert lengths[0] == 36
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
    assert set(boundary_complex(inner).vertices) == set(disc.trace[0].inner.vertices)
    with pytest.raises(PreconditionFailed):
        build_delta(1).inner_subdisc()


def test_polygon_cycle_validation():
    with pytest.raises(PreconditionFailed):
        PolygonCycle((parse_label("a"), parse_label("b")))
    with pytest.raises(PreconditionFailed):
        PolygonCycle(tuple(parse_label(x) for x in "a b a".split()))
