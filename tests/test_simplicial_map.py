import random

import pytest

from sphere_forge import (
    ConstructionBundle,
    VertexMap,
    build_double_cone_sphere,
    build_facet_cone_sphere,
    build_join_cone_sphere,
    build_stacked_sphere,
    check_simplicial,
    compose,
    degree_by_counting,
    degree_by_cycle,
    identity_map,
    make_complex,
    simplex,
    standard_sphere,
    swap_map,
)
from sphere_forge.errors import (
    DomainMismatch,
    InconsistentAlg,
    MapNotTotal,
    NotClosed,
    NotSimplicial,
)
from sphere_forge.labels import parse_label, v_label
from sphere_forge.orientation import OrientedComplex

from fixtures import labels, simplex_of


def target_facet(*indices):
    return simplex([v_label(i) for i in indices])


def identity_vertex_map(K):
    return VertexMap({v: v for v in K.vertices})


def test_check_simplicial_identity():
    S = standard_sphere(3)
    result = check_simplicial(identity_vertex_map(S), S, S)
    assert result.ok and result.degenerate_facets == ()


def test_check_simplicial_example_bundle():
    bundle = build_join_cone_sphere(3, 4)
    result = check_simplicial(bundle.vertex_map, bundle.source, bundle.target)
    assert result.ok and result.degenerate_facets == ()


def test_check_simplicial_collapse_reported():
    K = make_complex([labels("a b c")])
    L = make_complex([labels("x y")])
    f = VertexMap(
        {
            parse_label("a"): parse_label("x"),
            parse_label("b"): parse_label("x"),
            parse_label("c"): parse_label("y"),
        }
    )
    result = check_simplicial(f, K, L)
    assert result.ok
    assert result.degenerate_facets == (simplex_of("a b c"),)


def test_check_simplicial_not_total():
    S = standard_sphere(2)
    with pytest.raises(MapNotTotal):
        check_simplicial(VertexMap({}), S, S)


def test_check_simplicial_failure():
    K = make_complex([labels("a b c")])
    L = make_complex([labels("x y"), labels("y z")])
    f = VertexMap(
        {
            parse_label("a"): parse_label("x"),
            parse_label("b"): parse_label("y"),
            parse_label("c"): parse_label("z"),
        }
    )
    result = check_simplicial(f, K, L)
    assert not result.ok


def test_alg_number_degree4_example():
    report = degree_by_counting(build_join_cone_sphere(3, 4))
    sigma = target_facet(1, 2, 3, 4)
    assert report.per_facet[sigma] == 4
    assert len(report.alpha_plus[sigma]) == 7
    assert len(report.alpha_minus[sigma]) == 3
    plus_sets = {t.vertex_set for t in report.alpha_plus[sigma]}
    minus_sets = {t.vertex_set for t in report.alpha_minus[sigma]}
    assert frozenset(labels("u1_1 u2_1 u3_1 u4")) in plus_sets
    assert frozenset(labels("u1_1 u2_2 u3_1 u4")) in minus_sets

    sigma = target_facet(1, 2, 4, 5)
    assert report.per_facet[sigma] == 4
    assert len(report.alpha_plus[sigma]) == 4 and len(report.alpha_minus[sigma]) == 0


def test_alg_number_identity():
    bundle = identity_map(3)
    report = degree_by_counting(bundle)
    for facet in bundle.target.facets:
        assert report.per_facet[facet] == 1


def test_degree_by_counting_examples():
    assert degree_by_counting(build_join_cone_sphere(3, 4)).degree == 4
    for n in range(1, 6):
        assert degree_by_counting(swap_map(n)).degree == -1
        assert degree_by_counting(identity_map(n)).degree == 1


def test_degree_report_shape():
    report = degree_by_counting(build_join_cone_sphere(3, 4))
    assert set(report.per_facet.values()) == {4}
    assert report.method == "counting"
    for sigma in report.per_facet:
        plus, minus = report.alpha_plus[sigma], report.alpha_minus[sigma]
        assert not (set(plus) & set(minus))


def test_degree_by_cycle_agrees():
    bundles = [
        build_join_cone_sphere(2, 2),
        build_join_cone_sphere(3, 1),
        build_double_cone_sphere(3, 1, "even"),
        build_facet_cone_sphere(3, 2),
        build_stacked_sphere(2),
        swap_map(2),
        identity_map(4),
    ]
    for bundle in bundles:
        assert degree_by_cycle(bundle) == degree_by_counting(bundle).degree


def test_degree_by_cycle_value():
    assert degree_by_cycle(build_stacked_sphere(2)) == 3
    assert degree_by_cycle(identity_map(2)) == 1


def test_compose_with_swap_negates():
    bundle = build_join_cone_sphere(2, 2)
    swap = swap_map(2)
    combined = ConstructionBundle(
        source=bundle.source,
        target=bundle.target,
        vertex_map=compose(bundle.vertex_map, swap.vertex_map),
        source_base=bundle.source_base,
        target_base=bundle.target_base,
        expected_degree=-2,
        expected_vertices=bundle.expected_vertices,
        label="join-cone n=2 d=2 then swap",
    )
    assert degree_by_counting(combined).degree == -2
    assert degree_by_cycle(combined) == -2


def test_compose_identity_and_mismatch():
    bundle = build_facet_cone_sphere(3, 2)
    ident = identity_map(3)
    same = compose(bundle.vertex_map, ident.vertex_map)
    assert same.assignment == bundle.vertex_map.assignment
    with pytest.raises(DomainMismatch):
        compose(bundle.vertex_map, bundle.vertex_map)


def test_swap_involution():
    swap = swap_map(3)
    twice = ConstructionBundle(
        source=swap.source,
        target=swap.target,
        vertex_map=compose(swap.vertex_map, swap.vertex_map),
        source_base=swap.source_base,
        target_base=swap.target_base,
        expected_degree=1,
        expected_vertices=swap.expected_vertices,
        label="swap twice",
    )
    assert degree_by_counting(twice).degree == 1


def test_multiplicativity_random_automorphisms():
    rng = random.Random(20240902)
    pool = [
        build_join_cone_sphere(2, 3),
        build_join_cone_sphere(3, 2),
        build_double_cone_sphere(3, 1, "odd"),
        build_facet_cone_sphere(4, 3),
        build_stacked_sphere(3),
    ]
    for _ in range(20):
        bundle = rng.choice(pool)
        n = bundle.source.dimension
        verts = [v_label(i) for i in range(1, n + 3)]
        image = verts[:]
        rng.shuffle(image)
        auto = VertexMap(dict(zip(verts, image)))
        auto_bundle = ConstructionBundle(
            source=bundle.target,
            target=bundle.target,
            vertex_map=auto,
            source_base=bundle.target_base,
            target_base=bundle.target_base,
            expected_degree=None,
            expected_vertices=n + 2,
            label="automorphism",
        )
        deg_auto = degree_by_counting(auto_bundle).degree
        composite = ConstructionBundle(
            source=bundle.source,
            target=bundle.target,
            vertex_map=compose(bundle.vertex_map, auto),
            source_base=bundle.source_base,
            target_base=bundle.target_base,
            expected_degree=None,
            expected_vertices=bundle.expected_vertices,
            label="composite",
        )
        assert (
            degree_by_counting(composite).degree
            == deg_auto * bundle.expected_degree
        )


def test_orientation_flip_covariance():
    bundle = build_join_cone_sphere(3, 2)
    base_degree = degree_by_counting(bundle).degree

    def flipped(seq):
        return (seq[1], seq[0]) + tuple(seq[2:])

    source_flux = ConstructionBundle(
        source=bundle.source,
        target=bundle.target,
        vertex_map=bundle.vertex_map,
        source_base=flipped(bundle.source_base),
        target_base=bundle.target_base,
        expected_degree=-base_degree,
        expected_vertices=bundle.expected_vertices,
        label="source flipped",
    )
    assert degree_by_counting(source_flux).degree == -base_degree
    assert degree_by_cycle(source_flux) == -base_degree

    target_flux = ConstructionBundle(
        source=bundle.source,
        target=bundle.target,
        vertex_map=bundle.vertex_map,
        source_base=bundle.source_base,
        target_base=flipped(bundle.target_base),
        expected_degree=-base_degree,
        expected_vertices=bundle.expected_vertices,
        label="target flipped",
    )
    assert degree_by_counting(target_flux).degree == -base_degree
    assert degree_by_cycle(target_flux) == -base_degree


def test_non_surjective_degree_zero():
    S = standard_sphere(2)
    verts = [v_label(i) for i in range(1, 5)]
    collapse = VertexMap({**{v: v for v in verts}, verts[3]: verts[0]})
    bundle = ConstructionBundle(
        source=S,
        target=S,
        vertex_map=collapse,
        source_base=S.facets[0].vertices,
        target_base=S.facets[0].vertices,
        expected_degree=0,
        expected_vertices=4,
        label="collapse one vertex",
    )
    report = degree_by_counting(bundle)
    assert report.degree == 0
    assert degree_by_cycle(bundle) == 0
    assert len(report.degenerate_facets) == 2

    constant = VertexMap({v: verts[0] for v in verts})
    bundle2 = ConstructionBundle(
        source=S,
        target=S,
        vertex_map=constant,
        source_base=S.facets[0].vertices,
        target_base=S.facets[0].vertices,
        expected_degree=0,
        expected_vertices=4,
        label="constant",
    )
    assert degree_by_counting(bundle2).degree == 0
    assert degree_by_cycle(bundle2) == 0


def test_inconsistent_alg_guard(monkeypatch):
    # corrupt one source facet sign: the per-facet counts must stop agreeing
    from sphere_forge import simplicial_map
    from sphere_forge.orientation import coherent_orientation

    bundle = build_join_cone_sphere(2, 2)

    def broken_orientation(K, base, base_sign=1):
        oriented = coherent_orientation(K, base, base_sign)
        if K is not bundle.source:
            return oriented
        signs = dict(oriented.signs)
        victim = next(iter(signs))
        signs[victim] = -signs[victim]
        return OrientedComplex(K, signs)

    monkeypatch.setattr(simplicial_map, "coherent_orientation", broken_orientation)
    with pytest.raises(InconsistentAlg):
        degree_by_counting(bundle)


def test_degree_requires_simplicial():
    K = make_complex([labels("a b c"), labels("a b d")])  # not a sphere, fine
    L = make_complex([labels("x y"), labels("y z")])
    f = VertexMap(
        {
            parse_label("a"): parse_label("x"),
            parse_label("b"): parse_label("y"),
            parse_label("c"): parse_label("z"),
            parse_label("d"): parse_label("z"),
        }
    )
    bundle = ConstructionBundle(
        source=K,
        target=L,
        vertex_map=f,
        source_base=simplex_of("a b c").vertices,
        target_base=simplex_of("x y").vertices,
        expected_degree=None,
        expected_vertices=4,
        label="bad",
    )
    with pytest.raises(NotSimplicial):
        degree_by_counting(bundle)


TRIANGLE = make_complex([[v_label(1), v_label(2), v_label(3)]])


@pytest.mark.parametrize(
    "K,L,name",
    [(TRIANGLE, standard_sphere(2), "source"), (standard_sphere(2), TRIANGLE, "target")],
    ids=["source", "target"],
)
def test_counting_refuses_a_complex_with_boundary(K, L, name):
    """One triangle onto a facet of the tetrahedron boundary, and that
    boundary onto one triangle with v4 sent to v1: the signed counts
    differ across target facets because a complex has boundary, which
    is no bug of the oracle."""
    bundle = ConstructionBundle(
        source=K,
        target=L,
        vertex_map=VertexMap({v: v if v in L.vertex_set else v_label(1) for v in K.vertices}),
        source_base=K.facets[0].vertices,
        target_base=L.facets[0].vertices,
        expected_degree=None,
        expected_vertices=len(K.vertices),
        label=f"{name} with boundary",
    )
    with pytest.raises(NotClosed, match=f"^counting degree needs a closed {name}$"):
        degree_by_counting(bundle)
