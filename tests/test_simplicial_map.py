import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sphere_forge import (
    ConstructionBundle,
    VertexMap,
    build_double_cone_sphere,
    build_facet_cone_sphere,
    build_join_cone_sphere,
    build_stacked_sphere,
    check_simplicial,
    coherent_orientation,
    compose,
    degree_by_counting,
    degree_by_cycle,
    fundamental_cycle,
    identity_map,
    make_complex,
    pseudomanifold_check,
    simplex,
    standard_sphere,
    swap_map,
    verify_bundle,
)
from sphere_forge import complex_core, orientation, simplicial_map
from sphere_forge.cli import _adhoc_bundle
from sphere_forge.errors import (
    InconsistentAlg,
    KernelRankNotOne,
    NotClosed,
    PreconditionFailed,
    SphereForgeError,
)
from sphere_forge.labels import parse_label, v_label

from fixtures import complex_of, labels, simplex_of


def target_facet(*indices):
    return simplex([v_label(i) for i in indices])


def identity_vertex_map(K):
    return VertexMap({v: v for v in K.vertices})


def test_check_simplicial_identity():
    S = standard_sphere(3)
    assert check_simplicial(identity_vertex_map(S), S, S) == ()


def test_check_simplicial_example_bundle():
    bundle = build_join_cone_sphere(3, 4)
    assert check_simplicial(bundle.vertex_map, bundle.source, bundle.target) == ()


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
    assert check_simplicial(f, K, L) == (simplex_of("a b c"),)


def test_check_simplicial_not_total():
    S = standard_sphere(2)
    with pytest.raises(PreconditionFailed, match=r"^map misses vertices \['v1', "):
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
    with pytest.raises(
        PreconditionFailed, match="^bundle map does not send simplices to simplices$"
    ):
        check_simplicial(f, K, L)


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
    with pytest.raises(
        PreconditionFailed, match="^values .* missing from the second map's domain$"
    ):
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
    bundle = build_join_cone_sphere(2, 2)

    def broken_orientation(K, base, base_sign=1):
        oriented = coherent_orientation(K, base, base_sign)
        if K is not bundle.source:
            return oriented
        signs = dict(oriented.signs)
        victim = next(iter(signs))
        signs[victim] = -signs[victim]
        return oriented._replace(signs=signs)

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
    with pytest.raises(
        PreconditionFailed, match="^bundle map does not send simplices to simplices$"
    ):
        degree_by_counting(bundle)


def test_oracles_refuse_a_target_of_another_dimension():
    """The identity on v1..v3 sends the circle simplicially into the
    2-sphere, but no degree relates spheres of different dimensions."""
    source, target = standard_sphere(1), standard_sphere(2)
    bundle = ConstructionBundle(
        source=source,
        target=target,
        vertex_map=identity_vertex_map(source),
        source_base=source.facets[0].vertices,
        target_base=target.facets[0].vertices,
        expected_degree=None,
        expected_vertices=3,
        label="circle into sphere",
    )
    message = "^source has dimension 1 but target has dimension 2$"
    for run in (degree_by_counting, degree_by_cycle, verify_bundle):
        with pytest.raises(PreconditionFailed, match=message):
            run(bundle)


def _adhoc(facets, images):
    """An ad-hoc bundle of the complex on ``facets`` (label strings),
    sending ``a<i>`` to ``v<images[i - 1]>``."""
    K = complex_of(facets)
    return _adhoc_bundle(
        K, VertexMap({parse_label(f"a{i}"): v_label(j) for i, j in enumerate(images, 1)})
    )


# a triangle with two dangling edges: its top kernel is a line, but the
# generator is 0 on the dangling edges
DANGLING = _adhoc(["a1 a4", "a2 a5", "a3 a4", "a3 a5", "a4 a5"], [1, 2, 3, 1, 2])
# a circle and a disjoint edge: no ridge in more than two facets, and
# the generator is 0 on the edge
CIRCLE_AND_EDGE = _adhoc(["a1 a2", "a1 a3", "a2 a3", "a4 a5"], [1, 2, 3, 1, 2])
# a closed surface pinched along ridges in four facets: its generator is
# +-1 on every facet, so only the counting oracle refuses it
PINCHED = _adhoc(
    [
        "a1 a2 a3", "a1 a2 a4", "a1 a3 a5", "a1 a4 a6", "a1 a5 a6",
        "a2 a3 a6", "a2 a4 a5", "a2 a5 a6", "a3 a5 a6", "a4 a5 a6",
    ],
    [1, 1, 1, 2, 3, 4],
)


def test_cycle_oracle_needs_a_unit_coefficient_on_every_facet():
    with pytest.raises(
        KernelRankNotOne, match=r"^kernel generator has coefficient 0 on \[a1 a4\]$"
    ):
        degree_by_cycle(DANGLING)
    with pytest.raises(PreconditionFailed, match="a ridge in more than two facets$"):
        degree_by_counting(DANGLING)
    assert degree_by_cycle(PINCHED) == -1
    assert pseudomanifold_check(PINCHED.source).max_ridge_multiplicity == 4
    with pytest.raises(PreconditionFailed, match="a ridge in more than two facets$"):
        degree_by_counting(PINCHED)


def test_cycle_oracle_reports_a_pushforward_off_the_target_cycle(monkeypatch):
    """A target generator with one facet's sign flipped is still +-1
    everywhere, but the pushed-forward source cycle is no multiple of it."""
    bundle = build_join_cone_sphere(2, 2)
    generator = simplicial_map.top_kernel_generator

    def skewed(K):
        gen = generator(K)
        if K is bundle.target:
            facet = next(s for s in K.facets if s != simplex(bundle.target_base))
            gen[facet] = -gen[facet]
        return gen

    monkeypatch.setattr(simplicial_map, "top_kernel_generator", skewed)
    with pytest.raises(
        InconsistentAlg, match="^pushforward is not a multiple of the target cycle: "
    ):
        degree_by_cycle(bundle)


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


def test_the_degree_layer_decides_closedness_without_boundary_complex(monkeypatch):
    bundle = build_join_cone_sphere(2, 2)
    point = make_complex([[v_label(1)]])

    def refuse(K):
        raise AssertionError("boundary_complex called")

    monkeypatch.setattr(complex_core, "boundary_complex", refuse)
    monkeypatch.setattr(orientation, "boundary_complex", refuse, raising=False)
    monkeypatch.setattr(simplicial_map, "boundary_complex", refuse, raising=False)
    assert degree_by_counting(bundle).degree == 2
    source = coherent_orientation(bundle.source, simplex(bundle.source_base))
    assert len(fundamental_cycle(source).coefficients) == len(bundle.source.facets)
    for K in (TRIANGLE, point):
        with pytest.raises(NotClosed):
            fundamental_cycle(coherent_orientation(K, K.facets[0]))
        with pytest.raises(NotClosed, match="^counting degree needs a closed source$"):
            degree_by_counting(_adhoc_bundle(K, VertexMap({v: v for v in K.vertices})))


@st.composite
def small_maps(draw):
    """A pure complex of dimension 0-2 on at most 6 vertices and 10
    facets, with a total map into the standard sphere of its dimension."""
    n = draw(st.integers(0, 2))
    names = [parse_label(f"a{i}") for i in range(1, 7)]
    facet = st.lists(st.sampled_from(names), min_size=n + 1, max_size=n + 1, unique=True)
    K = make_complex(draw(st.lists(facet, min_size=1, max_size=10)))
    images = st.sampled_from([v_label(i) for i in range(1, n + 3)])
    return _adhoc_bundle(K, VertexMap({v: draw(images) for v in K.vertices}))


def _degree(oracle, bundle):
    """The oracle's degree, or None where it refuses the input.  An
    InconsistentAlg is never a refusal, so it propagates."""
    try:
        result = oracle(bundle)
    except InconsistentAlg:
        raise
    except SphereForgeError:
        return None
    return getattr(result, "degree", result)


@given(small_maps())
@example(DANGLING)
@example(CIRCLE_AND_EDGE)
@example(PINCHED)
@settings(max_examples=300, deadline=None)
def test_oracles_never_disagree_on_small_maps(bundle):
    counting = _degree(degree_by_counting, bundle)
    cycle = _degree(degree_by_cycle, bundle)
    if counting is not None and cycle is not None:
        assert counting == cycle
    if counting is None and cycle is not None:
        # a cycle that is +-1 on every facet, with each ridge in at most
        # two facets, coherently orients a closed connected pseudomanifold
        assert not pseudomanifold_check(bundle.source).ridge_bound_ok
