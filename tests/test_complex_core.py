import gc
import math
import re
import weakref
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from sphere_forge import (
    boundary_complex,
    boundary_matrix,
    coherent_orientation,
    cone,
    faces,
    f_vector_and_euler,
    homology_groups,
    join,
    link,
    make_complex,
    pseudomanifold_check,
    simplex,
    standard_sphere,
    union,
)
from sphere_forge.complex_core import (
    _SHAPES,
    EMPTY_SIMPLEX,
    Complex,
    Shape,
    Simplex,
    empty_complex,
)
from sphere_forge.errors import NonOrientable, PreconditionFailed
from sphere_forge.labels import parse_label, v_label

from fixtures import (
    CONSTRUCTION_GRID,
    DELTA2_NEGATIVE,
    DELTA2_POSITIVE,
    DELTA4_TRIANGLES,
    PROJECTIVE_PLANE,
    complex_of,
    labels,
    link_complexes,
    reference_link,
    simplex_of,
)

DELTA2 = complex_of(DELTA2_POSITIVE + DELTA2_NEGATIVE)
DELTA4 = complex_of(DELTA4_TRIANGLES)


def test_make_complex_single_simplex():
    K = make_complex([labels("a b c")])
    assert len(K.facets) == 1
    assert len(K.vertices) == 3


def test_make_complex_absorbs_faces():
    K = make_complex([labels("a b"), labels("a b c")])
    assert K.facets == (simplex_of("a b c"),)


def test_make_complex_rejects_duplicates():
    with pytest.raises(PreconditionFailed, match="^repeated vertex a in facet$"):
        make_complex([labels("a a b")])


def test_ten_triangle_disc():
    assert len(DELTA4.facets) == 10
    assert len(DELTA4.vertices) == 12


def test_faces_counts():
    assert len(faces(standard_sphere(2), 1)) == 6
    assert len(faces(DELTA2, 0)) == 6
    assert len(faces(DELTA4, 1)) == 21
    # out of range is empty, dimension -1 is the empty simplex
    assert faces(DELTA2, 5) == ()
    assert faces(DELTA2, -1) == (EMPTY_SIMPLEX,)


def test_faces_oracle_brute_force():
    # independent count: every vertex pair contained in some facet
    verts = DELTA4.vertices
    expected = sum(
        1
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if any({verts[i], verts[j]} <= set(f.vertices) for f in DELTA4.facets)
    )
    assert expected == 21 == len(faces(DELTA4, 1))


def test_f_vector_standard_sphere():
    fv, euler = f_vector_and_euler(standard_sphere(3))
    assert fv.counts == (1, 5, 10, 10, 5)
    assert euler == 0


def test_f_vector_disc():
    delta3 = complex_of(
        [
            "u1_1 u2_1 u3_1",
            "u1_2 u2_2 u3_1",
            "u1_3 u2_2 u3_2",
            "u1_3 u2_3 u3_3",
            "u1_1 u2_2 u3_3",
            "u1_1 u2_2 u3_1",
            "u1_3 u2_2 u3_3",
        ]
    )
    fv, euler = f_vector_and_euler(delta3)
    assert fv[2] == 7
    assert euler == 1


def test_f_vector_binomials():
    for n in range(0, 5):
        fv, euler = f_vector_and_euler(standard_sphere(n))
        for i in range(0, n + 1):
            assert fv[i] == math.comb(n + 2, i + 1)
        assert euler == 1 + (-1) ** n


def test_join_suspension():
    s0a = make_complex([labels("a"), labels("b")])
    s0b = make_complex([labels("c"), labels("d")])
    circle = join(s0a, s0b)
    assert len(circle.facets) == 4
    assert circle.dimension == 1
    report = pseudomanifold_check(circle)
    assert report.is_closed_pseudomanifold


def test_join_identity_and_collision():
    assert join(DELTA4, empty_complex()) == DELTA4
    assert join(empty_complex(), DELTA4) == DELTA4
    with pytest.raises(PreconditionFailed, match="^join operands share vertices "):
        join(DELTA4, DELTA4)


def test_join_with_simplex_keeps_facet_count():
    sim = make_complex([labels("u5 u6")])
    K = join(DELTA4, sim)
    assert len(K.facets) == 10
    assert K.dimension == 4


def test_cone_over_disc():
    K = cone(parse_label("u4"), DELTA4)
    assert len(K.facets) == 10
    assert K.dimension == 3
    fv, euler = f_vector_and_euler(K)
    assert euler == 1


def test_cone_over_cycle_is_disc():
    cyc = make_complex([labels("a b"), labels("b c"), labels("a c")])
    disc = cone(parse_label("x"), cyc)
    assert len(disc.facets) == 3
    _, euler = f_vector_and_euler(disc)
    assert euler == 1
    with pytest.raises(
        PreconditionFailed, match="^cone apex a already occurs in the complex$"
    ):
        cone(parse_label("a"), cyc)


def test_boundary_of_cone():
    K = cone(parse_label("u4"), DELTA4)
    boundary = boundary_complex(K)
    assert len(boundary.facets) == 22
    # boundary of the coned boundary closes up
    assert boundary_complex(cone(parse_label("u5"), boundary)).is_empty is False
    second = union(cone(parse_label("u5"), boundary), K)
    assert boundary_complex(second).is_empty


def test_boundary_closed_and_disc():
    assert boundary_complex(standard_sphere(3)).is_empty
    hexagon = boundary_complex(DELTA2)
    assert hexagon.dimension == 1
    assert len(hexagon.facets) == 6
    with pytest.raises(
        PreconditionFailed, match="^boundary is defined for pure complexes only$"
    ):
        boundary_complex(make_complex([labels("a b c"), labels("d e")]))


def test_link_in_sphere():
    S = standard_sphere(3)
    lk = link(simplex([v_label(1)]), S)
    # boundary of a simplex on the remaining vertices
    assert len(lk.vertices) == 4
    assert len(lk.facets) == 4
    assert pseudomanifold_check(lk).is_closed_pseudomanifold


def test_link_cone_apex_and_edge():
    K = cone(parse_label("u4"), DELTA4)
    assert link(simplex([parse_label("u4")]), K) == DELTA4
    lk = link(simplex_of("u1_1 u2_1"), DELTA2)
    assert lk.facets == (simplex_of("u3_1"),)
    with pytest.raises(
        PreconditionFailed, match=r"^\[u1_1 u1_2\] is not a face of the complex$"
    ):
        link(simplex_of("u1_1 u1_2"), DELTA2)


@given(link_complexes, st.sets(st.integers(1, 9), max_size=3))
@example([{1, 2, 3}, {3, 4}], {1, 4})  # vertices of K, not a face
@example([{1, 2}], {9})  # a vertex not in K
@example([{1, 2, 3}, {2, 3, 4}, {5}], set())  # the empty face
@settings(max_examples=150, deadline=None)
def test_link_matches_a_facet_scan(facet_sets, probe):
    """Every face of K, the empty one included, and one drawn probe
    against a scan of every facet; vertex 9 is never in K.  A probe that
    is not a face raises the precondition text."""
    K = make_complex([[v_label(i) for i in f] for f in facet_sets])
    for k in range(-1, K.dimension + 1):
        for face in faces(K, k):
            assert link(face, K) == reference_link(face, K)
    face = simplex(v_label(i) for i in probe)
    expected = reference_link(face, K)
    if expected is None:
        message = rf"^\[{re.escape(str(face))}\] is not a face of the complex$"
        with pytest.raises(PreconditionFailed, match=message):
            link(face, K)
    else:
        assert link(face, K) == expected


def test_star_equals_face_join_link():
    for K in (DELTA2, DELTA4, standard_sphere(2), standard_sphere(3)):
        for face in list(faces(K, 0)) + list(faces(K, 1)):
            lk = link(face, K)
            star_direct = make_complex(
                [f.vertices for f in K.facets if face.vertex_set <= f.vertex_set]
            )
            star_join = join(make_complex([face.vertices]), lk)
            assert star_join == star_direct


def test_standard_sphere_contains_expected_facets():
    S = standard_sphere(3)
    names = {str(f) for f in S.facets}
    assert "v1 v2 v3 v4" in names
    assert "v1 v2 v3 v5" in names
    S0 = standard_sphere(0)
    assert len(S0.facets) == 2 and S0.dimension == 0


def test_pseudomanifold_reports():
    good = pseudomanifold_check(standard_sphere(4))
    assert good.pure and good.closed and good.connected

    ball = cone(parse_label("u4"), DELTA4)
    rep = pseudomanifold_check(ball)
    assert rep.pure and not rep.closed
    assert rep.boundary_ridges == 22

    two = make_complex([labels("a b c"), labels("d e f")])
    assert not pseudomanifold_check(two).connected

    # a ridge in three facets breaks the bound
    fan = make_complex([labels("a b c"), labels("a b d"), labels("a b e")])
    rep = pseudomanifold_check(fan)
    assert rep.max_ridge_multiplicity == 3 and not rep.ridge_bound_ok


def test_pseudomanifold_report_is_kept_and_shared_by_equal_complexes():
    K = cone(parse_label("u4"), DELTA4)
    first = pseudomanifold_check(K)
    assert pseudomanifold_check(K) is first
    again = make_complex(K.facets)
    assert again == K and hash(again) == hash(K) and again is not K
    assert again.shape is K.shape and pseudomanifold_check(again) is first
    # a complex with another facet pattern has its own report
    assert pseudomanifold_check(DELTA4) is not first


def test_the_empty_complex_is_closed_and_has_no_boundary():
    report = pseudomanifold_check(empty_complex())
    assert (report.pure, report.closed, report.connected) == (True, True, True)
    assert (report.max_ridge_multiplicity, report.boundary_ridges) == (0, 0)
    assert boundary_complex(empty_complex()) == empty_complex()


def test_boundary_of_ball_boundary_is_empty():
    for ball in (cone(parse_label("u4"), DELTA4), DELTA2, cone(parse_label("x"), standard_sphere(2))):
        assert boundary_complex(boundary_complex(ball)).is_empty


names = st.sampled_from("a b c d e f g h".split())
small_facets = st.lists(
    st.sets(names, min_size=1, max_size=4).map(sorted), min_size=1, max_size=6
)


@given(small_facets, small_facets)
@settings(max_examples=60, deadline=None)
def test_join_dimension_property(fa, fb):
    A = make_complex([[parse_label(x) for x in f] for f in fa])
    B = make_complex([[parse_label("z" + x) for x in f] for f in fb])
    J = join(A, B)
    assert J.dimension == A.dimension + B.dimension + 1
    # associativity up to canonical form, with a third disjoint complex
    C = make_complex([[parse_label("q")]])
    assert join(join(A, B), C) == join(A, join(B, C))


@given(small_facets)
@settings(max_examples=40, deadline=None)
def test_make_complex_idempotent_under_subsets(fs):
    K = make_complex([[parse_label(x) for x in f] for f in fs])
    with_faces = [f.vertices for f in K.facets] + [
        f.vertices[:-1] for f in K.facets
    ]
    assert make_complex(with_faces) == K


def test_simplex_is_its_vertex_tuple():
    s = simplex_of("u1 u2 u3")
    plain = tuple(labels("u1 u2 u3"))
    assert type(plain) is tuple and s == plain and hash(s) == hash(plain)
    assert {s: "simplex"}[plain] == "simplex"
    assert {plain: "tuple"}[s] == "tuple"
    assert s.vertices == plain and s.dimension == 2
    # the ridge u1_1 u3_1 joins facets 0 and 1, each without its vertex 1
    for i in (0, 1):
        f = DELTA2.facets[i]
        assert f[:1] + f[2:] == simplex_of("u1_1 u3_1")
        assert DELTA2.shape.facet_ridges[i][1] == ((0, 1), (1, 1))


@given(
    st.lists(
        st.sets(st.integers(1, 7), max_size=5).map(sorted), min_size=1, max_size=12
    )
)
@example([[1, 2], [2, 3], [2, 1]])  # pure, with a repeated facet
@example([[]])
@example([])
@example([[1], [2, 3], [1, 2, 4], [3, 4, 5]])  # mixed, the largest facets last
@settings(max_examples=80, deadline=None)
def test_make_complex_keeps_exactly_the_maximal_facets(facet_lists):
    """Against a brute-force filter that compares every pair; no facet
    at all is the empty complex."""
    facets = {frozenset(v_label(i) for i in f) for f in facet_lists}
    maximal = [f for f in facets if not any(f < g for g in facets)]
    K = make_complex([[v_label(i) for i in f] for f in facet_lists])
    assert K.facets == (tuple(sorted(simplex(f) for f in maximal)) or (EMPTY_SIMPLEX,))


def faces_by_label_combinations(K, k):
    return {Simplex(c) for f in K.facets for c in combinations(f, k + 1)}


def assert_lattice_in_label_order(K):
    """Face bases are the sorted faces, and the f-vector counts the
    faces that label combinations of the facets give."""
    for k in range(-1, K.dimension + 1):
        expected = faces_by_label_combinations(K, k)
        assert faces(K, k) == tuple(sorted(expected))
    fv, euler = f_vector_and_euler(K)
    counts = tuple(len(faces_by_label_combinations(K, k)) for k in range(-1, K.dimension + 1))
    assert fv.counts == counts
    assert euler == sum((-1) ** i * c for i, c in enumerate(counts[1:]))


def test_face_lattice_order_on_construction_sources():
    for build, args in CONSTRUCTION_GRID:
        assert_lattice_in_label_order(build(*args).source)


MIXED_LABELS = "a b u4 u4p u1_3 u1_3p u12 v2 v10".split()


@given(
    st.permutations(MIXED_LABELS),
    st.lists(st.sets(st.integers(0, 8), min_size=1, max_size=4), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_face_lattice_order_under_relabelling(names, facet_sets):
    """Labels of every shape (plain, indexed, class/index, primed) in
    any assignment to vertex numbers."""
    K = make_complex([[parse_label(names[i]) for i in f] for f in facet_sets])
    assert_lattice_in_label_order(K)


@pytest.mark.parametrize(
    "K,lattice",
    [
        (
            complex_of(["a b c", "c d", "e"]),
            (
                ((),),
                ((0,), (1,), (2,), (3,), (4,)),
                ((0, 1), (0, 2), (1, 2), (2, 3)),
                ((0, 1, 2),),
            ),
        ),
        (complex_of(["a"]), (((),), ((0,),))),
        (empty_complex(), (((),),)),
    ],
    ids=["facets of three sizes", "a lone vertex", "empty"],
)
def test_face_lattice_holds_the_facets_of_every_size(K, lattice):
    """The lattice is built from the top down, so each level must also
    take the facets of its own size: the edge c d and the vertex e lie
    in no larger facet."""
    assert K.shape.face_lattice == lattice
    assert_lattice_in_label_order(K)


def test_faces_out_of_range():
    for K in (DELTA2, standard_sphere(0), empty_complex()):
        assert faces(K, -1) == (EMPTY_SIMPLEX,)
        for k in (-2, K.dimension + 1, K.dimension + 5):
            assert faces(K, k) == ()
    assert f_vector_and_euler(empty_complex())[0].counts == (1,)


def ridge_rule_holds(K, signs):
    """Brute force: every two facets f, g on a common ridge have
    ``signs[f] * signs[g] == -(-1)**(p + q)``, p and q the positions of
    the vertex each has off the other."""
    for f, g in combinations(K.facets, 2):
        if len(f) == len(g) and len(set(f) & set(g)) == len(f) - 1:
            (a,) = set(f) - set(g)
            (b,) = set(g) - set(f)
            if signs[f] * signs[g] != -((-1) ** (f.index(a) + g.index(b))):
                return False
    return True


mixed_facets = st.lists(
    st.sets(st.integers(1, 7), min_size=1, max_size=4), min_size=1, max_size=8
)
pure_facets = st.integers(1, 4).flatmap(
    lambda size: st.lists(
        st.sets(st.integers(1, 7), min_size=size, max_size=size), min_size=1, max_size=8
    )
)
MOBIUS = [{i % 5 + 1, (i + 1) % 5 + 1, (i + 2) % 5 + 1} for i in range(5)]
ANNULUS = [{1, 2, 4}, {2, 4, 5}, {2, 3, 5}, {3, 5, 6}, {1, 3, 6}, {1, 4, 6}]
RP2 = [{int(w[1:]) for w in t.split()} for t in PROJECTIVE_PLANE]


@given(st.one_of(mixed_facets, pure_facets))
@example(MOBIUS)
@example(RP2)
@example(ANNULUS)
@example([{1, 2, 3}, {1, 2, 4}, {1, 2, 5}, {3, 4, 5}])
@example([{1, 2, 3}, {4, 5, 6}, {1, 2, 7}])
@example([{1, 2, 3}, {3, 4}, {5}])
@example([{1}, {2}])
@settings(max_examples=200, deadline=None)
def test_ridge_index_against_pairwise_brute_force(facet_sets):
    """The pseudomanifold report, the boundary and the orientation from
    every base facet and sign, read off the ridge index, agree with
    counting every facet minus one vertex and comparing every pair of
    facets."""
    K = make_complex([[v_label(i) for i in f] for f in facet_sets])
    count = Counter(f[:p] + f[p + 1 :] for f in K.facets for p in range(len(f)))
    joined = {
        (f, g)
        for f in K.facets
        for g in K.facets
        if len(f) == len(g) and len(set(f) & set(g)) == len(f) - 1
    }
    reached = {K.facets[0]}
    while True:
        more = {g for f, g in joined if f in reached} - reached
        if not more:
            break
        reached |= more
    rep = pseudomanifold_check(K)
    assert rep.max_ridge_multiplicity == max(count.values())
    assert rep.boundary_ridges == sum(1 for c in count.values() if c == 1)
    assert rep.connected == (len(reached) == len(K.facets))
    if not K.is_pure:
        return
    boundary = sorted(Simplex(r) for r, c in count.items() if c == 1)
    assert boundary_complex(K) == (
        make_complex(boundary) if boundary else empty_complex()
    )
    if not rep.connected or rep.max_ridge_multiplicity > 2:
        return
    orientable = any(
        ridge_rule_holds(K, dict(zip(K.facets, signs)))
        for signs in product((1, -1), repeat=len(K.facets))
    )
    if not orientable:
        witnesses = set()
        for base, sign in product(K.facets, (1, -1)):
            with pytest.raises(NonOrientable) as raised:
                coherent_orientation(K, base, sign)
            witnesses.add(raised.value.witness)
        assert len(witnesses) == 1 and witnesses <= set(K.facets)
        return
    first = coherent_orientation(K, K.facets[0], 1).signs
    for base, sign in product(K.facets, (1, -1)):
        signs = coherent_orientation(K, base, sign).signs
        assert signs[base] == sign
        assert ridge_rule_holds(K, signs)
        assert signs in (first, {f: -s for f, s in first.items()})


# ---------------------------------------------------------------------------
# Shapes: what a complex derives from its integer facet pattern, shared


def relabelled_in_order(K, name):
    """K with its i-th vertex in label order renamed ``name(i)``, which
    must be increasing in i: the facet pattern stays the same."""
    rename = {v: name(i) for i, v in enumerate(K.vertices)}
    return make_complex([[rename[v] for v in f] for f in K.facets])


def test_relabelled_copies_share_one_shape_and_boundary_matrix():
    K = cone(parse_label("u4"), DELTA4)
    L = relabelled_in_order(K, lambda i: parse_label(f"x{i}"))
    assert L != K and L.numbered_facets == K.numbered_facets
    assert L.shape is K.shape
    for k in range(K.dimension + 1):
        assert boundary_matrix(L, k) is boundary_matrix(K, k)


def test_shape_leaves_the_table_once_no_complex_holds_it():
    # a pattern no other test keeps alive: a 9-gon with a pendant edge
    K = complex_of([f"q{i} q{(i + 1) % 9}" for i in range(9)] + ["q0 z"])
    pattern = K.numbered_facets
    assert pattern not in _SHAPES
    twin = relabelled_in_order(K, lambda i: parse_label(f"y{i}"))
    shape = weakref.ref(K.shape)
    assert twin.shape is shape() and _SHAPES[pattern] is shape()
    assert boundary_matrix(twin, 1) is shape().boundary_matrices[1]
    del K
    gc.collect()
    assert _SHAPES[pattern] is shape()  # the twin still holds it
    del twin
    gc.collect()
    assert shape() is None and pattern not in _SHAPES


def private_copy(K):
    """An equal complex with a shape derived afresh, outside the table."""
    fresh = Complex(K.facets)
    fresh.__dict__["shape"] = Shape(tuple(tuple(f) for f in K.numbered_facets))
    return fresh


@given(
    st.permutations(MIXED_LABELS),
    st.permutations(MIXED_LABELS),
    st.lists(st.sets(st.integers(0, 8), min_size=1, max_size=4), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_shared_shape_matches_a_private_derivation(names, other_names, facet_sets):
    """Over relabellings, whether two copies share a shape or not, what
    each reads off its shared shape equals a derivation of its own."""
    copies = [
        make_complex([[parse_label(names[i]) for i in f] for f in facet_sets]),
        make_complex([[parse_label(other_names[i]) for i in f] for f in facet_sets]),
    ]
    copies.append(relabelled_in_order(copies[0], lambda i: parse_label(f"w{i}")))
    assert copies[2].shape is copies[0].shape
    assert (copies[1].shape is copies[0].shape) == (
        copies[1].numbered_facets == copies[0].numbered_facets
    )
    for K in copies:
        own = private_copy(K)
        assert own.shape is not K.shape and own.shape.facets is not K.shape.facets
        assert K.shape.face_lattice == own.shape.face_lattice
        assert K.shape.facet_ridges == own.shape.facet_ridges
        assert K.shape.dual_walk == own.shape.dual_walk
        assert K.shape.stars == own.shape.stars
        assert pseudomanifold_check(K) == pseudomanifold_check(own)
        assert homology_groups(K) == homology_groups(own)
