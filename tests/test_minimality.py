import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from sphere_forge import (
    ConstructionBundle,
    VertexMap,
    build_facet_cone_sphere,
    build_join_cone_sphere,
    degree_by_counting,
    build_stacked_sphere,
    enumerate_2spheres,
    f_vector_and_euler,
    max_abs_degree,
    sphere_check,
    verify_bundle,
    verify_small_sphere_bounds,
)
from sphere_forge.complex_core import join, make_complex, standard_sphere
from sphere_forge import minimality
from sphere_forge.cli import main
from sphere_forge.errors import (
    InconsistentAlg,
    NotClosed,
    PreconditionFailed,
)
from sphere_forge.labels import parse_label, v_label
from sphere_forge.minimality import (
    _canonical_form,
    _scan_order,
    _search_triangulations,
    census_label,
    degree_survey,
)
from sphere_forge.orientation import OrientedComplex

from fixtures import (
    reference_canonical_form,
    reference_frontier_survey,
    reference_product_survey,
)


@pytest.mark.parametrize("v,count", [(4, 1), (5, 1), (6, 2), (7, 5), (8, 14), (9, 50)])
def test_census_sizes(v, count):
    assert len(enumerate_2spheres(v)) == count


@pytest.mark.parametrize("descending", [False, True])
def test_canonical_form_separates_eight_vertex_classes(descending):
    """v = 8 has 14 classes (OEIS A000109), and degree sequences alone
    tell only 13 of them apart."""
    keys = {_canonical_form(t) for t in _search_triangulations(8, descending)}
    assert len(keys) == 14
    assert len({degrees for degrees, _code in keys}) == 13


@pytest.mark.parametrize("v", [4, 5, 6, 7, 8])
def test_both_branching_orders_find_the_same_labelled_triangulations(v):
    """Each order is complete on its own, which is what lets the census
    compute one key per labelled triangulation for both runs."""
    assert _search_triangulations(v, False) == _search_triangulations(v, True)


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("v", [4, 5, 6, 7, 8])
def test_canonical_form_matches_reference(v, descending):
    """The census keys, and so the census order and its ``w`` labels,
    are those of the full walks from every flag of least degree
    triple."""
    for triangles in _search_triangulations(v, descending):
        assert _canonical_form(triangles) == reference_canonical_form(triangles)


def test_canonical_form_matches_reference_where_walks_differ():
    """On at most eight vertices every flag of least degree triple
    walks to the same code.  Nine vertices is the first count where
    the walks from those flags give different codes, so the key must
    be the least of them."""
    for triangles in _search_triangulations(9, False):
        assert _canonical_form(triangles) == reference_canonical_form(triangles)


CENSUS_KEYS = [e.canonical_key for v in range(4, 8) for e in enumerate_2spheres(v)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CENSUS_KEYS), st.randoms(use_true_random=False))
def test_canonical_form_ignores_relabelling(key, rng):
    degrees, code = key
    v = len(degrees)
    sigma = list(range(v))
    rng.shuffle(sigma)
    relabelled = frozenset(tuple(sorted(sigma[x] for x in tri)) for tri in code)
    assert _canonical_form(relabelled) == key


def test_census_entries_are_spheres():
    for v in range(4, 8):
        for entry in enumerate_2spheres(v):
            assert v == len(entry.complex.vertices)
            report = sphere_check(entry.complex, 2, "certify_low_dim")
            assert report.passed
            # closed-surface identities
            fv, euler = f_vector_and_euler(entry.complex)
            assert fv[2] == 2 * fv[0] - 4
            assert 2 * fv[1] == 3 * fv[2]
            assert euler == 2


def test_census_out_of_range():
    with pytest.raises(PreconditionFailed, match="^census supports 4 <= v <= 9, got 10$"):
        enumerate_2spheres(10)
    with pytest.raises(PreconditionFailed, match="^census supports 4 <= v <= 9, got 3$"):
        enumerate_2spheres(3)


@pytest.mark.parametrize("v", [8, 9])
def test_eight_and_nine_vertex_spheres_reach_degree_three(v):
    """Degree 3 needs 8 vertices, and a ninth vertex allows no more."""
    assert max(max_abs_degree(e.complex)[0] for e in enumerate_2spheres(v)) == 3


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
    """On the product scan, which counts each assignment on its own; the
    frontier scan counts d and -d together by construction."""
    for v in (4, 5, 6):
        for entry in enumerate_2spheres(v):
            K = entry.complex
            degrees, _, _ = reference_product_survey(K, range(len(K.vertices)))
            assert all(degrees[d] == degrees[-d] for d in degrees)


def test_seven_vertex_construction_attains_two():
    from sphere_forge import build_join_cone_sphere

    bundle = build_join_cone_sphere(2, 2)
    assert len(bundle.source.vertices) == 7
    best, witness = max_abs_degree(bundle.source)
    assert best == 2 and witness is not None


def test_verify_report_restricted():
    report = verify_small_sphere_bounds()
    assert report.census_sizes == {4: 1, 5: 1, 6: 2, 7: 5}
    assert report.degree2_bound_ok
    assert report.passed


def test_census_exports_in_standard_formats():
    from sphere_forge.formats import complex_to_json, complex_from_json

    for entry in enumerate_2spheres(6):
        loaded, _ = complex_from_json(complex_to_json(entry.complex))
        assert loaded == entry.complex


def _survey_order(K):
    """The order in which the survey assigns K's vertices, as indices
    into ``K.vertices``; read through the module, so it follows a
    patched ``_scan_order``."""
    return minimality._scan_order(len(K.vertices), K.numbered_facets)


def _witness_values(survey, K):
    """The survey's witness as a tuple of target indices in label order."""
    return tuple(survey.witness.assignment[lab].item_index - 1 for lab in K.vertices)


def _assert_matches_reference(K):
    """The survey's largest |degree| and witness are the product scan's,
    and in dimension two the frontier scan gives the product scan's
    degrees too; returns those degrees."""
    order = _survey_order(K)
    degrees, best, witness = reference_product_survey(K, order)
    survey = degree_survey(K)
    assert survey.max_abs == best
    assert _witness_values(survey, K) == witness
    if K.dimension == 2:
        assert reference_frontier_survey(K, order) == (degrees, best, witness)
    return degrees


@pytest.mark.parametrize("v", [4, 5, 6, 7])
def test_survey_matches_reference_scan_on_census(v):
    for entry in enumerate_2spheres(v):
        _assert_matches_reference(entry.complex)


def test_survey_matches_reference_scan_on_constructions():
    _assert_matches_reference(build_join_cone_sphere(2, 2).source)
    _assert_matches_reference(build_stacked_sphere(2).source)


@settings(max_examples=5, deadline=None)
@given(st.randoms(use_true_random=False))
def test_survey_matches_reference_scan_on_relabelled_stacked(rng):
    K = build_stacked_sphere(2).source
    old = list(K.vertices)
    new = old[:]
    rng.shuffle(new)
    sigma = dict(zip(old, new))
    relabelled = make_complex([[sigma[lab] for lab in facet] for facet in K.facets])
    _assert_matches_reference(relabelled)


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_survey_matches_reference_scan_on_relabelled_join_cone(rng):
    """Relabelling reorders the vertices, so the scan meets a different
    sequence of partial assignments each time."""
    K = build_join_cone_sphere(2, 2).source
    old = list(K.vertices)
    new = old[:]
    rng.shuffle(new)
    sigma = dict(zip(old, new))
    relabelled = make_complex([[sigma[lab] for lab in facet] for facet in K.facets])
    _assert_matches_reference(relabelled)


def test_survey_matches_reference_scan_on_seven_vertex_torus():
    """A closed orientable surface that is not a sphere."""
    w = [census_label(i) for i in range(7)]
    torus = make_complex(
        [w[i], w[(i + a) % 7], w[(i + 3) % 7]] for i in range(7) for a in (1, 2)
    )
    assert f_vector_and_euler(torus)[1] == 0
    _assert_matches_reference(torus)
    assert degree_survey(torus).max_abs == 2


def test_survey_of_ten_vertex_join_cone_is_pinned():
    """Too slow for the product scan in the suite, so the distribution
    of the frontier scan is pinned as the one-assignment-at-a-time
    backtracking scan gave it, and the witness as the product scan over
    all 4^10 assignments, read in the survey's scan order (u4, u2_2,
    u1_2, u3_1, ...), gave it.  It is the one RGS of |degree| 3, and the
    scan meets the classes u4, u2, u1, u3 in that order."""
    K = build_join_cone_sphere(2, 3).source
    survey = degree_survey(K)
    degrees, best, witness = reference_frontier_survey(K, _survey_order(K))
    assert degrees == Counter(
        {0: 471144, 1: 166068, -1: 166068, 2: 7608, -2: 7608, 3: 12, -3: 12}
    )
    assert survey.max_abs == best == 3
    assert _witness_values(survey, K) == witness
    assert {str(a): str(b) for a, b in survey.witness.assignment.items()} == {
        "u4": "v1",
        "u2_1": "v2",
        "u2_2": "v2",
        "u2_3": "v2",
        "u1_1": "v3",
        "u1_2": "v3",
        "u1_3": "v3",
        "u3_1": "v4",
        "u3_2": "v4",
        "u3_3": "v4",
    }


@pytest.mark.parametrize("v", [4, 5, 6, 7])
def test_frontier_reference_counts_every_surjection_once(v):
    surjections = 4**v - 4 * 3**v + 6 * 2**v - 4
    for entry in enumerate_2spheres(v):
        degrees, _, _ = reference_frontier_survey(entry.complex, _survey_order(entry.complex))
        assert sum(degrees.values()) == surjections


def test_survey_refuses_sources_outside_dimensions_one_to_six():
    """Dimension 0 and the empty complex have no survey; dimension 7
    would need a step table of 2^32 entries.  Dimension 3 is surveyed:
    the 5 vertices of the boundary of the 4-simplex map onto themselves
    in 5! ways, each of degree +-1, by the product scan."""
    with pytest.raises(PreconditionFailed, match="got dimension 0$"):
        degree_survey(standard_sphere(0))
    with pytest.raises(PreconditionFailed, match="got the empty complex$"):
        degree_survey(make_complex([[]]))
    with pytest.raises(PreconditionFailed, match="got dimension 7$"):
        degree_survey(standard_sphere(7))
    K = standard_sphere(3)
    assert degree_survey(K).max_abs == 1
    assert reference_product_survey(K, _survey_order(K))[0] == Counter({1: 60, -1: 60})


def test_survey_refuses_a_surface_with_boundary():
    """Two triangles on an edge are pure, connected and orientable, but
    their signed counts differ across target facets."""
    w = [census_label(i) for i in range(4)]
    disc = make_complex([[w[0], w[1], w[2]], [w[1], w[2], w[3]]])
    with pytest.raises(NotClosed, match="4 boundary ridges$"):
        degree_survey(disc)
    pinched = make_complex(
        [[w[0], w[1], w[2]], [w[0], w[1], w[3]], [w[0], w[1], census_label(4)]]
    )
    with pytest.raises(NotClosed, match="a ridge in 3 facets$"):
        degree_survey(pinched)


def test_survey_raises_when_signed_counts_disagree(monkeypatch):
    """The totals check is an exception, not an assert, so it also runs
    under ``python -O``.  One facet's sign flipped makes the source
    orientation incoherent, so the bijections count that facet against
    its target facet alone."""
    orient = minimality.coherent_orientation

    def flip_one(K, base, sign):
        oriented = orient(K, base, sign)
        signs = dict(oriented.signs)
        signs[K.facets[0]] *= -1
        return OrientedComplex(oriented.complex, signs, oriented.closed)

    monkeypatch.setattr(minimality, "coherent_orientation", flip_one)
    with pytest.raises(InconsistentAlg, match="disagree"):
        degree_survey(enumerate_2spheres(4)[0].complex)


def _relabelled(K, seed):
    old = list(K.vertices)
    new = old[:]
    random.Random(seed).shuffle(new)
    sigma = dict(zip(old, new))
    return make_complex([[sigma[lab] for lab in facet] for facet in K.facets])


def _census_class_complexes(v):
    """One complex per isomorphism class of v-vertex 2-spheres, also
    past the census's own range."""
    keys = {_canonical_form(t) for t in _search_triangulations(v, False)}
    return [
        make_complex([[census_label(i) for i in tri] for tri in code])
        for _degrees, code in sorted(keys)
    ]


def _assert_matches_label_order_scan(K):
    """The largest |degree| is that of the frontier merge in label
    order; the witness is that of the frontier merge in the survey's
    scan order, which gives the same degrees."""
    degrees, best, _ = reference_frontier_survey(K, range(len(K.vertices)))
    survey = degree_survey(K)
    assert survey.max_abs == best
    assert reference_frontier_survey(K, _survey_order(K)) == (
        degrees,
        best,
        _witness_values(survey, K),
    )


@pytest.mark.parametrize("v,classes", [(4, 1), (5, 1), (6, 2), (7, 5), (8, 14), (9, 50)])
def test_survey_matches_label_order_scan_on_census_classes(v, classes):
    complexes = _census_class_complexes(v)
    assert len(complexes) == classes
    for K in complexes:
        _assert_matches_label_order_scan(K)


@pytest.mark.parametrize(
    "construct,args",
    [(build_join_cone_sphere, (2, 3)), (build_stacked_sphere, (2,))],
    ids=["join-cone n=2 d=3", "stacked n=2"],
)
def test_survey_matches_label_order_scan_on_relabellings(construct, args):
    """The scan order comes from the surface and moves with the labels;
    the largest |degree| does not."""
    K = construct(*args).source
    for seed in range(20):
        _assert_matches_label_order_scan(_relabelled(K, seed))


def test_survey_matches_label_order_scan_on_seven_vertex_torus():
    w = [census_label(i) for i in range(7)]
    torus = make_complex(
        [w[i], w[(i + a) % 7], w[(i + 3) % 7]] for i in range(7) for a in (1, 2)
    )
    _assert_matches_label_order_scan(torus)


def _frontier_width(K):
    """Most vertices the survey's scan holds on its frontier at once."""
    index = {lab: i for i, lab in enumerate(K.vertices)}
    triangles = [tuple(index[lab] for lab in facet) for facet in K.facets]
    order = _scan_order(len(index), triangles)
    step = {u: k for k, u in enumerate(order)}
    last = {u: max(max(step[w] for w in tri) for tri in triangles if u in tri) for u in order}
    return max(
        sum(1 for u in order[: k + 1] if last[u] > k) for k in range(len(order))
    )


def test_scan_order_keeps_the_frontier_narrow_under_relabelling():
    """Label order holds up to 9 of the 10 join-cone vertices on the
    frontier for some labellings."""
    K = build_join_cone_sphere(2, 3).source
    for seed in range(20):
        assert _frontier_width(_relabelled(K, seed)) <= 5


def _seven_vertex_torus():
    w = [census_label(i) for i in range(7)]
    return make_complex(
        [w[i], w[(i + a) % 7], w[(i + 3) % 7]] for i in range(7) for a in (1, 2)
    )


@pytest.mark.parametrize(
    "K",
    [entry.complex for v in range(4, 8) for entry in enumerate_2spheres(v)]
    + [_seven_vertex_torus()],
)
def test_one_triangle_onto_a_facet_and_the_rest_onto_v4_has_degree_one(K):
    """The map behind the survey's claim that a witness always exists:
    only the chosen triangle covers the facet v1 v2 v3."""
    target = standard_sphere(2)
    for tau in K.facets:
        assignment = {lab: v_label(4) for lab in K.vertices}
        assignment.update(zip(tau.vertices, (v_label(1), v_label(2), v_label(3))))
        bundle = ConstructionBundle(
            source=K,
            target=target,
            vertex_map=VertexMap(assignment),
            source_base=tau.vertices,
            target_base=(v_label(1), v_label(2), v_label(3)),
            expected_degree=None,
            expected_vertices=len(K.vertices),
            label="one triangle",
        )
        assert degree_by_counting(bundle).degree == 1
    assert degree_survey(K).max_abs >= 1


def test_census_cross_check_fails_when_the_search_orders_disagree(monkeypatch, capsys):
    search = minimality._search_triangulations

    def lossy(v, descending):
        found = search(v, descending)
        if descending and v == 6:
            dropped = min(_canonical_form(t) for t in found)
            found = {t for t in found if _canonical_form(t) != dropped}
        return found

    monkeypatch.setattr(minimality, "_search_triangulations", lossy)
    report = verify_small_sphere_bounds()
    assert report.census_sizes == {4: 1, 5: 1, 6: 2, 7: 5}
    assert report.orders_agree is False
    assert report.passed is False
    assert main(["verify", "minimality"]) == 1
    assert "independent search orders agree: False\n" in capsys.readouterr().out


def _label_order(v, triangles):
    return list(range(v))


def _shuffled_order(seed):
    def order(v, triangles):
        out = list(range(v))
        random.Random(seed).shuffle(out)
        return out

    return order


@pytest.mark.parametrize(
    "scan_order",
    [_label_order] + [_shuffled_order(seed) for seed in range(5)],
    ids=["label order"] + [f"shuffled {seed}" for seed in range(5)],
)
def test_survey_does_not_depend_on_its_vertex_order(monkeypatch, scan_order):
    """Any scan order gives the same largest |degree|, and the witness is
    the least map read in that order; only the cost follows the order."""
    sources = [K for v in range(4, 9) for K in _census_class_complexes(v)]
    assert len(sources) == 23
    sources.append(_seven_vertex_torus())

    def outcome():
        return [s.max_abs for s in map(degree_survey, sources)]

    expected = outcome()
    monkeypatch.setattr(minimality, "_scan_order", scan_order)
    assert outcome() == expected
    for K in sources:
        survey = degree_survey(K)
        _, _, witness = reference_frontier_survey(K, _survey_order(K))
        assert _witness_values(survey, K) == witness


def test_scan_from_an_edge_holds_at_most_481_states(monkeypatch):
    """Over the relabellings ``Random(0..39)`` of the join-cone source
    (the shuffle of ``perfbench/workloads.py``), the survey holds at
    most 481 states at once; a second vertex of least label gave 524.
    The largest |degree| is that of the label-order scan, and each
    witness is the frontier merge's in the survey's scan order."""
    K = build_join_cone_sphere(2, 3).source
    sources = [_relabelled(K, seed) for seed in range(40)]
    surveys = [degree_survey(L) for L in sources]
    assert max(survey.peak_states for survey in surveys) == 481
    for L, survey in zip(sources, surveys):
        _, _, witness = reference_frontier_survey(L, _survey_order(L))
        assert _witness_values(survey, L) == witness
    monkeypatch.setattr(minimality, "_scan_order", _label_order)
    for L, survey in zip(sources, surveys):
        assert survey.max_abs == degree_survey(L).max_abs


@pytest.mark.parametrize(
    "sources",
    [
        pytest.param(
            lambda: [K for v in range(4, 10) for K in _census_class_complexes(v)],
            id="census classes v=4..9",
        ),
        pytest.param(
            lambda: [
                _relabelled(build_join_cone_sphere(2, 3).source, s) for s in range(20)
            ],
            id="join-cone n=2 d=3 relabelled",
        ),
        pytest.param(
            lambda: [_relabelled(build_stacked_sphere(2).source, s) for s in range(20)],
            id="stacked n=2 relabelled",
        ),
    ],
)
def test_each_witness_passes_the_bundle_battery_at_the_largest_degree(sources):
    """Each witness is checked on its own, not only against a reference:
    as a bundle onto the boundary of the 3-simplex, built as the
    benchmark's survey item builds it, it passes the full battery and
    both oracles read |degree| max_abs."""
    for K in sources():
        survey = degree_survey(K)
        bundle = ConstructionBundle(
            source=K,
            target=standard_sphere(2),
            vertex_map=survey.witness,
            source_base=K.facets[0].vertices,
            target_base=(v_label(1), v_label(2), v_label(3)),
            expected_degree=None,
            expected_vertices=len(K.vertices),
            label="survey witness",
        )
        report = verify_bundle(bundle)
        assert report.passed, [c for c in report.checks if not c.ok]
        assert abs(report.counting_degree) == survey.max_abs


def _suspension(K):
    """The join of two new points with K, one dimension up."""
    return join(make_complex([[parse_label("x1")], [parse_label("x2")]]), K)


@pytest.mark.parametrize(
    "K",
    [standard_sphere(3)]
    + [_suspension(entry.complex) for v in (4, 5) for entry in enumerate_2spheres(v)],
    ids=["boundary of the 4-simplex", "suspended 4-vertex sphere", "suspended 5-vertex sphere"],
)
def test_survey_matches_reference_scan_in_dimension_three(K):
    """Five colours: the largest |degree| and the least map of it in
    scan order, against all 5^v assignments, whose summed degrees count
    the surjections onto five colours, by inclusion-exclusion."""
    assert K.dimension == 3
    degrees = _assert_matches_reference(K)
    v = len(K.vertices)
    surjections = sum((-1) ** j * comb(5, j) * (5 - j) ** v for j in range(5))
    assert sum(degrees.values()) == surjections


@pytest.mark.parametrize("L", range(3, 13))
def test_polygons_map_with_degree_a_third_of_their_edges(L):
    """A map of an L-gon onto the triangle winds at most once around it
    per three edges."""
    w = [census_label(i) for i in range(L)]
    polygon = make_complex([w[i], w[(i + 1) % L]] for i in range(L))
    assert degree_survey(polygon).max_abs == L // 3


@pytest.mark.parametrize(
    "construct,args,largest,peak",
    [
        (build_join_cone_sphere, (3, 2), 2, 91),
        (build_facet_cone_sphere, (3, 3), 3, 171),
        (build_stacked_sphere, (3,), 4, 235),
        (build_stacked_sphere, (4,), 5, 991),
    ],
    ids=["join-cone n=3 d=2", "facet-cone n=3 k=3", "stacked n=3", "stacked n=4"],
)
def test_survey_of_paper_spheres_above_dimension_two(construct, args, largest, peak):
    """The largest |degree| onto the boundary of the (n+1)-simplex is
    pinned, and the witness, as a bundle, passes the full battery with
    both oracles reading that |degree|.  The most states held at once
    is pinned too, since it follows the scan order and nothing else
    here does."""
    K = construct(*args).source
    n = K.dimension
    survey = degree_survey(K)
    assert survey.max_abs == largest
    assert survey.peak_states == peak
    bundle = ConstructionBundle(
        source=K,
        target=standard_sphere(n),
        vertex_map=survey.witness,
        source_base=K.facets[0].vertices,
        target_base=tuple(v_label(i) for i in range(1, n + 2)),
        expected_degree=None,
        expected_vertices=len(K.vertices),
        label="survey witness",
    )
    report = verify_bundle(bundle)
    assert report.passed, [c for c in report.checks if not c.ok]
    assert abs(report.counting_degree) == abs(report.cycle_degree) == largest


def test_survey_of_relabelled_stacked_four_sphere_holds_at_most_1000_states():
    """Before some facet has n assigned vertices none completes, and the
    scan takes the vertex on the most facets missing two vertices, then
    three, not the least label; by label order the relabellings
    ``Random(0..9)`` of ``stacked n=4`` held from 1 639 to 156 223
    states.  The largest |degree| does not move."""
    K = build_stacked_sphere(4).source
    for seed in range(10):
        survey = degree_survey(_relabelled(K, seed))
        assert survey.peak_states <= 1000
        assert survey.max_abs == 5
