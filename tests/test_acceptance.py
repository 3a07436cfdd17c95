"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure) and asserts both the checked facts and its runtime budget.
The construction sweeps are computed once in a session fixture and
shared, so the dual-oracle comparisons run exactly once per bundle.
"""

import random
import time

import pytest

import sphere_forge
from sphere_forge import (
    ConstructionBundle,
    VertexMap,
    boundary_complex,
    boundary_matrix,
    build_delta,
    build_double_cone_sphere,
    build_facet_cone_sphere,
    build_join_cone_sphere,
    build_stacked_sphere,
    coherent_orientation,
    compose,
    degree_by_counting,
    degree_by_cycle,
    f_vector_and_euler,
    homology_groups,
    identity_map,
    disc_sign_census,
    standard_sphere,
    swap_map,
    verify_small_sphere_bounds,
)
from sphere_forge.cli import run_degree
from sphere_forge.errors import NonOrientable
from sphere_forge.formats import bundle_to_json
from sphere_forge.labels import v_label

from fixtures import (
    DEGREE4_ALPHA,
    DEGREE4_ALPHA_SIX,
    PROJECTIVE_PLANE,
    complex_of,
    facet_set,
    matrix_product_is_zero,
)


def report_line(cid, ok, elapsed, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {detail}")


def verify_bundle(bundle, level):
    """Full per-bundle battery; returns a dict of booleans."""
    result = sphere_forge.verify_bundle(bundle)
    assert result.sphere.level == level
    ok = {c.name: c.ok for c in result.checks}
    return {
        "vertices": ok["vertex_count"],
        "sphere": ok["sphere_check"],
        "degree_counting": result.counting_degree == bundle.expected_degree,
        "degree_cycle": result.cycle_degree == bundle.expected_degree,
        "oracles_agree": ok["dual_oracle_agreement"],
        "fundamental_matches_kernel": ok["fundamental_cycle_matches_kernel"],
    }


@pytest.fixture(scope="session")
def sweeps():
    """Criteria 3-6 sweeps, verified once and shared."""
    results = {}

    start = time.monotonic()
    results["join-cone"] = [
        verify_bundle(
            build_join_cone_sphere(n, d),
            "certify_low_dim" if n <= 3 else "necessary",
        )
        for n in range(2, 6)
        for d in range(1, 9)
    ]
    results["join-cone-elapsed"] = time.monotonic() - start

    start = time.monotonic()
    results["double-cone"] = [
        verify_bundle(
            build_double_cone_sphere(n, d, variant),
            "certify_low_dim" if n <= 3 else "necessary",
        )
        for n in range(3, 6)
        for d in range(1, 5)
        for variant in ("even", "odd")
    ]
    results["double-cone-elapsed"] = time.monotonic() - start

    start = time.monotonic()
    results["facet-cone"] = [
        verify_bundle(
            build_facet_cone_sphere(n, k),
            "certify_low_dim" if n <= 3 else "necessary",
        )
        for n in range(2, 7)
        for k in range(2, n + 1)
    ]
    results["facet-cone-elapsed"] = time.monotonic() - start

    start = time.monotonic()
    results["stacked"] = [
        verify_bundle(
            build_stacked_sphere(n), "certify_low_dim" if n <= 3 else "necessary"
        )
        for n in range(2, 7)
    ]
    results["stacked-elapsed"] = time.monotonic() - start
    return results


def test_criterion_01_disc_sign_sweep():
    start = time.monotonic()
    ok = True
    for d in range(1, 65):
        disc = build_delta(d)
        fv, euler = f_vector_and_euler(disc.complex)
        counts = disc_sign_census(disc)
        boundary = boundary_complex(disc.complex)
        coloring = all(
            {v.class_index for v in f.vertices} == {1, 2, 3}
            for f in disc.complex.facets
        )
        ok = ok and (
            fv[2] == 3 * d - 2
            and counts.positives == 2 * d - 1
            and counts.negatives == d - 1
            and counts.boundary_in_positive
            and counts.sign_agrees_with_orientation
            and euler == 1
            and len(boundary.facets) == 3 * d
            and coloring
        )
    elapsed = time.monotonic() - start
    report_line("C1", ok and elapsed < 1.0, elapsed, "disc sweep d=1..64")
    assert ok
    assert elapsed < 1.0


def test_criterion_02_degree4_worked_example(tmp_path):
    start = time.monotonic()
    bundle = build_join_cone_sphere(3, 4)
    ok = len(bundle.source.vertices) == 14 and len(bundle.source.facets) == 32

    path = tmp_path / "bundle.json"
    path.write_text(bundle_to_json(bundle))
    result = run_degree(bundle_path=str(path), method="both")
    counting = result.data["counting"]
    ok = ok and counting["degree"] == 4 and result.data["cycle"] == 4

    printed = {
        ("+", key): facet_set(value) for key, value in counting["alpha_plus"].items()
    }
    printed.update(
        {("-", key): facet_set(value) for key, value in counting["alpha_minus"].items()}
    )
    for (facet, sign), expected in DEGREE4_ALPHA_SIX.items():
        ok = ok and printed[(sign, facet)] == facet_set(expected)
    # the remaining published data (including the corrected duplicate
    # list) must match as well
    for (facet, sign), expected in DEGREE4_ALPHA.items():
        ok = ok and printed[(sign, facet)] == facet_set(expected)
    elapsed = time.monotonic() - start
    report_line("C2", ok and elapsed < 1.0, elapsed, "degree-4 preimage lists")
    assert ok
    assert elapsed < 1.0


def test_criterion_03_join_cone_sweep(sweeps):
    elapsed = sweeps["join-cone-elapsed"]
    ok = all(all(c.values()) for c in sweeps["join-cone"])
    report_line("C3", ok and elapsed < 30, elapsed, "n=2..5, d=1..8 (32 bundles)")
    assert ok
    assert elapsed < 30


def test_criterion_04_double_cone_sweep(sweeps):
    elapsed = sweeps["double-cone-elapsed"]
    ok = all(all(c.values()) for c in sweeps["double-cone"])
    report_line("C4", ok and elapsed < 60, elapsed, "n=3..5, d=1..4, both variants")
    assert ok
    assert elapsed < 60


def test_criterion_05_facet_cone_sweep(sweeps):
    elapsed = sweeps["facet-cone-elapsed"]
    ok = all(all(c.values()) for c in sweeps["facet-cone"])
    # vertex-count equalities with the lower bounds at k = 2 and 3
    for n in range(2, 7):
        for k in (2, 3):
            if k <= n:
                bundle = build_facet_cone_sphere(n, k)
                bound = n + 5 if k == 2 else n + 6
                ok = ok and bundle.expected_vertices == bound
    report_line("C5", ok and elapsed < 30, elapsed, "all 2<=k<=n<=6 (15 bundles)")
    assert ok
    assert elapsed < 30


def test_criterion_06_stacked_sweep(sweeps):
    elapsed = sweeps["stacked-elapsed"]
    ok = all(all(c.values()) for c in sweeps["stacked"])
    for n in range(2, 7):
        bundle = build_stacked_sphere(n)
        ok = ok and len(bundle.source.facets) == (n + 1) * (n + 2)
        ok = ok and len(bundle.source.facets) == bundle.expected_degree * (n + 2)
    report_line("C6", ok and elapsed < 30, elapsed, "n=2..6, facet-minimal family")
    assert ok
    assert elapsed < 30


def test_criterion_07_degree_algebra():
    start = time.monotonic()
    ok = degree_by_counting(identity_map(3)).degree == 1
    for n in range(1, 6):
        ok = ok and degree_by_counting(swap_map(n)).degree == -1

    rng = random.Random(424242)
    pool = [
        build_join_cone_sphere(2, 3),
        build_join_cone_sphere(3, 2),
        build_double_cone_sphere(3, 1, "even"),
        build_facet_cone_sphere(4, 3),
        build_facet_cone_sphere(3, 2),
        build_stacked_sphere(3),
    ]
    for _ in range(20):
        bundle = rng.choice(pool)
        n = bundle.source.dimension
        verts = [v_label(i) for i in range(1, n + 3)]
        shuffled = verts[:]
        rng.shuffle(shuffled)
        auto = VertexMap(dict(zip(verts, shuffled)))
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
        ok = ok and (
            degree_by_counting(composite).degree
            == degree_by_counting(auto_bundle).degree * bundle.expected_degree
        )

    # a non-surjective map has degree zero
    S = standard_sphere(2)
    verts = [v_label(i) for i in range(1, 5)]
    collapse = VertexMap({**{v: v for v in verts}, verts[3]: verts[0]})
    non_surjective = ConstructionBundle(
        source=S,
        target=S,
        vertex_map=collapse,
        source_base=S.facets[0].vertices,
        target_base=S.facets[0].vertices,
        expected_degree=0,
        expected_vertices=4,
        label="collapse",
    )
    ok = ok and degree_by_counting(non_surjective).degree == 0
    ok = ok and degree_by_cycle(non_surjective) == 0

    elapsed = time.monotonic() - start
    report_line("C7", ok and elapsed < 10, elapsed, "identity, swaps, 20 compositions")
    assert ok
    assert elapsed < 10


def test_criterion_08_dual_oracles(sweeps):
    start = time.monotonic()
    families = ("join-cone", "double-cone", "facet-cone", "stacked")
    total = 0
    ok = True
    for family in families:
        for checks in sweeps[family]:
            total += 1
            ok = ok and checks["oracles_agree"] and checks["fundamental_matches_kernel"]
    elapsed = time.monotonic() - start
    report_line(
        "C8", ok, elapsed, f"counting == cycle and chain == kernel on {total} bundles"
    )
    assert total == 32 + 24 + 15 + 5
    assert ok


def test_criterion_09_minimality():
    start = time.monotonic()
    report = verify_small_sphere_bounds()
    ok = (
        report.census_sizes == {4: 1, 5: 1, 6: 2, 7: 5}
        and report.orders_agree
        and report.degree2_bound_ok
        and report.degree3_bound_ok
        and report.degree2_attained_at_7
        and report.degree3_attained_at_8
        and not report.counterexamples
    )
    elapsed = time.monotonic() - start
    report_line("C9", ok and elapsed < 600, elapsed, "census (1,1,2,5), exhaustive maps")
    assert ok
    assert elapsed < 600


def test_criterion_10_homology_engine():
    start = time.monotonic()
    fixtures = [
        standard_sphere(0),
        standard_sphere(1),
        standard_sphere(2),
        standard_sphere(3),
        standard_sphere(4),
        build_delta(4).complex,
        build_join_cone_sphere(2, 2).source,
        build_double_cone_sphere(3, 1, "even").source,
        build_facet_cone_sphere(3, 2).source,
        build_stacked_sphere(3).source,
        complex_of(PROJECTIVE_PLANE),
    ]
    ok = True
    for K in fixtures:
        for k in range(1, K.dimension + 1):
            ok = ok and matrix_product_is_zero(
                boundary_matrix(K, k - 1), boundary_matrix(K, k)
            )

    for K in (
        build_join_cone_sphere(2, 2).source,
        build_double_cone_sphere(3, 1, "even").source,
        build_facet_cone_sphere(3, 2).source,
        build_stacked_sphere(3).source,
    ):
        groups = homology_groups(K)
        n = K.dimension
        betti = tuple(g.betti for g in groups)
        ok = ok and betti == (1,) + (0,) * (n - 1) + (1,)
        ok = ok and all(not g.torsion for g in groups)

    rp2 = complex_of(PROJECTIVE_PLANE)
    try:
        coherent_orientation(rp2, rp2.facets[0], 1)
        ok = False
    except NonOrientable as err:
        ok = ok and err.witness is not None
    groups = homology_groups(rp2)
    ok = ok and groups[1].torsion == (2,) and groups[2].betti == 0

    elapsed = time.monotonic() - start
    report_line("C10", ok and elapsed < 5, elapsed, "chain identity, profiles, torsion")
    assert ok
    assert elapsed < 5
