import hashlib

import pytest

from sphere_forge import (
    boundary_complex,
    build_double_cone_sphere,
    build_facet_cone_sphere,
    build_join_cone_sphere,
    build_stacked_sphere,
    cone,
    f_vector_and_euler,
    join,
    make_complex,
    pseudomanifold_check,
    simplex,
    sphere_check,
    verify_bundle,
)
from sphere_forge.errors import PreconditionFailed
from sphere_forge.labels import u_label, u_pair, v_label

from fixtures import CONSTRUCTION_GRID


def test_join_cone_example_counts():
    bundle = build_join_cone_sphere(3, 4)
    assert len(bundle.source.vertices) == 14
    assert len(bundle.source.facets) == 32
    assert bundle.expected_degree == 4
    # ball facets plus coned boundary facets
    from sphere_forge import build_delta

    disc = build_delta(4)
    ball = cone(u_label(4), disc.complex)
    assert len(ball.facets) == 10
    assert len(boundary_complex(ball).facets) == 22
    assert 10 + 22 == 32


@pytest.mark.parametrize(
    "n,d,vertices",
    [(2, 2, 7), (5, 1, 7), (2, 1, 4), (4, 3, 12)],
)
def test_join_cone_vertex_counts(n, d, vertices):
    bundle = build_join_cone_sphere(n, d)
    assert len(bundle.source.vertices) == vertices == bundle.expected_vertices
    assert bundle.source.dimension == n


def test_join_cone_facet_split():
    # top count = disc triangles + boundary facets of the ball
    for n, d in [(2, 3), (3, 2), (4, 2), (5, 3)]:
        bundle = build_join_cone_sphere(n, d)
        from sphere_forge import build_delta

        disc = build_delta(d)
        ball = join(
            disc.complex,
            make_complex([[u_label(i) for i in range(4, n + 2)]]),
        )
        fv_b, _ = f_vector_and_euler(boundary_complex(ball))
        assert len(bundle.source.facets) == (3 * d - 2) + fv_b[n - 1]


def test_join_cone_preconditions():
    with pytest.raises(PreconditionFailed):
        build_join_cone_sphere(1, 2)
    with pytest.raises(PreconditionFailed):
        build_join_cone_sphere(3, 0)


@pytest.mark.parametrize(
    "n,d,variant,vertices,degree",
    [
        (4, 1, "even", 10, 3),
        (4, 1, "odd", 13, 4),
        (3, 2, "even", 15, 6),
        (3, 1, "even", 9, 3),
        (5, 2, "odd", 20, 7),
    ],
)
def test_double_cone_counts(n, d, variant, vertices, degree):
    bundle = build_double_cone_sphere(n, d, variant)
    assert len(bundle.source.vertices) == vertices
    assert bundle.expected_degree == degree
    assert bundle.source.dimension == n


def test_double_cone_preconditions():
    with pytest.raises(PreconditionFailed):
        build_double_cone_sphere(2, 1, "even")
    with pytest.raises(PreconditionFailed):
        build_double_cone_sphere(3, 0, "even")
    with pytest.raises(PreconditionFailed):
        build_double_cone_sphere(3, 1, "weird")


@pytest.mark.parametrize(
    "n,k,vertices",
    [(3, 2, 8), (3, 3, 9), (5, 4, 12), (2, 2, 7), (6, 6, 15)],
)
def test_facet_cone_counts(n, k, vertices):
    bundle = build_facet_cone_sphere(n, k)
    assert len(bundle.source.vertices) == vertices
    assert bundle.expected_degree == k
    # bound equalities at low degree
    if k == 2:
        assert vertices == n + 5
    if k == 3:
        assert vertices == n + 6


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("k", [4, -4])
def test_facet_cone_of_degree_four_attains_n_plus_seven_vertices(n, k):
    """The upper half of v_min(n, +-4) = n + 7 in the stable range
    n >= 4: the lower bound n + 7 is attained, by a verified bundle."""
    bundle = build_facet_cone_sphere(n, k)
    assert len(bundle.source.vertices) == bundle.expected_vertices == n + 7
    report = verify_bundle(bundle)
    assert report.passed, [c for c in report.checks if not c.ok]
    assert report.counting_degree == report.cycle_degree == k


def test_facet_cone_preconditions():
    for bad in [(3, 1), (2, 3), (1, 1), (3, 0), (3, -1), (2, -3)]:
        with pytest.raises(PreconditionFailed):
            build_facet_cone_sphere(*bad)


# d = -1..-3 at n = 2..4, wherever the construction takes |d|
NEGATIVE_DEGREES = (
    [(build_join_cone_sphere, (n, d)) for n in (2, 3, 4) for d in (-1, -2, -3)]
    + [
        (build_double_cone_sphere, (n, d, variant))
        for n in (3, 4)
        for d in (-1, -2, -3)
        for variant in ("even", "odd")
    ]
    + [(build_facet_cone_sphere, (n, k)) for n in (2, 3, 4) for k in (-2, -3) if -k <= n]
)


@pytest.mark.parametrize(
    "build,args",
    NEGATIVE_DEGREES,
    ids=[f"{build.__name__}{args}" for build, args in NEGATIVE_DEGREES],
)
def test_negative_degrees_pass_the_battery_with_both_oracles(build, args):
    """A negative degree builds the source of |d| and composes its map
    with the exchange of the target's last two vertices: the vertex
    count is that of |d|, the promised degree is negated (3d - 1 for
    the odd double cone), and both oracles read it."""
    n, d, *variant = args
    bundle = build(*args)
    positive = build(n, -d, *variant)
    assert bundle.source == positive.source
    assert bundle.expected_vertices == positive.expected_vertices
    assert bundle.expected_degree == -positive.expected_degree
    if variant == ["odd"]:
        assert bundle.expected_degree == 3 * d - 1
    report = verify_bundle(bundle)
    assert report.passed, [c for c in report.checks if not c.ok]
    assert report.counting_degree == report.cycle_degree == bundle.expected_degree < 0


@pytest.mark.parametrize(
    "n,vertices,facets",
    [(2, 8, 12), (3, 10, 20), (6, 16, 56)],
)
def test_stacked_counts(n, vertices, facets):
    bundle = build_stacked_sphere(n)
    assert len(bundle.source.vertices) == vertices
    assert len(bundle.source.facets) == facets
    assert facets == (n + 1) * (n + 2)
    assert facets == bundle.expected_degree * (n + 2)
    with pytest.raises(PreconditionFailed):
        build_stacked_sphere(1)


def test_stacked_core_simplex_absent():
    bundle = build_stacked_sphere(3)
    core = simplex([u_label(i) for i in range(1, 5)])
    assert core not in set(bundle.source.facets)


def test_bundles_are_spheres():
    cases = [
        (build_join_cone_sphere(2, 2), "certify_low_dim"),
        (build_join_cone_sphere(3, 3), "certify_low_dim"),
        (build_double_cone_sphere(3, 1, "odd"), "certify_low_dim"),
        (build_facet_cone_sphere(4, 2), "necessary"),
        (build_stacked_sphere(4), "necessary"),
    ]
    for bundle, level in cases:
        report = sphere_check(bundle.source, bundle.source.dimension, level)
        assert report.passed, (bundle.label, report._asdict())


def test_bundle_map_shape():
    bundle = build_double_cone_sphere(4, 2, "even")
    amap = bundle.vertex_map
    assert set(amap) == set(bundle.source.vertices)
    assert amap[u_label(4)] == v_label(4)
    assert amap[u_label(4, primed=True)] == v_label(4)
    assert amap[u_pair(2, 3)] == v_label(2)
    # written source base is a facet and maps onto the target base
    assert simplex(bundle.source_base) in set(bundle.source.facets)
    assert tuple(amap[u] for u in bundle.source_base) == bundle.target_base


def test_source_bases_are_facets():
    bundles = [
        build_join_cone_sphere(2, 5),
        build_join_cone_sphere(5, 2),
        build_double_cone_sphere(5, 3, "odd"),
        build_facet_cone_sphere(6, 4),
        build_stacked_sphere(5),
    ]
    for bundle in bundles:
        assert simplex(bundle.source_base) in set(bundle.source.facets)
        assert pseudomanifold_check(bundle.source).is_closed_pseudomanifold


# sha256 of the fields below over the C3-C6 grid, recorded before the
# builders shared one closing step and one label rule
CONSTRUCTION_GRID_DIGEST = "00f897653759800e42c5da13415a8fbb1dde19cfe9b58644b939b2362b7ac9e7"


def _bundle_fields(bundle):
    yield bundle.label
    yield from (str(facet) for facet in bundle.source.facets)
    yield from (f"{u} {v}" for u, v in sorted(bundle.vertex_map.items()))
    yield " ".join(map(str, bundle.source_base))
    yield " ".join(map(str, bundle.target_base))
    yield str(bundle.expected_degree)
    yield str(bundle.expected_vertices)


def test_construction_grid_digest():
    """Every C3-C6 bundle keeps its facets, map, bases and promises."""
    assert len(CONSTRUCTION_GRID) == 76
    digest = hashlib.sha256()
    for build, args in CONSTRUCTION_GRID:
        for line in _bundle_fields(build(*args)):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == CONSTRUCTION_GRID_DIGEST


def test_pickle_and_deepcopy_round_trip():
    import copy
    import pickle

    from sphere_forge import verify_bundle
    from sphere_forge.formats import bundle_to_json

    bundle = build_join_cone_sphere(2, 2)
    verify_bundle(bundle)  # fills the complexes' caches, which copies rebuild
    values = [u_pair(1, 2), bundle.source.facets[0], bundle.source]
    copiers = [copy.deepcopy] + [
        lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for copier in copiers:
        for value in values:
            twin = copier(value)
            assert twin == value and type(twin) is type(value)
        twin = copier(bundle)
        assert type(twin) is type(bundle)
        assert bundle_to_json(twin) == bundle_to_json(bundle)
        assert verify_bundle(twin).passed


def test_a_pickled_complex_hashes_afresh_under_another_hash_seed(tmp_path):
    """A complex's hash is stored on first use and depends on the string
    hash seed, so a pickle must not carry it into another interpreter."""
    import os
    import pickle
    import subprocess
    import sys
    from pathlib import Path

    import sphere_forge

    K = build_join_cone_sphere(2, 2).source
    hash(K)
    (tmp_path / "K.pickle").write_bytes(pickle.dumps(K))
    src = str(Path(sphere_forge.__file__).resolve().parents[1])
    check = (
        "import pathlib, pickle, sys; from sphere_forge import make_complex; "
        "K = pickle.loads(pathlib.Path(sys.argv[1]).read_bytes()); "
        "sys.exit(K not in {make_complex(K.facets)})"
    )
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        args = [sys.executable, "-c", check, str(tmp_path / "K.pickle")]
        assert subprocess.run(args, env=env).returncode == 0
