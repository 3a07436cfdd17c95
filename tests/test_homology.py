import gc
import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from sphere_forge import (
    IntegerMatrix,
    boundary_matrix,
    build_double_cone_sphere,
    build_join_cone_sphere,
    coherent_orientation,
    fundamental_cycle,
    homology_groups,
    kernel_basis,
    make_complex,
    simplex,
    smith_normal_form,
    sphere_check,
    standard_sphere,
)
from sphere_forge.complex_core import cone, empty_complex, faces, join, link
from sphere_forge.errors import KernelRankNotOne, PreconditionFailed
from sphere_forge.homology import HomologyGroup, top_kernel_generator
from sphere_forge.labels import parse_label, v_label

from fixtures import (
    CONSTRUCTION_GRID,
    DELTA4_TRIANGLES,
    PROJECTIVE_PLANE,
    complex_of,
    labels,
    link_complexes,
    matrix_product_is_zero,
)


def rank_over_rationals(M):
    """Row reduction with exact fractions; the reference for ranks."""
    grid = [[Fraction(x) for x in row] for row in M.entries]
    rank = 0
    for col in range(M.cols):
        pivot = next((r for r in range(rank, M.rows) if grid[r][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inv = 1 / grid[rank][col]
        grid[rank] = [x * inv for x in grid[rank]]
        for r in range(M.rows):
            if r != rank and grid[r][col]:
                factor = grid[r][col]
                grid[r] = [a - factor * b for a, b in zip(grid[r], grid[rank])]
        rank += 1
    return rank


def determinant(m):
    """Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * determinant([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def test_boundary_matrix_triangle_cycle():
    cyc = make_complex([labels("a b"), labels("b c"), labels("a c")])
    M = boundary_matrix(cyc, 1)
    assert (M.rows, M.cols) == (3, 3)
    for col in zip(*M.entries):
        assert sorted(col) == [-1, 0, 1]


def test_boundary_composition_vanishes():
    S = standard_sphere(3)
    for k in range(1, 4):
        assert matrix_product_is_zero(boundary_matrix(S, k - 1), boundary_matrix(S, k))


def test_boundary_matrix_rank():
    M = boundary_matrix(standard_sphere(2), 2)
    assert rank_over_rationals(M) == 3
    assert smith_normal_form(M).rank == 3


def test_boundary_matrices_are_built_once_per_live_shape(monkeypatch):
    from sphere_forge import homology

    built = []
    build = homology._build_boundary_matrix
    monkeypatch.setattr(
        homology, "_build_boundary_matrix", lambda shape, k: built.append(k) or build(shape, k)
    )
    K = standard_sphere(3)
    assert sphere_check(K, 3).passed
    assert top_kernel_generator(K) == top_kernel_generator(K)
    assert sorted(built) == [1, 2, 3]
    kept = boundary_matrix(K, 3)
    assert boundary_matrix(K, 3) is kept
    # while K lives, an equal complex built afresh shares its shape and matrices
    assert boundary_matrix(standard_sphere(3), 3) is kept
    assert homology_groups(standard_sphere(3)) == homology_groups(K)
    assert sorted(built) == [1, 2, 3]
    # once no complex holds the shape, a new complex builds its matrices anew
    del K, kept
    gc.collect()
    again = boundary_matrix(standard_sphere(3), 3)
    assert sorted(built) == [1, 2, 3, 3]
    assert again.entries == textbook_boundary(standard_sphere(3), 3)


def test_smith_forms_are_kept_on_the_matrix_by_skipped_columns():
    M = boundary_matrix(standard_sphere(2), 2)
    whole = smith_normal_form(M)
    assert smith_normal_form(M) is whole
    # the last facet's column is a combination of the columns before it
    skipped = smith_normal_form(M, _skip=frozenset({M.cols - 1}))
    assert skipped is not whole and skipped[:2] == whole[:2]
    assert smith_normal_form(M, _skip=frozenset({M.cols - 1})) is skipped
    fresh = IntegerMatrix(M.rows, M.cols, M.columns)
    assert smith_normal_form(fresh) == whole and smith_normal_form(fresh) is not whole


def textbook_boundary(K, k):
    """Dense boundary from the labelled faces: the entry at (sigma
    without its vertex i, sigma) is (-1)**i."""
    rows = {face: r for r, face in enumerate(faces(K, k - 1))}
    columns = faces(K, k)
    grid = [[0] * len(columns) for _ in rows]
    for j, sigma in enumerate(columns):
        for i in range(len(sigma)):
            grid[rows[sigma[:i] + sigma[i + 1 :]]][j] = (-1) ** i
    return tuple(map(tuple, grid))


@given(link_complexes)
@example([{1, 2, 3}, {3, 4}, {5}])  # facets of three sizes
@example([{1, 2, 3, 4}])
@settings(max_examples=150, deadline=None)
def test_boundary_matrix_matches_the_textbook(facet_sets):
    """Every boundary matrix of pure and mixed complexes, against the
    dense reference; each column lists ascending rows, and one matrix
    holds at most one (row, value) pair object per row and sign."""
    K = make_complex([[v_label(i) for i in f] for f in facet_sets])
    for k in range(K.dimension + 1):
        M = boundary_matrix(K, k)
        assert M.entries == textbook_boundary(K, k)
        for column in M.columns:
            rows = [r for r, _ in column]
            assert rows == sorted(set(rows))
        assert len({id(pair) for column in M.columns for pair in column}) <= 2 * M.rows


def test_boundary_matrix_out_of_range():
    with pytest.raises(PreconditionFailed):
        boundary_matrix(standard_sphere(2), 3)


def test_snf_identity():
    assert smith_normal_form(
        IntegerMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ).diagonal == (1, 1, 1)


def test_snf_hand_example():
    # row reduce by hand: [[1,2],[3,4]] -> [[1,2],[0,-2]] -> diag(1,2)
    result = smith_normal_form(IntegerMatrix.from_rows([[1, 2], [3, 4]]))
    assert result.diagonal == (1, 2)
    assert result.rank == 2


def test_snf_zero_matrix():
    result = smith_normal_form(IntegerMatrix.from_rows([[0] * 5 for _ in range(3)]))
    assert result.diagonal == () and result.rank == 0


def test_snf_divisibility_chain():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        M = IntegerMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        )
        diag = smith_normal_form(M).diagonal
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        assert smith_normal_form(M).rank == rank_over_rationals(M)


@pytest.mark.parametrize(
    "rows, diagonal",
    [
        # no unit in the first row: the remainder 1 met below takes over
        ([[2, 4], [1, 3]], (1, 2)),
        # a diagonal that is not a divisibility chain: gcd/lcm folding
        ([[2, 0], [0, 3]], (1, 6)),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30)),
        ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (2, 2, 60)),
        # the unit low of column 0 leaves column 1 on the non-unit low 2,
        # and clearing row 0 against the unit low leaves diag(1, 2)
        ([[1, 1], [0, 2]], (1, 2)),
        # no unit low at all: the whole matrix goes to the elimination
        ([[2, 1], [0, 2]], (1, 4)),
    ],
)
def test_snf_non_unit_pivots(rows, diagonal):
    result = smith_normal_form(IntegerMatrix.from_rows(rows))
    assert result.diagonal == diagonal
    assert result.rank == len(diagonal)


@st.composite
def pure_complexes(draw):
    """Random pure complexes of dimension 1..3 on at most 7 vertices."""
    dim = draw(st.integers(1, 3))
    facets = draw(
        st.lists(
            st.frozensets(st.integers(1, 7), min_size=dim + 1, max_size=dim + 1),
            min_size=1,
            max_size=20,
            unique=True,
        )
    )
    return make_complex([[parse_label(f"v{i}") for i in f] for f in facets])


@given(pure_complexes())
@settings(max_examples=60, deadline=None)
def test_snf_of_random_boundary_matrices(K):
    for k in range(1, K.dimension + 1):
        M = boundary_matrix(K, k)
        result = smith_normal_form(M)
        assert result.rank == len(result.diagonal) == rank_over_rationals(M)
        assert all(d > 0 for d in result.diagonal)
        assert all(b % a == 0 for a, b in zip(result.diagonal, result.diagonal[1:]))


# sha256 of every (diagonal, rank) below, recorded while SNF still
# searched the whole matrix for each pivot
SNF_GRID_DIGEST = "d8cd07b50d95a4a1f2e8752dc27407939ce48fddfb015dbde5c68d824e18f7f9"


def test_snf_grid_digest():
    """Every boundary matrix of the C3-C6 sources and of their vertex
    links keeps its invariant factors and rank."""
    digest = hashlib.sha256()
    for build, args in CONSTRUCTION_GRID:
        bundle = build(*args)
        K = bundle.source
        complexes = [(bundle.label, K)] + [
            (f"{bundle.label} lk {v}", link(simplex((v,)), K)) for v in K.vertices
        ]
        for name, C in complexes:
            for k in range(1, C.dimension + 1):
                result = smith_normal_form(boundary_matrix(C, k))
                line = f"{name} {k} {result.diagonal} {result.rank}"
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == SNF_GRID_DIGEST


def invariant_factors_by_minors(rows):
    """The reference for Smith forms: d_1 * ... * d_k is the gcd of all
    k x k minors (the k-th determinantal divisor)."""
    factors, previous = [], 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        divisor = 0
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(len(rows[0])), k):
                divisor = gcd(divisor, determinant([[rows[i][j] for j in cs] for i in rs]))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
    return tuple(factors)


@given(
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
            min_size=1,
            max_size=4,
        )
    )
)
@example([[2], [2]])  # clearing empties a residual row
@example([[2, 4], [2, 4]])
@settings(max_examples=200, deadline=None)
def test_snf_matches_determinantal_divisors(rows):
    expected = invariant_factors_by_minors(rows)
    result = smith_normal_form(IntegerMatrix.from_rows(rows))
    assert (result.diagonal, result.rank) == (expected, len(expected))


small_matrix = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(small_matrix, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_snf_invariant_under_permutations(rows, rng):
    M = IntegerMatrix.from_rows(rows)
    base = smith_normal_form(M).diagonal
    shuffled_rows = list(rows)
    rng.shuffle(shuffled_rows)
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    permuted = [[r[c] for c in cols] for r in shuffled_rows]
    assert smith_normal_form(IntegerMatrix.from_rows(permuted)).diagonal == base


@given(
    st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3)
)
@settings(max_examples=60, deadline=None)
def test_snf_product_equals_determinant(rows):
    d = determinant(rows)
    if d == 0:
        return
    diag = smith_normal_form(IntegerMatrix.from_rows(rows)).diagonal
    product = 1
    for x in diag:
        product *= x
    assert product == abs(d)


def test_kernel_basis_solves():
    M = IntegerMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(M)
    assert len(basis) == 2
    for vec in basis:
        for row in M.entries:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_kernel_basis_is_kept_on_the_matrix_and_handed_out_fresh():
    M = boundary_matrix(standard_sphere(2), 2)
    first = kernel_basis(M)
    first.append((0,) * M.cols)
    second = kernel_basis(M)
    assert second == kernel_basis(IntegerMatrix(M.rows, M.cols, M.columns))
    assert len(second) == 1 and second is not kernel_basis(M)


@st.composite
def kernel_inputs(draw):
    """Small integer matrices, two thirds of them boundary-like (entries
    in -1..1) so kernels of rank two or more come up often."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 6))
    bound = draw(st.sampled_from((1, 1, 9)))
    entries = st.integers(-bound, bound)
    row = st.lists(entries, min_size=cols, max_size=cols)
    grid = draw(st.lists(row, min_size=rows, max_size=rows))
    return IntegerMatrix.from_rows(grid)


@given(kernel_inputs())
@example(IntegerMatrix.from_rows([[2, 3]]))  # a remainder takes the low row over
@example(IntegerMatrix.from_rows([[4, 6, 9]]))
@settings(max_examples=150, deadline=None)
def test_kernel_basis_is_a_lattice_basis(M):
    basis = kernel_basis(M)
    assert len(basis) == M.cols - smith_normal_form(M).rank
    for vec in basis:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in M.entries)
    if basis:
        # all invariant factors 1: the vectors extend to a basis of Z^cols,
        # so they span every integer solution, not only the rational ones
        stacked = smith_normal_form(IntegerMatrix.from_rows(basis))
        assert stacked.diagonal == (1,) * len(basis)


# sha256 of the top kernel generator of every source and target below,
# recorded while kernels still ran their own column elimination
KERNEL_GENERATOR_DIGEST = "072f2252ed9eeb98b95cb53f691c4d7bd232eb809a336b6a929e5f3fd151cff2"


def test_kernel_generator_digest():
    """The C3-C6 and large bundles keep their top integer-homology
    generators, coefficient for coefficient."""
    large = [(build_join_cone_sphere, (5, 32)), (build_double_cone_sphere, (5, 4, "odd"))]
    digest = hashlib.sha256()
    for build, args in list(CONSTRUCTION_GRID) + large:
        bundle = build(*args)
        for role, K in (("source", bundle.source), ("target", bundle.target)):
            gen = top_kernel_generator(K)
            line = f"{bundle.label} {role} " + " ".join(f"{f}:{c}" for f, c in gen.items())
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == KERNEL_GENERATOR_DIGEST


def test_homology_spheres():
    for n in range(0, 5):
        groups = homology_groups(standard_sphere(n))
        betti = tuple(g.betti for g in groups)
        expected = (2,) if n == 0 else (1,) + (0,) * (n - 1) + (1,)
        assert betti == expected
        assert all(not g.torsion for g in groups)


def test_homology_projective_plane():
    groups = homology_groups(complex_of(PROJECTIVE_PLANE))
    assert [g.betti for g in groups] == [1, 0, 0]
    assert groups[1].torsion == (2,)
    assert groups[2].torsion == ()


def test_homology_disjoint_union_counts_components():
    two = make_complex([labels("a b c"), labels("d e f")])
    groups = homology_groups(two)
    assert groups[0].betti == 2


def test_euler_equals_alternating_betti():
    from sphere_forge import f_vector_and_euler

    for K in (
        standard_sphere(2),
        standard_sphere(3),
        complex_of(PROJECTIVE_PLANE),
        complex_of(DELTA4_TRIANGLES),
    ):
        _, euler = f_vector_and_euler(K)
        groups = homology_groups(K)
        assert euler == sum((-1) ** k * g.betti for k, g in enumerate(groups))


def homology_by_full_snf(K):
    """The reference for homology_groups: every boundary matrix whole
    through smith_normal_form, no column skipped."""
    n = K.dimension
    snf = {k: smith_normal_form(boundary_matrix(K, k)) for k in range(1, n + 1)}
    rank = {k: snf[k].rank for k in snf}
    return tuple(
        HomologyGroup(
            len(faces(K, k)) - rank.get(k, 0) - rank.get(k + 1, 0),
            tuple(d for d in snf[k + 1].diagonal if d > 1) if k < n else (),
        )
        for k in range(n + 1)
    )


@st.composite
def relabelled_projective_planes(draw):
    names = draw(st.permutations([f"v{i}" for i in range(1, 8)]))
    rename = dict(zip(sorted({v for f in PROJECTIVE_PLANE for v in f.split()}), names))
    return make_complex([[parse_label(rename[v]) for v in f.split()] for f in PROJECTIVE_PLANE])


@given(st.one_of(pure_complexes(), relabelled_projective_planes()))
@settings(max_examples=80, deadline=None)
def test_clearing_keeps_homology(K):
    """Skipping the columns cleared by the unit lows of the boundary
    matrix above leaves every Smith form, and so the homology, as the
    whole matrices give it."""
    assert homology_groups(K) == homology_by_full_snf(K)
    for k in range(1, K.dimension):
        cleared = smith_normal_form(boundary_matrix(K, k + 1)).unit_lows
        M = boundary_matrix(K, k)
        assert smith_normal_form(M, _skip=cleared) == smith_normal_form(M)


def test_only_unit_lows_clear():
    """In Z --A--> Z^2 --B--> Z (B A = 0) the column of A is a cycle
    z = a e_1 + e_0 of B.  With a = +-1, z writes column 1 of B through
    column 0 and skipping it keeps B's Smith form; with a = -2 only twice
    column 1 is written so, and skipping it would turn (1) into (2)."""
    A, B = IntegerMatrix.from_rows([[2], [1]]), IntegerMatrix.from_rows([[1, -2]])
    assert smith_normal_form(A).unit_lows == frozenset({1})
    assert smith_normal_form(B, _skip=frozenset({1})) == smith_normal_form(B)
    A, B = IntegerMatrix.from_rows([[1], [-2]]), IntegerMatrix.from_rows([[2, 1]])
    assert smith_normal_form(A).unit_lows == frozenset()
    assert smith_normal_form(B).diagonal == (1,)
    assert smith_normal_form(B, _skip=frozenset({1})).diagonal == (2,)


def test_clearing_keeps_torsion():
    rp2 = complex_of(PROJECTIVE_PLANE)
    suspension = join(rp2, make_complex([labels("a"), labels("b")]))
    for K in (rp2, suspension):
        assert homology_groups(K) == homology_by_full_snf(K)
    assert homology_groups(suspension)[2].torsion == (2,)


@pytest.mark.parametrize(
    "K",
    [
        standard_sphere(4),
        build_join_cone_sphere(3, 4).source,
        build_double_cone_sphere(4, 2, "odd").source,
    ],
    ids=["standard n=4", "join-cone n=3 d=4", "double-cone n=4 d=2 odd"],
)
def test_clearing_leaves_only_the_fundamental_cycle_at_zero(monkeypatch, K):
    """Reduced top down, boundary k keeps f_k - r_{k+1} columns, of which
    r_k end on a low; the other f_k - r_{k+1} - r_k = beta_k end at zero.
    On an n-sphere beta_k = 0 for 0 < k < n and f_n - r_n = beta_n = 1, so
    one column in all ends at zero: the fundamental cycle, in boundary n."""
    from sphere_forge import homology

    zero_columns = []
    snf = homology.smith_normal_form

    def counted(M, *, _skip=frozenset()):
        result = snf(M, _skip=_skip)
        assert len(result.unit_lows) == result.rank  # every low a unit: no stage 2
        zero_columns.append(M.cols - len(_skip) - result.rank)
        return result

    monkeypatch.setattr(homology, "smith_normal_form", counted)
    homology_groups(K)
    assert zero_columns == [1] + [0] * (K.dimension - 1)


def test_top_kernel_matches_fundamental_cycle():
    S = standard_sphere(3)
    gen = top_kernel_generator(S)
    oriented = coherent_orientation(S, S.facets[0], 1)
    cyc = fundamental_cycle(oriented).coefficients
    flip = 1 if gen[S.facets[0]] == cyc[S.facets[0]] else -1
    assert all(cyc[f] == flip * gen[f] for f in S.facets)


def test_top_kernel_rank_errors():
    disc = complex_of(DELTA4_TRIANGLES)
    with pytest.raises(KernelRankNotOne):
        top_kernel_generator(disc)  # a disc has no top cycle


def test_sphere_check_pass_and_fail():
    assert sphere_check(standard_sphere(3), 3, "certify_low_dim").passed
    assert sphere_check(standard_sphere(2), 2, "certify").passed
    assert sphere_check(standard_sphere(0), 0).passed

    ball = cone(parse_label("u4"), complex_of(DELTA4_TRIANGLES))
    report = sphere_check(ball, 3, "certify_low_dim")
    assert not report.passed
    failing = {item.name for item in report.items if not item.ok}
    assert "closed" in failing

    # wrong dimension fails fast
    assert not sphere_check(standard_sphere(2), 3).passed
    with pytest.raises(PreconditionFailed, match="^unknown level 'bogus'$"):
        sphere_check(standard_sphere(2), 2, "bogus")


THETA_GRAPH = ["a c", "c b", "a d", "d b", "a e", "e b"]
TETRAHEDRON_AND_TRIANGLE = ["a b c", "a b d", "a c d", "b c d", "x y", "y z", "x z"]


@pytest.mark.parametrize(
    "facets,n,detail",
    [
        (THETA_GRAPH, 1, "a ridge in 3 facets"),
        (TETRAHEDRON_AND_TRIANGLE, 2, "not pure"),
        (DELTA4_TRIANGLES, 2, "12 boundary ridges"),
        (THETA_GRAPH + ["a f", "f g"], 1, "1 boundary ridges, a ridge in 4 facets"),
        (["a b c", "a b d", "a c d", "b c d"], 2, "every ridge in exactly two facets"),
    ],
    ids=["theta graph", "tetrahedron and triangle", "disc", "theta graph and path", "closed"],
)
def test_closed_item_names_every_cause(facets, n, detail):
    """A failing item names what fails, never the passing text: the
    theta graph has no boundary ridge but three edges on a vertex."""
    K = complex_of(facets)
    (item,) = [item for item in sphere_check(K, n).items if item.name == "closed"]
    assert item.detail == detail
    assert item.ok == (detail == "every ridge in exactly two facets")


def test_the_empty_complex_has_no_homology_groups():
    assert homology_groups(empty_complex()) == ()


def test_sphere_check_high_dim_note():
    report = sphere_check(standard_sphere(4), 4, "certify_low_dim")
    assert report.passed
    assert any("necessary" in note for note in report.notes)


def test_sphere_check_reports_a_certify_request_above_three_as_necessary():
    report = sphere_check(standard_sphere(4), 4, "certify")
    assert report.passed
    assert report.level == "necessary"
    assert report.notes == (
        "certification is unavailable for n = 4 >= 4; only the necessary battery ran",
    )
    assert "vertex_links" not in {item.name for item in report.items}


def test_sphere_check_rejects_projective_plane():
    report = sphere_check(complex_of(PROJECTIVE_PLANE), 2, "certify_low_dim")
    assert not report.passed


def test_sphere_check_certifies_each_distinct_link_once(monkeypatch):
    """On a 3-sphere each edge link is met from both of its vertex links;
    the link table runs homology once per distinct complex: the source,
    its 30 vertex links and 106 distinct edge links, against
    1 + 30 + 238 without the table."""
    from sphere_forge import homology

    seen = []
    groups = homology.homology_groups
    monkeypatch.setattr(homology, "homology_groups", lambda K: seen.append(K) or groups(K))
    report = sphere_check(build_double_cone_sphere(3, 4, "odd").source, 3, "certify_low_dim")
    assert report.passed
    assert len(seen) == len(set(seen)) == 137


def test_sphere_check_reports_every_vertex_on_a_repeated_failing_link(monkeypatch):
    """Both apexes of the suspension of RP^2 have RP^2 as link, so the
    second is a table hit on a failing report; RP^2's torsion takes the
    Smith form past its unit lows."""
    from sphere_forge import homology

    eliminated = []
    eliminate = homology._eliminate
    monkeypatch.setattr(
        homology, "_eliminate", lambda cols: eliminated.append(cols) or eliminate(cols)
    )
    suspension = join(complex_of(PROJECTIVE_PLANE), make_complex([labels("a"), labels("b")]))
    report = sphere_check(suspension, 3, "certify_low_dim")
    links = next(item for item in report.items if item.name == "vertex_links")
    assert not links.ok
    assert links.detail == "links failing: a, b"
    assert eliminated


@pytest.mark.parametrize(
    "build, args, degree",
    [
        ("build_join_cone_sphere", (3, 2), 2),
        ("build_double_cone_sphere", (3, 1, "odd"), 4),
    ],
)
def test_homology_path_builds_no_dense_grid(monkeypatch, build, args, degree):
    import sphere_forge
    from sphere_forge import degree_by_counting, degree_by_cycle, simplex

    def no_grid(self):
        raise AssertionError("dense grid built on the homology path")

    monkeypatch.setattr(IntegerMatrix, "entries", property(no_grid))
    bundle = getattr(sphere_forge, build)(*args)
    K, n = bundle.source, bundle.source.dimension
    assert sphere_check(K, n, "certify_low_dim").passed
    groups = homology_groups(K)
    assert tuple(g.betti for g in groups) == (1,) + (0,) * (n - 1) + (1,)
    assert all(not g.torsion for g in groups)
    base = simplex(bundle.source_base)
    cyc = fundamental_cycle(coherent_orientation(K, base, 1)).coefficients
    gen = top_kernel_generator(K)
    flip = 1 if gen[base] == cyc[base] else -1
    assert gen == {f: flip * c for f, c in cyc.items()}
    assert degree_by_counting(bundle).degree == degree
    assert degree_by_cycle(bundle) == degree


@pytest.mark.parametrize(
    "build, args",
    [("build_join_cone_sphere", (5, 32)), ("build_double_cone_sphere", (5, 4, "odd"))],
)
def test_large_bundles_pass_the_sphere_battery(build, args):
    """The n = 5 sources with boundary matrices up to 1416 x 1895."""
    import sphere_forge

    report = sphere_check(getattr(sphere_forge, build)(*args).source, 5)
    assert report.passed
    profile = next(item for item in report.items if item.name == "homology_profile")
    assert profile.detail == "betti = (1, 0, 0, 0, 0, 1), torsion-free = True"
