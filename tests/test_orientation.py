from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sphere_forge import (
    coherent_orientation,
    fundamental_cycle,
    make_complex,
    simplex,
    sort_sign,
    standard_sphere,
)
from sphere_forge.errors import NonOrientable, NotClosed, PreconditionFailed
from sphere_forge.labels import v_label

from fixtures import (
    DELTA2_NEGATIVE,
    DELTA2_POSITIVE,
    PROJECTIVE_PLANE,
    chain_boundary,
    complex_of,
    cycle_sort_sign,
    simplex_of,
)


def test_relative_sign_basics():
    assert sort_sign("abc") == 1
    assert sort_sign("bac") == -1
    assert sort_sign("bca") == 1
    assert sort_sign("aba") == 0
    assert sort_sign("") == 1


@given(st.lists(st.integers(0, 6), max_size=8))
@settings(max_examples=200)
def test_sort_sign_matches_cycle_reference(seq):
    sign = sort_sign(seq)
    assert sign == cycle_sort_sign(seq)
    assert (sign == 0) == (len(set(seq)) != len(seq))


@given(st.permutations(list(range(7))), st.permutations(list(range(7))))
@settings(max_examples=50)
def test_relative_sign_multiplicative(p, q):
    composed = [p[q[i]] for i in range(7)]
    assert sort_sign(composed) == sort_sign(p) * sort_sign(q)


def test_sphere_sign_pattern():
    # facet omitting v_i is positive exactly when n - i is even
    for n in range(1, 6):
        S = standard_sphere(n)
        base = simplex([v_label(i) for i in range(1, n + 2)])
        oriented = coherent_orientation(S, base, 1)
        for i in range(1, n + 3):
            facet = simplex([v_label(j) for j in range(1, n + 3) if j != i])
            assert oriented.signs[facet] == (1 if (n - i) % 2 == 0 else -1)


def test_disc_orientation_matches_expected_split():
    disc = complex_of(DELTA2_POSITIVE + DELTA2_NEGATIVE)
    oriented = coherent_orientation(disc, simplex_of("u1_1 u2_1 u3_1"), 1)
    positives = {f for f, s in oriented.signs.items() if s == 1}
    negatives = {f for f, s in oriented.signs.items() if s == -1}
    assert positives == {simplex_of(t) for t in DELTA2_POSITIVE}
    assert negatives == {simplex_of(t) for t in DELTA2_NEGATIVE}


def test_projective_plane_not_orientable():
    rp2 = complex_of(PROJECTIVE_PLANE)
    with pytest.raises(NonOrientable) as err:
        coherent_orientation(rp2, rp2.facets[0], 1)
    assert err.value.witness in set(rp2.facets)


def test_projective_plane_brute_force_oracle():
    # independent check: no sign vector at all satisfies the ridge rule
    rp2 = complex_of(PROJECTIVE_PLANE)
    facets = rp2.facets
    ridge_pairs = []
    for a in range(len(facets)):
        for b in range(a + 1, len(facets)):
            shared = facets[a].vertex_set & facets[b].vertex_set
            if len(shared) == 2:
                pa = next(
                    i for i, x in enumerate(facets[a].vertices) if x not in shared
                )
                pb = next(
                    i for i, x in enumerate(facets[b].vertices) if x not in shared
                )
                ridge_pairs.append((a, b, (-1) ** (pa + pb)))
    found = 0
    for signs in product((1, -1), repeat=len(facets)):
        if all(signs[a] * signs[b] == -parity for a, b, parity in ridge_pairs):
            found += 1
    assert found == 0


def test_traversal_independence_and_global_flip():
    fixtures = [
        standard_sphere(2),
        standard_sphere(3),
        complex_of(DELTA2_POSITIVE + DELTA2_NEGATIVE),
    ]
    for K in fixtures:
        base = K.facets[0]
        first = coherent_orientation(K, base, 1)
        last = K.facets[-1]
        from_last = coherent_orientation(K, last, first.signs[last])
        assert from_last.signs == first.signs
        flipped = coherent_orientation(K, base, -1)
        assert all(flipped.signs[f] == -first.signs[f] for f in K.facets)


def test_coherence_is_locally_checkable():
    for K in (standard_sphere(2), standard_sphere(4)):
        oriented = coherent_orientation(K, K.facets[0], 1)
        for a in range(len(K.facets)):
            for b in range(a + 1, len(K.facets)):
                fa, fb = K.facets[a], K.facets[b]
                shared = fa.vertex_set & fb.vertex_set
                if len(shared) != len(fa.vertices) - 1:
                    continue
                pa = next(i for i, x in enumerate(fa.vertices) if x not in shared)
                pb = next(i for i, x in enumerate(fb.vertices) if x not in shared)
                assert (
                    oriented.signs[fa] * oriented.signs[fb]
                    == -((-1) ** (pa + pb))
                )


def test_orientation_walk_is_kept_but_each_call_gets_its_own_signs():
    K = standard_sphere(3)
    base = K.facets[2]
    plus = coherent_orientation(K, base, 1)
    minus = coherent_orientation(K, base, -1)
    assert minus.signs == {f: -s for f, s in plus.signs.items()}
    assert minus.signs == coherent_orientation(make_complex(K.facets), base, -1).signs
    plus.signs[base] = -1
    minus.signs[base] = 1
    assert coherent_orientation(K, base, 1).signs[base] == 1
    assert coherent_orientation(K, base, -1).signs[base] == -1


def test_non_orientable_raises_the_same_witness_on_every_call():
    rp2 = complex_of(PROJECTIVE_PLANE)
    witnesses = []
    for base_sign in (1, -1, 1):
        with pytest.raises(NonOrientable) as raised:
            coherent_orientation(rp2, rp2.facets[0], base_sign)
        witnesses.append(raised.value.witness)
    assert witnesses[0] in rp2.facets and witnesses.count(witnesses[0]) == 3


def test_orientation_preconditions():
    S = standard_sphere(2)
    with pytest.raises(PreconditionFailed):
        coherent_orientation(S, S.facets[0], 2)
    with pytest.raises(PreconditionFailed):
        coherent_orientation(S, simplex_of("v1 v2"), 1)
    disconnected = make_complex(
        [[v_label(i) for i in (1, 2, 3)], [v_label(i) for i in (4, 5, 6)]]
    )
    with pytest.raises(PreconditionFailed):
        coherent_orientation(disconnected, disconnected.facets[0], 1)


def test_fundamental_cycle_sphere():
    S = standard_sphere(2)
    oriented = coherent_orientation(S, S.facets[0], 1)
    cycle = fundamental_cycle(oriented)
    assert len(cycle.coefficients) == 4
    assert sorted(map(abs, cycle.coefficients.values())) == [1, 1, 1, 1]
    assert chain_boundary(cycle).coefficients == {}


def test_fundamental_cycle_needs_closed():
    disc = complex_of(DELTA2_POSITIVE + DELTA2_NEGATIVE)
    oriented = coherent_orientation(disc, disc.facets[0], 1)
    with pytest.raises(NotClosed):
        fundamental_cycle(oriented)


def test_fundamental_cycle_of_a_point_is_not_closed():
    # the point's one ridge, the empty simplex, lies in one facet
    point = make_complex([[v_label(1)]])
    oriented = coherent_orientation(point, point.facets[0], 1)
    assert oriented.closed is False
    with pytest.raises(NotClosed, match="^fundamental cycle needs a closed complex$"):
        fundamental_cycle(oriented)


def test_orientation_refuses_the_empty_complex():
    """Its one facet, the empty simplex, has no ridges to walk across,
    though the pseudomanifold check finds it closed and connected."""
    empty = make_complex([[]])
    with pytest.raises(
        PreconditionFailed,
        match="^orientation needs a nonempty complex, got the empty complex$",
    ):
        coherent_orientation(empty, empty.facets[0], 1)
