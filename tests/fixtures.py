"""Frozen fixtures shared across the test suite.

Facet lists are written as label strings; helpers turn them into
complexes.  The degree-4 alpha sets are the expected signed preimages of
each target facet for the (n=3, d=4) join-cone bundle.
"""

from collections import Counter
from itertools import permutations, product
from operator import itemgetter

from hypothesis import strategies as st

from sphere_forge import (
    Simplex,
    build_double_cone_sphere,
    build_facet_cone_sphere,
    build_join_cone_sphere,
    build_stacked_sphere,
    make_complex,
    parse_label,
    simplex,
    standard_sphere,
    v_label,
)
from sphere_forge.errors import PreconditionFailed
from sphere_forge.orientation import Chain, coherent_orientation, sort_sign


# facet vertex sets on 1..8: mixed sizes, or one size for pure complexes
link_vertices = st.integers(1, 8)
link_complexes = st.one_of(
    st.lists(st.sets(link_vertices, min_size=1, max_size=4), min_size=1, max_size=8),
    st.integers(1, 4).flatmap(
        lambda size: st.lists(
            st.sets(link_vertices, min_size=size, max_size=size), min_size=1, max_size=8
        )
    ),
)


def labels(text):
    return [parse_label(tok) for tok in text.split()]


def complex_of(facet_strings):
    return make_complex([labels(f) for f in facet_strings])


def simplex_of(text):
    return simplex(labels(text))


def facet_set(facet_strings):
    return frozenset(frozenset(labels(f)) for f in facet_strings)


def matrix_product_is_zero(A, B):
    """Sparse check that ``A @ B == 0`` without forming the dense product."""
    if A.cols != B.rows:
        raise PreconditionFailed("inner dimensions differ")
    for column in B.columns:
        acc = {}
        for r, v in column:
            for i, w in A.columns[r]:
                acc[i] = acc.get(i, 0) + v * w
        if any(acc.values()):
            return False
    return True


def reference_link(face, K):
    """The link by scanning every facet of K: the facets that hold
    ``face``, less its vertices; None when no facet holds it."""
    fs = set(face)
    residues = [[x for x in f if x not in fs] for f in K.facets if fs <= set(f)]
    return make_complex(residues) if residues else None


def chain_boundary(chain):
    """Boundary of an integer chain under the alternating-sign face rule."""
    out = {}
    for s, c in chain.coefficients.items():
        if c == 0:
            continue
        for i in range(len(s)):
            face = Simplex(s[:i] + s[i + 1 :])
            out[face] = out.get(face, 0) + ((-c) if i % 2 else c)
    return Chain(
        coefficients={s: c for s, c in out.items() if c != 0},
        degree=chain.degree - 1,
    )


def cycle_sort_sign(seq):
    """Reference permutation sign by cycle decomposition: the sign of
    the permutation taking the sorted order of ``seq`` to ``seq``, 0 when
    an item repeats."""
    ref = sorted(seq)
    if len(set(ref)) != len(ref):
        return 0
    pos = {x: i for i, x in enumerate(ref)}
    perm = [pos[x] for x in seq]
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def reference_canonical_form(triangles):
    """Reference census key, (sorted degree sequence, code): the least
    breadth-first walk code over every flag of least degree triple,
    each walk run to the end.

    A flag is a facet with an ordering of its vertices.  From a flag
    the walk goes breadth first across edges, naming each vertex the
    first time it meets it; the code is the facet list, in the order
    the walk meets the facets, under those names.
    """
    degree = Counter(x for tri in triangles for x in tri)
    # the two apexes over edge (x, y) sum to rim[x, y]
    rim = Counter()
    for tri in triangles:
        for x, y, z in permutations(tri):
            rim[x, y] += z

    def walk(flag):
        name = dict(zip(flag, range(3)))
        queue = [flag]
        # directed edges of the facets met, each facet oriented
        # coherently with the flag
        met = {flag[:2], flag[1:], (flag[2], flag[0])}
        for x, y, z in queue:
            for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
                if (q, p) not in met:
                    w = rim[p, q] - r
                    name.setdefault(w, len(name))
                    met.update(((q, p), (p, w), (w, q)))
                    queue.append((q, p, w))
        return tuple((name[x], name[y], name[z]) for x, y, z in queue)

    triple = {
        flag: tuple(degree[x] for x in flag)
        for tri in triangles
        for flag in permutations(tri)
    }
    least = min(triple.values())
    code = min(walk(flag) for flag, t in triple.items() if t == least)
    return tuple(sorted(degree.values())), code


def reference_product_survey(K, order):
    """Reference map survey, the plain product scan over all (n+2)^v
    assignments from the n-dimensional K onto the standard n-sphere,
    re-sorting every facet of each: (degrees over the surjective
    assignments, max |degree|, the lexicographically first assignment of
    that |degree| with the vertices read in ``order``, as a tuple of
    target indices in label order, None when every degree is zero).

    Source and target signs both come from orientation walks, the
    target's with base v1 .. v<n+1> positive; all n + 2 signed counts
    must agree on every assignment.
    """
    n = K.dimension
    colours = n + 2
    v = len(K.vertices)
    index = {lab: i for i, lab in enumerate(K.vertices)}
    source = coherent_orientation(K, K.facets[0], 1)
    # each facet reads its image off an assignment in label order
    facets = [
        (itemgetter(*[index[lab] for lab in facet]), source.signs[facet])
        for facet in K.facets
    ]
    target = coherent_orientation(
        standard_sphere(n), simplex([v_label(i) for i in range(1, n + 2)]), 1
    )
    target_signs = {
        frozenset(w.item_index - 1 for w in facet): sign
        for facet, sign in target.signs.items()
    }

    def oriented_face(image):
        """The image's vertex set and the sign of the permutation that
        sorts it, by counting inversions; None when a value repeats."""
        if len(set(image)) < len(image):
            return None
        inversions = sum(x > y for i, x in enumerate(image) for y in image[i + 1 :])
        return frozenset(image), (-1) ** inversions

    faces = {}  # memo of oriented_face
    best = 0
    witness = None
    degrees = Counter()
    for values in product(range(colours), repeat=v):
        if len(set(values)) != colours:
            continue
        assignment = [0] * v
        for u, x in zip(order, values):
            assignment[u] = x
        counts = Counter()
        for image_of, sign in facets:
            image = image_of(assignment)
            face = faces.get(image, ())
            if face == ():
                face = faces[image] = oriented_face(image)
            if face is not None:
                counts[face[0]] += sign * face[1]
        totals = {sign * counts[face] for face, sign in target_signs.items()}
        assert len(totals) == 1, totals
        deg = totals.pop()
        degrees[deg] += 1
        if abs(deg) > best:
            best = abs(deg)
            witness = tuple(assignment)
    return degrees, best, witness


def reference_frontier_survey(K, order):
    """Reference map survey, the frontier merge with the vertices
    assigned in ``order``, a list of indices into ``K.vertices``:
    (degrees, max |degree|, the lexicographically first assignment of
    that |degree| with the vertices read in ``order``, as a tuple of
    target indices in label order, None when every degree is zero).

    The scan assigns vertices order[0], order[1], ... in turn, one
    restricted growth string (RGS) per orbit of the target's S4, and
    keeps per state (frontier values, values used, four signed totals)
    the number of prefixes in it and the least of them.
    """
    vertices = K.vertices
    v = len(vertices)
    step_of = {vertices[u]: k for k, u in enumerate(order)}
    oriented = coherent_orientation(K, K.facets[0], 1)
    bucket = [[] for _ in range(v)]
    last = list(range(v))  # the last step of a triangle through step u
    for facet in K.facets:
        where = [step_of[lab] for lab in facet]
        i, j, k = sorted(where)
        bucket[k].append((i, j, oriented.signs[facet] * sort_sign(where)))
        last[i] = max(last[i], k)
        last[j] = max(last[j], k)

    # a state is one int: two bits per frontier vertex, three bits for
    # the values used, then four offset totals of ``width`` bits; its
    # entry holds the count above bit 2v and the least prefix below
    offset = len(K.facets)
    width = (2 * offset).bit_length()
    used_at = 2 * v
    total_at = [used_at + 3 + o * width for o in range(4)]
    # the target's facet signs from an orientation walk over it, with
    # base v1 v2 v3 positive
    target = coherent_orientation(
        standard_sphere(2), simplex([v_label(1), v_label(2), v_label(3)]), 1
    )
    by_omitted = {
        6 - sum(w.item_index - 1 for w in facet): sign
        for facet, sign in target.signs.items()
    }
    facet_sign = [by_omitted[o] for o in range(4)]
    step = {}
    for x, y, z in permutations(range(4), 3):
        o = 6 - x - y - z
        step[x, y, z] = (sort_sign((x, y, z)) * facet_sign[o]) << total_at[o]

    prefix_mask = (1 << 2 * v) - 1
    states = {sum(offset << at for at in total_at): 1 << 2 * v}
    for k in range(v):
        keep = -1 << used_at
        for u in range(k):
            if last[u] > k:
                keep |= 3 << 2 * u
        read = 7 << used_at
        for i, j, _ in bucket[k]:
            read |= 3 << 2 * i | 3 << 2 * j
        need = k + 5 - v
        moves = {}
        nxt = {}
        for key, entry in states.items():
            seen = key & read
            choices = moves.get(seen)
            if choices is None:
                choices = moves[seen] = []
                used = seen >> used_at
                for x in range(min(used + 1, 4)):
                    if used + (x == used) < need:
                        continue
                    add = (x == used) << used_at
                    if last[k] > k:
                        add += x << 2 * k
                    for i, j, s in bucket[k]:
                        add += s * step.get(
                            (seen >> 2 * i & 3, seen >> 2 * j & 3, x), 0
                        )
                    choices.append((add, x))
            base = key & keep
            prefix = entry & prefix_mask
            count = entry - prefix
            prefix *= 4
            for add, x in choices:
                new = base + add
                got = nxt.get(new)
                nxt[new] = count + (prefix + x if got is None else got)
        states = nxt

    field = (1 << width) - 1
    degrees = Counter()
    best = 0
    witness = None
    for key, entry in states.items():
        totals = [(key >> at & field) - offset for at in total_at]
        deg = totals[0]
        if not totals[1] == totals[2] == totals[3] == deg:
            raise AssertionError(f"signed counts {totals} disagree")
        count = entry >> 2 * v
        degrees[deg] += 12 * count
        degrees[-deg] += 12 * count
        if abs(deg) > best:
            best = abs(deg)
            witness = entry & prefix_mask
    if witness is not None:
        values = [0] * v
        for k, u in enumerate(order):
            values[u] = witness >> 2 * (v - 1 - k) & 3
        witness = tuple(values)
    return degrees, best, witness


# the 3d-vertex discs for d = 2, 3, 4 with their sign split
DELTA2_POSITIVE = ["u1_1 u2_1 u3_1", "u1_2 u2_2 u3_1", "u1_1 u2_2 u3_2"]
DELTA2_NEGATIVE = ["u1_1 u2_2 u3_1"]

DELTA3_POSITIVE = [
    "u1_1 u2_1 u3_1",
    "u1_2 u2_2 u3_1",
    "u1_3 u2_2 u3_2",
    "u1_3 u2_3 u3_3",
    "u1_1 u2_2 u3_3",
]
DELTA3_NEGATIVE = ["u1_1 u2_2 u3_1", "u1_3 u2_2 u3_3"]

DELTA4_POSITIVE = [
    "u1_1 u2_1 u3_1",
    "u1_2 u2_2 u3_1",
    "u1_3 u2_2 u3_2",
    "u1_3 u2_3 u3_3",
    "u1_4 u2_4 u3_3",
    "u1_1 u2_4 u3_4",
    "u1_1 u2_2 u3_3",
]
DELTA4_NEGATIVE = ["u1_1 u2_2 u3_1", "u1_3 u2_2 u3_3", "u1_1 u2_4 u3_3"]

DELTA4_TRIANGLES = DELTA4_POSITIVE + DELTA4_NEGATIVE


# minimal 6-vertex triangulation of the projective plane (every edge in
# two triangles, chi = 1, one 2-torsion class in H_1)
PROJECTIVE_PLANE = [
    "w1 w2 w5",
    "w1 w2 w6",
    "w1 w3 w4",
    "w1 w3 w5",
    "w1 w4 w6",
    "w2 w3 w4",
    "w2 w3 w6",
    "w2 w4 w5",
    "w3 w5 w6",
    "w4 w5 w6",
]


# expected signed preimage sets for the (n=3, d=4) join-cone bundle
DEGREE4_ALPHA = {
    ("v1 v2 v3 v4", "+"): [
        "u1_1 u2_1 u3_1 u4",
        "u1_2 u2_2 u3_1 u4",
        "u1_3 u2_2 u3_2 u4",
        "u1_3 u2_3 u3_3 u4",
        "u1_4 u2_4 u3_3 u4",
        "u1_1 u2_4 u3_4 u4",
        "u1_1 u2_2 u3_3 u4",
    ],
    ("v1 v2 v3 v4", "-"): [
        "u1_1 u2_2 u3_1 u4",
        "u1_3 u2_2 u3_3 u4",
        "u1_1 u2_4 u3_3 u4",
    ],
    ("v1 v2 v3 v5", "+"): [
        "u1_1 u2_2 u3_1 u5",
        "u1_3 u2_2 u3_3 u5",
        "u1_1 u2_4 u3_3 u5",
    ],
    ("v1 v2 v3 v5", "-"): [
        "u1_1 u2_1 u3_1 u5",
        "u1_2 u2_2 u3_1 u5",
        "u1_3 u2_2 u3_2 u5",
        "u1_3 u2_3 u3_3 u5",
        "u1_4 u2_4 u3_3 u5",
        "u1_1 u2_4 u3_4 u5",
        "u1_1 u2_2 u3_3 u5",
    ],
    ("v1 v2 v4 v5", "+"): [
        "u1_1 u2_1 u4 u5",
        "u1_2 u2_2 u4 u5",
        "u1_3 u2_3 u4 u5",
        "u1_4 u2_4 u4 u5",
    ],
    ("v1 v2 v4 v5", "-"): [],
    ("v1 v3 v4 v5", "+"): [],
    ("v1 v3 v4 v5", "-"): [
        "u1_2 u3_1 u4 u5",
        "u1_3 u3_2 u4 u5",
        "u1_4 u3_3 u4 u5",
        "u1_1 u3_4 u4 u5",
    ],
    ("v2 v3 v4 v5", "+"): [
        "u2_1 u3_1 u4 u5",
        "u2_2 u3_2 u4 u5",
        "u2_3 u3_3 u4 u5",
        "u2_4 u3_4 u4 u5",
    ],
    ("v2 v3 v4 v5", "-"): [],
}

# the six nonempty published preimage lists (the trust anchor for the
# degree-4 worked example)
DEGREE4_ALPHA_SIX = {
    key: value for key, value in DEGREE4_ALPHA.items() if value and key[0] != "v1 v2 v3 v5"
}
DEGREE4_ALPHA_SIX[("v1 v2 v3 v5", "-")] = DEGREE4_ALPHA[("v1 v2 v3 v5", "-")]


# the 76 (builder, arguments) pairs of the C3-C6 construction sweeps
CONSTRUCTION_GRID = (
    [(build_join_cone_sphere, (n, d)) for n in range(2, 6) for d in range(1, 9)]
    + [
        (build_double_cone_sphere, (n, d, variant))
        for n in range(3, 6)
        for d in range(1, 5)
        for variant in ("even", "odd")
    ]
    + [(build_facet_cone_sphere, (n, k)) for n in range(2, 7) for k in range(2, n + 1)]
    + [(build_stacked_sphere, (n,)) for n in range(2, 7)]
)
