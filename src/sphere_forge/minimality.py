"""Exhaustive verification of the small-sphere degree bounds.

Triangulated 2-spheres on four to nine vertices are enumerated by a
backtracking search that glues triangles over the smallest open edge
and keeps each closed surface that uses every vertex; the bound sweep
reads the census up to seven vertices.  Each result is named by a
canonical code, the least breadth-first walk from a facet flag, so one
entry is kept per isomorphism class.  The two branching orders of the
search find the same labelled triangulations, so each code is computed
once and serves both.  The census is 2-dimensional.

The map survey runs in any dimension n from 1 to 6.  It finds the
largest |degree| of the vertex assignments from a closed n-dimensional
pseudomanifold onto the (n+2)-vertex n-sphere, n + 2 colours, and the
least assignment that attains it.  It visits one assignment per orbit
of the target's symmetry group S(n+2), which changes only the sign of
the degree.  It scans the source vertices in an order taken from the
complex, growing one patch from an edge at a vertex of largest degree,
and merges the partial assignments that no later facet can tell apart,
keeping the least of them.  On 40 relabellings of the 10-vertex
join-cone 2-sphere its frontier held at most five vertices and at most
481 states at once, where label order held up to nine vertices and
10 795 states.  The witness is the least assignment of largest
|degree| with the vertices read in scan order.

The facts verified: no 2-sphere with at most six vertices admits a map
of absolute degree 2, and none with at most seven vertices admits
absolute degree 3 -- while seven and eight vertices do attain degrees 2
and 3 through the packaged constructions.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import comb
from typing import NamedTuple

from .complex_core import Complex, make_complex, pseudomanifold_check
from .constructions import build_join_cone_sphere, build_stacked_sphere
from .errors import InconsistentAlg, NotClosed, PreconditionFailed
from .homology import LEVEL_CERTIFY, sphere_check
from .labels import VertexLabel, parse_label, v_label
from .orientation import coherent_orientation, sort_sign
from .simplicial_map import VertexMap, degree_by_counting

IntTriangle = tuple[int, int, int]


def worker_count(partitions: int) -> int:
    """Worker threads the map survey uses: always one, since the scan is
    bound by the interpreter lock and threads gave it no speed-up.  Kept
    because the benchmark in ``perfbench/`` traces it."""
    return 1


# ---------------------------------------------------------------------------
# Enumeration


def _search_triangulations(v: int, descending: bool) -> set[frozenset[IntTriangle]]:
    """All labelled 2-sphere triangulations on vertices 0..v-1 that
    contain triangle (0,1,2), with fresh vertices introduced in
    increasing order.

    Every isomorphism class has a representative of this shape (relabel
    any facet to (0,1,2), then rename fresh vertices in discovery
    order), so the harvest is complete up to isomorphism.  Each triangle
    is glued along the smallest open edge, so a closed result is a
    strongly connected surface in which every edge lies on two
    triangles, and chi = 2 makes it a sphere: un-pinching its vertices
    gives a connected closed surface of chi <= 2, and each pinch lowers
    chi by one.  A closed result on all v vertices needs no chi test:
    its F <= 2v - 4 triangles and 3F/2 edges give chi = v - F/2 >= 2.
    """
    found: set[frozenset[IntTriangle]] = set()
    triangles: list[IntTriangle] = [(0, 1, 2)]
    # edge (a, b), a < b, is numbered a * v + b; edge_count holds the
    # triangles on each edge, open_edges the edges on one triangle
    edge_count = bytearray(v * v)
    open_edges = {1, 2, v + 2}
    for e in open_edges:
        edge_count[e] = 1
    top = 3  # vertices 0..top-1 are in use

    def recurse():
        nonlocal top
        if not open_edges:
            if top == v:
                found.add(frozenset(triangles))
            return
        if len(triangles) >= 2 * v - 4:
            return
        open_edge = min(open_edges)
        a, b = divmod(open_edge, v)
        candidates = [w for w in range(min(top + 1, v)) if w != a and w != b]
        if descending:
            candidates.reverse()
        for w in candidates:
            e1 = a * v + w if a < w else w * v + a
            e2 = b * v + w if b < w else w * v + b
            if edge_count[e1] == 2 or edge_count[e2] == 2:
                continue
            triangles.append(tuple(sorted((a, b, w))))
            for e in (open_edge, e1, e2):
                edge_count[e] += 1
                if edge_count[e] == 1:
                    open_edges.add(e)
                else:
                    open_edges.remove(e)
            fresh = w == top
            top += fresh
            recurse()
            top -= fresh
            triangles.pop()
            for e in (open_edge, e1, e2):
                edge_count[e] -= 1
                if edge_count[e] == 1:
                    open_edges.add(e)
                else:
                    open_edges.remove(e)

    recurse()
    return found


@cache
def _canonical_form(triangles: frozenset[IntTriangle]) -> tuple:
    """Isomorphism-invariant key of a 2-sphere on the vertices 0..v-1:
    (sorted degree sequence, code).

    A flag is a facet with an ordering of its vertices.  From a flag
    the walk goes breadth first across edges, naming each vertex the
    first time it meets it; the code is the facet list, in the order
    the walk meets the facets, under those names.  The key takes the
    least code over the flags whose vertex-degree triple is least.

    Both branching orders of the census search yield the same labelled
    triangulations, so the key is memoised on the facet set and each
    is computed once.  Degrees, apex sums and names are lists indexed
    by vertex.  The least degree triple of a flag is the least sorted
    degree triple of a facet, so the candidate flags are the facet
    orderings that read it.
    """
    v = 1 + max(max(tri) for tri in triangles)
    degree = [0] * v
    # the two apexes over edge {x, y} sum to rim[x * v + y]
    rim = [0] * (v * v)
    for x, y, z in triangles:
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
            degree[p] += 1
            rim[p * v + q] += r
            rim[q * v + p] += r

    def walk(a: int, b: int, c: int) -> list:
        """The code from flag (a, b, c)."""
        name = [-1] * v
        name[a], name[b], name[c] = 0, 1, 2
        named = 3
        queue = [(a, b, c)]
        code = [(0, 1, 2)]
        # directed edges of the facets met, each facet oriented
        # coherently with the flag
        met = bytearray(v * v)
        met[a * v + b] = met[b * v + c] = met[c * v + a] = 1
        for x, y, z in queue:
            for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
                if not met[q * v + p]:
                    w = rim[p * v + q] - r
                    if name[w] < 0:
                        name[w] = named
                        named += 1
                    met[q * v + p] = met[p * v + w] = met[w * v + q] = 1
                    queue.append((q, p, w))
                    code.append((name[q], name[p], name[w]))
        return code

    least_degrees = min(sorted([degree[x], degree[y], degree[z]]) for x, y, z in triangles)
    best = min(
        walk(a, b, c)
        for tri in triangles
        for a, b, c in permutations(tri)
        if [degree[a], degree[b], degree[c]] == least_degrees
    )
    return tuple(sorted(degree)), tuple(best)


class CensusEntry(NamedTuple):
    """One isomorphism class of triangulated 2-spheres."""

    complex: Complex
    canonical_key: tuple


def census_label(i: int) -> VertexLabel:
    return parse_label(f"w{i + 1}")


def enumerate_2spheres(v: int) -> tuple[CensusEntry, ...]:
    """One census entry per isomorphism class of v-vertex 2-spheres.

    Only 4 <= v <= 9 is supported: the degree bounds need 4..7, and the
    census sizes (1, 1, 2, 5, 14, 50) are tested over 4..9.
    """
    if not 4 <= v <= 9:
        raise PreconditionFailed(f"census supports 4 <= v <= 9, got {v}")
    keys = {_canonical_form(t) for t in _search_triangulations(v, False)}
    return tuple(
        CensusEntry(
            complex=make_complex([[census_label(i) for i in tri] for tri in key[1]]),
            canonical_key=key,
        )
        for key in sorted(keys)
    )


# ---------------------------------------------------------------------------
# Exhaustive map sweep


def _scan_order(v: int, facets: tuple[tuple[int, ...], ...]) -> list[int]:
    """The order in which the map survey assigns the vertices 0..v-1.

    It starts from an edge: a vertex on the most facets, then its
    neighbour on the most facets, the least number on ties.  Then it
    repeatedly takes the unassigned vertex that is the last unassigned
    vertex of the most facets, then the least.  On a surface some vertex
    completes a triangle until none is left, since the surface is
    strongly connected; so the scan grows one patch and its frontier
    stays a short ring, whatever the labels.  In dimension n a facet
    needs n assigned vertices first, so early steps may complete none.
    Then the scan takes the vertex on the most facets that miss two
    unassigned vertices, then three, and so on, then the least, so the
    patch still grows from what is assigned instead of by label.
    """
    through: list[list[int]] = [[] for _ in range(v)]
    for f, facet in enumerate(facets):
        for u in facet:
            through[u].append(f)

    def by_degree(w: int) -> tuple[int, int]:
        return -len(through[w]), w

    def by_misses(w: int) -> tuple[list[int], int]:
        # entry m - 2 counts, negated, the facets through w missing m vertices
        misses = [0] * len(facets[0])
        for f in through[w]:
            misses[unassigned[f] - 1] -= 1
        return misses[1:], w

    unassigned = [len(facet) for facet in facets]
    completes = [0] * v
    scanned = [False] * v
    order = []
    u = min(range(v), key=by_degree)
    while True:
        order.append(u)
        scanned[u] = True
        if len(order) == v:
            return order
        for f in through[u]:
            unassigned[f] -= 1
            if unassigned[f] == 1:
                (w,) = [w for w in facets[f] if not scanned[w]]
                completes[w] += 1
        if len(order) == 1:
            u = min({w for f in through[u] for w in facets[f] if w != u}, key=by_degree)
        else:
            rest = [w for w in range(v) if not scanned[w]]
            u = min(rest, key=lambda w: (-completes[w], w))
            if not completes[u]:
                u = min(rest, key=by_misses)


class DegreeSurvey(NamedTuple):
    """What :func:`degree_survey` found for an n-dimensional source: the
    largest |degree| of its maps onto the (n+2)-vertex n-sphere, the
    least map of that |degree| in scan order, and the most states the
    scan held at once."""

    max_abs: int
    witness: VertexMap
    peak_states: int


def degree_survey(K: Complex) -> DegreeSurvey:
    """Largest |degree| of the simplicial vertex maps from a closed,
    connected, orientable n-dimensional pseudomanifold K, 1 <= n <= 6,
    onto the standard n-sphere ``v1 .. v<n+2>``, whose n + 2 vertices
    are the colours 0..n+1, with a witness.

    The witness is the lexicographically first assignment of largest
    |degree|, read in the order of ``_scan_order``.  That degree is at
    least 1: K is closed, connected and orientable (the orientation
    below demands it), and sending one facet to v1 .. v<n+1> and every
    other vertex to v<n+2> is a surjection under which only that facet
    covers v1 .. v<n+1>, so its degree is 1 or -1.

    The scan assigns one vertex per step, adding the signed images of
    the facets it completes to n + 2 totals, one per target facet.
    After each step the frontier is the assigned vertices that a facet
    not yet complete still reads.  The scan visits one assignment per
    orbit of the symmetric group S(n+2) relabelling the target: the
    restricted growth strings (RGS) in scan order, whose values first
    appear in the order 0, 1, .., n+1.  Relabelling the target by sigma
    multiplies the degree by sign(sigma), so an orbit has one |degree|;
    its least member is its RGS, so the witness is an RGS, and a
    surjective one, since a map that misses a colour has degree zero.
    An RGS prefix's state is the values on the frontier, the number of
    values used and the totals, and the scan keeps per state the least
    prefix that reaches it.  Two prefixes in one state have the same
    completions, since a completion's choices and the facets it adds
    read only the frontier and the count of values used, and they end
    at the same totals.  So the final states carry the degree of every
    surjective RGS, the totals must agree on each of them, and the
    least RGS in a final state is the least prefix it keeps.

    The scan meets the states in increasing order of their least
    prefix and tries each state's values in increasing order, so the
    first prefix to reach a state is its least, and the first final
    state of largest |degree| holds the witness.
    """
    n = K.dimension
    # the step table below has 2^(b(n+1)) entries: 2^21 at n = 6, 2^32 at 7
    if not K.is_pure or not 1 <= n <= 6:
        got = "the empty complex" if K.is_empty else f"dimension {n}"
        raise PreconditionFailed(
            f"map survey needs a pure complex of dimension 1 to 6, got "
            f"{got}{'' if K.is_pure else ' (not pure)'}"
        )
    faults = pseudomanifold_check(K).closure_faults
    if faults:
        # a boundary ridge leaves the signed counts of the target facets
        # free to differ, so there is no degree to survey
        raise NotClosed(
            f"map survey needs a closed pseudomanifold, every ridge in two "
            f"facets: {', '.join(faults)}"
        )
    v = len(K.vertices)
    colours = n + 2
    # facets in the same order as K.facets, vertices numbered in label order
    facets = K.numbered_facets
    order = _scan_order(v, facets)
    step_of = {u: k for k, u in enumerate(order)}
    oriented = coherent_orientation(K, K.facets[0], 1)

    # A state is one int: the b bits from bit b*u hold the value assigned
    # at step u while that vertex is on the frontier (zero off it), then
    # a field counts the values used, then n + 2 fields of ``width`` bits
    # hold the totals, each offset by the facet count so that it stays
    # non-negative.  Its entry holds the least of its prefixes, base 2^b
    # in step order.
    b = (n + 1).bit_length()
    value = (1 << b) - 1
    offset = len(facets)
    width = (2 * offset).bit_length()
    used_at = b * v
    used_bits = colours.bit_length()
    total_at = [used_at + used_bits + o * width for o in range(colours)]

    # A facet completed at step k, with earlier steps i_0 < .. < i_(n-1),
    # has the image code that holds the value at step i_m in field m and
    # the value x at step k in field n, b bits each.  Its bucket entry
    # keeps the shift and mask that move each earlier value into place.
    bucket: list[list[tuple[tuple[tuple[int, int], ...], int]]] = [[] for _ in range(v)]
    last = list(range(v))  # the last step of a facet through step u
    for facet, numbered in zip(K.facets, facets):
        where = [step_of[u] for u in numbered]
        *earlier, k = sorted(where)
        shifts = tuple((b * (i - m), value << b * m) for m, i in enumerate(earlier))
        # the facet's sign is for its vertices in label order; the scan
        # reads their values in step order
        bucket[k].append((shifts, oriented.signs[facet] * sort_sign(where)))
        for i in earlier:
            last[i] = max(last[i], k)

    # An image with distinct values is a preimage of the target facet
    # omitting o = C(n+2, 2) - sum(image), with sign sort_sign(image).
    # totals[o] is kept times that facet's own sign, (-1)^(n+1-o) by the
    # boundary formula with v1 .. v<n+1> positive, so each reads the degree.
    top = b * n
    step = [0] * (1 << top + b)
    for image in permutations(range(colours), n + 1):
        o = comb(colours, 2) - sum(image)
        code = sum(x << b * m for m, x in enumerate(image))
        step[code] = sort_sign(image) * (-1) ** (n + 1 - o) << total_at[o]

    states = {sum(offset << at for at in total_at): 0}
    peak = 1
    for k in range(v):
        keep = -1 << used_at
        for u in range(k):
            if last[u] > k:
                keep |= value << b * u
        read = (1 << used_bits) - 1 << used_at
        for shifts, _ in bucket[k]:
            for shift, mask in shifts:
                read |= mask << shift
        # the fewest values used after step k that leave vertices
        # enough to use all n + 2
        need = k + 1 + colours - v
        # states that agree on what bucket k reads take the same moves
        moves: dict[int, list[tuple[int, int]]] = {}
        nxt: dict[int, int] = {}
        for key, prefix in states.items():
            seen = key & read
            choices = moves.get(seen)
            if choices is None:
                choices = moves[seen] = []
                used = seen >> used_at
                codes = []
                for shifts, s in bucket[k]:
                    code = 0
                    for shift, mask in shifts:
                        code |= seen >> shift & mask
                    codes.append((code, s))
                for x in range(min(used + 1, colours)):
                    if used + (x == used) < need:
                        continue
                    add = (x == used) << used_at
                    if last[k] > k:
                        add += x << b * k
                    for code, s in codes:
                        add += s * step[code | x << top]
                    choices.append((add, x))
            base = key & keep
            prefix <<= b
            for add, x in choices:
                # the first prefix to reach a state is its least
                nxt.setdefault(base + add, prefix + x)
        states = nxt
        peak = max(peak, len(states))

    field_mask = (1 << width) - 1
    best = -1
    for key, prefix in states.items():
        totals = [(key >> at & field_mask) - offset for at in total_at]
        deg = totals[0]
        if totals.count(deg) != colours:
            raise InconsistentAlg(f"signed counts {totals} disagree across target facets")
        # the states come in increasing order of their least prefix
        if abs(deg) > best:
            best, least = abs(deg), prefix
    witness = {
        K.vertices[u]: v_label((least >> b * (v - 1 - k) & value) + 1)
        for k, u in enumerate(order)
    }
    return DegreeSurvey(best, VertexMap(witness), peak)


def max_abs_degree(K: Complex) -> tuple[int, VertexMap]:
    """Largest |degree| over all simplicial maps from the n-dimensional K
    onto the standard n-sphere, with the survey's witness: the least map
    of that |degree| in scan order, found in the same pass."""
    survey = degree_survey(K)
    return survey.max_abs, survey.witness


# ---------------------------------------------------------------------------
# The verification bundle


class MinimalityReport(NamedTuple):
    """What :func:`verify_small_sphere_bounds` found; ``passed`` says
    that every bound and attainment holds and no census entry failed."""

    census_sizes: dict[int, int]
    orders_agree: bool
    max_degree_by_vertices: dict[int, int]
    degree2_bound_ok: bool
    degree3_bound_ok: bool
    degree2_attained_at_7: bool
    degree3_attained_at_8: bool
    counterexamples: tuple[str, ...]
    passed: bool


def verify_small_sphere_bounds() -> MinimalityReport:
    """Exhaustive sweep over the 2-spheres on 4..7 vertices: census
    sizes, the two degree bounds, and the attainment witnesses from the
    constructions.

    A census entry failing the sphere battery would mean an
    implementation bug, not a refutation; it is reported as a
    counterexample instead of raised.
    """
    census = {v: enumerate_2spheres(v) for v in range(4, 8)}
    # the descending branching order is an independent run that must
    # reproduce the census keys; the memo serves its keys
    orders_agree = all(
        {_canonical_form(t) for t in _search_triangulations(v, True)}
        == {e.canonical_key for e in entries}
        for v, entries in census.items()
    )

    counterexamples = []
    max_by_v: dict[int, int] = {}
    for v, entries in census.items():
        best = 0
        for entry in entries:
            check = sphere_check(entry.complex, 2, LEVEL_CERTIFY)
            if not check.passed:
                counterexamples.append(
                    f"census entry on {v} vertices fails the sphere battery (bug)"
                )
                continue
            best = max(best, degree_survey(entry.complex).max_abs)
        max_by_v[v] = best

    degree2 = degree_by_counting(build_join_cone_sphere(2, 2)).degree == 2
    degree3 = degree_by_counting(build_stacked_sphere(2)).degree == 3
    bound2 = all(max_by_v[v] <= 1 for v in range(4, 7))
    bound3 = all(max_by_v[v] <= 2 for v in range(4, 8))
    passed = orders_agree and bound2 and bound3 and degree2 and degree3 and not counterexamples

    return MinimalityReport(
        census_sizes={v: len(entries) for v, entries in census.items()},
        orders_agree=orders_agree,
        max_degree_by_vertices=max_by_v,
        degree2_bound_ok=bound2,
        degree3_bound_ok=bound3,
        degree2_attained_at_7=degree2,
        degree3_attained_at_8=degree3,
        counterexamples=tuple(counterexamples),
        passed=passed,
    )
