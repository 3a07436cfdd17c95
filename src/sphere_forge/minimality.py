"""Exhaustive verification of the small-sphere degree bounds in dimension 2.

Triangulated 2-spheres on up to seven vertices are enumerated by a
backtracking search that glues triangles over the smallest open edge
and keeps each closed surface that uses every vertex.  Each result is
named by a canonical code, the least breadth-first walk from a facet
flag, so one entry is kept per isomorphism class.  The two branching
orders of the search find the same labelled triangulations, so each
code is computed once and serves both.  Then the vertex assignments
into the 4-vertex sphere are surveyed exhaustively, one per orbit of the
target's symmetry group S4 (S(v, 4) surjective representatives
instead of 4^v assignments).  The survey scans the source vertices in
an order taken from the surface, growing one patch from an edge at a
vertex of largest degree, and counts together the partial assignments
that no later triangle can tell apart.  On 40 relabellings of the
10-vertex join-cone source its frontier held at most five vertices and
at most 481 states at once, where label order held up to nine vertices
and 10 795 states.  The same pass finds the witness, the least
assignment of largest |degree| with the vertices read in scan order:
each state keeps the least prefix that reaches it.

The facts verified: no 2-sphere with at most six vertices admits a map
of absolute degree 2, and none with at most seven vertices admits
absolute degree 3 -- while seven and eight vertices do attain degrees 2
and 3 through the packaged constructions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from functools import cache
from itertools import permutations

from .complex_core import (
    Complex,
    make_complex,
    pseudomanifold_check,
    simplex,
    standard_sphere,
)
from .constructions import build_join_cone_sphere, build_stacked_sphere
from .errors import InconsistentAlg, NotClosed, PreconditionFailed
from .homology import sphere_check
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


@dataclass(frozen=True, eq=False)
class CensusEntry:
    """One isomorphism class of triangulated 2-spheres."""

    complex: Complex
    canonical_key: tuple


def census_label(i: int) -> VertexLabel:
    return parse_label(f"w{i + 1}")


def enumerate_2spheres(v: int) -> tuple[CensusEntry, ...]:
    """One census entry per isomorphism class of v-vertex 2-spheres.

    Only 4 <= v <= 7 is supported: that is the range the degree bounds
    need and the census sizes (1, 1, 2, 5) are tested over.
    """
    if not 4 <= v <= 7:
        raise PreconditionFailed(f"census supports 4 <= v <= 7, got {v}")
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


@cache
def _target_facet_signs() -> tuple[int, int, int, int]:
    """Orientation sign, from base ``v1 v2 v3``, of the target facet that
    omits ``v<o+1>``, for o = 0..3."""
    base = simplex([v_label(1), v_label(2), v_label(3)])
    oriented = coherent_orientation(standard_sphere(2), base, 1)
    by_omitted = {
        6 - sum(v.item_index - 1 for v in facet): sign
        for facet, sign in oriented.signs.items()
    }
    return tuple(by_omitted[o] for o in range(4))


def _scan_order(v: int, triangles: tuple[IntTriangle, ...]) -> list[int]:
    """The order in which the map survey assigns the vertices 0..v-1.

    It starts from an edge: a vertex of largest degree, then its
    neighbour of largest degree, the least number on ties.  Then it
    repeatedly takes the unassigned vertex that completes the most
    triangles, then the least.  Once an edge is assigned, some
    unassigned vertex completes a triangle until none is left, since the
    surface is strongly connected; so each vertex joins an assigned
    edge, the scan grows one patch and its frontier stays a short ring,
    whatever the labels.
    """
    through: list[list[IntTriangle]] = [[] for _ in range(v)]
    for tri in triangles:
        for u in tri:
            through[u].append(tri)

    def by_degree(w: int) -> tuple[int, int]:
        return -len(through[w]), w

    completes = [0] * v
    scanned = [False] * v
    order = []
    u = min(range(v), key=by_degree)
    while True:
        order.append(u)
        scanned[u] = True
        if len(order) == v:
            return order
        for tri in through[u]:
            a, b = [w for w in tri if w != u]
            completes[a] += scanned[b]
            completes[b] += scanned[a]
        if len(order) == 1:
            u = min({w for tri in through[u] for w in tri if w != u}, key=by_degree)
        else:
            u = min((w for w in range(v) if not scanned[w]), key=lambda w: (-completes[w], w))


@dataclass(frozen=True, eq=False)
class DegreeSurvey:
    """What :func:`degree_survey` found: the degree distribution, the
    largest |degree|, the least map of that |degree| in scan order, and
    the most states the scan held at once."""

    max_abs: int
    degrees: Counter
    witness: VertexMap
    peak_states: int


def degree_survey(K: Complex) -> DegreeSurvey:
    """Degree distribution of all simplicial vertex maps from a closed
    orientable surface K, a 2-sphere in every use here, onto the
    standard 2-sphere ``v1 .. v4``.

    ``degrees[d]`` counts the surjective assignments of degree d over
    all 4^v assignments; non-surjective ones have degree zero and are
    not counted.  The witness is the lexicographically first assignment
    of largest |degree| over all 4^v assignments, with the vertices
    read in the order of ``_scan_order``.  It always exists, and that
    degree is at least 1: K is closed, connected and orientable (the
    orientation below demands it), and sending the three vertices of
    one triangle to v1, v2, v3 and every other vertex to v4 is a
    surjective map under which only that triangle covers the facet
    v1 v2 v3, so its degree is 1 or -1.

    The scan assigns the vertices in the order of ``_scan_order``, one
    per step; assigning a vertex adds the signed images of the
    triangles it completes to four totals, one per target facet.  After
    each step the frontier is the assigned vertices that a triangle not
    yet complete still reads.  The scan visits one assignment per orbit
    of the symmetric group S4 relabelling the target: the restricted
    growth strings (RGS) in scan order, whose values first appear in
    the order 0, 1, 2, 3.  A surjection's orbit has 24 members and
    sigma o f has degree sign(sigma) deg f, so each surjective RGS of
    degree d adds 12 to ``degrees[d]`` and 12 to ``degrees[-d]``.  An
    RGS prefix's state is the values on the frontier, the number of
    values used and the four totals, and the scan keeps per state the
    number of prefixes in it and the least of them.  Two prefixes in
    one state have the same completions, since a completion's choices
    and the triangles it adds read only the frontier and the count of
    values used, and they end at the same totals.  So the final states
    carry every surjective RGS with its degree, and the four totals
    must agree on each of them.

    The scan meets the states in increasing order of their least
    prefix and tries each state's values in increasing order, so the
    first prefix to reach a state is its least.  The least RGS of an
    orbit is its least member, so the least prefix among the final
    states of largest |degree| is the witness.
    """
    if not K.is_pure or K.dimension != 2:
        raise PreconditionFailed(
            f"map survey needs a pure 2-dimensional complex, got dimension "
            f"{K.dimension}{'' if K.is_pure else ' (not pure)'}"
        )
    report = pseudomanifold_check(K)
    if not report.closed:
        # a boundary edge leaves the signed counts of the target facets
        # free to differ, so there is no degree to survey
        problems = []
        if report.boundary_ridges:
            problems.append(f"{report.boundary_ridges} edges on one triangle")
        if report.max_ridge_multiplicity > 2:
            problems.append(f"an edge on {report.max_ridge_multiplicity} triangles")
        raise NotClosed(
            f"map survey needs a closed surface, every edge on two triangles: "
            f"{', '.join(problems)}"
        )
    v = len(K.vertices)
    # facets in the same order as K.facets, vertices numbered in label order
    triangles = K.face_lattice[3]
    order = _scan_order(v, triangles)
    step_of = [0] * v
    for k, u in enumerate(order):
        step_of[u] = k
    oriented = coherent_orientation(K, K.facets[0], 1)
    bucket: list[list[tuple[int, int, int]]] = [[] for _ in range(v)]
    last = list(range(v))  # the last step of a triangle through step u
    for facet, tri in zip(K.facets, triangles):
        where = [step_of[u] for u in tri]
        i, j, k = sorted(where)
        # the facet's sign is for its vertices in label order; the scan
        # reads their values in step order
        bucket[k].append((i, j, oriented.signs[facet] * sort_sign(where)))
        last[i] = max(last[i], k)
        last[j] = max(last[j], k)

    # A state is one int: bits 2u, 2u + 1 hold the value assigned at
    # step u while that vertex is on the frontier (zero off it), then
    # three bits count the values used, then four fields of ``width``
    # bits hold the totals, each offset by the facet count so that it
    # stays non-negative.  Its entry holds the count of its prefixes
    # above bit 2v and the least of them, base 4 in step order, below.
    offset = len(K.facets)
    width = (2 * offset).bit_length()
    used_at = 2 * v
    total_at = [used_at + 3 + o * width for o in range(4)]
    # A triangle whose vertices take the distinct values (x, y, z) is a
    # preimage of the target facet omitting o = 6 - x - y - z, with sign
    # sort_sign((x, y, z)); totals[o] is kept times that facet's own
    # sign, so every total reads the degree.
    facet_sign = _target_facet_signs()
    step = {}
    for x, y, z in permutations(range(4), 3):
        o = 6 - x - y - z
        step[x, y, z] = (sort_sign((x, y, z)) * facet_sign[o]) << total_at[o]

    prefix_mask = (1 << 2 * v) - 1
    states = {sum(offset << at for at in total_at): 1 << 2 * v}
    peak = 1
    for k in range(v):
        keep = -1 << used_at
        for u in range(k):
            if last[u] > k:
                keep |= 3 << 2 * u
        read = 7 << used_at
        for i, j, _ in bucket[k]:
            read |= 3 << 2 * i | 3 << 2 * j
        # the fewest values used after step k that leave vertices
        # enough to use all four
        need = k + 5 - v
        # states that agree on what bucket k reads take the same moves
        moves: dict[int, list[tuple[int, int]]] = {}
        nxt: dict[int, int] = {}
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
        peak = max(peak, len(states))

    field_mask = (1 << width) - 1
    degrees: Counter = Counter()
    best = -1
    for key, entry in states.items():
        totals = [(key >> at & field_mask) - offset for at in total_at]
        deg = totals[0]
        if not totals[1] == totals[2] == totals[3] == deg:
            raise InconsistentAlg(
                f"signed counts {totals} disagree across target facets"
            )
        count = entry >> 2 * v
        degrees[deg] += 12 * count
        degrees[-deg] += 12 * count
        # the states come in increasing order of their least prefix
        if abs(deg) > best:
            best, least = abs(deg), entry & prefix_mask
    return DegreeSurvey(
        max_abs=best,
        degrees=degrees,
        witness=VertexMap(
            {
                K.vertices[u]: v_label((least >> 2 * (v - 1 - k) & 3) + 1)
                for k, u in enumerate(order)
            }
        ),
        peak_states=peak,
    )


def max_abs_degree(K: Complex) -> tuple[int, VertexMap]:
    """Largest |degree| over all simplicial maps onto the standard
    2-sphere, with the survey's witness: the least map of that |degree|
    in scan order, found in the same pass as the degrees."""
    survey = degree_survey(K)
    return survey.max_abs, survey.witness


# ---------------------------------------------------------------------------
# The verification bundle


@dataclass(frozen=True, eq=False)
class MinimalityReport:
    census_sizes: dict[int, int]
    orders_agree: bool
    max_degree_by_vertices: dict[int, int]
    degree2_bound_ok: bool
    degree3_bound_ok: bool
    degree2_attained_at_7: bool
    degree3_attained_at_8: bool
    counterexamples: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (
            self.orders_agree
            and self.degree2_bound_ok
            and self.degree3_bound_ok
            and self.degree2_attained_at_7
            and self.degree3_attained_at_8
            and not self.counterexamples
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


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
            check = sphere_check(entry.complex, 2, "certify_low_dim")
            if not check.passed:
                counterexamples.append(
                    f"census entry on {v} vertices fails the sphere battery (bug)"
                )
                continue
            best = max(best, degree_survey(entry.complex).max_abs)
        max_by_v[v] = best

    degree2 = degree_by_counting(build_join_cone_sphere(2, 2)).degree == 2
    degree3 = degree_by_counting(build_stacked_sphere(2)).degree == 3

    return MinimalityReport(
        census_sizes={v: len(entries) for v, entries in census.items()},
        orders_agree=orders_agree,
        max_degree_by_vertices=max_by_v,
        degree2_bound_ok=all(max_by_v[v] <= 1 for v in range(4, 7)),
        degree3_bound_ok=all(max_by_v[v] <= 2 for v in range(4, 8)),
        degree2_attained_at_7=degree2,
        degree3_attained_at_8=degree3,
        counterexamples=tuple(counterexamples),
    )
