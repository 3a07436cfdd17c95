"""Exhaustive verification of the small-sphere degree bounds in dimension 2.

Triangulated 2-spheres on up to seven vertices are enumerated by a
deficit-driven backtracking search (grow triangles over the smallest
open edge), deduplicated by canonical relabelling, and then every vertex
assignment into the 4-vertex sphere is tried.  At these sizes the whole
state space fits comfortably on a desk: at most 4^7 assignments per
complex.

The facts verified: no 2-sphere with at most six vertices admits a map
of absolute degree 2, and none with at most seven vertices admits
absolute degree 3 -- while seven and eight vertices do attain degrees 2
and 3 through the packaged constructions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product

from .complex_core import Complex, make_complex, simplex, standard_sphere
from .errors import OutOfRange
from .homology import sphere_check
from .labels import VertexLabel, parse_label, v_label
from .orientation import coherent_orientation
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
    order), so the harvest is complete up to isomorphism.  Growth over
    the smallest open edge keeps the facet graph connected by
    construction.
    """
    target_triangles = 2 * v - 4
    found: set[frozenset[IntTriangle]] = set()
    triangles: list[IntTriangle] = [(0, 1, 2)]
    triangle_set = {(0, 1, 2)}
    edge_count: Counter = Counter({(0, 1): 1, (0, 2): 1, (1, 2): 1})
    used = [True, True, True] + [False] * (v - 3)

    def link_is_single_cycle() -> bool:
        rim: dict[int, dict[int, list[int]]] = {}
        for a, b, c in triangles:
            for x, rest in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
                rim.setdefault(x, {}).setdefault(rest[0], []).append(rest[1])
                rim.setdefault(x, {}).setdefault(rest[1], []).append(rest[0])
        for x, graph in rim.items():
            if any(len(nb) != 2 for nb in graph.values()):
                return False
            start = next(iter(graph))
            prev, cur = None, start
            seen = 0
            while True:
                seen += 1
                a, b = graph[cur]
                nxt = b if a == prev else a
                prev, cur = cur, nxt
                if cur == start:
                    break
            if seen != len(graph):
                return False
        return True

    def recurse():
        open_edge = None
        for e, cnt in sorted(edge_count.items()):
            if cnt == 1:
                open_edge = e
                break
        if open_edge is None:
            # closed; keep it when all v vertices occur, chi == 2, and
            # every vertex link is one cycle
            if all(used) and len(edge_count) - len(triangles) == v - 2:
                if link_is_single_cycle():
                    found.add(frozenset(triangles))
            return
        if len(triangles) >= target_triangles:
            return
        a, b = open_edge
        highest = max(i for i, flag in enumerate(used) if flag)
        candidates = [w for w in range(min(highest + 2, v)) if w != a and w != b]
        if descending:
            candidates.reverse()
        for w in candidates:
            tri = tuple(sorted((a, b, w)))
            if tri in triangle_set:
                continue
            e1 = tuple(sorted((a, w)))
            e2 = tuple(sorted((b, w)))
            if edge_count[e1] >= 2 or edge_count[e2] >= 2:
                continue
            triangles.append(tri)
            triangle_set.add(tri)
            edge_count[open_edge] += 1
            edge_count[e1] += 1
            edge_count[e2] += 1
            fresh = not used[w]
            used[w] = True
            recurse()
            if fresh:
                used[w] = False
            triangles.pop()
            triangle_set.discard(tri)
            edge_count[open_edge] -= 1
            for e in (e1, e2):
                edge_count[e] -= 1
                if not edge_count[e]:
                    del edge_count[e]
        return

    recurse()
    return found


def _canonical_form(triangles: frozenset[IntTriangle], v: int):
    """Isomorphism-invariant encoding: vertices of equal degree share a
    fixed block of new names (blocks ordered by degree), and the least
    relabelled facet list over all block bijections is taken."""
    degree: Counter = Counter()
    for tri in triangles:
        degree.update(tri)
    by_degree: dict[int, list[int]] = {}
    for vertex in range(v):
        by_degree.setdefault(degree[vertex], []).append(vertex)
    classes = [by_degree[d] for d in sorted(by_degree)]
    blocks = []
    offset = 0
    for cls in classes:
        blocks.append(range(offset, offset + len(cls)))
        offset += len(cls)
    best = None
    for perms in product(*(permutations(b) for b in blocks)):
        relabel = [0] * v
        for cls, names in zip(classes, perms):
            for src, dst in zip(cls, names):
                relabel[src] = dst
        encoded = tuple(
            sorted(tuple(sorted((relabel[a], relabel[b], relabel[c]))) for a, b, c in triangles)
        )
        if best is None or encoded < best:
            best = encoded
    return tuple(sorted(degree.values())), best


@dataclass(frozen=True, eq=False)
class CensusEntry:
    """One isomorphism class of triangulated 2-spheres."""

    complex: Complex
    vertex_count: int
    canonical_key: tuple


def census_label(i: int) -> VertexLabel:
    return parse_label(f"w{i + 1}")


def enumerate_2spheres(v: int, descending: bool = False) -> tuple[CensusEntry, ...]:
    """One census entry per isomorphism class of v-vertex 2-spheres.

    Only 4 <= v <= 7 is supported; larger censuses blow the search
    budget this module promises.  ``descending`` flips the branching
    order, giving an independent run that must reproduce the same keys.
    """
    if not 4 <= v <= 7:
        raise OutOfRange(f"census supports 4 <= v <= 7, got {v}")
    classes: dict[tuple, frozenset[IntTriangle]] = {}
    for labelled in _search_triangulations(v, descending):
        key = _canonical_form(labelled, v)
        if key not in classes:
            classes[key] = frozenset(key[1])
    entries = []
    for key in sorted(classes):
        triangles = sorted(classes[key])
        facets = [[census_label(i) for i in tri] for tri in triangles]
        entries.append(
            CensusEntry(
                complex=make_complex(facets),
                vertex_count=v,
                canonical_key=key,
            )
        )
    return tuple(entries)


# ---------------------------------------------------------------------------
# Exhaustive map sweep


def _target_facet_signs() -> dict[frozenset[int], int]:
    base = simplex([v_label(1), v_label(2), v_label(3)])
    oriented = coherent_orientation(standard_sphere(2), base, 1)
    return {
        frozenset(v.item_index - 1 for v in facet.vertices): sign
        for facet, sign in oriented.signs.items()
    }


@dataclass(frozen=True, eq=False)
class DegreeSurvey:
    max_abs: int
    witness: VertexMap | None
    degrees: Counter


def degree_survey(K: Complex) -> DegreeSurvey:
    """Try all simplicial vertex maps from a 2-sphere K onto the
    standard 2-sphere; record the degree distribution.

    Non-surjective assignments are skipped (their degree is zero).  The
    scan is exhaustive and runs on the calling thread; the witness is the
    first assignment of largest |degree| in lexicographic order.
    """
    vertices = K.vertices
    v = len(vertices)
    index = {lab: i for i, lab in enumerate(vertices)}
    triangles = [
        tuple(sorted(index[lab] for lab in facet.vertices)) for facet in K.facets
    ]
    oriented = coherent_orientation(K, K.facets[0], 1)
    tri_signs = [oriented.signs[facet] for facet in K.facets]
    target_signs = _target_facet_signs()
    facet_sign = [target_signs[frozenset({0, 1, 2, 3} - {o})] for o in range(4)]

    best = 0
    witness = None
    degrees: Counter = Counter()
    for assignment in product(range(4), repeat=v):
        if len(set(assignment)) != 4:
            continue  # not surjective: degree 0 without counting
        totals = [0, 0, 0, 0]
        for (i, j, k), s in zip(triangles, tri_signs):
            x, y, z = assignment[i], assignment[j], assignment[k]
            if x == y or y == z or x == z:
                continue
            parity = 1
            if x > y:
                x, y = y, x
                parity = -parity
            if y > z:
                y, z = z, y
                parity = -parity
            if x > y:
                x, y = y, x
                parity = -parity
            totals[6 - x - y - z] += s * parity
        values = {facet_sign[o] * totals[o] for o in range(4)}
        assert len(values) == 1, "inconsistent signed counts: orientation bug"
        deg = values.pop()
        degrees[deg] += 1
        if abs(deg) > best:
            best = abs(deg)
            witness = assignment
    mapping = None
    if witness is not None:
        mapping = VertexMap(
            {vertices[i]: v_label(img + 1) for i, img in enumerate(witness)}
        )
    return DegreeSurvey(max_abs=best, witness=mapping, degrees=degrees)


def max_abs_degree(K: Complex) -> tuple[int, VertexMap | None]:
    """Largest |degree| over all simplicial maps onto the standard
    2-sphere, with one witness map."""
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
        return {
            "census_sizes": dict(self.census_sizes),
            "orders_agree": self.orders_agree,
            "max_degree_by_vertices": dict(self.max_degree_by_vertices),
            "degree2_bound_ok": self.degree2_bound_ok,
            "degree3_bound_ok": self.degree3_bound_ok,
            "degree2_attained_at_7": self.degree2_attained_at_7,
            "degree3_attained_at_8": self.degree3_attained_at_8,
            "counterexamples": list(self.counterexamples),
            "passed": self.passed,
        }


def verify_small_sphere_bounds(max_v: int = 7) -> MinimalityReport:
    """Exhaustive sweep: census sizes, the two degree bounds, and the
    attainment witnesses from the constructions.

    A counterexample here would mean an implementation bug, not a
    refutation; it is reported as such instead of raised.
    """
    from .constructions import build_join_cone_sphere, build_stacked_sphere

    if not 4 <= max_v <= 7:
        raise OutOfRange(f"minimality sweep supports 4 <= max_v <= 7, got {max_v}")
    census: dict[int, tuple[CensusEntry, ...]] = {}
    orders_agree = True
    for v in range(4, max_v + 1):
        ascending = enumerate_2spheres(v)
        descending = enumerate_2spheres(v, descending=True)
        if {e.canonical_key for e in ascending} != {
            e.canonical_key for e in descending
        }:
            orders_agree = False
        census[v] = ascending

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
            survey = degree_survey(entry.complex)
            if any(survey.degrees[d] != survey.degrees[-d] for d in survey.degrees):
                counterexamples.append(
                    f"degree distribution not symmetric on {v} vertices (bug)"
                )
            best = max(best, survey.max_abs)
        max_by_v[v] = best

    bound2 = all(max_by_v.get(v, 0) <= 1 for v in range(4, min(max_v, 6) + 1))
    bound3 = all(max_by_v.get(v, 0) <= 2 for v in range(4, max_v + 1))
    for v in range(4, min(max_v, 6) + 1):
        if max_by_v[v] >= 2:
            counterexamples.append(f"|degree| = 2 reached with {v} <= 6 vertices (bug)")
    if max_v >= 7 and max_by_v.get(7, 0) >= 3:
        counterexamples.append("|degree| = 3 reached with 7 vertices (bug)")

    degree2 = degree_by_counting(build_join_cone_sphere(2, 2)).degree == 2
    degree3 = degree_by_counting(build_stacked_sphere(2)).degree == 3

    return MinimalityReport(
        census_sizes={v: len(entries) for v, entries in census.items()},
        orders_agree=orders_agree,
        max_degree_by_vertices=max_by_v,
        degree2_bound_ok=bound2,
        degree3_bound_ok=bound3,
        degree2_attained_at_7=degree2,
        degree3_attained_at_8=degree3,
        counterexamples=tuple(counterexamples),
    )
