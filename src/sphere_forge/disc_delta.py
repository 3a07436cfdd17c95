"""The triangulated disc family built by iterated polygon reduction.

Starting from a labelled 3d-gon, each pass walks the cycle two steps at
a time, fencing off a strip of triangles and leaving a polygon of a
third fewer vertices inside; iterating reaches a single triangle.  The
passes alternate between two shapes depending on whether the current
third of the length is even or odd, and triangle signs alternate per
pass, which yields a coherent orientation with all boundary triangles
positive.

The recursion works on positions within the stored cyclic order, not on
re-derived vertex names: inner polygons do not repeat the outer naming
pattern, and the inner start position differs between the even pass
(position 0) and the odd pass (position 4).
"""

from __future__ import annotations

from typing import NamedTuple

from .complex_core import Complex, Frozen, Simplex, make_complex, simplex
from .errors import PreconditionFailed
from .labels import VertexLabel, u_pair
from .orientation import coherent_orientation, sort_sign

Triangle = tuple[VertexLabel, VertexLabel, VertexLabel]


class PolygonCycle(Frozen):
    """Cyclically ordered distinct vertices; position 0 is the start.
    Equal vertex tuples make equal cycles; attributes cannot be assigned."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[VertexLabel, ...]):
        if len(vertices) < 3:
            raise PreconditionFailed("polygon needs at least three vertices")
        if len(set(vertices)) != len(vertices):
            raise PreconditionFailed("polygon vertices must be distinct")
        object.__setattr__(self, "vertices", vertices)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.vertices == other.vertices
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices,))

    def __repr__(self) -> str:
        return f"PolygonCycle(vertices={self.vertices!r})"

    def __reduce__(self):
        return PolygonCycle, (self.vertices,)

    def __len__(self):
        return len(self.vertices)


class ReductionRecord(NamedTuple):
    """One reduction pass: the cycle it consumed and what it produced."""

    cycle: PolygonCycle
    strip: tuple[Triangle, ...]
    extras: tuple[Triangle, ...]
    inner: PolygonCycle | None

    @property
    def triangles(self) -> tuple[Triangle, ...]:
        return self.strip + self.extras


def reduction_step(cycle: PolygonCycle) -> ReductionRecord:
    """Triangulate one ring of the polygon.

    For length 3m the strip triangles are ``(c[2t], c[2t+1], c[2t+2])``.
    With m even the strip wraps all the way around and the inner polygon
    is the even positions starting at 0.  With m odd the strip stops one
    edge short and two extra triangles ``(c0, c2, c4)`` and
    ``(c0, c4, c[-1])`` complete the ring; the inner polygon is then the
    even positions from 4 onward.  Length 3 is terminal.
    """
    L = len(cycle)
    if L % 3:
        raise PreconditionFailed(f"polygon length {L} is not a multiple of 3")
    m = L // 3
    c = cycle.vertices
    if m == 1:
        return ReductionRecord(cycle, ((c[0], c[1], c[2]),), (), None)
    if m % 2 == 0:
        strip = tuple((c[2 * t], c[2 * t + 1], c[(2 * t + 2) % L]) for t in range(L // 2))
        inner = PolygonCycle(c[0:L:2])
        return ReductionRecord(cycle, strip, (), inner)
    strip = tuple((c[2 * t], c[2 * t + 1], c[2 * t + 2]) for t in range((L - 1) // 2))
    extras = ((c[0], c[2], c[4]), (c[0], c[4], c[L - 1]))
    inner = PolygonCycle(c[4:L:2])
    return ReductionRecord(cycle, strip, extras, inner)


class DeltaDisc(NamedTuple):
    """A reduced disc: its complex, per-triangle signs, and the trace."""

    complex: Complex
    signs: dict[Simplex, int]
    trace: tuple[ReductionRecord, ...]
    d: int

    def inner_subdisc(self) -> Complex:
        """The sub-disc bounded by the first inner polygon (passes >= 1)."""
        if len(self.trace) < 2:
            raise PreconditionFailed("disc has no inner polygon")
        triangles = []
        for record in self.trace[1:]:
            triangles.extend(record.triangles)
        return make_complex(triangles)


def build_delta(d: int) -> DeltaDisc:
    """Build the 3d-vertex disc with its alternating sign assignment.

    The outermost ring is positive; each inner ring flips sign, except
    that the odd-pass triangle ``(c0, c2, c4)`` takes the inner ring's
    sign one level early (it sits between the two polygons).
    """
    if d < 1:
        raise PreconditionFailed("build_delta needs d >= 1")
    outer = PolygonCycle(
        tuple(u_pair(j, i) for i in range(1, d + 1) for j in (1, 2, 3))
    )
    trace: list[ReductionRecord] = []
    signs: dict[Simplex, int] = {}
    cycle: PolygonCycle | None = outer
    level_sign = 1
    while cycle is not None:
        record = reduction_step(cycle)
        trace.append(record)
        for tri in record.strip:
            signs[simplex(tri)] = level_sign
        if record.extras:
            between, closing = record.extras
            signs[simplex(between)] = -level_sign
            signs[simplex(closing)] = level_sign
        cycle = record.inner
        level_sign = -level_sign
    disc = make_complex([simplex(t) for rec in trace for t in rec.triangles])
    return DeltaDisc(complex=disc, signs=signs, trace=tuple(trace), d=d)


class DiscSignCensus(NamedTuple):
    positives: int
    negatives: int
    boundary_in_positive: bool
    sign_agrees_with_orientation: bool


def disc_sign_census(disc: DeltaDisc) -> DiscSignCensus:
    """Sign census of a disc plus the two structural sign checks.

    ``boundary_in_positive``: every boundary edge's unique triangle is
    positive.  ``sign_agrees_with_orientation``: the level-alternating
    signs coincide with propagated coherent orientation signs read in
    each triangle's class order (one vertex per class, so class order is
    the sorted order).
    """
    positives = sum(1 for s in disc.signs.values() if s > 0)
    negatives = sum(1 for s in disc.signs.values() if s < 0)

    boundary_ok = all(
        disc.signs[facet] == 1
        for facet, slots in zip(disc.complex.facets, disc.complex.shape.facet_ridges)
        if any(len(slot) == 1 for slot in slots)
    )

    base = simplex(disc.trace[0].strip[0])
    oriented = coherent_orientation(disc.complex, base, 1)
    agrees = True
    for facet in disc.complex.facets:
        class_order = sorted(facet, key=lambda lab: (lab.class_index, lab))
        expected = oriented.signs[facet] * sort_sign(class_order)
        if disc.signs[facet] != expected:
            agrees = False
            break
    return DiscSignCensus(positives, negatives, boundary_ok, agrees)
