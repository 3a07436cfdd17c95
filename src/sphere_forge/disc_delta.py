"""The triangulated disc family built by iterated polygon reduction.

Starting from a labelled 3d-gon, each pass walks the cycle two steps at
a time, fencing off a ring of triangles and leaving a polygon of a
third fewer vertices inside; iterating reaches a single triangle.  The
passes alternate between two shapes depending on whether the current
third of the length is even or odd, and triangle signs alternate per
pass, which yields a coherent orientation with all boundary triangles
positive.

A polygon is a plain tuple of labels in cyclic order.  The recursion
works on positions within it, not on re-derived vertex names: inner
polygons do not repeat the outer naming pattern, and the inner start
position differs between the even pass (position 0) and the odd pass
(position 4).  A 3m-gon's inner polygon has 3m/2 vertices (m even) or
3(m - 1)/2 (m odd), so every polygon has a multiple of 3 vertices, at
least 3, and each later polygon is a subset of the first inner one.
"""

from __future__ import annotations

from typing import NamedTuple

from .complex_core import Complex, Simplex, make_complex, simplex
from .errors import PreconditionFailed
from .labels import VertexLabel, u_pair
from .orientation import coherent_orientation

Polygon = tuple[VertexLabel, ...]


def _ring(c: Polygon) -> tuple[list[tuple[Polygon, int]], Polygon]:
    """Triangulate the ring inside the polygon ``c`` of length 3m.

    Returns the ring's triangles, each with its sign relative to the
    ring, and the inner polygon (empty when ``c`` is a triangle).  The
    strip triangles are ``(c[2t], c[2t+1], c[2t+2])``.  With m even the
    strip wraps all the way around and the inner polygon is the even
    positions starting at 0.  With m odd the strip stops one edge short
    and two extra triangles ``(c0, c2, c4)`` and ``(c0, c4, c[-1])``
    complete the ring; the inner polygon is then the even positions from
    4 onward.  ``(c0, c2, c4)`` sits between the two polygons and takes
    the inner ring's sign one level early.
    """
    L = len(c)
    m = L // 3
    if m == 1:
        return [(c, 1)], ()
    if m % 2 == 0:
        strip = [((c[2 * t], c[2 * t + 1], c[(2 * t + 2) % L]), 1) for t in range(L // 2)]
        return strip, c[0:L:2]
    strip = [((c[2 * t], c[2 * t + 1], c[2 * t + 2]), 1) for t in range((L - 1) // 2)]
    return strip + [((c[0], c[2], c[4]), -1), ((c[0], c[4], c[L - 1]), 1)], c[4:L:2]


class DeltaDisc(NamedTuple):
    """A reduced disc: its complex, per-triangle signs, and its polygons,
    the outer 3d-gon first and the final triangle last."""

    complex: Complex
    signs: dict[Simplex, int]
    polygons: tuple[Polygon, ...]
    d: int

    def inner_subdisc(self) -> Complex:
        """The sub-disc bounded by the first inner polygon: the triangles
        whose vertices all lie on it."""
        if len(self.polygons) < 2:
            raise PreconditionFailed("disc has no inner polygon")
        inner = set(self.polygons[1])
        return make_complex([f for f in self.complex.facets if inner.issuperset(f)])


def build_delta(d: int) -> DeltaDisc:
    """Build the 3d-vertex disc with its alternating sign assignment.

    The outermost ring is positive and each inner ring flips sign.
    """
    if d < 1:
        raise PreconditionFailed("build_delta needs d >= 1")
    polygon = tuple(u_pair(j, i) for i in range(1, d + 1) for j in (1, 2, 3))
    polygons: list[Polygon] = []
    signs: dict[Simplex, int] = {}
    level_sign = 1
    while polygon:
        polygons.append(polygon)
        ring, polygon = _ring(polygon)
        for tri, sign in ring:
            signs[simplex(tri)] = sign * level_sign
        level_sign = -level_sign
    return DeltaDisc(make_complex(signs), signs, tuple(polygons), d)


class DiscSignCensus(NamedTuple):
    positives: int
    negatives: int
    boundary_in_positive: bool
    sign_agrees_with_orientation: bool


def disc_sign_census(disc: DeltaDisc) -> DiscSignCensus:
    """Sign census of a disc plus the two structural sign checks.

    ``boundary_in_positive``: every boundary edge's unique triangle is
    positive.  ``sign_agrees_with_orientation``: the level-alternating
    signs coincide with the coherent orientation propagated from the
    outer polygon's first triangle.  Each triangle has one vertex per
    class and labels sort by class first, so a facet's sorted order is
    its class order and the two signs compare directly.
    """
    positives = sum(1 for s in disc.signs.values() if s > 0)
    negatives = sum(1 for s in disc.signs.values() if s < 0)

    boundary_ok = all(
        disc.signs[facet] == 1
        for facet, slots in zip(disc.complex.facets, disc.complex.shape.facet_ridges)
        if any(len(slot) == 1 for slot in slots)
    )

    oriented = coherent_orientation(disc.complex, simplex(disc.polygons[0][:3]), 1)
    agrees = all(disc.signs[f] == oriented.signs[f] for f in disc.complex.facets)
    return DiscSignCensus(positives, negatives, boundary_ok, agrees)
