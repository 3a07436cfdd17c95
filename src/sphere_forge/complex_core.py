"""Pure simplicial complexes stored as facet sets.

A complex is represented by its inclusion-maximal simplices only; faces
are enumerated on demand.  Everything here is immutable and safe to
share across threads.  Canonical ordering of vertices inside a simplex,
and of facets inside a complex, follows the label order from
:mod:`sphere_forge.labels`, which makes every derived object (boundary
matrices, reports, serialized files) deterministic.

The complex whose only facet is the empty simplex acts as the join
identity and doubles as "the empty complex" returned by boundary
operations on closed complexes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    DuplicateVertexInFacet,
    FaceNotInComplex,
    NotPure,
    PreconditionFailed,
    VertexCollision,
)
from .labels import VertexLabel, v_label


@dataclass(frozen=True)
class Simplex:
    """A simplex as a strictly increasing tuple of vertex labels.

    The constructor trusts its input; use :func:`simplex` to sort and
    validate arbitrary label collections.  The empty tuple is the
    (-1)-dimensional empty simplex.
    """

    vertices: tuple[VertexLabel, ...]

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    @cached_property
    def vertex_set(self) -> frozenset[VertexLabel]:
        return frozenset(self.vertices)

    def __lt__(self, other: "Simplex") -> bool:
        return self.vertices < other.vertices

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.vertices)

    def __repr__(self) -> str:
        return f"Simplex<{self}>"


EMPTY_SIMPLEX = Simplex(())


def simplex(labels: Iterable[VertexLabel]) -> Simplex:
    """Sort labels into a Simplex, rejecting repeats."""
    vs = tuple(sorted(labels))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise DuplicateVertexInFacet(f"repeated vertex {a} in facet")
    return Simplex(vs)


@dataclass(frozen=True)
class Complex:
    """Facets in canonical order.  Build through :func:`make_complex`."""

    facets: tuple[Simplex, ...]

    @cached_property
    def vertices(self) -> tuple[VertexLabel, ...]:
        seen = set()
        for f in self.facets:
            seen.update(f.vertices)
        return tuple(sorted(seen))

    @cached_property
    def vertex_set(self) -> frozenset[VertexLabel]:
        return frozenset(self.vertices)

    @property
    def dimension(self) -> int:
        return max(f.dimension for f in self.facets)

    @cached_property
    def is_pure(self) -> bool:
        return len({f.dimension for f in self.facets}) == 1

    @property
    def is_empty(self) -> bool:
        """True when the only face is the empty simplex (no vertices)."""
        return self.facets == (EMPTY_SIMPLEX,)

    @cached_property
    def _faces_by_dim(self) -> dict[int, frozenset[Simplex]]:
        per: dict[int, set[Simplex]] = {-1: {EMPTY_SIMPLEX}}
        for f in self.facets:
            vs = f.vertices
            for k in range(0, f.dimension + 1):
                bucket = per.setdefault(k, set())
                bucket.update(Simplex(c) for c in combinations(vs, k + 1))
        return {k: frozenset(s) for k, s in per.items()}

    @cached_property
    def ridge_facets(self) -> dict[tuple[VertexLabel, ...], tuple[int, ...]]:
        """Each ridge (a facet minus one vertex, as a vertex tuple) mapped
        to the ascending indices of the facets containing it.  The ridge
        of a point is ``()``."""
        by_ridge: dict[tuple[VertexLabel, ...], list[int]] = {}
        for idx, f in enumerate(self.facets):
            vs = f.vertices
            for r in combinations(vs, len(vs) - 1):
                by_ridge.setdefault(r, []).append(idx)
        return {r: tuple(members) for r, members in by_ridge.items()}

    def __iter__(self):
        return iter(self.facets)

    def __repr__(self) -> str:
        return f"Complex(dim={self.dimension}, facets={len(self.facets)})"


def make_complex(facet_list: Iterable[Sequence[VertexLabel] | Simplex]) -> Complex:
    """Normalize a facet description into a canonical Complex.

    Input facets are sorted, deduplicated, and non-maximal ones are
    absorbed (construction code routinely unions cones whose faces
    overlap).  An input with no nonempty facet yields the empty complex.
    """
    sims = set()
    for f in facet_list:
        labels = f.vertices if isinstance(f, Simplex) else tuple(f)
        sims.add(simplex(labels))
    ordered = sorted(sims, key=lambda s: (-len(s.vertices), s.vertices))
    kept: list[Simplex] = []
    kept_sets: list[frozenset] = []
    for s in ordered:
        vs = s.vertex_set
        if any(vs <= t for t in kept_sets):
            continue
        kept.append(s)
        kept_sets.append(vs)
    if not kept:
        kept = [EMPTY_SIMPLEX]
    return Complex(tuple(sorted(kept)))


def empty_complex() -> Complex:
    return Complex((EMPTY_SIMPLEX,))


def union(*complexes: Complex) -> Complex:
    """Union of complexes as the complex generated by all their facets."""
    facets: list[Simplex] = []
    for K in complexes:
        facets.extend(K.facets)
    return make_complex(facets)


def faces(K: Complex, k: int) -> frozenset[Simplex]:
    """All k-faces of K; empty set when k is out of range."""
    if k < -1 or k > K.dimension:
        return frozenset()
    return K._faces_by_dim.get(k, frozenset())


@dataclass(frozen=True)
class FVector:
    """Face counts ``(f_-1, f_0, ..., f_d)``; ``f_-1`` is always 1."""

    counts: tuple[int, ...]

    @property
    def euler(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.counts[1:]))

    def __getitem__(self, k: int) -> int:
        """Face count by dimension, so ``fv[-1] == 1``."""
        return self.counts[k + 1]


def f_vector_and_euler(K: Complex) -> tuple[FVector, int]:
    fv = FVector(tuple(len(faces(K, k)) for k in range(-1, K.dimension + 1)))
    return fv, fv.euler


def join(A: Complex, B: Complex) -> Complex:
    """Join of two complexes on disjoint vertex sets.

    Joining with the empty complex returns the other argument unchanged.
    """
    shared = A.vertex_set & B.vertex_set
    if shared:
        raise VertexCollision(f"join operands share vertices {sorted(shared)}")
    out = [
        Simplex(tuple(sorted(a.vertices + b.vertices)))
        for a in A.facets
        for b in B.facets
    ]
    return Complex(tuple(sorted(out)))


def cone(apex: VertexLabel, K: Complex) -> Complex:
    """Cone over K with a new apex vertex."""
    if apex in K.vertex_set:
        raise VertexCollision(f"cone apex {apex} already occurs in the complex")
    return join(Complex((Simplex((apex,)),)), K)


def boundary_complex(K: Complex) -> Complex:
    """Subcomplex generated by ridges lying in exactly one facet.

    Returns the empty complex when K is closed.
    """
    if not K.is_pure:
        raise NotPure("boundary is defined for pure complexes only")
    if K.is_empty:
        return K
    ridges = [Simplex(r) for r, members in K.ridge_facets.items() if len(members) == 1]
    if not ridges:
        return empty_complex()
    return Complex(tuple(sorted(ridges)))


def link(face: Simplex, K: Complex) -> Complex:
    """Faces disjoint from ``face`` whose join with it lies in K.

    The star is derivable as ``face * link(face, K)`` and is not a
    separate operation.
    """
    fs = face.vertex_set
    residues = [
        tuple(x for x in f.vertices if x not in fs)
        for f in K.facets
        if fs <= f.vertex_set
    ]
    if not residues:
        raise FaceNotInComplex(f"[{face}] is not a face of the complex")
    return Complex(tuple(sorted(Simplex(r) for r in residues)))


def standard_sphere(n: int) -> Complex:
    """Boundary of the (n+1)-simplex: the (n+2)-vertex triangulated n-sphere."""
    if n < 0:
        raise PreconditionFailed("standard_sphere needs n >= 0")
    verts = tuple(v_label(i) for i in range(1, n + 3))
    return Complex(tuple(sorted(Simplex(c) for c in combinations(verts, n + 1))))


@dataclass(frozen=True)
class PseudomanifoldReport:
    """Outcome of the closed-pseudomanifold battery."""

    pure: bool
    max_ridge_multiplicity: int
    ridge_bound_ok: bool
    closed: bool
    connected: bool
    boundary_ridges: int

    @property
    def is_closed_pseudomanifold(self) -> bool:
        return self.pure and self.ridge_bound_ok and self.closed and self.connected

    def as_dict(self) -> dict:
        return {
            "pure": self.pure,
            "max_ridge_multiplicity": self.max_ridge_multiplicity,
            "ridge_bound_ok": self.ridge_bound_ok,
            "closed": self.closed,
            "connected": self.connected,
            "boundary_ridges": self.boundary_ridges,
            "is_closed_pseudomanifold": self.is_closed_pseudomanifold,
        }


def pseudomanifold_check(K: Complex) -> PseudomanifoldReport:
    """Check purity, the two-facets-per-ridge condition, and dual-graph
    connectivity.  Failures are reported, never raised."""
    if K.is_empty:
        return PseudomanifoldReport(True, 0, True, True, True, 0)
    pure = K.is_pure
    by_ridge = K.ridge_facets
    max_mult = max(map(len, by_ridge.values())) if by_ridge else 0
    boundary = sum(1 for members in by_ridge.values() if len(members) == 1)
    closed = pure and boundary == 0 and max_mult == 2 if by_ridge else pure
    # facet adjacency through shared ridges
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(K.facets))}
    for members in by_ridge.values():
        for a in members:
            for b in members:
                if a != b:
                    adjacency[a].add(b)
    seen = {0}
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for nxt in adjacency[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    connected = len(seen) == len(K.facets)
    return PseudomanifoldReport(
        pure=pure,
        max_ridge_multiplicity=max_mult,
        ridge_bound_ok=max_mult <= 2,
        closed=closed,
        connected=connected,
        boundary_ridges=boundary,
    )
