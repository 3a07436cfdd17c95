"""Pure simplicial complexes stored as facet sets.

A complex is represented by its inclusion-maximal simplices only.  What
later steps need of it is derived once, on first read, and kept on the
complex (:class:`stored`): its hash and one vertex numbering
(:attr:`Complex.numbered_facets`).  Vertices are numbered in label order
and each facet is the ascending tuple of its vertex numbers, so integer
order is label order and everything built on it hashes and compares
small ints instead of labels.

Everything else depends on that integer facet pattern alone, so it
lives on a :class:`Shape`, which all live complexes with one pattern
share (:attr:`Complex.shape`), each part derived on first read:

* the integer face lattice (:attr:`Shape.face_lattice`), built from the
  top down, which :func:`faces` reads the k-faces off;
* the ridge index (:attr:`Shape.facet_ridges`), by facet and vertex
  position, and one walk across it from facet 0
  (:attr:`Shape.dual_walk`), which decides connectivity and carries the
  one coherent orientation that every base facet reads;
* the star index (:attr:`Shape.stars`), vertex to the facets holding
  it, which :func:`link` filters instead of scanning every facet; the
  link keeps the star's order and takes no sort;
* the :func:`pseudomanifold_check` report, and the boundary matrices
  that :mod:`sphere_forge.homology` builds, each keeping its Smith
  forms.

Shapes are kept in a weak table keyed by the pattern: a shape lives as
long as some complex holds it, and an equal or order-preserving
relabelled complex made meanwhile finds it there instead of deriving it
again.  Once the last complex holding it goes, so does the shape.

Everything a complex or a shape hands out is immutable or a fresh copy,
except the shape's table of boundary matrices, which homology fills.
A simplex is its vertex tuple in label order (:class:`Simplex`
subclasses ``tuple``), so it equals, hashes and sorts as that tuple and
a plain tuple of the same labels finds it in any dict or set.
Canonical ordering of vertices inside a simplex, and of facets inside a
complex, follows the label order from :mod:`sphere_forge.labels`, which
makes every derived object (boundary matrices, reports, serialized
files) deterministic.

The complex whose only facet is the empty simplex acts as the join
identity and doubles as "the empty complex" returned by boundary
operations on closed complexes.
"""

from __future__ import annotations

from itertools import chain, combinations, filterfalse, islice, repeat
from typing import Iterable, NamedTuple, Sequence
from weakref import WeakValueDictionary

from .errors import PreconditionFailed
from .labels import VertexLabel, v_label


class Simplex(tuple):
    """A simplex is its strictly increasing tuple of vertex labels, so it
    compares, hashes and sorts as that tuple and equals it.

    The constructor trusts its input; use :func:`simplex` to sort and
    validate arbitrary label collections.  The empty tuple is the
    (-1)-dimensional empty simplex.
    """

    __slots__ = ()

    @property
    def vertices(self) -> tuple[VertexLabel, ...]:
        return self

    @property
    def dimension(self) -> int:
        return len(self) - 1

    @property
    def vertex_set(self) -> frozenset[VertexLabel]:
        return frozenset(self)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self)

    def __repr__(self) -> str:
        return f"Simplex<{self}>"


EMPTY_SIMPLEX = Simplex(())


def simplex(labels: Iterable[VertexLabel]) -> Simplex:
    """Sort labels into a Simplex, rejecting repeats."""
    vs = Simplex(sorted(labels))
    if len(set(vs)) < len(vs):  # name the first repeat
        for a, b in zip(vs, vs[1:]):
            if a == b:
                raise PreconditionFailed(f"repeated vertex {a} in facet")
    return vs


class stored:
    """An attribute computed on its first read and kept in the instance
    dict, where later reads find it before this (non-data) descriptor.
    Unlike :func:`functools.cached_property`, which before Python 3.12
    takes a class-wide lock on every first read, it takes no lock; it
    writes the dict directly, so classes that refuse attribute
    assignment (:class:`Frozen`) can use it."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class Frozen:
    """Base of the plain classes that refuse attribute assignment and
    deletion; each sets its own fields once, in ``__init__``, through
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Shape(Frozen):
    """What a complex derives from its integer facet pattern alone
    (:attr:`Complex.numbered_facets`), each part derived on first read.
    Complexes with equal patterns share one shape: :attr:`Complex.shape`
    looks it up in a weak table keyed by the pattern, so a shape lives
    while some complex holds it and leaves the table once none does."""

    __slots__ = ("facets", "__dict__", "__weakref__")  # the dict holds what is stored

    def __init__(self, facets: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "facets", facets)

    @stored
    def face_lattice(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Every face as an ascending tuple of vertex numbers (see
        :attr:`Complex.numbered_facets`): entry ``k + 1`` holds the
        k-faces, sorted, so they are listed in label order too.  Built
        from the top down: the k-faces are the facets with k + 1 vertices
        and the (k + 1)-vertex subsets of the (k+1)-faces, so one pass
        serves pure and mixed complexes alike."""
        seeds: list[list[tuple[int, ...]]] = [
            [] for _ in range(max(map(len, self.facets)) + 1)
        ]
        for f in self.facets:
            seeds[len(f)].append(f)
        levels: list[tuple[tuple[int, ...], ...]] = []
        above: tuple[tuple[int, ...], ...] = ()
        for size in reversed(range(len(seeds))):
            level = set(chain.from_iterable(map(combinations, above, repeat(size))))
            level.update(seeds[size])
            above = tuple(sorted(level))
            levels.append(above)
        return tuple(reversed(levels))

    @stored
    def facet_ridges(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """Entry ``[i][p]`` is the ridge facet i has without its vertex at
        position p: the ``(facet, position)`` pairs of every facet on that
        ridge, i included, in ascending facet order.  All slots of one
        ridge share one tuple; ridges are keyed by vertex numbers.  The
        ridge of a point is ``()``."""
        by_ridge: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for i, f in enumerate(self.facets):
            p = len(f) - 1
            # combinations omits the last vertex first
            for r in combinations(f, p):
                by_ridge.setdefault(r, []).append((i, p))
                p -= 1
        index = [[()] * len(f) for f in self.facets]
        for members in map(tuple, by_ridge.values()):
            for i, p in members:
                index[i][p] = members
        return tuple(map(tuple, index))

    @stored
    def dual_walk(self) -> tuple[int, tuple[int, ...], int | None]:
        """Breadth-first walk from facet 0 across shared ridges
        (:attr:`facet_ridges`): how many facets it reaches, a sign per
        facet (0 where it does not reach), and the first facet whose sign
        a crossing contradicts, or ``None``.  Facet 0 gets +1, and facets
        i and j on the ridge i has without its vertex at position p, as j
        without position q, are coherent when ``sign(i) * sign(j) ==
        -(-1)**(p + q)``: the transposition rule for induced orientations,
        read on sorted vertex lists."""
        index = self.facet_ridges
        signs = [0] * len(index)
        signs[0] = 1
        order = [0]
        contradiction = None
        for i in order:  # grows while it is walked
            flip = -signs[i]  # -sign(i) * (-1)**p, for p = 0, 1, ...
            for slot in index[i]:
                for j, q in slot:
                    if j != i:
                        expected = -flip if q & 1 else flip
                        if not signs[j]:
                            signs[j] = expected
                            order.append(j)
                        elif signs[j] != expected and contradiction is None:
                            contradiction = j
                flip = -flip
        return len(order), tuple(signs), contradiction

    @stored
    def stars(self) -> tuple[tuple[int, ...], ...]:
        """Entry ``[v]`` lists, ascending, the indices of the facets that
        hold vertex number v."""
        count = 1 + max(chain.from_iterable(self.facets), default=-1)
        stars: list[list[int]] = [[] for _ in range(count)]
        for i, f in enumerate(self.facets):
            for v in f:
                stars[v].append(i)
        return tuple(map(tuple, stars))

    @stored
    def pseudomanifold_report(self) -> PseudomanifoldReport:
        """What :func:`pseudomanifold_check` reports."""
        if self.facets == ((),):
            return PseudomanifoldReport(True, 0, True, True, True, 0)
        pure = len(set(map(len, self.facets))) == 1
        sizes = [len(slot) for slots in self.facet_ridges for slot in slots]
        max_mult = max(sizes)
        boundary = sizes.count(1)
        return PseudomanifoldReport(
            pure=pure,
            max_ridge_multiplicity=max_mult,
            ridge_bound_ok=max_mult <= 2,
            closed=pure and boundary == 0 and max_mult == 2,
            connected=self.dual_walk[0] == len(self.facets),
            boundary_ridges=boundary,
        )

    @stored
    def boundary_matrices(self) -> dict:
        """The boundary matrices by dimension, each built on first request
        by :func:`~sphere_forge.homology.boundary_matrix`."""
        return {}


# pattern -> the one live Shape of that pattern
_SHAPES: WeakValueDictionary[tuple[tuple[int, ...], ...], Shape] = WeakValueDictionary()


class Complex(Frozen):
    """Facets in canonical order.  Build through :func:`make_complex`.
    Equal facets make equal complexes; attributes cannot be assigned."""

    __slots__ = ("facets", "__dict__")  # the dict holds what is stored

    def __init__(self, facets: tuple[Simplex, ...]):
        object.__setattr__(self, "facets", facets)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.facets == other.facets
        return NotImplemented

    @stored
    def vertices(self) -> tuple[VertexLabel, ...]:
        seen = set()
        for f in self.facets:
            seen.update(f)
        return tuple(sorted(seen))

    @stored
    def vertex_set(self) -> frozenset[VertexLabel]:
        return frozenset(self.vertices)

    @stored
    def dimension(self) -> int:
        return max(map(len, self.facets)) - 1

    @stored
    def is_pure(self) -> bool:
        return len({f.dimension for f in self.facets}) == 1

    @property
    def is_empty(self) -> bool:
        """True when the only face is the empty simplex (no vertices)."""
        return self.facets == (EMPTY_SIMPLEX,)

    @stored
    def _numbers(self) -> dict[VertexLabel, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @stored
    def numbered_facets(self) -> tuple[tuple[int, ...], ...]:
        """Each facet as the ascending tuple of its vertex numbers, vertex
        i being ``self.vertices[i]``.  Numbering follows label order, so
        integer order is label order.  Everything on :attr:`shape` is
        built on this one numbering."""
        number = self._numbers.__getitem__
        return tuple(tuple(map(number, f)) for f in self.facets)

    @stored
    def shape(self) -> Shape:
        """The :class:`Shape` of :attr:`numbered_facets`, shared by every
        live complex with that pattern."""
        pattern = self.numbered_facets
        shape = _SHAPES.get(pattern)
        if shape is None:
            shape = _SHAPES[pattern] = Shape(pattern)
        return shape

    @stored
    def _hash(self) -> int:
        return hash((self.facets,))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a copy keeps the facets alone: the stored hash holds only in
        # the interpreter that computed it, and the rest is rebuilt
        return Complex, (self.facets,)

    def __repr__(self) -> str:
        return f"Complex(dim={self.dimension}, facets={len(self.facets)})"


def make_complex(facet_list: Iterable[Sequence[VertexLabel]]) -> Complex:
    """Normalize a facet description into a canonical Complex.

    Input facets are sorted, deduplicated, and non-maximal ones are
    absorbed (construction code routinely unions cones whose faces
    overlap).  An input with no nonempty facet yields the empty complex.
    Simplices of one size never absorb one another, so pure input takes
    no absorption pass.  Otherwise only a strictly longer facet can
    absorb one, and taken longest first those are a prefix of the
    facets kept so far.
    """
    sims = set(map(simplex, facet_list))
    if len(set(map(len, sims))) > 1:
        kept: list[Simplex] = []
        kept_sets: list[frozenset] = []
        size = longer = 0
        for s in sorted(sims, key=lambda s: (-len(s), s)):
            if len(s) != size:
                size, longer = len(s), len(kept)
            vs = frozenset(s)
            if any(vs <= t for t in islice(kept_sets, longer)):
                continue
            kept.append(s)
            kept_sets.append(vs)
        sims = kept
    return Complex(tuple(sorted(sims)) or (EMPTY_SIMPLEX,))


def empty_complex() -> Complex:
    return Complex((EMPTY_SIMPLEX,))


def union(*complexes: Complex) -> Complex:
    """Union of complexes as the complex generated by all their facets."""
    facets: list[Simplex] = []
    for K in complexes:
        facets.extend(K.facets)
    return make_complex(facets)


def faces(K: Complex, k: int) -> tuple[Simplex, ...]:
    """The k-faces of K in canonical order (the row/column order of the
    boundary matrices), ``()`` when k is out of range.  Read off
    :attr:`Shape.face_lattice`, whose integer order is label order."""
    if k < -1 or k > K.dimension:
        return ()
    labels = K.vertices
    return tuple(Simplex([labels[i] for i in f]) for f in K.shape.face_lattice[k + 1])


class FVector(NamedTuple):
    """Face counts ``(f_-1, f_0, ..., f_d)``; ``f_-1`` is always 1."""

    counts: tuple[int, ...]

    @property
    def euler(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.counts[1:]))

    def __getitem__(self, k: int) -> int:
        """Face count by dimension, so ``fv[-1] == 1``."""
        return self.counts[k + 1]


def f_vector_and_euler(K: Complex) -> tuple[FVector, int]:
    fv = FVector(tuple(map(len, K.shape.face_lattice)))
    return fv, fv.euler


def join(A: Complex, B: Complex) -> Complex:
    """Join of two complexes on disjoint vertex sets.

    Joining with the empty complex returns the other argument unchanged.
    """
    shared = A.vertex_set & B.vertex_set
    if shared:
        raise PreconditionFailed(f"join operands share vertices {sorted(shared)}")
    out = [Simplex(sorted(a + b)) for a in A.facets for b in B.facets]
    return Complex(tuple(sorted(out)))


def cone(apex: VertexLabel, K: Complex) -> Complex:
    """Cone over K with a new apex vertex."""
    if apex in K.vertex_set:
        raise PreconditionFailed(f"cone apex {apex} already occurs in the complex")
    return join(Complex((Simplex((apex,)),)), K)


def boundary_complex(K: Complex) -> Complex:
    """Subcomplex generated by ridges lying in exactly one facet.

    Returns the empty complex when K is closed.  A point's boundary is
    {∅}, which reads as the empty complex too, so this builds boundaries
    but does not decide closedness: :func:`pseudomanifold_check` does.
    """
    if not K.is_pure:
        raise PreconditionFailed("boundary is defined for pure complexes only")
    if K.is_empty:
        return K
    ridges = [
        Simplex(f[:p] + f[p + 1 :])
        for f, slots in zip(K.facets, K.shape.facet_ridges)
        for p, slot in enumerate(slots)
        if len(slot) == 1
    ]
    if not ridges:
        return empty_complex()
    return Complex(tuple(sorted(ridges)))


def link(face: Simplex, K: Complex) -> Complex:
    """Faces disjoint from ``face`` whose join with it lies in K.

    Only the facets in the smallest star among ``face``'s vertices
    (:attr:`Shape.stars`) are tested, and a vertex's star needs no
    test, since each of its facets holds the vertex; the empty face's
    link is all of K.  The star is derivable as ``face * link(face, K)``
    and is not a separate operation.

    The residues come out canonical without a sort.  Let S be the face
    and A < B two held facets: both hold S and are in canonical order.
    Distinct and maximal: A - S within B - S would put A within B.
    Ordered: A is no prefix of B, which would put A within B, so they
    first differ at some position p, after a common prefix P, with
    A[p] < B[p].  A[p] is not in S, for in B it would lie below B[p],
    so in P, whose vertices all lie below A[p].  Nor is all of B[p:] in
    S, for then B would lie within A.  So A - S runs P - S, then A[p], and B - S runs P - S, then a
    vertex above A[p]: A - S < B - S.
    """
    fs = set(face)
    facets = K.facets
    if not fs:
        held = facets
    else:
        numbers, stars = K._numbers, K.shape.stars
        star = None
        for v in face:
            i = numbers.get(v)
            if i is None:  # a vertex not in K
                star = ()
                break
            if star is None or len(stars[i]) < len(star):
                star = stars[i]
        held = map(facets.__getitem__, star)
        if len(fs) > 1:
            held = filter(fs.issubset, held)
    residues = tuple(map(Simplex, map(filterfalse, repeat(fs.__contains__), held)))
    if not residues:
        raise PreconditionFailed(f"[{face}] is not a face of the complex")
    return Complex(residues)


def standard_sphere(n: int) -> Complex:
    """Boundary of the (n+1)-simplex: the (n+2)-vertex triangulated n-sphere."""
    if n < 0:
        raise PreconditionFailed("standard_sphere needs n >= 0")
    verts = tuple(v_label(i) for i in range(1, n + 3))
    return Complex(tuple(sorted(Simplex(c) for c in combinations(verts, n + 1))))


class PseudomanifoldReport(NamedTuple):
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

    @property
    def closure_faults(self) -> list[str]:
        """Every reason the complex is not closed, in words; empty when
        it is."""
        faults = [] if self.pure else ["not pure"]
        if self.boundary_ridges:
            faults.append(f"{self.boundary_ridges} boundary ridges")
        if self.max_ridge_multiplicity > 2:
            faults.append(f"a ridge in {self.max_ridge_multiplicity} facets")
        return faults


def pseudomanifold_check(K: Complex) -> PseudomanifoldReport:
    """Check purity, the two-facets-per-ridge condition, and dual-graph
    connectivity.  Failures are reported, never raised.  The report is
    kept on :attr:`Complex.shape`, so a repeat call, or a call on any
    complex with the same facet pattern, returns it."""
    return K.shape.pseudomanifold_report
