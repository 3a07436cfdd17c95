"""Simplicial maps, the bundle type, and the two degree oracles.

A :class:`ConstructionBundle` is a source sphere, a vertex map onto a
target sphere, and the written-order base facets that pin both
orientations; the builders in :mod:`constructions` produce it.  The
degree of a bundled map is computed two independent ways:

* ``degree_by_counting`` orients source and target from the bundle's
  base facets by sign propagation, then, in one pass over the source
  facets, counts positive-minus-negative preimages of every target
  facet; all counts must agree.
* ``degree_by_cycle`` finds the top integer homology generator of the
  source directly from the kernel of the boundary matrix (no sign
  propagation), pushes it forward, and reads the multiple of the target
  generator.

Agreement of the two routes is the artifact's core trust mechanism, so
the two share nothing but :func:`~sphere_forge.orientation.sort_sign`,
the parity of a vertex list against its sorted order (0 for a
degenerate image).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .complex_core import Complex, Frozen, Simplex, simplex, standard_sphere
from .errors import InconsistentAlg, KernelRankNotOne, NotClosed, PreconditionFailed
from .homology import top_kernel_generator
from .labels import VertexLabel, v_label
from .orientation import OrientedComplex, coherent_orientation, sort_sign


class VertexMap(Frozen):
    """A vertex-to-vertex assignment; :func:`check_simplicial` checks
    its totality.  Equal only to itself; attributes cannot be assigned."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: Mapping[VertexLabel, VertexLabel]):
        object.__setattr__(self, "assignment", assignment)

    def __repr__(self) -> str:
        return f"VertexMap(assignment={self.assignment!r})"

    def __reduce__(self):
        return VertexMap, (self.assignment,)

    def image(self, vertices: Sequence[VertexLabel]) -> tuple[VertexLabel, ...]:
        return tuple(self.assignment[v] for v in vertices)

    def items(self):
        return self.assignment.items()


@dataclass(frozen=True, eq=False)
class ConstructionBundle:
    """A source sphere, a simplicial map to the standard sphere, and the
    facts the construction is expected to satisfy."""

    source: Complex
    target: Complex
    vertex_map: VertexMap
    source_base: tuple[VertexLabel, ...]
    target_base: tuple[VertexLabel, ...]
    expected_degree: int | None
    expected_vertices: int
    label: str


def check_simplicial(f: VertexMap, K: Complex, L: Complex) -> tuple[Simplex, ...]:
    """The facets of K whose image drops dimension, once every facet
    image is known to be a simplex of L.

    Degenerate facets are legal (their images are still faces of L) and
    get returned so degree code can discount them.  Raises
    PreconditionFailed when the map misses vertices of K, naming all of
    them, or when some facet image is not a simplex of L.
    """
    missing = [v for v in K.vertices if v not in f.assignment]
    if missing:
        raise PreconditionFailed(f"map misses vertices {[str(v) for v in missing]}")
    target_sets = [facet.vertex_set for facet in L.facets]
    degenerate = []
    for facet in K.facets:
        image = {f.assignment[v] for v in facet.vertices}
        if not any(image <= t for t in target_sets):
            raise PreconditionFailed("bundle map does not send simplices to simplices")
        if len(image) < len(facet.vertices):
            degenerate.append(facet)
    return tuple(degenerate)


class DegreeReport(NamedTuple):
    """Per-facet signed counts plus the common degree."""

    degree: int
    per_facet: Mapping[Simplex, int]
    alpha_plus: Mapping[Simplex, Sequence[Simplex]]
    alpha_minus: Mapping[Simplex, Sequence[Simplex]]
    method: str
    degenerate_facets: tuple[Simplex, ...] = ()


def _report_dict(report: DegreeReport) -> dict:
    return {
        "degree": report.degree,
        "method": report.method,
        "per_facet": {str(k): v for k, v in sorted(report.per_facet.items())},
        "alpha_plus": {
            str(k): [str(t) for t in v] for k, v in sorted(report.alpha_plus.items())
        },
        "alpha_minus": {
            str(k): [str(t) for t in v] for k, v in sorted(report.alpha_minus.items())
        },
        "degenerate_facets": [str(t) for t in report.degenerate_facets],
    }


# a NamedTuple class body may not define _asdict, so it is set here
DegreeReport._asdict = _report_dict


def _oriented_from_base(K: Complex, base: Sequence[VertexLabel]) -> OrientedComplex:
    return coherent_orientation(K, simplex(base), sort_sign(base))


def _check_dimensions(K: Complex, L: Complex) -> None:
    if K.dimension != L.dimension:
        raise PreconditionFailed(
            f"source has dimension {K.dimension} but target has dimension {L.dimension}"
        )


def degree_by_counting(bundle: ConstructionBundle) -> DegreeReport:
    """Degree as the common signed preimage count over all target facets.

    Source and target must have one dimension.  Orients the target with
    the bundle's target base positive in its written order, likewise the
    source.  Each nondegenerate source facet goes, in source-facet order,
    to the positive or negative side of the target facet its image spans,
    according to its own sign times the :func:`sort_sign` of its image;
    each count is then flipped for negative target facets.  A source or
    target that its orientation records as not closed (one with boundary,
    or a single point) raises NotClosed, since there the counts are free
    to differ.  Disagreement between facets of closed complexes raises
    InconsistentAlg since it can only mean an orientation or construction
    bug.
    """
    K, L, f = bundle.source, bundle.target, bundle.vertex_map
    degenerate = check_simplicial(f, K, L)
    _check_dimensions(K, L)
    OK = _oriented_from_base(K, bundle.source_base)
    OL = _oriented_from_base(L, bundle.target_base)
    for name, oriented in (("source", OK), ("target", OL)):
        if not oriented.closed:
            raise NotClosed(f"counting degree needs a closed {name}")
    plus: dict[Simplex, list[Simplex]] = {sigma: [] for sigma in L.facets}
    minus: dict[Simplex, list[Simplex]] = {sigma: [] for sigma in L.facets}
    for tau in K.facets:
        image = f.image(tau)
        sign = sort_sign(image)
        sigma = Simplex(sorted(image))
        if not sign or sigma not in plus:
            continue
        induced = OK.signs[tau] * sign
        (plus if induced > 0 else minus)[sigma].append(tau)
    per = {sigma: OL.signs[sigma] * (len(plus[sigma]) - len(minus[sigma])) for sigma in plus}
    values = set(per.values())
    if len(values) != 1:
        raise InconsistentAlg(
            f"signed counts disagree across target facets: "
            f"{ {str(k): v for k, v in per.items()} }"
        )
    return DegreeReport(
        degree=values.pop(),
        per_facet=per,
        alpha_plus=plus,
        alpha_minus=minus,
        method="counting",
        degenerate_facets=degenerate,
    )


def degree_by_cycle(bundle: ConstructionBundle) -> int:
    """Degree through top homology, independent of sign propagation.

    Source and target must be nonempty, pure, of one dimension, and
    each base a facet.  The source fundamental cycle is the
    boundary-matrix kernel's generator (KernelRankNotOne unless the
    kernel is a line and the generator +-1 on every facet), normalized
    to be +1 on the source base in its written order, then pushed
    forward facet by facet with :func:`sort_sign`, which is 0 where an
    image is degenerate.  The result is read off against the target's
    generator, normalized alike.
    """
    K, L, f = bundle.source, bundle.target, bundle.vertex_map
    check_simplicial(f, K, L)
    _check_dimensions(K, L)
    for name, complex_ in (("source", K), ("target", L)):
        if complex_.is_empty:
            raise PreconditionFailed(
                f"cycle degree needs a nonempty {name}, got the empty complex"
            )
        if not complex_.is_pure:
            raise PreconditionFailed(f"cycle degree needs a pure {name}")

    def normalized_generator(complex_, base_written):
        base_facet = simplex(base_written)
        if base_facet not in complex_.facets:
            raise PreconditionFailed(f"base [{base_facet}] is not a facet")
        gen = top_kernel_generator(complex_)
        for facet in (base_facet, *complex_.facets):
            if gen[facet] not in (1, -1):
                raise KernelRankNotOne(
                    f"kernel generator has coefficient {gen[facet]} on [{facet}]"
                )
        if gen[base_facet] != sort_sign(base_written):
            gen = {s: -c for s, c in gen.items()}
        return gen

    source_cycle = normalized_generator(K, bundle.source_base)
    target_cycle = normalized_generator(L, bundle.target_base)

    pushed: dict[Simplex, int] = {s: 0 for s in L.facets}
    for tau, coeff in source_cycle.items():
        image = f.image(tau)
        sign = sort_sign(image)
        if sign:
            pushed[simplex(image)] += coeff * sign

    target_base = simplex(bundle.target_base)
    degree = pushed[target_base] // target_cycle[target_base]
    mismatch = {
        str(s): (pushed[s], degree * target_cycle[s])
        for s in L.facets
        if pushed[s] != degree * target_cycle[s]
    }
    if mismatch:
        raise InconsistentAlg(f"pushforward is not a multiple of the target cycle: {mismatch}")
    return degree


def compose(f: VertexMap, g: VertexMap) -> VertexMap:
    """Pointwise composition ``g after f``.

    Requires every value of f to be in g's domain (the checkable shadow
    of "codomain of f equals domain of g").
    """
    stray = {v for v in f.assignment.values() if v not in g.assignment}
    if stray:
        raise PreconditionFailed(
            f"values {[str(v) for v in sorted(stray)]} missing from the second map's domain"
        )
    return VertexMap({x: g.assignment[y] for x, y in f.assignment.items()})


def _self_map(n: int, name: str, degree: int) -> ConstructionBundle:
    """Self-map bundle of the standard n-sphere named ``name``: the
    identity for degree 1, the exchange of the last two vertices for
    degree -1."""
    if n < 1:
        raise PreconditionFailed(f"{name}_map needs n >= 1")
    sphere = standard_sphere(n)
    verts = [v_label(i) for i in range(1, n + 3)]
    assignment = {v: v for v in verts}
    if degree == -1:
        assignment[verts[-2]], assignment[verts[-1]] = verts[-1], verts[-2]
    base = tuple(verts[: n + 1])
    return ConstructionBundle(
        source=sphere,
        target=sphere,
        vertex_map=VertexMap(assignment),
        source_base=base,
        target_base=base,
        expected_degree=degree,
        expected_vertices=n + 2,
        label=f"{name} n={n}",
    )


def swap_map(n: int) -> ConstructionBundle:
    """Self-map of the standard sphere exchanging the last two vertices;
    its degree is -1 in every dimension."""
    return _self_map(n, "swap", -1)


def identity_map(n: int) -> ConstructionBundle:
    """Identity self-map bundle of the standard n-sphere (degree +1)."""
    return _self_map(n, "identity", 1)
