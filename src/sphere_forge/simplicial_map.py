"""Simplicial maps, signed preimage counting, and the two degree oracles.

The degree of a bundled map is computed two independent ways:

* ``degree_by_counting`` orients source and target from the bundle's
  base facets by sign propagation, then counts positive-minus-negative
  preimages of every target facet; all counts must agree.
* ``degree_by_cycle`` finds the top integer homology generator of the
  source directly from the kernel of the boundary matrix (no sign
  propagation), pushes it forward, and reads the multiple of the target
  generator.

Agreement of the two routes is the artifact's core trust mechanism, so
nothing here is allowed to share orientation state between them beyond
plain permutation parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .complex_core import Complex, Simplex, simplex, standard_sphere
from .errors import (
    DomainMismatch,
    FaceNotInComplex,
    InconsistentAlg,
    KernelRankNotOne,
    MapNotTotal,
    NotSimplicial,
    PreconditionFailed,
)
from .homology import top_kernel_generator
from .labels import VertexLabel, v_label
from .orientation import OrientedComplex, coherent_orientation, relative_sign

if TYPE_CHECKING:
    from .constructions import ConstructionBundle


@dataclass(frozen=True, eq=False)
class VertexMap:
    """A vertex-to-vertex assignment; totality is checked at use sites."""

    assignment: Mapping[VertexLabel, VertexLabel]

    def image(self, vertices: Sequence[VertexLabel]) -> tuple[VertexLabel, ...]:
        return tuple(self.assignment[v] for v in vertices)

    def items(self):
        return self.assignment.items()


class SimplicialCheck(NamedTuple):
    ok: bool
    degenerate_facets: tuple[Simplex, ...]


def check_simplicial(f: VertexMap, K: Complex, L: Complex) -> SimplicialCheck:
    """Is every facet image a simplex of L?

    Facets whose image drops dimension are legal (they are still faces
    of L) but get reported so degree code can discount them.
    """
    missing = [v for v in K.vertices if v not in f.assignment]
    if missing:
        raise MapNotTotal(f"map misses vertices {[str(v) for v in missing]}")
    target_sets = [facet.vertex_set for facet in L.facets]
    degenerate = []
    ok = True
    for facet in K.facets:
        image = {f.assignment[v] for v in facet.vertices}
        if not any(image <= t for t in target_sets):
            ok = False
        if len(image) < len(facet.vertices):
            degenerate.append(facet)
    return SimplicialCheck(ok, tuple(degenerate))


class AlgResult(NamedTuple):
    alg: int
    alpha_plus: tuple[Simplex, ...]
    alpha_minus: tuple[Simplex, ...]


def _signed_preimages(
    f: VertexMap, OK: OrientedComplex, OL: OrientedComplex
) -> dict[Simplex, AlgResult]:
    """Signed preimage counts of every target facet in one pass.

    Each nondegenerate source facet goes, in source-facet order, to the
    positive or negative side of the target facet its image spans,
    according to its own sign times the parity of its image
    arrangement; each count is then flipped for negative target facets.
    """
    plus: dict[Simplex, list[Simplex]] = {sigma: [] for sigma in OL.complex.facets}
    minus: dict[Simplex, list[Simplex]] = {sigma: [] for sigma in OL.complex.facets}
    for tau in OK.complex.facets:
        image = f.image(tau.vertices)
        sigma = Simplex(tuple(sorted(image)))
        if len(set(image)) != len(image) or sigma not in plus:
            continue
        induced = OK.signs[tau] * relative_sign(image, sigma.vertices)
        (plus if induced > 0 else minus)[sigma].append(tau)
    return {
        sigma: AlgResult(
            OL.signs[sigma] * (len(plus[sigma]) - len(minus[sigma])),
            tuple(plus[sigma]),
            tuple(minus[sigma]),
        )
        for sigma in plus
    }


def alg_number(
    f: VertexMap, OK: OrientedComplex, OL: OrientedComplex, target: Simplex
) -> AlgResult:
    """Signed count of nondegenerate preimage facets of one target facet.

    A preimage facet joins the positive or negative side according to
    its own sign times the parity of its image arrangement; the count is
    then flipped for negative target facets.
    """
    chk = check_simplicial(f, OK.complex, OL.complex)
    if not chk.ok:
        raise NotSimplicial("map does not send simplices to simplices")
    if target not in set(OL.complex.facets):
        raise FaceNotInComplex(f"[{target}] is not a target facet")
    return _signed_preimages(f, OK, OL)[target]


@dataclass(frozen=True, eq=False)
class DegreeReport:
    """Per-facet signed counts plus the common degree."""

    degree: int
    per_facet: Mapping[Simplex, int]
    alpha_plus: Mapping[Simplex, tuple[Simplex, ...]]
    alpha_minus: Mapping[Simplex, tuple[Simplex, ...]]
    method: str
    degenerate_facets: tuple[Simplex, ...] = ()

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "method": self.method,
            "per_facet": {str(k): v for k, v in sorted(self.per_facet.items())},
            "alpha_plus": {
                str(k): [str(t) for t in v]
                for k, v in sorted(self.alpha_plus.items())
            },
            "alpha_minus": {
                str(k): [str(t) for t in v]
                for k, v in sorted(self.alpha_minus.items())
            },
            "degenerate_facets": [str(t) for t in self.degenerate_facets],
        }


def _oriented_from_base(K: Complex, base: Sequence[VertexLabel]) -> OrientedComplex:
    base_facet = simplex(base)
    base_sign = relative_sign(tuple(base), base_facet.vertices)
    return coherent_orientation(K, base_facet, base_sign)


def degree_by_counting(bundle: "ConstructionBundle") -> DegreeReport:
    """Degree as the common signed preimage count over all target facets.

    Orients the target with the bundle's target base positive in its
    written order, likewise the source; disagreement between facets
    raises InconsistentAlg since it can only mean an orientation or
    construction bug.
    """
    K, L, f = bundle.source, bundle.target, bundle.vertex_map
    chk = check_simplicial(f, K, L)
    if not chk.ok:
        raise NotSimplicial("bundle map does not send simplices to simplices")
    OK = _oriented_from_base(K, bundle.source_base)
    OL = _oriented_from_base(L, bundle.target_base)
    results = _signed_preimages(f, OK, OL)
    per = {sigma: r.alg for sigma, r in results.items()}
    values = set(per.values())
    if len(values) != 1:
        raise InconsistentAlg(
            f"signed counts disagree across target facets: "
            f"{ {str(k): v for k, v in per.items()} }"
        )
    return DegreeReport(
        degree=values.pop(),
        per_facet=per,
        alpha_plus={sigma: r.alpha_plus for sigma, r in results.items()},
        alpha_minus={sigma: r.alpha_minus for sigma, r in results.items()},
        method="counting",
        degenerate_facets=chk.degenerate_facets,
    )


def degree_by_cycle(bundle: "ConstructionBundle") -> int:
    """Degree through top homology, independent of sign propagation.

    The source fundamental cycle comes out of the boundary-matrix kernel
    (raising KernelRankNotOne if that kernel is not a line), gets
    normalized to evaluate +1 on the source base in its written order,
    and is pushed forward facet by facet with permutation signs;
    degenerate facets contribute nothing.  The result is read off
    against the target's kernel generator normalized the same way.
    """
    K, L, f = bundle.source, bundle.target, bundle.vertex_map
    chk = check_simplicial(f, K, L)
    if not chk.ok:
        raise NotSimplicial("bundle map does not send simplices to simplices")

    def normalized_generator(complex_, base_written):
        gen = top_kernel_generator(complex_)
        base_facet = simplex(base_written)
        coeff = gen.get(base_facet, 0)
        if coeff not in (1, -1):
            raise KernelRankNotOne(
                f"kernel generator has coefficient {coeff} on [{base_facet}]"
            )
        want = relative_sign(tuple(base_written), base_facet.vertices)
        if coeff != want:
            gen = {s: -c for s, c in gen.items()}
        return gen

    source_cycle = normalized_generator(K, bundle.source_base)
    target_cycle = normalized_generator(L, bundle.target_base)

    pushed: dict[Simplex, int] = {s: 0 for s in L.facets}
    for tau, coeff in source_cycle.items():
        image = f.image(tau.vertices)
        if len(set(image)) != len(image):
            continue
        sigma = simplex(image)
        pushed[sigma] += coeff * relative_sign(image, sigma.vertices)

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
        raise DomainMismatch(
            f"values {[str(v) for v in sorted(stray)]} missing from the second map's domain"
        )
    return VertexMap({x: g.assignment[y] for x, y in f.assignment.items()})


def swap_map(n: int) -> "ConstructionBundle":
    """Self-map of the standard sphere exchanging the last two vertices;
    its degree is -1 in every dimension."""
    from .constructions import ConstructionBundle

    if n < 1:
        raise PreconditionFailed("swap_map needs n >= 1")
    sphere = standard_sphere(n)
    verts = [v_label(i) for i in range(1, n + 3)]
    assignment = {v: v for v in verts}
    assignment[verts[-2]] = verts[-1]
    assignment[verts[-1]] = verts[-2]
    base = tuple(verts[: n + 1])
    return ConstructionBundle(
        source=sphere,
        target=sphere,
        vertex_map=VertexMap(assignment),
        source_base=base,
        target_base=base,
        expected_degree=-1,
        expected_vertices=n + 2,
        label=f"swap n={n}",
    )


def identity_map(n: int) -> "ConstructionBundle":
    """Identity self-map bundle of the standard n-sphere (degree +1)."""
    from .constructions import ConstructionBundle

    if n < 1:
        raise PreconditionFailed("identity_map needs n >= 1")
    sphere = standard_sphere(n)
    verts = [v_label(i) for i in range(1, n + 3)]
    base = tuple(verts[: n + 1])
    return ConstructionBundle(
        source=sphere,
        target=sphere,
        vertex_map=VertexMap({v: v for v in verts}),
        source_base=base,
        target_base=base,
        expected_degree=1,
        expected_vertices=n + 2,
        label=f"identity n={n}",
    )
