"""The four sphere constructions, packaged as verifiable bundles.

Each builder produces a triangulated n-sphere together with the vertex
map onto the standard (n+2)-vertex sphere, the written-order base facets
that pin the orientation convention, and the degree and vertex count the
construction promises.  The expensive sphere and degree battery is
:func:`verify_bundle`, which the CLI and the acceptance suite both run.

All four follow the same scheme: triangulate an n-ball whose top cells
hit the first target facet with multiplicity, then hand it to one
closing step, :func:`_close`, which cones the ball's boundary with one
last vertex, maps every vertex by one label rule, :func:`_image`
(forget the disc position and the prime: ``u<j>_<i>`` and ``u<j>`` and
``u<j>p`` all go to ``v<j>``), and checks the structure.  A builder
supplies only its preconditions, its ball, its source base and its
promised degree and vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complex_core import (
    Complex,
    boundary_complex,
    cone,
    join,
    make_complex,
    pseudomanifold_check,
    simplex,
    standard_sphere,
    union,
)
from .disc_delta import build_delta
from .errors import PreconditionFailed
from .homology import (
    LEVEL_CERTIFY,
    LEVEL_NECESSARY,
    CheckItem,
    SphereCheckReport,
    sphere_check,
    top_kernel_generator,
)
from .labels import VertexLabel, u_label, u_pair, v_label
from .orientation import coherent_orientation, fundamental_cycle
from .simplicial_map import VertexMap, degree_by_counting, degree_by_cycle


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

    @property
    def n(self) -> int:
        return self.source.dimension


@dataclass(frozen=True)
class BundleVerification:
    """Outcome of :func:`verify_bundle`: the named checks, the sphere
    report behind the ``sphere_check`` item, and both oracles' degrees."""

    checks: tuple[CheckItem, ...]
    sphere: SphereCheckReport
    counting_degree: int
    cycle_degree: int

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_bundle(bundle: ConstructionBundle) -> BundleVerification:
    """Run the full battery on a bundle.

    Checks the vertex count, the sphere battery (certifying vertex links
    for n <= 3), agreement of the counting and cycle degree oracles, the
    expected degree when the bundle names one, and that the coherent
    fundamental cycle equals the top kernel generator up to one sign.
    """
    source = bundle.source
    n = source.dimension
    level = LEVEL_CERTIFY if n <= 3 else LEVEL_NECESSARY
    checks = [
        CheckItem(
            "vertex_count",
            len(source.vertices) == bundle.expected_vertices,
            f"{len(source.vertices)} vertices",
        )
    ]
    sphere = sphere_check(source, n, level)
    checks.append(CheckItem("sphere_check", sphere.passed, f"level {level}"))

    counting = degree_by_counting(bundle).degree
    cycle = degree_by_cycle(bundle)
    agree = counting == cycle
    checks.append(
        CheckItem("dual_oracle_agreement", agree, f"counting {counting}, cycle {cycle}")
    )
    if bundle.expected_degree is not None:
        checks.append(
            CheckItem(
                "expected_degree",
                counting == bundle.expected_degree and agree,
                f"expected {bundle.expected_degree}",
            )
        )

    base = simplex(bundle.source_base)
    chain = fundamental_cycle(coherent_orientation(source, base, 1)).coefficients
    kernel = top_kernel_generator(source)
    flip = 1 if kernel[base] == chain[base] else -1
    checks.append(
        CheckItem(
            "fundamental_cycle_matches_kernel",
            all(chain[s] == flip * kernel[s] for s in chain),
            "entrywise up to sign",
        )
    )
    return BundleVerification(tuple(checks), sphere, counting, cycle)


def _u_simplex_complex(lo: int, hi: int) -> Complex:
    """Complex of the single simplex [u_lo ... u_hi]; empty when lo > hi."""
    return make_complex([[u_label(i) for i in range(lo, hi + 1)]])


def _image(u: VertexLabel) -> VertexLabel:
    """The label rule: ``u<j>_<i>`` goes to ``v<j>``; ``u<l>`` and its
    primed twin ``u<l>p`` go to ``v<l>``."""
    return v_label(u.item_index if u.class_index is None else u.class_index)


def _close(
    ball: Complex,
    apex: VertexLabel,
    source_base: tuple[VertexLabel, ...],
    degree: int,
    vertices: int,
    label: str,
) -> ConstructionBundle:
    """Cone the ball's boundary with ``apex`` to close the sphere, map
    every vertex by :func:`_image` onto the standard sphere with base
    ``v1 .. v_{n+1}``, and check the vertex count, that no facet
    collapses, that the source is a closed connected pseudomanifold and
    that the source base is a facet."""
    sphere = union(cone(apex, boundary_complex(ball)), ball)
    n = sphere.dimension
    assignment = {u: _image(u) for u in sphere.vertices}
    if len(sphere.vertices) != vertices:
        raise AssertionError(
            f"{label}: built {len(sphere.vertices)} vertices, promised {vertices}"
        )
    for facet in sphere.facets:
        if len({assignment[v] for v in facet.vertices}) != len(facet.vertices):
            raise AssertionError(f"{label}: facet [{facet}] collapses")
    if not pseudomanifold_check(sphere).is_closed_pseudomanifold:
        raise AssertionError(f"{label}: not a closed pseudomanifold")
    if simplex(source_base) not in sphere.facets:
        raise AssertionError(f"{label}: source base is not a facet")
    return ConstructionBundle(
        source=sphere,
        target=standard_sphere(n),
        vertex_map=VertexMap(assignment),
        source_base=source_base,
        target_base=tuple(v_label(i) for i in range(1, n + 2)),
        expected_degree=degree,
        expected_vertices=vertices,
        label=label,
    )


def build_join_cone_sphere(n: int, d: int) -> ConstructionBundle:
    """Disc-times-simplex sphere: degree d on 3d + n - 1 vertices.

    The d-disc joined with [u4 .. u_{n+1}] forms an n-ball whose
    boundary is coned with u_{n+2}.
    """
    if n < 2:
        raise PreconditionFailed("join-cone construction needs n >= 2")
    if d < 1:
        raise PreconditionFailed("join-cone construction needs d >= 1")
    ball = join(build_delta(d).complex, _u_simplex_complex(4, n + 1))
    source_base = (
        u_pair(1, 1),
        u_pair(2, 1),
        u_pair(3, 1),
        *(u_label(l) for l in range(4, n + 2)),
    )
    return _close(
        ball, u_label(n + 2), source_base, d, 3 * d + n - 1, f"join-cone n={n} d={d}"
    )


def build_double_cone_sphere(n: int, d: int, variant: str) -> ConstructionBundle:
    """Two cones over nested discs: degree 3d (even variant, 6d + n
    vertices) or 3d + 1 (odd variant, 6d + n + 3 vertices).

    A cone with apex u4 covers the whole disc; a second apex u4' covers
    only the sub-disc inside the first reduction polygon, read from the
    disc's trace.
    """
    if n < 3:
        raise PreconditionFailed("double-cone construction needs n >= 3")
    if d < 1:
        raise PreconditionFailed("double-cone construction needs d >= 1")
    if variant not in ("even", "odd"):
        raise PreconditionFailed("variant must be 'even' or 'odd'")
    even = variant == "even"
    disc = build_delta(2 * d if even else 2 * d + 1)
    outer_cone = cone(u_label(4), disc.complex)
    inner_cone = cone(u_label(4, primed=True), disc.inner_subdisc())
    ball = join(union(outer_cone, inner_cone), _u_simplex_complex(5, n + 1))
    source_base = (
        u_pair(1, 1),
        u_pair(2, 1),
        u_pair(3, 1),
        u_label(4),
        *(u_label(l) for l in range(5, n + 2)),
    )
    return _close(
        ball,
        u_label(n + 2),
        source_base,
        3 * d if even else 3 * d + 1,
        (6 * d + n) if even else (6 * d + n + 3),
        f"double-cone n={n} d={d} variant={variant}",
    )


def build_facet_cone_sphere(n: int, k: int) -> ConstructionBundle:
    """Stacked-simplex sphere: degree k on k + n + 3 vertices (2 <= k <= n).

    A central k-simplex keeps its facets and also gains a cone u'_i over
    each of its ridges; joining with [u_{k+2} .. u_{n+1}] and coning the
    boundary with u_{n+2} closes the sphere.
    """
    if not 2 <= k <= n:
        raise PreconditionFailed("facet-cone construction needs 2 <= k <= n")
    core = [u_label(i) for i in range(1, k + 2)]
    facets = [core]
    for i in range(1, k + 2):
        facets.append(
            [u_label(i, primed=True)] + [u for u in core if u != u_label(i)]
        )
    ball = join(make_complex(facets), _u_simplex_complex(k + 2, n + 1))
    source_base = tuple(u_label(i, primed=(i == k)) for i in range(1, n + 2))
    return _close(
        ball, u_label(n + 2), source_base, k, k + n + 3, f"facet-cone n={n} k={k}"
    )


def build_stacked_sphere(n: int) -> ConstructionBundle:
    """Facet-minimal sphere of degree n + 1 on 2n + 4 vertices.

    Every ridge of the core simplex [u1 .. u_{n+1}] is coned with its
    own u'_i and the core's boundary is coned with u_{n+2}; the core
    itself is not a facet.  Coning the resulting boundary with u'_{n+2}
    closes the sphere with (n+1)(n+2) facets.
    """
    if n < 2:
        raise PreconditionFailed("stacked construction needs n >= 2")
    core = [u_label(i) for i in range(1, n + 2)]
    facets = []
    for i in range(1, n + 2):
        others = [u for u in core if u != u_label(i)]
        facets.append([u_label(i, primed=True)] + others)
        facets.append([u_label(n + 2)] + others)
    source_base = tuple(u_label(i, primed=(i == n + 1)) for i in range(1, n + 2))
    return _close(
        make_complex(facets),
        u_label(n + 2, primed=True),
        source_base,
        n + 1,
        2 * n + 4,
        f"stacked n={n}",
    )
