"""The four sphere constructions, packaged as verifiable bundles.

Each builder produces a :class:`~.simplicial_map.ConstructionBundle`
(the type lives beside the degree oracles that read it): a triangulated
n-sphere together with the vertex map onto the standard (n+2)-vertex
sphere, the written-order base facets that pin the orientation
convention, and the degree and vertex count the construction promises.
The expensive sphere and degree battery is :func:`verify_bundle`, which
the CLI and the acceptance suite both run.

All four follow the same scheme: triangulate an m-ball whose top cells
hit the first target facet with multiplicity, then hand it to one
closing step, :func:`_close`.  That step cones the ball's boundary with
one last vertex, lifts the m-sphere to dimension n one vertex at a time
(:func:`_lift`, the one-point suspension), maps every vertex by one
label rule, :func:`_image` (forget the disc position and the prime:
``u<j>_<i>`` and ``u<j>`` and ``u<j>p`` all go to ``v<j>``), and checks
the structure.  ``join-cone``, ``double-cone`` and ``facet-cone`` build
their ball at a base dimension m = 2, 3 or |k| and are lifted from there;
``stacked`` builds at m = n and is not lifted.  A builder supplies only
its preconditions, its base ball and source base, and its promised
degree and vertex count.  A negative degree is the positive one's
construction with the map composed with :func:`~.simplicial_map.swap_map`,
the exchange of the target's last two vertices, which has degree -1.
"""

from __future__ import annotations

from typing import NamedTuple

from .complex_core import (
    Complex,
    Simplex,
    boundary_complex,
    cone,
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
    CheckItem,
    SphereCheckReport,
    sphere_check,
    top_kernel_generator,
)
from .labels import VertexLabel, u_label, u_pair, v_label
from .orientation import coherent_orientation, fundamental_cycle
from .simplicial_map import (
    ConstructionBundle,
    VertexMap,
    compose,
    degree_by_counting,
    degree_by_cycle,
    swap_map,
)


class BundleVerification(NamedTuple):
    """Outcome of :func:`verify_bundle`: the named checks, the sphere
    report behind the ``sphere_check`` item, and both oracles' degrees
    (None when the source fails the sphere battery); ``passed`` says
    that every check is ok, decided once where the outcome is built."""

    checks: tuple[CheckItem, ...]
    sphere: SphereCheckReport
    counting_degree: int | None
    cycle_degree: int | None
    passed: bool


def verify_bundle(bundle: ConstructionBundle) -> BundleVerification:
    """Run the full battery on a bundle.

    Checks the vertex count, the sphere battery (asked to certify;
    :func:`~.homology.sphere_check` does so by vertex links for n <= 2
    and by a shelling for n == 3, and reports level ``necessary`` for
    n >= 4 or for a 3-sphere that greedy cannot shell), agreement of the counting and cycle degree
    oracles, the expected degree when the bundle names one, and that the
    coherent fundamental cycle equals the top kernel generator up to one
    sign.  Both oracles assume a sphere, so a source that fails the
    battery stops the run there.  The empty complex is refused.
    """
    source = bundle.source
    if source.is_empty:
        # the battery and both oracles index chains by dimension, so the
        # empty complex (dimension -1) has nothing to verify
        raise PreconditionFailed(
            "bundle verification needs a nonempty source, got the empty complex"
        )
    checks = [
        CheckItem(
            "vertex_count",
            len(source.vertices) == bundle.expected_vertices,
            f"{len(source.vertices)} vertices",
        )
    ]
    sphere = sphere_check(source, source.dimension, LEVEL_CERTIFY)
    checks.append(CheckItem("sphere_check", sphere.passed, f"level {sphere.level}"))
    if not sphere.passed:
        return BundleVerification(tuple(checks), sphere, None, None, False)

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
    passed = all(c.ok for c in checks)
    return BundleVerification(tuple(checks), sphere, counting, cycle, passed)


def _image(u: VertexLabel) -> VertexLabel:
    """The label rule: ``u<j>_<i>`` goes to ``v<j>``; ``u<l>`` and its
    primed twin ``u<l>p`` go to ``v<l>``."""
    return v_label(u.item_index if u.class_index is None else u.class_index)


def _lift(K: Complex) -> Complex:
    """The one-point suspension of the m-sphere K at x = ``u<m+2>``:
    the (m + 1)-sphere a * K ∪ x * (K − x) on one new vertex
    a = ``u<m+3>``, where K − x keeps the facets of K that miss x
    (Björner–Lutz, Exp. Math. 2000).  Under :func:`_image`, a goes to
    ``v<m+3>`` and x keeps its image, so a map K → ∂Δ^{m+1} of degree d
    becomes a map onto ∂Δ^{m+2} of degree d, with x and f(x) appended
    to the two written bases (the source base must miss x).

    Sphere: a * K is a ball with boundary K.  K − x is the complement of
    x's open star, a ball with boundary lk x, so x * (K − x) is a ball
    with boundary (K − x) ∪ x * lk x = K.  Two balls glued along their
    common boundary sphere form a sphere.

    Degree: the target ∂Δ^{m+2} is the lift of ∂Δ^{m+1} at f(x) =
    ``v<m+2>``, with new vertex v = ``v<m+3>``.  Let z be K's fundamental
    cycle, +1 on the base σ, and z_x its part on the facets that miss x;
    let w, +1 on τ = f(σ), and w_f(x) be the target's.  Then
    z' = x * z_x − a * z and w' = f(x) * w_f(x) − v * w are the lifted
    fundamental cycles, and they take one sign on the appended bases
    (σ, x) and (τ, f(x)).  Only the facets a * ρ reach v, and a * ρ
    covers v * τ' exactly when ρ covers τ'.  So if f carries z to d·w,
    the lifted map carries z' to a cycle whose part at v is −d·(v * w),
    which makes it d·w': the degree is still d.
    """
    m = K.dimension
    x, a = u_label(m + 2), u_label(m + 3)
    facets = [Simplex(sorted((*f, a))) for f in K.facets]
    facets += [Simplex(sorted((*f, x))) for f in K.facets if x not in f]
    return Complex(tuple(sorted(facets)))


def _close(
    ball: Complex,
    apex: VertexLabel,
    source_base: tuple[VertexLabel, ...],
    n: int,
    degree: int,
    vertices: int,
    label: str,
) -> ConstructionBundle:
    """Cone the m-ball's boundary with ``apex`` to close an m-sphere,
    lift it n − m times by :func:`_lift`, appending ``u<m+2> ..
    u<n+1>`` to the source base, map every vertex by :func:`_image`
    onto the standard sphere with base ``v1 .. v<n+1>``, and check the
    vertex count, that no facet collapses, that the source is a closed
    connected pseudomanifold and that the source base is a facet.  The
    ball is that of |degree|; a negative degree composes the map with
    the exchange of ``v<n+1>`` and ``v<n+2>``."""
    sphere = union(cone(apex, boundary_complex(ball)), ball)
    m = sphere.dimension
    for _ in range(m, n):
        sphere = _lift(sphere)
    source_base += tuple(u_label(l) for l in range(m + 2, n + 2))
    vertex_map = VertexMap({u: _image(u) for u in sphere.vertices})
    if degree < 0:
        vertex_map = compose(vertex_map, swap_map(n).vertex_map)
    if len(sphere.vertices) != vertices:
        raise AssertionError(
            f"{label}: built {len(sphere.vertices)} vertices, promised {vertices}"
        )
    for facet in sphere.facets:
        if len(set(vertex_map.image(facet.vertices))) != len(facet.vertices):
            raise AssertionError(f"{label}: facet [{facet}] collapses")
    if not pseudomanifold_check(sphere).is_closed_pseudomanifold:
        raise AssertionError(f"{label}: not a closed pseudomanifold")
    if simplex(source_base) not in sphere.facets:
        raise AssertionError(f"{label}: source base is not a facet")
    return ConstructionBundle(
        source=sphere,
        target=standard_sphere(n),
        vertex_map=vertex_map,
        source_base=source_base,
        target_base=tuple(v_label(i) for i in range(1, n + 2)),
        expected_degree=degree,
        expected_vertices=vertices,
        label=label,
    )


def build_join_cone_sphere(n: int, d: int) -> ConstructionBundle:
    """Disc-times-simplex sphere: degree d != 0 on 3|d| + n - 1 vertices.

    At its base dimension 2 the |d|-disc is closed by coning its
    boundary with u4; each dimension above adds one lift.
    """
    if n < 2:
        raise PreconditionFailed("join-cone construction needs n >= 2")
    if d == 0:
        raise PreconditionFailed("join-cone construction needs d != 0")
    ball = build_delta(abs(d)).complex
    source_base = (u_pair(1, 1), u_pair(2, 1), u_pair(3, 1))
    return _close(
        ball, u_label(4), source_base, n, d, 3 * abs(d) + n - 1, f"join-cone n={n} d={d}"
    )


def build_double_cone_sphere(n: int, d: int, variant: str) -> ConstructionBundle:
    """Two cones over nested discs: for d >= 1, degree 3d (even
    variant, 6d + n vertices) or 3d + 1 (odd variant, 6d + n + 3
    vertices); for d <= -1, the negatives 3d or 3d - 1 on the vertex
    count of |d|.

    At its base dimension 3, a cone with apex u4 covers the whole disc
    and a second apex u4' covers only the sub-disc inside the disc's
    first inner polygon; u5 cones off the boundary of that 3-ball, and
    each dimension above adds one lift.
    """
    if n < 3:
        raise PreconditionFailed("double-cone construction needs n >= 3")
    if d == 0:
        raise PreconditionFailed("double-cone construction needs d != 0")
    if variant not in ("even", "odd"):
        raise PreconditionFailed("variant must be 'even' or 'odd'")
    even = variant == "even"
    m = abs(d)
    disc = build_delta(2 * m if even else 2 * m + 1)
    outer_cone = cone(u_label(4), disc.complex)
    inner_cone = cone(u_label(4, primed=True), disc.inner_subdisc())
    source_base = (u_pair(1, 1), u_pair(2, 1), u_pair(3, 1), u_label(4))
    return _close(
        union(outer_cone, inner_cone),
        u_label(5),
        source_base,
        n,
        (3 * m if even else 3 * m + 1) * (1 if d > 0 else -1),
        (6 * m + n) if even else (6 * m + n + 3),
        f"double-cone n={n} d={d} variant={variant}",
    )


def build_facet_cone_sphere(n: int, k: int) -> ConstructionBundle:
    """Stacked-simplex sphere: degree k on |k| + n + 3 vertices
    (2 <= |k| <= n).

    At its base dimension |k|, a central |k|-simplex keeps its facets
    and also gains a cone u'_i over each of its ridges, and coning the
    boundary with u_{|k|+2} closes the sphere; each dimension above adds
    one lift.
    """
    if not 2 <= abs(k) <= n:
        raise PreconditionFailed("facet-cone construction needs 2 <= |k| <= n")
    m = abs(k)
    core = [u_label(i) for i in range(1, m + 2)]
    facets = [core]
    for i in range(1, m + 2):
        facets.append(
            [u_label(i, primed=True)] + [u for u in core if u != u_label(i)]
        )
    ball = make_complex(facets)
    source_base = tuple(u_label(i, primed=(i == m)) for i in range(1, m + 2))
    return _close(
        ball, u_label(m + 2), source_base, n, k, m + n + 3, f"facet-cone n={n} k={k}"
    )


def build_stacked_sphere(n: int) -> ConstructionBundle:
    """Facet-minimal sphere of degree n + 1 on 2n + 4 vertices.

    Every ridge of the core simplex [u1 .. u_{n+1}] is coned with its
    own u'_i and the core's boundary is coned with u_{n+2}; the core
    itself is not a facet.  Coning the resulting boundary with u'_{n+2}
    closes the sphere with (n+1)(n+2) facets.  It is built at n itself,
    since it is not a lift of the stacked sphere one dimension down.
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
        n,
        n + 1,
        2 * n + 4,
        f"stacked n={n}",
    )
