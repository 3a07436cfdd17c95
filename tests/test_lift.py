"""The one-point suspension that carries each paper sphere up from its
base dimension (``constructions._lift``), and the checks ``_close``
runs on the lifted sphere."""

import pytest

from sphere_forge import (
    Complex,
    ConstructionBundle,
    VertexMap,
    build_join_cone_sphere,
    build_stacked_sphere,
    standard_sphere,
    verify_bundle,
)
from sphere_forge import constructions
from sphere_forge.labels import u_label, v_label


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_lift_at_a_vertex_other_than_the_apex_keeps_the_degree(n):
    """``stacked`` is closed by the apex u<n+2>p, so its lift at x = u<n+2>
    suspends at an ordinary vertex.  Both u<n+2> and u<n+2>p map to
    v<n+2>, so the lift has degenerate facets; the degree is still n + 1."""
    stacked = build_stacked_sphere(n)
    source = constructions._lift(stacked.source)
    assert source.dimension == n + 1
    assignment = {u: constructions._image(u) for u in source.vertices}
    bundle = ConstructionBundle(
        source=source,
        target=standard_sphere(n + 1),
        vertex_map=VertexMap(assignment),
        source_base=(*stacked.source_base, u_label(n + 2)),
        target_base=(*stacked.target_base, v_label(n + 2)),
        expected_degree=n + 1,
        expected_vertices=2 * n + 5,
        label=f"stacked n={n} lifted at u{n + 2}",
    )
    assert any(
        len({assignment[v] for v in f}) < len(f) for f in source.facets
    ), "no degenerate facet: the lift did not suspend at u<n+2>"
    verification = verify_bundle(bundle)
    assert verification.passed, verification.checks
    assert verification.counting_degree == verification.cycle_degree == n + 1


def test_close_checks_the_lifted_sphere(monkeypatch):
    """A lift that loses a facet leaves ridges on one facet each, and
    ``_close`` refuses the result instead of packaging it."""
    lift = constructions._lift

    def lossy_lift(K):
        lifted = lift(K)
        return Complex(lifted.facets[1:])

    monkeypatch.setattr(constructions, "_lift", lossy_lift)
    with pytest.raises(AssertionError, match="not a closed pseudomanifold"):
        build_join_cone_sphere(3, 2)
