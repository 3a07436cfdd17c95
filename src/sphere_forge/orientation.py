"""Coherent orientations of pure pseudomanifolds.

Orientations are stored as a sign per facet, read relative to the
facet's canonically sorted vertex list.  The signs come from
:attr:`~sphere_forge.complex_core.Shape.dual_walk`, the one walk per
shape from facet 0, which states the coherence rule for facets on a
shared ridge; an orientation from any other base facet or base sign is
that walk's signs, negated when the base's sign differs.

A vertex list in any other order carries the sign of its sort,
:func:`sort_sign`, relative to the sorted one.  ``sort_sign`` is the
only thing the two degree oracles in :mod:`simplicial_map` share.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .complex_core import Complex, Simplex, pseudomanifold_check
from .errors import NonOrientable, NotClosed, PreconditionFailed


def sort_sign(seq: Sequence) -> int:
    """Sign of the permutation that sorts ``seq``: +1 when it is even,
    -1 when it is odd, and 0 when an item repeats."""
    sign = 1
    for i, x in enumerate(seq):
        for y in seq[i + 1 :]:
            if x == y:
                return 0
            if x > y:
                sign = -sign
    return sign


class OrientedComplex(NamedTuple):
    """A complex plus a coherent sign per facet.

    ``closed`` is the verdict of the :func:`pseudomanifold_check` that
    :func:`coherent_orientation` ran: True when every ridge lies in two
    facets.  A single point is not closed, since its one ridge, the
    empty simplex, lies in one facet.
    """

    complex: Complex
    signs: Mapping[Simplex, int]
    closed: bool


class Chain(NamedTuple):
    """Finitely supported integer combination of same-dimension simplices."""

    coefficients: Mapping[Simplex, int]
    degree: int


def coherent_orientation(
    K: Complex,
    base: Simplex,
    base_sign: int = 1,
) -> OrientedComplex:
    """The coherent orientation that gives ``base`` the sign
    ``base_sign``: the signs of ``K.shape.dual_walk``, negated when
    they give ``base`` the other sign.  Raises NonOrientable when that
    walk meets contradictory signs, with its first contradiction as the
    witness, the same from every base.  Each call hands out a fresh
    ``signs`` dict, so no caller can change another's.
    """
    if base_sign not in (1, -1):
        raise PreconditionFailed("base sign must be +1 or -1")
    if K.dimension < 0:
        # its one facet, the empty simplex, has no ridges to walk across
        raise PreconditionFailed(
            "orientation needs a nonempty complex, got the empty complex"
        )
    report = pseudomanifold_check(K)
    failed = [
        name
        for name, ok in (
            ("not pure", report.pure),
            ("a ridge in more than two facets", report.ridge_bound_ok),
            ("not connected", report.connected),
        )
        if not ok
    ]
    if failed:
        raise PreconditionFailed(
            f"orientation needs a pure, connected complex: {', '.join(failed)}"
        )
    facets = K.facets
    try:
        base_idx = facets.index(base)
    except ValueError:
        raise PreconditionFailed(f"base [{base}] is not a facet") from None

    _, signs, contradiction = K.shape.dual_walk
    if contradiction is not None:
        witness = facets[contradiction]
        raise NonOrientable(f"sign contradiction at facet [{witness}]", witness=witness)
    if signs[base_idx] != base_sign:
        signs = [-s for s in signs]
    return OrientedComplex(
        complex=K, signs=dict(zip(facets, signs)), closed=report.closed
    )


def fundamental_cycle(oriented: OrientedComplex) -> Chain:
    """Top chain with coefficient ``sign(facet)`` on every facet.

    Only defined for closed complexes, as ``oriented.closed`` records
    them, and there its boundary vanishes exactly.  Otherwise raises
    NotClosed, a point included.
    """
    K = oriented.complex
    if not oriented.closed:
        raise NotClosed("fundamental cycle needs a closed complex")
    return Chain(
        coefficients={f: oriented.signs[f] for f in K.facets},
        degree=K.dimension,
    )
