"""Coherent orientations of pure pseudomanifolds.

Orientations are stored as a sign per facet, read relative to the
facet's canonically sorted vertex list.  Two facets sharing a ridge are
coherently oriented when ``sign(s1) * sign(s2) == -(-1)**(p+q)`` where
``p`` and ``q`` are the 0-based positions (in sorted order) of the
vertices opposite the shared ridge.  This is the transposition rule for
induced orientations expressed directly on sorted vertex lists, which
makes it exactly testable.  Signs spread along
:func:`~sphere_forge.complex_core.dual_walk`, which hands over p and q
with each crossing.  The walk from each base facet is made once per
complex and kept in :attr:`~sphere_forge.complex_core.Complex.memo`
(see :func:`coherent_orientation`).

A vertex list in any other order carries the sign of its sort,
:func:`sort_sign`, relative to the sorted one.  ``sort_sign`` is the
only thing the two degree oracles in :mod:`simplicial_map` share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .complex_core import Complex, Simplex, dual_walk, pseudomanifold_check
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


@dataclass(frozen=True, eq=False)
class OrientedComplex:
    """A complex plus a coherent sign per facet.

    ``closed`` is the verdict of the :func:`pseudomanifold_check` that
    :func:`coherent_orientation` ran: True when every ridge lies in two
    facets.  A single point is not closed, since its one ridge, the
    empty simplex, lies in one facet.
    """

    complex: Complex
    signs: Mapping[Simplex, int]
    closed: bool


@dataclass(frozen=True)
class Chain:
    """Finitely supported integer combination of same-dimension simplices."""

    coefficients: Mapping[Simplex, int]
    degree: int


def coherent_orientation(
    K: Complex,
    base: Simplex,
    base_sign: int = 1,
) -> OrientedComplex:
    """Propagate signs breadth-first over the facet dual graph starting
    from ``base``.

    Raises NonOrientable (with a witness facet) when a cycle forces
    contradictory signs.  The walk from base sign +1 is kept in
    :attr:`Complex.memo`, one per base facet, and a -1 base reads it
    negated; a walk that raises keeps nothing.  Each call hands out a
    fresh ``signs`` dict, so no caller can change another's.
    """
    if base_sign not in (1, -1):
        raise PreconditionFailed("base sign must be +1 or -1")
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

    key = ("coherent_orientation", base_idx)
    walk = K.memo.get(key)
    if walk is None:
        signs: dict[int, int] = {base_idx: 1}
        for i, p, j, q in dual_walk(K, base_idx):
            expected = -signs[i] * (-1) ** (p + q)
            if signs.setdefault(j, expected) != expected:
                raise NonOrientable(
                    f"sign contradiction at facet [{facets[j]}]", witness=facets[j]
                )
        # connected, so the walk reached every facet
        walk = K.memo[key] = tuple(signs[i] for i in range(len(facets)))
    if base_sign == -1:
        walk = tuple(-s for s in walk)
    return OrientedComplex(
        complex=K, signs=dict(zip(facets, walk)), closed=report.closed
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
