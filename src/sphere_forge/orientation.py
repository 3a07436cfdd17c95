"""Coherent orientations of pure pseudomanifolds.

Orientations are stored as a sign per facet, read relative to the
facet's canonically sorted vertex list.  Two facets sharing a ridge are
coherently oriented when ``sign(s1) * sign(s2) == -(-1)**(p+q)`` where
``p`` and ``q`` are the 0-based positions (in sorted order) of the
vertices opposite the shared ridge.  This is the transposition rule for
induced orientations expressed directly on sorted vertex lists, which
makes it exactly testable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .complex_core import Complex, Simplex, boundary_complex, pseudomanifold_check
from .errors import NonOrientable, NotAPermutation, NotClosed, PreconditionFailed


def relative_sign(arrangement: Sequence, reference: Sequence) -> int:
    """+1 iff the permutation taking ``reference`` to ``arrangement`` is even."""
    arr = tuple(arrangement)
    ref = tuple(reference)
    if len(arr) != len(ref):
        raise NotAPermutation("sequences have different lengths")
    pos: dict = {}
    for i, x in enumerate(ref):
        if x in pos:
            raise NotAPermutation(f"reference repeats {x}")
        pos[x] = i
    try:
        perm = [pos[x] for x in arr]
    except KeyError as missing:
        raise NotAPermutation(f"{missing.args[0]} not in reference") from None
    if len(set(perm)) != len(perm):
        raise NotAPermutation("arrangement repeats an element")
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True, eq=False)
class OrientedComplex:
    """A complex plus a coherent sign per facet."""

    complex: Complex
    signs: Mapping[Simplex, int]
    base_facet: Simplex
    base_sign: int


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
    contradictory signs.
    """
    if base_sign not in (1, -1):
        raise PreconditionFailed("base sign must be +1 or -1")
    report = pseudomanifold_check(K)
    if not (report.pure and report.ridge_bound_ok and report.connected):
        raise PreconditionFailed(
            "orientation needs a pure, connected complex with every ridge "
            f"in at most two facets (got {report.as_dict()})"
        )
    facets = K.facets
    try:
        base_idx = facets.index(base)
    except ValueError:
        raise PreconditionFailed(f"base [{base}] is not a facet") from None

    by_ridge = K.ridge_facets
    signs: dict[int, int] = {base_idx: base_sign}
    frontier = deque([base_idx])
    while frontier:
        cur = frontier.popleft()
        cur_facet = facets[cur]
        vs = cur_facet.vertices
        for p in range(len(vs)):
            ridge = vs[:p] + vs[p + 1 :]
            for other in by_ridge[ridge]:
                if other == cur:
                    continue
                other_vs = facets[other].vertices
                opposite = (set(other_vs) - set(ridge)).pop()
                q = other_vs.index(opposite)
                parity = -1 if (p + q) % 2 else 1
                expected = -signs[cur] * parity
                known = signs.get(other)
                if known is None:
                    signs[other] = expected
                    frontier.append(other)
                elif known != expected:
                    raise NonOrientable(
                        f"sign contradiction at facet [{facets[other]}]",
                        witness=facets[other],
                    )
    return OrientedComplex(
        complex=K,
        signs={facets[i]: s for i, s in sorted(signs.items())},
        base_facet=base,
        base_sign=base_sign,
    )


def fundamental_cycle(oriented: OrientedComplex) -> Chain:
    """Top chain with coefficient ``sign(facet)`` on every facet.

    Only defined for closed complexes; its boundary vanishes exactly.
    """
    K = oriented.complex
    if not boundary_complex(K).is_empty:
        raise NotClosed("fundamental cycle needs a closed complex")
    return Chain(
        coefficients={f: oriented.signs[f] for f in K.facets},
        degree=K.dimension,
    )
