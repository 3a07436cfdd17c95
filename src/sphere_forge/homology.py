"""Exact integer chain-complex machinery.

Boundary matrices, Smith normal form, kernels, homology groups, and the
sphere sanity battery all run over arbitrary-precision Python integers;
no floating point and no modular shortcuts anywhere.  Matrices are
stored sparse by column from the start -- a boundary column carries
exactly ``k+1`` entries of +-1 -- and every consumer (Smith reduction,
kernels) reads those columns; a dense grid is only ever materialized on
request through :attr:`IntegerMatrix.entries`.  Boundary matrices are
built on the integer face lattice of the complex's shape
(:attr:`~sphere_forge.complex_core.Shape.face_lattice`), so row lookups
hash tuples of small ints, and each row lookup returns its
``(row, +-1)`` pair whole: one matrix holds one pair object per row
and sign, shared by every column that has it.

Smith reduction first reduces columns by their lowest entry against the
columns whose lowest entry is a unit; when every column ends on a unit
or at zero, each unit gives an invariant factor 1 and nothing more is
done.  Otherwise every nonzero reduced column goes to the row-store
elimination, which reads each pivot from one row and folds the diagonal
it ends on into a divisibility chain (see :func:`smith_normal_form`).
Homology reduces the boundary matrices from the top dimension down, and
each unit low of one clears a column of the next, which is never
reduced (see :func:`homology_groups`).  Kernels are the same
left-to-right reduction by lowest entries, except that a non-unit low
is not set aside: Euclid's algorithm on that row lets the remainder
take it over, and each column carries its combination of input columns
(see :func:`kernel_basis`).  Boundary matrices depend only on the
complex's integer facet pattern, so they are built once per
:class:`~sphere_forge.complex_core.Shape` and kept there: every live
complex with that pattern gets the same matrices, which go with the
shape once no complex holds it.  A matrix keeps its kernel basis and
its Smith forms, one per set of skipped columns, so the homology of a
shape is reduced once while it lives.  The sphere battery keeps one
table of link reports per top-level call, keyed by the link complex, so
each distinct link is certified once (see :func:`sphere_check`).
"""

from __future__ import annotations

from itertools import chain, combinations, count, cycle, repeat
from math import gcd
from operator import getitem
from typing import Iterator, NamedTuple, Sequence

from .complex_core import (
    Complex,
    Frozen,
    Shape,
    Simplex,
    f_vector_and_euler,
    faces,
    link,
    pseudomanifold_check,
    stored,
)
from .errors import KernelRankNotOne, PreconditionFailed


class IntegerMatrix(Frozen):
    """Sparse integer matrix stored by column.

    ``columns[j]`` holds the nonzero ``(row, value)`` pairs of column j
    in ascending row order; values are exact Python ints.  Matrices with
    equal shape and columns are equal; attributes cannot be assigned.
    """

    __slots__ = ("rows", "cols", "columns", "__dict__")  # the dict holds reductions

    def __init__(self, rows: int, cols: int, columns: tuple):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "columns", columns)

    def _key(self) -> tuple:
        return self.rows, self.cols, self.columns

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"IntegerMatrix(rows={self.rows}, cols={self.cols}, columns={self.columns})"

    def __reduce__(self):
        return IntegerMatrix, self._key()

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        data = [[int(x) for x in r] for r in rows]
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise PreconditionFailed("ragged matrix rows")
        columns = tuple(
            tuple((i, r[j]) for i, r in enumerate(data) if r[j]) for j in range(ncols)
        )
        return cls(len(data), ncols, columns)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Dense row-major view, built afresh on every access."""
        grid = [[0] * self.cols for _ in range(self.rows)]
        for j, column in enumerate(self.columns):
            for i, v in column:
                grid[i][j] = v
        return tuple(map(tuple, grid))

    @stored
    def _kernel(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_reduce_kernel(self))

    @stored
    def _smith_forms(self) -> dict[frozenset[int], SNFResult]:
        return {}


class SNFResult(NamedTuple):
    """Nonzero invariant factors ``d_1 | d_2 | ... | d_r`` and the rank r.

    ``unit_lows`` holds the rows on which the reduction's unit columns
    end (see :func:`smith_normal_form`); it is a by-product of one
    reduction, not part of the Smith form.  Equality compares it too,
    as a tuple's does, so compare ``diagonal`` and ``rank`` to compare
    Smith forms.
    """

    diagonal: tuple[int, ...]
    rank: int
    unit_lows: frozenset[int] = frozenset()


class HomologyGroup(NamedTuple):
    """One integral homology group: free rank plus torsion orders (each >= 2)."""

    betti: int
    torsion: tuple[int, ...]


def boundary_matrix(K: Complex, k: int) -> IntegerMatrix:
    """Matrix of the k-th boundary operator.

    Rows are indexed by (k-1)-faces and columns by k-faces, both in
    canonical order; omitting the i-th vertex (0-based within the sorted
    facet) contributes ``(-1)**i``.  For ``k == 0`` this is the
    augmentation onto the empty simplex, which unreduced homology
    treats as zero.  Built once per :class:`~sphere_forge.complex_core.Shape`:
    later calls, on K or on any live complex with its facet pattern,
    return the same (immutable) matrix.
    """
    if k < 0 or k > K.dimension:
        raise PreconditionFailed(f"k={k} outside 0..{K.dimension}")
    shape = K.shape
    M = shape.boundary_matrices.get(k)
    if M is None:
        M = shape.boundary_matrices[k] = _build_boundary_matrix(shape, k)
    return M


def _build_boundary_matrix(shape: Shape, k: int) -> IntegerMatrix:
    lattice = shape.face_lattice
    rows = lattice[k]
    # one (row, sign) pair per row and sign, shared by every column
    plus = dict(zip(rows, zip(count(), repeat(1))))
    minus = dict(zip(rows, zip(count(), repeat(-1))))
    # combinations(face, k) omits the last vertex first and the first
    # vertex last: ascending rows, with signs (-1)**k, ..., -1, 1
    by_position = tuple(minus if i % 2 else plus for i in reversed(range(k + 1)))
    entries = map(
        getitem,
        cycle(by_position),
        chain.from_iterable(map(combinations, lattice[k + 1], repeat(k))),
    )
    # each column takes the next k + 1 entries
    columns = tuple(zip(*[entries] * (k + 1)))
    return IntegerMatrix(len(rows), len(columns), columns)


# ---------------------------------------------------------------------------
# Smith normal form


def _pick_pivot(rows):
    """The next pivot, read from the first remaining row alone: its
    entry of least absolute value, the lowest column on ties."""
    i, row = next(iter(rows.items()))
    return i, min(row, key=lambda j: (abs(row[j]), j))


def _clear_column(rows, pi: int, pj: int) -> int:
    """Clear column pj of every row but pivot row pi, scanning the rows
    in ascending order for the ones that hold pj; a smaller remainder
    met on the way becomes the pivot.  Returns the pivot row, now alone
    in column pj.  Rows that clearing empties stay behind as empty
    dicts for the caller to drop."""
    while True:
        pivot = rows[pi][pj]
        for i, row in rows.items():
            if i == pi or pj not in row:
                continue
            q = row[pj] // pivot
            if q:
                _subtract(row, q, rows[pi])
            if pj in row:
                pi = i
                break
        else:
            return pi


def _divisibility_chain(entries: list[int]) -> tuple[int, ...]:
    """Fold positive diagonal entries into the divisibility chain of the
    same diagonal matrix, pair by pair: diag(a, b) ~ diag(gcd, lcm).
    The units, sorted first, already divide everything."""
    d = sorted(entries)
    for i in range(d.count(1), len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d)


def _subtract(col: dict[int, int], factor: int, pivot: dict[int, int]) -> None:
    """col -= factor * pivot, dropping the entries that cancel."""
    for i, w in pivot.items():
        nv = col.get(i, 0) - factor * w
        if nv:
            col[i] = nv
        else:
            del col[i]


def _eliminate(columns: list[dict[int, int]]) -> list[int]:
    """The diagonal that unimodular row and column operations reduce
    these columns to, by the one-row pivot rule of
    :func:`smith_normal_form`, on a store of rows in ascending order
    (operations only ever write into rows that still exist, so the
    first row stays the least)."""
    by_row: dict[int, dict[int, int]] = {}
    for j, column in enumerate(columns):
        for i, v in column.items():
            by_row.setdefault(i, {})[j] = v
    rows = {i: by_row[i] for i in sorted(by_row)}
    diagonal: list[int] = []
    while rows:
        pi, pj = _pick_pivot(rows)
        while True:
            pi = _clear_column(rows, pi, pj)
            pivot = rows[pi][pj]
            # column pj holds the pivot alone, so a column operation
            # touches row pi only: an entry the pivot does not divide
            # shrinks to its remainder, which becomes the pivot
            j = next((j for j, v in rows[pi].items() if v % pivot), None)
            if j is None:
                break
            rows[pi][j] %= pivot
            pj = j
        # the pivot divides the rest of its row, which column operations clear
        del rows[pi]
        diagonal.append(abs(pivot))
        rows = {i: row for i, row in rows.items() if row}
    return diagonal


def smith_normal_form(
    M: IntegerMatrix, *, _skip: frozenset[int] = frozenset()
) -> SNFResult:
    """Invariant factors of M by unimodular row/column operations, in
    two stages.

    Stage 1 reduces the columns left to right by their lowest entry:
    while a column's lowest nonzero row is the low of an earlier column
    whose entry there is +-1, that column is subtracted to clear it.
    The columns that end on a unit low form, on their low rows, a
    triangular minor with unit diagonal, so each contributes an
    invariant factor 1; columns that reduce to zero contribute nothing.
    Their low rows come back as ``unit_lows``.  A column whose low is
    not a unit is parked for stage 2 rather than reduced further by
    Euclid's algorithm against the column holding that row, as
    :func:`kernel_basis` does: on dense random matrices that lets the
    intermediate entries grow to tens of thousands of bits.

    Stage 2 runs only when some column ends on a non-unit low.  Every
    nonzero stage-1 column, unit and non-unit alike, then goes to
    :func:`_eliminate`: each was its input column minus earlier reduced
    columns, so together they are M times a unimodular matrix with the
    zero and skipped columns dropped, and have M's Smith form.  Each
    pivot is read from one row, the first remaining one -- its entry of
    least absolute value, ties broken toward the lowest column.  A
    smaller remainder met while clearing the pivot column or row becomes
    the pivot; once the pivot divides its row, the row leaves as one
    diagonal entry.
    :func:`_divisibility_chain` folds the non-unit diagonal entries into
    the Smith form.

    ``_skip`` names columns that stage 1 passes over (the clearing of
    :func:`homology_groups`; callers never pass it otherwise).  It must
    name only columns i that are an integer combination of columns
    before them.  That holds for M = boundary k when i is a unit low of
    boundary k+1: the reduced column there is a boundary z = +-e_i +
    (terms above row i), so 0 = boundary_k z writes column i through
    columns before it.  Subtracting those combinations, from the
    highest skipped column down, zeroes the skipped columns by
    unimodular column operations, so M has the Smith form of the
    columns that remain.  A non-unit low c*e_i writes only c times
    column i that way, which is why such columns are never skipped.

    M keeps its Smith forms, one per ``_skip``, so a repeat call returns
    the same result without reducing M again.
    """
    forms = M._smith_forms
    result = forms.get(_skip)
    if result is None:
        result = forms[_skip] = _reduce_smith(M, _skip)
    return result


def _reduce_smith(M: IntegerMatrix, skip: frozenset[int]) -> SNFResult:
    units: dict[int, dict[int, int]] = {}  # low row -> column with +-1 there
    residual: list[dict[int, int]] = []
    for j, column in enumerate(M.columns):
        if j in skip:
            continue
        col = dict(column)
        while col:
            low = max(col)
            pivot = units.get(low)
            if pivot is None:
                if col[low] in (1, -1):
                    units[low] = col
                else:
                    residual.append(col)
                break
            _subtract(col, col[low] * pivot[low], pivot)
    if residual:
        diagonal = _eliminate([*units.values(), *residual])
    else:
        diagonal = [1] * len(units)
    return SNFResult(_divisibility_chain(diagonal), len(diagonal), frozenset(units))


# ---------------------------------------------------------------------------
# Integer kernels


def kernel_basis(M: IntegerMatrix) -> list[tuple[int, ...]]:
    """A lattice basis of the right kernel ``{x : Mx = 0}``.

    One pass over M's columns, left to right, reducing each by its
    lowest entry against the earlier column that ends on the same row,
    as stage 1 of :func:`smith_normal_form` does.  Each column carries
    its combination of input columns, starting as ``{j: 1}`` and
    updated by the same subtraction.  Where the quotient leaves a
    nonzero remainder, the remainder's column takes the row over and the
    displaced column keeps reducing (Euclid's algorithm on that row).
    Every step is a unimodular column operation and the columns left
    standing end on distinct rows, so the combinations of the columns
    that reach zero are a lattice basis of the kernel.

    M is reduced once: the basis is kept on M, and each call returns a
    fresh list of it.
    """
    return list(M._kernel)


def _reduce_kernel(M: IntegerMatrix) -> Iterator[tuple[int, ...]]:
    lows: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    for j, column in enumerate(M.columns):
        col, comb = dict(column), {j: 1}
        while col:
            low = max(col)
            if low not in lows:
                lows[low] = col, comb
                break
            pivot, pivot_comb = lows[low]
            q = col[low] // pivot[low]
            if q:
                _subtract(col, q, pivot)
                _subtract(comb, q, pivot_comb)
            if low in col:
                lows[low] = col, comb
                col, comb = pivot, pivot_comb
        if not col:
            vec = [comb.get(k, 0) for k in range(M.cols)]
            # deterministic sign: first nonzero coordinate positive
            lead = next((c for c in vec if c), 1)
            if lead < 0:
                vec = [-c for c in vec]
            yield tuple(vec)


# ---------------------------------------------------------------------------
# Homology groups and the sphere battery


def homology_groups(K: Complex) -> tuple[HomologyGroup, ...]:
    """Unreduced integral homology in dimensions ``0..dim K`` via SNF.

    H_0 counts connected components; torsion of H_k comes from the
    invariant factors of the (k+1)-st boundary matrix.  The boundary
    matrices are reduced from the top down, each one skipping the
    columns that the unit lows of the one above clear (see
    :func:`smith_normal_form`).
    """
    n = K.dimension
    snf: dict[int, SNFResult] = {}
    cleared: frozenset[int] = frozenset()
    for k in range(n, 0, -1):
        snf[k] = smith_normal_form(boundary_matrix(K, k), _skip=cleared)
        cleared = snf[k].unit_lows
    counts = [len(fs) for fs in K.shape.face_lattice[1:]]
    groups = []
    for k in range(0, n + 1):
        rank_k = snf[k].rank if k >= 1 else 0
        rank_up = snf[k + 1].rank if k + 1 <= n else 0
        torsion = (
            tuple(d for d in snf[k + 1].diagonal if d > 1) if k + 1 <= n else ()
        )
        groups.append(HomologyGroup(counts[k] - rank_k - rank_up, torsion))
    return tuple(groups)


def top_kernel_generator(K: Complex) -> dict[Simplex, int]:
    """Generator of ``ker`` of the top boundary map, as facet -> coefficient.

    Raises KernelRankNotOne unless the kernel is one-dimensional, i.e.
    unless K has the top homology of a (connected orientable) sphere.
    """
    n = K.dimension
    basis = kernel_basis(boundary_matrix(K, n))
    if len(basis) != 1:
        raise KernelRankNotOne(
            f"top boundary kernel has rank {len(basis)}, expected 1"
        )
    return dict(zip(faces(K, n), basis[0]))


LEVEL_NECESSARY = "necessary"
LEVEL_CERTIFY = "certify_low_dim"


class CheckItem(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class SphereCheckReport(NamedTuple):
    """The items of :func:`sphere_check`, in report order; ``passed``
    says that every item is ok, decided once where the report is built."""

    n: int
    level: str
    items: tuple[CheckItem, ...]
    notes: tuple[str, ...]
    passed: bool


def _report_dict(report: SphereCheckReport) -> dict:
    return {
        "n": report.n,
        "level": report.level,
        "passed": report.passed,
        "checks": [item._asdict() for item in report.items],
        "notes": list(report.notes),
    }


# a NamedTuple class body may not define _asdict, so it is set here
SphereCheckReport._asdict = _report_dict


def sphere_check(
    K: Complex,
    n: int,
    level: str = LEVEL_NECESSARY,
    *,
    _links: dict[Complex, SphereCheckReport] | None = None,
) -> SphereCheckReport:
    """Necessary sphere conditions, with recursive link certification
    for n <= 3.

    ``necessary``: closed connected pseudomanifold of dimension n with
    the Euler characteristic and integral homology of the n-sphere.
    ``certify_low_dim`` additionally certifies every vertex link as an
    (n-1)-sphere; for n == 3 the report notes that a closed 3-manifold
    with 3-sphere homology is accepted as certification.  Recognition
    for n >= 4 is out of reach, so a certification request there runs
    the necessary battery, and the report says level ``necessary`` and
    notes why.  This is the one place that decides the level.

    One top-level call keeps one table of link reports, passed down the
    recursion as ``_links`` (callers never pass it); each call looks its
    own complex up there and stores its own report.  The complex alone
    is the key, since a vertex link of a pure n-complex is only ever
    checked at n - 1.  Each distinct link is thus certified once,
    although the recursion meets it more often: on a 3-sphere the edge
    link lk_K(vw) is met as lk_{lk v}(w) and again as lk_{lk w}(v).
    """
    links = {} if _links is None else _links
    report = links.get(K)
    if report is not None:
        return report
    if n < 0:
        raise PreconditionFailed(f"sphere check needs n >= 0, got {n}")
    if level == "certify":
        level = LEVEL_CERTIFY
    if level not in (LEVEL_NECESSARY, LEVEL_CERTIFY):
        raise PreconditionFailed(f"unknown level {level!r}")
    notes: list[str] = []
    if level == LEVEL_CERTIFY and n > 3:
        level = LEVEL_NECESSARY
        notes.append(
            f"certification is unavailable for n = {n} >= 4; "
            "only the necessary battery ran"
        )
    items = tuple(_battery(K, n, level, links))
    if n == 3 and items[-1].name == "vertex_links":
        notes.append(
            "n = 3: a closed 3-manifold with 3-sphere homology is "
            "accepted as certification"
        )
    passed = all(item.ok for item in items)
    report = links[K] = SphereCheckReport(n, level, items, tuple(notes), passed)
    return report


def _battery(K: Complex, n: int, level: str, links: dict) -> Iterator[CheckItem]:
    """The items of :func:`sphere_check` in report order, up to the first
    early stop: a wrong dimension, n == 0, or a complex that is not pure
    or has a ridge in more than two facets."""
    dim_ok = K.dimension == n
    yield CheckItem("dimension", dim_ok, f"dim = {K.dimension}, expected {n}")
    if not dim_ok:
        return
    if n == 0:
        two_points = len(K.vertices) == 2 and len(K.facets) == 2
        yield CheckItem("two_points", two_points, f"f_0 = {len(K.vertices)}")
        return

    pm = pseudomanifold_check(K)
    yield CheckItem("pure", pm.pure)
    yield CheckItem(
        "closed",
        pm.closed,
        ", ".join(pm.closure_faults) or "every ridge in exactly two facets",
    )
    yield CheckItem("connected", pm.connected)
    if not (pm.pure and pm.ridge_bound_ok):
        return

    euler = f_vector_and_euler(K)[1]
    expected_euler = 1 + (-1) ** n
    yield CheckItem(
        "euler", euler == expected_euler, f"chi = {euler}, expected {expected_euler}"
    )

    groups = homology_groups(K)
    betti = tuple(g.betti for g in groups)
    torsion_free = all(not g.torsion for g in groups)
    yield CheckItem(
        "homology_profile",
        betti == (1,) + (0,) * (n - 1) + (1,) and torsion_free,
        f"betti = {betti}, torsion-free = {torsion_free}",
    )
    if level != LEVEL_CERTIFY:
        return

    bad_links = []
    for vertex in K.vertices:
        lk = link(Simplex((vertex,)), K)
        if not sphere_check(lk, n - 1, LEVEL_CERTIFY, _links=links).passed:
            bad_links.append(str(vertex))
    yield CheckItem(
        "vertex_links",
        not bad_links,
        "all vertex links certify as (n-1)-spheres"
        if not bad_links
        else f"links failing: {', '.join(bad_links)}",
    )
