"""Exact integer chain-complex machinery.

Boundary matrices, Smith normal form, kernels, homology groups, and the
sphere sanity battery all run over arbitrary-precision Python integers;
no floating point and no modular shortcuts anywhere.  Matrices are
stored sparse by column from the start -- a boundary column carries
exactly ``k+1`` entries of +-1 -- and every consumer (Smith reduction,
kernels, the product check) reads those columns; a dense grid is only
ever materialized on request through :attr:`IntegerMatrix.entries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .complex_core import (
    Complex,
    Simplex,
    faces,
    f_vector_and_euler,
    link,
    pseudomanifold_check,
)
from .errors import KernelRankNotOne, PreconditionFailed
from .orientation import Chain


@dataclass(frozen=True)
class IntegerMatrix:
    """Sparse integer matrix stored by column.

    ``columns[j]`` holds the nonzero ``(row, value)`` pairs of column j
    in ascending row order; values are exact Python ints.
    """

    rows: int
    cols: int
    columns: tuple[tuple[tuple[int, int], ...], ...]

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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, ((),) * cols)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Dense row-major view, built afresh on every access."""
        grid = [[0] * self.cols for _ in range(self.rows)]
        for j, column in enumerate(self.columns):
            for i, v in column:
                grid[i][j] = v
        return tuple(map(tuple, grid))

    def entry(self, i: int, j: int) -> int:
        return dict(self.columns[j]).get(i, 0)


@dataclass(frozen=True)
class SNFResult:
    """Nonzero invariant factors ``d_1 | d_2 | ... | d_r`` and the rank r."""

    diagonal: tuple[int, ...]
    rank: int


@dataclass(frozen=True)
class HomologyGroup:
    """One integral homology group: free rank plus torsion orders (each >= 2)."""

    betti: int
    torsion: tuple[int, ...]


def face_basis(K: Complex, k: int) -> tuple[Simplex, ...]:
    """The k-faces of K in canonical order (the row/column order used
    by :func:`boundary_matrix`)."""
    return tuple(sorted(faces(K, k)))


def boundary_matrix(K: Complex, k: int) -> IntegerMatrix:
    """Matrix of the k-th boundary operator.

    Rows are indexed by (k-1)-faces and columns by k-faces, both in
    canonical order; omitting the i-th vertex (0-based within the sorted
    facet) contributes ``(-1)**i``.  For ``k == 0`` this is the
    augmentation onto the empty simplex, which unreduced homology
    treats as zero.
    """
    if k < 0 or k > K.dimension:
        raise PreconditionFailed(f"k={k} outside 0..{K.dimension}")
    row_index = {s.vertices: i for i, s in enumerate(face_basis(K, k - 1))}
    columns = []
    for s in face_basis(K, k):
        vs = s.vertices
        # omitting a later vertex gives an earlier face, so walking i
        # downwards lists the rows in ascending order
        columns.append(
            tuple(
                (row_index[vs[:i] + vs[i + 1 :]], -1 if i % 2 else 1)
                for i in reversed(range(len(vs)))
            )
        )
    return IntegerMatrix(len(row_index), len(columns), tuple(columns))


def matrix_product_is_zero(A: IntegerMatrix, B: IntegerMatrix) -> bool:
    """Sparse check that ``A @ B == 0`` without forming the dense product."""
    if A.cols != B.rows:
        raise PreconditionFailed("inner dimensions differ")
    for column in B.columns:
        acc: dict[int, int] = {}
        for r, v in column:
            for i, w in A.columns[r]:
                acc[i] = acc.get(i, 0) + v * w
        if any(acc.values()):
            return False
    return True


def chain_boundary(chain: Chain) -> Chain:
    """Boundary of an integer chain under the alternating-sign face rule."""
    out: dict[Simplex, int] = {}
    for s, c in chain.coefficients.items():
        if c == 0:
            continue
        vs = s.vertices
        for i in range(len(vs)):
            face = Simplex(vs[:i] + vs[i + 1 :])
            out[face] = out.get(face, 0) + ((-c) if i % 2 else c)
    return Chain(
        coefficients={s: c for s, c in out.items() if c != 0},
        degree=chain.degree - 1,
    )


# ---------------------------------------------------------------------------
# Smith normal form


def _pick_pivot(rows, cols):
    best_key = None
    best = None
    for i, r in rows.items():
        row_fill = len(r) - 1
        for j, v in r.items():
            a = -v if v < 0 else v
            key = (a, row_fill * (len(cols[j]) - 1), i, j)
            if best_key is None or key < best_key:
                best_key = key
                best = (i, j)
                if a == 1 and key[1] == 0:
                    return best
    return best


def _row_axpy(rows, cols, target: int, source: int, factor: int):
    """row[target] += factor * row[source] with index upkeep."""
    src = rows[source]
    dst = rows.setdefault(target, {})
    for j, w in src.items():
        nv = dst.get(j, 0) + factor * w
        if nv:
            dst[j] = nv
            cols[j].add(target)
        elif j in dst:
            del dst[j]
            cols[j].discard(target)
    if not dst:
        del rows[target]


def smith_normal_form(M: IntegerMatrix) -> SNFResult:
    """Invariant factors of M by unimodular row/column operations.

    Pivoting picks the smallest nonzero absolute value (ties broken
    toward sparsity, then position) which keeps entry growth tame and
    the result deterministic.
    """
    # working copy: rows in ascending order with ascending columns inside
    # each row, and the set of rows each column meets
    by_row: dict[int, dict[int, int]] = {}
    for j, column in enumerate(M.columns):
        for i, v in column:
            by_row.setdefault(i, {})[j] = v
    rows = {i: by_row[i] for i in sorted(by_row)}
    cols = {j: {i for i, _ in column} for j, column in enumerate(M.columns) if column}
    diagonal: list[int] = []
    while rows:
        pi, pj = _pick_pivot(rows, cols)
        while True:
            pivot = rows[pi][pj]
            # clear the pivot column
            moved = False
            for i in sorted(cols[pj]):
                if i == pi:
                    continue
                q = rows[i][pj] // pivot
                if q:
                    _row_axpy(rows, cols, i, pi, -q)
                if i in rows and pj in rows[i]:
                    # remainder is smaller than the pivot: adopt it
                    pi = i
                    moved = True
                    break
            if moved:
                continue
            # column is clear; clear the pivot row (each column op only
            # touches row pi because column pj holds the pivot alone)
            prow = rows[pi]
            dirty = None
            for j in list(prow):
                if j == pj:
                    continue
                rem = prow[j] % pivot
                if rem:
                    prow[j] = rem
                    dirty = j
                    break
                del prow[j]
                cols[j].discard(pi)
                if not cols[j]:
                    del cols[j]
            if dirty is not None:
                pj = dirty
                continue
            if pivot not in (1, -1):
                # pivot must divide every remaining entry for the
                # divisibility chain; merge an offending row and retry
                offender = None
                for i, r in rows.items():
                    if i == pi:
                        continue
                    for j, v in r.items():
                        if v % pivot:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is not None:
                    _row_axpy(rows, cols, pi, offender, 1)
                    continue
            break
        diagonal.append(abs(rows[pi][pj]))
        del rows[pi]
        cols[pj].discard(pi)
        if not cols[pj]:
            del cols[pj]
    return SNFResult(tuple(diagonal), len(diagonal))


# ---------------------------------------------------------------------------
# Integer kernels


def kernel_basis(M: IntegerMatrix) -> list[tuple[int, ...]]:
    """A lattice basis of the right kernel ``{x : Mx = 0}``.

    Column elimination with unimodular operations tracked on an
    identity block; the surviving zero columns read off the kernel.
    """
    columns = [dict(column) for column in M.columns]
    tracking: list[dict[int, int]] = [{j: 1} for j in range(M.cols)]
    active = set(range(M.cols))

    def col_axpy(dst: int, src: int, factor: int):
        for store in (columns, tracking):
            d = store[dst]
            for key, w in store[src].items():
                nv = d.get(key, 0) + factor * w
                if nv:
                    d[key] = nv
                elif key in d:
                    del d[key]

    for r in range(M.rows):
        live = sorted(j for j in active if r in columns[j])
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: (abs(columns[j][r]), j))
            pivot_col = live[0]
            pivot_val = columns[pivot_col][r]
            rest = []
            for j in live[1:]:
                q = columns[j][r] // pivot_val
                if q:
                    col_axpy(j, pivot_col, -q)
                if r in columns[j]:
                    rest.append(j)
            live = [pivot_col] + rest
        active.discard(live[0])

    basis = []
    for j in sorted(active):
        assert not columns[j], "active column not cleared: elimination bug"
        vec = [0] * M.cols
        for jj, c in tracking[j].items():
            vec[jj] = c
        # deterministic sign: first nonzero coordinate positive
        lead = next((c for c in vec if c), 1)
        if lead < 0:
            vec = [-c for c in vec]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# Homology groups and the sphere battery


def homology_groups(K: Complex) -> tuple[HomologyGroup, ...]:
    """Unreduced integral homology in dimensions ``0..dim K`` via SNF.

    H_0 counts connected components; torsion of H_k comes from the
    invariant factors of the (k+1)-st boundary matrix.
    """
    n = K.dimension
    if n < 0:
        return ()
    snf = {k: smith_normal_form(boundary_matrix(K, k)) for k in range(1, n + 1)}
    counts = [len(faces(K, k)) for k in range(0, n + 1)]
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
    return dict(zip(face_basis(K, n), basis[0]))


LEVEL_NECESSARY = "necessary"
LEVEL_CERTIFY = "certify_low_dim"


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class SphereCheckReport:
    n: int
    level: str
    items: tuple[CheckItem, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "level": self.level,
            "passed": self.passed,
            "checks": [item.as_dict() for item in self.items],
            "notes": list(self.notes),
        }


def _expected_betti(n: int) -> tuple[int, ...]:
    if n == 0:
        return (2,)
    return (1,) + (0,) * (n - 1) + (1,)


def sphere_check(K: Complex, n: int, level: str = LEVEL_NECESSARY) -> SphereCheckReport:
    """Necessary sphere conditions, with recursive link certification
    for n <= 3.

    ``necessary``: closed connected pseudomanifold of dimension n with
    the Euler characteristic and integral homology of the n-sphere.
    ``certify_low_dim`` additionally certifies every vertex link as an
    (n-1)-sphere; for n == 3 the report notes that a closed 3-manifold
    with 3-sphere homology is accepted as certification.  Recognition
    for n >= 4 is out of reach, so certification requests fall back to
    the necessary battery with a note.
    """
    if level == "certify":
        level = LEVEL_CERTIFY
    if level not in (LEVEL_NECESSARY, LEVEL_CERTIFY):
        raise PreconditionFailed(f"unknown level {level!r}")
    items: list[CheckItem] = []
    notes: list[str] = []

    dim_ok = K.dimension == n
    items.append(CheckItem("dimension", dim_ok, f"dim = {K.dimension}, expected {n}"))
    if not dim_ok:
        return SphereCheckReport(n, level, tuple(items), tuple(notes))

    if n == 0:
        two_points = len(K.vertices) == 2 and len(K.facets) == 2
        items.append(CheckItem("two_points", two_points, f"f_0 = {len(K.vertices)}"))
        return SphereCheckReport(n, level, tuple(items), tuple(notes))

    pm = pseudomanifold_check(K)
    items.append(CheckItem("pure", pm.pure))
    items.append(
        CheckItem(
            "closed",
            pm.closed,
            f"{pm.boundary_ridges} boundary ridges"
            if pm.boundary_ridges
            else "every ridge in exactly two facets",
        )
    )
    items.append(CheckItem("connected", pm.connected))
    if not (pm.pure and pm.ridge_bound_ok):
        return SphereCheckReport(n, level, tuple(items), tuple(notes))

    fv, euler = f_vector_and_euler(K)
    expected_euler = 1 + (-1) ** n
    items.append(
        CheckItem(
            "euler",
            euler == expected_euler,
            f"chi = {euler}, expected {expected_euler}",
        )
    )

    groups = homology_groups(K)
    betti = tuple(g.betti for g in groups)
    torsion_free = all(not g.torsion for g in groups)
    expected = _expected_betti(n)
    items.append(
        CheckItem(
            "homology_profile",
            betti == expected and torsion_free,
            f"betti = {betti}, torsion-free = {torsion_free}",
        )
    )

    if level == LEVEL_CERTIFY:
        if n > 3:
            notes.append(
                f"certification is unavailable for n = {n} >= 4; "
                "only the necessary battery ran"
            )
        else:
            bad_links = []
            for vertex in K.vertices:
                lk = link(Simplex((vertex,)), K)
                sub = sphere_check(lk, n - 1, LEVEL_CERTIFY)
                if not sub.passed:
                    bad_links.append(str(vertex))
            items.append(
                CheckItem(
                    "vertex_links",
                    not bad_links,
                    "all vertex links certify as (n-1)-spheres"
                    if not bad_links
                    else f"links failing: {', '.join(bad_links)}",
                )
            )
            if n == 3:
                notes.append(
                    "n = 3: a closed 3-manifold with 3-sphere homology is "
                    "accepted as certification"
                )
    return SphereCheckReport(n, level, tuple(items), tuple(notes))
