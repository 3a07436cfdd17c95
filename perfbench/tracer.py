"""Layer spans recorded from outside sphere_forge.

The tracer wraps a fixed list of public functions in every
``sphere_forge`` module namespace that binds them, so a call from one
layer into another (``minimality`` calling the ``sphere_check`` it
imported from ``homology``) shows up as a child span.  Spans are kept in
memory and written out by the caller when the pass ends.

A span's self time is its duration minus the time its child spans
cover.  The tracer's own bookkeeping after a call (counters read from
arguments and return values) is charged to no span, so it shows up as
unattributed time instead of inflating the caller's self time.

Counters never fail the program: a counter whose reader raises (the
program changed the attribute it reads) is recorded in ``missing`` and
read no more.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
from collections import Counter
from time import perf_counter

# Public functions the workloads reach, wrapped per layer module.
# Private helpers are not wrapped: their time is part of the public
# caller's self time.
TRACED = {
    "complex_core": (
        "make_complex",
        "union",
        "join",
        "cone",
        "boundary_complex",
        "link",
        "pseudomanifold_check",
        "standard_sphere",
        "f_vector_and_euler",
    ),
    "disc_delta": ("build_delta",),
    "constructions": (
        "build_join_cone_sphere",
        "build_double_cone_sphere",
        "build_facet_cone_sphere",
        "build_stacked_sphere",
    ),
    "orientation": ("coherent_orientation", "fundamental_cycle"),
    "simplicial_map": ("check_simplicial", "degree_by_counting", "degree_by_cycle"),
    "homology": (
        "boundary_matrix",
        "smith_normal_form",
        "kernel_basis",
        "homology_groups",
        "top_kernel_generator",
        "sphere_check",
    ),
    "minimality": (
        "enumerate_2spheres",
        "degree_survey",
        "max_abs_degree",
        "verify_small_sphere_bounds",
        "worker_count",
    ),
    "formats": ("bundle_to_json", "bundle_from_json"),
}

LAYERS = tuple(TRACED)


def _nnz(matrix) -> int:
    return sum(1 for row in matrix.entries for x in row if x)


def _facets_built(args, result, caller):
    return len(result.source.facets)


# Counters read after each call of a traced function: (counter, kind,
# read).  ``read`` gets the call's arguments by parameter name, its
# result and the name of the traced caller.  ``sum`` adds the values,
# ``max`` keeps the largest, ``distinct`` counts distinct values.
COUNTERS = {
    "homology.smith_normal_form": (
        ("homology.snf_rank_total", "sum", lambda a, r, c: r.rank),
        ("homology.snf_input_nnz", "sum", lambda a, r, c: _nnz(a["M"])),
    ),
    "homology.boundary_matrix": (
        ("homology.boundary_matrix_cells", "sum", lambda a, r, c: r.rows * r.cols),
        ("homology.boundary_matrix_inputs", "distinct", lambda a, r, c: (a["K"], a["k"])),
    ),
    "complex_core.pseudomanifold_check": (
        ("complex_core.pseudomanifold_check_inputs", "distinct", lambda a, r, c: a["K"]),
    ),
    "homology.sphere_check": (
        ("homology.link_checks", "sum", lambda a, r, c: int(c == "homology.sphere_check")),
    ),
    "formats.bundle_to_json": (
        ("formats.bundle_json_bytes", "sum", lambda a, r, c: len(r.encode())),
    ),
    "minimality.enumerate_2spheres": (
        ("minimality.census_classes", "sum", lambda a, r, c: len(r)),
    ),
    "minimality.worker_count": (("minimality.survey_workers", "max", lambda a, r, c: r),),
    **{
        f"constructions.{name}": (("constructions.facets_built", "sum", _facets_built),)
        for name in TRACED["constructions"]
    },
}


class Tracer:
    """Span recorder with counters read from arguments and return values."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id or None, name, start, end, self)
        self.counts: Counter = Counter()
        self.missing: dict[str, str] = {}  # function or counter -> reason
        self._distinct: dict[str, set] = {}
        self._ids = itertools.count()
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- counters -----------------------------------------------------------

    def distinct(self, counter: str) -> int:
        return len(self._distinct.get(counter, ()))

    def _count(self, name: str, caller: str | None, args, result) -> None:
        self.counts[name + ".calls"] += 1
        for counter, kind, read in COUNTERS.get(name, ()):
            if counter in self.missing:
                continue
            try:
                value = read(args, result, caller)
                if kind == "sum":
                    self.counts[counter] += value
                elif kind == "max":
                    self.counts[counter] = max(self.counts[counter], value)
                else:
                    self._distinct.setdefault(counter, set()).add(value)  # needs hashable
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                self.missing[counter] = f"{name}: {type(exc).__name__}: {exc}"

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        try:
            signature = inspect.signature(fn) if name in COUNTERS else None
        except (TypeError, ValueError):
            signature = None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0, name]  # id, time children cover, name
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (
                        frame[0],
                        parent[0] if parent else None,
                        name,
                        start,
                        end,
                        end - start - frame[1],
                    )
                )
                if parent is not None:
                    parent[1] += end - start
            try:
                named = signature.bind(*args, **kwargs).arguments if signature else {}
            except TypeError:
                named = {}  # a counter that needs the arguments goes missing
            tracer._count(name, parent[2] if parent else None, named, result)
            if parent is not None:
                parent[1] += perf_counter() - end
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a sphere_forge module binds it.

        A function the program no longer defines is recorded in
        ``missing`` instead of failing the run.
        """
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "sphere_forge" or key.startswith("sphere_forge."))
        ]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"sphere_forge.{layer}")
            for fname in names:
                original = getattr(home, fname, None) if home else None
                qualified = f"{layer}.{fname}"
                if original is None:
                    self.missing[qualified] = f"sphere_forge.{layer} has no {fname}"
                    continue
                wrapper = self._wrap(qualified, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def self_times(self) -> Counter:
        totals: Counter = Counter()
        for _id, _parent, name, _start, _end, self_s in self.spans:
            totals[name] += self_s
        return totals

    def covered(self) -> float:
        """Seconds covered by root spans (those with no traced parent)."""
        return sum(end - start for _id, parent, _n, start, end, _s in self.spans if parent is None)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
