"""The three seeded workloads and the checks on every output.

Each workload is a list of items; an item is one bundle (sweep, large)
or one survey or minimality-sweep call (minimality).  The seed shuffles
the item order and relabels each source sphere by a random permutation
of its own vertex labels, carried through the map and the base facet.
Relabelling keeps every expected answer but changes the facet order the
homology engine pivots over, so compare runs only at equal seeds.

All calls go through module attributes looked up at call time, so the
wrappers a Tracer installs see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

from sphere_forge import (
    complex_core as CC,
    constructions as C,
    formats as F,
    homology as H,
    minimality as M,
    orientation as O,
    simplicial_map as SM,
)
from sphere_forge.labels import v_label

_PACKAGE_DIR = Path(CC.__file__).resolve().parent


class CheckFailed(Exception):
    """An output was wrong; ``layer`` names the module that produced it."""

    def __init__(self, layer: str, message: str):
        super().__init__(message)
        self.layer = layer


def check(ok: bool, layer: str, message: str) -> None:
    if not ok:
        raise CheckFailed(layer, message)


def relabel(bundle, rng: random.Random):
    """The same bundle with the source's labels permuted among themselves."""
    old = list(bundle.source.vertices)
    new = old[:]
    rng.shuffle(new)
    sigma = dict(zip(old, new))
    facets = sorted(
        CC.Simplex(tuple(sorted(sigma[v] for v in f.vertices)))
        for f in bundle.source.facets
    )
    return replace(
        bundle,
        source=CC.Complex(tuple(facets)),
        vertex_map=SM.VertexMap({sigma[v]: w for v, w in bundle.vertex_map.items()}),
        source_base=tuple(sigma[v] for v in bundle.source_base),
    )


def round_trip(bundle):
    """Bundle JSON write -> read -> write; the two writes must be identical."""
    text = F.bundle_to_json(bundle)
    back = F.bundle_from_json(text)
    check(F.bundle_to_json(back) == text, "formats", "bundle JSON round trip differs")
    return back


def verify(bundle, expected_vertices: int) -> int:
    """The verify-bundle battery; returns the degree both oracles agree on."""
    K = bundle.source
    n = K.dimension
    check(
        len(K.vertices) == expected_vertices,
        "constructions",
        f"{len(K.vertices)} vertices, promised {expected_vertices}",
    )
    level = "certify_low_dim" if n <= 3 else "necessary"
    check(H.sphere_check(K, n, level).passed, "homology", f"sphere_check ({level}) failed")
    counting = SM.degree_by_counting(bundle).degree
    cycle = SM.degree_by_cycle(bundle)
    check(counting == cycle, "simplicial_map", f"counting {counting} != cycle {cycle}")
    base = CC.simplex(bundle.source_base)
    chain = O.fundamental_cycle(O.coherent_orientation(K, base, 1)).coefficients
    kernel = H.top_kernel_generator(K)
    flip = 1 if kernel[base] == chain[base] else -1
    check(
        all(chain[s] == flip * kernel[s] for s in chain) and len(chain) == len(kernel),
        "orientation",
        "fundamental cycle differs from the kernel generator",
    )
    return counting


def bundle_item(builder: str, args: tuple, rng: random.Random):
    """Build, relabel, round-trip through JSON and verify one bundle."""

    def run():
        built = getattr(C, builder)(*args)
        bundle = round_trip(relabel(built, rng))
        got = verify(bundle, built.expected_vertices)
        want = built.expected_degree
        check(got == want, "simplicial_map", f"degree {got}, expected {want}")

    return run


def survey_item(builder: str, args: tuple, rng: random.Random):
    """Exhaustive map survey of a construction's source; the best degree
    must be 3, and its witness must pass the battery as a bundle."""

    def run():
        built = getattr(C, builder)(*args)
        K = relabel(built, rng).source
        best, witness = M.max_abs_degree(K)
        check(best == 3 and witness is not None, "minimality", f"max |degree| {best}")
        bundle = C.ConstructionBundle(
            source=K,
            target=CC.standard_sphere(2),
            vertex_map=witness,
            source_base=K.facets[0].vertices,
            target_base=(v_label(1), v_label(2), v_label(3)),
            expected_degree=None,
            expected_vertices=built.expected_vertices,
            label=f"witness for {built.label}",
        )
        got = verify(round_trip(bundle), built.expected_vertices)
        check(abs(got) == 3, "minimality", f"witness has degree {got}")

    return run


def minimality_sweep_item() -> None:
    report = M.verify_small_sphere_bounds()
    check(
        report.census_sizes == {4: 1, 5: 1, 6: 2, 7: 5},
        "minimality",
        f"census sizes {report.census_sizes}",
    )
    check(
        report.max_degree_by_vertices == {4: 1, 5: 1, 6: 1, 7: 2},
        "minimality",
        f"max degrees {report.max_degree_by_vertices}",
    )
    check(report.passed, "minimality", "minimality report did not pass")


SWEEP = (
    [("build_join_cone_sphere", (n, d)) for n in range(2, 6) for d in range(1, 9)]
    + [
        ("build_double_cone_sphere", (n, d, variant))
        for n in range(3, 6)
        for d in range(1, 5)
        for variant in ("even", "odd")
    ]
    + [("build_facet_cone_sphere", (n, k)) for n in range(2, 7) for k in range(2, n + 1)]
    + [("build_stacked_sphere", (n,)) for n in range(2, 7)]
)

LARGE = (
    ("build_join_cone_sphere", (5, 32)),
    ("build_double_cone_sphere", (5, 4, "odd")),
)

SURVEYS = (
    ("build_stacked_sphere", (2,)),
    ("build_join_cone_sphere", (2, 3)),
)


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], None]


def items(workload: str, rng: random.Random) -> list[Item]:
    """The workload's items in seeded order."""
    if workload in ("sweep", "large"):
        specs = SWEEP if workload == "sweep" else LARGE
        out = [
            Item(f"{b} {a}", bundle_item(b, a, random.Random(rng.random())))
            for b, a in specs
        ]
    elif workload == "minimality":
        out = [Item("verify_small_sphere_bounds", minimality_sweep_item)] + [
            Item(f"survey {b} {a}", survey_item(b, a, random.Random(rng.random())))
            for b, a in SURVEYS
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


def raising_layer(exc: BaseException) -> str:
    """The sphere_forge module of the innermost frame the error passed
    through, or ``perfbench`` when it came from the benchmark itself."""
    layer = "perfbench"
    tb = exc.__traceback__
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename).resolve()
        if path.parent == _PACKAGE_DIR:
            layer = path.stem
        tb = tb.tb_next
    return layer


@dataclass
class Outcome:
    name: str
    seconds: float
    layer: str | None = None  # module blamed for a failure
    detail: str = ""


def run_items(todo: list[Item], clock: Callable[[], float] = perf_counter) -> list[Outcome]:
    """Run every item, timed by ``clock``; a wrong or raising item is
    recorded, not fatal."""
    outcomes = []
    for item in todo:
        start = clock()
        try:
            item.run()
            outcome = Outcome(item.name, 0.0)
        except CheckFailed as exc:
            outcome = Outcome(item.name, 0.0, exc.layer, str(exc))
        except Exception as exc:  # a crash inside the program is a failed item
            outcome = Outcome(
                item.name, 0.0, raising_layer(exc), f"{type(exc).__name__}: {exc}"
            )
        outcome.seconds = clock() - start
        outcomes.append(outcome)
    return outcomes
