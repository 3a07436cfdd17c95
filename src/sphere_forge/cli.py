"""Command-line surface: build constructions, compute degrees, verify.

Each leaf command (``build``, ``degree``, and ``verify sphere |
disc-signs | minimality | bundle``) has its own parser.  It declares only
the options its runner reads, binds that runner (``set_defaults(run=...)``)
and gives every option the ``dest`` of the runner parameter it feeds, so
:func:`main` drops ``run``, ``command`` and ``format`` from the parsed
namespace and calls ``run(**rest)`` without naming any option.  The
constructions ``build`` offers, and the flags each one reads, are listed
once in :data:`CONSTRUCTIONS`; ``build`` refuses any other of its flags.

Exit codes: 0 when every requested check passes, 1 when a check fails
(a report that does not pass, or a ``CheckFailed`` error, printed as
``check failed:``), 2 on usage or input errors (a ``PreconditionFailed``
error, ``ValueError`` or ``OSError``).  Usage errors are
``PreconditionFailed`` too: an option the command does not declare, and
every other usage error the parser or a runner finds, is one ``error:``
line on stderr, as an input error is.  Reports render as text by default
or as canonical JSON with ``--format json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NamedTuple

from .complex_core import Complex, f_vector_and_euler, standard_sphere
from .constructions import (
    build_double_cone_sphere,
    build_facet_cone_sphere,
    build_join_cone_sphere,
    build_stacked_sphere,
    verify_bundle,
)
from .disc_delta import build_delta, disc_sign_census
from .errors import CheckFailed, PreconditionFailed
from .formats import (
    bundle_from_json,
    bundle_to_json_obj,
    check_map_domain,
    complex_from_json,
    complex_to_json_obj,
    dumps_canonical,
    map_from_text,
)
from .homology import CheckItem, SphereCheckReport, sphere_check
from .minimality import verify_small_sphere_bounds
from .simplicial_map import (
    ConstructionBundle,
    DegreeReport,
    VertexMap,
    degree_by_counting,
    degree_by_cycle,
)

# name -> (builder, the flags it needs, in argument order); ``delta``
# builds a disc, every other name a ConstructionBundle
CONSTRUCTIONS = {
    "delta": (build_delta, ("d",)),
    "join-cone": (build_join_cone_sphere, ("n", "d")),
    "double-cone": (build_double_cone_sphere, ("n", "d", "variant")),
    "facet-cone": (build_facet_cone_sphere, ("n", "k")),
    "stacked": (build_stacked_sphere, ("n",)),
}


class CommandResult(NamedTuple):
    exit_code: int
    text: str
    data: dict

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return dumps_canonical(self.data)
        return self.text + "\n"


def _check_lines(items) -> list[str]:
    return [f"  [{'pass' if c.ok else 'FAIL'}] {c.name}: {c.detail}" for c in items]


def _sphere_json(report: SphereCheckReport) -> dict:
    return {
        "n": report.n,
        "level": report.level,
        "passed": report.passed,
        "checks": [c._asdict() for c in report.items],
        "notes": list(report.notes),
    }


def _counting_json(report: DegreeReport) -> dict:
    return {
        "degree": report.degree,
        "method": report.method,
        "per_facet": {str(k): v for k, v in report.per_facet.items()},
        "alpha_plus": {str(k): list(map(str, v)) for k, v in report.alpha_plus.items()},
        "alpha_minus": {str(k): list(map(str, v)) for k, v in report.alpha_minus.items()},
        "degenerate_facets": list(map(str, report.degenerate_facets)),
    }


def run_build(
    construction: str,
    n: int | None = None,
    d: int | None = None,
    k: int | None = None,
    variant: str | None = None,
    out: str | None = None,
) -> CommandResult:
    """Build one construction and optionally write it to ``out``."""
    builder, flags = CONSTRUCTIONS[construction]
    given = {"n": n, "d": d, "k": k, "variant": variant}
    for flag, value in given.items():
        if flag in flags and value is None:
            raise PreconditionFailed(f"--{flag} is required for {construction}")
        if flag not in flags and value is not None:
            raise PreconditionFailed(f"--{flag} is not used by {construction}")
    built = builder(*(given[flag] for flag in flags))

    if construction == "delta":
        counts = disc_sign_census(built)
        fv, euler = f_vector_and_euler(built.complex)
        payload = complex_to_json_obj(built.complex, built.signs)
        head = (
            f"delta d={built.d}: {fv[0]} vertices, {fv[2]} triangles "
            f"({counts.positives} positive, {counts.negatives} negative)"
        )
    else:
        fv, euler = f_vector_and_euler(built.source)
        payload = bundle_to_json_obj(built)
        head = (
            f"{built.label}: degree {built.expected_degree}, "
            f"{len(built.source.vertices)} vertices, {len(built.source.facets)} facets"
        )
    text = f"{head}\nf-vector {fv.counts} (chi = {euler})"
    if out:
        Path(out).write_text(dumps_canonical(payload))
        text += f"\nwrote {out}"
    return CommandResult(0, text, payload)


def _adhoc_bundle(K: Complex, f: VertexMap) -> ConstructionBundle:
    """Wrap a raw complex + map for degree computation.

    The target is the standard sphere of matching dimension; bases are
    the least target facet and the least source facet with a
    nondegenerate image (any facet if the map collapses everything).
    Both degree oracles refuse a partial map, in ``check_simplicial``.
    """
    if K.is_empty:
        # no standard sphere has dimension -1
        raise PreconditionFailed("degree needs a nonempty complex, got the empty complex")
    check_map_domain(f, K)
    target = standard_sphere(K.dimension)
    source_base = K.facets[0].vertices
    for facet in K.facets:
        if len({f.get(v) for v in facet.vertices}) == len(facet.vertices):
            source_base = facet.vertices
            break
    return ConstructionBundle(
        source=K,
        target=target,
        vertex_map=f,
        source_base=source_base,
        target_base=target.facets[0].vertices,
        expected_degree=None,
        expected_vertices=len(K.vertices),
        label="ad-hoc",
    )


def _degree_payload(bundle: ConstructionBundle, method: str) -> tuple[dict, list[str], bool]:
    data: dict = {"label": bundle.label, "method": method}
    lines = [f"bundle: {bundle.label}"]
    agree = True
    if method in ("counting", "both"):
        report = degree_by_counting(bundle)
        data["counting"] = _counting_json(report)
        lines.append(f"degree = {report.degree} (counting)")
        for sigma in sorted(report.per_facet):
            plus = ", ".join(f"[{t}]" for t in report.alpha_plus[sigma]) or "-"
            minus = ", ".join(f"[{t}]" for t in report.alpha_minus[sigma]) or "-"
            lines.append(f"  [{sigma}]: alg = {report.per_facet[sigma]}")
            lines.append(f"    alpha+ : {plus}")
            lines.append(f"    alpha- : {minus}")
        if report.degenerate_facets:
            lines.append(
                "  degenerate facets: "
                + ", ".join(f"[{t}]" for t in report.degenerate_facets)
            )
    if method in ("cycle", "both"):
        value = degree_by_cycle(bundle)
        data["cycle"] = value
        lines.append(f"degree = {value} (cycle)")
    if method == "both":
        agree = data["counting"]["degree"] == data["cycle"]
        lines.append("methods agree" if agree else "METHOD DISAGREEMENT")
    data["agree"] = agree
    return data, lines, agree


def run_degree(
    bundle_path: str | None = None,
    complex_path: str | None = None,
    map_path: str | None = None,
    method: str = "both",
) -> CommandResult:
    """Degree of a bundled map, or of a map file against a complex file."""
    if bundle_path and (complex_path or map_path):
        flag = "--in" if complex_path else "--map"
        raise PreconditionFailed(f"{flag} is not used with --bundle")
    if bundle_path:
        bundle = bundle_from_json(Path(bundle_path).read_text())
    else:
        if not (complex_path and map_path):
            raise PreconditionFailed("need --bundle, or both --in and --map")
        K, _ = complex_from_json(Path(complex_path).read_text())
        f = map_from_text(Path(map_path).read_text())
        bundle = _adhoc_bundle(K, f)
    data, lines, agree = _degree_payload(bundle, method)
    return CommandResult(0 if agree else 1, "\n".join(lines), data)


def run_verify_sphere(
    in_path: str, n: int | None = None, level: str = "necessary"
) -> CommandResult:
    """The sphere battery on a complex file, in dimension ``n`` if given."""
    K, _ = complex_from_json(Path(in_path).read_text())
    if n is None and K.is_empty:
        raise PreconditionFailed(
            "sphere check needs --n or a nonempty complex, got the empty complex"
        )
    dim = K.dimension if n is None else n
    report = sphere_check(K, dim, level)
    lines = [f"sphere check (n = {dim}, level = {report.level})", *_check_lines(report.items)]
    lines += (f"  note: {note}" for note in report.notes)
    return CommandResult(0 if report.passed else 1, "\n".join(lines), _sphere_json(report))


def run_verify_disc_signs(d: int) -> CommandResult:
    """The sign census of the disc Delta_d against the paper's counts."""
    disc = build_delta(d)
    counts = disc_sign_census(disc)
    fv, euler = f_vector_and_euler(disc.complex)
    checks = [
        CheckItem("triangles", fv[2] == 3 * d - 2, f"{fv[2]} = 3d-2"),
        CheckItem("positives", counts.positives == 2 * d - 1, f"{counts.positives} = 2d-1"),
        CheckItem("negatives", counts.negatives == d - 1, f"{counts.negatives} = d-1"),
        CheckItem("boundary_in_positive", counts.boundary_in_positive),
        CheckItem("signs_match_orientation", counts.sign_agrees_with_orientation),
        CheckItem("euler", euler == 1, f"chi = {euler}"),
    ]
    ok = all(c.ok for c in checks)
    lines = [f"disc d={d}: {counts.positives} positive, {counts.negatives} negative"]
    data = {"d": d, "checks": [c._asdict() for c in checks], "passed": ok}
    return CommandResult(0 if ok else 1, "\n".join(lines + _check_lines(checks)), data)


def run_verify_minimality(n: int | None = None) -> CommandResult:
    """The exhaustive sweep over the 2-spheres on 4 to 7 vertices."""
    if n not in (None, 2):
        raise PreconditionFailed("verify minimality covers n = 2 only")
    report = verify_small_sphere_bounds()
    sizes = ", ".join(f"v={v}: {c}" for v, c in sorted(report.census_sizes.items()))
    lines = [
        f"census sizes: {sizes}",
        f"independent search orders agree: {report.orders_agree}",
        f"max |degree| by vertex count: "
        + ", ".join(f"{v}: {m}" for v, m in sorted(report.max_degree_by_vertices.items())),
        f"no |degree| 2 with <= 6 vertices: {report.degree2_bound_ok}",
        f"no |degree| 3 with <= 7 vertices: {report.degree3_bound_ok}",
        f"degree 2 attained with 7 vertices: {report.degree2_attained_at_7}",
        f"degree 3 attained with 8 vertices: {report.degree3_attained_at_8}",
    ]
    lines += (f"  COUNTEREXAMPLE (implementation bug): {c}" for c in report.counterexamples)
    return CommandResult(0 if report.passed else 1, "\n".join(lines), report._asdict())


def run_verify_bundle(in_path: str) -> CommandResult:
    """The full battery of :func:`verify_bundle` on a bundle file."""
    bundle = bundle_from_json(Path(in_path).read_text())
    result = verify_bundle(bundle)
    data = {
        "label": bundle.label,
        "checks": [c._asdict() for c in result.checks],
        "passed": result.passed,
        "sphere_check": _sphere_json(result.sphere),
    }
    lines = [f"bundle: {bundle.label}"] + _check_lines(result.checks)
    return CommandResult(0 if result.passed else 1, "\n".join(lines), data)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error: one line, exit 2
        raise PreconditionFailed(message)


def _build_parser() -> argparse.ArgumentParser:
    def leaf(parent, name: str, run, help: str) -> argparse.ArgumentParser:
        command = parent.add_parser(name, help=help)
        command.add_argument("--format", choices=["text", "json"], default="text")
        command.set_defaults(run=run)
        return command

    parser = _Parser(
        prog="sphere-forge",
        description="Build triangulated spheres with prescribed-degree "
        "self-maps, compute degrees two ways, and verify the claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = leaf(sub, "build", run_build, "build a construction")
    build.add_argument("--construction", required=True, choices=list(CONSTRUCTIONS))
    build.add_argument("--n", type=int)
    build.add_argument("--d", type=int)
    build.add_argument("--k", type=int)
    build.add_argument("--variant", choices=["even", "odd"])
    build.add_argument("--out")

    degree = leaf(sub, "degree", run_degree, "compute the degree of a map")
    degree.add_argument("--bundle", dest="bundle_path", metavar="BUNDLE")
    degree.add_argument("--in", dest="complex_path", metavar="IN_PATH")
    degree.add_argument("--map", dest="map_path")
    degree.add_argument("--method", choices=["counting", "cycle", "both"], default="both")

    verify = sub.add_parser("verify", help="run a verification suite")
    target = verify.add_subparsers(required=True)
    sphere = leaf(target, "sphere", run_verify_sphere, "run the sphere battery on a complex")
    sphere.add_argument("--in", dest="in_path", required=True)
    sphere.add_argument("--n", type=int)
    sphere.add_argument("--level", choices=["necessary", "certify"], default="necessary")
    disc = leaf(target, "disc-signs", run_verify_disc_signs, "count the signs of the disc")
    disc.add_argument("--d", type=int, required=True)
    minimality = leaf(target, "minimality", run_verify_minimality, "sweep the small 2-spheres")
    minimality.add_argument("--n", type=int)
    bundle = leaf(target, "bundle", run_verify_bundle, "run every check on a bundle")
    bundle.add_argument("--in", dest="in_path", required=True)
    return parser


def main(argv=None) -> int:
    try:
        kwargs = vars(_build_parser().parse_args(argv))
        run, fmt = kwargs.pop("run"), kwargs.pop("format")
        del kwargs["command"]
        result = run(**kwargs)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (PreconditionFailed, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(result.render(fmt))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
