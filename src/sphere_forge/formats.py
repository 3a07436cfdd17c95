"""File formats: facet-list text, canonical JSON, and map files.

JSON is the interchange format; the text facet list exists for fixtures
and eyeballing.  Serialization is deterministic (sorted keys, canonical
facet order, two-space indent, trailing newline) so that build -> write
-> read -> write round-trips byte-identically.
"""

from __future__ import annotations

import json
from typing import Mapping

from .complex_core import Complex, Simplex, make_complex, simplex
from .constructions import ConstructionBundle
from .labels import VertexLabel, parse_label
from .simplicial_map import VertexMap


def dumps_canonical(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Facet-list text format


def complex_to_text(K: Complex) -> str:
    """One facet per line, labels separated by single spaces."""
    return "".join(f"{facet}\n" for facet in K.facets)


def complex_from_text(text: str) -> Complex:
    facets = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        facets.append([parse_label(tok) for tok in line.split()])
    return make_complex(facets)


# ---------------------------------------------------------------------------
# Complex JSON


def complex_to_json_obj(
    K: Complex, orientation: Mapping[Simplex, int] | None = None
) -> dict:
    obj = {
        "dimension": K.dimension,
        "vertices": [str(v) for v in K.vertices],
        "facets": [[str(v) for v in facet.vertices] for facet in K.facets],
    }
    if orientation is not None:
        obj["orientation"] = {str(f): s for f, s in orientation.items()}
    return obj


def _field(obj, key: str, what: str, kind=object):
    """``obj[key]``, raising a one-line ValueError unless ``obj`` is a
    JSON object whose ``key`` holds a ``kind``.  No field is a boolean,
    so ``true`` and ``false`` never pass as the integers 1 and 0."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    if key not in obj or not isinstance(obj[key], kind) or isinstance(obj[key], bool):
        raise ValueError(f"{what} needs a valid {key!r} field")
    return obj[key]


def _labels(value, what: str) -> tuple[VertexLabel, ...]:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise ValueError(f"{what} must be a list of label strings")
    return tuple(parse_label(t) for t in value)


def complex_from_json_obj(
    obj, what: str = "complex"
) -> tuple[Complex, dict[Simplex, int] | None]:
    facets = _field(obj, "facets", what, list)
    K = make_complex([_labels(facet, f"{what} facet") for facet in facets])
    if K.dimension != obj.get("dimension", K.dimension):
        raise ValueError(
            f"dimension field {obj['dimension']!r} does not match facets (dim {K.dimension})"
        )
    declared = obj.get("vertices")
    if declared is not None and sorted(_labels(declared, f"{what} vertices")) != list(
        K.vertices
    ):
        raise ValueError("vertices field does not match the facet list")
    orientation = None
    if "orientation" in obj:
        orientation = {}
        for key, sign in _field(obj, "orientation", what, dict).items():
            if sign not in (1, -1):
                raise ValueError(f"orientation sign must be 1 or -1, got {sign!r}")
            orientation[simplex(parse_label(tok) for tok in key.split())] = sign
    return K, orientation


# ---------------------------------------------------------------------------
# Vertex-map files (one "from to" pair per line)


def map_to_text(f: VertexMap) -> str:
    pairs = sorted(f.assignment.items())
    return "".join(f"{src} {dst}\n" for src, dst in pairs)


def map_from_text(text: str) -> VertexMap:
    assignment: dict[VertexLabel, VertexLabel] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"map line needs exactly two labels: {line!r}")
        src, dst = (parse_label(t) for t in tokens)
        if src in assignment:
            raise ValueError(f"vertex {src} mapped twice")
        assignment[src] = dst
    return VertexMap(assignment)


# ---------------------------------------------------------------------------
# Bundle JSON


def bundle_to_json_obj(bundle: ConstructionBundle) -> dict:
    return {
        "source": complex_to_json_obj(bundle.source),
        "target": complex_to_json_obj(bundle.target),
        "map": [
            [str(src), str(dst)] for src, dst in sorted(bundle.vertex_map.items())
        ],
        "source_base": [str(v) for v in bundle.source_base],
        "target_base": [str(v) for v in bundle.target_base],
        "expected_degree": bundle.expected_degree,
        "expected_vertices": bundle.expected_vertices,
        "label": bundle.label,
    }


def bundle_from_json_obj(obj) -> ConstructionBundle:
    source, _ = complex_from_json_obj(_field(obj, "source", "bundle"), "source")
    target, _ = complex_from_json_obj(_field(obj, "target", "bundle"), "target")
    pairs = _field(obj, "map", "bundle", list)
    assignment = dict(_labels(pair, "a map entry") for pair in pairs)
    source_base = _labels(_field(obj, "source_base", "bundle"), "source_base")
    if "target_base" in obj:
        target_base = _labels(obj["target_base"], "target_base")
    else:
        # files written before target_base was stored pinned it to the
        # lexicographically least target facet
        target_base = target.facets[0].vertices
    # files written before expected_vertices was stored promised the
    # vertex count they have
    expected_vertices = len(source.vertices)
    if "expected_vertices" in obj:
        expected_vertices = _field(obj, "expected_vertices", "bundle", int)
    return ConstructionBundle(
        source=source,
        target=target,
        vertex_map=VertexMap(assignment),
        source_base=source_base,
        target_base=target_base,
        expected_degree=_field(obj, "expected_degree", "bundle", (int, type(None))),
        expected_vertices=expected_vertices,
        label=str(obj.get("label", "bundle")),
    )


def bundle_to_json(bundle: ConstructionBundle) -> str:
    return dumps_canonical(bundle_to_json_obj(bundle))


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def bundle_from_json(text: str) -> ConstructionBundle:
    return bundle_from_json_obj(_parse_json(text))


def complex_to_json(K: Complex, orientation=None) -> str:
    return dumps_canonical(complex_to_json_obj(K, orientation))


def complex_from_json(text: str) -> tuple[Complex, dict[Simplex, int] | None]:
    return complex_from_json_obj(_parse_json(text))
