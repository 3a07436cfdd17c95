"""File formats: canonical JSON and map files.

JSON is the interchange format.  Serialization is deterministic (sorted
keys, canonical facet order, two-space indent, trailing newline) so that
build -> write -> read -> write round-trips byte-identically.  One
emitter, :func:`dumps_canonical`, writes every JSON file and report; its
output is byte for byte ``json.dumps(payload, indent=2, sort_keys=True)``
plus a newline, but it writes a list of strings with one C-level join
instead of the standard library's pure-Python indenting encoder, and it
writes a vertex label, as a value or a key, as the label prints, where
``json.dumps`` would write the encoded sort key the label's text holds.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping

from .complex_core import Complex, Simplex, make_complex, simplex
from .labels import VertexLabel, parse_label
from .simplicial_map import ConstructionBundle, VertexMap


def _key(key) -> str:
    """A dict key as ``json.dumps`` writes it: numbers, booleans and
    None in their JSON spelling, then quoted.  A label is written as it
    prints."""
    if isinstance(key, str):
        return _quote(str(key))
    if key is None or isinstance(key, (int, float)):
        return _quote(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(value, newline: str) -> str:
    """``value`` at the depth whose line break plus indent is ``newline``.
    Keys sort before they become text, as with ``sort_keys=True``, so
    int keys sort numerically and label keys in label order; tuples are
    written as lists, and labels as they print."""
    if isinstance(value, str):
        return _quote(str(value))
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        body = None
        if VertexLabel not in map(type, value):  # a label must print first
            try:
                body = ("," + inner).join(map(_quote, value))
            except TypeError:  # not a list of strings
                pass
        if body is None:
            body = ("," + inner).join([_encode(x, inner) for x in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        body = ("," + inner).join(
            [_key(k) + ": " + _encode(v, inner) for k, v in sorted(value.items())]
        )
        return "{" + inner + body + newline + "}"
    return json.dumps(value)


def dumps_canonical(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline,
    byte for byte."""
    return _encode(payload, "\n") + "\n"


# ---------------------------------------------------------------------------
# Complex JSON


def complex_to_json_obj(
    K: Complex, orientation: Mapping[Simplex, int] | None = None
) -> dict:
    name = {v: str(v) for v in K.vertices}  # each label becomes text once
    obj = {
        "dimension": K.dimension,
        "vertices": list(name.values()),
        "facets": [list(map(name.__getitem__, facet)) for facet in K.facets],
    }
    if orientation is not None:
        obj["orientation"] = {
            " ".join(map(name.__getitem__, f)): s for f, s in orientation.items()
        }
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
    """The labels a JSON list of strings names.  A list holding anything
    but strings is refused as such, even after a malformed string."""
    if isinstance(value, list):
        try:
            return tuple(map(parse_label, value))
        except (TypeError, ValueError):
            if all(isinstance(t, str) for t in value):
                raise  # a malformed label string
    raise ValueError(f"{what} must be a list of label strings")


def complex_from_json_obj(
    obj, what: str = "complex"
) -> tuple[Complex, dict[Simplex, int] | None]:
    facets = _field(obj, "facets", what, list)
    K = make_complex([_labels(facet, f"{what} facet") for facet in facets])
    if "dimension" in obj and _field(obj, "dimension", what, int) != K.dimension:
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
        known = set(K.facets)
        for key, sign in _field(obj, "orientation", what, dict).items():
            # 1.0 and true compare equal to 1 but are not JSON integers
            if type(sign) is not int or sign not in (1, -1):
                raise ValueError(f"orientation sign must be 1 or -1, got {sign!r}")
            facet = simplex(map(parse_label, key.split()))
            if facet not in known:
                raise ValueError(f"orientation key {key!r} is not a facet")
            if facet in orientation:
                raise ValueError(f"orientation names facet [{facet}] twice")
            orientation[facet] = sign
    return K, orientation


# ---------------------------------------------------------------------------
# Vertex-map files (one "from to" pair per line)


def map_to_text(f: VertexMap) -> str:
    pairs = sorted(f.items())
    return "".join(f"{src} {dst}\n" for src, dst in pairs)


def _assignment(pairs) -> VertexMap:
    """Source -> target from ``(source, target)`` label pairs, refusing
    a source named twice: a file that maps one vertex two ways is
    ambiguous, whichever entry comes last."""
    f = VertexMap()
    for src, dst in pairs:
        if src in f:
            raise ValueError(f"vertex {src} mapped twice")
        f[src] = dst
    return f


def check_map_domain(assignment: Mapping[VertexLabel, VertexLabel], source: Complex) -> None:
    """Refuse a map entry for a vertex the source does not have, so a
    typo in a source label cannot go unnoticed."""
    stray = sorted(set(assignment) - source.vertex_set)
    if stray:
        raise ValueError(f"map entry for vertex {stray[0]}, which is not in the source")


def map_from_text(text: str) -> VertexMap:
    pairs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"map line needs exactly two labels: {line!r}")
        pairs.append(tuple(map(parse_label, tokens)))
    return _assignment(pairs)


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
    if source.dimension != target.dimension:
        raise ValueError(
            f"source has dimension {source.dimension} but target has dimension "
            f"{target.dimension}"
        )
    pairs = [_labels(pair, "a map entry") for pair in _field(obj, "map", "bundle", list)]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("each 'map' entry must be a [from, to] label pair")
    vertex_map = _assignment(pairs)
    check_map_domain(vertex_map, source)
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
        vertex_map=vertex_map,
        source_base=source_base,
        target_base=target_base,
        expected_degree=_field(obj, "expected_degree", "bundle", (int, type(None))),
        expected_vertices=expected_vertices,
        label=_field(obj, "label", "bundle", str) if "label" in obj else "bundle",
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
