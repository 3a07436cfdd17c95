"""Structured vertex labels and their total order.

A label is ``base`` (lowercase letters) plus optional indices and an
optional prime marker.  The textual grammar is::

    base            e.g.  a
    base<i>         e.g.  u4          (plain index)
    base<j>_<i>     e.g.  u1_3        (class/index pair)
    ...p            e.g.  u4p, u1_3p  (primed variant)

Indices are decimal without leading zeros, so each label has one
spelling: ``u01`` is refused rather than read as ``u1``.

A label is a ``str`` whose text encodes its sort key, the tuple
``(base, has class, class, has item, item, primed)``, in an
order-preserving way: the base and a space, then each index as ``-``
when absent or as its digit count (one character from ``1`` up) and its
digits, then ``p`` when primed.  So ``u4`` is the text ``u -14`` and
``u1_3p`` is ``u 1113p``.  Two labels compare as their keys compare, an
absent component ordering before any present one, and equality, hashing
and comparison are the string's, done in C, with the hash computed once
per label.  No printed label holds a space, so a label never equals the
text it prints as.  ``str``, ``format`` and ``repr`` print the usual
label; a label used as text in any other way (``json.dumps``, ``+``,
``str.join``) gives its encoded key, so print it first.  Every place the
library needs a "sorted vertex list" uses this order, so it fixes
simplex normal forms and all boundary-operator signs.

Each distinct label's printed text and fields are kept, keyed by its
encoded text, in a table filled as labels are made; the table holds one
entry per distinct label for the life of the process.  Like
:func:`parse_label`, the builder helpers are cached: each hands out one
object per label.
"""

from __future__ import annotations

import re
from functools import cache

_INDEX = "(0|[1-9][0-9]*)"  # no leading zero, so each index has one spelling
_LABEL_RE = re.compile(rf"^([a-z]+)(?:{_INDEX}_{_INDEX}|{_INDEX})?(p)?$")

# encoded text -> (printed text, (base, class_index, item_index, primed))
_DECODED: dict[str, tuple[str, tuple]] = {}


def _encode_index(index: int | None) -> str:
    """``-`` when absent, else the digit count and the digits: without
    leading zeros, more digits mean a larger index, and ``-`` orders
    before every digit count."""
    if index is None:
        return "-"
    digits = str(index)
    return chr(ord("0") + len(digits)) + digits


class VertexLabel(str):
    __slots__ = ()

    def __new__(
        cls,
        base: str,
        class_index: int | None = None,
        item_index: int | None = None,
        primed: bool = False,
    ):
        if not base or not re.fullmatch(r"[a-z]+", base):
            raise ValueError(f"label base must be lowercase letters, got {base!r}")
        if class_index is not None and item_index is None:
            raise ValueError("a class index requires an item index")
        if primed and item_index is None:
            raise ValueError("primed labels need an item index to stay parseable")
        for idx in (class_index, item_index):
            if idx is not None and idx < 0:
                raise ValueError("label indices must be nonnegative")
        mark = "p" if primed else ""
        text = f"{base} {_encode_index(class_index)}{_encode_index(item_index)}{mark}"
        if text not in _DECODED:
            if class_index is not None:
                mid = f"{class_index}_{item_index}"
            else:
                mid = "" if item_index is None else str(item_index)
            fields = (base, class_index, item_index, bool(primed))
            _DECODED[text] = (f"{base}{mid}{mark}", fields)
        return str.__new__(cls, text)

    def __reduce__(self):
        # pickle and copy rebuild a label from its fields, not its text
        return VertexLabel, _DECODED[self][1]

    @property
    def base(self) -> str:
        return _DECODED[self][1][0]

    @property
    def class_index(self) -> int | None:
        return _DECODED[self][1][1]

    @property
    def item_index(self) -> int | None:
        return _DECODED[self][1][2]

    @property
    def primed(self) -> bool:
        return _DECODED[self][1][3]

    def __str__(self) -> str:
        return _DECODED[self][0]

    def __format__(self, spec: str) -> str:
        return format(_DECODED[self][0], spec)

    def __repr__(self) -> str:
        return f"VertexLabel({_DECODED[self][0]!r})"


@cache
def parse_label(text: str) -> VertexLabel:
    """Parse a label string; raises ValueError on anything off-grammar.

    A trailing ``p`` counts as the prime marker only after digits, so a
    purely alphabetic name like ``up`` is a plain base.  Each string is
    parsed once and its (immutable) label shared; a bad string raises
    on every call, since exceptions are not cached.
    """
    m = _LABEL_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad vertex label {text!r}")
    base, cls, item_paired, item_plain, prime = m.groups()
    if cls is not None:
        return VertexLabel(base, int(cls), int(item_paired), prime is not None)
    if item_plain is not None:
        return VertexLabel(base, None, int(item_plain), prime is not None)
    return VertexLabel(base)


@cache
def v_label(i: int) -> VertexLabel:
    """Target-sphere vertex ``v<i>``."""
    return VertexLabel("v", None, i)


@cache
def u_label(i: int, primed: bool = False) -> VertexLabel:
    """Construction vertex ``u<i>`` or its primed twin."""
    return VertexLabel("u", None, i, primed)


@cache
def u_pair(j: int, i: int) -> VertexLabel:
    """Disc vertex ``u<j>_<i>`` (class *j*, position *i*)."""
    return VertexLabel("u", j, i)
