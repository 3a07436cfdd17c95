"""Structured vertex labels and their total order.

A label is ``base`` (lowercase letters) plus optional indices and an
optional prime marker.  The textual grammar is::

    base            e.g.  a
    base<i>         e.g.  u4          (plain index)
    base<j>_<i>     e.g.  u1_3        (class/index pair)
    ...p            e.g.  u4p, u1_3p  (primed variant)

Indices are decimal without leading zeros, so each label has one
spelling: ``u01`` is refused rather than read as ``u1``.  A trailing
``p`` counts as the prime marker only after digits, so a purely
alphabetic name like ``up`` is a plain base.  A label is made from its
text, ``VertexLabel("u1_3")``, which raises ValueError on anything
off-grammar, and pickles and copies as that text.

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
entry per distinct label for the life of the process.
:func:`parse_label` is the constructor, cached, and so are the builder
helpers: each hands out one object per label.
"""

from __future__ import annotations

import re
from functools import cache

_INDEX = "(0|[1-9][0-9]*)"  # no leading zero, so each index has one spelling
_LABEL_RE = re.compile(rf"^([a-z]+)(?:{_INDEX}_{_INDEX}|{_INDEX})?(p)?$")

# encoded text -> (printed text, (base, class_index, item_index, primed))
_DECODED: dict[str, tuple[str, tuple]] = {}


def _encode_index(digits: str | None) -> str:
    """``-`` when absent, else the digit count and the digits: without
    leading zeros, more digits mean a larger index, and ``-`` orders
    before every digit count."""
    if digits is None:
        return "-"
    return chr(ord("0") + len(digits)) + digits


class VertexLabel(str):
    __slots__ = ()

    def __new__(cls, text: str):
        m = _LABEL_RE.fullmatch(text)
        if not m:
            raise ValueError(f"bad vertex label {text!r}")
        base, class_digits, paired_digits, plain_digits, prime = m.groups()
        item_digits = paired_digits or plain_digits
        mark = "p" if prime else ""
        key = f"{base} {_encode_index(class_digits)}{_encode_index(item_digits)}{mark}"
        if key not in _DECODED:
            class_index = None if class_digits is None else int(class_digits)
            item_index = None if item_digits is None else int(item_digits)
            _DECODED[key] = (m[0], (base, class_index, item_index, bool(prime)))
        return str.__new__(cls, key)

    def __reduce__(self):
        # pickle and copy rebuild a label from its printed text
        return VertexLabel, (_DECODED[self][0],)

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
    """The label spelled ``text``, made once per string; raises
    ValueError on anything off-grammar (exceptions are not cached)."""
    return VertexLabel(text)


@cache
def v_label(i: int) -> VertexLabel:
    """Target-sphere vertex ``v<i>``."""
    return VertexLabel(f"v{i}")


@cache
def u_label(i: int, primed: bool = False) -> VertexLabel:
    """Construction vertex ``u<i>`` or its primed twin."""
    return VertexLabel(f"u{i}{'p' if primed else ''}")


@cache
def u_pair(j: int, i: int) -> VertexLabel:
    """Disc vertex ``u<j>_<i>`` (class *j*, position *i*)."""
    return VertexLabel(f"u{j}_{i}")
