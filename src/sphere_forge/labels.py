"""Structured vertex labels and their total order.

A label is ``base`` (lowercase letters) plus optional indices and an
optional prime marker.  The textual grammar is::

    base            e.g.  a
    base<i>         e.g.  u4          (plain index)
    base<j>_<i>     e.g.  u1_3        (class/index pair)
    ...p            e.g.  u4p, u1_3p  (primed variant)

Indices are decimal without leading zeros, so each label has one
spelling: ``u01`` is refused rather than read as ``u1``.

A label is its own sort key: the tuple ``(base, has class, class, has
item, item, primed)``, so comparison, equality and hashing are the
tuple's and an absent component orders before any present one.  Every
place the library needs a "sorted vertex list" uses this order, so it
fixes simplex normal forms and all boundary-operator signs.
"""

from __future__ import annotations

import re
from functools import cache

_INDEX = "(0|[1-9][0-9]*)"  # no leading zero, so each index has one spelling
_LABEL_RE = re.compile(rf"^([a-z]+)(?:{_INDEX}_{_INDEX}|{_INDEX})?(p)?$")


class VertexLabel(tuple):
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
        return tuple.__new__(
            cls,
            (
                base,
                class_index is not None,
                class_index or 0,
                item_index is not None,
                item_index or 0,
                primed,
            ),
        )

    def __getnewargs__(self):
        # pickle and copy rebuild a label from its fields, not its key
        return (self.base, self.class_index, self.item_index, self.primed)

    @property
    def base(self) -> str:
        return self[0]

    @property
    def class_index(self) -> int | None:
        return self[2] if self[1] else None

    @property
    def item_index(self) -> int | None:
        return self[4] if self[3] else None

    @property
    def primed(self) -> bool:
        return self[5]

    def __str__(self) -> str:
        base, has_class, class_index, has_item, item_index, primed = self
        if has_class:
            mid = f"{class_index}_{item_index}"
        elif has_item:
            mid = str(item_index)
        else:
            mid = ""
        return f"{base}{mid}{'p' if primed else ''}"

    def __repr__(self) -> str:
        return f"VertexLabel({str(self)!r})"


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


def v_label(i: int) -> VertexLabel:
    """Target-sphere vertex ``v<i>``."""
    return VertexLabel("v", None, i)


def u_label(i: int, primed: bool = False) -> VertexLabel:
    """Construction vertex ``u<i>`` or its primed twin."""
    return VertexLabel("u", None, i, primed)


def u_pair(j: int, i: int) -> VertexLabel:
    """Disc vertex ``u<j>_<i>`` (class *j*, position *i*)."""
    return VertexLabel("u", j, i)
