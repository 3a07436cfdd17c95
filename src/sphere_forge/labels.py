"""Structured vertex labels and their total order.

A label is ``base`` (lowercase letters) plus optional indices and an
optional prime marker.  The textual grammar is::

    base            e.g.  a
    base<i>         e.g.  u4          (plain index)
    base<j>_<i>     e.g.  u1_3        (class/index pair)
    ...p            e.g.  u4p, u1_3p  (primed variant)

The total order compares ``(base, class_index, item_index, primed)``
lexicographically with an absent component ordering before any present
one.  Every place the library needs a "sorted vertex list" uses this
order, so it fixes simplex normal forms and all boundary-operator signs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import total_ordering

_LABEL_RE = re.compile(r"^([a-z]+)(?:([0-9]+)_([0-9]+)|([0-9]+))?(p)?$")


@total_ordering
@dataclass(frozen=True)
class VertexLabel:
    base: str
    class_index: int | None = None
    item_index: int | None = None
    primed: bool = False
    # sort key cached because labels are compared constantly
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.base or not re.fullmatch(r"[a-z]+", self.base):
            raise ValueError(f"label base must be lowercase letters, got {self.base!r}")
        if self.class_index is not None and self.item_index is None:
            raise ValueError("a class index requires an item index")
        if self.primed and self.item_index is None:
            raise ValueError("primed labels need an item index to stay parseable")
        for idx in (self.class_index, self.item_index):
            if idx is not None and idx < 0:
                raise ValueError("label indices must be nonnegative")
        object.__setattr__(
            self,
            "_key",
            (
                self.base,
                self.class_index is not None,
                self.class_index or 0,
                self.item_index is not None,
                self.item_index or 0,
                self.primed,
            ),
        )

    def __lt__(self, other: "VertexLabel") -> bool:
        return self._key < other._key

    def __str__(self) -> str:
        if self.class_index is not None:
            mid = f"{self.class_index}_{self.item_index}"
        elif self.item_index is not None:
            mid = str(self.item_index)
        else:
            mid = ""
        return f"{self.base}{mid}{'p' if self.primed else ''}"

    def __repr__(self) -> str:
        return f"VertexLabel({str(self)!r})"


def parse_label(text: str) -> VertexLabel:
    """Parse a label string; raises ValueError on anything off-grammar.

    A trailing ``p`` counts as the prime marker only after digits, so a
    purely alphabetic name like ``up`` is a plain base.
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
