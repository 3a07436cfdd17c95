import copy
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from sphere_forge.labels import VertexLabel, parse_label, u_label, u_pair, v_label


@pytest.mark.parametrize(
    "text,fields",
    [
        ("a", ("a", None, None, False)),
        ("u4", ("u", None, 4, False)),
        ("u4p", ("u", None, 4, True)),
        ("u1_3", ("u", 1, 3, False)),
        ("u1_3p", ("u", 1, 3, True)),
        ("up", ("up", None, None, False)),
        ("up4", ("up", None, 4, False)),
    ],
)
def test_parse(text, fields):
    lab = parse_label(text)
    assert (lab.base, lab.class_index, lab.item_index, lab.primed) == fields
    assert str(lab) == text


@pytest.mark.parametrize(
    "bad", ["", "Q", "U4", "u_3", "4u", "u4pp", "u1_", "u-3", "u01", "u00", "u1_03", "u01p"]
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_label(bad)


def test_order_absent_before_present():
    # a plain index sorts before any class/index pair with the same base
    assert u_label(4) < u_pair(1, 1) < u_pair(1, 2) < u_pair(2, 1)
    assert u_label(4) < u_label(4, primed=True) < u_label(5)
    assert parse_label("a") < parse_label("a1")
    assert v_label(1) < v_label(2)
    assert u_label(9) < v_label(1)  # base first


def test_builder_helpers_make_each_label_once():
    assert u_label(4) is u_label(4)
    assert u_pair(2, 3) is u_pair(2, 3)
    assert v_label(1) is v_label(1)


def spelled_labels(bases, classes, items):
    """Labels made from their text: a base, an optional class index, an
    item index, an optional prime."""
    return st.builds(
        "{}{}{}{}".format,
        st.sampled_from(bases),
        st.sampled_from(["", *(f"{j}_" for j in classes)]),
        st.sampled_from(items),
        st.sampled_from(["", "p"]),
    ).map(VertexLabel)


label_strategy = spelled_labels(["a", "u", "v", "w", "zz"], range(10), range(31))


@given(label_strategy)
def test_round_trip(lab):
    assert parse_label(str(lab)) == lab


@given(st.from_regex(r"[a-z]+([0-9]+(_[0-9]+)?p?)?", fullmatch=True))
def test_each_label_has_one_spelling(text):
    """A string is refused exactly when an index has a leading zero, and
    a label read from any other string prints back as that string."""
    leading_zero = re.search(r"(?<![0-9])0[0-9]", text) is not None
    try:
        lab = parse_label(text)
    except ValueError:
        assert leading_zero
    else:
        assert not leading_zero and str(lab) == text


@given(label_strategy, label_strategy)
def test_order_is_total(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


def documented_key(lab):
    return (
        lab.base,
        lab.class_index is not None,
        lab.class_index or 0,
        lab.item_index is not None,
        lab.item_index or 0,
        lab.primed,
    )


# small domains, so that equal labels come up often
small_labels = st.one_of(
    spelled_labels(["a", "u", "up"], range(3), range(3)),
    st.from_regex(r"(a|u|up)([0-2](_[0-2])?p?)?", fullmatch=True).map(parse_label),
)


def documented_text(lab):
    """The encoding the labels module documents, spelled out here on
    its own: base, a space, each index as ``-`` or digit count and
    digits, then ``p`` when primed."""

    def index(i):
        return "-" if i is None else chr(ord("0") + len(str(i))) + str(i)

    return f"{lab.base} {index(lab.class_index)}{index(lab.item_index)}{'p' * lab.primed}"


@given(small_labels, small_labels)
def test_label_is_its_documented_key(a, b):
    """A label equals and hashes as its encoded text, and orders and
    compares as the documented tuple key."""
    text = documented_text(a)
    assert type(text) is str and a == text and hash(a) == hash(text)
    assert str(a) != text and str(a) not in (a, b)
    assert (a < b) == (documented_key(a) < documented_key(b))
    assert (a <= b) == (documented_key(a) <= documented_key(b))
    assert (a == b) == (documented_key(a) == documented_key(b))
    if documented_key(a) == documented_key(b):
        assert hash(a) == hash(b)


@given(label_strategy)
def test_label_prints_and_pickles_as_its_text(lab):
    """str, format and repr print the usual label; pickle and copy
    rebuild it from that text."""
    text = str(lab)
    assert type(text) is str and f"{lab}" == text and "%s" % lab == text
    assert f"{lab:>12}" == f"{text:>12}" and repr(lab) == f"VertexLabel({text!r})"
    assert lab.__reduce__() == (VertexLabel, (text,))
    copies = [pickle.loads(pickle.dumps(lab, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in [*copies, copy.copy(lab), copy.deepcopy(lab)]:
        assert type(back) is VertexLabel and back == lab and str(back) == text
        assert (back.base, back.class_index, back.item_index, back.primed) == (
            lab.base,
            lab.class_index,
            lab.item_index,
            lab.primed,
        )
