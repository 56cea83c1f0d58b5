"""Text format: cycle parsing, group building, hom resolution, errors."""

from __future__ import annotations

import numpy as np
import pytest

from covercalc import BuildLimits, FiniteGroup, same_group
from covercalc import textio
from covercalc.errors import OrderCapExceeded, ParseError, UnknownReference
from covercalc.textio import (
    evaluate_word,
    hom_from_generator_images,
    parse_source,
    realize_declarations,
)

INTRO = """
# split and non-split covers of the two-element group
group C2
gen t = (1 2)

group V4
gen a = (1 2)
gen b = (3 4)

group C4
gen a = (1 2 3 4)

hom eta0 : V4 -> C2
a -> t
b -> 1

hom eta1 : C4 -> C2
a -> t
"""


def load(text):
    return realize_declarations(*parse_source(text))


def test_intro_objects():
    groups, homs = load(INTRO)
    assert set(groups) == {"C2", "V4", "C4"}
    assert set(homs) == {"eta0", "eta1"}
    assert groups["C2"].order == 2
    assert groups["V4"].order == 4
    assert groups["C4"].order == 4
    assert len(groups) + len(homs) == 5


def test_homs_resolve_correctly():
    groups, homs = load(INTRO)
    eta0, eta1 = homs["eta0"], homs["eta1"]
    assert eta0.is_surjective() and eta1.is_surjective()
    assert len(eta0.kernel().elements) == 2
    assert len(eta1.kernel().elements) == 2
    # eta1's source has an element of order 4, eta0's does not
    assert max(groups["C4"].element_orders()) == 4
    assert max(groups["V4"].element_orders()) == 2


def test_multi_cycle_generator():
    groups, _ = load("group D\ngen r = (1 2 3 4)\ngen s = (1 2)(3 4)\n")
    assert groups["D"].order == 8


def test_points_may_be_comma_separated():
    groups, _ = load("group C3\ngen g = (1, 2, 3)\n")
    assert groups["C3"].order == 3


def test_point_labels_do_not_set_the_degree(monkeypatch):
    # a block's points are numbered 0..k-1 in ascending order before the
    # group is built: a label of 10^6 gives 2 points, not 10^6; a block
    # naming no point keeps one
    degrees = []
    real = textio.build_group

    def spy(perms, **kwargs):
        degrees.append([len(p) for p in perms])
        assert all(len(p) <= 3 for p in perms)  # before any large BFS key
        return real(perms, **kwargs)

    monkeypatch.setattr(textio, "build_group", spy)
    groups, _ = load(
        "group A\ngen a = (1 1000000)\n\n"
        "group B\ngen x = (9 5)(7)\ngen y = (9 7)\n\n"
        "group E\ngen e = ()\n"
    )
    assert degrees == [[2], [3, 3], [1]]
    assert [groups[n].order for n in "ABE"] == [2, 6, 1]
    # the same table as the points 1..3
    s3, _ = load("group B\ngen x = (3 1)(2)\ngen y = (3 2)\n")
    assert np.array_equal(groups["B"].mul, s3["B"].mul)


def test_word_evaluation():
    groups, _ = load(INTRO)
    c4 = groups["C4"]
    gen = c4.generators[0]
    assert evaluate_word(c4, "a a", 1) == int(c4.mul[gen, gen])
    assert evaluate_word(c4, "a^2", 1) == int(c4.mul[gen, gen])
    assert evaluate_word(c4, "a^-1", 1) == int(c4.inv[gen])
    assert evaluate_word(c4, "1", 1) == 0
    assert evaluate_word(c4, "a^4", 1) == 0


def test_word_errors():
    groups, _ = load(INTRO)
    c4 = groups["C4"]
    with pytest.raises(ParseError):
        evaluate_word(c4, "z", 3)
    with pytest.raises(ParseError):
        evaluate_word(c4, "a^", 3)


@pytest.mark.parametrize(
    "text",
    [
        "group X\ngen a = (1 1)",  # repeated point in a cycle
        "group X\ngen a = (1 2)(2 3)",  # point in two cycles
        "group X\ngen a = (1 2",  # unclosed cycle
        "group X\ngen a = (0 1)",  # points are 1-based
        "gen a = (1 2)",  # no header
        "group X\ngen a = (1 2)\ngen a = (3 4)",  # duplicate label
        "group X\ngen a = (1 2)\n\ngroup X\ngen b = (1 2)",  # duplicate name
        "group X\nnonsense line",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        load(text)


def test_non_ascii_digit_is_a_parse_error():
    # '²' passes str.isdigit but int() rejects it
    with pytest.raises(ParseError, match="'²'"):
        load("group X\ngen a = (1 ²)\n")


def test_parse_error_carries_position():
    try:
        load("group X\ngen a = (1 1)\n")
    except ParseError as err:
        assert err.line == 2
        assert err.column >= 1
    else:  # pragma: no cover
        pytest.fail("expected ParseError")


def test_unknown_group_reference():
    with pytest.raises(UnknownReference):
        load("hom f : A -> B\n")


def test_non_homomorphism_rejected():
    bad = INTRO + "\nhom f : V4 -> C4\na -> a\nb -> 1\n"
    with pytest.raises(ParseError):
        load(bad)


def test_missing_generator_image_rejected():
    bad = INTRO + "\nhom f : V4 -> C2\na -> t\n"
    with pytest.raises(ParseError):
        load(bad)


def test_non_generating_image_set_is_fine_if_total():
    # mapping both generators to the identity is the trivial hom
    text = INTRO + "\nhom z : V4 -> C2\na -> 1\nb -> 1\n"
    _, homs = load(text)
    assert (homs["z"].image == 0).all()


def test_order_cap_respected():
    decls = parse_source("group S\ngen a = (1 2 3 4 5)\ngen b = (1 2)\n")
    with pytest.raises(OrderCapExceeded):
        realize_declarations(*decls, limits=BuildLimits(order_cap=30))


def test_known_groups_are_referencable_but_not_shadowable():
    groups, _ = load(INTRO)
    decls = parse_source("hom f : C4 -> C2\na -> t\n")
    _, homs = realize_declarations(*decls, known_groups=groups)
    assert homs["f"].is_surjective()
    with pytest.raises(ParseError):
        realize_declarations(
            *parse_source("group C4\ngen x = (1 2)\n"), known_groups=groups
        )


def test_hom_from_generator_images_direct():
    groups, _ = load(INTRO)
    v4, c2 = groups["V4"], groups["C2"]
    g0, g1 = v4.generators
    t = c2.generators[0]
    hom = hom_from_generator_images(v4, c2, {g0: t, g1: t})
    assert hom.is_surjective()
    assert len(hom.kernel().elements) == 2
    with pytest.raises(ParseError, match="non-generating set"):
        hom_from_generator_images(v4, c2, {g0: t})
    # a of C4 has order 4, so no hom sends an involution to it
    a = groups["C4"].generators[0]
    with pytest.raises(ParseError, match="do not define a homomorphism"):
        hom_from_generator_images(v4, groups["C4"], {g0: a, g1: 0})
    # conflicting and non-generating at once: the conflict is reported
    with pytest.raises(ParseError, match="do not define a homomorphism") as err:
        hom_from_generator_images(v4, groups["C4"], {g0: a}, line=7)
    assert err.value.line == 7


# two labels of one element
TWIN_LABELS = INTRO + """
group D
gen a = (1 2)
gen b = (1 2)

hom f : D -> C2
a -> t
b -> {b}
"""


def test_two_images_of_one_element_rejected_at_the_image_line():
    with pytest.raises(ParseError, match="do not define a homomorphism") as err:
        load(TWIN_LABELS.format(b="1"))
    assert err.value.line == TWIN_LABELS.splitlines().index("b -> {b}") + 1


def test_equal_images_of_one_element_accepted():
    _, homs = load(TWIN_LABELS.format(b="t"))
    assert homs["f"].is_surjective()


def test_same_table_groups_interoperate():
    groups_a, homs_a = load(INTRO)
    groups_b, homs_b = load(INTRO)
    assert same_group(groups_a["C2"], groups_b["C2"])
    assert np.array_equal(homs_a["eta1"].image, homs_b["eta1"].image)


def by_repeated_products(group, word):
    """A word's element, one factor multiplied in at a time."""
    by_label = dict(zip(group.generator_labels, group.generators))
    acc = 0
    for tok in word.split():
        label, _, power = tok.partition("^")
        k = int(power or 1)
        x = by_label[label] if k >= 0 else int(group.inv[by_label[label]])
        for _ in range(abs(k)):
            acc = int(group.mul[acc, x])
    return acc


def test_word_powers_read_no_element_orders(monkeypatch):
    # powers past the order and negative powers are taken by squaring
    # the generator or its inverse, with no table of element orders
    def refuse(self):
        raise AssertionError("element_orders called")

    monkeypatch.setattr(FiniteGroup, "element_orders", refuse)
    words = {
        "C7": ["b^2", "b^9", "b^-1", "b^-9", "b^-16", "b^100 b^-3"],
        "S3": ["r^-5", "r^7 s^-3", "s^5 r^-8 s"],
    }
    text = "group C7\ngen b = (1 2 3 4 5 6 7)\n\ngroup S3\ngen r = (1 2 3)\ngen s = (1 2)\n"
    for i, word in enumerate(words["C7"]):
        text += f"\nhom f{i} : C7 -> C7\nb -> {word}\n"
    groups, homs = load(text)
    c7, s3 = groups["C7"], groups["S3"]
    for i, word in enumerate(words["C7"]):
        assert homs[f"f{i}"](c7.generators[0]) == by_repeated_products(c7, word)
    for word in words["S3"]:
        assert evaluate_word(s3, word, 1) == by_repeated_products(s3, word)
