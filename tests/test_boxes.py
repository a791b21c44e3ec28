"""Box algebra: scoped interval maps, projection, cylinders, join, hull."""

import math
import random

import pytest

from boxprune import EMPTY, FULL, Box, Interval, empty_box

from helpers import box_hull

INF = math.inf


def test_empty_normalization():
    b = Box({"x": Interval(0.0, 1.0), "y": EMPTY})
    assert b.is_empty
    # every component collapses to the canonical empty interval
    assert b["x"].is_empty
    assert b == empty_box(("x", "y"))


def test_boxes_over_different_scopes_never_equal():
    assert Box({"x": Interval(0.0, 1.0)}) != Box({"y": Interval(0.0, 1.0)})
    assert empty_box(("x",)) != empty_box(("x", "y"))


def test_scope_and_lexicographic_iteration():
    b = Box({"z": FULL, "a": Interval(0.0, 1.0), "m": Interval(2.0, 3.0)})
    assert b.scope == frozenset({"a", "m", "z"})
    assert b.names == ("a", "m", "z")
    assert list(b) == ["a", "m", "z"]
    assert len(b) == 3


def test_getitem_and_get():
    b = Box({"x": Interval(0.0, 1.0)})
    assert b["x"] == Interval(0.0, 1.0)
    assert b.get("missing") is None
    with pytest.raises(KeyError):
        b["missing"]


def test_project_examples():
    b = Box({"x": Interval(0.0, 1.0), "y": Interval(2.0, 3.0)})
    assert b.project(("x",)) == Box({"x": Interval(0.0, 1.0)})
    assert b.project(b.names) == b
    e = empty_box(("x", "y"))
    assert e.project(("y",)) == empty_box(("y",))


def test_project_outside_scope_raises():
    b = Box({"x": Interval(0.0, 1.0)})
    with pytest.raises(ValueError):
        b.project(("x", "q"))


def test_cylinder_examples():
    b = Box({"x": Interval(0.0, 1.0)})
    c = b.cylinder(("x", "z"))
    assert c == Box({"x": Interval(0.0, 1.0), "z": FULL})
    assert b.cylinder(("x",)) == b


def test_cylinder_requires_superset():
    b = Box({"x": Interval(0.0, 1.0), "y": Interval(0.0, 1.0)})
    with pytest.raises(ValueError):
        b.cylinder(("x",))


def test_project_cylinder_round_trip():
    rng = random.Random(3)
    names = ("a", "b", "c")
    for _ in range(50):
        bindings = {}
        for n in names[: rng.randint(1, 3)]:
            lo, hi = sorted(rng.uniform(-4, 4) for _ in range(2))
            bindings[n] = Interval(lo, hi)
        b = Box(bindings)
        big = b.cylinder(("a", "b", "c", "d"))
        assert big.project(b.names) == b


def test_join_examples():
    assert Box({"x": Interval(0.0, 2.0)}).join(
        Box({"x": Interval(1.0, 5.0), "y": Interval(0.0, 1.0)}),
    ) == Box({"x": Interval(1.0, 2.0), "y": Interval(0.0, 1.0)})
    # disjoint scopes give the product
    assert Box({"x": Interval(0.0, 1.0)}).join(Box({"y": Interval(0.0, 1.0)})) == Box(
        {"x": Interval(0.0, 1.0), "y": Interval(0.0, 1.0)}
    )
    # disjoint intervals give the empty box over the union scope
    got = Box({"x": Interval(0.0, 1.0)}).join(Box({"x": Interval(2.0, 3.0)}))
    assert got.is_empty
    assert got.scope == frozenset({"x"})


# box_hull is a helper of the test suite, not a public name


def test_box_hull_examples():
    assert box_hull([Box({"x": Interval(0.0, 1.0)}), Box({"x": Interval(3.0, 4.0)})]) == Box(
        {"x": Interval(0.0, 4.0)}
    )
    single = Box({"x": Interval(1.0, 2.0), "y": Interval(0.0, 0.5)})
    assert box_hull([single]) == single
    assert box_hull(
        [
            Box({"x": Interval(0.0, 1.0), "y": Interval(5.0, 6.0)}),
            Box({"x": Interval(2.0, 3.0), "y": Interval(0.0, 1.0)}),
        ]
    ) == Box({"x": Interval(0.0, 3.0), "y": Interval(0.0, 6.0)})


def test_box_hull_errors():
    with pytest.raises(ValueError):
        box_hull([])
    with pytest.raises(ValueError):
        box_hull([Box({"x": FULL}), Box({"y": FULL})])


def test_encloses_requires_equal_scopes():
    with pytest.raises(ValueError):
        Box({"x": FULL}).encloses(Box({"y": FULL}))


def test_encloses_is_componentwise_subset():
    outer = Box({"x": Interval(0.0, 4.0), "y": Interval(-1.0, 1.0)})
    inner = Box({"x": Interval(1.0, 2.0), "y": Interval(0.0, 0.5)})
    assert outer.encloses(inner)
    assert not inner.encloses(outer)
    assert outer.encloses(empty_box(("x", "y")))
    assert outer.encloses(outer)


def test_with_intervals():
    b = Box({"x": Interval(0.0, 1.0), "y": Interval(0.0, 1.0)})
    got = b.with_intervals({"y": Interval(0.25, 0.5)})
    assert got == Box({"x": Interval(0.0, 1.0), "y": Interval(0.25, 0.5)})
    # original is untouched
    assert b["y"] == Interval(0.0, 1.0)


def test_str_rendering():
    b = Box({"y": EMPTY, "x": Interval(0.0, 1.0)})
    assert str(b) == "{x=empty, y=empty}"
    c = Box({"x": Interval(0.0, 1.0), "y": FULL})
    assert str(c) == "{x=[0.0,1.0], y=[-inf,inf]}"


def test_boxes_are_hashable():
    a = Box({"x": Interval(0.0, 1.0)})
    b = Box({"x": Interval(0.0, 1.0)})
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_json_object_form():
    assert Box({"x": EMPTY}).to_json_obj() is None
    got = Box({"x": Interval(0.5, 1.0), "y": FULL}).to_json_obj()
    assert got == {"x": [0.5, 1.0], "y": ["-inf", "inf"]}


def test_join_is_least_upper_bound_in_information_order():
    # join refines both arguments: its components are subsets of each
    rng = random.Random(5)
    for _ in range(50):
        a0, a1 = sorted(rng.uniform(-4, 4) for _ in range(2))
        b0, b1 = sorted(rng.uniform(-4, 4) for _ in range(2))
        a = Box({"x": Interval(a0, a1)})
        b = Box({"x": Interval(b0, b1)})
        j = a.join(b)
        assert j["x"].is_subset(a["x"])
        assert j["x"].is_subset(b["x"])
        if not j.is_empty:
            # least: any box below both is below the join
            assert a["x"].intersect(b["x"]) == j["x"]
