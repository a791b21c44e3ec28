"""Boxes: finite maps from variable names to intervals.

A box stands for the Cartesian product of its component intervals over a
fixed scope of variables.  If any component is empty the whole product is
the empty relation over that scope; construction normalizes every component
to the canonical empty interval so all empty boxes over a scope compare
equal.  Iteration and rendering are always in lexicographic variable order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Union

from .interval import EMPTY, FULL, Interval

VarName = str

__all__ = ["VarName", "Box", "box_hull", "top_box", "empty_box"]


class Box:
    __slots__ = ("_ivs",)

    def __init__(self, bindings: Union[Mapping[str, Interval], Iterable[tuple[str, Interval]]]):
        items = dict(bindings)
        if any(iv.is_empty for iv in items.values()):
            items = {v: EMPTY for v in items}
        self._ivs: dict[str, Interval] = {v: items[v] for v in sorted(items)}

    @classmethod
    def _from_sorted(cls, ivs: dict[str, Interval]) -> "Box":
        """Internal: adopt an already-sorted, already-normalized mapping."""
        box = object.__new__(cls)
        box._ivs = ivs
        return box

    @property
    def scope(self) -> frozenset[str]:
        return frozenset(self._ivs)

    @property
    def names(self) -> tuple[str, ...]:
        """Variables in lexicographic order."""
        return tuple(self._ivs)

    @property
    def is_empty(self) -> bool:
        # construction empties every component when any one is empty, so
        # checking a single component suffices
        for iv in self._ivs.values():
            return iv.lo > iv.hi
        return False

    def __getitem__(self, var: str) -> Interval:
        return self._ivs[var]

    def get(self, var: str, default: Interval | None = None) -> Interval | None:
        return self._ivs.get(var, default)

    def __contains__(self, var: object) -> bool:
        return var in self._ivs

    def __iter__(self) -> Iterator[str]:
        return iter(self._ivs)

    def __len__(self) -> int:
        return len(self._ivs)

    def items(self) -> Iterable[tuple[str, Interval]]:
        return self._ivs.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(tuple(self._ivs.items()))

    def __repr__(self) -> str:
        return f"Box({self._ivs!r})"

    def __str__(self) -> str:
        inner = ", ".join(f"{v}={iv}" for v, iv in self._ivs.items())
        return "{" + inner + "}"

    def project(self, variables: Iterable[str]) -> "Box":
        """Restrict to a subset of the scope."""
        vs = tuple(variables)
        missing = [v for v in vs if v not in self._ivs]
        if missing:
            raise ValueError(f"projection outside scope: {missing}")
        return Box({v: self._ivs[v] for v in vs})

    def cylinder(self, variables: Iterable[str]) -> "Box":
        """Extend to a superset of the scope; new variables are unconstrained."""
        vs = set(variables)
        if not vs >= self.scope:
            raise ValueError("cylinder target must be a superset of the scope")
        return Box({v: self._ivs.get(v, FULL) for v in vs})

    def join(self, other: "Box") -> "Box":
        """Intersection of the two products over the union of scopes."""
        merged = dict(self._ivs)
        for v, iv in other.items():
            cur = merged.get(v)
            merged[v] = iv if cur is None else cur.intersect(iv)
        return Box(merged)

    def encloses(self, other: "Box") -> bool:
        """True if `other` is a componentwise subset (same scope required)."""
        if self.scope != other.scope:
            raise ValueError("enclosure comparison requires equal scopes")
        return all(other[v].is_subset(iv) for v, iv in self._ivs.items())

    def with_intervals(self, update: Mapping[str, Interval]) -> "Box":
        """Functional update of some components."""
        merged = dict(self._ivs)
        merged.update(update)
        return Box(merged)

    def to_json_obj(self) -> dict[str, list] | None:
        """JSON form: {"x": [lo, hi], ...}; null for an empty box.

        Infinite bounds serialize as the strings "inf" / "-inf" since JSON
        has no infinity literal.
        """
        if self.is_empty:
            return None
        return {v: [_json_bound(iv.lo), _json_bound(iv.hi)] for v, iv in self._ivs.items()}


def _json_bound(x: float):
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return x


def box_hull(boxes: Iterable[Box]) -> Box:
    """Componentwise hull of a non-empty collection of same-scope boxes."""
    it = iter(boxes)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("box_hull of an empty collection") from None
    hulls = dict(first.items())
    for b in it:
        if b.scope != first.scope:
            raise ValueError("box_hull requires a uniform scope")
        for v in hulls:
            hulls[v] = hulls[v].hull(b[v])
    return Box(hulls)


def top_box(variables: Iterable[str]) -> Box:
    return Box({v: FULL for v in variables})


def empty_box(variables: Iterable[str]) -> Box:
    return Box({v: EMPTY for v in variables})
