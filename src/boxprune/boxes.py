"""Boxes: finite maps from variable names to intervals.

A box stands for the Cartesian product of its component intervals over a
fixed scope of variables.  If any component is empty the whole product is
the empty relation over that scope; construction normalizes every component
to the canonical empty interval so all empty boxes over a scope compare
equal.  Iteration and rendering are always in lexicographic variable order.

A box is its bound lists: a name -> slot map in name order, shared by the
boxes of one Csp, and the lower and upper bounds by slot, which the engines,
the search and the Krawczyk step work on directly.  No list is changed once
a box owns it, so boxes may share them.  Intervals are built on request.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping
from typing import Union

from .interval import _INF, EMPTY, FULL, Interval, _fmt, _raw

__all__ = ["Box", "empty_box"]


class Box:
    __slots__ = ("_slot", "_lo", "_hi")

    def __init__(self, bindings: Union[Mapping[str, Interval], Iterable[tuple[str, Interval]]]):
        items = dict(bindings)
        names = sorted(items)
        ivs = [items[v] for v in names]
        if any(iv.is_empty for iv in ivs):
            ivs = [EMPTY] * len(ivs)
        self._slot: dict[str, int] = {v: s for s, v in enumerate(names)}
        self._lo: list[float] = [iv.lo for iv in ivs]
        self._hi: list[float] = [iv.hi for iv in ivs]

    @classmethod
    def _adopt(cls, slot: dict[str, int], lo: list[float], hi: list[float]) -> "Box":
        """Internal: a box over the name-ordered map ``slot`` that owns the
        canonical bound lists ``lo`` and ``hi``; nobody changes them after."""
        box = object.__new__(cls)
        box._slot, box._lo, box._hi = slot, lo, hi
        return box

    def _emptied(self) -> "Box":
        """Internal: the empty box over this box's map."""
        n = len(self._slot)
        return Box._adopt(self._slot, [_INF] * n, [-_INF] * n)

    @property
    def scope(self) -> frozenset[str]:
        return frozenset(self._slot)

    @property
    def names(self) -> tuple[str, ...]:
        """Variables in lexicographic order."""
        return tuple(self._slot)

    @property
    def is_empty(self) -> bool:
        # construction empties every component when any one is empty, so
        # checking a single component suffices
        return bool(self._lo) and self._lo[0] > self._hi[0]

    def __getitem__(self, var: str) -> Interval:
        s = self._slot[var]
        lo = self._lo[s]
        hi = self._hi[s]
        return EMPTY if lo > hi else _raw(lo, hi)

    def get(self, var: str, default: Interval | None = None) -> Interval | None:
        return self[var] if var in self._slot else default

    def __contains__(self, var: object) -> bool:
        return var in self._slot

    def __iter__(self) -> Iterator[str]:
        return iter(self._slot)

    def __len__(self) -> int:
        return len(self._slot)

    def items(self) -> list[tuple[str, Interval]]:
        return [(v, self[v]) for v in self._slot]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        # both maps are in name order, so equal key sets mean equal maps
        return self._lo == other._lo and self._hi == other._hi and self._slot.keys() == other._slot.keys()

    def __hash__(self) -> int:
        return hash((tuple(self._slot), tuple(self._lo), tuple(self._hi)))

    def __repr__(self) -> str:
        return f"Box({dict(self.items())!r})"

    def __str__(self) -> str:
        return _bindings_text(self, self._slot)

    def project(self, variables: Iterable[str]) -> "Box":
        """Restrict to a subset of the scope."""
        vs = tuple(variables)
        missing = [v for v in vs if v not in self._slot]
        if missing:
            raise ValueError(f"projection outside scope: {missing}")
        return Box({v: self[v] for v in vs})

    def cylinder(self, variables: Iterable[str]) -> "Box":
        """Extend to a superset of the scope; new variables are unconstrained."""
        vs = set(variables)
        if not vs >= self.scope:
            raise ValueError("cylinder target must be a superset of the scope")
        return Box({v: self.get(v, FULL) for v in vs})

    def join(self, other: "Box") -> "Box":
        """Intersection of the two products over the union of scopes."""
        merged = dict(self.items())
        for v, iv in other.items():
            cur = merged.get(v)
            merged[v] = iv if cur is None else cur.intersect(iv)
        return Box(merged)

    def encloses(self, other: "Box") -> bool:
        """True if `other` is a componentwise subset (same scope required)."""
        if self.scope != other.scope:
            raise ValueError("enclosure comparison requires equal scopes")
        return all(other[v].is_subset(iv) for v, iv in self.items())

    def with_intervals(self, update: Mapping[str, Interval]) -> "Box":
        """Functional update of some components."""
        merged = dict(self.items())
        merged.update(update)
        return Box(merged)

    def to_json_obj(self) -> dict[str, list] | None:
        """JSON form: {"x": [lo, hi], ...}; null for an empty box.

        Infinite bounds serialize as the strings "inf" / "-inf" since JSON
        has no infinity literal.
        """
        return _bindings_obj(self, self._slot)


def _bindings_text(box: Box, names: Collection[str]) -> str:
    """str of the box projected on the sorted ``names``."""
    return "{" + ", ".join(f"{v}={_fmt(box._lo[box._slot[v]], box._hi[box._slot[v]])}" for v in names) + "}"


def _bindings_obj(box: Box, names: Collection[str]) -> dict[str, list] | None:
    """to_json_obj of the box projected on the sorted ``names``."""
    if names and box.is_empty:
        return None
    return {v: [_json_bound(box._lo[box._slot[v]]), _json_bound(box._hi[box._slot[v]])] for v in names}


def _json_bound(x: float):
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return x


def empty_box(variables: Iterable[str]) -> Box:
    return Box({v: EMPTY for v in variables})
