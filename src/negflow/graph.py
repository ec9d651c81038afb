"""Weighted directed multigraphs with exact rational arc weights.

Graphs are immutable. Nodes are 0-based integers internally and 1-based in
files; arcs carry stable ids 0..m-1 assigned in file/construction order.
Self-loops and parallel arcs are legal.

Graph file format (one record per line):

    c <free text>              comment, ignored
    p <node_count> <arc_count> exactly one header, before all arcs
    a <tail> <head> <weight>   one arc; nodes 1-based, weight a rational

A rational literal is an optionally negated integer, or ``<int>/<posint>``.
Values are normalized to lowest terms with positive denominator and are
serialized the same way (integers without the ``/1``).

Arc vector files hold one entry per line, ``e <arc_id> <rational>``;
omitted arc ids default to 0.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Sequence

from .errors import ParseError

_INT_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_int(text: str, lineno: int, message: str) -> int:
    """``text`` as an ``int`` if it is ``-?[0-9]+``, else a ParseError; ``int``
    alone would also take ``+``, ``_`` and non-ASCII digits."""
    if _INT_RE.fullmatch(text) is None:
        raise ParseError(lineno, message)
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal; raises ValueError on malformed input."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed rational {text!r}")
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def _scaled(weights: Sequence[Rational]) -> tuple[list[int], int]:
    """The weights times the LCM of their denominators, and that LCM: a sum
    of weights is then one ``int`` sum over the LCM."""
    scale = lcm(*(w.denominator for w in weights))
    return [w.numerator * (scale // w.denominator) for w in weights], scale


@dataclass(frozen=True)
class Arc:
    arc_id: int
    tail: int
    head: int
    weight: Fraction


@dataclass(frozen=True)
class WeightedDigraph:
    """Immutable weighted directed multigraph."""

    node_count: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        if self.node_count < 0:
            raise ValueError("node_count must be nonnegative")
        for pos, arc in enumerate(self.arcs):
            if arc.arc_id != pos:
                raise ValueError(f"arc at position {pos} has id {arc.arc_id}")
            if not (0 <= arc.tail < self.node_count):
                raise ValueError(f"arc {pos}: tail {arc.tail} out of range")
            if not (0 <= arc.head < self.node_count):
                raise ValueError(f"arc {pos}: head {arc.head} out of range")

    @property
    def arc_count(self) -> int:
        return len(self.arcs)


def _successors(arcs: Iterable[Arc]) -> dict[int, list[tuple[int, int]]]:
    """``(arc id, head)`` pairs keyed by tail, in the order of ``arcs``; a
    node without an out-arc among them has no key, so nothing is built per
    declared node."""
    succ: dict[int, list[tuple[int, int]]] = {}
    for arc in arcs:
        succ.setdefault(arc.tail, []).append((arc.arc_id, arc.head))
    return succ


@dataclass(frozen=True, slots=True, init=False)
class ArcVector:
    """Exact vector indexed by arc id, in canonical integer form.

    ``items`` holds the nonzero entries as ``(arc id, numerator)`` pairs
    sorted by arc id, all over the one positive denominator ``den``; the
    gcd of ``den`` and every numerator is 1. So equal vectors have equal
    fields, and equality, hashing and ordering run on ``int``. Dense
    ``Fraction`` entries are the parsing and test boundary:
    ``ArcVector(entries)`` builds from them and ``.entries`` rebuilds them.
    """

    dimension: int
    den: int
    items: tuple[tuple[int, int], ...]

    def __init__(self, entries: Sequence[Rational]) -> None:
        nums, den = _scaled(entries)
        self._set(len(nums), den, [(i, n) for i, n in enumerate(nums) if n])

    @classmethod
    def from_ints(
        cls, dimension: int, den: int, items: Iterable[tuple[int, int]]
    ) -> ArcVector:
        """The vector with entry ``num / den`` at each ``(arc id, num)`` of
        ``items``, which come sorted by arc id with nonzero ``num``;
        ``den`` is nonzero. Any common factor is divided out."""
        v = cls.__new__(cls)
        v._set(dimension, den, items)
        return v

    def _set(
        self, dimension: int, den: int, items: Iterable[tuple[int, int]]
    ) -> None:
        items = tuple(items)
        common = gcd(den, *(n for _, n in items))
        if den < 0:
            common = -common
        if common != 1:
            den //= common
            items = tuple((i, n // common) for i, n in items)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "items", items)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The dense entries, built on each read."""
        dense = [Fraction(0)] * self.dimension
        for i, n in self.items:
            dense[i] = Fraction(n, self.den)
        return tuple(dense)

    def __len__(self) -> int:
        return self.dimension

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.items)


def _dense_key(
    dimension: int, scale: int, row: tuple[int, Iterable[tuple[int, int]]]
) -> list[int]:
    """The entries of the row ``(den, items)`` times ``scale``, a multiple of
    ``den``, as a dense ``int`` list: over one common ``scale`` these compare
    as the dense ``Fraction`` entries do, so they order rows and points."""
    den, items = row
    out = [0] * dimension
    factor = scale // den
    for i, n in items:
        out[i] = n * factor
    return out


def sorted_points(points: Iterable[ArcVector]) -> tuple[ArcVector, ...]:
    """The points in the order of their dense ``Fraction`` entries, compared
    as dense ``int`` vectors over the points' common denominator."""
    points = list(points)
    scale = lcm(*(p.den for p in points))
    return tuple(
        sorted(points, key=lambda p: _dense_key(p.dimension, scale, (p.den, p.items)))
    )


def parse_graph(text: str) -> WeightedDigraph:
    """Parse the graph file format; raises ParseError naming the bad line."""
    node_count: int | None = None
    declared_arcs = 0
    arcs: list[Arc] = []
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if node_count is not None:
                raise ParseError(lineno, "duplicate p header")
            if len(fields) != 3:
                raise ParseError(lineno, "p header needs node and arc counts")
            counts = "p header counts must be integers"
            node_count = _parse_int(fields[1], lineno, counts)
            declared_arcs = _parse_int(fields[2], lineno, counts)
            if node_count < 1:
                raise ParseError(lineno, "node count must be positive")
            if declared_arcs < 0:
                raise ParseError(lineno, "arc count must be nonnegative")
            header_line = lineno
        elif fields[0] == "a":
            if node_count is None:
                raise ParseError(lineno, "arc before p header")
            if len(fields) != 4:
                raise ParseError(lineno, "arc line needs tail, head, weight")
            endpoints = "arc endpoints must be integers"
            tail = _parse_int(fields[1], lineno, endpoints)
            head = _parse_int(fields[2], lineno, endpoints)
            if not (1 <= tail <= node_count):
                raise ParseError(lineno, f"tail {tail} out of range 1..{node_count}")
            if not (1 <= head <= node_count):
                raise ParseError(lineno, f"head {head} out of range 1..{node_count}")
            try:
                weight = parse_rational(fields[3])
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            arcs.append(Arc(len(arcs), tail - 1, head - 1, weight))
        else:
            raise ParseError(lineno, f"unknown record {fields[0]!r}")
    if node_count is None:
        raise ParseError(max(1, len(text.splitlines())), "missing p header")
    if len(arcs) != declared_arcs:
        raise ParseError(
            header_line, f"header declares {declared_arcs} arcs, file has {len(arcs)}"
        )
    return WeightedDigraph(node_count, tuple(arcs))


def serialize_graph(g: WeightedDigraph, comments: Sequence[str] = ()) -> str:
    """Render a graph back to the file format."""
    lines = [f"c {c}" if c else "c" for c in comments]
    lines.append(f"p {g.node_count} {g.arc_count}")
    for arc in g.arcs:
        lines.append(
            f"a {arc.tail + 1} {arc.head + 1} {arc.weight}"
        )
    return "\n".join(lines) + "\n"


def parse_arc_vector(text: str, arc_count: int) -> ArcVector:
    """Parse ``e <arc_id> <rational>`` lines into a vector."""
    entries = [Fraction(0)] * arc_count
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "e" or len(fields) != 3:
            raise ParseError(lineno, "expected 'e <arc_id> <rational>'")
        arc_id = _parse_int(fields[1], lineno, "arc id must be an integer")
        if not (0 <= arc_id < arc_count):
            raise ParseError(lineno, f"arc id {arc_id} out of range 0..{arc_count - 1}")
        if arc_id in seen:
            raise ParseError(lineno, f"duplicate entry for arc {arc_id}")
        seen.add(arc_id)
        try:
            entries[arc_id] = parse_rational(fields[2])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    return ArcVector(tuple(entries))


def _check_arc_ids(g: WeightedDigraph, arc_ids: Iterable[int]) -> list[int]:
    ids = list(arc_ids)
    for arc_id in ids:
        if not (0 <= arc_id < g.arc_count):
            raise ValueError(f"invalid arc id {arc_id}")
    return ids


def characteristic_vector(g: WeightedDigraph, arc_ids: Iterable[int]) -> ArcVector:
    """0/1 vector with ones exactly on the given arc set."""
    ids = sorted(set(_check_arc_ids(g, arc_ids)))
    return ArcVector.from_ints(g.arc_count, 1, [(i, 1) for i in ids])
