"""Simple directed cycles: enumeration, 2-cycles, decomposition.

A cycle is a sequence of arcs that visits no node twice; it is stored in
canonical rotation (starting at its smallest arc id) so equal cycles compare
equal. Self-loops are cycles of length 1; parallel arcs yield distinct
cycles over the same node sequence. Johnson's blocked search on arcs lists
them in O((n + m)(c + 1)) time for c cycles, with no strong-component pass.
Decomposition reads only the circulation's support, as integer numerators;
a coefficient becomes a ``Fraction`` only when its term is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import NotACirculation, _Budget
from .graph import ArcVector, WeightedDigraph, _scaled, _successors


class TwoCycleShape(Enum):
    EDGE_DISJOINT = "edge-disjoint"
    THREE_PATH = "three-path"


@dataclass(frozen=True)
class Cycle:
    """Simple cycle in canonical rotation, with its total weight."""

    arc_ids: tuple[int, ...]
    weight: Fraction

    @property
    def length(self) -> int:
        return len(self.arc_ids)


@dataclass(frozen=True)
class TwoCycle:
    """A negative/positive cycle pair whose union contains no other cycle."""

    negative: Cycle
    positive: Cycle
    shape: TwoCycleShape

    @property
    def mu(self) -> Fraction:
        """Coefficient of chi(C1) in the pair's direction: w(C2) / D, where
        D = w(C2) |C1| - w(C1) |C2| > 0."""
        c1, c2 = self.negative, self.positive
        return c2.weight / (c2.weight * c1.length - c1.weight * c2.length)

    @property
    def mu_prime(self) -> Fraction:
        """Coefficient of chi(C2) in the pair's direction: -w(C1) / D."""
        c1, c2 = self.negative, self.positive
        return -c1.weight / (c2.weight * c1.length - c1.weight * c2.length)


@dataclass(frozen=True)
class CycleDecomposition:
    """Positive combination of cycles summing to a circulation."""

    terms: tuple[tuple[Cycle, Fraction], ...]


def _canonical(arc_seq: Sequence[int]) -> tuple[int, ...]:
    k = arc_seq.index(min(arc_seq))
    return tuple(arc_seq[k:]) + tuple(arc_seq[:k])


def make_cycle(g: WeightedDigraph, arc_seq: Sequence[int]) -> Cycle:
    """Build a Cycle from arcs in traversal order (rotation normalized)."""
    ints, scale = _scaled([g.arcs[i].weight for i in arc_seq])
    return Cycle(_canonical(arc_seq), Fraction(sum(ints), scale))


def _iter_arc_cycles(g: WeightedDigraph) -> Iterator[tuple[int, ...]]:
    """Yield every simple cycle once, as arc ids in traversal order.

    Johnson's blocked search, run on arcs: from each start node ``s`` with an
    out-arc, in increasing order, follow arcs to nodes above ``s``; an arc
    into ``s`` closes a cycle. A node left without closing one stays blocked
    until a node it has an arc to is unblocked, so a node that cannot get
    back to ``s`` stays blocked from its first visit on. That bounds the
    walk by O((n + m)(c + 1)) for c cycles without a strong-component pass.
    No ordering guarantee: callers sort canonical forms.
    """
    succ = _successors(g.arcs)
    for start in sorted(succ):
        blocked = {start}
        closed: set[int] = set()  # path nodes a cycle has closed through
        blocked_by: dict[int, set[int]] = {}
        path: list[int] = []
        stack = [(start, iter(succ[start]))]
        while stack:
            node, out = stack[-1]
            for arc_id, head in out:
                if head == start:
                    yield (*path, arc_id)
                    closed.update(v for v, _ in stack)
                elif head > start and head not in blocked:
                    path.append(arc_id)
                    blocked.add(head)
                    closed.discard(head)
                    stack.append((head, iter(succ.get(head, ()))))
                    break
            else:
                stack.pop()
                del path[-1:]  # the arc into ``node``; ``start`` has none
                if node in closed:
                    pending = {node}
                    while pending:
                        v = pending.pop()
                        if v in blocked:
                            blocked.remove(v)
                            pending |= blocked_by.pop(v, set())
                else:
                    for _, head in succ.get(node, ()):
                        blocked_by.setdefault(head, set()).add(node)


def _weighted_cycles(
    g: WeightedDigraph, cap: int
) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Every simple cycle as (canonical arc ids, weight times the graph's
    scale), sorted by arc ids, and that scale: the LCM of the arc-weight
    denominators, so each scaled weight is an ``int``. Raises CapExceeded
    as soon as more than ``cap`` cycles are found."""
    budget = _Budget("cycles", cap, f"graph has more than {cap} cycles")
    ints, scale = _scaled([arc.weight for arc in g.arcs])
    found = []
    for seq in _iter_arc_cycles(g):
        budget.spend(1)
        found.append((_canonical(seq), sum([ints[i] for i in seq])))
    found.sort()  # arc ids are distinct, so the weights are never compared
    return found, scale


def enumerate_cycles(g: WeightedDigraph, cap: int) -> tuple[Cycle, ...]:
    """All simple cycles, canonical and sorted lexicographically by arc ids.

    Weights are summed as integers over the graph's common denominator, so
    each cycle costs one ``Fraction``. Raises CapExceeded as soon as more
    than ``cap`` cycles are found.
    """
    found, scale = _weighted_cycles(g, cap)
    return tuple(Cycle(ids, Fraction(w, scale)) for ids, w in found)


def _masks(g: WeightedDigraph, arc_ids: Iterable[int]) -> tuple[int, int]:
    """Bitmasks of a cycle's arcs and of its nodes."""
    arcs = nodes = 0
    for i in arc_ids:
        arcs |= 1 << i
        nodes |= 1 << g.arcs[i].tail
    return arcs, nodes


def _two_cycle_shape(
    arcs1: int, nodes1: int, arcs2: int, nodes2: int
) -> TwoCycleShape | None:
    """The shape of the union of two distinct simple cycles, given by their
    arc and node masks, or None when the union holds a third cycle."""
    shared_arcs = arcs1 & arcs2
    # Two distinct simple cycles share arcs only as vertex-disjoint directed
    # paths, so their shared part has |nodes| - |arcs| components. At two or
    # more, leaving one component along c2 and coming back along c1 closes a
    # third cycle. At one or none the union is two disjoint cycles, a
    # figure-eight or three internally disjoint paths: exactly c1 and c2.
    if (nodes1 & nodes2).bit_count() - shared_arcs.bit_count() >= 2:
        return None
    return TwoCycleShape.THREE_PATH if shared_arcs else TwoCycleShape.EDGE_DISJOINT


def _two_cycle_pairs(
    g: WeightedDigraph, cycles: Sequence[tuple[Sequence[int], int]], cap: int
) -> list[tuple[int, int, TwoCycleShape]]:
    """The 2-cycles among ``cycles``, given as (arc ids, weight numerator):
    (negative index, positive index, shape), in order of the negative cycle
    and then the positive one. Raises CapExceeded before any pair is tested
    when there are more than ``cap`` sign-mixed pairs."""
    negatives, positives = [], []
    for k, (arc_ids, w) in enumerate(cycles):
        if w:
            (negatives if w < 0 else positives).append((k, *_masks(g, arc_ids)))
    pairs = len(negatives) * len(positives)
    _Budget("two-cycle pairs", cap, f"{pairs} pairs").spend(pairs)
    out = []
    for i, arcs1, nodes1 in negatives:
        for j, arcs2, nodes2 in positives:
            shape = _two_cycle_shape(arcs1, nodes1, arcs2, nodes2)
            if shape is not None:
                out.append((i, j, shape))
    return out


def is_two_cycle(g: WeightedDigraph, c1: Cycle, c2: Cycle) -> TwoCycle | None:
    """Decide the 2-cycle property by counting shared nodes and arcs.

    Requires w(c1) < 0 < w(c2); returns None when the pair is not a
    2-cycle (wrong signs or a third cycle in the union).
    """
    if not c1.weight.numerator < 0 < c2.weight.numerator:
        return None
    shape = _two_cycle_shape(*_masks(g, c1.arc_ids), *_masks(g, c2.arc_ids))
    return None if shape is None else TwoCycle(c1, c2, shape)


def _find_cycle_through(
    g: WeightedDigraph, succ: dict[int, list[tuple[int, int]]], arc_id: int
) -> list[int]:
    """A simple cycle through ``arc_id`` on the arcs in ``succ``: a depth-first
    search from its head back to its tail that tries out-arcs in id order
    and enters each node once."""
    first = g.arcs[arc_id]
    visited: set[int] = set()
    path: list[int] = []
    stack = [iter([(arc_id, first.head)])]
    while stack:
        for i, head in stack[-1]:
            if head == first.tail:
                return [*path, i]
            if head not in visited:
                visited.add(head)
                path.append(i)
                stack.append(iter(succ.get(head, ())))
                break
        else:
            stack.pop()
            del path[-1:]
    raise NotACirculation(f"no cycle through arc {arc_id} in support")


def decompose_circulation(g: WeightedDigraph, y: ArcVector) -> CycleDecomposition:
    """Greedy peeling of a nonnegative circulation into weighted cycles.

    Each round takes the cycle (found deterministically, smallest arc ids
    first) through the smallest-id support arc and subtracts the minimum
    value along it; at least one arc leaves the support per round, so the
    result has at most |support| terms.
    """
    if len(y) != g.arc_count:
        raise ValueError("vector dimension does not match arc count")
    balance: dict[int, int] = {}
    for i, n in y.items:
        if n < 0:
            raise NotACirculation(f"negative value {Fraction(n, y.den)} on arc {i}")
        arc = g.arcs[i]
        balance[arc.tail] = balance.get(arc.tail, 0) + n
        balance[arc.head] = balance.get(arc.head, 0) - n
    unbalanced = [node for node, b in balance.items() if b]
    if unbalanced:
        node = min(unbalanced)
        raise NotACirculation(f"flow conservation violated at node {node}", node=node)
    values = dict(y.items)
    # Positive arcs only: an arc leaves its list when its value reaches 0.
    succ = _successors(g.arcs[i] for i in values)
    terms: list[tuple[Cycle, Fraction]] = []
    # Values only fall, so the smallest positive arc id never decreases.
    for first in values:
        while values[first]:
            seq = _find_cycle_through(g, succ, first)
            coeff = min(values[i] for i in seq)
            for i in seq:
                values[i] -= coeff
                if not values[i]:
                    succ[g.arcs[i].tail].remove((i, g.arcs[i].head))
            terms.append((make_cycle(g, seq), Fraction(coeff, y.den)))
    return CycleDecomposition(tuple(terms))


def format_cycle(cycle: Cycle) -> str:
    ids = " ".join(str(i) for i in cycle.arc_ids)
    return f"C {cycle.weight} : {ids}"
