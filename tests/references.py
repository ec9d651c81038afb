"""References the tests check the library against, and the object-API
glue the tests read them through.

None of them is built from the row helpers in `negflow.characterize` that
they check: the dense builders sum `Fraction` coefficients entry by entry,
`cycle_vertex` reads a `Cycle`'s own `Fraction` weight, and `subgraph`
feeds a fresh cycle enumeration. The vertex certifier drives the library's
fraction-free pivot step with its own elimination loop; the tests check
that loop against a `Fraction` solve.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from negflow.cycles import Cycle, TwoCycle, _two_cycle_pairs
from negflow.graph import Arc, ArcVector, WeightedDigraph
from negflow.polyhedra import HRep, _pivot


def find_two_cycles(
    g: WeightedDigraph, cycles: Sequence[Cycle], cap: int
) -> tuple[TwoCycle, ...]:
    """The 2-cycles among ``cycles`` as `TwoCycle`s, in the order of the
    given cycles, from the library's pair test on their signs; ``cap``
    bounds the sign-mixed pairs."""
    signed = [(c.arc_ids, c.weight.numerator) for c in cycles]
    return tuple(
        TwoCycle(cycles[i], cycles[j], shape)
        for i, j, shape in _two_cycle_pairs(g, signed, cap)
    )


def cycle_vertex(g: WeightedDigraph, cycle: Cycle) -> ArcVector:
    """(-1/w(C)) * chi(C) for one negative cycle, from its weight ``p/q``:
    ``q`` on each of its arcs over ``-p``."""
    num, den = cycle.weight.numerator, cycle.weight.denominator
    assert num < 0, "a vertex needs a negative cycle"
    items = [(i, den) for i in sorted(cycle.arc_ids)]
    return ArcVector.from_ints(g.arc_count, -num, items)


# The dense builders the integer ones replaced: each vector is a tuple of m
# Fractions summed coefficient by coefficient, the set dedupes them and they
# sort by their entries.


def _dense_arc_vector(
    g: WeightedDigraph, terms: list[tuple[Cycle, Fraction]]
) -> tuple[Fraction, ...]:
    entries = [Fraction(0)] * g.arc_count
    for cycle, coeff in terms:
        for arc_id in cycle.arc_ids:
            entries[arc_id] += coeff
    return tuple(entries)


def dense_vertices(g: WeightedDigraph, cycles) -> list[tuple[Fraction, ...]]:
    return sorted(
        {_dense_arc_vector(g, [(c, -1 / c.weight)]) for c in cycles if c.weight < 0}
    )


def dense_directions(
    g: WeightedDigraph, cycles, two_cycles
) -> list[tuple[Fraction, ...]]:
    points = {
        _dense_arc_vector(g, [(c, Fraction(1, c.length))])
        for c in cycles
        if c.weight == 0
    }
    for tc in two_cycles:
        c1, c2 = tc.negative, tc.positive
        denom = c2.weight * c1.length - c1.weight * c2.length
        assert (tc.mu, tc.mu_prime) == (c2.weight / denom, -c1.weight / denom)
        points.add(_dense_arc_vector(g, [(c1, tc.mu), (c2, tc.mu_prime)]))
    return sorted(points)


def dense_line(entries: tuple[Fraction, ...]) -> str:
    return " ".join(f"{i} {v}" for i, v in enumerate(entries) if v)


def _eliminate(matrix: list[list[int]], columns: Sequence[int]) -> list[int]:
    """Gauss-Jordan on ``matrix`` in place with the library's fraction-free
    pivot step, pivoting on ``columns`` in order and skipping each column
    that depends on those before it. Returns the pivot column of each
    leading row, so its length is the rank of ``columns``."""
    pivots: list[int] = []
    prev = 1
    for c in columns:
        row_at = len(pivots)
        r = next((r for r in range(row_at, len(matrix)) if matrix[r][c]), None)
        if r is None:
            continue
        matrix[row_at], matrix[r] = matrix[r], matrix[row_at]
        _pivot(matrix, row_at, c, prev)
        prev = matrix[row_at][c]
        pivots.append(c)
    return pivots


def oracle_certifies_vertex(h: HRep, y: ArcVector) -> bool:
    """The textbook vertex test: ``y`` solves every row, is nonnegative, and
    the columns of its support are linearly independent, so it is the one
    point of the polyhedron with that support."""
    if len(y) != h.dimension:
        raise ValueError("vector dimension does not match H-representation")
    solves = all(
        sum(row[i] * n for i, n in y.items) == row[-1] * y.den for row in h.rows
    )
    support = y.support()
    return (
        solves
        and all(n >= 0 for _, n in y.items)
        and len(_eliminate([list(row) for row in h.rows], support)) == len(support)
    )


def subgraph(g: WeightedDigraph, arc_ids: Iterable[int]) -> WeightedDigraph:
    """Restriction to an arc set and its incident nodes: the union
    enumeration that `is_two_cycle` is checked against runs on it.

    Nodes are relabeled compactly in increasing original order and arcs
    renumbered in increasing original id order.
    """
    ids = sorted(set(arc_ids))
    nodes = sorted({g.arcs[i].tail for i in ids} | {g.arcs[i].head for i in ids})
    remap = {orig: new for new, orig in enumerate(nodes)}
    arcs = tuple(
        Arc(pos, remap[g.arcs[i].tail], remap[g.arcs[i].head], g.arcs[i].weight)
        for pos, i in enumerate(ids)
    )
    return WeightedDigraph(len(nodes), arcs)
