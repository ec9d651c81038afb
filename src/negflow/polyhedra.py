"""H-representations and an exhaustive exact vertex oracle.

The oracle runs the double-description method (Motzkin et al. 1953; Fukuda
& Prodon 1996) on exact integer rays, with no floating point and no
tolerance anywhere. One run yields a polyhedron's vertices and its extreme
directions (on P, the vertices of P'). An H-representation holds integer
rows, its weight row scaled once by the LCM of the weight denominators. One
fraction-free pivot serves the oracle's nullspace, the vertex certifier and
phase 1. Line rewrites and adjacency scans are charged against one work
budget. The oracle is deliberately independent of the cycle-based
characterization it is used to validate.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import CapExceeded, NegflowError
from .graph import ArcVector, WeightedDigraph, _scaled, sorted_points

# Work units: 1 per vector a line step rewrites (the flipped line counted)
# plus 1 per ray each pair test's adjacency scan reads. The one run on P
# peaks at 447 units on the seed-1 `verify-oracle` benchmark pool (m <= 10)
# and at 23,633 on all 720 8-node, 20-arc graphs of the seed-1
# `directions-dense` pool, so 20-arc graphs fit this cap. The method spends
# about 14 M units per second (2-core x86 VM, Python 3.11), so the default
# cap ends a run within a tenth of a second.
DEFAULT_ORACLE_CAP = 2**20


@dataclass(frozen=True)
class HRep:
    """Integer equalities ``row[:-1] . y = row[-1]`` plus implicit ``y >= 0``
    on all coords: ``dimension`` coefficients, then the right-hand side."""

    dimension: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != self.dimension + 1:
                raise ValueError("row length does not match dimension + 1")
            if not all(isinstance(v, int) for v in row):
                raise ValueError("row entries must be int")


@dataclass(frozen=True)
class VertexSet:
    """Sorted, duplicate-free vertex list; the oracle also fills ``directions``,
    the recession cone's extreme rays scaled to entry sum 1, sorted alike."""

    points: tuple[ArcVector, ...]
    directions: tuple[ArcVector, ...] = ()


class _Budget:
    """Counts work units against a hard cap."""

    def __init__(self, kind: str, cap: int) -> None:
        self.kind = kind
        self.cap = cap
        self.used = 0

    def spend(self, amount: int) -> None:
        self.used += amount
        if self.used > self.cap:
            raise CapExceeded(self.kind, self.cap)


def build_P(g: WeightedDigraph) -> HRep:
    """Flow conservation at every node plus total weight = -1."""
    weights, scale = _scaled([arc.weight for arc in g.arcs])
    rows = _flow_rows(g)
    rows.append((*weights, -scale))
    return HRep(g.arc_count, tuple(rows))


def build_P_prime(g: WeightedDigraph) -> HRep:
    """P's recession slice: flow conservation, weight 0, entries summing to 1."""
    return HRep(g.arc_count, _recession_slice(build_P(g)))


def _recession_slice(h: HRep) -> tuple[tuple[int, ...], ...]:
    """The rows with right-hand side 0, plus entries summing to 1."""
    return (*((*row[:-1], 0) for row in h.rows), (1,) * (h.dimension + 1))


def _flow_rows(g: WeightedDigraph) -> list[tuple[int, ...]]:
    """Per node: +1 on out-arcs, -1 on in-arcs (a loop nets 0), rhs 0."""
    rows = [[0] * (g.arc_count + 1) for _ in range(g.node_count)]
    for arc in g.arcs:
        rows[arc.tail][arc.arc_id] += 1
        rows[arc.head][arc.arc_id] -= 1
    return [tuple(row) for row in rows]


def _pivot(matrix: list[list[int]], row: int, col: int, prev: int) -> None:
    """Fraction-free Gauss-Jordan step (Bareiss): clear ``col`` from every
    other row by ``(p * other - f * pivot_row) // prev``, where ``p`` is the
    new pivot and ``prev`` the previous one (1 at the first step); rows with
    a zero in ``col`` are scaled by ``p / prev``. Every division is exact,
    and each row is then ``p`` times its counterpart in the rational
    tableau, so the two share zero patterns and signs when ``p > 0``."""
    pivot_row = matrix[row]
    p = pivot_row[col]
    for r, other in enumerate(matrix):
        if r == row:
            continue
        f = other[col]
        if f:
            matrix[r] = [(p * a - f * b) // prev for a, b in zip(other, pivot_row)]
        elif p != prev:
            matrix[r] = [p * a // prev for a in other]


def _eliminate(
    matrix: list[list[int]], columns: Sequence[int]
) -> tuple[list[int], int]:
    """Gauss-Jordan on ``matrix`` in place, pivoting on ``columns`` in order
    and skipping each column that depends on those before it. Returns the
    pivot column of each leading row and the last pivot (1 if none), which
    every leading row then holds at its pivot column."""
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
    return pivots, prev


def _reduced(v: list[int]) -> list[int]:
    """``v`` divided by the gcd of its entries."""
    g = gcd(*v)
    return v if g == 1 else [x // g for x in v]


def _combine(a: int, v: list[int], b: int, w: list[int]) -> list[int]:
    """``a * v - b * w``, reduced."""
    return _reduced([a * x - b * y for x, y in zip(v, w)])


def oracle_vertices(h: HRep, cap: int = DEFAULT_ORACLE_CAP) -> VertexSet:
    """Vertices and extreme directions by double description on integer rays.

    The extreme rays of the cone ``{(y, t): A y - t b = 0, y >= 0, t >= 0}``
    with ``t > 0`` are the vertices ``y / t``; those with ``t = 0`` are the
    recession cone's, divided by their entry sums into ``directions``.
    Starting from a nullspace basis of ``[A | -b]`` as lines, the
    inequalities ``y_0, ..., y_{m-1}, t >= 0`` are added one at a time, each
    ray keeping the mask of those it meets with equality. A line nonzero on
    the new inequality is oriented positive there, cancels that coordinate
    in every other vector and becomes a ray. Otherwise the rays negative
    there are dropped, and each (positive, negative) pair whose common mask
    lies in no third ray's mask adds its combination that is zero there. The
    ``"oracle work"`` budget is charged 1 per vector a line step rewrites
    and 1 per ray an adjacency scan reads. Exact phase 1 cross-checks both
    sets, or raises `NegflowError`: the rows are feasible iff there is a
    vertex (``y >= 0`` makes the polyhedron pointed), the recession slice
    iff a direction.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    m = h.dimension
    budget = _Budget("oracle work", cap)
    matrix = [[*row[:-1], -row[-1]] for row in h.rows]
    pivots, prev = _eliminate(matrix, range(m + 1))
    # Free column f: ``prev`` at f, minus column f at each pivot column.
    lines = []
    for f in sorted(set(range(m + 1)) - set(pivots)):
        line = [0] * (m + 1)
        line[f] = prev
        for r, c in enumerate(pivots):
            line[c] = -matrix[r][f]
        lines.append(_reduced(line))
    rays: list[tuple[list[int], int]] = []  # (vector, tight mask)
    for i in range(m + 1):
        bit = 1 << i
        k = next((k for k, line in enumerate(lines) if line[i]), None)
        if k is not None:
            line = lines.pop(k)
            flipped = line[i] < 0
            if flipped:
                line = [-x for x in line]
            a = line[i]
            moved = sum(1 for v in lines if v[i]) + sum(1 for v, _ in rays if v[i])
            budget.spend(flipped + moved)
            lines = [_combine(a, v, v[i], line) if v[i] else v for v in lines]
            rays = [
                (_combine(a, v, v[i], line) if v[i] else v, mask | bit)
                for v, mask in rays
            ]
            rays.append((line, bit - 1))
            continue
        negative = [ray for ray in rays if ray[0][i] < 0]
        kept = [(v, mask if v[i] else mask | bit) for v, mask in rays if v[i] >= 0]
        for p, p_mask in rays:
            if p[i] <= 0:
                continue
            for q, q_mask in negative:
                common = p_mask & q_mask
                read = 0
                for v, mask in rays:
                    if v is p or v is q:
                        continue
                    read += 1
                    if mask & common == common:
                        break
                else:
                    kept.append((_combine(p[i], q, q[i], p), common | bit))
                budget.spend(read)
        rays = kept
    points, directions = [], []
    for v, _ in rays:
        items = [(j, x) for j, x in enumerate(v[:m]) if x]
        if v[m]:
            points.append(ArcVector.from_ints(m, v[m], items))
        else:
            directions.append(ArcVector.from_ints(m, sum(v[:m]), items))
    if _phase1_feasible(h.rows, m) != bool(points):
        raise NegflowError("phase 1 contradicts the vertex enumeration")
    if _phase1_feasible(_recession_slice(h), m) != bool(directions):
        raise NegflowError("phase 1 contradicts the direction enumeration")
    return VertexSet(sorted_points(points), sorted_points(directions))


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
        and len(_eliminate([list(row) for row in h.rows], support)[0]) == len(support)
    )


def _phase1_feasible(rows: Sequence[Sequence[int]], n: int) -> bool:
    """Exact phase-1 simplex with Bland's rule on the integer equalities
    ``coeffs + [rhs]`` over ``n`` columns: is the polyhedron nonempty?

    The tableau stays integer under the fraction-free `_pivot`. Every pivot
    is positive, so each entry keeps the sign of its rational counterpart,
    and ratios are compared by cross-multiplication."""
    m = len(rows)
    if m == 0:
        return True
    width = n + m
    tableau: list[list[int]] = []
    for i, row in enumerate(rows):
        sign = -1 if row[-1] < 0 else 1
        entries = [sign * c for c in row[:n]] + [0] * m + [sign * row[-1]]
        entries[n + i] = 1
        tableau.append(entries)
    basis = list(range(n, width))
    # Phase-1 objective (reduced costs for minimizing the artificial sum),
    # carried as the last row and left out of the ratio test.
    z = [sum(col) for col in zip(*tableau)]
    z[n:width] = [0] * m
    tableau.append(z)
    prev = 1
    while True:
        entering = next((j for j in range(width) if tableau[m][j] > 0), None)
        if entering is None:
            break
        leaving = -1
        for i in range(m):
            a = tableau[i][entering]
            if a <= 0:
                continue
            if leaving < 0:
                leaving = i
                continue
            lhs = tableau[i][width] * tableau[leaving][entering]
            rhs = tableau[leaving][width] * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                leaving = i
        if leaving < 0:
            raise NegflowError("phase-1 objective unbounded")
        _pivot(tableau, leaving, entering, prev)
        prev = tableau[leaving][entering]
        basis[leaving] = entering
    return tableau[m][width] == 0
