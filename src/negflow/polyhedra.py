"""H-representations and an exhaustive exact vertex oracle.

The oracle runs the double-description method (Motzkin et al. 1953; Fukuda
& Prodon 1996) on exact integer rays, with no floating point and no
tolerance anywhere: it starts at the orthant's unit rays and cuts them with
one equality row at a time. One run yields a polyhedron's vertices and its
extreme directions (on P, the vertices of P'). An H-representation holds
integer rows, its weight row scaled once by the LCM of the weight
denominators. One fraction-free pivot serves the vertex certifier and
phase 1. Row evaluations and adjacency scans are charged against one work
budget. The oracle is deliberately independent of the cycle-based
characterization it is used to validate.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import CapExceeded, NegflowError
from .graph import ArcVector, WeightedDigraph, _scaled, sorted_points

# Work units: 1 per ray a row's cut evaluates plus 1 per ray each pair
# test's adjacency scan reads. The one run on P peaks at 700 units on the
# seed-1 `verify-oracle` benchmark pool (m <= 10) and at 30,683 on all 720
# 8-node, 20-arc graphs of the seed-1 `directions-dense` pool, so 20-arc
# graphs fit this cap. The double description spends about 14 M units per
# second (2-core x86 VM, Python 3.11), so the cap ends it within a tenth of
# a second. The two phase-1 checks are the one stage it does not bound: on
# a ring of n nodes with one weight -1 arc and n - 1 weight-0 arcs, the run
# spends n^2 + n + 2 units, yet phase 1 takes about 0.6 s at n = 200 and
# 4 s at n = 400.
DEFAULT_ORACLE_CAP = 2**20


@dataclass(frozen=True)
class HRep:
    """Integer equalities ``row[:-1] . y = row[-1]`` plus implicit ``y >= 0``
    on all coords: ``dimension`` coefficients, then the right-hand side."""

    dimension: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # A row object shared by many rows (a zero row) is checked once.
        for row in {id(row): row for row in self.rows}.values():
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
    return HRep(g.arc_count, _recession_slice(build_P(g).rows, g.arc_count))


def _recession_slice(
    rows: Sequence[Sequence[int]], dimension: int
) -> tuple[tuple[int, ...], ...]:
    """The rows with right-hand side 0, plus entries summing to 1."""
    return (*((*row[:-1], 0) for row in rows), (1,) * (dimension + 1))


def _flow_rows(g: WeightedDigraph) -> list[tuple[int, ...]]:
    """Per node: +1 on out-arcs, -1 on in-arcs (a loop nets 0), rhs 0.
    Nodes without arcs share one zero row, so they cost a reference each."""
    width = g.arc_count + 1
    touched: dict[int, list[int]] = {}
    for arc in g.arcs:
        for node, step in ((arc.tail, 1), (arc.head, -1)):
            row = touched.get(node)
            if row is None:
                row = touched[node] = [0] * width
            row[arc.arc_id] += step
    zero = (0,) * width
    return [tuple(touched[v]) if v in touched else zero for v in range(g.node_count)]


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


def _eliminate(matrix: list[list[int]], columns: Sequence[int]) -> list[int]:
    """Gauss-Jordan on ``matrix`` in place, pivoting on ``columns`` in order
    and skipping each column that depends on those before it. Returns the
    pivot column of each leading row, so its length is the rank of
    ``columns``: the vertex certifier's support test."""
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


def _combine(a: int, v: list[int], b: int, w: list[int]) -> list[int]:
    """``a * v - b * w`` divided by the gcd of its entries."""
    u = [a * x - b * y for x, y in zip(v, w)]
    g = gcd(*u)
    return u if g == 1 else [x // g for x in u]


def oracle_vertices(h: HRep, cap: int = DEFAULT_ORACLE_CAP) -> VertexSet:
    """Vertices and extreme directions by double description on integer rays.

    The extreme rays of the cone ``{(y, t): A y - t b = 0, y >= 0, t >= 0}``
    with ``t > 0`` are the vertices ``y / t``; those with ``t = 0`` are the
    recession cone's, divided by their entry sums into ``directions``.
    The rays start as the ``m + 1`` unit vectors of ``(y, t)``, each keeping
    the mask of the coordinates it is zero on. Each row ``a = (A_i, -b_i)``
    then cuts the cone: the rays with ``a . v = 0`` stay, each (positive,
    negative) pair whose common mask lies in no third ray's mask adds its
    combination with ``a . v = 0``, and the other rays go. The
    ``"oracle work"`` budget is charged 1 per ray a cut evaluates and 1 per
    ray an adjacency scan reads. Exact phase 1 cross-checks both sets, or
    raises `NegflowError`: the rows are feasible iff there is a vertex
    (``y >= 0`` makes the polyhedron pointed), the recession slice iff a
    direction.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    m = h.dimension
    budget = _Budget("oracle work", cap)
    # Rows 0 = 0 (a node with no arcs, or only loops) hold no constraint.
    rows = [row for row in h.rows if any(row)]
    full = (1 << (m + 1)) - 1
    rays = [([0] * i + [1] + [0] * (m - i), full ^ (1 << i)) for i in range(m + 1)]
    for row in rows:
        a = [(j, x) for j, x in enumerate((*row[:-1], -row[-1])) if x]
        budget.spend(len(rays))
        values = [sum(x * v[j] for j, x in a) for v, _ in rays]
        kept = [ray for ray, s in zip(rays, values) if not s]
        negative = [(q, q_mask, s) for (q, q_mask), s in zip(rays, values) if s < 0]
        for (p, p_mask), s in zip(rays, values):
            if s <= 0:
                continue
            for q, q_mask, r in negative:
                common = p_mask & q_mask
                read = 0
                for v, mask in rays:
                    if v is p or v is q:
                        continue
                    read += 1
                    if mask & common == common:
                        break
                else:
                    kept.append((_combine(s, q, r, p), common))
                budget.spend(read)
        rays = kept
    points, directions = [], []
    for v, _ in rays:
        items = [(j, x) for j, x in enumerate(v[:m]) if x]
        if v[m]:
            points.append(ArcVector.from_ints(m, v[m], items))
        else:
            directions.append(ArcVector.from_ints(m, sum(v[:m]), items))
    if _phase1_feasible(rows, m) != bool(points):
        raise NegflowError("phase 1 contradicts the vertex enumeration")
    if _phase1_feasible(_recession_slice(rows, m), m) != bool(directions):
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
        and len(_eliminate([list(row) for row in h.rows], support)) == len(support)
    )


def _phase1_feasible(rows: Sequence[Sequence[int]], n: int) -> bool:
    """Exact phase-1 simplex with Bland's rule on the integer equalities
    ``coeffs + [rhs]`` over ``n`` columns: is the polyhedron nonempty?

    The tableau stays integer under the fraction-free `_pivot`. Every pivot
    is positive, so each entry keeps the sign of its rational counterpart,
    and ratios are compared by cross-multiplication. Rows ``0 = 0``, one per
    isolated node, are dropped: each would cost an artificial column."""
    rows = [row for row in rows if any(row)]
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
