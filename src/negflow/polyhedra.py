"""H-representations and an exhaustive exact vertex oracle.

The oracle walks the candidate supports depth first, deciding one arc at a
time, and solves the equality system exactly; supports with a common prefix
share its elimination. It never touches floating point and has no tolerance
anywhere. An H-representation holds integer rows, its weight row scaled
once by the LCM of the weight denominators; the walk and phase 1 run
fraction-free elimination on them, and each accepted vertex is read off as
integer numerators over the last pivot. Walk nodes and elimination steps are
charged against one work budget. The oracle is deliberately independent of
the cycle-based characterization it is used to validate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded, NegflowError
from .graph import ArcVector, WeightedDigraph, _scaled, sorted_points

# Work units: 1 per walk node plus (rows changed) x (m + 1) per pivot. The
# seed-1 `verify-oracle` benchmark pool (m <= 10) peaks at 10,541 units per
# H-representation, 1% of this cap. The first 40 8-node, 20-arc graphs of
# the seed-1 `directions-dense` pool need up to 2.9 M, so inputs that large
# pass an explicit cap. The walk spends about 3.4 M units per second (2-core
# x86 VM, Python 3.11), so the default cap ends a run within half a second.
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
    """Sorted, duplicate-free vertex list; ``polyhedron_empty`` is the
    independent feasibility verdict when produced by the oracle."""

    points: tuple[ArcVector, ...]
    polyhedron_empty: bool | None = None


class _Budget:
    """Counts elementary solve steps against a hard cap."""

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
    """Flow conservation, total weight = 0, entries summing to 1."""
    weights, _ = _scaled([arc.weight for arc in g.arcs])
    rows = _flow_rows(g)
    rows.append((*weights, 0))
    rows.append((1,) * (g.arc_count + 1))
    return HRep(g.arc_count, tuple(rows))


def _flow_rows(g: WeightedDigraph) -> list[tuple[int, ...]]:
    """Per node: +1 on out-arcs, -1 on in-arcs (a loop nets 0), rhs 0."""
    rows = [[0] * (g.arc_count + 1) for _ in range(g.node_count)]
    for arc in g.arcs:
        rows[arc.tail][arc.arc_id] += 1
        rows[arc.head][arc.arc_id] -= 1
    return [tuple(row) for row in rows]


def _pivot(matrix: list[list[int]], row: int, col: int, prev: int) -> int:
    """Fraction-free Gauss-Jordan step (Bareiss): clear ``col`` from every
    other row by ``(p * other - f * pivot_row) // prev``, where ``p`` is the
    new pivot and ``prev`` the previous one (1 at the first step); rows with
    a zero in ``col`` are scaled by ``p / prev``. Every division is exact,
    and each row is then ``p`` times its counterpart in the rational
    tableau, so the two share zero patterns and signs when ``p > 0``.
    Returns the number of other rows with a nonzero in ``col``."""
    pivot_row = matrix[row]
    p = pivot_row[col]
    updated = 0
    for r, other in enumerate(matrix):
        if r == row:
            continue
        f = other[col]
        if f:
            matrix[r] = [(p * a - f * b) // prev for a, b in zip(other, pivot_row)]
            updated += 1
        elif p != prev:
            matrix[r] = [p * a // prev for a in other]
    return updated


def _include(
    matrix: list[list[int]], row_at: int, j: int, prev: int
) -> tuple[list[list[int]], int] | None:
    """Pivot column ``j`` into row ``row_at`` of a copy of the tableau, whose
    rows above ``row_at`` hold the columns already chosen and ``prev`` the
    last pivot. Rows are replaced, never mutated, so a shallow copy leaves
    ``matrix`` intact. Returns the new tableau and the number of rows the
    pivot changed, or ``None`` when column ``j`` has no nonzero at or below
    ``row_at``: it then depends on the chosen columns, so every support
    holding them all is inconsistent or underdetermined."""
    pivot = next((r for r in range(row_at, len(matrix)) if matrix[r][j]), None)
    if pivot is None:
        return None
    matrix = matrix.copy()
    matrix[row_at], matrix[pivot] = matrix[pivot], matrix[row_at]
    return matrix, _pivot(matrix, row_at, j, prev)


def _prune_rows(rows: list[list[int]]) -> list[tuple[int, int, int]]:
    """Per-row (positive-coeff mask, negative-coeff mask, rhs sign)."""
    out = []
    for *coeffs, rhs in rows:
        pos = 0
        neg = 0
        for i, c in enumerate(coeffs):
            if c > 0:
                pos |= 1 << i
            elif c < 0:
                neg |= 1 << i
        sign = (rhs > 0) - (rhs < 0)
        out.append((pos, neg, sign))
    return out


def _completable(
    chosen: int, allowed: int, prune_rows: list[tuple[int, int, int]]
) -> bool:
    """Can some support S with ``chosen <= S <= allowed`` meet every row with
    a point that is strictly positive exactly on S? A row with rhs sign 0
    needs both or neither of its coefficient signs on S; otherwise S needs
    a coefficient of the rhs sign."""
    for pos, neg, sign in prune_rows:
        if sign == 0:
            if chosen & (pos | neg) and not (allowed & pos and allowed & neg):
                return False
        elif not allowed & (pos if sign > 0 else neg):
            return False
    return True


def oracle_vertices(h: HRep, cap: int = DEFAULT_ORACLE_CAP) -> VertexSet:
    """All vertices by a depth-first walk over supports with exact solving.

    The walk decides the arcs in id order: one branch leaves arc ``j`` out,
    the other pivots column ``j`` into a copy of the integer tableau
    (`_include`), so supports with a common prefix share its elimination.
    A column that depends on the arcs already chosen ends the branch; so
    does a prefix that no completion can fit to the sign pattern of every
    row. A leaf is accepted when its system is consistent and the unique
    solution is strictly positive; the point extended by zeros is then a
    basic feasible solution with exactly that support. Each walk node costs
    1 unit of the ``"oracle work"`` budget and each pivot ``rows changed x
    (m + 1)``. The returned ``polyhedron_empty`` flag comes from an
    independent exact phase-1 simplex, and is cross-checked against vertex
    existence (the polyhedra here are pointed, so the two must agree).
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    m = h.dimension
    budget = _Budget("oracle work", cap)
    rows = list(h.rows)
    prune = _prune_rows(rows)
    everything = (1 << m) - 1
    points: list[ArcVector] = []
    # (next arc, tableau, chosen arcs, pivot rows used, last pivot)
    stack = [(0, rows, 0, 0, 1)] if _completable(0, everything, prune) else []
    while stack:
        j, matrix, chosen, row_at, prev = stack.pop()
        budget.spend(1)
        if j == m:
            point = _leaf_point(matrix, chosen, row_at, prev, m)
            if point is not None:
                points.append(point)
            continue
        bit = 1 << j
        allowed = chosen | (everything >> j << j)
        if _completable(chosen, allowed & ~bit, prune):
            stack.append((j + 1, matrix, chosen, row_at, prev))
        if not _completable(chosen | bit, allowed, prune):
            continue
        step = _include(matrix, row_at, j, prev)
        if step is None:
            continue
        matrix, changed = step
        budget.spend(changed * (m + 1))
        stack.append((j + 1, matrix, chosen | bit, row_at + 1, matrix[row_at][j]))
    empty = not _phase1_feasible(rows, m)
    if empty != (not points):
        raise NegflowError(
            "feasibility flag contradicts vertex enumeration on a pointed polyhedron"
        )
    return VertexSet(sorted_points(points), polyhedron_empty=empty)


def _leaf_point(
    matrix: list[list[int]], chosen: int, row_at: int, prev: int, m: int
) -> ArcVector | None:
    """The unique solution on the chosen columns, pivot row ``r`` holding the
    ``r``-th chosen column with ``prev`` on its diagonal, if the system is
    consistent and the solution strictly positive."""
    if any(matrix[r][m] for r in range(row_at, len(matrix))):
        return None
    sign = -1 if prev < 0 else 1
    items = []
    r = 0
    for c in range(m):
        if chosen >> c & 1:
            v = sign * matrix[r][m]
            if v <= 0:
                return None
            items.append((c, v))
            r += 1
    return ArcVector.from_ints(m, sign * prev, items)


def _support_point(
    rows: list[list[int]], support: Sequence[int], m: int
) -> ArcVector | None:
    """The walk's leaf for one support, in increasing column order: the
    point strictly positive exactly on it, if the integer equalities have
    a unique such solution there."""
    matrix, prev = rows, 1
    for row_at, j in enumerate(support):
        step = _include(matrix, row_at, j, prev)
        if step is None:
            return None
        matrix = step[0]
        prev = matrix[row_at][j]
    chosen = sum(1 << j for j in support)
    return _leaf_point(matrix, chosen, len(support), prev, m)


def oracle_certifies_vertex(h: HRep, y: ArcVector) -> bool:
    """The oracle's per-support accept test applied to a single point.

    A point the test returns solves every row exactly and is strictly
    positive on its support, so equality with it also proves feasibility."""
    if len(y) != h.dimension:
        raise ValueError("vector dimension does not match H-representation")
    return _support_point(list(h.rows), y.support(), h.dimension) == y


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
