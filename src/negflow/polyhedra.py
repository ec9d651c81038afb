"""H-representations and a brute-force exact vertex oracle.

The oracle enumerates candidate supports and solves the equality system
exactly over the rationals; it never touches floating point and has no
tolerance anywhere. It is deliberately independent of the cycle-based
characterization it is used to validate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CapExceeded, NegflowError
from .graph import ArcVector, WeightedDigraph

DEFAULT_ORACLE_CAP = 2**20


@dataclass(frozen=True)
class HRep:
    """Equalities ``coeffs . y = rhs`` plus implicit ``y >= 0`` on all coords."""

    dimension: int
    equalities: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self) -> None:
        for coeffs, _ in self.equalities:
            if len(coeffs) != self.dimension:
                raise ValueError("equality row length does not match dimension")


@dataclass(frozen=True)
class VertexSet:
    """Sorted, duplicate-free vertex list; ``polyhedron_empty`` is the
    independent feasibility verdict when produced by the oracle."""

    points: tuple[ArcVector, ...]
    polyhedron_empty: bool | None = None


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    violations: tuple[str, ...]


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
    rows = _flow_rows(g)
    rows.append((tuple(arc.weight for arc in g.arcs), Fraction(-1)))
    return HRep(g.arc_count, tuple(rows))


def build_P_prime(g: WeightedDigraph) -> HRep:
    """Flow conservation, total weight = 0, entries summing to 1."""
    rows = _flow_rows(g)
    rows.append((tuple(arc.weight for arc in g.arcs), Fraction(0)))
    rows.append(((Fraction(1),) * g.arc_count, Fraction(1)))
    return HRep(g.arc_count, tuple(rows))


def _flow_rows(g: WeightedDigraph) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    rows = []
    for node in range(g.node_count):
        coeffs = [Fraction(0)] * g.arc_count
        for arc in g.arcs:
            if arc.tail == node:
                coeffs[arc.arc_id] += 1
            if arc.head == node:
                coeffs[arc.arc_id] -= 1
        rows.append((tuple(coeffs), Fraction(0)))
    return rows


def _pivot(matrix: list[list[Fraction]], row: int, col: int) -> int:
    """Scale ``row`` so its ``col`` entry is 1, then clear ``col`` from every
    other row. Returns the number of other rows changed."""
    inv = 1 / matrix[row][col]
    pivot = [v * inv for v in matrix[row]]
    matrix[row] = pivot
    updated = 0
    for r, other in enumerate(matrix):
        f = other[col]
        if r != row and f != 0:
            matrix[r] = [a - f * b for a, b in zip(other, pivot)]
            updated += 1
    return updated


def _solve_on_support(
    equalities: Sequence[tuple[tuple[Fraction, ...], Fraction]],
    support: Sequence[int],
    budget: _Budget | None = None,
) -> tuple[str, list[Fraction] | None]:
    """Solve the equalities restricted to the support columns.

    Returns ('unique', values), ('none', None) for inconsistent, or
    ('many', None) for underdetermined systems.
    """
    width = len(support)
    matrix = [[coeffs[c] for c in support] + [rhs] for coeffs, rhs in equalities]
    pivot_rows: list[int] = []
    row_at = 0
    for col in range(width):
        pivot = next(
            (r for r in range(row_at, len(matrix)) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[row_at], matrix[pivot] = matrix[pivot], matrix[row_at]
        updated = _pivot(matrix, row_at, col)
        if budget is not None:
            budget.spend(updated * (width + 1))
        pivot_rows.append(col)
        row_at += 1
        if row_at == len(matrix):
            break
    for r in range(row_at, len(matrix)):
        if matrix[r][width] != 0:
            return "none", None
    if len(pivot_rows) < width:
        return "many", None
    values = [Fraction(0)] * width
    for r, col in enumerate(pivot_rows):
        values[col] = matrix[r][width]
    return "unique", values


def _prune_rows(h: HRep) -> list[tuple[int, int, int]]:
    """Per-row (positive-coeff mask, negative-coeff mask, rhs sign)."""
    out = []
    for coeffs, rhs in h.equalities:
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


def _support_is_plausible(s: int, prune_rows: list[tuple[int, int, int]]) -> bool:
    # A support passes only if every row can still be satisfied by a point
    # that is strictly positive exactly on the support.
    for pos, neg, sign in prune_rows:
        if sign == 0:
            if ((s & pos) == 0) != ((s & neg) == 0):
                return False
        elif sign > 0:
            if s & pos == 0:
                return False
        else:
            if s & neg == 0:
                return False
    return True


def oracle_vertices(h: HRep, cap: int = DEFAULT_ORACLE_CAP) -> VertexSet:
    """All vertices by support enumeration and exact solving.

    A support is accepted when the equality system restricted to it has a
    unique, strictly positive solution; the point extended by zeros is then
    a basic feasible solution with support exactly S. The returned
    ``polyhedron_empty`` flag comes from an independent exact phase-1
    simplex, and is cross-checked against vertex existence (the polyhedra
    here are pointed, so the two must agree).
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    m = h.dimension
    if 2**m > cap:
        raise CapExceeded("oracle supports", cap, f"2^{m} candidate supports")
    budget = _Budget("oracle work", cap)
    prune = _prune_rows(h)
    points: list[ArcVector] = []
    for s in range(2**m):
        if not _support_is_plausible(s, prune):
            continue
        support = [i for i in range(m) if s >> i & 1]
        status, values = _solve_on_support(h.equalities, support, budget)
        if status != "unique":
            continue
        assert values is not None
        if any(v <= 0 for v in values):
            continue
        entries = [Fraction(0)] * m
        for c, v in zip(support, values):
            entries[c] = v
        points.append(ArcVector(tuple(entries)))
    points.sort(key=lambda p: p.entries)
    empty = not _phase1_feasible(h)
    if empty != (not points):
        raise NegflowError(
            "feasibility flag contradicts vertex enumeration on a pointed polyhedron"
        )
    return VertexSet(tuple(points), polyhedron_empty=empty)


def oracle_extreme_directions(
    g: WeightedDigraph, cap: int = DEFAULT_ORACLE_CAP
) -> VertexSet:
    """Extreme directions of P(g) as the vertex set of P'(g)."""
    return oracle_vertices(build_P_prime(g), cap)


def is_feasible_point(h: HRep, y: ArcVector) -> FeasibilityResult:
    """Exact membership test with a report of violated constraints."""
    if len(y.entries) != h.dimension:
        raise ValueError("vector dimension does not match H-representation")
    violations = []
    for idx, (coeffs, rhs) in enumerate(h.equalities):
        lhs = sum((c * v for c, v in zip(coeffs, y.entries)), Fraction(0))
        if lhs != rhs:
            violations.append(f"eq {idx}: lhs {lhs} != rhs {rhs}")
    for i, v in enumerate(y.entries):
        if v < 0:
            violations.append(f"coordinate {i} is negative: {v}")
    return FeasibilityResult(not violations, tuple(violations))


def oracle_certifies_vertex(h: HRep, y: ArcVector) -> bool:
    """The oracle's per-support accept test applied to a single point."""
    if not is_feasible_point(h, y).feasible:
        return False
    support = y.support()
    status, values = _solve_on_support(h.equalities, support)
    if status != "unique":
        return False
    assert values is not None
    return values == [y.entries[c] for c in support]


def _phase1_feasible(h: HRep) -> bool:
    """Exact phase-1 simplex with Bland's rule: is the polyhedron nonempty?"""
    n = h.dimension
    rows = len(h.equalities)
    if rows == 0:
        return True
    tableau: list[list[Fraction]] = []
    for coeffs, rhs in h.equalities:
        row = list(coeffs)
        if rhs < 0:
            row = [-c for c in row]
            rhs = -rhs
        row.extend([Fraction(0)] * rows)
        row.append(rhs)
        tableau.append(row)
    for i in range(rows):
        tableau[i][n + i] = Fraction(1)
    basis = [n + i for i in range(rows)]
    width = n + rows
    # Phase-1 objective (reduced costs for minimizing the artificial sum),
    # carried as the last row and left out of the ratio test.
    z = [Fraction(0)] * (width + 1)
    for j in range(n):
        z[j] = sum(row[j] for row in tableau)
    z[width] = sum(row[width] for row in tableau)
    tableau.append(z)
    while True:
        entering = next((j for j in range(width) if tableau[rows][j] > 0), None)
        if entering is None:
            break
        best: tuple[Fraction, int, int] | None = None
        for i in range(rows):
            if tableau[i][entering] > 0:
                ratio = tableau[i][width] / tableau[i][entering]
                key = (ratio, basis[i], i)
                if best is None or key < best:
                    best = key
        if best is None:
            raise NegflowError("phase-1 objective unbounded")
        _pivot(tableau, best[2], entering)
        basis[best[2]] = entering
    return tableau[rows][width] == 0
