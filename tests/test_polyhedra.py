"""H-representations and the double-description vertex oracle, checked
against a support-enumeration oracle over `Fraction`."""
import time
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negflow import polyhedra
from negflow.errors import CapExceeded, NegflowError, _Budget
from negflow.generators import gen_random
from negflow.graph import Arc, ArcVector, WeightedDigraph, _scaled, parse_graph
from negflow.polyhedra import (
    DEFAULT_ORACLE_CAP,
    HRep,
    VertexSet,
    _phase1_feasible,
    build_P,
    build_P_prime,
    oracle_certifies_vertex,
    oracle_vertices,
)

TRIANGLE = parse_graph("p 3 3\na 1 2 -1\na 2 3 -1\na 3 1 -1\n")
DIGON = parse_graph("p 2 2\na 1 2 -1/2\na 2 1 -1/2\n")
ZERO_TRIANGLE = parse_graph("p 3 3\na 1 2 1\na 2 3 -1\na 3 1 0\n")


def vec(*vals) -> ArcVector:
    return ArcVector(tuple(Fraction(v) for v in vals))


def feasible(h: HRep, y: ArcVector) -> bool:
    """Exact membership in ``{row . y = rhs, y >= 0}``, on integers."""
    return all(n > 0 for _, n in y.items) and all(
        sum(row[i] * n for i, n in y.items) == row[-1] * y.den for row in h.rows
    )


def test_build_P_triangle_shape() -> None:
    h = build_P(TRIANGLE)
    assert h.dimension == 3
    assert len(h.rows) == 4
    assert h.rows[-1] == (-1, -1, -1, -1)


def test_flow_rows_sum_to_zero() -> None:
    h = build_P(TRIANGLE)
    flow = h.rows[:-1]
    for col in range(4):
        assert sum(row[col] for row in flow) == 0


def test_self_loop_has_zero_flow_row() -> None:
    g = parse_graph("p 1 1\na 1 1 -1\n")
    h = build_P(g)
    assert h.rows[0] == (0, 0)
    # the loop alone carries the weight constraint
    assert oracle_vertices(h).points[0].entries == (1,)


def test_build_P_prime_rows() -> None:
    h = build_P_prime(TRIANGLE)
    assert len(h.rows) == 5
    assert h.rows[-2] == (-1, -1, -1, 0)
    assert h.rows[-1] == (1, 1, 1, 1)


def test_hrep_rejects_ragged_rows() -> None:
    with pytest.raises(ValueError):
        HRep(2, ((1, 0),))
    with pytest.raises(ValueError):
        HRep(1, ((1, 0), (1, 0, 0)))


def test_hrep_rejects_fraction_entries() -> None:
    # The fraction-free pivot divides with `//`, which floors a Fraction.
    with pytest.raises(ValueError):
        HRep(1, ((Fraction(1, 2), 1),))
    with pytest.raises(ValueError):
        HRep(1, ((1, Fraction(1)),))


def test_digon_unique_feasible_point() -> None:
    result = oracle_vertices(build_P(DIGON))
    assert [p.entries for p in result.points] == [(1, 1)]
    assert result.directions == ()


def test_empty_graph_infeasible() -> None:
    g = WeightedDigraph(1, ())
    result = oracle_vertices(build_P(g))
    assert result.points == ()
    assert result.directions == ()


def test_triangle_vertex_set() -> None:
    result = oracle_vertices(build_P(TRIANGLE))
    assert [p.entries for p in result.points] == [
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    ]


def test_two_triangles_sharing_a_node() -> None:
    # First triangle weighs -2, second -1; sharing node 1 only.
    g = parse_graph(
        "p 5 6\na 1 2 -1\na 2 3 -1\na 3 1 0\na 1 4 -1\na 4 5 0\na 5 1 0\n"
    )
    result = oracle_vertices(build_P(g))
    assert [p.entries for p in result.points] == [
        (0, 0, 0, 1, 1, 1),
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0, 0, 0),
    ]


def test_all_positive_graph_is_empty() -> None:
    g = parse_graph("p 3 3\na 1 2 1\na 2 3 1\na 3 1 1\n")
    result = oracle_vertices(build_P(g))
    assert result.points == ()
    assert result.directions == ()


def test_prime_zero_triangle() -> None:
    # P is empty, but its recession cone holds the zero triangle.
    result = oracle_vertices(build_P(ZERO_TRIANGLE))
    assert result.points == ()
    assert [p.entries for p in result.directions] == [
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    ]
    separate = oracle_vertices(build_P_prime(ZERO_TRIANGLE))
    assert separate.points == result.directions


def test_prime_single_negative_cycle_is_empty() -> None:
    result = oracle_vertices(build_P_prime(TRIANGLE))
    assert result.points == ()
    assert oracle_vertices(build_P(TRIANGLE)).directions == ()


def test_prime_disjoint_opposite_triangles() -> None:
    g = parse_graph(
        "p 6 6\na 1 2 -1\na 2 3 0\na 3 1 0\na 4 5 1\na 5 6 0\na 6 4 0\n"
    )
    result = oracle_vertices(build_P_prime(g))
    assert [p.entries for p in result.points] == [(Fraction(1, 6),) * 6]


def test_oracle_cap() -> None:
    # With no rows nothing cuts the 31 starting unit rays of (y, t), so they
    # are the answer at 0 units: t gives the orthant's one vertex, the
    # origin, and the 30 others its edges. Phase 1 on P has no rows either;
    # on the recession slice it makes one pivot on a 2 x 32 tableau (the
    # row of ones, the objective; 30 columns, one artificial, the rhs):
    # 64 units.
    with pytest.raises(CapExceeded) as exc:
        oracle_vertices(HRep(30, ()), 63)
    assert exc.value.kind == "oracle work"
    result = oracle_vertices(HRep(30, ()), 64)
    assert [p.entries for p in result.points] == [(0,) * 30]
    assert {d.items for d in result.directions} == {((j, 1),) for j in range(30)}
    # An 8-node, 30-arc graph that needs 1,377,747 units (1,370,786 in the
    # double description, 6,961 in phase 1): the cap aborts it loudly
    # instead of returning the vertices found so far.
    with pytest.raises(CapExceeded) as exc:
        oracle_vertices(build_P(gen_random(8, 30, (-3, 3), 0)), 2**20)
    assert exc.value.kind == "oracle work"


def test_default_cap_bounds_phase_1_on_a_ring() -> None:
    # 400 nodes, one weight -1 arc and 399 weight-0 arcs: the double
    # description spends 160,402 units and each phase-1 pivot 402 x 802
    # more, so the default cap stops the run before its third pivot. Phase 1
    # ran to the end in about 4 s when it was not charged.
    n = 400
    ring = _arcs(n, *((i, (i + 1) % n, -1 if i == 0 else 0) for i in range(n)))
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        oracle_vertices(build_P(ring))
    assert time.perf_counter() - start < 1.0


def test_oracle_certifies_vertex() -> None:
    h = build_P(TRIANGLE)
    assert oracle_certifies_vertex(h, vec("1/3", "1/3", "1/3"))
    # Conservation broken at two nodes; a negative coordinate.
    assert not oracle_certifies_vertex(h, vec(1, 0, 0))
    assert not oracle_certifies_vertex(h, vec(-1, 0, 0))
    with pytest.raises(ValueError):
        oracle_certifies_vertex(h, vec(1))

    # Feasible but non-vertex: midpoint of the two vertices of the
    # shared-node two-triangle instance.
    g = parse_graph(
        "p 5 6\na 1 2 -1\na 2 3 -1\na 3 1 0\na 1 4 -1\na 4 5 0\na 5 1 0\n"
    )
    hp = build_P(g)
    mid = vec("1/4", "1/4", "1/4", "1/2", "1/2", "1/2")
    assert feasible(hp, mid)
    assert not oracle_certifies_vertex(hp, mid)
    for point in oracle_vertices(hp).points:
        assert oracle_certifies_vertex(hp, point)


def _arcs(n: int, *arcs: tuple[int, int, int]) -> WeightedDigraph:
    return WeightedDigraph(
        n, tuple(Arc(i, t, h, Fraction(w)) for i, (t, h, w) in enumerate(arcs))
    )


# Rationals with small numerators and denominators 1-4, so integer row
# scaling meets LCMs above 1 (zero, negative and non-integer values too).
rationals = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4))


@st.composite
def graphs(draw: st.DrawFn) -> WeightedDigraph:
    n = draw(st.integers(min_value=1, max_value=4))
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), rationals),
            max_size=7,
        )
    )
    return _arcs(n, *arcs)


# A positive triangle weighing 1/3 - 1/2 + 3/4 = 7/12 that shares arc 0->1
# with a negative digon (1/3 - 1/2): the weight row of P scales by 12, the
# flow rows by 1.
RATIONAL_WEIGHTS = _arcs(
    3,
    (0, 1, Fraction(1, 3)), (1, 2, Fraction(-1, 2)), (2, 0, Fraction(3, 4)),
    (1, 0, Fraction(-1, 2)),
)


# The oracle cap bounds row evaluations, adjacency-scan reads and phase-1
# tableau entries. For the strategy above (<= 4 nodes, <= 7 arcs) 100,000
# random draws found no run on P above 1,487 units (at most 391 of them in
# the double description), and 100,000 `hreps()` draws none above 1,416.
# Hill-climbing searches of 28,000 more runs each found none above 2,243
# on P or 2,309 on an H-rep: this cap leaves 3.5x headroom over the
# largest seen.
STRATEGY_ORACLE_CAP = 2**13


# Three weight-0 loops at node 0, two weight -1 arcs 0->1 and two weight-0
# arcs 1->0: 2^7 supports, but the oracle on P spends 220 units. Node 0's
# row evaluates the 8 unit rays (8 units) and keeps the loops and t; each
# of its four (+, -) pairs scans the 6 other rays (24) and adds a digon.
# Node 1's row is zero on all 8 rays (8), so it cuts nothing. The weight
# row evaluates them (8) and pairs t with each digon, scanning 6 rays each
# (24): four vertices, and the three loops as directions. That is 72 units
# of double description. Phase 1 then makes two pivots on P's 4 x 11
# tableau (3 rows and the objective; 7 columns, 3 artificials, the rhs;
# 88 units) and one on the recession slice's 5 x 12 tableau (60 units).
LOOPY_MULTIGRAPH = _arcs(
    2,
    (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 1, -1), (0, 1, -1),
    (1, 0, 0), (1, 0, 0),
)


def test_oracle_work_cap() -> None:
    with pytest.raises(CapExceeded) as exc:
        oracle_vertices(build_P(LOOPY_MULTIGRAPH), 219)
    assert exc.value.kind == "oracle work"
    assert len(oracle_vertices(build_P(LOOPY_MULTIGRAPH), 220).points) == 4


@settings(max_examples=60, deadline=None)
@given(graphs())
@example(LOOPY_MULTIGRAPH)
@example(RATIONAL_WEIGHTS)
def test_oracle_vertices_are_feasible_and_certified(g: WeightedDigraph) -> None:
    h, prime = build_P(g), build_P_prime(g)
    result = oracle_vertices(h, STRATEGY_ORACLE_CAP)
    for point in result.points:
        assert feasible(h, point)
        assert oracle_certifies_vertex(h, point)
    for direction in result.directions:
        assert feasible(prime, direction)
        assert oracle_certifies_vertex(prime, direction)
    # A midpoint of two vertices is feasible, but its support holds both
    # vertices' supports, so its columns are dependent.
    for a, b in combinations(result.points, 2):
        mid = ArcVector(tuple((x + y) / 2 for x, y in zip(a.entries, b.entries)))
        assert feasible(h, mid)
        assert not oracle_certifies_vertex(h, mid)


def _unbounded() -> _Budget:
    return _Budget("oracle work", 2**62)


def test_phase1_drops_only_trivial_zero_rows() -> None:
    assert _phase1_feasible([(0, 0, 0), (1, 1, 1), (0, 0, 0)], 2, _unbounded())
    assert not _phase1_feasible([(0, 0, 0), (0, 0, 1), (1, 1, 1)], 2, _unbounded())


# P of TRIANGLE has a vertex and no direction, P of ZERO_TRIANGLE the
# reverse: each lie turns one phase-1 verdict, once each way.
@pytest.mark.parametrize("g", [TRIANGLE, ZERO_TRIANGLE])
@pytest.mark.parametrize("lie_about", ["vertex", "direction"])
def test_oracle_raises_when_phase1_contradicts_it(
    monkeypatch: pytest.MonkeyPatch, g: WeightedDigraph, lie_about: str
) -> None:
    slice_rows = build_P_prime(g).rows
    honest = polyhedra._phase1_feasible

    def lying(rows, n: int, budget: _Budget) -> bool:
        verdict = honest(rows, n, budget)
        about = "direction" if tuple(rows) == slice_rows else "vertex"
        return not verdict if about == lie_about else verdict

    monkeypatch.setattr(polyhedra, "_phase1_feasible", lying)
    with pytest.raises(NegflowError, match=f"contradicts the {lie_about}"):
        oracle_vertices(build_P(g))


def test_rational_weights_example() -> None:
    h = build_P(RATIONAL_WEIGHTS)
    assert h.rows[-1] == (4, -6, 9, -6, -12)
    result = oracle_vertices(h)
    # The digon weighs -1/6, so its vertex is 6 * chi(digon).
    assert [p.entries for p in result.points] == [(6, 0, 0, 6)]
    # mu * (-1/6) + mu' * 7/12 = 0 and 2 mu + 3 mu' = 1: mu' = 1/10, mu = 7/20.
    assert [p.entries for p in result.directions] == [
        (Fraction(9, 20), Fraction(1, 10), Fraction(1, 10), Fraction(7, 20))
    ]


# The rational H-representation the integer builders replaced, kept as their
# reference: every row over `Fraction`, flow rows from a scan of all arcs
# per node, then each row scaled by the LCM of its own denominators.


def _reference_rows(g: WeightedDigraph, prime: bool) -> tuple[tuple[int, ...], ...]:
    rows = []
    for node in range(g.node_count):
        coeffs = [Fraction(0)] * g.arc_count
        for arc in g.arcs:
            if arc.tail == node:
                coeffs[arc.arc_id] += 1
            if arc.head == node:
                coeffs[arc.arc_id] -= 1
        rows.append((*coeffs, Fraction(0)))
    weights = tuple(arc.weight for arc in g.arcs)
    if prime:
        rows.append((*weights, Fraction(0)))
        rows.append((Fraction(1),) * (g.arc_count + 1))
    else:
        rows.append((*weights, Fraction(-1)))
    out = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        out.append(tuple(int(v * scale) for v in row))
    return tuple(out)


def _assert_rows_match_reference(g: WeightedDigraph) -> None:
    assert build_P(g).rows == _reference_rows(g, prime=False)
    assert build_P_prime(g).rows == _reference_rows(g, prime=True)


@settings(max_examples=100, deadline=None)
@given(graphs())
@example(LOOPY_MULTIGRAPH)
@example(RATIONAL_WEIGHTS)
@example(WeightedDigraph(2, ()))
def test_builders_match_rational_reference(g: WeightedDigraph) -> None:
    _assert_rows_match_reference(g)


def test_builders_match_rational_reference_on_corpus(
    graph_corpus: list[WeightedDigraph],
) -> None:
    for g in graph_corpus:
        _assert_rows_match_reference(g)


def test_builders_and_oracle_use_no_fraction_arithmetic(fraction_calls) -> None:
    # Each builder scales the weights once, at three reads per weight; rows,
    # rays and vertices are integers throughout.
    def run() -> tuple[VertexSet, VertexSet]:
        g = RATIONAL_WEIGHTS
        return oracle_vertices(build_P(g)), oracle_vertices(build_P_prime(g))

    (vertices, directions), calls = fraction_calls(run)
    assert (len(vertices.points), len(directions.points)) == (1, 1)
    assert set(calls) <= {"numerator", "denominator"}
    assert calls["numerator"] + calls["denominator"] <= 6 * RATIONAL_WEIGHTS.arc_count


# The rational elimination the integer kernel replaced, kept as its
# reference: a support solve and phase-1 simplex over `Fraction`, sharing
# one pivot step that scales the pivot row to 1.


def _reference_pivot(matrix: list[list[Fraction]], row: int, col: int) -> None:
    inv = 1 / matrix[row][col]
    pivot = [v * inv for v in matrix[row]]
    matrix[row] = pivot
    for r, other in enumerate(matrix):
        f = other[col]
        if r != row and f != 0:
            matrix[r] = [a - f * b for a, b in zip(other, pivot)]


def _reference_solve(h: HRep, support: list[int]) -> tuple[str, list[Fraction] | None]:
    """Verdict on the rows restricted to the support columns, and the values
    on the support if the solution is unique."""
    width = len(support)
    matrix = [
        [Fraction(row[c]) for c in support] + [Fraction(row[-1])] for row in h.rows
    ]
    row_at = 0
    for col in range(width):
        pivot = next(
            (r for r in range(row_at, len(matrix)) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[row_at], matrix[pivot] = matrix[pivot], matrix[row_at]
        _reference_pivot(matrix, row_at, col)
        row_at += 1
        if row_at == len(matrix):
            break
    for r in range(row_at, len(matrix)):
        if matrix[r][width] != 0:
            return "none", None
    if row_at < width:
        return "many", None
    return "unique", [matrix[r][width] for r in range(width)]


def _reference_phase1(h: HRep) -> bool:
    n = h.dimension
    rows = len(h.rows)
    if rows == 0:
        return True
    tableau: list[list[Fraction]] = []
    for *coeffs, rhs in h.rows:
        row = [Fraction(c) for c in coeffs]
        rhs = Fraction(rhs)
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
        _reference_pivot(tableau, best[2], entering)
        basis[best[2]] = entering
    return tableau[rows][width] == 0


@st.composite
def hreps(draw: st.DrawFn) -> HRep:
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(
        st.lists(
            st.tuples(st.lists(rationals, min_size=n, max_size=n), rationals),
            max_size=5,
        )
    )
    # Each rational row times the LCM of its denominators: same solutions.
    return HRep(n, tuple(tuple(_scaled((*coeffs, rhs))[0]) for coeffs, rhs in rows))


# Row 1 has a zero in the first pivot column and holds the second pivot:
# the solve is exact only if the first step scaled that row by p/d.
ZERO_THEN_PIVOT = HRep(2, ((2, 0, 2), (0, 1, 1), (1, 1, 2)))


@st.composite
def hreps_with_support(draw: st.DrawFn) -> tuple[HRep, list[int]]:
    h = draw(hreps())
    return h, sorted(draw(st.sets(st.integers(0, h.dimension - 1))))


def _on_support(m: int, support: list[int], values: list[Fraction]) -> ArcVector:
    entries = [Fraction(0)] * m
    for c, v in zip(support, values):
        entries[c] = v
    return ArcVector(tuple(entries))


@settings(max_examples=300, deadline=None)
@given(hreps_with_support())
@example((build_P(RATIONAL_WEIGHTS), [0, 3]))
@example((ZERO_THEN_PIVOT, [0, 1]))
@example((build_P_prime(RATIONAL_WEIGHTS), [0, 1, 2, 3]))
def test_certifier_matches_fraction_reference(case: tuple[HRep, list[int]]) -> None:
    # A point positive exactly on the support is a vertex iff the reference
    # solves the support uniquely to it. Try the unique solution when it is
    # positive, and the all-ones point, which is a vertex only when it is
    # that solution (a feasible one on dependent columns is not).
    h, support = case
    status, values = _reference_solve(h, support)
    ones = [Fraction(1)] * len(support)
    candidates = [ones]
    if status == "unique" and all(v > 0 for v in values):
        candidates.append(values)
    for candidate in candidates:
        point = _on_support(h.dimension, support, candidate)
        expected = status == "unique" and candidate == values
        assert oracle_certifies_vertex(h, point) == expected


@settings(max_examples=300, deadline=None)
@given(hreps())
@example(build_P(RATIONAL_WEIGHTS))
@example(build_P_prime(RATIONAL_WEIGHTS))
def test_phase1_matches_fraction_reference(h: HRep) -> None:
    verdict = _phase1_feasible(list(h.rows), h.dimension, _unbounded())
    assert verdict == _reference_phase1(h)


# The support-enumeration oracle, kept as the reference for the
# double-description one: every support whose sign pattern can meet all
# rows, and whose columns are few enough to be independent (at most one per
# row), is solved from scratch over `Fraction`.


def _sign_masks(h: HRep) -> list[tuple[int, int, int]]:
    """Per row: (positive-coefficient mask, negative-coefficient mask, rhs
    sign)."""
    out = []
    for *coeffs, rhs in h.rows:
        pos = sum(1 << i for i, c in enumerate(coeffs) if c > 0)
        neg = sum(1 << i for i, c in enumerate(coeffs) if c < 0)
        out.append((pos, neg, (rhs > 0) - (rhs < 0)))
    return out


def _support_is_plausible(s: int, masks: list[tuple[int, int, int]]) -> bool:
    # A support passes only if every row can still be satisfied by a point
    # that is strictly positive exactly on the support.
    for pos, neg, sign in masks:
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


def _reference_oracle_vertices(h: HRep) -> tuple[ArcVector, ...]:
    m = h.dimension
    masks = _sign_masks(h)
    points: list[ArcVector] = []
    for s in range(2**m):
        if s.bit_count() > len(h.rows) or not _support_is_plausible(s, masks):
            continue
        support = [i for i in range(m) if s >> i & 1]
        status, values = _reference_solve(h, support)
        if status == "unique" and all(v > 0 for v in values):
            points.append(_on_support(m, support, values))
    points.sort(key=lambda p: p.entries)
    return tuple(points)


def _matches_reference(h: HRep, prime: HRep, cap: int) -> bool:
    """The oracle's vertices of ``h`` are the reference's, and its
    directions are the reference's vertices of the recession slice
    ``prime``."""
    result = oracle_vertices(h, cap)
    return (result.points, result.directions) == (
        _reference_oracle_vertices(h),
        _reference_oracle_vertices(prime),
    )


# y_0 + y_1 = 1, a segment: the row is positive on the unit rays of y_0 and
# y_1 and negative on t's, so each vertex is the combination of one pair.
SEGMENT = HRep(2, ((1, 1, 1),))
# y_0 + y_1 = -1: the row is positive on every unit ray, so the cut empties
# the cone, and phase 1 must find the rows infeasible.
EMPTY_CUT = HRep(2, ((1, 1, -1),))
# The second row is the first at twice its scale: it is zero on every ray
# the first one leaves, so it cuts nothing.
DOUBLED_ROW = HRep(3, ((1, -1, 2, 1), (2, -2, 4, 2)))
# 0 y_0 = 1 is infeasible: its cone forces t = 0 and has the ray (1, 0),
# which is no vertex.
T_ZERO = HRep(1, ((0, 1),))
# No coordinates and no rows: the one point is the empty vector.
NO_COLUMNS = HRep(0, ())


@settings(max_examples=300, deadline=None)
@given(st.one_of(hreps(), graphs()))
@example(LOOPY_MULTIGRAPH)
@example(RATIONAL_WEIGHTS)
@example(ZERO_THEN_PIVOT)
@example(SEGMENT)
@example(EMPTY_CUT)
@example(DOUBLED_ROW)
@example(T_ZERO)
@example(NO_COLUMNS)
def test_oracle_matches_support_enumeration(case: HRep | WeightedDigraph) -> None:
    if isinstance(case, HRep):
        # The recession slice: right-hand sides 0, entries summing to 1.
        rows = (*((*r[:-1], 0) for r in case.rows), (1,) * (case.dimension + 1))
        h, prime = case, HRep(case.dimension, rows)
    else:
        h, prime = build_P(case), build_P_prime(case)
    assert _matches_reference(h, prime, STRATEGY_ORACLE_CAP)


def test_oracle_matches_support_enumeration_on_corpus(
    graph_corpus: list[WeightedDigraph],
) -> None:
    mismatches = [
        idx
        for idx, g in enumerate(graph_corpus)
        if not _matches_reference(build_P(g), build_P_prime(g), DEFAULT_ORACLE_CAP)
    ]
    assert mismatches == []
