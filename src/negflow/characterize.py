"""Cycle-based construction of vertices and extreme directions.

Vertices of the weight-(-1) circulation polyhedron are negative cycles
scaled by -1/weight; extreme directions come from zero cycles scaled by
1/length and from 2-cycles combined with their (mu, mu') coefficients.
Each is built straight from arc ids as integer numerators over one
denominator, so no ``Fraction`` arithmetic runs per entry.
`verify_theorem1` checks both sets against one run of the independent
oracle on P, which yields its vertices and its extreme directions.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .cycles import (
    Cycle,
    TwoCycle,
    enumerate_cycles,
    enumerate_two_cycles,
)
from .graph import ArcVector, WeightedDigraph, _scaled, sorted_points
from .polyhedra import (
    DEFAULT_ORACLE_CAP,
    VertexSet,
    build_P,
    oracle_vertices,
)

DEFAULT_CYCLE_CAP = 2**16


def vertex_from_cycle(g: WeightedDigraph, cycle: Cycle) -> ArcVector:
    """(-1/w(C)) * chi(C); requires a negative cycle."""
    num, den = cycle.weight.numerator, cycle.weight.denominator
    if num >= 0:
        raise ValueError("vertex construction needs a negative cycle")
    items = [(i, den) for i in sorted(cycle.arc_ids)]
    return ArcVector.from_ints(g.arc_count, -num, items)


def direction_from_zero_cycle(g: WeightedDigraph, cycle: Cycle) -> ArcVector:
    """(1/|C|) * chi(C); requires a zero-weight cycle."""
    if cycle.weight.numerator != 0:
        raise ValueError("direction construction needs a zero-weight cycle")
    items = [(i, 1) for i in sorted(cycle.arc_ids)]
    return ArcVector.from_ints(g.arc_count, cycle.length, items)


def direction_from_two_cycle(g: WeightedDigraph, tc: TwoCycle) -> ArcVector:
    """mu * chi(C1) + mu' * chi(C2). With the weights W1 < 0 < W2 scaled to
    integers over a common denominator, that is W2 on the arcs only in C1,
    -W1 on those only in C2 and W2 - W1 on shared ones, all over
    D = W2 |C1| - W1 |C2|."""
    c1, c2 = tc.negative, tc.positive
    (w1, w2), _ = _scaled((c1.weight, c2.weight))
    nums = dict.fromkeys(c1.arc_ids, w2)
    for i in c2.arc_ids:
        nums[i] = nums.get(i, 0) - w1
    return ArcVector.from_ints(
        g.arc_count, w2 * c1.length - w1 * c2.length, sorted(nums.items())
    )


def vertices_from_negative_cycles(
    g: WeightedDigraph, cycles: Iterable[Cycle]
) -> VertexSet:
    points = {vertex_from_cycle(g, c) for c in cycles if c.weight.numerator < 0}
    return VertexSet(sorted_points(points))


def directions_from_cycles(
    g: WeightedDigraph, cycles: Iterable[Cycle], two_cycles: Iterable[TwoCycle]
) -> VertexSet:
    """Deduplicated union of zero-cycle and 2-cycle direction vectors."""
    points = {
        direction_from_zero_cycle(g, c) for c in cycles if c.weight.numerator == 0
    }
    points.update(direction_from_two_cycle(g, tc) for tc in two_cycles)
    return VertexSet(sorted_points(points))


@dataclass(frozen=True)
class CharacterizationReport:
    vertices_match: bool
    directions_match: bool
    formula_vertices: VertexSet
    formula_directions: VertexSet
    oracle: VertexSet
    negative_cycles: int
    zero_cycles: int
    positive_cycles: int
    two_cycles: int

    @property
    def all_match(self) -> bool:
        return self.vertices_match and self.directions_match

    def to_text(self) -> str:
        lines = [
            f"vertices_match: {_bool(self.vertices_match)}",
            f"directions_match: {_bool(self.directions_match)}",
            f"negative_cycles: {self.negative_cycles}",
            f"zero_cycles: {self.zero_cycles}",
            f"positive_cycles: {self.positive_cycles}",
            f"two_cycles: {self.two_cycles}",
            f"vertices: {len(self.formula_vertices.points)}",
            f"directions: {len(self.formula_directions.points)}",
        ]
        if not self.vertices_match:
            lines += _diff_lines(
                "vertex", set(self.formula_vertices.points), set(self.oracle.points)
            )
        if not self.directions_match:
            lines += _diff_lines(
                "direction",
                set(self.formula_directions.points),
                set(self.oracle.directions),
            )
        return "\n".join(lines) + "\n"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _diff_lines(kind: str, formula: set[ArcVector], oracle: set[ArcVector]) -> list[str]:
    lines = []
    for p in sorted_points(formula - oracle):
        lines.append(f"{kind}_only_in_formula: {format_point(p)}")
    for p in sorted_points(oracle - formula):
        lines.append(f"{kind}_only_in_oracle: {format_point(p)}")
    return lines


def format_point(v: ArcVector) -> str:
    """Sparse one-line rendering: arc-id value pairs, zeros omitted, each
    value in lowest terms as ``str(Fraction)`` prints it."""
    parts = []
    for i, n in v.items:
        common = gcd(n, v.den)
        num, den = n // common, v.den // common
        parts.append(f"{i} {num}" if den == 1 else f"{i} {num}/{den}")
    return " ".join(parts)


def format_tagged_point(tag: str, v: ArcVector) -> str:
    body = format_point(v)
    return f"{tag} {body}" if body else tag


def verify_theorem1(
    g: WeightedDigraph,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> CharacterizationReport:
    """Exact set comparison of both characterizations against one oracle run
    on P: its vertices and its directions."""
    cycles = enumerate_cycles(g, cycle_cap)
    two_cycles = enumerate_two_cycles(g, cycles, cycle_cap)
    formula_vertices = vertices_from_negative_cycles(g, cycles)
    formula_directions = directions_from_cycles(g, cycles, two_cycles)
    oracle = oracle_vertices(build_P(g), oracle_cap)
    return CharacterizationReport(
        vertices_match=set(formula_vertices.points) == set(oracle.points),
        directions_match=set(formula_directions.points) == set(oracle.directions),
        formula_vertices=formula_vertices,
        formula_directions=formula_directions,
        oracle=oracle,
        negative_cycles=sum(1 for c in cycles if c.weight.numerator < 0),
        zero_cycles=sum(1 for c in cycles if c.weight.numerator == 0),
        positive_cycles=sum(1 for c in cycles if c.weight.numerator > 0),
        two_cycles=len(two_cycles),
    )
