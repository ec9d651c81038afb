"""Cycle-based construction of vertices and extreme directions.

Vertices of the weight-(-1) circulation polyhedron are negative cycles
scaled by -1/weight; extreme directions come from zero cycles scaled by
1/length and from 2-cycles combined with their (mu, mu') coefficients.
`verify_theorem1` checks both sets against the independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .cycles import (
    Cycle,
    TwoCycle,
    enumerate_cycles,
    enumerate_two_cycles,
)
from .graph import ArcVector, WeightedDigraph
from .polyhedra import (
    DEFAULT_ORACLE_CAP,
    VertexSet,
    build_P,
    build_P_prime,
    oracle_vertices,
)

DEFAULT_CYCLE_CAP = 2**16


def _arc_vector(
    g: WeightedDigraph, terms: Iterable[tuple[Cycle, Fraction]]
) -> ArcVector:
    """Sum of coeff * chi(C) over the terms, written into the cycles' arcs
    only."""
    entries = [Fraction(0)] * g.arc_count
    for cycle, coeff in terms:
        for arc_id in cycle.arc_ids:
            entries[arc_id] += coeff
    return ArcVector(tuple(entries))


def vertex_from_cycle(g: WeightedDigraph, cycle: Cycle) -> ArcVector:
    """(-1/w(C)) * chi(C); requires a negative cycle."""
    if cycle.weight >= 0:
        raise ValueError("vertex construction needs a negative cycle")
    return _arc_vector(g, [(cycle, Fraction(-1) / cycle.weight)])


def direction_from_zero_cycle(g: WeightedDigraph, cycle: Cycle) -> ArcVector:
    """(1/|C|) * chi(C); requires a zero-weight cycle."""
    if cycle.weight != 0:
        raise ValueError("direction construction needs a zero-weight cycle")
    return _arc_vector(g, [(cycle, Fraction(1, cycle.length))])


def direction_from_two_cycle(g: WeightedDigraph, tc: TwoCycle) -> ArcVector:
    """mu * chi(C1) + mu' * chi(C2)."""
    return _arc_vector(g, [(tc.negative, tc.mu), (tc.positive, tc.mu_prime)])


def vertices_from_negative_cycles(
    g: WeightedDigraph, cycles: Iterable[Cycle]
) -> VertexSet:
    points = {
        vertex_from_cycle(g, c)
        for c in cycles
        if c.weight < 0
    }
    return VertexSet(tuple(sorted(points, key=lambda p: p.entries)))


def directions_from_cycles(
    g: WeightedDigraph, cycles: Iterable[Cycle], two_cycles: Iterable[TwoCycle]
) -> VertexSet:
    """Deduplicated union of zero-cycle and 2-cycle direction vectors."""
    points = {
        direction_from_zero_cycle(g, c)
        for c in cycles
        if c.weight == 0
    }
    for tc in two_cycles:
        points.add(direction_from_two_cycle(g, tc))
    return VertexSet(tuple(sorted(points, key=lambda p: p.entries)))


@dataclass(frozen=True)
class CharacterizationReport:
    vertices_match: bool
    directions_match: bool
    formula_vertices: VertexSet
    oracle_vertex_set: VertexSet
    formula_directions: VertexSet
    oracle_direction_set: VertexSet
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
                "vertex", self.formula_vertices, self.oracle_vertex_set
            )
        if not self.directions_match:
            lines += _diff_lines(
                "direction", self.formula_directions, self.oracle_direction_set
            )
        return "\n".join(lines) + "\n"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _diff_lines(kind: str, formula: VertexSet, oracle: VertexSet) -> list[str]:
    formula_set = set(formula.points)
    oracle_set = set(oracle.points)
    lines = []
    for p in sorted(formula_set - oracle_set, key=lambda p: p.entries):
        lines.append(f"{kind}_only_in_formula: {format_point(p)}")
    for p in sorted(oracle_set - formula_set, key=lambda p: p.entries):
        lines.append(f"{kind}_only_in_oracle: {format_point(p)}")
    return lines


def format_point(v: ArcVector) -> str:
    """Sparse one-line rendering: arc-id value pairs, zeros omitted."""
    return " ".join(f"{i} {v.entries[i]}" for i in v.support())


def format_tagged_point(tag: str, v: ArcVector) -> str:
    body = format_point(v)
    return f"{tag} {body}" if body else tag


def verify_theorem1(
    g: WeightedDigraph,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> CharacterizationReport:
    """Exact set comparison of both characterizations against the oracle."""
    cycles = enumerate_cycles(g, cycle_cap)
    two_cycles = enumerate_two_cycles(g, cycles, cycle_cap)
    formula_vertices = vertices_from_negative_cycles(g, cycles)
    formula_directions = directions_from_cycles(g, cycles, two_cycles)
    oracle_v = oracle_vertices(build_P(g), oracle_cap)
    oracle_d = oracle_vertices(build_P_prime(g), oracle_cap)
    return CharacterizationReport(
        vertices_match=set(formula_vertices.points) == set(oracle_v.points),
        directions_match=set(formula_directions.points) == set(oracle_d.points),
        formula_vertices=formula_vertices,
        oracle_vertex_set=oracle_v,
        formula_directions=formula_directions,
        oracle_direction_set=oracle_d,
        negative_cycles=sum(1 for c in cycles if c.weight < 0),
        zero_cycles=sum(1 for c in cycles if c.weight == 0),
        positive_cycles=sum(1 for c in cycles if c.weight > 0),
        two_cycles=len(two_cycles),
    )
