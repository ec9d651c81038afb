"""Cycle-formula vertex/direction construction vs. the oracle."""
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negflow.characterize import (
    CharacterizationReport,
    direction_from_two_cycle,
    direction_from_zero_cycle,
    directions_from_cycles,
    format_point,
    format_tagged_point,
    verify_theorem1,
)
from negflow import cycles as cycles_module
from negflow.cli import main
from negflow.cycles import TwoCycleShape, enumerate_cycles
from negflow.generators import gen_fig1, gen_fig3, gen_random
from negflow.graph import Arc, ArcVector, WeightedDigraph, parse_graph, serialize_graph
from negflow.polyhedra import (
    HRep,
    VertexSet,
    build_P,
    build_P_prime,
    oracle_vertices,
)
from negflow.reduction import decide_ve01, parse_dimacs_cnf
from references import (
    dense_directions,
    dense_line,
    dense_vertices,
    find_two_cycles,
    oracle_certifies_vertex,
)

TRIANGLE = parse_graph("p 3 3\na 1 2 -1\na 2 3 -1\na 3 1 -1\n")
DIGON = parse_graph("p 2 2\na 1 2 -1/2\na 2 1 -1/2\n")


def _directions(g: WeightedDigraph, cap: int) -> VertexSet:
    cycles = enumerate_cycles(g, cap)
    return directions_from_cycles(g, cycles, find_two_cycles(g, cycles, cap))


def _vertices(g: WeightedDigraph) -> list[tuple[Fraction, ...]]:
    return [p.entries for p in verify_theorem1(g, 10, 2**10).formula_vertices.points]


def test_vertex_from_triangle() -> None:
    assert _vertices(TRIANGLE) == [(Fraction(1, 3),) * 3]


def test_vertex_from_gadget_digon_is_01() -> None:
    assert _vertices(DIGON) == [(1, 1)]


def test_vertex_requires_negative_cycle() -> None:
    # A zero cycle and a positive one give directions, never vertices.
    for text in ("p 3 3\na 1 2 1\na 2 3 -1\na 3 1 0\n", "p 2 2\na 1 2 1\na 2 1 0\n"):
        assert _vertices(parse_graph(text)) == []


def test_vertices_empty_without_negative_cycles() -> None:
    g = parse_graph("p 3 3\na 1 2 1\na 2 3 1\na 3 1 1\n")
    assert _vertices(g) == []


def test_direction_from_zero_cycle() -> None:
    g = parse_graph("p 3 3\na 1 2 1\na 2 3 -1\na 3 1 0\n")
    c = enumerate_cycles(g, 10)[0]
    assert direction_from_zero_cycle(g, c).entries == (Fraction(1, 3),) * 3


def test_direction_from_zero_cycle_rejects_signed() -> None:
    c = enumerate_cycles(TRIANGLE, 10)[0]
    with pytest.raises(ValueError):
        direction_from_zero_cycle(TRIANGLE, c)


def test_edge_disjoint_direction_is_uniform_sixth() -> None:
    g = gen_fig1(TwoCycleShape.EDGE_DISJOINT)
    points = _directions(g, 100).points
    assert [p.entries for p in points] == [(Fraction(1, 6),) * 6]


def test_three_path_direction_identities() -> None:
    g = gen_fig1(TwoCycleShape.THREE_PATH)
    tc = find_two_cycles(g, enumerate_cycles(g, 100), 100)[0]
    d = direction_from_two_cycle(g, tc)
    assert d.entries == (Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
    assert sum(d.entries) == 1
    assert sum(a.weight * v for a, v in zip(g.arcs, d.entries)) == 0


def test_fig3_k1_directions() -> None:
    g = gen_fig3(1)
    points = _directions(g, 100).points
    eighth, quarter = Fraction(1, 8), Fraction(1, 4)
    assert {p.entries for p in points} == {
        (eighth, Fraction(3, 8), quarter, quarter, 0, 0),
        (eighth, Fraction(3, 8), 0, 0, quarter, quarter),
    }
    h = build_P_prime(g)
    for p in points:
        assert oracle_certifies_vertex(h, p)


def test_verify_triangle() -> None:
    report = verify_theorem1(TRIANGLE, 100, 2**10)
    assert report.vertices_match and report.directions_match and report.all_match
    assert report.formula_directions.points == ()
    assert report.oracle.directions == ()


def test_verify_fig3_k2_counts() -> None:
    report = verify_theorem1(gen_fig3(2), 2**10, 2**14)
    assert report.all_match
    assert report.two_cycles == 4
    assert len(report.formula_directions.points) == 4
    assert report.zero_cycles == 0


def test_verify_on_isolated_nodes_stays_small(peak_bytes) -> None:
    # 4,999 isolated nodes and a loop: every flow row is 0 = 0, and the
    # oracle and phase 1 drop them all before they build anything per row.
    g = parse_graph("p 5000 1\na 1 1 -1\n")
    report, peak = peak_bytes(lambda: verify_theorem1(g))
    assert report.all_match
    assert peak < 10 * 2**20


def _count_calls(monkeypatch: pytest.MonkeyPatch) -> dict[str, list]:
    """Wrap the Johnson walk, the cycle weighting that drives it and the
    2-cycle test on cycle masks at every negflow name bound to them,
    recording the arguments of each call. The weighting serves
    `enumerate_cycles`, `verify_theorem1` and the commands' integer passes."""
    calls: dict[str, list] = {
        "_weighted_cycles": [],
        "_two_cycle_shape": [],
        "_iter_arc_cycles": [],
    }
    for name, record in calls.items():
        original = getattr(cycles_module, name)

        def counted(*args, _original=original, _record=record):
            _record.append(args)
            return _original(*args)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "negflow":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_verify_enumerates_cycles_once(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = _count_calls(monkeypatch)
    report = verify_theorem1(gen_fig3(2), 2**10, 2**14)
    assert report.all_match
    assert len(calls["_weighted_cycles"]) == 1
    # A simple cycle is fixed by its arc set, so its arc mask names it.
    pairs = [(arcs1, arcs2) for arcs1, _, arcs2, _ in calls["_two_cycle_shape"]]
    assert report.negative_cycles * report.positive_cycles == 8
    assert len(pairs) == len(set(pairs)) == 8


def test_cli_and_decide_enumerate_cycles_once(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    calls = _count_calls(monkeypatch)
    graph = tmp_path / "fig3.graph"
    graph.write_text(serialize_graph(gen_fig3(2)))
    for command, pairs in (("vertices", 0), ("directions", 8)):
        assert main([command, str(graph)]) == 0
        assert len(calls["_weighted_cycles"]) == len(calls["_iter_arc_cycles"]) == 1
        assert len(calls["_two_cycle_shape"]) == pairs
        for record in calls.values():
            record.clear()
    # decide searches for a long cycle and walks none, for SAT and UNSAT
    # formulas alike.
    for text in ("p cnf 2 2\n1 2 0\n-1 -2 0\n", "p cnf 1 2\n1 0\n-1 0\n"):
        decide_ve01(parse_dimacs_cnf(text), 2**16)
        assert calls["_iter_arc_cycles"] == calls["_weighted_cycles"] == []


def test_report_text_shape() -> None:
    report = verify_theorem1(TRIANGLE, 100, 2**10)
    text = report.to_text()
    assert "vertices_match: true" in text
    assert "directions_match: true" in text
    assert text.endswith("\n")


def test_report_text_shows_diff_on_mismatch() -> None:
    v = ArcVector((Fraction(1),))
    d = ArcVector((Fraction(1, 2),))
    fake = CharacterizationReport(
        vertices_match=False,
        directions_match=False,
        formula_vertices=VertexSet((v,)),
        formula_directions=VertexSet(()),
        oracle=VertexSet((), (d,)),
        negative_cycles=1,
        zero_cycles=0,
        positive_cycles=0,
        two_cycles=0,
    )
    text = fake.to_text()
    assert "vertices_match: false" in text
    assert "vertex_only_in_formula: 0 1" in text
    # The oracle's directions come from the same run as its vertices.
    assert "direction_only_in_oracle: 0 1/2" in text


def test_format_point_sparse() -> None:
    v = ArcVector((Fraction(0), Fraction(1, 3), Fraction(0), Fraction(2)))
    assert format_point(v) == "1 1/3 3 2"
    assert format_tagged_point("v", v) == "v 1 1/3 3 2"
    assert format_point(ArcVector((Fraction(0),) * 2)) == ""


def test_format_point_reduces_each_entry() -> None:
    (d,) = oracle_vertices(build_P(RATIONAL_WEIGHTS)).directions
    assert (d.den, d.items) == (20, ((0, 9), (1, 2), (2, 2), (3, 7)))
    assert format_point(d) == "0 9/20 1 1/10 2 1/10 3 7/20"
    v = ArcVector((Fraction(-6, 4), Fraction(0), Fraction(-2), Fraction(1, 6)))
    assert format_point(v) == "0 -3/2 2 -2 3 1/6"
    # The only point of an empty system in 30 arcs is the origin.
    (origin,) = oracle_vertices(HRep(30, ())).points
    assert format_tagged_point("v", origin) == "v"


def _arcs(n: int, *arcs: tuple[int, int, Fraction]) -> WeightedDigraph:
    return WeightedDigraph(
        n, tuple(Arc(i, t, h, w) for i, (t, h, w) in enumerate(arcs))
    )


@st.composite
def graphs(draw: st.DrawFn) -> WeightedDigraph:
    n = draw(st.integers(min_value=1, max_value=4))
    weights = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4))
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights),
            max_size=7,
        )
    )
    return _arcs(n, *arcs)


# The oracle cap bounds row evaluations, adjacency-scan reads, new rays'
# entries and the phase-1 tableau entries each pivot rewrites, over the one
# run on P. For the strategy above (<= 4 nodes, <= 7 arcs) 100,000 random
# draws found none above 815 units, and hill-climbing searches of 28,000
# more graphs none above 931. This cap leaves 4.4x headroom over the
# largest seen.
STRATEGY_ORACLE_CAP = 2**12


# A digon weighing 1/3 - 1/2 sharing arc 0->1 with a triangle weighing
# 1/3 - 1/2 + 3/4: the weight rows scale by 12, the other rows by 1. Its one
# direction is (9/20, 1/10, 1/10, 7/20): two entries print in lower terms
# than the vector's common denominator 20.
RATIONAL_WEIGHTS = _arcs(
    3,
    (0, 1, Fraction(1, 3)), (1, 2, Fraction(-1, 2)), (2, 0, Fraction(3, 4)),
    (1, 0, Fraction(-1, 2)),
)
# Three weight-0 loops, two parallel weight -1 arcs 0->1 and two parallel
# weight-0 arcs 1->0 (as in test_polyhedra.py): zero loops give directions,
# and distinct cycles share their nodes.
LOOPY_MULTIGRAPH = _arcs(
    2,
    (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 1, -1), (0, 1, -1),
    (1, 0, 0), (1, 0, 0),
)


@settings(max_examples=60, deadline=None)
@given(graphs())
@example(RATIONAL_WEIGHTS)
def test_formula_matches_oracle_on_random_graphs(g: WeightedDigraph) -> None:
    report = verify_theorem1(g, 2**12, STRATEGY_ORACLE_CAP)
    assert report.all_match


@settings(max_examples=150, deadline=None)
@given(graphs())
@example(RATIONAL_WEIGHTS)
@example(LOOPY_MULTIGRAPH)
def test_integer_vectors_match_dense_reference(g: WeightedDigraph) -> None:
    cycles = enumerate_cycles(g, 2**12)
    two_cycles = find_two_cycles(g, cycles, 2**12)
    vertices = dense_vertices(g, cycles)
    directions = dense_directions(g, cycles, two_cycles)
    report = verify_theorem1(g, 2**12, STRATEGY_ORACLE_CAP)
    oracle = report.oracle
    for got, dense in (
        (report.formula_vertices, vertices),
        (report.formula_directions, directions),
        (directions_from_cycles(g, cycles, two_cycles), directions),
        (oracle, vertices),
        (VertexSet(oracle.directions), directions),
    ):
        assert [p.entries for p in got.points] == dense
        assert list(got.points) == [ArcVector(e) for e in dense]
        assert [hash(p) for p in got.points] == [hash(ArcVector(e)) for e in dense]
        assert [format_point(p) for p in got.points] == [dense_line(e) for e in dense]


def test_directions_command_matches_dense_reference(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # The `vertices` and `directions` commands build integer rows straight
    # from the cycle walk and keep no set of them: a vertex's support holds
    # its one negative cycle, a zero cycle's direction that one cycle and a
    # 2-cycle's exactly its two, so no vector can repeat. 300 seeded
    # multigraphs (1-7 nodes, 0-14 arcs, loops, parallel arcs, weights over
    # denominators 1-4) check both facts against the dense builders, which
    # dedupe by a set.
    rng = random.Random(21)
    path = tmp_path / "g.graph"
    lines = vertex_lines = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        g = _arcs(
            n,
            *(
                (
                    rng.randrange(n),
                    rng.randrange(n),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                )
                for _ in range(rng.randint(0, 14))
            ),
        )
        path.write_text(serialize_graph(g))
        cycles = enumerate_cycles(g, 2**16)
        two_cycles = find_two_cycles(g, cycles, 2**16)
        dense = dense_vertices(g, cycles)
        assert len(dense) == sum(c.weight < 0 for c in cycles)
        assert main(["vertices", str(path)]) == 0
        assert capsys.readouterr().out == "".join(f"v {dense_line(e)}\n" for e in dense)
        vertex_lines += len(dense)
        dense = dense_directions(g, cycles, two_cycles)
        assert len(dense) == sum(c.weight == 0 for c in cycles) + len(two_cycles)
        assert main(["directions", str(path)]) == 0
        assert capsys.readouterr().out == "".join(f"d {dense_line(e)}\n" for e in dense)
        lines += len(dense)
    assert lines > 1000
    assert vertex_lines > 500


def _theorem1_family() -> list[WeightedDigraph]:
    """Random simple graphs on 6-8 nodes at m = 13..34 (m <= n(n - 1)),
    above the 5-12 arcs of the criterion-1 corpus's random graphs, plus two
    multigraphs (a heavier parallel copy of arcs 0 and 1 and a weight-0
    loop) and two rational-weight graphs (arc i's weight over 1 + i mod 4)."""
    family = [
        gen_random(n, m, (-3, 3), 7000 + 10 * m + n)
        for m in range(13, 35)
        for n in (6, 7, 8)
        if m <= n * (n - 1)
    ]
    for n in (5, 6):
        g = gen_random(n, 17, (-3, 3), 7100 + n)
        arcs = [(a.tail, a.head, a.weight) for a in g.arcs]
        extra = [(t, h, w + 1) for t, h, w in arcs[:2]] + [(0, 0, Fraction(0))]
        family.append(_arcs(n, *arcs, *extra))
    for n in (6, 7):
        g = gen_random(n, 20, (-3, 3), 7200 + n)
        family.append(
            _arcs(n, *((a.tail, a.head, a.weight / (1 + a.arc_id % 4)) for a in g.arcs))
        )
    return family


# On this family the largest oracle run (P of the 7-node, 34-arc random
# graph) takes 8,508,201 units, 1,890 of them in phase 1 (at most 3,978 on
# any graph here); 2^24 leaves 2.0x headroom, so the family runs to the end
# while an oracle that grew several-fold would abort loudly. The family
# takes about 7 s; its budget is 30 s on a 2-core VM.
THEOREM1_ORACLE_CAP = 2**24


def test_theorem1_holds_at_13_to_34_arcs() -> None:
    mismatches = [
        idx
        for idx, g in enumerate(_theorem1_family())
        if not verify_theorem1(g, 2**20, THEOREM1_ORACLE_CAP).all_match
    ]
    assert mismatches == []
