"""Graph core: parsing, serialization, vectors, components."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negflow.errors import ParseError
from negflow.graph import (
    Arc,
    ArcVector,
    WeightedDigraph,
    _successors,
    characteristic_vector,
    parse_arc_vector,
    parse_graph,
    parse_rational,
    serialize_graph,
)
from references import subgraph

TRIANGLE = "p 3 3\na 1 2 -1\na 2 3 -1\na 3 1 -1\n"
DIGON = "p 2 2\na 1 2 -1/2\na 2 1 -1/2\n"


def test_parse_rational_lowest_terms() -> None:
    assert parse_rational("4/6") == Fraction(2, 3)
    assert parse_rational("-10") == Fraction(-10)
    assert parse_rational("0/7") == 0


@pytest.mark.parametrize(
    "bad", ["3/-2", "1.5", "", "/2", "2/", "a", "1/2/3", "+3", "\u0661", "1/\u0662"]
)
def test_parse_rational_rejects(bad: str) -> None:
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_triangle() -> None:
    g = parse_graph(TRIANGLE)
    assert g.node_count == 3
    assert g.arc_count == 3
    assert [(a.tail, a.head, a.weight) for a in g.arcs] == [
        (0, 1, Fraction(-1)),
        (1, 2, Fraction(-1)),
        (2, 0, Fraction(-1)),
    ]


def test_parse_digon_half_weights() -> None:
    g = parse_graph(DIGON)
    assert [a.weight for a in g.arcs] == [Fraction(-1, 2), Fraction(-1, 2)]
    assert sum(arc.weight for arc in g.arcs) == -1


def test_parse_comments_and_blank_lines() -> None:
    g = parse_graph("c hello\n\np 1 1\nc mid\na 1 1 0\n")
    assert g.arc_count == 1
    assert g.arcs[0].tail == g.arcs[0].head == 0


def test_parse_zero_denominator_names_line() -> None:
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("p 2 1\na 1 2 3/0\n")


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("p 2 1\np 2 1\na 1 2 0\n", 2, "duplicate"),
        ("a 1 2 0\n", 1, "before"),
        ("p 0 0\n", 1, "positive"),
        ("p 2 2\na 1 2 0\n", 1, "declares 2 arcs"),
        ("p 2 1\na 1 3 0\n", 2, "out of range"),
        ("p 2 1\na 0 2 0\n", 2, "out of range"),
        ("p 2 1\nb 1 2 0\n", 2, "unknown record"),
        ("p 2 1\na 1 2\n", 2, "needs tail"),
        ("p 2\n", 1, "needs node and arc"),
        ("", 1, "missing p header"),
        # Only ASCII digits, with no sign but '-' and no '_' separators.
        ("p 2 1\na 1 2 \u0661\n", 2, "malformed rational"),
        ("p \u0663 1\na 1 2 0\n", 1, "must be integers"),
        ("p 1_0 0\n", 1, "must be integers"),
        ("p 2 1\na +1 2 0\n", 2, "must be integers"),
    ],
)
def test_parse_errors(text: str, line: int, fragment: str) -> None:
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_graph(text)
    assert exc.value.line_number == line


def test_serialize_round_trip() -> None:
    g = parse_graph(TRIANGLE)
    assert parse_graph(serialize_graph(g)) == g


def test_serialize_emits_comments_first() -> None:
    g = parse_graph(DIGON)
    text = serialize_graph(g, ["one", "two"])
    assert text.splitlines()[:2] == ["c one", "c two"]
    assert parse_graph(text) == g


def test_arc_ids_must_be_positional() -> None:
    with pytest.raises(ValueError):
        WeightedDigraph(2, (Arc(1, 0, 1, Fraction(0)),))


def test_parallel_arcs_and_self_loops_allowed() -> None:
    g = parse_graph("p 2 3\na 1 2 1\na 1 2 2\na 2 2 -1\n")
    assert g.arc_count == 3
    assert _successors(g.arcs) == {0: [(0, 1), (1, 1)], 1: [(2, 1)]}


def test_successors_key_only_tails() -> None:
    g = parse_graph("p 5 2\na 4 2 0\na 2 3 0\n")
    assert _successors(g.arcs) == {3: [(0, 1)], 1: [(1, 2)]}
    assert _successors(g.arcs[1:]) == {1: [(1, 2)]}


def test_characteristic_vector_examples() -> None:
    g = parse_graph(TRIANGLE)
    assert characteristic_vector(g, ()).entries == (0, 0, 0)
    assert characteristic_vector(g, (0, 2)).entries == (1, 0, 1)
    d = parse_graph(DIGON)
    assert characteristic_vector(d, (0, 1)).entries == (1, 1)


def test_characteristic_vector_rejects_bad_id() -> None:
    g = parse_graph(TRIANGLE)
    with pytest.raises(ValueError):
        characteristic_vector(g, (3,))


def test_arc_vector_ops() -> None:
    v = ArcVector((Fraction(1), Fraction(0), Fraction(2)))
    assert v.support() == (0, 2)


def test_arc_vector_file_round_trip() -> None:
    v = ArcVector((Fraction(0), Fraction(3, 7), Fraction(-2)))
    assert parse_arc_vector("e 1 3/7\ne 2 -2\n", 3) == v
    assert parse_arc_vector("", 3).entries == (0, 0, 0)


def test_arc_vector_dense_and_integer_forms_agree() -> None:
    dense = ArcVector((Fraction(1, 2), Fraction(0), Fraction(-3, 4)))
    built = ArcVector.from_ints(3, 4, [(0, 2), (2, -3)])
    assert dense == built
    assert hash(dense) == hash(built)
    assert (built.dimension, built.den, built.items) == (3, 4, ((0, 2), (2, -3)))
    assert built.entries == (Fraction(1, 2), 0, Fraction(-3, 4))


def test_arc_vector_reduces_to_one_form() -> None:
    half = ArcVector((Fraction(1, 2),))
    for v in (
        ArcVector((Fraction(2, 4),)),
        ArcVector.from_ints(1, 4, [(0, 2)]),
        ArcVector.from_ints(1, -2, [(0, -1)]),
    ):
        assert v == half
        assert hash(v) == hash(half)
        assert (v.den, v.items) == (2, ((0, 1),))
    assert ArcVector.from_ints(2, 6, [(0, 4), (1, 2)]) != ArcVector.from_ints(
        2, 6, [(0, 2), (1, 4)]
    )


def test_arc_vector_zero_and_negative_entries() -> None:
    zero = ArcVector((Fraction(0),) * 30)
    assert (zero.den, zero.items, len(zero), zero.support()) == (1, (), 30, ())
    assert zero == ArcVector.from_ints(30, 7, [])
    assert zero != ArcVector((Fraction(0),) * 29)
    v = ArcVector((Fraction(-1, 3), Fraction(0), Fraction(2)))
    assert (v.den, v.items) == (3, ((0, -1), (2, 6)))
    assert len(v) == 3
    assert v.support() == (0, 2)
    assert (v.entries[0], v.entries[1], v.entries[2], v.entries[-1]) == (
        Fraction(-1, 3), 0, 2, 2
    )
    with pytest.raises(IndexError):
        v.entries[3]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)), max_size=8)
)
def test_arc_vector_parse_round_trip(entries: list[Fraction]) -> None:
    v = ArcVector(entries)
    assert v.entries == tuple(entries)
    assert v.support() == tuple(i for i, e in enumerate(entries) if e)
    assert ArcVector.from_ints(v.dimension, v.den, v.items) == v
    text = "".join(f"e {i} {e}\n" for i, e in enumerate(entries) if e)
    assert parse_arc_vector(text, len(entries)) == v


def test_arc_vector_parse_errors() -> None:
    with pytest.raises(ParseError, match="duplicate"):
        parse_arc_vector("e 0 1\ne 0 2\n", 2)
    with pytest.raises(ParseError, match="out of range"):
        parse_arc_vector("e 5 1\n", 2)
    with pytest.raises(ParseError, match="expected 'e"):
        parse_arc_vector("x 0 1\n", 2)
    for bad_id in ("\u0661", "+1", "0_1"):
        with pytest.raises(ParseError, match="must be an integer") as exc:
            parse_arc_vector(f"c ids\ne {bad_id} 1\n", 2)
        assert exc.value.line_number == 2


def test_positive_flow_stays_within_one_component() -> None:
    # On a graph made of two negative digons joined by a one-way bridge,
    # every feasible point routes flow inside a single strongly connected
    # component, never across the bridge.
    from negflow.polyhedra import build_P, oracle_vertices

    g = parse_graph(
        "p 4 5\na 1 2 -1/2\na 2 1 -1/2\na 2 3 0\na 3 4 -1/2\na 4 3 -1/2\n"
    )
    comps = ((0, 1), (2, 3))
    comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
    for point in oracle_vertices(build_P(g)).points:
        for arc_id in point.support():
            arc = g.arcs[arc_id]
            assert comp_of[arc.tail] == comp_of[arc.head]


def test_subgraph_full_is_isomorphic_copy() -> None:
    g = parse_graph(TRIANGLE)
    h = subgraph(g, (0, 1, 2))
    assert h.node_count == 3
    assert [(a.tail, a.head, a.weight) for a in h.arcs] == [
        (a.tail, a.head, a.weight) for a in g.arcs
    ]


def test_subgraph_single_arc() -> None:
    g = parse_graph(TRIANGLE)
    h = subgraph(g, (0,))
    assert h.node_count == 2
    assert h.arc_count == 1


def test_subgraph_keeps_weights() -> None:
    g = parse_graph("p 3 2\na 3 1 5/3\na 1 3 -2\n")
    h = subgraph(g, (1,))
    assert h.arcs[0].weight == -2


@st.composite
def graphs(draw: st.DrawFn) -> WeightedDigraph:
    n = draw(st.integers(min_value=1, max_value=5))
    arcs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
            ),
            max_size=8,
        )
    )
    return WeightedDigraph(
        n, tuple(Arc(i, t, h, Fraction(w)) for i, (t, h, w) in enumerate(arcs))
    )


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_serialize_parse_identity(g: WeightedDigraph) -> None:
    assert parse_graph(serialize_graph(g)) == g

