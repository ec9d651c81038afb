"""Built-in instance families and the seeded random generator."""
from fractions import Fraction

import pytest

from negflow.cycles import TwoCycleShape, enumerate_cycles
from negflow.generators import Lcg, gen_fig1, gen_fig3, gen_random
from negflow.graph import parse_graph, serialize_graph
from references import find_two_cycles


def test_lcg_is_reproducible() -> None:
    a = Lcg(42)
    b = Lcg(42)
    seq = [a.next_below(1000) for _ in range(8)]
    assert seq == [b.next_below(1000) for _ in range(8)]
    assert any(x != seq[0] for x in seq)


def test_lcg_seeds_differ() -> None:
    assert [Lcg(1).next_below(10**6) for _ in range(4)] != [
        Lcg(2).next_below(10**6) for _ in range(4)
    ]


def test_lcg_range() -> None:
    rng = Lcg(7)
    for _ in range(200):
        assert 0 <= rng.next_below(13) < 13


def test_fig3_shape() -> None:
    for k in (1, 2, 3, 4):
        g = gen_fig3(k)
        assert g.node_count == 4 * k
        assert g.arc_count == 6 * k
        ring = g.arcs[: 2 * k]
        assert all(a.weight == -1 for a in ring)
        assert sum(a.weight for a in g.arcs[2 * k :]) == 4 * k * k


def test_fig3_cycle_counts() -> None:
    for k in (1, 2, 3):
        cycles = enumerate_cycles(gen_fig3(k), 2**10)
        assert len(cycles) == 3**k
        negatives = [c for c in cycles if c.weight < 0]
        assert len(negatives) == 1
        assert negatives[0].weight == -2 * k
        assert negatives[0].length == 2 * k
        assert not any(c.weight == 0 for c in cycles)


def test_fig3_two_cycle_count() -> None:
    for k in (1, 2):
        g = gen_fig3(k)
        pairs = find_two_cycles(g, enumerate_cycles(g, 2**12), 2**12)
        assert len(pairs) == 2 * k


def test_fig3_rejects_bad_k() -> None:
    with pytest.raises(ValueError):
        gen_fig3(0)


def test_fig1_edge_disjoint() -> None:
    g = gen_fig1(TwoCycleShape.EDGE_DISJOINT)
    assert g.node_count == 6
    assert g.arc_count == 6
    cycles = enumerate_cycles(g, 10)
    assert sorted(c.weight for c in cycles) == [-1, 1]
    pairs = find_two_cycles(g, enumerate_cycles(g, 100), 100)
    assert len(pairs) == 1 and pairs[0].shape is TwoCycleShape.EDGE_DISJOINT


def test_fig1_three_path() -> None:
    g = gen_fig1(TwoCycleShape.THREE_PATH)
    assert g.node_count == 3
    assert g.arc_count == 4
    pairs = find_two_cycles(g, enumerate_cycles(g, 100), 100)
    assert len(pairs) == 1 and pairs[0].shape is TwoCycleShape.THREE_PATH


def test_random_graph_is_deterministic() -> None:
    a = gen_random(5, 8, (-3, 3), 123)
    b = gen_random(5, 8, (-3, 3), 123)
    assert a == b
    c = gen_random(5, 8, (-3, 3), 124)
    assert a != c


def test_random_graph_respects_bounds() -> None:
    g = gen_random(6, 12, (-3, 3), 9)
    assert g.node_count == 6
    assert g.arc_count == 12
    pairs = set()
    for a in g.arcs:
        assert a.tail != a.head
        assert -3 <= a.weight <= 3
        assert a.weight.denominator == 1
        pairs.add((a.tail, a.head))
    assert len(pairs) == 12  # no duplicate ordered pairs


def test_random_graph_validations() -> None:
    with pytest.raises(ValueError):
        gen_random(0, 1, (-1, 1), 0)
    with pytest.raises(ValueError):
        gen_random(3, -1, (-1, 1), 0)
    with pytest.raises(ValueError):
        gen_random(3, 7, (-1, 1), 0)  # more arcs than ordered pairs
    with pytest.raises(ValueError):
        gen_random(3, 2, (2, 1), 0)  # inverted weight range


def test_generator_outputs_round_trip() -> None:
    instances = [gen_fig3(2), gen_fig1(TwoCycleShape.EDGE_DISJOINT),
                 gen_fig1(TwoCycleShape.THREE_PATH), gen_random(4, 6, (-2, 2), 5)]
    for g in instances:
        assert parse_graph(serialize_graph(g)) == g


def test_weights_are_exact_fractions() -> None:
    g = gen_fig3(3)
    assert all(isinstance(a.weight, Fraction) for a in g.arcs)
