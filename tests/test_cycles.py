"""Cycle enumeration, cycle weights, 2-cycles, and decomposition.

The independent oracle here is a plain backtracking enumerator
(`brute_cycles`), structurally unrelated to the blocked-search
implementation under test; networkx cross-checks node cycles.
"""
import random
import time
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negflow.characterize import directions_from_cycles
from negflow.cycles import (
    Cycle,
    TwoCycleShape,
    decompose_circulation,
    enumerate_cycles,
    enumerate_two_cycles,
    format_cycle,
    is_two_cycle,
    make_cycle,
)
from negflow.errors import CapExceeded, NotACirculation
from negflow.generators import gen_fig1, gen_fig3, gen_random
from negflow.graph import (
    Arc,
    ArcVector,
    WeightedDigraph,
    characteristic_vector,
    parse_graph,
    subgraph,
)

TRIANGLE = parse_graph("p 3 3\na 1 2 -1\na 2 3 -1\na 3 1 -1\n")


def brute_cycles(g: WeightedDigraph) -> set[tuple[int, ...]]:
    """All simple arc cycles, each rotated to start at its smallest arc id."""
    found: set[tuple[int, ...]] = set()
    out_arcs: list[list[Arc]] = [[] for _ in range(g.node_count)]
    for arc in g.arcs:
        out_arcs[arc.tail].append(arc)

    def recurse(node: int, path: list[int], visited: set[int]) -> None:
        origin = g.arcs[path[0]].tail
        for arc in out_arcs[node]:
            if arc.arc_id <= path[0]:
                continue
            if arc.head == origin:
                found.add(tuple(path) + (arc.arc_id,))
            elif arc.head not in visited:
                recurse(arc.head, path + [arc.arc_id], visited | {arc.head})

    for start in g.arcs:
        if start.head == start.tail:
            found.add((start.arc_id,))
        else:
            recurse(start.head, [start.arc_id], {start.tail, start.head})
    return found


def test_triangle_single_cycle() -> None:
    cycles = enumerate_cycles(TRIANGLE, 10)
    assert len(cycles) == 1
    assert cycles[0].arc_ids == (0, 1, 2)
    assert cycles[0].length == 3
    assert cycles[0].weight == -3


def test_fig3_k3_cycle_census() -> None:
    cycles = enumerate_cycles(gen_fig3(3), 2**10)
    assert len(cycles) == 27
    assert sum(1 for c in cycles if c.weight < 0) == 1
    assert sum(1 for c in cycles if c.weight > 0) == 26


def test_dag_has_no_cycles() -> None:
    g = parse_graph("p 3 2\na 1 2 0\na 2 3 0\n")
    assert enumerate_cycles(g, 10) == ()


def test_parallel_arcs_multiply_cycles() -> None:
    g = parse_graph("p 2 3\na 1 2 1\na 1 2 2\na 2 1 0\n")
    cycles = enumerate_cycles(g, 10)
    assert {c.arc_ids for c in cycles} == {(0, 2), (1, 2)}


def test_self_loop_is_a_cycle() -> None:
    g = parse_graph("p 2 2\na 1 1 -1\na 2 2 0\n")
    cycles = enumerate_cycles(g, 10)
    assert [(c.arc_ids, c.weight, c.length) for c in cycles] == [
        ((0,), -1, 1),
        ((1,), 0, 1),
    ]


def test_cap_exceeded() -> None:
    # The k = 2 Fig. 3 graph has 9 cycles: the walk raises at the 10th.
    g = gen_fig3(2)
    assert len(enumerate_cycles(g, 9)) == 9
    with pytest.raises(CapExceeded) as exc:
        enumerate_cycles(g, 8)
    assert exc.value.kind == "cycles"
    assert exc.value.cap == 8
    assert str(exc.value) == "cycles cap 8 exceeded (graph has more than 8 cycles)"


def _reference_make_cycle(g: WeightedDigraph, arc_seq: Sequence[int]) -> Cycle:
    """The cycle with its weight summed in ``Fraction`` arithmetic."""
    k = arc_seq.index(min(arc_seq))
    weight = sum((g.arcs[i].weight for i in arc_seq), Fraction(0))
    return Cycle(tuple(arc_seq[k:]) + tuple(arc_seq[:k]), weight)


def test_make_cycle_normalizes_rotation() -> None:
    assert make_cycle(TRIANGLE, (1, 2, 0)) == make_cycle(TRIANGLE, (0, 1, 2))
    assert make_cycle(TRIANGLE, (2, 0, 1)).arc_ids == (0, 1, 2)


def test_format_cycle() -> None:
    c = enumerate_cycles(TRIANGLE, 10)[0]
    assert format_cycle(c) == "C -3 : 0 1 2"


# Rationals with small numerators and denominators 1-4, so the integer
# weight scaling meets LCMs above 1 (zero, negative and non-integer values).
rationals = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4))


@st.composite
def graphs(draw: st.DrawFn) -> WeightedDigraph:
    n = draw(st.integers(min_value=1, max_value=5))
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), rationals),
            max_size=8,
        )
    )
    return WeightedDigraph(
        n, tuple(Arc(i, t, h, w) for i, (t, h, w) in enumerate(arcs))
    )


# Denominators 3, 2 and 4 (LCM 12), a self-loop, and parallel arcs 1->2.
MIXED_DENOMINATORS = parse_graph(
    "p 3 6\na 1 2 1/3\na 1 2 -1/2\na 2 3 3/4\na 3 1 -1/3\n"
    "a 2 1 1/4\na 3 3 -3/2\n"
)


@settings(max_examples=100, deadline=None)
@given(graphs())
@example(MIXED_DENOMINATORS)
def test_enumeration_matches_backtracking_oracle(g: WeightedDigraph) -> None:
    got = enumerate_cycles(g, 2**12)
    assert {c.arc_ids for c in got} == brute_cycles(g)
    assert all(c.arc_ids[0] == min(c.arc_ids) for c in got)
    assert list(got) == sorted(got, key=lambda c: c.arc_ids)
    for c in got:
        assert c == make_cycle(g, c.arc_ids) == _reference_make_cycle(g, c.arc_ids)


def test_enumeration_matches_backtracking_oracle_on_larger_multigraphs() -> None:
    # Beyond the strategy's 5 nodes and 8 arcs: 6-8 nodes and 10-16 arcs,
    # drawn with loops, parallel arcs and rational weights.
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randint(6, 8)
        arcs = []
        for i in range(rng.randint(10, 16)):
            weight = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            arcs.append(Arc(i, rng.randrange(n), rng.randrange(n), weight))
        g = WeightedDigraph(n, tuple(arcs))
        got = enumerate_cycles(g, 2**12)
        assert {c.arc_ids for c in got} == brute_cycles(g)
        assert all(c == _reference_make_cycle(g, c.arc_ids) for c in got)


def test_nodes_that_cannot_return_stay_blocked() -> None:
    # 40 diamonds from node 0 into a dead end, plus a digon at node 0. A
    # walk that unblocked the diamond nodes would try all 2^40 paths.
    k = 40
    arcs: list[tuple[int, int]] = []
    for i in range(k):
        top, bottom, nxt = 3 * i + 1, 3 * i + 2, 3 * i + 3
        arcs += [(3 * i, top), (3 * i, bottom), (top, nxt), (bottom, nxt)]
    arcs += [(0, 3 * k + 1), (3 * k + 1, 0)]
    g = WeightedDigraph(
        3 * k + 2, tuple(Arc(i, t, h, Fraction(-1)) for i, (t, h) in enumerate(arcs))
    )
    assert [c.arc_ids for c in enumerate_cycles(g, 10)] == [(4 * k, 4 * k + 1)]


def test_enumeration_builds_nothing_per_declared_node(peak_bytes) -> None:
    g = WeightedDigraph(10**6, (Arc(0, 0, 0, Fraction(-1)),))
    cycles, peak = peak_bytes(lambda: enumerate_cycles(g, 10))
    assert [c.arc_ids for c in cycles] == [(0,)]
    assert peak < 2**20


def test_enumeration_sums_weights_as_integers(fraction_calls) -> None:
    g = gen_fig3(3)
    g = WeightedDigraph(
        g.node_count,
        tuple(
            Arc(a.arc_id, a.tail, a.head, a.weight + Fraction(1, 2 + a.arc_id % 3))
            for a in g.arcs
        ),
    )
    cycles, calls = fraction_calls(lambda: enumerate_cycles(g, 2**10))
    assert len(cycles) == 27
    # No Fraction arithmetic: the weights are read once per graph, and each
    # cycle builds at most one Fraction from its integer sum.
    assert set(calls) <= {"__new__", "numerator", "denominator"}
    assert 1 <= calls["__new__"] <= len(cycles)
    assert calls["numerator"] + calls["denominator"] <= 3 * g.arc_count


def test_two_cycles_and_directions_use_no_fraction_arithmetic(
    fraction_calls,
) -> None:
    # Arc i's weight over 1 + i mod 3: 15 cycles (2 zero, 3 negative, 10
    # positive), 30 sign-mixed pairs, 13 of them 2-cycles.
    g = gen_random(6, 13, (-3, 3), 2)
    g = WeightedDigraph(
        g.node_count,
        tuple(
            Arc(a.arc_id, a.tail, a.head, a.weight / (1 + a.arc_id % 3))
            for a in g.arcs
        ),
    )
    cycles = enumerate_cycles(g, 2**10)
    pairs = sum(c.weight < 0 for c in cycles) * sum(c.weight > 0 for c in cycles)
    two_cycles, pair_calls = fraction_calls(
        lambda: enumerate_two_cycles(g, cycles, 2**10)
    )
    assert (len(cycles), pairs, len(two_cycles)) == (15, 30, 13)
    points, vector_calls = fraction_calls(
        lambda: directions_from_cycles(g, cycles, two_cycles)
    )
    assert len(points.points) > 2
    # Signs are read off numerators and a 2-cycle stores no mu or mu', so
    # the pair tests build no Fraction; vectors are integers only.
    for calls in (pair_calls, vector_calls):
        assert set(calls) <= {"__new__", "numerator", "denominator"}
    assert pair_calls["__new__"] == 0
    assert vector_calls["__new__"] == 0
    reads = ("numerator", "denominator")
    assert sum(pair_calls[r] for r in reads) <= 2 * len(cycles) + 8 * pairs
    assert sum(vector_calls[r] for r in reads) <= 2 * len(cycles) + 6 * len(two_cycles)
    # A pair that is not a 2-cycle builds no Fraction at all.
    c1 = next(c for c in cycles if c.weight < 0)
    c2 = next(c for c in cycles if c.weight > 0 and is_two_cycle(g, c1, c) is None)
    result, calls = fraction_calls(lambda: is_two_cycle(g, c1, c2))
    assert result is None
    assert set(calls) <= {"numerator"}


def test_node_cycles_match_networkx() -> None:
    nx = pytest.importorskip("networkx")
    from negflow.generators import gen_random

    for seed in range(5):
        g = gen_random(6, 12, (-3, 3), seed)
        h = nx.DiGraph((a.tail, a.head) for a in g.arcs)
        expected = {
            frozenset(nodes) for nodes in nx.simple_cycles(h)
        }
        got = {
            frozenset(g.arcs[i].tail for i in c.arc_ids)
            for c in enumerate_cycles(g, 2**12)
        }
        assert got == expected


def test_cycle_sign_examples() -> None:
    assert enumerate_cycles(TRIANGLE, 10)[0].weight < 0
    g = parse_graph("p 3 3\na 1 2 1\na 2 3 -1\na 3 1 0\n")
    assert enumerate_cycles(g, 10)[0].weight == 0
    d = parse_graph("p 2 2\na 1 2 -1/2\na 2 1 -1/2\n")
    assert enumerate_cycles(d, 10)[0].weight < 0


def _two_cycles_of(g: WeightedDigraph):
    cycles = enumerate_cycles(g, 2**10)
    return cycles, enumerate_two_cycles(g, cycles, 2**12)


def test_edge_disjoint_two_cycle_coefficients() -> None:
    g = gen_fig1(TwoCycleShape.EDGE_DISJOINT)
    cycles, pairs = _two_cycles_of(g)
    assert len(pairs) == 1
    tc = pairs[0]
    assert tc.shape is TwoCycleShape.EDGE_DISJOINT
    assert tc.mu == Fraction(1, 6)
    assert tc.mu_prime == Fraction(1, 6)


def test_three_path_two_cycle_coefficients() -> None:
    g = gen_fig1(TwoCycleShape.THREE_PATH)
    cycles, pairs = _two_cycles_of(g)
    assert len(pairs) == 1
    tc = pairs[0]
    assert tc.shape is TwoCycleShape.THREE_PATH
    assert (tc.negative.length, tc.negative.weight) == (2, -1)
    assert (tc.positive.length, tc.positive.weight) == (3, 1)
    assert tc.mu == Fraction(1, 5)
    assert tc.mu_prime == Fraction(1, 5)


def test_crossing_cycles_are_not_a_two_cycle() -> None:
    # Two arc-disjoint triangles sharing two nodes: their union contains
    # a crossing digon, so the pair fails the no-third-cycle test.
    g = parse_graph(
        "p 4 6\na 1 2 -1\na 2 3 0\na 3 1 0\na 1 4 0\na 4 2 0\na 2 1 1\n"
    )
    cycles = enumerate_cycles(g, 100)
    c1 = next(c for c in cycles if c.arc_ids == (0, 1, 2))
    c2 = next(c for c in cycles if c.arc_ids == (3, 4, 5))
    assert c1.weight < 0 < c2.weight
    assert is_two_cycle(g, c1, c2) is None


def test_two_cycle_requires_signs() -> None:
    g = gen_fig1(TwoCycleShape.EDGE_DISJOINT)
    cycles = enumerate_cycles(g, 100)
    neg = next(c for c in cycles if c.weight < 0)
    pos = next(c for c in cycles if c.weight > 0)
    assert is_two_cycle(g, pos, neg) is None
    assert is_two_cycle(g, neg, neg) is None


def _shared_path_shape(
    g: WeightedDigraph, shared: set[int]
) -> TwoCycleShape | None:
    """EDGE_DISJOINT for no shared arc, THREE_PATH when the shared arcs form
    one directed path, None otherwise."""
    if not shared:
        return TwoCycleShape.EDGE_DISJOINT
    out_of = {g.arcs[i].tail: i for i in shared}
    heads = {g.arcs[i].head for i in shared}
    starts = [t for t in out_of if t not in heads]
    if len(out_of) != len(shared) or len(heads) != len(shared) or len(starts) != 1:
        return None
    node, walked = starts[0], 0
    while node in out_of:
        node = g.arcs[out_of[node]].head
        walked += 1
    return TwoCycleShape.THREE_PATH if walked == len(shared) else None


# Parallel arcs 1->2 (weights -1, 1) and 2->1: the pair sharing one return
# arc is a three-path 2-cycle; the union of an arc-disjoint pair holds all
# four cycles.
PARALLEL_ARCS = parse_graph("p 2 4\na 1 2 -1\na 1 2 1\na 2 1 0\na 2 1 0\n")
# 1->2->3->4->1 and 1->2->5->3->4->6->1 share the separate paths 1->2 and
# 3->4, so their union also holds the two mixed routes.
TWO_SHARED_PATHS = parse_graph(
    "p 6 8\na 1 2 -1\na 2 3 0\na 3 4 0\na 4 1 0\n"
    "a 2 5 2\na 5 3 0\na 4 6 0\na 6 1 0\n"
)


@settings(max_examples=200, deadline=None)
@given(graphs())
@example(gen_fig1(TwoCycleShape.THREE_PATH))
@example(PARALLEL_ARCS)
@example(TWO_SHARED_PATHS)
def test_two_cycle_matches_union_enumeration(g: WeightedDigraph) -> None:
    # Reference: a sign-mixed pair is a 2-cycle exactly when a fresh
    # enumeration of the union's subgraph finds only the two cycles.
    cycles = enumerate_cycles(g, 2**12)
    for c1 in (c for c in cycles if c.weight < 0):
        for c2 in (c for c in cycles if c.weight > 0):
            tc = is_two_cycle(g, c1, c2)
            union = sorted(set(c1.arc_ids) | set(c2.arc_ids))
            union_cycles = enumerate_cycles(subgraph(g, union), 2**12)
            assert (tc is not None) == (len(union_cycles) == 2)
            if tc is not None:
                shared = set(c1.arc_ids) & set(c2.arc_ids)
                assert tc.shape is _shared_path_shape(g, shared)


def _two_cycles(g: WeightedDigraph, cap: int):
    return enumerate_two_cycles(g, enumerate_cycles(g, cap), cap)


def test_two_cycle_count_fig3() -> None:
    assert len(_two_cycles(gen_fig3(1), 2**12)) == 2
    assert len(_two_cycles(gen_fig3(4), 2**14)) == 8


def test_no_positive_cycles_means_no_two_cycles() -> None:
    assert _two_cycles(TRIANGLE, 100) == ()


def test_two_cycle_pair_cap() -> None:
    # Three negative and three positive disjoint digons: 6 cycles but
    # 9 sign-mixed pairs, so a cap of 8 passes cycle enumeration and
    # then trips on the pair count before any pair is tested.
    lines = ["p 12 12"]
    for i in range(6):
        u, v = 2 * i + 1, 2 * i + 2
        w = "-1" if i < 3 else "1"
        lines += [f"a {u} {v} {w}", f"a {v} {u} 0"]
    g = parse_graph("\n".join(lines) + "\n")
    cycles = enumerate_cycles(g, 8)
    assert len(enumerate_two_cycles(g, cycles, 9)) == 9
    with pytest.raises(CapExceeded) as exc:
        enumerate_two_cycles(g, cycles, 8)
    assert exc.value.kind == "two-cycle pairs"
    assert str(exc.value) == "two-cycle pairs cap 8 exceeded (9 pairs)"


def test_decompose_triangle() -> None:
    y = ArcVector((Fraction(1, 3),) * 3)
    dec = decompose_circulation(TRIANGLE, y)
    assert [(c.arc_ids, coeff) for c, coeff in dec.terms] == [
        ((0, 1, 2), Fraction(1, 3))
    ]


def test_decompose_disjoint_digons() -> None:
    g = parse_graph("p 4 4\na 1 2 0\na 2 1 0\na 3 4 0\na 4 3 0\n")
    y = ArcVector((Fraction(1), Fraction(1), Fraction(2), Fraction(2)))
    dec = decompose_circulation(g, y)
    assert [(c.arc_ids, coeff) for c, coeff in dec.terms] == [
        ((0, 1), Fraction(1)),
        ((2, 3), Fraction(2)),
    ]


def test_decompose_three_path_union() -> None:
    g = gen_fig1(TwoCycleShape.THREE_PATH)
    _, pairs = _two_cycles_of(g)
    tc = pairs[0]
    neg = characteristic_vector(g, tc.negative.arc_ids)
    pos = characteristic_vector(g, tc.positive.arc_ids)
    y = ArcVector(tuple(a + b for a, b in zip(neg.entries, pos.entries)))
    dec = decompose_circulation(g, y)
    assert len(dec.terms) == 2
    assert sum(c.weight * coeff for c, coeff in dec.terms) == (
        tc.negative.weight + tc.positive.weight
    )


def test_decompose_rejects_negative_entry() -> None:
    with pytest.raises(NotACirculation):
        decompose_circulation(TRIANGLE, ArcVector((Fraction(-1), Fraction(0), Fraction(0))))


def test_decompose_rejects_unbalanced_vector() -> None:
    with pytest.raises(NotACirculation) as exc:
        decompose_circulation(TRIANGLE, ArcVector((Fraction(1), Fraction(0), Fraction(0))))
    assert exc.value.node is not None


def test_decompose_names_the_lowest_unbalanced_node() -> None:
    # Arc 0 runs from node 3 to node 2, so one pass over the arcs meets node
    # 3 first; the error still names the lowest unbalanced node.
    g = parse_graph("p 4 2\na 4 3 0\na 1 2 0\n")
    with pytest.raises(NotACirculation, match="violated at node 2$") as exc:
        decompose_circulation(g, ArcVector((Fraction(1), Fraction(0))))
    assert exc.value.node == 2


def test_decompose_dimension_mismatch() -> None:
    with pytest.raises(ValueError):
        decompose_circulation(TRIANGLE, ArcVector((Fraction(0),) * 2))


def test_decompose_disjoint_digons_in_one_pass_over_the_support() -> None:
    # Listing the support among all m arcs in every round took 17.6 s on a
    # 2-core x86 VM for these 4,000 digons.
    k = 4000
    g = WeightedDigraph(2 * k, tuple(Arc(i, i, i ^ 1, Fraction(0)) for i in range(2 * k)))
    y = ArcVector.from_ints(2 * k, 1, [(i, 1) for i in range(2 * k)])
    start = time.perf_counter()
    dec = decompose_circulation(g, y)
    elapsed = time.perf_counter() - start
    assert [(c.arc_ids, coeff) for c, coeff in dec.terms] == [
        ((i, i + 1), 1) for i in range(0, 2 * k, 2)
    ]
    assert elapsed < 1.0


def test_decompose_star_skips_spent_arcs() -> None:
    # Arcs leaf_i -> hub come first, so every round's search starts at the
    # hub. Skipping its spent out-arcs to earlier leaves one by one, with the
    # support listed among all m arcs in every round, took 15.7 s on a
    # 2-core x86 VM.
    k = 4000
    g = WeightedDigraph(
        k + 1,
        tuple(Arc(i, i + 1, 0, Fraction(0)) for i in range(k))
        + tuple(Arc(k + i, 0, i + 1, Fraction(0)) for i in range(k)),
    )
    y = ArcVector.from_ints(2 * k, 3, [(i, 2) for i in range(2 * k)])
    start = time.perf_counter()
    dec = decompose_circulation(g, y)
    elapsed = time.perf_counter() - start
    assert [(c.arc_ids, coeff) for c, coeff in dec.terms] == [
        ((i, k + i), Fraction(2, 3)) for i in range(k)
    ]
    assert elapsed < 1.0


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_decompose_reconstructs_cycle_combinations(
    g: WeightedDigraph, data: st.DataObject
) -> None:
    cycles = enumerate_cycles(g, 2**12)
    if not cycles:
        return
    picks = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(cycles) - 1),
                st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def combine(terms) -> list[Fraction]:
        entries = [Fraction(0)] * g.arc_count
        for arc_ids, coeff in terms:
            for i, v in enumerate(characteristic_vector(g, arc_ids).entries):
                entries[i] += coeff * v
        return entries

    y = ArcVector(tuple(combine((cycles[idx].arc_ids, coeff) for idx, coeff in picks)))
    dec = decompose_circulation(g, y)
    assert all(coeff > 0 for _, coeff in dec.terms)
    assert combine((c.arc_ids, coeff) for c, coeff in dec.terms) == list(y.entries)
    assert len(dec.terms) <= len(y.support())
