"""DIMACS parsing, the CNF-to-graph construction, and the decision report.

Node/arc count assertions follow the construction arithmetic: per
occurrence the builder adds two internal nodes (shared by the variable
and clause sections) and six arcs; chains of t occurrences add t-1
junction nodes; one closing arc; an empty chain contributes a single
zero-weight arc instead.
"""
import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negflow.cli import main
from negflow.cycles import enumerate_cycles
from negflow.errors import CapExceeded, ParseError
from negflow.graph import ArcVector
from negflow.polyhedra import build_P
from negflow.reduction import (
    CnfFormula,
    MAX_SAT_VARIABLES,
    Ve01Report,
    brute_force_sat,
    build_reduction,
    decide_ve01,
    parse_dimacs_cnf,
    trivial_vertex_family,
)
from references import cycle_vertex, dense_vertices, oracle_certifies_vertex

SAT_3VAR_3CLAUSE = "p cnf 3 3\n1 2 -3 0\n1 -2 3 0\n-1 2 -3 0\n"
UNSAT_2VAR = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"
# SATLIB files end their clause list with a "%" line and a lone "0".
SATLIB_TRAILER = "p cnf 2 2\n1 -2 0\n2 0\n%\n0\n"


def occurrences(f: CnfFormula) -> int:
    return sum(len(c) for c in f.clauses)


def report_fields(report: Ve01Report) -> dict[str, str]:
    """The printed report as a key -> value map."""
    return dict(line.split(": ", 1) for line in report.to_text().splitlines())


def assert_certificate(report: Ve01Report) -> None:
    """A SAT report carries a weight -1 cycle that takes the closing arc and
    every connector, lies outside the trivial family, and yields a
    satisfying witness over exactly the variables 1..n."""
    art = report.artifact
    cert = report.certificate
    assert report.satisfiable and cert is not None
    assert cert.weight == -1
    assert art.closing_arc in cert.arc_ids
    assert set(art.connectors) <= {art.graph.arcs[i].tail for i in cert.arc_ids}
    assert cert.arc_ids not in {(o.a_b, o.b_a) for o in art.occurrences}
    f = art.formula
    assert set(report.witness) == set(range(1, f.variable_count + 1))
    assert all(
        any(report.witness[abs(lit)] == (lit > 0) for lit in clause)
        for clause in f.clauses
    )
    fields = report_fields(report)
    assert fields["trivial_equals_vertices"] == "false"
    for key in ("vertex_count", "extra_vertices", "extra_are_long_cycles"):
        assert fields[key] == "unknown"


def assert_matches_dense_reference(f: CnfFormula, report: Ve01Report) -> None:
    """Reference for an exhaustive report: the vertex set as dense vectors,
    compared with the trivial family by set algebra on the vectors."""
    art = build_reduction(f)
    cycles = enumerate_cycles(art.graph, 2**16)
    vertices = [ArcVector(e) for e in dense_vertices(art.graph, cycles)]
    trivial = set(trivial_vertex_family(report.artifact))
    extra = [p for p in vertices if p not in trivial]
    assert report.certificate is None and report.witness is None
    fields = report_fields(report)
    assert fields["vertex_count"] == str(len(vertices))
    assert fields["extra_vertices"] == str(len(extra))
    flags = {
        "trivial_is_subset": trivial <= set(vertices),
        "trivial_equals_vertices": trivial == set(vertices),
        "extra_are_long_cycles": all(art.closing_arc in p.support() for p in extra),
    }
    for key, value in flags.items():
        assert fields[key] == str(value).lower()


def test_parse_simple_clause() -> None:
    f = parse_dimacs_cnf("p cnf 2 1\n1 -2 0\n")
    assert f.variable_count == 2
    assert f.clauses == ((1, -2),)


def test_parse_three_clause_formula() -> None:
    f = parse_dimacs_cnf(SAT_3VAR_3CLAUSE)
    assert f.variable_count == 3
    assert len(f.clauses) == 3
    assert occurrences(f) == 9


def test_parse_multiline_clause_and_comments() -> None:
    f = parse_dimacs_cnf("c intro\np cnf 2 1\nc mid\n1\n-2\n0\n")
    assert f.clauses == ((1, -2),)


def test_parse_stops_at_satlib_trailer() -> None:
    f = parse_dimacs_cnf(SATLIB_TRAILER)
    assert f.variable_count == 2
    assert f.clauses == ((1, -2), (2,))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p cnf 1 1\n0\n", "empty clause"),
        ("p cnf 1 1\n1 0\np cnf 1 1\n", "duplicate"),
        ("1 0\n", "before p header"),
        ("p cnf 1 1\n2 0\n", "exceeds"),
        ("p cnf 1 1\nx 0\n", "bad literal"),
        ("p cnf 1 2\n1 0\n", "declares 2 clauses"),
        ("p cnf 1 1\n1\n", "terminating 0"),
        ("p cnf 1\n", "expected 'p cnf"),
        ("", "missing p header"),
    ],
)
def test_parse_errors(text: str, fragment: str) -> None:
    with pytest.raises(ParseError, match=fragment):
        parse_dimacs_cnf(text)


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        # Only ASCII digits, with no sign but '-' and no '_' separators.
        ("p cnf 1_0 1\n1 0\n", 1, "header counts must be integers"),
        ("p cnf \u0661 1\n1 0\n", 1, "header counts must be integers"),
        ("p cnf 2 1\n\u0661 0\n", 2, "bad literal"),
        ("p cnf 2 1\n1 +2 0\n", 2, "bad literal"),
        ("p cnf 2 1\n1_0 0\n", 2, "bad literal"),
    ],
)
def test_parse_rejects_integers_beyond_ascii_digits(
    text: str, line: int, fragment: str
) -> None:
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_dimacs_cnf(text)
    assert exc.value.line_number == line


def test_formula_validation() -> None:
    with pytest.raises(ValueError):
        CnfFormula(1, ((),))
    with pytest.raises(ValueError):
        CnfFormula(1, ((0,),))
    with pytest.raises(ValueError):
        CnfFormula(1, ((2,),))


def test_unit_clause_flag() -> None:
    # unit clauses still build: one occurrence, 6 arcs, plus closing arc
    art = build_reduction(CnfFormula(1, ((1,),)))
    assert art.graph.arc_count == 6 + 1 + len(art.degenerate_chain_arcs)


def test_three_clause_graph_counts() -> None:
    f = parse_dimacs_cnf(SAT_3VAR_3CLAUSE)
    art = build_reduction(f)
    assert art.graph.arc_count == 6 * occurrences(f) + 1
    assert art.graph.arc_count == 55
    # connectors (n+1+m) + 2 per occurrence + one junction per
    # multi-occurrence chain: 7 + 18 + 3
    assert art.graph.node_count == 28
    assert art.degenerate_chain_arcs == ()


def test_large_formula_reduces_in_one_pass_over_the_clauses() -> None:
    # 2,000 variables and 8,000 3-clauses. Scanning every clause once per
    # literal took 7.8 s on a 2-core x86 VM; a literal -> occurrences index
    # built in one pass takes under 1 s.
    rng = random.Random(2000)
    f = CnfFormula(
        2000,
        tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 2001), 3))
            for _ in range(8000)
        ),
    )
    start = time.perf_counter()
    art = build_reduction(f)
    elapsed = time.perf_counter() - start
    assert art.graph.arc_count == 6 * 24000 + 1 + len(art.degenerate_chain_arcs)
    # Each literal's chain takes its occurrences in clause-then-position order.
    by_chain = sorted(art.occurrences, key=lambda o: o.p_a)
    for lit in (1, -1, 1000, -2000):
        chain = [(o.clause_index, o.position) for o in by_chain if o.literal == lit]
        assert chain == sorted(chain)
    assert elapsed < 3.0


def test_closing_arc() -> None:
    art = build_reduction(parse_dimacs_cnf(SAT_3VAR_3CLAUSE))
    arc = art.graph.arcs[art.closing_arc]
    assert arc.weight == -1
    assert arc.head == 0  # back to the first connector
    assert art.closing_arc == art.graph.arc_count - 1


def test_tautology_single_variable() -> None:
    f = parse_dimacs_cnf("p cnf 1 1\n1 -1 0\n")
    art = build_reduction(f)
    assert occurrences(f) == 2
    assert art.graph.arc_count == 13
    assert art.degenerate_chain_arcs == ()
    # both chains of the lone variable hold one occurrence each
    assert len(art.occurrences) == 2
    assert {o.literal for o in art.occurrences} == {1, -1}


def test_degenerate_chain_gets_zero_arc() -> None:
    f = parse_dimacs_cnf("p cnf 2 1\n1 2 0\n")
    art = build_reduction(f)
    assert len(art.degenerate_chain_arcs) == 2  # no negated occurrences
    assert art.graph.arc_count == 6 * occurrences(f) + 1 + 2
    for arc_id in art.degenerate_chain_arcs:
        assert art.graph.arcs[arc_id].weight == 0


def test_occurrence_arc_weights() -> None:
    art = build_reduction(parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n"))
    g = art.graph
    half = Fraction(1, 2)
    for occ in art.occurrences:
        assert g.arcs[occ.p_a].weight == half
        assert g.arcs[occ.a_b].weight == -half
        assert g.arcs[occ.b_q].weight == 0
        assert g.arcs[occ.r_b].weight == 0
        assert g.arcs[occ.b_a].weight == -half
        assert g.arcs[occ.a_s].weight == half
        # the variable and clause paths cross on the same two nodes
        assert g.arcs[occ.a_b].tail == g.arcs[occ.b_a].head == occ.a_node
        assert g.arcs[occ.a_b].head == g.arcs[occ.b_a].tail == occ.b_node


def test_roles_mark_connectors() -> None:
    art = build_reduction(parse_dimacs_cnf(SAT_3VAR_3CLAUSE))
    connector_roles = [r[0] for r in art.roles[: len(art.connectors)]]
    assert connector_roles == ["v0", "v1", "v2", "v3", "v'1", "v'2", "v'3"]


def test_all_negative_cycles_weigh_minus_one() -> None:
    for text in (SAT_3VAR_3CLAUSE, UNSAT_2VAR, "p cnf 2 1\n1 2 0\n"):
        art = build_reduction(parse_dimacs_cnf(text))
        for c in enumerate_cycles(art.graph, 2**16):
            if c.weight < 0:
                assert c.weight == -1


def test_trivial_family_three_clause() -> None:
    art = build_reduction(parse_dimacs_cnf(SAT_3VAR_3CLAUSE))
    fam = trivial_vertex_family(art)
    assert len(fam) == 9
    for v in fam:
        assert sorted(v.entries.count(x) for x in (0, 1)) == [2, 53]
        assert set(v.entries) == {0, 1}


def test_trivial_family_members_are_oracle_vertices() -> None:
    art = build_reduction(parse_dimacs_cnf("p cnf 1 1\n1 -1 0\n"))
    h = build_P(art.graph)
    fam = trivial_vertex_family(art)
    assert len(fam) == 2
    for v in fam:
        assert oracle_certifies_vertex(h, v)


def test_long_cycle_exists_iff_satisfiable() -> None:
    # The certificate is a long cycle, and its 0/1 vector is a vertex of P
    # outside the trivial family.
    sat = decide_ve01(parse_dimacs_cnf(SAT_3VAR_3CLAUSE), 2**16)
    assert_certificate(sat)
    g = sat.artifact.graph
    v = cycle_vertex(g, sat.certificate)
    assert set(v.entries) == {0, 1}
    assert v not in trivial_vertex_family(sat.artifact)
    assert oracle_certifies_vertex(build_P(g), v)

    unsat = decide_ve01(parse_dimacs_cnf(UNSAT_2VAR), 2**16)
    assert unsat.certificate is None
    assert report_fields(unsat)["extra_vertices"] == "0"


def test_brute_force_sat_examples() -> None:
    sat, witness = brute_force_sat(parse_dimacs_cnf("p cnf 1 1\n1 0\n"))
    assert sat and witness == {1: True}
    sat, witness = brute_force_sat(parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n"))
    assert not sat and witness is None


def test_brute_force_sat_variable_limit() -> None:
    f = CnfFormula(MAX_SAT_VARIABLES + 1, ((1,),))
    with pytest.raises(ValueError):
        brute_force_sat(f)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(
                st.sampled_from([v for i in range(1, n + 1) for v in (i, -i)]),
                min_size=1,
                max_size=3,
                unique_by=abs,
            ).map(tuple),
            min_size=1,
            max_size=4,
        ).map(lambda cl: CnfFormula(n, tuple(cl)))
    )
)
def test_brute_force_sat_matches_truth_table(f: CnfFormula) -> None:
    expected = any(
        all(any((lit > 0) == row[abs(lit) - 1] for lit in clause) for clause in f.clauses)
        for row in product([False, True], repeat=f.variable_count)
    )
    sat, witness = brute_force_sat(f)
    assert sat == expected
    if sat:
        assert witness is not None
        assert all(
            any((lit > 0) == witness[abs(lit)] for lit in clause) for clause in f.clauses
        )


def test_decide_unsat_formula() -> None:
    report = decide_ve01(parse_dimacs_cnf(UNSAT_2VAR), 2**16)
    assert not report.satisfiable
    assert len(trivial_vertex_family(report.artifact)) == 8
    fields = report_fields(report)
    assert fields["trivial_equals_vertices"] == "true"
    assert fields["trivial_family_size"] == "8"
    assert fields["extra_vertices"] == "0"


def test_decide_sat_formula_has_long_cycle_witnesses() -> None:
    report = decide_ve01(parse_dimacs_cnf(SAT_3VAR_3CLAUSE), 2**16)
    assert report_fields(report)["trivial_is_subset"] == "true"
    assert_certificate(report)


@pytest.mark.parametrize(
    "text",
    [
        "p cnf 1 1\n1 1 0\n",
        "p cnf 2 2\n1 1 0\n2 -1 0\n",
    ],
)
def test_decide_never_passes_p_a_s(text: str, tmp_path: Path) -> None:
    # A repeated literal lets a clause path jump into the chain it shares
    # and leave through a later occurrence's a-node, p->a->s, a +1 pass that
    # closes a weight-0 cycle through every connector. The search must not
    # take it, or the certificate check fails and the CLI exits 1.
    assert_certificate(decide_ve01(parse_dimacs_cnf(text), 2**16))
    cnf = tmp_path / "repeated.cnf"
    cnf.write_text(text)
    assert main(["decide", str(cnf)]) == 0


def test_decide_pigeonhole_reckons_unsat_report() -> None:
    # Five pigeons, four holes: UNSAT by counting, so its 2^20 assignments
    # need no brute force. The report is the digon family's, one vertex per
    # occurrence.
    def var(pigeon: int, hole: int) -> int:
        return 4 * pigeon + hole + 1

    clauses = [tuple(var(p, h) for h in range(4)) for p in range(5)]
    clauses += [
        (-var(p, h), -var(q, h))
        for h in range(4)
        for p in range(5)
        for q in range(p + 1, 5)
    ]
    f = CnfFormula(20, tuple(clauses))
    report = decide_ve01(f, 2**16)
    assert f.occurrence_count == 100
    assert report.certificate is None
    assert len(set(trivial_vertex_family(report.artifact))) == 100
    text = report.to_text()
    for line in (
        "vertex_count: 100",
        "trivial_is_subset: true",
        "trivial_equals_vertices: true",
        "extra_vertices: 0",
        "extra_are_long_cycles: true",
        "satisfiable: false",
        "witness: -",
    ):
        assert f"{line}\n" in text


def test_decide_single_clause_consistency() -> None:
    report = decide_ve01(parse_dimacs_cnf("p cnf 2 1\n1 2 0\n"), 2**16)
    fields = report_fields(report)
    assert fields["satisfiable"] != fields["trivial_equals_vertices"]
    assert_certificate(report)


@pytest.mark.parametrize(
    "text",
    [
        SAT_3VAR_3CLAUSE,
        UNSAT_2VAR,
        "p cnf 2 1\n1 2 0\n",
        "p cnf 1 1\n1 -1 0\n",
        "p cnf 2 2\n1 0\n-1 0\n",
        "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n",
    ],
)
def test_decide_matches_dense_vector_reference(text: str) -> None:
    # UNSAT reports are exhaustive and match the dense reference. A SAT
    # report stops at its certificate, which must be one of the reference
    # vertices outside the trivial family.
    f = parse_dimacs_cnf(text)
    report = decide_ve01(f, 2**16)
    if not report.satisfiable:
        assert_matches_dense_reference(f, report)
        return
    assert_certificate(report)
    art = report.artifact
    cycles = enumerate_cycles(art.graph, 2**16)
    vertices = {ArcVector(e) for e in dense_vertices(art.graph, cycles)}
    trivial = set(trivial_vertex_family(art))
    assert cycle_vertex(art.graph, report.certificate) in vertices - trivial
    assert report_fields(report)["trivial_is_subset"] == str(trivial <= vertices).lower()


def cnf_formulas(n: int) -> st.SearchStrategy[CnfFormula]:
    """Up to 5 clauses of 1-3 literals over variables 1..n (none at n = 0)."""
    if n == 0:
        return st.just(CnfFormula(0, ()))
    literal = st.sampled_from([v for i in range(1, n + 1) for v in (i, -i)])
    clause = st.lists(literal, min_size=1, max_size=3).map(tuple)
    return st.lists(clause, max_size=5).map(lambda cl: CnfFormula(n, tuple(cl)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(cnf_formulas))
@example(CnfFormula(0, ()))
@example(CnfFormula(3, ()))
@example(CnfFormula(3, ((2,),)))
@example(CnfFormula(1, ((1, 1),)))
def test_decide_certificate_matches_brute_force(f: CnfFormula) -> None:
    # Clauses may repeat a literal or hold both polarities, and a variable
    # may occur in one polarity or none (degenerate chains).
    report = decide_ve01(f, 2**16)
    satisfiable, _ = brute_force_sat(f)
    assert report.satisfiable == satisfiable
    if satisfiable:
        assert_certificate(report)
    else:
        assert_matches_dense_reference(f, report)


def random_3cnf(seed: int, n: int) -> CnfFormula:
    """round(4.26 n) clauses of 3 distinct variables with random signs: the
    ratio where random 3-CNFs are hardest."""
    rng = random.Random(seed)
    return CnfFormula(
        n,
        tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(round(4.26 * n))
        ),
    )


@pytest.mark.parametrize("n", [8, 10, 12, 14])
def test_decide_random_3cnf_at_threshold_matches_brute_force(n: int) -> None:
    # Seeds 100n .. 100n + 4; 3 of the 20 formulas are UNSAT. Near this
    # ratio the search branches and cuts deeply, which the property test
    # above, at 5 variables and 5 clauses, does not reach.
    for seed in range(100 * n, 100 * n + 5):
        f = random_3cnf(seed, n)
        report = decide_ve01(f, 2**20)
        assert report.satisfiable == brute_force_sat(f)[0]
        if report.satisfiable:
            assert_certificate(report)


def test_decide_cap_guard_on_hard_unsat_formula() -> None:
    # 14 variables, 60 clauses, UNSAT. The search is exhausted after exactly
    # 5,454 nodes, because no variable chain enters the a-node of a
    # clause's last open occurrence.
    f = random_3cnf(5, 14)
    assert brute_force_sat(f) == (False, None)
    assert not decide_ve01(f, 5454).satisfiable
    with pytest.raises(CapExceeded) as exc:
        decide_ve01(f, 5453)
    assert exc.value.kind == "search nodes"
    assert exc.value.cap == 5453
    assert str(exc.value) == (
        "search nodes cap 5453 exceeded "
        "(searched 5453 nodes, no long cycle completed)"
    )


def test_decide_report_text() -> None:
    text = decide_ve01(parse_dimacs_cnf(UNSAT_2VAR), 2**16).to_text()
    assert "satisfiable: false" in text
    assert "trivial_equals_vertices: true" in text
    assert "witness: -" in text
