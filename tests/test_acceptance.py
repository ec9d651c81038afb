"""Acceptance gate: eight end-to-end checks with exact arithmetic.

The CNF corpus sweep (everything any clause-graph criterion needs) runs once
in a session fixture. Each criterion test records a one-line verdict that the
terminal summary prints, then asserts it, so an honest failure stays visible
both ways.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from conftest import record_criterion

from negflow.characterize import (
    direction_from_two_cycle,
    directions_from_cycles,
    verify_theorem1,
)
from negflow.cycles import (
    Cycle,
    decompose_circulation,
    enumerate_cycles,
    is_two_cycle,
)
from negflow.generators import Lcg, gen_fig3
from negflow.graph import ArcVector, WeightedDigraph
from negflow.polyhedra import build_P, build_P_prime, oracle_vertices
from negflow.reduction import (
    CnfFormula,
    ReductionArtifact,
    brute_force_sat,
    build_reduction,
    decide_ve01,
    parse_dimacs_cnf,
    trivial_vertex_family,
)
from references import cycle_vertex, find_two_cycles, oracle_certifies_vertex

CYCLE_CAP = 2**20
# Oracle work, phase 1 included: criterion 1's runs on P and P' of the
# 205-graph corpus peak at 11,184 units, and the corollary check's runs on
# the 174 small reduction graphs at 3,948,380 (15,456 of them in phase 1),
# 2.5x below this cap.
ORACLE_CAP = 10**7

SAT_3VAR_3CLAUSE = "p cnf 3 3\n1 2 -3 0\n1 -2 3 0\n-1 2 -3 0\n"


# --- corpora -----------------------------------------------------------------


def _exhaustive_formulas(k: int) -> list[CnfFormula]:
    """Every set of 1-3 distinct clauses (sizes 2-3, tautologies allowed)
    over variables 1..k in which each variable occurs."""
    literals = [sign * v for v in range(1, k + 1) for sign in (1, -1)]
    pool = [c for size in (2, 3) for c in itertools.combinations(literals, size)]
    out = []
    for count in (1, 2, 3):
        for clauses in itertools.combinations(pool, count):
            if {abs(lit) for c in clauses for lit in c} == set(range(1, k + 1)):
                out.append(CnfFormula(k, clauses))
    return out


def _random_4var_formulas() -> list[CnfFormula]:
    out = []
    for seed in range(10):
        rng = Lcg(4000 + seed)
        while True:
            clauses = []
            for _ in range(3 + rng.next_below(3)):
                size = 2 + rng.next_below(2)
                variables: list[int] = []
                while len(variables) < size:
                    v = 1 + rng.next_below(4)
                    if v not in variables:
                        variables.append(v)
                clauses.append(
                    tuple(v if rng.next_below(2) else -v for v in variables)
                )
            f = CnfFormula(4, tuple(clauses))
            if {abs(lit) for c in f.clauses for lit in c} == {1, 2, 3, 4}:
                out.append(f)
                break
    return out


@pytest.fixture(scope="session")
def cnf_corpus() -> list[CnfFormula]:
    formulas: list[CnfFormula] = []
    for k in (1, 2, 3):
        formulas.extend(_exhaustive_formulas(k))
    assert len(formulas) == 6827  # frozen: 1 + 173 + 6653
    formulas.extend(_random_4var_formulas())
    return formulas


# --- corpus sweep ------------------------------------------------------------


@dataclass
class SweepTotals:
    formulas: int = 0
    arc_identity_failures: list[int] = field(default_factory=list)
    node_identity_failures: list[int] = field(default_factory=list)
    negative_weight_failures: list[int] = field(default_factory=list)
    zero_one_failures: list[int] = field(default_factory=list)
    family_failures: list[int] = field(default_factory=list)
    equivalence_failures: list[int] = field(default_factory=list)
    long_cycle_failures: list[int] = field(default_factory=list)
    decide_failures: list[int] = field(default_factory=list)
    bound_checked: int = 0
    direction_bound_failures: list[tuple[int, int, int]] = field(
        default_factory=list
    )
    # (index, positive cycles, direction count, zero cycles, quoted bound)
    single_clause_rows: list[tuple[int, int, int, int, int]] = field(
        default_factory=list
    )


def _direction_count_meets_bound(
    g: WeightedDigraph,
    negatives: list[Cycle],
    positives: list[Cycle],
    zeros: list[Cycle],
) -> tuple[bool, int, int]:
    """Compare the extreme-direction count to max(|pos|,|neg|) + |zero|.

    Distinct direction vectors are counted without building them: zero
    cycles give one vector each, and a 2-cycle's vector determines its pair
    (the union support holds exactly those two cycles), so pairs count too.
    First pass finds one partner per larger-side cycle, which already gives
    that many distinct pairs. Only if the early count falls short is the
    exact pair total computed.
    """
    bound = max(len(positives), len(negatives)) + len(zeros)
    if len(positives) >= len(negatives):
        big, small = positives, negatives
    else:
        big, small = negatives, positives
    small = sorted(small, key=lambda c: c.length)
    found = 0
    for c in big:
        for s in small:
            pair = (c, s) if c.weight < 0 else (s, c)
            if is_two_cycle(g, *pair) is not None:
                found += 1
                break
    count = len(zeros) + found
    if count >= bound:
        return True, count, bound
    count = len(zeros) + len(find_two_cycles(g, negatives + positives, CYCLE_CAP))
    return count >= bound, count, bound


@pytest.fixture(scope="session")
def corpus_sweep(cnf_corpus: list[CnfFormula]) -> SweepTotals:
    totals = SweepTotals(formulas=len(cnf_corpus))
    for idx, f in enumerate(cnf_corpus):
        art = build_reduction(f)
        g = art.graph
        sigma = f.occurrence_count
        degenerate = len(art.degenerate_chain_arcs)
        if g.arc_count != 6 * sigma + 1 + degenerate:
            totals.arc_identity_failures.append(idx)
        # connectors (n + 1 + m), then per non-degenerate chain of t
        # occurrences 2t a/b nodes and t - 1 junctions
        m = len(f.clauses)
        n = f.variable_count
        if g.node_count != 3 * sigma + m - n + 1 + degenerate:
            totals.node_identity_failures.append(idx)

        cycles = enumerate_cycles(g, CYCLE_CAP)
        negatives = [c for c in cycles if c.weight < 0]
        positives = [c for c in cycles if c.weight > 0]
        zeros = [c for c in cycles if c.weight == 0]

        if any(c.weight != -1 for c in negatives):
            totals.negative_weight_failures.append(idx)
        vertex_of = {cycle_vertex(g, c): c for c in negatives}
        vertices = set(vertex_of)
        if any(e != 0 and e != 1 for v in vertices for e in v.entries):
            totals.zero_one_failures.append(idx)

        family = set(trivial_vertex_family(art))
        if not (family <= vertices and len(family) == sigma):
            totals.family_failures.append(idx)

        satisfiable, _ = brute_force_sat(f)
        if (vertices == family) != (not satisfiable):
            totals.equivalence_failures.append(idx)
        # The long-cycle search against brute force, and its printed UNSAT
        # vertex count against this enumeration's.
        report = decide_ve01(f, CYCLE_CAP)
        printed = dict(line.split(": ", 1) for line in report.to_text().splitlines())
        if report.satisfiable != satisfiable or (
            not satisfiable and printed["vertex_count"] != str(len(vertices))
        ):
            totals.decide_failures.append(idx)
        connectors = set(art.connectors)
        for v in vertices - family:
            cycle = vertex_of[v]
            if cycle.weight != -1 or not connectors <= {
                g.arcs[i].tail for i in cycle.arc_ids
            }:
                totals.long_cycle_failures.append(idx)
                break

        if m == 1:
            two_cycles = find_two_cycles(g, cycles, CYCLE_CAP)
            count = len(directions_from_cycles(g, cycles, two_cycles).points)
            bound = max(len(positives), len(negatives)) + len(zeros)
            totals.single_clause_rows.append(
                (idx, len(positives), count, len(zeros), bound)
            )
        elif not any(len(c) == 1 for c in f.clauses):
            # The bound needs every clause to hold two or more literals.
            totals.bound_checked += 1
            ok, count, bound = _direction_count_meets_bound(
                g, negatives, positives, zeros
            )
            if not ok:
                totals.direction_bound_failures.append((idx, count, bound))
    return totals


# --- criteria ----------------------------------------------------------------


def test_criterion_1_characterization_matches_oracle(
    graph_corpus: list[WeightedDigraph],
) -> None:
    start = time.monotonic()
    mismatches = []
    separate_run_mismatches = []
    for idx, g in enumerate(graph_corpus):
        report = verify_theorem1(g, CYCLE_CAP, ORACLE_CAP)
        if not report.all_match:
            mismatches.append(idx)
        prime = oracle_vertices(build_P_prime(g), ORACLE_CAP)
        if prime.points != report.oracle.directions:
            separate_run_mismatches.append(idx)
    elapsed = time.monotonic() - start
    ok = not mismatches and not separate_run_mismatches and elapsed < 300.0
    record_criterion(
        1,
        ok,
        f"{len(graph_corpus)} graphs, {len(mismatches)} oracle mismatches "
        "(vertices and directions from one run on P), "
        f"{len(separate_run_mismatches)} differences between those directions "
        f"and a separate run on P', {elapsed:.1f}s",
    )
    assert mismatches == []
    assert separate_run_mismatches == []
    assert elapsed < 300.0


def test_criterion_2_reduction_counts(corpus_sweep: SweepTotals) -> None:
    # The quoted 46 nodes is 28 + 2 * 9: each occurrence's a/b pair kept
    # apart in its variable chain and its clause path. That graph has the
    # same 55 arcs but no a->b->a digon, so it lacks the per-occurrence
    # trivial vertices and every cycle crosses the -1 closing arc. The
    # construction identifies the pairs: 3*9 + 3 - 3 + 1 + 0 = 28 nodes.
    art = build_reduction(parse_dimacs_cnf(SAT_3VAR_3CLAUSE))
    arcs = art.graph.arc_count
    nodes = art.graph.node_count
    arc_ok = corpus_sweep.arc_identity_failures == []
    node_ok = corpus_sweep.node_identity_failures == []
    ok = arcs == 55 and nodes == 28 and arc_ok and node_ok
    record_criterion(
        2,
        ok,
        f"9-occurrence formula: arcs={arcs} (want 55), nodes={nodes} "
        f"(want 28; quoted 46 counts each a/b pair twice); on "
        f"{corpus_sweep.formulas} corpus CNFs: arc identity "
        f"{len(corpus_sweep.arc_identity_failures)} failures, node identity "
        f"3*occ + clauses - vars + 1 + degenerate "
        f"{len(corpus_sweep.node_identity_failures)} failures",
    )
    assert arcs == 55
    assert arc_ok
    assert nodes == 28, (
        "connectors, then per-chain a/b and junction nodes: "
        "3*occurrences + clauses - variables + 1 + degenerate chains"
    )
    assert node_ok


def test_criterion_3_zero_one_vertices(corpus_sweep: SweepTotals) -> None:
    ok = not (
        corpus_sweep.negative_weight_failures
        or corpus_sweep.zero_one_failures
        or corpus_sweep.family_failures
    )
    record_criterion(
        3,
        ok,
        f"{corpus_sweep.formulas} corpus CNFs: negative cycles all weight "
        f"-1, vertices all 0/1, per-occurrence family contained with size "
        f"sum|C_j| ({len(corpus_sweep.negative_weight_failures)}/"
        f"{len(corpus_sweep.zero_one_failures)}/"
        f"{len(corpus_sweep.family_failures)} failures)",
    )
    assert corpus_sweep.negative_weight_failures == []
    assert corpus_sweep.zero_one_failures == []
    assert corpus_sweep.family_failures == []


def test_criterion_4_reduction_soundness(corpus_sweep: SweepTotals) -> None:
    ok = not (
        corpus_sweep.equivalence_failures
        or corpus_sweep.long_cycle_failures
        or corpus_sweep.decide_failures
    )
    record_criterion(
        4,
        ok,
        f"{corpus_sweep.formulas} corpus CNFs: extra vertices exist iff "
        f"satisfiable ({len(corpus_sweep.equivalence_failures)} failures), "
        f"every extra vertex is a weight -1 all-connector cycle "
        f"({len(corpus_sweep.long_cycle_failures)} failures), decide's "
        f"verdict and UNSAT vertex count match "
        f"({len(corpus_sweep.decide_failures)} failures)",
    )
    assert corpus_sweep.equivalence_failures == []
    assert corpus_sweep.long_cycle_failures == []
    assert corpus_sweep.decide_failures == []


def _is_long_cycle(art: ReductionArtifact, v: ArcVector) -> bool:
    """Whether the 0/1 point ``v`` is one simple cycle of weight -1 through
    every connector: each support arc's head leads on to exactly one support
    arc, and following them from the first returns after all of them."""
    g = art.graph
    support = v.support()
    nxt = {g.arcs[i].tail: i for i in support}
    if len(nxt) != len(support):
        return False
    seen = [support[0]]
    while (i := nxt.get(g.arcs[seen[-1]].head)) != support[0]:
        if i is None or len(seen) == len(support):
            return False
        seen.append(i)
    return (
        len(seen) == len(support)
        and sum(g.arcs[i].weight for i in support) == -1
        and set(art.connectors) <= set(nxt)
    )


def test_oracle_checks_the_corollary_on_small_reduction_graphs(
    cnf_corpus: list[CnfFormula],
) -> None:
    # The paper's corollary read off the oracle, which sees only P's
    # equalities, not the cycle formula: the vertices are 0/1, the trivial
    # family is among them and is all of them exactly when the formula is
    # UNSAT, and every other vertex is a long cycle of weight -1.
    small = [f for f in cnf_corpus if f.variable_count <= 2]
    assert len(small) == 174
    failures = []
    extra_total = 0
    for idx, f in enumerate(small):
        art = build_reduction(f)
        vertices = set(oracle_vertices(build_P(art.graph), ORACLE_CAP).points)
        family = set(trivial_vertex_family(art))
        satisfiable, _ = brute_force_sat(f)
        report = decide_ve01(f, CYCLE_CAP)
        printed = dict(line.split(": ", 1) for line in report.to_text().splitlines())
        extra = vertices - family
        extra_total += len(extra)
        if not (
            all(n == 1 and v.den == 1 for v in vertices for _, n in v.items)
            and family <= vertices
            and (not extra) == (not satisfiable)
            and all(_is_long_cycle(art, v) for v in extra)
            and report.satisfiable == satisfiable
            and (satisfiable or printed["vertex_count"] == str(len(vertices)))
        ):
            failures.append(idx)
    assert failures == []
    assert extra_total == 1054  # frozen with the corpus


def test_criterion_5_fig3_counts() -> None:
    rows = []
    problems = []
    for k in (1, 2, 3, 4):
        g = gen_fig3(k)
        cycles = enumerate_cycles(g, CYCLE_CAP)
        negatives = sum(1 for c in cycles if c.weight < 0)
        positives = sum(1 for c in cycles if c.weight > 0)
        zeros = len(cycles) - negatives - positives
        pairs = len(find_two_cycles(g, cycles, CYCLE_CAP))
        rows.append(f"k={k}: {pairs} two-cycles, {positives} positive")
        if pairs != 2 * k:
            problems.append(f"k={k}: {pairs} two-cycles, want {2 * k}")
        if positives != 3**k - 1:
            problems.append(f"k={k}: {positives} positive, want {3 ** k - 1}")
        # The quoted bound is positives > 2^k at every k, but 3^k - 1 equals
        # 2^k at k = 1. The exact count above implies the bound for k >= 2.
        if k == 1:
            if positives != 2**k:
                problems.append(f"k={k}: {positives} positive, want {2 ** k}")
        elif not positives > 2**k:
            problems.append(
                f"k={k}: {positives} positive, not more than {2 ** k}"
            )
        if negatives != 1 or zeros != 0:
            problems.append(f"k={k}: {negatives} negative, {zeros} zero")
    record_criterion(
        5,
        not problems,
        "; ".join(rows)
        + "; positives == 3^k-1 at every k, == 2^k at k=1 and > 2^k for "
        "k>=2 (quoted > 2^k at every k)"
        + (f" ({'; '.join(problems)})" if problems else ""),
    )
    assert problems == []


def test_criterion_6_coefficient_identities(
    graph_corpus: list[WeightedDigraph],
) -> None:
    checked = 0
    bad = 0
    for g in list(graph_corpus) + [gen_fig3(4)]:
        prime = None
        for tc in find_two_cycles(g, enumerate_cycles(g, CYCLE_CAP), CYCLE_CAP):
            checked += 1
            if prime is None:
                prime = build_P_prime(g)
            good = (
                tc.mu > 0
                and tc.mu_prime > 0
                and tc.mu * tc.negative.length
                + tc.mu_prime * tc.positive.length
                == 1
                and tc.mu * tc.negative.weight
                + tc.mu_prime * tc.positive.weight
                == 0
                and oracle_certifies_vertex(
                    prime, direction_from_two_cycle(g, tc)
                )
            )
            if not good:
                bad += 1
    ok = bad == 0 and checked > 0
    record_criterion(
        6,
        ok,
        f"{checked} two-cycles: coefficients positive, both identities "
        f"exact, vectors oracle-certified ({bad} failures)",
    )
    assert checked > 0
    assert bad == 0


def test_criterion_7_direction_count_bound(corpus_sweep: SweepTotals) -> None:
    # The quoted bound is claimed for every formula. A single clause's
    # section ends at v'1, whose only out-arc is the -1 closing arc, so a
    # non-digon cycle gains at most +1 from one p->a->s detour: there is no
    # positive cycle, no 2-cycle, and the direction count is |zero|, below
    # |neg| + |zero|. The bound is asserted on the multi-clause formulas.
    failures = corpus_sweep.direction_bound_failures
    singles = corpus_sweep.single_clause_rows
    single_failures = [
        idx
        for idx, positives, count, zeros, _ in singles
        if positives != 0 or count != zeros
    ]
    below_quoted = [
        f"#{idx}: {count} < {bound}"
        for idx, _, count, _, bound in singles
        if count < bound
    ]
    sample = "; ".join(
        f"#{idx}: {count} < {bound}" for idx, count, bound in failures[:3]
    )
    ok = (
        not failures
        and not single_failures
        and corpus_sweep.bound_checked + len(singles) == corpus_sweep.formulas
    )
    record_criterion(
        7,
        ok,
        f"{corpus_sweep.bound_checked} multi-clause corpus CNFs (all clause "
        f"sizes >= 2): {len(failures)} below the max(|pos|,|neg|)+|zero| "
        f"bound" + (f" ({sample}, ...)" if failures else "") + f"; "
        f"{len(singles)} single-clause CNFs: {len(single_failures)} with a "
        f"positive cycle or a direction count other than |zero| (quoted "
        f"bound unmet on {len(below_quoted)}"
        + (f", e.g. {below_quoted[0]}" if below_quoted else "")
        + ")",
    )
    assert corpus_sweep.bound_checked + len(singles) == corpus_sweep.formulas
    assert failures == []
    assert single_failures == [], (
        "a single clause section is crossed at most once and never gains "
        "weight, so there is no positive cycle and every direction comes "
        "from a zero cycle"
    )


def test_criterion_8_decomposition_identity(
    graph_corpus: list[WeightedDigraph],
) -> None:
    enumerated = ((g, enumerate_cycles(g, CYCLE_CAP)) for g in graph_corpus)
    cyclic = [(g, cycles) for g, cycles in enumerated if cycles]
    rng = Lcg(777)
    failures = 0
    for _ in range(100):
        g, cycles = cyclic[rng.next_below(len(cyclic))]
        chosen: set[int] = set()
        while len(chosen) < min(4, len(cycles)):
            chosen.add(rng.next_below(len(cycles)))
        total = [Fraction(0)] * g.arc_count
        for i in sorted(chosen):
            coeff = Fraction(1 + rng.next_below(6), 1 + rng.next_below(6))
            for arc_id in cycles[i].arc_ids:
                total[arc_id] += coeff
        y = ArcVector(tuple(total))
        dec = decompose_circulation(g, y)
        rebuilt = [Fraction(0)] * g.arc_count
        for cycle, coeff in dec.terms:
            for arc_id in cycle.arc_ids:
                rebuilt[arc_id] += coeff
        if not (
            tuple(rebuilt) == y.entries
            and all(coeff > 0 for _, coeff in dec.terms)
            and len(dec.terms) <= len(y.support())
        ):
            failures += 1
    record_criterion(
        8,
        failures == 0,
        f"100 seeded circulations rebuilt exactly, positive coefficients, "
        f"at most |support| terms ({failures} failures)",
    )
    assert failures == 0
