"""CNF satisfiability decided by a long negative cycle of a circulation graph.

Each literal occurrence contributes two weight-(-1/2) arcs that form a
digon between its shared nodes a and b, giving one trivial 0/1 vertex per
occurrence. A simple cycle through every connector exists exactly when
hiding assignments line up: it has weight -1, lies outside the trivial
family, and the variable chains it takes give a satisfying assignment. So
`decide_ve01` decides satisfiability by searching for that certificate, not
by trying assignments. The search builds only paths that pass the
connectors in order; when it runs out, no such cycle exists and the vertex
set is exactly the trivial family.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characterize import _bool
from .cycles import Cycle, make_cycle
from .errors import CapExceeded, NegflowError, ParseError
from .graph import Arc, ArcVector, WeightedDigraph, _parse_int, characteristic_vector

MAX_SAT_VARIABLES = 24

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CnfFormula:
    """Clauses as tuples of nonzero literals; variables are 1..variable_count."""

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.variable_count < 0:
            raise ValueError("variable count must be nonnegative")
        for idx, clause in enumerate(self.clauses):
            if not clause:
                raise ValueError(f"clause {idx} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(f"clause {idx}: literal {lit} out of range")

    @property
    def occurrence_count(self) -> int:
        return sum(len(c) for c in self.clauses)


@dataclass(frozen=True)
class Occurrence:
    """One literal occurrence with its nodes and six arc ids.

    Arc ids follow construction order: (p->a, a->b, b->q) in the variable
    section and (r->b, b->a, a->s) in the clause section. The digon for
    this occurrence is (a->b, b->a).
    """

    literal: int
    clause_index: int
    position: int
    a_node: int
    b_node: int
    p_a: int
    a_b: int
    b_q: int
    r_b: int
    b_a: int
    a_s: int


@dataclass(frozen=True)
class ReductionArtifact:
    graph: WeightedDigraph
    formula: CnfFormula
    connectors: tuple[int, ...]
    occurrences: tuple[Occurrence, ...]
    degenerate_chain_arcs: tuple[int, ...]
    roles: tuple[tuple[str, ...], ...]
    # Per variable, the first arcs of its positive and negated chains: the
    # arcs that leave v_{i-1}.
    chain_starts: tuple[tuple[int, int], ...]

    @property
    def closing_arc(self) -> int:
        return self.graph.arc_count - 1


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """Parse DIMACS CNF; raises ParseError naming the offending line.

    A line starting with ``%`` ends the clause data, as in the SATLIB
    benchmark files; the rest of the text is ignored.
    """
    variable_count: int | None = None
    declared_clauses = 0
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if variable_count is not None:
                raise ParseError(lineno, "duplicate p header")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(lineno, "expected 'p cnf <vars> <clauses>'")
            counts = "header counts must be integers"
            variable_count = _parse_int(fields[2], lineno, counts)
            declared_clauses = _parse_int(fields[3], lineno, counts)
            if variable_count < 0 or declared_clauses < 0:
                raise ParseError(lineno, "header counts must be nonnegative")
            continue
        if variable_count is None:
            raise ParseError(lineno, "clause data before p header")
        for token in line.split():
            lit = _parse_int(token, lineno, f"bad literal {token!r}")
            if lit == 0:
                if not current:
                    raise ParseError(lineno, "empty clause")
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > variable_count:
                    raise ParseError(
                        lineno, f"literal {lit} exceeds variable count {variable_count}"
                    )
                current.append(lit)
    if variable_count is None:
        raise ParseError(last_line, "missing p header")
    if current:
        raise ParseError(last_line, "last clause missing terminating 0")
    if len(clauses) != declared_clauses:
        raise ParseError(
            last_line,
            f"header declares {declared_clauses} clauses, file has {len(clauses)}",
        )
    return CnfFormula(variable_count, tuple(clauses))


def _literal_text(lit: int) -> str:
    sign = "+" if lit > 0 else "-"
    return f"{sign}x{abs(lit)}"


def build_reduction(f: CnfFormula) -> ReductionArtifact:
    """Construct the reduction graph with stable node and arc order.

    Nodes: connectors first (v0..vn then v'1..v'm), then per-chain a/b and
    junction nodes in variable/polarity/clause order. Arcs: variable
    chains (positive then negated per variable; a chain with no
    occurrences is one zero-weight arc), then clause paths in clause
    order, then the closing arc of weight -1.
    """
    n = f.variable_count
    m = len(f.clauses)
    roles: list[list[str]] = []

    def new_node(*node_roles: str) -> int:
        roles.append(list(node_roles))
        return len(roles) - 1

    v_nodes = [new_node(f"v{i}") for i in range(n + 1)]
    vp_nodes = [new_node(f"v'{j + 1}") for j in range(m)]
    connectors = tuple(v_nodes + vp_nodes)

    arcs: list[Arc] = []

    def new_arc(tail: int, head: int, weight: Fraction) -> int:
        arcs.append(Arc(len(arcs), tail, head, weight))
        return len(arcs) - 1

    occ_nodes: dict[tuple[int, int], tuple[int, int]] = {}
    occ_var_arcs: dict[tuple[int, int], tuple[int, int, int]] = {}
    degenerate: list[int] = []
    starts: list[int] = []
    for var in range(1, n + 1):
        for polarity in (1, -1):
            lit = polarity * var
            starts.append(len(arcs))
            chain = [
                (j, pos)
                for j, clause in enumerate(f.clauses)
                for pos, l in enumerate(clause)
                if l == lit
            ]
            left = v_nodes[var - 1]
            right = v_nodes[var]
            if not chain:
                degenerate.append(new_arc(left, right, Fraction(0)))
                continue
            cur = left
            for t, (j, pos) in enumerate(chain):
                tag = f"{_literal_text(lit)}@c{j + 1}"
                a = new_node(f"a:{tag}")
                b = new_node(f"b:{tag}")
                roles[cur].append(f"p:{tag}")
                nxt = right if t == len(chain) - 1 else new_node()
                roles[nxt].append(f"q:{tag}")
                p_a = new_arc(cur, a, HALF)
                a_b = new_arc(a, b, -HALF)
                b_q = new_arc(b, nxt, Fraction(0))
                occ_nodes[(j, pos)] = (a, b)
                occ_var_arcs[(j, pos)] = (p_a, a_b, b_q)
                cur = nxt

    occurrences: list[Occurrence] = []
    for j, clause in enumerate(f.clauses):
        left = v_nodes[n] if j == 0 else vp_nodes[j - 1]
        right = vp_nodes[j]
        for pos, lit in enumerate(clause):
            tag = f"{_literal_text(lit)}@c{j + 1}"
            a, b = occ_nodes[(j, pos)]
            roles[left].append(f"r:{tag}")
            roles[right].append(f"s:{tag}")
            r_b = new_arc(left, b, Fraction(0))
            b_a = new_arc(b, a, -HALF)
            a_s = new_arc(a, right, HALF)
            p_a, a_b, b_q = occ_var_arcs[(j, pos)]
            occurrences.append(
                Occurrence(lit, j, pos, a, b, p_a, a_b, b_q, r_b, b_a, a_s)
            )

    last = vp_nodes[m - 1] if m else v_nodes[n]
    new_arc(last, v_nodes[0], Fraction(-1))

    expected = 6 * f.occurrence_count + 1 + len(degenerate)
    if len(arcs) != expected:
        raise NegflowError(f"arc budget violated: {len(arcs)} != {expected}")
    graph = WeightedDigraph(len(roles), tuple(arcs))
    return ReductionArtifact(
        graph=graph,
        formula=f,
        connectors=connectors,
        occurrences=tuple(occurrences),
        degenerate_chain_arcs=tuple(degenerate),
        roles=tuple(tuple(r) for r in roles),
        chain_starts=tuple(zip(starts[::2], starts[1::2])),
    )


def trivial_vertex_family(art: ReductionArtifact) -> tuple[ArcVector, ...]:
    """One 0/1 vertex per occurrence: its digon's two arcs set to 1."""
    return tuple(
        characteristic_vector(art.graph, (occ.a_b, occ.b_a))
        for occ in art.occurrences
    )


def brute_force_sat(f: CnfFormula) -> tuple[bool, dict[int, bool] | None]:
    """Exhaustive satisfiability check; first witness in lexicographic order.

    The tests' reference for `decide_ve01`, which does not call it.
    """
    if f.variable_count > MAX_SAT_VARIABLES:
        raise ValueError(
            f"brute force limited to {MAX_SAT_VARIABLES} variables"
        )
    for mask in range(2 ** f.variable_count):
        assignment = {
            var: bool(mask >> (var - 1) & 1) for var in range(1, f.variable_count + 1)
        }
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause) for clause in f.clauses
        ):
            return True, assignment
    return False, None


@dataclass(frozen=True)
class Ve01Report:
    """The verdict, as the search's certificate and the witness read off it.

    On a satisfiable formula ``certificate`` is the long cycle that ended
    the search and ``witness`` the assignment it encodes; the full vertex
    set is then not known, so ``vertex_count``, ``extra_vertices`` and
    ``extra_are_long_cycles`` print as ``unknown``. On an unsatisfiable one
    both are None: the search was exhaustive, so the vertices are exactly
    the trivial family. Every printed line is worked out from these fields.
    """

    artifact: ReductionArtifact
    certificate: Cycle | None
    witness: dict[int, bool] | None

    @property
    def satisfiable(self) -> bool:
        return self.certificate is not None

    def to_text(self) -> str:
        art = self.artifact
        g = art.graph
        family_size = len(art.occurrences)
        # Each occurrence's digon is a negative cycle, so its 0/1 vector is
        # a vertex.
        trivial_is_subset = all(
            g.arcs[occ.a_b].head == g.arcs[occ.b_a].tail
            and g.arcs[occ.b_a].head == g.arcs[occ.a_b].tail
            and g.arcs[occ.a_b].weight + g.arcs[occ.b_a].weight < 0
            for occ in art.occurrences
        )
        witness = " ".join(
            f"x{var}={int(val)}" for var, val in sorted((self.witness or {}).items())
        )
        if self.satisfiable:
            vertex_count = extra = extra_long = "unknown"
        else:
            vertex_count, extra, extra_long = family_size, 0, "true"
        lines = [
            f"nodes: {g.node_count}",
            f"arcs: {g.arc_count}",
            f"occurrences: {art.formula.occurrence_count}",
            f"degenerate_chains: {len(art.degenerate_chain_arcs)}",
            f"trivial_family_size: {family_size}",
            f"vertex_count: {vertex_count}",
            f"trivial_is_subset: {_bool(trivial_is_subset)}",
            # The certificate is a negative cycle outside the digon family.
            f"trivial_equals_vertices: {_bool(not self.satisfiable)}",
            f"extra_vertices: {extra}",
            f"extra_are_long_cycles: {extra_long}",
            f"satisfiable: {_bool(self.satisfiable)}",
            f"witness: {witness or '-'}",
        ]
        return "\n".join(lines) + "\n"


def decide_ve01(f: CnfFormula, cap: int) -> Ve01Report:
    """Decide satisfiability by a long-cycle certificate.

    A depth-first search builds only the cycles that can be negative and
    outside the digon family: they take the closing arc and visit the
    connectors in order (see `_long_cycle`). The first one it completes is
    the certificate. It must weigh -1, and the witness decoded from it must
    satisfy every clause, or NegflowError is raised. An exhausted search
    proves the formula unsatisfiable, and the report then has neither.
    Raises CapExceeded, with the number of nodes searched, as soon as more
    than ``cap`` search nodes are entered.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    art = build_reduction(f)
    seq = _long_cycle(art, cap)
    if seq is None:
        return Ve01Report(art, None, None)
    certificate = make_cycle(art.graph, seq)
    if certificate.weight != -1:
        raise NegflowError(
            f"long cycle {certificate.arc_ids} weighs {certificate.weight}, not -1"
        )
    arcs = set(seq)
    # The chain a long cycle takes from v_{i-1} to v_i passes the a/b nodes
    # of that literal's occurrences, hiding them from the clause paths, so
    # the literal is false: x_i is true iff the negated chain is taken.
    witness = {
        var: neg in arcs for var, (_, neg) in enumerate(art.chain_starts, start=1)
    }
    for j, clause in enumerate(art.formula.clauses):
        if not any(witness[abs(lit)] == (lit > 0) for lit in clause):
            raise NegflowError(
                f"witness decoded from long cycle {certificate.arc_ids} "
                f"falsifies clause {j + 1}"
            )
    return Ve01Report(art, certificate, witness)


def _long_cycle(art: ReductionArtifact, cap: int) -> tuple[int, ...] | None:
    """Arc ids of the first negative cycle outside the digon family, in
    traversal order from v0, or None when there is none.

    Only the closing arc and the a-node arcs weigh anything, and each
    a-node is passed p-a-b (net 0), b-a-s (0), p-a-s (+1) or b-a-b (-1,
    its digon). So such a cycle takes the closing arc, makes no p-a-s
    pass and weighs -1; it then visits v0 .. vn, v'1 .. v'm in order.
    The search builds those paths one segment c_k -> c_{k+1} at a time,
    trying out-arcs in id order. A segment enters no path node and no
    connector but c_{k+1}. A variable segment is one literal's chain, and
    clause j's segment can only be r-b-a-s through an occurrence of clause
    j whose a-node is off the path. So a variable segment never enters the
    a-node of a clause's last open occurrence: that branch is dead.
    """
    g = art.graph
    connectors = art.connectors
    last = len(connectors) - 1
    if last == 0:
        return (art.closing_arc,)
    on_path = [False] * g.node_count
    is_connector = [False] * g.node_count
    for c in connectors:
        is_connector[c] = True
    on_path[connectors[0]] = True
    no_exit = {occ.p_a: occ.a_s for occ in art.occurrences}
    clause_at = {occ.a_node: occ.clause_index for occ in art.occurrences}
    # Per clause, the occurrences whose a-node is off the path.
    open_count = [len(clause) for clause in art.formula.clauses]
    variable_count = art.formula.variable_count

    arcs: list[int] = []
    # One frame per path node: its segment index and its out-arc iterator.
    frames = [(0, iter(g.out_arcs[connectors[0]]))]
    searched = 0
    while frames:
        k, out = frames[-1]
        target = connectors[k + 1]
        for arc in out:
            w = arc.head
            if on_path[w] or (is_connector[w] and w != target):
                continue
            if arcs and no_exit.get(arcs[-1]) == arc.arc_id:
                continue
            j = clause_at.get(w)
            if j is not None and k < variable_count and open_count[j] == 1:
                continue
            searched += 1
            if searched > cap:
                raise CapExceeded(
                    "search nodes",
                    cap,
                    f"searched {cap} nodes, no long cycle completed",
                )
            segment = k + 1 if w == target else k
            if segment == last:
                return (*arcs, arc.arc_id, art.closing_arc)
            on_path[w] = True
            if j is not None:
                open_count[j] -= 1
            frames.append((segment, iter(g.out_arcs[w])))
            arcs.append(arc.arc_id)
            break
        else:
            frames.pop()
            if arcs:
                v = g.arcs[arcs.pop()].head
                on_path[v] = False
                if v in clause_at:
                    open_count[clause_at[v]] += 1
    return None
