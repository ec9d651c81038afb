"""Independent output checks, run after each op's timer stops.

Nothing here imports negflow. The references are written from the
definitions: simple cycles by depth-first search, a 2-cycle as a
sign-mixed pair whose arc union contains no third cycle, and SAT by trying
every assignment. A check returns None when the output is right and a
one-line reason when it is not.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Sequence

# An exact rational vector as (common denominator, integer numerators).
ScaledVector = tuple[int, tuple[int, ...]]


def satisfying_assignment(
    variables: int, clauses: Sequence[Sequence[int]]
) -> dict[int, bool] | None:
    for values in product((False, True), repeat=variables):
        if all(any(values[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return {v + 1: values[v] for v in range(variables)}
    return None


@dataclass(frozen=True)
class RefCycle:
    arcs: tuple[int, ...]
    mask: int
    weight: int


@dataclass(frozen=True)
class GraphReference:
    cycles: tuple[RefCycle, ...]
    two_cycles: tuple[tuple[RefCycle, RefCycle], ...]
    directions: frozenset[ScaledVector]

    def count(self, sign: int) -> int:
        return sum(1 for c in self.cycles if (c.weight > 0) - (c.weight < 0) == sign)

    @property
    def sign_mixed_pairs(self) -> int:
        return self.count(-1) * self.count(1)


def simple_cycles(g) -> list[RefCycle]:
    """Every simple cycle once, found from its smallest node."""
    succ: list[list[tuple[int, int]]] = [[] for _ in range(g.nodes)]
    for arc_id, (tail, head, _) in enumerate(g.arcs):
        succ[tail].append((head, arc_id))
    found: list[RefCycle] = []

    def extend(start: int, node: int, visited: set[int], path: list[int]) -> None:
        for head, arc_id in succ[node]:
            if head == start:
                arcs = tuple(path + [arc_id])
                found.append(
                    RefCycle(
                        arcs,
                        sum(1 << a for a in arcs),
                        sum(g.arcs[a][2] for a in arcs),
                    )
                )
            elif head > start and head not in visited:
                visited.add(head)
                extend(start, head, visited, path + [arc_id])
                visited.remove(head)

    for start in range(g.nodes):
        extend(start, start, {start}, [])
    return found


def scaled(denominator: int, numerators) -> ScaledVector:
    """The vector numerators / denominator with the smallest denominator."""
    g = gcd(denominator, *numerators)
    return denominator // g, tuple(y // g for y in numerators)


def graph_reference(g) -> GraphReference:
    cycles = simple_cycles(g)
    m = len(g.arcs)

    def chi(*terms: tuple[RefCycle, int]) -> list[int]:
        vec = [0] * m
        for cycle, coeff in terms:
            for a in cycle.arcs:
                vec[a] += coeff
        return vec

    directions = {
        scaled(len(c.arcs), chi((c, 1))) for c in cycles if c.weight == 0
    }
    two_cycles = []
    for neg, pos in product(cycles, cycles):
        if not neg.weight < 0 < pos.weight:
            continue
        union = neg.mask | pos.mask
        if sum(1 for c in cycles if c.mask & ~union == 0) != 2:
            continue
        two_cycles.append((neg, pos))
        # Weight 0 and entry sum 1 fix the coefficients of chi(neg), chi(pos)
        # at pos.weight / denom and -neg.weight / denom.
        denom = pos.weight * len(neg.arcs) - neg.weight * len(pos.arcs)
        directions.add(scaled(denom, chi((neg, pos.weight), (pos, -neg.weight))))
    return GraphReference(tuple(cycles), tuple(two_cycles), frozenset(directions))


def vector_set_digest(vectors) -> str:
    """Order-free digest of a set of exact vectors."""
    lines = sorted(f"{d}: {' '.join(map(str, y))}" for d, y in vectors)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def parse_directions(out: str, arcs: int) -> list[ScaledVector]:
    """Vectors from ``d <arc> <value> ...`` lines; ValueError if malformed."""
    vectors = []
    for line in out.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] != "d" or len(tokens) % 2 == 0:
            raise ValueError(f"bad direction line {line!r}")
        entries = {}
        for arc, value in zip(tokens[1::2], tokens[2::2]):
            num, _, den = value.partition("/")
            entries[int(arc)] = Fraction(int(num), int(den or 1))
        if not set(entries) <= set(range(arcs)):
            raise ValueError(f"arc id out of range in {line!r}")
        common = lcm(*(v.denominator for v in entries.values()))
        numerators = [0] * arcs
        for arc, v in entries.items():
            numerators[arc] = v.numerator * (common // v.denominator)
        vectors.append(scaled(common, numerators))
    return vectors


def p_prime_violation(g, vector: ScaledVector) -> str | None:
    """Why y = numerators / denominator is not in P': conservation, weight 0,
    entry sum 1, y >= 0. Exact: all integer arithmetic."""
    denominator, y = vector
    balance = [0] * g.nodes
    for (tail, head, _), value in zip(g.arcs, y):
        balance[tail] += value
        balance[head] -= value
    if any(balance):
        return "flow not conserved"
    if sum(w * v for (_, _, w), v in zip(g.arcs, y)) != 0:
        return "weight sum is not 0"
    if sum(y) != denominator:
        return "entry sum is not 1"
    if any(v < 0 for v in y):
        return "negative entry"
    return None


def check_verify(g, ref: GraphReference, code, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    fields = _fields(out)
    for key in ("vertices_match", "directions_match"):
        if fields.get(key) != "true":
            return f"{key}: {fields.get(key)}"
    expected = {
        "negative_cycles": ref.count(-1),
        "zero_cycles": ref.count(0),
        "positive_cycles": ref.count(1),
        "two_cycles": len(ref.two_cycles),
    }
    for key, want in expected.items():
        if fields.get(key) != str(want):
            return f"{key}: {fields.get(key)}, reference {want}"
    return None


def check_directions(
    g, ref: GraphReference, code, out: str, recorded: str | None
) -> str | None:
    if code != 0:
        return f"exit {code}"
    try:
        vectors = parse_directions(out, len(g.arcs))
    except (ValueError, ZeroDivisionError) as exc:
        return str(exc)
    for vec in vectors:
        why = p_prime_violation(g, vec)
        if why is not None:
            return f"direction not in P': {why}"
    digest = vector_set_digest(set(vectors))
    if digest != vector_set_digest(ref.directions):
        return "direction set differs from the reference"
    if recorded is not None and digest != recorded:
        return f"direction set digest {digest} != recorded {recorded}"
    return None


def check_decide(f, code, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    fields = _fields(out)
    sat = satisfying_assignment(f.variables, f.clauses) is not None
    verdict = "true" if sat else "false"
    if fields.get("satisfiable") != verdict:
        return f"satisfiable: {fields.get('satisfiable')}, brute force {verdict}"
    trivial = "false" if sat else "true"
    if fields.get("trivial_equals_vertices") != trivial:
        return f"trivial_equals_vertices: {fields.get('trivial_equals_vertices')}"
    witness = fields.get("witness")
    if not sat:
        return None if witness == "-" else f"witness {witness!r} on UNSAT"
    values: dict[int, bool] = {}
    for item in (witness or "").split():
        name, _, value = item.partition("=")
        if not name.startswith("x") or value not in ("0", "1"):
            return f"bad witness item {item!r}"
        values[int(name[1:])] = value == "1"
    if set(values) != set(range(1, f.variables + 1)):
        return f"witness {witness!r} does not assign every variable"
    for clause in f.clauses:
        if not any(values[abs(l)] == (l > 0) for l in clause):
            return f"witness falsifies clause {clause}"
    return None
