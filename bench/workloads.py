"""Seeded inputs for the benchmark workloads.

Inputs come from ``random.Random(seed)`` in this file alone, never from
``negflow.generators``, so editing the library's generators cannot change a
workload. Pools are stratified, quantile-matched on a cost proxy and
prefix-balanced (see ``_pool``), so seeds differ in instances but hardly in
the mix of cheap and expensive inputs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Union

from checks import satisfying_assignment, simple_cycles


@dataclass(frozen=True)
class GraphInput:
    """Simple digraph: 0-based nodes, arcs as (tail, head, integer weight)."""

    nodes: int
    arcs: tuple[tuple[int, int, int], ...]

    def text(self) -> str:
        lines = [f"p {self.nodes} {len(self.arcs)}"]
        lines += [f"a {t + 1} {h + 1} {w}" for t, h, w in self.arcs]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CnfInput:
    variables: int
    clauses: tuple[tuple[int, ...], ...]
    satisfiable: bool

    def text(self) -> str:
        lines = [f"p cnf {self.variables} {len(self.clauses)}"]
        lines += [" ".join(map(str, c)) + " 0" for c in self.clauses]
        return "\n".join(lines) + "\n"


Input = Union[GraphInput, CnfInput]


@dataclass(frozen=True)
class Pool:
    """Inputs in op order; ``warmup`` indexes the cheapest input."""

    inputs: tuple[Input, ...]
    warmup: int


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    suffix: str
    why: str
    make_pool: Callable[[int], Pool]


def random_graph(rng: random.Random, nodes: int, arcs: int, wmax: int) -> GraphInput:
    """Uniform simple digraph: no self-loops, no parallel arcs."""
    pairs = [(u, v) for u in range(nodes) for v in range(nodes) if u != v]
    chosen = rng.sample(pairs, arcs)
    return GraphInput(
        nodes, tuple((u, v, rng.randint(-wmax, wmax)) for u, v in chosen)
    )


def random_2cnf(
    rng: random.Random, variables: int, clauses: int, satisfiable: bool
) -> CnfInput:
    """Rejection-sample a 2-CNF with every variable occurring and the given verdict."""
    for _ in range(100_000):
        formula = []
        for _ in range(clauses):
            pair = rng.sample(range(1, variables + 1), 2)
            formula.append(tuple(v if rng.random() < 0.5 else -v for v in pair))
        if {abs(lit) for c in formula for lit in c} != set(range(1, variables + 1)):
            continue
        sat = satisfying_assignment(variables, formula) is not None
        if sat == satisfiable:
            return CnfInput(variables, tuple(formula), satisfiable)
    raise RuntimeError(f"no {variables}-variable {clauses}-clause formula found")


def _bit_reversal(n: int) -> list[int]:
    """0..n-1 in bit-reversed order: every prefix samples the range evenly."""
    bits = max(1, (n - 1).bit_length())
    order = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [j for j in order if j < n]


def _pool(
    seed: int,
    shapes: list,
    per_shape: int,
    make: Callable,
    cost_key: Callable[[Input], int] | None = None,
    oversample: int = 1,
) -> Pool:
    """Stratified, quantile-matched, prefix-balanced pool.

    Per shape, draw ``per_shape * oversample`` inputs, sort them by a cheap
    cost proxy from the benchmark's own enumeration, and keep every
    ``oversample``-th, so the pool follows the family's quantiles of that
    proxy closely for every seed. Ops then run the kept inputs in
    bit-reversal order of (shape, proxy), so a run that stops partway
    through a pass still runs a balanced mix.
    """
    rng = random.Random(seed)
    kept: list[Input] = []
    for shape in shapes:
        drawn = [make(rng, *shape) for _ in range(per_shape * oversample)]
        if cost_key is not None:
            drawn.sort(key=cost_key)
        kept += drawn[oversample // 2 :: oversample]
    order = _bit_reversal(len(kept))
    return Pool(tuple(kept[i] for i in order), warmup=order.index(0))


def _oracle_supports(g: GraphInput) -> int:
    """Supports the oracle solves on for P and P': those whose sign pattern
    can meet every equality row with a point positive exactly on them."""
    out = [0] * g.nodes
    into = [0] * g.nodes
    positive = negative = 0
    for i, (tail, head, w) in enumerate(g.arcs):
        out[tail] |= 1 << i
        into[head] |= 1 << i
        if w > 0:
            positive |= 1 << i
        elif w < 0:
            negative |= 1 << i
    rows = list(zip(out, into))
    count = 0
    for s in range(1, 1 << len(g.arcs)):
        for o, n in rows:  # flow conservation
            if (s & o == 0) != (s & n == 0):
                break
        else:
            count += s & negative != 0  # P: weight sum -1
            count += (s & positive == 0) == (s & negative == 0)  # P': weight sum 0
    return count


def _sign_mixed_pairs(g: GraphInput) -> tuple[int, int]:
    cycles = simple_cycles(g)
    negative = sum(1 for c in cycles if c.weight < 0)
    positive = sum(1 for c in cycles if c.weight > 0)
    return negative * positive, len(cycles)


# Sizes fit one to two passes into a 38 s run on a 2-core x86 VM (Python 3.11).
VERIFY_SHAPES = [(n, m) for n in (4, 5, 6) for m in range(5, 11)]
VERIFY_PER_SHAPE = 32
DIRECTIONS_GRAPHS = 720
DECIDE_SHAPES = list(product((2, 3), (4, 5, 6), (True, False)))
DECIDE_PER_SHAPE = 20
OVERSAMPLE = 4


def verify_pool(seed: int) -> Pool:
    return _pool(
        seed,
        VERIFY_SHAPES,
        VERIFY_PER_SHAPE,
        lambda rng, n, m: random_graph(rng, n, m, 3),
        _oracle_supports,
        OVERSAMPLE,
    )


def directions_pool(seed: int) -> Pool:
    return _pool(
        seed,
        [(8, 20)],
        DIRECTIONS_GRAPHS,
        lambda rng, n, m: random_graph(rng, n, m, 5),
        _sign_mixed_pairs,
        OVERSAMPLE,
    )


def decide_pool(seed: int) -> Pool:
    return _pool(seed, DECIDE_SHAPES, DECIDE_PER_SHAPE, random_2cnf)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-oracle",
            "verify",
            ".graph",
            "oracle-bound: support enumeration is most of each op, so it shows "
            "the exact elimination kernel",
            verify_pool,
        ),
        Workload(
            "directions-dense",
            "directions",
            ".graph",
            "2-cycle-bound: thousands of tiny union walks and dense direction "
            "vectors, no oracle",
            directions_pool,
        ),
        Workload(
            "decide-mix",
            "decide",
            ".cnf",
            "one large Johnson walk and cycle weighting per op; half SAT, half "
            "UNSAT, so an early exit shows",
            decide_pool,
        ),
    )
}
