"""Command line front end.

Exit codes: 0 success (for `verify`, both set equalities hold), 1 checks
failed or invalid data, 2 usage or parse errors, 3 a work cap was hit.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .characterize import (
    DEFAULT_CYCLE_CAP,
    _direction_rows,
    _format_row,
    format_tagged_point,
    verify_theorem1,
    vertices_from_negative_cycles,
)
from .cycles import (
    TwoCycleShape,
    decompose_circulation,
    enumerate_cycles,
    format_cycle,
)
from .errors import CapExceeded, NegflowError, ParseError
from .generators import gen_fig1, gen_fig3, gen_random
from .graph import parse_arc_vector, parse_graph, serialize_graph
from .polyhedra import (
    DEFAULT_ORACLE_CAP,
    build_P,
    oracle_vertices,
)
from .reduction import build_reduction, decide_ve01, parse_dimacs_cnf, trivial_vertex_family


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negflow",
        description="Exact analysis of negative-weight circulation polyhedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cycle_cap(
        p: argparse.ArgumentParser, unit: str = "cycle enumeration cap"
    ) -> None:
        p.add_argument(
            "--max-cycles",
            type=int,
            default=DEFAULT_CYCLE_CAP,
            help=f"{unit} (default {DEFAULT_CYCLE_CAP})",
        )

    def add_oracle_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-oracle",
            type=int,
            default=DEFAULT_ORACLE_CAP,
            help="work cap of the one oracle run on P: one unit per ray a row's "
            "cut evaluates and per ray an adjacency scan reads "
            f"(default {DEFAULT_ORACLE_CAP})",
        )

    p = sub.add_parser("vertices", help="vertices from negative cycles")
    p.add_argument("graph", type=Path)
    add_cycle_cap(p)

    p = sub.add_parser("directions", help="extreme directions from cycles")
    p.add_argument("graph", type=Path)
    add_cycle_cap(p)

    p = sub.add_parser("oracle", help="double-description vertex enumeration")
    p.add_argument("graph", type=Path)
    p.add_argument(
        "--prime",
        action="store_true",
        help="print the extreme directions that the same run yields instead",
    )
    add_oracle_cap(p)

    p = sub.add_parser("verify", help="compare both characterizations to the oracle")
    p.add_argument("graph", type=Path)
    add_cycle_cap(p)
    add_oracle_cap(p)

    p = sub.add_parser("decompose", help="peel a circulation into cycles")
    p.add_argument("graph", type=Path)
    p.add_argument("vector", type=Path)

    p = sub.add_parser("reduce", help="build the graph for a DIMACS CNF")
    p.add_argument("cnf", type=Path)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument(
        "--emit-x",
        type=Path,
        default=None,
        help="also write the trivial vertex family",
    )

    p = sub.add_parser("decide", help="trivial family vs. vertex set, plus SAT")
    p.add_argument("cnf", type=Path)
    add_cycle_cap(p, "long-cycle search cap: one unit per search node")

    p = sub.add_parser("gen", help="emit a built-in instance family")
    gen_sub = p.add_subparsers(dest="family", required=True)

    q = gen_sub.add_parser("fig3", help="ring family with exponentially many cycles")
    q.add_argument("--k", type=int, required=True)

    q = gen_sub.add_parser("fig1", help="minimal 2-cycle shapes")
    q.add_argument(
        "--shape",
        choices=[s.value for s in TwoCycleShape],
        required=True,
    )

    q = gen_sub.add_parser("random", help="seeded random simple digraph")
    q.add_argument("--nodes", type=int, required=True)
    q.add_argument("--arcs", type=int, required=True)
    q.add_argument("--wmax", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)

    return parser


def _read_text(path: Path) -> str:
    """The file decoded as UTF-8. Bytes that are not raise a ParseError on
    the line ``str.splitlines`` puts them on, as the parsers count lines."""
    data = path.read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode() + "x").splitlines())
        raise ParseError(line, "not UTF-8 text") from None


def _run(args: argparse.Namespace) -> int:
    if "graph" in args:
        g = parse_graph(_read_text(args.graph))
    if "cnf" in args:
        formula = parse_dimacs_cnf(_read_text(args.cnf))
    if "max_cycles" in args and args.max_cycles < 1:
        raise ValueError("cycle cap must be positive")
    if args.command == "vertices":
        cycles = enumerate_cycles(g, args.max_cycles)
        for point in vertices_from_negative_cycles(g, cycles).points:
            print(format_tagged_point("v", point))
        return 0
    if args.command == "directions":
        rows = _direction_rows(g, args.max_cycles)
        print("".join(_format_row("d", *row) + "\n" for row in rows), end="")
        return 0
    if args.command == "oracle":
        result = oracle_vertices(build_P(g), args.max_oracle)
        points = result.directions if args.prime else result.points
        if not points:
            print("c polyhedron empty")
        tag = "d" if args.prime else "v"
        for point in points:
            print(format_tagged_point(tag, point))
        return 0
    if args.command == "verify":
        report = verify_theorem1(g, args.max_cycles, args.max_oracle)
        print(report.to_text(), end="")
        return 0 if report.all_match else 1
    if args.command == "decompose":
        vector = parse_arc_vector(_read_text(args.vector), g.arc_count)
        for cycle, coeff in decompose_circulation(g, vector).terms:
            print(f"t {coeff} : {format_cycle(cycle)}")
        return 0
    if args.command == "reduce":
        art = build_reduction(formula)
        comments = [
            f"reduction: {formula.variable_count} variables, "
            f"{len(formula.clauses)} clauses, "
            f"{formula.occurrence_count} occurrences",
        ]
        comments += [
            f"role: {node + 1} {','.join(r)}"
            for node, r in enumerate(art.roles)
            if r
        ]
        text = serialize_graph(art.graph, comments)
        if args.output is None:
            print(text, end="")
        else:
            args.output.write_text(text)
        if args.emit_x is not None:
            lines = [
                format_tagged_point("v", point)
                for point in trivial_vertex_family(art)
            ]
            args.emit_x.write_text("\n".join(lines) + "\n" if lines else "")
        return 0
    if args.command == "decide":
        report = decide_ve01(formula, args.max_cycles)
        print(report.to_text(), end="")
        return 0
    if args.command == "gen":
        if args.family == "fig3":
            g = gen_fig3(args.k)
            comment = f"family fig3 k={args.k}"
        elif args.family == "fig1":
            g = gen_fig1(TwoCycleShape(args.shape))
            comment = f"family fig1 shape={args.shape}"
        else:
            g = gen_random(
                args.nodes, args.arcs, (-args.wmax, args.wmax), args.seed
            )
            comment = (
                f"family random nodes={args.nodes} arcs={args.arcs}"
                f" wmax={args.wmax} seed={args.seed}"
            )
        print(serialize_graph(g, [comment]), end="")
        return 0
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        hint = "--max-oracle" if exc.kind.startswith("oracle") else "--max-cycles"
        print(f"error: {exc}; raise {hint}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NegflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
