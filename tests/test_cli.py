"""Command-line interface: exit codes, output formats, caps, determinism."""
import random
import re
import time
from dataclasses import replace
from pathlib import Path

import pytest

from negflow import reduction
from negflow.cli import main
from negflow.cycles import _two_cycle_pairs, _weighted_cycles, enumerate_cycles
from negflow.graph import parse_graph
from negflow.polyhedra import build_P, oracle_vertices
from negflow.reduction import build_reduction, decide_ve01, parse_dimacs_cnf

TRIANGLE = "p 3 3\na 1 2 -1\na 2 3 -1\na 3 1 -1\n"
TAUTOLOGY = "p cnf 1 1\n1 -1 0\n"
UNSAT = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"


@pytest.fixture
def triangle(tmp_path: Path) -> Path:
    p = tmp_path / "tri.graph"
    p.write_text(TRIANGLE)
    return p


@pytest.fixture
def fig3(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> Path:
    assert main(["gen", "fig3", "--k", "1"]) == 0
    p = tmp_path / "fig3.graph"
    p.write_text(capsys.readouterr().out)
    return p


def test_vertices(triangle: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["vertices", str(triangle)]) == 0
    assert capsys.readouterr().out == "v 0 1/3 1 1/3 2 1/3\n"


def test_directions_empty(triangle: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["directions", str(triangle)]) == 0
    assert capsys.readouterr().out == ""


def test_directions_nonempty(fig3: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["directions", str(fig3)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("d ") for line in lines)


def test_oracle_matches_formula(
    triangle: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    assert main(["vertices", str(triangle)]) == 0
    formula = capsys.readouterr().out
    assert main(["oracle", str(triangle)]) == 0
    assert capsys.readouterr().out == formula


# Rational weights, parallel arcs 2->1 (-1/2 and 1/6), a negative loop at
# node 3 and a zero loop at node 1. The vertices sort by their dense
# entries, not by arc id, and the direction (9/20, 1/10, 1/10, 7/20) prints
# each entry in its own lowest terms.
MULTIGRAPH = (
    "p 3 7\na 1 2 1/3\na 2 3 -1/2\na 3 1 3/4\na 2 1 -1/2\na 2 1 1/6\n"
    "a 3 3 -2/3\na 1 1 0\n"
)
MULTIGRAPH_VERTICES = "v 5 3/2\nv 0 6 3 6\n"
MULTIGRAPH_DIRECTIONS = (
    "d 6 1\n"
    "d 0 8/31 1 8/31 2 8/31 5 7/31\n"
    "d 0 4/11 4 4/11 5 3/11\n"
    "d 0 9/20 1 1/10 2 1/10 3 7/20\n"
    "d 0 1/2 3 3/8 4 1/8\n"
)


def test_golden_output_on_rational_multigraph(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    graph = tmp_path / "multi.graph"
    graph.write_text(MULTIGRAPH)
    for argv, expected in (
        (["vertices"], MULTIGRAPH_VERTICES),
        (["oracle"], MULTIGRAPH_VERTICES),
        (["directions"], MULTIGRAPH_DIRECTIONS),
        (["oracle", "--prime"], MULTIGRAPH_DIRECTIONS),
    ):
        assert main([argv[0], str(graph), *argv[1:]]) == 0
        assert capsys.readouterr() == (expected, "")


def test_oracle_prime_empty(triangle: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["oracle", str(triangle), "--prime"]) == 0
    assert capsys.readouterr().out == "c polyhedron empty\n"


def test_verify_reports_match(triangle: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["verify", str(triangle)]) == 0
    out = capsys.readouterr().out
    assert "vertices_match: true" in out
    assert "directions_match: true" in out


def test_decompose(
    triangle: Path, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    vec = tmp_path / "tri.vec"
    vec.write_text("e 0 1/3\ne 1 1/3\ne 2 1/3\n")
    assert main(["decompose", str(triangle), str(vec)]) == 0
    assert capsys.readouterr().out == "t 1/3 : C -3 : 0 1 2\n"


def test_decompose_rejects_noncirculation(
    triangle: Path, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    vec = tmp_path / "bad.vec"
    vec.write_text("e 0 1\n")
    assert main(["decompose", str(triangle), str(vec)]) == 1
    assert "error:" in capsys.readouterr().err


def test_reduce_stdout(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    cnf = tmp_path / "t.cnf"
    cnf.write_text(TAUTOLOGY)
    assert main(["reduce", str(cnf)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("c reduction: 1 variables, 1 clauses, 2 occurrences\n")
    assert "c role: 1 v0" in out
    assert "p 7 13" in out


def test_reduce_output_files(tmp_path: Path) -> None:
    cnf = tmp_path / "t.cnf"
    cnf.write_text(TAUTOLOGY)
    graph_file = tmp_path / "out.graph"
    x_file = tmp_path / "out.x"
    assert main(["reduce", str(cnf), "-o", str(graph_file),
                 "--emit-x", str(x_file)]) == 0
    assert graph_file.read_text().startswith("c reduction:")
    x_lines = x_file.read_text().splitlines()
    assert len(x_lines) == 2
    assert all(line.startswith("v ") for line in x_lines)


def test_decide_satisfiable(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    cnf = tmp_path / "t.cnf"
    cnf.write_text(TAUTOLOGY)
    assert main(["decide", str(cnf)]) == 0
    out = capsys.readouterr().out
    assert "satisfiable: true" in out
    assert "trivial_equals_vertices: false" in out
    assert "witness: x1=" in out
    # The walk stopped at the certificate, so the vertex set is not known.
    for key in ("vertex_count", "extra_vertices", "extra_are_long_cycles"):
        assert f"{key}: unknown\n" in out
    assert "trivial_is_subset: true\n" in out


def test_decide_accepts_satlib_trailer(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    cnf = tmp_path / "satlib.cnf"
    cnf.write_text("p cnf 2 2\n1 -2 0\n2 0\n%\n0\n")
    assert main(["decide", str(cnf)]) == 0
    out = capsys.readouterr().out
    assert "satisfiable: true" in out
    assert "witness: x1=1 x2=1" in out


def test_decide_unsatisfiable(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    cnf = tmp_path / "u.cnf"
    cnf.write_text(UNSAT)
    assert main(["decide", str(cnf)]) == 0
    out = capsys.readouterr().out
    assert "satisfiable: false" in out
    assert "trivial_equals_vertices: true" in out
    assert "witness: -" in out


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            # SAT, with one degenerate chain (x2 never occurs negated).
            "p cnf 2 2\n1 -2 0\n2 0\n",
            "nodes: 11\narcs: 20\noccurrences: 3\ndegenerate_chains: 1\n"
            "trivial_family_size: 3\nvertex_count: unknown\n"
            "trivial_is_subset: true\ntrivial_equals_vertices: false\n"
            "extra_vertices: unknown\nextra_are_long_cycles: unknown\n"
            "satisfiable: true\nwitness: x1=1 x2=1\n",
        ),
        (
            UNSAT,
            "nodes: 27\narcs: 49\noccurrences: 8\ndegenerate_chains: 0\n"
            "trivial_family_size: 8\nvertex_count: 8\n"
            "trivial_is_subset: true\ntrivial_equals_vertices: true\n"
            "extra_vertices: 0\nextra_are_long_cycles: true\n"
            "satisfiable: false\nwitness: -\n",
        ),
    ],
    ids=["sat", "unsat"],
)
def test_decide_golden_output(
    tmp_path: Path, capsys: pytest.CaptureFixture[str], text: str, expected: str
) -> None:
    cnf = tmp_path / "g.cnf"
    cnf.write_text(text)
    assert main(["decide", str(cnf)]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize(
    "variables, clauses",
    [
        # One 25-literal clause, 30 variables in 15 clauses, and the
        # 30-variable implication chain: all beyond brute force's 24
        # variables, all answered under the default cap.
        (25, [list(range(1, 26))]),
        (30, [[2 * k + 1, -(2 * k + 2)] for k in range(15)]),
        (30, [[-i, i + 1] for i in range(1, 30)]),
    ],
)
def test_decide_beyond_brute_force_limit(
    tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
    variables: int,
    clauses: list[list[int]],
) -> None:
    cnf = tmp_path / "big.cnf"
    cnf.write_text(
        f"p cnf {variables} {len(clauses)}\n"
        + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    )
    assert main(["decide", str(cnf)]) == 0
    out = capsys.readouterr().out
    assert "satisfiable: true\n" in out
    witness = next(l for l in out.splitlines() if l.startswith("witness: "))
    values = {
        int(name[1:]): value == "1"
        for name, _, value in (item.partition("=") for item in witness.split()[1:])
    }
    assert set(values) == set(range(1, variables + 1))
    assert all(any(values[abs(l)] == (l > 0) for l in c) for c in clauses)


def test_decide_capped_before_long_cycle_prints_no_verdict(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # Satisfiable, but the search completes its first long cycle only at
    # its 27th node: 6 for x1's positive chain, after which both x2 chains
    # would enter clause 1's or clause 3's last open occurrence; 3 for x1's
    # negated chain; 3 for x2's positive chain, up to clause 2's last open
    # occurrence; 3 for x2's negated chain; 6 for clause 1, 3 of them a
    # b->q detour that dead-ends; and 3 each for clauses 2 and 3.
    cnf = tmp_path / "sat.cnf"
    cnf.write_text("p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n")
    assert main(["decide", str(cnf), "--max-cycles", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: search nodes cap 10 exceeded (searched 10 nodes, no long "
        "cycle completed); raise --max-cycles\n"
    )
    assert main(["decide", str(cnf), "--max-cycles", "26"]) == 3
    capsys.readouterr()
    assert main(["decide", str(cnf), "--max-cycles", "27"]) == 0
    assert "satisfiable: true\n" in capsys.readouterr().out
    assert main(["decide", str(cnf)]) == 0
    assert "satisfiable: true\n" in capsys.readouterr().out


def test_decide_never_prints_a_falsified_witness(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    # Swapping each variable's chains makes the decoder read the opposite
    # assignment, which falsifies the lone clause.
    def swapped(formula):
        art = build_reduction(formula)
        return replace(art, chain_starts=tuple((n, p) for p, n in art.chain_starts))

    monkeypatch.setattr(reduction, "build_reduction", swapped)
    cnf = tmp_path / "x1.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    assert main(["decide", str(cnf)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "falsifies clause 1" in captured.err


def test_gen_fig1_round_trips(capsys: pytest.CaptureFixture[str]) -> None:
    for shape in ("edge-disjoint", "three-path"):
        assert main(["gen", "fig1", "--shape", shape]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"c family fig1 shape={shape}\n")


def test_gen_random_deterministic(capsys: pytest.CaptureFixture[str]) -> None:
    args = ["gen", "random", "--nodes", "5", "--arcs", "8",
            "--wmax", "3", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("c family random nodes=5 arcs=8 wmax=3 seed=11\n")


def test_missing_file_exits_2(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["vertices", "/nonexistent/x.graph"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    bad = tmp_path / "bad.graph"
    bad.write_text("p 1 1\na 5 1 0\n")
    assert main(["vertices", str(bad)]) == 2
    assert "out of range" in capsys.readouterr().err


# One file of each kind: a graph, an arc vector after a good graph (with
# CRLF line ends), and a CNF whose comment holds a Latin-1 byte.
@pytest.mark.parametrize(
    "argv, data, line",
    [
        (["verify"], b"p 3 3\na 1 2 -1\n\xff\na 3 1 -1\n", 3),
        (["decompose", "TRIANGLE"], b"e 0 1\r\ne 1 1\r\n\xff 2\n", 3),
        (["decide"], b"p cnf 1 1\nc caf\xe9\n1 0\n", 2),
    ],
)
def test_non_utf8_input_exits_2_with_its_line(
    tmp_path: Path,
    triangle: Path,
    capsys: pytest.CaptureFixture[str],
    argv: list[str],
    data: bytes,
    line: int,
) -> None:
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    argv = [str(triangle) if arg == "TRIANGLE" else arg for arg in argv]
    assert main([*argv, str(bad)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: not UTF-8 text\n"


# Bytes inserted by the sweep: characters the integer parser must reject.
SWEEP_INSERTS = (b"+", b"_", b"\x00", "\u0663".encode())


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One byte-level mutation: delete, duplicate or swap a line, flip a
    bit, insert one of `SWEEP_INSERTS`, or truncate."""
    lines = data.splitlines(keepends=True)
    kind = rng.randrange(6)
    if kind < 3:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        return b"".join(lines)
    pos = rng.randrange(len(data))
    if kind == 3:
        flipped = data[pos] ^ (1 << rng.randrange(8))
        return data[:pos] + bytes([flipped]) + data[pos + 1 :]
    if kind == 4:
        return data[:pos] + rng.choice(SWEEP_INSERTS) + data[pos:]
    return data[:pos]


# Mutated files of each kind, and the commands that read them; each mutant
# runs the next command of its kind in turn.
SWEEP_CNF = "c three clauses\np cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n"
SWEEP_VECTOR = "c loop and digon\ne 6 1\ne 3 1/2\ne 0 1/2\n"
SWEEP_CASES = (
    (
        "graph",
        MULTIGRAPH,
        600,
        (
            ["vertices", "graph"],
            ["directions", "graph"],
            ["oracle", "graph"],
            ["oracle", "--prime", "graph"],
            ["verify", "graph"],
            ["decompose", "graph", "vector"],
        ),
    ),
    ("vector", SWEEP_VECTOR, 200, (["decompose", "graph", "vector"],)),
    ("cnf", SWEEP_CNF, 200, (["reduce", "cnf"], ["decide", "cnf"])),
)


def test_mutated_inputs_exit_cleanly(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # 1,000 seeded mutants: every run exits 0-3 with no exception out of
    # main, and every exit 2 names the line it rejects.
    rng = random.Random(20)
    files = {kind: tmp_path / kind for kind, *_ in SWEEP_CASES}
    for kind, text, *_ in SWEEP_CASES:
        files[kind].write_text(text)
    problems = []
    for kind, text, count, commands in SWEEP_CASES:
        for i in range(count):
            data = _mutate(text.encode(), rng)
            files[kind].write_bytes(data)
            argv = [str(files.get(a, a)) for a in commands[i % len(commands)]]
            try:
                code = main(argv)
            except Exception as exc:  # any escape is a finding, listed below
                problems.append((argv[0], data, repr(exc)))
                continue
            err = capsys.readouterr().err
            if code not in (0, 1, 2, 3) or (
                code == 2 and not re.match(r"error: line \d+: ", err)
            ):
                problems.append((argv[0], data, code, err))
        files[kind].write_text(text)
    assert problems == []


def test_declared_nodes_cost_no_time_or_memory(
    tmp_path: Path, capsys: pytest.CaptureFixture[str], peak_bytes
) -> None:
    # 200,000 declared nodes and one loop. A dense flow row per node in the
    # oracle, or two Fraction sums per node in `decompose`, cost 15-44 MiB
    # of traced peak and 0.5-1 s per command here; built from the arcs
    # alone, every command stays near 3 MiB and the six run in about 0.25 s
    # on a 2-core x86 VM.
    graph = tmp_path / "big.graph"
    graph.write_text("p 200000 1\na 1 1 -1\n")
    vector = tmp_path / "y.vec"
    vector.write_text("e 0 1\n")
    runs = [
        ["vertices", graph],
        ["directions", graph],
        ["oracle", graph],
        ["oracle", "--prime", graph],
        ["verify", graph],
        ["decompose", graph, vector],
    ]
    start = time.perf_counter()
    for argv in runs:
        assert main([str(a) for a in argv]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == (
        "v 0 1\n"
        "v 0 1\n"
        "c polyhedron empty\n"
        "vertices_match: true\ndirections_match: true\n"
        "negative_cycles: 1\nzero_cycles: 0\npositive_cycles: 0\n"
        "two_cycles: 0\nvertices: 1\ndirections: 0\n"
        "t 1 : C -1 : 0\n"
    )
    for argv in runs:
        code, peak = peak_bytes(lambda: main([str(a) for a in argv]))
        assert code == 0
        assert peak < 8 * 2**20, argv
    assert elapsed < 1.0


def test_cap_exceeded_exits_3(fig3: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["vertices", str(fig3), "--max-cycles", "2"]) == 3
    err = capsys.readouterr().err
    assert "cycles cap 2 exceeded" in err
    assert err.endswith("; raise --max-cycles\n")


def test_oracle_cap_hint(fig3: Path, capsys: pytest.CaptureFixture[str]) -> None:
    # The oracle spends 319 units on P of the k = 1 Fig. 3 graph: 137 in the
    # double description (67 evaluations and scan reads, 10 new rays of 7
    # entries), then 182 in phase 1. P's 5 rows over 6 columns take two
    # pivots that rewrite 3 and 5 rows of 7 entries (56); the recession
    # slice's 6 take four that rewrite 4, 4, 4 and 6 (126).
    assert main(["oracle", str(fig3), "--max-oracle", "318"]) == 3
    err = capsys.readouterr().err
    assert err == "error: oracle work cap 318 exceeded; raise --max-oracle\n"
    assert main(["oracle", str(fig3), "--max-oracle", "319"]) == 0


# Every capped stage rejects a cap below 1 the same way, from its one work
# budget; the CLI checks `--max-cycles` itself, before any stage runs. The
# triangle has one cycle and no sign-mixed pair, so the pair test would
# have nothing to count.
@pytest.mark.parametrize(
    "run, message",
    [
        pytest.param(
            lambda g, f: enumerate_cycles(g, 0),
            "cap must be positive",
            id="enumerate_cycles",
        ),
        pytest.param(
            lambda g, f: _two_cycle_pairs(g, _weighted_cycles(g, 1)[0], 0),
            "cap must be positive",
            id="_two_cycle_pairs",
        ),
        pytest.param(
            lambda g, f: oracle_vertices(build_P(g), 0),
            "cap must be positive",
            id="oracle_vertices",
        ),
        pytest.param(
            lambda g, f: decide_ve01(f, 0), "cap must be positive", id="decide_ve01"
        ),
        pytest.param(
            ["vertices", "--max-cycles", "0"],
            "cycle cap must be positive",
            id="max-cycles",
        ),
        pytest.param(
            ["oracle", "--max-oracle", "0"], "cap must be positive", id="max-oracle"
        ),
    ],
)
def test_cap_must_be_positive(
    run, message: str, triangle: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    if callable(run):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(parse_graph(TRIANGLE), parse_dimacs_cnf(TAUTOLOGY))
    else:
        command, *options = run
        assert main([command, str(triangle), *options]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
