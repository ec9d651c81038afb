"""Tests of the benchmark itself: python3 -m pytest bench -q"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from checks import (  # noqa: E402
    check_decide,
    check_directions,
    check_verify,
    graph_reference,
    satisfying_assignment,
)
from tracer import WATCHED_SELF, Tracer  # noqa: E402
from workloads import WORKLOADS, GraphInput, _oracle_supports  # noqa: E402

# Every metric the benchmark defines, end to end and per layer.
END_TO_END = {
    "throughput_ops_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "setup_s",
    "peak_rss_mb",
}
PER_LAYER = {
    "polyhedra.oracle_vertices.calls",
    "polyhedra.oracle_vertices.self_s",
    "polyhedra.supports_candidate",
    "polyhedra.vertices_found",
    "polyhedra.vertex_yield",
    "cycles.is_two_cycle.calls",
    "cycles.is_two_cycle.self_s",
    "cycles.two_cycles_found",
    "cycles.two_cycle_yield",
    "characterize.direction_from_two_cycle.calls",
    "characterize.direction_from_two_cycle.self_s",
    "characterize.directions_from_cycles.self_s",
    "graph.characteristic_vector.calls",
    "graph.characteristic_vector.self_s",
    "cycles.make_cycle.calls",
    "cycles.make_cycle.self_s",
    "cycles.enumerate_cycles.calls",
    "cycles.enumerate_cycles.self_s",
    "cycles.cycles_found",
    "reduction.decide_ve01.self_s",
    "reduction.decide_ve01.sat_p50_ms",
    "reduction.decide_ve01.unsat_p50_ms",
    "reduction.build_reduction.self_s",
    "reduction.brute_force_sat.self_s",
    "reduction.parse_dimacs_cnf.self_s",
    "characterize.verify_theorem1.self_s",
    "polyhedra.build_P.self_s",
    "polyhedra.build_P_prime.self_s",
    "cli.main.self_s",
    "graph.parse_graph.self_s",
    "characterize.format_tagged_point.self_s",
    "trace.overhead_ratio",
}


def cli_output(argv: list[str], tmp_path: Path, text: str):
    path = tmp_path / "input"
    path.write_text(text)
    return run.run_op(run.fresh_cli(), [argv[0], str(path)] + argv[1:])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_seeded(name):
    make = WORKLOADS[name].make_pool
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_decide_pool_is_half_sat_and_uses_every_variable():
    pool = WORKLOADS["decide-mix"].make_pool(3)
    assert 2 * sum(f.satisfiable for f in pool.inputs) == len(pool.inputs)
    for f in pool.inputs:
        assert (satisfying_assignment(f.variables, f.clauses) is not None) == f.satisfiable
        assert {abs(l) for c in f.clauses for l in c} == set(range(1, f.variables + 1))


def test_reference_counts_two_cycles_of_a_three_path():
    # Two cycles sharing the path 0->1: 0->1->0 (weight -2) and 0->1->2->0 (+1).
    g = GraphInput(3, ((0, 1, -1), (1, 0, -1), (1, 2, 1), (2, 0, 1)))
    ref = graph_reference(g)
    assert (ref.count(-1), ref.count(0), ref.count(1)) == (1, 0, 1)
    assert len(ref.two_cycles) == 1 and len(ref.directions) == 1


def test_oracle_support_proxy_of_a_three_path():
    # Conserving supports: both cycles and their union. All three hold a
    # negative arc (P); the two holding a positive arc too qualify for P'.
    g = GraphInput(3, ((0, 1, -1), (1, 0, -1), (1, 2, 1), (2, 0, 1)))
    assert _oracle_supports(g) == 3 + 2


def test_verify_check_rejects_a_mismatch(tmp_path):
    g = WORKLOADS["verify-oracle"].make_pool(1).inputs[0]
    ref = graph_reference(g)
    code, out = cli_output(["verify"], tmp_path, g.text())
    assert check_verify(g, ref, code, out) is None
    bad = out.replace("directions_match: true", "directions_match: false")
    assert check_verify(g, ref, code, bad) is not None
    assert check_verify(g, ref, 1, out) is not None


def test_directions_check_rejects_a_perturbed_vector(tmp_path):
    for g in WORKLOADS["directions-dense"].make_pool(1).inputs:
        code, out = cli_output(["directions"], tmp_path, g.text())
        if out.count("\n") >= 2:
            break
    ref = graph_reference(g)
    assert check_directions(g, ref, code, out, None) is None
    first, *rest = out.splitlines()
    tokens = first.split()
    tokens[2] = str(Fraction(tokens[2]) + 1)
    bad = "\n".join([" ".join(tokens)] + rest) + "\n"
    assert "not in P'" in check_directions(g, ref, code, bad, None)
    dropped = "\n".join(rest) + "\n"
    assert "reference" in check_directions(g, ref, code, dropped, None)
    assert "recorded" in check_directions(g, ref, code, out, "0" * 16)


def test_decide_check_rejects_flipped_verdict_and_bad_witness(tmp_path):
    pool = WORKLOADS["decide-mix"].make_pool(1)
    f = next(f for f in pool.inputs if f.satisfiable)
    code, out = cli_output(["decide"], tmp_path, f.text())
    assert check_decide(f, code, out) is None
    flipped = out.replace("satisfiable: true", "satisfiable: false")
    assert check_decide(f, code, flipped) is not None
    # An assignment that falsifies the first clause.
    values = {abs(l): l < 0 for l in f.clauses[0]}
    witness = " ".join(f"x{v}={int(values.get(v, False))}" for v in range(1, f.variables + 1))
    old = next(l for l in out.splitlines() if l.startswith("witness: "))
    bad = out.replace(old, f"witness: {witness}")
    assert "falsifies" in check_decide(f, code, bad)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_results_contain_every_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 4)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload = WORKLOADS[name]
    plain = run.run(workload, 1, 0.05, False, tmp_path / "plain")
    traced = run.run(workload, 1, 0.05, True, tmp_path / "traced")
    assert plain["failed"] == traced["failed"] == 0
    assert set(plain["metrics"]) == END_TO_END == {m["name"] for m in declared["end_to_end"]}
    assert PER_LAYER <= set(traced["metrics"])
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for m in declared["end_to_end"]:
        assert run.UNITS[m["name"]] == m["unit"]
    for m in declared["per_layer"]:
        assert run.per_layer_unit(m["name"]) == m["unit"]
    assert traced["self_time_closure_excess_s"] == 0
    assert traced["skipped"] == []
    for key in ("cores", "python", "git_commit", "seed"):
        assert key in plain and key in traced


def test_tracer_lists_missing_functions_and_restores_originals():
    cli = run.fresh_cli()
    original = sys.modules["negflow.cycles"].enumerate_cycles
    tracer = Tracer()
    tracer.install(WATCHED_SELF + ("cycles.no_such_function",))
    assert sys.modules["negflow.characterize"].enumerate_cycles is not original
    tracer.uninstall()
    assert sys.modules["negflow.characterize"].enumerate_cycles is original
    assert tracer.skipped == ["cycles.no_such_function (missing)"]
    assert "cli.main" in tracer.wrapped and cli.main.__module__ == "negflow.cli"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
