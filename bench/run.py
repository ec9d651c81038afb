"""negflow benchmark: one workload, one closed-loop client, one result line.

Usage, from the repository root:

    python3 bench/run.py --workload verify-oracle --seed 1 --seconds 20 --trace 0

An op is one in-process call of ``negflow.cli.main([...])`` with stdout and
stderr captured, on an input file written during set-up. Ops run one after
another until ``--seconds`` have passed and at least MIN_OPS are done. Every
op's output is checked after the timed loop. With ``--trace 0`` the last
line carries the end-to-end metrics; with ``--trace 1`` each op runs twice
in a row, untraced and then traced, and the last line carries the
per-layer metrics. A full result file (machine, inputs, sample
counts, failures) goes to ``.bench_results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from checks import check_decide, check_directions, check_verify, graph_reference
from tracer import Tracer
from workloads import WORKLOADS, CnfInput, Pool, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_REPEATS = 3
MIN_OPS = 100

UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fresh_cli():
    """Import negflow from this checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "negflow" or n.startswith("negflow.")]:
        del sys.modules[name]
    cli = importlib.import_module("negflow.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"negflow imported from {cli.__file__}, not {SRC}")
    return cli


def run_op(cli, argv: list[str]) -> tuple[object, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def set_up(workload: Workload, seed: int, workdir: Path):
    """Import, generate inputs, write them, run one untimed warm-up op."""
    cli = fresh_cli()
    pool = workload.make_pool(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, item in enumerate(pool.inputs):
        path = workdir / f"{i:04d}{workload.suffix}"
        path.write_text(item.text())
        argvs.append([workload.command, str(path)])
    run_op(cli, argvs[pool.warmup])
    return cli, pool, argvs


def closed_loop(cli, argvs, seconds: float, tracer: Tracer | None = None):
    """Run ops in pool order until ``seconds`` have passed and MIN_OPS are done.

    With a tracer, each op runs twice in a row, untraced and then traced, so
    the overhead ratio compares the same op at the same moment. Returns the
    untraced and traced latencies in seconds, the loop's wall time, and the
    distinct outcomes as {(input index, exit code, stdout): [op ids]}.
    """
    clock = time.perf_counter
    plain: list[float] = []
    traced: list[float] = []
    outcomes: dict[tuple, list[int]] = {}
    begin = clock()
    deadline = begin + seconds
    op = 0
    while op < MIN_OPS or clock() < deadline:
        idx = op % len(argvs)
        t0 = clock()
        code, out = run_op(cli, argvs[idx])
        plain.append(clock() - t0)
        outcomes.setdefault((idx, code, out), []).append(op)
        if tracer is not None:
            tracer.install()
            t0 = clock()
            span = tracer.begin_op(op)
            code, out = run_op(cli, argvs[idx])
            t1 = clock()
            tracer.end_op(span, t0, t1)
            tracer.uninstall()
            traced.append(t1 - t0)
            outcomes.setdefault((idx, code, out), []).append(op)
        op += 1
    return plain, traced, clock() - begin, outcomes


def check_outcomes(workload: Workload, pool: Pool, seed: int, outcomes):
    """Check every distinct outcome; returns (failed ops, failures, properties)."""
    recorded = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(seed))
    if recorded is not None and len(recorded) != len(pool.inputs):
        raise RuntimeError(f"{DIGESTS.name} does not match the pool; rerun record_digests.py")
    refs: dict[int, object] = {}
    failed = 0
    failures: list[str] = []
    for (idx, code, out), ops in outcomes.items():
        item = pool.inputs[idx]
        if workload.command == "decide":
            why = check_decide(item, code, out)
        else:
            if idx not in refs:
                refs[idx] = graph_reference(item)
            if workload.command == "verify":
                why = check_verify(item, refs[idx], code, out)
            else:
                digest = recorded[idx] if recorded else None
                why = check_directions(item, refs[idx], code, out, digest)
        if why is not None:
            failed += len(ops)
            failures.append(f"input {idx} ({len(ops)} ops): {why}")
    return failed, failures, input_properties(pool, refs)


def input_properties(pool: Pool, refs) -> dict:
    """Shape of the inputs actually run, so a claimed gain can cite its share."""
    items = pool.inputs
    if isinstance(items[0], CnfInput):
        return {
            "formulas": len(items),
            "sat_share": sum(f.satisfiable for f in items) / len(items),
            "variables_mean": statistics.fmean(f.variables for f in items),
            "clauses_mean": statistics.fmean(len(f.clauses) for f in items),
            "reduction_arcs_mean": statistics.fmean(_reduction_arcs(f) for f in items),
        }
    ran = [refs[i] for i in sorted(refs)]
    return {
        "graphs": len(items),
        "graphs_run": len(ran),
        "nodes_mean": statistics.fmean(g.nodes for g in items),
        "arcs_per_graph_mean": statistics.fmean(len(g.arcs) for g in items),
        "cycles_per_op_mean": statistics.fmean(len(r.cycles) for r in ran),
        "cycles_per_op_max": max(len(r.cycles) for r in ran),
        "sign_mixed_pairs_per_op_mean": statistics.fmean(
            r.sign_mixed_pairs for r in ran
        ),
        "sign_mixed_pairs_per_op_median": statistics.median(
            r.sign_mixed_pairs for r in ran
        ),
        "two_cycles_per_op_mean": statistics.fmean(len(r.two_cycles) for r in ran),
    }


def _reduction_arcs(f: CnfInput) -> int:
    """Six arcs per occurrence, one per absent literal, one closing arc."""
    occurring = {lit for clause in f.clauses for lit in clause}
    absent = sum(1 for v in range(1, f.variables + 1) for lit in (v, -v) if lit not in occurring)
    return 6 * sum(len(c) for c in f.clauses) + absent + 1


def end_to_end(latencies, wall, setup_times) -> dict[str, float]:
    ms = sorted(t * 1e3 for t in latencies)
    return {
        "throughput_ops_s": len(ms) / wall,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[-1],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "negflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli, pool, argvs = set_up(workload, seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "client": "closed loop, 1 client, 1 op at a time",
    }
    tracer = Tracer() if trace else None
    plain, traced, wall, outcomes = closed_loop(cli, argvs, seconds, tracer)
    ops = len(plain)
    if tracer is None:
        metrics = end_to_end(plain, wall, setup_times)
        extra = {
            "ops": ops,
            "p90_samples_beyond": ops - -(-9 * ops // 10),
            "setup_samples_s": setup_times,
        }
    else:
        sat_of_op = None
        if workload.command == "decide":
            sat_of_op = {op: pool.inputs[op % len(argvs)].satisfiable for op in range(ops)}
        metrics = tracer.metrics(ops, sat_of_op)
        metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
        metrics["trace.ops"] = float(ops)
        closure = tracer.closure_error(tracer.self_times())
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"{workload.name}-seed{seed}.spans.csv.gz"
        tracer.write(spans)
        extra = {
            "ops": ops,
            "spans": len(tracer.start),
            "spans_file": spans.name,
            "self_time_closure_excess_s": closure,
            "wrapped": tracer.wrapped,
            "skipped": tracer.skipped,
        }
        if closure > 0:
            raise RuntimeError(f"span self times do not sum to op latency ({closure} s)")
    failed, failures, properties = check_outcomes(workload, pool, seed, outcomes)
    attempted = sum(len(v) for v in outcomes.values())
    result.update(extra)
    result.update(
        {
            "inputs": properties,
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted,
            "failures": failures[:20],
            "metrics": metrics,
        }
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "negflow" / "cli.py").is_file():
        print(f"error: no negflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    units = UNITS if not args.trace else {}
    for name, value in result["metrics"].items():
        print(f"{name} {value!r} {units.get(name, per_layer_unit(name))}")
    print(f"failed_ratio {result['failed_ratio']!r} fraction")
    for line in result["failures"]:
        print(f"failure: {line}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units.get(name, per_layer_unit(name))}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("self_s"):
        return "s/op"
    if name.endswith(("yield", "ratio")):
        return "ratio"
    if name == "trace.ops":
        return "count"
    return "count/op"


if __name__ == "__main__":
    sys.exit(main())
