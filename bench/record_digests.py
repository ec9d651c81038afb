"""Record the directions-dense vector-set digests for seeds 0-2.

    python3 bench/record_digests.py

Writes ``bench/digests.json``: per seed, the order-free digest of the
`negflow directions` output for each pool input, in pool order. A digest is
recorded only if it equals the benchmark's own reference construction.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from checks import graph_reference, parse_directions, vector_set_digest
from workloads import WORKLOADS

SEEDS = range(3)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.fresh_cli()
    workload = WORKLOADS["directions-dense"]
    table: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        path = Path(tmp) / "input.graph"
        for seed in SEEDS:
            digests = []
            for g in workload.make_pool(seed).inputs:
                path.write_text(g.text())
                code, out = run.run_op(cli, [workload.command, str(path)])
                digest = vector_set_digest(set(parse_directions(out, len(g.arcs))))
                if code != 0 or digest != vector_set_digest(graph_reference(g).directions):
                    raise SystemExit(f"seed {seed}: output disagrees with the reference")
                digests.append(digest)
            table[str(seed)] = digests
    run.DIGESTS.write_text(json.dumps({workload.name: table}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
