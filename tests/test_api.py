"""Every public name earns its place: library code uses it, or a test's
independent reference needs it."""
import ast
from pathlib import Path

import negflow

# Exported for the tests' references only, each with the reference it serves.
TEST_REFERENCES = {
    # Brute-force SAT: the reference that `decide`'s certificate verdict is
    # checked against.
    "brute_force_sat",
    # P' as its own H-representation: the separate-run reference for the
    # directions that `oracle_vertices` reads off P's run (its `t = 0` rays).
    "build_P_prime",
    # The textbook vertex test on one point (feasible, support columns
    # independent): checks the cycle-built vertices and directions one by
    # one, and rejects non-vertex midpoints.
    "oracle_certifies_vertex",
    # Compact restriction to an arc set: the union-enumeration reference
    # for `is_two_cycle` enumerates the cycles of the pair's union.
    "subgraph",
}


def _library_uses() -> set[str]:
    """Names read, attributes read and names imported by the library
    modules, leaving out the package's re-exports."""
    used: set[str] = set()
    for path in Path(negflow.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_public_name_is_used_or_a_test_reference() -> None:
    assert TEST_REFERENCES <= set(negflow.__all__)
    assert sorted(set(negflow.__all__) - _library_uses() - TEST_REFERENCES) == []
