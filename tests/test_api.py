"""Every public name earns its place: library code uses it, or the bench
tracer watches it by name and the tests read it."""
import ast
from pathlib import Path

import negflow

# Exported for the tests only. Each stays public only because the bench
# tracer watches it by name (`WATCHED_SELF` in bench/tracer.py), and goes
# into the tests once the bench stops watching it.
TEST_REFERENCES = {
    # Watched; brute-force SAT, the reference that `decide`'s certificate
    # verdict is checked against.
    "brute_force_sat",
    # Watched; P' as its own H-representation, the separate-run reference
    # for the directions that `oracle_vertices` reads off P's run.
    "build_P_prime",
    # Watched; the 2-cycle test on one pair of `Cycle`s. The library runs
    # the same mask test over all pairs at once, and the tests check it
    # pair by pair against union enumeration through this name.
    "is_two_cycle",
    # Watched; the direction set built from `Cycle` objects, which the
    # tests compare with the integer rows and the dense reference.
    "directions_from_cycles",
    # Watched; the cycle list as `Cycle` objects with `Fraction` weights,
    # which the tests' references read. The library walks the cycles as
    # integer rows and only keeps the import for the bench's tracer test.
    "enumerate_cycles",
}

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


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


def _watched_names() -> set[str]:
    """The function names in bench/tracer.py's `WATCHED_*` tuples, read
    from its source text."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id.startswith("WATCHED_") for t in node.targets
        ):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    names.add(const.value.rsplit(".", 1)[-1])
    return names


def test_every_public_name_is_used_or_a_test_reference() -> None:
    assert TEST_REFERENCES <= set(negflow.__all__)
    assert sorted(set(negflow.__all__) - _library_uses() - TEST_REFERENCES) == []
    # A name the bench no longer watches is the next to move into the tests.
    assert sorted(TEST_REFERENCES - _watched_names()) == []
