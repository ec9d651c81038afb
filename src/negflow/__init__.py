"""Exact rational analysis of negative-weight circulation polyhedra.

The package enumerates simple cycles of a weighted digraph, derives the
vertices and extreme directions of the associated flow polyhedron from
them, cross-checks both against a double-description vertex oracle that
sees only the H-representation, and carries a CNF-to-graph construction
under which the vertex set collapses to a trivial family exactly on
unsatisfiable inputs.
Arc weights, the cycle weights of the object API and parsed or printed
values are `fractions.Fraction`s; the H-representations, the vertex oracle,
the cycle sums and the arc vectors are integers inside. A cycle's weight is
an ``int`` over the graph's scale, the LCM of its arc-weight denominators,
and a 2-cycle's direction is built from the two ints, so the `directions`
command runs one integer pass from the cycle walk to the printed rows.
Nothing is floating point.
"""
from .characterize import (
    CharacterizationReport,
    DEFAULT_CYCLE_CAP,
    direction_from_two_cycle,
    direction_from_zero_cycle,
    directions_from_cycles,
    verify_theorem1,
    vertex_from_cycle,
    vertices_from_negative_cycles,
)
from .cycles import (
    Cycle,
    CycleDecomposition,
    TwoCycle,
    TwoCycleShape,
    decompose_circulation,
    enumerate_cycles,
    enumerate_two_cycles,
    is_two_cycle,
)
from .errors import (
    CapExceeded,
    NegflowError,
    NotACirculation,
    ParseError,
)
from .generators import Lcg, gen_fig1, gen_fig3, gen_random
from .graph import (
    Arc,
    ArcVector,
    WeightedDigraph,
    characteristic_vector,
    parse_arc_vector,
    parse_graph,
    serialize_graph,
    subgraph,
)
from .polyhedra import (
    DEFAULT_ORACLE_CAP,
    HRep,
    VertexSet,
    build_P,
    build_P_prime,
    oracle_certifies_vertex,
    oracle_vertices,
)
from .reduction import (
    CnfFormula,
    MAX_SAT_VARIABLES,
    Occurrence,
    ReductionArtifact,
    Ve01Report,
    brute_force_sat,
    build_reduction,
    decide_ve01,
    parse_dimacs_cnf,
    trivial_vertex_family,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ArcVector",
    "CapExceeded",
    "CharacterizationReport",
    "CnfFormula",
    "Cycle",
    "CycleDecomposition",
    "DEFAULT_CYCLE_CAP",
    "DEFAULT_ORACLE_CAP",
    "HRep",
    "Lcg",
    "MAX_SAT_VARIABLES",
    "NegflowError",
    "NotACirculation",
    "Occurrence",
    "ParseError",
    "ReductionArtifact",
    "TwoCycle",
    "TwoCycleShape",
    "Ve01Report",
    "VertexSet",
    "WeightedDigraph",
    "brute_force_sat",
    "build_P",
    "build_P_prime",
    "build_reduction",
    "characteristic_vector",
    "decide_ve01",
    "decompose_circulation",
    "direction_from_two_cycle",
    "direction_from_zero_cycle",
    "directions_from_cycles",
    "enumerate_cycles",
    "enumerate_two_cycles",
    "gen_fig1",
    "gen_fig3",
    "gen_random",
    "is_two_cycle",
    "oracle_certifies_vertex",
    "oracle_vertices",
    "parse_arc_vector",
    "parse_dimacs_cnf",
    "parse_graph",
    "serialize_graph",
    "subgraph",
    "trivial_vertex_family",
    "verify_theorem1",
    "vertex_from_cycle",
    "vertices_from_negative_cycles",
]
