"""Odd list-coloring toolkit for sparse surface-embedded graphs.

Exact solvers and verifiers for odd and relaxed-odd list colorings, cycle
hypothesis checking with a relaxation edge set, combinatorial surface
embeddings with face tracing on every surface and an embedding search up to
Euler genus 2, structural configuration audits, and an exact discharging
ledger.
"""

from types import ModuleType as _ModuleType

from .graphs import (
    Cycle,
    Graph,
    HypothesisReport,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    girth,
    hypothesis_check,
    one_subdivision,
    path_graph,
    r_length,
    r_set,
    relaxed_flags,
)
from .embedding import (
    EmbeddedGraph,
    FaceWalk,
    embed_search,
    sorted_rotation,
    trace_faces,
)
from .coloring import (
    ChoosabilityReport,
    ListAssignment,
    ReductionRecord,
    RelaxedInstance,
    extend_low_degree,
    is_odd_coloring,
    is_relaxed_odd,
    odd_chromatic_number,
    reduce_low_degree,
    sampled_choosability,
    solve,
    uniform_lists,
)
from .audit import (
    Analysis,
    AuditEntry,
    AuditReport,
    analyze,
    check_degree_lemmas,
    check_face_lemmas,
    check_four_vertex_configs,
    check_relaxed_neighborhoods,
    check_triangle_lemmas,
    full_audit,
)
from .discharge import (
    ChargeLedger,
    ChargeReport,
    HuntReport,
    Transfer,
    charge_report,
    generate_transfers,
    hunt,
    initial_charges,
    settle,
)
from .generate import GenerationBudgetError, generate_girth_instances

# importing the submodules also binds their names here; export only the API
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
