"""The package runs on the standard library alone: ``dependencies = []``, and
exports exactly the public names listed here."""

import ast
import pathlib
import sys

import oddcolor


def test_every_import_is_relative_or_standard_library():
    modules = sorted(pathlib.Path(oddcolor.__file__).parent.rglob("*.py"))
    assert len(modules) >= 9
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_public_names_are_pinned():
    # adding or removing a public name is a deliberate edit of this list
    assert sorted(oddcolor.__all__) == [
        "Analysis", "AuditEntry", "AuditReport", "ChargeLedger", "ChargeReport",
        "ChoosabilityReport", "Cycle", "EmbeddedGraph", "FaceWalk",
        "GenerationBudgetError", "Graph", "HuntReport", "HypothesisReport",
        "ListAssignment", "ReductionRecord", "RelaxedInstance", "Transfer",
        "analyze", "charge_report", "check_degree_lemmas", "check_face_lemmas",
        "check_four_vertex_configs", "check_relaxed_neighborhoods",
        "check_triangle_lemmas", "complete_bipartite_graph", "complete_graph",
        "cycle_graph", "embed_search", "enumerate_cycles", "extend_low_degree",
        "full_audit", "generate_girth_instances", "generate_transfers", "girth",
        "hunt", "hypothesis_check", "initial_charges", "is_odd_coloring",
        "is_relaxed_odd", "odd_chromatic_number", "one_subdivision", "path_graph",
        "r_length", "r_set", "r_set_from_indices", "reduce_low_degree",
        "relaxed_flags", "sampled_choosability", "settle", "solve",
        "sorted_rotation", "trace_faces", "uniform_lists",
    ]
