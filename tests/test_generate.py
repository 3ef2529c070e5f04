import pytest

from oddcolor.generate import GenerationBudgetError, generate_girth_instances
from oddcolor.graphs import girth, hypothesis_check

from oracles import girth_instances_reference, girth_reference


def outcome(generate, n, min_girth, count, seed):
    """The graphs, or the budget error's message."""
    try:
        return generate(n, min_girth, count, seed)
    except GenerationBudgetError as exc:
        return f"budget: {exc}"


class TestGenerator:
    def test_properties_hold(self):
        graphs = generate_girth_instances(14, 7, count=8, seed=3)
        assert len(graphs) == 8
        for g in graphs:
            assert g.n <= 14
            assert g.is_connected()
            assert min(g.degree(v) for v in range(g.n)) >= 2
            assert girth(g) >= 7  # independent recheck

    def test_girth_instances_pass_hypothesis(self):
        for g in generate_girth_instances(12, 7, count=5, seed=9):
            assert hypothesis_check(g, frozenset()).passes

    def test_deterministic_per_seed(self):
        a = generate_girth_instances(12, 6, count=4, seed=11)
        b = generate_girth_instances(12, 6, count=4, seed=11)
        assert a == b
        c = generate_girth_instances(12, 6, count=4, seed=12)
        assert a != c  # overwhelmingly likely

    def test_small_girth_allowed(self):
        graphs = generate_girth_instances(8, 3, count=5, seed=1)
        assert all(girth(g) >= 3 for g in graphs)

    def test_unreachable_raises_budget_error(self):
        # an 11-cycle cannot fit on 10 vertices, and minimum degree 2 rules
        # out everything acyclic
        with pytest.raises(GenerationBudgetError):
            generate_girth_instances(10, 11, count=1, seed=0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_girth_instances(10, 2, count=1, seed=0)
        with pytest.raises(ValueError):
            generate_girth_instances(2, 3, count=1, seed=0)

    # up to girth 11 the two ball radii reach p = 4 and q = 5
    @pytest.mark.parametrize("min_girth", range(3, 12))
    def test_same_graphs_as_per_candidate_bfs(self, min_girth):
        graphs_compared = 0
        for n in [*range(3, 15), 20, 33, 50, 80]:
            for seed, count in ((0, 1), (1, 2), (7, 3)):
                got = outcome(generate_girth_instances, n, min_girth, count, seed)
                assert got == outcome(girth_instances_reference, n, min_girth, count, seed)
                graphs_compared += not isinstance(got, str)
        assert graphs_compared >= 20

    # larger graphs, where balls grow by many accepted edges per vertex
    @pytest.mark.parametrize(("n", "min_girth"), [(120, 7), (200, 9)])
    def test_same_graphs_as_per_candidate_bfs_at_scale(self, n, min_girth):
        assert generate_girth_instances(n, min_girth, 1, n) == girth_instances_reference(
            n, min_girth, 1, n
        )

    def test_large_instance_properties(self):
        (g,) = generate_girth_instances(600, 7, 1, 600)
        assert g.is_connected()
        assert min(g.degree(v) for v in range(g.n)) >= 2
        assert girth_reference(g) >= 7
