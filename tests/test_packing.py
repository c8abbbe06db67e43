import pytest
from hypothesis import given, settings, strategies as st

from dicrit.budget import Budget
from dicrit.digraph import Digraph, bidirected_complete, digon_masks, induced
from dicrit.ore import generate_4ore
from dicrit.packing import Packing, bidirected_triangles, max_packing, verify_packing

from .conftest import random_digraph
from .oracles import oracle_bidirected_triangles, oracle_max_packing_value
from .test_digraph import digraphs, mixed_digraphs


@st.composite
def sparse_bidirected(draw, max_n=12):
    """Bidirected graphs with at most n + 4 digons."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
        max_size=n + 4, unique=True,
    ))
    return Digraph(n, [arc for u, v in pairs for arc in ((u, v), (v, u))])


class TestMaxPacking:
    def test_oriented_graph_is_zero(self, c3):
        assert max_packing(c3).value == 0

    def test_k4_is_two(self, k4):
        p = max_packing(k4)
        assert p.value == 2 and p.optimal

    def test_bidirected_c5_is_two(self, c5_bi):
        # max digon matching in a 5-cycle; no bidirected triangle exists
        assert bidirected_triangles(c5_bi) == []
        assert max_packing(c5_bi).value == 2

    def test_seven_vertex_composition_is_four(self, seven_vertex_composition):
        assert max_packing(seven_vertex_composition).value == 4

    def test_packing_items_verify(self, seven_vertex_composition):
        p = max_packing(seven_vertex_composition)
        assert verify_packing(seven_vertex_composition, p)

    def test_budget_exhaustion_flags_non_optimal(self):
        k6 = bidirected_complete(6)
        p = max_packing(k6, Budget(3))
        assert not p.optimal
        assert verify_packing(k6, p)

    def test_many_items_stay_shallow(self):
        # 1,140 triangles and 190 digons: skipping an item must not cost a
        # stack frame, or the search overflows the recursion limit
        k20 = bidirected_complete(20)
        p = max_packing(k20, Budget(5_000))
        assert p.value == 13 and not p.optimal
        assert verify_packing(k20, p)

    def test_tampered_packing_fails_verification(self, k4):
        assert not verify_packing(k4, Packing((), ((0, 1, 2), (0, 2, 3))))

    @settings(max_examples=80, deadline=None)
    @given(digraphs(max_n=7))
    def test_matches_exhaustive_oracle(self, d):
        assert max_packing(d).value == oracle_max_packing_value(d)

    # Value and node count of the search on inputs that run fast.  The
    # counts are ceilings: a later change may lower them, never raise them.
    @pytest.mark.parametrize(
        "seed, value, nodes",
        [(0, 19, 1_184), (1, 19, 2_678), (2, 19, 803), (3, 20, 1_228), (4, 19, 2_662)],
    )
    def test_4ore_nodes_pinned(self, seed, value, nodes):
        d, _ = generate_4ore(31, seed=seed)
        budget = Budget()
        p = max_packing(d, budget)
        assert p.optimal and p.value == value
        assert budget.used <= nodes

    @pytest.mark.parametrize("seed, value, nodes", [(11, 23, 1_301), (18, 24, 1_531), (26, 23, 715)])
    def test_4ore_40_within_default_budget(self, seed, value, nodes):
        d, _ = generate_4ore(40, seed=seed)
        budget = Budget()
        p = max_packing(d, budget)
        assert p.optimal and p.value == value
        assert budget.used <= nodes

    @settings(max_examples=150, deadline=None)
    @given(sparse_bidirected())
    def test_matches_exhaustive_oracle_on_sparse_graphs(self, d):
        # Few triangles and many odd cycles, so the digon branching decides.
        p = max_packing(d)
        assert p.optimal and verify_packing(d, p)
        assert p.value == oracle_max_packing_value(d)

    def test_k12_nodes_pinned(self):
        budget = Budget()
        p = max_packing(bidirected_complete(12), budget)
        assert p.optimal and p.value == 8
        assert budget.used <= 615_389


class TestDigonGraph:
    @staticmethod
    def check(d):
        assert bidirected_triangles(d) == oracle_bidirected_triangles(d)
        digon = digon_masks(d)
        for u in range(d.n):
            for v in range(d.n):
                assert bool(digon[u] >> v & 1) == d.has_digon(u, v)

    @settings(max_examples=150, deadline=None)
    @given(mixed_digraphs(max_n=9))
    def test_match_the_pair_and_triple_scans(self, d):
        self.check(d)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from((4, 7, 10, 13, 16)),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_match_the_pair_and_triple_scans_on_4ore(self, n, seed):
        self.check(generate_4ore(n, seed=seed)[0])


class TestPackingLemmas:
    def test_vertex_deletion_lipschitz(self):
        for seed in range(40):
            d = random_digraph(seed, max_n=10)
            if d.n == 1:
                continue
            t = oracle_max_packing_value(d)
            for v in range(d.n):
                rest, _ = induced(d, [w for w in range(d.n) if w != v])
                assert oracle_max_packing_value(rest) >= t - 1
