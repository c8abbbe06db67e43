import pytest
from hypothesis import given, settings

from dicrit.budget import Budget
from dicrit.digraph import bidirected_complete, induced
from dicrit.packing import Packing, bidirected_triangles, max_packing, verify_packing

from .conftest import random_digraph
from .oracles import oracle_max_packing_value
from .test_digraph import digraphs


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
