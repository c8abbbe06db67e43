import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from dicrit.budget import Budget, BudgetExceeded
from dicrit.digraph import Digraph, bidirected_complete, digon_masks, induced
from dicrit.ore import generate_4ore
from dicrit import packing
from dicrit.packing import Packing, bidirected_triangles, max_packing, verify_packing
from dicrit.potential import REFERENCE_PARAMS, potential

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
        # K6 needs 2 nodes, one per triangle taken.
        k6 = bidirected_complete(6)
        p = max_packing(k6, Budget(1))
        assert not p.optimal
        assert verify_packing(k6, p)

    def test_many_items_stay_shallow(self):
        # 9,880 triangles and 780 digons: skipping an item must not cost a
        # stack frame, or the search overflows the recursion limit.  K40
        # needs 13 nodes, one per triangle taken, so 10 runs out with
        # thousands of triangles skipped and many items still open.
        k40 = bidirected_complete(40)
        p = max_packing(k40, Budget(10))
        assert p.value == 20 and not p.optimal
        assert verify_packing(k40, p)

    def test_unverifiable_packing_raises(self, k4, monkeypatch):
        # The check must survive ``python -O``, so it is no ``assert``.
        # The stub finds the incumbent, [0, ()] at the start, among the
        # search's arguments, whatever their order.
        def overlapping(*args):
            best = next(arg for arg in args if arg == [0, ()])
            best[:] = 3, (0b0111, 0b0110)

        monkeypatch.setattr(packing, "_search", overlapping)
        with pytest.raises(AssertionError, match="verify_packing"):
            max_packing(k4)

    def test_tampered_packing_fails_verification(self, k4):
        assert not verify_packing(k4, Packing((), ((0, 1, 2), (0, 2, 3))))

    @pytest.mark.parametrize(
        "name, digons, triangles",
        [
            ("k4", ((0, 1), (1, 2)), ()),  # two digons share vertex 1
            ("k4", ((0, 1),), ((1, 2, 3),)),  # a digon and a triangle share 1
            ("c3", ((0, 1),), ()),  # 1 -> 0 is missing: no digon
            ("c3", (), ((0, 1, 2),)),  # a directed triangle is not bidirected
        ],
    )
    def test_invalid_items_fail_verification(self, request, name, digons, triangles):
        assert not verify_packing(request.getfixturevalue(name), Packing(digons, triangles))

    def test_exact_values_raise_when_the_search_stops_early(self):
        d, _ = generate_4ore(40, 11)
        with pytest.raises(BudgetExceeded):
            packing.packing_value(d, Budget(10))
        with pytest.raises(BudgetExceeded):
            potential(d, REFERENCE_PARAMS, Budget(10))

    @settings(max_examples=80, deadline=None)
    @given(digraphs(max_n=7))
    def test_matches_exhaustive_oracle(self, d):
        assert max_packing(d).value == oracle_max_packing_value(d)

    # Value and node count of the search on inputs that run fast.  The
    # counts are ceilings: a later change may lower them, never raise them.
    # The third parameter is the ceiling from when a triangle that meets a
    # covered vertex still cost a node; the tables below hold the current,
    # lower ones, since the bound counts only the triangles still available.
    NODES_31 = {0: 67, 1: 77, 2: 51, 3: 49, 4: 102}
    NODES_40 = {11: 573, 18: 406, 26: 383}

    @pytest.mark.parametrize(
        "seed, value, nodes",
        [(0, 19, 106), (1, 19, 173), (2, 19, 141), (3, 20, 71), (4, 19, 226)],
    )
    def test_4ore_nodes_pinned(self, seed, value, nodes):
        d, _ = generate_4ore(31, seed=seed)
        budget = Budget()
        p = max_packing(d, budget)
        assert p.optimal and p.value == value
        assert budget.used <= self.NODES_31[seed] <= nodes

    @pytest.mark.parametrize("seed, value, nodes", [(11, 23, 767), (18, 24, 603), (26, 23, 457)])
    def test_4ore_40_within_default_budget(self, seed, value, nodes):
        d, _ = generate_4ore(40, seed=seed)
        budget = Budget()
        p = max_packing(d, budget)
        assert p.optimal and p.value == value
        assert budget.used <= self.NODES_40[seed] <= nodes

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
        assert budget.used <= 4

    # SHA-256 of json.dumps([max_packing(d).to_json() ...]) over
    # generate_4ore(n, s), s = 0..9, and over bidirected_complete(n),
    # n = 1..40, recorded before the search kept its triangles as one
    # bitset.  Every bound since has been admissible and the search order
    # has not changed, so the items and `optimal` must not change either
    # (docs/decisions.md section 13).
    DIGESTS_4ORE = {
        4: "b56e6efdf73c3d997a96582cfa52c20e06c2c2464ec3b42b78ce6206c30dedf3",
        7: "d80f71aac852fc31e6c19c04476a2c9d0483d8b9384845f03d73be157d731dc9",
        10: "72d84175bd0298537f6c6847c0dd3ad4d04800f9a1071cc790cf5d6bb4375ebe",
        13: "ffe12f6c8fced5ff728b78b9e076926c422a85b4ce2cf70319eedd67ebd9c289",
        16: "a99c2b1fd3c72ad73ee7380600f7c91cacf0655bc54a2c466f7110a30ef7e758",
        19: "aab7d1919471d076717406110af9e0eab55ce78d66aaa37127f216bd339ad439",
        22: "698a0c9d0b51f14e49922b6d8c72555edb055ef4db80d0d5c86334c91dc51745",
        25: "c1cd482f7d7766417cd5b7863471b13579377cd7c0df789ac69616313c2683a9",
        28: "977e8119be4bfa1fbb298e21f4188a93ca17af083a8091088b78357edfb5a639",
        31: "a2f4aa2a388cb830a171fff2df5b21be706024b02a5c762e6abb57e48f7197af",
        34: "4876bd2bc5c72b94d8cb5915b8cc54b38f0ef83db2d73f8a47118a6116ed4ae7",
        37: "d2648a2a1a0ed5a780dd14ba2b0818c1ffc6f84c73b23a574ee372dcbfc0cf8e",
        40: "fd53f7c4cb2a51bc7309f193a66cc1e3ff63fd1124b53859297f65732716f635",
        43: "29ad53184a3055ac6be0deb0549a71b2767027f0a4dbeffbd2bad3c076d5386c",
        46: "9a71899a2bf6d576384e6b01da6f0bdc4ab70a2bf3ce7ecee34d10bd4f6327a2",
        49: "d7d20df990c955677b088045b7f0c0be62d26018ff78c272387f596541fc5071",
    }
    DIGEST_CLIQUES = "e4861f01d98533da968ba6dc65a60a66d9ff8e63e489e3b87b2de29192a49492"

    @staticmethod
    def packings_digest(digraphs):
        text = json.dumps([max_packing(d).to_json() for d in digraphs])
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("n", sorted(DIGESTS_4ORE))
    def test_4ore_packings_pinned(self, n):
        digraphs = (generate_4ore(n, seed=s)[0] for s in range(10))
        assert self.packings_digest(digraphs) == self.DIGESTS_4ORE[n]

    def test_clique_packings_pinned(self):
        digraphs = (bidirected_complete(n) for n in range(1, 41))
        assert self.packings_digest(digraphs) == self.DIGEST_CLIQUES

    @pytest.mark.parametrize("n", range(1, 15))
    def test_cliques_match_closed_form(self, n):
        # t triangles, then digons on the n - 3t vertices left.
        expected = max(2 * t + (n - 3 * t) // 2 for t in range(n // 3 + 1))
        p = max_packing(bidirected_complete(n))
        assert p.optimal and p.value == expected

    # The packings the search returned before its triangle bound was
    # tightened; a tighter admissible bound prunes only branches that
    # cannot beat the incumbent, so the same items must come back.
    @pytest.mark.parametrize("seed, digon_items, triangle_items", [
        (0, ((8, 12), (9, 15), (20, 21)),
         ((0, 1, 2), (3, 4, 6), (5, 13, 14), (7, 10, 11), (16, 18, 19),
          (22, 29, 30), (23, 24, 25), (26, 27, 28))),
        (1, ((1, 4), (8, 9), (13, 22), (18, 21), (26, 27)),
         ((0, 2, 3), (5, 6, 7), (10, 11, 12), (14, 15, 16), (17, 19, 20),
          (23, 24, 25), (28, 29, 30))),
        (2, ((7, 25), (19, 22), (20, 28)),
         ((0, 1, 3), (2, 26, 27), (4, 5, 6), (8, 9, 10), (11, 12, 13),
          (14, 15, 16), (18, 29, 30), (21, 23, 24))),
        (3, ((10, 17), (19, 29)),
         ((0, 4, 5), (1, 2, 3), (6, 11, 12), (7, 8, 9), (13, 15, 16),
          (14, 20, 22), (18, 23, 25), (21, 27, 28), (24, 26, 30))),
        (4, ((3, 7), (9, 10), (17, 23), (24, 30), (26, 27)),
         ((0, 1, 2), (4, 5, 6), (8, 11, 12), (13, 15, 16), (14, 18, 19),
          (20, 21, 22), (25, 28, 29))),
    ])
    def test_4ore_items_pinned(self, seed, digon_items, triangle_items):
        d, _ = generate_4ore(31, seed=seed)
        assert max_packing(d) == Packing(digon_items, triangle_items)


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
