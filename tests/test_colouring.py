import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dicrit.budget import Budget, BudgetExceeded
from dicrit.colouring import (
    _assignments,
    _masks,
    _search_order,
    Colouring,
    ColouringError,
    check_dicolouring,
    dichromatic_number,
    enumerate_k_dicolourings,
    is_k_dicolourable,
    is_k_dicritical,
)
from dicrit.constructions import build_g3
from dicrit.digraph import (
    Digraph,
    bidirected_complete,
    bidirected_cycle,
    bidirected_from_edges,
    directed_cycle,
)
from dicrit.ore import generate_4ore

from .oracles import (
    oracle_chromatic_number,
    oracle_dichromatic_number,
    oracle_is_k_dicolourable,
    oracle_is_k_dicritical,
    valid_dicolouring,
)
from .test_digraph import digraphs


class TestCheckDicolouring:
    def test_monochromatic_triangle(self, c3):
        ok, cycle = check_dicolouring(c3, Colouring(1, (1, 1, 1)))
        assert not ok
        assert sorted(cycle) == [0, 1, 2]

    def test_split_triangle(self, c3):
        ok, cycle = check_dicolouring(c3, Colouring(2, (1, 1, 2)))
        assert ok and cycle is None

    def test_digon_is_a_directed_2cycle(self, k4):
        ok, cycle = check_dicolouring(k4, Colouring(3, (1, 2, 3, 3)))
        assert not ok
        assert sorted(cycle) == [2, 3]

    def test_partial_assignment_rejected(self, c3):
        with pytest.raises(ColouringError):
            check_dicolouring(c3, Colouring(2, (1, 1)))


class TestIsKDicolourable:
    def test_c3_two_colours(self, c3):
        col = is_k_dicolourable(c3, 2)
        assert col is not None
        assert check_dicolouring(c3, col)[0]

    def test_k4_not_three(self, k4):
        assert is_k_dicolourable(k4, 3) is None

    def test_bidirected_c5(self, c5_bi):
        assert is_k_dicolourable(c5_bi, 2) is None
        col = is_k_dicolourable(c5_bi, 3)
        assert col is not None and check_dicolouring(c5_bi, col)[0]

    def test_budget_exhaustion_is_loud(self, k4):
        with pytest.raises(BudgetExceeded):
            is_k_dicolourable(k4, 3, Budget(5))

    @settings(max_examples=80)
    @given(digraphs(max_n=5), st.integers(1, 3))
    def test_agrees_with_assignment_enumeration(self, d, k):
        got = is_k_dicolourable(d, k)
        assert (got is not None) == oracle_is_k_dicolourable(d, k)
        if got is not None:
            assert valid_dicolouring(d, got.colours)

    def test_enumeration_finds_every_colouring(self, c3):
        found = {c.colours for c in enumerate_k_dicolourings(c3, 2)}
        expected = {
            assignment
            for assignment in itertools.product((1, 2), repeat=3)
            if valid_dicolouring(c3, assignment)
        }
        assert found == expected


class TestDichromaticNumber:
    def test_single_vertex(self):
        assert dichromatic_number(Digraph(1)) == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_directed_cycles(self, n):
        assert dichromatic_number(directed_cycle(n)) == 2

    def test_g3_needs_three(self):
        g3, _ = build_g3(1)
        assert dichromatic_number(g3) == 3

    @settings(max_examples=40, deadline=None)
    @given(digraphs(max_n=6))
    def test_matches_oracle(self, d):
        assert dichromatic_number(d) == oracle_dichromatic_number(d)

    @settings(max_examples=30)
    @given(digraphs(max_n=5), st.data())
    def test_arc_deletion_drops_by_at_most_one(self, d, data):
        if not d.arcs:
            return
        arc = data.draw(st.sampled_from(sorted(d.arcs)))
        chi = dichromatic_number(d)
        chi_minus = dichromatic_number(d.without_arcs([arc]))
        assert chi_minus in (chi, chi - 1)

    def test_bidirected_matches_chromatic_number(self):
        # chi(G) = dichromatic number of the bidirected G, cross-checked
        # against an independent proper-colouring brute force (n <= 10).
        import random as _random
        edge_sets = [
            (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
            (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]),
            (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]),
        ]
        rng = _random.Random(7)
        for n in (8, 10):
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            edge_sets.append((n, edges))
        for n, edges in edge_sets:
            bid = bidirected_from_edges(n, edges)
            assert dichromatic_number(bid) == oracle_chromatic_number(n, edges)


class TestIsKDicritical:
    def test_k4_with_all_witnesses(self, k4):
        report = is_k_dicritical(k4, 4)
        assert report.verdict
        assert len(report.witnesses) == 12
        for arc, witness in report.witnesses.items():
            ok, _ = check_dicolouring(k4.without_arcs([arc]), witness)
            assert ok and witness.k == 3
        assert report.solved + report.reused == len(report.witnesses)
        # A reused witness is the very object an earlier fresh search made.
        assert len({id(w) for w in report.witnesses.values()}) == report.solved

    def test_k3(self, k3):
        assert is_k_dicritical(k3, 3).verdict

    def test_pendant_arc_not_critical(self, c3):
        d = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        report = is_k_dicritical(d, 2)
        assert not report.verdict
        assert report.failure_arc == (0, 3)

    def test_isolated_vertex_not_critical(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 0)])
        report = is_k_dicritical(d, 2)
        assert not report.verdict
        assert "isolated" in report.failure_reason

    def test_wrong_k(self, k4):
        assert not is_k_dicritical(k4, 3).verdict
        assert not is_k_dicritical(k4, 5).verdict

    def test_json_embeds_instance(self, k3):
        blob = is_k_dicritical(k3, 3).to_json()
        assert blob["digraph"].startswith("n 3 m 6")
        assert blob["verdict"] is True

    def test_g3_witness_stats(self):
        g3, _ = build_g3(1)
        budget = Budget(10_000_000)
        report = is_k_dicritical(g3, 3, budget)
        assert report.verdict
        assert report.solved + report.reused == len(report.witnesses) == g3.m
        assert report.solved > 0 and report.reused > 0
        assert len({id(w) for w in report.witnesses.values()}) == report.solved
        assert report.nodes == budget.used
        assert report.to_json()["stats"] == {
            "nodes": report.nodes, "solved": report.solved, "reused": report.reused,
        }

    @settings(max_examples=120, deadline=None)
    @given(digraphs(max_n=6), st.sampled_from([2, 3, 4]))
    @example(directed_cycle(3), 2)
    @example(bidirected_cycle(5), 3)
    @example(bidirected_complete(4), 4)
    @example(Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)]), 2)
    def test_agrees_with_the_oracle(self, d, k):
        report = is_k_dicritical(d, k)
        assert report.verdict == oracle_is_k_dicritical(d, k)
        assert report.solved + report.reused == len(report.witnesses)
        for arc, witness in report.witnesses.items():
            assert witness.k == k - 1
            assert valid_dicolouring(Digraph(d.n, d.arcs - {arc}), witness.colours)
        if report.verdict:
            assert set(report.witnesses) == d.arcs


class TestPinnedSearch:
    @settings(max_examples=150, deadline=None)
    @given(digraphs(max_n=7), st.integers(1, 3), st.data())
    def test_pinned_pair_agrees_with_the_oracle(self, d, k, data):
        if d.n < 2:
            return
        u, v = data.draw(st.lists(st.integers(0, d.n - 1), min_size=2, max_size=2, unique=True))
        out, inn = _masks(d)
        order = _search_order(out, inn)
        pin = (u, v) if order.index(u) < order.index(v) else (v, u)
        found = next(_assignments(out, inn, order, k, Budget(1_000_000), True, pin), None)
        expected = any(
            a[u] == a[v] and valid_dicolouring(d, a)
            for a in itertools.product(range(k), repeat=d.n)
        )
        assert (found is not None) == expected
        if found is not None:
            assert found[u] == found[v] and valid_dicolouring(d, found)


def _relabelled(d: Digraph, seed: int) -> Digraph:
    perm = list(range(d.n))
    random.Random(seed).shuffle(perm)
    return Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])


class TestNodeCeilings:
    """Upper bounds on ``Budget.used`` of the dicriticality check.  Node
    counts are deterministic; a later change may only lower these."""

    @pytest.mark.parametrize(
        "build, k, ceiling",
        [
            (lambda: generate_4ore(25, seed=3)[0], 4, 11_267),
            (lambda: build_g3(1)[0], 3, 1_246),
            (lambda: build_g3(2)[0], 3, 19_677),
        ],
        ids=["4ore-25-seed3", "g3-1", "g3-2"],
    )
    def test_ceiling(self, build, k, ceiling):
        budget = Budget(10 * ceiling)
        assert is_k_dicritical(build(), k, budget).verdict
        assert budget.used <= ceiling

    def test_g3_three_fits_a_million_nodes(self):
        g3, _ = build_g3(3)
        assert is_k_dicritical(g3, 3, Budget(1_000_000)).verdict

    @pytest.mark.parametrize("seed", range(6))
    def test_relabelled_4ore_stays_cheap(self, seed):
        d = _relabelled(generate_4ore(25, seed=3)[0], seed)
        budget = Budget(100_000)
        assert is_k_dicritical(d, 4, budget).verdict
