import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dicrit import colouring
from dicrit.budget import Budget, BudgetExceeded
from dicrit.colouring import (
    _branching,
    _bridges,
    _classes_acyclic,
    _colourable,
    _decide,
    _find_monochromatic_cycle,
    _first_assignment,
    Colouring,
    ColouringError,
    RefutationStats,
    check_dicolouring,
    check_dicolourings,
    dichromatic_number,
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

from .conftest import quadratic_residue_tournament
from .oracles import (
    oracle_chromatic_number,
    oracle_dichromatic_number,
    oracle_ie_dichromatic_number,
    oracle_ie_is_k_dicolourable,
    oracle_ie_is_k_dicritical,
    oracle_is_k_dicolourable,
    oracle_assignments,
    oracle_is_k_dicritical,
    valid_dicolouring,
)
from .test_digraph import digraphs, mixed_digraphs


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

    @settings(max_examples=200)
    @given(st.data())
    def test_removed_arc_matches_the_rebuilt_digraph(self, data):
        # verdict and cycle equal those on D - arc built anew, whether or
        # not D has the arc
        d = data.draw(digraphs().filter(lambda g: g.n > 1))
        arc = data.draw(st.sampled_from(
            [(u, v) for u in range(d.n) for v in range(d.n) if u != v]
        ))
        k = data.draw(st.integers(1, 3))
        colouring = Colouring(k, tuple(data.draw(
            st.lists(st.integers(1, k), min_size=d.n, max_size=d.n)
        )))
        rebuilt = Digraph(d.n, d.arcs - {arc})
        assert check_dicolouring(d, colouring, arc) == check_dicolouring(rebuilt, colouring)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_many_pairs_match_the_oracle(self, data):
        # 1-100 pairs cross the 30- and 60-bit digit boundaries of the
        # cells and, with a drawn chunk size, the chunk boundary.  Palettes
        # above 8 colours take the wide cells.  Removed arcs are arcs of
        # D, arcs not in D, or None.
        d = data.draw(digraphs())
        pairs = [(u, v) for u in range(d.n) for v in range(d.n) if u != v]
        removals = [st.none()] + [st.sampled_from(sorted(s)) for s in
                                  (d.arcs, set(pairs) - d.arcs) if s]
        palette = st.sampled_from([(1,), (1, 2), (1, 2, 3), (1, 2, 9, 300)])
        checks = []
        for _ in range(data.draw(st.integers(1, 100))):
            colours = data.draw(palette)
            checks.append((
                Colouring(max(colours), tuple(data.draw(
                    st.lists(st.sampled_from(colours), min_size=d.n, max_size=d.n)
                ))),
                data.draw(st.one_of(removals)),
            ))
        chunk = data.draw(st.sampled_from([1, 7, 32, 128]))
        with mock.patch.object(colouring, "_PAIRS_PER_PEEL", chunk):
            results = check_dicolourings(d, iter(checks))
        assert len(results) == len(checks)
        for (c, arc), (ok, cycle) in zip(checks, results):
            assert ok == valid_dicolouring(Digraph(d.n, d.arcs - {arc}), c.colours)
            assert cycle == _find_monochromatic_cycle(d, c.colours, arc)

    @settings(max_examples=300)
    @given(st.data())
    def test_classes_acyclic_matches_the_oracle(self, data):
        # the one-colouring peel on out-bitsets, with its colour classes as
        # vertex bitsets; colours left unused give empty classes
        d = data.draw(digraphs(max_n=8))
        k = data.draw(st.integers(1, 4))
        colours = data.draw(st.lists(st.integers(1, k), min_size=d.n, max_size=d.n))
        classes = [0] * k
        for v, c in enumerate(colours):
            classes[c - 1] |= 1 << v
        assert _classes_acyclic(d.out_masks, classes) == valid_dicolouring(d, colours)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_removed_pair_outside_the_digraph_is_ignored(self, n):
        # a directed n-cycle (one vertex for n = 1), monochromatic: a pair
        # that wrapped round to vertex n - 1 would cut its only cycle
        d = directed_cycle(n) if n > 1 else Digraph(1)
        colouring = Colouring(1, (1,) * n)
        expected = check_dicolouring(d, colouring)
        assert expected[0] == (n == 1)
        outside = [(-1, 0), (n, 0), (0, -1), (0, n), (n - 1, -1), (-1, -1), (n + 2, n)]
        for removed in outside:
            assert check_dicolouring(d, colouring, removed) == expected, removed
        pairs = [(colouring, removed) for removed in outside]
        assert check_dicolourings(d, pairs) == [expected] * len(outside)

    def test_no_pairs(self, c3):
        assert check_dicolourings(c3, []) == []

    def test_partial_assignment_rejected_in_a_batch(self, c3):
        with pytest.raises(ColouringError):
            check_dicolourings(c3, [(Colouring(2, (1, 1, 2)), None),
                                    (Colouring(2, (1, 1)), None)])

    # A colour that is no integer passes Colouring's range check; the checker
    # rejects it in both cell layouts, one byte per cell and wider.
    @pytest.mark.parametrize("colouring", [Colouring(2, (1, 1.5, 2)), Colouring(9, (1, 2, 9.0))])
    def test_non_integer_colour_rejected(self, c3, colouring):
        with pytest.raises(ColouringError, match="colours must be integers"):
            check_dicolouring(c3, colouring)

    @pytest.mark.parametrize("colours", [(0, 1, 2), (1, 3, 2)])
    def test_colour_out_of_range_rejected(self, colours):
        with pytest.raises(ColouringError, match="colours must lie in 1..k"):
            Colouring(2, colours)

    def test_k_zero_rejected(self):
        with pytest.raises(ColouringError, match="k must be at least 1"):
            Colouring(0, ())


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

class TestDichromaticNumber:
    def test_single_vertex(self):
        assert dichromatic_number(Digraph(1)) == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_directed_cycles(self, n):
        assert dichromatic_number(directed_cycle(n)) == 2

    def test_g3_needs_three(self):
        g3, _ = build_g3(1)
        assert dichromatic_number(g3) == 3

    def test_g3_four_needs_three(self):
        # The plain search spends about 18M nodes refuting 2-dicolourability
        # here; the 2-separator reduction needs a few hundred.
        g3, _ = build_g3(4)
        budget = Budget(20_000)
        assert dichromatic_number(g3, budget) == 3

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
        assert report.solved + report.swapped + report.reused == len(report.witnesses)
        # A reused witness is the very object an earlier fresh search or
        # Kempe swap made.
        assert len({id(w) for w in report.witnesses.values()}) == (
            report.solved + report.swapped
        )

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
        assert report.solved + report.swapped + report.reused == len(report.witnesses) == g3.m
        assert report.solved > 0 and report.reused > 0
        assert len({id(w) for w in report.witnesses.values()}) == (
            report.solved + report.swapped
        )
        assert report.nodes == budget.used
        # g3-1 is refuted by the plain search alone, within its allowance;
        # it is oriented, and 9 of its witnesses come from directed Kempe
        # swaps.
        assert report.to_json()["stats"] == {
            "nodes": report.nodes, "solved": report.solved, "swapped": 9,
            "reused": report.reused,
            "plain_nodes": report.refutation.plain_nodes, "reduced": False,
            "sides_replaced": 0, "piece_solves": 0,
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
        assert report.solved + report.swapped + report.reused == len(report.witnesses)
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
        position, out, inn = _branching(d.out_masks, d.in_masks)
        pin = tuple(sorted((position[u], position[v])))
        found = _first_assignment(out, inn, k, Budget(1_000_000), pin)
        if found is not None:
            found = tuple(map(found.__getitem__, position))
        expected = any(
            a[u] == a[v] and valid_dicolouring(d, a)
            for a in itertools.product(range(k), repeat=d.n)
        )
        assert (found is not None) == expected
        if found is not None:
            assert found[u] == found[v] and valid_dicolouring(d, found)


def _run_kernel(d: Digraph, k: int, pin, limit: int):
    """The kernel on ``d`` relabelled into branching order under
    ``Budget(limit)``: its assignment mapped back to d's labels (None if it
    refutes or runs out), the budget it used, and the message it ran out
    with (None if it finished)."""
    position, out, inn = _branching(d.out_masks, d.in_masks)
    if pin is not None:
        pin = (position[pin[0]], position[pin[1]])
    budget = Budget(limit, "kernel")
    try:
        found = _first_assignment(out, inn, k, budget, pin)
    except BudgetExceeded as exc:
        return None, budget.used, str(exc)
    if found is not None:
        found = tuple(map(found.__getitem__, position))
    return found, budget.used, None


def _order(d: Digraph) -> list[int]:
    """The vertices of ``d`` in branching order."""
    position = _branching(d.out_masks, d.in_masks)[0]
    return sorted(d.vertices(), key=position.__getitem__)


def _run_oracle(d: Digraph, k: int, pin, limit: int):
    """The first assignment the chronological reference kernel yields on
    ``d`` itself, or None once it is exhausted, and the budget it used to
    get there."""
    budget = Budget(limit, "kernel")
    found = next(oracle_assignments(d.out_masks, d.in_masks, _order(d), k, budget, pin), None)
    return found, budget.used


@st.composite
def kernel_inputs(draw):
    """A digraph with n <= 7, k in 1..4, and no pin or a pin (a, b) with a
    placed before b."""
    d = draw(digraphs(max_n=7))
    k = draw(st.integers(1, 4))
    pin = None
    if d.n >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, d.n - 1), min_size=2, max_size=2, unique=True))
        order = _order(d)
        pin = (a, b) if order.index(a) < order.index(b) else (b, a)
    return d, k, pin


class TestKernel:
    """The backjumping kernel against the chronological one, kept in
    ``tests/oracles.py``: the kernel returns the first assignment that one
    yields, or None when that one is exhausted, from no more nodes than it
    spent to get there, and a budget that runs out does so loudly."""

    # Above 4 + 4^2 + ... + 4^7, so neither kernel runs out on n <= 7, k <= 4.
    LIMIT = 22_000

    @settings(max_examples=200, deadline=None)
    @given(kernel_inputs())
    @example((bidirected_complete(4), 3, None))
    @example((bidirected_complete(4), 4, None))
    @example((Digraph(7, []), 4, (0, 1)))
    @example((directed_cycle(4), 2, (0, 2)))
    # A jump lands on a depth that opened colour 2, and the search must go
    # on above it: dropping the symmetry rule's conflict set refutes this.
    @example((Digraph(7, [
        (0, 4), (1, 0), (1, 3), (1, 4), (1, 6), (2, 1), (2, 3), (2, 5), (3, 1), (3, 2), (3, 4),
        (3, 5), (4, 0), (4, 2), (4, 3), (4, 5), (4, 6), (5, 1), (5, 2), (5, 3), (5, 4), (6, 1),
        (6, 5),
    ]), 3, None))
    def test_matches_the_first_kernel(self, case):
        d, k, pin = case
        got, used, message = _run_kernel(d, k, pin, self.LIMIT)
        expected, oracle_used = _run_oracle(d, k, pin, self.LIMIT)
        assert message is None
        assert got == expected
        assert used <= oracle_used

    @settings(max_examples=100, deadline=None)
    @given(kernel_inputs(), st.integers(1, 40))
    def test_small_limits_run_out_alike(self, case, limit):
        d, k, pin = case
        got, used, message = _run_kernel(d, k, pin, limit)
        expected, oracle_used = _run_oracle(d, k, pin, self.LIMIT)
        if message is None:
            assert got == expected and used <= oracle_used
        else:
            assert used == limit + 1
            assert message == f"kernel: node budget of {limit} exhausted"
            # The kernel visits a subset of the reference's nodes.
            assert oracle_used > limit


#: k-dicritical digraphs of at most 10 vertices, with their k.
DICRITICAL = (
    [(directed_cycle(n), 2) for n in (2, 5, 8, 10)]
    + [(bidirected_cycle(n), 3) for n in (3, 7, 9)]
    + [(bidirected_complete(4), 4)]
    + [(generate_4ore(n, seed)[0], 4) for n in (7, 10) for seed in range(3)]
)


@st.composite
def near_dicritical(draw):
    """A k-dicritical digraph of at most 10 vertices, relabelled, with one
    arc deleted, one arc added or left as it is; and its k."""
    d, k = draw(st.sampled_from(DICRITICAL))
    arcs = set(d.arcs)
    edit = draw(st.sampled_from(("none", "delete", "add")))
    if edit == "delete":
        arcs.discard(draw(st.sampled_from(sorted(arcs))))
    elif edit == "add" and d.m < d.n * (d.n - 1):
        missing = sorted(
            (u, v) for u in range(d.n) for v in range(d.n) if u != v and (u, v) not in arcs
        )
        arcs.add(draw(st.sampled_from(missing)))
    perm = draw(st.permutations(range(d.n)))
    return Digraph(d.n, [(perm[u], perm[v]) for u, v in arcs]), k


class TestInclusionExclusion:
    """The inclusion-exclusion oracle against the k^n brute force up to
    n = 7, then the solver against it on 8 to 10 vertices."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(digraphs(max_n=7), mixed_digraphs(max_n=7)), st.integers(1, 3))
    @example(bidirected_complete(4), 3)
    @example(bidirected_complete(5), 4)
    def test_agrees_with_the_brute_force(self, d, k):
        assert oracle_ie_is_k_dicolourable(d, k) == oracle_is_k_dicolourable(d, k)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(digraphs(10, 8), mixed_digraphs(10, 8)), st.integers(1, 4))
    def test_is_k_dicolourable(self, d, k):
        got = is_k_dicolourable(d, k)
        assert (got is not None) == oracle_ie_is_k_dicolourable(d, k)
        if got is not None:
            assert valid_dicolouring(d, got.colours)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(digraphs(10, 8), mixed_digraphs(10, 8)))
    def test_dichromatic_number(self, d):
        assert dichromatic_number(d) == oracle_ie_dichromatic_number(d)

    @settings(max_examples=40, deadline=None)
    @given(near_dicritical())
    def test_is_k_dicritical(self, case):
        d, k = case
        report = is_k_dicritical(d, k)
        assert report.verdict == oracle_ie_is_k_dicritical(d, k)
        for arc, witness in report.witnesses.items():
            assert valid_dicolouring(Digraph(d.n, d.arcs - {arc}), witness.colours)


def _distinct_witnesses(report):
    """Each distinct witness of a report, fresh or swapped, with the first
    arc, in the order checked, that it serves.  Every arc a witness serves
    lies on every monochromatic cycle of D under it, so any of them gives
    the same rule-1 arcs (docs/decisions.md, section 24)."""
    first = {}
    for arc in sorted(report.witnesses):
        first.setdefault(id(report.witnesses[arc]), (arc, report.witnesses[arc]))
    return list(first.values())


class TestWitnessReuse:
    CASES = {
        "g3-1": lambda: (build_g3(1)[0], 3),
        "g3-2": lambda: (build_g3(2)[0], 3),
        "4ore-16-s0": lambda: (generate_4ore(16, seed=0)[0], 4),
        "4ore-16-s1": lambda: (generate_4ore(16, seed=1)[0], 4),
        "4ore-16-s2": lambda: (generate_4ore(16, seed=2)[0], 4),
        "k4": lambda: (bidirected_complete(4), 4),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_screen_is_exact(self, name):
        # Rule 1 of docs/decisions.md, section 24: a witness w for D - xy
        # dicolours D - uv exactly when uv is xy or an arc on every y->x
        # path of D[A], A the class of x and y.
        d, k = self.CASES[name]()
        report = is_k_dicritical(d, k)
        assert report.verdict
        distinct = _distinct_witnesses(report)
        assert len(distinct) == report.solved + report.swapped
        out, inn = d.out_masks, d.in_masks
        for (x, y), w in distinct:
            cls = sum(1 << z for z, c in enumerate(w.colours) if c == w.colours[x])
            fits = {(x, y)} | {(p, q) for p, q, _ in _bridges(out, inn, cls, cls, y, x)}
            assert {arc for arc in d.sorted_arcs()
                    if valid_dicolouring(Digraph(d.n, d.arcs - {arc}), w.colours)} == fits
            assert {arc for arc, v in report.witnesses.items() if v is w} <= fits

    @pytest.mark.parametrize("name", CASES)
    def test_one_check_per_witness(self, name):
        d, k = self.CASES[name]()
        report, calls = _spied_criticality(d, k)
        assert report.verdict
        assert len(report.witnesses) == d.m
        assert calls == [(d, [(report.witnesses[arc], arc) for arc in d.sorted_arcs()])]

    def test_one_check_before_a_failure(self):
        # A 4-dicritical digraph plus an arc that comes late in arc order:
        # the arcs before it get witnesses, which are checked in one call
        # before the report names the failure arc.
        d = generate_4ore(16, seed=0)[0].with_arcs([(15, 12)])
        report, calls = _spied_criticality(d, 4)
        assert not report.verdict and report.failure_arc == (15, 12)
        before = d.sorted_arcs()[:d.sorted_arcs().index((15, 12))]
        assert len(before) == len(report.witnesses) > 0
        assert calls == [(d, [(report.witnesses[arc], arc) for arc in before])]


@st.composite
def bidirected_graphs(draw, max_n=10):
    """Bidirected digraphs on 2..max_n vertices, each edge drawn on its own.
    Half of them are pruned to a critical graph first (each edge in a drawn
    order is dropped if the chromatic number stays, then isolated vertices
    go), and may get one edge back."""
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    if edges and draw(st.booleans()):
        chi = oracle_chromatic_number(n, edges)
        for edge in draw(st.permutations(edges)):
            rest = [e for e in edges if e != edge]
            if oracle_chromatic_number(n, rest) == chi:
                edges = rest
        used = sorted({v for edge in edges for v in edge})
        index = {v: i for i, v in enumerate(used)}
        n, edges = len(used), [(index[a], index[b]) for a, b in edges]
        missing = [pair for pair in itertools.combinations(range(n), 2) if pair not in edges]
        if missing and draw(st.booleans()):
            edges.append(draw(st.sampled_from(missing)))
    return bidirected_from_edges(n, edges)


#: The odd wheel W5: a hub 0 joined to the 5-cycle 1..5; 4-critical.
WHEEL_5 = bidirected_from_edges(
    6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
)


def _arc_order_failure(d: Digraph, k: int, colourable):
    """The failure arc and the witness keys that visiting D's arcs in sorted
    order gives: every arc gets a witness until the first whose deletion
    leaves D not (k-1)-dicolourable, as ``colourable`` decides."""
    arcs = d.sorted_arcs()
    for i, arc in enumerate(arcs):
        if not colourable(Digraph(d.n, d.arcs - {arc}), k - 1):
            return arc, arcs[:i]
    return None, arcs


class TestKempeWitnesses:
    """Per-arc witnesses derived by the closure of docs/decisions.md,
    section 24: class cut arcs and directed Kempe swaps, on bidirected
    (section 22), oriented and mixed digraphs."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(bidirected_graphs(), digraphs(max_n=8), mixed_digraphs(max_n=8)))
    @example(bidirected_complete(4))
    @example(bidirected_complete(5))
    @example(WHEEL_5)
    @example(generate_4ore(10, seed=0)[0])
    @example(quadratic_residue_tournament(7))
    @example(build_g3(1)[0])
    def test_agrees_with_the_oracle(self, d):
        chi = oracle_ie_dichromatic_number(d)
        k = max(2, chi)
        report = is_k_dicritical(d, k)
        assert report.verdict == oracle_ie_is_k_dicritical(d, k)
        assert report.solved + report.swapped + report.reused == len(report.witnesses)
        assert len({id(w) for w in report.witnesses.values()}) == (
            report.solved + report.swapped
        )
        for arc, witness in report.witnesses.items():
            assert witness.k == k - 1
            assert valid_dicolouring(Digraph(d.n, d.arcs - {arc}), witness.colours)
        # An acyclic D (chi = 1) stops at the first step, with no arc loop.
        if chi == k and all(map(int.__or__, d.out_masks, d.in_masks)):
            expected = _arc_order_failure(d, k, oracle_ie_is_k_dicolourable)
            assert (report.failure_arc, sorted(report.witnesses)) == expected

    @pytest.mark.parametrize(
        "build, k, nodes",
        [
            (lambda: bidirected_complete(4), 4, 16),
            (lambda: bidirected_complete(5), 5, 25),
            (lambda: WHEEL_5, 4, 27),
            *[
                (lambda n=n, s=s: generate_4ore(n, seed=s)[0], 4, nodes)
                for n, counts in ((16, (244, 205, 325)), (25, (1_998, 818, 1_564)),
                                  (49, (16_892, 13_950, 17_007)))
                for s, nodes in enumerate(counts)
            ],
        ],
        ids=["k4", "k5", "w5", *[f"4ore-{n}-s{s}" for n in (16, 25, 49) for s in range(3)]],
    )
    def test_pins(self, build, k, nodes):
        # Regression counts: one fresh search, every other digon by a swap,
        # and the second arc of each digon reused.
        d = build()
        budget = Budget(10 * nodes)
        report = is_k_dicritical(d, k, budget)
        assert report.verdict
        assert (report.solved, report.swapped, report.reused) == (1, d.m // 2 - 1, d.m // 2)
        assert report.nodes == budget.used == nodes

    def test_quadratic_residue_fixtures(self, qr7, qr11):
        for d, n, chi in ((qr7, 7, 3), (qr11, 11, 4)):
            assert d.n == n and d.m == n * (n - 1) // 2
            assert all(d.has_arc(u, v) != d.has_arc(v, u)
                       for u, v in itertools.combinations(range(n), 2))
            assert oracle_ie_dichromatic_number(d) == chi

    @pytest.mark.parametrize(
        "build, k, solved, nodes",
        [
            (lambda: quadratic_residue_tournament(7), 3, 3, 117),
            (lambda: quadratic_residue_tournament(11), 4, 10, 3_724),
            *[(lambda n0=n0: build_g3(n0)[0], 3, 4, nodes)
              for n0, nodes in enumerate((332, 1_969, 3_621, 5_785, 8_570), 1)],
        ],
        ids=["qr7", "qr11", *[f"g3-{n0}" for n0 in range(1, 6)]],
    )
    def test_oriented_pins(self, build, k, solved, nodes):
        # Regression counts on oriented inputs, where every derived witness
        # comes from a directed swap or a class cut arc.  Before the closure,
        # QR7 took 21 fresh searches and 520 nodes, QR11 33 and 6,099, and
        # build_g3(1..5) 13..49 and 623..12,480,434.
        d = build()
        budget = Budget(10 * nodes)
        report = is_k_dicritical(d, k, budget)
        assert report.verdict
        assert report.solved == solved
        assert report.nodes == budget.used == nodes

    @pytest.mark.parametrize(
        "d, k, message",
        [
            # Here the wrong witnesses reach the report's check.
            (bidirected_cycle(5), 3, "fails check_dicolourings"),
            (bidirected_cycle(7), 3, "fails check_dicolourings"),
            (quadratic_residue_tournament(7), 3, "fails check_dicolourings"),
            # Here a pass on a wrong witness finds no path between the two
            # ends of its arc first.
            (bidirected_complete(4), 4, "no path from"),
            (generate_4ore(16, seed=0)[0], 4, "no path from"),
            (build_g3(1)[0], 3, "no path from"),
        ],
        ids=["c5", "c7", "qr7", "k4", "4ore-16-s0", "g3-1"],
    )
    def test_a_wrong_swap_raises(self, d, k, message):
        real = colouring._bridges

        def wrong(out, inn, one, two, v, u):
            # Rule 2's swap also recolours u, on u's side of the bridge, so
            # u and v share a colour again and the arc uv closes a cycle.
            for p, q, side in real(out, inn, one, two, v, u):
                yield p, q, side | 1 << u

        with mock.patch.object(colouring, "_bridges", wrong):
            with pytest.raises(AssertionError, match=message):
                is_k_dicritical(d, k)

    @pytest.mark.parametrize(
        "build, k",
        [
            (lambda: quadratic_residue_tournament(7), 3),
            (lambda: quadratic_residue_tournament(11), 4),
            (lambda: build_g3(2)[0], 3),
            (lambda: _relabelled(generate_4ore(25, seed=3)[0], 1), 4),
        ],
        ids=["qr7", "qr11", "g3-2", "4ore-25-shuffled"],
    )
    def test_closure_commutes_with_relabelling(self, build, k):
        # The closure runs in D's own labels, and the bridges it follows lie
        # on every path, so relabelling D relabels every witness it derives,
        # in the same order.  Each distinct witness of D seeds it once.
        d = build()
        perm = list(range(d.n))
        random.Random(k).shuffle(perm)
        e = Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])

        def moved(w):
            colours = [0] * d.n
            for x, c in enumerate(w.colours):
                colours[perm[x]] = c
            return Colouring(w.k, tuple(colours))

        seeds = _distinct_witnesses(is_k_dicritical(d, k))
        grown = 0
        for (u, v), w in seeds:
            derived = {(u, v): w}
            colouring._closure(d.out_masks, d.in_masks, u, v, derived, d.m)
            image = {(perm[u], perm[v]): moved(w)}
            colouring._closure(e.out_masks, e.in_masks, perm[u], perm[v], image, e.m)
            assert list(image.items()) == [
                ((perm[p], perm[q]), moved(x)) for (p, q), x in derived.items()
            ]
            grown += len(derived) - 1
        assert grown > 0

    def test_failure_follows_the_arc_order(self):
        # K4 on {0, 1, 3, 4} with vertex 2 hung on 3 by a digon.  The first
        # fresh witness derives witnesses for K4's arcs after the failure arc
        # (2, 3) too; the report keeps only the arcs before it.
        d = bidirected_from_edges(5, [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4), (2, 3)])
        report = is_k_dicritical(d, 4)
        assert not report.verdict and report.failure_arc == (2, 3)
        assert sorted(report.witnesses) == [(0, 1), (0, 3), (0, 4), (1, 0), (1, 3), (1, 4)]
        assert (report.solved, report.swapped, report.reused) == (1, 4, 1)
        assert (report.failure_arc, sorted(report.witnesses)) == _arc_order_failure(
            d, 4, oracle_ie_is_k_dicolourable
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_failure_on_a_4ore_plus_a_digon(self, seed):
        d = generate_4ore(16, seed=seed)[0]
        rng = random.Random(seed)
        x, y = rng.choice([(x, y) for x, y in itertools.combinations(d.vertices(), 2)
                           if not d.has_arc(x, y)])
        plus = d.with_arcs([(x, y), (y, x)])
        report = is_k_dicritical(plus, 4)
        assert not report.verdict
        expected = _arc_order_failure(
            plus, 4, lambda g, c: is_k_dicolourable(g, c) is not None
        )
        assert expected[0] is not None
        assert (report.failure_arc, sorted(report.witnesses)) == expected


def _spied_criticality(d: Digraph, k: int):
    """``is_k_dicritical(d, k)`` and the (digraph, pairs) of every
    ``check_dicolourings`` call it made."""
    calls = []

    def checker(digraph, checks):
        calls.append((digraph, list(checks)))
        return check_dicolourings(digraph, calls[-1][1])

    with mock.patch.object(colouring, "check_dicolourings", checker):
        return is_k_dicritical(d, k), calls


def _relabelled(d: Digraph, seed: int) -> Digraph:
    perm = list(range(d.n))
    random.Random(seed).shuffle(perm)
    return Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])


@st.composite
def glued_digraphs(draw, max_n=8):
    """Pieces glued at vertex pairs, so the underlying graph has 2-cuts.
    Each piece is oriented, bidirected or mixed."""
    n = draw(st.integers(2, 4))
    arcs: set[tuple[int, int]] = set()

    def piece(vertices):
        shapes = draw(st.sampled_from([
            [(), ("ab",), ("ba",)], [(), ("ab", "ba")], [(), ("ab",), ("ba",), ("ab", "ba")],
        ]))
        for a, b in itertools.combinations(vertices, 2):
            for arc in draw(st.sampled_from(shapes)):
                arcs.add((a, b) if arc == "ab" else (b, a))

    piece(range(n))
    while n < max_n and draw(st.booleans()):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        size = draw(st.integers(1, min(3, max_n - n)))
        piece([u, v, *range(n, n + size)])
        n += size
    return Digraph(n, arcs)


def _random_glued(rng: random.Random, pieces: int) -> Digraph:
    n, arcs = rng.randint(4, 7), set()
    density = rng.choice([0.3, 0.5, 0.7])

    def piece(vertices):
        arcs.update((a, b) for a in vertices for b in vertices if a != b and rng.random() < density)

    piece(list(range(n)))
    for _ in range(pieces - 1):
        u, v = rng.sample(range(n), 2)
        size = rng.randint(2, 5)
        piece([u, v, *range(n, n + size)])
        n += size
    return Digraph(n, arcs)


def _reduce(d: Digraph, c: int) -> tuple[bool, RefutationStats]:
    stats = RefutationStats()
    return _colourable(d.out_masks, c, Budget(10_000_000), stats), stats


class TestReduction:
    """The 2-separator reduction, called without the plain search first."""

    @settings(max_examples=60, deadline=None)
    @given(glued_digraphs(), st.sampled_from([2, 3]))
    @example(bidirected_cycle(5), 2)
    @example(Digraph(6, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1), (4, 5), (5, 3)]), 2)
    # Side {2, 3} at {0, 1} forces c(0) = c(1) and a path 0 -> 3 -> 1 (state
    # EQuv only); the digon [0, 1] and the 4-cycle through 4 and 5 want
    # c(0) != c(1), so the forcer in the gadget is what refutes.
    @example(Digraph(6, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (2, 3), (3, 2),
                         (0, 3), (3, 1), (0, 4), (4, 0), (4, 5), (5, 4), (5, 1), (1, 5)]), 2)
    # Two such sides at {0, 1}, both with paths 0 -> 1: 2-dicolourable, but
    # not if either gadget had its arc the wrong way round.
    @example(Digraph(6, [(0, 2), (2, 0), (1, 2), (2, 1), (2, 3), (3, 2), (0, 3), (3, 1),
                         (0, 4), (4, 0), (1, 4), (4, 1), (4, 5), (5, 4), (0, 5), (5, 1)]), 2)
    def test_agrees_with_the_oracle(self, d, c):
        # Below the real base size everything would go to the search, so the
        # reduction is made to reduce every piece of more than two vertices.
        with mock.patch.object(colouring, "_BASE_SIZE", 2):
            assert _reduce(d, c)[0] == oracle_is_k_dicolourable(d, c)

    def test_agrees_with_the_search_on_larger_glued_digraphs(self):
        rng = random.Random(12)
        replaced = 0
        for _ in range(40):
            d = _random_glued(rng, rng.randint(3, 5))
            c = rng.choice([2, 3])
            got, stats = _reduce(d, c)
            assert got == (is_k_dicolourable(d, c) is not None)
            replaced += stats.sides_replaced
        assert replaced > 0

    @pytest.mark.parametrize("n", [13, 16, 19, 22])
    def test_4ore_near_misses(self, n):
        # D - a is 3-dicolourable because D is 4-dicritical; D + a is not.
        rng = random.Random(n)
        for seed in range(3):
            d = generate_4ore(n, seed=seed)[0]
            minus = _relabelled(d.without_arcs([rng.choice(d.sorted_arcs())]), seed)
            pairs = [(x, y) for x in d.vertices() for y in d.vertices()
                     if x != y and not d.has_arc(x, y) and not d.has_arc(y, x)]
            plus = _relabelled(d.with_arcs([rng.choice(pairs)]), seed)
            assert _reduce(minus, 3)[0] and is_k_dicolourable(minus, 3) is not None
            assert not _reduce(plus, 3)[0] and is_k_dicolourable(plus, 3) is None

    def test_shuffled_4ore_100_refuted_within_ceiling(self):
        d = _relabelled(generate_4ore(100, seed=3)[0], 1)
        out, inn = d.out_masks, d.in_masks
        stats = RefutationStats()
        budget = Budget(61_268)
        assert not _decide(out, *_branching(out, inn)[1:], 3, budget, stats)
        # 2 c n^2 = 60,000 nodes of plain search, then the reduction.
        assert stats.reduced and stats.plain_nodes == 60_001
        assert budget.used == stats.plain_nodes + 1_267

    def test_g3_four_refuted_within_ceiling(self):
        g3, _ = build_g3(4)
        out, inn = g3.out_masks, g3.in_masks
        stats = RefutationStats()
        budget = Budget(5_400)
        assert not _decide(out, *_branching(out, inn)[1:], 2, budget, stats)
        assert stats.reduced and stats.sides_replaced > 0

    def test_caller_budget_still_runs_out_loudly(self):
        g3, _ = build_g3(2)
        out, inn = g3.out_masks, g3.in_masks
        _, ordered_out, ordered_inn = _branching(out, inn)
        # The caller's limit binds inside the plain search ...
        budget = Budget(500)
        with pytest.raises(BudgetExceeded):
            _decide(out, ordered_out, ordered_inn, 2, budget, RefutationStats())
        assert budget.used == 501
        # ... and inside the reduction, after the 2 c n^2 = 1,600 plain nodes.
        with pytest.raises(BudgetExceeded):
            _decide(out, ordered_out, ordered_inn, 2, Budget(1_650), RefutationStats())

    def test_report_counts_the_reduction(self):
        g3, _ = build_g3(2)
        budget = Budget(100_000)
        report = is_k_dicritical(g3, 3, budget)
        assert report.verdict and report.nodes == budget.used
        stats = report.to_json()["stats"]
        assert stats["reduced"] is True and stats["plain_nodes"] == 1_601
        assert stats["sides_replaced"] > 0 and stats["piece_solves"] > 0


def _reduction_first():
    """Patches under which every question of more than two vertices runs the
    reduction: pieces reduce down to two vertices, and the plain search gets
    an allowance of one node."""
    return mock.patch.multiple(colouring, _BASE_SIZE=2, _PLAIN_NODES_PER_CN2=0)


class TestDecisionPath:
    """``is_k_dicolourable`` decides through ``_decide``, and after a "yes"
    from the reduction runs the plain search again for the witness."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(digraphs(10, 8), mixed_digraphs(10, 8)), st.integers(1, 4))
    def test_reduction_route_agrees_with_the_oracle(self, d, k):
        plain = is_k_dicolourable(d, k)
        with _reduction_first(), mock.patch.object(
            colouring, "_colourable", wraps=colouring._colourable
        ) as reduction:
            got = is_k_dicolourable(d, k)
        assert reduction.called
        assert (got is not None) == oracle_ie_is_k_dicolourable(d, k)
        assert got == plain
        if got is not None:
            assert valid_dicolouring(d, got.colours)

    def test_budget_runs_out_loudly_on_either_side_of_the_reduction(self):
        d, k = bidirected_cycle(7), 3
        witness = Budget()
        _first_assignment(*_branching(d.out_masks, d.in_masks)[1:], k, witness)
        with _reduction_first():
            budget = Budget()
            expected = is_k_dicolourable(d, k, budget)
            total = budget.used
            # 2 nodes of plain search (one over its allowance), the
            # reduction, then the witness search.
            reduction = total - 2 - witness.used
            assert expected is not None and reduction > 1 and witness.used > 1
            for limit in (2 + reduction - 1, total - 1):
                budget = Budget(limit)
                with pytest.raises(BudgetExceeded):
                    is_k_dicolourable(d, k, budget)
                assert budget.used == limit + 1
            assert is_k_dicolourable(d, k, Budget(total)) == expected


class TestNodeCeilings:
    """Upper bounds on ``Budget.used`` of the dicriticality check.  Node
    counts are deterministic; a later change may only lower these."""

    @pytest.mark.parametrize(
        "build, k, ceiling",
        [
            # 5,649 nodes with a fresh search per digon, before Kempe swaps.
            (lambda: generate_4ore(25, seed=3)[0], 4, 1_154),
            # 623, 5,146 and 44,321 nodes with a fresh search for every arc
            # that the reuse screen of docs/decisions.md, section 7, missed.
            (lambda: build_g3(1)[0], 3, 332),
            (lambda: build_g3(2)[0], 3, 1_969),
            (lambda: build_g3(3)[0], 3, 3_621),
            # Labels permuted by random.Random(1).shuffle: 170,362,028 nodes
            # under chronological backtracking, 285,443 with a fresh search
            # per digon.
            (lambda: _relabelled(generate_4ore(49, seed=3)[0], 1), 4, 21_547),
            # 35,504,588 nodes with a fresh search per digon.
            (lambda: _relabelled(generate_4ore(100, seed=3)[0], 1), 4, 76_432),
        ],
        ids=["4ore-25-seed3", "g3-1", "g3-2", "g3-3", "4ore-49-seed3-shuffled",
             "4ore-100-seed3-shuffled"],
    )
    def test_ceiling(self, build, k, ceiling):
        budget = Budget(10 * ceiling)
        assert is_k_dicritical(build(), k, budget).verdict
        assert budget.used <= ceiling

    @pytest.mark.parametrize(
        "build, k, ceiling",
        [
            (lambda: build_g3(4)[0], 2, 5_400),
            (lambda: _relabelled(generate_4ore(100, seed=3)[0], 1), 3, 61_268),
        ],
        ids=["g3-4", "4ore-100-seed3-shuffled"],
    )
    def test_refutation_ceiling(self, build, k, ceiling):
        budget = Budget(10 * ceiling)
        assert is_k_dicolourable(build(), k, budget) is None
        assert budget.used <= ceiling

    def test_g3_three_fits_a_million_nodes(self):
        g3, _ = build_g3(3)
        assert is_k_dicritical(g3, 3, Budget(1_000_000)).verdict

    @pytest.mark.parametrize("seed", range(6))
    def test_relabelled_4ore_stays_cheap(self, seed):
        d = _relabelled(generate_4ore(25, seed=3)[0], seed)
        budget = Budget(100_000)
        assert is_k_dicritical(d, 4, budget).verdict
